//! Device-level resource estimation (Tables 1–2).

use crate::application::ApplicationSpec;
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::yields::{overhead_factor, yield_from_indicators, SampleConfig};
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One row of the paper's resource tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRow {
    /// Approach name.
    pub label: String,
    /// Chiplet width used.
    pub l: u32,
    /// Chiplet yield under the approach's acceptance rule.
    pub yield_fraction: f64,
    /// Resource overhead factor relative to the ideal no-defect device.
    pub overhead: f64,
    /// Total fabricated physical qubits for the application.
    pub total_qubits: f64,
}

/// The ideal no-defect row.
pub fn no_defect_row(spec: &ApplicationSpec) -> ResourceRow {
    ResourceRow {
        label: "no-defect".into(),
        l: spec.target_distance,
        yield_fraction: 1.0,
        overhead: 1.0,
        total_qubits: spec.ideal_qubits() as f64,
    }
}

/// The defect-intolerant baseline: modular chiplets of width `d`, only
/// perfectly fabricated ones accepted (closed form).
pub fn defect_intolerant_row(spec: &ApplicationSpec, model: DefectModel, rate: f64) -> ResourceRow {
    let l = spec.target_distance;
    let y = model.defect_free_probability(&PatchLayout::memory(l), rate);
    let overhead = overhead_factor(l, y, spec.target_distance);
    ResourceRow {
        label: "defect-intolerant".into(),
        l,
        yield_fraction: y,
        overhead,
        total_qubits: spec.ideal_qubits() as f64 * overhead,
    }
}

/// The chiplet populations a super-stabilizer size sweep draws: one per
/// size in `candidate_ls`, in order, each with its own ChaCha8-derived
/// seed so the populations are decorrelated rather than replaying one
/// stream per size.
pub fn candidate_populations(
    model: DefectModel,
    rate: f64,
    candidate_ls: &[u32],
    seed: u64,
) -> Vec<SampleConfig> {
    let mut seed_stream = ChaCha8Rng::seed_from_u64(seed);
    candidate_ls
        .iter()
        .map(|&l| SampleConfig {
            seed: seed_stream.gen::<u64>(),
            ..SampleConfig::new(l, model, rate)
        })
        .collect()
}

/// The super-stabilizer approach: post-select each candidate
/// population `(l, chiplets)` — typically drawn from
/// [`candidate_populations`] — with the paper's criterion, and report
/// the size minimizing the overhead; the first such size on a tie.
///
/// Also returns the chosen size's chiplets (for fidelity estimation
/// downstream). `None` when there is no candidate.
pub fn super_stabilizer_row(
    spec: &ApplicationSpec,
    candidates: impl IntoIterator<Item = (u32, Vec<PatchIndicators>)>,
) -> Option<(ResourceRow, Vec<PatchIndicators>)> {
    let target = QualityTarget::defect_free(spec.target_distance);
    let rows = candidates.into_iter().map(|(l, inds)| {
        let y = yield_from_indicators(&inds, &target).fraction();
        let overhead = overhead_factor(l, y, spec.target_distance);
        let row = ResourceRow {
            label: "super-stabilizer".into(),
            l,
            yield_fraction: y,
            overhead,
            total_qubits: spec.ideal_qubits() as f64 * overhead,
        };
        (row, inds)
    });
    // `min_by` keeps the first (smallest) candidate on ties — including
    // the all-infinite-overhead zero-yield regime.
    rows.min_by(|a, b| a.0.overhead.total_cmp(&b.0.overhead))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_core::adapt::AdaptedPatch;

    #[test]
    fn no_defect_is_the_reference() {
        let spec = ApplicationSpec::shor_2048();
        let row = no_defect_row(&spec);
        assert_eq!(row.overhead, 1.0);
        assert!((row.total_qubits - 2.07e7).abs() < 0.05e7);
    }

    #[test]
    fn defect_intolerant_matches_paper_at_0_1_percent() {
        // Paper Table 1: yield 1.4%, overhead 71.32, 1.5e9 qubits.
        let spec = ApplicationSpec::shor_2048();
        let row = defect_intolerant_row(&spec, DefectModel::LinkAndQubit, 0.001);
        assert!(
            (row.yield_fraction - 0.014).abs() < 0.001,
            "yield {}",
            row.yield_fraction
        );
        assert!(
            (row.overhead - 71.3).abs() < 5.0,
            "overhead {}",
            row.overhead
        );
        assert!(
            (row.total_qubits - 1.5e9).abs() < 0.2e9,
            "qubits {}",
            row.total_qubits
        );
    }

    #[test]
    fn defect_intolerant_matches_paper_at_0_3_percent() {
        // Paper Table 2: yield 2.7e-6, overhead 3.67e5.
        let spec = ApplicationSpec::shor_2048();
        let row = defect_intolerant_row(&spec, DefectModel::LinkAndQubit, 0.003);
        assert!(
            (row.yield_fraction.log10() - (2.7e-6f64).log10()).abs() < 0.3,
            "yield {}",
            row.yield_fraction
        );
        assert!(
            row.overhead > 1e5 && row.overhead < 1e6,
            "overhead {}",
            row.overhead
        );
    }

    /// `n` chiplets of `config`'s size, model and rate, the `i`-th
    /// drawn from a ChaCha8 stream seeded with `config.seed + i`.
    fn chiplets(config: &SampleConfig, n: u64) -> Vec<PatchIndicators> {
        let layout = PatchLayout::memory(config.l);
        (0..n)
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(i));
                let defects = config.model.sample(&layout, config.rate, &mut rng);
                PatchIndicators::of(&AdaptedPatch::new(layout.clone(), &defects))
            })
            .collect()
    }

    #[test]
    fn super_stabilizer_beats_defect_intolerant() {
        // Scaled-down variant: target d=5 at 1% defects.
        let spec = ApplicationSpec {
            patches: 100,
            cycles: 1e6,
            target_distance: 5,
            p_phys: 1e-3,
        };
        let intolerant = defect_intolerant_row(&spec, DefectModel::LinkAndQubit, 0.01);
        let populations = candidate_populations(DefectModel::LinkAndQubit, 0.01, &[7, 9], 9);
        let drawn = populations.iter().map(|c| (c.l, chiplets(c, 400)));
        let (ss, inds) = super_stabilizer_row(&spec, drawn).unwrap();
        assert!(
            ss.overhead < intolerant.overhead,
            "{} !< {}",
            ss.overhead,
            intolerant.overhead
        );
        assert_eq!(inds.len(), 400);
    }

    #[test]
    fn no_candidate_sizes_is_none() {
        let spec = ApplicationSpec::shor_2048();
        assert!(candidate_populations(DefectModel::LinkAndQubit, 0.001, &[], 1).is_empty());
        assert!(super_stabilizer_row(&spec, []).is_none());
    }

    /// Candidates of equal overhead (here all at zero yield) go to the
    /// first one given.
    #[test]
    fn ties_go_to_the_first_candidate() {
        let spec = ApplicationSpec::shor_2048();
        let (row, _) = super_stabilizer_row(&spec, [(31, Vec::new()), (29, Vec::new())]).unwrap();
        assert_eq!(row.l, 31);
        assert_eq!(row.overhead, f64::INFINITY);
    }
}
