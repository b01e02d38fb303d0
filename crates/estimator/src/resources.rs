//! Device-level resource estimation (Tables 1–2).

use crate::application::ApplicationSpec;
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::yields::{
    overhead_factor, sample_indicators_range, yield_from_indicators, SampleConfig,
};
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

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

/// The super-stabilizer approach: sweep chiplet sizes, post-select with
/// the paper's criterion, and report the size minimizing the overhead.
///
/// Also returns the sampled indicators of the chosen size (for fidelity
/// estimation downstream). `None` when `candidate_ls` is empty.
pub fn super_stabilizer_row(
    spec: &ApplicationSpec,
    model: DefectModel,
    rate: f64,
    candidate_ls: &[u32],
    samples: usize,
    seed: u64,
) -> Option<(ResourceRow, Vec<PatchIndicators>)> {
    let target = QualityTarget::defect_free(spec.target_distance);
    // Candidate sizes are independent sweeps: evaluate them in parallel,
    // each with its own ChaCha8-derived seed so the populations are
    // decorrelated rather than replaying one stream per size.
    let mut seed_stream = ChaCha8Rng::seed_from_u64(seed);
    let seeded: Vec<(u32, u64)> = candidate_ls
        .iter()
        .map(|&l| (l, seed_stream.gen::<u64>()))
        .collect();
    let rows: Vec<(ResourceRow, Vec<PatchIndicators>)> = seeded
        .into_par_iter()
        .map(|(l, seed)| {
            let config = SampleConfig {
                seed,
                ..SampleConfig::new(l, model, rate)
            };
            let inds = sample_indicators_range(&config, 0..samples);
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
        })
        .collect();
    // `min_by` keeps the first (smallest) candidate on ties — including
    // the all-infinite-overhead zero-yield regime.
    rows.into_iter()
        .min_by(|a, b| a.0.overhead.total_cmp(&b.0.overhead))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (ss, inds) =
            super_stabilizer_row(&spec, DefectModel::LinkAndQubit, 0.01, &[7, 9], 400, 9).unwrap();
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
        assert!(
            super_stabilizer_row(&spec, DefectModel::LinkAndQubit, 0.001, &[], 10, 1).is_none()
        );
    }
}
