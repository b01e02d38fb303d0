//! Tables 3 and 4 — application fidelity at matched resource overhead:
//! baseline 1 (modular but defect-intolerant, smaller defect-free
//! patches), baseline 2 (monolithic with super-stabilizers, no
//! post-selection), and the modular super-stabilizer approach.

use super::{fabricated, table_sweep, TABLE_RATES};
use crate::{FigResult, RunConfig};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink, Value};
use dqec_core::layout::PatchLayout;
use dqec_estimator::fidelity::{distance_distribution, fidelity_from_distances};
use dqec_estimator::ApplicationSpec;

/// Emits the tables' records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let spec = ApplicationSpec::shor_2048();
    let target = QualityTarget::defect_free(spec.target_distance);
    let ideal_cost = spec.qubits_per_patch() as f64;
    let sweep = table_sweep(cfg)?;

    for (((table, paper), rate), (ss, inds)) in [
        (
            "Table 3",
            "(paper: baseline1 ~0, baseline2 79.9%, modular+SS 88.5%)",
        ),
        (
            "Table 4",
            "(paper: baseline1 ~0, baseline2 76.1%, modular+SS 91.7%)",
        ),
    ]
    .into_iter()
    .zip(TABLE_RATES)
    .zip(sweep.iter())
    {
        sink.emit(&Record::Section(format!(
            "{table}: defect rate {rate} {paper}"
        )));
        // Modular + super-stabilizer: optimal size, selected patches.
        let kept: Vec<_> = inds.iter().filter(|i| target.accepts(i)).cloned().collect();
        let modular_fid = fidelity_from_distances(&spec, &distance_distribution(&kept));

        // Baseline 1: modular defect-intolerant with smaller defect-free
        // patches matched to the same overhead (mix of d and d+2).
        let overhead_free = |d: u32| -> f64 {
            let layout = PatchLayout::memory(d);
            let y = DefectModel::LinkAndQubit.defect_free_probability(&layout, rate);
            (2 * d * d - 1) as f64 / (y * ideal_cost)
        };
        let mut d_lo = 3u32;
        while overhead_free(d_lo + 2) <= ss.overhead && d_lo + 2 < spec.target_distance {
            d_lo += 2;
        }
        let d_hi = d_lo + 2;
        let (o_lo, o_hi) = (overhead_free(d_lo), overhead_free(d_hi));
        let x = ((o_hi - ss.overhead) / (o_hi - o_lo)).clamp(0.0, 1.0);
        let b1_fid = fidelity_from_distances(&spec, &[(d_lo, x), (d_hi, 1.0 - x)]);

        // Baseline 2: monolithic with super-stabilizers, no selection.
        // Match the overhead with a mix of sizes l and l+2 (monolithic
        // overhead of size l is (2l^2-1)/1457, all patches used).
        let mono_overhead = |l: u32| (2 * l * l - 1) as f64 / ideal_cost;
        let l = ss.l;
        let (m_lo, m_hi) = (mono_overhead(l), mono_overhead(l + 2));
        let share_lo = ((m_hi - ss.overhead) / (m_hi - m_lo)).clamp(0.0, 1.0);
        let mut hi = cfg.population(l + 2, DefectModel::LinkAndQubit, rate);
        hi.seed ^= 0xb2;
        let inds_hi = fabricated(&hi, cfg.samples);
        let weighted = |inds, share: f64| {
            distance_distribution(inds)
                .into_iter()
                .map(move |(d, w)| (d, w * share))
        };
        let mixed: Vec<(u32, f64)> = weighted(inds, share_lo)
            .chain(weighted(&inds_hi, 1.0 - share_lo))
            .collect();
        let b2_fid = fidelity_from_distances(&spec, &mixed);

        sink.emit(&Record::Columns(
            ["approach", "l", "overhead", "estimated_fidelity"]
                .map(String::from)
                .to_vec(),
        ));
        for (approach, size, fidelity) in [
            (
                "baseline1 (defect-intolerant)",
                Value::from(format!("{d_lo}~{d_hi}")),
                b1_fid,
            ),
            (
                "baseline2 (monolithic+SS)",
                format!("{l}~{}", l + 2).into(),
                b2_fid,
            ),
            ("modular + super-stabilizer", l.into(), modular_fid),
        ] {
            sink.emit(&Record::row([
                Value::from(approach),
                size,
                ss.overhead.into(),
                fidelity.into(),
            ]));
        }
    }
    sink.emit(&Record::Note(
        "paper: post-selection lets the modular device discard the d<27".into(),
    ));
    sink.emit(&Record::Note(
        "patches that drag down the monolithic device's fidelity.".into(),
    ));
    Ok(())
}
