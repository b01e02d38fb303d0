//! Fig. 15 — yield after imposing the four boundary-quality standards
//! (deformation-free edges / surgery-capable edges, on all four or on
//! two opposite-type edges), links and qubits faulty at the same rate,
//! l = 13 chiplets against a d = 9 target.

use super::sequential_draw;
use crate::{FigResult, RunConfig};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::record::{Record, Sink, YieldRecord};
use dqec_core::indicators::PatchIndicators;
use dqec_core::merge::BoundaryStandard;

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let l = 13u32;
    let d_target = 9u32;
    let target = QualityTarget::defect_free(d_target);
    let rates: Vec<f64> = (0..=5).map(|i| i as f64 * 0.002).collect();
    // Surgery standards are 4x as expensive (one merged adaptation per
    // edge), so they use a reduced sample count in quick mode —
    // rounded up so tiny smoke runs still sample something. An empty
    // population (samples = 0) renders as yield 0, not NaN
    // (YieldRecord::sampled guards the division).
    let samples = if cfg.full {
        cfg.samples
    } else {
        cfg.samples.div_ceil(4)
    };

    for &rate in &rates {
        let mut kept = [0usize; 5];
        for (defects, patch) in sequential_draw(l, cfg.seed, &[rate]).take(samples) {
            let ind = PatchIndicators::of(&patch);
            if !target.accepts(&ind) {
                continue;
            }
            kept[0] += 1;
            for (i, std) in BoundaryStandard::ALL.iter().enumerate() {
                if std.satisfied(&patch, &defects, l, d_target) {
                    kept[i + 1] += 1;
                }
            }
        }
        let series = [
            "no-requirement",
            "standard1",
            "standard2",
            "standard3",
            "standard4",
        ];
        for (name, k) in series.iter().zip(kept) {
            sink.emit(&Record::Yield(YieldRecord::sampled(
                *name, rate, k, samples,
            )));
        }
    }
    sink.emit(&Record::Note(
        "paper: only standard 1 drops the yield significantly; standard 4's".into(),
    ));
    sink.emit(&Record::Note(
        "drop is negligible; standards 2-3 cost a visible but small amount.".into(),
    ));
    Ok(())
}
