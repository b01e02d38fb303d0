//! Fig. 16 — yield improvement from the freedom to rotate chiplets
//! (swapping the data/syndrome assignment), links and qubits faulty at
//! the same rate, l = 11, 13, 15 against a d = 9 target.
//!
//! Rotation is a view of one draw: `l=…` reads each (l, rate)
//! population as fabricated and `l=…(rot)` the better orientation per
//! chiplet; in one process the fabricated chiplets are Fig. 13's.

use super::{fabricated, rotatable};
use crate::{FigResult, RunConfig};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink, YieldRecord};
use dqec_chiplet::yields::yield_from_indicators;

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let target = QualityTarget::defect_free(9);
    let sizes = [11u32, 13, 15];
    let rates: Vec<f64> = (0..=5).map(|i| i as f64 * 0.002).collect();

    for &rate in &rates {
        for &l in &sizes {
            let config = cfg.population(l, DefectModel::LinkAndQubit, rate);
            for (series, inds) in [
                (format!("l={l}"), fabricated(&config, cfg.samples)),
                (format!("l={l}(rot)"), rotatable(&config, cfg.samples)),
            ] {
                let estimate = yield_from_indicators(&inds, &target);
                sink.emit(&Record::Yield(YieldRecord::sampled(
                    series,
                    rate,
                    estimate.kept,
                    estimate.total,
                )));
            }
        }
    }
    sink.emit(&Record::Note(
        "paper: rotation freedom visibly improves the yield when qubit".into(),
    ));
    sink.emit(&Record::Note(
        "defects are present (faulty syndrome qubits hurt more than data).".into(),
    ));
    Ok(())
}
