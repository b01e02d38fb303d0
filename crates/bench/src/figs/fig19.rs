//! Fig. 19 — code-distance distribution of adapted patches:
//! (a) l = 33 at 0.1% defects, (b) l = 39 at 0.3% defects, both links
//! and qubits faulty; the d >= 27 mass is the yield of the distance-27
//! target.

use super::fabricated;
use crate::{fmt, FigResult, RunConfig};
use dqec_chiplet::defect_model::DefectModel::LinkAndQubit;
use dqec_chiplet::record::{Record, Sink, Value};
use dqec_estimator::fidelity::distance_distribution;

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    for (panel, l, rate, paper_yield) in [("(a)", 33u32, 0.001, 0.945), ("(b)", 39, 0.003, 0.946)] {
        let inds = fabricated(&cfg.population(l, LinkAndQubit, rate), cfg.samples);
        let dist = distance_distribution(&inds);
        sink.emit(&Record::Section(format!("{panel} l={l} rate={rate}")));
        sink.emit(&Record::Columns(
            ["distance", "proportion"].map(String::from).to_vec(),
        ));
        let mut ge27 = 0.0;
        for (d, w) in &dist {
            sink.emit(&Record::row([Value::from(*d), (*w).into()]));
            if *d >= 27 {
                ge27 += w;
            }
        }
        sink.emit(&Record::Note(format!(
            "proportion with d >= 27: {} (paper: {paper_yield})",
            fmt(ge27)
        )));
    }
    Ok(())
}
