//! Fig. 18 — minimum extra resource overhead achievable by choosing the
//! optimal chiplet size, versus defect rate, for target distances
//! d = 9, 11, 13, 15, 17. Three panels: (a) link defects only,
//! (b) link+qubit defects, (c) link+qubit with the freedom to swap the
//! data/syndrome assignment (chiplet rotation).
//!
//! Each (l, rate) population is read once and post-selected against
//! every target; panels (b) and (c) are two views of one draw (each
//! chiplet as fabricated, and in its better orientation). Sizes run
//! l = 11…31: at l = d the closed-form defect-free yield is used, so no
//! l = 9 population is drawn.

use super::{fabricated, rotatable};
use crate::{FigResult, RunConfig};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel::{self, LinkAndQubit, LinkOnly};
use dqec_chiplet::record::{Record, Sink, Value};
use dqec_chiplet::yields::{overhead_factor, yield_from_indicators, SampleConfig};
use dqec_core::layout::PatchLayout;

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let sizes: Vec<u32> = (11..=31).step_by(2).collect();
    let targets = [9, 11, 13, 15, 17].map(QualityTarget::defect_free);
    // One panel row: per target, the least overhead over the l = d
    // defect-intolerant chiplet and the sampled sizes with l > d, read
    // through `view` (chiplets as fabricated, or rotatable).
    let row = |model: DefectModel, rate: f64, view: fn(&SampleConfig, usize) -> Vec<_>| {
        let mut cells = vec![Value::from(rate)];
        for target in &targets {
            let d = target.distance;
            let intolerant = model.defect_free_probability(&PatchLayout::memory(d), rate);
            let mut best = overhead_factor(d, intolerant, d);
            for &l in sizes.iter().filter(|&&l| l > d) {
                let inds = view(&cfg.population(l, model, rate), cfg.samples);
                let y = yield_from_indicators(&inds, target).fraction();
                best = best.min(overhead_factor(l, y, d));
            }
            cells.push(best.into());
        }
        Record::Row(cells)
    };

    let mut panels: [Vec<Record>; 3] = Default::default();
    for rate in (1..=5).map(|i| i as f64 * 0.002) {
        panels[0].push(row(LinkOnly, rate, fabricated));
        panels[1].push(row(LinkAndQubit, rate, fabricated));
        panels[2].push(row(LinkAndQubit, rate, rotatable));
    }
    let mut columns = vec!["rate".to_string()];
    columns.extend(targets.iter().map(|t| format!("d={}", t.distance)));
    for (name, rows) in [
        "(a) link defects only",
        "(b) link+qubit defects",
        "(c) link+qubit defects, with data/syndrome swap",
    ]
    .into_iter()
    .zip(panels)
    {
        sink.emit(&Record::Section(name.to_string()));
        sink.emit(&Record::Columns(columns.clone()));
        for row in &rows {
            sink.emit(row);
        }
    }
    sink.emit(&Record::Note(
        "paper: (a) curves coincide, ~2X at 0.5% and <3X at 1%;".into(),
    ));
    sink.emit(&Record::Note(
        "paper: (b) ~3X at 0.5%, 5-6X at 1%; (c) slightly lower than (b).".into(),
    ));
    Ok(())
}
