//! Fig. 6 — logical error rate versus physical error rate for
//! defect-free patches (d = 3..9) and example defective l = 11 patches,
//! in the low-p regime where LER ∝ p^(αd).

use super::{by_distance, sequential_draw};
use crate::{FigResult, RunConfig};
use dqec_chiplet::record::{Record, Sink};
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;

/// Emits the figure's records.
///
/// Both panels run as plans through [`RunConfig::sweep`]: the
/// mixed-distance curves share the rayon pool, `--precision`
/// allocates shots adaptively per point, and `--checkpoint`/`--resume`
/// make the sweep durable.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let ps = cfg.slope_window();

    sink.emit(&Record::Section("defect-free".into()));
    let ds: Vec<u32> = if cfg.full {
        vec![5, 7, 9, 11]
    } else {
        vec![3, 5, 7]
    };
    let specs = ds.iter().map(|&d| {
        let patch = AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new());
        ExperimentSpec::memory(patch)
            .ps(&ps)
            .rounds(d)
            .shots(cfg.shots)
            .seed(cfg.seed)
            .label(format!("d={d}"))
    });
    cfg.sweep("fig06_ler_curves.defect-free", specs, sink)?;

    sink.emit(&Record::Section(
        "defective l=11 examples (one per adapted distance)".into(),
    ));
    let wanted: Vec<u32> = if cfg.full {
        vec![6, 7, 8, 9, 10]
    } else {
        vec![7, 9]
    };
    let draws = sequential_draw(11, cfg.seed ^ 0xf16, &[0.01]);
    let examples = by_distance(draws, wanted, 1, 20_000);
    let specs = examples
        .into_iter()
        .flat_map(|(d, patches)| patches.into_iter().map(move |patch| (d, patch)))
        .map(|(d, patch)| {
            ExperimentSpec::memory(patch)
                .ps(&ps)
                .shots(cfg.shots)
                .seed(cfg.seed ^ 0xde)
                .label(format!("defective d={d}"))
        });
    cfg.sweep("fig06_ler_curves.defective", specs, sink)?;
    sink.emit(&Record::Note(
        "paper: straight lines on log-log axes, ordered by d; defective".into(),
    ));
    sink.emit(&Record::Note(
        "patches interleave with defect-free ones according to their d.".into(),
    ));
    Ok(())
}
