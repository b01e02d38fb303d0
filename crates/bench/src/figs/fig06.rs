//! Fig. 6 — logical error rate versus physical error rate for
//! defect-free patches (d = 3..9) and example defective l = 11 patches,
//! in the low-p regime where LER ∝ p^(αd).

use crate::{FigResult, RunConfig};
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink};
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;
use dqec_sweep::SweepPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Emits the figure's records.
///
/// Both panels run as [`SweepPlan`]s through the sweep engine: the
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
    let plan: SweepPlan = ds
        .iter()
        .map(|&d| {
            let patch = AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new());
            cfg.spec_with_decoder(
                ExperimentSpec::memory(patch)
                    .ps(&ps)
                    .rounds(d)
                    .shots(cfg.shots)
                    .seed(cfg.seed)
                    .label(format!("d={d}")),
            )
        })
        .collect();
    cfg.engine("fig06_ler_curves.defect-free")
        .run(&plan, sink)?;

    sink.emit(&Record::Section(
        "defective l=11 examples (one per adapted distance)".into(),
    ));
    let layout = PatchLayout::memory(11);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf16);
    let mut examples: std::collections::BTreeMap<u32, AdaptedPatch> = Default::default();
    let wanted: Vec<u32> = if cfg.full {
        vec![6, 7, 8, 9, 10]
    } else {
        vec![7, 9]
    };
    let mut tries = 0;
    while examples.len() < wanted.len() && tries < 20_000 {
        tries += 1;
        let defects = DefectModel::LinkAndQubit.sample(&layout, 0.01, &mut rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        let d = PatchIndicators::of(&patch).distance();
        if wanted.contains(&d) {
            examples.entry(d).or_insert(patch);
        }
    }
    let plan: SweepPlan = examples
        .into_iter()
        .map(|(d, patch)| {
            cfg.spec_with_decoder(
                ExperimentSpec::memory(patch)
                    .ps(&ps)
                    .shots(cfg.shots)
                    .seed(cfg.seed ^ 0xde)
                    .label(format!("defective d={d}")),
            )
        })
        .collect();
    cfg.engine("fig06_ler_curves.defective").run(&plan, sink)?;
    sink.emit(&Record::Note(
        "paper: straight lines on log-log axes, ordered by d; defective".into(),
    ));
    sink.emit(&Record::Note(
        "patches interleave with defect-free ones according to their d.".into(),
    ));
    Ok(())
}
