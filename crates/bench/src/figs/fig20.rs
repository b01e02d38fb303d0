//! Fig. 20 — cutoff fidelity for disabling a bad qubit: stability
//! experiments on a patch whose central data qubit has an elevated
//! two-qubit error rate (5–15%), compared against disabling it and
//! forming super-stabilizers. Where the curves cross tells whether the
//! qubit should be kept or disabled.
//!
//! Each series is one `ExperimentSpec` sweep, so the decoding graph is
//! built once per series and reweighted across the p-window. The five
//! series run as one plan through [`RunConfig::sweep`], so
//! `--precision`, `--checkpoint`/`--resume` and `--shard` apply.

use crate::{FigResult, RunConfig};
use dqec_chiplet::record::{Record, Sink};
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::{Coord, DefectSet};

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    // All-X-boundary stability patch (even x even is required for k=0 on
    // the rotated lattice; the paper's 'd=5' patch maps to 6x6 here).
    let bad = Coord::new(5, 5);
    let rounds = 8;
    let ps: Vec<f64> = if cfg.full {
        (1..=9).map(|i| i as f64 * 1e-3).collect()
    } else {
        vec![2e-3, 4e-3, 6e-3, 8e-3]
    };
    let bad_ps = [0.05, 0.08, 0.10, 0.15];

    // Disable the bad qubit: super-stabilizers around the hole.
    let mut disable_defects = DefectSet::new();
    disable_defects.add_data(bad);
    let disable_patch = AdaptedPatch::new(PatchLayout::stability(6, 6), &disable_defects);
    assert!(disable_patch.is_valid());
    let disable = ExperimentSpec::stability(disable_patch)
        .seed(cfg.seed)
        .label("super-stabilizer");

    // Keep the bad qubit at each elevated error rate.
    let keep_patch = AdaptedPatch::new(PatchLayout::stability(6, 6), &DefectSet::new());
    let keep = bad_ps.iter().map(|&bp| {
        ExperimentSpec::stability(keep_patch.clone())
            .seed(cfg.seed ^ (1000.0 * bp) as u64)
            .bad_qubit(bad, bp)
            .label(format!("faulty p={bp}"))
    });
    let specs = std::iter::once(disable)
        .chain(keep)
        .map(|spec| spec.ps(&ps).rounds(rounds).shots(cfg.shots));
    cfg.sweep("fig20_stability_cutoff", specs, sink)?;
    sink.emit(&Record::Note(
        "paper: above ~10% the bad qubit should always be disabled; below".into(),
    ));
    sink.emit(&Record::Note(
        "~5% it should be kept unless the good qubits are extremely clean;".into(),
    ));
    sink.emit(&Record::Note(
        "at ~8% the cutoff sits near a good-qubit error rate of ~0.45%.".into(),
    ));
    Ok(())
}
