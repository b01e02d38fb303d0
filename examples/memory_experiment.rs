//! Memory experiment: measure logical error rates of defective and
//! defect-free patches under circuit-level noise, end to end through
//! the whole stack (adaptation, circuit generation, frame sampling,
//! MWPM decoding) — driven by the unified `ExperimentSpec`/`Runner`
//! API, with records rendered as TSV on stdout.
//!
//! Run with: `cargo run --release --example memory_experiment`

use dqec::prelude::*;

fn main() {
    let shots = 30_000;
    let ps = [2e-3, 3e-3, 4.5e-3];
    let runner = Runner::new();
    let mut sink = TsvSink::new(std::io::stdout().lock());

    sink.emit(&Record::Section("defect-free patches".into()));
    for l in [3u32, 5, 7] {
        let patch = AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new());
        let spec = ExperimentSpec::memory(patch)
            .ps(&ps)
            .rounds(l)
            .shots(shots)
            .seed(7)
            .label(format!("d={l}"))
            .fit(true);
        let outcome = runner.run(&spec, &mut sink).expect("circuit builds");
        if let Some(fit) = outcome.fit {
            sink.emit(&Record::Note(format!(
                "d={l}: slope = {:.2} (expect ~ (d+1)/2 = {:.1})",
                fit.slope,
                (l + 1) as f64 / 2.0
            )));
        }
    }

    // A defective l=7 chiplet: one broken data qubit drops d to 6.
    sink.emit(&Record::Section(
        "defective l=7 chiplet (broken data qubit at (7,7))".into(),
    ));
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(7, 7));
    let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
    let ind = PatchIndicators::of(&patch);
    sink.emit(&Record::Note(format!(
        "adapted distance: {}",
        ind.distance()
    )));
    let spec = ExperimentSpec::memory(patch)
        .ps(&ps)
        .rounds(7)
        .shots(shots)
        .seed(8)
        .label("defective l=7")
        .fit(true);
    runner.run(&spec, &mut sink).expect("circuit builds");
    sink.finish().expect("write stdout");
}
