//! Golden-output test: pins the exact TSV of the one fully
//! deterministic quick-mode reproduction (Fig. 14 involves no Monte
//! Carlo), guarding the record/sink rendering and the figure's values.

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::{Sink, TsvSink};

const EXPECTED: &str = "\
# fig14_merge_example: code distance before and after a lattice-surgery merge
# mode=quick (shape-reproduction) samples=2 shots=200 seed=7
# standalone patch: d = 7 (dX=9, dZ=7)
edge\tdeformed\tmerged_transverse_distance
Top\tfalse\t7
Bottom\tfalse\t7
Left\tfalse\t9
Right\ttrue\t6
# merging across the deformed (right) edge yields a lower transverse
# distance than merging across clean edges — the compiler should
# schedule lattice surgery on the other edges of such patches.
";

#[test]
fn fig14_tsv_output_is_pinned() {
    let cfg = RunConfig {
        samples: 2,
        shots: 200,
        seed: 7,
        ..RunConfig::default()
    };
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == "fig14_merge_example")
        .expect("fig14 registered");
    let mut sink = TsvSink::new(Vec::new());
    sink.emit(&cfg.meta(rep.name, rep.what));
    (rep.run)(&cfg, &mut sink).expect("fig14 runs");
    sink.finish().expect("in-memory sink");
    let text = String::from_utf8(sink.into_inner()).expect("utf-8 output");
    assert_eq!(text, EXPECTED);
}
