//! Golden-output test for Fig. 13: pins the exact TSV of the
//! link-and-qubit yield figure in quick mode (l = 9 baseline, l = 11…19,
//! rates 0–1 %). The figure is a pure function of the seed and the
//! sample count, and every value in it comes from the yield path
//! (defect sampling, `AdaptedPatch::new`, `PatchIndicators::of`), so a
//! change to adaptation or to the distance computation that moves any
//! chiplet's verdict shows here.

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::{Sink, TsvSink};

const EXPECTED: &str = "\
# fig13_linkqubit: yield and overhead vs defect rate, link+qubit defects, target d=9
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7
series\trate\tkept\tsamples\tyield\toverhead
baseline(l=9)\t0\t-\t-\t1.0000\t1.0000
l=11\t0\t8\t8\t1.0000\t1.4969
l=13\t0\t8\t8\t1.0000\t2.0932
l=15\t0\t8\t8\t1.0000\t2.7888
l=17\t0\t8\t8\t1.0000\t3.5839
l=19\t0\t8\t8\t1.0000\t4.4783
baseline(l=9)\t1.000e-3\t-\t-\t0.6381\t1.5671
l=11\t1.000e-3\t8\t8\t1.0000\t1.4969
l=13\t1.000e-3\t8\t8\t1.0000\t2.0932
l=15\t1.000e-3\t8\t8\t1.0000\t2.7888
l=17\t1.000e-3\t8\t8\t1.0000\t3.5839
l=19\t1.000e-3\t8\t8\t1.0000\t4.4783
baseline(l=9)\t2.000e-3\t-\t-\t0.4070\t2.4569
l=11\t2.000e-3\t7\t8\t0.8750\t1.7107
l=13\t2.000e-3\t8\t8\t1.0000\t2.0932
l=15\t2.000e-3\t8\t8\t1.0000\t2.7888
l=17\t2.000e-3\t8\t8\t1.0000\t3.5839
l=19\t2.000e-3\t8\t8\t1.0000\t4.4783
baseline(l=9)\t3.000e-3\t-\t-\t0.2595\t3.8537
l=11\t3.000e-3\t6\t8\t0.7500\t1.9959
l=13\t3.000e-3\t8\t8\t1.0000\t2.0932
l=15\t3.000e-3\t8\t8\t1.0000\t2.7888
l=17\t3.000e-3\t8\t8\t1.0000\t3.5839
l=19\t3.000e-3\t8\t8\t1.0000\t4.4783
baseline(l=9)\t4.000e-3\t-\t-\t0.1654\t6.0472
l=11\t4.000e-3\t5\t8\t0.6250\t2.3950
l=13\t4.000e-3\t7\t8\t0.8750\t2.3922
l=15\t4.000e-3\t8\t8\t1.0000\t2.7888
l=17\t4.000e-3\t8\t8\t1.0000\t3.5839
l=19\t4.000e-3\t7\t8\t0.8750\t5.1180
baseline(l=9)\t5.000e-3\t-\t-\t0.1053\t9.4937
l=11\t5.000e-3\t3\t8\t0.3750\t3.9917
l=13\t5.000e-3\t7\t8\t0.8750\t2.3922
l=15\t5.000e-3\t7\t8\t0.8750\t3.1872
l=17\t5.000e-3\t8\t8\t1.0000\t3.5839
l=19\t5.000e-3\t7\t8\t0.8750\t5.1180
baseline(l=9)\t6.000e-3\t-\t-\t0.0671\t14.9112
l=11\t6.000e-3\t2\t8\t0.2500\t5.9876
l=13\t6.000e-3\t5\t8\t0.6250\t3.3491
l=15\t6.000e-3\t7\t8\t0.8750\t3.1872
l=17\t6.000e-3\t7\t8\t0.8750\t4.0958
l=19\t6.000e-3\t6\t8\t0.7500\t5.9710
baseline(l=9)\t7.000e-3\t-\t-\t0.0427\t23.4308
l=11\t7.000e-3\t2\t8\t0.2500\t5.9876
l=13\t7.000e-3\t4\t8\t0.5000\t4.1863
l=15\t7.000e-3\t7\t8\t0.8750\t3.1872
l=17\t7.000e-3\t7\t8\t0.8750\t4.0958
l=19\t7.000e-3\t6\t8\t0.7500\t5.9710
baseline(l=9)\t8.000e-3\t-\t-\t0.0271\t36.8349
l=11\t8.000e-3\t1\t8\t0.1250\t11.9752
l=13\t8.000e-3\t4\t8\t0.5000\t4.1863
l=15\t8.000e-3\t5\t8\t0.6250\t4.4621
l=17\t8.000e-3\t7\t8\t0.8750\t4.0958
l=19\t8.000e-3\t6\t8\t0.7500\t5.9710
baseline(l=9)\t9.000e-3\t-\t-\t0.0173\t57.9334
l=11\t9.000e-3\t1\t8\t0.1250\t11.9752
l=13\t9.000e-3\t4\t8\t0.5000\t4.1863
l=15\t9.000e-3\t5\t8\t0.6250\t4.4621
l=17\t9.000e-3\t7\t8\t0.8750\t4.0958
l=19\t9.000e-3\t5\t8\t0.6250\t7.1652
baseline(l=9)\t0.0100\t-\t-\t0.0110\t91.1586
l=11\t0.0100\t0\t8\t0\tinf
l=13\t0.0100\t4\t8\t0.5000\t4.1863
l=15\t0.0100\t4\t8\t0.5000\t5.5776
l=17\t0.0100\t7\t8\t0.8750\t4.0958
l=19\t0.0100\t5\t8\t0.6250\t7.1652
# paper: yields lower than Fig 12; larger l pays off from lower rates;
# paper: baseline overhead 91X at 1%.
";

#[test]
fn fig13_tsv_output_is_pinned() {
    let cfg = RunConfig {
        samples: 8,
        shots: 200,
        seed: 7,
        ..RunConfig::default()
    };
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == "fig13_linkqubit")
        .expect("fig13 registered");
    let mut sink = TsvSink::new(Vec::new());
    sink.emit(&cfg.meta(rep.name, rep.what));
    (rep.run)(&cfg, &mut sink).expect("fig13 runs");
    sink.finish().expect("in-memory sink");
    let text = String::from_utf8(sink.into_inner()).expect("utf-8 output");
    assert_eq!(text, EXPECTED);
}
