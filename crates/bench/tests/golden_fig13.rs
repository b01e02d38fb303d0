//! Golden-output tests for the yield-and-overhead figures that share
//! one shape (`figs::yield_overhead_figure`): Figs. 12, 13 and 17. They
//! pin the exact TSVs in quick mode (Fig. 13: l = 9 baseline, l = 11…19,
//! rates 0–1 %). Each figure is a pure function of the seed and the
//! sample count, and every value in it comes from the yield path
//! (defect sampling, `AdaptedPatch::new`, `PatchIndicators::of`), so a
//! change to adaptation or to the distance computation that moves any
//! chiplet's verdict shows here. Fig. 12 is pinned a second time under
//! `--precision 0.3` at a 40-chiplet cap: the adaptive path reads 8
//! chiplets in its first round, so most benign points stop at 10 and
//! the harsh ones spend the cap.

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::{Sink, TsvSink};

fn quick() -> RunConfig {
    RunConfig {
        samples: 8,
        shots: 200,
        seed: 7,
        ..RunConfig::default()
    }
}

fn tsv(name: &str, cfg: &RunConfig) -> String {
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == name)
        .expect("figure registered");
    let mut sink = TsvSink::new(Vec::new());
    sink.emit(&cfg.meta(rep.name, rep.what));
    (rep.run)(cfg, &mut sink).expect("figure runs");
    sink.finish().expect("in-memory sink");
    String::from_utf8(sink.into_inner()).expect("utf-8 output")
}

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
    assert_eq!(tsv("fig13_linkqubit", &quick()), EXPECTED);
}

const FIG12: &str = "\
# fig12_linkonly: yield and overhead vs defect rate, link defects only, target d=9
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7
series\trate\tkept\tsamples\tyield\toverhead
baseline(l=9)\t0\t-\t-\t1.0000\t1.0000
l=11\t0\t8\t8\t1.0000\t1.4969
l=13\t0\t8\t8\t1.0000\t2.0932
l=15\t0\t8\t8\t1.0000\t2.7888
l=17\t0\t8\t8\t1.0000\t3.5839
baseline(l=9)\t2.000e-3\t-\t-\t0.5618\t1.7799
l=11\t2.000e-3\t8\t8\t1.0000\t1.4969
l=13\t2.000e-3\t8\t8\t1.0000\t2.0932
l=15\t2.000e-3\t8\t8\t1.0000\t2.7888
l=17\t2.000e-3\t8\t8\t1.0000\t3.5839
baseline(l=9)\t4.000e-3\t-\t-\t0.3153\t3.1718
l=11\t4.000e-3\t8\t8\t1.0000\t1.4969
l=13\t4.000e-3\t8\t8\t1.0000\t2.0932
l=15\t4.000e-3\t8\t8\t1.0000\t2.7888
l=17\t4.000e-3\t8\t8\t1.0000\t3.5839
baseline(l=9)\t6.000e-3\t-\t-\t0.1767\t5.6588
l=11\t6.000e-3\t7\t8\t0.8750\t1.7107
l=13\t6.000e-3\t8\t8\t1.0000\t2.0932
l=15\t6.000e-3\t8\t8\t1.0000\t2.7888
l=17\t6.000e-3\t8\t8\t1.0000\t3.5839
baseline(l=9)\t8.000e-3\t-\t-\t0.0989\t10.1074
l=11\t8.000e-3\t6\t8\t0.7500\t1.9959
l=13\t8.000e-3\t8\t8\t1.0000\t2.0932
l=15\t8.000e-3\t8\t8\t1.0000\t2.7888
l=17\t8.000e-3\t8\t8\t1.0000\t3.5839
baseline(l=9)\t0.0100\t-\t-\t0.0553\t18.0744
l=11\t0.0100\t5\t8\t0.6250\t2.3950
l=13\t0.0100\t8\t8\t1.0000\t2.0932
l=15\t0.0100\t8\t8\t1.0000\t2.7888
l=17\t0.0100\t8\t8\t1.0000\t3.5839
baseline(l=9)\t0.0120\t-\t-\t0.0309\t32.3594
l=11\t0.0120\t3\t8\t0.3750\t3.9917
l=13\t0.0120\t7\t8\t0.8750\t2.3922
l=15\t0.0120\t8\t8\t1.0000\t2.7888
l=17\t0.0120\t8\t8\t1.0000\t3.5839
baseline(l=9)\t0.0140\t-\t-\t0.0172\t58.0027
l=11\t0.0140\t1\t8\t0.1250\t11.9752
l=13\t0.0140\t4\t8\t0.5000\t4.1863
l=15\t0.0140\t8\t8\t1.0000\t2.7888
l=17\t0.0140\t8\t8\t1.0000\t3.5839
baseline(l=9)\t0.0160\t-\t-\t9.607e-3\t104.0906
l=11\t0.0160\t1\t8\t0.1250\t11.9752
l=13\t0.0160\t2\t8\t0.2500\t8.3727
l=15\t0.0160\t6\t8\t0.7500\t3.7184
l=17\t0.0160\t7\t8\t0.8750\t4.0958
baseline(l=9)\t0.0180\t-\t-\t5.347e-3\t187.0215
l=11\t0.0180\t0\t8\t0\tinf
l=13\t0.0180\t1\t8\t0.1250\t16.7453
l=15\t0.0180\t5\t8\t0.6250\t4.4621
l=17\t0.0180\t7\t8\t0.8750\t4.0958
baseline(l=9)\t0.0200\t-\t-\t2.972e-3\t336.4265
l=11\t0.0200\t0\t8\t0\tinf
l=13\t0.0200\t1\t8\t0.1250\t16.7453
l=15\t0.0200\t6\t8\t0.7500\t3.7184
l=17\t0.0200\t6\t8\t0.7500\t4.7785
# paper: baseline best below ~0.1%; l=11 to ~0.6%; l=13 to ~1.1%; l>=15 above.
# paper: baseline overhead 18X at 1% and 336X at 2%.
";

#[test]
fn fig12_tsv_output_is_pinned() {
    assert_eq!(tsv("fig12_linkonly", &quick()), FIG12);
}

const FIG12_PRECISION: &str = "\
# fig12_linkonly: yield and overhead vs defect rate, link defects only, target d=9
# mode=quick (shape-reproduction) samples=40 shots=20000 seed=7
series\trate\tkept\tsamples\tyield\toverhead
baseline(l=9)\t0\t-\t-\t1.0000\t1.0000
l=11\t0\t10\t10\t1.0000\t1.4969
l=13\t0\t10\t10\t1.0000\t2.0932
l=15\t0\t10\t10\t1.0000\t2.7888
l=17\t0\t10\t10\t1.0000\t3.5839
baseline(l=9)\t2.000e-3\t-\t-\t0.5618\t1.7799
l=11\t2.000e-3\t10\t10\t1.0000\t1.4969
l=13\t2.000e-3\t10\t10\t1.0000\t2.0932
l=15\t2.000e-3\t10\t10\t1.0000\t2.7888
l=17\t2.000e-3\t10\t10\t1.0000\t3.5839
baseline(l=9)\t4.000e-3\t-\t-\t0.3153\t3.1718
l=11\t4.000e-3\t10\t10\t1.0000\t1.4969
l=13\t4.000e-3\t10\t10\t1.0000\t2.0932
l=15\t4.000e-3\t10\t10\t1.0000\t2.7888
l=17\t4.000e-3\t10\t10\t1.0000\t3.5839
baseline(l=9)\t6.000e-3\t-\t-\t0.1767\t5.6588
l=11\t6.000e-3\t31\t40\t0.7750\t1.9315
l=13\t6.000e-3\t10\t10\t1.0000\t2.0932
l=15\t6.000e-3\t10\t10\t1.0000\t2.7888
l=17\t6.000e-3\t10\t10\t1.0000\t3.5839
baseline(l=9)\t8.000e-3\t-\t-\t0.0989\t10.1074
l=11\t8.000e-3\t21\t40\t0.5250\t2.8512
l=13\t8.000e-3\t10\t10\t1.0000\t2.0932
l=15\t8.000e-3\t10\t10\t1.0000\t2.7888
l=17\t8.000e-3\t10\t10\t1.0000\t3.5839
baseline(l=9)\t0.0100\t-\t-\t0.0553\t18.0744
l=11\t0.0100\t17\t40\t0.4250\t3.5221
l=13\t0.0100\t10\t10\t1.0000\t2.0932
l=15\t0.0100\t10\t10\t1.0000\t2.7888
l=17\t0.0100\t10\t10\t1.0000\t3.5839
baseline(l=9)\t0.0120\t-\t-\t0.0309\t32.3594
l=11\t0.0120\t11\t40\t0.2750\t5.4433
l=13\t0.0120\t27\t40\t0.6750\t3.1010
l=15\t0.0120\t10\t10\t1.0000\t2.7888
l=17\t0.0120\t10\t10\t1.0000\t3.5839
baseline(l=9)\t0.0140\t-\t-\t0.0172\t58.0027
l=11\t0.0140\t7\t40\t0.1750\t8.5537
l=13\t0.0140\t22\t40\t0.5500\t3.8058
l=15\t0.0140\t10\t10\t1.0000\t2.7888
l=17\t0.0140\t10\t10\t1.0000\t3.5839
baseline(l=9)\t0.0160\t-\t-\t9.607e-3\t104.0906
l=11\t0.0160\t4\t40\t0.1000\t14.9689
l=13\t0.0160\t15\t40\t0.3750\t5.5818
l=15\t0.0160\t30\t40\t0.7500\t3.7184
l=17\t0.0160\t28\t32\t0.8750\t4.0958
baseline(l=9)\t0.0180\t-\t-\t5.347e-3\t187.0215
l=11\t0.0180\t1\t40\t0.0250\t59.8758
l=13\t0.0180\t11\t40\t0.2750\t7.6115
l=15\t0.0180\t26\t40\t0.6500\t4.2905
l=17\t0.0180\t31\t37\t0.8378\t4.2775
baseline(l=9)\t0.0200\t-\t-\t2.972e-3\t336.4265
l=11\t0.0200\t1\t40\t0.0250\t59.8758
l=13\t0.0200\t7\t40\t0.1750\t11.9610
l=15\t0.0200\t24\t40\t0.6000\t4.6480
l=17\t0.0200\t28\t40\t0.7000\t5.1198
# paper: baseline best below ~0.1%; l=11 to ~0.6%; l=13 to ~1.1%; l>=15 above.
# paper: baseline overhead 18X at 1% and 336X at 2%.
";

#[test]
fn fig12_adaptive_tsv_output_is_pinned() {
    let cfg = RunConfig {
        samples: 40,
        seed: 7,
        precision: Some(0.3),
        ..RunConfig::default()
    };
    assert_eq!(tsv("fig12_linkonly", &cfg), FIG12_PRECISION);
}

const FIG17: &str = "\
# fig17_target17: yield and overhead vs defect rate, link-only, target d=17
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7
series\trate\tkept\tsamples\tyield\toverhead
baseline(l=17)\t0\t-\t-\t1.0000\t1.0000
l=19\t0\t8\t8\t1.0000\t1.2496
l=21\t0\t8\t8\t1.0000\t1.5269
l=23\t0\t8\t8\t1.0000\t1.8319
l=25\t0\t8\t8\t1.0000\t2.1646
l=27\t0\t8\t8\t1.0000\t2.5251
baseline(l=17)\t1.000e-3\t-\t-\t0.3367\t2.9699
l=19\t1.000e-3\t7\t8\t0.8750\t1.4281
l=21\t1.000e-3\t8\t8\t1.0000\t1.5269
l=23\t1.000e-3\t8\t8\t1.0000\t1.8319
l=25\t1.000e-3\t8\t8\t1.0000\t2.1646
l=27\t1.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t2.000e-3\t-\t-\t0.1132\t8.8302
l=19\t2.000e-3\t4\t8\t0.5000\t2.4991
l=21\t2.000e-3\t8\t8\t1.0000\t1.5269
l=23\t2.000e-3\t8\t8\t1.0000\t1.8319
l=25\t2.000e-3\t8\t8\t1.0000\t2.1646
l=27\t2.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t3.000e-3\t-\t-\t0.0380\t26.2826
l=19\t3.000e-3\t3\t8\t0.3750\t3.3322
l=21\t3.000e-3\t7\t8\t0.8750\t1.7450
l=23\t3.000e-3\t8\t8\t1.0000\t1.8319
l=25\t3.000e-3\t8\t8\t1.0000\t2.1646
l=27\t3.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t4.000e-3\t-\t-\t0.0128\t78.3141
l=19\t4.000e-3\t1\t8\t0.1250\t9.9965
l=21\t4.000e-3\t6\t8\t0.7500\t2.0358
l=23\t4.000e-3\t8\t8\t1.0000\t1.8319
l=25\t4.000e-3\t8\t8\t1.0000\t2.1646
l=27\t4.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t5.000e-3\t-\t-\t4.281e-3\t233.6082
l=19\t5.000e-3\t1\t8\t0.1250\t9.9965
l=21\t5.000e-3\t5\t8\t0.6250\t2.4430
l=23\t5.000e-3\t8\t8\t1.0000\t1.8319
l=25\t5.000e-3\t8\t8\t1.0000\t2.1646
l=27\t5.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t6.000e-3\t-\t-\t1.433e-3\t697.6117
l=19\t6.000e-3\t0\t8\t0\tinf
l=21\t6.000e-3\t5\t8\t0.6250\t2.4430
l=23\t6.000e-3\t7\t8\t0.8750\t2.0936
l=25\t6.000e-3\t8\t8\t1.0000\t2.1646
l=27\t6.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t7.000e-3\t-\t-\t4.795e-4\t2085.5357
l=19\t7.000e-3\t0\t8\t0\tinf
l=21\t7.000e-3\t3\t8\t0.3750\t4.0716
l=23\t7.000e-3\t7\t8\t0.8750\t2.0936
l=25\t7.000e-3\t8\t8\t1.0000\t2.1646
l=27\t7.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t8.000e-3\t-\t-\t1.602e-4\t6241.6685
l=19\t8.000e-3\t0\t8\t0\tinf
l=21\t8.000e-3\t2\t8\t0.2500\t6.1075
l=23\t8.000e-3\t5\t8\t0.6250\t2.9310
l=25\t8.000e-3\t8\t8\t1.0000\t2.1646
l=27\t8.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t9.000e-3\t-\t-\t5.347e-5\t18700.9608
l=19\t9.000e-3\t0\t8\t0\tinf
l=21\t9.000e-3\t0\t8\t0\tinf
l=23\t9.000e-3\t4\t8\t0.5000\t3.6638
l=25\t9.000e-3\t8\t8\t1.0000\t2.1646
l=27\t9.000e-3\t8\t8\t1.0000\t2.5251
baseline(l=17)\t0.0100\t-\t-\t1.783e-5\t56092.9496
l=19\t0.0100\t0\t8\t0\tinf
l=21\t0.0100\t0\t8\t0\tinf
l=23\t0.0100\t4\t8\t0.5000\t3.6638
l=25\t0.0100\t8\t8\t1.0000\t2.1646
l=27\t0.0100\t7\t8\t0.8750\t2.8859
# paper: baseline overhead exceeds 56000X at 1% defect rate.
";

#[test]
fn fig17_tsv_output_is_pinned() {
    assert_eq!(tsv("fig17_target17", &quick()), FIG17);
}
