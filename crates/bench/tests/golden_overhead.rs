//! Golden-output tests for the overhead figures and tables that
//! post-select one chiplet population several ways: Fig. 16 (with and
//! without rotation), Fig. 18 (three panels, five targets), Fig. 19
//! (distance histograms) and Tables 1–4 (one size sweep, two rates).
//! They pin the exact TSVs in quick mode at `--samples 8 --seed 7`;
//! every value comes from the yield path, so a change to which chiplets
//! are drawn, how they are adapted, or which view of a draw a series
//! reads shows here. The tests share one process, and with it the
//! figures' population store, as `reproduce_all` does.

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::{Sink, TsvSink};

fn tsv(name: &str) -> String {
    let cfg = RunConfig {
        samples: 8,
        shots: 200,
        seed: 7,
        ..RunConfig::default()
    };
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == name)
        .expect("figure registered");
    let mut sink = TsvSink::new(Vec::new());
    sink.emit(&cfg.meta(rep.name, rep.what));
    (rep.run)(&cfg, &mut sink).expect("figure runs");
    sink.finish().expect("in-memory sink");
    String::from_utf8(sink.into_inner()).expect("utf-8 output")
}

const FIG16: &str = "\
# fig16_rotation: yield with/without chiplet-rotation freedom, link+qubit defects, d=9
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7
series\trate\tkept\tsamples\tyield\toverhead
l=11\t0\t8\t8\t1.0000\t-
l=11(rot)\t0\t8\t8\t1.0000\t-
l=13\t0\t8\t8\t1.0000\t-
l=13(rot)\t0\t8\t8\t1.0000\t-
l=15\t0\t8\t8\t1.0000\t-
l=15(rot)\t0\t8\t8\t1.0000\t-
l=11\t2.000e-3\t7\t8\t0.8750\t-
l=11(rot)\t2.000e-3\t7\t8\t0.8750\t-
l=13\t2.000e-3\t8\t8\t1.0000\t-
l=13(rot)\t2.000e-3\t8\t8\t1.0000\t-
l=15\t2.000e-3\t8\t8\t1.0000\t-
l=15(rot)\t2.000e-3\t8\t8\t1.0000\t-
l=11\t4.000e-3\t5\t8\t0.6250\t-
l=11(rot)\t4.000e-3\t5\t8\t0.6250\t-
l=13\t4.000e-3\t7\t8\t0.8750\t-
l=13(rot)\t4.000e-3\t7\t8\t0.8750\t-
l=15\t4.000e-3\t8\t8\t1.0000\t-
l=15(rot)\t4.000e-3\t8\t8\t1.0000\t-
l=11\t6.000e-3\t2\t8\t0.2500\t-
l=11(rot)\t6.000e-3\t3\t8\t0.3750\t-
l=13\t6.000e-3\t5\t8\t0.6250\t-
l=13(rot)\t6.000e-3\t7\t8\t0.8750\t-
l=15\t6.000e-3\t7\t8\t0.8750\t-
l=15(rot)\t6.000e-3\t8\t8\t1.0000\t-
l=11\t8.000e-3\t1\t8\t0.1250\t-
l=11(rot)\t8.000e-3\t2\t8\t0.2500\t-
l=13\t8.000e-3\t4\t8\t0.5000\t-
l=13(rot)\t8.000e-3\t7\t8\t0.8750\t-
l=15\t8.000e-3\t5\t8\t0.6250\t-
l=15(rot)\t8.000e-3\t6\t8\t0.7500\t-
l=11\t0.0100\t0\t8\t0\t-
l=11(rot)\t0.0100\t0\t8\t0\t-
l=13\t0.0100\t4\t8\t0.5000\t-
l=13(rot)\t0.0100\t6\t8\t0.7500\t-
l=15\t0.0100\t4\t8\t0.5000\t-
l=15(rot)\t0.0100\t6\t8\t0.7500\t-
# paper: rotation freedom visibly improves the yield when qubit
# defects are present (faulty syndrome qubits hurt more than data).
";

#[test]
fn fig16_tsv_output_is_pinned() {
    assert_eq!(tsv("fig16_rotation"), FIG16);
}

const FIG18: &str = "\
# fig18_min_overhead: minimum overhead factor vs defect rate for target d=9..17
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7

## (a) link defects only
rate\td=9\td=11\td=13\td=15\td=17
2.000e-3\t1.4969\t1.3983\t1.5227\t1.4687\t1.5269
4.000e-3\t1.4969\t1.5981\t1.7122\t1.6058\t1.8319
6.000e-3\t1.7107\t2.1292\t1.7122\t1.9621\t2.0936
8.000e-3\t1.9959\t2.3942\t2.1395\t2.2424\t2.1646
0.0100\t2.0932\t2.3942\t2.1395\t2.2424\t2.1646

## (b) link+qubit defects
rate\td=9\td=11\td=13\td=15\td=17
2.000e-3\t1.7107\t1.8631\t1.7122\t1.8352\t1.5269
4.000e-3\t2.3922\t3.1923\t2.4451\t1.9621\t2.1646
6.000e-3\t3.1872\t3.1923\t2.6142\t3.2450\t2.8859
8.000e-3\t4.0958\t3.6556\t2.9877\t3.2450\t3.3293
0.0100\t4.0958\t3.6556\t4.9411\t4.3267\t11.6534

## (c) link+qubit defects, with data/syndrome swap
rate\td=9\td=11\td=13\td=15\td=17
2.000e-3\t1.7107\t1.8631\t1.7122\t1.8352\t1.5269
4.000e-3\t2.3922\t1.8631\t2.4451\t1.9621\t2.1646
6.000e-3\t2.3922\t2.3942\t2.4451\t2.6162\t2.8859
8.000e-3\t2.3922\t3.4191\t2.9877\t3.2450\t3.3293
0.0100\t2.7909\t3.4191\t4.1828\t4.3267\t5.8267
# paper: (a) curves coincide, ~2X at 0.5% and <3X at 1%;
# paper: (b) ~3X at 0.5%, 5-6X at 1%; (c) slightly lower than (b).
";

#[test]
fn fig18_tsv_output_is_pinned() {
    assert_eq!(tsv("fig18_min_overhead"), FIG18);
}

const TABLES_1_2: &str = "\
# table01_02_resources: Shor-2048 resource estimation (Tables 1-2)
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7

## Table 1: defect rate 0.001 on qubits and links (paper: l=33, yield 94.5%, overhead 1.58, 3.3e7 qubits)
approach\tl\tyield\toverhead\tqubits
no-defect\t27\t1.0000\t1.0000\t2.074e7
defect-intolerant\t27\t0.0140\t71.3169\t1.479e9
super-stabilizer\t35\t1.0000\t1.6809\t3.487e7
# super-stabilizer vs defect-intolerant advantage: 42.4291X

## Table 2: defect rate 0.003 on qubits and links (paper: l=39, yield 94.6%, overhead 2.21, 4.6e7 qubits)
approach\tl\tyield\toverhead\tqubits
no-defect\t27\t1.0000\t1.0000\t2.074e7
defect-intolerant\t27\t2.722e-6\t367409.0087\t7.622e12
super-stabilizer\t39\t1.0000\t2.0872\t4.330e7
# super-stabilizer vs defect-intolerant advantage: 176032.5306X
# paper: the advantage is 45X at 0.1% and more than 1e5X at 0.3%.
";

#[test]
fn table01_02_tsv_output_is_pinned() {
    assert_eq!(tsv("table01_02_resources"), TABLES_1_2);
}

const TABLES_3_4: &str = "\
# table03_04_fidelity: application fidelity at matched overhead (Tables 3-4)
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7

## Table 3: defect rate 0.001 (paper: baseline1 ~0, baseline2 79.9%, modular+SS 88.5%)
approach\tl\toverhead\testimated_fidelity
baseline1 (defect-intolerant)\t15~17\t1.6809\t0
baseline2 (monolithic+SS)\t35~37\t1.6809\t0.9777
modular + super-stabilizer\t35\t1.6809\t0.9777

## Table 4: defect rate 0.003 (paper: baseline1 ~0, baseline2 76.1%, modular+SS 91.7%)
approach\tl\toverhead\testimated_fidelity
baseline1 (defect-intolerant)\t11~13\t2.0872\t0
baseline2 (monolithic+SS)\t39~41\t2.0872\t0.8954
modular + super-stabilizer\t39\t2.0872\t0.8954
# paper: post-selection lets the modular device discard the d<27
# patches that drag down the monolithic device's fidelity.
";

#[test]
fn table03_04_tsv_output_is_pinned() {
    assert_eq!(tsv("table03_04_fidelity"), TABLES_3_4);
}

const FIG19: &str = "\
# fig19_distance_hist: code-distance distributions for l=33 @0.1% and l=39 @0.3%
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7

## (a) l=33 rate=0.001
distance\tproportion
27\t0.2500
28\t0.2500
29\t0.2500
30\t0.2500
# proportion with d >= 27: 1.0000 (paper: 0.945)

## (b) l=39 rate=0.003
distance\tproportion
26\t0.1250
27\t0.1250
28\t0.1250
29\t0.3750
31\t0.1250
32\t0.1250
# proportion with d >= 27: 0.8750 (paper: 0.946)
";

#[test]
fn fig19_tsv_output_is_pinned() {
    assert_eq!(tsv("fig19_distance_hist"), FIG19);
}

/// Figs. 16 and 18 read populations that Figs. 12, 13 and 17 drew
/// first (as in `reproduce_all`'s order); the bytes are those of a
/// fresh draw.
#[test]
fn fig16_and_fig18_after_the_other_yield_figures_are_unchanged() {
    for name in ["fig12_linkonly", "fig13_linkqubit"] {
        tsv(name);
    }
    assert_eq!(tsv("fig16_rotation"), FIG16);
    tsv("fig17_target17");
    assert_eq!(tsv("fig18_min_overhead"), FIG18);
}
