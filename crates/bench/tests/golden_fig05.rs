//! Golden-output test for Fig. 5: pins the exact TSV of the slope
//! figure at fixed seeds/shots, so the sweep-engine migration (and any
//! future scheduler or allocator change) cannot silently alter the
//! Monte-Carlo tallies. Fig. 5 exercises the whole engine-backed path:
//! `slope_dataset` (one mixed-distance `SweepPlan`) plus the
//! defect-free reference plan.
//!
//! The values are a pure function of (seed, shots, batch partition,
//! decoder); they are independent of worker count, which
//! `tests/sweep_determinism.rs` pins separately.

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::{Sink, TsvSink};
use std::path::Path;

const EXPECTED: &str = "\
# fig05_slopes: LER slope vs adapted code distance (link+qubit defects)
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7

## defective patches (l=9)
d\tmean_slope\tmin_slope\tmax_slope\tn
5\t2.5504\t1.8548\t2.9570\t3
6\t3.9694\t3.9694\t3.9694\t1
7\t1.8471\t1.7095\t1.9847\t2
8\t4.4190\t4.4190\t4.4190\t1

## defect-free references
d\tslope
5\t1.7095
7\t1.1299
# paper: slopes grow with d (roughly alpha*d with alpha <= 1/2), and
# defective patches sit above the defect-free patch of the same d.
";

#[test]
fn fig05_tsv_output_is_pinned() {
    let cfg = RunConfig {
        samples: 2,
        shots: 400,
        seed: 7,
        ..RunConfig::default()
    };
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == "fig05_slopes")
        .expect("fig05 registered");
    let mut sink = TsvSink::new(Vec::new());
    sink.emit(&cfg.meta(rep.name, rep.what));
    (rep.run)(&cfg, &mut sink).expect("fig05 runs");
    sink.finish().expect("in-memory sink");
    let text = String::from_utf8(sink.into_inner()).expect("utf-8 output");
    assert_eq!(text, EXPECTED);
}

// Figs. 7–11 read the slope dataset Fig. 5 measures. They are pinned
// at Fig. 5's config, so the in-process dataset memo lets them share
// its measurement.

fn slope_config() -> RunConfig {
    RunConfig {
        samples: 2,
        shots: 400,
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

const FIG07: &str = "\
# fig07_shortest_logicals: slope vs log(#shortest logicals), grouped by d
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7
d\tln_num_shortest\tslope
5\t3.3322\t1.8548
5\t4.2627\t2.9570
5\t3.3322\t2.8394
6\t4.8978\t3.9694
7\t4.1271\t1.7095
7\t4.7005\t1.9847
8\t5.8916\t4.4190
# paper: within a distance group, fewer shortest logicals means a
# higher slope (better low-p behaviour); defect-free patches sit at
# large counts because of their symmetry.
";

const FIG08: &str = "\
# fig08_disabled_fraction: slope vs proportion of disabled data qubits
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7
d\tproportion_disabled\tslope
5\t0.0864\t1.8548
5\t0.1852\t2.9570
5\t0.1481\t2.8394
6\t0.1111\t3.9694
7\t0.0494\t1.7095
7\t0.0370\t1.9847
8\t0.0123\t4.4190
# paper: inversely correlated with the slope, but explained by d.
";

const FIG09: &str = "\
# fig09_cluster_diameter: slope vs largest disabled-cluster diameter
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7
d\tlargest_cluster_diameter\tslope
5\t2.0000\t1.8548
5\t4.0000\t2.9570
5\t3.0000\t2.8394
6\t2.0000\t3.9694
7\t2.0000\t1.7095
7\t1.0000\t1.9847
8\t1.0000\t4.4190
# paper: the cluster diameter does not help predict the slope.
";

const FIG10: &str = "\
# fig10_faulty_count: slope vs number of faulty qubits (baseline indicator)
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7
num_faulty\tslope\td
2\t1.8548\t5
1\t2.9570\t5
3\t2.8394\t5
3\t3.9694\t6
1\t1.7095\t7
2\t1.9847\t7
0\t4.4190\t8
# paper: correlated, but equal-faulty-count patches span a wide
# range of slopes — the adapted distance separates them.
";

const FIG11: &str = "\
# fig11_selection: selection quality: chosen indicators vs faulty-count baseline
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7
fraction\tbaseline_mean\tbaseline_worst\tchosen_mean\tchosen_worst\tbaseline_unfit\tchosen_unfit
0.1000\tNaN\tNaN\tNaN\tNaN\t1\t1
0.2000\tNaN\tNaN\t4.4190\t4.4190\t2\t1
0.3000\t3.6880\t2.9570\t4.4190\t4.4190\t2\t3
0.4000\t3.6880\t2.9570\t3.0643\t1.7095\t3\t3
0.5000\t3.0285\t1.7095\t2.7044\t1.7095\t3\t3
0.6000\t3.0285\t1.7095\t2.7044\t1.7095\t4\t4
0.7000\t3.0285\t1.7095\t2.7044\t1.7095\t5\t5
0.8000\t2.5850\t1.7095\t2.7875\t1.7095\t5\t5
0.9000\t2.6274\t1.7095\t2.7961\t1.7095\t5\t5
# paper: the chosen indicators keep both the mean and the worst-case
# slope higher than the faulty-count baseline at every kept fraction.
";

#[test]
fn fig07_tsv_output_is_pinned() {
    assert_eq!(tsv("fig07_shortest_logicals", &slope_config()), FIG07);
}

#[test]
fn fig08_tsv_output_is_pinned() {
    assert_eq!(tsv("fig08_disabled_fraction", &slope_config()), FIG08);
}

#[test]
fn fig09_tsv_output_is_pinned() {
    assert_eq!(tsv("fig09_cluster_diameter", &slope_config()), FIG09);
}

#[test]
fn fig10_tsv_output_is_pinned() {
    assert_eq!(tsv("fig10_faulty_count", &slope_config()), FIG10);
}

#[test]
fn fig11_tsv_output_is_pinned() {
    assert_eq!(tsv("fig11_selection", &slope_config()), FIG11);
}

fn state_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// The slope figures share one checkpoint plan: Fig. 7 writes
/// `slopes.sweep.json`, and Fig. 11 resumes from it, decoding nothing,
/// to the output of an uncheckpointed run (compared as TSV, since NaN
/// cells make records unequal to themselves). The config is used by no
/// other test here, so the dataset memo cannot stand in for the engine.
#[test]
fn slope_figures_share_one_checkpoint_plan() {
    let cfg = RunConfig {
        samples: 2,
        shots: 300,
        seed: 11,
        ..RunConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("dqec_slopes_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = RunConfig {
        checkpoint: Some(dir.clone()),
        ..cfg.clone()
    };
    tsv("fig07_shortest_logicals", &ck);
    assert_eq!(state_files(&dir), ["slopes.sweep.json"]);
    let state = std::fs::read(dir.join("slopes.sweep.json")).expect("state file");
    let resumed = tsv(
        "fig11_selection",
        &RunConfig {
            resume: true,
            ..ck.clone()
        },
    );
    assert_eq!(resumed, tsv("fig11_selection", &cfg));
    assert_eq!(state_files(&dir), ["slopes.sweep.json"]);
    assert_eq!(
        std::fs::read(dir.join("slopes.sweep.json")).expect("state file"),
        state,
        "the resumed run added shots"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
