//! Golden-output tests for the figures that draw their chiplets from
//! one sequential stream rather than the per-index populations: Fig.
//! 6's defective examples (one l = 11 patch per wanted distance) and
//! Fig. 15's boundary standards (l = 13, one stream per rate). Fig. 6
//! also pins its two LER plans end to end, so a change to how the
//! plans are built or which decoder they run shows here.

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::{Sink, TsvSink};

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

const FIG06: &str = "\
# fig06_ler_curves: LER vs p for defect-free and defective patches
# mode=quick (shape-reproduction) samples=1000 shots=200 seed=7

## defect-free
series\tp\tshots\tfailures\tler\tci_lo\tci_hi
d=3\t3.000e-3\t200\t0\t0\t0\t0.0188
d=3\t4.500e-3\t200\t0\t0\t0\t0.0188
d=3\t6.750e-3\t200\t2\t0.0100\t2.747e-3\t0.0357
d=5\t3.000e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
d=5\t4.500e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
d=5\t6.750e-3\t200\t2\t0.0100\t2.747e-3\t0.0357
d=7\t3.000e-3\t200\t0\t0\t0\t0.0188
d=7\t4.500e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
d=7\t6.750e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278

## defective l=11 examples (one per adapted distance)
series\tp\tshots\tfailures\tler\tci_lo\tci_hi
defective d=7\t3.000e-3\t200\t0\t0\t0\t0.0188
defective d=7\t4.500e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
defective d=7\t6.750e-3\t200\t4\t0.0200\t7.804e-3\t0.0503
defective d=9\t3.000e-3\t200\t0\t0\t0\t0.0188
defective d=9\t4.500e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
defective d=9\t6.750e-3\t200\t2\t0.0100\t2.747e-3\t0.0357
# paper: straight lines on log-log axes, ordered by d; defective
# patches interleave with defect-free ones according to their d.
";

#[test]
fn fig06_tsv_output_is_pinned() {
    let cfg = RunConfig {
        shots: 200,
        seed: 7,
        ..RunConfig::default()
    };
    assert_eq!(tsv("fig06_ler_curves", &cfg), FIG06);
}

const FIG15: &str = "\
# fig15_boundary_standards: yield under boundary standards 1-4, link+qubit defects, l=13, d=9
# mode=quick (shape-reproduction) samples=8 shots=20000 seed=7
series\trate\tkept\tsamples\tyield\toverhead
no-requirement\t0\t2\t2\t1.0000\t-
standard1\t0\t2\t2\t1.0000\t-
standard2\t0\t2\t2\t1.0000\t-
standard3\t0\t2\t2\t1.0000\t-
standard4\t0\t2\t2\t1.0000\t-
no-requirement\t2.000e-3\t2\t2\t1.0000\t-
standard1\t2.000e-3\t2\t2\t1.0000\t-
standard2\t2.000e-3\t2\t2\t1.0000\t-
standard3\t2.000e-3\t2\t2\t1.0000\t-
standard4\t2.000e-3\t2\t2\t1.0000\t-
no-requirement\t4.000e-3\t2\t2\t1.0000\t-
standard1\t4.000e-3\t2\t2\t1.0000\t-
standard2\t4.000e-3\t2\t2\t1.0000\t-
standard3\t4.000e-3\t2\t2\t1.0000\t-
standard4\t4.000e-3\t2\t2\t1.0000\t-
no-requirement\t6.000e-3\t1\t2\t0.5000\t-
standard1\t6.000e-3\t0\t2\t0\t-
standard2\t6.000e-3\t1\t2\t0.5000\t-
standard3\t6.000e-3\t1\t2\t0.5000\t-
standard4\t6.000e-3\t1\t2\t0.5000\t-
no-requirement\t8.000e-3\t0\t2\t0\t-
standard1\t8.000e-3\t0\t2\t0\t-
standard2\t8.000e-3\t0\t2\t0\t-
standard3\t8.000e-3\t0\t2\t0\t-
standard4\t8.000e-3\t0\t2\t0\t-
no-requirement\t0.0100\t0\t2\t0\t-
standard1\t0.0100\t0\t2\t0\t-
standard2\t0.0100\t0\t2\t0\t-
standard3\t0.0100\t0\t2\t0\t-
standard4\t0.0100\t0\t2\t0\t-
# paper: only standard 1 drops the yield significantly; standard 4's
# drop is negligible; standards 2-3 cost a visible but small amount.
";

#[test]
fn fig15_tsv_output_is_pinned() {
    let cfg = RunConfig {
        samples: 8,
        seed: 7,
        ..RunConfig::default()
    };
    assert_eq!(tsv("fig15_boundary_standards", &cfg), FIG15);
}
