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

const EXPECTED: &str = "\
# fig05_slopes: LER slope vs adapted code distance (link+qubit defects)
# mode=quick (shape-reproduction) samples=2 shots=400 seed=7

## defective patches (l=9)
d\tmean_slope\tmin_slope\tmax_slope\tn
5\t3.7477\t1.8548\t4.9694\t3
6\t2.2613\t0\t4.7992\t3
7\t1.3548\t0\t2.7095\t3
8\t-\t-\t-\t0

## defect-free references
d\tslope
5\t1.7095
7\t- (no failures observed at these shots)
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
