//! Golden-output test for Fig. 20: pins the exact TSV of the
//! stability-cutoff figure in quick mode at `--shots 200 --seed 7`.
//! The five series are Monte-Carlo LER sweeps through the sweep
//! engine, so a change to the engine's batching or seeding, the
//! stability circuit, or the decoder that moves any tally shows here.

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

const EXPECTED: &str = "\
# fig20_stability_cutoff: stability experiment: keep vs disable a bad data qubit
# mode=quick (shape-reproduction) samples=8 shots=200 seed=7
series\tp\tshots\tfailures\tler\tci_lo\tci_hi
super-stabilizer\t2.000e-3\t200\t0\t0\t0\t0.0188
super-stabilizer\t4.000e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
super-stabilizer\t6.000e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
super-stabilizer\t8.000e-3\t200\t6\t0.0300\t0.0138\t0.0639
faulty p=0.05\t2.000e-3\t200\t0\t0\t0\t0.0188
faulty p=0.05\t4.000e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
faulty p=0.05\t6.000e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
faulty p=0.05\t8.000e-3\t200\t6\t0.0300\t0.0138\t0.0639
faulty p=0.08\t2.000e-3\t200\t0\t0\t0\t0.0188
faulty p=0.08\t4.000e-3\t200\t2\t0.0100\t2.747e-3\t0.0357
faulty p=0.08\t6.000e-3\t200\t5\t0.0250\t0.0107\t0.0572
faulty p=0.08\t8.000e-3\t200\t3\t0.0150\t5.114e-3\t0.0432
faulty p=0.1\t2.000e-3\t200\t2\t0.0100\t2.747e-3\t0.0357
faulty p=0.1\t4.000e-3\t200\t4\t0.0200\t7.804e-3\t0.0503
faulty p=0.1\t6.000e-3\t200\t6\t0.0300\t0.0138\t0.0639
faulty p=0.1\t8.000e-3\t200\t11\t0.0550\t0.0310\t0.0958
faulty p=0.15\t2.000e-3\t200\t1\t5.000e-3\t8.831e-4\t0.0278
faulty p=0.15\t4.000e-3\t200\t2\t0.0100\t2.747e-3\t0.0357
faulty p=0.15\t6.000e-3\t200\t9\t0.0450\t0.0239\t0.0833
faulty p=0.15\t8.000e-3\t200\t13\t0.0650\t0.0384\t0.1080
# paper: above ~10% the bad qubit should always be disabled; below
# ~5% it should be kept unless the good qubits are extremely clean;
# at ~8% the cutoff sits near a good-qubit error rate of ~0.45%.
";

#[test]
fn fig20_tsv_output_is_pinned() {
    assert_eq!(tsv("fig20_stability_cutoff"), EXPECTED);
}
