//! Runner determinism: the same spec + seed must produce identical
//! records regardless of how many worker threads execute the batches.
//!
//! Per-batch ChaCha8 streams are keyed by `(seed, batch index)` and the
//! rayon shim preserves input order, so the outcome is a pure function
//! of the spec. To actually vary the thread count we exploit the shim's
//! process-wide worker budget: runs launched from inside an outer
//! parallel fan-out find the budget exhausted and execute sequentially,
//! while a top-level run uses every core.

use dqec_chiplet::record::MemorySink;
use dqec_chiplet::runner::{ExperimentSpec, Runner};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::{Coord, DefectSet};
use rayon::prelude::*;

fn spec() -> ExperimentSpec {
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(5, 5));
    let patch = AdaptedPatch::new(PatchLayout::memory(5), &defects);
    ExperimentSpec::memory(patch)
        .ps(&[6e-3, 9e-3])
        .shots(10_000)
        .seed(1234)
        .label("determinism")
        .fit(true)
}

#[test]
fn identical_records_across_thread_counts() {
    // Top-level: parallel across the machine's cores.
    let mut parallel_sink = MemorySink::default();
    let parallel = Runner::new()
        .run(&spec(), &mut parallel_sink)
        .expect("circuit builds");

    // Nested: each run competes for the exhausted worker budget, so its
    // batches run (mostly or fully) sequentially.
    let nested: Vec<_> = (0..4u32)
        .into_par_iter()
        .map(|_| {
            let mut sink = MemorySink::default();
            let outcome = Runner::new()
                .run(&spec(), &mut sink)
                .expect("circuit builds");
            (outcome, sink.records)
        })
        .collect();

    for (outcome, records) in nested {
        assert_eq!(outcome, parallel, "outcome must not depend on threading");
        assert_eq!(records, parallel_sink.records, "records must match too");
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = Runner::new().collect(&spec()).expect("circuit builds");
    let b = Runner::new().collect(&spec()).expect("circuit builds");
    assert_eq!(a, b);
}

/// The hand path the benchmark's replay check takes: per batch, a fresh
/// `FrameSampler` over the noisy circuit and the decoder's
/// `decode_batch`, under the batch's own seed. `CompiledExperiment`
/// pools one compiled program per point, and must tally exactly what
/// this path tallies, at every point of a multi-p defective spec,
/// `p = 0` included.
#[test]
fn compiled_batches_equal_the_hand_path_bit_for_bit() {
    use dqec_chiplet::runner::{batch_seed, default_rounds, CompiledExperiment, DecoderChoice};
    use dqec_core::circuit_gen::memory_z;
    use dqec_matching::DecodeStats;
    use dqec_sim::frame::FrameSampler;
    use dqec_sim::noise::NoiseModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let ps = [0.0, 2e-3, 6e-3, 9e-3];
    let (batch, shots) = (512, 1_500);
    let spec = spec().ps(&ps).shots(shots);
    let mut compiled = CompiledExperiment::new(&spec).expect("circuit builds");

    let clean = memory_z(spec.patch(), default_rounds(spec.patch()))
        .expect("circuit builds")
        .circuit;
    let build = DecoderChoice::Mwpm.builder();
    let mut decoder = build(&clean, &NoiseModel::new(9e-3));
    let batches = shots.div_ceil(batch) as u64;
    for (point, &p) in ps.iter().enumerate() {
        compiled.select_point(point);
        let got = compiled.sample_batches(0..batches, batch, shots);

        let noise = NoiseModel::new(p);
        if !decoder.reweight(&noise) {
            decoder = build(&clean, &noise);
        }
        let noisy = noise.apply(&clean);
        let mut want = DecodeStats::new(decoder.num_observables());
        for b in 0..batches {
            let n = batch.min(shots - b as usize * batch);
            let mut rng = ChaCha8Rng::seed_from_u64(batch_seed(compiled.point_seed(point), b));
            let sampled = FrameSampler::new(&noisy).sample(n, &mut rng);
            want.merge(&decoder.decode_batch(&sampled));
        }
        assert_eq!(got, want, "point {point} (p = {p})");
        assert_eq!(got.shots, shots);
    }
}
