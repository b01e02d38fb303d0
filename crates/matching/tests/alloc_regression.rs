//! Allocation regression gate: once warm, `decode_batch` must run its
//! steady state out of the solver arenas and the syndrome memo — zero
//! heap allocations per shot, for both decoders. The test measures the
//! allocator directly: a warm decode of an 8k-shot batch must allocate
//! exactly as much as a warm decode of a 2k-shot batch (the constant
//! per-call overhead, e.g. the returned stats), i.e. the per-shot cost
//! is zero. The frame sampler is held to the stricter standard it can
//! meet: a warm `FrameProgram::sample` allocates nothing at all.

mod support {
    pub mod counting_alloc;
}

use dqec_matching::{Decoder, MwpmDecoder, UfDecoder};
use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
use dqec_sim::frame::{FrameProgram, FrameSampler, FrameScratch, FrameScratchPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::counting_alloc::count_allocs;

/// 3-qubit repetition code over `rounds` rounds (same fixture as the
/// decoder-trait conformance tests).
fn repetition(rounds: usize, p: f64) -> Circuit {
    let mut c = Circuit::new(5);
    for q in 0..5 {
        c.reset(q).expect("reset");
    }
    let mut prev: Option<[dqec_sim::MeasRecord; 2]> = None;
    for t in 0..rounds {
        for q in 0..3 {
            c.noise1(Noise1::XError, q, p).expect("noise");
        }
        c.cx(0, 3).expect("cx");
        c.cx(1, 3).expect("cx");
        c.cx(1, 4).expect("cx");
        c.cx(2, 4).expect("cx");
        let m3 = c.measure_reset(3).expect("measure");
        let m4 = c.measure_reset(4).expect("measure");
        match prev {
            None => {
                c.add_detector(&[m3], CheckBasis::Z, (0, 0, t as i32))
                    .expect("detector");
                c.add_detector(&[m4], CheckBasis::Z, (1, 0, t as i32))
                    .expect("detector");
            }
            Some([p3, p4]) => {
                c.add_detector(&[m3, p3], CheckBasis::Z, (0, 0, t as i32))
                    .expect("detector");
                c.add_detector(&[m4, p4], CheckBasis::Z, (1, 0, t as i32))
                    .expect("detector");
            }
        }
        prev = Some([m3, m4]);
    }
    let d0 = c.measure(0).expect("measure");
    let d1 = c.measure(1).expect("measure");
    let d2 = c.measure(2).expect("measure");
    let [p3, p4] = prev.expect("at least one round");
    c.add_detector(&[d0, d1, p3], CheckBasis::Z, (0, 0, rounds as i32))
        .expect("detector");
    c.add_detector(&[d1, d2, p4], CheckBasis::Z, (1, 0, rounds as i32))
        .expect("detector");
    c.include_observable(0, &[d0]).expect("observable");
    c
}

/// Warm steady-state allocation count of `decode_batch` on `shots`
/// random shots: two warm-up decodes populate the arenas and the
/// syndrome memo, then the third (identical) decode is measured.
fn warm_decode_allocs(decoder: &dyn Decoder, shots: usize, seed: u64) -> usize {
    let circuit = repetition(3, 0.02);
    let batch = FrameSampler::new(&circuit).sample(shots, &mut StdRng::seed_from_u64(seed));
    // Sequential decode: worker spawns would allocate stacks and
    // channels, which is a per-call (and platform) cost, not a
    // per-shot one.
    rayon::with_worker_cap(1, || {
        let warm1 = decoder.decode_batch(&batch);
        let warm2 = decoder.decode_batch(&batch);
        assert_eq!(warm1.shots, warm2.shots);
        let (allocs, warm3) = count_allocs(|| decoder.decode_batch(&batch));
        assert_eq!(warm2.failures, warm3.failures);
        allocs
    })
}

#[test]
fn warm_decode_batch_allocations_do_not_scale_with_shots() {
    let circuit = repetition(3, 0.02);
    for (name, decoder) in [
        (
            "mwpm",
            Box::new(MwpmDecoder::new(&circuit)) as Box<dyn Decoder>,
        ),
        ("uf", Box::new(UfDecoder::new(&circuit)) as Box<dyn Decoder>),
    ] {
        let small = warm_decode_allocs(decoder.as_ref(), 2_000, 0xa110c);
        let large = warm_decode_allocs(decoder.as_ref(), 8_000, 0xa110c);
        assert_eq!(
            small, large,
            "{name}: warm decode_batch allocations scale with shot count \
             (2k shots: {small} allocs, 8k shots: {large} allocs) — \
             per-shot allocations must be zero"
        );
        eprintln!("{name}: warm decode_batch = {small} allocs/call (shot-independent)");
    }
}

#[test]
fn warm_frame_program_sample_allocates_nothing() {
    let circuit = repetition(3, 0.02);
    let program = FrameProgram::new(&circuit);
    let mut rng = StdRng::seed_from_u64(0xf4a3e);
    // Warm at the largest size: buffers only ever grow.
    let mut scratch = FrameScratch::default();
    program.sample(4096, &mut rng, &mut scratch);
    let pool = FrameScratchPool::default();
    pool.with(|s| program.sample(4096, &mut rng, s).detectors.shots());
    for shots in [16usize, 4096, 16] {
        let (direct, _) = count_allocs(|| {
            program
                .sample(shots, &mut rng, &mut scratch)
                .detectors
                .shots()
        });
        assert_eq!(direct, 0, "FrameProgram::sample at {shots} shots");
        let (pooled, _) =
            count_allocs(|| pool.with(|s| program.sample(shots, &mut rng, s).detectors.shots()));
        assert_eq!(pooled, 0, "pooled FrameProgram::sample at {shots} shots");
    }
}
