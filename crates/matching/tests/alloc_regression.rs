//! Allocation regression gate: once warm, `decode_batch` must run its
//! steady state out of the kernel scratch and the syndrome memo — zero
//! heap allocations per shot, for both decoders. The test measures the
//! allocator directly: a warm decode of an 8k-shot batch must allocate
//! exactly as much as a warm decode of a 2k-shot batch (the constant
//! per-call overhead, e.g. the returned stats), i.e. the per-shot cost
//! is zero — on a toy repetition code, and on a defective l = 7 patch
//! at p = 2·10⁻³, where the matcher's alternating trees and blossoms
//! (their arenas, the queue) are in play. The constant itself is
//! pinned too ([`WARM_DECODE_BATCH_ALLOCS`]), so a per-batch buffer —
//! an event index of the whole batch, say — cannot come back
//! unnoticed. Sampled shots repeat, and the memo hides what the kernel
//! does on the rest, so the union-find kernel is also driven directly:
//! a warm `decode_events_with` over banks of random dense syndromes
//! (growth loop, peeling, the flush of defects stranded between
//! absorbers) allocates nothing at all — the standard a warm
//! `FrameProgram::sample` is held to as well. The
//! reweight side is pinned the same way: a warm
//! `ParametricDem::probabilities_into` allocates nothing, and a warm
//! `MwpmDecoder::reweight` allocates as often on a defective l = 5
//! patch as on an l = 7 one (no allocation per mechanism or per edge).
//! So does a cold graph build: `DecodingGraph::css_pair` from a
//! parametric DEM sizes every buffer before filling it, and so do the
//! two compiles of the symptom pass beneath it,
//! `ParametricDem::from_noisy` and `FrameProgram::new`.

mod support {
    pub mod counting_alloc;
}

use dqec_core::{memory_z, AdaptedPatch, Coord, DefectSet, PatchLayout};
use dqec_matching::{DecodeStats, Decoder, DecodingGraph, MwpmDecoder, UfDecoder, UfScratch};
use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
use dqec_sim::dem::ParametricDem;
use dqec_sim::frame::{FrameProgram, FrameSampler, FrameScratch, ScratchPool};
use dqec_sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The clean memory circuit of an l × l patch with a broken data qubit
/// at (5, 5) and the broken syndrome qubit `synd` (so super-stabilizers
/// and a deformed boundary are in its graphs), over `l` rounds.
fn defective_memory(l: u32, synd: Coord) -> Circuit {
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(5, 5));
    defects.add_synd(synd);
    let patch = AdaptedPatch::new(PatchLayout::memory(l), &defects);
    assert!(patch.is_valid(), "the fixture patch must be usable");
    let exp = memory_z(&patch, l).expect("the patch hosts a memory experiment");
    exp.circuit
}

/// The noisy memory circuit of the defective l = 7 patch.
fn defective_patch(p: f64) -> Circuit {
    NoiseModel::new(p).apply(&defective_memory(7, Coord::new(8, 10)))
}

/// The defective patches of the reweight pins, with their sizes.
fn reweight_fixtures() -> [(u32, Circuit); 2] {
    [
        (5, defective_memory(5, Coord::new(6, 8))),
        (7, defective_memory(7, Coord::new(8, 10))),
    ]
}

/// What a warm sequential `decode_batch` allocates, whatever the shot
/// count: the prediction vector, the chunk list, the per-chunk
/// counters and the failure tally. Event indexing runs per chunk in
/// pooled buffers and adds nothing.
const WARM_DECODE_BATCH_ALLOCS: usize = 4;

/// Warm steady-state allocation count of `decode_batch` on `shots`
/// random shots of `circuit`, with the first (cold) decode's tally: two
/// warm-up decodes populate the scratch and the syndrome memo, then
/// the third (identical) decode is measured. The cold tally's kernel
/// counters show what the matcher ran; the measured decode's reach it
/// only for a component the memo does not store, which a batch holds
/// by chance.
fn warm_decode_allocs(
    decoder: &dyn Decoder,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
) -> (usize, DecodeStats) {
    let batch = FrameSampler::new(circuit).sample(shots, &mut StdRng::seed_from_u64(seed));
    // Sequential decode: worker spawns would allocate stacks and
    // channels, which is a per-call (and platform) cost, not a
    // per-shot one.
    rayon::with_worker_cap(1, || {
        let warm1 = decoder.decode_batch(&batch);
        let warm2 = decoder.decode_batch(&batch);
        assert_eq!(warm1.shots, warm2.shots);
        let (allocs, warm3) = count_allocs(|| decoder.decode_batch(&batch));
        assert_eq!(warm2.failures, warm3.failures);
        (allocs, warm1)
    })
}

#[test]
fn warm_decode_batch_allocations_do_not_scale_with_shots() {
    for (fixture, circuit) in [
        ("repetition", repetition(3, 0.02)),
        ("defective l=7", defective_patch(2e-3)),
    ] {
        for (name, decoder) in [
            (
                "mwpm",
                Box::new(MwpmDecoder::new(&circuit)) as Box<dyn Decoder>,
            ),
            ("uf", Box::new(UfDecoder::new(&circuit)) as Box<dyn Decoder>),
        ] {
            let (small, _) = warm_decode_allocs(decoder.as_ref(), &circuit, 2_000, 0xa110c);
            let (large, stats) = warm_decode_allocs(decoder.as_ref(), &circuit, 8_000, 0xa110c);
            assert_eq!(
                small, large,
                "{fixture}/{name}: warm decode_batch allocations scale with shot count \
                 (2k shots: {small} allocs, 8k shots: {large} allocs) — \
                 per-shot allocations must be zero"
            );
            assert_eq!(
                small, WARM_DECODE_BATCH_ALLOCS,
                "{fixture}/{name}: a warm decode_batch allocates more than its per-call \
                 buffers"
            );
            eprintln!(
                "{fixture}/{name}: warm decode_batch = {small} allocs/call (shot-independent); \
                 cold kernel {:?}",
                stats.kernel
            );
            if (fixture, name) == ("defective l=7", "mwpm") {
                // The fixture must reach the matcher proper, not just
                // the closed forms.
                assert!(
                    stats.kernel.blossoms_formed > 0 && stats.kernel.tree_collisions > 0,
                    "{:?}",
                    stats.kernel
                );
            }
        }
    }
}

#[test]
fn warm_union_find_decode_events_allocates_nothing() {
    let circuit = defective_patch(1e-2);
    let decoder = UfDecoder::new(&circuit);
    let ndet = circuit.detectors().len() as u32;
    let mut rng = StdRng::seed_from_u64(0xf1005);
    let mut scratch = UfScratch::new();
    for rate in [0.08, 0.3] {
        let bank: Vec<Vec<u32>> = (0..5000)
            .map(|_| (0..ndet).filter(|_| rng.gen_bool(rate)).collect())
            .collect();
        let mut decode_bank = || {
            bank.iter().fold(0, |acc, events| {
                acc ^ decoder.decode_events_with(events, &mut scratch)
            })
        };
        // Buffers only ever grow, so one pass warms the scratch.
        let warm = decode_bank();
        let (allocs, again) = count_allocs(decode_bank);
        assert_eq!(warm, again);
        assert_eq!(allocs, 0, "warm decode_events_with at flip rate {rate}");
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
    let pool: ScratchPool<FrameScratch> = ScratchPool::default();
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

#[test]
fn warm_probabilities_into_allocates_nothing() {
    for (l, clean) in reweight_fixtures() {
        let (noisy, params) = NoiseModel::new(2e-3).apply_with_params(&clean);
        let pdem = ParametricDem::from_noisy(&noisy, &params);
        let mut probabilities = Vec::new();
        pdem.probabilities_into(1e-3, &mut probabilities);
        let (allocs, ()) = count_allocs(|| pdem.probabilities_into(1.5e-3, &mut probabilities));
        assert_eq!(allocs, 0, "warm probabilities_into at l = {l}");
        assert_eq!(probabilities.len(), pdem.mechanisms().count());
    }
}

#[test]
fn warm_reweight_allocations_do_not_scale_with_the_mechanism_count() {
    let mut seen = Vec::new();
    for (l, clean) in reweight_fixtures() {
        let template = NoiseModel::new(2e-3);
        let (noisy, params) = template.apply_with_params(&clean);
        let mechanisms = ParametricDem::from_noisy(&noisy, &params)
            .mechanisms()
            .count();
        let mut decoder = MwpmDecoder::from_clean(&clean, &template);
        // The first reweight sizes the decoder's probability buffer.
        assert!(decoder.reweight(&NoiseModel::new(1e-3)));
        let (allocs, ok) = count_allocs(|| decoder.reweight(&NoiseModel::new(1.5e-3)));
        assert!(ok);
        eprintln!("l = {l}: {mechanisms} mechanisms, warm reweight = {allocs} allocs");
        seen.push((l, mechanisms, allocs));
    }
    assert!(seen[0].1 < seen[1].1, "{seen:?}");
    assert_eq!(
        seen[0].2, seen[1].2,
        "warm MwpmDecoder::reweight allocations scale with the DEM: {seen:?} \
         as (l, mechanisms, allocs)"
    );
}

#[test]
fn graph_build_allocations_do_not_scale_with_the_mechanism_count() {
    let mut seen = Vec::new();
    for (l, clean) in reweight_fixtures() {
        let (noisy, params) = NoiseModel::new(2e-3).apply_with_params(&clean);
        let dem = ParametricDem::from_noisy(&noisy, &params);
        let mut probabilities = Vec::new();
        dem.probabilities_into(2e-3, &mut probabilities);
        let (allocs, edges) = count_allocs(|| {
            let (z, x) = DecodingGraph::css_pair(&noisy, &dem, &probabilities);
            [z.edges().len(), x.edges().len()]
        });
        let mechanisms = dem.mechanisms().count();
        eprintln!(
            "l = {l}: {mechanisms} mechanisms, {edges:?} edges, both builds = {allocs} allocs"
        );
        seen.push((l, mechanisms, allocs));
    }
    assert!(seen[0].1 < seen[1].1, "{seen:?}");
    assert_eq!(
        seen[0].2, seen[1].2,
        "DecodingGraph::css_pair allocations scale with the DEM: {seen:?} \
         as (l, mechanisms, allocs)"
    );
}

#[test]
fn symptom_compiles_allocate_as_often_at_every_size() {
    let mut seen = Vec::new();
    for (l, clean) in reweight_fixtures() {
        let (noisy, params) = NoiseModel::new(2e-3).apply_with_params(&clean);
        let (dem_allocs, mechanisms) = count_allocs(|| {
            ParametricDem::from_noisy(&noisy, &params)
                .mechanisms()
                .count()
        });
        let (program_allocs, gauges) =
            count_allocs(|| FrameProgram::new(&noisy).live_gauges().len());
        eprintln!(
            "l = {l}: {mechanisms} mechanisms, from_noisy = {dem_allocs} allocs; \
             {gauges} gauges, FrameProgram::new = {program_allocs} allocs"
        );
        seen.push((l, mechanisms, dem_allocs, program_allocs));
    }
    assert!(seen[0].1 < seen[1].1, "{seen:?}");
    assert_eq!(
        seen[0].2, seen[1].2,
        "ParametricDem::from_noisy allocations scale with the circuit: {seen:?} \
         as (l, mechanisms, from_noisy allocs, FrameProgram::new allocs)"
    );
    assert_eq!(
        seen[0].3, seen[1].3,
        "FrameProgram::new allocations scale with the circuit: {seen:?} \
         as (l, mechanisms, from_noisy allocs, FrameProgram::new allocs)"
    );
}
