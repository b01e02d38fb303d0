//! End-to-end integration tests spanning the whole stack: adaptation ->
//! circuit generation -> noise -> frame sampling -> MWPM decoding.

use dqec::chiplet::{ExperimentSpec, Runner};
use dqec::core::{memory_z, AdaptedPatch, Coord, DefectSet, PatchIndicators, PatchLayout};
use dqec::matching::{Decoder, MwpmDecoder};
use dqec::sim::{FrameSampler, NoiseModel, ReferenceSample};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn defect_free(l: u32) -> AdaptedPatch {
    AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new())
}

/// The logical error rate of `spec` at one `p` through the runner.
fn ler(spec: ExperimentSpec, p: f64, rounds: u32, shots: usize, seed: u64) -> f64 {
    let spec = spec.p(p).rounds(rounds).shots(shots).seed(seed);
    Runner::new().collect(&spec).unwrap().points[0].ler()
}

fn memory_rate(patch: AdaptedPatch, p: f64, rounds: u32, shots: usize, seed: u64) -> f64 {
    ler(ExperimentSpec::memory(patch), p, rounds, shots, seed)
}

#[test]
fn logical_error_rate_is_suppressed_exponentially_with_distance() {
    // The paper's headline property: at p ~ 1e-3, growing d suppresses
    // the LER. We use p = 3e-3 so failures are observable with modest
    // shot counts.
    let p = 3e-3;
    let shots = 60_000;
    let l3 = memory_rate(defect_free(3), p, 3, shots, 11);
    let l5 = memory_rate(defect_free(5), p, 5, shots, 12);
    assert!(l3 > 1e-4, "d=3 should fail visibly, got {l3}");
    assert!(l5 < l3 / 1.8, "d=5 ({l5}) must be well below d=3 ({l3})");
}

#[test]
fn defective_patch_behaves_like_its_adapted_distance() {
    // An l=5 patch with a central broken qubit has d=4; its LER should
    // land between the defect-free d=3 and d=5 patches.
    let p = 4e-3;
    let shots = 60_000;
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(5, 5));
    let defective = AdaptedPatch::new(PatchLayout::memory(5), &defects);
    assert_eq!(PatchIndicators::of(&defective).distance(), 4);

    let ler_d3 = memory_rate(defect_free(3), p, 4, shots, 21);
    let ler_def = memory_rate(defective, p, 4, shots, 22);
    let ler_d5 = memory_rate(defect_free(5), p, 4, shots, 23);
    assert!(
        ler_d5 < ler_def && ler_def < ler_d3,
        "expected ordering d5 {ler_d5} < defective {ler_def} < d3 {ler_d3}"
    );
}

#[test]
fn super_stabilizer_patch_with_gauge_schedule_decodes() {
    // Broken syndrome qubit -> XXZZ gauge schedule; the full pipeline
    // must still achieve a low logical error rate at low p.
    let mut defects = DefectSet::new();
    defects.add_synd(Coord::new(6, 6));
    let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
    assert_eq!(PatchIndicators::of(&patch).distance(), 5);
    let rate = memory_rate(patch, 1e-3, 8, 40_000, 31);
    assert!(rate < 5e-3, "gauge-schedule patch LER too high: {rate}");
}

#[test]
fn noiseless_pipeline_has_zero_failures_everywhere() {
    for l in [3u32, 5] {
        let rate = memory_rate(defect_free(l), 0.0, l, 5_000, 41);
        assert_eq!(rate, 0.0, "noiseless l={l}");
    }
}

#[test]
fn detectors_fire_at_expected_rate() {
    // Sanity-check the noise plumbing: the average number of detection
    // events per shot grows linearly with p in the low-p regime.
    let patch = defect_free(5);
    let exp = memory_z(&patch, 5).unwrap();
    let mut rates = Vec::new();
    for (i, p) in [1e-3, 2e-3].into_iter().enumerate() {
        let noisy = NoiseModel::new(p).apply(&exp.circuit);
        let batch =
            FrameSampler::new(&noisy).sample(4096, &mut StdRng::seed_from_u64(51 + i as u64));
        let events: usize = (0..batch.detectors.rows())
            .map(|r| batch.detectors.count_row(r))
            .sum();
        rates.push(events as f64 / 4096.0);
    }
    let ratio = rates[1] / rates[0];
    assert!(
        (ratio - 2.0).abs() < 0.3,
        "event rate should double: {rates:?}"
    );
}

#[test]
fn decoder_beats_doing_nothing() {
    // Decoding must substantially outperform the trivial identity
    // correction (predict no flip).
    let p = 5e-3;
    let patch = defect_free(5);
    let exp = memory_z(&patch, 5).unwrap();
    let noisy = NoiseModel::new(p).apply(&exp.circuit);
    let decoder = MwpmDecoder::new(&noisy);
    let batch = FrameSampler::new(&noisy).sample(20_000, &mut StdRng::seed_from_u64(61));
    let stats = decoder.decode_batch(&batch);
    let raw_flips = batch.observables.count_row(0);
    assert!(
        stats.failures[0] * 3 < raw_flips,
        "decoder failures {} vs raw flips {raw_flips}",
        stats.failures[0]
    );
}

#[test]
fn stability_experiment_keep_vs_disable_tradeoff() {
    // Paper Fig 20 mechanism: with a very bad central qubit, disabling
    // it (super-stabilizers) beats keeping it; the stability experiment
    // exposes this.
    let p = 3e-3;
    let shots = 40_000;
    let rounds = 8;
    let bad = Coord::new(5, 5);
    let p_bad = 0.20;

    let keep_patch = AdaptedPatch::new(PatchLayout::stability(6, 6), &DefectSet::new());
    let keep_spec = ExperimentSpec::stability(keep_patch).bad_qubit(bad, p_bad);
    let keep = ler(keep_spec, p, rounds, shots, 71);

    let mut defects = DefectSet::new();
    defects.add_data(bad);
    let disable_patch = AdaptedPatch::new(PatchLayout::stability(6, 6), &defects);
    assert!(disable_patch.is_valid());
    let disable = ler(
        ExperimentSpec::stability(disable_patch),
        p,
        rounds,
        shots,
        72,
    );
    assert!(
        disable < keep,
        "disabling a 20% qubit should win: keep={keep} disable={disable}"
    );
}

#[test]
fn reference_samples_are_deterministic_for_all_generated_circuits() {
    for l in [3u32, 5, 7] {
        let patch = defect_free(l);
        let exp = memory_z(&patch, l).unwrap();
        assert!(ReferenceSample::violated_detectors(&exp.circuit).is_empty());
    }
}

#[test]
fn orientation_swap_changes_roles_consistently() {
    // A syndrome-heavy defect pattern should improve when swapped into
    // a data-heavy one (paper Fig 16 mechanism) — at minimum, the two
    // orientations give valid, possibly different codes.
    let mut defects = DefectSet::new();
    defects.add_synd(Coord::new(8, 8));
    defects.add_synd(Coord::new(12, 12));
    let l = 11;
    let a = PatchIndicators::of(&AdaptedPatch::new(PatchLayout::memory(l), &defects));
    let b = PatchIndicators::of(&AdaptedPatch::new(
        PatchLayout::memory(l),
        &defects.swapped_orientation(l),
    ));
    assert!(a.valid && b.valid);
    // Faulty syndrome qubits cost more than faulty data qubits: the
    // swapped orientation (defects become data faults) disables fewer
    // qubits.
    assert!(
        b.num_disabled_data + b.num_disabled_faces <= a.num_disabled_data + a.num_disabled_faces,
        "swap should not disable more: {a:?} vs {b:?}"
    );
}
