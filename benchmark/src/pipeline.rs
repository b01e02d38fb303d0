//! The pipeline driven by hand, one public call per span.
//!
//! These helpers are the traced replay's equivalents of
//! `CompiledExperiment::{new, select_point, sample_batches}`: the same
//! public functions in the same order with the same seeds, so their
//! tallies are bit-identical to the top-level path (the run checks
//! that), with a span around each call into a layer.

use crate::trace::Tracer;
use dqec_chiplet::runner::{batch_seed, default_rounds, DecoderChoice};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::circuit_gen::memory_z;
use dqec_matching::{DecodeStats, Decoder};
use dqec_sim::circuit::Circuit;
use dqec_sim::dem::ParametricDem;
use dqec_sim::frame::{BitTable, FrameSampler, ShotBatch};
use dqec_sim::noise::NoiseModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Shots in the zero-event batch that calibrates the tally cost.
const TALLY_CAL_SHOTS: usize = 4096;

/// What `CompiledExperiment::new` holds, built by hand.
pub struct HandCompiled {
    clean: Circuit,
    decoder: Box<dyn Decoder>,
    noisy: Option<Circuit>,
    /// Stand-alone cost of tallying one shot (see [`compile`]).
    tally_ns_per_shot: f64,
}

/// Hand-driven `CompiledExperiment::new` for a memory experiment on
/// `patch` swept over `ps`: circuit generation, then the decoder built
/// at the largest `p`.
///
/// `from_clean` applies the noise model and extracts the parametric DEM
/// internally; both are timed stand-alone first (calibration) and
/// attached to the `matching.build` span as inferred children, so that
/// span's self time is the graph construction alone. The tally cost is
/// calibrated here too: `decode_batch` on a batch without a single
/// detection event does nothing but index zero events and tally.
///
/// # Panics
///
/// Panics if the patch cannot host a memory experiment; the input
/// generator only hands out patches that can.
pub fn compile(
    tr: &mut Tracer,
    patch: &AdaptedPatch,
    ps: &[f64],
    choice: DecoderChoice,
) -> HandCompiled {
    let rounds = default_rounds(patch);
    let clean = tr
        .time("core.circuit_gen", 1, || memory_z(patch, rounds))
        .expect("input patches compile")
        .circuit;
    let template = NoiseModel::new(ps.iter().fold(0.0f64, |a, &b| a.max(b)));
    let ((noisy, params), apply_ns) = tr.calibrate(|| template.apply_with_params(&clean));
    let (_, dem_ns) = tr.calibrate(|| ParametricDem::from_noisy(&noisy, &params));
    let build = tr.enter("matching.build");
    let decoder = choice.builder()(&clean, &template);
    tr.exit(build);
    tr.infer_child(build, "sim.noise_apply", apply_ns, 1);
    tr.infer_child(build, "sim.dem", dem_ns, 1);

    let quiet = ShotBatch {
        detectors: BitTable::zeros(clean.detectors().len(), TALLY_CAL_SHOTS),
        observables: BitTable::zeros(clean.observables().len(), TALLY_CAL_SHOTS),
    };
    let (_, index_ns) = tr.calibrate(|| quiet.shot_events());
    let (_, both_ns) = tr.calibrate(|| decoder.decode_batch(&quiet));
    HandCompiled {
        clean,
        decoder,
        noisy: None,
        tally_ns_per_shot: both_ns.saturating_sub(index_ns) as f64 / TALLY_CAL_SHOTS as f64,
    }
}

/// Hand-driven `select_point`: reweight the decoder to `p`, then build
/// the noisy circuit.
///
/// # Panics
///
/// Panics if the decoder declines to reweight (both built-in backends
/// accept any baseline `p` on a `from_clean` template).
pub fn select(tr: &mut Tracer, exp: &mut HandCompiled, p: f64) {
    let noise = NoiseModel::new(p);
    let ok = tr.time("matching.reweight", 1, || exp.decoder.reweight(&noise));
    assert!(ok, "from_clean decoders reweight in place");
    exp.noisy = Some(tr.time("sim.noise_apply", 1, || noise.apply(&exp.clean)));
}

/// Hand-driven body of `sample_batches` for one batch: sample `shots`
/// under the standard per-batch stream of `(point_seed, batch)`, then
/// decode and tally. Event indexing is calibrated stand-alone on the
/// same batch and attached, with the calibrated tally cost, to the
/// `matching.decode_batch` span, whose self time is then decoding.
///
/// # Panics
///
/// Panics if no point was selected.
pub fn batch(
    tr: &mut Tracer,
    exp: &HandCompiled,
    point_seed: u64,
    batch: u64,
    shots: usize,
) -> DecodeStats {
    let noisy = exp.noisy.as_ref().expect("select before sampling");
    let n = shots as u64;
    let sampled = tr.time("sim.sample", n, || {
        let mut rng = ChaCha8Rng::seed_from_u64(batch_seed(point_seed, batch));
        FrameSampler::new(noisy).sample(shots, &mut rng)
    });
    let (events, index_ns) = tr.calibrate(|| sampled.shot_events());
    let span = tr.enter("matching.decode_batch");
    let stats = exp.decoder.decode_batch(&sampled);
    tr.exit(span);
    tr.set_units(span, n);
    tr.infer_child(span, "sim.shot_events", index_ns, n);
    tr.infer_child(
        span,
        "matching.tally",
        (exp.tally_ns_per_shot * shots as f64) as u64,
        n,
    );
    count_batch(tr, shots, events.total_events(), &stats);
    stats
}

/// [`batch`] for a request that was served over a live socket:
/// sampling and decoding run as calibrations (outside every open span)
/// and their durations are returned, for the caller to attach to the
/// round trip they explain. Returns `(tally, sample ns, decode_batch
/// ns)`.
///
/// # Panics
///
/// Panics if no point was selected.
pub fn batch_beside(
    tr: &mut Tracer,
    exp: &HandCompiled,
    point_seed: u64,
    batch: u64,
    shots: usize,
) -> (DecodeStats, u64, u64) {
    let noisy = exp.noisy.as_ref().expect("select before sampling");
    let (sampled, sample_ns) = tr.calibrate(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(batch_seed(point_seed, batch));
        FrameSampler::new(noisy).sample(shots, &mut rng)
    });
    let (stats, decode_ns) = tr.calibrate(|| exp.decoder.decode_batch(&sampled));
    let (events, _) = tr.calibrate(|| sampled.shot_events().total_events());
    count_batch(tr, shots, events, &stats);
    (stats, sample_ns, decode_ns)
}

/// The counts behind `sim.events_per_shot` and
/// `matching.cache_hit_frac` for one decoded batch.
fn count_batch(tr: &mut Tracer, shots: usize, events: usize, stats: &DecodeStats) {
    tr.count("sim.shots", shots as u64);
    tr.count("sim.events", events as u64);
    tr.count("matching.cache_hits", stats.cache_hits);
    tr.count(
        "matching.cache_lookups",
        stats.cache_hits + stats.cache_misses,
    );
}
