//! The unified experiment pipeline: declarative [`ExperimentSpec`]s run
//! by a [`Runner`] that caches the compiled circuit and decoding graph
//! across a whole error-rate sweep.
//!
//! The paper's Monte-Carlo evaluation is one pipeline — adapt patch →
//! generate circuit → apply noise → frame-sample → decode → fit — swept
//! over physical error rates. Rebuilding the decoder at every sweep
//! point would re-walk the circuit for its detector error model and
//! rebuild both decoding graphs per point; the runner instead compiles the
//! clean circuit *once* per patch, builds the decoder once at the
//! sweep's largest `p`, and only
//! [`reweights`](dqec_matching::Decoder::reweight) its edges per point.
//! [`CompiledExperiment::sample_batches_with_seed`] is the workspace's
//! one sample→decode fan-out and [`batch_seed`] its one seed formula.
//!
//! # Examples
//!
//! ```
//! use dqec_chiplet::record::NullSink;
//! use dqec_chiplet::runner::{ExperimentSpec, Runner};
//! use dqec_core::adapt::AdaptedPatch;
//! use dqec_core::layout::PatchLayout;
//! use dqec_core::DefectSet;
//!
//! let patch = AdaptedPatch::new(PatchLayout::memory(3), &DefectSet::new());
//! let spec = ExperimentSpec::memory(patch)
//!     .ps(&[4e-3, 6e-3])
//!     .shots(2_000)
//!     .seed(7)
//!     .fit(true);
//! let outcome = Runner::new().run(&spec, &mut NullSink)?;
//! assert_eq!(outcome.points.len(), 2);
//! # Ok::<(), dqec_core::CoreError>(())
//! ```

use crate::experiment::{fit_loglog, LerPoint, SlopeFit};
use crate::record::{LerRecord, Record, Sink, SlopeFitRecord};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::circuit_gen::{memory_z, stability};
use dqec_core::{Coord, CoreError};
use dqec_matching::{DecodeStats, Decoder, MwpmDecoder, UfDecoder};
use dqec_sim::circuit::Circuit;
use dqec_sim::frame::{FrameProgram, FrameScratch, ScratchPool, SAMPLER_STREAM};
use dqec_sim::noise::NoiseModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// Which syndrome-extraction protocol a spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Z-memory: initialize, repeat syndrome rounds, read out data.
    Memory,
    /// Stability: the paper's §6 experiment distinguishing a kept bad
    /// qubit from a disabled one.
    Stability,
}

/// Builds a [`Decoder`] for a clean circuit under a noise model; the
/// seam through which alternative decoders plug into the runner.
pub type DecoderBuilder = Arc<dyn Fn(&Circuit, &NoiseModel) -> Box<dyn Decoder> + Send + Sync>;

/// The built-in decoder backends selectable by name (the `--decoder`
/// flag of the reproduction binaries). Custom implementations can still
/// be plugged in directly through [`ExperimentSpec::decoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecoderChoice {
    /// Exact minimum-weight perfect matching ([`MwpmDecoder`]).
    #[default]
    Mwpm,
    /// Almost-linear-time weighted union-find ([`UfDecoder`]): several
    /// times faster at low physical error rates, slightly less
    /// accurate.
    Uf,
}

impl DecoderChoice {
    /// Every selectable backend, in help-text order.
    pub const ALL: &'static [DecoderChoice] = &[DecoderChoice::Mwpm, DecoderChoice::Uf];

    /// The command-line name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            DecoderChoice::Mwpm => "mwpm",
            DecoderChoice::Uf => "uf",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid choices when `name` is not
    /// one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .copied()
            .find(|c| c.name() == name)
            .ok_or_else(|| {
                let valid: Vec<&str> = Self::ALL.iter().map(|c| c.name()).collect();
                format!(
                    "unknown decoder {name:?}; valid choices: {}",
                    valid.join(", ")
                )
            })
    }

    /// The [`DecoderBuilder`] constructing this backend (reweightable:
    /// built from the clean circuit via the decoder's `from_clean`).
    pub fn builder(self) -> DecoderBuilder {
        match self {
            DecoderChoice::Mwpm => Arc::new(|c, n| Box::new(MwpmDecoder::from_clean(c, n))),
            DecoderChoice::Uf => Arc::new(|c, n| Box::new(UfDecoder::from_clean(c, n))),
        }
    }
}

impl std::fmt::Display for DecoderChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative logical-error-rate experiment: one adapted patch, one
/// protocol, a sweep of physical error rates, and sampling parameters.
///
/// Construct with [`ExperimentSpec::memory`] or
/// [`ExperimentSpec::stability`] and chain builder methods; run with
/// [`Runner::run`].
#[derive(Clone)]
pub struct ExperimentSpec {
    patch: AdaptedPatch,
    protocol: Protocol,
    ps: Vec<f64>,
    rounds: Option<u32>,
    shots: usize,
    seed: u64,
    label: String,
    fit: bool,
    bad_qubit: Option<(Coord, f64)>,
    decoder: Option<DecoderBuilder>,
}

impl std::fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("protocol", &self.protocol)
            .field("label", &self.label)
            .field("ps", &self.ps)
            .field("rounds", &self.rounds)
            .field("shots", &self.shots)
            .field("seed", &self.seed)
            .field("fit", &self.fit)
            .field("bad_qubit", &self.bad_qubit)
            .field("custom_decoder", &self.decoder.is_some())
            .finish()
    }
}

impl ExperimentSpec {
    fn new(patch: AdaptedPatch, protocol: Protocol, label: &str) -> Self {
        ExperimentSpec {
            patch,
            protocol,
            ps: Vec::new(),
            rounds: None,
            shots: 20_000,
            seed: 0,
            label: label.to_string(),
            fit: false,
            bad_qubit: None,
            decoder: None,
        }
    }

    /// A Z-memory experiment on `patch`.
    pub fn memory(patch: AdaptedPatch) -> Self {
        Self::new(patch, Protocol::Memory, "memory")
    }

    /// A stability experiment on `patch`.
    pub fn stability(patch: AdaptedPatch) -> Self {
        Self::new(patch, Protocol::Stability, "stability")
    }

    /// The physical error rates to sweep (in the given order).
    pub fn ps(mut self, ps: &[f64]) -> Self {
        self.ps = ps.to_vec();
        self
    }

    /// Sweeps a single physical error rate.
    pub fn p(mut self, p: f64) -> Self {
        self.ps = vec![p];
        self
    }

    /// Overrides the number of syndrome rounds. The default is the
    /// patch's natural round count: its width, bounded below by the
    /// gauge-schedule requirement (see [`default_rounds`]).
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Monte-Carlo shots per sweep point (default 20 000).
    pub fn shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Base RNG seed (default 0). Each sweep point perturbs it by its
    /// index; each [`BATCH_SHOTS`]-shot batch gets its own ChaCha8
    /// stream, so results are a pure function of the spec — independent
    /// of thread count and machine.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Series label carried into emitted [`Record`]s.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Also emit a log-log slope fit over the sweep (default off).
    pub fn fit(mut self, fit: bool) -> Self {
        self.fit = fit;
        self
    }

    /// Gives the data qubit at `coord` an elevated *absolute* two-qubit
    /// error rate (the paper's §6 cutoff-fidelity study).
    pub fn bad_qubit(mut self, coord: Coord, p_bad: f64) -> Self {
        self.bad_qubit = Some((coord, p_bad));
        self
    }

    /// Plugs in an alternative decoder implementation; the default is
    /// [`DecoderChoice::default`]'s builder.
    pub fn decoder(mut self, builder: DecoderBuilder) -> Self {
        self.decoder = Some(builder);
        self
    }

    /// The series label.
    pub fn series(&self) -> &str {
        &self.label
    }

    /// The effective syndrome-round count.
    pub fn effective_rounds(&self) -> u32 {
        self.rounds.unwrap_or_else(|| default_rounds(&self.patch))
    }

    /// The physical error rates this spec sweeps, in sweep order.
    pub fn sweep_ps(&self) -> &[f64] {
        &self.ps
    }

    /// The Monte-Carlo shot target per sweep point.
    pub fn target_shots(&self) -> usize {
        self.shots
    }

    /// The adapted patch the experiment runs on.
    pub fn patch(&self) -> &AdaptedPatch {
        &self.patch
    }

    /// A stable 64-bit digest of everything that determines this spec's
    /// Monte-Carlo tallies: the sampler's draw order
    /// ([`SAMPLER_STREAM`]), protocol, patch geometry and defects, sweep
    /// points, rounds, shots, seed, label, and the bad-qubit override.
    /// Sweep checkpoints persist it so a state file is never resumed
    /// against a different plan, nor shard states of different streams
    /// merged. (The decoder backend is *not* covered — builders are
    /// opaque closures — so callers mix a backend tag into their own
    /// fingerprints.)
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(SAMPLER_STREAM);
        h.word(match self.protocol {
            Protocol::Memory => 1,
            Protocol::Stability => 2,
        });
        h.bytes(self.label.as_bytes());
        let layout = self.patch.layout();
        h.word(u64::from(layout.width()) << 32 | u64::from(layout.height()));
        let defects = self.patch.defects();
        for c in &defects.data {
            h.word(coord_word(*c));
        }
        h.word(0x5e9a_4a7e);
        for c in &defects.synd {
            h.word(coord_word(*c));
        }
        h.word(0x5e9a_4a7f);
        for (a, b) in &defects.links {
            h.word(coord_word(*a));
            h.word(coord_word(*b));
        }
        h.word(self.ps.len() as u64);
        for p in &self.ps {
            h.word(p.to_bits());
        }
        h.word(u64::from(self.effective_rounds()));
        h.word(self.shots as u64);
        h.word(self.seed);
        h.word(u64::from(self.fit));
        if let Some((c, p_bad)) = self.bad_qubit {
            h.word(coord_word(c));
            h.word(p_bad.to_bits());
        }
        h.finish()
    }
}

/// Packs a coordinate into one hash word.
pub fn coord_word(c: Coord) -> u64 {
    ((c.x as u32 as u64) << 32) | c.y as u32 as u64
}

/// Incremental FNV-1a over words and byte strings — the hash behind
/// [`ExperimentSpec::fingerprint`], shared with the sweep/bench layers
/// for checkpoint salts so every fingerprint ingredient mixes through
/// one implementation.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one 64-bit word (little-endian byte order).
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes a length-prefixed byte string.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Syndrome rounds used for a patch's experiment by default: its
/// width, bounded below by the gauge-schedule requirement (each
/// super-stabilizer needs `2 × repetitions` rounds to commute through
/// its gauge schedule).
pub fn default_rounds(patch: &AdaptedPatch) -> u32 {
    let need = patch
        .clusters()
        .iter()
        .filter(|c| c.has_gauges())
        .map(|c| 2 * c.repetitions)
        .max()
        .unwrap_or(1);
    patch.layout().width().max(need)
}

/// What a [`Runner::run`] measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One LER point per swept physical error rate, in sweep order.
    pub points: Vec<LerPoint>,
    /// The log-log slope fit, when requested and measurable.
    pub fit: Option<SlopeFit>,
}

/// Shots per batch: the unit of [`batch_seed`]'s streams for
/// [`Runner`], the sweep engine's default and the decode service. A
/// tally is a function of the batch layout, so the byte-identity of
/// engine and `Runner` runs, and of served and one-shot runs, rests on
/// all of them reading this one constant.
pub const BATCH_SHOTS: usize = 4096;

/// The per-batch ChaCha8 stream seed for a sweep point: `point_seed` is
/// the point's base seed (spec seed + point index) and `batch` its
/// fixed-size batch index. One batch = one independent seeded stream,
/// which is what makes tallies a pure function of the spec — and lets
/// the sweep engine extend a point's tally batch-by-batch (its
/// checkpoint cursor is the next batch index) bit-exactly.
pub fn batch_seed(point_seed: u64, batch: u64) -> u64 {
    point_seed ^ (batch + 1).wrapping_mul(0xd134_2543_de82_ef95)
}

/// An [`ExperimentSpec`] compiled for repeated sampling: the clean
/// circuit generated once, the decoder built once (at the sweep's
/// largest `p`) and reweighted per point, and batch-granular sampling
/// with the standard per-batch seeding.
///
/// [`Runner::run`] is a thin loop over this seam; the `dqec_sweep`
/// engine drives it directly so adaptive shot allocation can revisit a
/// point across allocation rounds without recompiling anything.
pub struct CompiledExperiment {
    spec: ExperimentSpec,
    circuit: Circuit,
    bad: Option<(u32, f64)>,
    build: DecoderBuilder,
    decoder: Box<dyn Decoder>,
    /// The selected point and its noisy circuit, compiled for sampling.
    selected: Option<(usize, FrameProgram)>,
    frames: ScratchPool<FrameScratch>,
    warned_rebuild: bool,
}

impl std::fmt::Debug for CompiledExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledExperiment")
            .field("spec", &self.spec)
            .field(
                "current_point",
                &self.selected.as_ref().map(|(point, _)| point),
            )
            .finish_non_exhaustive()
    }
}

impl CompiledExperiment {
    /// Compiles `spec`: generates the clean circuit, resolves the
    /// bad-qubit override, and builds the decoder at the sweep's
    /// largest `p` (a template built at `p = 0` would have no
    /// mechanisms to reweight).
    ///
    /// # Errors
    ///
    /// Propagates circuit-generation failures (degenerate patch, no
    /// observable path, too few rounds) and rejects a `bad_qubit`
    /// coordinate that is not an active circuit qubit.
    pub fn new(spec: &ExperimentSpec) -> Result<Self, CoreError> {
        let _span = dqec_obs::trace::span("chiplet.compile");
        let rounds = spec.effective_rounds();
        let exp = match spec.protocol {
            Protocol::Memory => memory_z(&spec.patch, rounds)?,
            Protocol::Stability => stability(&spec.patch, rounds)?,
        };
        let bad = match spec.bad_qubit {
            None => None,
            Some((coord, p_bad)) => {
                let q = *exp
                    .qubit_of
                    .get(&coord)
                    .ok_or(CoreError::MalformedSyndromeGraph {
                        detail: format!("bad qubit {coord} is not an active circuit qubit"),
                    })?;
                Some((q, p_bad))
            }
        };
        let template_p = spec.ps.iter().fold(0.0f64, |a, &b| a.max(b));
        let build = spec
            .decoder
            .clone()
            .unwrap_or_else(|| DecoderChoice::default().builder());
        let template_noise = match bad {
            Some((q, p_bad)) => NoiseModel::new(template_p).with_bad_qubit(q, p_bad),
            None => NoiseModel::new(template_p),
        };
        let decoder = build(&exp.circuit, &template_noise);
        Ok(CompiledExperiment {
            spec: spec.clone(),
            circuit: exp.circuit,
            bad,
            build,
            decoder,
            selected: None,
            frames: ScratchPool::default(),
            warned_rebuild: false,
        })
    }

    /// The spec this experiment was compiled from.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The base RNG seed of sweep point `point` (each point perturbs
    /// the spec seed by its index).
    pub fn point_seed(&self, point: usize) -> u64 {
        self.spec.seed.wrapping_add(point as u64)
    }

    fn noise_at(&self, p: f64) -> NoiseModel {
        let model = NoiseModel::new(p);
        match self.bad {
            Some((q, p_bad)) => model.with_bad_qubit(q, p_bad),
            None => model,
        }
    }

    /// Retargets the decoder and frame program at sweep point `point`:
    /// reweights the decoder in place, rebuilding it from the clean
    /// circuit when it declines (surfaced on stderr once per compiled
    /// experiment, since the fallback silently multiplies sweep time by
    /// the decoder-construction cost).
    ///
    /// # Panics
    ///
    /// Panics if `point` is out of range.
    pub fn select_point(&mut self, point: usize) {
        assert!(point < self.spec.ps.len(), "sweep point out of range");
        if matches!(self.selected, Some((current, _)) if current == point) {
            return;
        }
        let p = self.spec.ps[point];
        let noise = self.noise_at(p);
        if !self.decoder.reweight(&noise) {
            if !self.warned_rebuild {
                self.warned_rebuild = true;
                eprintln!(
                    "[runner] series {:?}: decoder declined reweighting at p={p}; \
                     rebuilding the decoder at every sweep point",
                    self.spec.label
                );
            }
            self.decoder = (self.build)(&self.circuit, &noise);
        }
        self.selected = Some((point, FrameProgram::new(&noise.apply(&self.circuit))));
    }

    /// The selected point and its frame program.
    ///
    /// # Panics
    ///
    /// Panics if no point is selected ([`Self::select_point`]).
    fn selected(&self) -> (usize, &FrameProgram) {
        let (point, program) = self
            .selected
            .as_ref()
            .expect("select_point before sampling");
        (*point, program)
    }

    /// Samples and decodes batches `batches` of the currently selected
    /// point's shot stream, in parallel, and returns the merged tally.
    ///
    /// Batch `b` covers shots `[b·batch, (b+1)·batch)` of the point's
    /// conceptual shot stream, truncated by `shots_bound` (the total
    /// shot target; pass `usize::MAX` for untruncated full batches).
    /// Each batch is an independent ChaCha8 stream via [`batch_seed`],
    /// so any union of disjoint batch ranges tallies exactly like one
    /// uninterrupted run — the foundation of checkpoint/resume.
    ///
    /// # Panics
    ///
    /// Panics if no point is selected ([`Self::select_point`]).
    pub fn sample_batches(
        &self,
        batches: std::ops::Range<u64>,
        batch: usize,
        shots_bound: usize,
    ) -> DecodeStats {
        let (point, _) = self.selected();
        self.sample_batches_with_seed(batches, batch, shots_bound, self.point_seed(point))
    }

    /// [`Self::sample_batches`] with an explicit point seed instead of
    /// the spec-derived one. This is the decode-service entry point: a
    /// cached compiled experiment (compiled under a normalized spec so
    /// requests differing only in seed/shots share one entry) serves
    /// each request under that request's own seed, and tallies stay a
    /// pure function of `(circuit, decoder, seed, batch ranges)` — byte
    /// -identical to a one-shot [`Runner`] run with the same seed.
    ///
    /// # Panics
    ///
    /// Panics if no point is selected ([`Self::select_point`]).
    pub fn sample_batches_with_seed(
        &self,
        batches: std::ops::Range<u64>,
        batch: usize,
        shots_bound: usize,
        seed: u64,
    ) -> DecodeStats {
        let _span = dqec_obs::trace::span("chiplet.sample");
        let (_, program) = self.selected();
        let batch = batch.max(1);
        let decoder = self.decoder.as_ref();
        let results: Vec<DecodeStats> = batches
            .into_par_iter()
            .map(|b| {
                let lo = (b as usize).saturating_mul(batch);
                let n = batch.min(shots_bound.saturating_sub(lo));
                if n == 0 {
                    return DecodeStats::new(decoder.num_observables());
                }
                let mut rng = ChaCha8Rng::seed_from_u64(batch_seed(seed, b));
                self.frames
                    .with(|scratch| decoder.decode_batch(program.sample(n, &mut rng, scratch)))
            })
            .collect();
        let mut stats = DecodeStats::new(self.decoder.num_observables());
        for s in &results {
            stats.merge(s);
        }
        stats
    }
}

/// Emits a finished series: one [`Record::Ler`] per sweep point of
/// `spec`, from its `(shots, failures)` tally in sweep order, then a
/// [`Record::Slope`] when the spec requests a fit and the points allow
/// one. [`Runner::run`] and the sweep engine both end here, which keeps
/// their records byte-identical.
pub fn emit_series(
    spec: &ExperimentSpec,
    tallies: impl IntoIterator<Item = (usize, usize)>,
    sink: &mut dyn Sink,
) -> RunOutcome {
    let points: Vec<LerPoint> = spec
        .ps
        .iter()
        .zip(tallies)
        .map(|(&p, (shots, failures))| LerPoint { p, shots, failures })
        .collect();
    for &point in &points {
        sink.emit(&Record::Ler(LerRecord {
            series: spec.label.clone(),
            point,
        }));
    }
    let fit = spec.fit.then(|| fit_loglog(&points)).flatten();
    if let Some(fit) = fit {
        sink.emit(&Record::Slope(SlopeFitRecord {
            series: spec.label.clone(),
            fit,
        }));
    }
    RunOutcome { points, fit }
}

/// Executes [`ExperimentSpec`]s with circuit and decoding-graph reuse.
///
/// The runner compiles the spec's circuit once, builds the decoder once
/// at the sweep's largest `p`, and per sweep point only reweights the
/// decoder's edges (falling back to a rebuild if the decoder declines),
/// samples shots in parallel [`BATCH_SHOTS`]-shot ChaCha8-seeded
/// batches, and emits the series through [`emit_series`].
#[derive(Debug, Clone, Default)]
pub struct Runner;

impl Runner {
    /// A runner. It holds no settings: a run is a function of its spec
    /// alone.
    pub fn new() -> Self {
        Runner
    }

    /// Runs `spec`, emitting one [`Record::Ler`] per sweep point (plus
    /// a [`Record::Slope`] when the spec requests a fit) and returning
    /// the measured points.
    ///
    /// # Errors
    ///
    /// Propagates circuit-generation failures (degenerate patch, no
    /// observable path, too few rounds) and rejects a `bad_qubit`
    /// coordinate that is not an active circuit qubit.
    pub fn run(&self, spec: &ExperimentSpec, sink: &mut dyn Sink) -> Result<RunOutcome, CoreError> {
        let mut compiled = CompiledExperiment::new(spec)?;
        let num_batches = spec.shots.div_ceil(BATCH_SHOTS) as u64;
        let tallies: Vec<(usize, usize)> = (0..spec.ps.len())
            .map(|i| {
                compiled.select_point(i);
                let stats = compiled.sample_batches(0..num_batches, BATCH_SHOTS, spec.shots);
                (stats.shots, stats.failures.first().copied().unwrap_or(0))
            })
            .collect();
        Ok(emit_series(spec, tallies, sink))
    }

    /// Runs `spec` without emitting records (for callers that aggregate
    /// the returned points themselves).
    ///
    /// # Errors
    ///
    /// Same as [`Runner::run`].
    pub fn collect(&self, spec: &ExperimentSpec) -> Result<RunOutcome, CoreError> {
        self.run(spec, &mut crate::record::NullSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemorySink;
    use dqec_core::defect::DefectSet;
    use dqec_core::layout::PatchLayout;

    fn patch(l: u32) -> AdaptedPatch {
        AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new())
    }

    #[test]
    fn runner_sweep_matches_per_point_experiments_statistically() {
        // The sweep builds one decoder at its largest p and reweights
        // it per point; a single-point spec builds its decoder at that
        // very p (and here seeds differently), so compare rates, not
        // raw tallies.
        let ps = [8e-3, 1.2e-2];
        let spec = ExperimentSpec::memory(patch(3))
            .ps(&ps)
            .rounds(3)
            .shots(20_000)
            .seed(5);
        let outcome = Runner::new().collect(&spec).unwrap();
        for (pt, &p) in outcome.points.iter().zip(&ps) {
            let single = Runner::new()
                .collect(&spec.clone().p(p).seed(99))
                .unwrap()
                .points[0];
            let (lo, hi) = single.ci95();
            let (plo, phi) = pt.ci95();
            assert!(
                phi > lo && plo < hi,
                "sweep CI ({plo}, {phi}) disjoint from single-point ({lo}, {hi}) at p={p}"
            );
        }
    }

    #[test]
    fn runner_emits_one_ler_record_per_point_plus_fit() {
        let spec = ExperimentSpec::memory(patch(3))
            .ps(&[1e-2, 2e-2])
            .rounds(3)
            .shots(4_000)
            .seed(1)
            .label("d=3")
            .fit(true);
        let mut sink = MemorySink::default();
        let outcome = Runner::new().run(&spec, &mut sink).unwrap();
        let lers = sink
            .records
            .iter()
            .filter(|r| matches!(r, Record::Ler(_)))
            .count();
        assert_eq!(lers, 2);
        if outcome.fit.is_some() {
            assert!(sink
                .records
                .iter()
                .any(|r| matches!(r, Record::Slope(s) if s.series == "d=3")));
        }
    }

    #[test]
    fn runner_is_deterministic_for_a_spec() {
        let spec = ExperimentSpec::memory(patch(3))
            .ps(&[5e-3, 1e-2])
            .rounds(3)
            .shots(8_000)
            .seed(42);
        let a = Runner::new().collect(&spec).unwrap();
        let b = Runner::new().collect(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stability_spec_with_bad_qubit_sees_the_elevated_rate() {
        let p = AdaptedPatch::new(PatchLayout::stability(4, 4), &DefectSet::new());
        let spec = ExperimentSpec::stability(p)
            .p(4e-3)
            .rounds(8)
            .shots(20_000)
            .seed(7)
            .bad_qubit(Coord::new(3, 3), 0.25);
        let outcome = Runner::new().collect(&spec).unwrap();
        assert!(outcome.points[0].ler() > 0.01, "{:?}", outcome.points);
    }

    #[test]
    fn bad_qubit_off_patch_is_rejected() {
        let spec = ExperimentSpec::stability(AdaptedPatch::new(
            PatchLayout::stability(4, 4),
            &DefectSet::new(),
        ))
        .p(4e-3)
        .rounds(8)
        .shots(100)
        .bad_qubit(Coord::new(999, 999), 0.1);
        assert!(Runner::new().collect(&spec).is_err());
    }

    #[test]
    fn decoder_choice_parses_and_lists_valid_names() {
        assert_eq!(DecoderChoice::parse("mwpm").unwrap(), DecoderChoice::Mwpm);
        assert_eq!(DecoderChoice::parse("uf").unwrap(), DecoderChoice::Uf);
        let err = DecoderChoice::parse("blossom5").unwrap_err();
        assert!(err.contains("mwpm") && err.contains("uf"), "{err}");
        assert_eq!(DecoderChoice::default(), DecoderChoice::Mwpm);
    }

    #[test]
    fn uf_decoder_choice_runs_a_sweep_end_to_end() {
        // The union-find backend rides the same runner path: compiled
        // once, reweighted per point, statistically consistent with the
        // MWPM backend on the same spec.
        let ps = [8e-3, 1.2e-2];
        let spec = ExperimentSpec::memory(patch(3))
            .ps(&ps)
            .rounds(3)
            .shots(20_000)
            .seed(5);
        let uf = Runner::new()
            .collect(&spec.clone().decoder(DecoderChoice::Uf.builder()))
            .unwrap();
        let mwpm = Runner::new()
            .collect(&spec.decoder(DecoderChoice::Mwpm.builder()))
            .unwrap();
        for (u, m) in uf.points.iter().zip(&mwpm.points) {
            let (ulo, uhi) = u.ci95();
            let (mlo, mhi) = m.ci95();
            assert!(
                uhi > mlo && ulo < mhi,
                "uf CI ({ulo}, {uhi}) disjoint from mwpm ({mlo}, {mhi}) at p={}",
                u.p
            );
        }
    }

    #[test]
    fn sweep_including_p_zero_is_noiseless_there() {
        let spec = ExperimentSpec::memory(patch(3))
            .ps(&[0.0, 1e-2])
            .rounds(3)
            .shots(2_000)
            .seed(3);
        let outcome = Runner::new().collect(&spec).unwrap();
        assert_eq!(outcome.points[0].failures, 0, "p=0 must never fail");
        assert!(outcome.points[1].failures > 0, "p=1e-2 should fail some");
    }
}
