//! The sweep engine: executes a [`SweepPlan`] of experiment specs in
//! allocation rounds over the rayon pool, with optional
//! CI-targeted adaptive shot allocation and durable checkpoint/resume.
//!
//! # Execution model
//!
//! Each spec is compiled once ([`CompiledExperiment`]: circuit
//! generated, decoder built, reweighted per point). A sweep then
//! proceeds in *rounds*: every round allocates a range of fixed-size
//! shot batches to each unfinished point (uniformly up to the spec's
//! shot target, or adaptively per the Wilson-CI controller), samples
//! and decodes them in parallel — specs fan out across the
//! rayon pool, batches fan out within each spec, sharing one
//! thread budget — and merges the tallies. After every round the
//! engine persists a versioned JSON state file (when configured), so a
//! killed run resumes bit-exactly: batches are independent seeded RNG
//! streams, tallies are sums over the set of completed batches, and
//! allocation decisions are pure functions of the tallies.
//!
//! Records are emitted only on completion, in plan order, through the
//! same [`emit_series`] as [`dqec_chiplet::runner::Runner::run`], which
//! makes an engine run with uniform allocation emit *byte-identical*
//! records to the equivalent sequence of `Runner::run` calls.

use crate::adaptive::Precision;
use crate::checkpoint::{PointEntry, PointTally, SweepState};
use crate::shard::Shard;
use dqec_chiplet::record::Sink;
use dqec_chiplet::runner::{
    emit_series, CompiledExperiment, ExperimentSpec, RunOutcome, BATCH_SHOTS,
};
use dqec_core::CoreError;
use rayon::prelude::*;
use std::ops::Range;
use std::path::PathBuf;

/// An ordered collection of experiment specs executed as one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    specs: Vec<ExperimentSpec>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan holding one spec.
    pub fn single(spec: ExperimentSpec) -> Self {
        SweepPlan { specs: vec![spec] }
    }

    /// Appends a spec.
    pub fn push(&mut self, spec: ExperimentSpec) {
        self.specs.push(spec);
    }

    /// The specs, in execution/emission order.
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// Number of specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Digest of every spec (and `salt`, typically a decoder-backend
    /// tag, which spec fingerprints cannot see) for checkpoint
    /// compatibility checks.
    pub fn fingerprint(&self, salt: u64) -> u64 {
        let mut h = salt ^ 0x5157_3ee9_0b7a_9e1d;
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ self.specs.len() as u64;
        for spec in &self.specs {
            h = h.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ spec.fingerprint();
        }
        h
    }
}

impl FromIterator<ExperimentSpec> for SweepPlan {
    fn from_iter<I: IntoIterator<Item = ExperimentSpec>>(iter: I) -> Self {
        SweepPlan {
            specs: iter.into_iter().collect(),
        }
    }
}

/// Tunables of a [`SweepEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Shots per batch — the RNG-stream and allocation unit. Must stay
    /// fixed across a checkpointed run (it is part of the state file).
    pub batch: usize,
    /// Adaptive CI-targeted allocation when set; uniform allocation to
    /// every spec's shot target when `None`.
    pub precision: Option<Precision>,
    /// Per-point allocation ceiling per round, in batches: bounds both
    /// checkpoint staleness and adaptive over-commitment.
    pub round_batches: u64,
    /// Persist state here after every round.
    pub checkpoint: Option<PathBuf>,
    /// Start from the checkpoint file instead of from scratch.
    pub resume: bool,
    /// Testing hook: stop with [`CoreError::Sweep`] once this many
    /// rounds have completed (state saved), simulating a mid-sweep
    /// interruption deterministically.
    pub halt_after_rounds: Option<u64>,
    /// Extra fingerprint salt covering anything spec fingerprints
    /// cannot see (the decoder backend, the driving figure's name).
    pub salt: u64,
    /// Run only this shard's slice of every point's batch stream
    /// ([`Shard::batch_range`]). Shard identity is *not* part of the
    /// engine fingerprint — all shards of one plan share it, which is
    /// what lets the merge step verify they belong together and lets a
    /// merged state resume under a whole-plan engine. Requires uniform
    /// allocation (`precision: None`): adaptive stopping depends on the
    /// global tally no single shard can see.
    pub shard: Option<Shard>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch: BATCH_SHOTS,
            precision: None,
            round_batches: 16,
            checkpoint: None,
            resume: false,
            halt_after_rounds: None,
            salt: 0,
            shard: None,
        }
    }
}

/// Executes [`SweepPlan`]s; see the [module docs](self) for the model.
#[derive(Debug, Clone, Default)]
pub struct SweepEngine {
    cfg: EngineConfig,
}

/// Per-point working state: identity plus accumulated tally.
struct PointState {
    spec: usize,
    point: usize,
    p: f64,
    cap: usize,
    /// Whole-plan batch total (independent of any shard slice).
    total_batches: u64,
    /// This run's batch slice: `0..total_batches` for a whole-plan run,
    /// [`Shard::batch_range`] of it for a shard worker.
    slice: Range<u64>,
    tally: PointTally,
}

impl SweepEngine {
    /// An engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        SweepEngine { cfg }
    }

    /// An engine with default configuration (uniform allocation,
    /// [`BATCH_SHOTS`]-shot batches, no checkpointing) — a drop-in,
    /// parallel replacement for running each spec through
    /// `Runner::run` in sequence.
    pub fn uniform() -> Self {
        Self::default()
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Runs `plan`, emitting each spec's series on completion, in plan
    /// order, through [`emit_series`], and returning one [`RunOutcome`]
    /// per spec.
    ///
    /// # Errors
    ///
    /// Propagates circuit-generation failures, checkpoint I/O and
    /// format errors, resume/plan mismatches, and the deliberate
    /// [`EngineConfig::halt_after_rounds`] interruption.
    pub fn run(&self, plan: &SweepPlan, sink: &mut dyn Sink) -> Result<Vec<RunOutcome>, CoreError> {
        let cfg = &self.cfg;
        let batch = cfg.batch.max(1);
        let fingerprint = self.fingerprint(plan);
        if cfg.shard.is_some() && cfg.precision.is_some() {
            return Err(CoreError::Sweep {
                detail: "sharded sweeps require uniform allocation: adaptive (--precision) \
                         stopping depends on the global tally no single shard can see"
                    .into(),
            });
        }

        // Compile every spec in parallel (circuit + decoder are the
        // expensive parts; mixed distances make this fan-out skewed,
        // which the rayon pool's shared feed absorbs).
        let compiled: Vec<Result<CompiledExperiment, CoreError>> = plan
            .specs()
            .par_iter()
            .map(CompiledExperiment::new)
            .collect();
        let mut exps = Vec::with_capacity(compiled.len());
        for c in compiled {
            exps.push(c?);
        }

        // Fresh or resumed per-point state.
        let mut points: Vec<PointState> = Vec::new();
        for (s, exp) in exps.iter().enumerate() {
            let spec = exp.spec();
            let cap = spec.target_shots();
            for (j, &p) in spec.sweep_ps().iter().enumerate() {
                let total_batches = cap.div_ceil(batch) as u64;
                let slice = match &cfg.shard {
                    None => 0..total_batches,
                    Some(shard) => shard.batch_range(total_batches),
                };
                points.push(PointState {
                    spec: s,
                    point: j,
                    p,
                    cap,
                    total_batches,
                    tally: PointTally {
                        // A fresh shard's cursor starts at its slice,
                        // not at batch zero.
                        next_batch: slice.start,
                        ..PointTally::default()
                    },
                    slice,
                });
            }
        }
        let mut rounds_done = 0u64;
        if cfg.resume {
            let path = cfg.checkpoint.as_ref().ok_or_else(|| CoreError::Sweep {
                detail: "--resume requires a checkpoint file".into(),
            })?;
            if path.exists() {
                let state = SweepState::load(path)?;
                self.restore(&mut points, &state, fingerprint, batch)?;
                rounds_done = state.rounds_done;
                let done = points
                    .iter()
                    .filter(|pt| self.point_done(&pt.tally, pt.cap, pt.slice.end))
                    .count();
                eprintln!(
                    "[sweep] resumed {} after {rounds_done} rounds ({done}/{} points finished)",
                    path.display(),
                    points.len()
                );
            } else {
                // A multi-plan figure interrupted in its first plan has
                // no state yet for the later plans; resuming those
                // means starting them fresh.
                eprintln!(
                    "[sweep] no checkpoint at {}; starting fresh",
                    path.display()
                );
            }
        }

        let run_t0 = dqec_obs::clock::now_ns();
        let mut batches_run = 0u64;
        loop {
            // Allocate this round: per point, a range of new batches.
            let mut allocs: Vec<Vec<(usize, Range<u64>)>> = vec![Vec::new(); exps.len()];
            let mut allocated = 0u64;
            for pt in &points {
                let n = self.allocate_batches(&pt.tally, pt.cap, pt.slice.end, batch);
                if n == 0 {
                    continue;
                }
                let range = pt.tally.next_batch..pt.tally.next_batch + n;
                allocated += n;
                allocs[pt.spec].push((pt.point, range));
            }
            if allocated == 0 {
                break;
            }
            if cfg.checkpoint.is_some() || cfg.precision.is_some() {
                // ETA from this run's observed throughput, against the
                // shot-cap upper bound on remaining batches (adaptive
                // CI targeting may finish sooner, so it is a ceiling).
                let remaining: u64 = points
                    .iter()
                    .map(|pt| pt.slice.end.saturating_sub(pt.tally.next_batch))
                    .sum();
                let eta = if batches_run > 0 {
                    let elapsed_s = dqec_obs::clock::now_ns().saturating_sub(run_t0) as f64 / 1e9;
                    format!(
                        ", ETA <= {:.0}s",
                        remaining as f64 * elapsed_s / batches_run as f64
                    )
                } else {
                    String::new()
                };
                eprintln!(
                    "[sweep] round {}: {allocated} batches x {batch} shots across {} points{eta}",
                    rounds_done + 1,
                    allocs.iter().map(Vec::len).sum::<usize>()
                );
            }
            let round_t0 = dqec_obs::clock::now_ns();

            // Execute: specs fan out over the rayon pool; each
            // point's batches fan out again inside `sample_batches`,
            // drawing from the same worker budget.
            type Work = (CompiledExperiment, Vec<(usize, Range<u64>)>);
            type RanPoint = (usize, u64, usize, usize);
            let work: Vec<Work> = exps.into_iter().zip(allocs).collect();
            let ran: Vec<(CompiledExperiment, Vec<RanPoint>)> = work
                .into_par_iter()
                .map(|(mut exp, todo)| {
                    let cap = exp.spec().target_shots();
                    let mut out = Vec::with_capacity(todo.len());
                    for (point, range) in todo {
                        let new_batches = range.end - range.start;
                        exp.select_point(point);
                        let stats = exp.sample_batches(range, batch, cap);
                        let failures = stats.failures.first().copied().unwrap_or(0);
                        out.push((point, new_batches, stats.shots, failures));
                    }
                    (exp, out)
                })
                .collect();

            // Merge tallies and advance cursors.
            let mut round_shots = 0u64;
            exps = Vec::with_capacity(ran.len());
            for (s, (exp, results)) in ran.into_iter().enumerate() {
                for (point, new_batches, shots, failures) in results {
                    round_shots += shots as u64;
                    let pt = points
                        .iter_mut()
                        .find(|pt| pt.spec == s && pt.point == point)
                        .ok_or_else(|| CoreError::Sweep {
                            detail: format!(
                                "round {rounds_done}: allocation references unknown \
                                 point (spec {s}, point {point})"
                            ),
                        })?;
                    pt.tally.next_batch += new_batches;
                    pt.tally.shots += shots;
                    pt.tally.failures += failures;
                }
                exps.push(exp);
            }
            rounds_done += 1;
            batches_run += allocated;
            let reg = dqec_obs::registry();
            reg.counter("sweep.rounds").inc();
            reg.counter("sweep.batches").add(allocated);
            reg.counter("sweep.shots").add(round_shots);
            reg.histogram("sweep.round_duration")
                .record(dqec_obs::clock::now_ns().saturating_sub(round_t0));
            if let Some(shard) = &cfg.shard {
                // Shard-progress metrics for the coordinator: which
                // slice this worker holds and how much is left of it.
                reg.gauge("sweep.shard.index").set(shard.index() as i64);
                reg.gauge("sweep.shard.count").set(shard.count() as i64);
                reg.counter("sweep.shard.batches").add(allocated);
                let left: u64 = points
                    .iter()
                    .map(|pt| pt.slice.end.saturating_sub(pt.tally.next_batch))
                    .sum();
                reg.gauge("sweep.shard.remaining_batches").set(left as i64);
            }

            if let Some(path) = &cfg.checkpoint {
                self.snapshot(&exps, &points, fingerprint, batch, rounds_done)
                    .save(path)?;
            }
            if let Some(halt) = cfg.halt_after_rounds {
                if rounds_done >= halt {
                    return Err(CoreError::Sweep {
                        detail: format!(
                            "sweep deliberately halted after {rounds_done} rounds \
                             (state saved; rerun with resume)"
                        ),
                    });
                }
            }
        }

        // Final snapshot even when the loop allocated nothing: a shard
        // whose slice is empty (more shards than batches) must still
        // leave a state file, or the merge step cannot verify the
        // partition is complete.
        if let Some(path) = &cfg.checkpoint {
            self.snapshot(&exps, &points, fingerprint, batch, rounds_done)
                .save(path)?;
        }

        // Emit and collect, in plan order.
        Ok(exps
            .iter()
            .enumerate()
            .map(|(s, exp)| {
                let tallies = points
                    .iter()
                    .filter(|pt| pt.spec == s)
                    .map(|pt| (pt.tally.shots, pt.tally.failures));
                emit_series(exp.spec(), tallies, sink)
            })
            .collect())
    }

    /// The digest guarding checkpoints: plan, salt, batch size, the
    /// allocation mode, and the round schedule. `round_batches` is part
    /// of the identity because adaptive allocation decisions happen at
    /// round boundaries — resuming with a different round size would
    /// silently produce different (still plausible-looking) tallies.
    fn fingerprint(&self, plan: &SweepPlan) -> u64 {
        let mut h = plan.fingerprint(self.cfg.salt);
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ self.cfg.batch as u64;
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ self.cfg.round_batches;
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d)
            ^ self
                .cfg
                .precision
                .map_or(0, |p| p.rel_width.to_bits() ^ p.growth.to_bits());
        h
    }

    /// Whether a point needs no further batches (its cursor reached the
    /// end of this run's batch slice, or adaptive allocation converged).
    fn point_done(&self, tally: &PointTally, cap: usize, slice_end: u64) -> bool {
        match &self.cfg.precision {
            None => tally.next_batch >= slice_end,
            Some(precision) => tally.next_batch >= slice_end || precision.converged(tally, cap),
        }
    }

    /// Batches to allocate to a point this round (0 when done). A pure
    /// function of the tally, so resumed runs re-derive the identical
    /// schedule.
    fn allocate_batches(
        &self,
        tally: &PointTally,
        cap: usize,
        slice_end: u64,
        batch: usize,
    ) -> u64 {
        if self.point_done(tally, cap, slice_end) {
            return 0;
        }
        let remaining = slice_end - tally.next_batch;
        let want = match &self.cfg.precision {
            None => {
                // Uniform tallies are round-boundary independent, so
                // without a checkpoint there is nothing to gain from
                // extra rounds — take everything at once and pay the
                // per-point select cost (decoder reweight + noisy
                // circuit build) exactly once, like `Runner::run`.
                if self.cfg.checkpoint.is_none() {
                    return remaining;
                }
                remaining
            }
            Some(precision) => {
                let shots = precision.allocate(tally, cap, batch);
                (shots.div_ceil(batch) as u64).min(remaining)
            }
        };
        want.min(self.cfg.round_batches.max(1))
    }

    /// The persistent state snapshot after a completed round.
    fn snapshot(
        &self,
        exps: &[CompiledExperiment],
        points: &[PointState],
        fingerprint: u64,
        batch: usize,
        rounds_done: u64,
    ) -> SweepState {
        SweepState {
            fingerprint,
            batch,
            precision: self.cfg.precision.map(|p| p.rel_width),
            shard: self.cfg.shard,
            rounds_done,
            points: points
                .iter()
                .map(|pt| PointEntry {
                    spec: pt.spec,
                    point: pt.point,
                    series: exps[pt.spec].spec().series().to_string(),
                    p: pt.p,
                    total_batches: pt.total_batches,
                    tally: pt.tally,
                })
                .collect(),
        }
    }

    /// Installs a loaded state into the working points, verifying that
    /// it belongs to this exact plan and engine configuration.
    fn restore(
        &self,
        points: &mut [PointState],
        state: &SweepState,
        fingerprint: u64,
        batch: usize,
    ) -> Result<(), CoreError> {
        let bad = |detail: String| CoreError::Sweep { detail };
        if state.fingerprint != fingerprint {
            return Err(bad(format!(
                "checkpoint fingerprint {:#018x} does not match this plan ({fingerprint:#018x}); \
                 refusing to resume a different sweep",
                state.fingerprint
            )));
        }
        if state.batch != batch {
            return Err(bad(format!(
                "checkpoint batch size {} != engine batch size {batch}",
                state.batch
            )));
        }
        if state.shard != self.cfg.shard {
            let name = |s: &Option<Shard>| {
                s.map_or("whole-plan".to_string(), |shard| format!("shard {shard}"))
            };
            return Err(bad(format!(
                "checkpoint belongs to {} but this engine runs {}; \
                 refusing to mix shard slices",
                name(&state.shard),
                name(&self.cfg.shard)
            )));
        }
        if state.points.len() != points.len() {
            return Err(bad(format!(
                "checkpoint has {} points, plan has {}",
                state.points.len(),
                points.len()
            )));
        }
        for (pt, entry) in points.iter_mut().zip(&state.points) {
            if entry.total_batches != 0 && entry.total_batches != pt.total_batches {
                return Err(bad(format!(
                    "checkpoint point (spec {}, point {}) records {} total batches, \
                     plan derives {}",
                    entry.spec, entry.point, entry.total_batches, pt.total_batches
                )));
            }
            if entry.spec != pt.spec
                || entry.point != pt.point
                || entry.p.to_bits() != pt.p.to_bits()
            {
                return Err(bad(format!(
                    "checkpoint point (spec {}, point {}, p {}) does not line up with \
                     plan point (spec {}, point {}, p {})",
                    entry.spec, entry.point, entry.p, pt.spec, pt.point, pt.p
                )));
            }
            pt.tally = entry.tally;
        }
        Ok(())
    }
}
