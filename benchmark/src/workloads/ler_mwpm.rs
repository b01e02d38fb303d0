//! `ler-mwpm-slope`: the paper's slope measurement — defective l = 11
//! patches, MWPM, the upper three points of the full-mode slope window,
//! run as one `SweepPlan` through `SweepEngine::run` with a checkpoint.
//!
//! Blossom decoding dominates the wall (the sampler is a few percent),
//! so a decode optimisation shows here and a sampler change must not;
//! it is the only workload whose end-to-end numbers include the sweep
//! engine and checkpoint I/O, and so the only one with sweep and dist
//! rows on its ledger.

use crate::harness::{Args, Segment, Sizing, Tally, Timed, Workload};
use crate::inputs::{patches_by_distance, Drawn};
use crate::ledger::Ledger;
use crate::pipeline;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::one_worker;
use dqec_chiplet::record::NullSink;
use dqec_chiplet::runner::{CompiledExperiment, DecoderBuilder, DecoderChoice, ExperimentSpec};
use dqec_dist::merge_states;
use dqec_matching::{DecodeStats, Decoder};
use dqec_sim::frame::ShotBatch;
use dqec_sim::noise::NoiseModel;
use dqec_sweep::checkpoint::PointEntry;
use dqec_sweep::{EngineConfig, PointTally, Shard, SweepEngine, SweepPlan, SweepState};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Patch width of the slope study.
const L: u32 = 11;
/// One patch per distance — the ends and the middle of the paper's
/// 6..=10 groups — each of the typical size (detector count) of its
/// group. The issue asked for six; compile and reweight cost 0.22 s per
/// l = 11 patch and plan run, so six would leave decoding a third of a
/// 2-second segment, and ten 4-second segments do not fit the run.
/// Three keep decoding at two thirds of the wall, which is what the
/// workload is for.
const PATCHES: [(u32, usize); 3] = [(6, 1090), (8, 1230), (10, 1289)];
/// Draws that make up the pool the patches are picked from, and how
/// many more are allowed while a distance is missing (distance 10
/// turns up about once in a hundred draws at a 1 % defect rate).
const DRAWS: usize = 150;
const MAX_DRAWS: usize = 1500;
/// Shots per (patch, p) point at `--seconds 25 --scale 1`.
const BASE_SHOTS: usize = 7680;
/// Engine batch: small enough that a point is several batches.
const BATCH: usize = 1024;
/// Input-stream salt of this workload.
const SALT: u64 = 1;

/// A call the engine made on a decoder, as seen by [`Marker`].
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// `reweight` entered: `select_point` of `(spec, p)` has begun.
    Select { spec: usize, p: f64 },
    /// `decode_batch` returned: one batch sampled, decoded, tallied.
    Batch,
}

type Marks = Arc<Mutex<Vec<(Instant, Mark)>>>;

/// A pass-through decoder that timestamps the calls the engine makes
/// on it. `SweepEngine::run` is one opaque call from outside; the
/// decoder seam (`ExperimentSpec::decoder`) is the public place where
/// its progress shows: the marks tell where each (patch, p) point
/// begins and ends. Costs one uncontended lock per batch.
struct Marker {
    inner: Box<dyn Decoder>,
    spec: usize,
    marks: Marks,
}

impl Marker {
    fn mark(&self, mark: Mark) {
        self.marks
            .lock()
            .expect("mark log lock")
            .push((Instant::now(), mark));
    }
}

impl Decoder for Marker {
    fn num_observables(&self) -> usize {
        self.inner.num_observables()
    }

    fn decode_events(&self, events: &[u32]) -> u64 {
        self.inner.decode_events(events)
    }

    fn reweight(&mut self, noise: &NoiseModel) -> bool {
        self.mark(Mark::Select {
            spec: self.spec,
            p: noise.p(),
        });
        self.inner.reweight(noise)
    }

    fn decode_all(&self, batch: &ShotBatch) -> Vec<u64> {
        self.inner.decode_all(batch)
    }

    fn decode_batch(&self, batch: &ShotBatch) -> DecodeStats {
        let stats = self.inner.decode_batch(batch);
        self.mark(Mark::Batch);
        stats
    }
}

/// The workload.
pub struct LerMwpmSlope {
    patches: Vec<Drawn>,
    ps: Vec<f64>,
    shots: usize,
    seed: u64,
    dir: PathBuf,
    marks: Marks,
}

impl LerMwpmSlope {
    /// The workload's inputs for `args`.
    pub fn new(args: &Args, tr: &mut Option<&mut Tracer>) -> Self {
        LerMwpmSlope {
            patches: patches_by_distance(L, &PATCHES, DRAWS, MAX_DRAWS, args.seed, SALT, tr),
            ps: super::paper_window(),
            shots: Sizing::new(args.seconds, args.scale).count(BASE_SHOTS),
            seed: args.seed,
            dir: args.out_dir.join(format!("tmp-{}", std::process::id())),
            marks: Marks::default(),
        }
    }

    fn spec(&self, i: usize, builder: DecoderBuilder) -> ExperimentSpec {
        let d = &self.patches[i];
        ExperimentSpec::memory(d.patch.clone())
            .ps(&self.ps)
            .shots(self.shots)
            .seed(self.seed.wrapping_add(i as u64))
            .label(format!("l={} d={} #{i}", d.l(), d.ind.distance()))
            .fit(true)
            .decoder(builder)
    }

    /// The plan; with `timed`, every spec's decoder is wrapped in a
    /// [`Marker`].
    fn plan(&self, timed: bool) -> SweepPlan {
        (0..self.patches.len())
            .map(|i| {
                let build = DecoderChoice::Mwpm.builder();
                if !timed {
                    return self.spec(i, build);
                }
                let marks = Arc::clone(&self.marks);
                self.spec(
                    i,
                    Arc::new(move |c, n| {
                        Box::new(Marker {
                            inner: build(c, n),
                            spec: i,
                            marks: Arc::clone(&marks),
                        })
                    }),
                )
            })
            .collect()
    }

    fn engine(&self, file: &str, shard: Option<Shard>) -> (SweepEngine, PathBuf) {
        let path = self.dir.join(file);
        let engine = SweepEngine::new(EngineConfig {
            batch: BATCH,
            // One allocation round however many batches a point has:
            // every point is visited once, so op = point = one visit.
            round_batches: u64::MAX,
            checkpoint: Some(path.clone()),
            shard,
            ..EngineConfig::default()
        });
        (engine, path)
    }

    fn point_index(&self, p: f64) -> usize {
        self.ps
            .iter()
            .position(|q| q.to_bits() == p.to_bits())
            .expect("the engine only visits plan points")
    }

    /// Runs the plan twice more as shards 0/2 and 1/2, merges the two
    /// states (the `dist.merge` span) and compares with the single-run
    /// state at `whole`. Returns `(ops attempted, ops failed)`.
    fn dist_check(&self, tr: &mut Tracer, whole: &SweepState, led: &mut Ledger) -> (u64, u64) {
        let plan = self.plan(false);
        let mut states = Vec::new();
        for i in 0..2 {
            let shard = Shard::new(i, 2).expect("0/2 and 1/2 are shards");
            let (engine, path) = self.engine(&format!("plan.shard{i}.sweep.json"), Some(shard));
            one_worker(|| engine.run(&plan, &mut NullSink))
                .expect("shard runs of a plan that ran whole");
            states.push(SweepState::load(&path).expect("the shard wrote its state"));
        }
        let merged = tr
            .time("dist.merge", 2, || merge_states(&states))
            .expect("two complete shards merge");
        let batches: Vec<f64> = states
            .iter()
            .map(|s| {
                s.points
                    .iter()
                    .map(|pt| shard_batches(s, pt) as f64)
                    .sum::<f64>()
            })
            .collect();
        let mean = batches.iter().sum::<f64>() / batches.len() as f64;
        let max = batches.iter().copied().fold(0.0, f64::max);
        led.set(
            "dist.shard_imbalance",
            if mean > 0.0 { max / mean - 1.0 } else { 0.0 },
        );
        let same = merged.points == whole.points && merged.batch == whole.batch;
        if !same {
            eprintln!("check: merged two-shard state differs from the single-run state");
        }
        (
            merged.points.len() as u64,
            u64::from(!same) * merged.points.len() as u64,
        )
    }
}

/// Removes the checkpoint scratch directory.
impl Drop for LerMwpmSlope {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Batches shard state `s` ran for point `pt`.
fn shard_batches(s: &SweepState, pt: &PointEntry) -> u64 {
    let range = s
        .shard
        .map_or(0..pt.total_batches, |sh| sh.batch_range(pt.total_batches));
    range.end - range.start
}

impl Workload for LerMwpmSlope {
    type State = ();

    fn unit(&self) -> &'static str {
        "shot"
    }

    fn segments(&self) -> usize {
        9
    }

    fn units_per_segment(&self) -> f64 {
        (self.patches.len() * self.ps.len() * self.shots) as f64
    }

    fn reference_ler(&self) -> f64 {
        4.0e-5
    }

    /// `CompiledExperiment::new` over every patch of the plan — what
    /// `SweepEngine::run` does before its first batch.
    fn setup(&self) {
        one_worker(|| {
            for spec in self.plan(false).specs() {
                std::hint::black_box(CompiledExperiment::new(spec).expect("input patches compile"));
            }
        })
    }

    /// One plan run. Op = one (patch, p) point, from the reweight that
    /// opens its `select_point` (the [`Marker`]'s `Select` mark) to its
    /// last batch.
    fn segment(&self, (): &mut ()) -> Segment {
        self.marks.lock().expect("mark log lock").clear();
        let (engine, path) = self.engine("plan.sweep.json", None);
        let plan = self.plan(true);
        let outcomes = one_worker(|| engine.run(&plan, &mut NullSink)).expect("the plan runs");
        let marks = std::mem::take(&mut *self.marks.lock().expect("mark log lock"));
        let mut op_ms = vec![0.0; self.patches.len() * self.ps.len()];
        let mut open: Option<(usize, Instant)> = None;
        for &(at, mark) in &marks {
            match mark {
                Mark::Select { spec, p } => {
                    open = Some((spec * self.ps.len() + self.point_index(p), at));
                }
                Mark::Batch => {
                    if let Some((op, from)) = open {
                        op_ms[op] = (at - from).as_secs_f64() * 1e3;
                    }
                }
            }
        }
        let unvisited = op_ms.iter().filter(|&&ms| ms == 0.0).count() as u64;
        let tallies: Vec<Tally> = outcomes
            .iter()
            .flat_map(|o| &o.points)
            .map(|pt| Tally {
                shots: pt.shots as u64,
                failures: pt.failures as u64,
            })
            .collect();
        // The checkpoint the engine left must hold the same tallies.
        let state = SweepState::load(&path).expect("the engine wrote its checkpoint");
        let agree = state.points.len() == tallies.len()
            && state.points.iter().zip(&tallies).all(|(pt, t)| {
                pt.tally.shots as u64 == t.shots && pt.tally.failures as u64 == t.failures
            });
        Segment {
            op_ms,
            failed_ops: if agree {
                unvisited
            } else {
                tallies.len() as u64
            },
            tallies,
        }
    }

    fn replay(&self, (): &mut (), tr: &mut Tracer, segments: usize) -> Vec<Segment> {
        one_worker(|| self.run_by_hand(tr, segments))
    }

    /// The sweep and dist rows: from the hand-driven runs already on
    /// `tr` (spans `sweep.run_by_hand`, the checkpoint spans), the
    /// engine's wall time, and the plan run as two shards and merged.
    fn extras(&self, (): &mut (), tr: &mut Tracer, timed: &Timed, led: &mut Ledger) -> (u64, u64) {
        let (_, path) = self.engine("plan.sweep.json", None);
        let whole = tr
            .time("sweep.checkpoint_load", 1, || SweepState::load(&path))
            .expect("the engine wrote its checkpoint");
        led.set("sweep.rounds", whole.rounds_done as f64);
        led.set(
            "sweep.checkpoint_bytes",
            std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        );
        // What `SweepEngine::run` spends beyond the compile and
        // sampling children the hand-driven run replays (its own
        // loop, allocation and checkpoint writes).
        let spans = tr.spans();
        let ms_of = |name: &str| -> Vec<f64> {
            tr.named(name)
                .iter()
                .map(|&i| spans[i].dur_ns() as f64 / 1e6)
                .collect()
        };
        let by_hand = ms_of("sweep.run_by_hand");
        let saves_ms: f64 = ms_of("sweep.checkpoint_save").iter().sum();
        let children_ms = stats::median(&by_hand) - saves_ms / by_hand.len().max(1) as f64;
        let engine_ms = stats::median(&timed.seg_wall_s) * 1e3;
        led.set("sweep.run_self_ms", engine_ms - children_ms);
        self.dist_check(tr, &whole, led)
    }
}

impl LerMwpmSlope {
    /// The engine's run by hand: compile every spec, then the one
    /// allocation round (every point takes all its batches, see
    /// [`Self::engine`]), a checkpoint after the round and once more at
    /// the end, as the engine does.
    fn run_by_hand(&self, tr: &mut Tracer, segments: usize) -> Vec<Segment> {
        let total_batches = self.shots.div_ceil(BATCH) as u64;
        let path = self.dir.join("by_hand.sweep.json");
        let mut out = Vec::new();
        for _ in 0..segments {
            let root = tr.enter("bench.segment");
            let run = tr.enter("sweep.run_by_hand");
            let mut exps = Vec::new();
            for (i, d) in self.patches.iter().enumerate() {
                tr.set_op(i as u32);
                let c = tr.enter("chiplet.compile");
                exps.push(pipeline::compile(
                    tr,
                    &d.patch,
                    &self.ps,
                    DecoderChoice::Mwpm,
                ));
                tr.exit(c);
            }
            let points = self.patches.len() * self.ps.len();
            let mut state = SweepState {
                fingerprint: 0,
                batch: BATCH,
                precision: None,
                shard: None,
                rounds_done: 1,
                points: Vec::with_capacity(points),
            };
            let mut op_ms = Vec::with_capacity(points);
            for (i, exp) in exps.iter_mut().enumerate() {
                for (j, &p) in self.ps.iter().enumerate() {
                    tr.set_op(op_ms.len() as u32);
                    let op = tr.enter("sweep.point");
                    let sel = tr.enter("chiplet.select_point");
                    pipeline::select(tr, exp, p);
                    tr.exit(sel);
                    let point_seed = self.seed.wrapping_add(i as u64 + j as u64);
                    let mut tally = PointTally {
                        next_batch: total_batches,
                        ..PointTally::default()
                    };
                    for b in 0..total_batches {
                        let n = BATCH.min(self.shots - b as usize * BATCH);
                        let stats = pipeline::batch(tr, exp, point_seed, b, n);
                        tally.shots += stats.shots;
                        tally.failures += stats.failures[0];
                    }
                    tr.exit(op);
                    op_ms.push(tr.dur_ns(op) as f64 / 1e6);
                    state.points.push(PointEntry {
                        spec: i,
                        point: j,
                        series: format!("by hand #{i}"),
                        p,
                        total_batches,
                        tally,
                    });
                }
            }
            for _ in 0..2 {
                tr.time("sweep.checkpoint_save", 1, || state.save(&path))
                    .expect("checkpoint directory is writable");
            }
            tr.exit(run);
            tr.exit(root);
            let reloaded = SweepState::load(&path).expect("the state just saved loads");
            out.push(Segment {
                op_ms,
                tallies: state
                    .points
                    .iter()
                    .map(|pt| Tally {
                        shots: pt.tally.shots as u64,
                        failures: pt.tally.failures as u64,
                    })
                    .collect(),
                failed_ops: if reloaded == state { 0 } else { points as u64 },
            });
        }
        out
    }
}
