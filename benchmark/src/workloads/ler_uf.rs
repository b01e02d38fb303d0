//! `ler-uf-lowp`: union-find at the paper's operating point — forty
//! distinct defective l = 7 and l = 5 patches at p = 5·10⁻⁴ and 10⁻³,
//! driven by hand through `CompiledExperiment::select_point` and
//! `sample_batches` in 4096-shot batches.
//!
//! Frame sampling and event indexing are the largest share of the wall
//! and no blossom code runs, so a sampler optimisation shows here and a
//! blossom change predicts no movement.

use crate::harness::{Args, Segment, Sizing, Tally, Timed, Workload};
use crate::inputs::{distinct_patches, Drawn};
use crate::ledger::Ledger;
use crate::pipeline::{self, HandCompiled};
use crate::trace::Tracer;
use crate::workloads::one_worker;
use dqec_chiplet::runner::{CompiledExperiment, DecoderChoice, ExperimentSpec};
use std::ops::RangeInclusive;
use std::time::Instant;

/// Patch widths, how many of each, and the band of sizes (detector
/// counts, see `inputs::size`) they are taken from — the upper half of
/// what a 1 % defect rate produces. Compiling all of them with the
/// union-find builder is the 0.3 s set-up.
const SIZES: [(u32, usize, RangeInclusive<usize>); 2] = [(7, 32, 285..=325), (5, 8, 100..=115)];
/// The operating point and half of it.
const PS: [f64; 2] = [5e-4, 1e-3];
/// Shots per op.
const BATCH: usize = 4096;
/// Batches per (patch, p) point at `--seconds 25 --scale 1`.
const BASE_BATCHES: usize = 13;
/// Input-stream salt of this workload.
const SALT: u64 = 2;

/// The workload.
pub struct LerUfLowp {
    patches: Vec<Drawn>,
    batches: u64,
    seed: u64,
}

impl LerUfLowp {
    /// The workload's inputs for `args`.
    pub fn new(args: &Args, tr: &mut Option<&mut Tracer>) -> Self {
        LerUfLowp {
            patches: SIZES
                .iter()
                .flat_map(|(l, n, band)| {
                    distinct_patches(*l, *n, band.clone(), args.seed, SALT, tr)
                })
                .collect(),
            batches: Sizing::new(args.seconds, args.scale).count(BASE_BATCHES) as u64,
            seed: args.seed,
        }
    }

    fn spec(&self, i: usize) -> ExperimentSpec {
        ExperimentSpec::memory(self.patches[i].patch.clone())
            .ps(&PS)
            .seed(self.seed.wrapping_add(i as u64))
            .decoder(DecoderChoice::Uf.builder())
    }

    /// One pass over every (patch, p) through the top-level API,
    /// `per_call` batches to a `sample_batches` call (1 in the timed
    /// segments: op = one batch).
    fn pass(&self, exps: &mut [CompiledExperiment], per_call: u64) -> Segment {
        let mut seg = Segment::default();
        for exp in exps.iter_mut() {
            for point in 0..PS.len() {
                exp.select_point(point);
                for b in (0..self.batches).step_by(per_call as usize) {
                    let hi = (b + per_call).min(self.batches);
                    let t = Instant::now();
                    let stats = exp.sample_batches(b..hi, BATCH, usize::MAX);
                    seg.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    seg.tallies.push(Tally {
                        shots: stats.shots as u64,
                        failures: stats.failures[0] as u64,
                    });
                }
            }
        }
        seg
    }
}

impl Workload for LerUfLowp {
    type State = Vec<CompiledExperiment>;

    fn unit(&self) -> &'static str {
        "shot"
    }

    fn segments(&self) -> usize {
        9
    }

    fn units_per_segment(&self) -> f64 {
        (self.patches.len() * PS.len()) as f64 * self.batches as f64 * BATCH as f64
    }

    fn reference_ler(&self) -> f64 {
        1.7e-4
    }

    /// Compiling every patch with the union-find builder.
    fn setup(&self) -> Vec<CompiledExperiment> {
        one_worker(|| {
            (0..self.patches.len())
                .map(|i| CompiledExperiment::new(&self.spec(i)).expect("input patches compile"))
                .collect()
        })
    }

    /// Op = one 4096-shot batch.
    fn segment(&self, exps: &mut Vec<CompiledExperiment>) -> Segment {
        one_worker(|| self.pass(exps, 1))
    }

    fn replay(
        &self,
        _: &mut Vec<CompiledExperiment>,
        tr: &mut Tracer,
        segments: usize,
    ) -> Vec<Segment> {
        one_worker(|| {
            let root = tr.enter("bench.setup_replay");
            let mut exps: Vec<HandCompiled> = Vec::new();
            for (i, d) in self.patches.iter().enumerate() {
                tr.set_op(i as u32);
                let c = tr.enter("chiplet.compile");
                exps.push(pipeline::compile(tr, &d.patch, &PS, DecoderChoice::Uf));
                tr.exit(c);
            }
            tr.exit(root);
            (0..segments)
                .map(|_| {
                    let mut seg = Segment::default();
                    let root = tr.enter("bench.segment");
                    for (i, exp) in exps.iter_mut().enumerate() {
                        for (j, &p) in PS.iter().enumerate() {
                            let sel = tr.enter("chiplet.select_point");
                            pipeline::select(tr, exp, p);
                            tr.exit(sel);
                            let point_seed = self.seed.wrapping_add(i as u64 + j as u64);
                            for b in 0..self.batches {
                                tr.set_op(seg.op_ms.len() as u32);
                                let op = tr.enter("bench.op");
                                let stats = pipeline::batch(tr, exp, point_seed, b, BATCH);
                                tr.exit(op);
                                seg.op_ms.push(tr.dur_ns(op) as f64 / 1e6);
                                seg.tallies.push(Tally {
                                    shots: stats.shots as u64,
                                    failures: stats.failures[0] as u64,
                                });
                            }
                        }
                    }
                    tr.exit(root);
                    seg
                })
                .collect()
        })
    }

    /// Parallel scaling (a segment that hands each point's batches to
    /// one `sample_batches` call, at worker cap 2 over twice its cap-1
    /// rate) and the cost of the obs registry (the timed segment again
    /// with it disabled).
    fn extras(
        &self,
        exps: &mut Vec<CompiledExperiment>,
        _: &mut Tracer,
        timed: &Timed,
        led: &mut Ledger,
    ) -> (u64, u64) {
        let base_s = crate::stats::median(&timed.seg_wall_s);
        let timed_pass = |workers: usize, exps: &mut Vec<CompiledExperiment>| {
            let t = Instant::now();
            let seg = rayon::with_worker_cap(workers, || self.pass(exps, self.batches));
            (seg, t.elapsed().as_secs_f64())
        };
        let (narrow, narrow_s) = timed_pass(1, exps);
        let (wide, wide_s) = timed_pass(2, exps);
        led.set("rayon.scaling_eff", narrow_s / wide_s / 2.0);

        dqec_obs::metrics::set_enabled(false);
        let t = Instant::now();
        let quiet = one_worker(|| self.pass(exps, 1));
        let off_s = t.elapsed().as_secs_f64();
        dqec_obs::metrics::set_enabled(true);
        led.set("obs.metrics_off_gain_frac", base_s / off_s - 1.0);

        // Neither worker count nor metrics may change a single tally.
        let reference = &timed.segments[0].tallies;
        let differing = |a: &[Tally], b: &[Tally]| {
            a.len().abs_diff(b.len()) + a.iter().zip(b).filter(|(x, y)| x != y).count()
        };
        let attempted = (quiet.tallies.len() + wide.tallies.len()) as u64;
        let failed = (differing(&quiet.tallies, reference)
            + differing(&wide.tallies, &narrow.tallies)) as u64;
        (attempted, failed)
    }
}
