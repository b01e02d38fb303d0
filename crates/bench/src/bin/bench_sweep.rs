//! Harness-free sweep-engine benchmark, writing `BENCH_sweep.json`:
//!
//! 1. **Scheduling** (`"bench": "steal"`): a skewed-load plan — memory
//!    curves at d = 5, 7 and 9 in one task list, so late tasks are ~10x
//!    heavier than early ones — executed at 4 workers under (a) the
//!    pre-PR static contiguous chunking (one chunk per worker, no
//!    rebalancing) and (b) the rayon pool's shared feed, where a free
//!    worker takes the next block (the row keeps its `steal`/`stealing`
//!    key names). Both are measured as
//!    real wall-clock; because wall-clock on a single-core container
//!    cannot show a scheduling effect (every schedule is work-
//!    conserving there), the row also reports *trace-driven makespans*:
//!    every task's duration is measured sequentially, then the two
//!    schedules are replayed in virtual time at 4 workers. The
//!    `host_cores` field says which measurement is meaningful on the
//!    machine that produced the file.
//! 2. **Adaptive allocation** (`"bench": "adaptive"`): a fig06-style
//!    curve run once with uniform shots and once with the Wilson-CI
//!    controller at the same per-point budget cap; reports total shots
//!    and the achieved worst-case relative CI width of both runs.
//! 3. **Resume** (`"bench": "resume"`): the same plan run uninterrupted
//!    versus checkpointed + halted mid-sweep + resumed; reports whether
//!    the records are bit-identical.
//! 4. **Sharding** (`"bench": "shards"`): a fig06-style plan split into
//!    1/2/4 shards through the `dqec_dist` partition. Each shard's
//!    engine run is timed sequentially at one worker thread; the row
//!    reports the virtual makespan (slowest shard, i.e. one worker
//!    process per shard), the merge overhead, the speedup over the
//!    single-process run, and whether the merged tallies are
//!    bit-identical to it. CI gates the 2-shard speedup.

use dqec_bench::fmt;
use dqec_chiplet::record::MemorySink;
use dqec_chiplet::runner::{CompiledExperiment, ExperimentSpec};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;
use dqec_dist::merge_states;
use dqec_sweep::checkpoint::SweepState;
use dqec_sweep::{EngineConfig, Precision, Shard, SweepEngine, SweepPlan};
use rayon::prelude::*;
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "\
usage: bench_sweep [--shots N] [--workers N] [--shards N] [--out FILE] [--help]

  --shots N     shots per curve point in the scheduling bench (default 8192)
  --workers N   worker count for the scheduling comparison (default 4)
  --shards N    largest shard count in the sharding bench; rows cover
                1, 2, 4, ... up to N (default 4)
  --out FILE    where to write the JSON report (default BENCH_sweep.json)
  --help        show this message";

struct Args {
    shots: usize,
    workers: usize,
    shards: u32,
    out: std::path::PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        shots: 8192,
        workers: 4,
        shards: 4,
        out: "BENCH_sweep.json".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--shots" => {
                args.shots = value("--shots").parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --shots value\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--workers" => {
                args.workers = value("--workers").parse().unwrap_or(0);
                if args.workers < 2 {
                    eprintln!("error: --workers must be >= 2\n{USAGE}");
                    std::process::exit(2);
                }
            }
            "--shards" => {
                args.shards = value("--shards").parse().unwrap_or(0);
                if args.shards < 1 {
                    eprintln!("error: --shards must be >= 1\n{USAGE}");
                    std::process::exit(2);
                }
            }
            "--out" => args.out = value("--out").into(),
            other => {
                eprintln!("error: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn patch(d: u32) -> AdaptedPatch {
    AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new())
}

/// Virtual-time replay of a task list on `workers` workers under static
/// contiguous chunking (one chunk per worker, the pre-PR scope
/// fan-out's assignment): the makespan is the heaviest chunk.
fn makespan_chunked(durations: &[f64], workers: usize) -> f64 {
    let chunk = durations.len().div_ceil(workers);
    durations
        .chunks(chunk.max(1))
        .map(|c| c.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

/// Virtual-time replay under greedy rebalancing (what the shared feed
/// converges to): each task goes to the earliest-free worker.
fn makespan_stealing(durations: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers];
    for &d in durations {
        let w = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .map(|(i, _)| i)
            .expect("workers >= 1");
        free[w] += d;
    }
    free.into_iter().fold(0.0, f64::max)
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows: Vec<String> = Vec::new();

    // ---- 1. Scheduling: skewed-load plan, chunked vs stealing -------
    //
    // One compiled unit per (distance, p): sampling a unit's batches
    // needs only &self, so the same task list can be replayed under
    // any schedule without recompiling decoders.
    let batch = 512usize;
    let mut units: Vec<CompiledExperiment> = Vec::new();
    for d in [5u32, 7, 9] {
        for p in [1e-3f64, 3e-3] {
            let spec = ExperimentSpec::memory(patch(d))
                .p(p)
                .rounds(d)
                .shots(args.shots)
                .seed(0x5eeb + u64::from(d))
                .label(format!("d={d} p={p}"));
            let mut unit = CompiledExperiment::new(&spec).expect("defect-free compiles");
            unit.select_point(0);
            units.push(unit);
        }
    }
    let batches_per_unit = args.shots.div_ceil(batch) as u64;
    let tasks: Vec<(usize, u64)> = (0..units.len())
        .flat_map(|u| (0..batches_per_unit).map(move |b| (u, b)))
        .collect();
    let run_task = |&(u, b): &(usize, u64)| {
        let unit: &CompiledExperiment = &units[u];
        std::hint::black_box(unit.sample_batches(b..b + 1, batch, args.shots));
    };

    // Per-task durations, measured sequentially (also the warm-up).
    let durations: Vec<f64> = rayon::with_worker_cap(1, || {
        tasks
            .iter()
            .map(|t| {
                let t0 = Instant::now();
                run_task(t);
                t0.elapsed().as_secs_f64()
            })
            .collect()
    });
    let total: f64 = durations.iter().sum();

    // Real wall-clock, static contiguous chunks: one par item per
    // worker, so nothing can move and each worker runs exactly its
    // pre-assigned contiguous share — the pre-PR schedule.
    let chunk_len = tasks.len().div_ceil(args.workers);
    let chunks: Vec<&[(usize, u64)]> = tasks.chunks(chunk_len).collect();
    let t0 = Instant::now();
    rayon::with_worker_cap(args.workers, || {
        chunks
            .par_iter()
            .map(|chunk| chunk.iter().for_each(run_task))
            .collect::<Vec<()>>()
    });
    let wall_chunked = t0.elapsed().as_secs_f64();

    // Real wall-clock, the shared feed over the flat task list.
    let t0 = Instant::now();
    rayon::with_worker_cap(args.workers, || {
        tasks.par_iter().map(run_task).collect::<Vec<()>>()
    });
    let wall_stealing = t0.elapsed().as_secs_f64();

    let m_chunked = makespan_chunked(&durations, args.workers);
    let m_stealing = makespan_stealing(&durations, args.workers);
    eprintln!(
        "steal: {} tasks, {:.2}s total work; model makespan @{}w: chunked {:.2}s vs stealing {:.2}s ({:.2}x); \
         wall: chunked {:.2}s vs stealing {:.2}s ({:.2}x) on {host_cores} core(s)",
        tasks.len(),
        total,
        args.workers,
        m_chunked,
        m_stealing,
        m_chunked / m_stealing,
        wall_chunked,
        wall_stealing,
        wall_chunked / wall_stealing,
    );
    rows.push(format!(
        "{{\"bench\": \"steal\", \"workers\": {}, \"host_cores\": {host_cores}, \"tasks\": {}, \
         \"plan\": \"d=5/7/9 x p=1e-3/3e-3, {} shots/point, batch {batch}\", \
         \"total_task_seconds\": {total:.3}, \
         \"makespan_chunked_s\": {m_chunked:.3}, \"makespan_stealing_s\": {m_stealing:.3}, \
         \"makespan_speedup\": {:.2}, \
         \"wall_chunked_s\": {wall_chunked:.3}, \"wall_stealing_s\": {wall_stealing:.3}, \
         \"wall_speedup\": {:.2}, \
         \"note\": \"makespans replay measured per-task durations in virtual time; wall times are physical and only differ when host_cores > 1\"}}",
        args.workers,
        tasks.len(),
        args.shots,
        m_chunked / m_stealing,
        wall_chunked / wall_stealing,
    ));
    drop(units);

    // ---- 2. Adaptive vs uniform shot allocation ---------------------
    //
    // Run the adaptive controller first, then size the uniform baseline
    // so it *just* reaches the same worst-case relative CI width: every
    // point gets the shot count the controller gave its hungriest
    // point. That is the fair exchange rate — any uniform run with
    // fewer shots per point would be worse than the adaptive run at its
    // loosest point.
    let cap = 60_000usize;
    let target = 0.35f64;
    let ps = [4e-3, 8e-3, 1.6e-2, 2.4e-2];
    let spec = |shots: usize| {
        ExperimentSpec::memory(patch(3))
            .ps(&ps)
            .rounds(3)
            .shots(shots)
            .seed(5)
            .label("fig06-style d=3")
    };
    let t0 = Instant::now();
    let adaptive = SweepEngine::new(EngineConfig {
        batch: 1024,
        precision: Some(Precision::new(target)),
        ..EngineConfig::default()
    })
    .run(&SweepPlan::single(spec(cap)), &mut MemorySink::default())
    .expect("adaptive run");
    let wall_adaptive = t0.elapsed().as_secs_f64();
    let matched_shots = adaptive[0]
        .points
        .iter()
        .map(|p| p.shots)
        .max()
        .expect("points exist");
    let t0 = Instant::now();
    let uniform = SweepEngine::new(EngineConfig {
        batch: 1024,
        ..EngineConfig::default()
    })
    .run(
        &SweepPlan::single(spec(matched_shots)),
        &mut MemorySink::default(),
    )
    .expect("uniform run");
    let wall_uniform = t0.elapsed().as_secs_f64();

    let rel_width = |pt: &dqec_chiplet::experiment::LerPoint| {
        let (lo, hi) = pt.ci95();
        if pt.failures == 0 {
            f64::INFINITY
        } else {
            (hi - lo) / pt.ler()
        }
    };
    let max_w_uniform = uniform[0].points.iter().map(rel_width).fold(0.0, f64::max);
    let max_w_adaptive = adaptive[0].points.iter().map(rel_width).fold(0.0, f64::max);
    let shots_uniform: usize = uniform[0].points.iter().map(|p| p.shots).sum();
    let shots_adaptive: usize = adaptive[0].points.iter().map(|p| p.shots).sum();
    eprintln!(
        "adaptive: target width {target}: uniform needs {shots_uniform} shots for max width {}, \
         adaptive reaches {} with {shots_adaptive} — {:.2}x fewer shots",
        fmt(max_w_uniform),
        fmt(max_w_adaptive),
        shots_uniform as f64 / shots_adaptive as f64
    );
    rows.push(format!(
        "{{\"bench\": \"adaptive\", \"target_rel_ci_width\": {target}, \"points\": {}, \
         \"per_point_cap\": {cap}, \"matched_uniform_shots_per_point\": {matched_shots}, \
         \"uniform_total_shots\": {shots_uniform}, \"adaptive_total_shots\": {shots_adaptive}, \
         \"shot_savings\": {:.2}, \
         \"uniform_max_rel_ci_width\": {:.4}, \"adaptive_max_rel_ci_width\": {:.4}, \
         \"uniform_wall_s\": {wall_uniform:.3}, \"adaptive_wall_s\": {wall_adaptive:.3}}}",
        ps.len(),
        shots_uniform as f64 / shots_adaptive as f64,
        max_w_uniform,
        max_w_adaptive,
    ));

    // ---- 3. Checkpoint/resume bit-exactness -------------------------
    let plan: SweepPlan = [3u32, 5]
        .iter()
        .map(|&d| {
            ExperimentSpec::memory(patch(d))
                .ps(&[6e-3, 9e-3])
                .rounds(3)
                .shots(8_192)
                .seed(77)
                .label(format!("resume d={d}"))
        })
        .collect();
    let base = EngineConfig {
        batch: 1024,
        round_batches: 2,
        ..EngineConfig::default()
    };
    let mut uninterrupted = MemorySink::default();
    SweepEngine::new(base.clone())
        .run(&plan, &mut uninterrupted)
        .expect("uninterrupted");
    let state = std::env::temp_dir().join(format!("bench_sweep_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&state);
    SweepEngine::new(EngineConfig {
        checkpoint: Some(state.clone()),
        halt_after_rounds: Some(2),
        ..base.clone()
    })
    .run(&plan, &mut MemorySink::default())
    .expect_err("deliberate mid-sweep halt");
    let mut resumed = MemorySink::default();
    SweepEngine::new(EngineConfig {
        checkpoint: Some(state.clone()),
        resume: true,
        ..base
    })
    .run(&plan, &mut resumed)
    .expect("resumed");
    let _ = std::fs::remove_file(&state);
    let bit_exact = resumed.records == uninterrupted.records;
    eprintln!(
        "resume: {} records, interrupted-then-resumed bit-exact: {bit_exact}",
        resumed.records.len()
    );
    rows.push(format!(
        "{{\"bench\": \"resume\", \"records\": {}, \"halted_after_rounds\": 2, \
         \"resume_bit_exact\": {bit_exact}}}",
        resumed.records.len()
    ));
    assert!(bit_exact, "resume must reproduce uninterrupted records");

    // ---- 4. Distributed sharding: makespan and merge overhead -------
    //
    // Each shard runs sequentially at one worker thread, standing in
    // for one single-threaded worker process; the makespan at N shards
    // is the slowest shard's wall time. The contiguous batch-range
    // partition is balanced, so the makespan should approach
    // `single / N` and the merge should be noise.
    let plan: SweepPlan = [3u32, 5]
        .iter()
        .map(|&d| {
            ExperimentSpec::memory(patch(d))
                .ps(&[6e-3, 9e-3])
                .rounds(d)
                .shots(65_536)
                .seed(91)
                .label(format!("shards d={d}"))
        })
        .collect();
    let base = EngineConfig {
        batch: 1024,
        round_batches: 4,
        ..EngineConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("bench_sweep_shards_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create shard scratch");

    let single_state = dir.join("single.sweep.json");
    let t0 = Instant::now();
    rayon::with_worker_cap(1, || {
        SweepEngine::new(EngineConfig {
            checkpoint: Some(single_state.clone()),
            ..base.clone()
        })
        .run(&plan, &mut MemorySink::default())
        .expect("single-process run")
    });
    let wall_single = t0.elapsed().as_secs_f64();
    let single = SweepState::load(&single_state).expect("single state");

    for count in (0..).map(|e| 1u32 << e).take_while(|&c| c <= args.shards) {
        let mut shard_walls = Vec::new();
        let mut states = Vec::new();
        for index in 0..count {
            let shard = Shard::new(index, count).expect("valid shard");
            let file = dir.join(format!("plan.shard{}.sweep.json", shard.file_tag()));
            let t0 = Instant::now();
            rayon::with_worker_cap(1, || {
                SweepEngine::new(EngineConfig {
                    shard: Some(shard),
                    checkpoint: Some(file.clone()),
                    ..base.clone()
                })
                .run(&plan, &mut MemorySink::default())
                .expect("shard run")
            });
            shard_walls.push(t0.elapsed().as_secs_f64());
            states.push(SweepState::load(&file).expect("shard state"));
        }
        let makespan = shard_walls.iter().fold(0.0, |a: f64, &b| a.max(b));
        let t0 = Instant::now();
        let merged = merge_states(&states).expect("partition merges");
        let merge_s = t0.elapsed().as_secs_f64();
        let shards_exact = merged.points == single.points;
        let speedup = wall_single / (makespan + merge_s);
        eprintln!(
            "shards: {count} shard(s): makespan {:.2}s + merge {:.3}s vs single {:.2}s \
             ({:.2}x), merged bit-exact: {shards_exact}",
            makespan, merge_s, wall_single, speedup
        );
        rows.push(format!(
            "{{\"bench\": \"shards\", \"shards\": {count}, \
             \"plan\": \"d=3/5 x p=6e-3/9e-3, 65536 shots/point, batch 1024\", \
             \"wall_single_s\": {wall_single:.3}, \
             \"shard_walls_s\": [{}], \"makespan_s\": {makespan:.3}, \
             \"merge_s\": {merge_s:.4}, \"speedup\": {speedup:.2}, \
             \"merged_bit_exact\": {shards_exact}, \
             \"note\": \"shard walls measured sequentially at 1 thread; makespan assumes one worker per shard\"}}",
            shard_walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
        assert!(
            shards_exact,
            "sharded merge must reproduce the single-process tallies"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str("  ");
        json.push_str(row);
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("]\n");
    let mut file = std::fs::File::create(&args.out)
        .unwrap_or_else(|e| panic!("create {}: {e}", args.out.display()));
    file.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("write {}: {e}", args.out.display()));
    eprintln!("wrote {}", args.out.display());
}
