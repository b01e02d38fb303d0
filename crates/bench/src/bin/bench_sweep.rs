//! Harness-free sharding benchmark, writing `BENCH_sweep.json`: a
//! fig06-style plan split into 1/2/4 shards through the `dqec_dist`
//! partition (`"bench": "shards"` rows). Each shard's engine run is
//! timed sequentially at one worker thread; each row reports the
//! virtual makespan (slowest shard, i.e. one worker process per shard),
//! the merge overhead, the speedup over the single-process run, and
//! whether the merged tallies are bit-identical to it. CI gates the
//! 2-shard speedup.

use dqec_chiplet::cli;
use dqec_chiplet::record::MemorySink;
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;
use dqec_dist::merge_states;
use dqec_sweep::checkpoint::SweepState;
use dqec_sweep::shard::state_file_name;
use dqec_sweep::{EngineConfig, Shard, SweepEngine, SweepPlan};
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "\
usage: bench_sweep [--shards N] [--out FILE] [--help]

  --shards N    largest shard count; rows cover 1, 2, 4, ... up to N
                (default 4)
  --out FILE    where to write the JSON report (default BENCH_sweep.json)
  --help        show this message";

fn patch(d: u32) -> AdaptedPatch {
    AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new())
}

fn main() {
    let argv = cli::args();
    let f = cli::or_exit(USAGE, cli::read(&argv, &[], &["--shards", "--out"]));
    let max_shards: u32 = cli::or_exit(USAGE, f.positive("--shards")).unwrap_or(4);
    let out = f.value("--out").unwrap_or("BENCH_sweep.json");
    let mut rows: Vec<String> = Vec::new();

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

    for count in (0..).map(|e| 1u32 << e).take_while(|&c| c <= max_shards) {
        let mut shard_walls = Vec::new();
        let mut states = Vec::new();
        for index in 0..count {
            let shard = Shard::new(index, count).expect("valid shard");
            let file = dir.join(state_file_name("plan", Some(shard)));
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
    let mut file = std::fs::File::create(out).unwrap_or_else(|e| panic!("create {out}: {e}"));
    file.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
}
