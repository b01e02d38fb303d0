//! The subsystem's core guarantee, tested end to end at the engine
//! level: split a sweep into `N` shards, run each slice through its own
//! engine (crashing and resuming one of them along the way), merge the
//! shard states, and the records a `--resume` run emits over the merged
//! state are **bit-identical** to an uninterrupted single-process run.
//!
//! The process-level version of the same property (real binaries, real
//! SIGKILL) runs in CI as the `dist-smoke` job; these tests pin the
//! math underneath it across randomized plans and shard counts.

use dqec_chiplet::record::{MemorySink, Record};
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::{Coord, DefectSet};
use dqec_dist::merge::merge_states;
use dqec_dist::Shard;
use dqec_sweep::checkpoint::SweepState;
use dqec_sweep::shard::state_file_name;
use dqec_sweep::{EngineConfig, SweepEngine, SweepPlan};
use proptest::prelude::*;
use std::path::PathBuf;

fn patch(l: u32) -> AdaptedPatch {
    AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new())
}

fn defective_patch(l: u32) -> AdaptedPatch {
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(5, 5));
    AdaptedPatch::new(PatchLayout::memory(l), &defects)
}

/// A small mixed-cost plan, the shape fig05/06/11 run at scale.
fn plan(seed: u64, shots: usize) -> SweepPlan {
    let mut plan = SweepPlan::new();
    plan.push(
        ExperimentSpec::memory(patch(3))
            .ps(&[6e-3, 9e-3])
            .rounds(3)
            .shots(shots)
            .seed(seed)
            .label("d=3"),
    );
    plan.push(
        ExperimentSpec::memory(defective_patch(5))
            .ps(&[6e-3])
            .shots(shots)
            .seed(seed + 1)
            .label("defective d=5"),
    );
    plan
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dqec_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch");
    dir
}

/// Engine config shared by every run of one logical sweep: small
/// batches so plans span several rounds and shard slices are nontrivial.
fn base_config() -> EngineConfig {
    EngineConfig {
        batch: 512,
        round_batches: 2,
        ..EngineConfig::default()
    }
}

fn ler_records(sink: &MemorySink) -> Vec<String> {
    sink.records
        .iter()
        .filter_map(|r| match r {
            Record::Ler(l) => Some(format!(
                "{}\t{}\t{}\t{}",
                l.series, l.point.p, l.point.shots, l.point.failures
            )),
            _ => None,
        })
        .collect()
}

/// Runs the full distributed protocol at the engine level and checks
/// bit-exactness against the single-process run. Returns the merged
/// state for further poking.
fn run_partitioned(seed: u64, shots: usize, count: u32, tag: &str) -> SweepState {
    let plan = plan(seed, shots);
    let dir = scratch(tag);

    // The single-process truth.
    let mut whole_sink = MemorySink::default();
    let whole_state = dir.join("whole.sweep.json");
    SweepEngine::new(EngineConfig {
        checkpoint: Some(whole_state.clone()),
        ..base_config()
    })
    .run(&plan, &mut whole_sink)
    .expect("whole-plan run");
    let whole = SweepState::load(&whole_state).expect("whole state");

    // Each shard through its own engine (its own process, at scale).
    let mut states = Vec::new();
    for index in 0..count {
        let shard = Shard::new(index, count).expect("valid shard");
        let file = dir.join(state_file_name("plan", Some(shard)));
        SweepEngine::new(EngineConfig {
            shard: Some(shard),
            checkpoint: Some(file.clone()),
            ..base_config()
        })
        .run(&plan, &mut MemorySink::default())
        .expect("shard run");
        states.push(SweepState::load(&file).expect("shard state"));
    }

    let merged = merge_states(&states).expect("partition merges");
    assert_eq!(merged.fingerprint, whole.fingerprint);
    assert_eq!(merged.batch, whole.batch);
    assert_eq!(
        merged.points, whole.points,
        "merged tallies differ from the single-process run"
    );

    // The emission trick: resume a whole-plan engine over the merged
    // state; it allocates nothing and emits the records — which must
    // be byte-identical to the uninterrupted run's.
    let merged_file = dir.join("merged.sweep.json");
    merged.save(&merged_file).expect("save merged");
    let mut emitted_sink = MemorySink::default();
    SweepEngine::new(EngineConfig {
        checkpoint: Some(merged_file),
        resume: true,
        ..base_config()
    })
    .run(&plan, &mut emitted_sink)
    .expect("emission run");
    assert_eq!(
        ler_records(&emitted_sink),
        ler_records(&whole_sink),
        "merged-state emission diverged from the single-process records"
    );

    let _ = std::fs::remove_dir_all(&dir);
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn any_partition_merges_bit_exactly(
        seed in 0u64..1000,
        shots in 3usize..6,
        count in 1u32..5,
    ) {
        // 1536..2560 shots at batch 512 = 3..5 batches per point, so
        // with up to 4 shards some slices are empty — the degenerate
        // cases ride along with the typical ones.
        run_partitioned(seed, shots * 512, count, "prop");
    }
}

#[test]
fn killed_then_resumed_shard_merges_identically() {
    let seed = 7;
    let shots = 2048;
    let count = 2;
    let plan = plan(seed, shots);
    let dir = scratch("kill");

    // Reference: the clean distributed run (itself checked against the
    // single-process run inside).
    let clean = run_partitioned(seed, shots, count, "kill_ref");

    // Shard 0 runs clean; shard 1 is "killed" after its first
    // allocation round (state durably on disk, like a SIGKILL between
    // rounds) and then re-dispatched with resume — exactly what the
    // coordinator's retry path does.
    let mut states = Vec::new();
    for index in 0..count {
        let shard = Shard::new(index, count).expect("valid shard");
        let file = dir.join(state_file_name("plan", Some(shard)));
        let cfg = EngineConfig {
            shard: Some(shard),
            checkpoint: Some(file.clone()),
            ..base_config()
        };
        if index == 1 {
            let err = SweepEngine::new(EngineConfig {
                halt_after_rounds: Some(1),
                ..cfg.clone()
            })
            .run(&plan, &mut MemorySink::default())
            .expect_err("deliberate mid-shard kill");
            assert!(err.to_string().contains("halted"), "{err}");
            assert!(file.exists(), "killed shard left no state");
            SweepEngine::new(EngineConfig {
                resume: true,
                ..cfg
            })
            .run(&plan, &mut MemorySink::default())
            .expect("resumed shard completes");
        } else {
            SweepEngine::new(cfg)
                .run(&plan, &mut MemorySink::default())
                .expect("clean shard");
        }
        states.push(SweepState::load(&file).expect("shard state"));
    }
    let merged = merge_states(&states).expect("partition merges");
    assert_eq!(
        merged.points, clean.points,
        "kill+resume changed the merged tallies"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_shards_of_a_different_plan() {
    let dir = scratch("foreign");
    let count = 2;
    let mut states = Vec::new();
    // Shard 0 from one plan, shard 1 from another (different seed →
    // different fingerprint): the merge must refuse the mix.
    for (index, seed) in [(0u32, 1u64), (1, 2)] {
        let shard = Shard::new(index, count).expect("valid shard");
        let file = dir.join(state_file_name(&format!("s{index}"), Some(shard)));
        SweepEngine::new(EngineConfig {
            shard: Some(shard),
            checkpoint: Some(file.clone()),
            ..base_config()
        })
        .run(&plan(seed, 1024), &mut MemorySink::default())
        .expect("shard run");
        states.push(SweepState::load(&file).expect("shard state"));
    }
    let err = merge_states(&states).expect_err("foreign shard must be rejected");
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // The engine is equally strict the other way around: a shard
    // engine refuses to resume a state belonging to a different shard.
    let swapped = dir.join("swapped.sweep.json");
    states[1].save(&swapped).expect("save");
    let err = SweepEngine::new(EngineConfig {
        shard: Some(Shard::new(0, 2).expect("valid shard")),
        checkpoint: Some(swapped),
        resume: true,
        ..base_config()
    })
    .run(&plan(2, 1024), &mut MemorySink::default())
    .expect_err("wrong shard identity");
    assert!(err.to_string().contains("shard"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine fingerprint a shard of `plan(3, 1024)` under
/// [`base_config`] carried before the sampler's draw order became
/// stream 2 (`dqec_sim::frame::SAMPLER_STREAM`).
const STREAM_1_FINGERPRINT: u64 = 0x9ec3_3447_23e1_34de;

#[test]
fn state_of_an_older_sampler_stream_is_refused() {
    let dir = scratch("stream1");
    let plan = plan(3, 1024);
    let mut states = Vec::new();
    for index in 0..2 {
        let shard = Shard::new(index, 2).expect("valid shard");
        let file = dir.join(state_file_name("plan", Some(shard)));
        SweepEngine::new(EngineConfig {
            shard: Some(shard),
            checkpoint: Some(file.clone()),
            ..base_config()
        })
        .run(&plan, &mut MemorySink::default())
        .expect("shard run");
        states.push(SweepState::load(&file).expect("shard state"));
    }
    assert_ne!(states[0].fingerprint, STREAM_1_FINGERPRINT);

    // A stream-1 shard among stream-2 ones: the merge refuses the mix.
    let mut mixed = states.clone();
    mixed[1].fingerprint = STREAM_1_FINGERPRINT;
    let err = merge_states(&mixed).expect_err("mixed streams must not merge");
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // An all-stream-1 set merges among itself, but neither the merged
    // state nor a shard's own state resumes under stream 2.
    let mut old = states.clone();
    for state in &mut old {
        state.fingerprint = STREAM_1_FINGERPRINT;
    }
    let merged_file = dir.join("merged.sweep.json");
    merge_states(&old)
        .expect("one stream merges")
        .save(&merged_file)
        .expect("save merged");
    let err = SweepEngine::new(EngineConfig {
        checkpoint: Some(merged_file),
        resume: true,
        ..base_config()
    })
    .run(&plan, &mut MemorySink::default())
    .expect_err("a stream-1 merged state must not resume");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    let shard_file = dir.join("old_shard.sweep.json");
    old[0].save(&shard_file).expect("save shard");
    let err = SweepEngine::new(EngineConfig {
        shard: Some(Shard::new(0, 2).expect("valid shard")),
        checkpoint: Some(shard_file),
        resume: true,
        ..base_config()
    })
    .run(&plan, &mut MemorySink::default())
    .expect_err("a stream-1 shard state must not resume");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
