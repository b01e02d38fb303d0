//! The `dqec_dist` command line, driven through the real binary: the
//! shared help and exit-code rules, bad values rejected before any
//! shard runs, and the argv a shard worker receives — pass-through
//! arguments untouched, then the coordinator's own flags.

#![cfg(not(dqec_check))]

use dqec_chiplet::record::MemorySink;
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;
use dqec_dist::Shard;
use dqec_sweep::shard::state_file_name;
use dqec_sweep::{EngineConfig, SweepEngine};
use std::os::unix::fs::PermissionsExt;
use std::process::{Command, Output};

fn dist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dqec_dist"))
        .args(args)
        .output()
        .expect("spawn dqec_dist")
}

fn usage_error(args: &[&str], message: &str) {
    let out = dist(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {message}\n")),
        "{args:?}: {stderr}"
    );
    assert!(
        stderr.contains("usage: dqec_dist run"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn help_and_flag_errors_follow_the_shared_rules() {
    for args in [&["--help"][..], &["run", "-h"], &["merge", "--help"]] {
        let out = dist(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: dqec_dist run"));
    }
    usage_error(&["--no-such-flag"], "unknown flag \"--no-such-flag\"");
    usage_error(&["run", "--bogus"], "unknown flag \"--bogus\"");
    usage_error(&["agent", "--addr"], "--addr requires a value");
    usage_error(
        &["run", "--bin", "b", "--shards", "two"],
        "bad --shards value \"two\"",
    );
    // A zero worker-thread cap fails here, not in every shard process
    // after all retries.
    usage_error(
        &[
            "run",
            "--bin",
            "b",
            "--shards",
            "2",
            "--checkpoint",
            "c",
            "--worker-threads",
            "0",
        ],
        "--worker-threads must be >= 1",
    );
    usage_error(
        &[
            "run",
            "--bin",
            "b",
            "--shards",
            "2",
            "--checkpoint",
            "c",
            "--",
            "--out",
            "o",
        ],
        "--out is coordinator-owned; do not pass it after --",
    );
}

/// Records its argv, then copies the shard state the coordinator asked
/// for from `$PREMADE` into its `--checkpoint` dir.
const RECORDING_STUB: &str = r#"#!/bin/sh
echo "$@" > "$PREMADE/argv"
while [ $# -gt 0 ]; do
  case "$1" in
    --checkpoint) dir="$2"; shift 2 ;;
    *) shift ;;
  esac
done
mkdir -p "$dir" && cp "$PREMADE"/*.shard0of1.sweep.json "$dir"/
"#;

#[test]
fn arguments_after_the_separator_reach_the_worker_untouched() {
    let root = std::env::temp_dir().join(format!("dqec_dist_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let premade = root.join("premade");
    std::fs::create_dir_all(&premade).expect("create premade");
    let shard = Shard::new(0, 1).expect("valid shard");
    let spec = ExperimentSpec::memory(AdaptedPatch::new(PatchLayout::memory(3), &DefectSet::new()))
        .ps(&[6e-3])
        .rounds(3)
        .shots(512)
        .seed(5);
    SweepEngine::new(EngineConfig {
        batch: 512,
        shard: Some(shard),
        checkpoint: Some(premade.join(state_file_name("stub.plan", Some(shard)))),
        ..EngineConfig::default()
    })
    .run(&[spec].into_iter().collect(), &mut MemorySink::default())
    .expect("shard run");
    let stub = root.join("stub");
    std::fs::write(&stub, RECORDING_STUB).expect("write stub");
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).expect("chmod stub");

    let checkpoint = root.join("D");
    let out = Command::new(env!("CARGO_BIN_EXE_dqec_dist"))
        .env("PREMADE", &premade)
        .args(["run", "--bin"])
        .arg(&stub)
        .args(["--shards", "1", "--checkpoint"])
        .arg(&checkpoint)
        .args(["--", "--help"])
        .output()
        .expect("spawn dqec_dist");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "dist printed its own usage");
    let argv = std::fs::read_to_string(premade.join("argv")).expect("stub ran");
    assert_eq!(
        argv.trim_end(),
        format!("--help --shard 0/1 --checkpoint {}", checkpoint.display())
    );
    let _ = std::fs::remove_dir_all(&root);
}
