//! The figure binaries' and `bench_sweep`'s command lines, driven
//! through the real binaries with flag errors only, so no figure or
//! benchmark runs: `--help` exits 0 with the usage on stdout, and a
//! malformed command line exits 2 with `error: …` and the usage on
//! stderr.

use std::process::Command;

fn usage_error(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {message}\n")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("\nusage: "), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn figure_binary_follows_the_shared_rules() {
    let fig = env!("CARGO_BIN_EXE_fig06_ler_curves");
    let out = Command::new(fig).arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: <bin>"));
    usage_error(fig, &["--no-such-flag"], "unknown flag \"--no-such-flag\"");
    usage_error(fig, &["--shots"], "--shots requires a value");
    usage_error(fig, &["--seed", "-1"], "bad --seed value \"-1\"");
    // `-h` as a value is the value: here the missing value comes after.
    usage_error(
        fig,
        &["--out", "-h", "--samples"],
        "--samples requires a value",
    );
}

#[test]
fn bench_sweep_rejects_a_bad_shard_count() {
    let bench = env!("CARGO_BIN_EXE_bench_sweep");
    usage_error(bench, &["--shards", "abc"], "bad --shards value \"abc\"");
    usage_error(bench, &["--shards", "0"], "--shards must be >= 1");
}
