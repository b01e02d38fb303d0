//! The distributed-sweep CLI: coordinator (`run`), recombiner
//! (`merge`), and worker daemon (`agent`).
//!
//! ```text
//! # split fig06 across 2 local worker processes, merge, and emit the
//! # records exactly as one process would have:
//! dqec_dist run --bin target/release/fig06_ler_curves --shards 2 \
//!     --checkpoint ckpts --emit -- --shots 20000
//!
//! # the same, across two remote agents:
//! dqec_dist agent --addr 0.0.0.0:7462 --bins target/release &   # on each worker
//! dqec_dist run --bin fig06_ler_curves --shards 4 --checkpoint ckpts \
//!     --agents hostA:7462,hostB:7462 --emit -- --shots 20000
//! ```

use dqec_dist::{
    merge_dir, run_local, run_remote, AgentConfig, DistReport, LocalOptions, RemoteJob,
    RemoteOptions, ShardJob,
};
use dqec_sweep::cli;
use dqec_sweep::shard::COORDINATOR_FLAGS;
use std::path::PathBuf;

const USAGE: &str = "\
usage: dqec_dist run   --bin PATH|NAME --shards N --checkpoint DIR
                       [--workers K] [--retries R] [--worker-threads T]
                       [--agents HOST:PORT,...] [--timeout-ms MS]
                       [--resume] [--emit] [-- ARGS...]
       dqec_dist merge --checkpoint DIR
       dqec_dist agent [--addr A] [--bins DIR] [--scratch DIR]
                       [--heartbeat-ms MS]

run    coordinate an N-way sharded sweep of one figure binary and merge
       the shard states bit-exactly. Everything after `--` is passed
       through to the binary (e.g. --shots, --seed, --decoder).
  --bin PATH|NAME   the figure binary: a path for local runs, a bare
                    name (resolved in each agent's --bins) for remote
  --shards N        partition width
  --checkpoint DIR  where shard states land and the merge writes
  --workers K       concurrent local shard processes (default 2)
  --retries R       per-shard crash/straggler retry budget (default 2)
  --worker-threads T  --threads cap passed to each local shard process
  --agents LIST     dispatch to these agents instead of local processes
  --timeout-ms MS   straggler threshold for remote dispatch (default 5000)
  --resume          resume an earlier partial distributed run
  --emit            after merging, run the binary once with --resume on
                    the merged state (stdout inherited): emits records
                    byte-identical to a single-process run

merge  recombine existing DIR/<tag>.shard<i>of<N>.sweep.json files
       into DIR/<tag>.sweep.json (verifies fingerprints and partition
       completeness; rejects incomplete shards)

agent  run the worker daemon: executes `shard` requests from a
       coordinator, heartbeats while working, ships state files inline
  --addr A          listen address (default 127.0.0.1:7462)
  --bins DIR        directory holding the figure binaries (default .)
  --scratch DIR     per-job checkpoint scratch (default dist-scratch)
  --heartbeat-ms MS progress-frame period (default 500)";

fn main() {
    let argv = cli::args();
    match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&argv[1..]),
        Some("merge") => cmd_merge(&argv[1..]),
        Some("agent") => cmd_agent(&argv[1..]),
        _ => cli::or_exit(USAGE, no_subcommand(&argv)),
    }
}

/// A command line without a subcommand: `--help` and unknown flags go
/// through the reader, anything else is an error.
fn no_subcommand(argv: &[String]) -> Result<(), cli::Error> {
    match argv.first() {
        Some(name) if !name.starts_with('-') => Err(format!("unknown subcommand {name:?}").into()),
        _ => cli::read(argv, &[], &[]).and(Err("a subcommand is required".into())),
    }
}

/// A parsed `run` command line: local options are used when no agents
/// are named.
struct Run {
    job: ShardJob,
    local: LocalOptions,
    remote: RemoteOptions,
    emit: bool,
}

fn parse_run(args: &[String]) -> Result<Run, cli::Error> {
    let f = cli::read(
        args,
        &["--resume", "--emit", "--"],
        &[
            "--bin",
            "--shards",
            "--checkpoint",
            "--workers",
            "--retries",
            "--worker-threads",
            "--agents",
            "--timeout-ms",
        ],
    )?;
    let bin = f.value("--bin").ok_or("run requires --bin")?;
    let count = f.positive("--shards")?.ok_or("run requires --shards N")?;
    let checkpoint = f
        .value("--checkpoint")
        .ok_or("run requires --checkpoint DIR")?;
    for owned in COORDINATOR_FLAGS {
        if f.rest().iter().any(|a| a == owned) {
            return Err(format!("{owned} is coordinator-owned; do not pass it after --").into());
        }
    }
    let (local, remote) = (LocalOptions::default(), RemoteOptions::default());
    let max_retries = f.get("--retries")?.unwrap_or(local.max_retries);
    Ok(Run {
        job: ShardJob {
            bin: PathBuf::from(bin),
            args: f.rest().to_vec(),
            count,
            checkpoint: PathBuf::from(checkpoint),
            resume: f.has("--resume"),
        },
        local: LocalOptions {
            workers: f.get("--workers")?.unwrap_or(local.workers),
            max_retries,
            threads_per_worker: f.positive("--worker-threads")?,
        },
        remote: RemoteOptions {
            agents: f.value("--agents").map_or_else(Vec::new, |list| {
                list.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }),
            max_retries,
            heartbeat_timeout_ms: f
                .get("--timeout-ms")?
                .unwrap_or(remote.heartbeat_timeout_ms),
        },
        emit: f.has("--emit"),
    })
}

fn cmd_run(args: &[String]) {
    let run = cli::or_exit(USAGE, parse_run(args));
    let job = &run.job;
    let report = if run.remote.agents.is_empty() {
        run_local(job, &run.local)
    } else {
        let remote = RemoteJob {
            bin: job.bin.display().to_string(),
            args: job.args.clone(),
            count: job.count,
            checkpoint: job.checkpoint.clone(),
        };
        run_remote(&remote, &run.remote)
    };
    let report = report.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // A remote --bin is a bare name; the emission run happens locally,
    // so the binary must also exist here (the same layout as an
    // agent's --bins is the caller's responsibility).
    if run.emit {
        dqec_dist::coordinator::emit_merged(job).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    }
    print_report(&report);
}

fn print_report(report: &DistReport) {
    for outcome in &report.outcomes {
        eprintln!(
            "[dist] shard {} done in {:.2}s ({} attempt{})",
            outcome.index,
            outcome.duration_ns as f64 / 1e9,
            outcome.attempts,
            if outcome.attempts == 1 { "" } else { "s" },
        );
    }
    for merged in &report.merged {
        eprintln!(
            "[dist] merged {} ({} shards, {} points, {} shots) -> {}",
            merged.tag,
            merged.shards,
            merged.points,
            merged.shots,
            merged.out.display()
        );
    }
    eprintln!(
        "[dist] dispatch {:.2}s, merge {:.3}s",
        report.dispatch_ns as f64 / 1e9,
        report.merge_ns as f64 / 1e9
    );
}

fn cmd_merge(args: &[String]) {
    let f = cli::or_exit(USAGE, cli::read(args, &[], &["--checkpoint"]));
    let checkpoint = f.value("--checkpoint").map(PathBuf::from);
    let checkpoint = cli::or_exit(USAGE, checkpoint.ok_or("merge requires --checkpoint DIR"));
    match merge_dir(&checkpoint) {
        Ok(reports) => {
            for merged in &reports {
                println!(
                    "merged {} ({} shards, {} points, {} shots) -> {}",
                    merged.tag,
                    merged.shards,
                    merged.points,
                    merged.shots,
                    merged.out.display()
                );
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_agent(args: &[String]) {
    let values = ["--addr", "--bins", "--scratch", "--heartbeat-ms"];
    let f = cli::or_exit(USAGE, cli::read(args, &[], &values));
    let defaults = AgentConfig::default();
    let config = AgentConfig {
        addr: f.value("--addr").map_or(defaults.addr, str::to_string),
        bin_dir: f.value("--bins").map_or(defaults.bin_dir, PathBuf::from),
        scratch: f.value("--scratch").map_or(defaults.scratch, PathBuf::from),
        heartbeat_ms: cli::or_exit(USAGE, f.get("--heartbeat-ms")).unwrap_or(defaults.heartbeat_ms),
    };
    let handle = dqec_dist::start_agent(config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    eprintln!("dqec_dist agent: listening on {}", handle.addr());
    handle.wait();
}
