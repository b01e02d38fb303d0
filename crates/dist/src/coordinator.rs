//! The shard coordinator: a work queue of shard attempts, a pool of
//! executor threads, and a retry loop that re-dispatches crashed or
//! stalled shards with `--resume` until every slice of the partition is
//! complete.
//!
//! The queue machinery is the same model-checkable [`Bounded`] channel
//! the decode server uses, and the executor threads come from the
//! `dqec_check` facade, so the whole dispatch/retry state machine runs
//! under the deterministic model checker (`--cfg dqec_check`) with an
//! injected executor in place of real processes — see
//! `tests/model_coordinator.rs`.
//!
//! [`drive_shards`] is execution-agnostic — its executor closure is the
//! transport: the *local* backend ([`run_local`]) spawns one
//! figure-binary process per attempt on this machine; the *remote*
//! backend ([`crate::remote`]) ships the attempt to a `dqec_dist agent`
//! over TCP. Shards are enqueued in index order. Each point's batch
//! ranges differ by at most one batch, but every point's remainder goes
//! to the highest shards, so across a plan shard loads can differ by one
//! batch per point (at one batch per point, shard 0 of 2 gets none).
//! Both backends end in one shared dispatch → merge → timing tail. A
//! shard's only output is its checkpoint state file, so a crashed
//! attempt re-run with `--resume` loses at most one allocation round
//! and the finished partition merges bit-exactly ([`crate::merge`]).

use crate::merge::{merge_dir, MergeReport};
use dqec_core::CoreError;
use dqec_serve::chan::Bounded;
use dqec_sweep::shard::{worker_args, Shard};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

fn bad(detail: String) -> CoreError {
    CoreError::Sweep { detail }
}

/// One dispatch of one shard (attempt 0 is the first try).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Shard index in `0..count`.
    pub index: u32,
    /// How many earlier attempts at this shard failed.
    pub attempt: u32,
}

/// How one shard eventually completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard index.
    pub index: u32,
    /// Total attempts spent (1 = clean first run).
    pub attempts: u32,
    /// Wall time of the successful attempt, in nanoseconds
    /// ([`dqec_obs::clock`]; virtual under the model checker).
    pub duration_ns: u64,
}

struct AttemptResult {
    attempt: Attempt,
    outcome: Result<u64, String>,
}

/// Runs shards `0..count` to completion through `workers` concurrent
/// executors, retrying each failed shard up to `max_retries` times
/// (later attempts carry `attempt > 0`, which execution backends turn
/// into `--resume`). Returns one [`ShardOutcome`] per shard, in shard
/// order.
///
/// The executor gets `(index, attempt)` and must run that shard to
/// completion, returning a diagnostic string on failure. Executors run
/// on facade threads; under `--cfg dqec_check` the model checker
/// explores the dispatch/retry interleavings.
///
/// # Errors
///
/// Fails when any shard exhausts its retry budget (carrying the last
/// diagnostic) or when every executor dies with attempts outstanding.
pub fn drive_shards<F>(
    count: u32,
    workers: usize,
    max_retries: u32,
    exec: F,
) -> Result<Vec<ShardOutcome>, CoreError>
where
    F: Fn(u32, u32) -> Result<(), String> + Send + Sync + 'static,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let reg = dqec_obs::registry();
    reg.gauge("dist.shards.total").set(count as i64);
    reg.gauge("dist.shards.done").set(0);

    let queue: Bounded<Attempt> = Bounded::new(count as usize);
    let results: Bounded<AttemptResult> = Bounded::new(count as usize);
    for index in 0..count {
        // Cannot fail: the queue holds `count` and is open.
        queue
            .try_send(Attempt { index, attempt: 0 })
            .map_err(|_| bad("dispatch queue rejected initial attempt".into()))?;
    }

    let exec = Arc::new(exec);
    let workers = (workers.max(1)).min(count as usize);
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let queue = queue.clone();
            let results = results.clone();
            let exec = Arc::clone(&exec);
            dqec_check::thread::spawn(move || {
                while let Some(attempt) = queue.recv() {
                    let started = dqec_obs::clock::now_ns();
                    let outcome = exec(attempt.index, attempt.attempt)
                        .map(|()| dqec_obs::clock::now_ns().saturating_sub(started));
                    if results.send(AttemptResult { attempt, outcome }).is_err() {
                        break; // coordinator gone; nothing to report to
                    }
                }
            })
        })
        .collect();

    let mut outcomes: Vec<Option<ShardOutcome>> = (0..count).map(|_| None).collect();
    let mut remaining = count;
    let mut failure: Option<String> = None;
    while remaining > 0 {
        let Some(result) = results.recv() else {
            failure = Some("all shard executors exited early".into());
            break;
        };
        let Attempt { index, attempt } = result.attempt;
        match result.outcome {
            Ok(duration_ns) => {
                reg.histogram("dist.shard.duration_us")
                    .record(duration_ns / 1_000);
                outcomes[index as usize] = Some(ShardOutcome {
                    index,
                    attempts: attempt + 1,
                    duration_ns,
                });
                remaining -= 1;
                reg.gauge("dist.shards.done")
                    .set((count - remaining) as i64);
            }
            Err(detail) if attempt < max_retries => {
                reg.counter("dist.shard.retries").inc();
                eprintln!(
                    "[dist] shard {index}/{count} attempt {attempt} failed ({detail}); \
                     re-dispatching with resume"
                );
                if queue
                    .send(Attempt {
                        index,
                        attempt: attempt + 1,
                    })
                    .is_err()
                {
                    failure = Some("dispatch queue closed during retry".into());
                    break;
                }
            }
            Err(detail) => {
                failure = Some(format!(
                    "shard {index}/{count} failed after {} attempt(s): {detail}",
                    attempt + 1
                ));
                break;
            }
        }
    }
    queue.close();
    for handle in handles {
        // A panicked executor already surfaced as a failed attempt or
        // as the early-exit error above.
        let _ = handle.join();
    }
    results.close();
    if let Some(detail) = failure {
        return Err(bad(detail));
    }
    outcomes
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("internal: shard bookkeeping lost an outcome".into()))
}

/// A sharded run of one figure binary: which binary, its pass-through
/// flags, how many slices, and where the shard state files go.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// The figure binary (e.g. `target/release/fig06_ler_curves`).
    pub bin: PathBuf,
    /// Pass-through arguments (figure flags like `--shots`). Must not
    /// contain the [`COORDINATOR_FLAGS`](dqec_sweep::shard::COORDINATOR_FLAGS).
    pub args: Vec<String>,
    /// Number of shards `N`.
    pub count: u32,
    /// Checkpoint directory shared by every shard (and the merge).
    pub checkpoint: PathBuf,
    /// Resume all shards from existing state files (a re-run of a
    /// partially completed distributed sweep). Crash retries always
    /// resume regardless.
    pub resume: bool,
}

impl ShardJob {
    /// The argument vector for one attempt at shard `index`.
    /// Later attempts (and `resume` jobs) add `--resume`: the engine
    /// resumes from the shard's state file when one exists and starts
    /// the slice fresh when the crash predated the first checkpoint.
    pub fn attempt_args(&self, index: u32, attempt: u32) -> Result<Vec<String>, CoreError> {
        let shard = Shard::new(index, self.count)?;
        let mut args = self.args.clone();
        args.extend(worker_args(
            Some(shard),
            &self.checkpoint,
            self.resume || attempt > 0,
        ));
        Ok(args)
    }
}

/// Local execution tuning.
#[derive(Debug, Clone)]
pub struct LocalOptions {
    /// Concurrent shard processes (clamped to `1..=count`).
    pub workers: usize,
    /// Crash-retry budget per shard.
    pub max_retries: u32,
    /// `--threads` cap passed to every shard process, so `workers`
    /// concurrent shards do not oversubscribe the machine. `None`
    /// passes nothing (each process uses its own default).
    pub threads_per_worker: Option<usize>,
}

impl Default for LocalOptions {
    fn default() -> Self {
        LocalOptions {
            workers: 2,
            max_retries: 2,
            threads_per_worker: None,
        }
    }
}

/// The result of a distributed run: per-shard outcomes plus the merge.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Per-shard completion stats, in shard order.
    pub outcomes: Vec<ShardOutcome>,
    /// Wall time of the dispatch phase (first dispatch to last shard
    /// completion), nanoseconds.
    pub dispatch_ns: u64,
    /// Wall time of the merge step, nanoseconds.
    pub merge_ns: u64,
    /// One report per merged sweep plan.
    pub merged: Vec<MergeReport>,
}

/// The tail both backends share: drive every shard through `exec`
/// ([`drive_shards`]), then merge the states in `checkpoint`, timing
/// the two phases. The closure is the transport.
pub(crate) fn run_and_merge<F>(
    count: u32,
    workers: usize,
    max_retries: u32,
    checkpoint: &Path,
    exec: F,
) -> Result<DistReport, CoreError>
where
    F: Fn(u32, u32) -> Result<(), String> + Send + Sync + 'static,
{
    let started = dqec_obs::clock::now_ns();
    let outcomes = drive_shards(count, workers, max_retries, exec)?;
    let merge_started = dqec_obs::clock::now_ns();
    let merged = merge_dir(checkpoint)?;
    Ok(DistReport {
        outcomes,
        dispatch_ns: merge_started.saturating_sub(started),
        merge_ns: dqec_obs::clock::now_ns().saturating_sub(merge_started),
        merged,
    })
}

/// Runs every shard of `job` as local child processes and merges the
/// completed partition (shard stdout is discarded — the state files
/// are the output; run the binary once more with `--resume` on the
/// merged state to emit records, e.g. via [`emit_merged`]).
///
/// # Errors
///
/// Fails when a shard exhausts its retry budget, when the binary
/// cannot be spawned, or when the merge rejects the resulting states.
pub fn run_local(job: &ShardJob, opts: &LocalOptions) -> Result<DistReport, CoreError> {
    let exec_job = job.clone();
    let threads = opts.threads_per_worker;
    run_and_merge(
        job.count,
        opts.workers,
        opts.max_retries,
        &job.checkpoint,
        move |index, attempt| {
            let mut args = exec_job
                .attempt_args(index, attempt)
                .map_err(|e| e.to_string())?;
            if let Some(n) = threads {
                args.push("--threads".into());
                args.push(n.to_string());
            }
            run_shard_process(&exec_job.bin, &args)
        },
    )
}

/// Runs one shard attempt as a child process: stdout discarded (shard
/// records are engine-internal; the state file is the output), stderr
/// captured and returned in the diagnostic on failure.
fn run_shard_process(bin: &PathBuf, args: &[String]) -> Result<(), String> {
    let output = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if output.status.success() {
        return Ok(());
    }
    Err(format!(
        "exit {:?}: {}",
        output.status.code(),
        stderr_tail(&String::from_utf8_lossy(&output.stderr))
    ))
}

/// The last few lines of a failed child's stderr, on one line.
pub(crate) fn stderr_tail(stderr: &str) -> String {
    let mut tail: Vec<&str> = stderr.lines().rev().take(4).collect();
    tail.reverse();
    tail.join(" | ")
}

/// Runs the figure binary once over the merged whole-plan state
/// (`--resume`, no `--shard`) with stdio inherited: the engine finds
/// every point complete, allocates nothing, and emits the records —
/// byte-identical to a single-process run of the same plan.
///
/// # Errors
///
/// Fails when the binary cannot be spawned or exits non-zero.
pub fn emit_merged(job: &ShardJob) -> Result<(), CoreError> {
    let status = Command::new(&job.bin)
        .args(&job.args)
        .args(worker_args(None, &job.checkpoint, true))
        .status()
        .map_err(|e| bad(format!("spawn {}: {e}", job.bin.display())))?;
    if !status.success() {
        return Err(bad(format!(
            "emission run of {} exited with {:?}",
            job.bin.display(),
            status.code()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_check::sync::Mutex;

    #[test]
    fn drive_runs_every_shard_once_when_nothing_fails() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let outcomes = drive_shards(6, 3, 0, move |index, attempt| {
            log.lock().expect("log lock").push((index, attempt));
            Ok(())
        })
        .expect("all shards succeed");
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index as usize, i);
            assert_eq!(o.attempts, 1);
        }
        let mut seen = seen.lock().expect("log lock").clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).map(|i| (i, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn failed_shards_are_retried_with_resume_attempts() {
        // Shard 2 fails twice before succeeding; everything else is
        // clean. The retry budget of 2 absorbs exactly that.
        let fails = Arc::new(Mutex::new(0u32));
        let counter = Arc::clone(&fails);
        let outcomes = drive_shards(4, 2, 2, move |index, attempt| {
            if index == 2 && attempt < 2 {
                *counter.lock().expect("counter lock") += 1;
                Err(format!("injected crash #{attempt}"))
            } else {
                Ok(())
            }
        })
        .expect("retries absorb the crashes");
        assert_eq!(*fails.lock().expect("counter lock"), 2);
        assert_eq!(outcomes[2].attempts, 3, "first try + 2 retries");
        assert!(outcomes
            .iter()
            .filter(|o| o.index != 2)
            .all(|o| o.attempts == 1));
    }

    #[test]
    fn exhausted_retry_budget_is_a_hard_error() {
        let err = drive_shards(3, 2, 1, |index, _| {
            if index == 1 {
                Err("disk on fire".into())
            } else {
                Ok(())
            }
        })
        .expect_err("shard 1 never succeeds");
        let msg = err.to_string();
        assert!(
            msg.contains("shard 1/3") && msg.contains("disk on fire"),
            "{msg}"
        );
    }

    #[test]
    fn zero_shards_is_a_clean_no_op() {
        assert!(drive_shards(0, 4, 1, |_, _| Ok(()))
            .expect("no-op")
            .is_empty());
    }

    #[test]
    fn attempt_args_carry_the_shard_and_resume_flags() {
        let job = ShardJob {
            bin: PathBuf::from("target/release/fig06_ler_curves"),
            args: vec!["--shots".into(), "4096".into()],
            count: 2,
            checkpoint: PathBuf::from("ckpts"),
            resume: false,
        };
        let first = job.attempt_args(1, 0).expect("valid shard");
        assert_eq!(
            first,
            vec!["--shots", "4096", "--shard", "1/2", "--checkpoint", "ckpts"]
        );
        // A retry resumes; so does every attempt of a resume job.
        assert!(job
            .attempt_args(1, 1)
            .expect("valid")
            .contains(&"--resume".to_string()));
        let resumed = ShardJob {
            resume: true,
            ..job.clone()
        };
        assert!(resumed
            .attempt_args(0, 0)
            .expect("valid")
            .contains(&"--resume".to_string()));
        // Out-of-range shard indices are rejected, not wrapped.
        assert!(job.attempt_args(2, 0).is_err());
    }
}
