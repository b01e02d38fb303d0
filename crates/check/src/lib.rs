//! `dqec_check` — a shuttle-style deterministic concurrency model
//! checker for the dqec workspace, plus the sync-primitive facade that
//! threads the vendored `rayon` shim through it.
//!
//! # The facade
//!
//! [`sync`] and [`thread`] mirror the `std::sync` / `std::thread` API
//! subset the workspace's concurrent code uses. In a normal build they
//! are plain re-exports of the `std` types — zero cost, zero behavior
//! change. Compiled with `RUSTFLAGS="--cfg dqec_check"` (the same
//! convention as loom's `--cfg loom`) they become *instrumented*
//! versions whose every operation is a preemption point driven by a
//! deterministic scheduler, so a test can systematically explore thread
//! interleavings instead of hoping the OS scheduler stumbles onto the
//! bad one.
//!
//! # The checker
//!
//! [`model`] (panic on failure) and [`check`] (return an [`Outcome`])
//! run a closure many times, each run under a different schedule:
//!
//! * **Random** — uniformly random preemption at every atomic/lock op,
//!   seeded per execution; the failing seed is printed and can be
//!   replayed bit-exactly via the `DQEC_CHECK_SEED` env var.
//! * **PCT** — PCT-style random thread priorities with a few random
//!   priority-change points per execution, good at surfacing
//!   low-probability orderings.
//! * **DFS** — bounded exhaustive depth-first enumeration of every
//!   scheduling (and weak-memory read) choice, for small thread counts.
//!
//! Runtime overrides: `DQEC_CHECK_ITERS` scales iteration counts,
//! `DQEC_CHECK_SEED` replays exactly one execution bit-for-bit, and
//! `DQEC_CHECK_SALT` XOR-perturbs the default seed sequence so CI can
//! explore fresh schedules on every run (explicit [`Config::seed`]
//! values are unaffected, keeping replay tests deterministic).
//!
//! Beyond interleavings, the instrumented atomics model *weak memory*:
//! a `Relaxed`/non-acquiring load may observe any coherent stale value,
//! and only `Release`/`Acquire` (or `SeqCst`) edges transfer
//! happens-before (tracked with vector clocks). Weakening a `Release`
//! store to `Relaxed` is therefore an observable — and catchable — bug
//! even on x86 hardware that would never exhibit it natively.
//!
//! On failure the checker prints the seed and a per-step trace (thread
//! id + source operation) of the failing execution. Failures are
//! classified as panics (assertion violations in the modeled code),
//! deadlocks (every live thread blocked), or step-bound overruns
//! (possible hang/livelock; whether the bound is a failure or a pruned
//! execution is configurable per strategy).
//!
//! # Honest limits
//!
//! `SeqCst` is approximated as `AcqRel` plus coherence-latest loads (no
//! global SC order is tracked, fences are not modeled); stale reads are
//! bounded by an eventual-visibility rule (a thread re-reading the same
//! atomic is forced to the newest value after a few stale observations)
//! so spin loops terminate; `Mutex` poisoning is not modeled. These are
//! the standard trade-offs of randomized model checking — the point is
//! catching real ordering and interleaving bugs cheaply, not proving
//! full C++11 semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;
pub mod thread;

#[cfg(dqec_check)]
pub(crate) mod runtime;

use std::fmt;

/// The schedule-exploration strategy of one [`check`]/[`model`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniformly random preemption at every instrumented operation.
    Random,
    /// PCT-style: random per-thread priorities, the highest-priority
    /// runnable thread runs, with `depth` random priority-change
    /// points per execution.
    Pct {
        /// Number of priority-change points per execution.
        depth: usize,
    },
    /// Bounded exhaustive depth-first enumeration of all scheduling and
    /// weak-memory choices. Only tractable for small thread counts.
    Dfs,
}

/// Configuration of one checker run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Number of executions (random strategies) or the execution budget
    /// (DFS; enumeration stops early when the space is exhausted).
    /// Overridable at runtime with `DQEC_CHECK_ITERS`.
    pub iterations: usize,
    /// Per-execution step budget; exceeding it aborts the execution.
    pub max_steps: u64,
    /// Whether exceeding [`Config::max_steps`] is a failure (a likely
    /// hang/livelock) or merely prunes the execution. Defaults to
    /// failure for `Random` — whose scheduler is probabilistically fair,
    /// so a bound overrun almost surely means no progress is possible —
    /// and to pruning for `Pct`/`Dfs`, which can legitimately starve a
    /// spinning thread.
    pub bound_is_failure: bool,
    /// Base seed for random strategies; `None` uses a fixed default.
    /// `DQEC_CHECK_SEED` overrides everything and replays one execution.
    pub seed: Option<u64>,
    /// How many trailing trace steps to keep for failure reports.
    pub trace_capacity: usize,
}

impl Config {
    /// A random-scheduling configuration running `iterations` executions.
    pub fn random(iterations: usize) -> Config {
        Config {
            strategy: Strategy::Random,
            iterations,
            max_steps: 20_000,
            bound_is_failure: true,
            seed: None,
            trace_capacity: 64,
        }
    }

    /// A PCT-style configuration with `depth` priority-change points.
    pub fn pct(iterations: usize, depth: usize) -> Config {
        Config {
            strategy: Strategy::Pct { depth },
            iterations,
            max_steps: 20_000,
            bound_is_failure: false,
            seed: None,
            trace_capacity: 64,
        }
    }

    /// A bounded exhaustive DFS configuration with an execution budget.
    pub fn dfs(max_executions: usize) -> Config {
        Config {
            strategy: Strategy::Dfs,
            iterations: max_executions,
            max_steps: 2_000,
            bound_is_failure: false,
            seed: None,
            trace_capacity: 64,
        }
    }

    /// Sets the per-execution step budget.
    pub fn max_steps(mut self, steps: u64) -> Config {
        self.max_steps = steps;
        self
    }

    /// Sets the base seed for random strategies.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = Some(seed);
        self
    }

    /// Sets whether a step-bound overrun fails the run.
    pub fn bound_is_failure(mut self, fail: bool) -> Config {
        self.bound_is_failure = fail;
        self
    }

    /// Iteration count after the `DQEC_CHECK_ITERS` override.
    #[cfg_attr(not(dqec_check), allow(dead_code))]
    fn effective_iterations(&self) -> usize {
        match std::env::var("DQEC_CHECK_ITERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => self.iterations,
        }
    }
}

/// Why a model execution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The modeled code panicked (assertion violation, index error, ...).
    Panic,
    /// Every live thread was blocked: a deadlock.
    Deadlock,
    /// The step budget was exceeded: a probable hang or livelock.
    StepBound,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Deadlock => write!(f, "deadlock"),
            FailureKind::StepBound => write!(f, "step-bound (possible hang/livelock)"),
        }
    }
}

/// A counterexample found by the checker.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The seed that reproduces the failing execution (`None` for DFS,
    /// which is deterministic without one).
    pub seed: Option<u64>,
    /// Failure classification.
    pub kind: FailureKind,
    /// The panic message or a description of the deadlock/hang.
    pub message: String,
    /// The trailing per-step schedule trace of the failing execution,
    /// one formatted `t<id> <op>` line per step.
    pub trace: Vec<String>,
    /// Total steps the failing execution took.
    pub steps: u64,
}

impl Failure {
    /// Renders the full human-readable failure report, including the
    /// replay instructions.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "dqec-check FAILURE ({}): {}\n",
            self.kind, self.message
        ));
        match self.seed {
            Some(seed) => out.push_str(&format!(
                "  seed: {seed:#018x} — replay with DQEC_CHECK_SEED={seed:#x}\n"
            )),
            None => out.push_str("  strategy: dfs (deterministic; re-run to replay)\n"),
        }
        out.push_str(&format!(
            "  trace (last {} of {} steps):\n",
            self.trace.len(),
            self.steps
        ));
        for line in &self.trace {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// The result of a [`check`] run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Executions (interleavings) explored.
    pub executions: u64,
    /// Executions pruned by the step bound (when the bound is not a
    /// failure).
    pub bounded: u64,
    /// `true` when a DFS run exhausted the entire choice space within
    /// its budget.
    pub complete: bool,
    /// The first counterexample found, if any.
    pub failure: Option<Failure>,
}

/// Runs `f` under the model checker and returns the [`Outcome`] instead
/// of panicking — the API for meta-tests (e.g. mutation tests asserting
/// that the checker *does* catch a seeded bug).
///
/// Without `--cfg dqec_check` this performs a single uninstrumented
/// execution (a smoke run) and reports any panic as a failure.
pub fn check<F>(config: &Config, f: F) -> Outcome
where
    F: Fn() + Send + Sync,
{
    #[cfg(dqec_check)]
    {
        runtime::drive(config, &f)
    }
    #[cfg(not(dqec_check))]
    {
        let _ = config;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f));
        Outcome {
            executions: 1,
            bounded: 0,
            complete: false,
            failure: result.err().map(|payload| Failure {
                seed: None,
                kind: FailureKind::Panic,
                message: panic_message(payload.as_ref()),
                trace: Vec::new(),
                steps: 0,
            }),
        }
    }
}

/// Runs `f` under the model checker and panics with a full report —
/// replay seed plus per-step counterexample trace — if any explored
/// execution fails. The test-facing entry point.
///
/// # Panics
///
/// Panics when a counterexample is found.
pub fn model<F>(config: &Config, f: F)
where
    F: Fn() + Send + Sync,
{
    let outcome = check(config, f);
    if let Some(failure) = outcome.failure {
        eprintln!("{}", failure.report());
        panic!(
            "dqec-check found a failure ({}) after {} executions: {}",
            failure.kind, outcome.executions, failure.message
        );
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
