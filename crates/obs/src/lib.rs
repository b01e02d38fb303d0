//! `dqec_obs`: the workspace observability substrate.
//!
//! Three pieces, all dependency-free and usable from every layer of the
//! stack including the vendored rayon shim:
//!
//! - [`metrics`] — a process-global registry of named counters, gauges,
//!   and log-bucketed latency histograms. Increments go to per-thread
//!   striped shards of relaxed atomics, so hot paths never contend;
//!   snapshots merge the shards and extract exact-bucket p50/p99/p999.
//! - [`trace`] — span tracing into per-thread ring buffers, exported as
//!   Chrome trace-event JSON (loadable in `ui.perfetto.dev`). Off by
//!   default; a disabled span is one relaxed load.
//! - [`clock`] — the single sanctioned time source. Monotonic
//!   nanoseconds since process start in production; a virtual counter
//!   advancing a fixed quantum per read under `--cfg dqec_check`, so
//!   instrumented code stays deterministic inside the model checker.
//!   `dqec-lint` bans raw `Instant`/`SystemTime` everywhere else in
//!   library code.
//!
//! This crate deliberately uses raw `std::sync` primitives (it is on
//! the lint raw-sync exempt list): the model checker serializes the
//! threads it spawns, so uninstrumented relaxed atomics here stay
//! deterministic under `dqec_check` without exploding the schedule
//! space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::Clock;
pub use metrics::{
    registry, Counter, Gauge, HistSnapshot, Histogram, LazyGauge, Registry, Snapshot,
};
pub use trace::Span;
