//! # dqec-sweep
//!
//! The workspace's Monte-Carlo orchestration subsystem: plans, executes,
//! and persists the sweeps behind the paper's Figs. 5, 6 and 11 and the
//! slope datasets.
//!
//! Three pieces compose:
//!
//! * **Planning** — a [`SweepPlan`] is an ordered list of
//!   [`ExperimentSpec`](dqec_chiplet::runner::ExperimentSpec)s executed
//!   as one unit, so mixed-cost specs (d = 5 next to d = 9) share the
//!   rayon pool — whichever worker is free takes the next block — instead
//!   of running one-after-another behind a static chunk split.
//! * **Adaptive allocation** — [`Precision`] targets a relative Wilson
//!   95% CI width per point; the engine allocates shots in rounds to
//!   the points still short of target (see [`adaptive`]).
//! * **Checkpoint/resume** — a versioned JSON state file
//!   ([`SweepState`]) written atomically after every round records each
//!   point's shot/failure tally and RNG cursor; interrupted sweeps
//!   resume bit-exactly (see [`checkpoint`]).
//!
//! # Examples
//!
//! ```
//! use dqec_chiplet::record::NullSink;
//! use dqec_chiplet::runner::ExperimentSpec;
//! use dqec_core::adapt::AdaptedPatch;
//! use dqec_core::layout::PatchLayout;
//! use dqec_core::DefectSet;
//! use dqec_sweep::{SweepEngine, SweepPlan};
//!
//! let patch = |d| AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new());
//! let plan: SweepPlan = [3u32, 5]
//!     .iter()
//!     .map(|&d| {
//!         ExperimentSpec::memory(patch(d))
//!             .ps(&[8e-3, 1.2e-2])
//!             .rounds(3)
//!             .shots(2_000)
//!             .seed(7)
//!             .label(format!("d={d}"))
//!     })
//!     .collect();
//! let outcomes = SweepEngine::uniform().run(&plan, &mut NullSink)?;
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].points.len(), 2);
//! # Ok::<(), dqec_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod engine;
pub mod shard;

pub use adaptive::Precision;
pub use checkpoint::{PointTally, SweepState};
/// The workspace command-line flag reader; it lives in `dqec_chiplet`
/// next to the JSON codec, and is re-exported for crates that reach
/// `dqec_chiplet` only through this one.
pub use dqec_chiplet::cli;
/// The workspace JSON codec the state files are written with; it lives
/// in `dqec_chiplet` (the lowest crate that writes JSON) and keeps its
/// historical path here.
pub use dqec_chiplet::json;
pub use engine::{EngineConfig, SweepEngine, SweepPlan};
pub use shard::Shard;
