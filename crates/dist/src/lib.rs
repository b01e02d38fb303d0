//! # dqec-dist
//!
//! Distributed sweep sharding: run one figure's Monte-Carlo sweeps as
//! `N` independent shards — across local processes or remote agents —
//! and recombine the results **bit-exactly**.
//!
//! The paper-scale runs (`--full`: millions of shots per sweep point)
//! are embarrassingly parallel at the batch level: every batch is an
//! independent seeded RNG stream and every tally is a sum over the set
//! of completed batches. [`Shard::batch_range`] turns that into a
//! deterministic partition — shard `i/N` owns a contiguous slice of
//! every point's batch indices, a pure function of the plan and `N` —
//! so shard workers need no communication at all, and
//! [`merge::merge_states`] recombines their checkpoint states into
//! exactly the state a single uninterrupted process would have written.
//! A final `--resume` run over the merged state emits the figure's
//! records byte-identically to the single-process run; CI diffs the
//! two.
//!
//! Layers:
//!
//! * [`merge`] — verification (fingerprints, partition completeness)
//!   and additive recombination of shard states;
//! * [`coordinator`] — the retry-driving work queue (model-checkable
//!   under `--cfg dqec_check`), the local process backend, and the
//!   dispatch → merge tail both backends share. Shards dispatch in
//!   index order with no scheduler; the partition is balanced within
//!   each point, not across a plan (see [`coordinator`]);
//! * [`remote`] — the `dqec_dist agent` daemon and the TCP dispatcher
//!   with heartbeat-based straggler re-dispatch, on the decode
//!   service's JSON-lines protocol, codec and length-capped line
//!   framer.
//!
//! The `dqec_dist` binary fronts all of it: `run` (local or
//! `--agents`), `merge`, and `agent` subcommands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod merge;
pub mod remote;

pub use coordinator::{drive_shards, run_local, DistReport, LocalOptions, ShardJob};
pub use dqec_sweep::shard::Shard;
pub use merge::{merge_dir, merge_states, MergeReport};
pub use remote::{run_remote, start_agent, AgentConfig, RemoteJob, RemoteOptions};
