//! # dqec_serve — decode-as-a-service
//!
//! The serving layer over the batch pipeline: a resident TCP server
//! that amortizes experiment compilation across millions of decode
//! requests, the workload of the paper's codesign loop (the same
//! (patch, decoder, noise) configuration probed again and again with
//! fresh seeds and shot budgets).
//!
//! Layers, bottom up:
//!
//! * [`chan`] — bounded queues on the `dqec_check` facade: a plain
//!   MPMC channel and the fair per-client admission [`chan::Inbox`],
//!   both model-checked under `RUSTFLAGS="--cfg dqec_check"`;
//! * [`protocol`] — the JSON-lines wire protocol (typed requests,
//!   responses, and error kinds) over the workspace's one JSON codec
//!   (`dqec_chiplet::json`), and [`protocol::read_frame`], the one
//!   length-capped UTF-8 line framer every socket and request-file
//!   reader of the serve and dist layers goes through;
//! * [`cache`] — the LRU [`cache::ExperimentCache`] of
//!   [`CompiledExperiment`](dqec_chiplet::runner::CompiledExperiment)s
//!   keyed by (patch, decoder, noise) fingerprint;
//! * [`server`] — the accept/reader/executor/writer thread structure
//!   with coalesced batching and end-to-end backpressure, and
//!   [`respond`], the one function that routes or refuses an op.
//!
//! Serving is **conformant by construction**: the executor and the
//! `--oneshot` CLI mode answer through the same [`respond`] behind the
//! same frame limit, and a served request is sampled through the same
//! batch-seeded `sample_batches_with_seed` path a one-shot
//! [`Runner`](dqec_chiplet::runner::Runner) uses, so responses are
//! bit-identical to the equivalent CLI run — the CI smoke job diffs
//! the two. See the README "Serving" section for the protocol spec and
//! an example session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chan;
pub mod protocol;
pub mod server;

pub use cache::ExperimentCache;
pub use protocol::{DecodeRequest, ErrorKind, MetricsResponse, Request, Response, StageSummary};
pub use server::{metrics_snapshot, respond, start, ServerConfig, ServerHandle};
