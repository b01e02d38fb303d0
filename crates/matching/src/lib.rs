//! # dqec-matching
//!
//! Minimum-weight perfect-matching (MWPM) decoding substrate for the
//! `dqec` workspace — a from-scratch replacement for PyMatching at the
//! problem sizes used in the ASPLOS'24 chiplet-codesign reproduction.
//!
//! * [`graph`] — per-basis decoding graphs built from a circuit's
//!   detector error model: weighted edges and one adjacency, reweighted
//!   in place; all-pairs shortest paths and observable parities only on
//!   demand;
//! * [`sparse`] — [`Blossom`], the exact matcher: sparse blossom
//!   (Higgott & Gidney) grown directly on a graph's adjacency — regions
//!   around detection events, a time-ordered queue, alternating trees,
//!   blossoms formed and shattered — with all per-shot state
//!   epoch-stamped in a reusable [`DecodeScratch`];
//! * [`decoder`] — the [`Decoder`] trait every consumer decodes
//!   through and the one shell that implements it, [`GraphDecoder`]:
//!   both basis graphs, in-place *reweighting* to a new physical error
//!   rate ([`GraphDecoder::from_clean`]), pooled scratch, memoized
//!   repeated syndromes ([`SyndromeCache`]) and a shot-parallel batch
//!   decode with worker-count-independent tallies
//!   ([`DecodeStats::merge`]), parameterised by a per-basis [`Kernel`].
//!   [`MwpmDecoder`] is the shell over [`Blossom`];
//! * [`blossom`] — exact O(n³) weighted blossom matching on dense
//!   graphs, property-tested against brute force, all solver state in a
//!   reusable [`BlossomArena`]. Nothing decodes through it any more: it
//!   is the reference the sparse matcher is tested against
//!   ([`decoder::decode_basis_dense`]) and a general-purpose
//!   [`min_weight_perfect_matching`];
//! * [`unionfind`] — [`UfDecoder`], the same shell over the
//!   almost-linear-time [`UfGraph`] kernel: weighted Delfosse–Nickerson
//!   cluster growth over the same decoding graphs, parity merging
//!   through a path-compressed DSU, boundary-absorbing clusters, and a
//!   peeling pass that extracts the correction. Faster but slightly
//!   less accurate than MWPM; selected end-to-end via
//!   `ExperimentSpec::decoder` / `--decoder uf`.
//!
//! # Examples
//!
//! See [`MwpmDecoder`] and [`UfDecoder`] for end-to-end
//! sample-and-decode examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blossom;
pub mod decoder;
pub mod graph;
pub mod sparse;
pub mod unionfind;

pub use blossom::{min_weight_perfect_matching, BlossomArena, PerfectMatching};
pub use decoder::{
    check_decoder_conformance, DecodeStats, DecodeStatsMetrics, Decoder, GraphDecoder, Kernel,
    KernelCounters, MwpmDecoder, SyndromeCache,
};
pub use graph::{DecodingGraph, GraphDiagnostics, GraphEdge};
pub use sparse::{Blossom, DecodeScratch};
pub use unionfind::{UfDecoder, UfGraph, UfScratch};
