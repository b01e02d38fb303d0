//! # dqec-matching
//!
//! Minimum-weight perfect-matching (MWPM) decoding substrate for the
//! `dqec` workspace — a from-scratch replacement for PyMatching at the
//! problem sizes used in the ASPLOS'24 chiplet-codesign reproduction.
//!
//! * [`blossom`] — exact O(n³) weighted blossom matching on dense
//!   graphs, property-tested against brute force, with all solver
//!   state in a reusable [`BlossomArena`] so hot loops never allocate;
//! * [`graph`] — per-basis decoding graphs built from a circuit's
//!   detector error model, with cached all-pairs shortest paths and
//!   observable parities;
//! * [`decoder`] — the [`Decoder`] trait every consumer decodes
//!   through, and its first implementor [`MwpmDecoder`]: split
//!   detection events by basis, match against the boundary, XOR
//!   predicted observables. The per-shot path is sparse (fast paths
//!   for small syndromes, independent-component splitting before the
//!   dense solve) and allocation-free via [`DecodeScratch`]; batch
//!   decoding memoizes repeated syndromes ([`SyndromeCache`]) and runs
//!   shot-parallel with worker-count-independent tallies
//!   ([`DecodeStats::merge`]). Decoders built with
//!   [`MwpmDecoder::from_clean`] can be *reweighted* to a new physical
//!   error rate without rebuilding their graphs;
//! * [`unionfind`] — [`UfDecoder`], the almost-linear-time alternative
//!   backend: weighted Delfosse–Nickerson cluster growth over the same
//!   decoding graphs, parity merging through a path-compressed DSU,
//!   boundary-absorbing clusters, and a peeling pass that extracts the
//!   correction. Faster but slightly less accurate than MWPM; selected
//!   end-to-end via `ExperimentSpec::decoder` / `--decoder uf`.
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
pub mod unionfind;

pub use blossom::{min_weight_perfect_matching, BlossomArena, PerfectMatching};
pub use decoder::{
    check_decoder_conformance, DecodeScratch, DecodeStats, DecodeStatsMetrics, Decoder,
    MwpmDecoder, SyndromeCache,
};
pub use graph::{DecodingGraph, GraphDiagnostics, GraphEdge};
pub use unionfind::{UfDecoder, UfGraph, UfScratch};
