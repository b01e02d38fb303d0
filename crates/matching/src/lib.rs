//! # dqec-matching
//!
//! Minimum-weight perfect-matching (MWPM) decoding substrate for the
//! `dqec` workspace — a from-scratch replacement for PyMatching at the
//! problem sizes used in the ASPLOS'24 chiplet-codesign reproduction.
//!
//! * [`graph`] — per-basis decoding graphs built from a circuit's
//!   detector error model: weighted edges and one adjacency, reweighted
//!   in place;
//! * [`paths`] — [`PathTables`], all-pairs shortest paths and
//!   observable parities over one graph as a plain value: built from a
//!   graph, repaired after a reweight. The union-find kernel owns the
//!   only production instance;
//! * [`sparse`] — [`Blossom`], the exact matcher: sparse blossom
//!   (Higgott & Gidney) grown directly on a graph's adjacency — regions
//!   around detection events, a time-ordered queue, alternating trees,
//!   blossoms formed and shattered — with all per-shot state
//!   epoch-stamped in a reusable [`DecodeScratch`]; the radii it ends
//!   with certify each answer optimal (checked in debug builds);
//! * [`decoder`] — the [`Decoder`] trait every consumer decodes
//!   through and the one shell that implements it, [`GraphDecoder`]:
//!   both basis graphs, in-place *reweighting* to a new physical error
//!   rate ([`GraphDecoder::from_clean`]), pooled scratch, memoized
//!   repeated syndromes ([`SyndromeCache`]) and a shot-parallel batch
//!   decode with worker-count-independent tallies
//!   ([`DecodeStats::merge`]), parameterised by a per-basis [`Kernel`].
//!   [`MwpmDecoder`] is the shell over [`Blossom`];
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

pub mod decoder;
pub mod graph;
pub mod paths;
pub mod sparse;
pub mod unionfind;

pub use decoder::{
    check_decoder_conformance, DecodeStats, DecodeStatsMetrics, Decoder, GraphDecoder, Kernel,
    KernelCounters, MwpmDecoder, SyndromeCache,
};
pub use graph::{DecodingGraph, GraphDiagnostics, GraphEdge};
pub use paths::PathTables;
pub use sparse::{Blossom, DecodeScratch};
pub use unionfind::{UfDecoder, UfGraph, UfScratch};

/// The graph build [`graph`] replaced: the oracle of its unit tests.
#[cfg(test)]
#[path = "../tests/support/graph_oracle.rs"]
mod graph_oracle;

/// Random Clifford+noise circuits, shared with `dqec_sim`'s unit tests
/// (written against `crate::circuit`, hence the import below).
#[cfg(test)]
#[path = "../../sim/tests/support/random_circuit.rs"]
mod random_circuit;
#[cfg(test)]
use dqec_sim::circuit;

/// Circuits shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};

    /// Distance-3 repetition code over `rounds` rounds with data-flip
    /// probability `p` per round; observable = data qubit 0.
    pub(crate) fn repetition(rounds: usize, p: f64) -> Circuit {
        let mut c = Circuit::new(5); // data 0,1,2; ancilla 3,4
        for q in 0..5 {
            c.reset(q).unwrap();
        }
        let mut prev: Option<[dqec_sim::MeasRecord; 2]> = None;
        for t in 0..rounds {
            for q in 0..3 {
                c.noise1(Noise1::XError, q, p).unwrap();
            }
            c.cx(0, 3).unwrap();
            c.cx(1, 3).unwrap();
            c.cx(1, 4).unwrap();
            c.cx(2, 4).unwrap();
            let m3 = c.measure_reset(3).unwrap();
            let m4 = c.measure_reset(4).unwrap();
            match prev {
                None => {
                    c.add_detector(&[m3], CheckBasis::Z, (0, 0, t as i32))
                        .unwrap();
                    c.add_detector(&[m4], CheckBasis::Z, (1, 0, t as i32))
                        .unwrap();
                }
                Some([p3, p4]) => {
                    c.add_detector(&[m3, p3], CheckBasis::Z, (0, 0, t as i32))
                        .unwrap();
                    c.add_detector(&[m4, p4], CheckBasis::Z, (1, 0, t as i32))
                        .unwrap();
                }
            }
            prev = Some([m3, m4]);
        }
        // Final data readout.
        let d0 = c.measure(0).unwrap();
        let d1 = c.measure(1).unwrap();
        let d2 = c.measure(2).unwrap();
        let [p3, p4] = prev.unwrap();
        c.add_detector(&[d0, d1, p3], CheckBasis::Z, (0, 0, rounds as i32))
            .unwrap();
        c.add_detector(&[d1, d2, p4], CheckBasis::Z, (1, 0, rounds as i32))
            .unwrap();
        c.include_observable(0, &[d0]).unwrap();
        c
    }

    /// A 1D matching chain: `n` checks in a row, a data error of
    /// probability `p(q)` on data qubit `q` between them; both ends connect
    /// to the boundary (data 0 flips observable 0).
    pub(crate) fn chain_circuit(n: u32, p: impl Fn(u32) -> f64) -> Circuit {
        let mut c = Circuit::new(2 * n + 1);
        for q in 0..=2 * n {
            c.reset(q).unwrap();
        }
        for q in 0..=n {
            c.noise1(Noise1::XError, q, p(q)).unwrap();
        }
        let mut records = Vec::new();
        for i in 0..n {
            let anc = n + 1 + i;
            c.cx(i, anc).unwrap();
            c.cx(i + 1, anc).unwrap();
            records.push(c.measure(anc).unwrap());
        }
        for (i, &m) in records.iter().enumerate() {
            c.add_detector(&[m], CheckBasis::Z, (i as i32, 0, 0))
                .unwrap();
        }
        let d0 = c.measure(0).unwrap();
        c.include_observable(0, &[d0]).unwrap();
        c
    }
}
