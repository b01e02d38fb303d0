//! # dqec-estimator
//!
//! Application-level resource and fidelity estimation for
//! defect-adapted fault-tolerant devices (paper §5.3, Tables 1–4).
//!
//! Follows the paper: the example application is Shor's algorithm on
//! 2048-bit integers per Gidney–Ekerå (2021) — a 226 × 63 grid of
//! distance-27 surface code patches running ≈ 25 billion code cycles —
//! and application fidelity is estimated from the topological error
//! rate, accounting for the code-distance distribution of the adapted
//! patches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod application;
pub mod fidelity;
pub mod resources;
pub mod topological;

pub use application::ApplicationSpec;
pub use fidelity::{distance_distribution, expected_logical_error, fidelity_from_distances};
pub use resources::{
    candidate_populations, defect_intolerant_row, no_defect_row, super_stabilizer_row, ResourceRow,
};
pub use topological::logical_error_per_patch_cycle;
