//! # dqec-core
//!
//! The primary contribution of the ASPLOS'24 paper "Codesign of quantum
//! error-correcting codes and modular chiplets in the presence of
//! defects" (Lin et al.): an automated method adapting the rotated
//! surface code to a grid with an arbitrary distribution of fabrication
//! defects.
//!
//! * [`layout`] — rotated surface code patches with parametric boundary
//!   types (memory and stability layouts);
//! * [`defect`] — fabrication defect sets and the chiplet orientation
//!   (data/syndrome swap) transform;
//! * [`adapt`] — the adaptation algorithm: interior defects become
//!   super-stabilizer gauge clusters, near-boundary defects deform the
//!   boundary (paper §3, Figs. 1 and 3);
//! * [`graphs`] — syndrome-lattice analysis: boundary void components,
//!   code distance, and counting of minimum-weight logicals;
//! * [`indicators`] — the paper's post-selection figures of merit
//!   (§4.2, Figs. 5–11);
//! * [`circuit_gen`] — memory and stability experiment circuits with
//!   gauge measurement schedules and detector annotations;
//! * [`merge`] — lattice-surgery merge distances and the four boundary
//!   standards (Figs. 14–15).
//!
//! # Examples
//!
//! Adapting a patch to a broken data qubit and reading its indicators:
//!
//! ```
//! use dqec_core::adapt::AdaptedPatch;
//! use dqec_core::coords::Coord;
//! use dqec_core::defect::DefectSet;
//! use dqec_core::indicators::PatchIndicators;
//! use dqec_core::layout::PatchLayout;
//!
//! let mut defects = DefectSet::new();
//! defects.add_data(Coord::new(5, 5));
//! let patch = AdaptedPatch::new(PatchLayout::memory(5), &defects);
//! let ind = PatchIndicators::of(&patch);
//! assert_eq!(ind.distance(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
#[cfg(test)]
mod adapt_oracle;
pub mod circuit_gen;
pub mod coords;
pub mod defect;
mod error;
pub mod graphs;
pub mod indicators;
pub mod layout;
pub mod merge;

pub use adapt::{AdaptStatus, AdaptedPatch, Cluster, DeadReason};
pub use circuit_gen::{memory_z, stability, ExperimentCircuit};
pub use coords::{Coord, Side};
pub use defect::DefectSet;
pub use error::CoreError;
pub use graphs::CheckGraph;
pub use indicators::PatchIndicators;
pub use layout::{BoundarySpec, PatchLayout};
