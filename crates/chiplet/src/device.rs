//! Device assembly from a stream of fabricated chiplets (paper §4.2).
//!
//! The modular architecture fabricates chiplets, post-selects the ones
//! whose adapted code meets the quality target, and arranges the
//! survivors into a grid of logical qubits. This module simulates that
//! assembly line: it reports how many chiplets had to be fabricated to
//! fill a device — the *realized* resource overhead that the expected
//! `1/yield` factor approximates — together with the surgery quality of
//! the assembled patches' edges.

use crate::criteria::QualityTarget;
use crate::defect_model::DefectModel;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::coords::Side;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_core::merge::merged_distance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of a device assembly run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Logical qubits needed (grid slots to fill).
    pub logical_qubits: usize,
    /// Chiplet width.
    pub l: u32,
    /// Defect model and rate.
    pub model: DefectModel,
    /// Per-component fabrication error rate.
    pub rate: f64,
    /// Quality target each chiplet must meet.
    pub target: QualityTarget,
    /// Whether chiplets may be rotated (data/syndrome swap) to pass.
    pub orientation_freedom: bool,
    /// Cap on fabricated chiplets before giving up (guards zero-yield
    /// parameter choices).
    pub fabrication_cap: usize,
}

/// The outcome of assembling one device.
#[derive(Debug, Clone, PartialEq)]
pub struct AssemblyReport {
    /// Slots filled with accepted chiplets.
    pub placed: usize,
    /// Total chiplets fabricated (accepted + discarded).
    pub fabricated: usize,
    /// Total physical qubits fabricated.
    pub qubits_fabricated: u64,
    /// Realized overhead factor relative to the ideal
    /// `logical_qubits x (2 d_target^2 - 1)` cost.
    pub overhead: f64,
    /// Distances of the accepted patches.
    pub distances: Vec<u32>,
    /// Among accepted chiplets, how many support full-target lattice
    /// surgery on all four edges (paper Fig. 15 standard 3).
    pub surgery_clean: usize,
}

impl AssemblyReport {
    /// Realized yield of the assembly run.
    pub fn yield_fraction(&self) -> f64 {
        if self.fabricated == 0 {
            0.0
        } else {
            self.placed as f64 / self.fabricated as f64
        }
    }
}

/// Simulates fabricating chiplets until `spec.logical_qubits` accepted
/// ones have been placed (or the fabrication cap is hit).
pub fn assemble_device(spec: &DeviceSpec, seed: u64) -> AssemblyReport {
    let layout = PatchLayout::memory(spec.l);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = AssemblyReport {
        placed: 0,
        fabricated: 0,
        qubits_fabricated: 0,
        overhead: f64::INFINITY,
        distances: Vec::new(),
        surgery_clean: 0,
    };
    let qubits_per_chiplet = layout.num_qubits() as u64;
    while report.placed < spec.logical_qubits && report.fabricated < spec.fabrication_cap {
        report.fabricated += 1;
        report.qubits_fabricated += qubits_per_chiplet;
        let defects = spec.model.sample(&layout, spec.rate, &mut rng);
        let mut accepted = None;
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if spec.target.accepts(&PatchIndicators::of(&patch)) {
            accepted = Some((patch, defects.clone()));
        } else if spec.orientation_freedom {
            let swapped = defects.swapped_orientation(spec.l);
            let patch = AdaptedPatch::new(layout.clone(), &swapped);
            if spec.target.accepts(&PatchIndicators::of(&patch)) {
                accepted = Some((patch, swapped));
            }
        }
        let Some((patch, defects)) = accepted else {
            continue;
        };
        report.placed += 1;
        report
            .distances
            .push(PatchIndicators::of(&patch).distance());
        let clean = Side::ALL.iter().all(|&s| {
            merged_distance(&defects, spec.l, s).is_some_and(|d| d >= spec.target.distance)
        });
        if clean {
            report.surgery_clean += 1;
        }
    }
    let ideal = spec.logical_qubits as u64
        * (2 * spec.target.distance as u64 * spec.target.distance as u64 - 1);
    report.overhead = report.qubits_fabricated as f64 / ideal as f64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64) -> DeviceSpec {
        DeviceSpec {
            logical_qubits: 20,
            l: 7,
            model: DefectModel::LinkAndQubit,
            rate,
            target: QualityTarget::defect_free(5),
            orientation_freedom: false,
            fabrication_cap: 5_000,
        }
    }

    #[test]
    fn perfect_fabrication_needs_exactly_the_grid() {
        let report = assemble_device(&spec(0.0), 1);
        assert_eq!(report.placed, 20);
        assert_eq!(report.fabricated, 20);
        assert_eq!(report.yield_fraction(), 1.0);
        assert_eq!(report.surgery_clean, 20);
        // l=7 chiplets for a d=5 target cost 97/49 qubits each.
        assert!((report.overhead - 97.0 / 49.0).abs() < 1e-12);
    }

    #[test]
    fn defects_increase_fabrication_count() {
        let report = assemble_device(&spec(0.01), 2);
        assert_eq!(report.placed, 20);
        assert!(report.fabricated > 20, "some chiplets must be discarded");
        assert!(report.distances.iter().all(|&d| d >= 5));
    }

    #[test]
    fn orientation_freedom_reduces_fabrication() {
        let base = assemble_device(&spec(0.015), 3);
        let mut with = spec(0.015);
        with.orientation_freedom = true;
        let rot = assemble_device(&with, 3);
        assert!(
            rot.fabricated <= base.fabricated + 5,
            "rotation should not require more chiplets: {} vs {}",
            rot.fabricated,
            base.fabricated
        );
    }

    #[test]
    fn cap_stops_hopeless_assembly() {
        let mut s = spec(0.35);
        s.fabrication_cap = 50;
        let report = assemble_device(&s, 4);
        assert_eq!(report.fabricated, 50);
        assert!(report.placed < s.logical_qubits);
    }

    #[test]
    fn surgery_clean_count_is_bounded_by_placed() {
        let report = assemble_device(&spec(0.01), 5);
        assert!(report.surgery_clean <= report.placed);
    }
}
