//! Figures of merit for defective patches (paper §4.2).
//!
//! The paper identifies the adapted code distance as the primary
//! post-selection indicator and the number of minimum-weight logical
//! operators as the tie-breaking secondary indicator, and evaluates
//! several alternatives (number of faulty qubits, fraction of disabled
//! data qubits, largest disabled-cluster diameter) that this module
//! also computes (Figs. 5–11).

use crate::adapt::AdaptedPatch;
use dqec_sim::circuit::CheckBasis;

/// All per-patch indicators used in the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchIndicators {
    /// Whether the patch hosts a usable code at all; when false every
    /// distance is reported as 0.
    pub valid: bool,
    /// Distance of the X logical (vertical; computed on the Z-check
    /// lattice).
    pub dist_x: u32,
    /// Number of weight-`dist_x` logical X operators.
    pub count_x: f64,
    /// Distance of the Z logical.
    pub dist_z: u32,
    /// Number of weight-`dist_z` logical Z operators.
    pub count_z: f64,
    /// Fabrication-faulty qubits (data + syndrome; the Fig. 10 baseline
    /// indicator).
    pub num_faulty: usize,
    /// Disabled data qubits after adaptation.
    pub num_disabled_data: usize,
    /// Disabled faces after adaptation.
    pub num_disabled_faces: usize,
    /// Fraction of data qubits disabled (Fig. 8 indicator).
    pub proportion_disabled_data: f64,
    /// Diameter of the largest disabled cluster in qubit units (Fig. 9).
    pub largest_cluster_diameter: f64,
}

impl PatchIndicators {
    /// Computes the indicators of an adapted patch.
    ///
    /// Builds no check graph: the distances and shortest-logical counts
    /// are the ones adaptation's post-validation found on both check
    /// graphs of the patch ([`CheckGraph::distance_and_count`]).
    ///
    /// [`CheckGraph::distance_and_count`]: crate::graphs::CheckGraph::distance_and_count
    pub fn of(patch: &AdaptedPatch) -> PatchIndicators {
        let num_data = patch.layout().data_sites().count();
        let mut out = PatchIndicators {
            valid: patch.is_valid(),
            dist_x: 0,
            count_x: 0.0,
            dist_z: 0,
            count_z: 0.0,
            num_faulty: patch.defects().num_faulty(),
            num_disabled_data: patch.dead_data().len(),
            num_disabled_faces: patch.dead_faces().len(),
            proportion_disabled_data: patch.dead_data().len() as f64 / num_data as f64,
            largest_cluster_diameter: patch
                .clusters()
                .iter()
                .map(|c| c.diameter() as f64)
                .fold(0.0, f64::max),
        };
        if !patch.is_valid() {
            return out;
        }
        if let Some((d, n)) = patch.distance_and_count(CheckBasis::Z) {
            out.dist_x = d;
            out.count_x = n;
        }
        if let Some((d, n)) = patch.distance_and_count(CheckBasis::X) {
            out.dist_z = d;
            out.count_z = n;
        }
        if out.dist_x == 0 || out.dist_z == 0 {
            out.valid = false;
        }
        out
    }

    /// The code distance: the minimum over both logical directions
    /// (0 when the patch is unusable).
    pub fn distance(&self) -> u32 {
        if !self.valid {
            return 0;
        }
        self.dist_x.min(self.dist_z)
    }

    /// Number of minimum-weight logical operators at [`distance`], the
    /// paper's tie-breaking indicator: counts from whichever directions
    /// attain the minimum.
    ///
    /// [`distance`]: PatchIndicators::distance
    pub fn shortest_logical_count(&self) -> f64 {
        let d = self.distance();
        if d == 0 {
            return 0.0;
        }
        let mut n = 0.0;
        if self.dist_x == d {
            n += self.count_x;
        }
        if self.dist_z == d {
            n += self.count_z;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Coord;
    use crate::defect::DefectSet;
    use crate::layout::PatchLayout;

    #[test]
    fn defect_free_indicators() {
        let p = AdaptedPatch::new(PatchLayout::memory(5), &DefectSet::new());
        let ind = PatchIndicators::of(&p);
        assert!(ind.valid);
        assert_eq!(ind.distance(), 5);
        assert_eq!((ind.dist_x, ind.dist_z), (5, 5));
        assert_eq!(ind.num_faulty, 0);
        assert_eq!(ind.proportion_disabled_data, 0.0);
        assert!(ind.shortest_logical_count() >= 2.0, "both directions tie");
    }

    #[test]
    fn single_defect_indicators() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let p = AdaptedPatch::new(PatchLayout::memory(5), &d);
        let ind = PatchIndicators::of(&p);
        assert!(ind.valid);
        assert_eq!(ind.distance(), 4);
        assert_eq!(ind.num_faulty, 1);
        assert_eq!(ind.num_disabled_data, 1);
        assert!(ind.largest_cluster_diameter >= 1.0);
    }

    #[test]
    fn defective_patch_has_fewer_shortest_logicals_than_defect_free_same_d() {
        // Paper: defective patches with distance d have fewer shortest
        // logicals than a defect-free distance-d patch (less symmetry).
        let free = PatchIndicators::of(&AdaptedPatch::new(
            PatchLayout::memory(4),
            &DefectSet::new(),
        ));
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let defective = PatchIndicators::of(&AdaptedPatch::new(PatchLayout::memory(5), &d));
        assert_eq!(free.distance(), defective.distance());
        assert!(
            defective.shortest_logical_count() < free.shortest_logical_count(),
            "defective {} !< defect-free {}",
            defective.shortest_logical_count(),
            free.shortest_logical_count()
        );
    }

    #[test]
    fn degenerate_patch_has_zero_distance() {
        let mut d = DefectSet::new();
        for site in PatchLayout::memory(3).data_sites() {
            d.add_data(site);
        }
        let p = AdaptedPatch::new(PatchLayout::memory(3), &d);
        let ind = PatchIndicators::of(&p);
        assert!(!ind.valid);
        assert_eq!(ind.distance(), 0);
        assert_eq!(ind.shortest_logical_count(), 0.0);
    }

    #[test]
    fn asymmetric_distances_reported_separately() {
        // A defect near one boundary affects one direction more.
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 1));
        let p = AdaptedPatch::new(PatchLayout::memory(9), &d);
        let ind = PatchIndicators::of(&p);
        assert!(ind.valid);
        assert!(ind.dist_x <= 9 && ind.dist_z <= 9);
        assert_eq!(ind.distance(), ind.dist_x.min(ind.dist_z));
    }
}
