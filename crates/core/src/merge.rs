//! Lattice-surgery merge analysis (paper Figs. 14–15).
//!
//! Merging two patches across an edge produces one long patch; boundary
//! deformations near the merging edges can shorten the undetectable
//! chains that cross the seam region, dropping the merged code distance
//! below the individual patches' distances (Fig. 14). This module
//! builds the merged patch — the defective patch joined through a seam
//! column/row to a defect-free partner — adapts it, and reports the
//! distance transverse to the merge.

use crate::adapt::AdaptedPatch;
use crate::coords::{Coord, Side};
use crate::defect::DefectSet;
use crate::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;

/// Whether any disabled cell lies within the two outermost layers of
/// the given edge — the paper's "deformation on this boundary" notion
/// (standards 1 and 2 of Fig. 15).
pub fn edge_deformed(patch: &AdaptedPatch, side: Side) -> bool {
    let layout = patch.layout();
    patch
        .dead_data()
        .keys()
        .chain(patch.dead_faces().keys())
        .any(|&c| layout.distance_to_side(c, side) <= 2)
}

/// The code distance transverse to a lattice-surgery merge of the
/// defective `l x l` patch with a defect-free partner across `side`.
///
/// Returns `None` when the merged patch fails to adapt (counts as not
/// supporting surgery on that edge).
///
/// # Examples
///
/// ```
/// use dqec_core::coords::Side;
/// use dqec_core::defect::DefectSet;
/// use dqec_core::merge::merged_distance;
///
/// // A defect-free patch merges at full distance on every edge.
/// for side in Side::ALL {
///     assert_eq!(merged_distance(&DefectSet::new(), 5, side), Some(5));
/// }
/// ```
pub fn merged_distance(defects: &DefectSet, l: u32, side: Side) -> Option<u32> {
    let li = l as i32;
    // The merged patch spans 2l+1 data columns (or rows): patch A, one
    // seam column, patch B.
    let (layout, dx, dy) = match side {
        Side::Right => (
            PatchLayout::new(2 * l + 1, l, *PatchLayout::memory(l).boundary()),
            0,
            0,
        ),
        Side::Left => (
            PatchLayout::new(2 * l + 1, l, *PatchLayout::memory(l).boundary()),
            2 * (li + 1),
            0,
        ),
        Side::Bottom => (
            PatchLayout::new(l, 2 * l + 1, *PatchLayout::memory(l).boundary()),
            0,
            0,
        ),
        Side::Top => (
            PatchLayout::new(l, 2 * l + 1, *PatchLayout::memory(l).boundary()),
            0,
            2 * (li + 1),
        ),
    };
    let mut moved = DefectSet::new();
    for &c in &defects.data {
        moved.add_data(Coord::new(c.x + dx, c.y + dy));
    }
    for &c in &defects.synd {
        moved.add_synd(Coord::new(c.x + dx, c.y + dy));
    }
    for &(d, f) in &defects.links {
        moved.add_link(
            Coord::new(d.x + dx, d.y + dy),
            Coord::new(f.x + dx, f.y + dy),
        );
    }
    let merged = AdaptedPatch::new(layout, &moved);
    if !merged.is_valid() {
        return None;
    }
    // Transverse distance: for horizontal merges the vertical (X
    // logical) distance; for vertical merges the horizontal one.
    let basis = match side {
        Side::Left | Side::Right => CheckBasis::Z,
        Side::Top | Side::Bottom => CheckBasis::X,
    };
    merged.distance_and_count(basis).map(|(d, _)| d)
}

/// The paper's four boundary-quality standards (Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryStandard {
    /// Standard 1: no deformation on any boundary.
    NoDeformationAnywhere,
    /// Standard 2: at least one X-edge and one Z-edge without
    /// deformation.
    NoDeformationTwoTypes,
    /// Standard 3: every edge supports lattice surgery without
    /// decreasing the code distance below the target.
    FullSurgeryEverywhere,
    /// Standard 4: at least one X-edge and one Z-edge support surgery
    /// without decreasing distance.
    FullSurgeryTwoTypes,
}

impl BoundaryStandard {
    /// All four standards in paper order.
    pub const ALL: [BoundaryStandard; 4] = [
        BoundaryStandard::NoDeformationAnywhere,
        BoundaryStandard::NoDeformationTwoTypes,
        BoundaryStandard::FullSurgeryEverywhere,
        BoundaryStandard::FullSurgeryTwoTypes,
    ];

    /// Evaluates the standard on an `l x l` defective patch with the
    /// given surgery distance target.
    pub fn satisfied(self, patch: &AdaptedPatch, defects: &DefectSet, l: u32, target: u32) -> bool {
        let x_edges = [Side::Top, Side::Bottom];
        let z_edges = [Side::Left, Side::Right];
        match self {
            BoundaryStandard::NoDeformationAnywhere => {
                Side::ALL.iter().all(|&s| !edge_deformed(patch, s))
            }
            BoundaryStandard::NoDeformationTwoTypes => {
                x_edges.iter().any(|&s| !edge_deformed(patch, s))
                    && z_edges.iter().any(|&s| !edge_deformed(patch, s))
            }
            BoundaryStandard::FullSurgeryEverywhere => Side::ALL
                .iter()
                .all(|&s| merged_distance(defects, l, s).is_some_and(|d| d >= target)),
            BoundaryStandard::FullSurgeryTwoTypes => {
                x_edges
                    .iter()
                    .any(|&s| merged_distance(defects, l, s).is_some_and(|d| d >= target))
                    && z_edges
                        .iter()
                        .any(|&s| merged_distance(defects, l, s).is_some_and(|d| d >= target))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_free_passes_all_standards() {
        let l = 5;
        let defects = DefectSet::new();
        let patch = AdaptedPatch::new(PatchLayout::memory(l), &defects);
        for std in BoundaryStandard::ALL {
            assert!(std.satisfied(&patch, &defects, l, l));
        }
    }

    #[test]
    fn edge_deformation_detection() {
        let l = 7;
        let mut defects = DefectSet::new();
        defects.add_data(Coord::new(7, 1)); // top edge defect
        let patch = AdaptedPatch::new(PatchLayout::memory(l), &defects);
        assert!(edge_deformed(&patch, Side::Top));
        assert!(!edge_deformed(&patch, Side::Bottom));
        assert!(!BoundaryStandard::NoDeformationAnywhere.satisfied(&patch, &defects, l, l));
        // Bottom + left/right are clean, so standard 2 holds.
        assert!(BoundaryStandard::NoDeformationTwoTypes.satisfied(&patch, &defects, l, l));
    }

    #[test]
    fn interior_defect_does_not_deform_edges() {
        let l = 9;
        let mut defects = DefectSet::new();
        defects.add_data(Coord::new(9, 9));
        let patch = AdaptedPatch::new(PatchLayout::memory(l), &defects);
        for side in Side::ALL {
            assert!(!edge_deformed(&patch, side));
        }
    }

    #[test]
    fn merge_distance_drops_with_seam_deformation() {
        // Fig 14: a deformation on the merging edge lowers the merged
        // distance below the standalone distance.
        let l = 7;
        let mut defects = DefectSet::new();
        defects.add_data(Coord::new(13, 7)); // right-edge column defect
        let standalone = standalone_distance(&defects, l);
        let merged = merged_distance(&defects, l, Side::Right).unwrap();
        assert!(
            merged <= standalone,
            "merged {merged} should not exceed standalone {standalone}"
        );
        // Merging on the far (left) edge keeps the transverse distance.
        let far = merged_distance(&defects, l, Side::Left).unwrap();
        assert!(far >= merged);
    }

    fn standalone_distance(defects: &DefectSet, l: u32) -> u32 {
        crate::indicators::PatchIndicators::of(&AdaptedPatch::new(PatchLayout::memory(l), defects))
            .distance()
    }

    #[test]
    fn vertical_merges_work() {
        let l = 5;
        let defects = DefectSet::new();
        assert_eq!(merged_distance(&defects, l, Side::Top), Some(5));
        assert_eq!(merged_distance(&defects, l, Side::Bottom), Some(5));
    }
}
