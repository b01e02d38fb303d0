//! Rotated surface code patch layouts with parametric boundary types.

use crate::coords::{Coord, Side};
use dqec_sim::circuit::CheckBasis;

/// Which stabilizer type each boundary side carries.
///
/// The standard memory patch keeps X faces on the top/bottom rows and Z
/// faces on the left/right columns (logical X vertical, logical Z
/// horizontal). The stability experiment uses X faces on all four sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundarySpec {
    /// Basis kept on the y = 0 row.
    pub top: CheckBasis,
    /// Basis kept on the y = 2·height row.
    pub bottom: CheckBasis,
    /// Basis kept on the x = 0 column.
    pub left: CheckBasis,
    /// Basis kept on the x = 2·width column.
    pub right: CheckBasis,
}

impl BoundarySpec {
    /// The standard memory boundary: X top/bottom, Z left/right.
    pub const MEMORY: BoundarySpec = BoundarySpec {
        top: CheckBasis::X,
        bottom: CheckBasis::X,
        left: CheckBasis::Z,
        right: CheckBasis::Z,
    };

    /// All four sides X (used by the stability experiment).
    pub const ALL_X: BoundarySpec = BoundarySpec {
        top: CheckBasis::X,
        bottom: CheckBasis::X,
        left: CheckBasis::X,
        right: CheckBasis::X,
    };

    /// The basis kept on `side`.
    pub fn of(&self, side: Side) -> CheckBasis {
        match side {
            Side::Top => self.top,
            Side::Bottom => self.bottom,
            Side::Left => self.left,
            Side::Right => self.right,
        }
    }
}

/// A `width x height` rotated surface code patch layout.
///
/// # Examples
///
/// ```
/// use dqec_core::layout::PatchLayout;
///
/// let l = PatchLayout::memory(3);
/// assert_eq!(l.data_sites().count(), 9);
/// assert_eq!(l.face_sites().count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatchLayout {
    width: u32,
    height: u32,
    boundary: BoundarySpec,
}

impl PatchLayout {
    /// A standard `l x l` memory patch (distance `l` when defect-free).
    ///
    /// # Panics
    ///
    /// Panics if `l < 2`.
    pub fn memory(l: u32) -> Self {
        Self::new(l, l, BoundarySpec::MEMORY)
    }

    /// A `width x height` stability patch with X faces on all sides.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is odd or below 2 (odd all-same-color
    /// patches have defective corners and do not satisfy `k = 0`).
    pub fn stability(width: u32, height: u32) -> Self {
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "stability patches must be even x even"
        );
        Self::new(width, height, BoundarySpec::ALL_X)
    }

    /// A general layout.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is below 2 or the boundary spec is not one
    /// of the supported arrangements (memory-style with opposite sides
    /// equal and the two axes different, or all four sides equal).
    pub fn new(width: u32, height: u32, boundary: BoundarySpec) -> Self {
        assert!(width >= 2 && height >= 2, "patch must be at least 2x2");
        let supported = boundary.top == boundary.bottom && boundary.left == boundary.right;
        assert!(supported, "unsupported boundary arrangement");
        PatchLayout {
            width,
            height,
            boundary,
        }
    }

    /// Number of data-qubit columns.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of data-qubit rows.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The boundary specification.
    pub fn boundary(&self) -> &BoundarySpec {
        &self.boundary
    }

    /// Number of logical qubits the defect-free layout encodes.
    pub fn expected_logicals(&self) -> usize {
        let b = &self.boundary;
        if b.top == b.bottom && b.left == b.right && b.top != b.left {
            1
        } else {
            0
        }
    }

    /// Whether a data site lies inside the patch.
    pub fn contains_data(&self, c: Coord) -> bool {
        c.is_data_site()
            && c.x >= 1
            && c.x < 2 * self.width as i32
            && c.y >= 1
            && c.y < 2 * self.height as i32
    }

    /// Whether a face exists at the given site in the defect-free layout.
    pub fn contains_face(&self, c: Coord) -> bool {
        if !c.is_face_site() {
            return false;
        }
        let (w, h) = (2 * self.width as i32, 2 * self.height as i32);
        if c.x < 0 || c.x > w || c.y < 0 || c.y > h {
            return false;
        }
        let corner = (c.x == 0 || c.x == w) && (c.y == 0 || c.y == h);
        if corner {
            return false;
        }
        let interior = c.x > 0 && c.x < w && c.y > 0 && c.y < h;
        if interior {
            return true;
        }
        let side = if c.y == 0 {
            Side::Top
        } else if c.y == h {
            Side::Bottom
        } else if c.x == 0 {
            Side::Left
        } else {
            Side::Right
        };
        c.face_basis() == self.boundary.of(side)
    }

    /// Iterates over all data sites.
    pub fn data_sites(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.width as i32, self.height as i32);
        (0..w).flat_map(move |i| (0..h).map(move |j| Coord::new(2 * i + 1, 2 * j + 1)))
    }

    /// Iterates over all face sites that exist in the defect-free layout.
    pub fn face_sites(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.width as i32, self.height as i32);
        (0..=w)
            .flat_map(move |i| (0..=h).map(move |j| Coord::new(2 * i, 2 * j)))
            .filter(move |&c| self.contains_face(c))
    }

    /// The data sites a face touches in the defect-free layout.
    pub fn face_support(&self, face: Coord) -> Vec<Coord> {
        face.diagonal_neighbors()
            .into_iter()
            .filter(|&d| self.contains_data(d))
            .collect()
    }

    /// All (data, face) adjacency pairs — the couplers/links of the
    /// defect-free layout.
    pub fn links(&self) -> Vec<(Coord, Coord)> {
        let mut out = Vec::new();
        for f in self.face_sites() {
            for d in self.face_support(f) {
                out.push((d, f));
            }
        }
        out
    }

    /// Number of physical qubits (data + syndrome) in the layout.
    pub fn num_qubits(&self) -> usize {
        self.data_sites().count() + self.face_sites().count()
    }

    /// Distance from a coordinate to the given side, in doubled units.
    pub fn distance_to_side(&self, c: Coord, side: Side) -> i32 {
        match side {
            Side::Top => c.y,
            Side::Bottom => 2 * self.height as i32 - c.y,
            Side::Left => c.x,
            Side::Right => 2 * self.width as i32 - c.x,
        }
    }

    /// The nearest side to a coordinate (ties broken in `Side::ALL`
    /// order) and its distance.
    pub fn nearest_side(&self, c: Coord) -> (Side, i32) {
        let mut best = (Side::Top, i32::MAX);
        for side in Side::ALL {
            let d = self.distance_to_side(c, side);
            if d < best.1 {
                best = (side, d);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_counts_match_formula() {
        for l in [3u32, 5, 7, 9, 11] {
            let layout = PatchLayout::memory(l);
            assert_eq!(layout.data_sites().count(), (l * l) as usize);
            assert_eq!(layout.face_sites().count(), (l * l - 1) as usize);
            assert_eq!(layout.num_qubits(), (2 * l * l - 1) as usize);
            let x = layout
                .face_sites()
                .filter(|f| f.face_basis() == CheckBasis::X)
                .count();
            assert_eq!(x, ((l * l - 1) / 2) as usize);
        }
    }

    #[test]
    fn memory_link_count_matches_formula() {
        // Total link count = sum of face weights = 4l^2 - 4l.
        for l in [3u32, 5, 9, 27] {
            let layout = PatchLayout::memory(l);
            assert_eq!(layout.links().len(), (4 * l * l - 4 * l) as usize);
        }
    }

    #[test]
    fn d3_face_positions() {
        let layout = PatchLayout::memory(3);
        let faces: Vec<Coord> = layout.face_sites().collect();
        // Interior: all four; boundary: one per side.
        for c in [
            Coord::new(2, 2),
            Coord::new(4, 2),
            Coord::new(2, 4),
            Coord::new(4, 4),
            Coord::new(2, 0),
            Coord::new(4, 6),
            Coord::new(0, 4),
            Coord::new(6, 2),
        ] {
            assert!(faces.contains(&c), "missing face {c}");
        }
        assert_eq!(faces.len(), 8);
    }

    #[test]
    fn boundary_faces_have_weight_two() {
        let layout = PatchLayout::memory(5);
        for f in layout.face_sites() {
            let w = layout.face_support(f).len();
            let on_edge = f.x == 0 || f.y == 0 || f.x == 10 || f.y == 10;
            assert_eq!(w, if on_edge { 2 } else { 4 });
        }
    }

    #[test]
    fn corners_never_host_faces() {
        let layout = PatchLayout::memory(5);
        for c in [(0, 0), (10, 0), (0, 10), (10, 10)] {
            assert!(!layout.contains_face(Coord::new(c.0, c.1)));
        }
    }

    #[test]
    fn stability_layout_coverage() {
        let layout = PatchLayout::stability(6, 6);
        assert_eq!(layout.expected_logicals(), 0);
        // Every data qubit is in exactly two X faces (product relation).
        for d in layout.data_sites() {
            let x_count = d
                .diagonal_neighbors()
                .into_iter()
                .filter(|&f| layout.contains_face(f) && f.face_basis() == CheckBasis::X)
                .count();
            assert_eq!(x_count, 2, "data {d} has {x_count} X faces");
        }
    }

    #[test]
    fn memory_every_data_covered_both_bases() {
        let layout = PatchLayout::memory(7);
        for d in layout.data_sites() {
            for basis in [CheckBasis::X, CheckBasis::Z] {
                let n = d
                    .diagonal_neighbors()
                    .into_iter()
                    .filter(|&f| layout.contains_face(f) && f.face_basis() == basis)
                    .count();
                assert!(n >= 1, "data {d} uncovered in {basis:?}");
            }
        }
    }

    #[test]
    fn nearest_side_and_distance() {
        let layout = PatchLayout::memory(5);
        assert_eq!(layout.nearest_side(Coord::new(1, 5)).0, Side::Left);
        assert_eq!(layout.distance_to_side(Coord::new(1, 5), Side::Left), 1);
        assert_eq!(layout.nearest_side(Coord::new(5, 9)).0, Side::Bottom);
    }

    #[test]
    fn expected_logicals_by_boundary() {
        assert_eq!(PatchLayout::memory(5).expected_logicals(), 1);
        assert_eq!(PatchLayout::stability(4, 4).expected_logicals(), 0);
    }
}
