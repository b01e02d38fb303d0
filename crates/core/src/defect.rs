//! Fabrication defect sets and the chiplet orientation transform.

use crate::coords::Coord;
use crate::layout::PatchLayout;
use std::collections::BTreeSet;

/// A set of fabrication defects on a chiplet.
///
/// Coordinates outside the layout, or links that do not exist, are
/// ignored by [`DefectSet::clamp_to`] — sampling code may generate
/// defects for the full fabricated grid.
///
/// # Examples
///
/// ```
/// use dqec_core::coords::Coord;
/// use dqec_core::defect::DefectSet;
///
/// let mut defects = DefectSet::new();
/// defects.add_data(Coord::new(5, 5));
/// assert_eq!(defects.num_faulty(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefectSet {
    /// Faulty data qubits.
    pub data: BTreeSet<Coord>,
    /// Faulty syndrome qubits (faces).
    pub synd: BTreeSet<Coord>,
    /// Faulty couplers, stored as (data, face) pairs.
    pub links: BTreeSet<(Coord, Coord)>,
}

impl DefectSet {
    /// An empty (defect-free) set.
    pub fn new() -> Self {
        DefectSet::default()
    }

    /// Adds a faulty data qubit.
    pub fn add_data(&mut self, c: Coord) {
        self.data.insert(c);
    }

    /// Adds a faulty syndrome qubit.
    pub fn add_synd(&mut self, c: Coord) {
        self.synd.insert(c);
    }

    /// Adds a faulty link between a data qubit and a face.
    pub fn add_link(&mut self, data: Coord, face: Coord) {
        self.links.insert((data, face));
    }

    /// Whether there are no defects.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.synd.is_empty() && self.links.is_empty()
    }

    /// Total number of faulty qubits (data + syndrome; links excluded).
    pub fn num_faulty(&self) -> usize {
        self.data.len() + self.synd.len()
    }

    /// The faulty data qubits that exist in `layout`, ascending.
    pub fn data_in<'a>(&'a self, layout: &'a PatchLayout) -> impl Iterator<Item = Coord> + 'a {
        self.data
            .iter()
            .copied()
            .filter(|&c| layout.contains_data(c))
    }

    /// The faulty syndrome qubits that exist in `layout`, ascending.
    pub fn synd_in<'a>(&'a self, layout: &'a PatchLayout) -> impl Iterator<Item = Coord> + 'a {
        self.synd
            .iter()
            .copied()
            .filter(|&c| layout.contains_face(c))
    }

    /// The faulty couplers that exist in `layout` (an in-layout data
    /// qubit next to an in-layout face), ascending.
    pub fn links_in<'a>(
        &'a self,
        layout: &'a PatchLayout,
    ) -> impl Iterator<Item = (Coord, Coord)> + 'a {
        self.links.iter().copied().filter(|&(d, f)| {
            layout.contains_data(d) && layout.contains_face(f) && d.chebyshev(f) == 1
        })
    }

    /// Restricts the defect set to elements that exist in `layout`.
    pub fn clamp_to(&self, layout: &PatchLayout) -> DefectSet {
        DefectSet {
            data: self.data_in(layout).collect(),
            synd: self.synd_in(layout).collect(),
            links: self.links_in(layout).collect(),
        }
    }

    /// The orientation-swapped defect set for an `l x l` chiplet.
    ///
    /// The paper's chiplet design allows exchanging the data/syndrome
    /// role assignment by rotating the chiplet 180° (equivalently,
    /// translating the logical patch by one physical site). Under the
    /// point reflection `(x, y) -> (2l-1-x, 2l-1-y)` data sites map to
    /// face sites and vice versa; defects landing outside the new patch
    /// are harmless and dropped.
    pub fn swapped_orientation(&self, l: u32) -> DefectSet {
        let c = 2 * l as i32 - 1;
        let t = |p: Coord| Coord::new(c - p.x, c - p.y);
        let layout = PatchLayout::memory(l);
        let mut out = DefectSet::new();
        for &d in &self.data {
            let f = t(d);
            if layout.contains_face(f) {
                out.add_synd(f);
            }
        }
        for &s in &self.synd {
            let d = t(s);
            if layout.contains_data(d) {
                out.add_data(d);
            }
        }
        for &(d, s) in &self.links {
            let (nd, nf) = (t(s), t(d));
            if layout.contains_data(nd) && layout.contains_face(nf) && nd.chebyshev(nf) == 1 {
                out.add_link(nd, nf);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_drops_outside_defects() {
        let layout = PatchLayout::memory(3);
        let mut d = DefectSet::new();
        d.add_data(Coord::new(1, 1));
        d.add_data(Coord::new(9, 9)); // outside 3x3 patch
        d.add_synd(Coord::new(4, 0)); // not a kept boundary face
        d.add_synd(Coord::new(2, 0)); // kept
        let c = d.clamp_to(&layout);
        assert_eq!(c.data.len(), 1);
        assert_eq!(c.synd.len(), 1);
    }

    #[test]
    fn swap_maps_data_to_faces() {
        let l = 5;
        let mut d = DefectSet::new();
        d.add_data(Coord::new(3, 3));
        let s = d.swapped_orientation(l);
        assert!(s.data.is_empty());
        assert_eq!(s.synd.len(), 1);
        let f = *s.synd.iter().next().unwrap();
        assert!(f.is_face_site());
        assert_eq!(f, Coord::new(6, 6));
    }

    #[test]
    fn swap_is_involution_for_interior_defects() {
        let l = 7;
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 7));
        d.add_synd(Coord::new(6, 6));
        let back = d.swapped_orientation(l).swapped_orientation(l);
        assert_eq!(back, d);
    }

    #[test]
    fn swap_drops_out_of_range_images() {
        let l = 3;
        let mut d = DefectSet::new();
        // Face at (0, 4) maps to data (5, 1)? t(0,4) = (5,1): in range.
        d.add_synd(Coord::new(0, 4));
        // Face at (6, 2) -> (-1, 3): out of range -> dropped.
        d.add_synd(Coord::new(6, 2));
        let s = d.swapped_orientation(l);
        assert_eq!(s.data.len(), 1);
        assert!(s.data.contains(&Coord::new(5, 1)));
    }

    #[test]
    fn link_defects_transform_with_adjacency() {
        let l = 5;
        let mut d = DefectSet::new();
        d.add_link(Coord::new(3, 3), Coord::new(4, 4));
        let s = d.swapped_orientation(l);
        assert_eq!(s.links.len(), 1);
        let (nd, nf) = *s.links.iter().next().unwrap();
        assert_eq!(nd.chebyshev(nf), 1);
        assert!(nd.is_data_site() && nf.is_face_site());
    }
}
