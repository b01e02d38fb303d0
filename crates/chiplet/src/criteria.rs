//! Post-selection criteria for defective chiplets (paper §4.2).
//!
//! The paper's chosen criterion uses the adapted code distance as the
//! primary indicator and the number of minimum-weight logical operators
//! as a tie-breaker against the defect-free reference: a chiplet is
//! kept when it performs at least as well as a defect-free patch of the
//! target distance. The baseline criterion ranks chiplets by their raw
//! faulty-qubit count (Fig. 10/11).

use dqec_core::adapt::AdaptedPatch;
use dqec_core::defect::DefectSet;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;

/// A quality target: "performs as well as the defect-free distance-d
/// patch".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityTarget {
    /// Required code distance.
    pub distance: u32,
    /// Number of shortest logical operators of the defect-free
    /// reference; equal-distance chiplets must not exceed it.
    pub max_shortest: f64,
}

impl QualityTarget {
    /// Builds the target from the defect-free distance-`d` reference
    /// patch.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn defect_free(d: u32) -> QualityTarget {
        let reference = PatchIndicators::of(&AdaptedPatch::new(
            PatchLayout::memory(d),
            &DefectSet::new(),
        ));
        QualityTarget {
            distance: d,
            max_shortest: reference.shortest_logical_count(),
        }
    }

    /// Whether a chiplet with the given indicators meets the target:
    /// strictly larger distance always passes; equal distance passes
    /// when the chiplet has no more shortest logicals than the
    /// defect-free reference (defective patches generally have fewer —
    /// less symmetry — and correspondingly better low-p performance).
    pub fn accepts(&self, ind: &PatchIndicators) -> bool {
        if !ind.valid {
            return false;
        }
        let d = ind.distance();
        d > self.distance
            || (d == self.distance && ind.shortest_logical_count() <= self.max_shortest)
    }
}

/// Ranks chiplets for proportional selection (Fig. 11): smaller rank =
/// better chiplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranking {
    /// The paper's chosen indicators: distance descending, then number
    /// of shortest logicals ascending.
    ChosenIndicators,
    /// Baseline: number of faulty qubits ascending.
    FaultyCount,
}

impl Ranking {
    /// Sorts indices of `patches` from best to worst under this ranking.
    pub fn order(self, patches: &[PatchIndicators]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..patches.len()).collect();
        match self {
            Ranking::ChosenIndicators => idx.sort_by(|&a, &b| {
                patches[b].distance().cmp(&patches[a].distance()).then(
                    patches[a]
                        .shortest_logical_count()
                        .total_cmp(&patches[b].shortest_logical_count()),
                )
            }),
            Ranking::FaultyCount => {
                idx.sort_by_key(|&a| patches[a].num_faulty);
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_core::coords::Coord;

    fn indicators(defects: &DefectSet, l: u32) -> PatchIndicators {
        PatchIndicators::of(&AdaptedPatch::new(PatchLayout::memory(l), defects))
    }

    #[test]
    fn defect_free_reference_accepts_itself() {
        let t = QualityTarget::defect_free(5);
        assert!(t.accepts(&indicators(&DefectSet::new(), 5)));
    }

    #[test]
    fn larger_patch_passes_smaller_target() {
        let t = QualityTarget::defect_free(5);
        assert!(t.accepts(&indicators(&DefectSet::new(), 7)));
    }

    #[test]
    fn equal_distance_defective_patch_passes() {
        // l=5 with center defect has d=4 and fewer shortest logicals
        // than the defect-free d=4 patch.
        let t = QualityTarget::defect_free(4);
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        assert!(t.accepts(&indicators(&d, 5)));
    }

    #[test]
    fn short_distance_fails() {
        let t = QualityTarget::defect_free(9);
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        assert!(!t.accepts(&indicators(&d, 5)));
    }

    #[test]
    fn invalid_patch_fails() {
        let t = QualityTarget::defect_free(3);
        let mut d = DefectSet::new();
        for site in PatchLayout::memory(3).data_sites() {
            d.add_data(site);
        }
        assert!(!t.accepts(&indicators(&d, 3)));
    }

    #[test]
    fn rankings_prefer_better_patches() {
        let good = indicators(&DefectSet::new(), 5);
        let mut dd = DefectSet::new();
        dd.add_data(Coord::new(5, 5));
        let worse = indicators(&dd, 5);
        let patches = vec![worse.clone(), good.clone()];
        assert_eq!(Ranking::ChosenIndicators.order(&patches)[0], 1);
        assert_eq!(Ranking::FaultyCount.order(&patches)[0], 1);
    }
}
