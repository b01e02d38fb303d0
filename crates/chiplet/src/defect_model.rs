//! Fabrication defect models (paper §4).
//!
//! Two models: faulty links only (fixed-frequency transmons with fixed
//! couplers, where frequency collisions dominate), and links and qubits
//! faulty at the same rate (tunable transmons, where couplers are as
//! intricate as qubits).

use dqec_core::defect::DefectSet;
use dqec_core::layout::PatchLayout;
use rand::Rng;

/// Which components can be fabrication-faulty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefectModel {
    /// Only links (couplers) fail.
    LinkOnly,
    /// Links and qubits (data and syndrome) fail at the same rate.
    LinkAndQubit,
}

impl DefectModel {
    /// Samples a defect set for one fabricated chiplet.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn sample<R: Rng>(self, layout: &PatchLayout, rate: f64, rng: &mut R) -> DefectSet {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        let mut defects = DefectSet::new();
        if rate == 0.0 {
            return defects;
        }
        for (d, f) in layout.links() {
            if rng.gen_bool(rate) {
                defects.add_link(d, f);
            }
        }
        if self == DefectModel::LinkAndQubit {
            for d in layout.data_sites() {
                if rng.gen_bool(rate) {
                    defects.add_data(d);
                }
            }
            for f in layout.face_sites() {
                if rng.gen_bool(rate) {
                    defects.add_synd(f);
                }
            }
        }
        defects
    }

    /// The probability that a chiplet is completely defect-free — the
    /// yield of the defect-intolerant baseline, in closed form.
    pub fn defect_free_probability(self, layout: &PatchLayout, rate: f64) -> f64 {
        let links = layout.links().len() as f64;
        let qubits = layout.num_qubits() as f64;
        match self {
            DefectModel::LinkOnly => (1.0 - rate).powf(links),
            DefectModel::LinkAndQubit => (1.0 - rate).powf(links + qubits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rate_means_no_defects() {
        let layout = PatchLayout::memory(5);
        let mut rng = StdRng::seed_from_u64(1);
        let d = DefectModel::LinkAndQubit.sample(&layout, 0.0, &mut rng);
        assert!(d.is_empty());
    }

    #[test]
    fn link_only_never_marks_qubits() {
        let layout = PatchLayout::memory(7);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let d = DefectModel::LinkOnly.sample(&layout, 0.05, &mut rng);
            assert!(d.data.is_empty() && d.synd.is_empty());
        }
    }

    #[test]
    fn sampled_density_matches_rate() {
        let layout = PatchLayout::memory(9);
        let mut rng = StdRng::seed_from_u64(3);
        let rate = 0.02;
        let mut total_links = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            total_links += DefectModel::LinkOnly
                .sample(&layout, rate, &mut rng)
                .links
                .len();
        }
        let expect = rate * layout.links().len() as f64 * trials as f64;
        let got = total_links as f64;
        assert!(
            (got - expect).abs() < 0.1 * expect,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn defect_free_probability_matches_paper_l27() {
        // Paper Table 1: l=27, rate 0.1% on qubits+links -> yield 1.4%.
        let layout = PatchLayout::memory(27);
        let y = DefectModel::LinkAndQubit.defect_free_probability(&layout, 0.001);
        assert!((y - 0.014).abs() < 0.001, "got {y}");
    }

    #[test]
    fn defect_free_probability_monotone_in_rate() {
        let layout = PatchLayout::memory(11);
        let y1 = DefectModel::LinkOnly.defect_free_probability(&layout, 0.001);
        let y2 = DefectModel::LinkOnly.defect_free_probability(&layout, 0.01);
        assert!(y1 > y2);
    }
}
