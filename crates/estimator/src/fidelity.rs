//! Application fidelity from code-distance distributions (Tables 3–4).

use crate::application::ApplicationSpec;
use crate::topological::logical_error_per_patch_cycle;
use dqec_core::indicators::PatchIndicators;

/// The empirical code-distance distribution of a set of sampled
/// chiplets: `(distance, probability)` pairs (distance 0 = unusable).
pub fn distance_distribution(indicators: &[PatchIndicators]) -> Vec<(u32, f64)> {
    let mut counts = std::collections::BTreeMap::new();
    for ind in indicators {
        *counts.entry(ind.distance()).or_insert(0usize) += 1;
    }
    let total = indicators.len() as f64;
    counts
        .into_iter()
        .map(|(d, n)| (d, n as f64 / total))
        .collect()
}

/// Expected per-patch-per-cycle logical error over a distance
/// distribution. Distance-0 entries (unusable patches) contribute a
/// saturated error of 0.1 per cycle.
pub fn expected_logical_error(distribution: &[(u32, f64)], p: f64) -> f64 {
    distribution
        .iter()
        .map(|&(d, w)| {
            let eps = if d == 0 {
                0.1
            } else {
                logical_error_per_patch_cycle(d, p)
            };
            w * eps
        })
        .sum()
}

/// Application fidelity when every patch's distance is drawn from
/// `distribution`: `exp(−patches · cycles · E[ε(d)])`.
pub fn fidelity_from_distances(spec: &ApplicationSpec, distribution: &[(u32, f64)]) -> f64 {
    let eps = expected_logical_error(distribution, spec.p_phys);
    (-(spec.patches as f64) * spec.cycles * eps).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_d27_matches_paper_73_percent() {
        let spec = ApplicationSpec::shor_2048();
        let f = fidelity_from_distances(&spec, &[(27, 1.0)]);
        assert!((f - 0.73).abs() < 0.05, "fidelity {f}");
    }

    #[test]
    fn larger_distances_help() {
        let spec = ApplicationSpec::shor_2048();
        let uniform = |d| fidelity_from_distances(&spec, &[(d, 1.0)]);
        assert!(uniform(29) > uniform(27));
    }

    #[test]
    fn low_distance_mass_destroys_fidelity() {
        let spec = ApplicationSpec::shor_2048();
        // 5% of patches at d=17 is catastrophic.
        let f = fidelity_from_distances(&spec, &[(27, 0.95), (17, 0.05)]);
        assert!(f < 1e-6, "fidelity {f}");
    }

    #[test]
    fn distribution_sums_to_one() {
        use dqec_core::adapt::AdaptedPatch;
        use dqec_core::defect::DefectSet;
        use dqec_core::layout::PatchLayout;
        let inds: Vec<PatchIndicators> = (0..5)
            .map(|_| {
                PatchIndicators::of(&AdaptedPatch::new(
                    PatchLayout::memory(5),
                    &DefectSet::new(),
                ))
            })
            .collect();
        let dist = distance_distribution(&inds);
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist, vec![(5, 1.0)]);
    }
}
