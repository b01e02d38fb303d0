//! Chiplet sampling, yield estimation and resource overhead (paper §5).
//!
//! Yield = fraction of fabricated chiplets whose adapted code meets the
//! quality target. The resource overhead of a design point is the
//! average number of fabricated physical qubits per *accepted* logical
//! qubit, reported relative to the ideal defect-free cost
//! (`2 d_target² − 1`).

use crate::criteria::QualityTarget;
use crate::defect_model::DefectModel;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// One population of fabricated chiplets: its size, defect model,
/// rate and seed. How many chiplets are drawn is up to the reader (the
/// index range of [`sample_indicators_range`]), so a config names the
/// whole unbounded population, and every draw is a slice of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Chiplet width (patch is `l x l`).
    pub l: u32,
    /// Defect model.
    pub model: DefectModel,
    /// Per-component fabrication error rate.
    pub rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SampleConfig {
    /// A default configuration for the given size/model/rate.
    pub fn new(l: u32, model: DefectModel, rate: f64) -> Self {
        SampleConfig {
            l,
            model,
            rate,
            seed: 0x5eed,
        }
    }
}

/// Samples the chiplets with indices in `range` and returns each one's
/// indicators, spread over the CPU cores. Each chiplet has its own
/// ChaCha8 stream keyed by `(seed, index)`, so it is a pure function of
/// the config and its index: `0..n` then `n..m` is exactly `0..m`.
pub fn sample_indicators_range(
    config: &SampleConfig,
    range: std::ops::Range<usize>,
) -> Vec<PatchIndicators> {
    sample_range(config, range, false)
}

/// [`sample_indicators_range`]'s chiplets rotated so data and syndrome
/// roles swap (paper §4.1, Fig. 16): the same per-index defect draws,
/// adapted in the other orientation, for architectures that use the
/// [`better`] of the two.
pub fn sample_rotated_range(
    config: &SampleConfig,
    range: std::ops::Range<usize>,
) -> Vec<PatchIndicators> {
    sample_range(config, range, true)
}

fn sample_range(
    config: &SampleConfig,
    range: std::ops::Range<usize>,
    rotated: bool,
) -> Vec<PatchIndicators> {
    let layout = PatchLayout::memory(config.l);
    range
        .into_par_iter()
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(
                config.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let mut defects = config.model.sample(&layout, config.rate, &mut rng);
            if rotated {
                defects = defects.swapped_orientation(config.l);
            }
            PatchIndicators::of(&AdaptedPatch::new(layout.clone(), &defects))
        })
        .collect()
}

/// The orientation a rotatable chiplet is used in: the one with the
/// larger distance, then the fewer shortest logicals; `a` on a tie.
pub fn better<'a>(a: &'a PatchIndicators, b: &'a PatchIndicators) -> &'a PatchIndicators {
    let key = |p: &PatchIndicators| (p.distance(), -p.shortest_logical_count());
    if key(b).partial_cmp(&key(a)) == Some(std::cmp::Ordering::Greater) {
        b
    } else {
        a
    }
}

/// A yield estimate from sampled chiplets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YieldEstimate {
    /// Accepted chiplets.
    pub kept: usize,
    /// Fabricated chiplets.
    pub total: usize,
}

impl YieldEstimate {
    /// The yield fraction.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.kept as f64 / self.total as f64
        }
    }
}

/// Computes the yield of a sampled population under a quality target.
pub fn yield_from_indicators(
    indicators: &[PatchIndicators],
    target: &QualityTarget,
) -> YieldEstimate {
    YieldEstimate {
        kept: indicators.iter().filter(|i| target.accepts(i)).count(),
        total: indicators.len(),
    }
}

/// Average fabricated physical qubits per accepted logical qubit.
///
/// Returns infinity at zero yield.
pub fn cost_per_logical(l: u32, yield_fraction: f64) -> f64 {
    let qubits = (2 * l * l - 1) as f64;
    if yield_fraction <= 0.0 {
        f64::INFINITY
    } else {
        qubits / yield_fraction
    }
}

/// Overhead factor relative to the ideal defect-free cost of a
/// distance-`d_target` logical qubit (`2 d² − 1` physical qubits).
pub fn overhead_factor(l: u32, yield_fraction: f64, d_target: u32) -> f64 {
    cost_per_logical(l, yield_fraction) / (2 * d_target * d_target - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_gives_full_yield() {
        let config = SampleConfig::new(5, DefectModel::LinkAndQubit, 0.0);
        let inds = sample_indicators_range(&config, 0..50);
        let y = yield_from_indicators(&inds, &QualityTarget::defect_free(5));
        assert_eq!(y.fraction(), 1.0);
    }

    #[test]
    fn yield_decreases_with_rate() {
        let target = QualityTarget::defect_free(5);
        let mut fractions = Vec::new();
        for rate in [0.002, 0.02] {
            let config = SampleConfig::new(7, DefectModel::LinkAndQubit, rate);
            let inds = sample_indicators_range(&config, 0..400);
            fractions.push(yield_from_indicators(&inds, &target).fraction());
        }
        assert!(fractions[0] > fractions[1], "{fractions:?}");
    }

    #[test]
    fn larger_chiplets_tolerate_defects_for_fixed_target() {
        // At a visible defect rate the l=7 chiplet has higher yield for
        // a d=5 target than the intolerant l=5 chiplet.
        let target = QualityTarget::defect_free(5);
        let rate = 0.01;
        let config = SampleConfig::new(7, DefectModel::LinkAndQubit, rate);
        let y7 =
            yield_from_indicators(&sample_indicators_range(&config, 0..400), &target).fraction();
        let y5 = DefectModel::LinkAndQubit.defect_free_probability(&PatchLayout::memory(5), rate);
        assert!(y7 > y5, "y7={y7} y5={y5}");
    }

    #[test]
    fn orientation_freedom_never_hurts() {
        let target = QualityTarget::defect_free(5);
        let config = SampleConfig::new(7, DefectModel::LinkAndQubit, 0.01);
        let primary = sample_indicators_range(&config, 0..300);
        let rotated: Vec<PatchIndicators> = primary
            .iter()
            .zip(&sample_rotated_range(&config, 0..300))
            .map(|(a, b)| better(a, b).clone())
            .collect();
        let y0 = yield_from_indicators(&primary, &target).fraction();
        let y1 = yield_from_indicators(&rotated, &target).fraction();
        assert!(
            y1 + 0.03 >= y0,
            "orientation freedom reduced yield: {y0} -> {y1}"
        );
    }

    #[test]
    fn overhead_factor_at_full_yield_is_size_ratio() {
        let f = overhead_factor(9, 1.0, 9);
        assert!((f - 1.0).abs() < 1e-12);
        let f = overhead_factor(11, 1.0, 9);
        assert!((f - (241.0 / 161.0)).abs() < 1e-12);
    }

    #[test]
    fn range_sampling_concatenates_to_the_full_draw() {
        // The property adaptive callers rely on: stitching together
        // disjoint index ranges reproduces the one-shot population
        // bit-exactly, regardless of where the cuts fall, in either
        // orientation.
        let config = SampleConfig::new(5, DefectModel::LinkAndQubit, 0.02);
        let sample = [sample_indicators_range, sample_rotated_range];
        for draw in sample {
            let whole = draw(&config, 0..48);
            for cut in [0usize, 1, 17, 47, 48] {
                let mut stitched = draw(&config, 0..cut);
                stitched.extend(draw(&config, cut..48));
                assert_eq!(stitched, whole, "cut at {cut} changed the population");
            }
        }
        // The rotation is applied: at l = 5, 2 % some chiplet adapts
        // differently in the other orientation.
        assert_ne!(
            sample_indicators_range(&config, 0..48),
            sample_rotated_range(&config, 0..48)
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let config = SampleConfig::new(5, DefectModel::LinkAndQubit, 0.02);
        let distances = || -> Vec<u32> {
            sample_indicators_range(&config, 0..64)
                .iter()
                .map(|i| i.distance())
                .collect()
        };
        assert_eq!(distances(), distances());
    }
}
