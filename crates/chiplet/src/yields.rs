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
use dqec_core::defect::DefectSet;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Parameters of one chiplet sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Chiplet width (patch is `l x l`).
    pub l: u32,
    /// Defect model.
    pub model: DefectModel,
    /// Per-component fabrication error rate.
    pub rate: f64,
    /// Number of chiplets to fabricate.
    pub samples: usize,
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
            samples: 2000,
            seed: 0x5eed,
        }
    }
}

/// Samples `config.samples` chiplets and returns each one's indicators.
///
/// Work is spread over available CPU cores. Each chiplet gets its own
/// ChaCha8 stream keyed by `(seed, sample index)`, so the sampled
/// population is a pure function of the config — independent of thread
/// count and machine.
pub fn sample_indicators(config: &SampleConfig) -> Vec<PatchIndicators> {
    sample_indicators_range(config, 0..config.samples)
}

/// Samples only the chiplets with indices in `range` — a bit-exact
/// slice of the population [`sample_indicators`] draws, because every
/// index owns an independent ChaCha8 stream keyed by `(seed, index)`.
/// Adaptive callers grow their sample count incrementally
/// (`0..n`, then `n..m`, ...) and the concatenation equals a single
/// `0..m` draw; `config.samples` is ignored here.
pub fn sample_indicators_range(
    config: &SampleConfig,
    range: std::ops::Range<usize>,
) -> Vec<PatchIndicators> {
    sample_range(config, range, adapt)
}

/// [`sample_indicators_range`]'s chiplets in both orientations: `[0]`
/// as fabricated (exactly what that function returns) and `[1]` rotated
/// so data and syndrome roles swap (paper §4.1, Fig. 16), for
/// architectures that use the [`better`] of the two.
pub fn sample_orientations_range(
    config: &SampleConfig,
    range: std::ops::Range<usize>,
) -> Vec<[PatchIndicators; 2]> {
    sample_range(config, range, |layout, defects| {
        [
            adapt(layout, defects),
            adapt(layout, &defects.swapped_orientation(config.l)),
        ]
    })
}

fn sample_range<T: Send>(
    config: &SampleConfig,
    range: std::ops::Range<usize>,
    evaluate: impl Fn(&PatchLayout, &DefectSet) -> T + Sync,
) -> Vec<T> {
    let layout = PatchLayout::memory(config.l);
    range
        .into_par_iter()
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(
                config.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let defects = config.model.sample(&layout, config.rate, &mut rng);
            evaluate(&layout, &defects)
        })
        .collect()
}

fn adapt(layout: &PatchLayout, defects: &DefectSet) -> PatchIndicators {
    PatchIndicators::of(&AdaptedPatch::new(layout.clone(), defects))
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
        let config = SampleConfig {
            samples: 50,
            ..SampleConfig::new(5, DefectModel::LinkAndQubit, 0.0)
        };
        let inds = sample_indicators(&config);
        let y = yield_from_indicators(&inds, &QualityTarget::defect_free(5));
        assert_eq!(y.fraction(), 1.0);
    }

    #[test]
    fn yield_decreases_with_rate() {
        let target = QualityTarget::defect_free(5);
        let mut fractions = Vec::new();
        for rate in [0.002, 0.02] {
            let config = SampleConfig {
                samples: 400,
                ..SampleConfig::new(7, DefectModel::LinkAndQubit, rate)
            };
            let inds = sample_indicators(&config);
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
        let config = SampleConfig {
            samples: 400,
            ..SampleConfig::new(7, DefectModel::LinkAndQubit, rate)
        };
        let y7 = yield_from_indicators(&sample_indicators(&config), &target).fraction();
        let y5 = DefectModel::LinkAndQubit.defect_free_probability(&PatchLayout::memory(5), rate);
        assert!(y7 > y5, "y7={y7} y5={y5}");
    }

    #[test]
    fn orientation_freedom_never_hurts() {
        let target = QualityTarget::defect_free(5);
        let config = SampleConfig {
            samples: 300,
            ..SampleConfig::new(7, DefectModel::LinkAndQubit, 0.01)
        };
        let pairs = sample_orientations_range(&config, 0..config.samples);
        let primary: Vec<PatchIndicators> = pairs.iter().map(|[a, _]| a.clone()).collect();
        let rotated: Vec<PatchIndicators> =
            pairs.iter().map(|[a, b]| better(a, b).clone()).collect();
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
        // bit-exactly, regardless of where the cuts fall.
        let config = SampleConfig {
            samples: 48,
            ..SampleConfig::new(5, DefectModel::LinkAndQubit, 0.02)
        };
        let whole = sample_indicators(&config);
        for cut in [0usize, 1, 17, 47, 48] {
            let mut stitched = sample_indicators_range(&config, 0..cut);
            stitched.extend(sample_indicators_range(&config, cut..48));
            assert_eq!(stitched, whole, "cut at {cut} changed the population");
            let mut pairs = sample_orientations_range(&config, 0..cut);
            pairs.extend(sample_orientations_range(&config, cut..48));
            let primaries: Vec<PatchIndicators> = pairs.into_iter().map(|[a, _]| a).collect();
            assert_eq!(
                primaries, whole,
                "cut at {cut}: the primaries are another draw"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let config = SampleConfig {
            samples: 64,
            ..SampleConfig::new(5, DefectModel::LinkAndQubit, 0.02)
        };
        let a: Vec<u32> = sample_indicators(&config)
            .iter()
            .map(|i| i.distance())
            .collect();
        let b: Vec<u32> = sample_indicators(&config)
            .iter()
            .map(|i| i.distance())
            .collect();
        assert_eq!(a, b);
    }
}
