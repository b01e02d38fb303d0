//! Logical-error-rate points and log-log slope fits.
//!
//! A [`LerPoint`] is what one Monte-Carlo measurement of the paper's
//! memory or stability experiment yields (the pipeline that produces
//! them is [`crate::runner`]); the "slope" of log(LER) versus log(p)
//! over a low-p window, [`fit_loglog`], is the paper's measure of
//! effective distance (Figs. 5–11).

/// One logical-error-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LerPoint {
    /// Physical (two-qubit gate) error rate.
    pub p: f64,
    /// Shots sampled.
    pub shots: usize,
    /// Logical failures observed.
    pub failures: usize,
}

impl LerPoint {
    /// The logical error rate estimate (0 when no shots were sampled,
    /// so degenerate sweep points render as a rate instead of NaN).
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// The 95% Wilson confidence interval of the logical error rate, so
    /// curves carry error bars like the paper's plots. With no shots
    /// the interval is vacuous: `(0, 1)`.
    pub fn ci95(&self) -> (f64, f64) {
        if self.shots == 0 {
            return (0.0, 1.0);
        }
        let n = self.shots as f64;
        let p = self.failures as f64 / n;
        let z = 1.96f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

/// A least-squares line through log-log LER data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeFit {
    /// Gradient of ln(LER) vs ln(p) — the paper's "slope", ≈ αd.
    pub slope: f64,
    /// Intercept of the fit.
    pub intercept: f64,
    /// Points used (zero-failure points are skipped).
    pub points_used: usize,
}

/// Fits `ln(LER) = slope · ln(p) + intercept`, skipping points with no
/// observed failures. Returns `None` with fewer than two usable points.
pub fn fit_loglog(points: &[LerPoint]) -> Option<SlopeFit> {
    let usable: Vec<(f64, f64)> = points
        .iter()
        .filter(|pt| pt.failures > 0 && pt.p > 0.0)
        .map(|pt| (pt.p.ln(), pt.ler().ln()))
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let n = usable.len() as f64;
    let sx: f64 = usable.iter().map(|(x, _)| x).sum();
    let sy: f64 = usable.iter().map(|(_, y)| y).sum();
    let sxx: f64 = usable.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = usable.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some(SlopeFit {
        slope,
        intercept,
        points_used: usable.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ExperimentSpec, Runner};
    use dqec_core::adapt::AdaptedPatch;
    use dqec_core::defect::DefectSet;
    use dqec_core::layout::PatchLayout;
    use dqec_core::Coord;

    fn patch(l: u32) -> AdaptedPatch {
        AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new())
    }

    /// One sweep point of `spec` through the runner.
    fn point(spec: ExperimentSpec, p: f64, rounds: u32, shots: usize, seed: u64) -> LerPoint {
        let spec = spec.p(p).rounds(rounds).shots(shots).seed(seed);
        Runner::new().collect(&spec).unwrap().points[0]
    }

    fn memory_point(patch: AdaptedPatch, p: f64, rounds: u32, shots: usize, seed: u64) -> LerPoint {
        point(ExperimentSpec::memory(patch), p, rounds, shots, seed)
    }

    #[test]
    fn noiseless_memory_never_fails() {
        let pt = memory_point(patch(3), 0.0, 3, 2000, 1);
        assert_eq!(pt.failures, 0);
    }

    #[test]
    fn memory_point_is_reasonable_at_high_p() {
        let pt = memory_point(patch(3), 0.02, 3, 4000, 2);
        let ler = pt.ler();
        assert!(ler > 0.0 && ler < 0.5, "ler={ler}");
    }

    #[test]
    fn d5_beats_d3_below_threshold() {
        let p = 0.004;
        let l3 = memory_point(patch(3), p, 3, 30_000, 3).ler();
        let l5 = memory_point(patch(5), p, 5, 30_000, 4).ler();
        assert!(l5 < l3, "d=5 ({l5}) should beat d=3 ({l3}) at p={p}");
    }

    #[test]
    fn defective_patch_decodes() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let p = AdaptedPatch::new(PatchLayout::memory(5), &d);
        let pt = memory_point(p, 0.01, 4, 8000, 5);
        assert!(pt.ler() < 0.5);
    }

    #[test]
    fn stability_runs_and_fails_rarely_at_low_p() {
        let p = AdaptedPatch::new(PatchLayout::stability(4, 4), &DefectSet::new());
        let pt = point(ExperimentSpec::stability(p), 0.002, 8, 8000, 6);
        assert!(pt.ler() < 0.2, "ler={}", pt.ler());
    }

    #[test]
    fn stability_with_bad_qubit_fails_more() {
        let p = AdaptedPatch::new(PatchLayout::stability(4, 4), &DefectSet::new());
        let spec = ExperimentSpec::stability(p);
        let clean = point(spec.clone(), 0.004, 8, 20_000, 7).ler();
        let bad = point(spec.bad_qubit(Coord::new(3, 3), 0.25), 0.004, 8, 20_000, 7).ler();
        assert!(bad > clean, "bad qubit should hurt: {clean} vs {bad}");
    }

    #[test]
    fn fit_loglog_recovers_synthetic_slope() {
        let points: Vec<LerPoint> = [1e-3, 2e-3, 4e-3]
            .iter()
            .map(|&p: &f64| LerPoint {
                p,
                shots: 1_000_000,
                failures: (1e6 * 30.0 * p.powi(2)) as usize,
            })
            .collect();
        let fit = fit_loglog(&points).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.05, "slope={}", fit.slope);
    }

    #[test]
    fn zero_shot_point_has_zero_ler_and_vacuous_interval() {
        let pt = LerPoint {
            p: 1e-3,
            shots: 0,
            failures: 0,
        };
        assert_eq!(pt.ler(), 0.0);
        assert_eq!(pt.ci95(), (0.0, 1.0));
    }

    #[test]
    fn ci95_brackets_the_estimate() {
        let pt = LerPoint {
            p: 1e-3,
            shots: 1000,
            failures: 37,
        };
        let (lo, hi) = pt.ci95();
        assert!(lo < pt.ler() && pt.ler() < hi);
        assert!(lo > 0.02 && hi < 0.06);
    }

    #[test]
    fn fit_skips_zero_failure_points() {
        let points = vec![
            LerPoint {
                p: 1e-3,
                shots: 100,
                failures: 0,
            },
            LerPoint {
                p: 2e-3,
                shots: 100,
                failures: 1,
            },
        ];
        assert!(fit_loglog(&points).is_none());
    }
}
