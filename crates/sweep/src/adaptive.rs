//! CI-targeted shot allocation: spend Monte-Carlo shots where the
//! logical-error-rate estimate is loose instead of uniformly.
//!
//! A sweep point's statistical quality is its *relative* Wilson 95%
//! interval width, `(hi − lo) / ler`. At fixed shot count that width is
//! roughly `2z·√((1−ler)/(ler·n))` — low-LER points (low physical `p`,
//! high distance) need orders of magnitude more shots than high-LER
//! points for the same relative precision. The controller therefore
//! runs the sweep in rounds: after each round it recomputes every
//! point's width, predicts the shot count needed to hit the target from
//! the `width ∝ 1/√n` law, and allocates the difference (growth-capped,
//! rounded up to whole batches) to the points still short of target.
//! Converged points receive nothing.
//!
//! Every decision is a pure function of the accumulated tallies, which
//! is what makes interrupted-and-resumed adaptive sweeps bit-exact: the
//! resumed process recomputes the same allocations the uninterrupted
//! one would have made.

use crate::checkpoint::PointTally;
use dqec_chiplet::experiment::LerPoint;

/// The adaptive controller's tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Target relative width of the 95% Wilson interval,
    /// `(hi − lo) / ler` (e.g. `0.2` for ±10%-ish error bars).
    pub rel_width: f64,
    /// Per-round growth cap: a point may at most multiply its
    /// accumulated shots by this factor in one round, so one noisy
    /// early estimate cannot trigger a huge misallocation.
    pub growth: f64,
}

impl Precision {
    /// A controller targeting the given relative CI width.
    pub fn new(rel_width: f64) -> Self {
        Precision {
            rel_width,
            growth: 4.0,
        }
    }
}

/// The relative width of a tally's 95% Wilson interval (infinite until
/// a failure has been observed — with zero failures the LER estimate
/// has no scale yet).
pub fn relative_width(tally: &PointTally) -> f64 {
    if tally.shots == 0 || tally.failures == 0 {
        return f64::INFINITY;
    }
    let pt = LerPoint {
        p: 0.0,
        shots: tally.shots,
        failures: tally.failures,
    };
    let (lo, hi) = pt.ci95();
    (hi - lo) / pt.ler()
}

impl Precision {
    /// Whether a point's tally meets the target (or has exhausted its
    /// shot budget `cap`).
    pub fn converged(&self, tally: &PointTally, cap: usize) -> bool {
        tally.shots >= cap || relative_width(tally) <= self.rel_width
    }

    /// How many *additional* shots to allocate to a point this round:
    /// zero when converged, otherwise the predicted shortfall under the
    /// `width ∝ 1/√n` law, growth-capped and clamped to the remaining
    /// budget. The caller rounds up to whole batches (the RNG-stream
    /// allocation unit).
    pub fn allocate(&self, tally: &PointTally, cap: usize, batch: usize) -> usize {
        if self.converged(tally, cap) {
            return 0;
        }
        if tally.shots == 0 {
            // Nothing measured yet: one batch to get a first estimate.
            return batch.min(cap);
        }
        let width = relative_width(tally);
        let want = if width.is_finite() {
            let factor = (width / self.rel_width).powi(2);
            // Predicted total need; the growth cap tames early noise.
            ((tally.shots as f64) * factor.min(self.growth)).ceil() as usize
        } else {
            // No failures yet: double and re-examine.
            tally.shots.saturating_mul(2)
        };
        want.min(cap).saturating_sub(tally.shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(shots: usize, failures: usize) -> PointTally {
        PointTally {
            shots,
            failures,
            next_batch: (shots / 1024) as u64,
        }
    }

    #[test]
    fn relative_width_shrinks_with_shots_at_fixed_rate() {
        let loose = relative_width(&tally(1_000, 10));
        let tight = relative_width(&tally(100_000, 1_000));
        assert!(loose.is_finite() && tight.is_finite());
        assert!(
            tight < loose / 5.0,
            "100x shots should shrink width ~10x: {loose} -> {tight}"
        );
    }

    #[test]
    fn zero_failures_have_infinite_width_and_double() {
        let p = Precision::new(0.2);
        assert!(relative_width(&tally(5_000, 0)).is_infinite());
        assert_eq!(p.allocate(&tally(5_000, 0), 1 << 20, 1024), 5_000);
    }

    #[test]
    fn converged_points_receive_nothing() {
        let p = Precision::new(0.5);
        let t = tally(200_000, 20_000);
        assert!(p.converged(&t, usize::MAX));
        assert_eq!(p.allocate(&t, usize::MAX, 1024), 0);
    }

    #[test]
    fn loose_points_receive_growth_capped_allocations() {
        let p = Precision::new(0.05);
        let t = tally(1_000, 10);
        let alloc = p.allocate(&t, usize::MAX, 1024);
        // Far from target: the growth cap (4x) binds.
        assert_eq!(alloc, 3_000, "4x growth from 1000 shots");
    }

    #[test]
    fn allocations_respect_the_budget_cap() {
        let p = Precision::new(0.01);
        let t = tally(10_000, 100);
        assert_eq!(p.allocate(&t, 12_000, 1024), 2_000);
        assert!(p.converged(&tally(12_000, 120), 12_000));
        assert_eq!(p.allocate(&tally(12_000, 120), 12_000, 1024), 0);
    }

    #[test]
    fn first_round_is_one_batch() {
        let p = Precision::new(0.1);
        assert_eq!(p.allocate(&tally(0, 0), usize::MAX, 4096), 4096);
        assert_eq!(p.allocate(&tally(0, 0), 1000, 4096), 1000);
    }
}
