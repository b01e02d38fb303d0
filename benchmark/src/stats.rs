//! Order statistics the harness reports: medians over segments, the
//! quartile spread the acceptance rule uses, and the tail-percentile
//! rule of the metrics guide.

/// Sorted copy of `v` (NaN-free input assumed; timings never are NaN).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// The median of `v`: the middle value, or the mean of the two middle
/// values for an even count. `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Smallest and largest value (`(0, 0)` when empty).
pub fn min_max(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if v.is_empty() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method: the
/// `i`-th cut sits at position `i (m + 1) / 4` of the sorted data,
/// linearly interpolated and clamped to the ends) — the rule the
/// acceptance check applies to ten runs, restated here so `compare`
/// and `bench.seg_spread_frac` read the same way.
///
/// Fewer than two values have no spread: all three cuts are the value.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = i * (m + 1);
        let j = (pos / 4).clamp(1, m - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range over the median: the spread reading used for
/// both segments within a run and runs within a set.
pub fn iqr_frac(v: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(v);
    let med = median(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten samples beyond it among `n`, capped at `cap`; `None` when even
/// the 90th has fewer.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| p <= cap && (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The value at percentile `p` of `v` (nearest rank, so the reported
/// tail is always a latency some op really had).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        // Nine identical segments, one hit by a burst: total-work over
        // total-wall would move 10 %, the median does not move at all.
        let mut rates = vec![100.0; 9];
        rates[4] = 50.0;
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // outer cuts extrapolate past the data, as Python's do.
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[7.0; 9]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99, 100.0), None);
        assert_eq!(tail_percentile(100, 100.0), Some(90.0));
        assert_eq!(tail_percentile(199, 100.0), Some(90.0));
        assert_eq!(tail_percentile(200, 100.0), Some(95.0));
        assert_eq!(tail_percentile(1_000, 100.0), Some(99.0));
        assert_eq!(tail_percentile(9_999, 100.0), Some(99.0));
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(100_000, 100.0), Some(99.99));
        // A cap keeps a named metric (p99) from drifting upward.
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
