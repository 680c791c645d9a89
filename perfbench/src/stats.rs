//! Order statistics and ratio formatting for the benchmark's reports.

/// A sorted copy of `xs` (NaNs are not expected in measurements).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0 < p < 100`) by the "exclusive" rule Python's
/// `statistics.quantiles` uses: the rank `p/100 · (N + 1)` interpolated
/// between neighbours and clamped to the sample range.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let h = (p / 100.0 * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = h.floor() as usize;
            let frac = h - lo as f64;
            if lo >= n {
                v[n - 1]
            } else {
                v[lo - 1] + frac * (v[lo] - v[lo - 1])
            }
        }
    }
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(xs, n=4)` computes them.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (
        percentile(xs, 25.0),
        percentile(xs, 50.0),
        percentile(xs, 75.0),
    )
}

/// Candidate tail percentiles, lowest first.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `samples` beyond it, or `None` when even the median does not.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A ratio printed together with its base, e.g. `0.750 (3.0 / 4.0)`.
pub fn ratio_with_base(num: f64, den: f64) -> String {
    let ratio = if den == 0.0 { f64::NAN } else { num / den };
    format!("{ratio:.3} ({num} / {den})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 3.0, 7.0));
        // The median by quartiles agrees with median().
        assert_eq!(quartiles(&xs).1, median(&xs));
    }

    #[test]
    fn percentile_clamps_to_the_sample_range() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 99.0), 3.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn ratios_print_their_base() {
        assert_eq!(ratio_with_base(3.0, 4.0), "0.750 (3 / 4)");
        assert_eq!(ratio_with_base(1.5, 0.5), "3.000 (1.5 / 0.5)");
        assert!(ratio_with_base(1.0, 0.0).starts_with("NaN"));
    }
}
