//! Summary statistics.

/// Median of `v` (mean of the middle two for even lengths); `0.0` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile rule: the nearest-rank `want` percentile of `sorted`
/// (ascending) if at least [`MIN_BEYOND`] samples lie beyond it, else the
/// highest percentile that still has that many beyond. Returns the
/// percentile actually reported and its value; `None` with too few
/// samples for any tail.
pub fn tail(sorted: &[u64], want: f64) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((want / 100.0) * n as f64).ceil() as usize;
    let k = rank.clamp(1, n) - 1;
    let k = k.min(n - 1 - MIN_BEYOND);
    Some((100.0 * (k + 1) as f64 / n as f64, sorted[k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 99.0), Some((99.0, 990)));
        assert_eq!(v.len() - 990, 10, "exactly ten samples lie beyond p99");
    }

    #[test]
    fn short_runs_report_the_highest_percentile_with_ten_beyond() {
        let v: Vec<u64> = (1..=500).collect();
        let (pct, x) = tail(&v, 99.0).unwrap();
        assert_eq!(x, 490);
        assert_eq!(pct, 98.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), MIN_BEYOND);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 99.0), Some((90.0, 90)));
        // A lower request that already has enough beyond it is kept.
        assert_eq!(tail(&v, 50.0), Some((50.0, 50)));
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(tail(&v, 99.0), None);
        assert_eq!(
            tail(&(1..=11).collect::<Vec<u64>>(), 99.0),
            Some((100.0 / 11.0, 1))
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
