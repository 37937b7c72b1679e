//! Order statistics over harness-taken samples.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Sort samples ascending (NaN-free by construction: they are durations).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Median of unsorted samples; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples.to_vec()), 0.5).unwrap_or(0.0)
}

/// How far apart repeated measurements of one metric lie, as a share of
/// their median: with four or more values the distance between the first
/// and third quartile exactly as Python's `statistics.quantiles(v, n=4)`
/// cuts them (what the driver of `BENCHMARK.json` computes over ten runs),
/// with fewer the full range.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    let width = if n >= 4 {
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        cut(3) - cut(1)
    } else {
        v.last().copied().unwrap_or(0.0) - v.first().copied().unwrap_or(0.0)
    };
    ratio(width, median(&v).abs())
}

/// `num / den`, `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&s, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&s, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn high_percentile_sits_below_the_maximum() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile_sorted(&s, 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn spread_matches_python_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 2, 4, 7], n=4) == [2.5, 5.5, 9.25]
        assert!((spread(&[10.0, 2.0, 4.0, 7.0]) - (9.25 - 2.5) / 5.5).abs() < 1e-12);
        // Fewer than four values: the full range over the median.
        assert!((spread(&[90.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn median_and_ratio_handle_empty_input() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
