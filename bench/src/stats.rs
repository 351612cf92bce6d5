//! Order statistics for the benchmark's reports.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples: `ceil(q * n)`,
/// at least 1.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[nearest_rank(n, q) - 1],
    }
}

/// The requested tail percentile when at least [`TAIL_SUPPORT`] samples lie
/// beyond it, otherwise the highest rank that still has that many beyond it
/// (the median at the least). Returns the value and the quantile reported.
pub fn tail_percentile(sorted: &[u64], q: f64) -> (u64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0, q);
    }
    let wanted = nearest_rank(n, q);
    let supported = n.saturating_sub(TAIL_SUPPORT).max(nearest_rank(n, 0.5));
    let rank = wanted.min(supported);
    let reported = if rank == wanted {
        q
    } else {
        rank as f64 / n as f64
    };
    (sorted[rank - 1], reported)
}

/// Median of unordered values (mean of the middle pair when even; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 0.5 * 5 = 2.5 -> rank 3.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly ten beyond it.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 0.99), (990, 0.99));
        // 999 samples: rank ceil(989.01) = 990 leaves nine beyond, so the
        // report falls back to rank 989.
        let v: Vec<u64> = (1..=999).collect();
        let (value, q) = tail_percentile(&v, 0.99);
        assert_eq!(value, 989);
        assert!(q < 0.99);
        // 200 samples support p95 (rank 190) but not p99.
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_percentile(&v, 0.95), (190, 0.95));
        assert_eq!(tail_percentile(&v, 0.99).0, 190);
        // Too few samples for any tail: the median is the floor.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(tail_percentile(&v, 0.95).0, 6);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
