//! Order statistics used by every workload: nearest-rank percentiles
//! (latency), plain medians (repeated set-ups, epoch intervals) and the
//! count of samples a percentile rests on.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `q` of all samples are at or below it.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the `q` percentile — the
/// support a tail percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample vector ascending (latencies are finite by
/// construction; `total_cmp` keeps the order total regardless).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
    }

    #[test]
    fn percentile_rounds_rank_up_on_small_samples() {
        let v = [10.0, 20.0, 30.0];
        // rank ceil(0.5 * 3) = 2
        assert_eq!(percentile(&v, 0.50), 20.0);
        // rank ceil(0.9 * 3) = 3
        assert_eq!(percentile(&v, 0.90), 30.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        assert_eq!(beyond(100, 0.50), 50);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1, 0.50), 0);
        assert_eq!(beyond(0, 0.50), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn sorted_orders_ascending() {
        assert_eq!(sorted(vec![3.0, -1.0, 2.0]), vec![-1.0, 2.0, 3.0]);
    }
}
