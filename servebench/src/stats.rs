//! Order statistics over latency samples.

/// The nearest-rank `q`-quantile of ascending `sorted` samples, with
/// the number of samples ranked beyond it: rank `ceil(q * n)`, 1-based.
/// `None` when there are no samples.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some((5.0, 5)));
        assert_eq!(nearest_rank(&v, 0.99), Some((10.0, 0)));
        assert_eq!(nearest_rank(&v, 0.0), Some((1.0, 9)));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn p99_tail_count_needs_a_thousand_samples() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), Some((989.0, 10)));
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99).map(|(_, tail)| tail), Some(9));
    }

    #[test]
    fn tail_counts_ranks_not_distinct_values() {
        // Ties above the rank still count as samples beyond it.
        let v = [1.0, 2.0, 2.0, 2.0];
        assert_eq!(nearest_rank(&v, 0.5), Some((2.0, 2)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }
}
