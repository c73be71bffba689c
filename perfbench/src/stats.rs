//! Exact statistics over raw samples.
//!
//! Percentiles are read from the sorted samples themselves (nearest
//! rank), never from bucketed histograms, and every percentile carries
//! its sample count. A tail percentile is refused unless at least
//! [`MIN_BEYOND`] samples lie beyond it, so a p99 never rests on one or
//! two slow requests.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Number of samples it was read from.
    pub samples: usize,
    /// Number of samples strictly after it in sorted order.
    pub beyond: usize,
}

/// The `q`-quantile (`0 < q <= 1`) by nearest rank: the smallest sample
/// with at least `q · n` samples at or below it. `None` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Like [`percentile`], but refuses (`None`) a tail percentile with
/// fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    percentile(samples, q).filter(|p| p.beyond >= MIN_BEYOND)
}

/// Median of `samples` (mean of the two middle samples for even
/// counts); `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&xs, 1.0).unwrap().value, 100.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5).unwrap().value, 3.0);
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn distinct_quantiles_stay_distinct() {
        // The log2-bucket histogram reports p50 = p95 = p99 for these;
        // exact ranks must not.
        let xs: Vec<f64> = (0..1000).map(|i| 40.0 + f64::from(i) * 0.01).collect();
        let p50 = percentile(&xs, 0.50).unwrap().value;
        let p95 = percentile(&xs, 0.95).unwrap().value;
        let p99 = percentile(&xs, 0.99).unwrap().value;
        assert!(p50 < p95 && p95 < p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&short, 0.99).is_none());
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail_percentile(&long, 0.99).unwrap();
        assert_eq!(p99.beyond, 10);
        assert!(tail_percentile(&(0..19).map(f64::from).collect::<Vec<_>>(), 0.5).is_none());
        assert!(tail_percentile(&(0..20).map(f64::from).collect::<Vec<_>>(), 0.5).is_some());
    }

    #[test]
    fn empty_input_has_no_statistics() {
        assert!(percentile(&[], 0.5).is_none());
        assert!(median(&[]).is_none());
        assert_eq!(mean(&[]), 0.0);
    }
}
