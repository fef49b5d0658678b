//! Order statistics over raw samples.
//!
//! Every figure the benchmark reports is computed from the raw samples
//! of the run (no histogram buckets), so a percentile is an exact order
//! statistic of what was measured.

/// Smallest number of samples that must lie beyond a reported
/// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of `samples` as the nearest-rank
/// order statistic, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    if sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether `a` and `b` agree within `rel` relative to `scale` (or to the
/// larger magnitude of the two when that is bigger).
pub fn close(a: f64, b: f64, rel: f64, scale: f64) -> bool {
    let scale = scale.abs().max(a.abs()).max(b.abs());
    (a - b).abs() <= rel * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        assert_eq!(percentile(&samples[..999], 99.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
