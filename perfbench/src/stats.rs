//! Order statistics with the benchmark's reporting rules.

/// Samples that must lie beyond a tail percentile before it is reported:
/// fewer, and the "p99" is an interpolation between a handful of values.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of `xs` (`p` in `[0, 100]`). `None` when `xs` is
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A tail percentile, reported only when at least [`MIN_BEYOND_TAIL`]
/// samples lie beyond its rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    if xs.len().saturating_sub(rank) < MIN_BEYOND_TAIL {
        return None;
    }
    percentile(xs, p)
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Median, or 0 for an empty slice.
pub fn median0(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Coefficient of variation (population standard deviation over mean);
/// 0 when the mean is 0.
pub fn cv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&xs, 99.0),
            None,
            "999 samples leave 9 beyond p99"
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
        // The median of a small sample is always reportable.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(tail_percentile(&[1.0; 20], 50.0), Some(1.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv(&[4.0, 4.0, 4.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
