//! Small statistics helpers shared by the workload and bench crates.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated percentile; 0 for an empty slice. `p` is clamped
/// to `[0, 100]` (out-of-range requests — including NaN, which clamps to
/// 0 — yield the nearest endpoint instead of indexing out of bounds).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A [`histogram`] request that cannot describe any bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramConfigError {
    /// `bins` was zero: no bucket can receive anything.
    ZeroBins,
    /// `max <= min`: the range spans no width to divide into buckets.
    EmptyRange {
        /// Requested lower edge.
        min: usize,
        /// Requested upper edge.
        max: usize,
    },
}

impl std::fmt::Display for HistogramConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramConfigError::ZeroBins => write!(f, "histogram needs at least one bin"),
            HistogramConfigError::EmptyRange { min, max } => {
                write!(f, "histogram range [{min}, {max}) is empty")
            }
        }
    }
}

impl std::error::Error for HistogramConfigError {}

/// Histogram of `values` over `bins` equal-width buckets spanning
/// `[min, max)`; values outside the range clamp to the edge buckets.
/// Returns `(bucket_lower_edges, counts)`, or a typed error for a
/// degenerate request (`bins == 0` or `max <= min`) instead of aborting.
pub fn histogram(
    values: &[usize],
    bins: usize,
    min: usize,
    max: usize,
) -> Result<(Vec<f64>, Vec<usize>), HistogramConfigError> {
    if bins == 0 {
        return Err(HistogramConfigError::ZeroBins);
    }
    if max <= min {
        return Err(HistogramConfigError::EmptyRange { min, max });
    }
    let width = (max - min) as f64 / bins as f64;
    let edges: Vec<f64> = (0..bins).map(|i| min as f64 + i as f64 * width).collect();
    let mut counts = vec![0usize; bins];
    for &v in values {
        let idx = (((v.saturating_sub(min)) as f64 / width) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    Ok((edges, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 25.0), 2.5);
    }

    #[test]
    fn percentile_at_an_integral_rank_returns_the_sample_itself() {
        let xs = [1.0, f64::INFINITY];
        assert_eq!(percentile(&xs, 100.0), f64::INFINITY, "not inf·1 + inf·0 = NaN");
        assert_eq!(percentile(&[f64::NEG_INFINITY, 2.0, 3.0], 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        // Regression: p > 100 used to index sorted[len] out of bounds.
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 150.0), 3.0);
        assert_eq!(percentile(&xs, -25.0), 1.0);
        assert_eq!(percentile(&xs, f64::NAN), 1.0, "NaN clamps to the low endpoint");
    }

    #[test]
    fn histogram_counts_everything_once() {
        let vals = [0usize, 5, 10, 99, 100, 250];
        let (edges, counts) = histogram(&vals, 10, 0, 100).expect("valid request");
        assert_eq!(edges.len(), 10);
        assert_eq!(counts.iter().sum::<usize>(), vals.len());
        // 100 and 250 clamp into the last bucket.
        assert_eq!(counts[9], 3);
    }

    #[test]
    fn histogram_rejects_degenerate_requests() {
        assert_eq!(histogram(&[1, 2], 0, 0, 10), Err(HistogramConfigError::ZeroBins));
        assert_eq!(
            histogram(&[1, 2], 4, 10, 10),
            Err(HistogramConfigError::EmptyRange { min: 10, max: 10 })
        );
        assert_eq!(
            histogram(&[1, 2], 4, 10, 3),
            Err(HistogramConfigError::EmptyRange { min: 10, max: 3 })
        );
        let msg = HistogramConfigError::EmptyRange { min: 10, max: 3 }.to_string();
        assert!(msg.contains("[10, 3)"), "got: {msg}");
    }
}
