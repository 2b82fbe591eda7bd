//! Order statistics shared by the run and compare modes.

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of `xs`, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Samples a percentile must leave strictly above it before it is
/// reported: fewer and the tail is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// sample with at least `q` of the samples at or below it.
///
/// Refuses (`Err`) when fewer than [`MIN_BEYOND`] samples lie beyond
/// the rank — p999 needs at least 10,000 samples.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    let n = sorted.len();
    // The epsilon keeps float noise in `q * n` (0.999 is inexact) from
    // bumping an integral rank up by one.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), (2.0, 6.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        let short: Vec<u64> = (0..9_999).collect();
        assert!(percentile(&short, 0.999).is_err(), "9 samples beyond p999");
        let enough: Vec<u64> = (0..10_000).collect();
        assert_eq!(percentile(&enough, 0.999), Ok(9_989));
        assert_eq!(percentile(&enough, 0.5), Ok(4_999));
        assert!(
            percentile(&[1, 2, 3], 0.5).is_err(),
            "tiny samples refuse p50 too"
        );
    }
}
