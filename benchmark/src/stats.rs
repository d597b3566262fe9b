//! Summary statistics over latency samples: medians, nearest-rank
//! percentiles, the geometric mean the paper summarizes query suites with,
//! and the "highest percentile the sample supports" rule.

/// Sort samples ascending (all values are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Nearest-rank percentile `p` in (0, 100] of an ascending slice; 0 when
/// the slice is empty, so a leg that produced no sample reports 0 and the
/// correctness gate (not a panic) flags it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples: the mean of the two middle values for an
/// even count, as `statistics.median` computes it.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The highest of the reporting percentiles that still has at least ten
/// samples beyond it, capped at `want`. A tail percentile with fewer
/// samples behind it is one outlier, not a measurement.
pub fn supported_percentile(samples: usize, want: f64) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s[..1], 99.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(supported_percentile(199, 99.0), 90.0);
        assert_eq!(supported_percentile(100, 99.0), 90.0);
        assert_eq!(supported_percentile(30, 99.0), 50.0);
        assert_eq!(supported_percentile(3, 99.0), 50.0);
        assert_eq!(supported_percentile(100_000, 99.0), 99.0);
    }
}
