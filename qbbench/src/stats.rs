//! Order statistics over raw samples.
//!
//! Latency percentiles are exact nearest-rank values over every recorded
//! sample, not histogram buckets: `pds_obs::LatencySummary` buckets are
//! 2^¼ ≈ 19% wide, so its p50 jumps between bucket edges from run to run.

/// Samples a percentile needs beyond its rank before it is reported: a
/// p99 over fewer than 1,000 samples would be one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie above its rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts a sample set in place (NaN-free by construction: every sample is
/// an elapsed time or a count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The median of an unsorted sample set (mean of the middle two for an
/// even count), or 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how the repeatability of
/// a metric is judged. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_fixed_sample_set() {
        // 1..=100 ms: the p-th percentile by nearest rank is exactly p.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&samples, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
        // Ranks round up: of 30 samples, p50 is the 15th and p51 the 16th.
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(nearest_rank(&thirty, 50.0), Some(15.0));
        assert_eq!(nearest_rank(&thirty, 51.0), Some(16.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; p91 leaves 9.
        assert_eq!(nearest_rank(&samples, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&samples, 91.0), None);
        // p99 needs 1,000 samples.
        let mut many: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(nearest_rank(&many, 99.0), None);
        many.push(1000.0);
        assert_eq!(nearest_rank(&many, 99.0), Some(990.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        assert_eq!(median(&s), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&s) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[3.0, 1.5, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
