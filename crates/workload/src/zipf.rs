//! Zipf-distributed sampling.
//!
//! The workload-skew attack and the skewed-data experiments need a
//! heavy-tailed distribution over values / query targets.  This is a simple
//! inverse-CDF Zipf sampler over ranks `0..n`.

use pds_common::{PdsError, Result};
use rand::Rng;

/// A Zipf distribution over `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with skew exponent `s`
    /// (`s = 0` is uniform; `s ≈ 1` is classic Zipf).
    ///
    /// Returns an error when `n == 0` or `s` is negative or not finite
    /// (NaN included) — both parameters reach it from callers' input
    /// through [`crate::QueryWorkload::zipf`], so bad input must surface as
    /// a [`PdsError`], not a panic.
    pub fn new(n: usize, s: f64) -> Result<Self> {
        if n == 0 {
            return Err(PdsError::Config("Zipf needs a non-empty domain".into()));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(PdsError::Config(format!(
                "Zipf exponent must be a finite value >= 0, got {s}"
            )));
        }
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating point drift.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (rank 0 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN in cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::rng::seeded_rng;

    #[test]
    fn pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(100, 1.0).unwrap();
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_respects_skew() {
        let z = Zipf::new(50, 1.2).unwrap();
        let mut rng = seeded_rng(5);
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 must be sampled much more often than rank 49.
        assert!(counts[0] > counts[49] * 5);
        assert!(counts.iter().sum::<u32>() == 20_000);
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(3, 2.0).unwrap();
        let mut rng = seeded_rng(6);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn invalid_parameters_are_errors_not_panics() {
        // Regression: these used to be `assert!`s, which became panics
        // reachable from `QueryWorkload::zipf`'s callers; NaN was silently
        // accepted and poisoned the CDF.
        assert!(Zipf::new(0, 1.0).is_err(), "empty domain");
        assert!(Zipf::new(10, -0.1).is_err(), "negative exponent");
        assert!(Zipf::new(10, f64::NAN).is_err(), "NaN exponent");
        assert!(Zipf::new(10, f64::INFINITY).is_err(), "infinite exponent");
        assert!(Zipf::new(1, 0.0).is_ok(), "minimal valid domain");
    }
}
