//! Order statistics for the noise protocol: every reported timing is a
//! median with its quartiles and sample count.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample: a metric without a
    /// measurement is a bug in the runner, not a value to report.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Self {
            n: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }
}

/// The `p`-quantile of `sorted` by the exclusive method Python's
/// `statistics.quantiles` uses (position `p·(n+1)`, linear
/// interpolation, clamped to the extremes), so spreads computed here
/// and by an outside checker agree.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let below = pos.floor() as usize;
    let frac = pos - below as f64;
    let lo = sorted[below - 1];
    let hi = sorted[below.min(n - 1)];
    lo + (hi - lo) * frac
}

/// Arithmetic mean; 0 for an empty slice (a layer that did no work).
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
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
