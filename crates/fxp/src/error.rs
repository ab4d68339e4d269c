//! Quantization-error analysis for the scale-factor ablation.
//!
//! The paper fixes the decimal scale at 10^6 with a one-line justification
//! ("the vast majority of the floating point numbers used [...] are small").
//! This module provides the machinery to *test* that choice: analytic error
//! bounds and empirical sweeps over candidate scales, whose conclusions
//! this module's tests hold (the last full sweep is `EXPERIMENTS.md` row
//! 37a).

use crate::dynfixed::DynFixed;

/// The worst-case quantization error for a single value at scale
/// `10^scale_pow`: half of one least-significant step.
///
/// ```rust
/// use csd_fxp::quantization_bound;
/// assert_eq!(quantization_bound(6), 0.000_000_5);
/// ```
pub fn quantization_bound(scale_pow: u32) -> f64 {
    0.5 / 10i64.pow(scale_pow) as f64
}

/// Maximum absolute elementwise difference between a float slice and its
/// fixed-point round-trip at the given scale.
///
/// # Panics
///
/// Panics if any value is unrepresentable at the requested scale.
pub fn max_abs_error(values: &[f64], scale_pow: u32) -> f64 {
    values
        .iter()
        .map(|&v| (DynFixed::from_f64(v, scale_pow).to_f64() - v).abs())
        .fold(0.0, f64::max)
}

/// One row of a scale-factor sweep: empirical errors at a single scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSweepRow {
    /// Decimal scale exponent (the paper uses 6).
    pub scale_pow: u32,
    /// Worst-case single-value quantization error (analytic).
    pub bound: f64,
    /// Measured max round-trip error over the probe values.
    pub max_roundtrip_error: f64,
    /// Measured max error of quantized dot products vs. f64 reference.
    pub max_dot_error: f64,
}

/// Sweeps quantization error across decimal scales for a set of probe
/// values, reproducing the data behind the scale-factor ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSweep {
    rows: Vec<ScaleSweepRow>,
}

impl ScaleSweep {
    /// Runs the sweep for `scale_pows` over `values`, measuring both
    /// round-trip error and dot-product error (values dotted with their own
    /// reversal, a worst-case-ish mixing of magnitudes).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or a value is unrepresentable at one of
    /// the requested scales.
    pub fn run(values: &[f64], scale_pows: &[u32]) -> Self {
        assert!(!values.is_empty(), "scale sweep needs probe values");
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        let exact_dot: f64 = values.iter().zip(&reversed).map(|(a, b)| a * b).sum();
        let rows = scale_pows
            .iter()
            .map(|&p| {
                let qa: Vec<DynFixed> = values.iter().map(|&v| DynFixed::from_f64(v, p)).collect();
                let qb: Vec<DynFixed> =
                    reversed.iter().map(|&v| DynFixed::from_f64(v, p)).collect();
                let dot = DynFixed::dot(&qa, &qb).to_f64();
                ScaleSweepRow {
                    scale_pow: p,
                    bound: quantization_bound(p),
                    max_roundtrip_error: max_abs_error(values, p),
                    max_dot_error: (dot - exact_dot).abs(),
                }
            })
            .collect();
        Self { rows }
    }

    /// The sweep rows in ascending order of the requested scales.
    pub fn rows(&self) -> &[ScaleSweepRow] {
        &self.rows
    }

    /// The smallest scale exponent whose measured round-trip error stays at
    /// or below `tolerance`, if any.
    pub fn smallest_scale_within(&self, tolerance: f64) -> Option<u32> {
        self.rows
            .iter()
            .filter(|r| r.max_roundtrip_error <= tolerance)
            .map(|r| r.scale_pow)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes() -> Vec<f64> {
        // Magnitudes typical of trained LSTM weights (paper: "small numbers").
        (-40..=40).map(|i| i as f64 * 0.037 + 0.0123).collect()
    }

    #[test]
    fn bound_halves_lsb() {
        assert_eq!(quantization_bound(3), 0.0005);
        assert_eq!(quantization_bound(6), 0.0000005);
    }

    #[test]
    fn roundtrip_error_within_bound() {
        for p in [3, 4, 5, 6, 7, 8] {
            let err = max_abs_error(&probes(), p);
            assert!(
                err <= quantization_bound(p) + f64::EPSILON,
                "scale 10^{p}: {err}"
            );
        }
    }

    #[test]
    fn sweep_error_decreases_with_scale() {
        let sweep = ScaleSweep::run(&probes(), &[3, 4, 5, 6, 7, 8]);
        let rows = sweep.rows();
        assert_eq!(rows.len(), 6);
        for pair in rows.windows(2) {
            assert!(pair[1].max_roundtrip_error <= pair[0].max_roundtrip_error);
        }
    }

    #[test]
    fn papers_scale_six_is_sufficient() {
        // The detection task tolerates ~1e-4 parameter perturbation; 10^6
        // delivers 5e-7, two orders of margin — supporting the paper's pick.
        let sweep = ScaleSweep::run(&probes(), &[3, 4, 5, 6, 7, 8]);
        let min = sweep.smallest_scale_within(1e-4).expect("some scale fits");
        assert!(min <= 6);
        let row6 = &sweep.rows()[3];
        assert_eq!(row6.scale_pow, 6);
        assert!(row6.max_roundtrip_error <= 5e-7 + f64::EPSILON);
    }

    #[test]
    fn sweep_tolerance_unachievable() {
        let sweep = ScaleSweep::run(&probes(), &[3]);
        assert_eq!(sweep.smallest_scale_within(0.0), None);
    }
}
