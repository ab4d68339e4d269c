//! Runtime-scaled decimal fixed-point numbers.
//!
//! [`DynFixed`] carries its decimal scale exponent at runtime, which lets the
//! scale-factor ablation (`EXPERIMENTS.md`, ablation `scale`) sweep
//! 10^3 … 10^8 with one code path. It trades a word of memory per value for
//! that flexibility; the hot inference path uses the compile-time
//! [`Fixed`](crate::Fixed) instead.

use std::fmt;

/// A decimal fixed-point number whose scale exponent is chosen at runtime.
///
/// # Example
///
/// ```rust
/// use csd_fxp::DynFixed;
///
/// let a = DynFixed::from_f64(0.5, 3); // scale 10^3
/// let b = DynFixed::from_f64(0.25, 3);
/// assert_eq!((a.mul(b)).to_f64(), 0.125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynFixed {
    raw: i64,
    scale_pow: u32,
}

impl DynFixed {
    /// Quantizes `value` at scale `10^scale_pow`, rounding half-away-from-zero.
    ///
    /// # Panics
    ///
    /// Panics if `scale_pow > 17` (scale would overflow `i64`) or the scaled
    /// value is out of range.
    pub fn from_f64(value: f64, scale_pow: u32) -> Self {
        assert!(scale_pow <= 17, "scale 10^{scale_pow} overflows i64");
        let scale = 10i64.pow(scale_pow) as f64;
        let scaled = (value * scale).round();
        assert!(
            scaled.is_finite() && scaled <= i64::MAX as f64 && scaled >= i64::MIN as f64,
            "value {value} not representable at scale 10^{scale_pow}"
        );
        Self {
            raw: scaled as i64,
            scale_pow,
        }
    }

    /// Recovers the floating-point value.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / 10i64.pow(self.scale_pow) as f64
    }

    /// The raw scaled integer.
    pub const fn raw(self) -> i64 {
        self.raw
    }

    /// The decimal scale exponent.
    pub const fn scale_pow(self) -> u32 {
        self.scale_pow
    }

    /// Adds two values.
    ///
    /// Deliberately an inherent method, not `std::ops::Add`: addition is
    /// only defined between equal scales, and the panic on mismatch
    /// should be visible at the call site, not hidden behind `+`.
    ///
    /// # Panics
    ///
    /// Panics when scales differ or the sum overflows.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Self) -> Self {
        assert_eq!(self.scale_pow, rhs.scale_pow, "scale mismatch");
        Self {
            raw: self
                .raw
                .checked_add(rhs.raw)
                .expect("dynfixed add overflow"),
            scale_pow: self.scale_pow,
        }
    }

    /// Multiplies two values, rescaling the double-width product.
    ///
    /// Deliberately an inherent method for the same reason as
    /// [`DynFixed::add`].
    ///
    /// # Panics
    ///
    /// Panics when scales differ or the rescaled product overflows.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Self) -> Self {
        assert_eq!(self.scale_pow, rhs.scale_pow, "scale mismatch");
        let den = 10i128.pow(self.scale_pow);
        let wide = self.raw as i128 * rhs.raw as i128;
        let half = den / 2;
        let raw = if wide >= 0 {
            (wide + half) / den
        } else {
            (wide - half) / den
        };
        Self {
            raw: i64::try_from(raw).expect("dynfixed mul overflow"),
            scale_pow: self.scale_pow,
        }
    }

    /// Dot product over equal-scale slices with one terminal rescale.
    ///
    /// # Panics
    ///
    /// Panics on length or scale mismatch, or terminal overflow.
    pub fn dot(lhs: &[Self], rhs: &[Self]) -> Self {
        assert_eq!(lhs.len(), rhs.len(), "dot product length mismatch");
        assert!(!lhs.is_empty(), "dot product of empty slices");
        let scale_pow = lhs[0].scale_pow;
        let mut acc: i128 = 0;
        for (a, b) in lhs.iter().zip(rhs) {
            assert_eq!(a.scale_pow, scale_pow, "scale mismatch");
            assert_eq!(b.scale_pow, scale_pow, "scale mismatch");
            acc += a.raw as i128 * b.raw as i128;
        }
        let den = 10i128.pow(scale_pow);
        let half = den / 2;
        let raw = if acc >= 0 {
            (acc + half) / den
        } else {
            (acc - half) / den
        };
        Self {
            raw: i64::try_from(raw).expect("dynfixed dot overflow"),
            scale_pow,
        }
    }
}

impl fmt::Display for DynFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}e-{}", self.raw, self.scale_pow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_error_shrinks_with_scale() {
        let x = 0.123_456_789;
        let coarse = (DynFixed::from_f64(x, 3).to_f64() - x).abs();
        let fine = (DynFixed::from_f64(x, 8).to_f64() - x).abs();
        assert!(fine < coarse);
    }

    #[test]
    fn mul_matches_fixed_at_same_scale() {
        let a = DynFixed::from_f64(1.5, 6);
        let b = DynFixed::from_f64(-2.25, 6);
        assert_eq!(a.mul(b).to_f64(), -3.375);
    }

    #[test]
    #[should_panic(expected = "scale mismatch")]
    fn mixed_scales_panic() {
        let a = DynFixed::from_f64(1.0, 3);
        let b = DynFixed::from_f64(1.0, 6);
        let _ = a.add(b);
    }

    #[test]
    fn dot_accumulates() {
        let a: Vec<_> = [1.0, 2.0, 3.0]
            .iter()
            .map(|&x| DynFixed::from_f64(x, 4))
            .collect();
        let b: Vec<_> = [4.0, 5.0, 6.0]
            .iter()
            .map(|&x| DynFixed::from_f64(x, 4))
            .collect();
        assert_eq!(DynFixed::dot(&a, &b).to_f64(), 32.0);
    }

    #[test]
    fn display_shows_scale() {
        let a = DynFixed::from_f64(1.5, 3);
        assert_eq!(a.to_string(), "1500e-3");
    }
}
