//! Compile-time-scaled decimal fixed-point numbers.
//!
//! [`Fixed<P>`] stores a real number `x` as the integer `round(x * 10^P)` in
//! an `i64`. The paper's configuration is `P = 6` (aliased as [`Fx6`]).
//! Multiplication uses an `i128` intermediate — mirroring the wide DSP
//! accumulator on the FPGA — and divides by the scale once to return to the
//! `10^P` representation, with round-half-away-from-zero to minimize the
//! finite-precision error the paper calls out in §III-D.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error produced when converting out-of-range values into [`Fixed`].
///
/// The backing `i64` can represent magnitudes up to roughly
/// `9.2e18 / 10^P`; deep-learning parameters are orders of magnitude
/// smaller, so in practice this error only surfaces on adversarial input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedError {
    value: f64,
    scale_pow: u32,
}

impl FixedError {
    /// The offending floating-point value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The decimal scale exponent of the target type.
    pub fn scale_pow(&self) -> u32 {
        self.scale_pow
    }
}

impl fmt::Display for FixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} does not fit in fixed-point with scale 10^{}",
            self.value, self.scale_pow
        )
    }
}

impl std::error::Error for FixedError {}

/// A decimal fixed-point number scaled by `10^P`.
///
/// `Fixed<6>` reproduces the paper's 10^6 scaling. All arithmetic is exact
/// except multiplication and division, which round half-away-from-zero after
/// rescaling (the paper: "we round the results to closely match the original
/// numbers").
///
/// # Example
///
/// ```rust
/// use csd_fxp::Fixed;
///
/// let a = Fixed::<6>::from_f64(1.25);
/// let b = Fixed::<6>::from_f64(-0.5);
/// assert_eq!((a * b).to_f64(), -0.625);
/// assert_eq!((a + b).to_f64(), 0.75);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fixed<const P: u32> {
    raw: i64,
}

/// The paper's configuration: decimal fixed point with scale factor 10^6.
pub type Fx6 = Fixed<6>;

impl<const P: u32> Fixed<P> {
    /// The integer scale factor `10^P`.
    pub const SCALE: i64 = 10i64.pow(P);

    /// The additive identity.
    pub const ZERO: Self = Self { raw: 0 };

    /// The multiplicative identity (`10^P` in raw form).
    pub const ONE: Self = Self { raw: Self::SCALE };

    /// Largest representable value.
    pub const MAX: Self = Self { raw: i64::MAX };

    /// Smallest (most negative) representable value.
    pub const MIN: Self = Self { raw: i64::MIN };

    /// Creates a fixed-point number from its raw `10^P`-scaled integer.
    ///
    /// ```rust
    /// use csd_fxp::Fx6;
    /// assert_eq!(Fx6::from_raw(1_500_000).to_f64(), 1.5);
    /// ```
    pub const fn from_raw(raw: i64) -> Self {
        Self { raw }
    }

    /// Converts a floating-point value, rounding half-away-from-zero.
    ///
    /// # Panics
    ///
    /// Panics if `value` is non-finite or its magnitude exceeds the
    /// representable range. Use [`Fixed::try_from_f64`] for fallible
    /// conversion.
    pub fn from_f64(value: f64) -> Self {
        Self::try_from_f64(value).expect("value representable in fixed point")
    }

    /// Fallible counterpart of [`Fixed::from_f64`].
    ///
    /// # Errors
    ///
    /// Returns [`FixedError`] when `value` is NaN, infinite, or out of the
    /// representable range for scale `10^P`.
    pub fn try_from_f64(value: f64) -> Result<Self, FixedError> {
        if !value.is_finite() {
            return Err(FixedError {
                value,
                scale_pow: P,
            });
        }
        let scaled = (value * Self::SCALE as f64).round();
        if scaled > i64::MAX as f64 || scaled < i64::MIN as f64 {
            return Err(FixedError {
                value,
                scale_pow: P,
            });
        }
        Ok(Self { raw: scaled as i64 })
    }

    /// Recovers the floating-point value.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / Self::SCALE as f64
    }

    /// The raw `10^P`-scaled integer, as shipped to the FPGA kernels.
    pub const fn raw(self) -> i64 {
        self.raw
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`Fixed::MIN`] (whose magnitude overflows).
    pub fn abs(self) -> Self {
        Self {
            raw: self.raw.checked_abs().expect("abs overflow"),
        }
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        self.raw.checked_add(rhs.raw).map(|raw| Self { raw })
    }

    /// Checked subtraction; `None` on overflow.
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.raw.checked_sub(rhs.raw).map(|raw| Self { raw })
    }

    /// Checked multiplication; `None` when the rescaled product overflows.
    ///
    /// The intermediate product lives in `i128` (scaled by `10^{2P}` — the
    /// paper's "product scales by 10^12" for `P = 6`) and is corrected back
    /// to `10^P` by a single rounded division.
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        let wide = self.raw as i128 * rhs.raw as i128;
        let raw = div_round_i128(wide, Self::SCALE as i128);
        i64::try_from(raw).ok().map(|raw| Self { raw })
    }

    /// Checked division; `None` when `rhs` is zero or the quotient overflows.
    pub fn checked_div(self, rhs: Self) -> Option<Self> {
        if rhs.raw == 0 {
            return None;
        }
        let wide = self.raw as i128 * Self::SCALE as i128;
        let raw = div_round_i128(wide, rhs.raw as i128);
        i64::try_from(raw).ok().map(|raw| Self { raw })
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_add(rhs.raw),
        }
    }

    /// Saturating multiplication (clamps to the representable range).
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = self.raw as i128 * rhs.raw as i128;
        let raw = div_round_i128(wide, Self::SCALE as i128);
        Self {
            raw: raw.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        }
    }

    /// Fixed-point dot product with a single terminal rescale.
    ///
    /// Products are accumulated at `10^{2P}` scale in an `i128` — exactly
    /// what an FPGA DSP multiply-accumulate cascade does — and divided by
    /// the scale once at the end, which loses less precision than rescaling
    /// after every multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the final rescaled
    /// sum overflows `i64`.
    ///
    /// ```rust
    /// use csd_fxp::Fx6;
    /// let a: Vec<Fx6> = [1.0, 2.0].iter().map(|&x| Fx6::from_f64(x)).collect();
    /// let b: Vec<Fx6> = [0.5, 0.25].iter().map(|&x| Fx6::from_f64(x)).collect();
    /// assert_eq!(Fx6::dot(&a, &b).to_f64(), 1.0);
    /// ```
    pub fn dot(lhs: &[Self], rhs: &[Self]) -> Self {
        assert_eq!(lhs.len(), rhs.len(), "dot product length mismatch");
        // Four independent accumulators break the loop-carried i128 add
        // chain (integer addition is associative, so the sum — and the
        // single terminal rounding — is unchanged).
        let (mut a0, mut a1, mut a2, mut a3) = (0i128, 0i128, 0i128, 0i128);
        let mut la = lhs.chunks_exact(4);
        let mut rb = rhs.chunks_exact(4);
        for (a, b) in (&mut la).zip(&mut rb) {
            a0 += a[0].raw as i128 * b[0].raw as i128;
            a1 += a[1].raw as i128 * b[1].raw as i128;
            a2 += a[2].raw as i128 * b[2].raw as i128;
            a3 += a[3].raw as i128 * b[3].raw as i128;
        }
        let mut total = (a0 + a1) + (a2 + a3);
        for (a, b) in la.remainder().iter().zip(rb.remainder()) {
            total += a.raw as i128 * b.raw as i128;
        }
        let raw = div_round_i128(total, Self::SCALE as i128);
        Self {
            raw: i64::try_from(raw).expect("dot product overflow"),
        }
    }

    /// Quantizes an entire floating-point slice.
    ///
    /// # Panics
    ///
    /// Panics if any element is out of range (see [`Fixed::from_f64`]).
    pub fn quantize_slice(values: &[f64]) -> Vec<Self> {
        values.iter().map(|&v| Self::from_f64(v)).collect()
    }
}

/// Rounded division: half-away-from-zero, matching the paper's rounding of
/// rescaled products.
///
/// When both operands fit comfortably in `i64` — the common case, since
/// activations and state stay small — the quotient is computed at 64-bit
/// width: same value, but a constant divisor (the scale, after inlining)
/// then compiles to a multiply instead of a 128-bit library division.
fn div_round_i128(num: i128, den: i128) -> i128 {
    debug_assert!(den > 0);
    const NARROW: i128 = (i64::MAX / 2) as i128;
    if (-NARROW..=NARROW).contains(&num) && den <= NARROW {
        let (n, d) = (num as i64, den as i64);
        let half = d / 2;
        let q = if n >= 0 {
            (n + half) / d
        } else {
            (n - half) / d
        };
        return q as i128;
    }
    let half = den / 2;
    if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    }
}

impl<const P: u32> fmt::Debug for Fixed<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed<{}>({} = {})", P, self.raw, self.to_f64())
    }
}

impl<const P: u32> fmt::Display for Fixed<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl<const P: u32> PartialOrd for Fixed<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const P: u32> Ord for Fixed<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.raw.cmp(&other.raw)
    }
}

impl<const P: u32> Add for Fixed<P> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("fixed-point add overflow")
    }
}

impl<const P: u32> AddAssign for Fixed<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const P: u32> Sub for Fixed<P> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).expect("fixed-point sub overflow")
    }
}

impl<const P: u32> SubAssign for Fixed<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const P: u32> Mul for Fixed<P> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs).expect("fixed-point mul overflow")
    }
}

impl<const P: u32> MulAssign for Fixed<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const P: u32> Div for Fixed<P> {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        self.checked_div(rhs)
            .expect("fixed-point division by zero or overflow")
    }
}

impl<const P: u32> Neg for Fixed<P> {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            raw: self.raw.checked_neg().expect("fixed-point neg overflow"),
        }
    }
}

impl<const P: u32> Sum for Fixed<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<const P: u32> From<i32> for Fixed<P> {
    fn from(value: i32) -> Self {
        Self {
            raw: value as i64 * Self::SCALE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_constant_matches_paper() {
        assert_eq!(Fx6::SCALE, 1_000_000);
    }

    #[test]
    fn from_f64_rounds_half_away_from_zero() {
        assert_eq!(Fx6::from_f64(0.000_000_5).raw(), 1);
        assert_eq!(Fx6::from_f64(-0.000_000_5).raw(), -1);
        assert_eq!(Fx6::from_f64(0.000_000_4).raw(), 0);
    }

    #[test]
    fn mul_rescales_product() {
        let a = Fx6::from_f64(1.5);
        let b = Fx6::from_f64(2.0);
        assert_eq!((a * b).to_f64(), 3.0);
        // 10^12-scaled intermediate corrected back to 10^6.
        assert_eq!((a * b).raw(), 3_000_000);
    }

    #[test]
    fn mul_small_values_keeps_precision() {
        let a = Fx6::from_f64(0.001);
        let b = Fx6::from_f64(0.002);
        assert!(((a * b).to_f64() - 0.000_002).abs() < 1e-9);
    }

    #[test]
    fn div_inverts_mul() {
        let a = Fx6::from_f64(3.0);
        let b = Fx6::from_f64(1.5);
        assert_eq!((a / b).to_f64(), 2.0);
    }

    #[test]
    fn div_by_zero_is_none() {
        assert!(Fx6::from_f64(1.0).checked_div(Fx6::ZERO).is_none());
    }

    #[test]
    fn non_finite_rejected() {
        assert!(Fx6::try_from_f64(f64::NAN).is_err());
        assert!(Fx6::try_from_f64(f64::INFINITY).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Fx6::try_from_f64(1e19).is_err());
        let err = Fx6::try_from_f64(-1e19).unwrap_err();
        assert_eq!(err.scale_pow(), 6);
        assert!(err.to_string().contains("10^6"));
    }

    #[test]
    fn dot_matches_float_reference() {
        let a = [0.25, -1.5, 3.0, 0.125];
        let b = [4.0, 2.0, -1.0, 8.0];
        let fa = Fx6::quantize_slice(&a);
        let fb = Fx6::quantize_slice(&b);
        let expected: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((Fx6::dot(&fa, &fb).to_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn dot_single_rescale_beats_per_product_rescale() {
        // Summing many tiny products: per-product rescale floors each to 0,
        // while the accumulator keeps the mass.
        let tiny = Fx6::from_f64(0.0004);
        let v = vec![tiny; 1000];
        let per_product: Fx6 = v.iter().map(|&x| x * x).sum();
        let accumulated = Fx6::dot(&v, &v);
        let exact = 0.0004f64 * 0.0004 * 1000.0;
        assert!((accumulated.to_f64() - exact).abs() < 1e-6);
        assert!((per_product.to_f64() - exact).abs() >= (accumulated.to_f64() - exact).abs());
    }

    #[test]
    fn ordering_and_identities() {
        assert!(Fx6::ZERO < Fx6::ONE);
        assert_eq!(Fx6::ONE * Fx6::ONE, Fx6::ONE);
        assert_eq!(Fx6::from(3) - Fx6::from(3), Fx6::ZERO);
        assert_eq!(-Fx6::ONE + Fx6::ONE, Fx6::ZERO);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(Fx6::MAX.saturating_add(Fx6::ONE), Fx6::MAX);
        let big = Fx6::from_raw(i64::MAX / 2);
        assert_eq!(big.saturating_mul(Fx6::from(1_000_000)), Fx6::MAX);
    }

    #[test]
    fn debug_display_nonempty() {
        assert!(!format!("{:?}", Fx6::ZERO).is_empty());
        assert_eq!(format!("{}", Fx6::from_f64(1.5)), "1.5");
    }

    #[test]
    fn sum_iterator() {
        let xs: Vec<Fx6> = (1..=4).map(Fx6::from).collect();
        assert_eq!(xs.into_iter().sum::<Fx6>(), Fx6::from(10));
    }

    #[test]
    fn quantize_dequantize_roundtrip() {
        let values = [0.123456, -9.87654, 0.0, 2.5];
        let fx = Fx6::quantize_slice(&values);
        for (orig, rec) in values.iter().zip(&fx) {
            assert!((orig - rec.to_f64()).abs() <= 0.5 / Fx6::SCALE as f64 + f64::EPSILON);
        }
    }

    /// The paper's 10^6 scale (§III-D) over probes of trained-weight
    /// magnitude: the round-trip error stays within half a step at every
    /// scale from 10^3 to 10^8, never grows with the scale, and is at most
    /// 5e-7 at 10^6. EXPERIMENTS.md row 40a has the last sweep's table.
    #[test]
    fn round_trip_error_falls_with_the_scale_and_six_is_enough() {
        fn max_error<const P: u32>() -> f64 {
            (-40..=40)
                .map(|i| i as f64 * 0.037 + 0.0123)
                .map(|v| (Fixed::<P>::from_f64(v).to_f64() - v).abs())
                .fold(0.0, f64::max)
        }
        let errors = [
            max_error::<3>(),
            max_error::<4>(),
            max_error::<5>(),
            max_error::<6>(),
            max_error::<7>(),
            max_error::<8>(),
        ];
        for (p, err) in (3..=8).zip(errors) {
            assert!(
                err <= 0.5 / 10i64.pow(p) as f64 + f64::EPSILON,
                "scale 10^{p}: {err}"
            );
        }
        for pair in errors.windows(2) {
            assert!(pair[1] <= pair[0]);
        }
        assert!(errors[3] <= 5e-7 + f64::EPSILON);
    }

    #[test]
    fn other_scales_work() {
        let a = Fixed::<3>::from_f64(1.5);
        assert_eq!(a.raw(), 1500);
        let b = Fixed::<8>::from_f64(0.25);
        assert_eq!(b.raw(), 25_000_000);
    }
}
