//! Fixed-point activation functions.
//!
//! The paper replaces `tanh` with `softsign(x) = x / (|x| + 1)` because
//! `tanh` requires `exp()`, which is expensive on FPGA fabric (§III-D,
//! "Activation functions"). The sigmoid gate activations remain, implemented
//! here as the lookup table the fabric holds in one BRAM.

use crate::scaled::Fixed;

/// Exact fixed-point softsign: `x / (|x| + 1)`.
///
/// Works entirely on raw integers: `raw * SCALE / (|raw| + SCALE)`, so the
/// result has no error beyond the final rounding — precisely why the paper
/// prefers it on the FPGA.
///
/// ```rust
/// use csd_fxp::{softsign_fx, Fx6};
/// let y = softsign_fx(Fx6::from_f64(1.0));
/// assert_eq!(y.to_f64(), 0.5);
/// ```
pub fn softsign_fx<const P: u32>(x: Fixed<P>) -> Fixed<P> {
    // Fast path: when `raw * scale` fits comfortably in an i64 (always,
    // for the value ranges LSTM states reach), the same rounded division
    // runs in native 64-bit arithmetic instead of software i128 division.
    if x.raw().abs() <= i64::MAX / (2 * Fixed::<P>::SCALE) {
        let num = x.raw() * Fixed::<P>::SCALE;
        let den = x.raw().abs() + Fixed::<P>::SCALE;
        let half = den / 2;
        let out = if num >= 0 {
            (num + half) / den
        } else {
            (num - half) / den
        };
        return Fixed::from_raw(out);
    }
    let raw = x.raw() as i128;
    let scale = Fixed::<P>::SCALE as i128;
    let den = raw.abs() + scale;
    let num = raw * scale;
    let half = den / 2;
    let out = if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    };
    Fixed::from_raw(out as i64)
}

/// Fixed-point sigmoid via a 256-entry lookup table with linear
/// interpolation over `[-8, 8]` — the precision-oriented FPGA
/// implementation (one BRAM, one multiply), with absolute error below
/// 6 × 10⁻⁴: the inference engine's gate sigmoid.
pub fn sigmoid_fx_lut<const P: u32>(x: Fixed<P>) -> Fixed<P> {
    let table = sigmoid_table();
    let v = x.to_f64();
    if v <= -LUT_RANGE {
        return Fixed::ZERO;
    }
    if v >= LUT_RANGE {
        return Fixed::ONE;
    }
    let pos = (v + LUT_RANGE) / (2.0 * LUT_RANGE) * (LUT_ENTRIES as f64 - 1.0);
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    let y = if i + 1 < LUT_ENTRIES {
        table[i] * (1.0 - frac) + table[i + 1] * frac
    } else {
        table[i]
    };
    Fixed::from_f64(y)
}

/// Rounded division of raw integers, half-away-from-zero — the same
/// correction every fixed-point rescale in the workspace applies.
///
/// # Panics
///
/// Debug-asserts `den > 0`.
#[inline]
pub fn div_round_raw(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0);
    let half = den / 2;
    if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    }
}

/// Half-width of the sigmoid LUT's input domain: the table linearly
/// interpolates over `[-8, 8]` and saturates outside it.
pub const LUT_RANGE: f64 = 8.0;
/// Number of sigmoid LUT entries (one BRAM's worth).
pub const LUT_ENTRIES: usize = 256;

/// The BRAM contents: 256 true-sigmoid samples over `[-8, 8]`, computed
/// once per process. (The pre-optimization code recomputed the two
/// bracketing entries with `exp()` on every call — the software analogue
/// of re-deriving the BRAM image per lookup.)
///
/// Public so the lane-batched SIMD sigmoid in `csd-tensor` can derive
/// its slope–intercept copy from the *same* table the scalar path
/// interpolates — a different table would break the bit-identity
/// contract between the two paths.
pub fn sigmoid_lut_table() -> &'static [f64; LUT_ENTRIES] {
    sigmoid_table()
}

fn sigmoid_table() -> &'static [f64; LUT_ENTRIES] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; LUT_ENTRIES]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0; LUT_ENTRIES];
        for (k, slot) in table.iter_mut().enumerate() {
            let xk = -LUT_RANGE + (2.0 * LUT_RANGE) * k as f64 / (LUT_ENTRIES as f64 - 1.0);
            *slot = 1.0 / (1.0 + (-xk).exp());
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fx6;

    #[test]
    fn softsign_known_points() {
        assert_eq!(softsign_fx(Fx6::ZERO), Fx6::ZERO);
        assert_eq!(softsign_fx(Fx6::from_f64(1.0)).to_f64(), 0.5);
        assert_eq!(softsign_fx(Fx6::from_f64(-1.0)).to_f64(), -0.5);
        assert!((softsign_fx(Fx6::from_f64(3.0)).to_f64() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn softsign_is_odd() {
        for i in -50..=50 {
            let x = Fx6::from_f64(i as f64 * 0.17);
            assert_eq!(softsign_fx(x), -softsign_fx(-x));
        }
    }

    #[test]
    fn softsign_bounded_below_one() {
        for i in -100..=100 {
            let y = softsign_fx(Fx6::from_f64(i as f64 * 0.5)).to_f64();
            assert!(y > -1.0 && y < 1.0);
        }
    }

    #[test]
    fn softsign_close_to_tanh_shape() {
        // Same sign, same asymptotes; bounded divergence on [-2, 2].
        for i in -20..=20 {
            let x = i as f64 * 0.1;
            let s = softsign_fx(Fx6::from_f64(x)).to_f64();
            assert!((s - x.tanh()).abs() < 0.32);
            assert_eq!(s.signum(), x.tanh().signum());
        }
    }

    #[test]
    fn sigmoid_lut_is_tight() {
        for i in -200..=200 {
            let x = i as f64 * 0.06;
            let approx = sigmoid_fx_lut(Fx6::from_f64(x)).to_f64();
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!((approx - exact).abs() < 6e-4, "x={x}: {approx} vs {exact}");
        }
    }

    #[test]
    fn sigmoid_lut_saturates_cleanly() {
        assert_eq!(sigmoid_fx_lut(Fx6::from_f64(20.0)), Fx6::ONE);
        assert_eq!(sigmoid_fx_lut(Fx6::from_f64(-20.0)), Fx6::ZERO);
    }

    #[test]
    fn div_round_raw_rounds_half_away_from_zero() {
        assert_eq!(div_round_raw(5, 10), 1);
        assert_eq!(div_round_raw(4, 10), 0);
        assert_eq!(div_round_raw(-5, 10), -1);
        assert_eq!(div_round_raw(-4, 10), 0);
        assert_eq!(div_round_raw(15, 10), 2);
    }
}
