//! Property-based tests for the fixed-point substrate.

use csd_fxp::{sigmoid_fx_lut, softsign_fx, Fixed, Fx6};
use proptest::prelude::*;

/// Values comfortably inside Fx6 range so checked ops never overflow; the
/// model's weights/activations live well inside [-100, 100].
fn small_f64() -> impl Strategy<Value = f64> {
    (-100.0f64..100.0).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    #[test]
    fn roundtrip_error_at_most_half_lsb(x in small_f64()) {
        fn err<const P: u32>(x: f64) -> f64 {
            (Fixed::<P>::from_f64(x).to_f64() - x).abs()
        }
        let errors = [err::<3>(x), err::<4>(x), err::<5>(x), err::<6>(x), err::<7>(x), err::<8>(x)];
        for (p, e) in (3..=8).zip(errors) {
            prop_assert!(e <= 0.5 / 10i64.pow(p) as f64 + 1e-12);
        }
    }

    #[test]
    fn add_is_exact(a in small_f64(), b in small_f64()) {
        let fa = Fx6::from_f64(a);
        let fb = Fx6::from_f64(b);
        // Fixed-point addition introduces no error beyond input quantization.
        let sum = (fa + fb).to_f64();
        let expected = fa.to_f64() + fb.to_f64();
        prop_assert!((sum - expected).abs() < 1e-12);
    }

    #[test]
    fn add_commutes(a in small_f64(), b in small_f64()) {
        let fa = Fx6::from_f64(a);
        let fb = Fx6::from_f64(b);
        prop_assert_eq!(fa + fb, fb + fa);
    }

    #[test]
    fn mul_commutes(a in small_f64(), b in small_f64()) {
        let fa = Fx6::from_f64(a);
        let fb = Fx6::from_f64(b);
        prop_assert_eq!(fa * fb, fb * fa);
    }

    #[test]
    fn mul_error_bounded(a in small_f64(), b in small_f64()) {
        let fa = Fx6::from_f64(a);
        let fb = Fx6::from_f64(b);
        // Error vs. the product of the *quantized* inputs is one rounding step.
        let got = (fa * fb).to_f64();
        let expected = fa.to_f64() * fb.to_f64();
        prop_assert!((got - expected).abs() <= 0.5 / 1e6 + 1e-9);
    }

    #[test]
    fn neg_is_involution(a in small_f64()) {
        let fa = Fx6::from_f64(a);
        prop_assert_eq!(-(-fa), fa);
    }

    #[test]
    fn dot_matches_f64_reference(
        xs in prop::collection::vec(small_f64(), 1..64),
        seed in any::<u64>(),
    ) {
        // Pair xs with a deterministic shuffle of itself.
        let mut ys = xs.clone();
        ys.rotate_left((seed as usize) % xs.len());
        let fa = Fx6::quantize_slice(&xs);
        let fb = Fx6::quantize_slice(&ys);
        let exact: f64 = fa.iter().zip(&fb)
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .sum();
        let got = Fx6::dot(&fa, &fb).to_f64();
        // Single terminal rescale: error stays within one LSB.
        prop_assert!((got - exact).abs() <= 1.0 / 1e6 + 1e-9 * xs.len() as f64);
    }

    #[test]
    fn softsign_in_open_unit_interval(a in small_f64()) {
        let y = softsign_fx(Fx6::from_f64(a)).to_f64();
        prop_assert!((-1.0..=1.0).contains(&y));
    }

    #[test]
    fn softsign_monotone(a in small_f64(), b in small_f64()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ylo = softsign_fx(Fx6::from_f64(lo));
        let yhi = softsign_fx(Fx6::from_f64(hi));
        prop_assert!(ylo <= yhi);
    }

    #[test]
    fn sigmoid_in_unit_interval_and_monotone(a in small_f64(), b in small_f64()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ylo = sigmoid_fx_lut(Fx6::from_f64(lo));
        let yhi = sigmoid_fx_lut(Fx6::from_f64(hi));
        prop_assert!(ylo.to_f64() >= 0.0 && yhi.to_f64() <= 1.0);
        prop_assert!(ylo <= yhi);
    }
}
