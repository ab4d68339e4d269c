//! Property-based tests for the linear-algebra substrate.

use csd_fxp::Fx6;
use csd_tensor::{Matrix, Vector};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, len..=len)
}

proptest! {
    #[test]
    fn dot_commutes(xs in small_vec(8), ys in small_vec(8)) {
        let a = Vector::from(xs);
        let b = Vector::from(ys);
        prop_assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn add_commutes(xs in small_vec(6), ys in small_vec(6)) {
        let a = Vector::from(xs);
        let b = Vector::from(ys);
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn hadamard_with_ones_is_identity(xs in small_vec(5)) {
        let a = Vector::from(xs.clone());
        let ones = Vector::from(vec![1.0; 5]);
        prop_assert_eq!(a.hadamard(&ones), a);
    }

    #[test]
    fn concat_length(xs in small_vec(4), ys in small_vec(7)) {
        let a = Vector::from(xs);
        let b = Vector::from(ys);
        prop_assert_eq!(a.concat(&b).len(), 11);
    }

    #[test]
    fn matvec_linear(flat in small_vec(12), xs in small_vec(4), ys in small_vec(4)) {
        let m = Matrix::from_flat(3, 4, flat);
        let x = Vector::from(xs);
        let y = Vector::from(ys);
        let lhs = m.matvec(&x.add(&y));
        let rhs = m.matvec(&x).add(&m.matvec(&y));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn transpose_preserves_elements(flat in small_vec(12)) {
        let m = Matrix::from_flat(3, 4, flat);
        let t = m.transpose();
        for r in 0..3 {
            for c in 0..4 {
                prop_assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn fixed_matvec_tracks_f64(flat in small_vec(12), xs in small_vec(4)) {
        let mf = Matrix::<f64>::from_flat(3, 4, flat.clone());
        let xf = Vector::<f64>::from(xs.clone());
        let mq = Matrix::<Fx6>::from_f64_flat(3, 4, &flat);
        let xq = Vector::<Fx6>::from_f64_slice(&xs);
        let yf = mf.matvec(&xf);
        let yq = mq.matvec(&xq);
        // 4-term dot of |v| <= 10 values: quantization error stays tiny.
        for (a, b) in yf.to_f64_vec().iter().zip(yq.to_f64_vec()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}
