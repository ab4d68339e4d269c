//! Floating-point activations and their derivatives for BPTT.

/// Differentiable activation functions used by the offline model.
///
/// The paper trains with the standard `tanh` cell activation but deploys
/// with `softsign` on the FPGA (§III-D). Training directly with `softsign`
/// — supported here — removes that train/deploy mismatch, and the activation
/// ablation quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^{-x})` — the gate activation.
    Sigmoid,
    /// Hyperbolic tangent — the classical cell activation.
    Tanh,
    /// `x / (1 + |x|)` — the paper's FPGA-friendly replacement for `tanh`.
    #[default]
    Softsign,
}

impl Activation {
    /// Evaluates the activation at `x`.
    ///
    /// ```rust
    /// use csd_nn::Activation;
    /// assert_eq!(Activation::Softsign.apply(1.0), 0.5);
    /// assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
    /// ```
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Softsign => x / (1.0 + x.abs()),
        }
    }

    /// `out[j] = self.apply(xs[j])` for every `j`, with the activation
    /// resolved once for the slice rather than once an element.
    pub(crate) fn apply_each(self, xs: &[f64], out: &mut [f64]) {
        let out = out.iter_mut().zip(xs);
        match self {
            Activation::Sigmoid => out.for_each(|(y, &x)| *y = Activation::Sigmoid.apply(x)),
            Activation::Tanh => out.for_each(|(y, &x)| *y = Activation::Tanh.apply(x)),
            Activation::Softsign => out.for_each(|(y, &x)| *y = Activation::Softsign.apply(x)),
        }
    }

    /// Derivative of the activation *with respect to its input*, expressed
    /// in terms of the input `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => 1.0 - x.tanh().powi(2),
            Activation::Softsign => {
                let d = 1.0 + x.abs();
                1.0 / (d * d)
            }
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`, when that
    /// form exists; used on the cell-state path where only `C_t` is cached.
    ///
    /// For `softsign`, `y = x/(1+|x|)` gives `f'(x) = (1−|y|)²`.
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Softsign => (1.0 - y.abs()).powi(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 3] = [Activation::Sigmoid, Activation::Tanh, Activation::Softsign];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert_eq!(Activation::Softsign.apply(-1.0), -0.5);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ACTS {
            for i in -20..=20 {
                let x = i as f64 * 0.25;
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn derivative_from_output_consistent() {
        for act in ACTS {
            for i in -20..=20 {
                let x = i as f64 * 0.25;
                let y = act.apply(x);
                assert!(
                    (act.derivative(x) - act.derivative_from_output(y)).abs() < 1e-9,
                    "{act:?} at {x}"
                );
            }
        }
    }

    #[test]
    fn outputs_bounded() {
        for act in ACTS {
            for i in -100..=100 {
                let y = act.apply(i as f64);
                match act {
                    Activation::Sigmoid => assert!((0.0..=1.0).contains(&y)),
                    _ => assert!((-1.0..=1.0).contains(&y)),
                }
            }
        }
    }

    #[test]
    fn apply_each_is_apply_to_the_bit() {
        let xs: Vec<f64> = (-400..=400)
            .map(|i| i as f64 * 0.137)
            .chain([0.0, -0.0, 745.0, -745.0, f64::INFINITY, f64::NAN])
            .collect();
        for act in ACTS {
            let mut out = vec![f64::NAN; xs.len()];
            act.apply_each(&xs, &mut out);
            for (&x, &y) in xs.iter().zip(&out) {
                assert_eq!(y.to_bits(), act.apply(x).to_bits(), "{act:?} at {x}");
            }
        }
    }

    #[test]
    fn default_is_softsign() {
        assert_eq!(Activation::default(), Activation::Softsign);
    }
}
