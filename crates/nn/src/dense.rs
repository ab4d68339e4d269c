//! The fully-connected classification head.
//!
//! The paper's concluding layer holds "32 weights and one bias term"
//! (§IV, Testing environment) and maps the final hidden state `h_T` to a
//! binary ransomware/benign decision inside `kernel_hidden_state`.

use csd_tensor::{Initializer, Vector};

use crate::activation::Activation;

/// A single-output dense layer with sigmoid activation:
/// `p = σ(w · h + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    w: Vector<f64>,
    b: f64,
}

impl Dense {
    /// Creates a Xavier-initialized head for `input_dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0`.
    pub fn new(input_dim: usize, seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        Self {
            w: Initializer::XavierUniform.vector(input_dim, seed),
            b: 0.0,
        }
    }

    /// Builds a head from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `w` is empty.
    pub fn from_parts(w: Vector<f64>, b: f64) -> Self {
        assert!(!w.is_empty(), "weights must be non-empty");
        Self { w, b }
    }

    /// The weight vector.
    pub fn weights(&self) -> &Vector<f64> {
        &self.w
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.b
    }

    /// Number of trainable parameters (`input_dim + 1`).
    pub fn num_parameters(&self) -> usize {
        self.w.len() + 1
    }

    /// The pre-activation logit `w · h + b`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn logit(&self, h: &Vector<f64>) -> f64 {
        self.w.dot(h) + self.b
    }

    /// The sigmoid probability `σ(w · h + b)`.
    pub fn forward(&self, h: &Vector<f64>) -> f64 {
        Activation::Sigmoid.apply(self.logit(h))
    }

    /// Backward pass given `d_logit = ∂L/∂(w·h+b)`; accumulates into
    /// `(grad_w, grad_b)` and returns `∂L/∂h`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward(
        &self,
        h: &Vector<f64>,
        d_logit: f64,
        grad_w: &mut [f64],
        grad_b: &mut f64,
    ) -> Vector<f64> {
        assert_eq!(h.len(), self.w.len(), "dimension mismatch");
        assert_eq!(grad_w.len(), self.w.len(), "dimension mismatch");
        for (g, &hj) in grad_w.iter_mut().zip(h.iter()) {
            *g += d_logit * hj;
        }
        *grad_b += d_logit;
        self.w.scale(d_logit)
    }

    /// Overwrites the parameters (used by weight import).
    pub(crate) fn set_parts(&mut self, w: Vector<f64>, b: f64) {
        self.w = w;
        self.b = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameter_count() {
        assert_eq!(Dense::new(32, 0).num_parameters(), 33);
    }

    #[test]
    fn forward_known_values() {
        let d = Dense::from_parts(Vector::from(vec![1.0, -1.0]), 0.5);
        let h = Vector::from(vec![2.0, 1.5]);
        assert!((d.logit(&h) - 1.0).abs() < 1e-12);
        assert!((d.forward(&h) - 1.0 / (1.0 + (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_numerical() {
        let d = Dense::from_parts(Vector::from(vec![0.3, -0.7, 0.2]), 0.1);
        let h = Vector::from(vec![1.0, 2.0, -0.5]);
        let mut gw = Vector::zeros(3);
        let mut gb = 0.0;
        let d_h = d.backward(&h, 1.0, gw.as_mut_slice(), &mut gb);
        // d(logit)/dw_j = h_j, d(logit)/db = 1, d(logit)/dh_j = w_j.
        assert_eq!(gw.as_slice(), h.as_slice());
        assert_eq!(gb, 1.0);
        assert_eq!(d_h.as_slice(), d.weights().as_slice());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_weights_rejected() {
        let _ = Dense::from_parts(Vector::from(Vec::<f64>::new()), 0.0);
    }
}
