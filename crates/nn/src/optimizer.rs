//! The flat-parameter optimizer (Adam).
//!
//! The model exposes its 7,472 parameters as one flat `Vec<f64>`
//! ([`crate::SequenceClassifier::flatten_params`]); the optimizer updates
//! that flat view, mirroring how deep-learning frameworks treat parameters
//! as a single tensor list.

use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba 2015) with bias correction and optional clipping —
/// the de-facto default for LSTM training, and what we use to regenerate
/// the paper's Fig. 4 convergence curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    clip: Option<f64>,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with the canonical hyperparameters
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e−8`).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "lr must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables elementwise gradient clipping at `±clip`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not positive.
    pub fn with_clip(mut self, clip: f64) -> Self {
        assert!(clip > 0.0, "clip must be positive");
        self.clip = Some(clip);
        self
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update step: mutates `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics when `params.len() != grads.len()`, or when the length
    /// differs from the first step's.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(self.m.len(), params.len(), "optimizer state size changed");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = match self.clip {
                Some(c) => grads[i].clamp(-c, c),
                None => grads[i],
            };
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl: f(p) = Σ (p_i − target_i)²; grad = 2(p − target).
    fn quadratic_grad(params: &[f64], target: &[f64]) -> Vec<f64> {
        params
            .iter()
            .zip(target)
            .map(|(p, t)| 2.0 * (p - t))
            .collect()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let target = [1.0, -1.0];
        let mut params = vec![10.0, -10.0];
        let mut opt = Adam::new(0.05);
        for _ in 0..3000 {
            let g = quadratic_grad(&params, &target);
            opt.step(&mut params, &g);
        }
        for (p, t) in params.iter().zip(&target) {
            assert!((p - t).abs() < 1e-3, "{p} vs {t}");
        }
        assert_eq!(opt.steps(), 3000);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the first Adam step ≈ lr regardless of grad scale.
        let mut params = vec![0.0];
        let mut opt = Adam::new(0.01);
        opt.step(&mut params, &[1234.5]);
        assert!((params[0] + 0.01).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut opt = Adam::new(0.1);
        opt.step(&mut [0.0, 1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "lr must be positive")]
    fn invalid_lr_rejected() {
        let _ = Adam::new(-1.0);
    }
}
