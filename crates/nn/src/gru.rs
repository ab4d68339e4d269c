//! A GRU cell and classifier — the natural baseline to the paper's LSTM.
//!
//! §III-A argues for an LSTM by its "robust track record" and fixed
//! per-timestep parameter reuse; a Gated Recurrent Unit shares those
//! properties with 25% fewer recurrent parameters (three gates instead of
//! four) and no separate cell state — which would also simplify
//! `kernel_hidden_state` (no `C_t` to keep resident). The model-choice
//! ablation trains both on the detection task.
//!
//! Equations (same `[h_{t−1}, x_t]` convention as the LSTM):
//!
//! ```text
//! z_t = σ(W_z [h_{t−1}, x_t] + b_z)          (update gate)
//! r_t = σ(W_r [h_{t−1}, x_t] + b_r)          (reset gate)
//! h̃_t = g(W_h [r_t ∗ h_{t−1}, x_t] + b_h)    (candidate)
//! h_t = (1 − z_t) ∗ h_{t−1} + z_t ∗ h̃_t
//! ```

use csd_tensor::{Initializer, Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::loss::{bce_loss, bce_loss_grad};

/// Gate indices (`z`, `r`, `h̃`).
const GATE_Z: usize = 0;
const GATE_R: usize = 1;
const GATE_H: usize = 2;

/// A single GRU cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GruCell {
    input_dim: usize,
    hidden: usize,
    /// Gate weights, each `hidden × (hidden + input_dim)` over `[h | x]`.
    w: [Matrix<f64>; 3],
    b: [Vector<f64>; 3],
    cell_act: Activation,
}

/// Per-timestep cache for BPTT.
#[derive(Debug, Clone)]
pub struct GruStepCache {
    z_in: Vector<f64>,
    rh_in: Vector<f64>,
    pre: [Vector<f64>; 3],
    gate: [Vector<f64>; 3],
    h_prev: Vector<f64>,
}

/// Gradients with the cell's shapes.
#[derive(Debug, Clone)]
pub struct GruGrads {
    /// Per-gate weight gradients.
    pub w: [Matrix<f64>; 3],
    /// Per-gate bias gradients.
    pub b: [Vector<f64>; 3],
}

impl GruCell {
    /// Creates a Xavier-initialized cell.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or a sigmoid candidate activation.
    pub fn new(input_dim: usize, hidden: usize, cell_act: Activation, seed: u64) -> Self {
        assert!(input_dim > 0 && hidden > 0, "dims must be positive");
        assert!(
            cell_act != Activation::Sigmoid,
            "candidate activation must be tanh or softsign"
        );
        let zdim = hidden + input_dim;
        Self {
            input_dim,
            hidden,
            w: std::array::from_fn(|g| {
                Initializer::XavierUniform.matrix(
                    hidden,
                    zdim,
                    seed.wrapping_mul(3).wrapping_add(g as u64 + 1),
                )
            }),
            b: std::array::from_fn(|_| Vector::zeros(hidden)),
            cell_act,
        }
    }

    /// Hidden size `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input size `X`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Trainable parameters: `3 × (H × (H+X) + H)`.
    pub fn num_parameters(&self) -> usize {
        3 * (self.hidden * (self.hidden + self.input_dim) + self.hidden)
    }

    /// One forward step.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn step(&self, x: &Vector<f64>, h_prev: &Vector<f64>) -> (Vector<f64>, GruStepCache) {
        assert_eq!(x.len(), self.input_dim, "input dim mismatch");
        assert_eq!(h_prev.len(), self.hidden, "hidden dim mismatch");
        let z_in = h_prev.concat(x);
        let pre_z = self.w[GATE_Z].matvec(&z_in).add(&self.b[GATE_Z]);
        let pre_r = self.w[GATE_R].matvec(&z_in).add(&self.b[GATE_R]);
        let z = pre_z.map(|v| Activation::Sigmoid.apply(v));
        let r = pre_r.map(|v| Activation::Sigmoid.apply(v));
        let rh_in = r.hadamard(h_prev).concat(x);
        let pre_h = self.w[GATE_H].matvec(&rh_in).add(&self.b[GATE_H]);
        let htilde = pre_h.map(|v| self.cell_act.apply(v));
        let mut h = Vector::zeros(self.hidden);
        for j in 0..self.hidden {
            h[j] = (1.0 - z[j]) * h_prev[j] + z[j] * htilde[j];
        }
        let cache = GruStepCache {
            z_in,
            rh_in,
            pre: [pre_z, pre_r, pre_h],
            gate: [z, r, htilde],
            h_prev: h_prev.clone(),
        };
        (h, cache)
    }

    /// Zero gradients with this cell's shapes.
    pub fn zero_grads(&self) -> GruGrads {
        let zdim = self.hidden + self.input_dim;
        GruGrads {
            w: std::array::from_fn(|_| Matrix::zeros(self.hidden, zdim)),
            b: std::array::from_fn(|_| Vector::zeros(self.hidden)),
        }
    }

    /// One BPTT step: returns `(d_h_prev, d_x)`.
    pub fn step_backward(
        &self,
        cache: &GruStepCache,
        d_h: &Vector<f64>,
        grads: &mut GruGrads,
    ) -> (Vector<f64>, Vector<f64>) {
        let hdim = self.hidden;
        let (z, r, htilde) = (&cache.gate[0], &cache.gate[1], &cache.gate[2]);
        // dz, dh̃ from h = (1−z)h_prev + z·h̃.
        let mut d_pre_z = Vector::zeros(hdim);
        let mut d_pre_h = Vector::zeros(hdim);
        for j in 0..hdim {
            let dz = d_h[j] * (htilde[j] - cache.h_prev[j]);
            d_pre_z[j] = dz * Activation::Sigmoid.derivative_from_output(z[j]);
            let dht = d_h[j] * z[j];
            d_pre_h[j] = dht * self.cell_act.derivative(cache.pre[GATE_H][j]);
        }
        // Through the candidate's input [r∘h_prev, x].
        let d_rh_in = self.w[GATE_H].vecmat(&d_pre_h);
        let mut d_pre_r = Vector::zeros(hdim);
        for j in 0..hdim {
            let dr = d_rh_in[j] * cache.h_prev[j];
            d_pre_r[j] = dr * Activation::Sigmoid.derivative_from_output(r[j]);
        }
        // Weight/bias gradients.
        let acc = |g: usize, d_pre: &Vector<f64>, input: &Vector<f64>, grads: &mut GruGrads| {
            for row in 0..hdim {
                let dv = d_pre[row];
                if dv == 0.0 {
                    continue;
                }
                for c in 0..input.len() {
                    *grads.w[g].get_mut(row, c) += dv * input[c];
                }
                grads.b[g][row] += dv;
            }
        };
        acc(GATE_Z, &d_pre_z, &cache.z_in, grads);
        acc(GATE_R, &d_pre_r, &cache.z_in, grads);
        acc(GATE_H, &d_pre_h, &cache.rh_in, grads);
        // Input gradients.
        let d_zin_z = self.w[GATE_Z].vecmat(&d_pre_z);
        let d_zin_r = self.w[GATE_R].vecmat(&d_pre_r);
        let mut d_h_prev = Vector::zeros(hdim);
        let mut d_x = Vector::zeros(self.input_dim);
        for j in 0..hdim {
            d_h_prev[j] = d_h[j] * (1.0 - z[j])      // the skip path
                + d_rh_in[j] * r[j]                   // through r∘h_prev
                + d_zin_z[j]
                + d_zin_r[j];
        }
        for k in 0..self.input_dim {
            d_x[k] = d_zin_z[hdim + k] + d_zin_r[hdim + k] + d_rh_in[hdim + k];
        }
        (d_h_prev, d_x)
    }
}

/// Embedding → GRU → sigmoid head, mirroring
/// [`SequenceClassifier`](crate::SequenceClassifier) for the model-choice
/// ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GruClassifier {
    embedding: Embedding,
    cell: GruCell,
    head: Dense,
}

impl GruClassifier {
    /// Creates a model with the same hyperparameter surface as the LSTM
    /// classifier.
    pub fn new(vocab: usize, embed_dim: usize, hidden: usize, seed: u64) -> Self {
        Self {
            embedding: Embedding::new(vocab, embed_dim, seed),
            cell: GruCell::new(
                embed_dim,
                hidden,
                Activation::Softsign,
                seed.wrapping_add(1),
            ),
            head: Dense::new(hidden, seed.wrapping_add(2)),
        }
    }

    /// Total trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.embedding.num_parameters() + self.cell.num_parameters() + self.head.num_parameters()
    }

    /// `P(positive | seq)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict_proba(&self, seq: &[usize]) -> f64 {
        assert!(!seq.is_empty(), "empty sequence");
        let mut h = Vector::zeros(self.cell.hidden());
        for &t in seq {
            let x = self.embedding.forward(t);
            h = self.cell.step(&x, &h).0;
        }
        self.head.forward(&h)
    }

    /// Hard decision at 0.5.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict(&self, seq: &[usize]) -> bool {
        self.predict_proba(seq) >= 0.5
    }

    /// One SGD step on a single example; returns the loss. (The ablation
    /// uses plain SGD to keep the comparison free of optimizer state.)
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence, out-of-vocabulary token, or label
    /// outside `[0, 1]`.
    pub fn train_step(&mut self, seq: &[usize], label: f64, lr: f64) -> f64 {
        assert!(!seq.is_empty(), "empty sequence");
        // Forward with caches.
        let mut h = Vector::zeros(self.cell.hidden());
        let mut caches = Vec::with_capacity(seq.len());
        let mut xs = Vec::with_capacity(seq.len());
        for &t in seq {
            let x = self.embedding.forward(t);
            let (next, cache) = self.cell.step(&x, &h);
            h = next;
            caches.push(cache);
            xs.push(t);
        }
        let logit = self.head.logit(&h);
        let loss = bce_loss(logit, label);
        let d_logit = bce_loss_grad(logit, label);

        // Backward.
        let mut grad_w = Vector::zeros(self.cell.hidden());
        let mut grad_b = 0.0;
        let mut d_h = self
            .head
            .backward(&h, d_logit, grad_w.as_mut_slice(), &mut grad_b);
        let mut cell_grads = self.cell.zero_grads();
        let mut emb_grads = vec![0.0; self.embedding.num_parameters()];
        for (cache, &tok) in caches.iter().zip(&xs).rev() {
            let (d_h_prev, d_x) = self.cell.step_backward(cache, &d_h, &mut cell_grads);
            self.embedding.backward(tok, d_x.as_slice(), &mut emb_grads);
            d_h = d_h_prev;
        }

        // Apply.
        self.head.apply_gradients(&grad_w, grad_b, lr);
        for g in 0..3 {
            self.cell.w[g] = self.cell.w[g].add(&cell_grads.w[g].scale(-lr));
            self.cell.b[g] = self.cell.b[g].add(&cell_grads.b[g].scale(-lr));
        }
        self.embedding.apply_gradient(&emb_grads, lr);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GruCell {
        GruCell::new(3, 4, Activation::Softsign, 5)
    }

    #[test]
    fn parameter_count() {
        // Paper dims: 3 × (32×40 + 32) = 3,936 — 25% below the LSTM's 5,248.
        let cell = GruCell::new(8, 32, Activation::Softsign, 0);
        assert_eq!(cell.num_parameters(), 3_936);
        let lstm = crate::LstmCell::new(8, 32, Activation::Softsign, 0);
        assert!(cell.num_parameters() < lstm.num_parameters());
    }

    #[test]
    fn hidden_state_bounded() {
        // h is a convex combination of h_prev and h̃ ∈ (−1, 1).
        let cell = tiny();
        let mut h = Vector::zeros(4);
        for t in 0..100 {
            let x = Vector::from(vec![(t as f64).cos() * 3.0, 1.0, -1.0]);
            h = cell.step(&x, &h).0;
            assert!(h.iter().all(|&v| v.abs() < 1.0), "t={t}");
        }
    }

    #[test]
    fn bptt_matches_numerical_gradient() {
        let cell = tiny();
        let xs: Vec<Vector<f64>> = (0..5)
            .map(|t| Vector::from(vec![0.2 * t as f64, -0.3, 0.4]))
            .collect();
        let forward = |cell: &GruCell| {
            let mut h = Vector::zeros(4);
            for x in &xs {
                h = cell.step(x, &h).0;
            }
            h.iter().sum::<f64>()
        };
        // Analytic gradients via full BPTT with d_h_final = ones.
        let mut grads = cell.zero_grads();
        let mut h = Vector::zeros(4);
        let mut caches = Vec::new();
        for x in &xs {
            let (next, cache) = cell.step(x, &h);
            h = next;
            caches.push(cache);
        }
        let mut d_h = Vector::from(vec![1.0; 4]);
        for cache in caches.iter().rev() {
            let (d_h_prev, _) = cell.step_backward(cache, &d_h, &mut grads);
            d_h = d_h_prev;
        }
        // Numerical spot checks in every gate.
        let eps = 1e-6;
        for g in 0..3 {
            for &(r, c) in &[(0usize, 0usize), (2, 4), (3, 6), (1, 2)] {
                let mut up = cell.clone();
                *up.w[g].get_mut(r, c) += eps;
                let mut down = cell.clone();
                *down.w[g].get_mut(r, c) -= eps;
                let numeric = (forward(&up) - forward(&down)) / (2.0 * eps);
                let analytic = grads.w[g].get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "gate {g} ({r},{c}): {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn classifier_overfits_two_examples() {
        let mut m = GruClassifier::new(8, 4, 8, 3);
        let pos = [1usize, 2, 3, 4];
        let neg = [5usize, 6, 7, 0];
        for _ in 0..400 {
            m.train_step(&pos, 1.0, 0.3);
            m.train_step(&neg, 0.0, 0.3);
        }
        assert!(m.predict_proba(&pos) > 0.9, "{}", m.predict_proba(&pos));
        assert!(m.predict_proba(&neg) < 0.1, "{}", m.predict_proba(&neg));
    }

    #[test]
    fn paper_dims_total() {
        let m = GruClassifier::new(278, 8, 32, 1);
        // 2,224 embedding + 3,936 GRU + 33 head.
        assert_eq!(m.num_parameters(), 6_193);
    }

    #[test]
    fn predictions_are_probabilities() {
        let m = GruClassifier::new(12, 4, 6, 7);
        for seq in [[0usize, 1, 2].as_slice(), &[11, 10]] {
            let p = m.predict_proba(seq);
            assert!((0.0..=1.0).contains(&p));
            assert_eq!(m.predict(seq), p >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let _ = GruClassifier::new(4, 2, 2, 0).predict_proba(&[]);
    }
}
