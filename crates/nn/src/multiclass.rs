//! Multiclass (family) classification — an operational extension.
//!
//! The paper's binary verdict triggers mitigation; incident response then
//! wants to know *which* ransomware family it is facing (decryptors,
//! lateral-movement checks, and ransom-note playbooks are family-
//! specific). [`FamilyClassifier`] reuses the same embedding + LSTM
//! backbone with a softmax head over the family set, trained with
//! cross-entropy — demonstrating that the CSD architecture generalizes
//! past binary detection, as the paper's conclusion suggests ("this ML
//! inference strategy offers the potential to enhance an assortment of
//! other data center tasks").

use csd_tensor::{Initializer, Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::embedding::Embedding;
use crate::lstm::{LstmCell, LstmLayer, Tape};
use crate::Activation;

/// A softmax output layer: `p = softmax(W h + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxHead {
    w: Matrix<f64>,
    b: Vector<f64>,
}

impl SoftmaxHead {
    /// Creates a Xavier-initialized `classes × input_dim` head.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, classes: usize, seed: u64) -> Self {
        assert!(input_dim > 0 && classes > 0, "dims must be positive");
        Self {
            w: Initializer::XavierUniform.matrix(classes, input_dim, seed),
            b: Vector::zeros(classes),
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.w.rows()
    }

    /// Class probabilities (a stable softmax over the logits).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward(&self, h: &Vector<f64>) -> Vector<f64> {
        let logits = self.w.matvec(h).add(&self.b);
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&z| (z - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        Vector::from(exps.into_iter().map(|e| e / sum).collect::<Vec<_>>())
    }

    /// Cross-entropy loss for the true `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn loss(&self, h: &Vector<f64>, class: usize) -> f64 {
        assert!(class < self.classes(), "class out of range");
        -(self.forward(h)[class].max(1e-12)).ln()
    }

    /// One SGD step on `(h, class)`; returns `∂L/∂h` for backprop into
    /// the LSTM.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or dimensions mismatch.
    pub fn train_step(&mut self, h: &Vector<f64>, class: usize, lr: f64) -> Vector<f64> {
        assert!(class < self.classes(), "class out of range");
        let p = self.forward(h);
        // d_logits = p − onehot(class).
        let mut d_logits = p;
        d_logits[class] -= 1.0;
        // d_h = Wᵀ d_logits, captured before the update.
        let d_h = self.w.vecmat(&d_logits);
        for r in 0..self.classes() {
            let d = d_logits[r];
            for c in 0..h.len() {
                *self.w.get_mut(r, c) -= lr * d * h[c];
            }
            self.b[r] -= lr * d;
        }
        d_h
    }
}

/// Embedding → LSTM → softmax over ransomware families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyClassifier {
    embedding: Embedding,
    lstm: LstmLayer,
    head: SoftmaxHead,
    class_names: Vec<String>,
}

impl FamilyClassifier {
    /// Creates a classifier over `class_names` with the paper's backbone
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `class_names` is empty or any dimension is zero.
    pub fn new(
        vocab: usize,
        embed_dim: usize,
        hidden: usize,
        class_names: Vec<String>,
        seed: u64,
    ) -> Self {
        assert!(!class_names.is_empty(), "need at least one class");
        Self {
            embedding: Embedding::new(vocab, embed_dim, seed),
            lstm: LstmLayer::new(LstmCell::new(
                embed_dim,
                hidden,
                Activation::Softsign,
                seed.wrapping_add(1),
            )),
            head: SoftmaxHead::new(hidden, class_names.len(), seed.wrapping_add(2)),
            class_names,
        }
    }

    /// The class labels.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Total trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.embedding.num_parameters()
            + self.lstm.cell().num_parameters()
            + self.class_names.len() * (self.lstm.cell().hidden() + 1)
    }

    /// Class probabilities for a sequence.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict_proba(&self, seq: &[usize]) -> Vector<f64> {
        self.head.forward(&self.final_hidden(seq))
    }

    /// The most likely class index.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict(&self, seq: &[usize]) -> usize {
        let p = self.predict_proba(seq);
        (0..p.len())
            .max_by(|&a, &b| p[a].total_cmp(&p[b]))
            .expect("non-empty class set")
    }

    /// The most likely class name.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict_name(&self, seq: &[usize]) -> &str {
        &self.class_names[self.predict(seq)]
    }

    /// One SGD step on `(seq, class)` with full BPTT; returns the loss.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence, out-of-vocabulary token, or class out
    /// of range.
    pub fn train_step(&mut self, seq: &[usize], class: usize, lr: f64) -> f64 {
        let cell = self.lstm.cell();
        let (h, z) = (cell.hidden(), cell.hidden() + cell.input_dim());
        let mut tape = Tape::default();
        let (mut g_w, mut g_b) = (vec![0.0; 4 * h * z], vec![0.0; 4 * h]);
        let loss = {
            let packed = cell.pack();
            packed.forward(&mut tape, seq.iter().map(|&t| self.embedding.row(t)));
            let h_t = Vector::from(tape.h_last().to_vec());
            let loss = self.head.loss(&h_t, class);
            let d_h = self.head.train_step(&h_t, class, lr);
            packed.backward(&mut tape, d_h.as_slice(), &mut g_w, &mut g_b);
            loss
        };
        self.lstm.cell_mut().apply_gradients(&g_w, &g_b, lr);
        let mut emb_grads = vec![0.0; self.embedding.num_parameters()];
        for (&item, d_x) in seq
            .iter()
            .zip(tape.d_x().chunks_exact(self.embedding.dim()))
        {
            self.embedding.backward(item, d_x, &mut emb_grads);
        }
        self.embedding.apply_gradient(&emb_grads, lr);
        loss
    }

    fn final_hidden(&self, seq: &[usize]) -> Vector<f64> {
        let tape = self.lstm.run(seq.iter().map(|&t| self.embedding.row(t)));
        Vector::from(tape.h_last().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_is_a_distribution() {
        let head = SoftmaxHead::new(4, 3, 1);
        let p = head.forward(&Vector::from(vec![0.5, -0.2, 0.9, 0.0]));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn head_gradient_matches_numerical() {
        let head = SoftmaxHead::new(3, 4, 2);
        let h = Vector::from(vec![0.3, -0.4, 0.8]);
        let class = 2;
        // d_h from one (non-updating-by-clone) step.
        let d_h = head.clone().train_step(&h, class, 0.0);
        let eps = 1e-6;
        for k in 0..3 {
            let mut up = h.clone();
            up[k] += eps;
            let mut down = h.clone();
            down[k] -= eps;
            let numeric = (head.loss(&up, class) - head.loss(&down, class)) / (2.0 * eps);
            assert!((numeric - d_h[k]).abs() < 1e-6, "{numeric} vs {}", d_h[k]);
        }
    }

    #[test]
    fn head_sgd_reduces_loss() {
        let mut head = SoftmaxHead::new(4, 5, 3);
        let h = Vector::from(vec![1.0, -0.5, 0.25, 0.75]);
        let before = head.loss(&h, 1);
        for _ in 0..50 {
            head.train_step(&h, 1, 0.5);
        }
        assert!(head.loss(&h, 1) < before);
    }

    #[test]
    fn classifier_learns_three_synthetic_families() {
        // Family k draws its tokens from its own band — trivially
        // separable, which proves the training loop works end to end.
        let names = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        let mut m = FamilyClassifier::new(12, 4, 8, names, 4);
        let seq_for = |family: usize, salt: usize| -> Vec<usize> {
            (0..15).map(|i| family * 4 + (i + salt) % 4).collect()
        };
        for round in 0..120 {
            for family in 0..3 {
                m.train_step(&seq_for(family, round), family, 0.1);
            }
        }
        for family in 0..3 {
            assert_eq!(m.predict(&seq_for(family, 999)), family);
        }
        assert_eq!(m.predict_name(&seq_for(1, 1_000)), "B");
    }

    #[test]
    fn parameter_count() {
        let names: Vec<String> = (0..10).map(|i| format!("f{i}")).collect();
        let m = FamilyClassifier::new(278, 8, 32, names, 0);
        // 2,224 + 5,248 + 10 × 33.
        assert_eq!(m.num_parameters(), 7_802);
    }

    /// `train_step`'s losses do not change by one bit, pinned by digest.
    #[test]
    fn train_step_losses_are_pinned_to_the_bit() {
        let names = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        let mut m = FamilyClassifier::new(40, 8, 32, names, 0x717);
        let losses: Vec<f64> = (0..12)
            .map(|step| {
                let family = step % 3;
                let seq: Vec<usize> = (0..60).map(|i| (family * 13 + i * 7 + step) % 40).collect();
                m.train_step(&seq, family, 0.05)
            })
            .collect();
        assert_eq!(
            crate::bits_digest(losses),
            0xacf1_04e5_eca1_d08c,
            "train_step loss digest"
        );
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn bad_class_rejected() {
        let mut head = SoftmaxHead::new(2, 2, 0);
        let _ = head.train_step(&Vector::from(vec![0.0, 0.0]), 2, 0.1);
    }
}
