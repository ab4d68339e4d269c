//! The composed sequence classifier: embedding → LSTM → dense head.
//!
//! With the paper's configuration ([`ModelConfig::paper`]) the model holds
//! the paper's 7,472 embedding+LSTM parameters (2,224 + 5,248) plus the
//! fully-connected head's 32 weights and one bias — 7,505 in total.

use csd_tensor::{Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::loss::{bce_loss, bce_loss_grad};
use crate::lstm::{LstmCell, LstmLayer, PackedCell, Tape};

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Vocabulary size `M` (number of distinct sequence items).
    pub vocab: usize,
    /// Embedding dimension `O`.
    pub embed_dim: usize,
    /// LSTM hidden size `H`.
    pub hidden: usize,
    /// Cell activation (`tanh` classically; `softsign` as deployed).
    pub cell_activation: Activation,
}

impl ModelConfig {
    /// The paper's exact architecture (§IV, Testing environment): 278-item
    /// vocabulary, embedding 8, hidden 32, softsign cell activation —
    /// 7,472 embedding+LSTM parameters, 7,505 with the head.
    pub fn paper() -> Self {
        Self {
            vocab: 278,
            embed_dim: 8,
            hidden: 32,
            cell_activation: Activation::Softsign,
        }
    }

    /// A small configuration for fast tests.
    pub fn tiny(vocab: usize) -> Self {
        Self {
            vocab,
            embed_dim: 4,
            hidden: 8,
            cell_activation: Activation::Softsign,
        }
    }
}

/// The full classifier: `item → embedding → LSTM → σ(w·h_T + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceClassifier {
    config: ModelConfig,
    embedding: Embedding,
    lstm: LstmLayer,
    head: Dense,
}

impl SequenceClassifier {
    /// Creates a freshly initialized model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension in `config` is zero.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let embedding = Embedding::new(config.vocab, config.embed_dim, seed);
        let cell = LstmCell::new(
            config.embed_dim,
            config.hidden,
            config.cell_activation,
            seed.wrapping_add(1),
        );
        let head = Dense::new(config.hidden, seed.wrapping_add(2));
        Self {
            config,
            embedding,
            lstm: LstmLayer::new(cell),
            head,
        }
    }

    /// Builds a model from explicit components (used by weight import).
    ///
    /// # Panics
    ///
    /// Panics when the components' shapes disagree with `config`.
    pub fn from_parts(
        config: ModelConfig,
        embedding: Embedding,
        cell: LstmCell,
        head: Dense,
    ) -> Self {
        assert_eq!(embedding.vocab(), config.vocab, "vocab mismatch");
        assert_eq!(embedding.dim(), config.embed_dim, "embed dim mismatch");
        assert_eq!(cell.input_dim(), config.embed_dim, "cell input mismatch");
        assert_eq!(cell.hidden(), config.hidden, "hidden mismatch");
        assert_eq!(head.weights().len(), config.hidden, "head mismatch");
        Self {
            config,
            embedding,
            lstm: LstmLayer::new(cell),
            head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The embedding table.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The LSTM cell.
    pub fn lstm_cell(&self) -> &LstmCell {
        self.lstm.cell()
    }

    /// The dense head.
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Total trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.embedding.num_parameters()
            + self.lstm.cell().num_parameters()
            + self.head.num_parameters()
    }

    /// The final hidden state for a token sequence.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn final_hidden(&self, seq: &[usize]) -> Vector<f64> {
        let tape = self.lstm.run(seq.iter().map(|&t| self.embedding.row(t)));
        Vector::from(tape.h_last().to_vec())
    }

    /// The classification probability `P(positive | seq)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict_proba(&self, seq: &[usize]) -> f64 {
        self.head.forward(&self.final_hidden(seq))
    }

    /// Hard classification at threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn predict(&self, seq: &[usize]) -> bool {
        self.predict_proba(seq) >= 0.5
    }

    /// Forward + full BPTT for one `(sequence, label)` pair.
    ///
    /// Returns the BCE loss and the gradient of every parameter, flat in
    /// [`Self::flatten_params`] order.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence, an out-of-vocabulary token, or a label
    /// outside `[0, 1]`.
    pub fn compute_gradients(&self, seq: &[usize], label: f64) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; self.num_parameters()];
        let loss = self.gradients_into(
            &self.lstm.cell().pack(),
            &mut Tape::default(),
            seq,
            label,
            &mut grad,
        );
        (loss, grad)
    }

    /// [`Self::compute_gradients`] on a caller's tape and packed cell
    /// (`self`'s, packed since its last update): overwrites `grad` with
    /// the example's gradient and returns its loss.
    pub(crate) fn gradients_into(
        &self,
        packed: &PackedCell<'_>,
        tape: &mut Tape,
        seq: &[usize],
        label: f64,
        grad: &mut [f64],
    ) -> f64 {
        assert_eq!(
            grad.len(),
            self.num_parameters(),
            "gradient length mismatch"
        );
        packed.forward(tape, seq.iter().map(|&t| self.embedding.row(t)));
        let h = Vector::from(tape.h_last().to_vec());
        let logit = self.head.logit(&h);
        let loss = bce_loss(logit, label);
        let d_logit = bce_loss_grad(logit, label);

        let (o, hidden) = (self.config.embed_dim, self.config.hidden);
        grad.fill(0.0);
        let (g_emb, rest) = grad.split_at_mut(self.embedding.num_parameters());
        let (g_w, rest) = rest.split_at_mut(4 * hidden * (hidden + o));
        let (g_b, rest) = rest.split_at_mut(4 * hidden);
        let (fc_w, fc_b) = rest.split_at_mut(hidden);
        let d_h = self.head.backward(&h, d_logit, fc_w, &mut fc_b[0]);
        packed.backward(tape, d_h.as_slice(), g_w, g_b);
        for (&item, d_x) in seq.iter().zip(tape.d_x().chunks_exact(o)) {
            self.embedding.backward(item, d_x, g_emb);
        }
        loss
    }

    /// Flattens all parameters into one vector, in the canonical order
    /// `embedding | W_i W_f W_c W_o | b_i b_f b_c b_o | fc_w | fc_b`.
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        out.extend_from_slice(&self.embedding.table().to_f64_flat());
        for g in 0..4 {
            out.extend_from_slice(&self.lstm.cell().weight(g).to_f64_flat());
        }
        for g in 0..4 {
            out.extend(self.lstm.cell().bias(g).iter().copied());
        }
        out.extend(self.head.weights().iter().copied());
        out.push(self.head.bias());
        out
    }

    /// Writes a flat parameter vector back into the model.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_parameters()`.
    pub fn assign_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_parameters(), "param count mismatch");
        let mut at = 0;
        let mut take = |n: usize| {
            let s = &params[at..at + n];
            at += n;
            s
        };
        let (v, o, h) = (self.config.vocab, self.config.embed_dim, self.config.hidden);
        let emb = Matrix::from_f64_flat(v, o, take(v * o));
        self.embedding = Embedding::from_table(emb);
        let z = h + o;
        for g in 0..4 {
            *self.lstm.cell_mut().weight_mut(g) = Matrix::from_f64_flat(h, z, take(h * z));
        }
        for g in 0..4 {
            *self.lstm.cell_mut().bias_mut(g) = Vector::from(take(h).to_vec());
        }
        let fc_w = Vector::from(take(h).to_vec());
        let fc_b = take(1)[0];
        self.head.set_parts(fc_w, fc_b);
        debug_assert_eq!(at, params.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::lstm::reference;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The per-step `Vector` code [`SequenceClassifier::compute_gradients`]
    /// replaced, its gradients flattened in `flatten_params` order.
    fn reference_gradients(m: &SequenceClassifier, seq: &[usize], label: f64) -> (f64, Vec<f64>) {
        let cell = m.lstm.cell();
        let xs: Vec<Vector<f64>> = seq.iter().map(|&t| m.embedding.forward(t)).collect();
        let (state, caches) = reference::forward(cell, &xs);
        let logit = m.head.logit(&state.h);
        let (loss, d_logit) = (bce_loss(logit, label), bce_loss_grad(logit, label));
        let mut fc_w = Vector::zeros(m.config.hidden);
        let mut fc_b = 0.0;
        let d_h = m
            .head
            .backward(&state.h, d_logit, fc_w.as_mut_slice(), &mut fc_b);
        let mut lstm = cell.zero_grads();
        let d_xs = reference::backward(cell, &caches, &d_h, &mut lstm);
        let mut emb = Matrix::<f64>::zeros(m.config.vocab, m.config.embed_dim);
        for (t, d_x) in d_xs.iter().enumerate() {
            for c in 0..m.config.embed_dim {
                *emb.get_mut(seq[t], c) += d_x[c];
            }
        }
        let (w, b) = lstm.flatten();
        let mut flat = emb.to_f64_flat();
        flat.extend(w);
        flat.extend(b);
        flat.extend(fc_w.iter());
        flat.push(fc_b);
        (loss, flat)
    }

    /// `(loss, gradient)` of the flat path equals the per-step reference
    /// to the bit across hidden sizes around the 32-row kernel block,
    /// input sizes around the four-wide partials, short and long
    /// sequences, and both cell activations.
    #[test]
    fn gradients_are_the_per_step_reference_to_the_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        for hidden in [1, 5, 8, 32, 34] {
            for embed_dim in [1, 8, 9] {
                for cell_activation in [Activation::Softsign, Activation::Tanh] {
                    let config = ModelConfig {
                        vocab: 13,
                        embed_dim,
                        hidden,
                        cell_activation,
                    };
                    let m = SequenceClassifier::new(config, rng.random_range(0..1_000u64));
                    for (k, len) in [1usize, 2, 100, 120].into_iter().enumerate() {
                        let seq: Vec<usize> =
                            (0..len).map(|_| rng.random_range(0..13usize)).collect();
                        let label = (k % 2) as f64;
                        let (loss, grad) = m.compute_gradients(&seq, label);
                        let (want_loss, want) = reference_gradients(&m, &seq, label);
                        let at = format!("H {hidden} X {embed_dim} {cell_activation:?} len {len}");
                        assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss, {at}");
                        assert_eq!(bits(&grad), bits(&want), "gradient, {at}");
                    }
                }
            }
        }
    }

    /// Gates driven to an exact zero gradient — `i = 0`, `o = 1`, and
    /// head weights of zero — take the kernels' zero-row skip, and the
    /// gradient still equals the reference to the bit.
    #[test]
    fn zero_gate_gradients_are_the_per_step_reference_to_the_bit() {
        for cell_activation in [Activation::Softsign, Activation::Tanh] {
            let config = ModelConfig {
                cell_activation,
                ..ModelConfig::tiny(9)
            };
            let mut m = SequenceClassifier::new(config, 5);
            let (v, o, h) = (config.vocab, config.embed_dim, config.hidden);
            let mut params = m.flatten_params();
            let b = v * o + 4 * h * (h + o);
            for j in 0..h {
                if j % 2 == 0 {
                    params[b + j] = -1_000.0; // σ = 0: i = 0 exactly
                }
                if j % 3 == 0 {
                    params[b + 3 * h + j] = 50.0; // σ = 1: o = 1 exactly
                }
                if j % 4 == 1 {
                    params[b + 4 * h + j] = 0.0; // no gradient reaches h_j
                }
            }
            m.assign_params(&params);
            let seq = [3usize, 1, 4, 1, 5, 8, 2, 6];
            let (loss, grad) = m.compute_gradients(&seq, 1.0);
            let (want_loss, want) = reference_gradients(&m, &seq, 1.0);
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            assert_eq!(bits(&grad), bits(&want), "{cell_activation:?}");
            // The input gate's bias saw no gradient on any step.
            assert!((0..h).step_by(2).all(|j| grad[b + j] == 0.0));
        }
    }

    #[test]
    fn paper_model_parameter_counts() {
        let m = SequenceClassifier::new(ModelConfig::paper(), 1);
        assert_eq!(m.embedding().num_parameters(), 2_224);
        assert_eq!(m.lstm_cell().num_parameters(), 5_248);
        // The paper's quoted 7,472 covers embeddings + LSTM.
        assert_eq!(
            m.embedding().num_parameters() + m.lstm_cell().num_parameters(),
            7_472
        );
        assert_eq!(m.head().num_parameters(), 33);
        assert_eq!(m.num_parameters(), 7_505);
    }

    #[test]
    fn predictions_are_probabilities() {
        let m = SequenceClassifier::new(ModelConfig::tiny(12), 2);
        for seq in [[0usize, 3, 5].as_slice(), &[11], &[1, 1, 1, 1, 1]] {
            let p = m.predict_proba(seq);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn flatten_assign_roundtrip() {
        let m = SequenceClassifier::new(ModelConfig::tiny(10), 3);
        let params = m.flatten_params();
        assert_eq!(params.len(), m.num_parameters());
        let mut m2 = SequenceClassifier::new(ModelConfig::tiny(10), 99);
        assert_ne!(m2.flatten_params(), params);
        m2.assign_params(&params);
        assert_eq!(m2.flatten_params(), params);
        // Behaviour matches too.
        let seq = [1usize, 4, 7, 2];
        assert_eq!(m.predict_proba(&seq), m2.predict_proba(&seq));
    }

    #[test]
    fn gradient_descent_fits_two_sequences() {
        // The classic overfit-two-examples sanity check for the whole model.
        let mut m = SequenceClassifier::new(ModelConfig::tiny(8), 5);
        let pos = [1usize, 2, 3, 4];
        let neg = [5usize, 6, 7, 0];
        for _ in 0..300 {
            let mut params = m.flatten_params();
            let (_, gp) = m.compute_gradients(&pos, 1.0);
            let (_, gn) = m.compute_gradients(&neg, 0.0);
            for ((p, a), b) in params.iter_mut().zip(&gp).zip(&gn) {
                *p -= 0.5 * ((a + b) * 0.5);
            }
            m.assign_params(&params);
        }
        assert!(m.predict_proba(&pos) > 0.9, "{}", m.predict_proba(&pos));
        assert!(m.predict_proba(&neg) < 0.1, "{}", m.predict_proba(&neg));
    }

    #[test]
    fn whole_model_gradient_matches_numerical() {
        let m = SequenceClassifier::new(ModelConfig::tiny(6), 11);
        let seq = [0usize, 2, 4, 1];
        let label = 1.0;
        let (_, flat_grads) = m.compute_gradients(&seq, label);
        let params = m.flatten_params();
        let eps = 1e-6;
        // Spot-check a spread of parameter indices across all groups.
        let n = params.len();
        for idx in [0, n / 5, n / 3, n / 2, 2 * n / 3, n - 2, n - 1] {
            let mut m2 = m.clone();
            let mut p2 = params.clone();
            p2[idx] += eps;
            m2.assign_params(&p2);
            let (up, _) = m2.compute_gradients(&seq, label);
            p2[idx] -= 2.0 * eps;
            m2.assign_params(&p2);
            let (down, _) = m2.compute_gradients(&seq, label);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - flat_grads[idx]).abs() < 1e-4,
                "param {idx}: numeric {numeric} vs analytic {}",
                flat_grads[idx]
            );
        }
    }

    #[test]
    fn gradient_has_one_entry_per_parameter() {
        let m = SequenceClassifier::new(ModelConfig::tiny(5), 0);
        let (_, g) = m.compute_gradients(&[1, 2], 0.0);
        assert_eq!(g.len(), m.num_parameters());
        // Rows of tokens the sequence lacks get no gradient.
        assert!(g[..4].iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let m = SequenceClassifier::new(ModelConfig::tiny(5), 0);
        let _ = m.predict_proba(&[]);
    }
}
