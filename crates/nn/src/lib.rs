//! Offline training substrate for the CSD inference stack.
//!
//! The reproduced paper (DSN-S 2024) trains its classifier *offline* — "The
//! LSTM model that will be deployed on the FPGA is first trained offline"
//! (§III-A) — then exports the weights for the host program to load into the
//! FPGA. This crate is that offline half, built from scratch:
//!
//! - [`Embedding`] — the item-embedding front end (vocabulary 278, dim 8 in
//!   the paper ⇒ 2,224 parameters),
//! - [`LstmCell`] / [`LstmLayer`] — a from-scratch LSTM (hidden 32 ⇒ 5,248
//!   parameters) with full backpropagation-through-time,
//! - [`Dense`] — the 32+1-parameter fully-connected classification head,
//! - [`SequenceClassifier`] — the composed 7,472-parameter model,
//! - [`Trainer`] — mini-batch Adam training with per-epoch convergence
//!   history (regenerates the paper's Fig. 4),
//! - [`ModelWeights`] — the `get_weights()`-style three-array export format
//!   the paper ships to the host program (§III-A),
//! - [`metrics`] — accuracy / precision / recall / F1 as reported in §IV.
//!
//! # Example
//!
//! ```rust
//! use csd_nn::{ModelConfig, SequenceClassifier};
//!
//! // The paper's exact architecture: 278-word vocab, embed 8, hidden 32.
//! // 7,472 parameters for embeddings + LSTM (the count the paper quotes),
//! // plus the 32+1 fully-connected head.
//! let model = SequenceClassifier::new(ModelConfig::paper(), 42);
//! assert_eq!(model.num_parameters(), 7_505);
//! let p = model.predict_proba(&[1, 5, 9]);
//! assert!((0.0..=1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod dense;
pub mod embedding;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod model;
pub mod optimizer;
pub mod trainer;
pub mod weights;

pub use activation::Activation;
pub use dense::Dense;
pub use embedding::Embedding;
pub use loss::{bce_loss, bce_loss_grad};
pub use lstm::{LstmCell, LstmLayer, LstmState};
pub use metrics::{ClassificationReport, ConfusionMatrix};
pub use model::{ModelConfig, SequenceClassifier};
pub use optimizer::Adam;
pub use trainer::{evaluate, EpochRecord, TrainOptions, Trainer, TrainingHistory};
pub use weights::{ModelWeights, WeightsError};

/// The bit patterns of `xs`, for comparing floats to the bit.
#[cfg(test)]
pub(crate) fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the bit patterns of `xs`: what the tests pin trained
/// values with, to the bit.
#[cfg(test)]
pub(crate) fn bits_digest(xs: impl IntoIterator<Item = f64>) -> u64 {
    xs.into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
