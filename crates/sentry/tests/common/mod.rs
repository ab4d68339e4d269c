//! The fixture the sentry's integration tests share: one tiny seeded
//! detector over a 16-call vocabulary.

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

/// The vocabulary [`engine`] classifies.
pub const VOCAB: usize = 16;

/// A tiny untrained detector, seed 9, serving in fixed point.
pub fn engine() -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), 9);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}
