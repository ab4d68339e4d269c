//! Property-based parity of the two gate execution paths.
//!
//! The fused zero-allocation path is the default; the per-CU path
//! mirrors the hardware CUs and never uses the gate table. The two must
//! agree bit for bit on random models and random sequences at every
//! optimization level: exactly (f64 `assert_eq`) on the float levels,
//! and to 0 ULP in 10^6-scaled fixed point (fixed-point classification
//! is a deterministic function of the quantized weights, so any path
//! divergence shows up as raw-integer inequality).

use csd_accel::{CsdInferenceEngine, GatePath, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use proptest::prelude::*;

fn arb_sequence() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..278, 1..=60)
}

fn engines(seed: u64, level: OptimizationLevel) -> [CsdInferenceEngine; 2] {
    let model = SequenceClassifier::new(ModelConfig::paper(), seed);
    let weights = ModelWeights::from_model(&model);
    let fused = CsdInferenceEngine::new(&weights, level);
    [fused.clone().with_gate_path(GatePath::PerCu), fused]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused == per-CU on the float levels, compared with exact f64 equality (not a tolerance).
    #[test]
    fn float_paths_bit_identical(
        seed in any::<u64>(),
        seq in arb_sequence(),
        ii in any::<bool>(),
    ) {
        let level = if ii {
            OptimizationLevel::IiOptimized
        } else {
            OptimizationLevel::Vanilla
        };
        let [per_cu, fused] = engines(seed, level);
        prop_assert_eq!(per_cu.classify(&seq), fused.classify(&seq));
        prop_assert_eq!(per_cu.final_hidden_f64(&seq), fused.final_hidden_f64(&seq));
    }

    /// Same property in fixed point: the probability is produced from
    /// raw `i64` state, so f64 equality here certifies 0 ULP agreement
    /// of the underlying Fx6 computation (table-folded matvec included).
    #[test]
    fn fixed_point_paths_zero_ulp(seed in any::<u64>(), seq in arb_sequence()) {
        let [per_cu, fused] = engines(seed, OptimizationLevel::FixedPoint);
        prop_assert_eq!(per_cu.classify(&seq), fused.classify(&seq));
        prop_assert_eq!(per_cu.final_hidden_f64(&seq), fused.final_hidden_f64(&seq));
    }

    /// `classify_batch` (pooled workers, chunked scatter) returns exactly
    /// what per-sequence classification returns, in input order, for
    /// every level and any batch size including awkward ones.
    #[test]
    fn batch_matches_serial_at_every_level(
        seed in any::<u64>(),
        batch in prop::collection::vec(arb_sequence(), 1..=9),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let model = SequenceClassifier::new(ModelConfig::paper(), seed);
        let engine = CsdInferenceEngine::new(&ModelWeights::from_model(&model), level);
        let individually: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
        prop_assert_eq!(engine.classify_batch(&batch), individually);
    }
}
