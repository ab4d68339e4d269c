//! Property-based parity of the two gate execution paths.
//!
//! The fused zero-allocation path is the default; the per-CU path
//! mirrors the hardware CUs and never uses the gate table. The two must
//! agree bit for bit on random models and random sequences at every
//! optimization level: exactly (f64 `assert_eq`) on the float levels,
//! and to 0 ULP in 10^6-scaled fixed point (fixed-point classification
//! is a deterministic function of the quantized weights, so any path
//! divergence shows up as raw-integer inequality).

use csd_accel::{CsdInferenceEngine, GatePath, OptimizationLevel, LANE_MAX_STEPS};
use csd_nn::{Activation, ModelConfig, ModelWeights, SequenceClassifier};
use proptest::prelude::*;

fn arb_sequence() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..278, 1..=60)
}

/// The per-CU reference and the fused production engine over one model.
fn engine_pair(
    config: ModelConfig,
    seed: u64,
    level: OptimizationLevel,
) -> [CsdInferenceEngine; 2] {
    let weights = ModelWeights::from_model(&SequenceClassifier::new(config, seed));
    let fused = CsdInferenceEngine::new(&weights, level);
    [fused.clone().with_gate_path(GatePath::PerCu), fused]
}

fn engines(seed: u64, level: OptimizationLevel) -> [CsdInferenceEngine; 2] {
    engine_pair(ModelConfig::paper(), seed, level)
}

fn shape(vocab: usize, embed_dim: usize, hidden: usize) -> ModelConfig {
    ModelConfig {
        vocab,
        embed_dim,
        hidden,
        cell_activation: Activation::Softsign,
    }
}

/// One step past the `f64`-encoded kernels' proven range the fused
/// serial path takes the wide integer matvec: still the per-CU bits, at
/// every level, hidden sizes on and off the register width.
#[test]
fn fused_serial_past_the_lane_step_bound_matches_per_cu() {
    let seq: Vec<usize> = (0..LANE_MAX_STEPS + 1).map(|i| (i * 7 + 3) % 16).collect();
    for hidden in [5usize, 8] {
        for level in OptimizationLevel::ALL {
            let [per_cu, fused] = engine_pair(shape(16, 4, hidden), 11, level);
            assert_eq!(per_cu.classify(&seq), fused.classify(&seq), "{level}");
            assert_eq!(
                per_cu.final_hidden_f64(&seq),
                fused.final_hidden_f64(&seq),
                "{level} hidden {hidden}"
            );
        }
    }
}

/// A sequence past the row kernel's proven range in the middle of a
/// batch takes the wide path inside its chunk; its neighbours do not,
/// and the batch still comes back in input order, equal to serial
/// classification, at every level.
#[test]
fn batch_with_an_overlong_sequence_in_the_middle_matches_serial() {
    let long: Vec<usize> = (0..LANE_MAX_STEPS + 1).map(|i| i % 278).collect();
    let short: Vec<usize> = (0..40).map(|i| (i * 7) % 278).collect();
    let batch = [short.clone(), long, short];
    for level in OptimizationLevel::ALL {
        let [_, engine] = engines(5, level);
        let individually: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
        assert_eq!(engine.classify_batch(&batch), individually, "{level}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused serial == per-CU at 0 ULP over random model *shapes* —
    /// hidden sizes that are not a multiple of the register width
    /// included, so the row kernel's tiles, single registers and scalar
    /// tail all meet real weights — at every level, on a single item,
    /// on two (the first step with a non-zero state) and on a full
    /// window.
    #[test]
    fn fused_serial_zero_ulp_over_random_shapes(
        seed in any::<u64>(),
        hidden in 1usize..=34,
        embed_dim in 1usize..=9,
        vocab in 2usize..=40,
        tokens in prop::collection::vec(any::<u64>(), 100),
    ) {
        let seq: Vec<usize> = tokens.iter().map(|&t| (t % vocab as u64) as usize).collect();
        for level in OptimizationLevel::ALL {
            let [per_cu, fused] = engine_pair(shape(vocab, embed_dim, hidden), seed, level);
            for len in [1usize, 2, 100] {
                prop_assert_eq!(
                    per_cu.classify(&seq[..len]),
                    fused.classify(&seq[..len]),
                    "{} len {}", level, len
                );
                prop_assert_eq!(
                    per_cu.final_hidden_f64(&seq[..len]),
                    fused.final_hidden_f64(&seq[..len]),
                    "{} len {}", level, len
                );
            }
        }
    }

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
    /// every level, any batch size including awkward ones, and ragged
    /// lengths on both sides of a window.
    #[test]
    fn batch_matches_serial_at_every_level(
        seed in any::<u64>(),
        batch in prop::collection::vec(prop::collection::vec(0usize..278, 1..=150), 1..=12),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let model = SequenceClassifier::new(ModelConfig::paper(), seed);
        let engine = CsdInferenceEngine::new(&ModelWeights::from_model(&model), level);
        let individually: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
        prop_assert_eq!(engine.classify_batch(&batch), individually);
    }
}
