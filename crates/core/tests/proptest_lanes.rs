//! Property-based parity of the lane-batched engine against the serial
//! per-sequence path.
//!
//! The lane engine advances many sequences in lockstep as
//! structure-of-arrays blocks; its contract is *bit identity* with
//! [`CsdInferenceEngine::classify`] at every optimization level — exact
//! f64 equality on the float levels and 0 ULP in 10^6-scaled fixed point
//! — across ragged length mixes and lane widths that exercise every
//! kernel dispatch tier (scalar remainders, AVX2 4-wide tiles, AVX-512
//! 8-wide tiles) plus the early-retirement/refill machinery.

use csd_accel::{CsdInferenceEngine, GatePath, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use proptest::prelude::*;

fn arb_ragged_batch() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..278, 1..=150), 1..=12)
}

fn engine(seed: u64, level: OptimizationLevel) -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::paper(), seed);
    CsdInferenceEngine::new(&ModelWeights::from_model(&model), level)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lane-batched classification equals per-sequence classification
    /// bit for bit, for every optimization level and lane widths hitting
    /// each SIMD dispatch tier (1 and 3: scalar; 8 and 32: full tiles).
    #[test]
    fn lanes_bit_identical_to_serial(
        seed in any::<u64>(),
        batch in arb_ragged_batch(),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let engine = engine(seed, level);
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let serial: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
        for width in [1usize, 3, 8, 32] {
            let laned = engine.classify_lanes_with_width(&refs, width);
            prop_assert_eq!(&laned, &serial, "width {}", width);
        }
    }

    /// The default-width entry point (the cache heuristic) agrees too, via the `classify_batch` routing the monitors use.
    #[test]
    fn batch_routing_bit_identical_to_serial(
        seed in any::<u64>(),
        batch in arb_ragged_batch(),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let engine = engine(seed, level);
        let serial: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
        prop_assert_eq!(engine.classify_batch(&batch), serial);
    }

    /// The vocabulary-indexed gate table (fold the embedding into the
    /// fused matrix at pack time, gather per timestep) is an exact
    /// integer reassociation: the table-folded serial path and the
    /// table-folded lane path at every width tier agree bit for bit with
    /// the per-CU reference, which never touches the table.
    #[test]
    fn gate_table_paths_bit_identical_to_per_cu(
        seed in any::<u64>(),
        batch in arb_ragged_batch(),
    ) {
        let tabled = engine(seed, OptimizationLevel::FixedPoint);
        let per_cu = tabled.clone().with_gate_path(GatePath::PerCu);
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let reference: Vec<_> = batch.iter().map(|s| per_cu.classify(s)).collect();
        let serial: Vec<_> = batch.iter().map(|s| tabled.classify(s)).collect();
        prop_assert_eq!(&serial, &reference, "table serial vs per-CU");
        for width in [1usize, 3, 8, 32] {
            prop_assert_eq!(
                tabled.classify_lanes_with_width(&refs, width),
                reference.clone(),
                "table lanes vs per-CU, width {}",
                width
            );
        }
    }
}

/// Early lane retirement and refill must not scramble result order: a
/// batch whose lengths force many retire/refill cycles per lane block
/// still returns results in input order, equal to serial classification.
#[test]
fn retirement_and_refill_preserve_input_order() {
    let engine = engine(77, OptimizationLevel::FixedPoint);
    // Width 2 with wildly ragged lengths: lanes retire at different
    // times and refill from the queue repeatedly.
    let lengths = [100usize, 3, 50, 1, 80, 2, 9, 120, 4, 7];
    let batch: Vec<Vec<usize>> = lengths
        .iter()
        .enumerate()
        .map(|(k, &n)| (0..n).map(|i| (i * 13 + k * 29) % 278).collect())
        .collect();
    let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
    let serial: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
    for width in [1usize, 2, 3, 8] {
        assert_eq!(
            engine.classify_lanes_with_width(&refs, width),
            serial,
            "width {width}"
        );
    }
}

/// Sequences longer than the proven lane step bound take the serial
/// fallback and still return correct, ordered results.
#[test]
fn overlong_sequences_fall_back_to_serial() {
    let engine = engine(5, OptimizationLevel::FixedPoint);
    let long: Vec<usize> = (0..csd_accel::LANE_MAX_STEPS + 1)
        .map(|i| i % 278)
        .collect();
    let short: Vec<usize> = (0..40).map(|i| (i * 7) % 278).collect();
    let batch = [short.clone(), long.clone(), short];
    let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
    let serial: Vec<_> = batch.iter().map(|s| engine.classify(s)).collect();
    assert_eq!(engine.classify_lanes_with_width(&refs, 8), serial);
}
