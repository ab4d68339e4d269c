//! The fixed-point fallback through the meta-crate. Weights the pack
//! proof refuses, a window one call past `LANE_MAX_STEPS`, and a model
//! whose `H` the register window does not take run the per-CU loop on
//! the default fused path, and every entry point — `classify`,
//! `classify_batch` and a `Sentry` drain — still gives
//! `GatePath::PerCu`'s results, bit for bit. So do windows of 10, 100
//! and 1,000 calls on the production path at paper dimensions, for this
//! file's model and for the untrained seed-51 one.

use csd_inference::accel::{
    Classification, CsdInferenceEngine, GatePath, LaneGatesFx, OptimizationLevel, LANE_MAX_STEPS,
};
use csd_inference::nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_inference::sentry::{ActionKind, ProcessEvent, Sentry, SentryConfig};
use csd_inference::tensor::lanes;

/// A paper-shaped model whose head leans positive, so every window of
/// the sentry run below raises an incident carrying its probability.
fn weights() -> ModelWeights {
    let mut w = ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 21));
    w.fc_bias = 3.0;
    w
}

/// One candidate-gate row with recurrent weights of ±10^4: raw 10^10
/// against `|h| ≤ 1` puts the row far past the pack bound.
fn refused_weights() -> ModelWeights {
    let mut w = weights();
    let h = w.config.hidden;
    for hc in 0..h {
        let sign = if hc % 2 == 0 { 1.0 } else { -1.0 };
        w.lstm_recurrent[hc * 4 * h + 2 * h + 5] = sign * 1.0e4;
    }
    w
}

fn packs(engine: &CsdInferenceEngine) -> bool {
    let q = engine.weights();
    LaneGatesFx::pack(&q.gate_w_fx, &q.gate_b_fx, &q.embedding_fx).is_some()
}

fn window(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 37 + 11 + salt * 53) % 278).collect()
}

/// Classifies `windows` on the fused path through `classify` and
/// `classify_batch`, holds both to the per-CU reference and returns it.
fn assert_classify_matches_per_cu(
    fused: &CsdInferenceEngine,
    windows: &[Vec<usize>],
) -> Vec<Classification> {
    let per_cu = fused.clone().with_gate_path(GatePath::PerCu);
    let reference: Vec<Classification> = windows.iter().map(|s| per_cu.classify(s)).collect();
    let serial: Vec<Classification> = windows.iter().map(|s| fused.classify(s)).collect();
    assert_eq!(serial, reference);
    assert_eq!(fused.classify_batch(windows), reference);
    reference
}

/// [`assert_classify_matches_per_cu`], and a sentry with one session
/// per window raising each window's incident with the reference's
/// probability.
fn assert_fallback_matches_per_cu(fused: &CsdInferenceEngine, windows: &[Vec<usize>]) {
    let reference = assert_classify_matches_per_cu(fused, windows);

    let len = windows[0].len();
    assert!(windows.iter().all(|s| s.len() == len), "one window length");
    let mut sentry = Sentry::new(
        fused.clone(),
        SentryConfig {
            window_len: len,
            stride: len,
            votes_needed: 1,
            vote_horizon: 1,
            action: ActionKind::Log,
            ..SentryConfig::default()
        },
    );
    let mut t = 0;
    for (k, s) in windows.iter().enumerate() {
        let pid = 100 + k as u32;
        t += 1;
        sentry.ingest(&ProcessEvent::spawn(t, pid, "w.exe"));
        for &call in s {
            t += 1;
            sentry.ingest(&ProcessEvent::api(t, pid, call));
        }
    }
    sentry.drain();
    let mut got: Vec<(u32, f64)> = sentry
        .incidents()
        .iter()
        .map(|i| (i.pid, i.alert.probability))
        .collect();
    got.sort_by_key(|&(pid, _)| pid);
    let expect: Vec<(u32, f64)> = reference
        .iter()
        .enumerate()
        .map(|(k, c)| (100 + k as u32, c.probability))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn pack_refused_weights_classify_as_per_cu_everywhere() {
    let fused = CsdInferenceEngine::new(&refused_weights(), OptimizationLevel::FixedPoint);
    assert!(!packs(&fused), "the pack must refuse these weights");
    let windows: Vec<Vec<usize>> = (0..5).map(|k| window(100, k)).collect();
    assert_fallback_matches_per_cu(&fused, &windows);
}

#[test]
fn a_window_past_the_row_kernels_range_classifies_as_per_cu_everywhere() {
    let fused = CsdInferenceEngine::new(&weights(), OptimizationLevel::FixedPoint);
    assert!(packs(&fused), "these weights take the row kernel");
    assert_fallback_matches_per_cu(&fused, &[window(LANE_MAX_STEPS + 1, 0)]);
}

#[test]
fn a_hidden_size_the_register_window_does_not_take_classifies_as_per_cu_everywhere() {
    for hidden in [5usize, 34] {
        assert!(!lanes::window_fits(hidden), "H = {hidden}");
        let config = ModelConfig {
            hidden,
            ..ModelConfig::paper()
        };
        let mut w = ModelWeights::from_model(&SequenceClassifier::new(config, 21));
        w.fc_bias = 3.0;
        let fused = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        assert!(
            packs(&fused),
            "H = {hidden}: the pack alone would take these weights"
        );
        let windows: Vec<Vec<usize>> = (0..5).map(|k| window(100, k)).collect();
        assert_fallback_matches_per_cu(&fused, &windows);
    }
}

#[test]
fn a_thousand_step_window_on_the_production_path_matches_per_cu_everywhere() {
    let fused = CsdInferenceEngine::new(&weights(), OptimizationLevel::FixedPoint);
    assert!(packs(&fused), "these weights take the row kernel");
    // The untrained seed-51 model reads ≈ 0.5, so a sentry would raise
    // on some windows only: it is held to the reference through
    // `classify` and `classify_batch`.
    let seed_51 = CsdInferenceEngine::new(
        &ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 51)),
        OptimizationLevel::FixedPoint,
    );
    for len in [10, 100, 1_000] {
        let windows = [window(len, 0), window(len, 1)];
        assert_fallback_matches_per_cu(&fused, &windows);
        assert_classify_matches_per_cu(&seed_51, &windows);
    }
}
