//! Property-based tests for the training substrate: the invariants of the
//! LSTM forward pass, BPTT correctness on random configurations, and the
//! export format.

use csd_nn::{
    bce_loss, bce_loss_grad, Activation, LstmCell, LstmLayer, ModelConfig, ModelWeights,
    SequenceClassifier,
};
use csd_tensor::Vector;
use proptest::prelude::*;

fn arb_inputs(dim: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-2.0f64..2.0, dim..=dim), 1..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// |h_t| < 1 always: h = σ(·) ∗ g(C) with σ < 1 and |g| < 1.
    #[test]
    fn hidden_state_strictly_bounded(
        seed in any::<u64>(),
        xs in arb_inputs(3, 30),
        tanh in any::<bool>(),
    ) {
        let act = if tanh { Activation::Tanh } else { Activation::Softsign };
        let cell = LstmCell::new(3, 5, act, seed);
        let layer = LstmLayer::new(cell);
        let inputs: Vec<Vector<f64>> = xs.iter().map(|v| Vector::from(v.clone())).collect();
        let state = layer.forward(&inputs);
        prop_assert!(state.h.iter().all(|&v| v.abs() < 1.0));
    }

    /// |C_t| grows at most linearly in t.
    #[test]
    fn cell_state_linear_growth(seed in any::<u64>(), xs in arb_inputs(2, 40)) {
        let cell = LstmCell::new(2, 4, Activation::Softsign, seed);
        let layer = LstmLayer::new(cell);
        let inputs: Vec<Vector<f64>> = xs.iter().map(|v| Vector::from(v.clone())).collect();
        let state = layer.forward(&inputs);
        let t = inputs.len() as f64;
        prop_assert!(state.c.iter().all(|&v| v.abs() <= t + 1e-9));
    }

    /// BPTT gradients match the numerical gradient on a random gate-weight
    /// coordinate of a random model — the strongest single invariant in
    /// the crate.
    #[test]
    fn bptt_gradcheck_random_coordinate(
        seed in any::<u64>(),
        seq in prop::collection::vec(0usize..11, 1..=8),
        coord in any::<u16>(),
        label in any::<bool>(),
    ) {
        let model = SequenceClassifier::new(ModelConfig::tiny(11), seed);
        let label = if label { 1.0 } else { 0.0 };
        let (_, grads) = model.compute_gradients(&seq, label);

        // The gate weights follow the 11 × 4 embedding table.
        let cfg = model.config();
        let gate_weights = 4 * cfg.hidden * (cfg.hidden + cfg.embed_dim);
        let idx = cfg.vocab * cfg.embed_dim + coord as usize % gate_weights;
        let eps = 1e-6;
        let params = model.flatten_params();
        let loss = |delta: f64| {
            let mut m = model.clone();
            let mut p = params.clone();
            p[idx] += delta;
            m.assign_params(&p);
            m.compute_gradients(&seq, label).0
        };
        let numeric = (loss(eps) - loss(-eps)) / (2.0 * eps);
        prop_assert!(
            (numeric - grads[idx]).abs() < 1e-4,
            "param {idx}: {numeric} vs {}",
            grads[idx]
        );
    }

    /// BCE gradient is the derivative of BCE loss for any logit/target.
    #[test]
    fn bce_grad_is_derivative(z in -30.0f64..30.0, y in 0.0f64..=1.0) {
        let eps = 1e-6;
        let numeric = (bce_loss(z + eps, y) - bce_loss(z - eps, y)) / (2.0 * eps);
        prop_assert!((numeric - bce_loss_grad(z, y)).abs() < 1e-5);
    }

    /// Export → text → import round-trips any random model exactly.
    #[test]
    fn weight_text_roundtrip(seed in any::<u64>()) {
        let model = SequenceClassifier::new(ModelConfig::tiny(11), seed);
        let w = ModelWeights::from_model(&model);
        let parsed = ModelWeights::from_text(&w.to_text()).expect("parse");
        prop_assert_eq!(w, parsed);
    }

    /// flatten → assign round-trips parameters and behaviour.
    #[test]
    fn flatten_assign_roundtrip(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let a = SequenceClassifier::new(ModelConfig::tiny(9), seed_a);
        let mut b = SequenceClassifier::new(ModelConfig::tiny(9), seed_b);
        b.assign_params(&a.flatten_params());
        let seq = [0usize, 4, 8, 2, 6];
        prop_assert_eq!(a.predict_proba(&seq), b.predict_proba(&seq));
    }
}
