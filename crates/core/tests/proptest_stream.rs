//! Property-based parity of the stream multiplexer against per-window
//! serial classification.
//!
//! Every [`Verdict`] must be bit-identical — exact f64 equality on the
//! float levels, 0 ULP in 10^6-scaled fixed point — to
//! [`CsdInferenceEngine::classify`] of the same window, no matter how
//! admission interleaves with serving rounds, how ragged the window
//! lengths are, or how many shards serve them. (The monitor-level
//! contract — alert parity with a serial `StreamMonitor` per process —
//! is `csd-sentry`'s `proptest_monitor_parity`.)

use std::collections::HashMap;

use csd_accel::{
    CsdInferenceEngine, GatePath, OptimizationLevel, ShardedStreamMux, StreamMuxConfig, Verdict,
};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use proptest::prelude::*;

fn engine(seed: u64, level: OptimizationLevel) -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::paper(), seed);
    CsdInferenceEngine::new(&ModelWeights::from_model(&model), level)
}

/// The one-shard mux — what the service runs.
fn mux(engine: CsdInferenceEngine) -> ShardedStreamMux {
    ShardedStreamMux::new(
        engine,
        StreamMuxConfig {
            shards: Some(1),
            ..StreamMuxConfig::default()
        },
    )
}

/// Ragged windows: the streams' due classifications.
fn arb_windows() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..278, 1..=120), 1..=14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streamed verdicts equal serial per-window classification bit for
    /// bit at every optimization level, with submissions interleaved
    /// against rounds so windows are admitted into a mux that owes
    /// window-steps and served at different times. In fixed point the
    /// serial side is also held to the per-CU reference, which never
    /// touches the gate table the row kernel gathers from.
    #[test]
    fn streamed_verdicts_bit_identical_to_serial(
        seed in any::<u64>(),
        windows in arb_windows(),
        // Tick budgets run between submissions — the knob that shuffles
        // admission and retirement orders mid-stream (cycled over
        // windows, so every submission gets one).
        ticks_between in prop::collection::vec(0usize..6, 14),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let e = engine(seed, level);
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        if level.is_fixed_point() {
            let per_cu = e.clone().with_gate_path(GatePath::PerCu);
            let reference: Vec<_> = windows.iter().map(|w| per_cu.classify(w)).collect();
            prop_assert_eq!(&serial, &reference, "table serial vs per-CU");
        }
        let mut m = mux(e.clone());
        let mut verdicts: Vec<Verdict> = Vec::new();
        for (k, w) in windows.iter().enumerate() {
            m.submit(k as u64, k, w);
            for _ in 0..ticks_between[k % ticks_between.len()] {
                m.tick_into(&mut verdicts);
            }
        }
        verdicts.extend(m.drain());
        prop_assert!(m.is_idle());
        prop_assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            prop_assert_eq!(
                v.classification,
                serial[v.stream as usize],
                "level {} stream {}", level, v.stream
            );
        }
    }

    /// The bit-identity contract holds at every shard count — a
    /// serving call spreads its windows over chunks across threads, but
    /// each verdict still equals serial classification of its window
    /// exactly, and each stream's verdicts arrive in submission order.
    #[test]
    fn sharded_verdicts_bit_identical_and_in_stream_order_at_every_shard_count(
        seed in any::<u64>(),
        windows in arb_windows(),
        ticks_between in prop::collection::vec(0usize..6, 14),
        shards in 1usize..=4,
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let e = engine(seed, level);
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        let mut m = ShardedStreamMux::new(
            e,
            StreamMuxConfig {
                shards: Some(shards),
                ..StreamMuxConfig::default()
            },
        );
        let mut verdicts: Vec<Verdict> = Vec::new();
        // Every stream submits two windows so per-stream order is
        // observable: stream k gets windows k and (k+1) % n.
        let n = windows.len();
        for (k, w) in windows.iter().enumerate() {
            m.submit(k as u64, 0, w);
            m.submit(k as u64, 1, &windows[(k + 1) % n]);
            for _ in 0..ticks_between[k % ticks_between.len()] {
                m.tick_into(&mut verdicts);
            }
        }
        m.drain_into(&mut verdicts);
        prop_assert!(m.is_idle());
        prop_assert_eq!(verdicts.len(), 2 * n, "shards {}", shards);
        let mut last_seq: HashMap<u64, u64> = HashMap::new();
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for v in &verdicts {
            let which = seen.entry(v.stream).or_insert(0);
            let expect = if *which == 0 {
                v.stream as usize
            } else {
                (v.stream as usize + 1) % n
            };
            *which += 1;
            prop_assert_eq!(
                v.classification,
                serial[expect],
                "level {} shards {} stream {}", level, shards, v.stream
            );
            // Submission order within the stream: at_call 0 before 1,
            // seq strictly increasing.
            prop_assert_eq!(v.at_call, *which - 1);
            if let Some(&prev) = last_seq.get(&v.stream) {
                prop_assert!(prev < v.seq, "stream {} out of order", v.stream);
            }
            last_seq.insert(v.stream, v.seq);
        }
    }

    /// Draining everything at once (pure batch arrival) agrees with the
    /// same windows trickled in one round apart (pure online arrival):
    /// arrival order must be invisible in the verdicts.
    #[test]
    fn arrival_pattern_does_not_change_verdicts(
        seed in any::<u64>(),
        windows in prop::collection::vec(prop::collection::vec(0usize..278, 1..=80), 1..=10),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let e = engine(seed, level);
        let mut batch = mux(e.clone());
        for (k, w) in windows.iter().enumerate() {
            batch.submit(k as u64, k, w);
        }
        let batch_verdicts = batch.drain();

        let mut online = mux(e);
        let mut online_verdicts = Vec::new();
        for (k, w) in windows.iter().enumerate() {
            online.submit(k as u64, k, w);
            online.tick_into(&mut online_verdicts);
        }
        online_verdicts.extend(online.drain());

        let by_stream = |vs: &[Verdict]| -> Vec<_> {
            let mut v: Vec<_> = vs.iter().map(|v| (v.stream, v.classification)).collect();
            v.sort_by_key(|&(s, _)| s);
            v
        };
        prop_assert_eq!(by_stream(&batch_verdicts), by_stream(&online_verdicts));
    }
}
