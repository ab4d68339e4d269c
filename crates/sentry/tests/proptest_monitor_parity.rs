//! Property-based parity of the serving path against the serial
//! monitor: a [`Sentry`] fed interleaved live traffic raises, for each
//! process, exactly the [`Alert`](csd_accel::Alert) one serial
//! [`StreamMonitor`] fed that process's calls latches — same
//! `at_call`, same `probability`, same `inference_us` — and none where
//! the monitor has none.
//!
//! The benchmark's oracle checks the sentry against offline `classify`
//! of every window; this pins the monitor semantics on top — first
//! full window, then every `stride` calls, k-of-n votes, latch — across
//! random window geometries, shard counts and a sporadic poll cadence.
//! The vote fold is order-sensitive, so it is also the end-to-end pin
//! on the mux's per-stream delivery order.

use csd_accel::{
    CsdInferenceEngine, MonitorConfig, OptimizationLevel, StreamMonitor, StreamMuxConfig,
};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{ProcessEvent, Sentry, SentryConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sentry_alerts_match_one_serial_monitor_per_process(
        seed in any::<u64>(),
        traces in prop::collection::vec(prop::collection::vec(0usize..278, 0..=220), 1..=6),
        window_len in 4usize..40,
        stride in 1usize..20,
        shards in 1usize..=4,
    ) {
        let model = SequenceClassifier::new(ModelConfig::paper(), seed);
        let e = CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        );
        let monitor_config = MonitorConfig {
            window_len,
            stride,
            votes_needed: 1,
            vote_horizon: 2,
        };
        let reference: Vec<_> = traces
            .iter()
            .map(|calls| StreamMonitor::new(e.clone(), monitor_config).observe_all(calls))
            .collect();

        let mut sentry = Sentry::new(
            e,
            SentryConfig {
                window_len,
                stride,
                votes_needed: 1,
                vote_horizon: 2,
                mux: StreamMuxConfig {
                    shards: Some(shards),
                    ..StreamMuxConfig::default()
                },
                ..SentryConfig::default()
            },
        );
        let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
        let mut t_us = 0u64;
        for i in 0..longest {
            for (pid, calls) in traces.iter().enumerate() {
                if let Some(&call) = calls.get(i) {
                    t_us += 1;
                    sentry.ingest(&ProcessEvent::api(t_us, pid as u32, call));
                }
            }
            // Poll sporadically: alerts may surface late but must match.
            if i % 7 == 0 {
                let _ = sentry.poll();
            }
        }
        let _ = sentry.drain();

        prop_assert_eq!(sentry.stats().mux.dropped, 0, "the default queue holds every window");
        for (pid, expected) in reference.iter().enumerate() {
            let raised: Vec<_> = sentry
                .incidents()
                .iter()
                .filter(|i| i.pid == pid as u32)
                .map(|i| i.alert)
                .collect();
            prop_assert_eq!(
                &raised, &Vec::from_iter(*expected),
                "pid {} window_len {} stride {} shards {}",
                pid, window_len, stride, shards
            );
        }
    }
}
