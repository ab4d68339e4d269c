//! Property-based fault tolerance: no seeded fault interleaving may
//! lose or change a verdict.
//!
//! Two layers carry the contract. The stream multiplexer's degraded
//! mode evicts corrupted lanes and reruns their windows through the
//! serial fused path, so under *any* `FaultPlan` (any seed, any rate up
//! to certainty, any cooldown) every window still produces a verdict
//! bit-identical to fault-free serial classification — exact f64
//! equality on the float levels, 0 ULP in 10^6-scaled fixed point —
//! and a re-run emitted ahead of an earlier window of its stream still
//! reaches the caller after it. The host recovery layer makes the same
//! promise for the device datapath: CRC rejects, stalls, page-read
//! failures and brownouts cost retries and simulated time, never
//! correctness.

use csd_accel::{
    CsdInferenceEngine, HostProgram, OptimizationLevel, RecoveryPolicy, ShardedStreamMux,
    StreamMuxConfig, Verdict,
};
use csd_device::{FaultConfig, FaultPlan};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use proptest::prelude::*;

fn engine(seed: u64, level: OptimizationLevel) -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::paper(), seed);
    CsdInferenceEngine::new(&ModelWeights::from_model(&model), level)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Degraded-mode invariant: any seeded fault plan over any
    /// submission/tick interleaving, lane width, cooldown, and
    /// optimization level yields exactly one verdict per window,
    /// bit-identical to fault-free serial `classify`, each stream's in
    /// the order it submitted them.
    #[test]
    fn any_fault_interleaving_is_bit_identical_to_fault_free_serial(
        model_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        // Up to certainty: rate 1.0 corrupts every occupied lane every
        // tick, forcing the whole workload through degraded reruns.
        rate in 0.0f64..=1.0,
        cooldown in 0u64..12,
        windows in prop::collection::vec(prop::collection::vec(0usize..278, 1..=100), 1..=12),
        ticks_between in prop::collection::vec(0usize..5, 12),
        level_idx in 0usize..3,
    ) {
        let level = OptimizationLevel::ALL[level_idx];
        let e = engine(model_seed, level);
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        for width in [1usize, 4, 9] {
            let mut m = ShardedStreamMux::new(
                e.clone(),
                StreamMuxConfig {
                    lanes: Some(width),
                    shards: Some(1),
                    ..StreamMuxConfig::default()
                },
            );
            m.arm_faults(FaultPlan::new(fault_seed, FaultConfig::uniform(rate)), cooldown);
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
            verdicts.extend(m.drain());
            prop_assert!(m.is_idle());
            prop_assert_eq!(
                verdicts.len(), 2 * n,
                "no verdict lost: width {} rate {}", width, rate
            );
            let mut seen = vec![0usize; n];
            for v in &verdicts {
                let k = v.stream as usize;
                prop_assert_eq!(
                    v.at_call, seen[k],
                    "width {} rate {} stream {} out of order", width, rate, k
                );
                seen[k] += 1;
                prop_assert_eq!(
                    v.classification,
                    serial[(k + v.at_call) % n],
                    "level {} width {} rate {} stream {}", level, width, rate, k
                );
            }
            let s = m.stats();
            prop_assert_eq!(s.degraded_reruns, s.faults, "every fault reruns exactly once");
        }
    }

    /// Host recovery invariant: a flaky device datapath (every fault
    /// class armed at a low per-operation rate) never changes what a
    /// classification returns — retries and reprograms absorb the
    /// faults, and the verdict equals the pure engine's.
    #[test]
    fn host_recovery_preserves_verdicts_under_random_fault_seeds(
        fault_seed in any::<u64>(),
        // Per-operation rates compound over the ~tens of faultable
        // operations a short classify issues; keep them small enough
        // that a 24-retry budget makes success near-certain for every
        // seed.
        rate in 0.0f64..0.004,
        seq in prop::collection::vec(0usize..278, 4..=16),
    ) {
        let w = ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 7));
        let reference = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        let mut host = HostProgram::new(&w, OptimizationLevel::FixedPoint)
            .expect("boot")
            .with_recovery(RecoveryPolicy {
                max_retries: 24,
                ..RecoveryPolicy::default()
            });
        host.arm_faults(FaultPlan::new(fault_seed, FaultConfig::uniform(rate)));
        for round in 0..3 {
            let run = host.classify_from_ssd(&seq).expect("recovery absorbs low-rate faults");
            prop_assert_eq!(
                run.classification,
                reference.classify(&seq),
                "round {} rate {}", round, rate
            );
        }
    }
}
