//! Multi-device scaling.
//!
//! §II: the SmartSSD "represents a scalable solution that overcomes
//! traditional constraints related to space, power, and cost, allowing
//! for the installation of multiple devices within a single node".
//! [`CsdFleet`] models that deployment: `N` devices, each running the
//! same programmed model, with sequences partitioned across them — the
//! background-scanning workload (§I) at rack scale.
//!
//! A device whose recovery budget is exhausted (see
//! [`crate::host::RecoveryPolicy`]) does not abort the scan: the fleet
//! quarantines it, redistributes its shard across the healthy devices,
//! and re-admits it after a cooldown. A verdict is only lost if *every*
//! device fails on the same sequence.

#![deny(clippy::unwrap_used)]

use csd_device::{FaultPlan, Nanos, RuntimeError};
use csd_nn::ModelWeights;

use crate::engine::Classification;
use crate::host::{HostError, HostProgram, RecoveryPolicy, RecoveryStats};
use crate::opt::OptimizationLevel;

/// The outcome of a fleet scan.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScan {
    /// Per-sequence classifications, in input order.
    pub classifications: Vec<Classification>,
    /// Simulated wall time: the slowest device's elapsed time (devices run
    /// concurrently).
    pub elapsed: Nanos,
    /// Per-device elapsed times.
    pub per_device: Vec<Nanos>,
}

impl FleetScan {
    /// Number of sequences flagged positive.
    pub fn positives(&self) -> usize {
        self.classifications
            .iter()
            .filter(|c| c.is_positive)
            .count()
    }
}

/// Fleet-level fault-handling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPolicy {
    /// Scans a quarantined device sits out before re-admission.
    pub cooldown_scans: u64,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self { cooldown_scans: 2 }
    }
}

/// Fleet-level fault tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Scans performed.
    pub scans: u64,
    /// Sequence attempts that came back with a device error.
    pub faults: u64,
    /// Devices quarantined (counting repeats).
    pub quarantines: u64,
    /// Devices re-admitted after cooldown.
    pub readmissions: u64,
    /// Sequences that had to move to another device mid-scan.
    pub redistributed: u64,
}

/// One fleet slot: a device plus its quarantine state.
#[derive(Debug)]
struct Slot {
    host: HostProgram,
    /// `Some(scan)` — sits out until fleet scan counter reaches `scan`.
    quarantined_until: Option<u64>,
}

/// A node with several SmartSSDs programmed with the same model.
#[derive(Debug)]
pub struct CsdFleet {
    slots: Vec<Slot>,
    policy: FleetPolicy,
    stats: FleetStats,
}

impl CsdFleet {
    /// Boots `n` devices with `weights` at `level`.
    ///
    /// # Errors
    ///
    /// Returns the first device-boot error.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(
        n: usize,
        weights: &ModelWeights,
        level: OptimizationLevel,
    ) -> Result<Self, HostError> {
        assert!(n > 0, "a fleet needs at least one device");
        let slots = (0..n)
            .map(|_| {
                HostProgram::new(weights, level).map(|host| Slot {
                    host,
                    quarantined_until: None,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            slots,
            policy: FleetPolicy::default(),
            stats: FleetStats::default(),
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `false`: fleets are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Replaces the fleet-level fault policy.
    pub fn set_policy(&mut self, policy: FleetPolicy) {
        self.policy = policy;
    }

    /// Applies a recovery policy to every device.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        for slot in &mut self.slots {
            slot.host.set_recovery(policy);
        }
    }

    /// Arms a fault schedule on device `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn arm_faults(&mut self, idx: usize, plan: FaultPlan) {
        self.slots[idx].host.arm_faults(plan);
    }

    /// Disarms fault injection on device `idx`; returns the retired plan.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn disarm_faults(&mut self, idx: usize) -> Option<FaultPlan> {
        self.slots[idx].host.disarm_faults()
    }

    /// Recovery tallies of device `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn device_stats(&self, idx: usize) -> RecoveryStats {
        self.slots[idx].host.recovery_stats()
    }

    /// Fleet-level fault tallies.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Indices of currently-quarantined devices.
    pub fn quarantined(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.quarantined_until.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Scans `sequences`, partitioning them round-robin across healthy
    /// devices. Devices run concurrently; each serializes its own share.
    ///
    /// A device that exhausts its recovery budget on a sequence is
    /// quarantined for [`FleetPolicy::cooldown_scans`] scans and the
    /// sequence moves to the next healthy device, so one flaky SmartSSD
    /// delays its shard instead of sinking the scan.
    ///
    /// # Errors
    ///
    /// Returns the last device error only when a sequence failed on
    /// *every* device.
    ///
    /// # Panics
    ///
    /// Panics if `sequences` is empty or any sequence is empty.
    pub fn scan(&mut self, sequences: &[Vec<usize>]) -> Result<FleetScan, RuntimeError> {
        assert!(!sequences.is_empty(), "nothing to scan");
        self.stats.scans += 1;
        let scan_no = self.stats.scans;
        // Cooldown expiry: devices whose sentence is served rejoin.
        for slot in &mut self.slots {
            if slot.quarantined_until.is_some_and(|until| scan_no >= until) {
                slot.quarantined_until = None;
                self.stats.readmissions += 1;
            }
        }
        let n = self.slots.len();
        let mut classifications = vec![None; sequences.len()];
        let mut per_device = vec![Nanos::ZERO; n];
        for (i, seq) in sequences.iter().enumerate() {
            // Fault-free this is exactly the old `i % n` round-robin;
            // quarantined devices are skipped, and a mid-sequence
            // failure walks to the next candidate.
            let mut last_err = None;
            for offset in 0..n {
                let d = (i + offset) % n;
                if self.slots[d].quarantined_until.is_some() {
                    continue;
                }
                if offset > 0 {
                    self.stats.redistributed += 1;
                }
                match self.slots[d].host.classify_from_ssd(seq) {
                    Ok(run) => {
                        per_device[d] += run.elapsed;
                        classifications[i] = Some(run.classification);
                        last_err = None;
                        break;
                    }
                    Err(e) => {
                        self.stats.faults += 1;
                        self.stats.quarantines += 1;
                        self.slots[d].quarantined_until =
                            Some(scan_no + self.policy.cooldown_scans);
                        last_err = Some(e);
                    }
                }
            }
            if let Some(e) = last_err {
                return Err(e);
            }
            if classifications[i].is_none() {
                // Every device was already quarantined: force the
                // least-recently-benched one back early rather than
                // dropping the verdict.
                let d = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.quarantined_until.unwrap_or(0))
                    .map(|(idx, _)| idx)
                    .unwrap_or(i % n);
                self.slots[d].quarantined_until = None;
                self.stats.readmissions += 1;
                let run = self.slots[d].host.classify_from_ssd(seq)?;
                per_device[d] += run.elapsed;
                classifications[i] = Some(run.classification);
            }
        }
        let elapsed = per_device.iter().copied().fold(Nanos::ZERO, Nanos::max);
        let mut out = Vec::with_capacity(sequences.len());
        for c in classifications {
            match c {
                Some(c) => out.push(c),
                // Unreachable: every arm above either fills the slot or
                // returns early — but never drop a verdict silently.
                None => return Err(RuntimeError::BadHandle),
            }
        }
        Ok(FleetScan {
            classifications: out,
            elapsed,
            per_device,
        })
    }

    /// Pushes retrained weights to every device (the fleet-wide CTI
    /// update).
    ///
    /// # Errors
    ///
    /// Returns the first device error; devices updated before the failure
    /// keep the new model (callers should retry until `Ok`).
    pub fn update_weights(&mut self, weights: &ModelWeights) -> Result<(), RuntimeError> {
        for slot in &mut self.slots {
            slot.host.update_weights(weights)?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::engine::CsdInferenceEngine;
    use csd_device::FaultConfig;
    use csd_nn::{ModelConfig, SequenceClassifier};

    fn weights() -> ModelWeights {
        ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 12))
    }

    fn sequences(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|k| (0..100).map(|i| (i * 7 + k * 13) % 278).collect())
            .collect()
    }

    /// A fault plan that makes every classification attempt fail.
    fn always_failing() -> FaultPlan {
        let mut cfg = FaultConfig::none();
        cfg.corruption = 1.0;
        FaultPlan::new(1, cfg)
    }

    #[test]
    fn fleet_matches_single_device_results() {
        let w = weights();
        let seqs = sequences(8);
        let mut one = CsdFleet::new(1, &w, OptimizationLevel::FixedPoint).expect("boot");
        let mut four = CsdFleet::new(4, &w, OptimizationLevel::FixedPoint).expect("boot");
        let a = one.scan(&seqs).expect("scan");
        let b = four.scan(&seqs).expect("scan");
        assert_eq!(a.classifications, b.classifications);
    }

    #[test]
    fn scaling_reduces_wall_time() {
        let w = weights();
        let seqs = sequences(12);
        let elapsed = |n: usize| {
            CsdFleet::new(n, &w, OptimizationLevel::FixedPoint)
                .expect("boot")
                .scan(&seqs)
                .expect("scan")
                .elapsed
        };
        let t1 = elapsed(1);
        let t4 = elapsed(4);
        assert!(t4 < t1, "4 devices {t4} vs 1 device {t1}");
        // Near-linear: within 2× of ideal (per-run P2P latency amortizes
        // imperfectly).
        assert!(t4.as_nanos() * 2 >= t1.as_nanos() / 4);
    }

    #[test]
    fn round_robin_balances_load() {
        let w = weights();
        let mut fleet = CsdFleet::new(3, &w, OptimizationLevel::FixedPoint).expect("boot");
        let scan = fleet.scan(&sequences(9)).expect("scan");
        // Each device served 3 equal sequences: times match.
        assert_eq!(scan.per_device.len(), 3);
        let first = scan.per_device[0];
        for &t in &scan.per_device {
            assert_eq!(t, first);
        }
    }

    #[test]
    fn fleet_wide_cti_update() {
        let w = weights();
        let retrained =
            ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 13));
        let seqs = sequences(4);
        let mut fleet = CsdFleet::new(2, &w, OptimizationLevel::FixedPoint).expect("boot");
        let before = fleet.scan(&seqs).expect("scan");
        fleet.update_weights(&retrained).expect("update");
        let after = fleet.scan(&seqs).expect("scan");
        assert_ne!(before.classifications, after.classifications);
    }

    #[test]
    fn positives_counter() {
        let w = weights();
        let mut fleet = CsdFleet::new(2, &w, OptimizationLevel::FixedPoint).expect("boot");
        let scan = fleet.scan(&sequences(6)).expect("scan");
        let manual = scan
            .classifications
            .iter()
            .filter(|c| c.is_positive)
            .count();
        assert_eq!(scan.positives(), manual);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_rejected() {
        let _ = CsdFleet::new(0, &weights(), OptimizationLevel::Vanilla);
    }

    #[test]
    fn dead_device_is_quarantined_and_its_shard_redistributed() {
        let w = weights();
        let seqs = sequences(9);
        let mut healthy = CsdFleet::new(3, &w, OptimizationLevel::FixedPoint).expect("boot");
        let reference = healthy.scan(&seqs).expect("scan");

        let mut fleet = CsdFleet::new(3, &w, OptimizationLevel::FixedPoint).expect("boot");
        fleet.set_recovery(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::retry_only()
        });
        fleet.arm_faults(1, always_failing());
        let scan = fleet.scan(&seqs).expect("fleet survives one dead device");
        // No verdict lost, none changed.
        assert_eq!(scan.classifications, reference.classifications);
        assert_eq!(fleet.quarantined(), vec![1]);
        let stats = fleet.stats();
        assert_eq!(stats.quarantines, 1);
        assert!(stats.redistributed >= 1, "the shard moved");
        // Device 1 served nothing after its first failed sequence.
        assert!(scan.per_device[1] < scan.per_device[0]);
    }

    #[test]
    fn quarantine_cooldown_readmits_a_recovered_device() {
        let w = weights();
        let seqs = sequences(6);
        let mut fleet = CsdFleet::new(3, &w, OptimizationLevel::FixedPoint).expect("boot");
        fleet.set_policy(FleetPolicy { cooldown_scans: 2 });
        fleet.set_recovery(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::retry_only()
        });
        fleet.arm_faults(2, always_failing());
        fleet.scan(&seqs).expect("scan 1");
        assert_eq!(fleet.quarantined(), vec![2]);
        // The flake clears while the device sits out.
        fleet.disarm_faults(2);
        fleet.scan(&seqs).expect("scan 2: still benched");
        assert_eq!(fleet.quarantined(), vec![2]);
        fleet.scan(&seqs).expect("scan 3: cooldown over");
        assert!(fleet.quarantined().is_empty(), "re-admitted");
        assert_eq!(fleet.stats().readmissions, 1);
        // And it serves traffic again.
        let scan = fleet.scan(&seqs).expect("scan 4");
        assert!(scan.per_device[2] > Nanos::ZERO);
    }

    #[test]
    fn all_devices_dead_surfaces_the_error() {
        let w = weights();
        let mut fleet = CsdFleet::new(2, &w, OptimizationLevel::FixedPoint).expect("boot");
        fleet.set_recovery(RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::retry_only()
        });
        fleet.arm_faults(0, always_failing());
        fleet.arm_faults(1, always_failing());
        let err = fleet.scan(&sequences(2)).expect_err("nothing healthy");
        assert!(matches!(err, RuntimeError::TransferCorrupted { .. }));
    }

    #[test]
    fn flaky_device_delays_but_never_changes_verdicts() {
        let w = weights();
        let seqs = sequences(12);
        let mut healthy = CsdFleet::new(4, &w, OptimizationLevel::FixedPoint).expect("boot");
        let reference = healthy.scan(&seqs).expect("scan");
        let engine = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        let serial: Vec<Classification> = seqs.iter().map(|s| engine.classify(s)).collect();
        assert_eq!(reference.classifications, serial);

        // Seeded corruption on two devices; then every fault class on
        // every device at the per-op rate that disturbs a 100-call
        // window (≈ 602 faultable device operations) with probability
        // 0.2, ≈ 3.7e-4, under retry alone and retry with reprogramming.
        let mut corruption = FaultConfig::none();
        corruption.corruption = 0.002;
        let uniform = FaultConfig::uniform(1.0 - 0.8f64.powf(1.0 / 602.0));
        let every_device = || {
            (0..4)
                .map(|d| (d, 0xC5D0 + d as u64, uniform))
                .collect::<Vec<_>>()
        };
        let reprogram = RecoveryPolicy {
            reprogram_after: 3,
            ..RecoveryPolicy::default()
        };
        let cases = [
            (
                16,
                RecoveryPolicy::default(),
                vec![(0, 17, corruption), (3, 99, corruption)],
            ),
            (12, RecoveryPolicy::retry_only(), every_device()),
            (12, reprogram, every_device()),
        ];
        for (max_retries, policy, plans) in cases {
            let recovery = RecoveryPolicy {
                max_retries,
                ..policy
            };
            let mut fleet = CsdFleet::new(4, &w, OptimizationLevel::FixedPoint).expect("boot");
            fleet.set_recovery(recovery);
            for (idx, seed, cfg) in plans {
                fleet.arm_faults(idx, FaultPlan::new(seed, cfg));
            }
            let scan = fleet.scan(&seqs).expect("recovers");
            assert_eq!(
                scan.classifications, reference.classifications,
                "{recovery:?}"
            );
            let faults: u64 = (0..4).map(|idx| fleet.device_stats(idx).faults).sum();
            assert!(faults > 0, "{recovery:?}: no fault was injected");
        }
    }
}
