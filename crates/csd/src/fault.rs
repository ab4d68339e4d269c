//! Deterministic fault injection for the simulated SmartSSD.
//!
//! Real CSD datapaths corrupt and stall in practice — link bit-flips,
//! DRAM ECC events, kernel hangs, firmware brownouts — and a detector
//! that dies when its device hiccups is worse than none. This module
//! models those failure classes as a *seeded, deterministic* plan so
//! every fault scenario is exactly reproducible: the same
//! [`FaultPlan`] over the same operation sequence injects the same
//! faults at the same points, which is what lets the test suite assert
//! bit-identical verdicts under arbitrary fault interleavings.
//!
//! Fault classes (mapped to SmartSSD failure modes in DESIGN.md §5e):
//!
//! - **Transfer corruption** — a bit flips in flight on the PCIe link,
//!   an AXI burst, or a DDR access. The runtime's CRC-on-DMA check
//!   catches it and surfaces
//!   [`RuntimeError::TransferCorrupted`](crate::RuntimeError::TransferCorrupted).
//! - **Kernel stall** — an enqueued kernel hangs (a deadlocked DATAFLOW
//!   handshake); the run takes [`FaultConfig::stall_duration`] longer
//!   than it should, tripping the host watchdog when one is set.
//! - **Page-read failure** — the SSD fails to return a NAND page
//!   (uncorrectable read error).
//! - **Brownout** — the whole device drops off the bus for
//!   [`FaultConfig::brownout_window`]; every operation in the window
//!   fails with the same recovery deadline.
//!
//! The plan only *decides* faults; enforcement lives in the
//! [`runtime`](crate::runtime) verbs so that every `Result<_,
//! RuntimeError>` in the host API can actually fail on demand.

use crate::sim::Nanos;

/// Where in the datapath a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The external PCIe link (host-mediated DMA).
    PcieTransfer,
    /// An AXI master burst between a kernel and DDR.
    AxiTransfer,
    /// A DDR bank access (the P2P landing write).
    DramAccess,
    /// A NAND page read inside the SSD.
    SsdRead,
    /// A kernel dispatch (enqueue → completion handshake).
    KernelEnqueue,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultSite::PcieTransfer => "pcie-transfer",
            FaultSite::AxiTransfer => "axi-transfer",
            FaultSite::DramAccess => "dram-access",
            FaultSite::SsdRead => "ssd-read",
            FaultSite::KernelEnqueue => "kernel-enqueue",
        };
        write!(f, "{name}")
    }
}

/// One injected fault, as reported by [`FaultPlan::at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A transfer was corrupted in flight (one flipped bit, caught by
    /// the CRC-on-DMA check).
    Corrupted {
        /// The datapath stage that corrupted the transfer.
        site: FaultSite,
        /// Which bit of the checked word flipped (0–63).
        flipped_bit: u32,
    },
    /// A kernel run hangs for `extra` beyond its normal duration.
    Stalled {
        /// Extra time the hung run occupies its circuit.
        extra: Nanos,
    },
    /// The SSD failed to return a page (uncorrectable NAND error).
    PageReadFailed,
    /// The device browned out; nothing completes before `until`.
    Brownout {
        /// The time at which the device comes back.
        until: Nanos,
    },
}

/// Per-class fault probabilities and magnitudes.
///
/// Probabilities are per *operation* (one transfer, one enqueue, one
/// page read), not per byte, matching the granularity at which the
/// runtime consults the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a PCIe/AXI/DRAM transfer is corrupted.
    pub corruption: f64,
    /// Probability that a kernel enqueue stalls.
    pub stall: f64,
    /// Probability that an SSD page read fails.
    pub page_read_fail: f64,
    /// Probability that any operation triggers a whole-device brownout.
    pub brownout: f64,
    /// How long a brownout keeps the device off the bus.
    pub brownout_window: Nanos,
    /// How long a stalled kernel hangs beyond its normal run time.
    /// Real hangs are unbounded; this stands in for "long enough that
    /// only a watchdog or a reprogram gets the circuit back".
    pub stall_duration: Nanos,
}

impl FaultConfig {
    /// A plan that never faults (useful as an explicit baseline).
    pub fn none() -> Self {
        Self {
            corruption: 0.0,
            stall: 0.0,
            page_read_fail: 0.0,
            brownout: 0.0,
            brownout_window: Nanos::ZERO,
            stall_duration: Nanos::ZERO,
        }
    }

    /// Every recoverable class at probability `rate`, brownouts at an
    /// eighth of it (whole-device outages are rarer than link errors),
    /// with representative magnitudes: 200 µs brownouts and 2 s hangs.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        Self {
            corruption: rate,
            stall: rate,
            page_read_fail: rate,
            brownout: rate / 8.0,
            brownout_window: Nanos::from_micros(200.0),
            stall_duration: Nanos::from_micros(2_000_000.0),
        }
    }

    /// `true` when every probability is zero.
    pub fn is_none(&self) -> bool {
        self.corruption == 0.0
            && self.stall == 0.0
            && self.page_read_fail == 0.0
            && self.brownout == 0.0
    }
}

/// Running tallies of injected faults, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Transfers corrupted (CRC-on-DMA rejections).
    pub corruptions: u64,
    /// Kernel enqueues stalled.
    pub stalls: u64,
    /// SSD page reads failed.
    pub page_read_failures: u64,
    /// Brownouts triggered (windows opened).
    pub brownouts: u64,
    /// Operations rejected because they landed inside an open brownout
    /// window.
    pub brownout_rejections: u64,
}

impl FaultCounters {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.corruptions
            + self.stalls
            + self.page_read_failures
            + self.brownouts
            + self.brownout_rejections
    }
}

/// SplitMix64: a tiny, high-quality, fully deterministic generator.
/// Vendored inline so the device sim stays dependency-free; the exact
/// stream is part of the fault plan's reproducibility contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultRng(u64);

impl FaultRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in [0, 1) with 53 bits of precision.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }
}

/// A seeded, deterministic fault schedule for one device.
///
/// Arm it on a [`SmartSsd`](crate::SmartSsd) via
/// [`arm_faults`](crate::SmartSsd::arm_faults); the runtime consults it
/// once per operation. Determinism contract: the injected fault
/// sequence is a pure function of `(seed, config, operation order)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    rng: FaultRng,
    counters: FaultCounters,
    brownout_until: Option<Nanos>,
}

impl FaultPlan {
    /// A plan drawing from `config` with the deterministic stream
    /// seeded by `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        Self {
            seed,
            config,
            rng: FaultRng(seed),
            counters: FaultCounters::default(),
            brownout_until: None,
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-class probabilities and magnitudes.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Faults injected so far, by class.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Decides whether the operation at `site`, issued at `now`,
    /// faults. An open brownout window rejects everything without
    /// consuming randomness; otherwise one draw decides a brownout and
    /// one more decides the site's own class, so the fault stream is
    /// independent of outcomes.
    pub fn at(&mut self, now: Nanos, site: FaultSite) -> Option<FaultEvent> {
        if let Some(until) = self.brownout_until {
            if now < until {
                self.counters.brownout_rejections += 1;
                return Some(FaultEvent::Brownout { until });
            }
            self.brownout_until = None;
        }
        if self.rng.chance(self.config.brownout) {
            let until = now + self.config.brownout_window;
            self.brownout_until = Some(until);
            self.counters.brownouts += 1;
            return Some(FaultEvent::Brownout { until });
        }
        match site {
            FaultSite::PcieTransfer | FaultSite::AxiTransfer | FaultSite::DramAccess => {
                if self.rng.chance(self.config.corruption) {
                    let flipped_bit = (self.rng.next_u64() % 64) as u32;
                    self.counters.corruptions += 1;
                    Some(FaultEvent::Corrupted { site, flipped_bit })
                } else {
                    None
                }
            }
            FaultSite::SsdRead => {
                if self.rng.chance(self.config.page_read_fail) {
                    self.counters.page_read_failures += 1;
                    Some(FaultEvent::PageReadFailed)
                } else {
                    None
                }
            }
            FaultSite::KernelEnqueue => {
                if self.rng.chance(self.config.stall) {
                    self.counters.stalls += 1;
                    Some(FaultEvent::Stalled {
                        extra: self.config.stall_duration,
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Decides whether one served window's classification is corrupted
    /// — the hook the stream multiplexer's degraded mode uses. One
    /// draw per call against [`FaultConfig::corruption`]; counted as a
    /// corruption.
    pub fn corrupt_window(&mut self) -> bool {
        if self.rng.chance(self.config.corruption) {
            self.counters.corruptions += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &mut FaultPlan, n: usize, site: FaultSite) -> Vec<Option<FaultEvent>> {
        (0..n).map(|i| plan.at(Nanos(i as u64), site)).collect()
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let config = FaultConfig::uniform(0.3);
        let mut a = FaultPlan::new(42, config);
        let mut b = FaultPlan::new(42, config);
        assert_eq!(
            drain(&mut a, 200, FaultSite::PcieTransfer),
            drain(&mut b, 200, FaultSite::PcieTransfer)
        );
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn different_seeds_diverge() {
        let config = FaultConfig::uniform(0.3);
        let mut a = FaultPlan::new(1, config);
        let mut b = FaultPlan::new(2, config);
        assert_ne!(
            drain(&mut a, 200, FaultSite::AxiTransfer),
            drain(&mut b, 200, FaultSite::AxiTransfer)
        );
    }

    #[test]
    fn zero_rate_never_faults() {
        let mut plan = FaultPlan::new(7, FaultConfig::none());
        assert!(plan.config().is_none());
        for site in [
            FaultSite::PcieTransfer,
            FaultSite::AxiTransfer,
            FaultSite::DramAccess,
            FaultSite::SsdRead,
            FaultSite::KernelEnqueue,
        ] {
            assert!(drain(&mut plan, 50, site).iter().all(Option::is_none));
        }
        assert_eq!(plan.counters().total(), 0);
    }

    #[test]
    fn full_rate_always_faults_with_matching_class() {
        let mut plan = FaultPlan::new(
            9,
            FaultConfig {
                brownout: 0.0,
                ..FaultConfig::uniform(1.0)
            },
        );
        assert!(matches!(
            plan.at(Nanos::ZERO, FaultSite::PcieTransfer),
            Some(FaultEvent::Corrupted {
                site: FaultSite::PcieTransfer,
                ..
            })
        ));
        assert!(matches!(
            plan.at(Nanos::ZERO, FaultSite::SsdRead),
            Some(FaultEvent::PageReadFailed)
        ));
        assert!(matches!(
            plan.at(Nanos::ZERO, FaultSite::KernelEnqueue),
            Some(FaultEvent::Stalled { .. })
        ));
    }

    #[test]
    fn brownout_window_rejects_until_expiry() {
        let config = FaultConfig {
            corruption: 0.0,
            stall: 0.0,
            page_read_fail: 0.0,
            brownout: 1.0,
            brownout_window: Nanos(1_000),
            stall_duration: Nanos::ZERO,
        };
        let mut plan = FaultPlan::new(3, config);
        let first = plan.at(Nanos(100), FaultSite::KernelEnqueue);
        let Some(FaultEvent::Brownout { until }) = first else {
            panic!("expected brownout, got {first:?}");
        };
        assert_eq!(until, Nanos(1_100));
        // Inside the window: same deadline, counted as a rejection.
        assert_eq!(
            plan.at(Nanos(500), FaultSite::SsdRead),
            Some(FaultEvent::Brownout { until })
        );
        assert_eq!(plan.counters().brownouts, 1);
        assert_eq!(plan.counters().brownout_rejections, 1);
        // After expiry: the next op re-draws (and at rate 1.0 browns out
        // again, with a new window).
        let next = plan.at(Nanos(2_000), FaultSite::SsdRead);
        assert_eq!(
            next,
            Some(FaultEvent::Brownout {
                until: Nanos(3_000)
            })
        );
        assert_eq!(plan.counters().brownouts, 2);
    }

    #[test]
    fn window_corruption_is_deterministic_and_counted() {
        let config = FaultConfig::uniform(0.4);
        let mut a = FaultPlan::new(11, config);
        let mut b = FaultPlan::new(11, config);
        let seq_a: Vec<bool> = (0..300).map(|_| a.corrupt_window()).collect();
        let seq_b: Vec<bool> = (0..300).map(|_| b.corrupt_window()).collect();
        assert_eq!(seq_a, seq_b);
        let hits = seq_a.iter().filter(|&&x| x).count() as u64;
        assert!(hits > 0, "rate 0.4 over 300 draws must hit");
        assert_eq!(a.counters().corruptions, hits);
    }

    #[test]
    #[should_panic(expected = "fault rate must be in [0,1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultConfig::uniform(1.5);
    }
}
