//! FPGA-attached DDR banks.
//!
//! The paper provisions "a conservative two DDR banks of global memory"
//! against the u200's four (§III-C), trading bandwidth headroom for a
//! SmartSSD-compatible footprint. Each bank is an independent
//! [`ResourceTimeline`]; kernels bound to the same bank contend.

use crate::sim::{Nanos, ResourceTimeline};

/// One DDR4 bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrBank {
    /// Peak bandwidth in GiB/s (DDR4-2400 ECC DIMM ≈ 19.2 GB/s ≈ 17.9 GiB/s).
    pub bandwidth_gib_s: f64,
    /// Fixed access latency per request (row activate + controller).
    pub access_latency: Nanos,
}

impl Default for DdrBank {
    fn default() -> Self {
        Self {
            bandwidth_gib_s: 17.9,
            access_latency: Nanos(60),
        }
    }
}

/// A set of DDR banks with per-bank contention tracking.
#[derive(Debug, Clone)]
pub struct DramSubsystem {
    bank_spec: DdrBank,
    banks: Vec<ResourceTimeline>,
}

impl DramSubsystem {
    /// Creates `banks` identical banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(banks: u32, bank_spec: DdrBank) -> Self {
        assert!(banks > 0, "at least one DDR bank");
        Self {
            bank_spec,
            banks: vec![ResourceTimeline::new(); banks as usize],
        }
    }

    /// The paper's conservative two-bank configuration.
    pub fn two_banks() -> Self {
        Self::new(2, DdrBank::default())
    }

    /// Number of banks.
    pub fn bank_count(&self) -> u32 {
        self.banks.len() as u32
    }

    /// Books a `bytes`-sized access on `bank` starting at `now`; returns
    /// the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn access(&mut self, bank: u32, now: Nanos, bytes: u64) -> Nanos {
        let spec = self.bank_spec;
        let timeline = self
            .banks
            .get_mut(bank as usize)
            .unwrap_or_else(|| panic!("bank {bank} out of range"));
        let duration = spec.access_latency + Nanos::for_transfer(bytes, spec.bandwidth_gib_s);
        timeline.acquire(now, duration)
    }

    /// Utilization of `bank` over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn utilization(&self, bank: u32, horizon: Nanos) -> f64 {
        self.banks[bank as usize].utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_time_is_latency_plus_transfer() {
        let mut dram = DramSubsystem::two_banks();
        let done = dram.access(0, Nanos::ZERO, 0);
        assert_eq!(done, Nanos(60));
    }

    #[test]
    fn same_bank_contends_different_banks_do_not() {
        let mut dram = DramSubsystem::two_banks();
        let a = dram.access(0, Nanos::ZERO, 1 << 20);
        let b = dram.access(0, Nanos::ZERO, 1 << 20); // same bank: queued
        let c = dram.access(1, Nanos::ZERO, 1 << 20); // other bank: parallel
        assert!(b > a);
        assert_eq!(c, a);
    }

    #[test]
    fn bandwidth_scales_duration() {
        let fast = DdrBank {
            bandwidth_gib_s: 20.0,
            access_latency: Nanos::ZERO,
        };
        let slow = DdrBank {
            bandwidth_gib_s: 10.0,
            access_latency: Nanos::ZERO,
        };
        let mut f = DramSubsystem::new(1, fast);
        let mut s = DramSubsystem::new(1, slow);
        let df = f.access(0, Nanos::ZERO, 1 << 24);
        let ds = s.access(0, Nanos::ZERO, 1 << 24);
        assert!((ds.as_nanos() as f64 / df.as_nanos() as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn utilization_tracked_per_bank() {
        let mut dram = DramSubsystem::two_banks();
        dram.access(0, Nanos::ZERO, 1 << 20);
        let horizon = Nanos::from_micros(1_000.0);
        assert!(dram.utilization(0, horizon) > 0.0);
        assert_eq!(dram.utilization(1, horizon), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bank_panics() {
        let mut dram = DramSubsystem::two_banks();
        let _ = dram.access(2, Nanos::ZERO, 1);
    }
}
