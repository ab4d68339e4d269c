//! AXI master ports between kernels and FPGA global memory.
//!
//! The paper's kernel decomposition is explicitly shaped to "reduc\[e\]
//! pressure on AXI Master interfaces used for high-performance,
//! memory-mapped communications between the kernels and the FPGA's memory
//! resources" (§III-C). An [`AxiPort`] models one such interface: a 512-bit
//! data path running at the kernel clock, shared (and therefore contended)
//! by whatever accesses its owner issues.

use crate::sim::{Nanos, ResourceTimeline};

/// One AXI master interface.
#[derive(Debug, Clone, PartialEq)]
pub struct AxiPort {
    /// Data width in bytes per beat (512-bit = 64 B is the Vitis default).
    beat_bytes: u32,
    /// Kernel clock period driving the port.
    period: Nanos,
    /// Cycles of address/handshake overhead per burst.
    burst_setup_cycles: u32,
    timeline: ResourceTimeline,
}

impl AxiPort {
    /// A 512-bit port at a 300 MHz kernel clock with 28-cycle burst setup.
    pub fn default_512() -> Self {
        Self::new(64, Nanos(3), 28)
    }

    /// Creates a port with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `beat_bytes == 0` or `period` is zero.
    pub fn new(beat_bytes: u32, period: Nanos, burst_setup_cycles: u32) -> Self {
        assert!(beat_bytes > 0, "beat width must be positive");
        assert!(period > Nanos::ZERO, "clock period must be positive");
        Self {
            beat_bytes,
            period,
            burst_setup_cycles,
            timeline: ResourceTimeline::new(),
        }
    }

    /// Duration of one `bytes`-sized burst on an idle port.
    pub fn burst_duration(&self, bytes: u64) -> Nanos {
        let beats = bytes.div_ceil(self.beat_bytes as u64);
        Nanos((self.burst_setup_cycles as u64 + beats) * self.period.as_nanos())
    }

    /// Books a burst starting at `now`; returns its completion time.
    pub fn burst(&mut self, now: Nanos, bytes: u64) -> Nanos {
        let d = self.burst_duration(bytes);
        self.timeline.acquire(now, d)
    }

    /// Earliest time the port is free.
    pub fn free_at(&self) -> Nanos {
        self.timeline.free_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_duration_setup_plus_beats() {
        let p = AxiPort::default_512();
        // 128 B = 2 beats; (28 + 2) cycles × 3 ns.
        assert_eq!(p.burst_duration(128), Nanos(90));
        // 1 B still costs a beat.
        assert_eq!(p.burst_duration(1), Nanos(87));
    }

    #[test]
    fn bursts_serialize_on_one_port() {
        let mut p = AxiPort::default_512();
        let a = p.burst(Nanos::ZERO, 64);
        let b = p.burst(Nanos::ZERO, 64);
        assert_eq!(b.as_nanos(), 2 * a.as_nanos());
    }

    #[test]
    fn two_ports_run_in_parallel() {
        let mut p1 = AxiPort::default_512();
        let mut p2 = AxiPort::default_512();
        let a = p1.burst(Nanos::ZERO, 4096);
        let b = p2.burst(Nanos::ZERO, 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn free_at_tracks_bookings() {
        let mut p = AxiPort::default_512();
        assert_eq!(p.free_at(), Nanos::ZERO);
        let end = p.burst(Nanos(100), 64);
        assert_eq!(p.free_at(), end);
    }

    #[test]
    #[should_panic(expected = "beat width")]
    fn zero_beat_rejected() {
        let _ = AxiPort::new(0, Nanos(3), 1);
    }
}
