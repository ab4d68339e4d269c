//! The PCIe Gen3 ×4 link and the SmartSSD's onboard switch.
//!
//! The switch is the architectural heart of the SmartSSD (§II, Fig. 1): it
//! lets the SSD and the FPGA exchange data peer-to-peer without the bytes
//! ever crossing to the host root complex. A host-mediated copy crosses
//! the external link twice (SSD→host, host→FPGA) and pays DMA setup both
//! times; the P2P path crosses the internal switch once.

use crate::sim::{Nanos, ResourceTimeline};

/// One PCIe link (a set of lanes between two ports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Effective data bandwidth in GiB/s after encoding/protocol overhead.
    pub bandwidth_gib_s: f64,
    /// Per-transaction DMA setup latency.
    pub dma_setup: Nanos,
}

impl PcieLink {
    /// PCIe Gen3 ×4: 3.94 GB/s raw, ≈3.3 GiB/s effective, ~1 µs DMA setup.
    pub fn gen3_x4() -> Self {
        Self {
            bandwidth_gib_s: 3.3,
            dma_setup: Nanos::from_micros(1.0),
        }
    }

    /// The internal switch hop: same lanes, but no root-complex traversal —
    /// lower setup cost.
    pub fn internal_switch_hop() -> Self {
        Self {
            bandwidth_gib_s: 3.3,
            dma_setup: Nanos::from_micros(0.4),
        }
    }

    /// Duration of one `bytes`-sized transfer on an idle link.
    pub fn transfer_duration(&self, bytes: u64) -> Nanos {
        self.dma_setup + Nanos::for_transfer(bytes, self.bandwidth_gib_s)
    }
}

/// The onboard switch: an external link to the host and an internal P2P
/// path, each with its own contention timeline.
#[derive(Debug, Clone)]
pub struct PcieSwitch {
    external: PcieLink,
    internal: PcieLink,
    external_timeline: ResourceTimeline,
    internal_timeline: ResourceTimeline,
    p2p_bytes: u64,
    host_bytes: u64,
}

impl PcieSwitch {
    /// The SmartSSD's Gen3 ×4 switch.
    pub fn smartssd() -> Self {
        Self {
            external: PcieLink::gen3_x4(),
            internal: PcieLink::internal_switch_hop(),
            external_timeline: ResourceTimeline::new(),
            internal_timeline: ResourceTimeline::new(),
            p2p_bytes: 0,
            host_bytes: 0,
        }
    }

    /// A host-mediated transfer (SSD→host→FPGA or the reverse): two
    /// crossings of the external link.
    pub fn host_mediated(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.host_bytes += bytes;
        let first = self
            .external_timeline
            .acquire(now, self.external.transfer_duration(bytes));
        self.external_timeline
            .acquire(first, self.external.transfer_duration(bytes))
    }

    /// A P2P transfer (SSD↔FPGA DRAM through the switch): one internal hop.
    pub fn p2p(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.p2p_bytes += bytes;
        self.internal_timeline
            .acquire(now, self.internal.transfer_duration(bytes))
    }

    /// Bytes moved peer-to-peer so far.
    pub fn p2p_bytes(&self) -> u64 {
        self.p2p_bytes
    }

    /// Bytes bounced through the host so far — the PCIe traffic the paper
    /// says P2P "drastically reduces".
    pub fn host_bytes(&self) -> u64 {
        self.host_bytes
    }

    /// The external link's parameters.
    pub fn external_link(&self) -> PcieLink {
        self.external
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x4_numbers() {
        let l = PcieLink::gen3_x4();
        // 1 GiB at 3.3 GiB/s ≈ 303 ms.
        let d = l.transfer_duration(1 << 30);
        assert!((d.as_micros() - 303_031.0).abs() < 1_000.0);
    }

    #[test]
    fn p2p_beats_host_mediated() {
        let mut sw = PcieSwitch::smartssd();
        let p2p = sw.p2p(Nanos::ZERO, 1 << 20);
        let mut sw2 = PcieSwitch::smartssd();
        let host = sw2.host_mediated(Nanos::ZERO, 1 << 20);
        // Two external crossings vs one internal hop: > 2× gap.
        assert!(host.as_nanos() > 2 * p2p.as_nanos());
    }

    #[test]
    fn traffic_accounting() {
        let mut sw = PcieSwitch::smartssd();
        sw.p2p(Nanos::ZERO, 100);
        sw.host_mediated(Nanos::ZERO, 50);
        assert_eq!(sw.p2p_bytes(), 100);
        assert_eq!(sw.host_bytes(), 50);
    }

    #[test]
    fn external_link_serializes() {
        let mut sw = PcieSwitch::smartssd();
        let a = sw.host_mediated(Nanos::ZERO, 1 << 20);
        let b = sw.host_mediated(Nanos::ZERO, 1 << 20);
        assert!(b > a);
    }

    #[test]
    fn p2p_and_host_paths_are_independent() {
        let mut sw = PcieSwitch::smartssd();
        let host = sw.host_mediated(Nanos::ZERO, 1 << 26);
        // P2P issued at t=0 is not delayed by the busy external link.
        let p2p = sw.p2p(Nanos::ZERO, 1 << 10);
        assert!(p2p < host);
        assert!(p2p.as_micros() < 2.0);
    }
}
