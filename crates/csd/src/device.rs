//! The assembled SmartSSD device.

use csd_hls::DeviceProfile;

use crate::dram::DramSubsystem;
use crate::fault::{FaultCounters, FaultEvent, FaultPlan, FaultSite};
use crate::pcie::PcieSwitch;
use crate::sim::Nanos;
use crate::ssd::{NvmeSsd, SsdConfig};

/// End-to-end data-movement paths through the device (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferPath {
    /// NAND → FPGA DRAM through the onboard switch (the P2P path).
    SsdToFpgaP2p,
    /// NAND → host DRAM → FPGA DRAM (two external link crossings).
    SsdToFpgaViaHost,
    /// Host DRAM → FPGA DRAM (weight/initialization upload).
    HostToFpga,
    /// NAND → host DRAM (a conventional read).
    SsdToHost,
}

/// A complete SmartSSD: SSD + FPGA DRAM + PCIe switch + FPGA fabric profile.
#[derive(Debug, Clone)]
pub struct SmartSsd {
    ssd: NvmeSsd,
    dram: DramSubsystem,
    switch: PcieSwitch,
    fpga: DeviceProfile,
    /// Armed fault schedule; `None` = the device never misbehaves.
    faults: Option<FaultPlan>,
}

impl SmartSsd {
    /// A SmartSSD: PM1733-class SSD, two DDR banks, Gen3 ×4 switch, and a
    /// KU15P fabric at the default 300 MHz kernel clock.
    pub fn new_smartssd() -> Self {
        Self {
            ssd: NvmeSsd::new(SsdConfig::pm1733_gen3()),
            dram: DramSubsystem::two_banks(),
            switch: PcieSwitch::smartssd(),
            fpga: DeviceProfile::kintex_ku15p(),
            faults: None,
        }
    }

    /// The paper's *experimental* stand-in: same storage/switch but the
    /// Alveo u200 fabric profile (§IV).
    pub fn new_u200_testbed() -> Self {
        Self {
            fpga: DeviceProfile::alveo_u200(),
            ..Self::new_smartssd()
        }
    }

    /// The FPGA fabric profile.
    pub fn fpga(&self) -> &DeviceProfile {
        &self.fpga
    }

    /// The SSD component.
    pub fn ssd(&self) -> &NvmeSsd {
        &self.ssd
    }

    /// The DRAM subsystem.
    pub fn dram(&self) -> &DramSubsystem {
        &self.dram
    }

    /// The PCIe switch (traffic counters live here).
    pub fn switch(&self) -> &PcieSwitch {
        &self.switch
    }

    /// Mutable DRAM access for the runtime layer.
    pub(crate) fn dram_mut(&mut self) -> &mut DramSubsystem {
        &mut self.dram
    }

    /// Arms a fault schedule. The plan survives a bitstream reload
    /// (reprogramming the FPGA does not fix a flaky link), so recovery
    /// policies are tested against *persistent* flakiness.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Disarms fault injection; the device behaves ideally again.
    /// Returns the retired plan (with its counters) if one was armed.
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Faults injected so far (zeroed counters when no plan is armed).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(FaultPlan::counters)
            .unwrap_or_default()
    }

    /// Consults the armed plan for the operation at `site` issued at
    /// `now`. `None` when no plan is armed or the draw passes clean.
    pub(crate) fn fault_at(&mut self, now: Nanos, site: FaultSite) -> Option<FaultEvent> {
        self.faults.as_mut()?.at(now, site)
    }

    /// Engages the SSD write-freeze (mitigation).
    pub fn freeze_writes(&mut self) {
        self.ssd.freeze_writes();
    }

    /// Attempts a host write of `bytes` to the SSD starting at `now`:
    /// crosses the external link, then programs NAND. Returns `None` when
    /// the mitigation freeze rejects it.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn host_write(&mut self, now: Nanos, bytes: u64) -> Option<Nanos> {
        assert!(bytes > 0, "zero-byte write");
        if self.ssd.writes_frozen() {
            // Reject before moving any data; still counts the attempt.
            return self.ssd.write(now, bytes);
        }
        let crossed = self.switch.host_mediated(now, bytes);
        self.ssd.write(crossed, bytes)
    }

    /// Executes a transfer starting at `now`; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn transfer_at(&mut self, now: Nanos, path: TransferPath, bytes: u64) -> Nanos {
        assert!(bytes > 0, "zero-byte transfer");
        match path {
            TransferPath::SsdToFpgaP2p => {
                let nand_done = self.ssd.read(now, bytes);
                let hop_done = self.switch.p2p(nand_done, bytes);
                self.dram.access(0, hop_done, bytes)
            }
            TransferPath::SsdToFpgaViaHost => {
                let nand_done = self.ssd.read(now, bytes);
                let bounced = self.switch.host_mediated(nand_done, bytes);
                self.dram.access(0, bounced, bytes)
            }
            TransferPath::HostToFpga => {
                let crossed = self.switch.host_mediated(now, bytes);
                self.dram.access(0, crossed, bytes)
            }
            TransferPath::SsdToHost => {
                let nand_done = self.ssd.read(now, bytes);
                self.switch.host_mediated(nand_done, bytes)
            }
        }
    }

    /// Convenience: transfer duration starting from an idle device at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn transfer(&mut self, path: TransferPath, bytes: u64) -> Nanos {
        self.transfer_at(Nanos::ZERO, path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_beats_host_bounce_end_to_end() {
        let mut a = SmartSsd::new_smartssd();
        let mut b = SmartSsd::new_smartssd();
        let bytes = 4u64 << 20;
        let p2p = a.transfer(TransferPath::SsdToFpgaP2p, bytes);
        let host = b.transfer(TransferPath::SsdToFpgaViaHost, bytes);
        assert!(p2p < host, "{p2p} vs {host}");
        // And the host path generated external PCIe traffic; P2P did not.
        assert_eq!(a.switch().host_bytes(), 0);
        assert_eq!(b.switch().host_bytes(), bytes);
    }

    #[test]
    fn host_upload_skips_the_ssd() {
        let mut dev = SmartSsd::new_smartssd();
        let done = dev.transfer(TransferPath::HostToFpga, 30_000); // ~weight file
        assert_eq!(dev.ssd().bytes_read(), 0);
        // Small upload: dominated by two DMA setups, well under 100 µs.
        assert!(done.as_micros() < 100.0);
    }

    #[test]
    fn ssd_to_host_is_a_plain_read() {
        let mut dev = SmartSsd::new_smartssd();
        let done = dev.transfer(TransferPath::SsdToHost, 16 * 1024);
        // NAND latency dominates (~95 µs) plus the bounce.
        assert!(done.as_micros() > 95.0);
        assert_eq!(dev.switch().host_bytes(), 16 * 1024);
    }

    #[test]
    fn u200_testbed_has_bigger_fabric() {
        let smart = SmartSsd::new_smartssd();
        let u200 = SmartSsd::new_u200_testbed();
        assert!(u200.fpga().capacity.dsp > smart.fpga().capacity.dsp);
    }

    #[test]
    fn write_freeze_blocks_host_writes() {
        let mut dev = SmartSsd::new_smartssd();
        assert!(dev.host_write(Nanos::ZERO, 4096).is_some());
        dev.freeze_writes();
        assert!(dev.host_write(Nanos::ZERO, 4096).is_none());
        assert_eq!(dev.ssd().writes_rejected(), 1);
    }

    #[test]
    fn sequential_transfers_share_resources() {
        let mut dev = SmartSsd::new_smartssd();
        let first = dev.transfer(TransferPath::SsdToFpgaP2p, 1 << 20);
        let second = dev.transfer_at(Nanos::ZERO, TransferPath::SsdToFpgaP2p, 1 << 20);
        assert!(second > first, "second transfer queues behind the first");
    }
}
