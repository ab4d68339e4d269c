//! The NVMe SSD half of the SmartSSD.
//!
//! Models a PM1733-class enterprise SSD at the fidelity the paper's data
//! path needs: per-command latency, page-granular NAND reads striped over
//! independent channels, and a sequential-read bandwidth ceiling.

use crate::sim::{Nanos, ResourceTimeline};

/// Static SSD parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// NAND page size in bytes.
    pub page_bytes: u64,
    /// Independent NAND channels (page reads stripe across these).
    pub channels: u32,
    /// Raw NAND page-read latency.
    pub page_read: Nanos,
    /// Controller/firmware latency added to every command.
    pub command_overhead: Nanos,
    /// Aggregate sequential read bandwidth ceiling in GiB/s.
    pub seq_read_gib_s: f64,
    /// NAND page-program (write) latency — an order of magnitude above
    /// reads on TLC NAND.
    pub page_program: Nanos,
}

impl SsdConfig {
    /// A PM1733-class drive behind a Gen3 switch: 16 KiB pages, 8 channels,
    /// ~85 µs NAND reads, ~10 µs command overhead, 3.2 GiB/s sequential.
    pub fn pm1733_gen3() -> Self {
        Self {
            page_bytes: 16 * 1024,
            channels: 8,
            page_read: Nanos::from_micros(85.0),
            command_overhead: Nanos::from_micros(10.0),
            seq_read_gib_s: 3.2,
            page_program: Nanos::from_micros(600.0),
        }
    }
}

/// The SSD: tracks per-channel busy timelines and answers read requests
/// with completion times.
#[derive(Debug, Clone)]
pub struct NvmeSsd {
    config: SsdConfig,
    channels: Vec<ResourceTimeline>,
    bytes_read: u64,
    bytes_written: u64,
    writes_frozen: bool,
    writes_rejected: u64,
}

impl NvmeSsd {
    /// Creates an SSD from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.channels == 0` or `config.page_bytes == 0`.
    pub fn new(config: SsdConfig) -> Self {
        assert!(config.channels > 0, "SSD needs channels");
        assert!(config.page_bytes > 0, "SSD needs a page size");
        Self {
            config,
            channels: vec![ResourceTimeline::new(); config.channels as usize],
            bytes_read: 0,
            bytes_written: 0,
            writes_frozen: false,
            writes_rejected: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Total bytes served so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes programmed so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// `true` while the mitigation write-freeze is engaged.
    pub fn writes_frozen(&self) -> bool {
        self.writes_frozen
    }

    /// Writes rejected while frozen — the encryption I/O the mitigation
    /// blocked.
    pub fn writes_rejected(&self) -> u64 {
        self.writes_rejected
    }

    /// Engages the mitigation write-freeze: every subsequent write is
    /// rejected until [`Self::thaw_writes`]. Reads continue (forensics and
    /// recovery need them).
    pub fn freeze_writes(&mut self) {
        self.writes_frozen = true;
    }

    /// Releases the write-freeze (after remediation).
    pub fn thaw_writes(&mut self) {
        self.writes_frozen = false;
    }

    /// Issues a write of `bytes` starting at `now`; returns the completion
    /// time, or `None` when the freeze rejects it.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn write(&mut self, now: Nanos, bytes: u64) -> Option<Nanos> {
        assert!(bytes > 0, "zero-byte write");
        if self.writes_frozen {
            self.writes_rejected += 1;
            return None;
        }
        self.bytes_written += bytes;
        let pages = bytes.div_ceil(self.config.page_bytes);
        let start = now + self.config.command_overhead;
        let mut done = start;
        for p in 0..pages {
            let ch = (p % self.config.channels as u64) as usize;
            let end = self.channels[ch].acquire(start, self.config.page_program);
            done = done.max(end);
        }
        Some(done)
    }

    /// Issues a read of `bytes` starting at `now`; returns the completion
    /// time.
    ///
    /// The first page pays the full NAND array latency; subsequent pages
    /// stream behind it, striped round-robin over the channels at each
    /// channel's share of the drive's sequential bandwidth (multi-plane
    /// NAND pipelines array reads behind data transfers).
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn read(&mut self, now: Nanos, bytes: u64) -> Nanos {
        assert!(bytes > 0, "zero-byte read");
        self.bytes_read += bytes;
        let pages = bytes.div_ceil(self.config.page_bytes);
        let start = now + self.config.command_overhead + self.config.page_read;
        let channel_gib_s = self.config.seq_read_gib_s / self.config.channels as f64;
        let last_page_bytes = bytes - (pages - 1) * self.config.page_bytes;
        let mut done = start;
        for p in 0..pages {
            let ch = (p % self.config.channels as u64) as usize;
            let page = if p == pages - 1 {
                last_page_bytes
            } else {
                self.config.page_bytes
            };
            let end = self.channels[ch].acquire(start, Nanos::for_transfer(page, channel_gib_s));
            done = done.max(end);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_page_read_is_latency_bound() {
        let mut ssd = NvmeSsd::new(SsdConfig::pm1733_gen3());
        let done = ssd.read(Nanos::ZERO, 4096);
        // Command overhead + NAND latency dominate a small read.
        assert!(done >= Nanos::from_micros(95.0));
        assert!(done < Nanos::from_micros(120.0));
    }

    #[test]
    fn pages_stripe_over_channels() {
        let cfg = SsdConfig::pm1733_gen3();
        // 8 pages over 8 channels finish together; 9 pages serialize one.
        let eight = NvmeSsd::new(cfg).read(Nanos::ZERO, 8 * cfg.page_bytes);
        let one = NvmeSsd::new(cfg).read(Nanos::ZERO, cfg.page_bytes);
        let nine = NvmeSsd::new(cfg).read(Nanos::ZERO, 9 * cfg.page_bytes);
        assert_eq!(eight, one);
        assert!(nine > eight);
    }

    #[test]
    fn large_reads_approach_sequential_bandwidth() {
        let cfg = SsdConfig::pm1733_gen3();
        let mut ssd = NvmeSsd::new(cfg);
        let bytes = 1u64 << 30; // 1 GiB
        let done = ssd.read(Nanos::ZERO, bytes);
        let ideal = Nanos::for_transfer(bytes, cfg.seq_read_gib_s);
        assert!(done >= ideal, "cannot beat the sequential ceiling");
        // Fixed latencies amortize away on a large read.
        assert!(done.as_nanos() < ideal.as_nanos() + 200_000);
    }

    #[test]
    fn reads_accumulate_counter() {
        let mut ssd = NvmeSsd::new(SsdConfig::pm1733_gen3());
        ssd.read(Nanos::ZERO, 100);
        ssd.read(Nanos::ZERO, 200);
        assert_eq!(ssd.bytes_read(), 300);
    }

    #[test]
    fn back_to_back_reads_queue() {
        let cfg = SsdConfig::pm1733_gen3();
        let mut ssd = NvmeSsd::new(cfg);
        let first = ssd.read(Nanos::ZERO, cfg.page_bytes);
        // Next read targets the same (round-robin first) channel.
        let second = ssd.read(Nanos::ZERO, cfg.page_bytes);
        assert!(second > first);
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let cfg = SsdConfig::pm1733_gen3();
        let read = NvmeSsd::new(cfg).read(Nanos::ZERO, cfg.page_bytes);
        let write = NvmeSsd::new(cfg)
            .write(Nanos::ZERO, cfg.page_bytes)
            .expect("writes allowed");
        assert!(write > read, "{write} vs {read}");
    }

    #[test]
    fn freeze_rejects_writes_but_not_reads() {
        let mut ssd = NvmeSsd::new(SsdConfig::pm1733_gen3());
        ssd.write(Nanos::ZERO, 4096).expect("before freeze");
        ssd.freeze_writes();
        assert!(ssd.writes_frozen());
        assert!(ssd.write(Nanos::ZERO, 4096).is_none());
        assert!(ssd.write(Nanos::ZERO, 4096).is_none());
        assert_eq!(ssd.writes_rejected(), 2);
        // Reads keep flowing for forensics.
        let _ = ssd.read(Nanos::ZERO, 4096);
        ssd.thaw_writes();
        assert!(ssd.write(Nanos::ZERO, 4096).is_some());
        assert_eq!(ssd.bytes_written(), 2 * 4096);
    }

    #[test]
    #[should_panic(expected = "zero-byte read")]
    fn zero_read_panics() {
        let mut ssd = NvmeSsd::new(SsdConfig::pm1733_gen3());
        let _ = ssd.read(Nanos::ZERO, 0);
    }
}
