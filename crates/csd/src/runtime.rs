//! An XRT-like host runtime.
//!
//! The paper's host program "is responsible for general control flow,
//! initiating data transfers, and managing the interaction with the FPGA"
//! (§III-A) through the Xilinx Runtime (XRT). [`DeviceRuntime`] exposes the
//! same verbs against the simulated [`SmartSsd`]: allocate device buffers
//! on DDR banks, migrate host data, load NAND data peer-to-peer, enqueue
//! kernels, and wait — while a simulated clock advances.

use std::fmt;

use crate::device::{SmartSsd, TransferPath};
use crate::fault::{FaultEvent, FaultSite};
use crate::sim::Nanos;

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferHandle(usize);

/// Handle to a registered kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelHandle(usize);

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The requested DDR bank does not exist on this device.
    NoSuchBank {
        /// Requested bank index.
        bank: u32,
        /// Banks available.
        available: u32,
    },
    /// A kernel was enqueued with a buffer that has no data yet.
    BufferNotResident(BufferHandle),
    /// A handle did not come from this runtime.
    BadHandle,
    /// New data does not match the shape the device was programmed for.
    ShapeMismatch,
    /// The CRC-on-DMA check caught a bit-flip in a transfer. The data
    /// never became resident; retrying the transfer is safe.
    TransferCorrupted {
        /// Which datapath stage corrupted the transfer.
        site: FaultSite,
        /// The flipped bit the CRC check caught.
        flipped_bit: u32,
    },
    /// A kernel run exceeded the watchdog deadline. The circuit stays
    /// hung until the stalled run drains — reloading the bitstream is
    /// the fast way to get it back.
    KernelTimeout {
        /// How long the hung run actually took.
        elapsed: Nanos,
        /// The configured watchdog deadline it blew through.
        deadline: Nanos,
    },
    /// The SSD failed to return a NAND page (uncorrectable read error).
    PageReadFailed,
    /// The device browned out; no operation completes before `until`.
    DeviceBrownout {
        /// Simulated time at which the device is back on the bus.
        until: Nanos,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoSuchBank { bank, available } => {
                write!(f, "DDR bank {bank} does not exist ({available} banks)")
            }
            RuntimeError::BufferNotResident(b) => {
                write!(f, "buffer {b:?} has not been migrated to the device")
            }
            RuntimeError::BadHandle => write!(f, "handle does not belong to this runtime"),
            RuntimeError::ShapeMismatch => {
                write!(f, "data shape does not match the programmed design")
            }
            RuntimeError::TransferCorrupted { site, flipped_bit } => {
                write!(
                    f,
                    "CRC-on-DMA rejected {site} transfer (bit {flipped_bit} flipped)"
                )
            }
            RuntimeError::KernelTimeout { elapsed, deadline } => write!(
                f,
                "kernel run hung for {:.1} µs (watchdog deadline {:.1} µs)",
                elapsed.as_micros(),
                deadline.as_micros()
            ),
            RuntimeError::PageReadFailed => {
                write!(
                    f,
                    "SSD failed to return a NAND page (uncorrectable read error)"
                )
            }
            RuntimeError::DeviceBrownout { until } => write!(
                f,
                "device browned out; back on the bus at t={:.1} µs",
                until.as_micros()
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[derive(Debug)]
struct Buffer {
    bank: u32,
    bytes: u64,
    /// Time at which the data is resident in device DRAM (`None` = never).
    ready_at: Option<Nanos>,
}

#[derive(Debug)]
struct Kernel {
    run_duration: Nanos,
    /// Kernel occupancy: a kernel is a physical circuit; runs serialize.
    busy_until: Nanos,
    runs: u64,
}

/// Aggregate statistics of a runtime session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Total kernel enqueues completed.
    pub kernel_runs: u64,
    /// Bytes moved host↔device.
    pub migrated_bytes: u64,
    /// Bytes loaded NAND→FPGA peer-to-peer.
    pub p2p_bytes: u64,
    /// The simulated wall-clock at the end of the session.
    pub elapsed: Nanos,
}

/// The simulated host runtime session.
#[derive(Debug)]
pub struct DeviceRuntime {
    device: SmartSsd,
    now: Nanos,
    buffers: Vec<Buffer>,
    kernels: Vec<Kernel>,
    migrated_bytes: u64,
    p2p_bytes: u64,
    /// Watchdog deadline for a single kernel run (`None` = no watchdog).
    watchdog: Option<Nanos>,
}

/// Maps an injected fault to the error the host sees.
fn fault_error(ev: FaultEvent) -> RuntimeError {
    match ev {
        FaultEvent::Corrupted { site, flipped_bit } => {
            RuntimeError::TransferCorrupted { site, flipped_bit }
        }
        FaultEvent::PageReadFailed => RuntimeError::PageReadFailed,
        FaultEvent::Brownout { until } => RuntimeError::DeviceBrownout { until },
        // Stalls normally surface through the watchdog path in
        // `enqueue`; mapping one here (no watchdog armed) reports it as
        // a timeout with no deadline.
        FaultEvent::Stalled { extra } => RuntimeError::KernelTimeout {
            elapsed: extra,
            deadline: Nanos::ZERO,
        },
    }
}

impl DeviceRuntime {
    /// Opens a session on `device` at simulated time zero.
    pub fn new(device: SmartSsd) -> Self {
        Self::new_at(device, Nanos::ZERO)
    }

    /// Opens a session on `device` with the clock already at `now` —
    /// how a host resumes after tearing a session down for a bitstream
    /// reload.
    pub fn new_at(device: SmartSsd, now: Nanos) -> Self {
        Self {
            device,
            now,
            buffers: Vec::new(),
            kernels: Vec::new(),
            migrated_bytes: 0,
            p2p_bytes: 0,
            watchdog: None,
        }
    }

    /// Closes the session, returning the device (with any armed fault
    /// plan and its counters intact) and the simulated time it reached.
    pub fn release(self) -> (SmartSsd, Nanos) {
        let elapsed = self.summary().elapsed;
        (self.device, elapsed)
    }

    /// The current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the simulated clock by `by` (host-side backoff between
    /// retries).
    pub fn advance(&mut self, by: Nanos) {
        self.now += by;
    }

    /// Advances the simulated clock to at least `to` (waiting out a
    /// brownout window, for example). Never moves time backwards.
    pub fn advance_to(&mut self, to: Nanos) {
        self.now = self.now.max(to);
    }

    /// Sets (or clears) the per-run kernel watchdog deadline.
    pub fn set_watchdog(&mut self, deadline: Option<Nanos>) {
        self.watchdog = deadline;
    }

    /// The underlying device.
    pub fn device(&self) -> &SmartSsd {
        &self.device
    }

    /// Mutable device access (arming/disarming fault plans).
    pub fn device_mut(&mut self) -> &mut SmartSsd {
        &mut self.device
    }

    /// Engages the SSD write-freeze — the mitigation a raised alert
    /// triggers ("real-time mitigation upon detecting the presence of
    /// ransomware", §I of the reproduced paper).
    pub fn freeze_writes(&mut self) {
        self.device.freeze_writes();
    }

    /// A host write attempt against the SSD (e.g. the ransomware trying to
    /// seal another encrypted file); `None` when the freeze rejected it.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn attempt_host_write(&mut self, bytes: u64) -> Option<Nanos> {
        self.device.host_write(self.now, bytes)
    }

    /// Allocates a `bytes`-sized buffer on DDR `bank`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoSuchBank`] when the bank index is invalid.
    pub fn alloc_buffer(&mut self, bank: u32, bytes: u64) -> Result<BufferHandle, RuntimeError> {
        let available = self.device.dram().bank_count();
        if bank >= available {
            return Err(RuntimeError::NoSuchBank { bank, available });
        }
        self.buffers.push(Buffer {
            bank,
            bytes,
            ready_at: None,
        });
        Ok(BufferHandle(self.buffers.len() - 1))
    }

    /// Migrates host memory into a device buffer (the
    /// `clEnqueueMigrateMemObjects` step); advances simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadHandle`] for foreign handles;
    /// [`RuntimeError::TransferCorrupted`] when the CRC-on-DMA check
    /// rejects the transfer (link time was still spent, the buffer is
    /// not resident, and a retry is safe);
    /// [`RuntimeError::DeviceBrownout`] inside a brownout window.
    pub fn migrate_to_device(&mut self, buf: BufferHandle) -> Result<Nanos, RuntimeError> {
        let bytes = self
            .buffers
            .get(buf.0)
            .ok_or(RuntimeError::BadHandle)?
            .bytes;
        match self.device.fault_at(self.now, FaultSite::PcieTransfer) {
            Some(ev @ FaultEvent::Corrupted { .. }) => {
                // The bytes crossed the link before the CRC check
                // rejected them: the time is spent either way.
                self.device
                    .transfer_at(self.now, TransferPath::HostToFpga, bytes.max(1));
                self.migrated_bytes += bytes;
                return Err(fault_error(ev));
            }
            Some(ev) => return Err(fault_error(ev)),
            None => {}
        }
        let done = self
            .device
            .transfer_at(self.now, TransferPath::HostToFpga, bytes.max(1));
        self.migrated_bytes += bytes;
        self.buffers[buf.0].ready_at = Some(done);
        Ok(done)
    }

    /// Loads `bytes` of NAND data into a device buffer peer-to-peer —
    /// the SmartSSD feature that keeps inference input off the host path.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadHandle`] for foreign handles;
    /// [`RuntimeError::PageReadFailed`] when NAND fails to return a
    /// page; [`RuntimeError::TransferCorrupted`] when the landing DDR
    /// write is corrupted; [`RuntimeError::DeviceBrownout`] inside a
    /// brownout window. On every fault the buffer is left non-resident
    /// and retrying the load is safe.
    pub fn p2p_load(&mut self, buf: BufferHandle, bytes: u64) -> Result<Nanos, RuntimeError> {
        if buf.0 >= self.buffers.len() {
            return Err(RuntimeError::BadHandle);
        }
        if let Some(ev) = self.device.fault_at(self.now, FaultSite::SsdRead) {
            return Err(fault_error(ev));
        }
        match self.device.fault_at(self.now, FaultSite::DramAccess) {
            Some(ev @ FaultEvent::Corrupted { .. }) => {
                // NAND and switch time were spent before the landing
                // write failed its check.
                self.device
                    .transfer_at(self.now, TransferPath::SsdToFpgaP2p, bytes.max(1));
                self.p2p_bytes += bytes;
                return Err(fault_error(ev));
            }
            Some(ev) => return Err(fault_error(ev)),
            None => {}
        }
        let done = self
            .device
            .transfer_at(self.now, TransferPath::SsdToFpgaP2p, bytes.max(1));
        self.p2p_bytes += bytes;
        self.buffers[buf.0].ready_at = Some(done);
        Ok(done)
    }

    /// Registers a kernel circuit whose each run takes `run_duration`.
    pub fn register_kernel(&mut self, run_duration: Nanos) -> KernelHandle {
        self.kernels.push(Kernel {
            run_duration,
            busy_until: Nanos::ZERO,
            runs: 0,
        });
        KernelHandle(self.kernels.len() - 1)
    }

    /// Enqueues one kernel run reading `inputs`; returns its completion
    /// time. The run starts when the kernel circuit is free *and* every
    /// input buffer is resident, plus a DRAM access per input.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BufferNotResident`] if an input was never
    /// migrated/loaded, or [`RuntimeError::BadHandle`] for foreign handles.
    /// With a fault plan armed the run can also fail with
    /// [`RuntimeError::TransferCorrupted`] (AXI burst bit-flip),
    /// [`RuntimeError::DeviceBrownout`], or — when a stall blows the
    /// watchdog deadline — [`RuntimeError::KernelTimeout`], in which
    /// case the circuit stays hung for the stall's duration and a
    /// bitstream reload is the fast path back.
    pub fn enqueue(
        &mut self,
        kernel: KernelHandle,
        inputs: &[BufferHandle],
    ) -> Result<Nanos, RuntimeError> {
        let k = self.kernels.get(kernel.0).ok_or(RuntimeError::BadHandle)?;
        let mut start = self.now.max(k.busy_until);
        for &b in inputs {
            let buf = self.buffers.get(b.0).ok_or(RuntimeError::BadHandle)?;
            let ready = buf.ready_at.ok_or(RuntimeError::BufferNotResident(b))?;
            start = start.max(ready);
        }
        match self.device.fault_at(self.now, FaultSite::AxiTransfer) {
            Some(ev @ FaultEvent::Corrupted { .. }) if !inputs.is_empty() => {
                // The burst ran (and occupied the banks) before the
                // check caught it; the circuit itself never started.
                for &b in inputs {
                    let (bank, bytes) = {
                        let buf = &self.buffers[b.0];
                        (buf.bank, buf.bytes)
                    };
                    self.device.dram_mut().access(bank, start, bytes);
                }
                return Err(fault_error(ev));
            }
            Some(ev) => return Err(fault_error(ev)),
            None => {}
        }
        let stall = match self.device.fault_at(self.now, FaultSite::KernelEnqueue) {
            Some(FaultEvent::Stalled { extra }) => extra,
            Some(ev) => return Err(fault_error(ev)),
            None => Nanos::ZERO,
        };
        // Each input costs one DRAM access on its bank at run start.
        let mut data_ready = start;
        for &b in inputs {
            let (bank, bytes) = {
                let buf = &self.buffers[b.0];
                (buf.bank, buf.bytes)
            };
            let end = self.device.dram_mut().access(bank, start, bytes);
            data_ready = data_ready.max(end);
        }
        let k = &mut self.kernels[kernel.0];
        let done = data_ready + k.run_duration + stall;
        k.busy_until = done;
        if let Some(deadline) = self.watchdog {
            let elapsed = done - start;
            if elapsed > deadline {
                // The hung run keeps its circuit: busy_until stays at
                // `done`, so only draining the stall — or reloading the
                // bitstream — frees it.
                return Err(RuntimeError::KernelTimeout { elapsed, deadline });
            }
        }
        k.runs += 1;
        Ok(done)
    }

    /// Blocks (advances simulated time) until every enqueued run finished.
    pub fn wait_all(&mut self) -> Nanos {
        let latest = self
            .kernels
            .iter()
            .map(|k| k.busy_until)
            .fold(self.now, Nanos::max);
        self.now = latest;
        latest
    }

    /// Session statistics so far.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            kernel_runs: self.kernels.iter().map(|k| k.runs).sum(),
            migrated_bytes: self.migrated_bytes,
            p2p_bytes: self.p2p_bytes,
            elapsed: self
                .kernels
                .iter()
                .map(|k| k.busy_until)
                .fold(self.now, Nanos::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> DeviceRuntime {
        DeviceRuntime::new(SmartSsd::new_u200_testbed())
    }

    #[test]
    fn alloc_validates_bank() {
        let mut rt = rt();
        assert!(rt.alloc_buffer(0, 1024).is_ok());
        assert!(rt.alloc_buffer(1, 1024).is_ok());
        let err = rt.alloc_buffer(2, 1024).unwrap_err();
        assert!(matches!(err, RuntimeError::NoSuchBank { bank: 2, .. }));
        assert!(err.to_string().contains("bank 2"));
    }

    #[test]
    fn enqueue_requires_resident_inputs() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(0, 4096).expect("alloc");
        let k = rt.register_kernel(Nanos::from_micros(0.8));
        let err = rt.enqueue(k, &[buf]).unwrap_err();
        assert_eq!(err, RuntimeError::BufferNotResident(buf));
        rt.migrate_to_device(buf).expect("migrate");
        assert!(rt.enqueue(k, &[buf]).is_ok());
    }

    #[test]
    fn kernel_runs_serialize_on_the_circuit() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(0, 64).expect("alloc");
        rt.migrate_to_device(buf).expect("migrate");
        let k = rt.register_kernel(Nanos::from_micros(5.0));
        let first = rt.enqueue(k, &[buf]).expect("run 1");
        let second = rt.enqueue(k, &[buf]).expect("run 2");
        assert!(second.as_nanos() >= first.as_nanos() + 5_000);
    }

    #[test]
    fn independent_kernels_overlap() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(0, 64).expect("alloc");
        rt.migrate_to_device(buf).expect("migrate");
        let k1 = rt.register_kernel(Nanos::from_micros(5.0));
        let k2 = rt.register_kernel(Nanos::from_micros(5.0));
        let a = rt.enqueue(k1, &[buf]).expect("run");
        let b = rt.enqueue(k2, &[buf]).expect("run");
        // Both CUs run concurrently (same start, small DRAM skew allowed).
        assert!(b.as_nanos().abs_diff(a.as_nanos()) < 1_000);
    }

    #[test]
    fn wait_all_advances_clock() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(0, 64).expect("alloc");
        rt.migrate_to_device(buf).expect("migrate");
        let k = rt.register_kernel(Nanos::from_micros(1.3));
        rt.enqueue(k, &[buf]).expect("run");
        let t = rt.wait_all();
        assert_eq!(rt.now(), t);
        assert!(t > Nanos::ZERO);
    }

    #[test]
    fn p2p_load_counts_traffic() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(1, 1 << 20).expect("alloc");
        rt.p2p_load(buf, 1 << 20).expect("p2p");
        let s = rt.summary();
        assert_eq!(s.p2p_bytes, 1 << 20);
        assert_eq!(s.migrated_bytes, 0);
    }

    #[test]
    fn summary_counts_runs() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(0, 64).expect("alloc");
        rt.migrate_to_device(buf).expect("migrate");
        let k = rt.register_kernel(Nanos(100));
        for _ in 0..5 {
            rt.enqueue(k, &[buf]).expect("run");
        }
        assert_eq!(rt.summary().kernel_runs, 5);
    }

    #[test]
    fn freeze_is_reachable_through_the_runtime() {
        let mut rt = rt();
        assert!(rt.attempt_host_write(4096).is_some());
        rt.freeze_writes();
        assert!(rt.attempt_host_write(4096).is_none());
        assert_eq!(rt.device().ssd().writes_rejected(), 1);
    }

    fn only(which: FaultSite, rate: f64) -> crate::fault::FaultConfig {
        let mut cfg = crate::fault::FaultConfig::none();
        match which {
            FaultSite::PcieTransfer | FaultSite::AxiTransfer | FaultSite::DramAccess => {
                cfg.corruption = rate;
            }
            FaultSite::SsdRead => cfg.page_read_fail = rate,
            FaultSite::KernelEnqueue => {
                cfg.stall = rate;
                cfg.stall_duration = Nanos::from_micros(50_000.0);
            }
        }
        cfg
    }

    #[test]
    fn crc_rejection_leaves_buffer_nonresident_and_is_retryable() {
        let mut rt = rt();
        rt.device_mut().arm_faults(crate::fault::FaultPlan::new(
            1,
            only(FaultSite::PcieTransfer, 1.0),
        ));
        let buf = rt.alloc_buffer(0, 4096).expect("alloc");
        let err = rt.migrate_to_device(buf).unwrap_err();
        assert!(matches!(err, RuntimeError::TransferCorrupted { .. }));
        let k = rt.register_kernel(Nanos(100));
        // The corrupted data never became resident.
        assert_eq!(
            rt.enqueue(k, &[buf]).unwrap_err(),
            RuntimeError::BufferNotResident(buf)
        );
        assert_eq!(rt.device().fault_counters().corruptions, 1);
        // A clean link makes the retry succeed.
        rt.device_mut().disarm_faults();
        assert!(rt.migrate_to_device(buf).is_ok());
        assert!(rt.enqueue(k, &[buf]).is_ok());
    }

    #[test]
    fn page_read_failure_surfaces_on_p2p_load() {
        let mut rt = rt();
        rt.device_mut().arm_faults(crate::fault::FaultPlan::new(
            2,
            only(FaultSite::SsdRead, 1.0),
        ));
        let buf = rt.alloc_buffer(1, 8192).expect("alloc");
        assert_eq!(
            rt.p2p_load(buf, 8192).unwrap_err(),
            RuntimeError::PageReadFailed
        );
        assert_eq!(rt.summary().p2p_bytes, 0, "failed read moved no data");
    }

    #[test]
    fn watchdog_trips_on_stalled_kernel_and_circuit_stays_hung() {
        let mut rt = rt();
        let buf = rt.alloc_buffer(0, 64).expect("alloc");
        rt.migrate_to_device(buf).expect("migrate");
        let k = rt.register_kernel(Nanos::from_micros(5.0));
        rt.set_watchdog(Some(Nanos::from_micros(1_000.0)));
        rt.device_mut().arm_faults(crate::fault::FaultPlan::new(
            3,
            only(FaultSite::KernelEnqueue, 1.0),
        ));
        let err = rt.enqueue(k, &[buf]).unwrap_err();
        let RuntimeError::KernelTimeout { elapsed, deadline } = err else {
            panic!("expected timeout, got {err:?}");
        };
        assert!(elapsed > deadline);
        // Even fault-free, the next run on this circuit queues behind
        // the hung one.
        rt.device_mut().disarm_faults();
        let next = rt.enqueue(k, &[buf]).expect("clean run");
        assert!(
            next.as_micros() > 50_000.0,
            "queued behind the hang: {next}"
        );
    }

    #[test]
    fn brownout_rejects_until_window_expires() {
        let mut rt = rt();
        let mut cfg = crate::fault::FaultConfig::none();
        cfg.brownout = 1.0;
        cfg.brownout_window = Nanos::from_micros(200.0);
        rt.device_mut()
            .arm_faults(crate::fault::FaultPlan::new(4, cfg));
        let buf = rt.alloc_buffer(0, 4096).expect("alloc");
        let err = rt.migrate_to_device(buf).unwrap_err();
        let RuntimeError::DeviceBrownout { until } = err else {
            panic!("expected brownout, got {err:?}");
        };
        // Still inside the window: same deadline.
        assert_eq!(
            rt.migrate_to_device(buf).unwrap_err(),
            RuntimeError::DeviceBrownout { until }
        );
        // Waiting it out re-draws; disarm to prove the path clears.
        rt.advance_to(until);
        rt.device_mut().disarm_faults();
        assert!(rt.migrate_to_device(buf).is_ok());
    }

    #[test]
    fn release_and_resume_preserve_clock_and_fault_plan() {
        let mut rt = rt();
        rt.device_mut().arm_faults(crate::fault::FaultPlan::new(
            5,
            only(FaultSite::PcieTransfer, 1.0),
        ));
        let buf = rt.alloc_buffer(0, 64).expect("alloc");
        let _ = rt.migrate_to_device(buf); // burns link time, counts a fault
        rt.advance(Nanos::from_micros(10.0));
        let (device, elapsed) = rt.release();
        assert_eq!(
            device.fault_counters().corruptions,
            1,
            "plan survives teardown"
        );
        let rt2 = DeviceRuntime::new_at(device, elapsed + Nanos::from_micros(400.0));
        assert!(rt2.now() > elapsed);
    }

    #[test]
    fn foreign_handles_rejected() {
        let mut rt1 = rt();
        let mut rt2 = rt();
        let k = rt1.register_kernel(Nanos(1));
        let buf2 = rt2.alloc_buffer(0, 1).expect("alloc");
        // rt1 has no buffers: buf from rt2 is out of range here.
        assert_eq!(
            rt1.enqueue(k, &[buf2]).unwrap_err(),
            RuntimeError::BadHandle
        );
    }
}
