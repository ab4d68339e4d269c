//! A timing model of Samsung's SmartSSD Computational Storage Drive.
//!
//! The reproduced paper (DSN-S 2024, §II) runs its LSTM entirely on the
//! FPGA of a SmartSSD: a 4 TB PM1733-class NVMe SSD paired with a Xilinx
//! Kintex KU15P over a PCIe Gen3 ×4 switch, with FPGA-attached DRAM and a
//! peer-to-peer (P2P) path that lets the FPGA read NAND data without
//! touching the host — "drastically reduces PCIe traffic and CPU overhead".
//!
//! Real SmartSSD hardware is unavailable here, so this crate models the
//! device at the level that matters for the paper's claims: *where bytes
//! move and how long the moves take*.
//!
//! - [`sim`] — simulation time and busy-until resource timelines (the
//!   contention model).
//! - [`ssd`] — the NVMe SSD: page reads, channel parallelism, sequential
//!   bandwidth.
//! - [`dram`] — FPGA DDR banks (the paper provisions a "conservative two
//!   banks", §III-C) with per-bank bandwidth and contention.
//! - [`pcie`] — the Gen3 ×4 link and the onboard switch: host-mediated
//!   transfers cross the link twice; P2P transfers stay inside the device.
//! - [`runtime`] — an XRT-like host API: allocate device buffers, migrate
//!   data, enqueue kernels, wait for completion — the verbs the paper's
//!   host program uses.
//! - [`device`] — the assembled [`SmartSsd`].
//! - [`fault`] — deterministic, seeded fault injection (transfer
//!   corruption, kernel stalls, page-read failures, brownouts) so the
//!   host stack's recovery paths can be exercised reproducibly.
//!
//! # Example
//!
//! ```rust
//! use csd_device::{SmartSsd, TransferPath};
//!
//! let mut dev = SmartSsd::new_smartssd();
//! // Reading 1 MiB of NAND into FPGA DRAM via P2P beats the host bounce.
//! let p2p = dev.transfer(TransferPath::SsdToFpgaP2p, 1 << 20);
//! let mut dev2 = SmartSsd::new_smartssd();
//! let host = dev2.transfer(TransferPath::SsdToFpgaViaHost, 1 << 20);
//! assert!(p2p < host);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod dram;
pub mod fault;
pub mod pcie;
pub mod runtime;
pub mod sim;
pub mod ssd;

pub use device::{SmartSsd, TransferPath};
pub use dram::{DdrBank, DramSubsystem};
pub use fault::{FaultConfig, FaultCounters, FaultEvent, FaultPlan, FaultSite};
pub use pcie::{PcieLink, PcieSwitch};
pub use runtime::{BufferHandle, DeviceRuntime, KernelHandle, RunSummary, RuntimeError};
pub use sim::{Nanos, ResourceTimeline};
pub use ssd::{NvmeSsd, SsdConfig};
