//! HLS kernel modelling: pragmas, latency estimation, resource accounting.
//!
//! The reproduced paper develops its FPGA kernels in Vitis HLS and measures
//! them in *hardware emulation* mode — i.e. a simulator that estimates how
//! long the synthesized design would take on real silicon (§IV: hardware
//! emulation "is designed to provide an accurate estimate of how long the
//! FPGA would take to execute the given program in real hardware"). This
//! crate re-implements that class of estimator from first principles:
//!
//! - [`pragma`] — the three HLS pragmas the paper leans on
//!   (`PIPELINE II=1`, `UNROLL`, `ARRAY_PARTITION complete`) plus
//!   `DATAFLOW`, as typed values instead of source annotations.
//! - [`op`] — primitive operations with per-format latencies and resource
//!   costs; fixed-point ops are cheaper in both dimensions, which is the
//!   structural reason the paper's fixed-point optimization wins.
//! - [`latency`] — the cycle model: `fill + II·(trips − 1)` for pipelined
//!   loops, loop-carried-dependence and memory-port constraints on the
//!   achievable II, resource-clamped unrolling, and dataflow overlap.
//! - [`resource`] — DSP/LUT/FF/BRAM accounting against real device
//!   profiles (Alveo u200's VU9P and the SmartSSD's Kintex KU15P).
//! - [`power`] — first-order power/energy estimation, quantifying the
//!   paper's energy-efficiency claim.
//! - [`report`] — the kernel clock that turns cycle counts into microseconds.
//!
//! # Example
//!
//! ```rust
//! use csd_hls::{Clock, KernelSpec, LoopNest, LoopBody, NumericFormat, Pragmas};
//!
//! // A 40-element multiply-accumulate (one LSTM gate row) fully pipelined.
//! let dot = LoopNest::new(40, LoopBody::Mac, Pragmas::new().pipeline(1));
//! let spec = KernelSpec::new("gate_row", NumericFormat::FixedPoint64)
//!     .stage(dot);
//! let timing = spec.estimate_default();
//! let clock = Clock::mhz(300.0);
//! assert!(clock.micros(timing.fill_cycles) < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod op;
pub mod power;
pub mod pragma;
pub mod report;
pub mod resource;

pub use latency::{KernelEstimate, KernelSpec, KernelTiming, LoopBody, LoopNest, Stage};
pub use op::{NumericFormat, Op, OpLatencies};
pub use power::{PowerModel, UnitPowers};
pub use pragma::Pragmas;
pub use report::Clock;
pub use resource::{DeviceProfile, ResourceEstimate};
