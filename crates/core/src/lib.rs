//! CSD-based LSTM inference — the reproduced paper's core contribution.
//!
//! This crate implements the five-kernel FPGA design of "Empowering Data
//! Centers with Computational Storage Drive-Based Deep Learning Inference
//! Functionality to Combat Ransomware" (DSN-S 2024, §III):
//!
//! ```text
//!                ┌────────────────────┐ DATAFLOW  ┌──────────────────────┐
//!  sequence ───▶ │ kernel_preprocess  │──x_t×4──▶ │ kernel_gates (i) CU  │──┐
//!                │ (embedding lookup, │           │ kernel_gates (f) CU  │──┼─▶ kernel_hidden_state
//!                │  prefetches t+1)   │           │ kernel_gates (o) CU  │──┤   (C_t, h_t, FC head)
//!                └────────────────────┘           │ kernel_gates (C') CU │──┘        │
//!                        ▲                        └──────────────────────┘     h_{t−1}×4 copies
//!                        └──────────────────────────────────────────────────────────┘
//! ```
//!
//! - [`opt`] — the three optimization levels of Fig. 3: `Vanilla`
//!   (kernel parallelization only), `IiOptimized` (`PIPELINE II=1`,
//!   `UNROLL`, `ARRAY_PARTITION`), and `FixedPoint` (decimal 10^6 fixed
//!   point on top of the II recipe).
//! - [`kernels`] — functional implementations *and* HLS hardware specs for
//!   `kernel_preprocess`, the four `kernel_gates` compute units, and
//!   `kernel_hidden_state`.
//! - [`weights`] — host-side weight ingest and 10^6 quantization (§III-D).
//! - [`engine`] — [`CsdInferenceEngine`]: bit-faithful classification;
//!   the default software hot path fuses the four gate matrices into one
//!   `4H×Z` matvec over preallocated scratch, with the per-CU
//!   formulation preserved for hardware-mirroring fidelity and as the
//!   parity reference. A batch is a plain loop of the serial path over
//!   at most one chunk per core: the first on the calling thread, each
//!   other one on a scoped thread.
//! - [`scratch`] — the preallocated buffers behind the zero-allocation
//!   steady state.
//! - [`timing`] — regenerates Fig. 3 and the FPGA row of Table I from the
//!   HLS latency model.
//! - [`schedule`] — the §III-C software pipeline (preprocess prefetching
//!   item `t+1` under the compute of item `t`).
//! - [`monitor`] — the continuous-protection wrapper: rolling window,
//!   stride classification, alert debouncing (§I's background execution).
//! - [`shard`] — [`ShardedStreamMux`], the stream multiplexer:
//!   thousands of process streams' windows in one bounded FIFO, served
//!   one window at a time under a budget counted in window-steps, with
//!   backpressure, each loss named to the submitter ([`Admission`]) and
//!   in-order delivery by construction. [`stream`] holds its config/admission/verdict/stats
//!   types.
//! - [`fleet`] — multi-device scaling (§II's "multiple devices within a
//!   single node").
//! - [`bitstream`] — the `v++` link step: schedules the design against a
//!   device and emits the [`Xclbin`] image the host programs.
//! - [`host`] — the host program against the simulated SmartSSD runtime
//!   (buffer allocation, weight migration, P2P sequence loading, kernel
//!   enqueues).
//!
//! # Example
//!
//! ```rust
//! use csd_accel::{CsdInferenceEngine, OptimizationLevel};
//! use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
//!
//! let model = SequenceClassifier::new(ModelConfig::paper(), 7);
//! let weights = ModelWeights::from_model(&model);
//! let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
//! let seq: Vec<usize> = (0..100).map(|i| (i * 13) % 278).collect();
//! // The on-device fixed-point result tracks the offline f64 model.
//! let p_fpga = engine.classify(&seq).probability;
//! let p_f64 = model.predict_proba(&seq);
//! assert!((p_fpga - p_f64).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod engine;
pub mod fleet;
pub mod host;
pub mod kernels;
pub mod monitor;
pub mod opt;
pub mod schedule;
pub mod scratch;
pub mod shard;
pub mod stream;
pub mod timing;
pub mod weights;

pub use bitstream::{link, LinkError, Xclbin};
pub use engine::{Classification, CsdInferenceEngine, GatePath};
pub use fleet::{CsdFleet, FleetScan, FleetStats};
pub use host::{DeviceRun, HostError, HostProgram, RecoveryPolicy};
pub use kernels::LstmDims;
pub use monitor::{Alert, MonitorConfig, RollingWindow, StreamMonitor, VoteRing};
pub use opt::OptimizationLevel;
pub use schedule::{Bottleneck, PipelineSchedule, ScheduleEvent};
pub use scratch::{EngineScratch, InferenceScratch};
pub use shard::ShardedStreamMux;
pub use stream::{Admission, MuxStats, OverflowPolicy, StreamMuxConfig, Verdict, ROUND_STEPS};
pub use timing::{fig3, table1_fpga_row, Fig3Row, KernelBreakdown};
pub use weights::{LaneGatesFx, QuantizedWeights, LANE_MAX_STEPS};
