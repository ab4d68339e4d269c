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
//!   chunks on the worker pool.
//! - [`scratch`] — the preallocated buffers behind the zero-allocation
//!   steady state.
//! - [`pool`] — the process-wide persistent worker pool backing
//!   [`classify_batch`](engine::CsdInferenceEngine::classify_batch) and
//!   the sharded stream mux, with scoped (borrowing) job submission.
//! - [`timing`] — regenerates Fig. 3 and the FPGA row of Table I from the
//!   HLS latency model.
//! - [`schedule`] — the §III-C software pipeline (preprocess prefetching
//!   item `t+1` under the compute of item `t`).
//! - [`monitor`] — the continuous-protection wrapper: rolling window,
//!   stride classification, alert debouncing (§I's background execution).
//! - [`shard`] — [`ShardedStreamMux`], the continuous-batching stream
//!   multiplexer: thousands of process streams multiplexed onto one lane
//!   block (or, when asked, one per shard, advanced in parallel) with
//!   iteration-level admission/retirement (a retiring window's slot
//!   refills the same tick), global backpressure, placement fixed at
//!   admission, per-stream in-order delivery and tick-level stats.
//!   [`stream`] holds its config/verdict/stats types and the
//!   crate-private lane block the shards run.
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

// `deny`, not `forbid`: the worker pool carries one narrowly scoped
// `allow` for the lifetime transmute behind scoped jobs (see
// `pool::WorkerPool::try_scatter_scoped`); everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod engine;
pub mod fleet;
pub mod host;
pub mod kernels;
pub mod monitor;
pub mod opt;
pub mod pool;
pub mod schedule;
pub mod scratch;
pub mod shard;
pub mod stream;
pub mod timing;
pub mod weights;

pub use bitstream::{link, LinkError, Xclbin};
pub use engine::{Classification, CsdInferenceEngine, GatePath};
pub use fleet::{CsdFleet, FleetPolicy, FleetScan, FleetStats};
pub use host::{DeviceRun, HostError, HostProgram, RecoveryPolicy, RecoveryStats};
pub use kernels::LstmDims;
pub use monitor::{Alert, MonitorConfig, RollingWindow, StreamMonitor, VoteRing};
pub use opt::OptimizationLevel;
pub use pool::{PoolError, WorkerPool};
pub use schedule::{Bottleneck, PipelineSchedule, ScheduleEvent};
pub use scratch::{EngineScratch, InferenceScratch};
pub use shard::ShardedStreamMux;
pub use stream::{MuxStats, OverflowPolicy, StreamLoss, StreamMuxConfig, Verdict};
pub use timing::{fig3, table1_fpga_row, Fig3Row, KernelBreakdown};
pub use weights::{FusedGates, LaneGatesFx, QuantizedWeights, LANE_MAX_STEPS};
