//! Decimal fixed-point arithmetic for CSD-based deep-learning inference.
//!
//! The paper reproduced by this workspace ("Empowering Data Centers with
//! Computational Storage Drive-Based Deep Learning Inference Functionality to
//! Combat Ransomware", DSN-S 2024) accelerates LSTM inference on the FPGA of
//! a Samsung SmartSSD. One of its three headline optimizations is replacing
//! floating-point arithmetic with *decimal* fixed-point arithmetic using a
//! scale factor of 10^6 (§III-D):
//!
//! > "we employ a scaling factor of 10^6 [...] We multiply the floating-point
//! > values of weights, biases, and embeddings by this factor before the host
//! > initialization [...] after each multiplication, the product scales by
//! > 10^12, which requires a correction by dividing by the scaling factor"
//!
//! This crate provides that arithmetic in a reusable form:
//!
//! - [`Fixed`] — a compile-time-scaled decimal fixed-point number
//!   (`Fixed<6>` is the paper's 10^6 configuration) backed by `i64` with
//!   `i128` intermediates, so products never silently overflow.
//! - [`activation`] — the fixed-point lookup-table sigmoid and the paper's
//!   softsign replacement for `tanh` (`softsign(x) = x / (|x| + 1)`), which
//!   avoids `exp()` on the FPGA fabric.
//! - [`bounds`] — the accumulator bounds under which the SIMD kernels'
//!   `f64` arithmetic stays exact.
//!
//! # Example
//!
//! ```rust
//! use csd_fxp::{Fixed, Fx6};
//!
//! // The paper's 10^6 scale: 0.5 is stored as raw 500_000.
//! let half = Fx6::from_f64(0.5);
//! assert_eq!(half.raw(), 500_000);
//!
//! // Multiplication corrects the 10^12-scaled product back to 10^6.
//! let quarter = half * half;
//! assert_eq!(quarter.to_f64(), 0.25);
//!
//! // Dot products accumulate in i128 and rescale once, like the FPGA DSP
//! // accumulation chain.
//! let acc = Fixed::dot(&[half, quarter], &[half, half]);
//! assert!((acc.to_f64() - 0.375).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod bounds;
pub mod scaled;

pub use activation::{div_round_raw, sigmoid_fx_lut, softsign_fx};
pub use bounds::{row_exact_in_f64, row_mac_bound, EXACT_F64_INT, LANE_ROW_BOUND};
pub use scaled::{Fixed, FixedError, Fx6};
