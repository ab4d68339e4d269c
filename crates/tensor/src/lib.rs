//! Minimal dense linear algebra for the CSD inference stack.
//!
//! The LSTM in the reproduced paper is tiny (7,472 parameters), so this
//! crate deliberately implements only what the stack needs — vectors,
//! row-major matrices, dot/matvec, and weight initialization — generic over
//! a [`Scalar`] trait with two instances:
//!
//! - `f64` for offline training ([`csd_nn`](https://docs.rs/csd-nn)), and
//! - [`csd_fxp::Fixed`] for the on-device fixed-point path.
//!
//! Keeping both behind one trait lets the integration tests assert
//! *bit-level parity bounds* between the offline model and the FPGA kernel
//! implementations.
//!
//! The [`lanes`] module adds the fixed-point SIMD kernels of the fused
//! gate timestep — vectorised across gate rows for one sequence, or
//! across lanes for a block of them — bit-identical to the serial path.
//! The [`bptt`] module holds the three `f64` products of LSTM training,
//! bit-identical to the [`Matrix`] code they replace. [`fan_out`] is
//! the one scoped fan-out the trainer and the engine share: the worker
//! count schedules parts, and never changes a result.
//!
//! # Example
//!
//! ```rust
//! use csd_tensor::{Matrix, Vector};
//!
//! let w = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let x = Vector::from(vec![1.0, 1.0]);
//! let y = w.matvec(&x);
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//! ```

// deny, not forbid: the SIMD kernels in [`lanes`] and the AVX-512
// calls in [`bptt`] carry narrowly scoped `#[allow(unsafe_code)]`
// blocks for runtime-dispatched SIMD code, each with a SAFETY comment.
// Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bptt;
mod fanout;
pub mod init;
pub mod lanes;
pub mod matrix;
pub mod scalar;
pub mod vector;

pub use fanout::fan_out;
pub use init::Initializer;
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use vector::Vector;
