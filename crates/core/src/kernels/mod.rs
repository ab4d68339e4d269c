//! The five-kernel decomposition of the LSTM forward pass (§III-B).
//!
//! Each kernel exists twice, on purpose:
//!
//! 1. **functionally** — Rust code that actually computes the kernel's
//!    outputs (in f64 for the float levels, in `Fx6` for the fixed-point
//!    level), so classification results are real, testable numbers; and
//! 2. **structurally** — a [`csd_hls::KernelSpec`] describing the loop
//!    nests and pragmas the HLS flow would synthesize, from which the
//!    latency model derives Fig. 3's timings.
//!
//! Keeping the two views side by side in one module is the Rust analogue
//! of an HLS source file: the code *is* the hardware description.
//!
//! The functional kernels are the engine's per-CU loop: the only path at
//! the float levels, and the reference (and fallback) in fixed point,
//! where production windows run the row kernels of
//! [`csd_tensor::lanes`] instead.

pub mod gates;
pub mod hidden;
pub mod preprocess;

use serde::{Deserialize, Serialize};

pub use gates::GateKind;

/// The model dimensions every kernel is parameterized by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LstmDims {
    /// Vocabulary size `M`.
    pub vocab: usize,
    /// Embedding size `O` (= the LSTM input size).
    pub embed: usize,
    /// Hidden size `H`.
    pub hidden: usize,
}

impl LstmDims {
    /// The paper's dimensions: `M = 278`, `O = 8`, `H = 32`.
    pub fn paper() -> Self {
        Self {
            vocab: 278,
            embed: 8,
            hidden: 32,
        }
    }

    /// The concatenated gate-input width `Z = H + O` (the `[h_{t−1}, x_t]`
    /// vector).
    pub fn z(&self) -> usize {
        self.hidden + self.embed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims() {
        let d = LstmDims::paper();
        assert_eq!(d.z(), 40);
        assert_eq!(d.vocab * d.embed, 2_224);
    }
}
