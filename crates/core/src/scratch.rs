//! Preallocated working memory for the zero-allocation inference path.
//!
//! The fixed-point row kernel walks a sequence on the state held here:
//! its per-timestep loop performs no heap allocation at all (the gate
//! vector lives in registers, or — on the step loop other hosts run — in
//! one buffer a window).
//! This mirrors the hardware, where every kernel-side array is a fixed
//! BRAM buffer sized at synthesis from the model dimensions (§III-B), not
//! storage acquired per item. The per-CU loop keeps only its recurrent
//! state here.

use csd_fxp::Fx6;
use csd_tensor::{Scalar, Vector};

use crate::kernels::LstmDims;

/// Reusable buffers for one in-flight sequence at one precision.
///
/// Allocated once (per engine call or per batch worker) and reset between
/// sequences; the timestep loop only reads and overwrites them.
#[derive(Debug, Clone)]
pub struct InferenceScratch<T> {
    /// Cell state `C_t` (`H` elements).
    pub c: Vector<T>,
    /// Hidden state `h_t` (`H` elements).
    pub h: Vector<T>,
}

impl<T: Scalar> InferenceScratch<T> {
    /// Allocates all buffers for the given model dimensions.
    pub fn new(dims: LstmDims) -> Self {
        Self {
            c: Vector::zeros(dims.hidden),
            h: Vector::zeros(dims.hidden),
        }
    }

    /// Zeroes the recurrent state so the next sequence starts fresh.
    pub fn reset(&mut self) {
        self.c.as_mut_slice().fill(T::zero());
        self.h.as_mut_slice().fill(T::zero());
    }
}

/// Both precisions' scratch, so one allocation serves an engine at any
/// [`OptimizationLevel`](crate::opt::OptimizationLevel).
#[derive(Debug, Clone)]
pub struct EngineScratch {
    /// Float-path buffers. A fixed-point engine's fused path keeps its
    /// state here too (`c`, `h`): raw 10^6-scaled integers exactly
    /// encoded in `f64` — the form the [`csd_tensor::lanes`] kernels
    /// compute on.
    pub f64_buffers: InferenceScratch<f64>,
    /// Fixed-point-path buffers: the per-CU loop's state (`c`, `h`), and
    /// every fixed-point path's final `h` for the FC head.
    pub fx_buffers: InferenceScratch<Fx6>,
}

impl EngineScratch {
    /// Allocates scratch for the given model dimensions.
    pub fn new(dims: LstmDims) -> Self {
        Self {
            f64_buffers: InferenceScratch::new(dims),
            fx_buffers: InferenceScratch::new(dims),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized_from_dims() {
        let dims = LstmDims::paper();
        let s: InferenceScratch<f64> = InferenceScratch::new(dims);
        assert_eq!(s.c.len(), dims.hidden);
        assert_eq!(s.h.len(), dims.hidden);
    }

    #[test]
    fn reset_clears_the_state() {
        let dims = LstmDims::paper();
        let mut s: InferenceScratch<f64> = InferenceScratch::new(dims);
        s.c[0] = 1.5;
        s.h[3] = -2.0;
        s.reset();
        assert!(s.c.iter().all(|&v| v == 0.0));
        assert!(s.h.iter().all(|&v| v == 0.0));
    }
}
