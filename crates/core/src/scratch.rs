//! Preallocated working memory for the zero-allocation inference path.
//!
//! The fused serial path walks a sequence touching only the buffers held
//! here: the per-timestep loop performs no heap allocation at all. This
//! mirrors the hardware, where every kernel-side array is a fixed BRAM
//! buffer sized at synthesis from the model dimensions (§III-B), not
//! storage acquired per item. The stream mux's lane block keeps its
//! structure-of-arrays state in the crate-private `LaneScratch`.

use csd_fxp::Fx6;
use csd_tensor::{Scalar, Vector};

use crate::kernels::LstmDims;

/// Reusable buffers for one in-flight sequence at one precision.
///
/// Allocated once (per engine call or per batch worker) and reset between
/// sequences; the timestep loop only reads and overwrites them.
#[derive(Debug, Clone)]
pub struct InferenceScratch<T> {
    /// Embedding of the current item (`E` elements).
    pub x: Vector<T>,
    /// Concatenated `[h_{t−1}, x_t]` gate input (`Z = H + E` elements).
    pub z: Vector<T>,
    /// Fused gate vector: pre-activations then activations in place
    /// (`4H` elements, TF gate order `i f c o`).
    pub g: Vector<T>,
    /// Cell state `C_t` (`H` elements).
    pub c: Vector<T>,
    /// Hidden state `h_t` (`H` elements).
    pub h: Vector<T>,
}

impl<T: Scalar> InferenceScratch<T> {
    /// Allocates all buffers for the given model dimensions.
    pub fn new(dims: LstmDims) -> Self {
        Self {
            x: Vector::zeros(dims.embed),
            z: Vector::zeros(dims.z()),
            g: Vector::zeros(4 * dims.hidden),
            c: Vector::zeros(dims.hidden),
            h: Vector::zeros(dims.hidden),
        }
    }

    /// Zeroes the recurrent state so the next sequence starts fresh. The
    /// non-state buffers (`x`, `z`, `g`) are fully overwritten every
    /// timestep and need no clearing.
    pub fn reset(&mut self) {
        self.c.as_mut_slice().fill(T::zero());
        self.h.as_mut_slice().fill(T::zero());
    }
}

/// Structure-of-arrays working memory for one lane block: `width`
/// windows advanced in lockstep by a stream-mux shard.
///
/// Layout: every buffer is row-major with lanes contiguous — element
/// `(row r, lane l)` lives at `buf[r * width + l]`. All buffers are `f64`
/// for both precisions: the float path stores actual values, the
/// fixed-point path stores raw 10^6-scaled integers exactly encoded in
/// `f64` (see [`csd_tensor::lanes`]).
///
/// The hidden state has no buffer of its own: rows `0..H` of `z` *are*
/// `h`, so the `[h | x]` gate-input concatenation falls out of the layout
/// and the update kernel writes `h_t` directly where the next timestep's
/// matmul reads it.
#[derive(Debug, Clone)]
pub(crate) struct LaneScratch {
    /// Gate input block, `Z × width`: rows `0..H` hold `h_{t−1}`, rows
    /// `H..Z` hold the gathered embedding of each lane's current item.
    pub z: Vec<f64>,
    /// Fused gate block, `4H × width`: pre-activations then activations
    /// in place (TF gate order `i f c o`, gate `g` owning the contiguous
    /// row range `g·H..(g+1)·H`).
    pub g: Vec<f64>,
    /// Cell state block, `H × width`.
    pub c: Vec<f64>,
    /// Four-accumulator scratch (`4 × width`) for the order-preserving
    /// float lane matmul.
    pub acc: Vec<f64>,
    /// Each lane's current vocabulary item — the gate-table row the
    /// fixed-point table matmul initializes that lane's accumulators
    /// from. Idle and freshly cleared lanes point at item 0: its table
    /// row is a valid, proof-bounded entry, and only retired lanes'
    /// outputs are ever read, so the placeholder cannot affect a verdict.
    pub item: Vec<usize>,
    hidden: usize,
    width: usize,
}

impl LaneScratch {
    /// Allocates all lane buffers for the given model dimensions and lane
    /// width.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero.
    pub fn new(dims: LstmDims, width: usize) -> Self {
        assert!(width > 0, "lane width must be at least 1");
        Self {
            z: vec![0.0; dims.z() * width],
            g: vec![0.0; 4 * dims.hidden * width],
            c: vec![0.0; dims.hidden * width],
            acc: vec![0.0; 4 * width],
            item: vec![0; width],
            hidden: dims.hidden,
            width,
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Zeroes one lane's recurrent state (its `h` rows inside `z` and its
    /// `c` column) so a freshly assigned — or vacated — lane starts from
    /// the zero state. The embedding rows are overwritten at the next
    /// gather (or harmlessly stale for a vacated lane: every kernel input
    /// stays inside its proven range).
    pub fn clear_lane(&mut self, lane: usize) {
        for r in 0..self.hidden {
            self.z[r * self.width + lane] = 0.0;
            self.c[r * self.width + lane] = 0.0;
        }
        self.item[lane] = 0;
    }
}

/// Both precisions' scratch, so one allocation serves an engine at any
/// [`OptimizationLevel`](crate::opt::OptimizationLevel).
#[derive(Debug, Clone)]
pub struct EngineScratch {
    /// Float-path buffers. A fixed-point engine's fused path keeps its
    /// state here too (`g`, `c`, `h`): raw 10^6-scaled integers exactly
    /// encoded in `f64`, as in a mux lane block of width 1 — the form
    /// the [`csd_tensor::lanes`] kernels compute on.
    pub f64_buffers: InferenceScratch<f64>,
    /// Fixed-point-path buffers: the wide and per-CU paths' working
    /// state, and every fixed-point path's final `h` for the FC head.
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
        assert_eq!(s.x.len(), dims.embed);
        assert_eq!(s.z.len(), dims.hidden + dims.embed);
        assert_eq!(s.g.len(), 4 * dims.hidden);
        assert_eq!(s.c.len(), dims.hidden);
        assert_eq!(s.h.len(), dims.hidden);
    }

    #[test]
    fn lane_scratch_layout_and_clear() {
        let dims = LstmDims::paper();
        let width = 4;
        let mut s = LaneScratch::new(dims, width);
        assert_eq!(s.z.len(), dims.z() * width);
        assert_eq!(s.g.len(), 4 * dims.hidden * width);
        assert_eq!(s.c.len(), dims.hidden * width);
        assert_eq!(s.acc.len(), 4 * width);
        assert_eq!(s.width(), width);
        s.z.fill(1.0);
        s.c.fill(2.0);
        s.item.fill(7);
        s.clear_lane(2);
        assert_eq!(s.item[2], 0);
        assert_eq!(s.item[1], 7);
        for r in 0..dims.hidden {
            assert_eq!(s.z[r * width + 2], 0.0);
            assert_eq!(s.c[r * width + 2], 0.0);
            assert_eq!(s.z[r * width + 1], 1.0);
            assert_eq!(s.c[r * width + 3], 2.0);
        }
        // Embedding rows of the cleared lane are untouched (overwritten
        // by the next gather).
        assert_eq!(s.z[dims.hidden * width + 2], 1.0);
    }

    #[test]
    fn reset_clears_only_state() {
        let dims = LstmDims::paper();
        let mut s: InferenceScratch<f64> = InferenceScratch::new(dims);
        s.c[0] = 1.5;
        s.h[3] = -2.0;
        s.g[7] = 9.0;
        s.reset();
        assert!(s.c.iter().all(|&v| v == 0.0));
        assert!(s.h.iter().all(|&v| v == 0.0));
        assert_eq!(s.g[7], 9.0);
    }
}
