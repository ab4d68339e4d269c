//! `kernel_hidden_state`: cell-state update, hidden-state output, and the
//! fully-connected classification head.
//!
//! §III-B: "`h_t` is dependent upon `C_t`, and therefore
//! `kernel_hidden_state` is used to generate both ... taking this approach
//! allows us to maintain `C_t` entirely within `kernel_hidden_state`" —
//! the cell state never crosses a kernel boundary. The kernel also fans
//! four copies of `h_t` back to the gate CUs (§III-C), keeps the timestep
//! counter ("a static counter in order to determine when the entirety of
//! the sequence has been processed"), and applies the 32+1-parameter FC
//! head to `h_T` after the final item.

use csd_fxp::{sigmoid_fx_lut, softsign_fx, Fx6};
use csd_hls::{KernelSpec, LoopBody, LoopNest, Op};
use csd_tensor::{Scalar, Vector};

use crate::kernels::LstmDims;
use crate::opt::OptimizationLevel;

/// One state update, f64 path: consumes the four gate outputs, returns
/// `(C_t, h_t)`.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn run_f64(
    i: &Vector<f64>,
    f: &Vector<f64>,
    o: &Vector<f64>,
    cbar: &Vector<f64>,
    c_prev: &Vector<f64>,
) -> (Vector<f64>, Vector<f64>) {
    // C_t = f ∗ C_{t−1} + i ∗ C'.
    let c = f.hadamard(c_prev).add(&i.hadamard(cbar));
    // h_t = o ∗ softsign(C_t).
    let h = o.hadamard(&c.map(|v| v / (1.0 + v.abs())));
    (c, h)
}

/// One state update, fixed-point path.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn run_fx(
    i: &Vector<Fx6>,
    f: &Vector<Fx6>,
    o: &Vector<Fx6>,
    cbar: &Vector<Fx6>,
    c_prev: &Vector<Fx6>,
) -> (Vector<Fx6>, Vector<Fx6>) {
    let c = f.hadamard(c_prev).add(&i.hadamard(cbar));
    let h = o.hadamard(&c.map(softsign_fx));
    (c, h)
}

/// The FC head on the final hidden state, f64 path: `σ(w · h_T + b)`.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn classify_f64(h: &Vector<f64>, fc_w: &Vector<f64>, fc_b: f64) -> f64 {
    let logit = fc_w.dot(h) + fc_b;
    1.0 / (1.0 + (-logit).exp())
}

/// The FC head, fixed-point path.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn classify_fx(h: &Vector<Fx6>, fc_w: &Vector<Fx6>, fc_b: Fx6) -> Fx6 {
    let logit = Fx6::dot(fc_w.as_slice(), h.as_slice()).checked_add(fc_b);
    sigmoid_fx_lut(logit.expect("fc logit overflow"))
}

/// Fans `h_t` back out to the four gate CUs.
pub fn fanout_h<T: Scalar>(h: &Vector<T>) -> [Vector<T>; 4] {
    [h.clone(), h.clone(), h.clone(), h.clone()]
}

/// The per-item hardware structure: four gate-result input bursts, the
/// elementwise state loop, four `h` fan-out bursts, and the timestep
/// counter. (The FC head runs once per sequence and is not part of it.)
pub fn spec(level: OptimizationLevel, dims: &LstmDims) -> KernelSpec {
    let h = dims.hidden as u32;
    let mut ops = vec![Op::MemRead, Op::MemRead, Op::MemRead, Op::MemRead];
    // c = f·c + i·c': two multiplies and an add ...
    ops.extend([Op::Mul, Op::Mul, Op::Add]);
    // ... softsign(c): |c|, +1, divide ...
    ops.extend([Op::Abs, Op::Add, Op::Div]);
    // ... h = o · softsign(c).
    ops.push(Op::Mul);
    let mut spec = KernelSpec::new("kernel_hidden_state", level.format());
    for _ in 0..4 {
        spec = spec.axi_burst(h); // i, f, o, C' arrive from the CUs
    }
    spec = spec.stage(LoopNest::new(
        h,
        LoopBody::Map(ops),
        level.inner_loop_pragmas(),
    ));
    for _ in 0..4 {
        spec = spec.axi_burst(h); // four h_{t} copies back to the CUs
    }
    // The static sequence counter: increment + end-of-sequence compare.
    spec.seq(vec![Op::Add, Op::Cmp])
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_hls::Clock;
    use csd_tensor::Initializer;

    fn vecs() -> [Vector<f64>; 5] {
        std::array::from_fn(|k| {
            Initializer::Uniform { limit_millis: 900 }.vector(32, k as u64 + 10)
        })
    }

    #[test]
    fn state_update_matches_hand_calc() {
        let i = Vector::from(vec![0.5]);
        let f = Vector::from(vec![0.25]);
        let o = Vector::from(vec![1.0]);
        let cbar = Vector::from(vec![0.8]);
        let c_prev = Vector::from(vec![2.0]);
        let (c, h) = run_f64(&i, &f, &o, &cbar, &c_prev);
        // c = 0.25·2 + 0.5·0.8 = 0.9; h = 1·softsign(0.9) = 0.9/1.9.
        assert!((c[0] - 0.9).abs() < 1e-12);
        assert!((h[0] - 0.9 / 1.9).abs() < 1e-12);
    }

    #[test]
    fn fx_state_update_tracks_f64() {
        let [i, f, o, cbar, c_prev] = vecs();
        let q = |v: &Vector<f64>| Vector::<Fx6>::from_f64_slice(&v.to_f64_vec());
        let (c, h) = run_f64(&i, &f, &o, &cbar, &c_prev);
        let (cq, hq) = run_fx(&q(&i), &q(&f), &q(&o), &q(&cbar), &q(&c_prev));
        assert!(c.max_abs_diff(&Vector::from(cq.to_f64_vec())) < 1e-4);
        assert!(h.max_abs_diff(&Vector::from(hq.to_f64_vec())) < 1e-4);
    }

    #[test]
    fn classify_head_matches_sigmoid() {
        let h = Vector::from(vec![0.5, -0.5]);
        let w = Vector::from(vec![1.0, 1.0]);
        let p = classify_f64(&h, &w, 0.3);
        assert!((p - 1.0 / (1.0 + (-0.3f64).exp())).abs() < 1e-12);
        let pq = classify_fx(
            &Vector::from_f64_slice(&[0.5, -0.5]),
            &Vector::from_f64_slice(&[1.0, 1.0]),
            Fx6::from_f64(0.3),
        );
        assert!((pq.to_f64() - p).abs() < 1e-3);
    }

    #[test]
    fn fanout_is_four_copies() {
        let h = Vector::from(vec![1.0, 2.0]);
        assert!(fanout_h(&h).iter().all(|c| c == &h));
    }

    #[test]
    fn hidden_timing_improves_modestly_with_ii() {
        // The paper: II helps hidden_state; fixed point does not help it
        // further (their Fig. 3 even shows a slight rise).
        let dims = LstmDims::paper();
        let clock = Clock::default_kernel_clock();
        let t = |l: OptimizationLevel| clock.micros(spec(l, &dims).estimate_default().fill_cycles);
        let v = t(OptimizationLevel::Vanilla);
        let ii = t(OptimizationLevel::IiOptimized);
        let fx = t(OptimizationLevel::FixedPoint);
        assert!(ii < v, "II should reduce hidden_state ({v} → {ii})");
        // Fixed point changes hidden_state only marginally (< 15%).
        assert!((fx - ii).abs() / ii < 0.15, "II {ii} vs fixed {fx}");
        // Ballpark of the paper's 1.3–1.7 µs row: within ~2×.
        assert!(v > 0.6 && v < 3.5, "vanilla hidden {v}");
    }
}
