//! `kernel_gates`: one compute unit per LSTM gate.
//!
//! §III-B/C: four identical CUs run in parallel, one each for `i`, `f`,
//! `o`, and `C'`. A CU computes `act(W_g · [h_{t−1}, x_t] + b_g)` — a
//! `H × Z` matrix-vector product followed by the gate activation — from
//! its private copies of `x_t` and `h_{t−1}`. "The execution time of the
//! gate operations is equivalent to the maximum execution time of each of
//! the four CUs" (§IV).

use csd_fxp::{sigmoid_fx_lut, softsign_fx, Fx6};
use csd_hls::{KernelSpec, LoopBody, LoopNest, Op};
use csd_tensor::{Matrix, Vector};

use crate::kernels::LstmDims;
use crate::opt::OptimizationLevel;

/// Which gate a CU computes, in the TensorFlow export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Input gate `i_t` (sigmoid).
    Input,
    /// Forget gate `f_t` (sigmoid).
    Forget,
    /// Cell candidate `C'_t` (softsign, the paper's `tanh` replacement).
    Candidate,
    /// Output gate `o_t` (sigmoid).
    Output,
}

impl GateKind {
    /// All four CUs in export order (`i, f, c, o`).
    pub const ALL: [GateKind; 4] = [
        GateKind::Input,
        GateKind::Forget,
        GateKind::Candidate,
        GateKind::Output,
    ];

    /// Index into weight arrays (TF order).
    pub fn index(self) -> usize {
        match self {
            GateKind::Input => 0,
            GateKind::Forget => 1,
            GateKind::Candidate => 2,
            GateKind::Output => 3,
        }
    }

    /// `true` for the softsign-activated candidate gate.
    fn is_candidate(self) -> bool {
        self == GateKind::Candidate
    }
}

/// Functional CU, f64 path: `act(W · [h, x] + b)`.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn run_f64(
    kind: GateKind,
    w: &Matrix<f64>,
    b: &Vector<f64>,
    h_prev: &Vector<f64>,
    x: &Vector<f64>,
) -> Vector<f64> {
    let z = h_prev.concat(x);
    let pre = w.matvec(&z).add(b);
    if kind.is_candidate() {
        pre.map(|v| v / (1.0 + v.abs()))
    } else {
        pre.map(|v| 1.0 / (1.0 + (-v).exp()))
    }
}

/// Functional CU, fixed-point path: the same math on 10^6-scaled
/// integers, with the LUT sigmoid / exact softsign used on the fabric.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn run_fx(
    kind: GateKind,
    w: &Matrix<Fx6>,
    b: &Vector<Fx6>,
    h_prev: &Vector<Fx6>,
    x: &Vector<Fx6>,
) -> Vector<Fx6> {
    let z = h_prev.concat(x);
    let pre = w.matvec(&z).add(b);
    if kind.is_candidate() {
        pre.map(softsign_fx)
    } else {
        pre.map(sigmoid_fx_lut)
    }
}

/// The hardware structure of one CU: the `H × Z` MAC nest followed by the
/// activation loop. `#pragma HLS DATAFLOW` (§III-C) overlaps the two.
pub fn spec(kind: GateKind, level: OptimizationLevel, dims: &LstmDims) -> KernelSpec {
    let h = dims.hidden as u32;
    let z = dims.z() as u32;
    let inner = LoopNest::new(z, LoopBody::Mac, level.inner_loop_pragmas());
    let rows = LoopNest::new(
        h,
        LoopBody::Nested(Box::new(inner)),
        level.outer_loop_pragmas(),
    );
    let act_ops = match (kind.is_candidate(), level.is_fixed_point()) {
        // Float sigmoid: exp + add + divide.
        (false, false) => vec![Op::MemRead, Op::Exp, Op::Add, Op::Div],
        // Float softsign: abs + add + divide (no exp — the optimization).
        (true, false) => vec![Op::MemRead, Op::Abs, Op::Add, Op::Div],
        // Fixed sigmoid: BRAM LUT lookup + interpolation multiply-add.
        (false, true) => vec![Op::MemRead, Op::Cmp, Op::Mul, Op::Add],
        // Fixed softsign: exact integer form, one wide divide.
        (true, true) => vec![Op::MemRead, Op::Abs, Op::Add, Op::Div],
    };
    let act = LoopNest::new(h, LoopBody::Map(act_ops), level.inner_loop_pragmas());
    KernelSpec::new(format!("kernel_gates[{kind:?}]"), level.format())
        .stage(rows)
        .stage(act)
        .dataflow()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_hls::{Clock, DeviceProfile, ResourceEstimate};
    use csd_tensor::Initializer;

    fn setup() -> (Matrix<f64>, Vector<f64>, Vector<f64>, Vector<f64>) {
        let w = Initializer::XavierUniform.matrix(32, 40, 1);
        let b = Initializer::XavierUniform.vector(32, 2);
        let h = Initializer::XavierUniform.vector(32, 3);
        let x = Initializer::XavierUniform.vector(8, 4);
        (w, b, h, x)
    }

    #[test]
    fn sigmoid_gates_bounded_01() {
        let (w, b, h, x) = setup();
        for kind in [GateKind::Input, GateKind::Forget, GateKind::Output] {
            let g = run_f64(kind, &w, &b, &h, &x);
            assert!(g.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn candidate_gate_bounded_pm1() {
        let (w, b, h, x) = setup();
        let g = run_f64(GateKind::Candidate, &w, &b, &h, &x);
        assert!(g.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn gate_matches_hand_computation() {
        // 1×2 toy gate: w = [1, 2], b = 0.5, h = [0.25], x = [0.5].
        let w = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        let b = Vector::from(vec![0.5]);
        let h = Vector::from(vec![0.25]);
        let x = Vector::from(vec![0.5]);
        // pre = 0.25 + 1.0 + 0.5 = 1.75.
        let sig = run_f64(GateKind::Input, &w, &b, &h, &x);
        assert!((sig[0] - 1.0 / (1.0 + (-1.75f64).exp())).abs() < 1e-12);
        let ss = run_f64(GateKind::Candidate, &w, &b, &h, &x);
        assert!((ss[0] - 1.75 / 2.75).abs() < 1e-12);
    }

    #[test]
    fn fx_tracks_f64() {
        let (w, b, h, x) = setup();
        let wq = Matrix::<Fx6>::from_f64_flat(32, 40, &w.to_f64_flat());
        let bq = Vector::<Fx6>::from_f64_slice(&b.to_f64_vec());
        let hq = Vector::<Fx6>::from_f64_slice(&h.to_f64_vec());
        let xq = Vector::<Fx6>::from_f64_slice(&x.to_f64_vec());
        for kind in GateKind::ALL {
            let exact = run_f64(kind, &w, &b, &h, &x);
            let quant = run_fx(kind, &wq, &bq, &hq, &xq);
            for (a, bb) in exact.iter().zip(quant.to_f64_vec()) {
                assert!((a - bb).abs() < 1e-3, "{kind:?}: {a} vs {bb}");
            }
        }
    }

    fn gates_budget() -> ResourceEstimate {
        // The budget policy gives each gate CU 20% of the device.
        let cap = DeviceProfile::alveo_u200().capacity;
        ResourceEstimate {
            dsp: cap.dsp / 5,
            lut: cap.lut / 5,
            ff: cap.ff / 5,
            bram: cap.bram / 5,
        }
    }

    #[test]
    fn fig3_gate_ordering_vanilla_ii_fixed() {
        let dims = LstmDims::paper();
        let clock = Clock::default_kernel_clock();
        let budget = gates_budget();
        let time = |level: OptimizationLevel| {
            let est = spec(GateKind::Input, level, &dims).estimate(&budget);
            if level.is_fixed_point() {
                clock.micros(est.timing.interval_cycles)
            } else {
                clock.micros(est.timing.fill_cycles)
            }
        };
        let v = time(OptimizationLevel::Vanilla);
        let ii = time(OptimizationLevel::IiOptimized);
        let fx = time(OptimizationLevel::FixedPoint);
        // The paper's central result: II helps ~2–4×, fixed point
        // collapses the gate time by orders of magnitude.
        assert!(v / ii > 2.0 && v / ii < 6.0, "vanilla {v} vs II {ii}");
        assert!(ii / fx > 100.0, "II {ii} vs fixed {fx}");
        assert!(fx < 0.05, "fixed-point gate time {fx} µs");
    }

    #[test]
    fn fixed_point_flattens_within_budget() {
        let dims = LstmDims::paper();
        let est =
            spec(GateKind::Input, OptimizationLevel::FixedPoint, &dims).estimate(&gates_budget());
        // The row loop pipelines: steady-state interval ≪ fill.
        assert!(est.timing.interval_cycles < est.timing.fill_cycles);
        assert!(est.timing.interval_cycles <= 4);
        assert!(est.resources.fits_within(&gates_budget()));
    }

    #[test]
    fn float_cannot_flatten() {
        let dims = LstmDims::paper();
        let est =
            spec(GateKind::Input, OptimizationLevel::IiOptimized, &dims).estimate(&gates_budget());
        // Float rows stay sequential: interval equals fill magnitude.
        assert!(est.timing.interval_cycles > 1_000);
    }
}
