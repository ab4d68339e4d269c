//! The framework-dispatch CPU execution model.
//!
//! On a Xeon running a deep-learning framework, one LSTM timestep of a
//! 7.5K-parameter model executes ~17 framework operations (embedding
//! lookup, four `W·[h,x]+b` matmuls with bias adds, gate activations,
//! state elementwise ops, bookkeeping). Each op pays graph-executor
//! dispatch — type checking, shape inference, memory planning, kernel
//! selection — that dwarfs its arithmetic at this scale. The model is:
//!
//! `t_item = base + ops_per_step × per_op_dispatch`, jittered log-normally
//! (scheduler preemption, cache/TLB state, frequency scaling), calibrated
//! so the distribution matches the paper's Table I row
//! (mean 991.58 µs, 95% interval 217.47–1765.69 ⇒ σ ≈ 395 µs).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::Summary;

/// Per-item forward-pass time model for a framework-driven CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuExecutionModel {
    /// Fixed per-item overhead (session entry, input staging) in µs.
    pub base_us: f64,
    /// Framework ops dispatched per LSTM timestep.
    pub ops_per_step: u32,
    /// Mean dispatch cost per op in µs.
    pub per_op_dispatch_us: f64,
    /// Log-normal jitter parameter σ (0 = deterministic).
    pub jitter_sigma: f64,
}

impl CpuExecutionModel {
    /// The Table I calibration: Intel Xeon running an eager-mode framework.
    ///
    /// `515 + 17 × 28.03 ≈ 991.6 µs`; `jitter_sigma = 0.385` gives a
    /// distribution σ ≈ 395 µs.
    pub fn xeon_framework() -> Self {
        Self {
            base_us: 515.0,
            ops_per_step: 17,
            per_op_dispatch_us: 28.03,
            jitter_sigma: 0.385,
        }
    }

    /// A fused-kernel calibration: the same Xeon once the four gate
    /// matmuls are stacked into one `4H×Z` matvec and the elementwise
    /// work is fused, as the engine's software hot path does. Dispatch
    /// count drops from ~17 ops per timestep to ~6 (lookup, one biased
    /// matmul, two activation sweeps, state update, bookkeeping); the
    /// per-op cost and jitter regime are unchanged because they are
    /// properties of the framework, not the graph.
    pub fn xeon_fused() -> Self {
        Self {
            ops_per_step: 6,
            ..Self::xeon_framework()
        }
    }

    /// The deterministic mean per-item time in µs.
    pub fn mean_us(&self) -> f64 {
        self.base_us + self.ops_per_step as f64 * self.per_op_dispatch_us
    }

    /// Samples one per-item measurement in µs.
    ///
    /// Uses a mean-preserving log-normal: `mean × exp(σZ − σ²/2)`.
    pub fn sample_us(&self, rng: &mut ChaCha8Rng) -> f64 {
        let z = standard_normal(rng);
        self.mean_us() * (self.jitter_sigma * z - self.jitter_sigma.powi(2) / 2.0).exp()
    }

    /// Runs `n` simulated measurements and summarizes them.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn measure(&self, n: usize, seed: u64) -> Summary {
        assert!(n > 0, "need at least one measurement");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n).map(|_| self.sample_us(&mut rng)).collect();
        Summary::from_samples(&samples)
    }
}

impl Default for CpuExecutionModel {
    fn default() -> Self {
        Self::xeon_framework()
    }
}

/// Box–Muller standard normal from a seeded RNG.
pub(crate) fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_table1() {
        let m = CpuExecutionModel::xeon_framework();
        assert!((m.mean_us() - 991.58).abs() < 1.0, "{}", m.mean_us());
    }

    #[test]
    fn measured_distribution_matches_paper_shape() {
        let m = CpuExecutionModel::xeon_framework();
        let s = m.measure(20_000, 42);
        // Mean within 2% of Table I.
        assert!((s.mean - 991.58).abs() / 991.58 < 0.02, "{s}");
        // σ in the right regime (paper ⇒ ~395 µs).
        assert!(s.std > 300.0 && s.std < 500.0, "{s}");
        // Interval brackets resemble Table I's 217–1766.
        assert!(s.ci_low < 350.0);
        assert!(s.ci_high > 1_500.0);
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = CpuExecutionModel {
            jitter_sigma: 0.0,
            ..CpuExecutionModel::xeon_framework()
        };
        let s = m.measure(100, 7);
        assert!(s.std < 1e-9);
        assert!((s.mean - m.mean_us()).abs() < 1e-9);
    }

    #[test]
    fn fused_dispatch_is_cheaper_but_not_free() {
        let fused = CpuExecutionModel::xeon_fused();
        let eager = CpuExecutionModel::xeon_framework();
        assert!(fused.mean_us() < eager.mean_us());
        // Fusion removes dispatch, not the fixed session overhead.
        assert!(fused.mean_us() > eager.base_us);
    }

    #[test]
    fn samples_are_positive() {
        let m = CpuExecutionModel::xeon_framework();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert!(m.sample_us(&mut rng) > 0.0);
        }
    }

    #[test]
    fn measurement_is_seed_deterministic() {
        let m = CpuExecutionModel::xeon_framework();
        assert_eq!(m.measure(50, 9), m.measure(50, 9));
        assert_ne!(m.measure(50, 9).mean, m.measure(50, 10).mean);
    }
}
