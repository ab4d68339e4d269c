//! The kernel-launch GPU execution model.
//!
//! An A100 finishes the arithmetic of one 7.5K-parameter LSTM step in well
//! under a microsecond — but a framework driving the step eagerly pays, per
//! timestep: a dozen-plus CUDA kernel launches (gates, elementwise state
//! math, activation kernels), stream synchronization to read back the
//! hidden state, and PCIe traffic for the per-item input. These overheads
//! are why the paper's GPU row (741.35 µs) is only modestly better than its
//! CPU row, and why the sequential dependency of LSTMs (each step needs
//! `h_{t−1}`) prevents batching them away — the paper's §III-A argument
//! for why "GPUs ... may struggle with the sequential processing
//! requirements of LSTMs".

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cpu::standard_normal;
use crate::stats::Summary;

/// Per-item forward-pass time model for a framework-driven GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuExecutionModel {
    /// CUDA kernel launches per LSTM timestep.
    pub launches_per_step: u32,
    /// Mean cost per launch (driver + runtime) in µs.
    pub launch_overhead_us: f64,
    /// Host↔device transfer + synchronization cost per item in µs.
    pub transfer_sync_us: f64,
    /// Log-normal jitter parameter σ.
    pub jitter_sigma: f64,
}

impl GpuExecutionModel {
    /// The Table I calibration: NVIDIA A100 under an eager framework.
    ///
    /// `14 × 8.0 + 629.4 ≈ 741.4 µs`; `jitter_sigma = 0.236` gives
    /// σ ≈ 177 µs (the paper's interval 394.45–1088.25 ⇒ ±346.9).
    pub fn a100_framework() -> Self {
        Self {
            launches_per_step: 14,
            launch_overhead_us: 8.0,
            transfer_sync_us: 629.35,
            jitter_sigma: 0.236,
        }
    }

    /// The deterministic mean per-item time in µs.
    pub fn mean_us(&self) -> f64 {
        self.launches_per_step as f64 * self.launch_overhead_us + self.transfer_sync_us
    }

    /// Samples one per-item measurement in µs (mean-preserving log-normal).
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

impl Default for GpuExecutionModel {
    fn default() -> Self {
        Self::a100_framework()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuExecutionModel;

    #[test]
    fn mean_matches_table1() {
        let m = GpuExecutionModel::a100_framework();
        assert!((m.mean_us() - 741.35).abs() < 1.0, "{}", m.mean_us());
    }

    #[test]
    fn gpu_beats_cpu_but_not_by_much() {
        // Table I's qualitative story: GPU < CPU, same order of magnitude.
        let gpu = GpuExecutionModel::a100_framework().mean_us();
        let cpu = CpuExecutionModel::xeon_framework().mean_us();
        assert!(gpu < cpu);
        assert!(cpu / gpu < 2.0);
    }

    #[test]
    fn measured_distribution_matches_paper_shape() {
        let m = GpuExecutionModel::a100_framework();
        let s = m.measure(20_000, 11);
        assert!((s.mean - 741.35).abs() / 741.35 < 0.02, "{s}");
        assert!(s.std > 140.0 && s.std < 220.0, "{s}");
        // Paper interval: 394–1088.
        assert!(s.ci_low > 250.0 && s.ci_low < 500.0, "{s}");
        assert!(s.ci_high > 1_000.0 && s.ci_high < 1_250.0, "{s}");
    }

    #[test]
    fn gpu_jitter_is_tighter_than_cpu() {
        // A dedicated accelerator shows less run-to-run variance than a
        // multiplexed CPU — visible in the paper's interval widths.
        let g = GpuExecutionModel::a100_framework().measure(5_000, 1);
        let c = CpuExecutionModel::xeon_framework().measure(5_000, 1);
        assert!(g.std / g.mean < c.std / c.mean);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = GpuExecutionModel::a100_framework();
        assert_eq!(m.measure(64, 5), m.measure(64, 5));
    }
}
