//! Regenerates the paper's timing results from the HLS latency model:
//! Fig. 3 (per-kernel times under each optimization level) and the FPGA
//! row of Table I.

use csd_hls::{Clock, DeviceProfile, KernelEstimate, ResourceEstimate};

use crate::kernels::{gates, hidden, preprocess, GateKind, LstmDims};
use crate::opt::OptimizationLevel;

/// The floorplan budget policy (DESIGN.md §5): the four gate CUs get 20%
/// of the device each; `kernel_preprocess` and `kernel_hidden_state` get
/// 10% each, leaving the conventional shell headroom.
pub fn kernel_budget(device: &DeviceProfile, percent: u32) -> ResourceEstimate {
    let cap = device.capacity;
    ResourceEstimate {
        dsp: cap.dsp * percent / 100,
        lut: cap.lut * percent / 100,
        ff: cap.ff * percent / 100,
        bram: cap.bram * percent / 100,
    }
}

/// Per-kernel timing at one optimization level — one column group of
/// Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelBreakdown {
    /// `kernel_preprocess` per-item time in µs.
    pub preprocess_us: f64,
    /// `kernel_gates` per-item time in µs — the max over the four CUs
    /// (§IV), reported as the steady-state initiation cost for the
    /// row-pipelined fixed-point design.
    pub gates_us: f64,
    /// `kernel_hidden_state` per-item time in µs.
    pub hidden_us: f64,
}

impl KernelBreakdown {
    /// Total per-item forward-pass time (the paper sums the kernels).
    pub fn total_us(&self) -> f64 {
        self.preprocess_us + self.gates_us + self.hidden_us
    }
}

/// One row of the regenerated Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Optimization level.
    pub level: OptimizationLevel,
    /// Per-kernel breakdown.
    pub breakdown: KernelBreakdown,
}

/// Estimates one kernel breakdown on the paper's testbed (Alveo u200 at
/// 300 MHz).
pub fn breakdown(level: OptimizationLevel, dims: &LstmDims) -> KernelBreakdown {
    let device = DeviceProfile::alveo_u200();
    let clock = Clock::default_kernel_clock();
    let small = kernel_budget(&device, 10);
    let gate_budget = kernel_budget(&device, 20);

    let pre = preprocess::spec(level, dims).estimate(&small);
    let hid = hidden::spec(level, dims).estimate(&small);
    let gate_worst = GateKind::ALL
        .iter()
        .map(|&k| gates::spec(k, level, dims).estimate(&gate_budget))
        .map(|est: KernelEstimate| {
            // The fixed-point design pipelines the row loop across items:
            // its steady-state per-item cost is the kernel interval. The
            // float designs process items back to back at full latency.
            if level.is_fixed_point() {
                est.timing.interval_cycles
            } else {
                est.timing.fill_cycles
            }
        })
        .max()
        .expect("four CUs");

    KernelBreakdown {
        preprocess_us: clock.micros(pre.timing.fill_cycles),
        gates_us: clock.micros(gate_worst),
        hidden_us: clock.micros(hid.timing.fill_cycles),
    }
}

/// Like [`breakdown`] but with every inter-kernel AXI burst replaced by an
/// AXI-Stream handoff — the §III-C note that "streaming can be easily
/// ported to the kernel implementation for additional acceleration if the
/// FPGA supports it".
pub fn breakdown_streamed(level: OptimizationLevel, dims: &LstmDims) -> KernelBreakdown {
    let device = DeviceProfile::alveo_u200();
    let clock = Clock::default_kernel_clock();
    let small = kernel_budget(&device, 10);
    let gate_budget = kernel_budget(&device, 20);

    let pre = preprocess::spec(level, dims).streamed().estimate(&small);
    let hid = hidden::spec(level, dims).streamed().estimate(&small);
    let gate_worst = GateKind::ALL
        .iter()
        .map(|&k| {
            gates::spec(k, level, dims)
                .streamed()
                .estimate(&gate_budget)
        })
        .map(|est: KernelEstimate| {
            if level.is_fixed_point() {
                est.timing.interval_cycles
            } else {
                est.timing.fill_cycles
            }
        })
        .max()
        .expect("four CUs");

    KernelBreakdown {
        preprocess_us: clock.micros(pre.timing.fill_cycles),
        gates_us: clock.micros(gate_worst),
        hidden_us: clock.micros(hid.timing.fill_cycles),
    }
}

/// The full Fig. 3: all three optimization levels on the paper's model
/// dimensions.
pub fn fig3() -> Vec<Fig3Row> {
    let dims = LstmDims::paper();
    OptimizationLevel::ALL
        .iter()
        .map(|&level| Fig3Row {
            level,
            breakdown: breakdown(level, &dims),
        })
        .collect()
}

/// Table I's FPGA row: the fully-optimized per-item forward-pass time.
pub fn table1_fpga_row() -> f64 {
    breakdown(OptimizationLevel::FixedPoint, &LstmDims::paper()).total_us()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_has_three_levels() {
        let rows = fig3();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].level, OptimizationLevel::Vanilla);
        assert_eq!(rows[2].level, OptimizationLevel::FixedPoint);
    }

    #[test]
    fn totals_fall_monotonically_with_optimization() {
        let rows = fig3();
        let totals: Vec<f64> = rows.iter().map(|r| r.breakdown.total_us()).collect();
        assert!(totals[0] > totals[1], "II must beat vanilla: {totals:?}");
        assert!(totals[1] > totals[2], "fixed must beat II: {totals:?}");
    }

    #[test]
    fn optimized_total_matches_paper_ballpark() {
        // Paper: 2.15133 µs with all optimizations. Our structural model
        // lands within ~25% (see EXPERIMENTS.md for the exact numbers).
        let t = table1_fpga_row();
        assert!(t > 1.0 && t < 3.5, "optimized total {t} µs");
    }

    #[test]
    fn gates_dominate_vanilla_and_collapse_with_fixed_point() {
        let rows = fig3();
        let vanilla = &rows[0].breakdown;
        assert!(vanilla.gates_us > vanilla.preprocess_us);
        assert!(vanilla.gates_us > vanilla.hidden_us);
        let fixed = &rows[2].breakdown;
        assert!(
            vanilla.gates_us / fixed.gates_us > 500.0,
            "gates {} → {}",
            vanilla.gates_us,
            fixed.gates_us
        );
        // Paper's fixed-point gate time: 0.00333 µs. Ours is within 2×.
        assert!(fixed.gates_us < 0.0134, "{}", fixed.gates_us);
    }

    #[test]
    fn preprocess_is_flat() {
        let rows = fig3();
        let times: Vec<f64> = rows.iter().map(|r| r.breakdown.preprocess_us).collect();
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.1, "{times:?}");
    }

    #[test]
    fn budget_policy_fits_the_device() {
        // 4 × 20% + 2 × 10% = 100% of the derated device.
        let device = DeviceProfile::alveo_u200();
        let gates = kernel_budget(&device, 20).times(4);
        let small = kernel_budget(&device, 10).times(2);
        assert!((gates + small).fits_within(&device.capacity));
    }

    #[test]
    fn streaming_accelerates_every_level() {
        // §III-C: streams remove the AXI burst setup from the memory-bound
        // kernels, so every level gets faster — most visibly preprocess
        // and hidden_state.
        let dims = LstmDims::paper();
        for level in OptimizationLevel::ALL {
            let plain = breakdown(level, &dims);
            let streamed = breakdown_streamed(level, &dims);
            assert!(
                streamed.total_us() < plain.total_us(),
                "{level}: {} vs {}",
                streamed.total_us(),
                plain.total_us()
            );
            assert!(streamed.preprocess_us < plain.preprocess_us);
            assert!(streamed.hidden_us < plain.hidden_us);
        }
    }

    #[test]
    fn speedup_vs_gpu_is_paper_scale() {
        // Paper: 344.6× vs the A100 row (741.35 µs).
        let speedup = 741.353_36 / table1_fpga_row();
        assert!(speedup > 200.0 && speedup < 700.0, "speedup {speedup}×");
    }
}
