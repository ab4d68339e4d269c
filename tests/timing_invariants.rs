//! Integration tests over the timing stack: the orderings and magnitudes
//! that constitute the paper's Fig. 3 and Table I "shape".

use csd_inference::accel::kernels::{gates, GateKind};
use csd_inference::accel::timing::kernel_budget;
use csd_inference::accel::{fig3, table1_fpga_row, HostProgram, LstmDims, OptimizationLevel};
use csd_inference::baselines::{CpuExecutionModel, GpuExecutionModel};
use csd_inference::device::{SmartSsd, TransferPath};
use csd_inference::hls::{
    DeviceProfile, KernelSpec, LoopBody, LoopNest, NumericFormat, Op, Pragmas,
};
use csd_inference::nn::{ModelConfig, ModelWeights, SequenceClassifier};

#[test]
fn fig3_shape_holds() {
    let rows = fig3();
    assert_eq!(rows.len(), 3);
    let [vanilla, ii, fixed] = [rows[0].breakdown, rows[1].breakdown, rows[2].breakdown];

    // Totals fall monotonically with optimization.
    assert!(vanilla.total_us() > ii.total_us());
    assert!(ii.total_us() > fixed.total_us());

    // Gates dominate the vanilla design and collapse under fixed point.
    assert!(vanilla.gates_us > vanilla.preprocess_us + vanilla.hidden_us);
    assert!(vanilla.gates_us / fixed.gates_us > 500.0);

    // Preprocess is memory-bound and stays flat (paper: "fairly fixed").
    let pre = [vanilla.preprocess_us, ii.preprocess_us, fixed.preprocess_us];
    let spread =
        pre.iter().cloned().fold(f64::MIN, f64::max) - pre.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.1, "{pre:?}");

    // Hidden state: II helps; fixed point does not help much further.
    assert!(ii.hidden_us < vanilla.hidden_us);
    assert!((fixed.hidden_us - ii.hidden_us).abs() / ii.hidden_us < 0.2);
}

#[test]
fn table1_shape_holds() {
    let fpga = table1_fpga_row();
    let cpu = CpuExecutionModel::xeon_framework().measure(5_000, 1);
    let gpu = GpuExecutionModel::a100_framework().measure(5_000, 2);

    // FPGA ≪ GPU < CPU.
    assert!(fpga < gpu.mean / 100.0);
    assert!(gpu.mean < cpu.mean);

    // The headline: hundreds-fold speedup over the GPU (paper: 344.6×).
    let speedup = gpu.mean / fpga;
    assert!((200.0..700.0).contains(&speedup), "speedup {speedup}");

    // The paper's intervals are reproduced in location and width.
    assert!((cpu.mean - 991.58).abs() / 991.58 < 0.05);
    assert!((gpu.mean - 741.35).abs() / 741.35 < 0.05);
    assert!(cpu.ci_high > 1_500.0 && cpu.ci_low < 400.0);
    assert!(gpu.ci_high > 1_000.0 && gpu.ci_low > 250.0);
}

#[test]
fn optimized_fpga_total_is_paper_scale() {
    // Paper: 2.15133 µs. Structural model: within ~25%.
    let t = table1_fpga_row();
    assert!((t - 2.15133).abs() / 2.15133 < 0.25, "total {t} µs");
}

#[test]
fn device_runs_order_by_optimization_level() {
    let weights = ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 3));
    let seq: Vec<usize> = (0..100).map(|i| i % 278).collect();
    let elapsed = |level| {
        let mut host = HostProgram::new(&weights, level).expect("boot");
        host.classify_from_ssd(&seq).expect("run").elapsed
    };
    let v = elapsed(OptimizationLevel::Vanilla);
    let ii = elapsed(OptimizationLevel::IiOptimized);
    let fx = elapsed(OptimizationLevel::FixedPoint);
    assert!(v > ii, "vanilla {v} vs II {ii}");
    assert!(ii > fx, "II {ii} vs fixed {fx}");
}

/// §III-D swaps tanh for softsign because softsign needs no `exp()` on
/// the fabric: a pipelined, partitioned 32-wide Float32 activation loop
/// fills in fewer cycles for softsign than for sigmoid (one `exp`), and
/// fewer for sigmoid than for tanh (two).
#[test]
fn softsign_loop_fills_fastest_then_sigmoid_then_tanh() {
    let fill = |ops: Vec<Op>| {
        KernelSpec::new("activation", NumericFormat::Float32)
            .stage(LoopNest::new(
                32,
                LoopBody::Map(ops),
                Pragmas::new().pipeline(1).partition(),
            ))
            .estimate_default()
            .fill_cycles
    };
    let softsign = fill(vec![Op::MemRead, Op::Abs, Op::Add, Op::Div]);
    let sigmoid = fill(vec![Op::MemRead, Op::Exp, Op::Add, Op::Div]);
    let tanh = fill(vec![
        Op::MemRead,
        Op::Exp,
        Op::Exp,
        Op::Add,
        Op::Add,
        Op::Div,
    ]);
    assert!(
        softsign < sigmoid && sigmoid < tanh,
        "softsign {softsign}, sigmoid {sigmoid}, tanh {tanh} cycles"
    );
}

/// §III-C gives each of the four gates its own compute unit. With fewer
/// CUs the gates run in `ceil(4 / CUs)` waves of the same per-CU time,
/// so one CU per gate has the lowest per-item gate time.
#[test]
fn four_gate_cus_beat_two_and_one() {
    let (dims, device) = (LstmDims::paper(), DeviceProfile::alveo_u200());
    let gate_cycles = |cus: u32| {
        let budget = kernel_budget(&device, (80 / cus).min(60));
        let per_cu = gates::spec(GateKind::Input, OptimizationLevel::IiOptimized, &dims)
            .estimate(&budget)
            .timing
            .fill_cycles;
        u64::from(4u32.div_ceil(cus)) * per_cu
    };
    let [one, two, four] = [1, 2, 4].map(gate_cycles);
    assert!(
        four < two && two < one,
        "1 / 2 / 4 CUs: {one} / {two} / {four} cycles"
    );
}

#[test]
fn p2p_beats_host_path_at_every_size() {
    for shift in [12u32, 16, 20, 24] {
        let bytes = 1u64 << shift;
        let p2p = SmartSsd::new_smartssd().transfer(TransferPath::SsdToFpgaP2p, bytes);
        let host = SmartSsd::new_smartssd().transfer(TransferPath::SsdToFpgaViaHost, bytes);
        assert!(p2p < host, "{bytes} B: {p2p} vs {host}");
    }
}

#[test]
fn native_rust_forward_is_microseconds_scale() {
    // The mechanism behind Table I: the arithmetic itself is tiny; the
    // baselines' cost is dispatch overhead.
    let model = SequenceClassifier::new(ModelConfig::paper(), 5);
    let seq: Vec<usize> = (0..100).map(|i| i % 278).collect();
    let s = csd_inference::baselines::measure_native_forward(&model, &seq, 20);
    assert!(
        s.mean < CpuExecutionModel::xeon_framework().mean_us(),
        "native {} µs should undercut the framework model",
        s.mean
    );
}
