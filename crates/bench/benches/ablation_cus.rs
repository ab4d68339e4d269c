//! Ablation: gate compute-unit parallelism (§III-C fixes four CUs, one
//! per gate). Compares 1 vs 2 vs 4 CUs in the latency model — the
//! question the hardware design poses — next to the functional engine's
//! serial time for scale. (Threading the four gates in software loses
//! ~15× to hand-off cost on a 32×40 matvec; see "Frozen baselines" in
//! EXPERIMENTS.md.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use csd_accel::kernels::gates;
use csd_accel::kernels::GateKind;
use csd_accel::timing::kernel_budget;
use csd_accel::{CsdInferenceEngine, LstmDims, OptimizationLevel};
use csd_bench::bench_sequence;
use csd_hls::{Clock, DeviceProfile};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

fn bench_cus(c: &mut Criterion) {
    // Latency model: with N CUs the four gates run in ceil(4/N) waves.
    let dims = LstmDims::paper();
    let device = DeviceProfile::alveo_u200();
    let clock = Clock::default_kernel_clock();
    for cus in [1u64, 2, 4] {
        // Fewer CUs mean a bigger per-CU budget share, but gate waves
        // serialize: time = waves × per-CU time.
        let budget = kernel_budget(&device, (80 / cus as u32).min(60));
        let per_cu = gates::spec(GateKind::Input, OptimizationLevel::IiOptimized, &dims)
            .estimate(&budget)
            .timing
            .fill_cycles;
        let waves = 4u64.div_ceil(cus);
        eprintln!(
            "[cus] {cus} CU(s): {waves} wave(s) x {per_cu} cycles = {:.3} µs per item (II level)",
            clock.micros(waves * per_cu)
        );
    }

    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    let seq = bench_sequence();
    let mut group = c.benchmark_group("ablation/cu_execution");
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
    group.bench_with_input(BenchmarkId::from_parameter("serial"), &engine, |b, e| {
        b.iter(|| black_box(e.classify(black_box(&seq))))
    });
    group.finish();
}

criterion_group!(benches, bench_cus);
criterion_main!(benches);
