//! Ablation: the fused zero-allocation hot path vs the per-CU
//! formulation (four separate gate kernels, fresh vectors per timestep),
//! across sequence lengths — the software-side payoff of stacking the
//! four `H×Z` gate matrices into one `4H×Z` matvec over reused scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use csd_accel::{CsdInferenceEngine, GatePath, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

fn seq(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37 + 11) % 278).collect()
}

fn bench_paths(c: &mut Criterion) {
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    for level in [OptimizationLevel::FixedPoint, OptimizationLevel::Vanilla] {
        let mut group = c.benchmark_group(format!("fused_vs_unfused/{level}"));
        for len in [10usize, 100, 1000] {
            let s = seq(len);
            group.throughput(Throughput::Elements(len as u64));
            for (name, path) in [("fused", GatePath::Fused), ("per_cu", GatePath::PerCu)] {
                let engine = CsdInferenceEngine::new(&weights, level).with_gate_path(path);
                let mut scratch = engine.make_scratch();
                group.bench_with_input(BenchmarkId::new(name, len), &s, |b, s| {
                    b.iter(|| black_box(engine.classify_with_scratch(black_box(s), &mut scratch)))
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_paths);
criterion_main!(benches);
