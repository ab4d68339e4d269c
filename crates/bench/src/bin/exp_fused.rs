//! Measures the fused zero-allocation inference path (the production
//! serial path) against the per-CU reference path (hardware-mirroring
//! shape, table-free), writing a machine-readable summary to
//! `BENCH_fused.json` in the working directory.
//!
//! ```text
//! cargo run --release -p csd-bench --bin exp_fused
//! ```
//!
//! Fixed-point bit parity between the two paths is asserted before
//! timing anything, at every length timed. The fused path is the
//! AVX-512 register window at paper dimensions on a host that has it
//! (`simd` in the report), and the per-CU loop itself everywhere else.
//! Historical comparisons (the seed's primitives: 2.2–2.5×) are recorded
//! in `EXPERIMENTS.md`, "Frozen baselines".

use std::time::Instant;

use csd_accel::{CsdInferenceEngine, GatePath, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_tensor::lanes;
use serde::Serialize;

/// One (path, length) measurement.
#[derive(Serialize)]
struct Measurement {
    path: String,
    seq_len: usize,
    iterations: u64,
    mean_us_per_seq: f64,
    mean_us_per_item: f64,
}

#[derive(Serialize)]
struct Report {
    level: String,
    /// `lanes::simd_level()`: the host tier the fused numbers belong to.
    simd: String,
    measurements: Vec<Measurement>,
    /// fused throughput ÷ per-CU throughput, per sequence length.
    speedup_vs_per_cu_by_len: Vec<(usize, f64)>,
}

fn seq(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37 + 11) % 278).collect()
}

/// The sequence lengths compared.
const LENGTHS: [usize; 3] = [10, 100, 1000];

/// Interleaved rounds each contender runs, to ride out CPU frequency
/// drift: contenders are timed back to back within every round and each
/// keeps its best round, so a slow spell penalizes all of them alike
/// instead of whichever happened to be on the clock.
const ROUNDS: usize = 8;

/// Doubles the iteration count until one burst runs ≥25 ms, returning the
/// burst size (warm-up + calibration).
fn calibrate(f: &mut dyn FnMut()) -> u64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 0.025 {
            return ((0.04 * iters as f64 / elapsed).ceil() as u64).max(iters);
        }
        iters *= 2;
    }
}

/// Mean µs per call over one burst of `iters` calls.
fn burst_us(f: &mut dyn FnMut(), iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Times the contenders interleaved: `ROUNDS` passes, each running every
/// contender once; reports each contender's minimum round mean (the
/// least-disturbed estimate) and its per-burst iteration count.
fn time_interleaved(contenders: &mut [&mut dyn FnMut()]) -> Vec<(u64, f64)> {
    let iters: Vec<u64> = contenders.iter_mut().map(|f| calibrate(f)).collect();
    let mut best = vec![f64::INFINITY; contenders.len()];
    for _ in 0..ROUNDS {
        for (slot, f) in contenders.iter_mut().enumerate() {
            best[slot] = best[slot].min(burst_us(f, iters[slot]));
        }
    }
    iters.into_iter().zip(best).collect()
}

fn main() {
    let level = OptimizationLevel::FixedPoint;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    let fused = CsdInferenceEngine::new(&weights, level);
    let per_cu = CsdInferenceEngine::new(&weights, level).with_gate_path(GatePath::PerCu);

    // Correctness gate before any timing: the production path and the
    // table-free reference agree bit-for-bit in fixed point.
    for len in LENGTHS {
        let check = seq(len);
        assert_eq!(
            fused.classify(&check),
            per_cu.classify(&check),
            "fused path diverged from the per-CU reference at length {len}"
        );
    }

    let mut measurements = Vec::new();
    let mut speedup_vs_per_cu_by_len = Vec::new();
    println!("fused vs per-CU single-sequence inference ({level}):");
    for len in LENGTHS {
        let s = seq(len);

        let mut fused_scratch = fused.make_scratch();
        let mut per_cu_scratch = per_cu.make_scratch();
        let mut run_fused = || {
            std::hint::black_box(fused.classify_with_scratch(&s, &mut fused_scratch));
        };
        let mut run_per_cu = || {
            std::hint::black_box(per_cu.classify_with_scratch(&s, &mut per_cu_scratch));
        };
        let timed = time_interleaved(&mut [&mut run_fused, &mut run_per_cu]);
        for (&(iters, mean), path) in timed.iter().zip(["fused", "per_cu"]) {
            record(&mut measurements, path, len, iters, mean);
        }
        let speedup = timed[1].1 / timed[0].1;
        println!(
            "  len {len:>4}: fused {:.2} µs, per_cu {:.2} µs → {speedup:.2}x vs per-CU",
            timed[0].1, timed[1].1
        );
        speedup_vs_per_cu_by_len.push((len, speedup));
    }

    let report = Report {
        level: level.to_string(),
        simd: lanes::simd_level().to_string(),
        measurements,
        speedup_vs_per_cu_by_len,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_fused.json", json).expect("write BENCH_fused.json");
    println!("wrote BENCH_fused.json");
}

fn record(out: &mut Vec<Measurement>, path: &str, len: usize, iterations: u64, mean_us: f64) {
    println!(
        "  len {len:>4} {path:<14} {mean_us:>9.2} µs/seq  ({:.3} µs/item, {iterations} iters)",
        mean_us / len as f64
    );
    out.push(Measurement {
        path: path.to_string(),
        seq_len: len,
        iterations,
        mean_us_per_seq: mean_us,
        mean_us_per_item: mean_us / len as f64,
    });
}
