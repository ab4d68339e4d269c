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
//! timing anything, at every length timed. Historical comparisons (the
//! seed's primitives: 2.2–2.5×) are recorded in `EXPERIMENTS.md`,
//! "Frozen baselines".
//!
//! It also times the four kernels of one fused fixed-point timestep on
//! their own (`kernel_ns_per_step`), at paper dimensions on the tier the
//! host resolves: the share of a timestep each one is, which is what an
//! issue about any of them is sized with.

use std::time::Instant;

use csd_accel::{CsdInferenceEngine, GatePath, LaneGatesFx, OptimizationLevel};
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

/// Best-of-rounds ns for each kernel of one serial fixed-point timestep
/// (`run_states_fx_rows`): `4H = 128` gate rows, `H = 32`.
#[derive(Serialize)]
struct KernelNs {
    /// `lanes::simd_level()`: the bodies these numbers belong to.
    simd: String,
    /// One `matvec_fx_rows_table`, rescale epilogue included.
    matvec: f64,
    /// Both `sigmoid_lut_lanes` calls: `i f` (8 vectors) and `o` (4).
    sigmoid: f64,
    /// `softsign_lanes` over the candidate gate (4 vectors).
    softsign: f64,
    /// `update_lanes` at width 1.
    update: f64,
}

#[derive(Serialize)]
struct Report {
    level: String,
    measurements: Vec<Measurement>,
    /// fused throughput ÷ per-CU throughput, per sequence length.
    speedup_vs_per_cu_by_len: Vec<(usize, f64)>,
    kernel_ns_per_step: KernelNs,
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

    let kernel_ns_per_step = time_step_kernels(&fused);
    println!(
        "kernels of one fused timestep ({}): matvec {:.0} ns, sigmoid {:.0} ns, \
         softsign {:.0} ns, update {:.0} ns",
        kernel_ns_per_step.simd,
        kernel_ns_per_step.matvec,
        kernel_ns_per_step.sigmoid,
        kernel_ns_per_step.softsign,
        kernel_ns_per_step.update
    );

    let report = Report {
        level: level.to_string(),
        measurements,
        speedup_vs_per_cu_by_len,
        kernel_ns_per_step,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_fused.json", json).expect("write BENCH_fused.json");
    println!("wrote BENCH_fused.json");
}

/// Times each kernel of a serial timestep alone, on the state and gate
/// block a real window leaves behind. The activations and the update
/// run in place, so past a burst's first call they see their own
/// output; the AVX-512 bodies are branch-free, so what they cost does
/// not depend on it.
fn time_step_kernels(engine: &CsdInferenceEngine) -> KernelNs {
    let weights = engine.weights();
    let hdim = weights.dims().hidden;
    let pack = LaneGatesFx::pack(&weights.fused_fx(), &weights.embedding_fx, hdim)
        .expect("paper weights pass the lane proof");
    let rows = pack.rows();
    let (mut g, mut c, mut h) = (vec![0.0; rows], vec![0.0; hdim], vec![0.0; hdim]);
    let table_row = |item: usize| &pack.gate_table()[item * rows..(item + 1) * rows];
    for item in seq(50) {
        lanes::matvec_fx_rows_table(pack.w_hidden_t(), &h, table_row(item), &mut g);
        lanes::sigmoid_lut_lanes(&mut g[..2 * hdim]);
        lanes::softsign_lanes(&mut g[2 * hdim..3 * hdim]);
        lanes::sigmoid_lut_lanes(&mut g[3 * hdim..]);
        lanes::update_lanes(&g, hdim, 1, &mut c, &mut h);
    }
    let mut preact = vec![0.0; rows];
    lanes::matvec_fx_rows_table(pack.w_hidden_t(), &h, table_row(7), &mut preact);

    let mut out = vec![0.0; rows];
    let mut run_matvec = || {
        lanes::matvec_fx_rows_table(pack.w_hidden_t(), &h, table_row(7), &mut out);
        std::hint::black_box(&mut out);
    };
    let mut sig = preact.clone();
    let mut run_sigmoid = || {
        lanes::sigmoid_lut_lanes(&mut sig[..2 * hdim]);
        lanes::sigmoid_lut_lanes(&mut sig[3 * hdim..]);
        std::hint::black_box(&mut sig);
    };
    let mut soft = preact[2 * hdim..3 * hdim].to_vec();
    let mut run_softsign = || {
        lanes::softsign_lanes(&mut soft);
        std::hint::black_box(&mut soft);
    };
    let (mut c_run, mut h_run) = (c.clone(), h.clone());
    let mut run_update = || {
        lanes::update_lanes(&g, hdim, 1, &mut c_run, &mut h_run);
        std::hint::black_box((&mut c_run, &mut h_run));
    };
    let timed = time_interleaved(&mut [
        &mut run_matvec,
        &mut run_sigmoid,
        &mut run_softsign,
        &mut run_update,
    ]);
    let ns = |slot: usize| timed[slot].1 * 1e3;
    KernelNs {
        simd: lanes::simd_level().to_string(),
        matvec: ns(0),
        sigmoid: ns(1),
        softsign: ns(2),
        update: ns(3),
    }
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
