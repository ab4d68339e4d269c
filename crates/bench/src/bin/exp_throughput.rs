//! Measures batch classification throughput (items/second) of the
//! lane-batched engine across batch sizes, writing a machine-readable
//! summary to `BENCH_throughput.json` in the working directory.
//!
//! ```text
//! cargo run --release -p csd-bench --bin exp_throughput [-- --smoke]
//! ```
//!
//! `--smoke` runs a seconds-scale subset (small batches) for CI. Bit
//! parity with serial `classify` is asserted before timing anything.
//! Historical comparisons (the PR 1 batch path: 4.8–12.4× at batch 512;
//! the gate table off) are recorded in `EXPERIMENTS.md`, "Frozen
//! baselines".
//!
//! The engine scales with the worker pool, whose size is fixed at first
//! use, so a single process can only ever record one `pool_threads`
//! value. The thread sweep re-executes this binary once per thread
//! count with `CSD_POOL_THREADS` set (`--child-row` protocol: the child
//! times batch 512 and prints one JSON row), recording multi-thread
//! rows alongside the in-process measurements. `--threads 1,4,8`
//! overrides the default sweep (1 and all hardware threads; smoke
//! sweeps just 2 to exercise the protocol).

use std::time::Instant;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_tensor::lanes;
use serde::{Deserialize, Serialize};

/// One (path, batch size) measurement.
#[derive(Serialize)]
struct Measurement {
    path: String,
    batch_size: usize,
    seq_len: usize,
    iterations: u64,
    mean_us_per_batch: f64,
    items_per_sec: f64,
}

/// One thread-sweep row, measured at batch 512 by a re-executed child
/// with `CSD_POOL_THREADS` pinned.
#[derive(Serialize, Deserialize)]
struct ThreadRow {
    pool_threads: usize,
    batch_size: usize,
    lane_items_per_sec: f64,
}

/// Gate-kernel microbenchmark at the paper's dimensions: one lane
/// block of the vocabulary-indexed gate-table matmul (gather +
/// `H`-column matmul, fused rescale).
#[derive(Serialize)]
struct KernelMicro {
    lane_width: usize,
    gate_table_us: f64,
}

#[derive(Serialize)]
struct Report {
    level: String,
    seq_len: usize,
    lane_width: usize,
    simd_level: String,
    pool_threads: usize,
    measurements: Vec<Measurement>,
    /// Single-lane-block kernel timing behind the batch numbers.
    kernel_micro: KernelMicro,
    /// Batch-512 throughput at each swept pool size (one child process
    /// per row).
    thread_sweep: Vec<ThreadRow>,
}

const SEQ_LEN: usize = 100;

fn batch(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|k| (0..SEQ_LEN).map(|i| (i * 37 + 11 + k * 3) % 278).collect())
        .collect()
}

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

/// Times the contenders interleaved: `rounds` passes, each running every
/// contender once; reports each contender's minimum round mean (the
/// least-disturbed estimate) and its per-burst iteration count.
fn time_interleaved(contenders: &mut [&mut dyn FnMut()], rounds: usize) -> Vec<(u64, f64)> {
    let iters: Vec<u64> = contenders.iter_mut().map(|f| calibrate(f)).collect();
    let mut best = vec![f64::INFINITY; contenders.len()];
    for _ in 0..rounds {
        for (slot, f) in contenders.iter_mut().enumerate() {
            best[slot] = best[slot].min(burst_us(f, iters[slot]));
        }
    }
    iters.into_iter().zip(best).collect()
}

/// Times the gate-table kernel on one synthetic lane block at the
/// paper's dimensions (`4H` = 128 rows, `H` = 32, vocabulary 278):
/// exactly the work one mux tick spends per lane sweep.
fn kernel_micro(rounds: usize) -> KernelMicro {
    const ROWS: usize = 128;
    const HCOLS: usize = 32;
    const VOCAB: usize = 278;
    let width = 16usize;
    let int = |i: usize, m: i64| ((i as i64).wrapping_mul(48_271) % m) as f64;
    let w_hidden: Vec<f64> = (0..ROWS * HCOLS).map(|i| int(i, 2_000_000)).collect();
    let table: Vec<f64> = (0..VOCAB * ROWS).map(|i| int(i, 20_000_000_000)).collect();
    let zh: Vec<f64> = (0..HCOLS * width).map(|i| int(i, 1_000_000)).collect();
    let items: Vec<usize> = (0..width).map(|l| (l * 97 + 13) % VOCAB).collect();
    let mut out = vec![0.0f64; ROWS * width];
    let mut run_table = || {
        lanes::matmul_fx_lanes_table(&w_hidden, ROWS, HCOLS, &zh, width, &table, &items, &mut out);
        std::hint::black_box(&mut out);
    };
    let timed = time_interleaved(&mut [&mut run_table], rounds);
    KernelMicro {
        lane_width: width,
        gate_table_us: timed[0].1,
    }
}

/// Child-process mode for the thread sweep: time batch 512 under the
/// inherited `CSD_POOL_THREADS`, print one JSON row.
fn child_row() {
    let level = OptimizationLevel::FixedPoint;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let engine = CsdInferenceEngine::new(&ModelWeights::from_model(&model), level);
    let sequences = batch(512);
    let mut run_lanes = || {
        std::hint::black_box(engine.classify_batch(&sequences));
    };
    let timed = time_interleaved(&mut [&mut run_lanes], 3);
    let row = ThreadRow {
        pool_threads: csd_accel::WorkerPool::global().threads(),
        batch_size: 512,
        lane_items_per_sec: (512 * SEQ_LEN) as f64 / (timed[0].1 / 1e6),
    };
    println!("{}", serde_json::to_string(&row).expect("serialize row"));
}

/// Runs the thread sweep: one re-executed child per pool size, each
/// pinned via `CSD_POOL_THREADS` (the pool's size is fixed at first use,
/// so it cannot be swept in-process).
fn thread_sweep(counts: &[usize]) -> Vec<ThreadRow> {
    let exe = std::env::current_exe().expect("current executable path");
    let mut rows = Vec::new();
    for &n in counts {
        let out = std::process::Command::new(&exe)
            .arg("--child-row")
            .env("CSD_POOL_THREADS", n.to_string())
            .output()
            .expect("spawn thread-sweep child");
        assert!(
            out.status.success(),
            "thread-sweep child (threads={n}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("child stdout utf-8");
        let line = stdout.lines().last().expect("child printed a row");
        let row: ThreadRow = serde_json::from_str(line).expect("parse child row");
        println!(
            "  threads {:>2}: lanes {:>10.0} items/s",
            row.pool_threads, row.lane_items_per_sec
        );
        rows.push(row);
    }
    rows
}

/// The thread counts to sweep: `--threads a,b,c` if given, else 1 and
/// all hardware threads (smoke: just 2, to exercise the child protocol
/// cheaply).
fn sweep_counts(smoke: bool) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(list) = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
    {
        return list
            .split(',')
            .map(|s| s.trim().parse().expect("--threads takes positive integers"))
            .collect();
    }
    if smoke {
        return vec![2];
    }
    let max = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut counts = vec![1, max];
    counts.dedup();
    counts
}

fn main() {
    if std::env::args().any(|a| a == "--child-row") {
        child_row();
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let level = OptimizationLevel::FixedPoint;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let engine = CsdInferenceEngine::new(&ModelWeights::from_model(&model), level);
    let batch_sizes: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64, 512] };
    let rounds = if smoke { 2 } else { ROUNDS };

    // Correctness gate before any timing: the lane-batched engine and
    // serial `classify` agree bit-for-bit on a ragged probe batch.
    let probe: Vec<Vec<usize>> = (0..19)
        .map(|k| (0..(k % 7) * 23 + 4).map(|i| (i * 13 + k) % 278).collect())
        .collect();
    let serial: Vec<_> = probe.iter().map(|s| engine.classify(s)).collect();
    assert_eq!(
        engine.classify_batch(&probe),
        serial,
        "lane-batched engine diverged from serial classify"
    );

    let mut measurements = Vec::new();
    println!(
        "lane-batched batch classification ({level}, seq len {SEQ_LEN}, lane width {}, simd {}):",
        engine.lane_width(),
        lanes::simd_level()
    );
    for &n in batch_sizes {
        let sequences = batch(n);
        let mut run_lanes = || {
            std::hint::black_box(engine.classify_batch(&sequences));
        };
        let timed = time_interleaved(&mut [&mut run_lanes], rounds);
        record(&mut measurements, "lane_batched", n, timed[0].0, timed[0].1);
    }

    println!("gate-kernel micro (one lane block at paper dims):");
    let micro = kernel_micro(rounds);
    println!("  gate table {:.2} µs", micro.gate_table_us);

    println!("thread sweep (batch 512, one child process per pool size):");
    let thread_sweep = thread_sweep(&sweep_counts(smoke));

    let report = Report {
        level: level.to_string(),
        seq_len: SEQ_LEN,
        lane_width: engine.lane_width(),
        simd_level: lanes::simd_level().to_string(),
        pool_threads: csd_accel::WorkerPool::global().threads(),
        measurements,
        kernel_micro: micro,
        thread_sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}

fn record(out: &mut Vec<Measurement>, path: &str, n: usize, iterations: u64, mean_us: f64) {
    let items_per_sec = (n * SEQ_LEN) as f64 / (mean_us / 1e6);
    println!(
        "  batch {n:>3} {path:<13} {mean_us:>10.1} µs/batch  ({items_per_sec:>10.0} items/s, {iterations} iters)"
    );
    out.push(Measurement {
        path: path.to_string(),
        batch_size: n,
        seq_len: SEQ_LEN,
        iterations,
        mean_us_per_batch: mean_us,
        items_per_sec,
    });
}
