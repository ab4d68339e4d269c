//! Measures fleet-scale monitoring throughput (verdicts/second) of the
//! continuous-batching stream multiplexer across concurrent-stream
//! counts and shard counts, writing a machine-readable summary to
//! `BENCH_streaming.json` in the working directory.
//!
//! ```text
//! cargo run --release -p csd-bench --bin exp_streaming [-- --smoke]
//! ```
//!
//! The workload is the paper's deployment shape: N concurrent process
//! streams emit API calls round-robin (one call per stream per round, as
//! a host timeslice would), each stream due a 100-call window at its
//! first full window and every 10 calls after. The driver submits each
//! due window straight to the [`ShardedStreamMux`] and drains them
//! through lane-batched lockstep sweeps with iteration-level slot
//! refill.
//!
//! Two experiments ride the same harness:
//!
//! 1. **Single-shard throughput** — the mux at one shard (the default,
//!    and what the service runs): the lane-batching path alone.
//! 2. **Shard sweep** — the mux at 1/2/4 shards against its own
//!    single-shard baseline at each stream count. This is the multi-core
//!    win alone; on a single-core host it measures coordination overhead
//!    instead (reported honestly, see EXPERIMENTS.md).
//!
//! `--smoke` runs a seconds-scale subset (fewer/shorter streams, the
//! same shard sweep, no acceptance bar) for CI; the full run checks the
//! acceptance bar — the 4-shard sweep must reach ≥3× the single-shard
//! mux at 4096 streams *when the host has ≥4 cores* (skipped with a
//! note otherwise) — and fails loudly below it. Before timing
//! anything, at every swept shard count, every verdict is asserted
//! bit-equal to serial `classify` of its window and every stream's
//! verdicts are asserted to arrive in submission order. Historical
//! comparisons (per-PID serial monitors: 2.1–2.8×; the gate table off;
//! the pre-sentry fleet monitor's passes and its 86 B dormant-stream
//! budget) are recorded in EXPERIMENTS.md, "Frozen baselines".

use std::time::Instant;

use csd_accel::{
    CsdInferenceEngine, MonitorConfig, MuxStats, OptimizationLevel, ShardedStreamMux,
    StreamMuxConfig, Verdict, WorkerPool,
};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_tensor::lanes;
use serde::Serialize;

/// One (path, stream count) measurement.
#[derive(Serialize)]
struct Measurement {
    path: String,
    streams: usize,
    calls_per_stream: usize,
    windows_total: usize,
    iterations: u64,
    mean_us_per_pass: f64,
    verdicts_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    level: String,
    window_len: usize,
    stride: usize,
    stream_lanes: usize,
    simd_level: String,
    host_threads: usize,
    measurements: Vec<Measurement>,
    /// Mux tick-level stats from one untimed representative pass per
    /// stream count (occupancy, latency percentiles).
    mux_stats_by_streams: Vec<(usize, MuxStats)>,
    /// Per stream count: `(shards, speedup vs the single-shard mux)`
    /// for each swept shard count (the multi-core win alone).
    shard_speedup_by_streams: Vec<(usize, Vec<(usize, f64)>)>,
}

/// Rounds each configuration runs; each keeps its best round, the
/// least-disturbed estimate on a drifting host.
const ROUNDS: usize = 6;

/// Deterministic per-stream API-call trace (content does not affect
/// timing; spread over the vocabulary).
fn trace(stream: usize, calls: usize) -> Vec<usize> {
    (0..calls)
        .map(|i| (i * 37 + 11 + stream * 131) % 278)
        .collect()
}

/// Windows each stream produces: first full window, then one per stride.
fn windows_per_stream(calls: usize, config: &MonitorConfig) -> usize {
    if calls < config.window_len {
        0
    } else {
        (calls - config.window_len) / config.stride + 1
    }
}

/// Walks all streams round-robin, submitting each stream's due window
/// (tagged with the call count that completed it) to a fresh mux, then
/// drains. Returns the mux and every verdict in delivery order.
fn run_fleet(
    engine: &CsdInferenceEngine,
    config: MonitorConfig,
    mux_config: StreamMuxConfig,
    traces: &[Vec<usize>],
) -> (ShardedStreamMux, Vec<Verdict>) {
    let mut mux = ShardedStreamMux::new(engine.clone(), mux_config);
    let mut verdicts = Vec::new();
    for seen in (config.window_len..=traces[0].len()).step_by(config.stride) {
        for (pid, t) in traces.iter().enumerate() {
            let admitted = mux.submit(pid as u64, seen, &t[seen - config.window_len..seen]);
            assert!(admitted, "the queue is sized for a full pass");
        }
    }
    mux.drain_into(&mut verdicts);
    (mux, verdicts)
}

/// Doubles the iteration count until one burst runs ≥25 ms (warm-up +
/// calibration).
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

/// Times the contenders interleaved, reporting each contender's minimum
/// round mean and per-burst iteration count.
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let level = OptimizationLevel::FixedPoint;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let engine = CsdInferenceEngine::new(&ModelWeights::from_model(&model), level);
    let config = MonitorConfig::default(); // window 100, stride 10
    let stream_counts: &[usize] = if smoke { &[16, 64] } else { &[64, 512, 4096] };
    // The sweep races each count against the first, the one-shard mux
    // every serving configuration runs.
    let shard_counts = [1usize, 2, 4];
    let calls_per_stream = if smoke { 200 } else { 300 };
    let rounds = if smoke { 2 } else { ROUNDS };
    // Deep enough that a full pass never triggers backpressure: drops
    // would silently shrink the fleet path's work and skew the race.
    let mux_config = |n: usize, shards: usize| StreamMuxConfig {
        max_pending: (n * windows_per_stream(calls_per_stream, &config)).max(1),
        shards: Some(shards),
        ..StreamMuxConfig::default()
    };

    // Correctness gate before any timing, on a probe fleet: every
    // verdict bit-equal to serial `classify` of its window, and each
    // stream's verdicts delivered in the order it submitted them.
    {
        let n = 32;
        let traces: Vec<Vec<usize>> = (0..n).map(|s| trace(s, calls_per_stream)).collect();
        let per_stream = windows_per_stream(calls_per_stream, &config);
        for shards in shard_counts {
            let (_, verdicts) = run_fleet(&engine, config, mux_config(n, shards), &traces);
            assert_eq!(
                verdicts.len(),
                n * per_stream,
                "{shards} shards lost verdicts"
            );
            let mut next_due = vec![config.window_len; n];
            for v in &verdicts {
                let pid = v.stream as usize;
                assert_eq!(
                    v.at_call, next_due[pid],
                    "stream mux ({shards} shards) delivered pid {pid} out of submission order"
                );
                next_due[pid] += config.stride;
                let window = &traces[pid][v.at_call - config.window_len..v.at_call];
                assert_eq!(
                    v.classification,
                    engine.classify(window),
                    "stream mux ({shards} shards) diverged from serial classify on pid {pid} at call {}",
                    v.at_call
                );
            }
        }
    }
    let mut measurements = Vec::new();
    let mut mux_stats_by_streams = Vec::new();
    // Report the width the default config resolves to.
    let stream_lanes = engine.lane_width();
    println!(
        "stream mux fleet monitoring ({level}, window {}, stride {}, lanes {stream_lanes}, simd {}):",
        config.window_len,
        config.stride,
        lanes::simd_level()
    );
    let mut shard_speedup_by_streams: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
    let baseline_shards = shard_counts[0];
    for &n in stream_counts {
        let traces: Vec<Vec<usize>> = (0..n).map(|s| trace(s, calls_per_stream)).collect();
        let windows_total = n * windows_per_stream(calls_per_stream, &config);
        let mc = mux_config(n, baseline_shards);
        let mut run_mux = || {
            std::hint::black_box(run_fleet(&engine, config, mc, &traces));
        };
        let timed = time_interleaved(&mut [&mut run_mux], rounds);
        record(
            &mut measurements,
            "stream_mux",
            n,
            calls_per_stream,
            windows_total,
            timed[0].0,
            timed[0].1,
        );
        // The shard sweep races each shard count against the
        // single-shard mux: the multi-core win alone.
        let single_shard_mean = timed[0].1;
        let mut sweep = Vec::new();
        for s in shard_counts {
            let mean = if s == baseline_shards {
                single_shard_mean
            } else {
                let smc = mux_config(n, s);
                let mut run_sharded = || {
                    std::hint::black_box(run_fleet(&engine, config, smc, &traces));
                };
                let sharded = time_interleaved(&mut [&mut run_sharded], rounds);
                record(
                    &mut measurements,
                    &format!("stream_mux_{s}shard"),
                    n,
                    calls_per_stream,
                    windows_total,
                    sharded[0].0,
                    sharded[0].1,
                );
                sharded[0].1
            };
            let vs_single = single_shard_mean / mean;
            if s != baseline_shards {
                println!("  streams {n:>4}: {s} shards → {vs_single:.2}x vs single shard");
            }
            sweep.push((s, vs_single));
        }
        shard_speedup_by_streams.push((n, sweep));
        // One untimed pass for the tick-level stats snapshot, at the
        // widest swept shard count.
        let widest = shard_counts[shard_counts.len() - 1];
        let (mux, _) = run_fleet(&engine, config, mux_config(n, widest), &traces);
        let stats = mux.stats();
        println!(
            "  streams {n:>4}: shards {}, occupancy {:.3}, latency p50 {} / p99 {} ticks, {} verdicts",
            stats.shards, stats.occupancy, stats.p50_latency_ticks, stats.p99_latency_ticks,
            stats.verdicts
        );
        mux_stats_by_streams.push((n, stats));
    }

    let report = Report {
        level: level.to_string(),
        window_len: config.window_len,
        stride: config.stride,
        stream_lanes,
        simd_level: lanes::simd_level().to_string(),
        host_threads: WorkerPool::global().threads(),
        measurements,
        mux_stats_by_streams,
        shard_speedup_by_streams: shard_speedup_by_streams.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_streaming.json", json).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json");

    if smoke {
        println!("smoke mode: acceptance bar skipped");
        return;
    }
    // The multi-core bar needs multiple cores *running shards*: the
    // coordinator cannot beat 1x on a single-core host (every shard runs
    // on the same core, plus coordination). The pool the shards scatter
    // onto has one worker per core; gate on that count and say so,
    // instead of faking a pass or failing for the wrong reason.
    let cores = WorkerPool::global().threads();
    let at_4096_4shard = shard_speedup_by_streams
        .iter()
        .find(|(n, _)| *n == 4096)
        .and_then(|(_, sweep)| sweep.iter().find(|(s, _)| *s == 4))
        .map(|&(_, v)| v)
        .expect("4-shard sweep at 4096 streams measured");
    if cores >= 4 {
        assert!(
            at_4096_4shard >= 3.0,
            "4 shards must be ≥3x the single-shard mux at 4096 streams on a {cores}-core host, got {at_4096_4shard:.2}x"
        );
        println!(
            "acceptance: {at_4096_4shard:.2}x ≥ 3x vs single-shard mux at 4096 streams (4 shards, {cores} cores)"
        );
    } else {
        println!(
            "acceptance: ≥3x multi-core bar SKIPPED — {cores} core(s), the bar needs 4; 4-shard ran {at_4096_4shard:.2}x vs single shard"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    out: &mut Vec<Measurement>,
    path: &str,
    streams: usize,
    calls_per_stream: usize,
    windows_total: usize,
    iterations: u64,
    mean_us: f64,
) {
    let verdicts_per_sec = windows_total as f64 / (mean_us / 1e6);
    println!(
        "  streams {streams:>4} {path:<16} {mean_us:>11.1} µs/pass  ({verdicts_per_sec:>9.0} verdicts/s, {iterations} iters)"
    );
    out.push(Measurement {
        path: path.to_string(),
        streams,
        calls_per_stream,
        windows_total,
        iterations,
        mean_us_per_pass: mean_us,
        verdicts_per_sec,
    });
}
