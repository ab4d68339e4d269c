//! Fault-injection campaign: sweeps fault rates × recovery policies
//! over the device fleet and the stream multiplexer, checking the
//! zero-loss contract — no verdict is ever lost or changed relative to
//! the fault-free run, only delayed — and recording the
//! throughput-vs-fault-rate degradation curve in `BENCH_faults.json`.
//!
//! ```text
//! cargo run --release -p csd-bench --bin exp_faults [-- --smoke]
//! ```
//!
//! Three scenarios:
//!
//! 1. **Fleet sweep** — a [`CsdFleet`] with every device armed with a
//!    seeded [`FaultPlan`] (corruption + stalls + page-read failures +
//!    brownouts at a uniform per-operation rate), scanned under two
//!    recovery policies: bounded retry-with-backoff only, and retry
//!    plus bitstream reload (`reprogram`) after consecutive failures.
//!    Throughput is *simulated* device time (deterministic), so the
//!    degradation curve is reproducible run to run.
//! 2. **Dead device** — one device fails every operation; the fleet
//!    must quarantine it, redistribute its shard, and still return
//!    every verdict unchanged.
//! 3. **Stream sweep** — a one-shard [`ShardedStreamMux`] with
//!    lane-corruption faults armed; poisoned lanes are retired and
//!    their windows re-run through the serial fused path. Verdicts must
//!    stay bit-identical to the fault-free engine, with zero drops.
//!
//! Fault rates are specified *per window* (probability a 100-call
//! classification is disturbed at least once) and converted to per-op /
//! per-tick probabilities, since one classify issues ~600 faultable
//! device operations and per-op rates compound.
//!
//! The zero-loss assertions run in both full and `--smoke` mode; smoke
//! just shrinks the sweep for CI.

use std::time::Instant;

use csd_accel::{
    Classification, CsdFleet, CsdInferenceEngine, FleetStats, MuxStats, OptimizationLevel,
    OverflowPolicy, RecoveryPolicy, RecoveryStats, ShardedStreamMux, StreamMuxConfig,
};
use csd_device::{FaultConfig, FaultCounters, FaultPlan};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use serde::Serialize;

/// Faultable device operations one classify of a `len`-item sequence
/// issues: one p2p load (SSD read + DRAM access) plus, per item, one
/// AXI transfer and one kernel enqueue, and a handful of DMA
/// bookkeeping accesses. Measured against the simulator; used only to
/// convert per-window rates to per-op rates, so precision is not
/// load-bearing.
fn ops_per_window(len: usize) -> f64 {
    2.0 + 6.0 * len as f64
}

/// Converts "probability the whole window is disturbed at least once"
/// into the per-operation probability that produces it over `ops`
/// independent draws.
fn per_op_rate(per_window: f64, ops: f64) -> f64 {
    if per_window <= 0.0 {
        0.0
    } else {
        1.0 - (1.0 - per_window).powf(1.0 / ops)
    }
}

/// Deterministic API-call trace (content spread over the vocabulary).
fn trace(stream: usize, calls: usize) -> Vec<usize> {
    (0..calls)
        .map(|i| (i * 37 + 11 + stream * 131) % 278)
        .collect()
}

/// Element-wise comparison: (lost, changed) verdict counts.
fn diff(reference: &[Classification], got: &[Classification]) -> (usize, usize) {
    let lost = reference.len().saturating_sub(got.len());
    let changed = reference
        .iter()
        .zip(got.iter())
        .filter(|(a, b)| a != b)
        .count();
    (lost, changed)
}

#[derive(Serialize)]
struct FleetRun {
    policy: String,
    rate_per_window: f64,
    rate_per_op: f64,
    sequences: usize,
    verdicts_lost: usize,
    verdicts_changed: usize,
    /// Simulated wall time for the scan (slowest device), µs.
    sim_elapsed_us: f64,
    /// Sequences per simulated second.
    seqs_per_sim_sec: f64,
    /// Throughput relative to this policy's fault-free scan.
    throughput_vs_fault_free: f64,
    fleet: FleetStats,
    /// Recovery stats summed across devices.
    recovery: RecoveryStats,
    /// Device-side fault counters summed across devices.
    faults_injected: u64,
}

#[derive(Serialize)]
struct DeadDeviceRun {
    devices: usize,
    dead_device: usize,
    verdicts_lost: usize,
    verdicts_changed: usize,
    quarantines: u64,
    redistributed: u64,
    readmissions: u64,
}

#[derive(Serialize)]
struct StreamRun {
    rate_per_window: f64,
    rate_per_tick: f64,
    windows: usize,
    verdicts_lost: usize,
    verdicts_changed: usize,
    dropped: u64,
    wall_ms: f64,
    windows_per_sec: f64,
    /// Throughput relative to the fault-free drain.
    throughput_vs_fault_free: f64,
    mux: MuxStats,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    level: String,
    window_len: usize,
    ops_per_window: f64,
    rates_per_window: Vec<f64>,
    fleet_devices: usize,
    fleet_sequences: usize,
    fleet_runs: Vec<FleetRun>,
    dead_device: DeadDeviceRun,
    stream_windows: usize,
    stream_cooldown_ticks: u64,
    stream_runs: Vec<StreamRun>,
}

fn sum_recovery(fleet: &CsdFleet) -> RecoveryStats {
    let mut total = RecoveryStats::default();
    for idx in 0..fleet.len() {
        let s = fleet.device_stats(idx);
        total.faults += s.faults;
        total.retries += s.retries;
        total.reprograms += s.reprograms;
        total.watchdog_trips += s.watchdog_trips;
        total.brownout_waits += s.brownout_waits;
        total.crc_rejects += s.crc_rejects;
        total.page_read_failures += s.page_read_failures;
    }
    total
}

fn sum_faults(counters: &[FaultCounters]) -> u64 {
    counters.iter().map(FaultCounters::total).sum()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let level = OptimizationLevel::FixedPoint;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    let engine = CsdInferenceEngine::new(&weights, level);

    let window_len = 100usize;
    // Smoke keeps the endpoints only, with enough sequences that the
    // top rate reliably injects at least one fault worth recovering.
    let rates: &[f64] = if smoke {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2]
    };
    let devices = if smoke { 2 } else { 4 };
    let sequences = if smoke { 16 } else { 32 };
    let ops = ops_per_window(window_len);

    // Recovery budgets sized so per-attempt failure odds (= per-window
    // rate) compound below ~1e-8 of budget exhaustion at the top rate.
    let retry_only = RecoveryPolicy {
        max_retries: 12,
        ..RecoveryPolicy::retry_only()
    };
    let retry_reprogram = RecoveryPolicy {
        max_retries: 12,
        reprogram_after: 3,
        ..RecoveryPolicy::default()
    };
    let policies: &[(&str, RecoveryPolicy)] =
        &[("retry", retry_only), ("retry+reprogram", retry_reprogram)];

    let seqs: Vec<Vec<usize>> = (0..sequences).map(|s| trace(s, window_len)).collect();

    // Fault-free reference verdicts (also the 0-ULP serial contract:
    // fleet devices and the mux both resolve to the engine's verdict).
    let reference: Vec<Classification> = seqs.iter().map(|s| engine.classify(s)).collect();

    println!("fault campaign ({level}, window {window_len}, ~{ops:.0} ops/window):");
    println!("fleet sweep: {devices} devices x {sequences} sequences");

    let mut fleet_runs = Vec::new();
    for &(name, policy) in policies {
        let mut fault_free_rate = f64::NAN;
        for &rate in rates {
            let per_op = per_op_rate(rate, ops);
            let mut fleet =
                CsdFleet::new(devices, &weights, level).expect("fleet boots fault-free");
            fleet.set_recovery(policy);
            if per_op > 0.0 {
                let cfg = FaultConfig::uniform(per_op);
                for idx in 0..devices {
                    fleet.arm_faults(idx, FaultPlan::new(0xC5D0 + idx as u64, cfg));
                }
            }
            let scan = fleet
                .scan(&seqs)
                .expect("recovery must absorb the swept fault rates");
            let (lost, changed) = diff(&reference, &scan.classifications);
            assert_eq!(lost, 0, "fleet sweep lost verdicts at rate {rate} ({name})");
            assert_eq!(
                changed, 0,
                "fleet sweep changed verdicts at rate {rate} ({name})"
            );
            let sim_secs = scan.elapsed.as_nanos() as f64 / 1e9;
            let throughput = sequences as f64 / sim_secs;
            if rate == 0.0 {
                fault_free_rate = throughput;
            }
            let counters: Vec<FaultCounters> = (0..devices)
                .filter_map(|i| fleet.disarm_faults(i))
                .map(|p| p.counters())
                .collect();
            let run = FleetRun {
                policy: name.to_string(),
                rate_per_window: rate,
                rate_per_op: per_op,
                sequences,
                verdicts_lost: lost,
                verdicts_changed: changed,
                sim_elapsed_us: scan.elapsed.as_micros(),
                seqs_per_sim_sec: throughput,
                throughput_vs_fault_free: throughput / fault_free_rate,
                fleet: fleet.stats(),
                recovery: sum_recovery(&fleet),
                faults_injected: sum_faults(&counters),
            };
            println!(
                "  {name:>15} rate {rate:>5.2}: {throughput:>9.1} seqs/sim-s ({:.2}x of fault-free), {} faults, {} retries, {} reprograms, {} quarantines",
                run.throughput_vs_fault_free,
                run.recovery.faults,
                run.recovery.retries,
                run.recovery.reprograms,
                run.fleet.quarantines,
            );
            fleet_runs.push(run);
        }
    }

    // Dead device: every op on device 0 fails; its shard must move.
    let dead_device = {
        let mut fleet = CsdFleet::new(devices, &weights, level).expect("fleet boots fault-free");
        fleet.set_recovery(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::retry_only()
        });
        fleet.arm_faults(0, FaultPlan::new(1, FaultConfig::uniform(1.0)));
        let scan = fleet
            .scan(&seqs)
            .expect("healthy devices must absorb the dead device's shard");
        let (lost, changed) = diff(&reference, &scan.classifications);
        assert_eq!(lost, 0, "dead-device scan lost verdicts");
        assert_eq!(changed, 0, "dead-device scan changed verdicts");
        let stats = fleet.stats();
        assert!(stats.quarantines > 0, "dead device was never quarantined");
        assert!(stats.redistributed > 0, "dead device's shard never moved");
        println!(
            "  dead device 0/{devices}: verdicts intact, {} quarantines, {} sequences redistributed",
            stats.quarantines, stats.redistributed
        );
        DeadDeviceRun {
            devices,
            dead_device: 0,
            verdicts_lost: lost,
            verdicts_changed: changed,
            quarantines: stats.quarantines,
            redistributed: stats.redistributed,
            readmissions: stats.readmissions,
        }
    };

    // Stream sweep: lane corruption per occupied lane per tick.
    let stream_windows = if smoke { 32 } else { 128 };
    let cooldown_ticks = 16u64;
    let windows: Vec<Vec<usize>> = (0..stream_windows).map(|s| trace(s, window_len)).collect();
    let stream_reference: Vec<Classification> =
        windows.iter().map(|w| engine.classify(w)).collect();
    println!("stream sweep: {stream_windows} windows through the mux, lane cooldown {cooldown_ticks} ticks");

    let mut stream_runs = Vec::new();
    let mut stream_fault_free = f64::NAN;
    for &rate in rates {
        // A window occupies a lane for ~window_len ticks; convert the
        // per-window disturbance rate to a per-tick lane rate.
        let per_tick = per_op_rate(rate, window_len as f64);
        let mut mux = ShardedStreamMux::new(
            engine.clone(),
            StreamMuxConfig {
                lanes: None,
                max_pending: stream_windows,
                policy: OverflowPolicy::DropOldest,
                shards: Some(1),
            },
        );
        if per_tick > 0.0 {
            let cfg = FaultConfig {
                corruption: per_tick,
                ..FaultConfig::none()
            };
            mux.arm_faults(FaultPlan::new(0xFACE, cfg), cooldown_ticks);
        }
        for (stream, w) in windows.iter().enumerate() {
            assert!(
                mux.submit(stream as u64, window_len, w),
                "queue sized for all windows"
            );
        }
        let start = Instant::now();
        let verdicts = mux.drain();
        let wall = start.elapsed().as_secs_f64();
        // Verdict order varies with lane scheduling; key by stream id.
        let mut got: Vec<Option<Classification>> = vec![None; stream_windows];
        for v in &verdicts {
            got[v.stream as usize] = Some(v.classification);
        }
        let lost = got.iter().filter(|g| g.is_none()).count();
        let changed = got
            .iter()
            .zip(stream_reference.iter())
            .filter(|(g, r)| g.map(|c| c != **r).unwrap_or(false))
            .count();
        assert_eq!(lost, 0, "stream sweep lost verdicts at rate {rate}");
        assert_eq!(changed, 0, "stream sweep changed verdicts at rate {rate}");
        let stats = mux.stats();
        assert_eq!(stats.dropped, 0, "deep queue must not drop");
        let throughput = stream_windows as f64 / wall;
        if rate == 0.0 {
            stream_fault_free = throughput;
        }
        println!(
            "  rate {rate:>5.2}: {throughput:>9.0} windows/s ({:.2}x of fault-free), {} lane faults, {} serial reruns, {} degraded ticks",
            throughput / stream_fault_free,
            stats.faults,
            stats.degraded_reruns,
            stats.degraded_ticks,
        );
        stream_runs.push(StreamRun {
            rate_per_window: rate,
            rate_per_tick: per_tick,
            windows: stream_windows,
            verdicts_lost: lost,
            verdicts_changed: changed,
            dropped: stats.dropped,
            wall_ms: wall * 1e3,
            windows_per_sec: throughput,
            throughput_vs_fault_free: throughput / stream_fault_free,
            mux: stats,
        });
    }

    let report = Report {
        smoke,
        level: level.to_string(),
        window_len,
        ops_per_window: ops,
        rates_per_window: rates.to_vec(),
        fleet_devices: devices,
        fleet_sequences: sequences,
        fleet_runs,
        dead_device,
        stream_windows,
        stream_cooldown_ticks: cooldown_ticks,
        stream_runs,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_faults.json", json).expect("write BENCH_faults.json");
    println!("wrote BENCH_faults.json");
    println!("zero-loss contract held at every swept fault rate");
}
