//! Live-ingestion campaign: replays the corpus as interleaved process
//! traffic through the `csd-sentry` service and checks *alert parity* —
//! every session must alert exactly when offline classification of its
//! window is positive, with zero mismatches — while recording sustained
//! events/sec and verdict latency percentiles in `BENCH_sentry.json`.
//!
//! ```text
//! cargo run --release -p csd-bench --bin exp_sentry [-- --smoke]
//! ```
//!
//! The load generator ([`csd_ransomware::replay`]) turns every dataset
//! entry into one process — spawn, its 100 calls at seeded jittered
//! gaps, exit — and merges all of them by timestamp, so sessions
//! overlap (up to sixteen alive at once, thousands over the run), exits
//! race in-flight verdicts, and the sentry's session table does real
//! lifecycle work. The sentry polls
//! the sharded mux every [`POLL_EVERY`] events (a steady service loop,
//! not one big drain), and latency is measured the way a deployment
//! feels it: events a session observed between its window filling and
//! the verdict folding.
//!
//! Parity is the whole point: the sentry submits each session's window
//! to the sharded mux, whose lane kernels are bit-identical to serial
//! `classify`, and the vote config here is 1-of-1 over one window per
//! session — so any live-vs-offline disagreement is a real bug in the
//! ingestion path (lost window, misattributed verdict, session
//! aliasing), not noise. The assertion runs in full *and* smoke mode.
//!
//! The run also watches what the sentry *holds*: sessions retire once
//! they have exited and their last verdict has folded, so the tracked
//! count must stay within [`TRACKED_SLACK`] of the live one however many
//! sessions have come and gone — asserted in both modes, so unbounded
//! state cannot come back unnoticed.
//!
//! Honors the `CSD_STREAM_SHARDS` environment knob through the default
//! mux config, so a CI matrix can sweep the shard count.

use std::collections::HashSet;
use std::time::Instant;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_ransomware::dataset::{Dataset, DatasetBuilder};
use csd_ransomware::replay::{interleave, ReplayProfile, REPLAY_PID_BASE};
use csd_sentry::{ActionKind, ProcessEvent, Sentry, SentryConfig, SentryStats, SNAPSHOT_MAGIC};
use serde::Serialize;

/// Service-loop cadence: one mux round per this many ingested events.
/// Sized so tick throughput keeps pace with window arrival: one window
/// arrives per ~102 events and costs `window_len` lane-ticks, so the
/// round rate must exceed `window_len / (lanes × 102)` per event with
/// headroom to spare — otherwise verdicts pile into the final drain and
/// staleness degenerates to half the trace. Idle rounds are cheap, so
/// the cadence errs well on the fast side.
const POLL_EVERY: usize = 16;

/// Sessions the sentry may track beyond the live ones: those that have
/// exited while their window is still in the mux. A window takes 100
/// rounds, i.e. 1 600 events at [`POLL_EVERY`], and one session exits
/// per 102 events of this trace, so ≈ 16 are waiting at any time; the
/// slack leaves room for a mux that runs behind, and is still far below
/// the hundreds of sessions even the smoke corpus would pile up.
const TRACKED_SLACK: u64 = 128;

#[derive(Serialize)]
struct Report {
    smoke: bool,
    level: String,
    entries: usize,
    positives_offline: usize,
    events: u64,
    windows_submitted: u64,
    verdicts_folded: u64,
    alerts: usize,
    mismatches: usize,
    wall_ms: f64,
    events_per_sec: f64,
    /// Most sessions alive at once (started − ended), sampled at every
    /// poll.
    live_sessions_peak: u64,
    /// Most sessions the sentry tracked at once: the live ones plus
    /// those awaiting a verdict.
    tracked_sessions_peak: u64,
    /// Size of a checkpoint of the final state (framing + JSON body).
    checkpoint_bytes_last: usize,
    /// Verdict latency in events the session observed past window-full
    /// (0 for corpus replays: each trace ends at window-full). All six
    /// latency figures come from the sentry's fixed-size histograms:
    /// exact below 32 events, the upper edge of a 1/16-octave bucket
    /// above (at most 6.25% high); the maxima are exact.
    latency_p50_events: u64,
    latency_p99_events: u64,
    latency_max_events: u64,
    /// Verdict latency on the service clock: events ingested across all
    /// sessions between window-full and fold — verdict staleness under
    /// interleaved load.
    service_latency_p50_events: u64,
    service_latency_p99_events: u64,
    service_latency_max_events: u64,
    /// Engine-side loss across all sessions — must be zero for parity.
    evicted: u64,
    refused: u64,
    rejected: u64,
    stats: SentryStats,
}

fn corpus(smoke: bool) -> Dataset {
    if smoke {
        DatasetBuilder::new(7)
            .ransomware_windows(200)
            .benign_windows(200)
            .build()
    } else {
        DatasetBuilder::paper(7).build()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let level = OptimizationLevel::FixedPoint;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    let engine = CsdInferenceEngine::new(&weights, level);

    let dataset = corpus(smoke);
    let entries = dataset.entries();
    println!(
        "exp_sentry: {} entries as interleaved live traffic ({})",
        entries.len(),
        if smoke { "smoke" } else { "full corpus" }
    );

    // Offline oracle: the engine's own verdict on each entry's window,
    // lane-batched. Parity is engine-vs-engine, so it holds whatever
    // the model says about any particular window.
    let refs: Vec<&[usize]> = entries.iter().map(|e| e.sequence.as_slice()).collect();
    let offline: Vec<bool> = engine
        .classify_batch_refs(&refs)
        .into_iter()
        .map(|c| c.is_positive)
        .collect();
    let positives_offline = offline.iter().filter(|&&p| p).count();

    // One window per session (traces are exactly window_len calls), so
    // 1-of-1 voting makes live alert ⇔ positive window, same as the
    // offline oracle. Backpressure is sized so nothing is shed: parity
    // requires every window to classify.
    let mut config = SentryConfig {
        window_len: 100,
        stride: 10,
        votes_needed: 1,
        vote_horizon: 1,
        action: ActionKind::Log,
        ..SentryConfig::default()
    };
    config.mux.max_pending = entries.len().max(4096);
    let mut sentry = Sentry::new(engine, config);

    let profile = ReplayProfile {
        mean_gap_us: 50,
        jitter: 0.5,
        // Spread starts so sessions overlap heavily without the tail
        // running alone: ~1/4 of the nominal makespan.
        spread_us: (entries.len() as u64) * 100 * 50 / 4,
    };
    let trace = interleave(&dataset, 17, profile);
    println!("replaying {} events", trace.len());

    let start = Instant::now();
    let mut since_poll = 0usize;
    let (mut live_sessions_peak, mut tracked_sessions_peak) = (0u64, 0u64);
    for e in &trace.events {
        sentry.ingest(&ProcessEvent::from(e));
        since_poll += 1;
        if since_poll == POLL_EVERY {
            since_poll = 0;
            sentry.poll();
            let table = sentry.sessions();
            live_sessions_peak = live_sessions_peak.max(table.started() - table.ended_count());
            tracked_sessions_peak = tracked_sessions_peak.max(table.tracked() as u64);
        }
    }
    sentry.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let events_per_sec = sentry.events() as f64 / (wall_ms / 1e3);

    // Parity sweep: replay pids map back to entries by construction,
    // are never reused, and every incident carries its pid.
    let alerted_pids: HashSet<u32> = sentry.incidents().iter().map(|i| i.pid).collect();
    let mut mismatches = 0usize;
    for (i, &positive) in offline.iter().enumerate() {
        let pid = REPLAY_PID_BASE + i as u32;
        let alerted = alerted_pids.contains(&pid);
        if alerted != positive {
            mismatches += 1;
            if mismatches <= 10 {
                println!("MISMATCH entry {i} pid {pid}: live={alerted} offline={positive}");
            }
        }
    }

    let stats = sentry.stats();
    // Every session exited and the drain ran: all have retired, so the
    // per-stream loss the mux has forgotten is all in the retired total.
    assert_eq!(sentry.sessions().tracked(), 0, "every session retired");
    let loss = sentry.retired_loss();
    assert_eq!(
        (loss.evicted, loss.refused, loss.rejected),
        (stats.mux.evicted, stats.mux.refused, stats.mux.rejected),
        "retired per-stream loss adds up to the mux's totals"
    );
    let checkpoint_bytes_last = SNAPSHOT_MAGIC.len()
        + 4
        + serde_json::to_string(&sentry.snapshot())
            .expect("snapshot serializes")
            .len();
    let (latencies, service_latencies) = (sentry.latencies(), sentry.service_latencies());
    let report = Report {
        smoke,
        level: format!("{level:?}"),
        entries: entries.len(),
        positives_offline,
        events: stats.events,
        windows_submitted: stats.mux.verdicts + stats.mux.dropped,
        verdicts_folded: stats.verdicts_folded,
        alerts: sentry.incidents().len(),
        mismatches,
        wall_ms,
        events_per_sec,
        live_sessions_peak,
        tracked_sessions_peak,
        checkpoint_bytes_last,
        latency_p50_events: latencies.quantile(0.50),
        latency_p99_events: latencies.quantile(0.99),
        latency_max_events: latencies.max(),
        service_latency_p50_events: service_latencies.quantile(0.50),
        service_latency_p99_events: service_latencies.quantile(0.99),
        service_latency_max_events: service_latencies.max(),
        evicted: loss.evicted,
        refused: loss.refused,
        rejected: loss.rejected,
        stats,
    };

    println!(
        "{} events in {:.0} ms ({:.0} events/sec); {} alerts / {} offline positives; \
         verdict staleness p50={} p99={} ingested events",
        report.events,
        report.wall_ms,
        report.events_per_sec,
        report.alerts,
        report.positives_offline,
        report.service_latency_p50_events,
        report.service_latency_p99_events,
    );
    println!(
        "tracked_sessions_peak={} (live peak {}) checkpoint_bytes_last={}",
        report.tracked_sessions_peak, report.live_sessions_peak, report.checkpoint_bytes_last,
    );

    // The campaign's contract, enforced in both modes.
    assert_eq!(
        report.mismatches, 0,
        "live alerts must match offline classification"
    );
    assert_eq!(
        report.evicted + report.refused + report.rejected,
        0,
        "no window may be shed at this backpressure bound"
    );
    assert_eq!(
        report.verdicts_folded, report.entries as u64,
        "exactly one verdict per session"
    );
    assert_eq!(
        report.stats.sessions_started, report.entries as u64,
        "one session per entry"
    );
    assert!(
        report.tracked_sessions_peak <= report.live_sessions_peak + TRACKED_SLACK,
        "the sentry tracked {} sessions with at most {} alive: ended sessions are not retiring",
        report.tracked_sessions_peak,
        report.live_sessions_peak,
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_sentry.json", json).expect("write BENCH_sentry.json");
    println!("wrote BENCH_sentry.json");
}
