//! State follows the sessions alive now, not every session ever seen.
//!
//! The same fixed-concurrency churn — a process spawns, makes 100 calls,
//! exits, and another takes its slot — is run for 50 and for 5 000
//! processes. What the sentry tracks along the way, and what a
//! checkpoint taken with the last processes still running weighs, must
//! not depend on which of the two it was.

use std::fs;
use std::path::PathBuf;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{DurableConfig, DurableSentry, ProcessEvent, Sentry, SentryConfig};

const VOCAB: usize = 16;
/// Processes alive at once.
const CONCURRENCY: usize = 10;
const CALLS: usize = 100;
/// Calls per window; one window per [`STRIDE`] calls, two a process.
const WINDOW: usize = 10;
const STRIDE: usize = 50;
/// The service loop's cadence: one engine round per this many events.
/// A window's ten rounds then span ≈ 160 events, during which ≈ 16 more
/// processes exit.
const POLL_EVERY: u64 = 16;
/// Tracked sessions beyond the live ones: those that exited while a
/// window of theirs was still in the mux (≈ 16 at this cadence), with
/// headroom.
const AWAITING_SLACK: usize = 32;

fn engine() -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), 9);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}

fn config() -> SentryConfig {
    let mut config = SentryConfig {
        window_len: WINDOW,
        stride: STRIDE,
        votes_needed: 1,
        vote_horizon: 1,
        ..SentryConfig::default()
    };
    // One shard, as every serving configuration runs: a second one adds
    // a worker wake-up to each of the run's 32 000 engine rounds.
    config.mux.shards = Some(1);
    config
}

/// `sessions` processes through [`CONCURRENCY`] slots, round-robin, the
/// slots a few calls out of phase. PIDs are reused as the OS would. The
/// last process of each slot is left running, half-way through.
fn churn(sessions: usize) -> Vec<ProcessEvent> {
    let per_slot = sessions / CONCURRENCY;
    // Events of one slot, in order; then interleave the slots.
    let slot_events = |slot: usize| {
        let pid = 1000 + slot as u32;
        let mut events = Vec::new();
        for k in 0..per_slot {
            events.push(ProcessEvent::spawn(0, pid, "churn.exe"));
            let last = k + 1 == per_slot;
            for i in 0..if last { CALLS / 2 } else { CALLS } {
                events.push(ProcessEvent::api(0, pid, (i * 7 + k * 3 + slot) % VOCAB));
            }
            if !last {
                events.push(ProcessEvent::exit(0, pid));
            }
        }
        events
    };
    let slots: Vec<Vec<ProcessEvent>> = (0..CONCURRENCY).map(slot_events).collect();
    let mut cursors = [0usize; CONCURRENCY];
    let mut out = Vec::new();
    let mut round = 0usize;
    while cursors.iter().zip(&slots).any(|(&c, s)| c < s.len()) {
        for (slot, events) in slots.iter().enumerate() {
            // Slot `s` sits out the first `13 s` rounds, so exits spread
            // over the cycle instead of arriving together.
            if round < slot * 13 {
                continue;
            }
            if let Some(e) = events.get(cursors[slot]) {
                out.push(e.clone());
                cursors[slot] += 1;
            }
        }
        round += 1;
    }
    for (t, e) in out.iter_mut().enumerate() {
        e.t_us = t as u64 + 1;
    }
    out
}

/// What one run held at most, and what it was left holding.
#[derive(Debug)]
struct Held {
    sessions_peak: usize,
    streams_peak: usize,
    sessions_end: usize,
    checkpoint_bytes: usize,
}

fn run_volatile(events: &[ProcessEvent]) -> Held {
    let mut sentry = Sentry::new(engine(), config());
    let (mut sessions_peak, mut streams_peak) = (0, 0);
    for e in events {
        sentry.ingest(e);
        if sentry.events().is_multiple_of(POLL_EVERY) {
            sentry.poll();
        }
        sessions_peak = sessions_peak.max(sentry.sessions().tracked());
        streams_peak = streams_peak.max(sentry.tracked_streams());
    }
    sentry.drain();
    // No session latches with a window still in the mux here, so a
    // verdict goes unfolded only if its session retired ahead of it.
    let stats = sentry.stats();
    assert_eq!(stats.mux.dropped + stats.mux.rejected, 0, "nothing shed");
    assert_eq!(stats.verdicts_folded, stats.mux.verdicts);
    Held {
        sessions_peak,
        streams_peak,
        sessions_end: sentry.sessions().tracked(),
        checkpoint_bytes: serde_json::to_string(&sentry.snapshot())
            .expect("snapshot serializes")
            .len(),
    }
}

fn run_durable(events: &[ProcessEvent], tag: &str) -> Held {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("csd-bounded-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut durable = DurableConfig::new(&dir);
    // The run is about state, not fsync: batch what may be batched.
    durable.journal.sync_every = 4096;
    let mut sentry = DurableSentry::open(engine(), config(), durable).expect("open");
    let (mut sessions_peak, mut streams_peak) = (0, 0);
    for e in events {
        sentry.ingest(e).expect("journaled ingest");
        if sentry.sentry().events().is_multiple_of(POLL_EVERY) {
            sentry.poll().expect("journaled poll");
        }
        sessions_peak = sessions_peak.max(sentry.sentry().sessions().tracked());
        streams_peak = streams_peak.max(sentry.sentry().tracked_streams());
    }
    sentry.checkpoint().expect("checkpoint");
    let held = Held {
        sessions_peak,
        streams_peak,
        sessions_end: sentry.sentry().sessions().tracked(),
        checkpoint_bytes: fs::metadata(dir.join("checkpoint.snap"))
            .expect("checkpoint written")
            .len() as usize,
    };
    drop(sentry);
    let _ = fs::remove_dir_all(&dir);
    held
}

fn assert_bounded(small: &Held, large: &Held) {
    for held in [small, large] {
        assert!(
            held.sessions_peak <= CONCURRENCY + AWAITING_SLACK,
            "{held:?}"
        );
        assert!(
            held.streams_peak <= CONCURRENCY + AWAITING_SLACK,
            "{held:?}"
        );
        assert_eq!(
            held.sessions_end, CONCURRENCY,
            "drained: only the running processes are tracked"
        );
    }
    // Both checkpoints hold the same ten half-run sessions; they may
    // differ by the digits of a few counters — far less than one
    // session's record.
    let one_session = small.checkpoint_bytes / CONCURRENCY;
    assert!(
        large.checkpoint_bytes.abs_diff(small.checkpoint_bytes) < one_session,
        "{small:?} vs {large:?}"
    );
}

#[test]
fn volatile_sentry_state_does_not_grow_with_sessions_seen() {
    assert_bounded(&run_volatile(&churn(50)), &run_volatile(&churn(5_000)));
}

/// The mux forgets a retired session's loss entry; the sentry keeps the
/// total, so per-stream loss still adds up to what the mux counted.
#[test]
fn loss_of_retired_sessions_still_adds_up_to_the_mux_totals() {
    let mut config = config();
    // One lane retires a window per 160 events, the ten streams submit
    // one per 50, and the queue holds one: most windows are evicted.
    config.mux.lanes = Some(1);
    config.mux.max_pending = 1;
    let mut sentry = Sentry::new(engine(), config);
    for e in &churn(200) {
        sentry.ingest(e);
        if sentry.events().is_multiple_of(POLL_EVERY) {
            sentry.poll();
        }
    }
    sentry.drain();
    let mux = sentry.stats().mux;
    assert!(mux.evicted > 0, "the bound never bit: {mux:?}");
    let retired = sentry.retired_loss();
    assert!(retired.evicted > 0, "retired sessions lost windows too");
    let tracked: u64 = sentry
        .sessions()
        .sessions()
        .map(|s| sentry.loss_for(s.sid()).total())
        .sum();
    assert_eq!(
        retired.total() + tracked,
        mux.evicted + mux.refused + mux.rejected
    );
}

#[test]
fn durable_sentry_state_and_checkpoint_do_not_grow_with_sessions_seen() {
    assert_bounded(
        &run_durable(&churn(50), "small"),
        &run_durable(&churn(5_000), "large"),
    );
}
