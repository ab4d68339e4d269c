//! Property-based crash-safety contract of the durable sentry.
//!
//! Two invariants, each over arbitrary schedules:
//!
//! - **Crash-recovery equivalence**: kill the durable sentry at any
//!   set of event offsets — with any fsync batching, any checkpoint
//!   cadence, and any torn tail at each crash — and, provided the
//!   producer re-sends from the journal's durable-event cursor, the
//!   final incident set is *identical* to an uninterrupted in-memory
//!   run over the same events.
//! - **Torn-tail recovery**: whatever bytes a crash leaves at the end
//!   of the journal (a partial flush, or a corrupted record anywhere
//!   past the magic), reopening recovers a *prefix* of the appended
//!   records, never invents or reorders data, and recovers at least
//!   everything that was explicitly synced before an append-side tear.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{
    ActionKind, DurableConfig, DurableSentry, Journal, JournalConfig, ProcessEvent, Sentry,
    SentryConfig,
};
use proptest::prelude::*;

const VOCAB: usize = 16;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn engine() -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), 9);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}

fn config() -> SentryConfig {
    SentryConfig {
        window_len: 8,
        stride: 4,
        votes_needed: 1,
        vote_horizon: 1,
        action: ActionKind::Kill,
        ..SentryConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "csd-proptest-crash-{}-{tag}-{seq}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A deterministic multi-pid stream: spawns, interleaved calls, exits.
/// Some traces alert under the seed-9 tiny model, some do not.
fn workload(n_pids: u32, calls_per: usize) -> Vec<ProcessEvent> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for pid in 0..n_pids {
        t += 1;
        events.push(ProcessEvent::spawn(t, 700 + pid, "w.exe"));
    }
    for round in 0..calls_per {
        for pid in 0..n_pids {
            t += 1;
            let call = ((round * 7) + pid as usize * 3) % VOCAB;
            events.push(ProcessEvent::api(t, 700 + pid, call));
        }
    }
    for pid in 0..n_pids {
        t += 1;
        events.push(ProcessEvent::exit(t, 700 + pid));
    }
    events
}

/// Incident identity across runs: what fired, against whom, where.
fn keys(sentry: &Sentry) -> Vec<(u64, u32, usize, String)> {
    let mut k: Vec<_> = sentry
        .incidents()
        .iter()
        .map(|i| (i.sid, i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    k.sort();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash anywhere — any number of times, any torn tail, any
    /// batching — and recovery plus cursor-resume reproduces the
    /// uninterrupted run's incidents exactly.
    #[test]
    fn crash_restart_at_arbitrary_offsets_matches_the_uninterrupted_run(
        n_pids in 2u32..5,
        calls_per in 6usize..20,
        kill_fracs in prop::collection::vec((0.0f64..1.0, 0usize..48), 0..4),
        sync_every in prop_oneof![Just(1usize), Just(8), Just(64)],
        checkpoint_every in prop_oneof![Just(0u64), Just(16), Just(64)],
    ) {
        let events = workload(n_pids, calls_per);

        // Oracle: one uninterrupted in-memory run.
        let mut oracle = Sentry::new(engine(), config());
        for e in &events {
            oracle.ingest(e);
        }
        oracle.drain();
        let expect = keys(&oracle);

        // Kill points as absolute offsets, deduped and sorted.
        let mut kills: Vec<(usize, usize)> = kill_fracs
            .iter()
            .map(|&(f, torn)| {
                // `f` < 1.0, so every offset lands strictly inside the
                // event stream.
                ((f * events.len() as f64) as usize, torn)
            })
            .collect();
        kills.sort_unstable();
        kills.dedup_by_key(|&mut (off, _)| off);

        let dir = tmpdir("equiv");
        let mut durable = DurableConfig::new(&dir);
        durable.journal.sync_every = sync_every;
        durable.checkpoint_every_events = checkpoint_every;

        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        let mut kills = kills.into_iter().peekable();
        // The producer's cursor: the next event to send. After a
        // crash it rewinds to the journal's durable-event count —
        // the at-least-once resume protocol.
        let mut cursor = 0usize;
        // Incidents this incarnation's calls have handed back, over the
        // incident records its `open` found or wrote.
        let (mut handed_back, mut at_open) = (0u64, d.journal().durable_incidents());
        while cursor < events.len() {
            if let Some(&(off, torn)) = kills.peek() {
                if cursor == off {
                    kills.next();
                    d.simulate_crash(torn);
                    d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
                    let resume = d.durable_events() as usize;
                    prop_assert!(resume <= cursor, "the journal never runs ahead of the producer");
                    cursor = resume;
                    (handed_back, at_open) = (0, d.journal().durable_incidents());
                    continue;
                }
            }
            handed_back += d.ingest(&events[cursor]).unwrap().len() as u64;
            cursor += 1;
            let journal = d.journal();
            prop_assert!(
                handed_back <= journal.durable_incidents() - at_open,
                "an incident came back before its record was durable"
            );
            prop_assert_eq!(
                journal.durable_incidents() + journal.pending_incidents() as u64,
                d.sentry().incidents().len() as u64,
                "every latched incident is journaled: durable or held"
            );
        }
        handed_back += d.drain().unwrap().len() as u64;
        prop_assert_eq!(d.journal().pending_incidents(), 0, "a drain holds nothing back");
        prop_assert_eq!(handed_back, d.journal().durable_incidents() - at_open);

        prop_assert_eq!(keys(d.sentry()), expect, "incident parity across crashes");
        prop_assert_eq!(
            d.sentry().stats().events,
            events.len() as u64,
            "cursor resume is exactly-once on the ingest clock"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Whatever the crash leaves at the journal's tail — a partial
    /// in-order flush or a flipped byte anywhere past the magic —
    /// reopening yields a strict prefix of what was appended, and
    /// everything synced before an append-side tear survives.
    #[test]
    fn torn_or_corrupted_tail_recovers_the_longest_valid_prefix(
        n_events in 1usize..40,
        synced in 0usize..40,
        torn in 0usize..64,
        corrupt_at in prop_oneof![Just(None), (0usize..2048).prop_map(Some)],
    ) {
        let synced = synced.min(n_events);
        let events: Vec<ProcessEvent> = (0..n_events)
            .map(|i| ProcessEvent::api(i as u64 + 1, 42, i % VOCAB))
            .collect();

        let dir = tmpdir("torn");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: usize::MAX }).unwrap();
        for e in &events[..synced] {
            j.append_event(e).unwrap();
        }
        j.sync().unwrap();
        for e in &events[synced..] {
            j.append_event(e).unwrap();
        }
        j.simulate_crash(torn);

        // Optionally corrupt one byte past the magic — a bad sector,
        // not just a torn write.
        if let Some(at) = corrupt_at {
            let mut bytes = fs::read(&path).unwrap();
            let lo = 8; // past the magic
            if bytes.len() > lo {
                let at = lo + at % (bytes.len() - lo);
                bytes[at] ^= 0x40;
                fs::write(&path, &bytes).unwrap();
            }
        }

        let (_, recovery) = Journal::open(&path, JournalConfig::default()).unwrap();
        let recovered: Vec<&ProcessEvent> = recovery.events().collect();
        prop_assert!(recovered.len() <= n_events, "recovery never invents records");
        for (got, want) in recovered.iter().zip(events.iter()) {
            prop_assert_eq!(*got, want, "recovery is a prefix, in order");
        }
        if corrupt_at.is_none() {
            prop_assert!(
                recovered.len() >= synced,
                "synced records survive an append-side tear: {} < {synced}",
                recovered.len()
            );
        }

        // Truncation is terminal: a second open recovers the same
        // prefix with nothing further to truncate.
        let (_, again) = Journal::open(&path, JournalConfig::default()).unwrap();
        prop_assert_eq!(again.event_count(), recovery.event_count());
        prop_assert_eq!(again.bytes_truncated, 0, "the torn tail was truncated on first open");
        let _ = fs::remove_dir_all(&dir);
    }
}
