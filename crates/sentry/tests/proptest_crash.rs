//! Property-based crash-safety contract of the durable sentry.
//!
//! Three invariants, each over arbitrary schedules:
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
//! - **The anchor is an optimisation, never information**: at every
//!   crash state the first property generates, and at crash placements
//!   chosen by hand around the checkpoint, `open` from the checkpoint's
//!   anchor and `open` with `checkpoint.snap` deleted — a scan and
//!   replay of the whole journal — end in the same place.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{
    ActionKind, DurableConfig, DurableSentry, FullScan, Journal, JournalConfig, ProcessEvent,
    RecoveryReport, Sentry, SentryConfig,
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

/// The state files of `dir`, copied to a directory of their own — all
/// of them, or all but the checkpoint.
fn twin(dir: &Path, keep_checkpoint: bool) -> PathBuf {
    let to = tmpdir(if keep_checkpoint { "twin" } else { "twin-bare" });
    fs::create_dir_all(&to).unwrap();
    fs::copy(dir.join("journal.log"), to.join("journal.log")).unwrap();
    if keep_checkpoint && dir.join("checkpoint.snap").exists() {
        fs::copy(dir.join("checkpoint.snap"), to.join("checkpoint.snap")).unwrap();
    }
    to
}

/// Incident identity across runs: sid, pid, deciding call, action.
type IncidentKey = (u64, u32, usize, String);

/// What a reopened sentry must agree on whichever way `open` got there:
/// the incidents in log order, the journal's cursors, and every counter
/// that recovery preserves. (`verdicts_folded` and `dropped_after_kill`
/// are not among them: a replay from the first event meets the adopted
/// incidents' streams already latched, so it folds and drops less than
/// the run that raised them.)
fn standing(d: &DurableSentry) -> (Vec<IncidentKey>, [u64; 11]) {
    let incidents = d
        .sentry()
        .incidents()
        .iter()
        .map(|i| (i.sid, i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    let stats = d.sentry().stats();
    let counters = [
        d.durable_events(),
        d.journal().durable_incidents(),
        stats.events,
        stats.sessions_started,
        stats.sessions_ended,
        stats.oov_calls,
        stats.stray_exits,
        stats.incidents,
        stats.suppressed,
        stats.actions_failed,
        stats.dup_events,
    ];
    (incidents, counters)
}

/// Opens the crashed state in `durable.dir` twice, on copies: as it is,
/// and with `checkpoint.snap` deleted. Both must end standing in the
/// same place; the first must have started at the anchor if there was a
/// checkpoint to take one from, and its report comes back.
fn assert_the_checkpoint_adds_nothing(durable: &DurableConfig) -> RecoveryReport {
    let has_checkpoint = durable.dir.join("checkpoint.snap").exists();
    let journal_len = fs::metadata(durable.dir.join("journal.log")).unwrap().len();
    let open = |dir: PathBuf| {
        let durable = DurableConfig {
            dir,
            ..durable.clone()
        };
        DurableSentry::open(engine(), config(), durable).unwrap()
    };
    let (with, without) = (twin(&durable.dir, true), twin(&durable.dir, false));
    let (anchored, scanned) = (open(with.clone()), open(without.clone()));
    assert_eq!(standing(&anchored), standing(&scanned));

    let full = scanned.recovery();
    assert_eq!(full.full_scan, Some(FullScan::NoCheckpoint));
    assert_eq!(full.journal_bytes_scanned, journal_len);
    assert_eq!((full.chained_incidents, full.checkpoint_events), (0, 0));
    let report = anchored.recovery().clone();
    assert!(!report.checkpoint_discarded);
    if has_checkpoint {
        assert_eq!(report.full_scan, None, "a checkpoint of this history");
        assert!(report.journal_bytes_scanned <= journal_len);
        assert!(report.replayed_events <= full.replayed_events);
        assert_eq!(report.journal_bytes_truncated, full.journal_bytes_truncated);
    } else {
        assert_eq!(report.full_scan, Some(FullScan::NoCheckpoint));
    }
    assert_eq!(
        report.adopted_incidents + report.duplicate_incidents,
        full.adopted_incidents + full.duplicate_incidents,
        "every incident record is met either way"
    );
    drop((anchored, scanned));
    let _ = fs::remove_dir_all(&with);
    let _ = fs::remove_dir_all(&without);
    report
}

/// A durable sentry in a fresh directory: 16-event sync batches, a
/// checkpoint every `checkpoint_every` events.
fn fresh(tag: &str, checkpoint_every: u64) -> (DurableSentry, DurableConfig) {
    let mut durable = DurableConfig::new(&tmpdir(tag));
    durable.journal.sync_every = 16;
    durable.checkpoint_every_events = checkpoint_every;
    let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
    (d, durable)
}

/// Ingests `events` until `checkpoints` automatic checkpoints have been
/// written, and returns how many events that took.
fn feed_to_checkpoint(d: &mut DurableSentry, events: &[ProcessEvent], checkpoints: u64) -> usize {
    for (i, e) in events.iter().enumerate() {
        d.ingest(e).unwrap();
        if d.checkpoints_written() == checkpoints {
            return i + 1;
        }
    }
    panic!("the workload outlasts {checkpoints} checkpoint intervals");
}

/// The crash a checkpoint is most exposed to: its journal sync is done,
/// its rename is not. The journal holds everything; the checkpoint in
/// place is the one before, anchored a whole interval further back; a
/// half-written temporary lies beside it.
#[test]
fn crash_between_a_checkpoints_journal_sync_and_its_rename() {
    let events = workload(4, 60);
    let (mut d, durable) = fresh("before-rename", 64);
    let first = feed_to_checkpoint(&mut d, &events, 1);
    let previous = fs::read(durable.dir.join("checkpoint.snap")).unwrap();
    let second = first + feed_to_checkpoint(&mut d, &events[first..], 2);
    d.simulate_crash(0);
    let newer = fs::read(durable.dir.join("checkpoint.snap")).unwrap();
    fs::write(
        durable.dir.join("checkpoint.tmp"),
        &newer[..newer.len() / 2],
    )
    .unwrap();
    fs::write(durable.dir.join("checkpoint.snap"), &previous).unwrap();

    let report = assert_the_checkpoint_adds_nothing(&durable);
    assert_eq!(report.checkpoint_events, first as u64);
    assert_eq!(
        report.replayed_events,
        (second - first) as u64,
        "a tail as long as the interval"
    );
    let _ = fs::remove_dir_all(&durable.dir);
}

/// A crash straight after the rename: nothing lies past the anchor.
#[test]
fn crash_straight_after_a_checkpoint() {
    let events = workload(4, 60);
    let (mut d, durable) = fresh("after-rename", 64);
    let fed = feed_to_checkpoint(&mut d, &events, 2);
    let incidents = d.sentry().incidents().len() as u64;
    assert!(incidents > 0, "the workload raises incidents");
    d.simulate_crash(0);

    let report = assert_the_checkpoint_adds_nothing(&durable);
    assert_eq!(report.checkpoint_events, fed as u64);
    assert_eq!(report.replayed_events, 0);
    assert_eq!(report.chained_incidents, incidents, "all by their links");
    assert_eq!(report.adopted_incidents, incidents);
    let _ = fs::remove_dir_all(&durable.dir);
}

/// The first thing past the anchor is a torn record: the anchored open
/// cuts it off as the full scan does, and has nothing to replay.
#[test]
fn a_torn_record_is_the_first_thing_past_the_anchor() {
    let events = workload(4, 60);
    let (mut d, durable) = fresh("torn-at-anchor", 64);
    let fed = feed_to_checkpoint(&mut d, &events, 1);
    // Fewer than a sync batch: all of it pending when the crash comes.
    for e in &events[fed..fed + 5] {
        d.ingest(e).unwrap();
    }
    assert_eq!(d.durable_events(), fed as u64);
    d.simulate_crash(7);

    let report = assert_the_checkpoint_adds_nothing(&durable);
    assert_eq!(report.journal_bytes_truncated, 7);
    assert_eq!(report.replayed_events, 0);
    let _ = fs::remove_dir_all(&durable.dir);
}

/// Every incident lies before the anchor, and there are many; what
/// follows it raises none. All of them come back by their links, in the
/// order they were journaled.
#[test]
fn many_incidents_before_the_anchor_and_none_after() {
    let wave = workload(4, 30);
    let (mut d, durable) = fresh("incidents-before", 0);
    for _ in 0..8 {
        for e in &wave {
            d.ingest(e).unwrap();
        }
    }
    d.checkpoint().unwrap();
    let incidents = d.sentry().incidents().len() as u64;
    assert!(incidents >= 8, "every wave raises incidents");
    // Too few calls to fill a window: a tail without a verdict.
    let quiet: Vec<ProcessEvent> = (0..20)
        .map(|i| ProcessEvent::api(10_000 + i, 900 + (i % 4) as u32, 3))
        .collect();
    for e in &quiet {
        d.ingest(e).unwrap();
    }
    d.simulate_crash(0);

    let report = assert_the_checkpoint_adds_nothing(&durable);
    assert_eq!(report.chained_incidents, incidents);
    assert_eq!(report.adopted_incidents, incidents);
    assert_eq!(report.replay_incidents, 0);
    assert_eq!(report.replayed_events, 16, "one sync batch of the tail");
    let _ = fs::remove_dir_all(&durable.dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash anywhere — any number of times, any torn tail, any
    /// batching — and recovery plus cursor-resume reproduces the
    /// uninterrupted run's incidents exactly; and at every crash, so
    /// does recovery without the checkpoint.
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
                    // Whatever state that left, the checkpoint in it is
                    // a way to get there sooner and nothing else.
                    assert_the_checkpoint_adds_nothing(&durable);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The first property's crashes, over histories long enough that checkpoints have
    /// incidents behind them and crashes have checkpoints behind them:
    /// several waves of processes on the service loop's cadence. At
    /// every crash, recovery from the anchor and recovery without the
    /// checkpoint agree — and the run still ends on the oracle's
    /// incidents.
    #[test]
    fn recovery_with_and_without_the_checkpoint_agree_at_every_crash(
        waves in 2usize..6,
        n_pids in 2u32..5,
        calls_per in 12usize..30,
        kill_fracs in prop::collection::vec((0.0f64..1.0, 0usize..48), 1..5),
        sync_every in prop_oneof![Just(1usize), Just(8), Just(64)],
        checkpoint_every in prop_oneof![Just(16u64), Just(64), Just(128)],
    ) {
        let wave = workload(n_pids, calls_per);
        let events: Vec<ProcessEvent> = (0..waves).flat_map(|_| wave.clone()).collect();
        let mut oracle = Sentry::new(engine(), config());
        for e in &events {
            oracle.ingest(e);
        }
        oracle.drain();

        let mut kills: Vec<(usize, usize)> = kill_fracs
            .iter()
            .map(|&(f, torn)| ((f * events.len() as f64) as usize, torn))
            .collect();
        kills.sort_unstable();
        kills.dedup_by_key(|&mut (off, _)| off);
        let mut kills = kills.into_iter().peekable();

        let mut durable = DurableConfig::new(&tmpdir("anchor-equiv"));
        durable.journal.sync_every = sync_every;
        durable.checkpoint_every_events = checkpoint_every;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        let mut cursor = 0usize;
        while cursor < events.len() {
            if let Some((_, torn)) = kills.next_if(|&(off, _)| off == cursor) {
                d.simulate_crash(torn);
                assert_the_checkpoint_adds_nothing(&durable);
                d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
                cursor = d.durable_events() as usize;
                continue;
            }
            d.ingest(&events[cursor]).unwrap();
            cursor += 1;
            if cursor.is_multiple_of(16) {
                d.poll().unwrap();
            }
        }
        d.drain().unwrap();
        prop_assert_eq!(keys(d.sentry()), keys(&oracle));
        let _ = fs::remove_dir_all(&durable.dir);
    }
}
