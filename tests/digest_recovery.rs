//! Incident digests across two crashes, through the whole durable stack.
//!
//! A durable sentry checkpoints, raises incidents in the tail past the
//! checkpoint, queues windows it has not served, and crashes. The
//! reopen adopts the tail's incidents from their own records — no
//! digest holds them yet — and replay queues the unserved windows again,
//! whose incidents the first poll raises. The next checkpoint must
//! digest both: otherwise the second crash's open finds digest counts
//! that do not add up to its anchor and falls back to a full scan. So
//! the second open must start at its anchor, read every incident before
//! it from digests, agree with a full scan of the same journal, and end
//! — once the producer has resumed from the durable cursor — on the
//! uninterrupted run's incident set, no incident adopted twice.

use std::fs;
use std::path::{Path, PathBuf};

use csd_inference::accel::{CsdInferenceEngine, OptimizationLevel};
use csd_inference::nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_inference::sentry::{
    ActionKind, DurableConfig, DurableSentry, Incident, ProcessEvent, RecoveryReport, Sentry,
    SentryConfig,
};

const VOCAB: usize = 16;
/// The service loop's cadence: a poll every this many events.
const POLL_EVERY: usize = 16;
const PIDS: u32 = 6;

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

/// One wave: [`PIDS`] processes spawn, make `calls` interleaved calls
/// each, and exit. Waves reuse the PIDs, as the OS would.
fn wave(t0: u64, calls: usize) -> Vec<ProcessEvent> {
    let mut t = t0;
    let mut tick = || {
        t += 1;
        t
    };
    let mut events: Vec<ProcessEvent> = (0..PIDS)
        .map(|pid| ProcessEvent::spawn(tick(), 100 + pid, "w.exe"))
        .collect();
    for round in 0..calls {
        for pid in 0..PIDS {
            let call = (round * 7 + pid as usize * 3 + t0 as usize) % VOCAB;
            events.push(ProcessEvent::api(tick(), 100 + pid, call));
        }
    }
    events.extend((0..PIDS).map(|pid| ProcessEvent::exit(tick(), 100 + pid)));
    events
}

/// Incident identity across runs: session, process, name, deciding
/// call, action.
fn keys(incidents: &[Incident]) -> Vec<(u64, u32, Option<String>, usize, String)> {
    let mut keys: Vec<_> = incidents
        .iter()
        .map(|i| {
            (
                i.sid,
                i.pid,
                i.name.clone(),
                i.alert.at_call,
                format!("{:?}", i.action),
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Ingests `events` on the service loop's cadence; `poll: false` queues
/// windows without serving them.
fn feed(d: &mut DurableSentry, events: &[ProcessEvent], poll: bool) {
    for e in events {
        d.ingest(e).expect("journaled ingest");
        if poll && (d.sentry().events() as usize).is_multiple_of(POLL_EVERY) {
            d.poll().expect("journaled poll");
        }
    }
}

fn open(durable: &DurableConfig) -> DurableSentry {
    DurableSentry::open(engine(), config(), durable.clone()).expect("open")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csd-digest-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The journal alone, opened from a directory of its own: the full
/// scan, which needs no digest.
fn full_scan(dir: &Path) -> (Vec<Incident>, RecoveryReport) {
    let bare = tmpdir("bare");
    fs::create_dir_all(&bare).expect("bare dir");
    fs::copy(dir.join("journal.log"), bare.join("journal.log")).expect("copy journal");
    let d = open(&DurableConfig::new(&bare));
    let seen = (d.sentry().incidents().to_vec(), d.recovery().clone());
    drop(d);
    let _ = fs::remove_dir_all(&bare);
    seen
}

#[test]
fn tail_and_replay_queued_incidents_reach_the_next_digest() {
    let waves: Vec<Vec<ProcessEvent>> = (0..3).map(|k| wave(1_000 * k, 30)).collect();
    let events: Vec<ProcessEvent> = waves.concat();
    let expect = keys(Sentry::uninterrupted(engine(), config(), &events, POLL_EVERY).incidents());
    assert!(
        expect.len() >= 2 * PIDS as usize,
        "every wave raises incidents"
    );

    let dir = tmpdir("two-crashes");
    let mut durable = DurableConfig::new(&dir);
    durable.checkpoint_every_events = 0;
    durable.journal.sync_every = 16;
    let wave_len = waves[0].len();

    // First incarnation: a checkpoint early in the first wave; the rest
    // of that wave served, its incidents made durable past the
    // checkpoint; then the second wave's first windows queued and never
    // served, and a crash.
    let mut d = open(&durable);
    let checkpoint_at = 16 * PIDS as usize;
    feed(&mut d, &events[..checkpoint_at], true);
    d.checkpoint().expect("checkpoint");
    let digested = d.journal().durable_incidents();
    assert!(digested > 0, "incidents before the checkpoint");
    feed(&mut d, &events[checkpoint_at..wave_len], true);
    d.drain().expect("drain");
    let crash_at = wave_len + 12 * PIDS as usize;
    feed(&mut d, &events[wave_len..crash_at], false);
    let tail_incidents = d.journal().durable_incidents() - digested;
    assert!(tail_incidents > 0, "incidents past the checkpoint");
    d.simulate_crash(0);

    // Reopen: the tail's incidents come from their own records, and
    // replay queues the second wave's windows again.
    let mut d = open(&durable);
    let first = d.recovery().clone();
    assert_eq!(first.full_scan, None, "opened at the anchor");
    assert_eq!(first.chained_incidents, digested);
    assert_eq!(first.adopted_incidents, digested + tail_incidents);
    assert_eq!(first.duplicate_incidents, 0);
    let adopted = d.sentry().incidents().len();
    d.poll().expect("poll");
    assert!(
        d.sentry().incidents().len() > adopted,
        "the windows replay queued raise incidents at the first poll"
    );

    // Resume from the durable cursor, checkpoint, run on, crash again
    // with a torn tail.
    let resume = d.durable_events() as usize;
    assert!(resume <= crash_at);
    let second_checkpoint = 2 * wave_len + 4 * PIDS as usize;
    feed(&mut d, &events[resume..second_checkpoint], true);
    d.checkpoint().expect("checkpoint");
    let at_checkpoint = d.journal().durable_incidents();
    feed(
        &mut d,
        &events[second_checkpoint..second_checkpoint + 40],
        true,
    );
    d.simulate_crash(5);

    // The anchored open holds: every incident before the anchor is in a
    // digest — the first tail's and the first poll's included — and it
    // agrees with a full scan of the same journal.
    let (scanned, scan_report) = full_scan(&dir);
    let mut d = open(&durable);
    let second = d.recovery().clone();
    assert_eq!(second.full_scan, None, "the anchor's digests add up");
    assert_eq!(second.chained_incidents, at_checkpoint);
    assert_eq!(second.duplicate_incidents, 0);
    assert_eq!(scan_report.duplicate_incidents, 0);
    assert_eq!(keys(d.sentry().incidents()), keys(&scanned));
    assert_eq!(second.adopted_incidents, scan_report.adopted_incidents);

    let resume = d.durable_events() as usize;
    feed(&mut d, &events[resume..], true);
    d.drain().expect("drain");
    assert_eq!(
        keys(d.sentry().incidents()),
        expect,
        "the uninterrupted run's incidents, each once"
    );
    drop(d);
    let _ = fs::remove_dir_all(&dir);
}
