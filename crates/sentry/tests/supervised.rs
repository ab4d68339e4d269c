//! The supervised service loop end to end: producers feed the bus,
//! chaos panics kill incarnations mid-stream, the supervisor respawns
//! each one from the journal + checkpoint on disk, and the final
//! incident set still matches an uninterrupted oracle run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;

use common::{config, engine, keys, tmpdir, wave, VOCAB};
use csd_sentry::{
    run_service, ActionOutcome, DurableConfig, EventBus, Journal, JournalConfig, ProcessEvent,
    Sentry, ServiceConfig, SupervisorPolicy,
};

#[test]
fn supervised_loop_survives_chaos_panics_with_incident_parity() {
    let events = wave(6, 39, 7);

    // Oracle: plain sentry, uninterrupted.
    let expect = keys(Sentry::uninterrupted(engine(), config(), &events, 16).incidents());
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
}

#[test]
fn supervised_loop_without_chaos_matches_the_oracle_exactly() {
    let events = wave(5, 31, 7);
    let expect = keys(Sentry::uninterrupted(engine(), config(), &events, 16).incidents());

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
}

/// Nor does a quiet bus delay the next detonation. The drain the loop
/// makes on a quiet bus grants no engine time, and the poll after it
/// does, so the window that ends the quiet is classified at its last
/// call: the process is killed while it runs, not found exited by the
/// next drain.
#[test]
fn the_window_after_a_quiet_bus_is_classified_at_its_last_call() {
    let offline = engine();
    let calls: Vec<usize> = (0..64)
        .map(|salt| (0..8).map(|i| (i * 7 + salt * 3) % VOCAB).collect())
        .find(|calls: &Vec<usize>| offline.classify(calls).is_positive)
        .expect("some window classifies positive");

    let dir = tmpdir("after-quiet");
    let bus = EventBus::new(64);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));
    let service = ServiceConfig::default();
    // The host: events that reach a poll and complete no window, a
    // quiet stretch, then a detonation that exits at once, in fewer
    // events than a poll's cadence, and quiet again.
    let host = {
        let stop = Arc::clone(&stop);
        let (quiet, poll_every) = (service.recv_timeout * 20, service.poll_every);
        std::thread::spawn(move || {
            for t in 0..poll_every {
                assert!(producer.send(ProcessEvent::spawn(t, 800 + t as u32, "idle.exe")));
            }
            std::thread::sleep(quiet);
            assert!(producer.send(ProcessEvent::spawn(100, 900, "evil.exe")));
            for (i, &call) in calls.iter().enumerate() {
                assert!(producer.send(ProcessEvent::api(101 + i as u64, 900, call)));
            }
            assert!(producer.send(ProcessEvent::exit(200, 900)));
            std::thread::sleep(quiet);
            stop.store(true, Ordering::SeqCst);
        })
    };
    let (outcome, _) = run_service(
        &SupervisorPolicy::default(),
        engine,
        &config(),
        &DurableConfig::new(&dir),
        &service,
        &bus,
        &stop,
    )
    .expect("journal healthy");
    host.join().expect("host thread");
    let outcome = outcome.expect("completed");
    assert_eq!(outcome.incidents.len(), 1);
    let incident = &outcome.incidents[0];
    assert_eq!((incident.pid, incident.alert.at_call), (900, 8));
    assert!(!incident.post_exit, "classified while the process ran");
    assert!(
        matches!(incident.outcome, ActionOutcome::Applied { .. }),
        "{incident:?}"
    );
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
        let (stop, dir, recv_timeout) =
            (Arc::clone(&stop), dir.to_path_buf(), service.recv_timeout);
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
                journaled = found.incidents.iter().filter(|i| i.pid == 900).count();
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
}
