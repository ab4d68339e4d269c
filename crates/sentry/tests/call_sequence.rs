//! What the engine serves is a pure function of the `ingest`/`poll` call
//! sequence: nothing on the serving path reads a clock or how the
//! events reached the loop.
//!
//! So two service loops that receive the same events batched
//! differently — `run_service` pulling them off a bus a thousand at a
//! time, and a hand-written loop taking them in ragged bursts of 1 to
//! 37 — but follow the same rule (a poll after every `poll_every`-th
//! event, a drain and a checkpoint at the end) end with the same
//! incidents, the same durable cursor and equal [`SentryStats`]. The
//! feed keeps the overload governor's rounds, evictions and kills busy
//! along the way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;

use common::{engine, tmpdir, wave};
use csd_sentry::{
    run_service, ActionKind, DurableConfig, DurableSentry, EventBus, Incident, ProcessEvent,
    SentryConfig, SentryStats, ServiceConfig, SupervisorPolicy,
};

/// Long windows at a short stride, a staleness SLO the feed exceeds
/// and a queue that overflows: governor rounds, shedding and evictions
/// all depend on exactly when `ingest` and `poll` were called.
fn config() -> SentryConfig {
    let mut config = SentryConfig {
        window_len: 32,
        stride: 2,
        votes_needed: 2,
        vote_horizon: 3,
        action: ActionKind::Kill,
        staleness_slo: Some(24),
        ..SentryConfig::default()
    };
    config.mux.max_pending = 6;
    config
}

/// What the two loops must agree on: incidents in latch order, the
/// durable cursor, and every counter (the wall-clock rate zeroed).
fn outcome(incidents: &[Incident], durable_events: u64, stats: &SentryStats) -> String {
    let mut stats = stats.clone();
    stats.mux.verdicts_per_sec = 0.0;
    let keys: Vec<_> = incidents
        .iter()
        .map(|i| (i.sid, i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    format!(
        "{keys:?} {durable_events} {}",
        serde_json::to_string(&stats).expect("stats serialize")
    )
}

#[test]
fn loops_that_batch_the_events_differently_end_in_the_same_place() {
    // Three waves of four processes, calls interleaved.
    let events: Vec<ProcessEvent> = (0..3).flat_map(|k| wave(4, 120, k)).collect();
    // A lazy cadence: a poll that kept up would leave engine time over
    // for each window's last call, and the queue would never overflow.
    let service = ServiceConfig {
        poll_every: 256,
        ..ServiceConfig::default()
    };

    // `run_service` over a bus that already holds every event: it pulls
    // them in batches of the bus's choosing and stops at the first quiet
    // receive, with nothing left to deliver.
    let bus = EventBus::new(events.len());
    let producer = bus.producer();
    for e in &events {
        assert!(producer.send(e.clone()));
    }
    let stop = Arc::new(AtomicBool::new(true));
    let real_dir = tmpdir("run-service");
    let (real, report) = run_service(
        &SupervisorPolicy::default(),
        engine,
        &config(),
        &DurableConfig::new(&real_dir),
        &service,
        &bus,
        &stop,
    )
    .expect("journal I/O");
    assert_eq!(report.panics, 0);
    let real = real.expect("the loop completed");
    assert!(stop.load(Ordering::SeqCst));

    // The same rule by hand, the events taken in ragged bursts.
    let hand_dir = tmpdir("by-hand");
    let mut d = DurableSentry::open(engine(), config(), DurableConfig::new(&hand_dir))
        .expect("open durable sentry");
    let mut handed_back: Vec<Incident> = Vec::new();
    let (mut since_poll, mut at, mut burst) = (0u64, 0usize, 0usize);
    while at < events.len() {
        burst = (burst * 7 + 5) % 37 + 1;
        let end = (at + burst).min(events.len());
        for e in &events[at..end] {
            handed_back.extend(d.ingest(e).expect("journaled ingest"));
            since_poll += 1;
            if since_poll >= service.poll_every {
                since_poll = 0;
                handed_back.extend(d.poll().expect("journaled poll"));
            }
        }
        at = end;
    }
    handed_back.extend(d.drain().expect("final drain"));
    d.checkpoint().expect("final checkpoint");

    let stats = d.sentry().stats();
    assert!(stats.incidents > 0, "the feed raises incidents");
    assert!(stats.slo_polls > 0, "the governor ran rounds");
    assert!(stats.mux.evicted > 0, "the queue overflowed");
    assert_eq!(
        outcome(d.sentry().incidents(), d.durable_events(), &stats),
        outcome(&real.incidents, real.durable_events, &real.stats)
    );
    assert_eq!(handed_back.len(), d.sentry().incidents().len(), "each once");
    drop(d);
}
