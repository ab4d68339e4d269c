//! State follows the sessions alive now, not every session ever seen.
//!
//! The same fixed-concurrency churn — a process spawns, makes 100 calls,
//! exits, and another takes its slot — is run for 50 and for 5 000
//! processes. What the sentry tracks along the way, and what a
//! checkpoint taken with the last processes still running weighs, must
//! not depend on which of the two it was. Nor may what a reopen reads
//! of the journal: the bytes past the checkpoint and one record per
//! incident, however long the file has grown in front of them.

use std::fs;

mod common;

use common::{engine, sends, tmpdir, Op, World, VOCAB};
use csd_sentry::{
    DurableConfig, DurableSentry, ProcessEvent, RecoveryReport, Sentry, SentryConfig,
};

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
    sessions_end: usize,
    checkpoint_bytes: usize,
}

fn run_volatile(events: &[ProcessEvent]) -> Held {
    let mut sentry = Sentry::new(engine(), config());
    let mut sessions_peak = 0;
    for e in events {
        sentry.ingest(e);
        if sentry.events().is_multiple_of(POLL_EVERY) {
            sentry.poll();
        }
        sessions_peak = sessions_peak.max(sentry.sessions().tracked());
    }
    sentry.drain();
    // No session latches with a window still in the mux here, so a
    // verdict goes unfolded only if its session retired ahead of it.
    let stats = sentry.stats();
    assert_eq!(
        stats.mux.evicted + stats.mux.refused + stats.mux.rejected,
        0,
        "nothing shed"
    );
    assert_eq!(stats.verdicts_folded, stats.mux.verdicts);
    Held {
        sessions_peak,
        sessions_end: sentry.sessions().tracked(),
        checkpoint_bytes: serde_json::to_string(&sentry.snapshot())
            .expect("snapshot serializes")
            .len(),
    }
}

fn run_durable(events: &[ProcessEvent], tag: &str) -> Held {
    let dir = tmpdir(tag);
    let mut durable = DurableConfig::new(&dir);
    // The run is about state, not fsync: batch what may be batched.
    durable.journal.sync_every = 4096;
    let mut sentry = DurableSentry::open(engine(), config(), durable).expect("open");
    let mut sessions_peak = 0;
    for e in events {
        sentry.ingest(e).expect("journaled ingest");
        if sentry.sentry().events().is_multiple_of(POLL_EVERY) {
            sentry.poll().expect("journaled poll");
        }
        sessions_peak = sessions_peak.max(sentry.sentry().sessions().tracked());
    }
    sentry.checkpoint().expect("checkpoint");
    let held = Held {
        sessions_peak,
        sessions_end: sentry.sentry().sessions().tracked(),
        checkpoint_bytes: fs::metadata(dir.join("checkpoint.snap"))
            .expect("checkpoint written")
            .len() as usize,
    };
    held
}

fn assert_bounded(small: &Held, large: &Held) {
    for held in [small, large] {
        assert!(
            held.sessions_peak <= CONCURRENCY + AWAITING_SLACK,
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

/// A retired session's loss joins the sentry's retired total, so
/// per-session loss still adds up to what the mux counted.
#[test]
fn loss_of_retired_sessions_still_adds_up_to_the_mux_totals() {
    let mut config = config();
    // The ten streams submit a window per five events, no poll comes
    // (so none leaves engine time over for a window's last call) and
    // the queue holds one: most windows are evicted.
    config.mux.max_pending = 1;
    let sentry = Sentry::uninterrupted(engine(), config, &churn(200), 0);
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

/// `n` processes one after the other, each gone after five calls: too
/// few to fill a window, so a history that raises nothing.
fn quiet(n: usize) -> Vec<ProcessEvent> {
    let mut events = Vec::with_capacity(n * 7);
    for k in 0..n {
        let pid = 5000 + (k % 7) as u32;
        events.push(ProcessEvent::spawn(0, pid, "quiet.exe"));
        events.extend((0..5).map(|i| ProcessEvent::api(0, pid, (i + k) % VOCAB)));
        events.push(ProcessEvent::exit(0, pid));
    }
    events
}

/// What reopening a crashed run found and read.
struct Reopened {
    report: RecoveryReport,
    /// `journal.log` at the crash, and how much of it lies past the
    /// checkpoint.
    journal_bytes: u64,
    tail_bytes: u64,
    checkpoint_bytes: u64,
}

/// `events` through a durable sentry on the service cadence, a
/// checkpoint, [`TAIL`] more calls with no poll, a crash that keeps
/// every byte of them, and the reopen: a world of the crash world, held
/// to its checker.
fn crash_and_reopen(config: SentryConfig, events: &[ProcessEvent], tag: &str) -> Reopened {
    /// Calls ingested past the checkpoint, spread over the live
    /// processes: ten each, so every one of them closes a window there.
    const TAIL: usize = 100;
    let mut ops = sends(events);
    ops.extend([Op::Checkpoint, Op::Quiet]);
    ops.extend((0..TAIL).map(|i| {
        let pid = 1000 + (i % CONCURRENCY) as u32;
        Op::Send(ProcessEvent::api(0, pid, i % VOCAB))
    }));
    // Every pending byte reaches the file: whole records, all valid.
    ops.push(Op::Kill(usize::MAX));
    let world = World {
        config,
        poll_every: POLL_EVERY,
        sync_every: 4096,
        checkpoint_every_events: 0,
        ..World::new(tag, ops)
    };
    let run = world.run(&world.oracle());
    let reopen = &run.reopens[0];
    let report = reopen.report.clone();
    assert_eq!(report.full_scan, None, "{tag}: opened at the anchor");
    assert_eq!(report.replayed_events, TAIL as u64, "{tag}");
    assert_eq!(report.journal_bytes_truncated, 0, "{tag}");
    Reopened {
        report,
        journal_bytes: reopen.journal_bytes,
        tail_bytes: reopen.journal_bytes - run.checkpoints[0].journal_bytes,
        checkpoint_bytes: reopen.checkpoint_bytes.expect("checkpoint written"),
    }
}

#[test]
fn a_reopen_reads_the_tail_and_the_incidents_whatever_lies_before_them() {
    /// More than any record these runs journal (an event is ≈ 30 bytes,
    /// an incident ≈ 200): the slack for the record `open` reads back
    /// at the anchor, and the magic.
    const ONE_RECORD: u64 = 256;
    /// What one hop of the incident chain may read.
    const PER_INCIDENT: u64 = 512;

    // The churn, short and a hundred times as long: the journal grows a
    // hundredfold, what the reopen reads only by its incidents' records.
    let small = crash_and_reopen(config(), &churn(50), "reopen-small");
    let large = crash_and_reopen(config(), &churn(5_000), "reopen-large");
    assert!(large.journal_bytes > 90 * small.journal_bytes);
    assert!(large.report.chained_incidents >= 1_000, "the model flags");
    for run in [&small, &large] {
        let report = &run.report;
        assert_eq!(report.chained_incidents, report.adopted_incidents);
        let most = run.tail_bytes + PER_INCIDENT * report.chained_incidents + ONE_RECORD;
        assert!(
            (run.tail_bytes..=most).contains(&report.journal_bytes_scanned),
            "{report:?} of {} bytes, {} past the checkpoint",
            run.journal_bytes,
            run.tail_bytes
        );
    }
    assert_eq!(small.tail_bytes, large.tail_bytes);

    // A hundred times the history in front of the same incidents and
    // the same tail: the same bytes read, to within a record.
    let mut short = quiet(7);
    short.extend(churn(50));
    let mut long = quiet(70_000);
    long.extend(churn(50));
    let short = crash_and_reopen(config(), &short, "reopen-short");
    let long = crash_and_reopen(config(), &long, "reopen-long");
    assert!(long.journal_bytes > 90 * short.journal_bytes);
    assert_eq!(
        long.report.chained_incidents,
        short.report.chained_incidents
    );
    assert!(short.report.chained_incidents > 0);
    assert_eq!(long.tail_bytes, short.tail_bytes);
    assert!(
        long.report
            .journal_bytes_scanned
            .abs_diff(short.report.journal_bytes_scanned)
            <= ONE_RECORD,
        "{:?} vs {:?}",
        short.report,
        long.report
    );

    // The checkpoint carries where the incidents are, not the
    // incidents: the same churn with no incident before it (no process
    // lives long enough for three votes) weighs what it weighs with
    // over a thousand.
    let none = crash_and_reopen(
        SentryConfig {
            votes_needed: 3,
            vote_horizon: 3,
            ..config()
        },
        &churn(5_000),
        "reopen-none",
    );
    assert_eq!(none.report.adopted_incidents, 0);
    let one_session = none.checkpoint_bytes / CONCURRENCY as u64;
    assert!(
        large.checkpoint_bytes.abs_diff(none.checkpoint_bytes) < one_session,
        "{} bytes with no incident, {} with {}",
        none.checkpoint_bytes,
        large.checkpoint_bytes,
        large.report.adopted_incidents
    );
}
