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
//!   crash, `open` from the checkpoint's anchor and `open` of the
//!   journal alone — a scan and replay of the whole journal — end in
//!   the same place.
//!
//! The crash properties are worlds of the crash world
//! (`tests/common/mod.rs`), whose driver crashes, reopens and resumes
//! and whose checker holds every crash to the first and third
//! invariant and every call to the acknowledgement contract:
//!
//! - `crash_restart_at_arbitrary_offsets_matches_the_uninterrupted_run`:
//!   1–5 waves of 2–4 processes, 0–4 kills, any sync batch, a
//!   checkpoint every 16, 64 or 128 events or none, the service loop's
//!   cadence or no poll (64 cases: the 16 and 48 of the two properties
//!   it merges);
//! - `crash_straight_after_a_checkpoint`,
//!   `a_torn_record_is_the_first_thing_past_the_anchor` and
//!   `many_incidents_before_the_anchor_and_none_after`: crash
//!   placements chosen by hand around the checkpoint.
//!
//! `crash_between_a_checkpoints_journal_sync_and_its_rename` crashes by
//! hand, and rewrites the checkpoint files before the reopen; the
//! torn-tail property crashes the journal alone and corrupts its file.

use std::fs;

mod common;

use common::{sends, tmpdir, wave, with_kills, Moment, World, VOCAB};
use csd_sentry::{DurableConfig, DurableSentry, Journal, JournalConfig, ProcessEvent};
use proptest::prelude::*;

/// A world over `events` with the given kills, no poll, 16-event sync
/// batches and a checkpoint every 64 events.
fn around_the_checkpoint(name: &str, events: &[ProcessEvent], kills: &[(usize, usize)]) -> World {
    World {
        poll_every: 0,
        sync_every: 16,
        checkpoint_every_events: 64,
        ..World::new(name, with_kills(events, kills))
    }
}

/// The crash a checkpoint is most exposed to: its journal sync is done,
/// its rename is not. The journal holds everything; the checkpoint in
/// place is the one before, anchored a whole interval further back; a
/// half-written temporary lies beside it.
#[test]
fn crash_between_a_checkpoints_journal_sync_and_its_rename() {
    let events = wave(4, 60, 0);
    let world = around_the_checkpoint("before-rename", &events, &[]);
    let dir = tmpdir("before-rename");
    let mut durable = DurableConfig::new(&dir);
    durable.journal.sync_every = 16;
    durable.checkpoint_every_events = 64;
    let mut d = DurableSentry::open(common::engine(), common::config(), durable.clone()).unwrap();
    // No poll: the checkpoints fall at the 64th and 128th event.
    let (first, second) = (64, 128);
    for e in &events[..first] {
        d.ingest(e).unwrap();
    }
    assert_eq!(d.checkpoints_written(), 1);
    let previous = fs::read(durable.dir.join("checkpoint.snap")).unwrap();
    for e in &events[first..second] {
        d.ingest(e).unwrap();
    }
    assert_eq!(d.checkpoints_written(), 2);
    d.simulate_crash(0);
    let newer = fs::read(durable.dir.join("checkpoint.snap")).unwrap();
    fs::write(
        durable.dir.join("checkpoint.tmp"),
        &newer[..newer.len() / 2],
    )
    .unwrap();
    fs::write(durable.dir.join("checkpoint.snap"), &previous).unwrap();

    let (d, _) = world.reopen_both_ways(&durable);
    let report = d.recovery();
    assert_eq!(report.checkpoint_events, first as u64);
    assert_eq!(
        report.replayed_events,
        (second - first) as u64,
        "a tail as long as the interval"
    );
}

/// A crash straight after the rename: nothing lies past the anchor.
#[test]
fn crash_straight_after_a_checkpoint() {
    let events = wave(4, 60, 0);
    let world = around_the_checkpoint("after-rename", &events, &[(128, 0)]);
    let mut incidents = 0;
    let run = world.run_probed(&world.oracle(), &mut |at, d| {
        if at == Moment::Crash(0) {
            assert_eq!(d.checkpoints_written(), 2, "the crash follows the second");
            incidents = d.sentry().incidents().len() as u64;
        }
    });
    assert!(incidents > 0, "the workload raises incidents");
    let report = &run.reopens[0].report;
    assert_eq!(report.checkpoint_events, 128);
    assert_eq!(report.replayed_events, 0);
    assert_eq!(report.chained_incidents, incidents, "all by their links");
    assert_eq!(report.adopted_incidents, incidents);
}

/// The first thing past the anchor is a torn record: the anchored open
/// cuts it off as the full scan does, and has nothing to replay.
#[test]
fn a_torn_record_is_the_first_thing_past_the_anchor() {
    let events = wave(4, 60, 0);
    // Fewer than a sync batch past the first checkpoint: all of it
    // pending when the crash comes.
    let world = around_the_checkpoint("torn-at-anchor", &events, &[(64 + 5, 7)]);
    let run = world.run(&world.oracle());
    let reopen = &run.reopens[0];
    assert_eq!(reopen.durable_events, 64);
    assert_eq!(reopen.report.journal_bytes_truncated, 7);
    assert_eq!(reopen.report.replayed_events, 0);
}

/// Every incident lies before the anchor, and there are many; what
/// follows it raises none. All of them come back by their links, in the
/// order they were journaled.
#[test]
fn many_incidents_before_the_anchor_and_none_after() {
    let wave = wave(4, 30, 0);
    let mut ops = sends(&vec![wave; 8].concat());
    ops.push(common::Op::Checkpoint);
    // Too few calls to fill a window: a tail without a verdict.
    let quiet: Vec<ProcessEvent> = (0..20)
        .map(|i| ProcessEvent::api(10_000 + i, 900 + (i % 4) as u32, 3))
        .collect();
    ops.extend(sends(&quiet));
    ops.push(common::Op::Kill(0));
    let world = World {
        poll_every: 0,
        sync_every: 16,
        checkpoint_every_events: 0,
        ..World::new("incidents-before", ops)
    };
    let mut incidents = 0;
    let run = world.run_probed(&world.oracle(), &mut |at, d| {
        if at == Moment::Crash(0) {
            incidents = d.sentry().incidents().len() as u64;
        }
    });
    assert!(incidents >= 8, "every wave raises incidents");
    let report = &run.reopens[0].report;
    assert_eq!(report.chained_incidents, incidents);
    assert_eq!(report.adopted_incidents, incidents);
    assert_eq!(report.replayed_events, 16, "one sync batch of the tail");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash anywhere — any number of times, any torn tail, any
    /// batching, with or without polls and checkpoints, over one wave
    /// or over histories long enough that checkpoints have incidents
    /// behind them and crashes have checkpoints behind them — and
    /// recovery plus cursor-resume reproduces the uninterrupted run's
    /// incidents exactly; and at every crash, so does recovery without
    /// the checkpoint.
    #[test]
    fn crash_restart_at_arbitrary_offsets_matches_the_uninterrupted_run(
        waves in 1usize..6,
        n_pids in 2u32..5,
        calls_per in 6usize..30,
        kill_fracs in prop::collection::vec((0.0f64..1.0, 0usize..48), 0..5),
        sync_every in prop_oneof![Just(1usize), Just(8), Just(64)],
        checkpoint_every in prop_oneof![Just(0u64), Just(16), Just(64), Just(128)],
        poll_every in prop_oneof![Just(0u64), Just(16)],
    ) {
        let events = vec![wave(n_pids, calls_per, 0); waves].concat();
        // Kill points as absolute offsets, deduped and sorted; `f` < 1.0,
        // so every offset lands strictly inside the event stream.
        let mut kills: Vec<(usize, usize)> = (kill_fracs.iter())
            .map(|&(f, torn)| ((f * events.len() as f64) as usize, torn))
            .collect();
        kills.sort_unstable();
        kills.dedup_by_key(|&mut (off, _)| off);
        let world = World {
            poll_every,
            sync_every,
            checkpoint_every_events: checkpoint_every,
            ..World::new(
                format!(
                    "crash-{waves}x{n_pids}x{calls_per}-poll{poll_every}-sync{sync_every}\
                     -ckpt{checkpoint_every}-kills{kills:?}"
                ),
                with_kills(&events, &kills),
            )
        };
        world.run(&world.oracle());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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
        fs::create_dir_all(&*dir).unwrap();
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
        let recovered: Vec<&ProcessEvent> = recovery.events.iter().collect();
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
    }
}
