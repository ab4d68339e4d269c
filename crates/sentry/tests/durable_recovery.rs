//! Recovery of the durable sentry, crash by crash: each test is a world
//! of the crash world (`tests/common/mod.rs`), whose checker holds every
//! call to the acknowledgement contract and the run to the uninterrupted
//! run's incidents. A test adds what its crash is about: where the
//! checkpoint was, what was held, what the backend did.

use std::fs;

mod common;

use common::{config, engine, keys, sends, wave, with_kills, Moment, Op, Run, Scratch, World};
use csd_sentry::{
    ActionOutcome, ActionTaken, DurableConfig, DurableSentry, FullScan, Journal, JournalConfig,
    ProcessEvent, QuarantineBackend, Sentry,
};

/// Closes the run's sentry and opens its directory once more.
fn open_again(run: Run) -> (Scratch, DurableSentry) {
    let Run { sentry, dir, .. } = run;
    drop(sentry);
    let d = DurableSentry::open(engine(), config(), DurableConfig::new(&dir)).unwrap();
    (dir, d)
}

/// A spawn name past its length field is journaled cut at a
/// character boundary, so its record reads back and a reopen
/// reaches every event and incident synced after it.
#[test]
fn a_spawn_name_past_its_length_field_survives_a_reopen() {
    let mut events = vec![ProcessEvent::spawn(0, 99, &"é".repeat(40_000))];
    events.extend((1..6).map(|t| ProcessEvent::api(t, 99, t as usize)));
    events.extend(wave(6, 39, 7));
    let mut ops = sends(&events);
    ops.extend([Op::Drain, Op::Kill(0)]);
    let world = World {
        checkpoint_every_events: 0,
        ..World::new("long-name", ops)
    };
    let (mut durable_events, mut live) = (0, Vec::new());
    world.run_probed(&world.oracle(), &mut |at, d| match at {
        Moment::Crash(_) => {
            (durable_events, live) = (d.durable_events(), keys(d.sentry().incidents()))
        }
        Moment::Reopened(_) => {
            assert_eq!(d.recovery().journal_bytes_truncated, 0);
            assert_eq!(d.durable_events(), durable_events);
            assert_eq!(keys(d.sentry().incidents()), live);
        }
    });
    assert_eq!(durable_events, events.len() as u64);
    assert!(!live.is_empty() && live.iter().all(|k| k.1 != 99));
}

/// A backend that fails every dispatch against the PIDs of a
/// three-process wave: the process it fails on keeps running.
#[derive(Debug)]
struct FailsOnTheWave;

impl QuarantineBackend for FailsOnTheWave {
    fn kill(&mut self, pid: u32, _name: Option<&str>) -> Result<String, String> {
        if (100..103).contains(&pid) {
            Err(format!("pid {pid} is still running"))
        } else {
            Ok(format!("pid {pid} terminated"))
        }
    }

    fn quarantine(&mut self, pid: u32, name: Option<&str>) -> Result<String, String> {
        self.kill(pid, name)
    }
}

/// A kill the backend fails is not a kill, live or recovered: the
/// processes keep running, so a crash after their incidents are
/// durable replays their later calls into live sessions, and the
/// reopened run ends where the uninterrupted one does — same
/// incidents and outcomes, same counters, no call dropped as a
/// kill's straggler.
#[test]
fn a_failed_kill_recovers_as_a_live_session() {
    let events = wave(3, 119, 7);
    let mut want = Sentry::new(engine(), config());
    want.set_backend(Box::new(FailsOnTheWave));
    for (i, e) in events.iter().enumerate() {
        want.ingest(e);
        if (i + 1).is_multiple_of(16) {
            want.poll();
        }
    }
    want.drain();
    let failed = want.incidents().len() as u64;
    assert!(failed > 0);
    assert!(want
        .incidents()
        .iter()
        .all(|i| matches!(i.outcome, ActionOutcome::Failed(_))));

    // Checkpoint once every incident is durable, crash later: reopen
    // adopts them and replays their sessions' later calls.
    let mut ops = sends(&events[..120]);
    ops.push(Op::Checkpoint);
    ops.extend(with_kills(&events[120..], &[(180, 0)]));
    let world = World {
        backend: Some(|| Box::new(FailsOnTheWave)),
        ..World::new("failed-kill", ops)
    };
    let run = world.run(&keys(want.incidents()));
    assert_eq!(run.reopens[0].report.adopted_incidents, failed);

    let d = &run.sentry;
    assert_eq!(d.sentry().incidents(), want.incidents());
    let (got, mut want) = (d.sentry().stats(), want.stats());
    assert_eq!((got.actions_failed, got.dropped_after_kill), (failed, 0));
    want.mux = got.mux;
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

/// The incidents whose kill applied and whose session is still tracked.
fn applied_kills(d: &DurableSentry) -> Vec<(u64, u32)> {
    let sentry = d.sentry();
    sentry
        .incidents()
        .iter()
        .filter(|i| i.action == ActionTaken::Killed)
        .filter(|i| matches!(i.outcome, ActionOutcome::Applied { .. }))
        .filter(|i| sentry.sessions().session(i.sid).is_some())
        .map(|i| (i.sid, i.pid))
        .collect()
}

/// What a kill left of the sessions it stopped: the calls dropped as
/// its stragglers, and each killed session's calls.
fn kill_marks(d: &DurableSentry, kills: &[(u64, u32)]) -> (u64, Vec<u64>) {
    let sentry = d.sentry();
    let calls = kills
        .iter()
        .map(|&(sid, _)| sentry.sessions().session(sid).unwrap().calls_seen())
        .collect();
    (sentry.stats().dropped_after_kill, calls)
}

/// An applied kill is adopted onto its session whether the session
/// is in the checkpoint or created by replay: a reopen that replays
/// the whole journal marks the sessions it creates killed at the call
/// where the kill took effect, so the calls before it count as the
/// session's own, the calls after it are dropped as a kill's
/// stragglers, and a further call on one of their PIDs is dropped too,
/// as in the run that raised the kill.
#[test]
fn an_adopted_kill_is_marked_on_the_session_replay_creates() {
    let events = wave(3, 119, 7);
    let mut ops = sends(&events[..300]);
    ops.extend([Op::Drain, Op::Kill(0)]);
    let world = World {
        checkpoint_every_events: 0,
        ..World::new("replayed-kill", ops)
    };
    let (mut live, mut marks) = (Vec::new(), (0, Vec::new()));
    let mut run = world.run_probed(&world.oracle(), &mut |at, d| match at {
        Moment::Crash(_) => {
            live = applied_kills(d);
            assert_eq!(live.len(), 3, "every session killed and still tracked");
            marks = kill_marks(d, &live);
        }
        Moment::Reopened(_) => {
            assert_eq!(d.recovery().full_scan, Some(FullScan::NoCheckpoint));
            assert_eq!(applied_kills(d), live);
        }
    });
    let d = &mut run.sentry;
    // The producer has re-sent what the crash lost: the same calls.
    assert_eq!(kill_marks(d, &live), marks, "killed where the kill landed");
    for (t, &(sid, pid)) in (10_000u64..).zip(&live) {
        let session = d.sentry().sessions().session(sid).unwrap();
        assert!(session.is_killed(), "session {sid}");
        let dropped = d.sentry().stats().dropped_after_kill;
        d.ingest(&ProcessEvent::api(t, pid, 1)).unwrap();
        assert_eq!(
            d.sentry().stats().dropped_after_kill,
            dropped + 1,
            "pid {pid}"
        );
    }
}

#[test]
fn recovery_without_checkpoint_replays_the_whole_journal() {
    let events = wave(4, 29, 7);
    // Crash without ever polling or draining: all verdicts still in
    // flight.
    let world = World {
        poll_every: 0,
        sync_every: 8,
        checkpoint_every_events: 0,
        ..World::new("nockpt", with_kills(&events, &[(events.len(), 3)]))
    };
    let run = world.run(&world.oracle());
    let reopen = &run.reopens[0];
    assert_eq!(reopen.report.checkpoint_events, 0);
    assert_eq!(reopen.report.replayed_events, reopen.durable_events);
}

#[test]
fn adopted_incidents_are_not_raised_twice_nor_redispatched() {
    let events = wave(4, 29, 7);
    // Drain so incidents latch and journal, *then* crash: the
    // reopened sentry must adopt them, and replaying the same
    // events must not raise them again.
    let mut ops = sends(&events);
    ops.extend([Op::Drain, Op::Kill(0)]);
    let world = World {
        poll_every: 0,
        checkpoint_every_events: 0,
        ..World::new("adopt", ops)
    };
    let expect = world.oracle();
    let mut n_incidents = 0;
    let run = world.run_probed(&expect, &mut |at, d| match at {
        Moment::Crash(_) => n_incidents = d.sentry().incidents().len(),
        Moment::Reopened(_) => {
            assert_eq!(d.recovery().adopted_incidents, n_incidents as u64);
            assert_eq!(keys(d.sentry().incidents()), expect);
            assert_eq!(d.sentry().incidents().len(), n_incidents, "no duplicates");
        }
    });
    assert!(n_incidents > 0);

    // And a *third* open sees exactly one journal record per
    // incident — the second open journaled nothing new.
    let (_dir, d) = open_again(run);
    assert_eq!(d.recovery().adopted_incidents, n_incidents as u64);
    assert_eq!(d.recovery().duplicate_incidents, 0);
}

/// A checkpoint that fails its CRC, or that is there and cannot be
/// read, is a discarded checkpoint, reported — not a first start — and
/// the journal alone reaches the same incidents.
#[test]
fn a_corrupt_or_unreadable_checkpoint_is_discarded_not_absent() {
    let mut ops = sends(&wave(4, 29, 7));
    ops.push(Op::Drain);
    let world = World {
        checkpoint_every_events: 40,
        ..World::new("bad-checkpoint", ops)
    };
    let expect = world.oracle();
    let run = world.run(&expect);
    assert!(run.sentry.checkpoints_written() > 0);
    let (dir, d) = open_again(run);
    assert_eq!(d.recovery().full_scan, None, "readable: used");
    drop(d); // clean shutdown
    let durable = DurableConfig {
        checkpoint_every_events: 40,
        ..DurableConfig::new(&dir)
    };
    let ckpt = dir.join("checkpoint.snap");

    // Corrupt the checkpoint body: CRC check must reject it.
    let mut bytes = fs::read(&ckpt).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0x01;
    fs::write(&ckpt, &bytes).unwrap();
    let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
    assert!(d.recovery().checkpoint_discarded());
    assert_eq!(d.recovery().checkpoint_events, 0);
    assert_eq!(
        keys(d.sentry().incidents()),
        expect,
        "journal-only recovery is exact"
    );
    drop(d);

    // A directory where the file should be: `read` fails, and not
    // with `NotFound`.
    fs::remove_file(&ckpt).unwrap();
    fs::create_dir(&ckpt).unwrap();
    let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
    assert_eq!(d.recovery().full_scan, Some(FullScan::CheckpointInvalid));
    assert!(d.recovery().checkpoint_discarded());
    assert_eq!(
        keys(d.sentry().incidents()),
        expect,
        "the journal alone is enough"
    );
    drop(d);

    // No file: a first start, nothing discarded.
    fs::remove_dir(&ckpt).unwrap();
    let d = DurableSentry::open(engine(), config(), durable).unwrap();
    assert_eq!(d.recovery().full_scan, Some(FullScan::NoCheckpoint));
    assert!(!d.recovery().checkpoint_discarded());
}

/// Crash after most sessions have ended and retired: recovery
/// reaches the oracle's incidents, adopts every journaled one, and
/// comes up tracking the sessions alive at the crash — not one
/// session per incident the journal remembers.
#[test]
fn crash_after_sessions_retired_recovers_exactly_and_stays_small() {
    // Six waves on the same four PIDs: each wave's sessions exit
    // (and retire at the next checkpoint's drain) before the next
    // wave reuses their PIDs.
    let wave = wave(4, 29, 7);
    let events = vec![wave.clone(); 6].concat();
    let kill_at = 5 * wave.len() + wave.len() / 2;
    let world = World {
        checkpoint_every_events: 50,
        sync_every: 16,
        ..World::new("retired", with_kills(&events, &[(kill_at, 5)]))
    };
    let expect = world.oracle();
    assert!(expect.len() >= 6, "every wave must produce incidents");
    let run = world.run_probed(&expect, &mut |at, d| match at {
        Moment::Crash(_) => assert!(
            d.sentry().sessions().tracked() <= 4,
            "five waves have retired"
        ),
        Moment::Reopened(_) => {
            let table = d.sentry().sessions();
            let live = table.started() - table.ended_count();
            assert!(live <= 4);
            assert!(table.tracked() as u64 <= live + d.recovery().replayed_events);
        }
    });
    // Every incident journaled at the crash — durable, or held in the
    // pending tail, which the crash forgets and replay raises again —
    // the checker's ledger saw; the durable ones are adopted.
    let reopen = &run.reopens[0];
    assert!(reopen.report.checkpoint_events > 0, "a checkpoint restored");
    assert_eq!(reopen.report.adopted_incidents, reopen.durable_incidents);
    assert_eq!(
        run.sentry.sentry().sessions().tracked(),
        0,
        "all exited, all retired"
    );
}

/// One seeded feed through every kind of call, the acknowledgement
/// contract checked after each: automatic checkpoints and batch
/// syncs along the way, then an explicit drain and checkpoint.
#[test]
fn incidents_come_back_once_and_only_after_they_are_durable() {
    let events = vec![wave(5, 29, 7); 4].concat();
    let mut ops = sends(&events);
    ops.extend([Op::Drain, Op::Checkpoint]);
    let world = World {
        checkpoint_every_events: 150,
        sync_every: 24,
        ..World::new("ledger", ops)
    };
    let expect = world.oracle();
    assert!(expect.len() >= 4);
    let run = world.run(&expect);
    assert_eq!(
        run.checkpoints[0].handed_back, 0,
        "the drain left nothing to hand back"
    );
    assert_eq!(run.handed_back, expect.len());
}

/// The crash window group commit widens: an incident raised but not
/// yet synced is forgotten by the crash, so recovery raises it
/// again — once — and the final set is still the oracle's. The crash
/// comes at the first call that leaves an incident held: framed into
/// the journal's pending tail, not durable, not handed back.
#[test]
fn crash_while_an_incident_is_held_raises_it_again_exactly_once() {
    let world = World {
        // No batch fills and no credit is ever banked, so what a poll
        // raises waits for the commit deadline or a drain.
        kill_when: Some(|d| d.journal().pending_incidents() > 0),
        sync_every: usize::MAX,
        checkpoint_every_events: 0,
        ..World::new("held-crash", sends(&wave(6, 39, 7)))
    };
    let expect = world.oracle();
    let mut held: Vec<u64> = Vec::new();
    let run = world.run_probed(&expect, &mut |at, d| {
        if at == Moment::Crash(0) {
            held = d.sentry().incidents().iter().map(|i| i.sid).collect();
            assert_eq!(d.journal().durable_incidents(), 0);
            assert_eq!(d.journal().pending_incidents(), held.len());
        }
    });
    assert_eq!(
        run.reopens[0].report.adopted_incidents, 0,
        "the crash forgot the held record"
    );
    for &sid in &held {
        let raised = run
            .sentry
            .sentry()
            .incidents()
            .iter()
            .filter(|i| i.sid == sid);
        assert_eq!(raised.count(), 1, "session {sid} raised again exactly once");
    }

    // The journal holds one record per incident.
    let (_dir, d) = open_again(run);
    assert_eq!(d.recovery().adopted_incidents, expect.len() as u64);
    assert_eq!(d.recovery().duplicate_incidents, 0);
}

/// The monotone-dedup watermark must survive a checkpoint: events
/// before the checkpoint are never replayed, so if the watermark
/// were volatile, a duplicate frame re-sent across the crash would
/// be ingested twice.
#[test]
fn dedup_watermark_survives_checkpoint_and_crash() {
    let mut cfg = config();
    cfg.dedup_monotone_ts = true;
    // The at-least-once producer re-sends the last frame.
    let ops = vec![
        Op::Send(ProcessEvent::api(10, 1, 3)),
        Op::Send(ProcessEvent::api(11, 1, 5)),
        Op::Checkpoint,
        Op::Kill(0),
        Op::Send(ProcessEvent::api(11, 1, 5)),
    ];
    let world = World {
        config: cfg,
        ..World::new("dedup-watermark", ops)
    };
    let run = world.run(&world.oracle());
    assert_eq!(run.reopens[0].report.checkpoint_events, 2);
    let stats = run.sentry.sentry().stats();
    assert_eq!(stats.dup_events, 1, "watermark crossed the crash");
    let calls: u64 = run
        .sentry
        .sentry()
        .sessions()
        .sessions()
        .map(|s| s.calls_seen())
        .sum();
    assert_eq!(calls, 2, "the re-sent frame was not ingested twice");
}

/// Two incident records of one session — a crash interleaved with a
/// partly completed adoption could leave them — are adopted once and
/// the second counted, never re-applied: by a full scan, and by the
/// anchored open that reads both from the checkpoint's digest.
#[test]
fn a_second_record_of_one_incident_is_counted_not_adopted() {
    let dir = common::tmpdir("duplicate-incident");
    let live = Sentry::uninterrupted(engine(), config(), &wave(6, 39, 7), 16);
    let incident = &live.incidents()[0];
    // The sentry heads the journal with its state's id, which the
    // journal keeps when it is opened on its own.
    let durable = DurableConfig::new(&dir);
    drop(DurableSentry::open(engine(), config(), durable.clone()).unwrap());
    let (mut journal, _) =
        Journal::open(&dir.join("journal.log"), JournalConfig::default()).unwrap();
    journal.append_incident(incident).unwrap();
    journal.append_incident(incident).unwrap();
    journal.sync().unwrap();
    drop(journal);

    let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
    let report = d.recovery();
    assert_eq!(report.full_scan, Some(FullScan::NoCheckpoint));
    assert_eq!(
        (report.adopted_incidents, report.duplicate_incidents),
        (1, 1)
    );
    assert_eq!(d.sentry().incidents(), std::slice::from_ref(incident));

    d.checkpoint().unwrap();
    drop(d);
    let d = DurableSentry::open(engine(), config(), durable).unwrap();
    let report = d.recovery();
    assert_eq!(report.full_scan, None, "opened at the anchor");
    assert_eq!(report.chained_incidents, 2, "both records from the digest");
    assert_eq!(
        (report.adopted_incidents, report.duplicate_incidents),
        (1, 1)
    );
    assert_eq!(d.sentry().incidents(), std::slice::from_ref(incident));
}
