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
//!
//! The scenario is a world of the sentry's crash world: its checker adds
//! the acknowledgement contract after every call.

#[path = "../crates/sentry/tests/common/mod.rs"]
mod common;

use common::{sends, wave, Moment, Op, World};

const PIDS: u32 = 6;

#[test]
fn tail_and_replay_queued_incidents_reach_the_next_digest() {
    let waves: Vec<_> = (0..3).map(|k| wave(PIDS, 30, 1_000 * k)).collect();
    let events = waves.concat();
    let wave_len = waves[0].len();

    // First incarnation: a checkpoint early in the first wave; the rest
    // of that wave served, its incidents made durable past the
    // checkpoint; then the second wave's first windows queued and never
    // served, and a crash. The reopen polls once before the producer
    // resumes from the durable cursor; the second incarnation
    // checkpoints, runs on, and crashes with a torn tail.
    let checkpoint_at = 16 * PIDS as usize;
    let crash_at = wave_len + 12 * PIDS as usize;
    let second_checkpoint = 2 * wave_len + 4 * PIDS as usize;
    let mut ops = sends(&events[..checkpoint_at]);
    ops.push(Op::Checkpoint);
    ops.extend(sends(&events[checkpoint_at..wave_len]));
    ops.extend([Op::Drain, Op::Quiet]);
    ops.extend(sends(&events[wave_len..crash_at]));
    ops.push(Op::Kill(0));
    ops.extend(sends(&events[crash_at..second_checkpoint]));
    ops.push(Op::Checkpoint);
    ops.extend(sends(&events[second_checkpoint..second_checkpoint + 40]));
    ops.push(Op::Kill(5));
    ops.extend(sends(&events[second_checkpoint + 40..]));
    let world = World {
        poll_after_reopen: true,
        sync_every: 16,
        checkpoint_every_events: 0,
        ..World::new("two-crashes", ops)
    };
    let expect = world.oracle();
    assert!(
        expect.len() >= 2 * PIDS as usize,
        "every wave raises incidents"
    );
    let run = world.run_probed(&expect, &mut |at, d| {
        // Incidents at open are the adopted ones: replay raises none.
        if at == Moment::Reopened(0) {
            assert!(
                d.sentry().incidents().len() as u64 > d.recovery().adopted_incidents,
                "the windows replay queued raise incidents at the first poll"
            );
        }
    });

    let digested = run.checkpoints[0].durable_incidents;
    assert!(digested > 0, "incidents before the checkpoint");
    let tail_incidents = run.reopens[0].durable_incidents - digested;
    assert!(tail_incidents > 0, "incidents past the checkpoint");

    // Reopen: the tail's incidents come from their own records, and
    // replay queues the second wave's windows again.
    let first = &run.reopens[0].report;
    assert_eq!(first.full_scan, None, "opened at the anchor");
    assert_eq!(first.chained_incidents, digested);
    assert_eq!(first.adopted_incidents, digested + tail_incidents);
    assert_eq!(first.duplicate_incidents, 0);

    // The anchored open holds: every incident before the anchor is in a
    // digest — the first tail's and the first poll's included — and it
    // agrees with a full scan of the same journal (the checker compares
    // their incidents and counters).
    let (second, scan_report) = (&run.reopens[1].report, &run.reopens[1].full_scan);
    assert_eq!(second.full_scan, None, "the anchor's digests add up");
    assert_eq!(
        second.chained_incidents,
        run.checkpoints[1].durable_incidents
    );
    assert_eq!(second.duplicate_incidents, 0);
    assert_eq!(scan_report.duplicate_incidents, 0);
    assert_eq!(second.adopted_incidents, scan_report.adopted_incidents);
}
