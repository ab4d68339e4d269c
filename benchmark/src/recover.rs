//! The recovery phase: `DurableSentry::open` on the state a crash
//! leaves, timed at five crash points of the closed-loop trace.
//!
//! The trace is fed into a fresh durable directory on the service
//! loop's cadence. Before each crash point the phase takes a
//! checkpoint, ingests three quarters of a checkpoint interval of
//! further events, and calls `simulate_crash` with a seeded torn tail.
//! The crashed files are set aside, and the `open` that follows —
//! journal scan, checkpoint load, incident adoption, tail replay — is
//! timed [`OPENS_PER_CRASH`] times, each on a fresh copy of exactly those
//! files; the fastest counts. Delivery then resumes from the journal's
//! durable cursor, so after the last crash the incident set must still
//! equal the oracle's.

use std::path::Path;

use csd_sentry::{DurableConfig, DurableSentry, JournalError, ProcessEvent};

use crate::check::{compare_incidents, Failures};
use crate::clock::{timed, Lap};
use crate::setup::Inputs;
use crate::workload::{CHECKPOINT_EVERY, CRASH_POINTS, OPENS_PER_CRASH, POLL_EVERY};

/// The files a durable directory holds.
const STATE_FILES: [&str; 2] = ["journal.log", "checkpoint.snap"];

/// What the recovery phase measured.
#[derive(Debug)]
pub struct Recovery {
    /// Per crash point: the fastest of its timed `open`s.
    pub opens: Vec<Lap>,
    /// Journal events replayed past the checkpoint, per crash point.
    pub replayed_events: Vec<u64>,
    /// Incidents re-adopted from the journal, per crash point.
    pub adopted_incidents: Vec<u64>,
    /// Events delivered (re-sends after a crash included).
    pub events_sent: u64,
    /// Wrong incidents in the final set.
    pub failures: Failures,
}

/// SplitMix64: the benchmark's own seeded choices (torn lengths) need
/// nothing stronger.
struct SplitMix(u64);

impl SplitMix {
    /// A value in `0..bound`.
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
    }
}

fn feed(
    sentry: &mut DurableSentry,
    events: &[ProcessEvent],
    sent: &mut u64,
) -> Result<(), JournalError> {
    for (i, event) in events.iter().enumerate() {
        sentry.ingest(event)?;
        if (i + 1).is_multiple_of(POLL_EVERY) {
            sentry.poll()?;
        }
    }
    *sent += events.len() as u64;
    Ok(())
}

fn copy_state(from: &Path, to: &Path) -> std::io::Result<()> {
    for file in STATE_FILES {
        std::fs::copy(from.join(file), to.join(file))?;
    }
    Ok(())
}

/// Runs the recovery phase in the empty directory `dir`.
pub fn recover_phase(inputs: &Inputs, dir: &Path, seed: u64) -> Result<Recovery, JournalError> {
    let crashed = dir.join("crashed");
    std::fs::create_dir_all(&crashed)?;
    let durable = DurableConfig::new(dir);
    let open = || {
        DurableSentry::open(
            inputs.engine.clone(),
            inputs.config.clone(),
            durable.clone(),
        )
    };
    let events = &inputs.closed.events;
    // One crash at the end of each fifth of the trace, the checkpoint
    // three quarters of an interval before it: replay length is most of
    // what `open` costs, so it is the same for every seed (runs with
    // different seeds are compared with each other); the seed picks the
    // torn tail's length.
    let slice = events.len() / CRASH_POINTS;
    let replay = (CHECKPOINT_EVERY as usize * 3 / 4).min(slice / 2);
    let mut rng = SplitMix(seed);
    let mut recovery = Recovery {
        opens: Vec::with_capacity(CRASH_POINTS),
        replayed_events: Vec::with_capacity(CRASH_POINTS),
        adopted_incidents: Vec::with_capacity(CRASH_POINTS),
        events_sent: 0,
        failures: Failures::default(),
    };

    let mut sentry = open()?;
    let mut cursor = 0usize;
    for j in 1..=CRASH_POINTS {
        let crash_at = j * slice;
        let checkpoint_at = (crash_at - replay).max(cursor);
        feed(
            &mut sentry,
            &events[cursor..checkpoint_at],
            &mut recovery.events_sent,
        )?;
        sentry.checkpoint()?;
        feed(
            &mut sentry,
            &events[checkpoint_at..crash_at],
            &mut recovery.events_sent,
        )?;
        sentry.simulate_crash(rng.below(40));
        copy_state(dir, &crashed)?;

        let (mut reopened, mut best) = (None, None::<Lap>);
        for _ in 0..OPENS_PER_CRASH {
            // The earlier incarnation lets go of its files first.
            drop(reopened.take());
            copy_state(&crashed, dir)?;
            let (opened, lap) = timed(open);
            reopened = Some(opened?);
            if best.is_none_or(|b| lap.ref_cpu_s() < b.ref_cpu_s()) {
                best = Some(lap);
            }
        }
        recovery.opens.extend(best);
        sentry = reopened.expect("at least one open per crash point");
        recovery
            .replayed_events
            .push(sentry.recovery().replayed_events);
        recovery
            .adopted_incidents
            .push(sentry.recovery().adopted_incidents);
        // At-least-once: re-send whatever the crash kept from the journal.
        cursor = sentry.durable_events() as usize;
    }
    feed(&mut sentry, &events[cursor..], &mut recovery.events_sent)?;
    sentry.drain()?;
    recovery.failures = compare_incidents(&inputs.closed.expected, sentry.sentry().incidents());
    Ok(recovery)
}
