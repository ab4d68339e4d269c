//! Replayable process-event traces: the corpus as live traffic.
//!
//! The dataset (29K labelled windows, §IV) is a batch artifact; the
//! deployment the paper targets is a *monitor* watching many processes
//! at once. This module bridges the two: [`interleave`] turns a
//! [`Dataset`](crate::dataset::Dataset) into one merged [`EventTrace`]
//! in which every entry becomes a process — spawn, its API calls at
//! jittered microsecond inter-arrival times, exit — and all processes
//! run concurrently. Replaying the trace through a live ingestion
//! service exercises exactly the interleaving pressure (sessions
//! starting and dying mid-stream, verdicts racing exits) that a batch
//! sweep never does, while keeping a per-entry oracle: each process
//! replays one labelled window, so the service's per-process verdicts
//! can be checked 1:1 against offline classification.
//!
//! Everything is seeded: the same `(dataset, seed, profile)` triple
//! yields the same trace, event for event.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::dataset::Dataset;

/// What a traced process did at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Process start, with its image name (the dataset entry's source
    /// key, e.g. `"Wannacry#3/Win10/r2"`).
    Spawn(String),
    /// One API call, by vocabulary index.
    Api(usize),
    /// Process exit.
    Exit,
}

/// One timestamped process event in a replayable trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds from the trace origin.
    pub t_us: u64,
    /// Process id. [`interleave`] assigns each entry a distinct pid;
    /// hand-built traces may recycle pids to model OS reuse.
    pub pid: u32,
    /// The event.
    pub kind: TraceEventKind,
}

/// Shapes the synthetic arrival process of [`interleave`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayProfile {
    /// Mean inter-arrival gap between one process's API calls, µs.
    pub mean_gap_us: u64,
    /// Each gap is drawn uniformly from
    /// `[mean·(1−jitter), mean·(1+jitter)]`; `0.0` is a fixed cadence.
    pub jitter: f64,
    /// Process start times spread uniformly over `[0, spread_us]`, so
    /// sessions overlap rather than running back to back.
    pub spread_us: u64,
}

impl Default for ReplayProfile {
    fn default() -> Self {
        Self {
            mean_gap_us: 50,
            jitter: 0.5,
            spread_us: 100_000,
        }
    }
}

/// A merged, time-ordered stream of process events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventTrace {
    /// Events in non-decreasing `t_us` order; ties preserve per-pid
    /// program order.
    pub events: Vec<TraceEvent>,
}

impl EventTrace {
    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// First pid [`interleave`] assigns; entry `i` becomes pid `BASE + i`,
/// so a replay consumer can map a pid back to its dataset entry.
pub const REPLAY_PID_BASE: u32 = 1000;

/// Turns a labelled corpus into interleaved live traffic.
///
/// Every dataset entry becomes one process: pid
/// [`REPLAY_PID_BASE`]` + i`, spawned (name = the entry's source key) at
/// a seeded start time in `[0, profile.spread_us]`, issuing its window's
/// calls at jittered gaps, then exiting one gap after its last call.
/// The merged trace is sorted by timestamp with per-pid program order
/// preserved on ties, so replaying it in order is a faithful
/// interleaving of all sessions. Deterministic: same dataset, seed, and
/// profile → byte-identical trace.
///
/// # Panics
///
/// Panics if the dataset has more than `u32::MAX − REPLAY_PID_BASE`
/// entries (pids would wrap).
pub fn interleave(dataset: &Dataset, seed: u64, profile: ReplayProfile) -> EventTrace {
    let entries = dataset.entries();
    assert!(
        entries.len() < (u32::MAX - REPLAY_PID_BASE) as usize,
        "dataset too large for distinct pids"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let jitter = profile.jitter.clamp(0.0, 1.0);
    let mean = profile.mean_gap_us.max(1) as f64;
    let lo = (mean * (1.0 - jitter)).max(1.0);
    let hi = (mean * (1.0 + jitter)).max(lo);
    let mut events = Vec::with_capacity(entries.iter().map(|e| e.sequence.len() + 2).sum());
    for (i, entry) in entries.iter().enumerate() {
        let pid = REPLAY_PID_BASE + i as u32;
        let mut t = if profile.spread_us == 0 {
            0
        } else {
            rng.random_range(0..=profile.spread_us)
        };
        events.push(TraceEvent {
            t_us: t,
            pid,
            kind: TraceEventKind::Spawn(entry.source.clone()),
        });
        for &call in &entry.sequence {
            t += rng.random_range(lo..=hi) as u64 + 1;
            events.push(TraceEvent {
                t_us: t,
                pid,
                kind: TraceEventKind::Api(call),
            });
        }
        t += rng.random_range(lo..=hi) as u64 + 1;
        events.push(TraceEvent {
            t_us: t,
            pid,
            kind: TraceEventKind::Exit,
        });
    }
    // Stable sort: per-pid timestamps are strictly increasing, so ties
    // across pids keep insertion (program) order within each pid.
    events.sort_by_key(|e| e.t_us);
    EventTrace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn small() -> Dataset {
        DatasetBuilder::new(11)
            .ransomware_windows(6)
            .benign_windows(6)
            .build()
    }

    #[test]
    fn interleave_is_deterministic_for_a_seed() {
        let ds = small();
        let a = interleave(&ds, 42, ReplayProfile::default());
        let b = interleave(&ds, 42, ReplayProfile::default());
        assert_eq!(a, b);
        let c = interleave(&ds, 43, ReplayProfile::default());
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn every_entry_becomes_a_complete_session() {
        let ds = small();
        let trace = interleave(&ds, 7, ReplayProfile::default());
        for (i, entry) in ds.entries().iter().enumerate() {
            let pid = REPLAY_PID_BASE + i as u32;
            let session: Vec<&TraceEvent> = trace.events.iter().filter(|e| e.pid == pid).collect();
            assert_eq!(session.len(), entry.sequence.len() + 2);
            assert_eq!(
                session[0].kind,
                TraceEventKind::Spawn(entry.source.clone()),
                "first event is the spawn"
            );
            assert_eq!(session[session.len() - 1].kind, TraceEventKind::Exit);
            let calls: Vec<usize> = session
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::Api(c) => Some(c),
                    _ => None,
                })
                .collect();
            assert_eq!(calls, entry.sequence, "program order survives the merge");
        }
    }

    #[test]
    fn merged_trace_is_time_ordered_and_interleaved() {
        let ds = small();
        let trace = interleave(&ds, 3, ReplayProfile::default());
        assert!(
            trace.events.windows(2).all(|w| w[0].t_us <= w[1].t_us),
            "non-decreasing timestamps"
        );
        // With default spread the sessions overlap: some pid's event
        // lands between another pid's events.
        let first_pid = trace.events[0].pid;
        assert!(
            trace.events.iter().take(50).any(|e| e.pid != first_pid),
            "sessions interleave rather than run back to back"
        );
    }

    #[test]
    fn zero_jitter_zero_spread_is_a_fixed_cadence() {
        let ds = DatasetBuilder::new(1).ransomware_windows(1).build();
        let profile = ReplayProfile {
            mean_gap_us: 10,
            jitter: 0.0,
            spread_us: 0,
        };
        let trace = interleave(&ds, 0, profile);
        let times: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.pid == REPLAY_PID_BASE)
            .map(|e| e.t_us)
            .collect();
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g == gaps[0]), "fixed inter-arrival");
    }
}
