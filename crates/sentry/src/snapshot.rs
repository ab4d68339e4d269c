//! Checkpoint snapshots: the sentry's durable state, flattened.
//!
//! A checkpoint captures everything a restarted
//! [`Sentry`](crate::Sentry) needs so that *checkpoint + journal
//! replay* reconstructs the same incident
//! set an uninterrupted run produces: the session table (including the
//! `next_sid` cursor, so replayed events assign the same never-reused
//! session ids), the vote ring and window cursor of every *tracked*
//! session, and the scalar service counters. Sessions that ended and
//! retired are not in it — nothing can reference them again, and their
//! tallies are already in the counters — so a checkpoint's size follows
//! the sessions alive when it was taken. Volatile telemetry — the
//! latency histograms, the mux's in-flight windows — is deliberately
//! *not* captured: checkpoints are taken quiescently (after a drain),
//! when the mux is empty, and latency samples are measurements of a
//! particular run, not state the detection pipeline depends on.
//!
//! The structures here are shaped for the vendored serde: `Vec`s of
//! tuples instead of maps, unit-variant enums only. Ordering is
//! normalized (sorted by sid) so snapshots of equal states are
//! byte-equal.
//!
//! Incidents are not in the snapshot either: the journal is their
//! system of record (every latched incident is an fsync'd journal
//! record before `poll` returns it), and [`durable`](crate::durable)
//! re-adopts them from there on open. What a *checkpoint* does carry
//! about the journal is four numbers saying where its sync left the
//! file ([`SentrySnapshot::journal`]): a place to start reading, which
//! `open` checks against the file before using, not a copy of anything
//! in it — so the checkpoint stays the size of the live sessions however
//! many incidents precede it.

use serde::{Deserialize, Serialize};

use crate::journal::JournalAnchor;
use crate::service::ShedRecord;

/// Snapshot format version; bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One session's durable state (see [`Session`](crate::Session)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnap {
    /// Never-reused session id.
    pub sid: u64,
    /// The PID this incarnation ran under.
    pub pid: u32,
    /// Image name, if a spawn was observed.
    pub name: Option<String>,
    /// Buffered in-vocabulary calls not yet consumed by windows.
    pub buf: Vec<usize>,
    /// Stream position of `buf[0]`.
    pub base: usize,
    /// API calls observed (including out-of-vocabulary).
    pub calls_seen: u64,
    /// Out-of-vocabulary calls observed.
    pub oov: u64,
    /// Killed by the action layer.
    pub killed: bool,
    /// End state: 0 = live, 1 = exit, 2 = idle timeout, 3 = superseded.
    pub ended: u8,
    /// Table-clock value at session start.
    pub started_at: u64,
    /// Table-clock value of the most recent event.
    pub last_event: u64,
}

/// The session table's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSnap {
    /// Vocabulary bound for ingest filtering.
    pub vocab: usize,
    /// Idle timeout, in table-clock events.
    pub idle_timeout_events: Option<u64>,
    /// Next session id to assign — the replay-determinism linchpin.
    pub next_sid: u64,
    /// Events applied (the table clock).
    pub clock: u64,
    /// Sessions started.
    pub started: u64,
    /// Sessions ended.
    pub ended: u64,
    /// Calls dropped on killed sessions.
    pub dropped_after_kill: u64,
    /// Exits for unknown PIDs.
    pub stray_exits: u64,
    /// Out-of-vocabulary calls across all sessions.
    pub oov_total: u64,
    /// `calls_seen` summed over retired sessions.
    #[serde(default)]
    pub retired_calls: u64,
    /// `oov` summed over retired sessions.
    #[serde(default)]
    pub retired_oov: u64,
    /// The PID → sid links, sorted by PID.
    pub by_pid: Vec<(u32, u64)>,
    /// Every tracked session, sorted by sid.
    pub sessions: Vec<SessionSnap>,
}

/// One sentry-side stream record: window cursor plus vote ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSnap {
    /// Session id the stream keys on.
    pub sid: u64,
    /// Windows submitted so far.
    pub submitted: usize,
    /// The packed vote ring.
    pub ring: u64,
    /// Verdicts folded.
    pub verdicts: u32,
    /// An incident latched; the stream is closed.
    pub latched: bool,
    /// Shed by the overload governor; the stream is closed without a
    /// verdict.
    #[serde(default)]
    pub shed: bool,
}

/// The whole sentry, minus engine, config, and volatile telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentrySnapshot {
    /// [`SNAPSHOT_VERSION`] at write time.
    pub version: u32,
    /// Events ingested when the snapshot was taken. Recovery replays
    /// journal event records from this index on.
    pub events: u64,
    /// Verdicts folded.
    ///
    /// Incident-derived counters (suppressed, post-exit, failed
    /// actions) are deliberately absent: every incident is a journal
    /// record, so [`adopt_incident`](crate::Sentry::adopt_incident)
    /// recomputes them exactly on recovery.
    pub verdicts_folded: u64,
    /// Whitelisted exact image names, in insertion order.
    pub whitelist_exact: Vec<String>,
    /// Whitelisted path prefixes, in insertion order.
    pub whitelist_prefixes: Vec<String>,
    /// The session table.
    pub table: TableSnap,
    /// Per-session stream records, sorted by sid.
    pub streams: Vec<StreamSnap>,
    /// Monotone-timestamp dedup watermarks, sorted by PID — one per PID
    /// *ever seen*, not per live one, and deliberately so: a frame
    /// re-sent after its process exited must still be recognised, and
    /// the next incarnation of the PID must still be held to timestamps
    /// above the last one's. (Empty unless
    /// [`dedup_monotone_ts`](crate::SentryConfig::dedup_monotone_ts).)
    /// Checkpointed events are never replayed, so the watermark that
    /// guarded them must survive the checkpoint — otherwise a duplicate
    /// frame re-sent across a crash would be ingested twice.
    #[serde(default)]
    pub last_t_us: Vec<(u32, u64)>,
    /// Duplicate frames dropped by monotone-timestamp dedup.
    #[serde(default)]
    pub dup_events: u64,
    /// Sessions shed by the overload governor, in shed order.
    #[serde(default)]
    pub shed_log: Vec<ShedRecord>,
    /// Where the checkpoint's journal sync left `journal.log`: the
    /// place [`DurableSentry::open`](crate::DurableSentry::open) starts
    /// reading from, once it has checked it against the file.
    /// [`DurableSentry::checkpoint`](crate::DurableSentry::checkpoint)
    /// fills it in from the journal it has just synced;
    /// [`Sentry::snapshot`](crate::Sentry::snapshot), which knows no
    /// journal, leaves it zeroed, and so does a checkpoint written
    /// before it existed — offset 0 means "no anchor: scan the whole
    /// journal".
    #[serde(default)]
    pub journal: JournalAnchor,
}
