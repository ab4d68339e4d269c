//! The stream multiplexer's vocabulary types.
//!
//! The paper's deployment is *continuous* monitoring of many concurrent
//! API-call streams (§I "execute the classifier continuously in the
//! background"; §II's data-center host runs thousands of processes). The
//! serial [`StreamMonitor`](crate::monitor::StreamMonitor) classifies one
//! full window per completed stride — fine for one stream, but a fleet of
//! processes needs shared admission, backpressure and ordering in front
//! of the engine. That is [`ShardedStreamMux`](crate::shard::ShardedStreamMux),
//! one bounded queue of windows in [`shard`](crate::shard). This module
//! holds the types its API speaks: [`StreamMuxConfig`], [`Admission`],
//! [`Verdict`], [`MuxStats`], and the unit its serving budget is
//! counted in, [`ROUND_STEPS`]. A full queue evicts its oldest window
//! to admit the new one, so backpressure costs the stalest window and
//! never turns the newest away. The mux counts its losses in total; a
//! caller that wants them per stream charges each to its stream from
//! the [`Admission`] a submission returns.

use serde::Serialize;

use crate::engine::Classification;

/// Window-steps in one serving round: the engine time one
/// [`ShardedStreamMux::tick_into`](crate::shard::ShardedStreamMux::tick_into)
/// buys, where a window of `len` calls costs `len` window-steps. 16 is
/// the paper-dimension lane width the sentry's budgets were tuned
/// against when a round advanced a block of 16 lanes one call each, so
/// every budget counted in rounds keeps its engine time.
pub const ROUND_STEPS: usize = 16;

/// Configuration for a
/// [`ShardedStreamMux`](crate::shard::ShardedStreamMux).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMuxConfig {
    /// Bound on the pending-window queue. A window submitted to a full
    /// queue evicts the oldest one: the freshest data wins, so under
    /// overload stale windows age out and recent behaviour keeps being
    /// classified.
    pub max_pending: usize,
    /// Most chunks one serving call splits its windows over. `None`
    /// (one) classifies every window on the caller's thread; `Some(n)`
    /// spreads a serving call that can afford two or more windows over
    /// at most `n` chunks, one thread each, which pays only where each
    /// chunk has a free core.
    pub shards: Option<usize>,
}

impl Default for StreamMuxConfig {
    fn default() -> Self {
        Self {
            max_pending: 4096,
            shards: None,
        }
    }
}

/// What [`ShardedStreamMux::submit`](crate::shard::ShardedStreamMux::submit)
/// did with a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued.
    Queued,
    /// Queued after evicting the oldest queued window to make room (the
    /// queue was at `max_pending`). The evicted window's stream and
    /// `at_call`: it will never produce a verdict.
    QueuedEvicting {
        /// Stream of the evicted window.
        stream: u64,
        /// `at_call` tag of the evicted window.
        at_call: usize,
    },
    /// Refused for an out-of-vocabulary token.
    Rejected,
}

impl Admission {
    /// Whether the window was queued (and will produce a verdict).
    pub fn queued(self) -> bool {
        matches!(self, Self::Queued | Self::QueuedEvicting { .. })
    }
}

/// One served window's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The stream (process) id the window came from.
    pub stream: u64,
    /// Caller-supplied position tag (the call index that completed the
    /// window, for monitors).
    pub at_call: usize,
    /// The classification — bit-identical to serial `classify` of the
    /// same window.
    pub classification: Classification,
    /// Admission sequence number, assigned by the mux at `submit` and
    /// strictly increasing in submission order. Verdicts leave in this
    /// order, so each stream's own verdicts carry an increasing
    /// subsequence.
    pub seq: u64,
}

/// A snapshot of the multiplexer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MuxStats {
    /// Serving calls that classified at least one window.
    pub ticks: u64,
    /// Windows served (verdicts emitted).
    pub verdicts: u64,
    /// Windows evicted *after admission*: the queue was full and the
    /// oldest pending window was discarded to make room for a newer
    /// one. Charged to the stream that lost its window, not the one
    /// that submitted.
    pub evicted: u64,
    /// Always 0: a full queue evicts its oldest window and admits the
    /// new one, so backpressure refuses nothing. The benchmark still
    /// counts it among the mux's losses.
    pub refused: u64,
    /// Windows refused at submission for out-of-vocabulary tokens — a
    /// typed rejection at the admission boundary, never a panic inside
    /// the engine. Distinct from backpressure: rejection means the
    /// *data* was unclassifiable, not that the mux was overloaded.
    pub rejected: u64,
    /// Always 0: there is no lane block to occupy. The benchmark still
    /// reports it, as `core.shard.occupancy`.
    pub occupancy: f64,
    /// Verdicts per wall-clock second since the mux was created.
    pub verdicts_per_sec: f64,
    /// Window corruptions injected by an armed
    /// [`FaultPlan`](csd_device::FaultPlan) (0 when no plan is armed),
    /// each re-run before its verdict was emitted — every one still
    /// produced its verdict.
    pub faults: u64,
    /// Chunks a serving call may split its windows over.
    pub shards: u64,
}
