//! The workloads and every fixed size and rate. Nothing here changes
//! between commits; `--seed` changes only trace contents.

use std::time::Duration;

use csd_sentry::{ActionKind, SentryConfig};

/// Calls in one long-lived benign fleet process.
pub const BENIGN_CALLS: usize = 3000;
/// Calls in one fleet detonation. A detonation latches within its first
/// ~200 calls and is killed; a killed process emits nothing more, so
/// its trace is cut short instead of feeding thousands of dropped calls.
pub const DETONATION_CALLS: usize = 250;
/// Calls in one corpus session (the paper's window length).
pub const CORPUS_CALLS: usize = 100;
/// The paced generator's tick.
pub const TICK_US: u64 = 1000;
/// Events due per tick of the paced phase: 20 000 events/s, a tenth of
/// what the closed loop sustains when the bench host's disk is quick.
/// The loop then asks for 120 to 140 syncs a second, which keeps it
/// more than 40% idle even while a sync takes 4 ms; at 40 000 events/s
/// such a spell saturated it and the latencies measured the disk.
pub const PACED_PER_TICK: usize = 20;
/// Events per second the paced phase offers.
pub const PACED_EVENTS_PER_S: f64 = PACED_PER_TICK as f64 * 1e6 / TICK_US as f64;
/// Crash points in the recovery phase.
pub const CRASH_POINTS: usize = 5;
/// Timed `open`s of the identical crashed state at each crash point.
pub const OPENS_PER_CRASH: usize = 10;
/// `ServiceConfig::default().poll_every`: the service loop's cadence,
/// which the recovery phase and the layer drives reproduce by hand.
pub const POLL_EVERY: usize = 16;
/// `DurableConfig::new`'s checkpoint interval, which the traced loop
/// reproduces by hand and the recovery phase places its crashes by.
pub const CHECKPOINT_EVERY: u64 = 8192;

/// What a workload's processes look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// One-window sessions in the paper's 46/54 mix: spawn, 100 calls,
    /// exit. 1-of-1 vote, log only.
    Corpus,
    /// Long-lived benign processes plus short detonations. 2-of-3
    /// vote, kill.
    Fleet,
}

/// How a trace's events are offered to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: one producer thread, blocking `EventProducer::send`
    /// into the bounded bus — a caller that waits.
    Closed,
    /// Open loop: one socket connection writes, every tick, the frames
    /// due in that tick, whether or not the service keeps up.
    Paced {
        /// Events due per tick.
        per_tick: usize,
    },
}

/// Process counts of one generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `sessions` corpus sessions of 102 events each.
    Corpus {
        /// Sessions.
        sessions: usize,
    },
    /// A fleet: `benign` processes of [`BENIGN_CALLS`] calls and
    /// `detonations` of [`DETONATION_CALLS`] calls arriving throughout.
    Fleet {
        /// Long-lived benign processes.
        benign: usize,
        /// Short detonations.
        detonations: usize,
        /// Benign start times spread over this many quarter-lifetimes
        /// (1 = all alive together, 12 = arriving over the run).
        spread_quarters: u64,
    },
}

impl Shape {
    /// Events the shape generates.
    pub fn events(&self) -> usize {
        match *self {
            Shape::Corpus { sessions } => sessions * (CORPUS_CALLS + 2),
            Shape::Fleet {
                benign,
                detonations,
                ..
            } => benign * (BENIGN_CALLS + 2) + detonations * (DETONATION_CALLS + 2),
        }
    }
}

/// How a run divides `--seconds` between its measured phases. The
/// recovery phase is a fixed amount of work on top (about a second).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Time for closed-loop repetitions.
    pub closed: Duration,
    /// Seconds the one paced repetition lasts.
    pub paced_s: u64,
}

impl Plan {
    /// Two thirds of the time to the paced phase — a latency
    /// percentile needs its hundreds of incidents — and the rest to
    /// the closed loop.
    pub fn new(seconds: u64) -> Self {
        let paced_s = (seconds * 2 / 3).max(1);
        Self {
            closed: Duration::from_secs(seconds.saturating_sub(paced_s).max(1)),
            paced_s,
        }
    }
}

/// One benchmark workload: a kind of traffic, taken through a
/// closed-loop phase, a paced phase and a recovery phase.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line; the README has the rest).
    pub why: &'static str,
    /// Process shape.
    pub trace: TraceKind,
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "corpus-durable",
        why: "one-window sessions (spawn, 100 calls, exit): journal, checkpoint and session churn do the work, the mux a few percent; paced latency is what the loop's poll cadence costs",
        trace: TraceKind::Corpus,
    },
    Workload {
        name: "fleet-durable",
        why: "long-lived processes, a window per 10 events: mux, engine and lane kernels carry the largest share; windows queue in the mux and paced latency follows the checkpoint drain",
        trace: TraceKind::Fleet,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The paced phase's load.
    pub fn paced(&self) -> Load {
        Load::Paced {
            per_tick: PACED_PER_TICK,
        }
    }

    /// The closed-loop trace: a fixed size, replayed as often as the
    /// phase's time allows. The recovery phase crashes on it too.
    pub fn closed_shape(&self, smoke: bool) -> Shape {
        match (self.trace, smoke) {
            (TraceKind::Corpus, false) => Shape::Corpus { sessions: 2000 },
            (TraceKind::Corpus, true) => Shape::Corpus { sessions: 400 },
            (TraceKind::Fleet, false) => Shape::Fleet {
                benign: 32,
                detonations: 96,
                spread_quarters: 1,
            },
            (TraceKind::Fleet, true) => Shape::Fleet {
                benign: 12,
                detonations: 20,
                spread_quarters: 1,
            },
        }
    }

    /// The paced trace: as long as its rate times `seconds`.
    pub fn paced_shape(&self, seconds: u64) -> Shape {
        let events = PACED_PER_TICK * (seconds * 1_000_000 / TICK_US) as usize;
        match self.trace {
            TraceKind::Corpus => Shape::Corpus {
                sessions: events / (CORPUS_CALLS + 2),
            },
            // Half the events from benign processes, half from
            // detonations: a latency percentile needs hundreds of
            // incidents, and only detonations raise them.
            TraceKind::Fleet => Shape::Fleet {
                benign: (events / 2 / (BENIGN_CALLS + 2)).max(1),
                detonations: (events / 2 / (DETONATION_CALLS + 2)).max(1),
                spread_quarters: 12,
            },
        }
    }

    /// The sentry configuration: crate defaults except one mux shard
    /// (generator and service thread already fill a 2-core host) and
    /// the vote/action pair of the trace kind.
    pub fn sentry_config(&self) -> SentryConfig {
        let mut config = SentryConfig::default();
        config.mux.shards = Some(1);
        match self.trace {
            TraceKind::Corpus => {
                config.votes_needed = 1;
                config.vote_horizon = 1;
                config.action = ActionKind::Log;
            }
            TraceKind::Fleet => {
                config.action = ActionKind::Kill;
            }
        }
        config
    }
}
