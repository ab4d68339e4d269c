//! The sentry service: events in, incidents out.
//!
//! [`Sentry`] is the assembly: it applies each [`ProcessEvent`] to the
//! [`SessionTable`], slices every live session's in-vocabulary call
//! stream into windows — offset 0 first (early detection), then every
//! `stride` calls, exactly the classify points of the serial
//! [`StreamMonitor`](csd_accel::StreamMonitor) — and submits them to a
//! [`ShardedStreamMux`] keyed by *session id*, not PID. Retired
//! verdicts fold into the session's packed [`VoteRing`] (a `u64`
//! bitmask over the last `vote_horizon` verdicts, alert at
//! `votes_needed` positives, latched forever) — the serial monitor's k-of-n vote, alert for alert
//! (`tests/proptest_monitor_parity.rs`); a fresh alert passes the
//! whitelist check and the configured [`ActionKind`] before latching as
//! an [`Incident`].
//!
//! Because streams key on never-reused session ids, a verdict raced by
//! an exit folds against the dead incarnation (recorded `post_exit`),
//! never against whatever process the OS hands the PID to next. A
//! stream's state — window cursor, vote ring, the stamps of its windows
//! the mux holds, what the mux lost of them — lives on its
//! [`Session`](crate::Session), so a verdict's fold is one lookup in
//! one sid-keyed map; the loss is read off the [`Admission`] each
//! submission returns.
//!
//! # Session lifetime
//!
//! One rule, no knob: a session **retires** — leaves the session table,
//! its stream state and loss with it — as
//! soon as it has ended (exit, idle timeout, superseded; its PID link
//! is already gone) *and* no verdict can reference it again (every
//! window the mux accepted for it has come back or been evicted; a
//! [`drain`](Sentry::drain) leaves the mux empty, so after one every
//! ended session goes). Killed sessions stay PID-linked until their
//! exit, so stragglers are still dropped and tallied. Per-session
//! tallies fold into totals at retirement, so [`SentryStats`] does not
//! change; what changes is that the table,
//! [`snapshot`](Sentry::snapshot) and [`staleness`](Sentry::staleness)
//! follow the sessions alive now, not every session ever seen.
//!
//! The engine contract is untouched: every window classifies through
//! the mux, one window at a time, bit-identical to offline
//! [`classify`](csd_accel::CsdInferenceEngine::classify) of the same
//! window — which is what makes live-vs-offline alert parity a testable
//! invariant rather than a hope (see `proptest_monitor_parity`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use csd_accel::{
    Admission, Alert, CsdInferenceEngine, MuxStats, PipelineSchedule, ShardedStreamMux,
    StreamMuxConfig, Verdict, VoteRing,
};

use serde::{Deserialize, Serialize};

use crate::actions::{ActionKind, ActionOutcome, ActionTaken, Incident};
use crate::event::ProcessEvent;
use crate::histogram::LatencyHistogram;
use crate::journal::JournalAnchor;
use crate::quarantine::{QuarantineBackend, SimBackend};
use crate::session::{Applied, SessionTable, StreamLoss};
use crate::snapshot::{SentrySnapshot, SNAPSHOT_VERSION};
use crate::whitelist::Whitelist;

/// Sentry tuning. Defaults mirror the serial monitor's
/// (`MonitorConfig`): window 100, stride 10, 2-of-3 votes.
#[derive(Debug, Clone)]
pub struct SentryConfig {
    /// Window length fed to the engine.
    pub window_len: usize,
    /// Calls between successive windows of one session.
    pub stride: usize,
    /// Positive verdicts within the horizon that raise an alert.
    pub votes_needed: usize,
    /// Recent verdicts the vote ring remembers (≤ 64).
    pub vote_horizon: usize,
    /// End sessions idle this many events of the ingest clock; `None`
    /// disables the timeout. Idle sessions are swept every quarter of
    /// the timeout (at least every event), so a session ends within
    /// 1¼ timeouts of its last event.
    pub idle_timeout_events: Option<u64>,
    /// What to do when an alert fires.
    pub action: ActionKind,
    /// Drop events whose timestamp is not strictly greater than the
    /// last event seen for the same PID. An at-least-once transport
    /// (resets re-send, chaos duplicates) delivers the same frame
    /// twice; per-connection FIFO plus strictly-increasing per-process
    /// timestamps make `t_us` a valid dedup key. Off by default:
    /// in-process producers are exactly-once and hand-built tests reuse
    /// timestamps freely. Dropped duplicates are counted
    /// ([`SentryStats::dup_events`]) and still occupy an event slot on
    /// the ingest clock, so the journal's durable-event cursor stays
    /// 1:1 with delivered frames.
    pub dedup_monotone_ts: bool,
    /// Bounded-staleness SLO, in ingest-clock events: the oldest
    /// outstanding submitted window should be at most this many events
    /// stale. `None` disables the overload governor. When set, the
    /// governor walks the degradation ladder as staleness crosses
    /// `slo/2` (SLO-driven polling) and `2·slo` (shed zero-vote
    /// sessions) — see [`overload_level`](Sentry::overload_level).
    pub staleness_slo: Option<u64>,
    /// The stream mux under the service.
    pub mux: StreamMuxConfig,
}

impl Default for SentryConfig {
    fn default() -> Self {
        Self {
            window_len: 100,
            stride: 10,
            votes_needed: 2,
            vote_horizon: 3,
            idle_timeout_events: None,
            action: ActionKind::Log,
            dedup_monotone_ts: false,
            staleness_slo: None,
            mux: StreamMuxConfig::default(),
        }
    }
}

/// The engine time one [`Sentry::poll`] may spend, in rounds of
/// [`ROUND_STEPS`](csd_accel::ROUND_STEPS) window-steps: 1,024
/// window-steps, where a window of `len` calls costs `len`.
///
/// A budget, so that a backlog cannot keep the service loop away from
/// ingest. 1,024 steps are ten 100-step windows and the start of an
/// eleventh, ≈ 0.3 ms at paper dimensions (a window alone costs
/// 29–35 µs; EXPERIMENTS.md row 23d). The service loop offers a poll
/// 0.16 (one-window sessions) to 1.6 (a fleet of long-lived processes,
/// a window per 10 events) windows per 16 events, so every verdict is
/// back at the first poll after its window's last call. Demand above
/// the budget queues, grows [`Sentry::staleness`] and engages the
/// overload governor: the chaos campaign's overload cells
/// (`tests/chaos_campaign.rs`) poll every 4,096 events, 0.25
/// window-steps an event against ≈ 1.5 offered.
pub const POLL_ROUNDS_MAX: usize = 64;

/// Where the overload governor currently sits on the degradation
/// ladder. Rungs engage as verdict staleness crosses fractions of the
/// configured SLO and release with hysteresis (one rung per ingest,
/// only once staleness falls to half the rung's entry threshold), so
/// the ladder doesn't flap at a boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadLevel {
    /// Staleness within budget; no intervention.
    #[default]
    Normal,
    /// Staleness above `slo/2`: every ingest also runs an engine round
    /// of [`ROUND_STEPS`](csd_accel::ROUND_STEPS) window-steps
    /// (SLO-driven poll cadence), counted in
    /// [`SentryStats::slo_polls`].
    FastPoll,
    /// Staleness above `2·slo`: sessions with folded verdicts and zero
    /// positive votes stop being monitored — a typed, counted loss
    /// ([`Sentry::shed_log`]), never a silent one.
    Shed,
}

/// One session the overload governor stopped monitoring: the typed
/// record of deliberately shed coverage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedRecord {
    /// The shed session.
    pub sid: u64,
    /// Its PID at shed time.
    pub pid: u32,
    /// Submitted windows still awaiting verdicts when shed (their
    /// verdicts will be ignored).
    pub windows_outstanding: u64,
    /// Ingest-clock event count at shed time.
    pub at_event: u64,
}

/// Aggregate service counters, for reports and the bench campaign.
#[derive(Debug, Clone, Serialize)]
pub struct SentryStats {
    /// Events ingested.
    pub events: u64,
    /// Sessions started (spawn or implicit).
    pub sessions_started: u64,
    /// Sessions ended (exit, idle timeout, superseded).
    pub sessions_ended: u64,
    /// Out-of-vocabulary calls dropped at ingest.
    pub oov_calls: u64,
    /// Calls dropped because their session was killed/quarantined.
    pub dropped_after_kill: u64,
    /// Exits for PIDs never seen.
    pub stray_exits: u64,
    /// Verdicts folded into vote rings.
    pub verdicts_folded: u64,
    /// Incidents latched (including suppressed ones).
    pub incidents: u64,
    /// Incidents whose action was withheld by the whitelist.
    pub suppressed: u64,
    /// Incidents whose verdict landed after session end.
    pub post_exit_incidents: u64,
    /// Action dispatches the backend reported as failed (the incident
    /// still latched, with the error in its outcome).
    pub actions_failed: u64,
    /// Duplicate events dropped by monotone-timestamp dedup (0 unless
    /// [`SentryConfig::dedup_monotone_ts`]).
    pub dup_events: u64,
    /// Sessions shed by the overload governor.
    pub shed_sessions: u64,
    /// Extra engine rounds run by the SLO-driven poll governor.
    pub slo_polls: u64,
    /// Current verdict staleness: ingest-clock events since the oldest
    /// outstanding submitted window.
    pub staleness: u64,
    /// The mux's own counters (submissions, occupancy, loss).
    pub mux: MuxStats,
}

/// The live ingestion service over one stream mux.
#[derive(Debug)]
pub struct Sentry {
    config: SentryConfig,
    vote_mask: u64,
    per_item_us: f64,
    mux: ShardedStreamMux,
    sessions: SessionTable,
    whitelist: Whitelist,
    backend: Box<dyn QuarantineBackend>,
    /// Admission sequence number from which [`staleness`] scans the
    /// mux's queue: every window queued before it belongs to a shed,
    /// latched or retired session, none of which is ever monitored
    /// again.
    ///
    /// [`staleness`]: Self::staleness
    stale_from: u64,
    /// Mux-side loss of retired sessions.
    retired_loss: StreamLoss,
    incidents: Vec<Incident>,
    /// Verdict latency samples: events the session observed between
    /// window-full and the verdict's fold.
    latencies: LatencyHistogram,
    /// Verdict latency on the service clock: events the *service*
    /// ingested (across all sessions) between window-full and fold.
    service_latencies: LatencyHistogram,
    verdicts_folded: u64,
    events: u64,
    verdict_buf: Vec<Verdict>,
    /// Last event timestamp seen per PID, for monotone-timestamp dedup
    /// (populated only when [`SentryConfig::dedup_monotone_ts`]).
    last_t_us: HashMap<u32, u64>,
    dup_events: u64,
    /// Where the overload governor sits on the degradation ladder.
    overload: OverloadLevel,
    /// Sessions the governor shed, in shed order.
    shed_log: Vec<ShedRecord>,
    slo_polls: u64,
    /// Whether the overload governor runs. `false` during journal
    /// replay: mid-replay staleness measures the replay loop, not live
    /// load, and shedding on it would diverge recovery from the live
    /// run for no benefit — recovery catches up as fast as it can and
    /// re-enables the governor when live traffic resumes.
    governing: bool,
}

impl Sentry {
    /// Builds the service over `engine`. The vocabulary bound for
    /// ingest-side filtering comes from the engine's own dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `window_len`, `stride`, or `votes_needed` is zero, or
    /// `votes_needed > vote_horizon`, or `vote_horizon > 64`.
    pub fn new(engine: CsdInferenceEngine, config: SentryConfig) -> Self {
        assert!(config.window_len > 0, "window length must be positive");
        assert!(config.stride > 0, "stride must be positive");
        assert!(config.votes_needed > 0, "votes_needed must be positive");
        assert!(
            config.votes_needed <= config.vote_horizon,
            "votes_needed cannot exceed the vote horizon"
        );
        let vote_mask = VoteRing::mask(config.vote_horizon);
        let per_item_us = PipelineSchedule::for_level(engine.level()).steady_item_us;
        let vocab = engine.weights().dims().vocab;
        let sessions = SessionTable::new(vocab, config.idle_timeout_events);
        let mux = ShardedStreamMux::new(engine, config.mux);
        Self {
            config,
            vote_mask,
            per_item_us,
            mux,
            sessions,
            whitelist: Whitelist::new(),
            backend: Box::new(SimBackend),
            stale_from: 0,
            retired_loss: StreamLoss::default(),
            incidents: Vec::new(),
            latencies: LatencyHistogram::default(),
            service_latencies: LatencyHistogram::default(),
            verdicts_folded: 0,
            events: 0,
            verdict_buf: Vec::new(),
            last_t_us: HashMap::new(),
            dup_events: 0,
            overload: OverloadLevel::Normal,
            shed_log: Vec::new(),
            slo_polls: 0,
            governing: true,
        }
    }

    /// Replaces the action backend (default: the stateless
    /// [`SimBackend`]). Kill/quarantine responses dispatch through it
    /// and the incident records its outcome.
    pub fn set_backend(&mut self, backend: Box<dyn QuarantineBackend>) {
        self.backend = backend;
    }

    /// The whitelist, for configuration.
    pub fn whitelist_mut(&mut self) -> &mut Whitelist {
        &mut self.whitelist
    }

    /// The whitelist, read-only.
    pub fn whitelist(&self) -> &Whitelist {
        &self.whitelist
    }

    /// Ingests one event: session lifecycle, window slicing, mux
    /// submission. Classification happens at [`poll`](Self::poll) /
    /// [`drain`](Self::drain) — except under overload, when the
    /// SLO-driven governor may run engine rounds right here; incidents
    /// those rounds raise are returned (empty whenever the governor is
    /// idle or disabled). Never panics on any event sequence — ingest
    /// is the service's untrusted boundary.
    pub fn ingest(&mut self, event: &ProcessEvent) -> Vec<Incident> {
        self.events += 1;
        if self.config.dedup_monotone_ts {
            match self.last_t_us.entry(event.pid) {
                Entry::Occupied(last) if event.t_us <= *last.get() => {
                    // A re-sent or duplicated frame: the slot on the
                    // ingest clock is consumed (keeping the durable
                    // event cursor 1:1 with delivered frames) but the
                    // event itself is dropped, typed and counted.
                    self.dup_events += 1;
                    return Vec::new();
                }
                Entry::Occupied(mut last) => {
                    last.insert(event.t_us);
                }
                Entry::Vacant(slot) => {
                    slot.insert(event.t_us);
                }
            }
        }
        match self.sessions.apply(event) {
            Applied::Started {
                sid,
                buffered,
                superseded,
            } => {
                if let Some(old) = superseded {
                    self.session_ended(old);
                }
                if buffered == Some(true) {
                    self.pump_windows(sid);
                }
            }
            Applied::Call {
                sid,
                buffered: true,
            } => self.pump_windows(sid),
            Applied::Exited(sid) => self.session_ended(sid),
            _ => {}
        }
        if self
            .config
            .idle_timeout_events
            .is_some_and(|timeout| self.events.is_multiple_of((timeout / 4).max(1)))
        {
            // Ended sessions submit no further windows; verdicts still
            // in flight fold as post-exit records.
            for sid in self.sessions.sweep_idle() {
                self.session_ended(sid);
            }
        }
        self.govern()
    }

    /// Submits every complete, unsubmitted window of session `sid`,
    /// then compacts the session's buffer down to what future windows
    /// still need. The session is looked up once and held for the whole
    /// pump.
    fn pump_windows(&mut self, sid: u64) {
        let (window_len, stride) = (self.config.window_len, self.config.stride);
        let Some(s) = self.sessions.session_mut(sid) else {
            return;
        };
        if s.latched || s.shed {
            // No window of this stream is ever submitted again, so no
            // future window needs a call: the buffer empties as it
            // fills, or a session left running holds its whole trace.
            s.discard_consumed(s.vocab_calls());
            return;
        }
        let mut evicted = Vec::new();
        while s.is_live() {
            let offset = s.submitted * stride;
            if offset + window_len > s.vocab_calls() {
                break;
            }
            let Some(window) = s.window_at(offset, window_len) else {
                break;
            };
            let at_call = s.calls_seen() as usize;
            // A window the mux turns away for an out-of-vocabulary token
            // is shed load: the cursor still advances and the session
            // tallies it.
            let admission = self.mux.submit(sid, at_call, window);
            s.submitted += 1;
            match admission {
                Admission::Queued => s.stamps.push_back((at_call, self.events)),
                Admission::QueuedEvicting {
                    stream,
                    at_call: lost,
                } => {
                    s.stamps.push_back((at_call, self.events));
                    evicted.push((stream, lost));
                }
                Admission::Rejected => s.loss.rejected += 1,
            }
        }
        s.discard_consumed(s.submitted * stride);
        // The mux named every window it evicted to make room: they will
        // never fold, so their stamps go now, charged to the session
        // that lost them, which retires with its last one if it ended.
        for (stream, at_call) in evicted {
            let Some(victim) = self.sessions.session_mut(stream) else {
                continue;
            };
            let stamp = victim.stamps.pop_front();
            debug_assert_eq!(stamp.map(|(at, _)| at), Some(at_call));
            victim.loss.evicted += 1;
            if victim.stamps.is_empty() && victim.ended().is_some() {
                self.retire(stream);
            }
        }
    }

    /// Serves admitted windows to their verdicts
    /// ([`ShardedStreamMux::serve_into`]) under a budget of
    /// [`POLL_ROUNDS_MAX`] rounds, folds the verdicts and returns the
    /// incidents raised.
    ///
    /// A window's verdict comes back from the first `poll` after its
    /// last call unless the budget runs out first — a caller that
    /// offers less than the budget per poll (the service loop: 0.16
    /// windows a poll from one-window sessions, 1.6 from a fleet of
    /// long-lived processes, against ≈ 10) never waits for rounds, only
    /// for the next poll. Demand above the budget still queues, still
    /// grows [`staleness`](Self::staleness) and still engages the
    /// overload governor.
    ///
    /// The budget reads the mux and nothing else — no clock, no bus
    /// state — so the windows served stay a pure function of the
    /// sequence of `ingest` and `poll` calls: two service loops that
    /// batch the bus differently end with equal [`SentryStats`].
    pub fn poll(&mut self) -> Vec<Incident> {
        self.run_and_fold(|mux, verdicts| mux.serve_into(verdicts, POLL_ROUNDS_MAX))
    }

    /// Runs one round — [`ROUND_STEPS`](csd_accel::ROUND_STEPS)
    /// window-steps, overdraw carried as debt — and folds its verdicts:
    /// what the overload governor runs at every ingest from
    /// [`OverloadLevel::FastPoll`] up.
    fn round(&mut self) -> Vec<Incident> {
        self.run_and_fold(|mux, verdicts| {
            mux.tick_into(verdicts);
        })
    }

    /// Runs the mux into the reused verdict buffer and folds what came
    /// back.
    fn run_and_fold(
        &mut self,
        run: impl FnOnce(&mut ShardedStreamMux, &mut Vec<Verdict>),
    ) -> Vec<Incident> {
        let mut buf = std::mem::take(&mut self.verdict_buf);
        buf.clear();
        run(&mut self.mux, &mut buf);
        let new = self.fold(&buf);
        self.verdict_buf = buf;
        new
    }

    /// Classifies everything queued and returns incidents raised. The
    /// mux is empty afterwards, so every ended session has retired.
    pub fn drain(&mut self) -> Vec<Incident> {
        self.run_and_fold(ShardedStreamMux::drain_into)
    }

    /// The reference a crashed and recovered run is held to: `events`
    /// through one plain sentry that is never interrupted — ingested in
    /// order, a [`poll`](Self::poll) after every `poll_every`-th event
    /// (none for 0), then a [`drain`](Self::drain). What latches does
    /// not depend on the cadence, so its [`incidents`](Self::incidents)
    /// are the set any durable run over the same events must end with.
    pub fn uninterrupted(
        engine: CsdInferenceEngine,
        config: SentryConfig,
        events: &[ProcessEvent],
        poll_every: usize,
    ) -> Self {
        let mut sentry = Self::new(engine, config);
        for (i, event) in events.iter().enumerate() {
            sentry.ingest(event);
            if poll_every > 0 && (i + 1).is_multiple_of(poll_every) {
                sentry.poll();
            }
        }
        sentry.drain();
        sentry
    }

    /// The lifetime rule at a session's end: retire it now unless the
    /// mux holds a window of it, in which case it retires when the last
    /// one leaves, folded or evicted.
    fn session_ended(&mut self, sid: u64) {
        if self
            .sessions
            .session(sid)
            .is_some_and(|s| s.stamps.is_empty())
        {
            self.retire(sid);
        }
    }

    /// Stops tracking an ended session: the table folds its tallies
    /// into totals and its loss joins the retired total.
    fn retire(&mut self, sid: u64) {
        if let Some(s) = self.sessions.retire(sid) {
            self.retired_loss.evicted += s.loss.evicted;
            self.retired_loss.rejected += s.loss.rejected;
        }
    }

    /// Current verdict staleness: ingest-clock events elapsed since the
    /// oldest submitted window still awaiting its verdict, among the
    /// sessions still monitored (0 when nothing is outstanding). This —
    /// not queue depth — is what the overload SLO bounds: a fixed poll
    /// cadence lets it grow without limit when ingest outpaces the
    /// engine, which is exactly the degeneration the governor exists to
    /// stop.
    ///
    /// The mux is a FIFO, so that window is the first one in its queue
    /// whose session is neither shed, latched nor retired, and its
    /// stamp is the front of its session's stamps.
    pub fn staleness(&self) -> u64 {
        self.oldest_monitored()
            .1
            .map_or(0, |oldest| self.events.saturating_sub(oldest))
    }

    /// Scans the mux's queue from [`stale_from`](Self::stale_from) for
    /// the oldest window of a session still monitored. Returns where
    /// the next scan may start — at that window, or past every window
    /// scanned — and the window's stamp.
    fn oldest_monitored(&self) -> (u64, Option<u64>) {
        let mut from = self.stale_from;
        for (seq, sid) in self.mux.queued_from(from) {
            if let Some(s) = self.sessions.session(sid).filter(|s| !s.shed && !s.latched) {
                return (seq, s.stamps.front().map(|&(_, stamp)| stamp));
            }
            from = seq + 1;
        }
        (from, None)
    }

    /// [`staleness`](Self::staleness) as a scan of every tracked
    /// session: the reference the queue-head reading is checked
    /// against.
    #[cfg(test)]
    fn staleness_by_scan(&self) -> u64 {
        self.sessions
            .sessions()
            .filter(|s| !s.shed && !s.latched)
            .filter_map(|s| s.stamps.front().map(|&(_, stamp)| stamp))
            .min()
            .map_or(0, |oldest| self.events.saturating_sub(oldest))
    }

    /// Where the overload governor currently sits on the degradation
    /// ladder (always [`OverloadLevel::Normal`] without an SLO).
    pub fn overload_level(&self) -> OverloadLevel {
        self.overload
    }

    /// Sessions the overload governor shed, in shed order.
    pub fn shed_log(&self) -> &[ShedRecord] {
        &self.shed_log
    }

    /// Enables or disables the overload governor (recovery replay turns
    /// it off; see the field docs).
    pub(crate) fn set_governing(&mut self, on: bool) {
        self.governing = on;
    }

    /// The overload governor: one ladder step per ingested event.
    ///
    /// Entry thresholds are `slo/2` (FastPoll) and `2·slo` (Shed); a
    /// rung releases — one step per event — only when staleness falls
    /// to *half* its entry threshold, so the ladder can't flap across a
    /// boundary. At FastPoll and above, every ingest also runs an
    /// engine round, which replaces the fixed caller cadence with an
    /// SLO-driven one.
    fn govern(&mut self) -> Vec<Incident> {
        let Some(slo) = self.config.staleness_slo else {
            return Vec::new();
        };
        if !self.governing {
            return Vec::new();
        }
        let slo = slo.max(2);
        let (from, oldest) = self.oldest_monitored();
        self.stale_from = from;
        let s = oldest.map_or(0, |stamp| self.events.saturating_sub(stamp));
        let target = if s > 2 * slo {
            OverloadLevel::Shed
        } else if s > slo / 2 {
            OverloadLevel::FastPoll
        } else {
            OverloadLevel::Normal
        };
        if target > self.overload {
            self.overload = target;
        } else {
            // Hysteresis: release one rung only at half the rung's
            // entry threshold.
            let release = match self.overload {
                OverloadLevel::Shed => s <= slo,
                OverloadLevel::FastPoll => s <= slo / 4,
                OverloadLevel::Normal => false,
            };
            if release {
                self.overload = match self.overload {
                    OverloadLevel::Shed => OverloadLevel::FastPoll,
                    _ => OverloadLevel::Normal,
                };
            }
        }
        if self.overload == OverloadLevel::Shed {
            self.shed_zero_vote_sessions();
        }
        if self.overload >= OverloadLevel::FastPoll {
            self.slo_polls += 1;
            return self.round();
        }
        Vec::new()
    }

    /// Sheds every stream that has folded at least one verdict, holds
    /// zero positive votes, and still has windows outstanding — the
    /// sessions whose backlog is least likely to end in an incident.
    /// Streams that have not produced a verdict yet are never shed: a
    /// just-spawned ransomware process must not lose its first window
    /// to load shedding.
    fn shed_zero_vote_sessions(&mut self) {
        let from = self.shed_log.len();
        for s in self.sessions.sessions_mut() {
            if !s.latched && !s.shed && s.verdicts > 0 && s.ring.bits() == 0 && !s.stamps.is_empty()
            {
                s.shed = true;
                self.shed_log.push(ShedRecord {
                    sid: s.sid(),
                    pid: s.pid(),
                    windows_outstanding: s.stamps.len() as u64,
                    at_event: self.events,
                });
            }
        }
        self.shed_log[from..].sort_unstable_by_key(|r| r.sid);
    }

    /// Folds served verdicts into vote rings; a completed vote runs the
    /// dispatch path ([`latch`](Self::latch)). Verdicts key on session
    /// ids, so nothing here can touch a PID's later incarnation. An
    /// ended session retires with the last verdict it was waiting for.
    /// A verdict that completes no vote costs one session lookup.
    fn fold(&mut self, verdicts: &[Verdict]) -> Vec<Incident> {
        let mut raised = Vec::new();
        for v in verdicts {
            let Some(s) = self.sessions.session_mut(v.stream) else {
                continue;
            };
            // Verdicts leave the mux in submission order: the front
            // stamp is this window's.
            let stamp = s.stamps.pop_front();
            debug_assert_eq!(stamp.map(|(at, _)| at), Some(v.at_call));
            let retires = s.stamps.is_empty() && s.ended().is_some();
            if !s.latched && !s.shed {
                self.verdicts_folded += 1;
                s.verdicts += 1;
                if let Some((_, clock)) = stamp {
                    self.service_latencies
                        .record(self.events.saturating_sub(clock));
                }
                self.latencies
                    .record(s.calls_seen().saturating_sub(v.at_call as u64));
                let positive = v.classification.is_positive;
                if s.ring
                    .push(positive, self.vote_mask, self.config.votes_needed)
                {
                    s.latched = true;
                    raised.extend(self.latch(v));
                }
            }
            if retires {
                self.retire(v.stream);
            }
        }
        raised
    }

    /// The dispatch path of the verdict `v` that completed its
    /// session's vote: whitelist check, configured action, incident.
    fn latch(&mut self, v: &Verdict) -> Option<Incident> {
        let s = self.sessions.session(v.stream)?;
        let (pid, name, post_exit) = (s.pid(), s.name().map(str::to_string), !s.is_live());
        let verdicts_folded = s.verdicts;
        let (action, outcome) = if self.whitelist.contains(name.as_deref()) {
            (ActionTaken::Suppressed, ActionOutcome::NotAttempted)
        } else {
            let outcome = if self.config.action.stops_process() && !post_exit {
                // The terminal effect: dispatch to the backend and
                // record what it reported, not just the intent. Only a
                // process the backend stopped is marked killed: one it
                // failed to stop keeps running, and its calls still
                // count as its own.
                let dispatched = match self.config.action {
                    ActionKind::Quarantine => self.backend.quarantine(pid, name.as_deref()),
                    _ => self.backend.kill(pid, name.as_deref()),
                };
                match dispatched {
                    Ok(receipt) => {
                        self.sessions.kill(v.stream);
                        ActionOutcome::Applied(receipt)
                    }
                    Err(err) => ActionOutcome::Failed(err),
                }
            } else {
                ActionOutcome::NotAttempted
            };
            (self.config.action.taken(), outcome)
        };
        let incident = Incident {
            sid: v.stream,
            pid,
            name,
            alert: Alert {
                at_call: v.at_call,
                probability: v.classification.probability,
                inference_us: f64::from(verdicts_folded)
                    * self.config.window_len as f64
                    * self.per_item_us,
            },
            action,
            outcome,
            post_exit,
        };
        self.incidents.push(incident.clone());
        Some(incident)
    }

    /// Flattens the sentry's durable state for a checkpoint: the
    /// tracked sessions with their streams, so its size follows the
    /// sessions alive now.
    ///
    /// Call this *quiescently* — right after [`drain`](Self::drain),
    /// when the mux holds no queued or in-flight windows. Windows
    /// still in the mux are not captured; a restore from a
    /// non-quiescent snapshot would silently drop them. The latency
    /// histograms and the incident log are also excluded: the former
    /// are run-local telemetry, the latter's system of record is the
    /// durable journal (see [`adopt_incident`](Self::adopt_incident)).
    pub fn snapshot(&self) -> SentrySnapshot {
        let mut last_t_us: Vec<(u32, u64)> =
            self.last_t_us.iter().map(|(&pid, &t)| (pid, t)).collect();
        last_t_us.sort_unstable_by_key(|&(pid, _)| pid);
        SentrySnapshot {
            version: SNAPSHOT_VERSION,
            events: self.events,
            verdicts_folded: self.verdicts_folded,
            whitelist_exact: self.whitelist.exact().to_vec(),
            whitelist_prefixes: self.whitelist.prefixes().to_vec(),
            table: self.sessions.snapshot(),
            last_t_us,
            dup_events: self.dup_events,
            shed_log: self.shed_log.clone(),
            // The durable layer's to set: it has the journal.
            journal: JournalAnchor::default(),
        }
    }

    /// Rebuilds a sentry from a checkpoint over a fresh engine, with
    /// the *same* config the snapshotted sentry ran under (the config
    /// travels with the deployment, not the snapshot). Replaying the
    /// journal's event records from `snapshot.events` on brings the
    /// restored sentry to the uninterrupted run's incident set.
    ///
    /// The lifetime rule applies on the way in: the fresh mux holds
    /// nothing, so ended sessions the snapshot still carries (one taken
    /// before the drain that would have retired them) retire here.
    ///
    /// The incident log starts empty; [`adopt_incident`](Self::adopt_incident)
    /// refills it from the journal's incident records, and the
    /// incident-derived counters of [`stats`](Self::stats) are counted
    /// from it.
    ///
    /// # Panics
    ///
    /// Panics on the same config invariants as [`new`](Self::new).
    pub fn restore(
        engine: CsdInferenceEngine,
        config: SentryConfig,
        snap: &SentrySnapshot,
    ) -> Self {
        let vocab = engine.weights().dims().vocab;
        let idle_timeout_events = config.idle_timeout_events;
        let mut sentry = Self::new(engine, config);
        sentry.sessions = SessionTable::restore(vocab, idle_timeout_events, &snap.table);
        let ended: Vec<u64> = sentry
            .sessions
            .sessions()
            .filter(|s| s.ended().is_some())
            .map(|s| s.sid())
            .collect();
        for sid in ended {
            sentry.retire(sid);
        }
        sentry.last_t_us = snap.last_t_us.iter().copied().collect();
        sentry.dup_events = snap.dup_events;
        sentry.shed_log = snap.shed_log.clone();
        for name in &snap.whitelist_exact {
            sentry.whitelist.add(name);
        }
        for prefix in &snap.whitelist_prefixes {
            sentry.whitelist.add_prefix(prefix);
        }
        sentry.events = snap.events;
        sentry.verdicts_folded = snap.verdicts_folded;
        sentry
    }

    /// Re-adopts a journal-recovered incident: it rejoins the log, and
    /// its session, if the table tracks it, is latched
    /// ([`latch_adopted`](Self::latch_adopted)) — all *without*
    /// re-dispatching the backend. The action already ran (or failed)
    /// before the crash; recovery must not run it twice.
    ///
    /// A session retired before the checkpoint is not tracked, and
    /// nothing can fold against it any more. One that journal replay is
    /// yet to create is not tracked either: [`DurableSentry::open`]
    /// latches it when replay creates it.
    ///
    /// [`DurableSentry::open`]: crate::DurableSentry::open
    pub fn adopt_incident(&mut self, incident: Incident) {
        self.latch_adopted(&incident);
        self.incidents.push(incident);
    }

    /// Latches the session an adopted incident was raised against, so
    /// no window of it is submitted or folds again, and marks it killed
    /// if the incident's kill or quarantine applied: the process is
    /// gone, so its later calls are dropped and tallied. A session the
    /// table does not track is left alone.
    pub(crate) fn latch_adopted(&mut self, incident: &Incident) {
        let Some(s) = self.sessions.session_mut(incident.sid) else {
            return;
        };
        s.latched = true;
        if matches!(
            incident.action,
            ActionTaken::Killed | ActionTaken::Quarantined
        ) && matches!(incident.outcome, ActionOutcome::Applied(_))
        {
            self.sessions.kill(incident.sid);
        }
    }

    /// Every incident latched so far, in latch order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Verdict latency: events the session observed past window-full
    /// before each verdict folded.
    pub fn latencies(&self) -> &LatencyHistogram {
        &self.latencies
    }

    /// Verdict latency on the service clock: events ingested across all
    /// sessions between each window's fill and its verdict's fold — the
    /// deployment-side staleness of a verdict under interleaved load.
    pub fn service_latencies(&self) -> &LatencyHistogram {
        &self.service_latencies
    }

    /// The session table, read-only.
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// Engine-side loss (evicted / rejected) of a tracked
    /// session; a retired session's is in
    /// [`retired_loss`](Self::retired_loss).
    pub fn loss_for(&self, sid: u64) -> StreamLoss {
        self.sessions
            .session(sid)
            .map_or_else(StreamLoss::default, |s| s.loss)
    }

    /// Engine-side loss summed over retired sessions: with
    /// [`loss_for`](Self::loss_for) over the tracked ones it adds up to
    /// the totals in [`MuxStats`].
    pub fn retired_loss(&self) -> StreamLoss {
        self.retired_loss
    }

    /// Events ingested so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Aggregate counters. The incident-derived ones are counted from
    /// the incident log.
    pub fn stats(&self) -> SentryStats {
        let (mut suppressed, mut post_exit_incidents, mut actions_failed) = (0, 0, 0);
        for i in &self.incidents {
            suppressed += u64::from(i.action == ActionTaken::Suppressed);
            post_exit_incidents += u64::from(i.post_exit);
            actions_failed += u64::from(matches!(i.outcome, ActionOutcome::Failed(_)));
        }
        SentryStats {
            events: self.events,
            sessions_started: self.sessions.started(),
            sessions_ended: self.sessions.ended_count(),
            oov_calls: self.sessions.oov_total(),
            dropped_after_kill: self.sessions.dropped_after_kill(),
            stray_exits: self.sessions.stray_exits(),
            verdicts_folded: self.verdicts_folded,
            incidents: self.incidents.len() as u64,
            suppressed,
            post_exit_incidents,
            actions_failed,
            dup_events: self.dup_events,
            shed_sessions: self.shed_log.len() as u64,
            slo_polls: self.slo_polls,
            staleness: self.staleness(),
            mux: self.mux.stats(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::ProcessEvent;
    use csd_accel::{OptimizationLevel, ROUND_STEPS};
    use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

    const VOCAB: usize = 16;

    fn engine() -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), 9);
        CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        )
    }

    fn config() -> SentryConfig {
        SentryConfig {
            window_len: 8,
            stride: 4,
            votes_needed: 1,
            vote_horizon: 1,
            ..SentryConfig::default()
        }
    }

    /// A deterministic trace, same generator family as the stream
    /// tests.
    fn trace(salt: usize, n: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 7 + salt * 3) % VOCAB).collect()
    }

    fn feed(sentry: &mut Sentry, pid: u32, calls: &[usize]) {
        for (i, &c) in calls.iter().enumerate() {
            sentry.ingest(&ProcessEvent::api(i as u64, pid, c));
        }
    }

    #[test]
    fn verdicts_match_offline_classification_window_for_window() {
        let e = engine();
        let offline = e.clone();
        let mut sentry = Sentry::new(e, config());
        let calls = trace(1, 24);
        feed(&mut sentry, 10, &calls);
        sentry.ingest(&ProcessEvent::exit(99, 10));
        let incidents = sentry.drain();
        // Oracle: alert iff any of the serial monitor's windows
        // (offset 0, then every stride) classifies positive.
        let any_positive = (0..)
            .map(|k| k * 4)
            .take_while(|&off| off + 8 <= calls.len())
            .any(|off| offline.classify(&calls[off..off + 8]).is_positive);
        assert_eq!(
            sentry.incidents().iter().any(|i| i.pid == 10),
            any_positive,
            "live alert parity with offline classify"
        );
        assert_eq!(incidents.len(), usize::from(any_positive));
        assert_eq!(
            sentry.sessions().tracked(),
            0,
            "exited and drained: the session has retired"
        );
    }

    #[test]
    fn one_incident_per_session_and_it_latches() {
        let e = engine();
        let mut sentry = Sentry::new(e, config());
        // Long trace: many windows, but at most one incident.
        feed(&mut sentry, 5, &trace(2, 200));
        sentry.drain();
        assert!(sentry.incidents().len() <= 1);
        let stats = sentry.stats();
        assert!(stats.verdicts_folded >= 1);
    }

    #[test]
    fn kill_action_stops_the_session_and_tallies_stragglers() {
        let e = engine();
        let offline = e.clone();
        let mut cfg = config();
        cfg.action = ActionKind::Kill;
        let mut sentry = Sentry::new(e, cfg);
        // Find a salt whose first window classifies positive so the
        // kill path actually fires.
        let salt = (0..64)
            .find(|&s| offline.classify(&trace(s, 8)).is_positive)
            .expect("some window classifies positive");
        let calls = trace(salt, 8);
        feed(&mut sentry, 77, &calls);
        let incidents = sentry.drain();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].action, ActionTaken::Killed);
        let sid = incidents[0].sid;
        assert!(sentry.sessions().session(sid).unwrap().is_killed());
        // Stragglers after the kill are dropped and tallied.
        sentry.ingest(&ProcessEvent::api(1000, 77, 1));
        sentry.ingest(&ProcessEvent::api(1001, 77, 2));
        assert_eq!(sentry.stats().dropped_after_kill, 2);
    }

    /// A session that latched but keeps running (a Log action here; a
    /// whitelisted image, a failed kill and a shed session alike) holds
    /// at most a window of calls, however long it runs: no window of it
    /// is ever submitted again.
    #[test]
    fn a_latched_session_left_running_holds_at_most_a_window() {
        let e = engine();
        let offline = e.clone();
        let cfg = config();
        assert_eq!(cfg.action, ActionKind::Log);
        let window_len = cfg.window_len;
        let mut sentry = Sentry::new(e, cfg);
        let salt = (0..64)
            .find(|&s| offline.classify(&trace(s, 8)).is_positive)
            .expect("some window classifies positive");
        feed(&mut sentry, 77, &trace(salt, 8));
        assert_eq!(sentry.drain().len(), 1);
        for i in 0..2_000u64 {
            sentry.ingest(&ProcessEvent::api(100 + i, 77, (i % 16) as usize));
        }
        let snap = sentry.snapshot();
        let held: Vec<usize> = snap.table.sessions.iter().map(|s| s.buf.len()).collect();
        assert_eq!(held.len(), 1);
        assert!(held[0] <= window_len, "{} calls held", held[0]);
    }

    #[test]
    fn whitelisted_image_suppresses_the_action_but_records_the_firing() {
        let e = engine();
        let offline = e.clone();
        let mut cfg = config();
        cfg.action = ActionKind::Kill;
        let mut sentry = Sentry::new(e, cfg);
        sentry.whitelist_mut().add("backup.exe");
        let salt = (0..64)
            .find(|&s| offline.classify(&trace(s, 8)).is_positive)
            .expect("some window classifies positive");
        sentry.ingest(&ProcessEvent::spawn(0, 3, "backup.exe"));
        feed(&mut sentry, 3, &trace(salt, 8));
        let incidents = sentry.drain();
        assert_eq!(incidents.len(), 1, "detection is never suppressed");
        assert_eq!(incidents[0].action, ActionTaken::Suppressed);
        let sid = incidents[0].sid;
        assert!(
            !sentry.sessions().session(sid).unwrap().is_killed(),
            "whitelisted process keeps running"
        );
        assert_eq!(sentry.stats().suppressed, 1);
    }

    #[test]
    fn verdict_racing_an_exit_folds_post_exit_against_the_dead_session() {
        let e = engine();
        let offline = e.clone();
        let mut cfg = config();
        cfg.action = ActionKind::Kill;
        let mut sentry = Sentry::new(e, cfg);
        let salt = (0..64)
            .find(|&s| offline.classify(&trace(s, 8)).is_positive)
            .expect("some window classifies positive");
        // Submit the window, then exit before draining: the verdict
        // lands after the session ended.
        feed(&mut sentry, 8, &trace(salt, 8));
        sentry.ingest(&ProcessEvent::exit(100, 8));
        let incidents = sentry.drain();
        assert_eq!(incidents.len(), 1);
        assert!(incidents[0].post_exit);
        assert_eq!(sentry.stats().post_exit_incidents, 1);
        // Reuse the pid: the old incident must not move, and the new
        // incarnation starts clean.
        sentry.ingest(&ProcessEvent::spawn(101, 8, "fresh.exe"));
        let new_sid = sentry.sessions().sid_for_pid(8).unwrap();
        assert_ne!(new_sid, incidents[0].sid);
        assert!(sentry.incidents().iter().all(|i| i.sid != new_sid));
    }

    #[test]
    fn latency_samples_count_events_past_window_full() {
        let e = engine();
        let mut sentry = Sentry::new(e, config());
        // Exactly one window, drained immediately after it fills: the
        // session observes no further events, so latency is 0.
        feed(&mut sentry, 2, &trace(3, 8));
        sentry.drain();
        let latencies = sentry.latencies();
        assert_eq!((latencies.count(), latencies.max()), (1, 0));
        // Feed more calls before draining the next window's verdict:
        // latency counts them.
        feed(&mut sentry, 2, &trace(3, 8)); // completes windows at stride 4
        sentry.drain();
        assert!(sentry.latencies().count() >= 2);
        assert!(sentry.latencies().max() > 0);
    }

    #[test]
    fn service_latency_counts_events_ingested_between_fill_and_fold() {
        let e = engine();
        let mut sentry = Sentry::new(e, config());
        // Fill pid 1's window, then ingest 10 events on *another* pid
        // before draining: the service clock advanced 10 between fill
        // and fold.
        feed(&mut sentry, 1, &trace(5, 8));
        feed(&mut sentry, 2, &trace(6, 10));
        sentry.drain();
        assert_eq!(
            sentry.service_latencies().max(),
            10,
            "pid 1's verdict was 10 ingested events stale"
        );
        // Session-local latency for pid 1 is still 0: *it* observed
        // nothing past window-full.
        assert_eq!(sentry.latencies().quantile(0.0), 0);
    }

    #[test]
    fn oov_calls_never_reach_the_engine() {
        let e = engine();
        let mut sentry = Sentry::new(e, config());
        let mut calls = trace(4, 8);
        calls.insert(3, 5000); // far out of vocabulary
        feed(&mut sentry, 12, &calls);
        sentry.drain();
        let stats = sentry.stats();
        assert_eq!(stats.oov_calls, 1);
        assert_eq!(stats.mux.rejected, 0, "filtered at ingest, not at the mux");
    }

    #[test]
    fn monotone_dedup_drops_resent_frames_but_keeps_the_event_clock() {
        let e = engine();
        let mut cfg = config();
        cfg.dedup_monotone_ts = true;
        let mut sentry = Sentry::new(e, cfg);
        sentry.ingest(&ProcessEvent::api(5, 1, 3));
        // An at-least-once transport re-delivers the same frame.
        sentry.ingest(&ProcessEvent::api(5, 1, 3));
        // And an older one, out of order after a reset.
        sentry.ingest(&ProcessEvent::api(4, 1, 7));
        let stats = sentry.stats();
        assert_eq!(stats.dup_events, 2, "both re-deliveries dropped");
        assert_eq!(
            stats.events, 3,
            "duplicates still occupy an ingest-clock slot (journal cursor parity)"
        );
        let calls: u64 = sentry.sessions().sessions().map(|s| s.calls_seen()).sum();
        assert_eq!(calls, 1, "the session saw the call exactly once");
        // A genuinely newer frame passes.
        sentry.ingest(&ProcessEvent::api(6, 1, 2));
        assert_eq!(sentry.stats().dup_events, 2);
    }

    /// A sentry with `pids` sessions' first windows (eight calls each)
    /// admitted and nothing served yet.
    fn queued(pids: u32) -> Sentry {
        let mut cfg = config();
        cfg.mux.shards = Some(1);
        let mut sentry = Sentry::new(engine(), cfg);
        for pid in 1..=pids {
            feed(&mut sentry, pid, &trace(pid as usize, 8));
        }
        assert_eq!(sentry.mux.pending(), pids as usize);
        sentry
    }

    #[test]
    fn poll_returns_a_verdict_at_the_first_poll_after_the_windows_last_call() {
        let offline = engine();
        let salt = (0..64)
            .find(|&s| offline.classify(&trace(s, 8)).is_positive)
            .expect("some window classifies positive");
        let mut cfg = config();
        cfg.mux.shards = Some(1);
        let mut sentry = Sentry::new(engine(), cfg);
        let calls = trace(salt, 8);
        feed(&mut sentry, 1, &calls[..7]);
        assert!(sentry.poll().is_empty(), "no window yet");
        feed(&mut sentry, 1, &calls[7..]);
        // Not some polls later: this one.
        let raised = sentry.poll();
        assert_eq!(raised.len(), 1);
        assert_eq!((raised[0].pid, raised[0].alert.at_call), (1, 8));
        assert_eq!(sentry.staleness(), 0);
    }

    #[test]
    fn poll_stops_at_its_budget_and_the_backlog_keeps_ageing() {
        // Two hundred eight-step windows are 1,600 window-steps: a
        // poll's 1,024 serve 128 of them, the rest still waits.
        let mut sentry = queued(200);
        sentry.poll();
        let served = POLL_ROUNDS_MAX * ROUND_STEPS / 8;
        assert_eq!(sentry.stats().verdicts_folded as usize, served);
        assert_eq!(sentry.mux.pending(), 200 - served);
        let stale = sentry.staleness();
        assert!(stale > 0, "the oldest window left is already behind");
        // Unbuffered events move the clock and nothing else.
        for t in 0..10 {
            sentry.ingest(&ProcessEvent::exit(t, 9999));
        }
        assert_eq!(sentry.staleness(), stale + 10);
        // The next poll serves the rest.
        sentry.poll();
        assert!(sentry.mux.is_idle());
        assert_eq!((sentry.staleness(), sentry.mux.stats().ticks), (0, 2));
    }

    /// When windows classify never changes what latches: serving them
    /// to the verdict raises the incidents one-round polling raises.
    #[test]
    fn serving_poll_raises_the_incidents_of_one_round_polling() {
        let run = |serve: fn(&mut Sentry) -> Vec<Incident>| {
            let mut cfg = config();
            cfg.mux.shards = Some(1);
            let mut sentry = Sentry::new(engine(), cfg);
            let mut returned = 0;
            for i in 0..48usize {
                for pid in 1..=6u32 {
                    let call = trace(pid as usize, 48)[i];
                    sentry.ingest(&ProcessEvent::api(i as u64, pid, call));
                }
                if i % 4 == 3 {
                    returned += serve(&mut sentry).len();
                }
            }
            returned += sentry.drain().len();
            assert_eq!(returned, sentry.incidents().len());
            let mut keys: Vec<_> = sentry
                .incidents()
                .iter()
                .map(|i| (i.sid, i.pid, i.alert.at_call))
                .collect();
            keys.sort_unstable();
            keys
        };
        let served = run(Sentry::poll);
        assert!(!served.is_empty(), "the feed raises incidents");
        assert_eq!(served, run(Sentry::round));
    }

    /// Long windows at a short stride against a fixed caller poll
    /// cadence: a window of 64 calls every 2, so a session offers 32
    /// window-steps per call of its own, and 3-of-3 votes, so the
    /// sessions keep submitting. Feeds `rounds` strides of traffic on
    /// `n_pids` concurrent sessions, polling every `cadence` events,
    /// and returns the worst staleness observed. At every event the
    /// queue-head staleness is checked against the scan of every
    /// session.
    fn overload_run(slo: Option<u64>, n_pids: u32, rounds: usize, cadence: u64) -> (Sentry, u64) {
        let mut cfg = config();
        cfg.window_len = 64;
        cfg.stride = 2;
        cfg.votes_needed = 3;
        cfg.vote_horizon = 3;
        cfg.staleness_slo = slo;
        cfg.mux.shards = Some(1);
        cfg.mux.max_pending = 4096;
        let mut sentry = Sentry::new(engine(), cfg);
        let mut t = 0u64;
        let mut worst = 0u64;
        for round in 0..rounds {
            for pid in 1..=n_pids {
                for k in 0..4usize {
                    t += 1;
                    sentry.ingest(&ProcessEvent::api(
                        t,
                        pid,
                        (round * 4 + k + pid as usize) % VOCAB,
                    ));
                    assert_eq!(sentry.staleness(), sentry.staleness_by_scan(), "event {t}");
                    worst = worst.max(sentry.staleness());
                    if t.is_multiple_of(cadence) {
                        sentry.poll();
                        assert_eq!(sentry.staleness(), sentry.staleness_by_scan());
                    }
                }
            }
        }
        (sentry, worst)
    }

    /// Pins the degeneration the governor exists to fix: with a fixed
    /// poll cadence and no SLO, ingest outpaces the engine and verdict
    /// staleness grows without bound — the backlog at the end is
    /// proportional to everything ever fed. The cadence has to be
    /// lazier than a poll's budget for that: 128 events offer 4,096
    /// window-steps, and a poll serves [`POLL_ROUNDS_MAX`] rounds,
    /// 1,024 of them.
    #[test]
    fn fixed_poll_cadence_degenerates_staleness_without_an_slo() {
        let (sentry, worst) = overload_run(None, 4, 40, 128);
        assert_eq!(sentry.overload_level(), OverloadLevel::Normal);
        assert_eq!(sentry.stats().slo_polls, 0);
        assert!(
            worst > 200,
            "staleness should degenerate under fixed cadence, got {worst}"
        );
        assert!(sentry.shed_log().is_empty(), "no governor, no shedding");
    }

    /// The same workload under an SLO: the ladder engages, polling goes
    /// SLO-driven, and worst-case staleness stays bounded near the shed
    /// threshold instead of growing with the feed length.
    #[test]
    fn slo_governor_bounds_staleness_under_the_same_workload() {
        let slo = 48u64;
        let (sentry, worst) = overload_run(Some(slo), 4, 40, 64);
        let stats = sentry.stats();
        assert!(stats.slo_polls > 0, "the governor drove extra polls");
        assert!(
            worst <= 3 * slo,
            "staleness bounded near the ladder's top rung, got {worst} (slo {slo})"
        );
        // Shedding, if it happened, is typed and counted — never
        // silent.
        assert_eq!(stats.shed_sessions, sentry.shed_log().len() as u64);
        for rec in sentry.shed_log() {
            assert!(rec.windows_outstanding > 0, "shed records carry the loss");
            let session = sentry
                .sessions()
                .session(rec.sid)
                .expect("shed sid tracked");
            assert_eq!(session.pid(), rec.pid);
            assert!(
                sentry.incidents().iter().all(|i| i.sid != rec.sid),
                "only zero-vote sessions are shed"
            );
        }
    }

    /// Forcing the ladder to the top rung sheds only sessions that have
    /// folded a verdict with zero positive votes, and a shed stream
    /// folds nothing afterwards.
    #[test]
    fn shed_rung_sheds_only_zero_vote_sessions_and_freezes_them() {
        let slo = 16u64;
        let (sentry, _) = overload_run(Some(slo), 6, 60, u64::MAX);
        assert!(
            !sentry.shed_log().is_empty(),
            "32 window-steps an event against the governor's 16 with slo 16 must shed"
        );
        let shed_sids: Vec<u64> = sentry.shed_log().iter().map(|r| r.sid).collect();
        let mut sorted = shed_sids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), shed_sids.len(), "a session shed twice");
        for incident in sentry.incidents() {
            assert!(
                !shed_sids.contains(&incident.sid),
                "an incident was raised for a shed session"
            );
        }
    }

    /// Pins the ladder directly: entry above `slo/2` and `2·slo`,
    /// release one rung per governor step at half the entry threshold,
    /// SLO-driven polls from FastPoll up, shedding only at Shed.
    #[test]
    fn overload_ladder_climbs_and_releases_one_rung_per_step() {
        /// Sets staleness by moving the ingest clock (every planted
        /// window below is stamped at event 1), then runs one governor
        /// step.
        fn step(sentry: &mut Sentry, staleness: u64) -> (OverloadLevel, u64, usize) {
            sentry.events = 1 + staleness;
            sentry.govern();
            (
                sentry.overload_level(),
                sentry.slo_polls,
                sentry.shed_log().len(),
            )
        }
        use OverloadLevel::{FastPoll, Normal, Shed};

        let slo = 64u64;
        let mut cfg = config();
        cfg.staleness_slo = Some(slo);
        let mut sentry = Sentry::new(engine(), cfg);
        sentry.ingest(&ProcessEvent::api(0, 7, 1));
        sentry.ingest(&ProcessEvent::api(0, 8, 1));
        let sid = sentry.sessions().sid_for_pid(7).unwrap();
        // A window of no tracked session, served first, leaves the mux
        // owing more window-steps than the rounds below pay off: the
        // governor's rounds serve nothing, and staleness is exactly
        // what `step` sets.
        let owed: Vec<usize> = (0..20_000).map(|i| i % VOCAB).collect();
        sentry.mux.submit(u64::MAX, 0, &owed);
        assert_eq!(sentry.mux.tick().len(), 1);
        let window = trace(1, 8);
        // The live session has folded one negative verdict and has a
        // window outstanding: what Shed sheds.
        let s = sentry.sessions.session_mut(sid).unwrap();
        s.verdicts = 1;
        assert!(sentry.mux.submit(sid, 8, &window).queued());
        s.stamps.push_back((8, 1));
        // A stream with no verdict folded yet is never shed, so it
        // keeps staleness defined once the first one is.
        let unscored = sentry.sessions.session_mut(sid + 1).unwrap();
        assert!(sentry.mux.submit(sid + 1, 8, &window).queued());
        unscored.stamps.push_back((8, 1));

        assert_eq!(step(&mut sentry, slo / 4), (Normal, 0, 0));
        assert_eq!(step(&mut sentry, slo / 2), (Normal, 0, 0));
        assert_eq!(step(&mut sentry, slo / 2 + 1), (FastPoll, 1, 0));
        assert_eq!(step(&mut sentry, slo), (FastPoll, 2, 0));
        assert_eq!(step(&mut sentry, 2 * slo), (FastPoll, 3, 0));
        assert_eq!(step(&mut sentry, 2 * slo + 1), (Shed, 4, 1));
        assert_eq!(sentry.shed_log()[0].sid, sid);
        // Release at half the entry threshold, not at it.
        assert_eq!(step(&mut sentry, slo + 1), (Shed, 5, 1));
        assert_eq!(step(&mut sentry, slo), (FastPoll, 6, 1));
        assert_eq!(step(&mut sentry, slo / 4 + 1), (FastPoll, 7, 1));
        assert_eq!(step(&mut sentry, slo / 4), (Normal, 7, 1));
        // A collapse in staleness still descends one rung per step.
        assert_eq!(step(&mut sentry, 2 * slo + 1), (Shed, 8, 1));
        assert_eq!(step(&mut sentry, 0), (FastPoll, 9, 1));
        assert_eq!(step(&mut sentry, 0), (Normal, 9, 1));
    }

    /// The idle sweep runs every quarter of the timeout, so a session
    /// ends within 1¼ timeouts of its last event.
    #[test]
    fn an_idle_session_ends_within_a_quarter_timeout_of_going_idle() {
        let cfg = SentryConfig {
            idle_timeout_events: Some(20),
            ..SentryConfig::default()
        };
        let mut sentry = Sentry::new(engine(), cfg);
        feed(&mut sentry, 1, &trace(1, 5));
        let busy = trace(2, 30);
        // Events 6..=24: pid 1 has been idle for less than the timeout.
        feed(&mut sentry, 2, &busy[..19]);
        assert_eq!(sentry.stats().sessions_ended, 0, "not idle long enough");
        // Pid 2's 25th call is event 30: 1¼ timeouts after pid 1's last.
        feed(&mut sentry, 2, &busy[19..25]);
        assert_eq!(sentry.stats().sessions_ended, 1);
        assert_eq!(sentry.sessions().sid_for_pid(1), None, "pid 1 is unlinked");
        feed(&mut sentry, 2, &busy[25..]);
        assert!(sentry.sessions().sid_for_pid(2).is_some(), "pid 2 is busy");
    }

    /// An evicted window never folds, and the mux names it, so its stamp
    /// goes with it. A stamp left behind stayed outstanding for ever:
    /// staleness grew by one an event after a full drain, and with an
    /// SLO the governor climbed to Shed and stayed there, since Shed
    /// never sheds a session that has folded no verdict.
    #[test]
    fn an_evicted_window_leaves_nothing_outstanding() {
        let mut cfg = config();
        cfg.stride = 8;
        cfg.staleness_slo = Some(64);
        cfg.mux.max_pending = 2;
        let mut sentry = Sentry::new(engine(), cfg);
        // Three sessions fill a window each; the third evicts the first.
        for pid in 1..=3 {
            feed(&mut sentry, pid, &trace(pid as usize, 8));
        }
        assert_eq!(sentry.stats().mux.evicted, 1);
        sentry.drain();
        assert_eq!(sentry.staleness(), 0, "nothing is outstanding");
        // Forty one-window sessions, each served at the next poll.
        for pid in 10..50u32 {
            feed(&mut sentry, pid, &trace(pid as usize, 8));
            sentry.ingest(&ProcessEvent::exit(0, pid));
            sentry.poll();
            assert_eq!(sentry.staleness(), 0, "pid {pid}");
        }
        assert_eq!(sentry.overload_level(), OverloadLevel::Normal);
        assert_eq!(sentry.stats().slo_polls, 0);
    }
}
