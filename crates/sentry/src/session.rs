//! Per-PID session tracking: the lifecycle layer under the sentry.
//!
//! The OS recycles PIDs, so a PID is not an identity. The table maps
//! each observed PID to a *session* — one incarnation of a process —
//! keyed by a monotonically increasing session id that is never
//! reused. Verdicts, votes, and latched incidents downstream key on the
//! session id, so a verdict raised against incarnation N of a PID can
//! never be attributed to incarnation N+1, and an incident latched
//! against a dead incarnation survives the PID's reuse untouched.
//!
//! Lifecycle: a session begins at an explicit `Spawn` or implicitly at
//! the first API call from an unknown PID (the monitor attached after
//! the process started — normal at deployment). It ends at `Exit`, at
//! an idle timeout (no events for `idle_timeout_events` ticks of the
//! table's event-count clock — deterministic, no wall clock; the sentry
//! sweeps every quarter of the timeout, so an idle session ends within
//! 1¼ timeouts of its last event), or by
//! being superseded when a `Spawn` arrives on its PID (the old process
//! died unobserved). A killed session (the action layer terminated the
//! process) stays PID-linked so straggler events are recognized,
//! dropped, and tallied rather than misread as a new process.
//!
//! Only *live* sessions hold a call buffer; ending or killing a session
//! frees its buffer immediately, and the buffer itself is compacted as
//! windows are consumed (see [`Session::discard_consumed`]) so resident
//! memory per session stays O(window) rather than O(trace).
//!
//! A session is also the one record of its stream on the sentry side:
//! the window cursor, the vote ring, the latched and shed flags, the
//! stamps of its windows the mux holds and what the mux lost of them
//! ([`StreamLoss`]: windows evicted from the mux's full queue, or
//! rejected for out-of-vocabulary calls) live on it, so a session and
//! its stream have one lifetime and one lookup.
//!
//! An ended session is no longer PID-linked, so no event can reach it;
//! the table keeps it only until its owner calls
//! [`retire`](SessionTable::retire) — the sentry does so once no
//! verdict can reference the session id any more. Retirement folds the
//! session's tallies into table totals and frees the entry; the id is
//! still never handed out again (`next_sid` only grows), so the table
//! holds O(live) sessions rather than every session it ever saw.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use csd_accel::VoteRing;

use crate::event::{EventKind, ProcessEvent};
use crate::snapshot::{SessionSnap, TableSnap};

/// Hasher for maps keyed by session id: one multiply a key, the
/// product rotated so the bits the map indexes by come from its mixed
/// top half. SipHash's random seed defends against keys chosen to
/// collide, and no producer chooses a sid — the table issues them — so
/// a sid probe costs ≈ 3 ns here instead of ≈ 12 (see the
/// [`journal`](crate::journal) module docs). PID-keyed maps keep
/// `RandomState`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SidHasher(u64);

impl Hasher for SidHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
}

/// A map keyed by session id, hashed with [`SidHasher`].
pub(crate) type SidMap<V> = HashMap<u64, V, BuildHasherDefault<SidHasher>>;

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// An `Exit` event arrived.
    Exit,
    /// No events for the configured idle window.
    IdleTimeout,
    /// A `Spawn` arrived on the same PID: the OS recycled it, so this
    /// incarnation must have died unobserved.
    Superseded,
}

/// Windows of one session that never produced a verdict, by cause, so
/// a report can say *why* a process lost coverage: was its data
/// garbage, or was it overload eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamLoss {
    /// Admitted windows later evicted by backpressure: the mux's queue
    /// was full and a newer window took the oldest one's place.
    pub evicted: u64,
    /// Windows refused at submission for out-of-vocabulary tokens.
    pub rejected: u64,
}

impl StreamLoss {
    /// Total windows of the session that never produced a verdict.
    pub fn total(&self) -> u64 {
        self.evicted + self.rejected
    }
}

/// One incarnation of a process, and its stream: the fields from
/// `submitted` on are the sentry's, kept here so that a session is
/// stored once.
#[derive(Debug)]
pub struct Session {
    sid: u64,
    pid: u32,
    name: Option<String>,
    /// In-vocabulary calls not yet discarded by window consumption.
    buf: Vec<usize>,
    /// Stream position of `buf[0]`: `base + buf.len()` is the total
    /// in-vocabulary call count.
    base: usize,
    calls_seen: u64,
    oov: u64,
    killed: bool,
    /// The call that kills the session when it arrives: an adopted
    /// kill's point, set by [`SessionTable::kill_at`] ahead of the
    /// replay that reaches it (so never in a checkpoint).
    kill_at: Option<u64>,
    ended: Option<EndReason>,
    started_at: u64,
    last_event: u64,
    /// Windows submitted so far; the next starts at
    /// `submitted * stride`.
    pub(crate) submitted: usize,
    /// Last `vote_horizon` verdicts.
    pub(crate) ring: VoteRing,
    /// Verdicts folded for this session.
    pub(crate) verdicts: u32,
    /// An incident latched; no further windows or folds.
    pub(crate) latched: bool,
    /// Shed by the overload governor: no further windows or folds, and
    /// outstanding verdicts are ignored — the typed coverage loss of
    /// [`OverloadLevel::Shed`](crate::OverloadLevel::Shed).
    pub(crate) shed: bool,
    /// `(at_call, ingest clock)` of each window of this session the
    /// mux holds, oldest first: pushed when the mux queues a window,
    /// popped when its verdict folds or the mux evicts it. The mux is a
    /// FIFO, so both leave from the front.
    pub(crate) stamps: VecDeque<(usize, u64)>,
    /// Windows of this session the mux lost.
    pub(crate) loss: StreamLoss,
}

impl Session {
    fn new(sid: u64, pid: u32, name: Option<String>, clock: u64) -> Self {
        Self {
            sid,
            pid,
            name,
            buf: Vec::new(),
            base: 0,
            calls_seen: 0,
            oov: 0,
            killed: false,
            kill_at: None,
            ended: None,
            started_at: clock,
            last_event: clock,
            submitted: 0,
            ring: VoteRing::default(),
            verdicts: 0,
            latched: false,
            shed: false,
            stamps: VecDeque::new(),
            loss: StreamLoss::default(),
        }
    }

    /// The never-reused session id.
    pub fn sid(&self) -> u64 {
        self.sid
    }

    /// The OS process id this incarnation ran under.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Image name, if a `Spawn` was observed (implicit sessions have
    /// none).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// All API-call events observed, including out-of-vocabulary ones.
    pub fn calls_seen(&self) -> u64 {
        self.calls_seen
    }

    /// Out-of-vocabulary calls observed (dropped at ingest, tallied).
    pub fn oov(&self) -> u64 {
        self.oov
    }

    /// Whether the action layer killed this session.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// Why the session ended, if it has.
    pub fn ended(&self) -> Option<EndReason> {
        self.ended
    }

    /// Table-clock value when the session began.
    pub fn started_at(&self) -> u64 {
        self.started_at
    }

    /// Table-clock value of the session's most recent event.
    pub fn last_event(&self) -> u64 {
        self.last_event
    }

    /// Whether the session still accepts events into its buffer.
    pub fn is_live(&self) -> bool {
        self.ended.is_none() && !self.killed
    }

    /// Total in-vocabulary calls buffered over the session's life.
    pub fn vocab_calls(&self) -> usize {
        self.base + self.buf.len()
    }

    /// The buffered calls covering stream positions
    /// `[offset, offset + len)`, or `None` if they are not all buffered
    /// (either not yet observed or already discarded).
    pub fn window_at(&self, offset: usize, len: usize) -> Option<&[usize]> {
        let start = offset.checked_sub(self.base)?;
        self.buf.get(start..start + len)
    }

    /// Discards buffered calls before stream position `upto` — they
    /// have been consumed by every window that will ever need them.
    /// Keeps per-session residency at O(window length), not O(trace).
    pub fn discard_consumed(&mut self, upto: usize) {
        if upto > self.base {
            let n = (upto - self.base).min(self.buf.len());
            self.buf.drain(..n);
            self.base += n;
        }
    }

    /// Frees the call buffer (session end / kill).
    fn retire_buffer(&mut self) {
        self.base += self.buf.len();
        self.buf = Vec::new();
    }

    /// Flattens the session for a checkpoint.
    fn snap(&self) -> SessionSnap {
        SessionSnap {
            sid: self.sid,
            pid: self.pid,
            name: self.name.clone(),
            buf: self.buf.clone(),
            base: self.base,
            calls_seen: self.calls_seen,
            oov: self.oov,
            killed: self.killed,
            ended: match self.ended {
                None => 0,
                Some(EndReason::Exit) => 1,
                Some(EndReason::IdleTimeout) => 2,
                Some(EndReason::Superseded) => 3,
            },
            started_at: self.started_at,
            last_event: self.last_event,
            submitted: self.submitted,
            ring: self.ring.bits(),
            verdicts: self.verdicts,
            latched: self.latched,
            shed: self.shed,
        }
    }

    /// Rebuilds a session from its checkpoint form. A checkpoint is
    /// taken with the mux empty, so no window is outstanding; the loss
    /// restarts with the mux's counters.
    fn from_snap(s: &SessionSnap) -> Self {
        Self {
            sid: s.sid,
            pid: s.pid,
            name: s.name.clone(),
            buf: s.buf.clone(),
            base: s.base,
            calls_seen: s.calls_seen,
            oov: s.oov,
            killed: s.killed,
            kill_at: None,
            ended: match s.ended {
                1 => Some(EndReason::Exit),
                2 => Some(EndReason::IdleTimeout),
                3 => Some(EndReason::Superseded),
                _ => None,
            },
            started_at: s.started_at,
            last_event: s.last_event,
            submitted: s.submitted,
            ring: VoteRing::from_bits(s.ring),
            verdicts: s.verdicts,
            latched: s.latched,
            shed: s.shed,
            stamps: VecDeque::new(),
            loss: StreamLoss::default(),
        }
    }
}

/// What [`SessionTable::apply`] did with an event — the service routes
/// on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A session began (explicit spawn, or implicit on first call from
    /// an unknown PID). For implicit starts the same event also carried
    /// a call — `buffered` reports it like [`Applied::Call`].
    Started {
        /// The new session.
        sid: u64,
        /// `Some(true)` if the triggering call was buffered,
        /// `Some(false)` if it was out-of-vocabulary, `None` for an
        /// explicit spawn (no call).
        buffered: Option<bool>,
        /// The session the PID was still linked to, ended as
        /// [`EndReason::Superseded`] by this start.
        superseded: Option<u64>,
    },
    /// A call on a live session: `buffered` is `false` for an
    /// out-of-vocabulary call (tallied, not buffered).
    Call {
        /// The session the call belongs to.
        sid: u64,
        /// Whether the call entered the window buffer.
        buffered: bool,
    },
    /// A call on a killed session — dropped and tallied.
    DroppedKilled(u64),
    /// The session exited.
    Exited(u64),
    /// An `Exit` for a PID the table has never seen — tallied.
    StrayExit,
}

/// The PID → session map and lifecycle driver.
#[derive(Debug)]
pub struct SessionTable {
    vocab: usize,
    idle_timeout_events: Option<u64>,
    /// Live and killed sessions, PID-linked.
    by_pid: HashMap<u32, u64>,
    /// PID-linked sessions plus ended ones not yet retired.
    sessions: SidMap<Session>,
    next_sid: u64,
    clock: u64,
    started: u64,
    ended: u64,
    dropped_after_kill: u64,
    stray_exits: u64,
    oov_total: u64,
    /// `calls_seen` / `oov` of retired sessions, so the per-session
    /// tallies still sum to the table's totals.
    retired_calls: u64,
    retired_oov: u64,
}

impl SessionTable {
    /// A table over a `vocab`-call vocabulary. Sessions idle for
    /// `idle_timeout_events` events of the table clock are ended by
    /// [`sweep_idle`](Self::sweep_idle); `None` disables the timeout.
    ///
    /// # Panics
    ///
    /// Panics if `vocab == 0` or `idle_timeout_events == Some(0)`.
    pub fn new(vocab: usize, idle_timeout_events: Option<u64>) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(
            idle_timeout_events != Some(0),
            "a zero idle timeout would end every session at its next event"
        );
        Self {
            vocab,
            idle_timeout_events,
            by_pid: HashMap::new(),
            sessions: SidMap::default(),
            next_sid: 1,
            clock: 0,
            started: 0,
            ended: 0,
            dropped_after_kill: 0,
            stray_exits: 0,
            oov_total: 0,
            retired_calls: 0,
            retired_oov: 0,
        }
    }

    /// The event-count clock: events applied so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Applies one event, advancing the clock, and reports what
    /// happened. Never panics on any event sequence — spawn-less calls,
    /// double exits, recycled PIDs, and out-of-vocabulary calls are all
    /// legal inputs at this boundary.
    pub fn apply(&mut self, event: &ProcessEvent) -> Applied {
        self.clock += 1;
        match &event.kind {
            EventKind::Spawn(name) => {
                let (sid, superseded) = self.begin(event.pid, Some(name.clone()));
                Applied::Started {
                    sid,
                    buffered: None,
                    superseded,
                }
            }
            EventKind::Api(call) => self.on_call(event.pid, *call),
            EventKind::Exit => match self.by_pid.remove(&event.pid) {
                Some(sid) => {
                    self.end(sid, EndReason::Exit);
                    Applied::Exited(sid)
                }
                None => {
                    self.stray_exits += 1;
                    Applied::StrayExit
                }
            },
        }
    }

    fn on_call(&mut self, pid: u32, call: usize) -> Applied {
        let (sid, fresh) = match self.by_pid.get(&pid) {
            Some(&sid) => (sid, false),
            // An unlinked PID supersedes nobody.
            None => (self.begin(pid, None).0, true),
        };
        let Some(s) = self.sessions.get_mut(&sid) else {
            // `by_pid` and `sessions` are maintained together; an
            // unlinked sid here would be a table bug, not bad input.
            unreachable!("pid-linked session {sid} missing from table");
        };
        s.last_event = self.clock;
        // A PID links only a live or a killed session: every way a
        // session ends unlinks it, and `restore` keeps no other link.
        if s.killed {
            self.dropped_after_kill += 1;
            return Applied::DroppedKilled(sid);
        }
        s.calls_seen += 1;
        let buffered = call < self.vocab;
        if buffered {
            s.buf.push(call);
        } else {
            s.oov += 1;
            self.oov_total += 1;
        }
        if s.kill_at == Some(s.calls_seen) {
            s.killed = true;
            s.retire_buffer();
        }
        if fresh {
            Applied::Started {
                sid,
                buffered: Some(buffered),
                superseded: None,
            }
        } else {
            Applied::Call { sid, buffered }
        }
    }

    /// Starts a session on `pid`, superseding any session the PID is
    /// currently linked to. Returns the new session id and the
    /// superseded one.
    fn begin(&mut self, pid: u32, name: Option<String>) -> (u64, Option<u64>) {
        let superseded = self.by_pid.remove(&pid);
        if let Some(old) = superseded {
            self.end(old, EndReason::Superseded);
        }
        let sid = self.next_sid;
        self.next_sid += 1;
        self.sessions
            .insert(sid, Session::new(sid, pid, name, self.clock));
        self.by_pid.insert(pid, sid);
        self.started += 1;
        (sid, superseded)
    }

    fn end(&mut self, sid: u64, reason: EndReason) {
        if let Some(s) = self.sessions.get_mut(&sid) {
            if s.ended.is_none() {
                s.ended = Some(reason);
                s.retire_buffer();
                self.ended += 1;
            }
        }
    }

    /// Ends every PID-linked session whose last event is more than the
    /// idle timeout behind the clock. Returns the ended session ids.
    /// No-op when the timeout is disabled.
    pub fn sweep_idle(&mut self) -> Vec<u64> {
        let Some(timeout) = self.idle_timeout_events else {
            return Vec::new();
        };
        let clock = self.clock;
        let idle: Vec<(u32, u64)> = self
            .by_pid
            .iter()
            .filter(|(_, sid)| {
                self.sessions
                    .get(sid)
                    .is_some_and(|s| clock.saturating_sub(s.last_event) >= timeout)
            })
            .map(|(&pid, &sid)| (pid, sid))
            .collect();
        let mut ended: Vec<u64> = Vec::with_capacity(idle.len());
        for (pid, sid) in idle {
            self.by_pid.remove(&pid);
            self.end(sid, EndReason::IdleTimeout);
            ended.push(sid);
        }
        ended.sort_unstable();
        ended
    }

    /// Marks a session killed: its buffer frees now, later calls on its
    /// PID are dropped and tallied, and the PID stays linked until an
    /// `Exit` (or idle timeout) so stragglers are recognized.
    pub fn kill(&mut self, sid: u64) {
        if let Some(s) = self.sessions.get_mut(&sid) {
            if !s.killed && s.ended.is_none() {
                s.killed = true;
                s.retire_buffer();
            }
        }
    }

    /// Marks a session killed as of its `calls`-th call: at once if it
    /// has seen that many, otherwise by the call that reaches it — where
    /// a kill recovery adopts took effect in the run that applied it.
    pub(crate) fn kill_at(&mut self, sid: u64, calls: u64) {
        match self.sessions.get_mut(&sid) {
            Some(s) if s.calls_seen < calls => s.kill_at = Some(calls),
            _ => self.kill(sid),
        }
    }

    /// Stops tracking an *ended* session: its tallies fold into the
    /// table totals and the entry is freed and returned. The id stays
    /// spent. Returns `None` (and does nothing) for a session that is
    /// untracked or still PID-linked — live and killed sessions must
    /// keep receiving their PID's events.
    pub fn retire(&mut self, sid: u64) -> Option<Session> {
        match self.sessions.entry(sid) {
            Entry::Occupied(entry) if entry.get().ended.is_some() => {
                let s = entry.remove();
                self.retired_calls += s.calls_seen;
                self.retired_oov += s.oov;
                Some(s)
            }
            _ => None,
        }
    }

    /// The session with id `sid`, if tracked.
    pub fn session(&self, sid: u64) -> Option<&Session> {
        self.sessions.get(&sid)
    }

    /// Mutable access for the windowing layer.
    pub fn session_mut(&mut self, sid: u64) -> Option<&mut Session> {
        self.sessions.get_mut(&sid)
    }

    /// The session currently linked to `pid`, if any.
    pub fn sid_for_pid(&self, pid: u32) -> Option<u64> {
        self.by_pid.get(&pid).copied()
    }

    /// The tracked sessions — PID-linked (live or killed) plus ended
    /// ones not yet [`retire`](Self::retire)d — in unspecified order.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// The tracked sessions, mutable, for the sentry's stream fields.
    pub(crate) fn sessions_mut(&mut self) -> impl Iterator<Item = &mut Session> {
        self.sessions.values_mut()
    }

    /// How many sessions are tracked.
    pub fn tracked(&self) -> usize {
        self.sessions.len()
    }

    /// The id the next session will get; every id below it is spent.
    pub fn next_sid(&self) -> u64 {
        self.next_sid
    }

    /// Sessions started so far.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Sessions ended so far (exit, idle timeout, or superseded).
    pub fn ended_count(&self) -> u64 {
        self.ended
    }

    /// Calls dropped because their session was killed.
    pub fn dropped_after_kill(&self) -> u64 {
        self.dropped_after_kill
    }

    /// `Exit` events for PIDs the table never saw.
    pub fn stray_exits(&self) -> u64 {
        self.stray_exits
    }

    /// Out-of-vocabulary calls across all sessions.
    pub fn oov_total(&self) -> u64 {
        self.oov_total
    }

    /// [`Session::calls_seen`] summed over retired sessions.
    pub fn retired_calls(&self) -> u64 {
        self.retired_calls
    }

    /// [`Session::oov`] summed over retired sessions.
    pub fn retired_oov(&self) -> u64 {
        self.retired_oov
    }

    /// Flattens the table for a checkpoint: every tracked session, every
    /// PID link, every counter, and — critically for replay determinism —
    /// the `next_sid` cursor. Output is sorted, so equal tables
    /// produce byte-equal snapshots.
    pub fn snapshot(&self) -> TableSnap {
        let mut by_pid: Vec<(u32, u64)> = self.by_pid.iter().map(|(&p, &s)| (p, s)).collect();
        by_pid.sort_unstable();
        let mut sessions: Vec<SessionSnap> = self.sessions.values().map(Session::snap).collect();
        sessions.sort_unstable_by_key(|s| s.sid);
        TableSnap {
            next_sid: self.next_sid,
            clock: self.clock,
            started: self.started,
            ended: self.ended,
            dropped_after_kill: self.dropped_after_kill,
            stray_exits: self.stray_exits,
            oov_total: self.oov_total,
            retired_calls: self.retired_calls,
            retired_oov: self.retired_oov,
            by_pid,
            sessions,
        }
    }

    /// Rebuilds a table from its checkpoint form, over the vocabulary
    /// and idle timeout of [`new`](Self::new) (the deployment's, not the
    /// checkpoint's). Replaying the same events against the restored
    /// table assigns the same session ids and reaches the same state as
    /// the uninterrupted table.
    ///
    /// # Panics
    ///
    /// On the arguments [`new`](Self::new) panics on.
    pub fn restore(vocab: usize, idle_timeout_events: Option<u64>, snap: &TableSnap) -> Self {
        let sessions: SidMap<Session> = snap
            .sessions
            .iter()
            .map(|s| (s.sid, Session::from_snap(s)))
            .collect();
        Self {
            // A link to an untracked or ended session is not one a run
            // can leave: it goes, so a call on its PID starts a session.
            by_pid: snap
                .by_pid
                .iter()
                .copied()
                .filter(|(_, sid)| sessions.get(sid).is_some_and(|s| s.ended.is_none()))
                .collect(),
            sessions,
            next_sid: snap.next_sid,
            clock: snap.clock,
            started: snap.started,
            ended: snap.ended,
            dropped_after_kill: snap.dropped_after_kill,
            stray_exits: snap.stray_exits,
            oov_total: snap.oov_total,
            retired_calls: snap.retired_calls,
            retired_oov: snap.retired_oov,
            ..Self::new(vocab, idle_timeout_events)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::ProcessEvent;

    fn table() -> SessionTable {
        SessionTable::new(16, Some(100))
    }

    #[test]
    fn implicit_spawn_on_first_call_from_unknown_pid() {
        let mut t = table();
        let applied = t.apply(&ProcessEvent::api(1, 42, 3));
        let Applied::Started {
            sid,
            buffered: Some(true),
            superseded: None,
        } = applied
        else {
            panic!("expected implicit start, got {applied:?}");
        };
        assert_eq!(t.sid_for_pid(42), Some(sid));
        assert!(t.session(sid).unwrap().name().is_none());
        assert_eq!(t.session(sid).unwrap().calls_seen(), 1);
    }

    #[test]
    fn pid_reuse_creates_a_fresh_session_id() {
        let mut t = table();
        t.apply(&ProcessEvent::spawn(0, 7, "a.exe"));
        let first = t.sid_for_pid(7).unwrap();
        t.apply(&ProcessEvent::api(1, 7, 2));
        t.apply(&ProcessEvent::exit(2, 7));
        assert_eq!(t.sid_for_pid(7), None, "exit unlinks the pid");
        t.apply(&ProcessEvent::spawn(3, 7, "b.exe"));
        let second = t.sid_for_pid(7).unwrap();
        assert_ne!(first, second, "sids are never recycled");
        assert_eq!(t.session(first).unwrap().ended(), Some(EndReason::Exit));
        assert!(t.session(second).unwrap().is_live());
    }

    #[test]
    fn respawn_without_exit_supersedes_the_old_incarnation() {
        let mut t = table();
        t.apply(&ProcessEvent::spawn(0, 9, "a.exe"));
        let first = t.sid_for_pid(9).unwrap();
        t.apply(&ProcessEvent::spawn(1, 9, "b.exe"));
        let second = t.sid_for_pid(9).unwrap();
        assert_ne!(first, second);
        assert_eq!(
            t.session(first).unwrap().ended(),
            Some(EndReason::Superseded)
        );
    }

    #[test]
    fn idle_sessions_time_out_on_the_event_clock() {
        let mut t = SessionTable::new(16, Some(5));
        t.apply(&ProcessEvent::api(0, 1, 2));
        let idle_sid = t.sid_for_pid(1).unwrap();
        for i in 0..5 {
            t.apply(&ProcessEvent::api(i, 2, 3));
        }
        let ended = t.sweep_idle();
        assert_eq!(ended, vec![idle_sid]);
        assert_eq!(
            t.session(idle_sid).unwrap().ended(),
            Some(EndReason::IdleTimeout)
        );
        assert_eq!(t.sid_for_pid(1), None);
        assert!(
            t.sid_for_pid(2).is_some(),
            "the busy session survives the sweep"
        );
    }

    /// A checkpoint that links a PID to an ended or an untracked
    /// session restores without the link: a call on that PID starts a
    /// fresh session rather than reaching a dead one (or none).
    #[test]
    fn restore_drops_links_no_run_leaves() {
        let mut t = table();
        t.apply(&ProcessEvent::api(0, 5, 1));
        t.apply(&ProcessEvent::api(1, 6, 1));
        let (ended, live) = (t.sid_for_pid(5).unwrap(), t.sid_for_pid(6).unwrap());
        t.apply(&ProcessEvent::exit(2, 5));
        let mut snap = t.snapshot();
        snap.by_pid = vec![(5, ended), (6, live), (7, 99)];
        let mut t = SessionTable::restore(16, Some(100), &snap);
        assert_eq!(
            (t.sid_for_pid(5), t.sid_for_pid(6), t.sid_for_pid(7)),
            (None, Some(live), None)
        );
        let Applied::Started { sid, .. } = t.apply(&ProcessEvent::api(3, 5, 2)) else {
            panic!("a call on an unlinked PID starts a session");
        };
        assert!(sid > live);
        t.apply(&ProcessEvent::api(4, 7, 2));
        assert_eq!(t.sid_for_pid(7), Some(sid + 1));
    }

    #[test]
    fn killed_sessions_drop_and_tally_stragglers() {
        let mut t = table();
        t.apply(&ProcessEvent::api(0, 5, 1));
        let sid = t.sid_for_pid(5).unwrap();
        t.kill(sid);
        assert_eq!(
            t.apply(&ProcessEvent::api(1, 5, 2)),
            Applied::DroppedKilled(sid)
        );
        assert_eq!(t.dropped_after_kill(), 1);
        assert_eq!(
            t.session(sid).unwrap().calls_seen(),
            1,
            "dropped calls do not advance the session"
        );
        assert_eq!(t.apply(&ProcessEvent::exit(2, 5)), Applied::Exited(sid));
        assert_eq!(t.sid_for_pid(5), None);
    }

    #[test]
    fn oov_calls_are_tallied_not_buffered() {
        let mut t = table();
        t.apply(&ProcessEvent::api(0, 3, 2));
        let sid = t.sid_for_pid(3).unwrap();
        assert_eq!(
            t.apply(&ProcessEvent::api(1, 3, 999)),
            Applied::Call {
                sid,
                buffered: false
            }
        );
        let s = t.session(sid).unwrap();
        assert_eq!(s.calls_seen(), 2);
        assert_eq!(s.oov(), 1);
        assert_eq!(s.vocab_calls(), 1, "only the in-vocab call is buffered");
        assert_eq!(t.oov_total(), 1);
    }

    #[test]
    fn stray_exit_is_tallied_not_a_panic() {
        let mut t = table();
        assert_eq!(t.apply(&ProcessEvent::exit(0, 77)), Applied::StrayExit);
        assert_eq!(t.stray_exits(), 1);
    }

    #[test]
    fn window_buffer_compacts_as_windows_are_consumed() {
        let mut t = table();
        for i in 0..12 {
            t.apply(&ProcessEvent::api(i, 4, (i % 16) as usize));
        }
        let sid = t.sid_for_pid(4).unwrap();
        let s = t.session_mut(sid).unwrap();
        assert_eq!(s.window_at(0, 8).unwrap().len(), 8);
        s.discard_consumed(4);
        assert!(s.window_at(0, 8).is_none(), "discarded calls are gone");
        let w = s.window_at(4, 8).unwrap();
        assert_eq!(w, &[4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(s.vocab_calls(), 12, "stream position is preserved");
    }

    #[test]
    fn ending_a_session_frees_its_buffer() {
        let mut t = table();
        for i in 0..8 {
            t.apply(&ProcessEvent::api(i, 6, 1));
        }
        let sid = t.sid_for_pid(6).unwrap();
        t.apply(&ProcessEvent::exit(8, 6));
        let s = t.session(sid).unwrap();
        assert!(s.window_at(0, 8).is_none(), "buffer is retired");
        assert_eq!(s.vocab_calls(), 8, "counters survive retirement");
    }
}
