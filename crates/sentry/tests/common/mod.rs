//! The crash world the sentry's integration tests share: one tiny seeded
//! detector, its producers, and one driver and one checker for every
//! crash-and-reopen run of the durable sentry.
//!
//! A [`World`] is one run: its [`Op`]s — events sent by [`wave`]s of
//! processes (PIDs reused across waves, as the OS does) or by a corpus
//! trace under a [`ChaosSchedule`], stalls, kills with torn tails,
//! explicit checkpoints and drains — the poll cadence, `sync_every`,
//! `checkpoint_every_events` and the [`SentryConfig`]. [`World::run`]
//! drives it through a [`DurableSentry`], crashing, reopening and
//! resuming at the journal's durable-event count at each kill, and holds
//! it to the crash contract against [`Sentry::uninterrupted`]: the
//! acknowledgement ledger after every call; incident parity, or in a
//! governed world every missing incident in a shed session; a journal
//! never ahead of the producer; exactly-once on the ingest clock;
//! tracked sessions equal to live ones after the final drain; and at
//! every kill an anchored reopen within its byte bound that ends where a
//! full scan of the journal alone ends. No contract reads the wall
//! clock; what follows it (syncs, replays, bytes scanned) is only
//! bounded.

// Each test binary drives its own part of the world.
#![allow(dead_code)]

use std::collections::HashSet;
use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_ransomware::chaos::{ChaosOp, ChaosSchedule};
use csd_sentry::{
    read_checkpoint, ActionKind, CheckpointRead, DurableConfig, DurableSentry, FullScan, Incident,
    OverloadLevel, ProcessEvent, QuarantineBackend, RecoveryReport, Sentry, SentryConfig,
};

/// The vocabulary [`engine`] classifies.
pub const VOCAB: usize = 16;

/// What a reopen may read per incident it reads from a digest, and the
/// slack for the one record it reads back at the checkpoint's anchor.
const HOP_BYTES: u64 = 512;

/// A tiny untrained detector over [`VOCAB`] calls, serving in fixed
/// point.
pub fn tiny_engine(seed: u64) -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), seed);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}

/// The tiny detector at seed 9.
pub fn engine() -> CsdInferenceEngine {
    tiny_engine(9)
}

/// The crash tests' sentry: eight-call windows every four calls, one
/// vote latches, the latch kills.
pub fn config() -> SentryConfig {
    SentryConfig {
        window_len: 8,
        stride: 4,
        votes_needed: 1,
        vote_horizon: 1,
        action: ActionKind::Kill,
        ..SentryConfig::default()
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh directory under the system's temporary one, unique to this
/// test process, `tag` and call, removed when dropped.
pub fn tmpdir(tag: &str) -> Scratch {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("csd-world-{}-{tag}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    Scratch(d)
}

/// A directory removed when dropped.
pub struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

impl Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// One wave of processes: PIDs `100..100 + n_pids` spawn, make `calls`
/// interleaved calls each, and exit; round `r` of process `i` calls
/// `(7 r + 3 i + salt) mod VOCAB`. Waves reuse the PIDs, as the OS
/// would. Some waves alert under [`engine`], some do not.
pub fn wave(n_pids: u32, calls: usize, salt: usize) -> Vec<ProcessEvent> {
    let mut t = 0u64;
    let mut tick = || {
        t += 1;
        t
    };
    let mut events: Vec<ProcessEvent> = (0..n_pids)
        .map(|i| ProcessEvent::spawn(tick(), 100 + i, "w.exe"))
        .collect();
    for round in 0..calls {
        for i in 0..n_pids {
            let call = (round * 7 + i as usize * 3 + salt) % VOCAB;
            events.push(ProcessEvent::api(tick(), 100 + i, call));
        }
    }
    events.extend((0..n_pids).map(|i| ProcessEvent::exit(tick(), 100 + i)));
    events
}

/// Incident identity across runs: session, process, name, deciding
/// call, action. (`post_exit` and the backend outcome depend on fold
/// timing; see the durable module's docs.)
pub type Key = (u64, u32, Option<String>, usize, String);

/// The keys of `incidents`, sorted.
pub fn keys(incidents: &[Incident]) -> Vec<Key> {
    let mut keys: Vec<Key> = incidents
        .iter()
        .map(|i| {
            (
                i.sid,
                i.pid,
                i.name.clone(),
                i.alert.at_call,
                format!("{:?}", i.action),
            )
        })
        .collect();
    keys.sort();
    keys
}

/// The keys of `incidents` without their session ids, sorted: the
/// identity when frames are reordered across PIDs, which renumbers the
/// sessions, and no PID is reused.
pub fn pid_keys(incidents: &[Incident]) -> Vec<Key> {
    let mut keys = keys(incidents);
    keys.iter_mut().for_each(|k| k.0 = 0);
    keys.sort();
    keys
}

/// One step of a world.
#[derive(Debug, Clone)]
pub enum Op {
    /// A producer sends one event; after a kill the producer sends
    /// again from the journal's durable-event count.
    Send(ProcessEvent),
    /// Delivery stalls; the service loop polls, unless the world's
    /// caller is lazy.
    Stall,
    /// The sentry's host dies (`kill -9`), flushing this many bytes of
    /// the journal's pending tail first: crash, reopen, resume.
    Kill(usize),
    /// An explicit checkpoint.
    Checkpoint,
    /// An explicit drain.
    Drain,
    /// The cadence's polls stop, so windows queue unserved, until the
    /// next reopen.
    Quiet,
}

/// `events` sent in order, with a kill tearing `torn` bytes spliced in
/// once `offset` of them are sent, for each `(offset, torn)` of `kills`
/// (offsets ascending, none past the last event).
pub fn with_kills(events: &[ProcessEvent], kills: &[(usize, usize)]) -> Vec<Op> {
    let mut ops = Vec::with_capacity(events.len() + kills.len());
    let mut kills = kills.iter().peekable();
    for (sent, event) in events.iter().enumerate() {
        while let Some(&(_, torn)) = kills.next_if(|&&(offset, _)| offset == sent) {
            ops.push(Op::Kill(torn));
        }
        ops.push(Op::Send(event.clone()));
    }
    ops.extend(kills.map(|&(_, torn)| Op::Kill(torn)));
    ops
}

/// `events` sent in order.
pub fn sends(events: &[ProcessEvent]) -> Vec<Op> {
    events.iter().cloned().map(Op::Send).collect()
}

/// A moment the driver lets a test look at the sentry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moment {
    /// Just before the `n`th crash (from 0).
    Crash(usize),
    /// Just after its reopen (and the reopen's poll, when the world
    /// polls on reopen).
    Reopened(usize),
}

/// One run of the durable sentry: what is sent and how.
pub struct World {
    /// Names the run in every message, and its directory.
    pub name: String,
    pub ops: Vec<Op>,
    pub engine: fn() -> CsdInferenceEngine,
    pub config: SentryConfig,
    /// A poll after every event that brings the ingest clock to a
    /// multiple of this; 0 never polls on a cadence.
    pub poll_every: u64,
    /// Whether a [`Op::Stall`] polls.
    pub poll_on_stall: bool,
    /// Whether a reopened sentry polls before the producer resumes.
    pub poll_after_reopen: bool,
    pub sync_every: usize,
    pub checkpoint_every_events: u64,
    /// A backend set on every incarnation.
    pub backend: Option<fn() -> Box<dyn QuarantineBackend>>,
    /// A condition on the sentry after a send (and its poll) that kills
    /// it, once, tearing nothing.
    pub kill_when: Option<fn(&DurableSentry) -> bool>,
    /// Incidents compare without their session ids ([`pid_keys`]).
    pub by_pid: bool,
}

/// A reopen after a kill.
pub struct Reopen {
    /// The journal's durable events and incidents at the crash.
    pub durable_events: u64,
    pub durable_incidents: u64,
    /// `journal.log` after the crash, and `checkpoint.snap` if any.
    pub journal_bytes: u64,
    pub checkpoint_bytes: Option<u64>,
    /// The reopen's report, and a full scan's of the journal alone.
    pub report: RecoveryReport,
    pub full_scan: RecoveryReport,
}

/// An explicit checkpoint.
pub struct Checkpointed {
    pub durable_incidents: u64,
    /// `journal.log` after it.
    pub journal_bytes: u64,
    /// Incidents it handed back.
    pub handed_back: usize,
}

/// What a run left: the last incarnation, drained, and what the driver
/// saw along the way.
pub struct Run {
    pub sentry: DurableSentry,
    pub reopens: Vec<Reopen>,
    pub checkpoints: Vec<Checkpointed>,
    /// Incidents the serving calls handed back, all incarnations.
    pub handed_back: usize,
    /// The oracle's incidents the run does not hold.
    pub lost: usize,
    /// Staleness, overload rung and sessions, every 16 events.
    pub staleness: Vec<u64>,
    pub top_rung: OverloadLevel,
    pub live_peak: u64,
    pub tracked_peak: u64,
    /// Last, so the sentry closes before its directory goes.
    pub dir: Scratch,
}

impl Run {
    /// The 99th percentile of the staleness samples.
    pub fn staleness_p99(&self) -> u64 {
        let mut samples = self.staleness.clone();
        samples.sort_unstable();
        samples[((samples.len() - 1) as f64 * 0.99).round() as usize]
    }
}

/// One incarnation's calls against its journal: the acknowledgement
/// contract.
struct Ledger<'w> {
    world: &'w str,
    /// `durable_incidents()` at open: adopted records, which no call
    /// hands back.
    base: u64,
    handed_back: HashSet<u64>,
}

impl<'w> Ledger<'w> {
    fn new(world: &'w str, d: &DurableSentry) -> Self {
        let journal = d.journal();
        assert_eq!(
            journal.pending_incidents(),
            0,
            "{world}: open is a sync point"
        );
        let (base, handed_back) = (journal.durable_incidents(), HashSet::new());
        Self {
            world,
            base,
            handed_back,
        }
    }

    /// After a call that returned `back`: each incident comes back once,
    /// none before its record is durable, and every latched incident is
    /// durable or in the pending tail. After a sync point (`drain`,
    /// `checkpoint`) nothing is held any more.
    fn check(&mut self, d: &DurableSentry, back: Vec<Incident>, sync_point: bool) {
        let world = self.world;
        for incident in back {
            let sid = incident.sid;
            assert!(
                self.handed_back.insert(sid),
                "{world}: session {sid} handed back twice"
            );
        }
        let journal = d.journal();
        let durable = journal.durable_incidents() - self.base;
        assert!(
            self.handed_back.len() as u64 <= durable,
            "{world}: an incident was handed back before its record was durable"
        );
        assert_eq!(
            journal.durable_incidents() + journal.pending_incidents() as u64,
            d.sentry().incidents().len() as u64,
            "{world}: every latched incident is journaled: durable or held"
        );
        if sync_point {
            assert_eq!(
                journal.pending_incidents(),
                0,
                "{world}: a drain holds nothing back"
            );
            assert_eq!(
                self.handed_back.len() as u64,
                durable,
                "{world}: a sync point hands back everything held"
            );
        }
    }
}

impl World {
    /// `ops` through the crash tests' sentry, a poll every 16 events, and
    /// [`DurableConfig::new`]'s sync batch and checkpoint interval.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> Self {
        let durable = DurableConfig::new(Path::new(""));
        Self {
            name: name.into(),
            ops,
            engine,
            config: config(),
            poll_every: 16,
            poll_on_stall: true,
            poll_after_reopen: false,
            sync_every: durable.journal.sync_every,
            checkpoint_every_events: durable.checkpoint_every_events,
            backend: None,
            kill_when: None,
            by_pid: false,
        }
    }

    /// A replayed corpus trace under `schedule`: its deliveries, resets
    /// (whose re-send the schedule already wove in), stalls and kills,
    /// the `k`th kill tearing `13 k mod 40` bytes. Incidents compare by
    /// PID: the schedule reorders frames across PIDs.
    pub fn chaos(
        name: impl Into<String>,
        schedule: &ChaosSchedule,
        engine: fn() -> CsdInferenceEngine,
        config: SentryConfig,
    ) -> Self {
        let mut kills = 0;
        let ops = schedule
            .ops
            .iter()
            .filter_map(|op| match op {
                ChaosOp::Deliver(ev) => Some(Op::Send(ProcessEvent::from(ev))),
                ChaosOp::Reset => None,
                ChaosOp::Delay(_) => Some(Op::Stall),
                ChaosOp::Kill => {
                    kills += 1;
                    Some(Op::Kill((kills * 13) % 40))
                }
            })
            .collect();
        Self {
            engine,
            config,
            by_pid: true,
            ..Self::new(name, ops)
        }
    }

    /// The incidents of one uninterrupted run over the events sent, in
    /// order, on the world's cadence.
    pub fn oracle(&self) -> Vec<Key> {
        let events: Vec<ProcessEvent> = (self.ops.iter())
            .filter_map(|op| match op {
                Op::Send(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        let cadence = self.poll_every as usize;
        let oracle = Sentry::uninterrupted((self.engine)(), self.config.clone(), &events, cadence);
        self.keys(oracle.incidents())
    }

    fn keys(&self, incidents: &[Incident]) -> Vec<Key> {
        if self.by_pid {
            pid_keys(incidents)
        } else {
            keys(incidents)
        }
    }

    fn open(&self, durable: &DurableConfig) -> DurableSentry {
        let mut d = DurableSentry::open((self.engine)(), self.config.clone(), durable.clone())
            .expect("open durable sentry");
        if let Some(backend) = self.backend {
            d.sentry_mut().set_backend(backend());
        }
        d
    }

    /// Runs the world and holds it to the crash contract against
    /// `expect`, the oracle's incidents.
    pub fn run(&self, expect: &[Key]) -> Run {
        self.run_probed(expect, &mut |_, _| {})
    }

    /// [`run`](Self::run), showing `probe` the sentry at every crash
    /// and reopen.
    pub fn run_probed(&self, expect: &[Key], probe: &mut dyn FnMut(Moment, &DurableSentry)) -> Run {
        let name = self.name.as_str();
        let dir = tmpdir(name);
        let mut durable = DurableConfig::new(&dir);
        durable.journal.sync_every = self.sync_every;
        durable.checkpoint_every_events = self.checkpoint_every_events;
        let mut d = self.open(&durable);
        let mut ledger = Ledger::new(name, &d);
        let mut reopens: Vec<Reopen> = Vec::new();
        let mut checkpoints: Vec<Checkpointed> = Vec::new();
        let mut handed_back = 0;
        let mut staleness: Vec<u64> = Vec::new();
        let mut top_rung = OverloadLevel::Normal;
        let (mut live_peak, mut tracked_peak) = (0u64, 0u64);
        // The sends the journal may hold, rewound to its durable count at
        // each kill.
        let mut delivered = 0u64;
        // Kills, checkpoints, drains and quiet stretches happen once, on
        // the first pass: a resume re-sends, it does not re-run them.
        let mut done: HashSet<usize> = HashSet::new();
        let mut polls = true;
        let mut kill_when = self.kill_when;

        let mut i = 0;
        while i < self.ops.len() {
            let mut kill = None;
            match &self.ops[i] {
                Op::Send(event) => {
                    delivered += 1;
                    let back = d.ingest(event).expect("journaled ingest");
                    ledger.check(&d, back, false);
                    if polls
                        && self.poll_every > 0
                        && d.sentry().events().is_multiple_of(self.poll_every)
                    {
                        let back = d.poll().expect("journaled poll");
                        ledger.check(&d, back, false);
                    }
                    if d.sentry().events().is_multiple_of(16) {
                        let sentry = d.sentry();
                        staleness.push(sentry.staleness());
                        top_rung = top_rung.max(sentry.overload_level());
                        let table = sentry.sessions();
                        live_peak = live_peak.max(table.started() - table.ended_count());
                        tracked_peak = tracked_peak.max(table.tracked() as u64);
                    }
                    if kill_when.is_some_and(|when| when(&d)) {
                        kill_when = None;
                        kill = Some(0);
                    }
                }
                Op::Stall if self.poll_on_stall => {
                    let back = d.poll().expect("journaled poll");
                    ledger.check(&d, back, false);
                }
                Op::Kill(torn) if done.insert(i) => kill = Some(*torn),
                Op::Checkpoint if done.insert(i) => {
                    let back = d.checkpoint().expect("checkpoint");
                    let n = back.len();
                    ledger.check(&d, back, true);
                    checkpoints.push(Checkpointed {
                        durable_incidents: d.journal().durable_incidents(),
                        journal_bytes: file_len(&durable.dir.join("journal.log")),
                        handed_back: n,
                    });
                }
                Op::Drain if done.insert(i) => {
                    let back = d.drain().expect("drain");
                    ledger.check(&d, back, true);
                }
                Op::Quiet if done.insert(i) => polls = false,
                _ => {}
            }
            let Some(torn) = kill else {
                i += 1;
                continue;
            };

            probe(Moment::Crash(reopens.len()), &d);
            handed_back += ledger.handed_back.len();
            let (durable_events, durable_incidents) =
                (d.durable_events(), d.journal().durable_incidents());
            d.simulate_crash(torn);
            let journal_bytes = file_len(&durable.dir.join("journal.log"));
            let checkpoint = durable.dir.join("checkpoint.snap");
            let checkpoint_bytes = checkpoint.exists().then(|| file_len(&checkpoint));
            let full_scan;
            (d, full_scan) = self.reopen_both_ways(&durable);
            assert!(
                d.durable_events() <= delivered,
                "{name}: the journal never runs ahead of the producer"
            );
            delivered = d.durable_events();
            ledger = Ledger::new(name, &d);
            if self.poll_after_reopen {
                let back = d.poll().expect("journaled poll");
                ledger.check(&d, back, false);
            }
            probe(Moment::Reopened(reopens.len()), &d);
            reopens.push(Reopen {
                durable_events,
                durable_incidents,
                journal_bytes,
                checkpoint_bytes,
                report: d.recovery().clone(),
                full_scan,
            });
            polls = true;
            i = self.index_after_send(delivered);
        }
        let back = d.drain().expect("final drain");
        ledger.check(&d, back, true);
        handed_back += ledger.handed_back.len();

        let sentry = d.sentry();
        let stats = sentry.stats();
        let sends = self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Send(_)))
            .count();
        assert_eq!(
            stats.events, sends as u64,
            "{name}: cursor resume is exactly-once on the ingest clock"
        );
        assert_eq!(
            sentry.sessions().tracked() as u64,
            stats.sessions_started - stats.sessions_ended,
            "{name}: ended sessions outlived the final drain"
        );
        let got = self.keys(sentry.incidents());
        let got_set: HashSet<&Key> = got.iter().collect();
        let lost: Vec<&Key> = expect.iter().filter(|k| !got_set.contains(k)).collect();
        if self.config.staleness_slo.is_some() {
            let expect_set: HashSet<&Key> = expect.iter().collect();
            let invented = got.iter().filter(|k| !expect_set.contains(k)).count();
            assert_eq!(invented, 0, "{name}: incidents not in the oracle");
            let session = |k: &Key| if self.by_pid { u64::from(k.1) } else { k.0 };
            let sessions: HashSet<u64> = got.iter().map(session).collect();
            assert_eq!(
                got.len() - sessions.len(),
                0,
                "{name}: duplicated incidents"
            );
            let shed_pids: HashSet<u32> = sentry.shed_log().iter().map(|r| r.pid).collect();
            let untyped = lost.iter().filter(|k| !shed_pids.contains(&k.1)).count();
            assert_eq!(
                untyped, 0,
                "{name}: an incident was lost without a shed record"
            );
        } else {
            assert_eq!(got, expect, "{name}: incident parity across crashes");
        }
        let lost = lost.len();
        Run {
            sentry: d,
            reopens,
            checkpoints,
            handed_back,
            lost,
            staleness,
            top_rung,
            live_peak,
            tracked_peak,
            dir,
        }
    }

    /// The op after the `n`th send (0 for none): where the producer
    /// resumes once the journal holds `n` events.
    fn index_after_send(&self, n: u64) -> usize {
        if n == 0 {
            return 0;
        }
        let mut seen = 0;
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op, Op::Send(_)) {
                seen += 1;
                if seen == n {
                    return i + 1;
                }
            }
        }
        panic!("{}: cursor {n} past the world's {seen} sends", self.name);
    }

    /// Reopens the crashed state in `durable.dir` — from the checkpoint's
    /// anchor if there is a checkpoint — and, on a copy of `journal.log`
    /// alone, scans and replays the whole journal. Both must end
    /// standing in the same place, the first at the anchor if there was
    /// a checkpoint to take one from, reading at most the bytes past the
    /// anchor, [`HOP_BYTES`] per incident from a digest and one record.
    /// Returns the first and the full scan's report.
    pub fn reopen_both_ways(&self, durable: &DurableConfig) -> (DurableSentry, RecoveryReport) {
        let name = self.name.as_str();
        let journal = durable.dir.join("journal.log");
        let journal_len = file_len(&journal);
        let anchored_at = match read_checkpoint(&durable.dir.join("checkpoint.snap")) {
            CheckpointRead::Valid(snap) => Some(snap.journal.offset),
            CheckpointRead::Absent | CheckpointRead::Invalid => None,
        };
        let bare = tmpdir(&format!("{name}-bare"));
        fs::create_dir_all(&*bare).expect("bare dir");
        fs::copy(&journal, bare.join("journal.log")).expect("copy journal");
        let anchored = self.open(durable);
        let scanned = self.open(&DurableConfig {
            dir: bare.to_path_buf(),
            ..durable.clone()
        });
        assert_eq!(
            standing(&anchored),
            standing(&scanned),
            "{name}: the anchor is an optimisation, never information"
        );
        let full = scanned.recovery().clone();
        drop(scanned);
        let scanned = (
            full.journal_bytes_scanned,
            full.chained_incidents,
            full.checkpoint_events,
        );
        assert_eq!(full.full_scan, Some(FullScan::NoCheckpoint), "{name}");
        assert_eq!(scanned, (journal_len, 0, 0), "{name}");

        let report = anchored.recovery();
        assert!(!report.checkpoint_discarded(), "{name}: {report:?}");
        if let Some(offset) = anchored_at {
            assert_eq!(
                report.full_scan, None,
                "{name}: a checkpoint this run wrote was not used"
            );
            let bound = (journal_len - offset) + HOP_BYTES * report.chained_incidents + HOP_BYTES;
            assert!(
                report.journal_bytes_scanned <= bound,
                "{name}: a respawn read {} bytes of a {journal_len}-byte journal \
                 checkpointed at {offset}: {report:?}",
                report.journal_bytes_scanned
            );
            assert!(report.journal_bytes_scanned <= journal_len, "{name}");
            assert!(report.replayed_events <= full.replayed_events, "{name}");
            assert_eq!(
                report.journal_bytes_truncated, full.journal_bytes_truncated,
                "{name}"
            );
        } else {
            assert_eq!(report.full_scan, Some(FullScan::NoCheckpoint), "{name}");
        }
        assert_eq!(
            report.adopted_incidents + report.duplicate_incidents,
            full.adopted_incidents + full.duplicate_incidents,
            "{name}: every incident record is met either way"
        );
        (anchored, full)
    }
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// What a reopened sentry must agree on whichever way `open` got there:
/// the incidents in log order, the journal's cursors, and every counter
/// that recovery preserves. (`verdicts_folded` is not among them: a
/// replay from the first event meets the adopted incidents' sessions
/// already latched, so it folds less than the run that raised them.)
fn standing(d: &DurableSentry) -> (Vec<Incident>, [u64; 12]) {
    let incidents = d.sentry().incidents().to_vec();
    let stats = d.sentry().stats();
    let counters = [
        d.durable_events(),
        d.journal().durable_incidents(),
        stats.events,
        stats.sessions_started,
        stats.sessions_ended,
        stats.oov_calls,
        stats.dropped_after_kill,
        stats.stray_exits,
        stats.incidents,
        stats.suppressed,
        stats.actions_failed,
        stats.dup_events,
    ];
    (incidents, counters)
}
