//! [`DurableSentry`]: the crash-safe assembly of journal, checkpoint,
//! and sentry.
//!
//! # The recovery lattice
//!
//! Three mechanisms compose, cheapest-first:
//!
//! 1. **Journal** ([`journal`](crate::journal)) — every ingested event
//!    and every latched incident is an append-only record; the
//!    incidents one call raises are fsync'd, together, before that call
//!    returns them.
//! 2. **Checkpoint** — periodically (and only at quiescent points,
//!    right after a drain) the sentry's durable state is snapshotted
//!    atomically (write-temp → fsync → rename). A checkpoint bounds
//!    recovery *time*; it never holds information the journal lacks.
//!    A drain retires every ended session, so a checkpoint holds the
//!    sessions alive at that moment and costs in proportion to them.
//! 3. **Replay** — on open, the newest valid checkpoint is restored
//!    and the journal's event records from the checkpoint's event
//!    index onward are re-ingested through the ordinary path.
//!
//! # Why the recovered incident set is exact
//!
//! Replay determinism rests on two properties. First, session ids are
//! assigned deterministically (the checkpoint carries `next_sid`), so
//! a replayed event lands in the same session the original run put it
//! in. Second, per-session verdict folds are order-deterministic (the
//! mux delivers each stream's verdicts in submission order) and each
//! window's verdict depends only on its contents — so *when* windows
//! classify never changes *what* latches. Together: checkpoint +
//! replay reaches the same `(sid, alert, action)` incident set as the
//! uninterrupted run.
//!
//! Ingest is **at-least-once**: a crash loses at most the journal's
//! unsynced tail, and the producer re-sends from
//! [`durable_events`](DurableSentry::durable_events). Re-sent events
//! are *not* double-applied because recovery rebuilds state only from
//! the journal — an event either reached the journal (replayed
//! exactly once) or did not (re-sent, applied exactly once). Incidents
//! latched before a crash are re-adopted from their journal records
//! with their streams pre-latched, so replay cannot raise them a
//! second time or re-dispatch their backend action — the never-reused
//! session id is the dedup key. An incident whose session had already
//! retired at the checkpoint rejoins the log and the counters only:
//! its id is spent, replay cannot touch it, and a stream record for it
//! would re-grow what retirement shrank.
//!
//! What recovery does *not* preserve: the latency histograms (run
//! telemetry), and the `post_exit` flag / backend outcome of an
//! incident may differ from the uninterrupted run when a crash changes
//! fold timing relative to a session's exit — the detection itself
//! (sid, window, verdict, action kind) is invariant.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::actions::Incident;
use crate::event::ProcessEvent;
use crate::journal::{crc32, Journal, JournalConfig, JournalError};
use crate::service::{Sentry, SentryConfig};
use crate::snapshot::{SentrySnapshot, SNAPSHOT_VERSION};
use csd_accel::CsdInferenceEngine;

/// Magic bytes opening a checkpoint file (format version 1).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CSDSNAP1";

/// During recovery replay, poll the engine every this many events so
/// queued windows classify incrementally instead of piling up.
const REPLAY_POLL_EVERY: u64 = 64;

/// Durability tuning.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding `journal.log` and `checkpoint.snap`.
    pub dir: PathBuf,
    /// Journal fsync batching.
    pub journal: JournalConfig,
    /// Events between automatic quiescent checkpoints; 0 disables
    /// (checkpoints then happen only via [`DurableSentry::checkpoint`]).
    pub checkpoint_every_events: u64,
}

impl DurableConfig {
    /// Defaults under `dir`: 256-event sync batches, checkpoint every
    /// 8192 events.
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            journal: JournalConfig::default(),
            checkpoint_every_events: 8192,
        }
    }
}

/// What [`DurableSentry::open`] found and did.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryReport {
    /// Event index the restored checkpoint was taken at (0 if none).
    pub checkpoint_events: u64,
    /// Journal event records re-ingested past the checkpoint.
    pub replayed_events: u64,
    /// Incidents re-adopted from journal records.
    pub adopted_incidents: u64,
    /// Duplicate incident records skipped (same sid twice — possible
    /// only if a crash interleaved with a partially completed adopt;
    /// counted, never re-applied).
    pub duplicate_incidents: u64,
    /// Incidents newly raised *during* replay (their verdicts had not
    /// folded before the crash).
    pub replay_incidents: u64,
    /// Torn journal bytes truncated on open.
    pub journal_bytes_truncated: u64,
    /// A checkpoint file existed but failed validation (bad magic,
    /// CRC, version, or it post-dated the journal) and was ignored —
    /// recovery fell back to full journal replay.
    pub checkpoint_discarded: bool,
}

/// A [`Sentry`] wrapped with the journal + checkpoint + replay
/// machinery. All ingest must go through this wrapper; reaching the
/// inner sentry's `ingest` directly would bypass the journal and
/// silently forfeit crash safety.
#[derive(Debug)]
pub struct DurableSentry {
    inner: Sentry,
    journal: Journal,
    checkpoint_path: PathBuf,
    /// The checkpoint file's bytes, rebuilt in place at each write.
    checkpoint_buf: Vec<u8>,
    checkpoint_every: u64,
    since_checkpoint: u64,
    checkpoints_written: u64,
    recovery: RecoveryReport,
}

impl DurableSentry {
    /// Opens the durable sentry under `durable.dir`, recovering
    /// whatever a previous incarnation left behind: journal torn-tail
    /// truncation, checkpoint restore (or fallback to full replay if
    /// the checkpoint is missing or invalid), incident re-adoption,
    /// and event replay. `config` must be the config the previous
    /// incarnation ran under — it travels with the deployment, not the
    /// state files.
    pub fn open(
        engine: CsdInferenceEngine,
        config: SentryConfig,
        durable: DurableConfig,
    ) -> Result<Self, JournalError> {
        fs::create_dir_all(&durable.dir)?;
        let (mut journal, recovered) =
            Journal::open(&durable.dir.join("journal.log"), durable.journal)?;
        let checkpoint_path = durable.dir.join("checkpoint.snap");
        let mut report = RecoveryReport {
            journal_bytes_truncated: recovered.bytes_truncated,
            ..RecoveryReport::default()
        };

        let snapshot = match read_checkpoint(&checkpoint_path) {
            CheckpointRead::Valid(snap) if snap.events <= journal.durable_events() => Some(snap),
            CheckpointRead::Absent => None,
            // Invalid, or claims more events than the journal holds
            // (it must have been written by a future the torn journal
            // no longer remembers): the journal wins, replay it all.
            _ => {
                report.checkpoint_discarded = true;
                None
            }
        };

        let mut inner = match &snapshot {
            Some(snap) => {
                report.checkpoint_events = snap.events;
                Sentry::restore(engine, config, snap)
            }
            None => Sentry::new(engine, config),
        };

        // Adopt incidents first: their streams latch, so replay cannot
        // raise them again or re-dispatch their actions.
        let mut adopted: HashSet<u64> = HashSet::new();
        for incident in recovered.incidents() {
            if adopted.insert(incident.sid) {
                report.adopted_incidents += 1;
                inner.adopt_incident(incident.clone());
            } else {
                report.duplicate_incidents += 1;
            }
        }

        // Replay events past the checkpoint through the ordinary
        // ingest path; incidents raised here had not latched before
        // the crash, so they are journaled now like any fresh one.
        // The overload governor is off during replay: replay pressure
        // is an artifact of recovery speed, not of live ingest load,
        // and shedding here would diverge from the uninterrupted run.
        inner.set_governing(false);
        let mut pending_raise: Vec<Incident> = Vec::new();
        for event in recovered.events().skip(report.checkpoint_events as usize) {
            pending_raise.extend(inner.ingest(event));
            report.replayed_events += 1;
            if report.replayed_events.is_multiple_of(REPLAY_POLL_EVERY) {
                pending_raise.extend(inner.poll());
            }
        }
        pending_raise.extend(inner.poll());
        inner.set_governing(true);
        report.replay_incidents = pending_raise.len() as u64;
        journal.append_incidents(&pending_raise)?;

        Ok(Self {
            inner,
            journal,
            checkpoint_path,
            checkpoint_buf: Vec::new(),
            checkpoint_every: durable.checkpoint_every_events,
            since_checkpoint: 0,
            checkpoints_written: 0,
            recovery: report,
        })
    }

    /// Ingests one event: journaled first, then applied. Incidents
    /// raised inline — by the overload governor's SLO-driven polls or
    /// by an automatic checkpoint's drain — are journaled and returned
    /// (usually empty). On error the event may or may not be durable —
    /// the producer's resume protocol (re-send from
    /// [`durable_events`](Self::durable_events)) covers both.
    pub fn ingest(&mut self, event: &ProcessEvent) -> Result<Vec<Incident>, JournalError> {
        self.journal.append_event(event)?;
        let mut raised = self.inner.ingest(event);
        self.journal.append_incidents(&raised)?;
        self.since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            raised.extend(self.checkpoint()?);
        }
        Ok(raised)
    }

    /// One engine round; raised incidents are journaled (one fsync for
    /// all of them) before they are returned.
    pub fn poll(&mut self) -> Result<Vec<Incident>, JournalError> {
        let raised = self.inner.poll();
        self.journal.append_incidents(&raised)?;
        Ok(raised)
    }

    /// Classifies everything queued or in flight; raised incidents are
    /// journaled before they are returned.
    pub fn drain(&mut self) -> Result<Vec<Incident>, JournalError> {
        let raised = self.inner.drain();
        self.journal.append_incidents(&raised)?;
        Ok(raised)
    }

    /// Takes a quiescent checkpoint now: drain (incidents raised by it
    /// are journaled and returned), journal sync, atomic snapshot
    /// write. Bounds the next recovery's replay to events ingested
    /// after this call.
    pub fn checkpoint(&mut self) -> Result<Vec<Incident>, JournalError> {
        let raised = self.drain()?;
        self.journal.sync()?;
        debug_assert_eq!(
            self.journal.durable_events(),
            self.inner.events(),
            "journal and sentry must agree on the event count at a sync point"
        );
        let snap = self.inner.snapshot();
        write_checkpoint(&self.checkpoint_path, &snap, &mut self.checkpoint_buf)?;
        self.checkpoints_written += 1;
        self.since_checkpoint = 0;
        Ok(raised)
    }

    /// Event records durably journaled — the producer's resume cursor.
    pub fn durable_events(&self) -> u64 {
        self.journal.durable_events()
    }

    /// What recovery found and did at [`open`](Self::open).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Checkpoints written since open.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// The journal, read-only (sync stats, pending counts).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The wrapped sentry, read-only.
    pub fn sentry(&self) -> &Sentry {
        &self.inner
    }

    /// The wrapped sentry, for configuration (whitelist, backend).
    /// Do **not** call `ingest` on it directly — events that bypass
    /// the journal are invisible to recovery.
    pub fn sentry_mut(&mut self) -> &mut Sentry {
        &mut self.inner
    }

    /// Simulates a crash: in-memory state is dropped, the journal's
    /// unsynced tail is lost except for `torn_bytes` bytes of it that
    /// reached the file mid-flush. The next [`open`](Self::open) must
    /// recover.
    pub fn simulate_crash(self, torn_bytes: usize) {
        self.journal.simulate_crash(torn_bytes);
    }
}

enum CheckpointRead {
    Absent,
    Invalid,
    Valid(Box<SentrySnapshot>),
}

fn read_checkpoint(path: &Path) -> CheckpointRead {
    let Ok(bytes) = fs::read(path) else {
        return CheckpointRead::Absent;
    };
    let magic_len = SNAPSHOT_MAGIC.len();
    if bytes.len() < magic_len + 4 || &bytes[..magic_len] != SNAPSHOT_MAGIC {
        return CheckpointRead::Invalid;
    }
    let crc = u32::from_le_bytes([
        bytes[magic_len],
        bytes[magic_len + 1],
        bytes[magic_len + 2],
        bytes[magic_len + 3],
    ]);
    let body = &bytes[magic_len + 4..];
    if crc32(body) != crc {
        return CheckpointRead::Invalid;
    }
    let Some(snap) = std::str::from_utf8(body)
        .ok()
        .and_then(|json| serde_json::from_str::<SentrySnapshot>(json).ok())
    else {
        return CheckpointRead::Invalid;
    };
    if snap.version != SNAPSHOT_VERSION {
        return CheckpointRead::Invalid;
    }
    CheckpointRead::Valid(Box::new(snap))
}

/// Atomic checkpoint write: temp file, fsync, rename over the old
/// checkpoint, best-effort directory sync. A crash at any point leaves
/// either the old checkpoint or the new one — never a torn mix. The
/// file — magic, CRC-32 of the body, JSON body — is built in `buf`
/// (cleared first, capacity kept between checkpoints) and written in
/// one call.
fn write_checkpoint(
    path: &Path,
    snap: &SentrySnapshot,
    buf: &mut Vec<u8>,
) -> Result<(), JournalError> {
    let body_at = SNAPSHOT_MAGIC.len() + 4;
    buf.clear();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&[0u8; 4]);
    serde_json::to_writer(&mut *buf, snap).map_err(|e| JournalError::Encode(e.to_string()))?;
    let crc = crc32(&buf[body_at..]);
    buf[SNAPSHOT_MAGIC.len()..body_at].copy_from_slice(&crc.to_le_bytes());
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(buf)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::actions::ActionKind;
    use csd_accel::OptimizationLevel;
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
            action: ActionKind::Kill,
            ..SentryConfig::default()
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("csd-durable-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A deterministic multi-pid event stream with spawns, calls, and
    /// exits — several sessions, some of which alert.
    fn workload(n_pids: u32, calls_per: usize) -> Vec<ProcessEvent> {
        let mut events = Vec::new();
        let mut t = 0u64;
        for round in 0..calls_per {
            for pid in 0..n_pids {
                t += 1;
                if round == 0 {
                    events.push(ProcessEvent::spawn(t, 100 + pid, "w.exe"));
                } else {
                    let call = ((round * 7) as u32 + pid * 3) as usize % VOCAB;
                    events.push(ProcessEvent::api(t, 100 + pid, call));
                }
            }
        }
        for pid in 0..n_pids {
            t += 1;
            events.push(ProcessEvent::exit(t, 100 + pid));
        }
        events
    }

    /// The incident identity recovery must preserve: sid, pid, name,
    /// alert position, action. (`post_exit` and the backend outcome
    /// legitimately depend on fold timing; see the module docs.)
    fn keys(sentry: &Sentry) -> Vec<(u64, u32, Option<String>, usize, String)> {
        let mut v: Vec<_> = sentry
            .incidents()
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
        v.sort();
        v
    }

    /// The service loop's shape: journaled ingest, a poll every 16
    /// events.
    fn feed(d: &mut DurableSentry, events: &[ProcessEvent]) {
        for e in events {
            d.ingest(e).unwrap();
            if d.sentry().events().is_multiple_of(16) {
                d.poll().unwrap();
            }
        }
    }

    /// Oracle: the same workload through a plain sentry, uninterrupted.
    fn oracle(events: &[ProcessEvent]) -> Vec<(u64, u32, Option<String>, usize, String)> {
        let mut s = Sentry::new(engine(), config());
        for (i, e) in events.iter().enumerate() {
            s.ingest(e);
            if i % 16 == 0 {
                s.poll();
            }
        }
        s.drain();
        keys(&s)
    }

    #[test]
    fn crash_and_reopen_recovers_the_oracle_incident_set() {
        let dir = tmpdir("recover");
        let events = workload(6, 40);
        let expect = oracle(&events);
        assert!(!expect.is_empty(), "workload must produce incidents");

        // Run with periodic checkpoints, crash mid-stream.
        let kill_at = events.len() * 2 / 3;
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 50;
        durable.journal.sync_every = 16;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        feed(&mut d, &events[..kill_at]);
        let resume_from = {
            let cursor = d.durable_events();
            d.simulate_crash(0);
            cursor
        };
        assert!(resume_from as usize <= kill_at);

        // Reopen: checkpoint + replay, then the producer re-sends from
        // the durable cursor.
        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert!(d.recovery().checkpoint_events > 0, "a checkpoint restored");
        feed(&mut d, &events[resume_from as usize..]);
        d.drain().unwrap();
        assert_eq!(
            keys(d.sentry()),
            expect,
            "recovered incident set must equal the uninterrupted run"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_without_checkpoint_replays_the_whole_journal() {
        let dir = tmpdir("nockpt");
        let events = workload(4, 30);
        let expect = oracle(&events);

        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0; // never checkpoint
        durable.journal.sync_every = 8;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        for e in &events {
            d.ingest(e).unwrap();
        }
        // Crash without ever draining: all verdicts still in flight.
        let resume = d.durable_events();
        d.simulate_crash(3);

        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert_eq!(d.recovery().checkpoint_events, 0);
        assert_eq!(d.recovery().replayed_events, resume);
        for e in &events[resume as usize..] {
            d.ingest(e).unwrap();
        }
        d.drain().unwrap();
        assert_eq!(keys(d.sentry()), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopted_incidents_are_not_raised_twice_nor_redispatched() {
        let dir = tmpdir("adopt");
        let events = workload(4, 30);
        let expect = oracle(&events);

        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        for e in &events {
            d.ingest(e).unwrap();
        }
        // Drain so incidents latch and journal, *then* crash: the
        // reopened sentry must adopt them, and replaying the same
        // events must not raise them again.
        let n_incidents = {
            d.drain().unwrap();
            d.sentry().incidents().len()
        };
        assert!(n_incidents > 0);
        d.simulate_crash(0);

        let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        assert_eq!(d.recovery().adopted_incidents, n_incidents as u64);
        assert_eq!(
            d.recovery().replay_incidents,
            0,
            "latched streams must not re-raise during replay"
        );
        assert_eq!(keys(d.sentry()), expect);
        assert_eq!(d.sentry().incidents().len(), n_incidents, "no duplicates");
        drop(d);

        // And a *third* open sees exactly one journal record per
        // incident — the second open journaled nothing new.
        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert_eq!(d.recovery().adopted_incidents, n_incidents as u64);
        assert_eq!(d.recovery().duplicate_incidents, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_replay() {
        let dir = tmpdir("badckpt");
        let events = workload(4, 30);
        let expect = oracle(&events);

        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 40;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        for e in &events {
            d.ingest(e).unwrap();
        }
        d.drain().unwrap();
        assert!(d.checkpoints_written() > 0);
        drop(d); // clean shutdown

        // Corrupt the checkpoint body: CRC check must reject it.
        let ckpt = dir.join("checkpoint.snap");
        let mut bytes = fs::read(&ckpt).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        fs::write(&ckpt, &bytes).unwrap();

        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert!(d.recovery().checkpoint_discarded);
        assert_eq!(d.recovery().checkpoint_events, 0);
        assert_eq!(keys(d.sentry()), expect, "journal-only recovery is exact");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Crash after most sessions have ended and retired: recovery
    /// reaches the oracle's incidents, adopts every journaled one, and
    /// comes up tracking the sessions alive at the crash — not one
    /// stream record per incident the journal remembers.
    #[test]
    fn crash_after_sessions_retired_recovers_exactly_and_stays_small() {
        let dir = tmpdir("retired");
        // Six waves on the same four PIDs: each wave's sessions exit
        // (and retire at the next checkpoint's drain) before the next
        // wave reuses their PIDs.
        let wave = workload(4, 30);
        let events: Vec<ProcessEvent> = (0..6).flat_map(|_| wave.clone()).collect();
        let expect = oracle(&events);
        assert!(expect.len() >= 6, "every wave must produce incidents");

        let kill_at = 5 * wave.len() + wave.len() / 2;
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 50;
        durable.journal.sync_every = 16;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        feed(&mut d, &events[..kill_at]);
        assert!(
            d.sentry().sessions().tracked() <= 4,
            "five waves have retired"
        );
        let journaled = d.journal().durable_incidents();
        assert_eq!(journaled, d.sentry().incidents().len() as u64);
        let resume_from = d.durable_events() as usize;
        d.simulate_crash(5);

        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        let recovery = d.recovery().clone();
        assert!(recovery.checkpoint_events > 0, "a checkpoint restored");
        assert_eq!(recovery.adopted_incidents, journaled);
        let table = d.sentry().sessions();
        let live = table.started() - table.ended_count();
        assert!(live <= 4);
        assert!(
            d.sentry().tracked_streams() as u64 <= live + recovery.replayed_events,
            "{} stream records for {live} live sessions",
            d.sentry().tracked_streams()
        );
        assert!(table.tracked() as u64 <= live + recovery.replayed_events);
        feed(&mut d, &events[resume_from..]);
        d.drain().unwrap();
        assert_eq!(keys(d.sentry()), expect);
        assert_eq!(
            d.sentry().sessions().tracked(),
            0,
            "all exited, all retired"
        );
        assert_eq!(d.sentry().tracked_streams(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `Sentry::snapshot()` as the commit before sessions retired wrote
    /// it, after this test's 36 events: sessions 1 and 2 exited (one
    /// out-of-vocabulary call between them), session 3 killed and still
    /// PID-linked, no `retired_*` totals.
    const PARENT_SNAPSHOT: &str = r#"{"version":1,"events":36,"verdicts_folded":3,"whitelist_exact":[],"whitelist_prefixes":[],"table":{"vocab":16,"idle_timeout_events":null,"next_sid":4,"clock":36,"started":3,"ended":2,"dropped_after_kill":0,"stray_exits":0,"oov_total":1,"by_pid":[[102,3]],"sessions":[{"sid":1,"pid":100,"name":"w.exe","buf":[],"base":10,"calls_seen":11,"oov":1,"killed":false,"ended":1,"started_at":1,"last_event":34},{"sid":2,"pid":101,"name":"w.exe","buf":[],"base":10,"calls_seen":10,"oov":0,"killed":false,"ended":1,"started_at":2,"last_event":32},{"sid":3,"pid":102,"name":"w.exe","buf":[],"base":10,"calls_seen":10,"oov":0,"killed":true,"ended":0,"started_at":3,"last_event":33}]},"streams":[{"sid":1,"submitted":1,"ring":0,"verdicts":1,"latched":false,"shed":false},{"sid":2,"submitted":1,"ring":0,"verdicts":1,"latched":false,"shed":false},{"sid":3,"submitted":1,"ring":1,"verdicts":1,"latched":true,"shed":false}],"last_t_us":[],"dup_events":0,"shed_log":[]}"#;

    #[test]
    fn checkpoint_with_dead_sessions_loads_and_is_pruned() {
        let dir = tmpdir("parent-format");
        fs::create_dir_all(&dir).unwrap();
        // The run that wrote it: three processes, ten calls each, one
        // stray out-of-vocabulary call, two exits.
        let mut events = Vec::new();
        let mut t = 0u64;
        for pid in 100..103u32 {
            t += 1;
            events.push(ProcessEvent::spawn(t, pid, "w.exe"));
        }
        for round in 0..10usize {
            for pid in 100..103u32 {
                t += 1;
                events.push(ProcessEvent::api(
                    t,
                    pid,
                    (round * 7 + pid as usize * 3) % VOCAB,
                ));
            }
        }
        t += 1;
        events.push(ProcessEvent::api(t, 100, 99));
        for pid in 100..102u32 {
            t += 1;
            events.push(ProcessEvent::exit(t, pid));
        }
        let mut live = Sentry::new(engine(), config());
        for e in &events {
            live.ingest(e);
        }
        live.drain();
        {
            let (mut journal, _) =
                Journal::open(&dir.join("journal.log"), JournalConfig::default()).unwrap();
            for e in &events {
                journal.append_event(e).unwrap();
            }
            journal.append_incidents(live.incidents()).unwrap();
        }
        let mut file = SNAPSHOT_MAGIC.to_vec();
        file.extend_from_slice(&crc32(PARENT_SNAPSHOT.as_bytes()).to_le_bytes());
        file.extend_from_slice(PARENT_SNAPSHOT.as_bytes());
        fs::write(dir.join("checkpoint.snap"), &file).unwrap();

        let mut d = DurableSentry::open(engine(), config(), DurableConfig::new(&dir)).unwrap();
        assert!(!d.recovery().checkpoint_discarded, "the old format loads");
        assert_eq!(d.recovery().checkpoint_events, 36);
        assert_eq!(d.recovery().replayed_events, 0);
        assert_eq!(d.recovery().adopted_incidents, 1);
        let sentry = d.sentry();
        assert_eq!(sentry.sessions().tracked(), 1, "the two dead sessions go");
        assert_eq!(sentry.tracked_streams(), 1);
        assert!(sentry.sessions().session(3).unwrap().is_killed());
        assert_eq!(sentry.sessions().retired_calls(), 21);
        assert_eq!(sentry.sessions().retired_oov(), 1);
        // Same state as the run that never stopped, field for field
        // (the mux's counters restart with the process).
        let (got, mut want) = (sentry.stats(), live.stats());
        want.mux = got.mux;
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&sentry.snapshot()).unwrap(),
            serde_json::to_string(&live.snapshot()).unwrap()
        );
        // The killed session still drops its stragglers.
        d.ingest(&ProcessEvent::api(t + 1, 102, 1)).unwrap();
        assert_eq!(d.sentry().stats().dropped_after_kill, 1);
        // And the next checkpoint is written without the dead.
        d.checkpoint().unwrap();
        let rewritten = fs::metadata(dir.join("checkpoint.snap")).unwrap().len();
        assert!((rewritten as usize) < file.len() - 300, "{rewritten} bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restore_roundtrips_bytewise() {
        let events = workload(3, 20);
        let mut s = Sentry::new(engine(), config());
        s.whitelist_mut().add("w.exe");
        for e in &events {
            s.ingest(e);
        }
        s.drain();
        let snap = s.snapshot();
        let restored = Sentry::restore(engine(), config(), &snap);
        let again = restored.snapshot();
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "snapshot → restore → snapshot must be a fixed point"
        );
    }

    /// The monotone-dedup watermark must survive a checkpoint: events
    /// before the checkpoint are never replayed, so if the watermark
    /// were volatile, a duplicate frame re-sent across the crash would
    /// be ingested twice.
    #[test]
    fn dedup_watermark_survives_checkpoint_and_crash() {
        let dir = tmpdir("dedup-watermark");
        let mut cfg = config();
        cfg.dedup_monotone_ts = true;
        let durable = DurableConfig::new(&dir);

        let mut d = DurableSentry::open(engine(), cfg.clone(), durable.clone()).unwrap();
        d.ingest(&ProcessEvent::api(10, 1, 3)).unwrap();
        d.ingest(&ProcessEvent::api(11, 1, 5)).unwrap();
        d.checkpoint().unwrap();
        d.simulate_crash(0);

        let mut d = DurableSentry::open(engine(), cfg, durable).unwrap();
        assert_eq!(d.recovery().checkpoint_events, 2);
        // The at-least-once producer re-sends the last frame.
        d.ingest(&ProcessEvent::api(11, 1, 5)).unwrap();
        let stats = d.sentry().stats();
        assert_eq!(stats.dup_events, 1, "watermark crossed the crash");
        let calls: u64 = d
            .sentry()
            .sessions()
            .sessions()
            .map(|s| s.calls_seen())
            .sum();
        assert_eq!(calls, 2, "the re-sent frame was not ingested twice");
        let _ = fs::remove_dir_all(&dir);
    }
}
