//! [`DurableSentry`]: the crash-safe assembly of journal, checkpoint,
//! and sentry.
//!
//! # The recovery lattice
//!
//! Three mechanisms compose, cheapest-first:
//!
//! 1. **Journal** ([`journal`](crate::journal)) — every ingested event
//!    and every latched incident is an append-only record. An incident
//!    is handed back exactly once and only after its record is
//!    durable; see "Acknowledgement" below for which call that is.
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
//! # What `open` reads
//!
//! A checkpoint bounds recovery time only if `open` does not read the
//! journal from its first byte to find the records past it. So a
//! checkpoint carries an **anchor** — where the journal sync it makes
//! left `journal.log`: the synced length, the offset of the last
//! record before it, how many incident records lie before it and
//! where the newest of them is ([`JournalAnchor`](crate::journal::JournalAnchor),
//! four numbers read off the sync `checkpoint()` makes anyway) — and
//! `open` starts there:
//!
//! - it reads the checkpoint first;
//! - it checks the anchor against the file before trusting it: the
//!   file is at least that long, and the record the anchor says ends
//!   at its offset is there, length and CRC;
//! - it fetches the incidents before the anchor by their back-links —
//!   every incident record names the offset of the one before it, so
//!   they are reached newest to oldest with one read and one CRC check
//!   each, and adopted oldest first;
//! - it scans, and if torn truncates, only the bytes past the anchor,
//!   with the scan and the truncation rule of the full open, and
//!   replays the events found there.
//!
//! Event records before the anchor are not read; they are what the
//! checkpoint stands for. Incidents are not in the checkpoint — the
//! journal stays their system of record, and a checkpoint that copied
//! them would grow with history again — so what `open` costs is the
//! checkpoint interval plus one small read per incident ever raised,
//! which is what [`Sentry::incidents`] holds in memory anyway.
//!
//! The anchor is an optimisation, never information. A checkpoint still
//! holds nothing the journal lacks: delete it and `open` reaches the
//! same incidents, cursors and counters by scanning and replaying the
//! whole journal ([`Journal::open`], untouched) — the property
//! `tests/proptest_crash.rs` checks at every crash it generates. That
//! full scan is what `open` falls back to, and says so in
//! [`RecoveryReport::full_scan`], whenever there is no anchor to use:
//! no checkpoint, a checkpoint that cannot be read or validated, one
//! written before anchors existed (restored all the same), or one
//! whose anchor the journal refuses — a shorter file, no record
//! boundary where it says, a chain that does not lead through exactly
//! the incident records it counts. A refused anchor takes its
//! checkpoint down with it (they are not of one history) and never
//! cuts a byte of the journal: a wrong, stale or hostile anchor costs a
//! full scan, not data.
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
//! (sid, window, verdict, action kind) is invariant. Nor does it
//! remember an incident that was raised but whose record had not been
//! synced when the crash came: its action was dispatched at the fold,
//! the crash forgets the record, replay raises the incident again and
//! dispatches the action again — a backend has to tolerate a repeated
//! kill or quarantine of one process — while the incident is still
//! handed back once, by the incarnation that made it durable. That
//! window was one fsync wide when every incident forced its own sync;
//! it is now at most [`COMMIT_DEADLINE`] plus one fsync.
//!
//! # Acknowledgement
//!
//! The serving calls — [`ingest`](DurableSentry::ingest) and
//! [`poll`](DurableSentry::poll) — frame the incidents they raise into
//! the journal's pending tail *without* forcing a sync and hold them
//! unacknowledged; each call returns the incidents that **became
//! durable during it**: because the journal's `sync_every` event batch
//! filled and synced the tail they ride in, or because the oldest of
//! them has been held for [`COMMIT_DEADLINE`] and the call forces the
//! sync. [`drain`](DurableSentry::drain),
//! [`checkpoint`](DurableSentry::checkpoint) and
//! [`open`](DurableSentry::open)'s replay are sync points: they leave
//! nothing held. So a caller sees every incident exactly once, never
//! before it would survive a crash, at most a deadline and an fsync
//! after its verdict — and the disk sees one sync per event batch
//! instead of one more per incident-raising call. Dropping a
//! `DurableSentry` without a final drain still syncs the tail (the
//! journal's clean-shutdown flush), so held incidents are journaled and
//! the next `open` adopts them; they are just never returned by a call.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::actions::Incident;
use crate::event::ProcessEvent;
use crate::journal::{crc32, AnchorRefused, Journal, JournalConfig, JournalError};
use crate::service::{Sentry, SentryConfig};
use crate::snapshot::{SentrySnapshot, SNAPSHOT_VERSION};
use csd_accel::CsdInferenceEngine;

/// Magic bytes opening a checkpoint file (format version 1).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CSDSNAP1";

/// During recovery replay, run one engine round every this many events
/// so queued windows classify incrementally instead of piling up. One
/// round ([`Sentry::round`]), not a queue-serving [`Sentry::poll`]:
/// replay is followed by the next checkpoint's drain whatever happens,
/// and serving the queue here only moves that work into `open`
/// (`recover_cpu_s` 0.0054 → 0.0236 s on the benchmark's fleet workload
/// and 0.0084 → 0.0091 s on its corpus workload when tried).
const REPLAY_POLL_EVERY: u64 = 64;

/// How long a raised incident may wait for the event batch's sync
/// before a call forces one for it: the bound, in wall time and at any
/// event rate, on hand-back after the verdict.
///
/// 10 ms is the magnitude of the service loop's `recv_timeout` (a bus
/// quiet for that long drains anyway) and just under the 12.8 ms a
/// 256-event sync batch takes to fill at the 20,000 events/s the
/// benchmark paces, so most held incidents ride the batch's sync and
/// the deadline forces one only for the stragglers: `syncs_per_kevent`
/// reads 4.14 on `fleet-durable` (4.27 before incidents were held) and
/// 4.16 on `corpus-durable` (6.11), against 5.14 on the fleet when
/// every incident-raising call forces its own sync — which the
/// queue-serving poll otherwise makes it do, and which buys ≈ 7 ms of
/// p50 latency (14 against 21 ms) for one more sync per thousand events
/// (EXPERIMENTS.md "Frozen baselines" row 20).
pub const COMMIT_DEADLINE: Duration = Duration::from_millis(10);

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

/// Why [`DurableSentry::open`] scanned the whole journal — the one
/// path whose cost grows with everything ever journaled — instead of
/// starting at a checkpoint's anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FullScan {
    /// There is no checkpoint file: a first start, or checkpoints are
    /// switched off.
    NoCheckpoint,
    /// The checkpoint file could not be read or failed validation (bad
    /// magic, CRC or version), or it claims more events than the
    /// journal holds. Discarded.
    CheckpointInvalid,
    /// The checkpoint is valid but carries no anchor (it was written
    /// before checkpoints had one). Restored; only the journal's event
    /// records past it are replayed, but all of them were read.
    Unanchored,
    /// The checkpoint's anchor does not describe this journal, so the
    /// checkpoint is taken to belong to another history. Discarded.
    AnchorRefused(AnchorRefused),
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
    /// A checkpoint file existed but was not used: it could not be
    /// read, failed validation (bad magic, CRC, version), post-dated
    /// the journal, or its anchor did not describe the journal —
    /// recovery fell back to full journal replay. `full_scan` says
    /// which.
    pub checkpoint_discarded: bool,
    /// Why the whole journal was scanned; `None` when `open` started at
    /// the checkpoint's anchor.
    pub full_scan: Option<FullScan>,
    /// Journal bytes `open` read: the file's length on a full scan; from
    /// an anchor, the magic, the record ending at the anchor, one read
    /// per chained incident and the bytes past the anchor.
    pub journal_bytes_scanned: u64,
    /// Of the adopted incidents, those reached by the back-links from
    /// the anchor instead of by scanning (0 on a full scan).
    pub chained_incidents: u64,
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
    /// Incidents raised and framed into the journal but not yet handed
    /// back, oldest first: the last `journal.pending_incidents()` of
    /// them are not durable yet.
    held: Vec<Incident>,
    /// When the oldest held incident that is not durable yet was
    /// framed.
    held_since: Instant,
}

impl DurableSentry {
    /// Opens the durable sentry under `durable.dir`, recovering
    /// whatever a previous incarnation left behind: checkpoint restore,
    /// the journal opened at the checkpoint's anchor (or scanned whole
    /// and replayed from its first event if the checkpoint is missing,
    /// invalid or does not fit the journal —
    /// [`RecoveryReport::full_scan`] says which), torn-tail truncation,
    /// incident re-adoption, and event replay. `config` must be the
    /// config the previous incarnation ran under — it travels with the
    /// deployment, not the state files.
    pub fn open(
        engine: CsdInferenceEngine,
        config: SentryConfig,
        durable: DurableConfig,
    ) -> Result<Self, JournalError> {
        fs::create_dir_all(&durable.dir)?;
        let journal_path = durable.dir.join("journal.log");
        let checkpoint_path = durable.dir.join("checkpoint.snap");

        // The checkpoint first: its anchor says where in the journal to
        // start. An anchor the journal refuses takes its checkpoint
        // down with it — they are not of one history.
        let (anchored, mut snapshot, mut full_scan) = match read_checkpoint(&checkpoint_path) {
            CheckpointRead::Valid(snap) if snap.journal.offset != 0 => {
                match Journal::open_at(&journal_path, durable.journal, &snap.journal, snap.events)?
                {
                    Ok(opened) => (Some(opened), Some(snap), None),
                    Err(refused) => (None, None, Some(FullScan::AnchorRefused(refused))),
                }
            }
            CheckpointRead::Valid(snap) => (None, Some(snap), Some(FullScan::Unanchored)),
            CheckpointRead::Absent => (None, None, Some(FullScan::NoCheckpoint)),
            CheckpointRead::Invalid => (None, None, Some(FullScan::CheckpointInvalid)),
        };
        let (mut journal, recovered) = match anchored {
            Some(opened) => opened,
            None => Journal::open(&journal_path, durable.journal)?,
        };
        // Without an anchor to vouch for it, a checkpoint that claims
        // more events than the journal holds must have been written by
        // a future the torn journal no longer remembers: the journal
        // wins, replay it all.
        if snapshot
            .as_ref()
            .is_some_and(|snap| snap.events > journal.durable_events())
        {
            (snapshot, full_scan) = (None, Some(FullScan::CheckpointInvalid));
        }
        let mut report = RecoveryReport {
            journal_bytes_truncated: recovered.bytes_truncated,
            journal_bytes_scanned: recovered.bytes_scanned,
            chained_incidents: recovered.chained_incidents,
            checkpoint_discarded: matches!(
                full_scan,
                Some(FullScan::CheckpointInvalid | FullScan::AnchorRefused(_))
            ),
            full_scan,
            ..RecoveryReport::default()
        };

        let mut inner = match &snapshot {
            Some(snap) => {
                report.checkpoint_events = snap.events;
                Sentry::restore(engine, config, snap)
            }
            None => Sentry::new(engine, config),
        };

        // Adopt incidents first, oldest first: their streams latch, so
        // replay cannot raise them again or re-dispatch their actions.
        let mut adopted: HashSet<u64> = HashSet::new();
        for incident in recovered.incidents {
            if adopted.insert(incident.sid) {
                report.adopted_incidents += 1;
                inner.adopt_incident(incident);
            } else {
                report.duplicate_incidents += 1;
            }
        }

        // Replay events past the checkpoint through the ordinary
        // ingest path; incidents raised here had not latched before
        // the crash, so they are journaled now like any fresh one.
        // From an anchor the scan returned nothing older than the
        // checkpoint; a full scan returned every event there is.
        // The overload governor is off during replay: replay pressure
        // is an artifact of recovery speed, not of live ingest load,
        // and shedding here would diverge from the uninterrupted run.
        let covered = match full_scan {
            Some(_) => report.checkpoint_events as usize,
            None => 0,
        };
        inner.set_governing(false);
        let mut pending_raise: Vec<Incident> = Vec::new();
        for event in recovered.events.iter().skip(covered) {
            pending_raise.extend(inner.ingest(event));
            report.replayed_events += 1;
            if report.replayed_events.is_multiple_of(REPLAY_POLL_EVERY) {
                pending_raise.extend(inner.round());
            }
        }
        pending_raise.extend(inner.round());
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
            held: Vec::new(),
            held_since: Instant::now(),
        })
    }

    /// Ingests one event: journaled first, then applied. Incidents it
    /// raises inline — by the overload governor's SLO-driven rounds —
    /// are framed into the journal's pending tail and held. Returns the
    /// incidents that *became durable during this call*, raised by it
    /// or by an earlier one: because this event completed a
    /// `sync_every` batch, because an automatic checkpoint was due (a
    /// sync point: it drains and hands back everything held), or
    /// because the oldest held incident has waited
    /// [`COMMIT_DEADLINE`] and the call forces the sync. Usually empty.
    /// On error the event may or may not be durable — the producer's
    /// resume protocol (re-send from
    /// [`durable_events`](Self::durable_events)) covers both.
    pub fn ingest(&mut self, event: &ProcessEvent) -> Result<Vec<Incident>, JournalError> {
        self.journal.append_event(event)?;
        let raised = self.inner.ingest(event);
        let mut durable = self.hold(raised, false)?;
        self.since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            durable.extend(self.checkpoint()?);
        }
        Ok(durable)
    }

    /// Serves the mux's queue ([`Sentry::poll`]); the incidents raised
    /// are framed into the journal's pending tail and held until the
    /// event batch's sync, or the commit deadline's, has made them
    /// durable. Returns the incidents that became durable during this
    /// call — see [`ingest`](Self::ingest).
    pub fn poll(&mut self) -> Result<Vec<Incident>, JournalError> {
        let raised = self.inner.poll();
        self.hold(raised, false)
    }

    /// Classifies everything queued or in flight. A sync point: the
    /// incidents raised are journaled behind everything still held,
    /// one sync makes all of them durable, and all of them are
    /// returned. With nothing raised and nothing held it syncs nothing
    /// — on an empty mux it is free, which is what lets the service
    /// loop call it whenever the bus goes quiet.
    pub fn drain(&mut self) -> Result<Vec<Incident>, JournalError> {
        let raised = self.inner.drain();
        self.hold(raised, true)
    }

    /// Frames `raised` behind the incidents already held and hands
    /// back, oldest first, every held incident whose record is durable
    /// by the end of the call. A sync writes the journal's whole
    /// pending tail and every incident record in that tail is one of
    /// `held`'s last, so `held.len() − pending_incidents()` are. The
    /// sync is forced here if `commit` is set or the oldest incident
    /// still waiting has waited [`COMMIT_DEADLINE`]; otherwise the
    /// event batch's will do it. The clock is read at most once, and
    /// only while something is held.
    fn hold(&mut self, raised: Vec<Incident>, commit: bool) -> Result<Vec<Incident>, JournalError> {
        if self.held.is_empty() && raised.is_empty() {
            return Ok(raised);
        }
        let waiting = self.journal.pending_incidents() > 0;
        self.journal.frame_incidents(&raised)?;
        self.held.extend(raised);
        if self.journal.pending_incidents() > 0 {
            if commit || (waiting && self.held_since.elapsed() >= COMMIT_DEADLINE) {
                self.journal.sync()?;
            } else if !waiting {
                self.held_since = Instant::now();
            }
        }
        let durable = self
            .held
            .len()
            .saturating_sub(self.journal.pending_incidents());
        Ok(self.held.drain(..durable).collect())
    }

    /// Takes a quiescent checkpoint now: drain, journal sync, atomic
    /// snapshot write — the snapshot anchored at where that sync left
    /// the journal. A sync point like [`drain`](Self::drain): returns
    /// the incidents the drain raised and everything held. Bounds the
    /// next recovery's replay to events ingested after this call, and
    /// what it reads of the journal to the bytes appended after it plus
    /// the incidents' own records.
    pub fn checkpoint(&mut self) -> Result<Vec<Incident>, JournalError> {
        let durable = self.drain()?;
        self.journal.sync()?;
        debug_assert_eq!(
            self.journal.durable_events(),
            self.inner.events(),
            "journal and sentry must agree on the event count at a sync point"
        );
        let snap = SentrySnapshot {
            journal: self.journal.anchor(),
            ..self.inner.snapshot()
        };
        write_checkpoint(&self.checkpoint_path, &snap, &mut self.checkpoint_buf)?;
        self.checkpoints_written += 1;
        self.since_checkpoint = 0;
        Ok(durable)
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
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return CheckpointRead::Absent,
        // There is a checkpoint and it cannot be read (permissions, a
        // failing disk): that is a discarded checkpoint, reported, not
        // a first start.
        Err(_) => return CheckpointRead::Invalid,
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
    use crate::journal::JournalAnchor;
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

    /// What one incarnation's calls have handed back, checked against
    /// the journal after every call: the acknowledgement contract.
    struct Ledger {
        /// `durable_incidents()` at open: adopted and replay-raised
        /// records, which no call hands back.
        base: u64,
        handed_back: HashSet<u64>,
    }

    impl Ledger {
        fn new(d: &DurableSentry) -> Self {
            assert_eq!(d.journal().pending_incidents(), 0, "open is a sync point");
            Self {
                base: d.journal().durable_incidents(),
                handed_back: HashSet::new(),
            }
        }

        /// After any call that returned `back`: each incident comes
        /// back once, none before its record is durable, and every
        /// latched incident is either durable or in the pending tail.
        fn check(&mut self, d: &DurableSentry, back: Vec<Incident>) {
            for incident in back {
                assert!(
                    self.handed_back.insert(incident.sid),
                    "session {} handed back twice",
                    incident.sid
                );
            }
            let journal = d.journal();
            assert!(
                self.handed_back.len() as u64 <= journal.durable_incidents() - self.base,
                "an incident was handed back before its record was durable"
            );
            assert_eq!(
                journal.durable_incidents() + journal.pending_incidents() as u64,
                d.sentry().incidents().len() as u64,
                "every latched incident is journaled: durable or held"
            );
        }

        /// After a sync point (`drain`, `checkpoint`) that returned
        /// `back`: nothing is held any more.
        fn check_settled(&mut self, d: &DurableSentry, back: Vec<Incident>) {
            self.check(d, back);
            assert_eq!(d.journal().pending_incidents(), 0);
            assert_eq!(
                self.handed_back.len() as u64,
                d.journal().durable_incidents() - self.base,
                "a sync point hands back everything held"
            );
        }
    }

    /// The service loop's shape — journaled ingest, a poll every 16
    /// events — on a freshly opened `d`, with the acknowledgement
    /// contract checked after every call.
    fn feed(d: &mut DurableSentry, events: &[ProcessEvent]) -> Ledger {
        let mut ledger = Ledger::new(d);
        for e in events {
            let back = d.ingest(e).unwrap();
            ledger.check(d, back);
            if d.sentry().events().is_multiple_of(16) {
                let back = d.poll().unwrap();
                ledger.check(d, back);
            }
        }
        ledger
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
        let mut ledger = feed(&mut d, &events[resume_from as usize..]);
        let back = d.drain().unwrap();
        ledger.check_settled(&d, back);
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

    /// An anchor that does not hold — stale, of another history, or
    /// simply wrong — costs a full scan and its checkpoint, never data:
    /// the journal is not cut by a byte, every incident is adopted from
    /// it, and the report says why. A checkpoint without an anchor is
    /// still restored, by a full scan.
    #[test]
    fn an_anchor_that_does_not_hold_costs_a_full_scan_not_data() {
        use AnchorRefused::{BoundaryMismatch, BrokenLink, JournalShort};
        let dir = tmpdir("bad-anchor");
        let events = workload(4, 30);
        let expect = oracle(&events);
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 40;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        feed(&mut d, &events);
        d.drain().unwrap();
        drop(d); // clean shutdown: nothing torn, nothing left to raise
        let journal = fs::read(dir.join("journal.log")).unwrap();
        let ckpt = dir.join("checkpoint.snap");
        let CheckpointRead::Valid(good) = read_checkpoint(&ckpt) else {
            panic!("the run left a checkpoint");
        };
        assert!(good.journal.incidents > 0 && good.journal.offset < journal.len() as u64);

        // Another history's checkpoint: same workload shape, other names.
        let other_dir = tmpdir("bad-anchor-other");
        let mut other_durable = DurableConfig::new(&other_dir);
        other_durable.checkpoint_every_events = 40;
        let mut other = DurableSentry::open(engine(), config(), other_durable).unwrap();
        for e in &events {
            let mut e = e.clone();
            if let crate::event::EventKind::Spawn(name) = &mut e.kind {
                name.push_str("-elsewhere");
            }
            other.ingest(&e).unwrap();
        }
        drop(other);
        let CheckpointRead::Valid(foreign) = read_checkpoint(&other_dir.join("checkpoint.snap"))
        else {
            panic!("the other run left a checkpoint");
        };

        let anchored = |lie: &dyn Fn(&mut JournalAnchor)| {
            let mut snap = (*good).clone();
            lie(&mut snap.journal);
            snap
        };
        let a = good.journal;
        let cases = [
            (
                anchored(&|j| j.offset = journal.len() as u64 + 1),
                JournalShort,
            ),
            (anchored(&|j| j.offset += 3), BoundaryMismatch),
            (anchored(&|j| j.last_record -= 1), BoundaryMismatch),
            (anchored(&|j| j.incidents += 1), BrokenLink),
            (anchored(&|j| j.incidents -= 1), BrokenLink),
            (anchored(&|j| j.last_incident = 0), BrokenLink),
            ((*foreign).clone(), BoundaryMismatch),
        ];
        let mut buf = Vec::new();
        for (snap, why) in &cases {
            write_checkpoint(&ckpt, snap, &mut buf).unwrap();
            let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
            let report = d.recovery();
            assert_eq!(report.full_scan, Some(FullScan::AnchorRefused(*why)));
            assert!(report.checkpoint_discarded);
            assert_eq!(report.checkpoint_events, 0);
            assert_eq!(report.replayed_events, events.len() as u64);
            assert_eq!(report.journal_bytes_scanned, journal.len() as u64);
            assert_eq!(report.journal_bytes_truncated, 0);
            assert_eq!(keys(d.sentry()), expect, "{why:?}");
            drop(d);
            assert_eq!(
                fs::read(dir.join("journal.log")).unwrap(),
                journal,
                "{why:?}"
            );
        }

        // No anchor at all (a checkpoint from before there was one):
        // restored, after a full scan.
        write_checkpoint(
            &ckpt,
            &anchored(&|j| *j = JournalAnchor::default()),
            &mut buf,
        )
        .unwrap();
        let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        let report = d.recovery();
        assert_eq!(report.full_scan, Some(FullScan::Unanchored));
        assert!(!report.checkpoint_discarded);
        assert_eq!(report.checkpoint_events, good.events);
        assert_eq!(report.replayed_events, events.len() as u64 - good.events);
        assert_eq!(report.journal_bytes_scanned, journal.len() as u64);
        assert_eq!(keys(d.sentry()), expect);
        drop(d);

        // And the anchor as it was written: the same place, by reading
        // the tail and the incidents' records only.
        write_checkpoint(&ckpt, &good, &mut buf).unwrap();
        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        let report = d.recovery();
        assert_eq!(report.full_scan, None);
        assert_eq!(report.chained_incidents, a.incidents);
        assert_eq!(report.replayed_events, events.len() as u64 - good.events);
        assert!(report.journal_bytes_scanned < journal.len() as u64);
        assert_eq!(keys(d.sentry()), expect);
        drop(d);
        assert_eq!(fs::read(dir.join("journal.log")).unwrap(), journal);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other_dir);
    }

    /// A checkpoint that is there and cannot be read is a discarded
    /// checkpoint, reported — not a first start.
    #[test]
    fn an_unreadable_checkpoint_is_discarded_not_absent() {
        let dir = tmpdir("unreadable-ckpt");
        let events = workload(4, 30);
        let expect = oracle(&events);
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 40;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        feed(&mut d, &events);
        d.drain().unwrap();
        drop(d);
        let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        assert_eq!(d.recovery().full_scan, None, "readable: used");
        drop(d);

        // A directory where the file should be: `read` fails, and not
        // with `NotFound`.
        let ckpt = dir.join("checkpoint.snap");
        fs::remove_file(&ckpt).unwrap();
        fs::create_dir(&ckpt).unwrap();
        let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        assert_eq!(d.recovery().full_scan, Some(FullScan::CheckpointInvalid));
        assert!(d.recovery().checkpoint_discarded);
        assert_eq!(keys(d.sentry()), expect, "the journal alone is enough");
        drop(d);

        // No file: a first start, nothing discarded.
        fs::remove_dir(&ckpt).unwrap();
        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert_eq!(d.recovery().full_scan, Some(FullScan::NoCheckpoint));
        assert!(!d.recovery().checkpoint_discarded);
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
        // Every incident is journaled — durable, or held in the
        // pending tail, which the crash forgets and replay raises again.
        let journaled = d.journal().durable_incidents();
        assert_eq!(
            journaled + d.journal().pending_incidents() as u64,
            d.sentry().incidents().len() as u64
        );
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
        let mut ledger = feed(&mut d, &events[resume_from..]);
        let back = d.drain().unwrap();
        ledger.check_settled(&d, back);
        assert_eq!(keys(d.sentry()), expect);
        assert_eq!(
            d.sentry().sessions().tracked(),
            0,
            "all exited, all retired"
        );
        assert_eq!(d.sentry().tracked_streams(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One seeded feed through every kind of call, the acknowledgement
    /// contract checked after each: automatic checkpoints and batch
    /// syncs along the way, then an explicit drain and checkpoint.
    #[test]
    fn incidents_come_back_once_and_only_after_they_are_durable() {
        let dir = tmpdir("ledger");
        let wave = workload(5, 30);
        let events: Vec<ProcessEvent> = (0..4).flat_map(|_| wave.clone()).collect();
        let expect = oracle(&events);
        assert!(expect.len() >= 4);

        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 150;
        durable.journal.sync_every = 24;
        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        let mut ledger = feed(&mut d, &events);
        let back = d.drain().unwrap();
        ledger.check_settled(&d, back);
        let back = d.checkpoint().unwrap();
        assert!(back.is_empty(), "the drain left nothing to hand back");
        ledger.check_settled(&d, back);
        assert_eq!(ledger.handed_back.len(), expect.len());
        assert_eq!(keys(d.sentry()), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Feeds `events` (a poll every 16) until a call leaves an incident
    /// held: framed into the journal's pending tail, not durable, not
    /// handed back. Returns how many events went in.
    fn feed_until_held(d: &mut DurableSentry, events: &[ProcessEvent]) -> usize {
        for (i, e) in events.iter().enumerate() {
            let mut back = d.ingest(e).unwrap();
            if d.sentry().events().is_multiple_of(16) {
                back.extend(d.poll().unwrap());
            }
            assert!(back.is_empty(), "no sync point is within reach");
            if d.journal().pending_incidents() > 0 {
                return i + 1;
            }
        }
        panic!("the workload raises incidents");
    }

    /// The crash window group commit widens: an incident raised but not
    /// yet synced is forgotten by the crash, so recovery raises it
    /// again — once — and the final set is still the oracle's.
    #[test]
    fn crash_while_an_incident_is_held_raises_it_again_exactly_once() {
        let dir = tmpdir("held-crash");
        let events = workload(6, 40);
        let expect = oracle(&events);

        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0;
        // Polls fall right after a batch sync, so what one raises waits
        // for the next batch.
        durable.journal.sync_every = 16;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        let fed = feed_until_held(&mut d, &events);
        let held: Vec<u64> = d.sentry().incidents().iter().map(|i| i.sid).collect();
        assert_eq!(d.journal().durable_incidents(), 0);
        assert_eq!(d.journal().pending_incidents(), held.len());
        let resume_from = d.durable_events() as usize;
        assert!(resume_from <= fed);
        d.simulate_crash(0);

        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        assert_eq!(
            d.recovery().adopted_incidents,
            0,
            "the crash forgot the held record"
        );
        let mut ledger = feed(&mut d, &events[resume_from..]);
        let back = d.drain().unwrap();
        ledger.check_settled(&d, back);
        assert_eq!(keys(d.sentry()), expect, "no incident lost, none invented");
        for sid in held {
            let raised = d.sentry().incidents().iter().filter(|i| i.sid == sid);
            assert_eq!(raised.count(), 1, "session {sid} raised again exactly once");
        }
        drop(d);

        // The journal holds one record per incident.
        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert_eq!(d.recovery().adopted_incidents, expect.len() as u64);
        assert_eq!(d.recovery().duplicate_incidents, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hand-back is bounded in wall time at any event rate: with the
    /// batch sync out of reach and no further events, the first call
    /// made after the commit deadline forces the sync and returns the
    /// incident.
    #[test]
    fn a_held_incident_comes_back_with_the_first_call_after_the_deadline() {
        let dir = tmpdir("deadline");
        let events = workload(6, 40);
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0;
        durable.journal.sync_every = usize::MAX;
        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        let began = Instant::now();
        feed_until_held(&mut d, &events);

        // A call made before the deadline hands back nothing and syncs
        // nothing; the first one made after it forces the sync, which
        // covers what that call raises too. (Should this thread be
        // stalled past the deadline on its way here, this poll *is* the
        // first one after it.)
        let mut back = d.poll().unwrap();
        if d.journal().syncs() == 0 {
            assert!(back.is_empty());
            std::thread::sleep(COMMIT_DEADLINE);
            back.extend(d.poll().unwrap());
        } else {
            assert!(began.elapsed() >= COMMIT_DEADLINE, "a sync ahead of time");
        }
        let raised = d.sentry().incidents().len();
        assert_eq!(back.len(), raised);
        assert_eq!(d.journal().durable_incidents(), raised as u64);
        assert_eq!(d.journal().pending_incidents(), 0);
        assert_eq!(d.journal().syncs(), 1, "one forced sync for all of them");
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
