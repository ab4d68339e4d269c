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
//!    sessions alive at that moment and costs in proportion to them;
//!    of the overload governor's sheds it holds only their count. Its
//!    body is compact JSON that the crate's own codec
//!    ([`snapshot`](crate::snapshot)) writes into a reused buffer and
//!    reads back field by field; no serde tree is built either way.
//! 3. **Replay** — on open, the newest valid checkpoint is restored
//!    and the journal's event records from the checkpoint's event
//!    index onward are re-ingested through the ordinary path. Replay
//!    serves no window — not even at the call that completes it, as a
//!    live ingest does out of the last poll's unspent budget: the
//!    windows it queues wait in the mux for the first poll after
//!    `open`.
//!
//! # What `open` reads
//!
//! A checkpoint bounds recovery time only if `open` does not read the
//! journal from its first byte to find the records past it. So a
//! checkpoint carries an **anchor** — where the journal sync it makes
//! left `journal.log`: the synced length, the offset of the last
//! record before it, how many incident records lie before it and
//! where the newest incident digest is
//! ([`JournalAnchor`](crate::journal::JournalAnchor), returned by the
//! journal's half of the checkpoint) — and `open` starts there:
//!
//! - it reads the checkpoint first;
//! - it checks the anchor against the file before trusting it: the
//!   file is at least that long, and the record the anchor says ends
//!   at its offset is there, length and CRC;
//! - it fetches the incidents before the anchor from the **digests**
//!   checkpoints left in the journal — each checkpoint frames, before
//!   its sync, one record holding every incident framed since the
//!   previous digest, linked back to it — so they are reached with one
//!   read and one CRC check per checkpoint interval that raised any,
//!   not per incident, and adopted oldest first;
//! - it scans, and if torn truncates, only the bytes past the anchor,
//!   with the scan and the truncation rule of the full open, and
//!   replays the events found there.
//!
//! Event records before the anchor are not read; they are what the
//! checkpoint stands for. Incidents are not in the checkpoint — the
//! journal stays their system of record, and a checkpoint that copied
//! them would grow with history again — so what `open` costs is the
//! checkpoint interval plus one read per digest and one fixed-layout
//! decode per incident ever raised, which is what
//! [`Sentry::incidents`] holds in memory anyway. Incidents recovered
//! past the anchor, and those raised after `open`, belong to no digest
//! yet; the journal queues them, and the next checkpoint's digest
//! carries them forward.
//!
//! The anchor is an optimisation, never information. A checkpoint still
//! holds nothing the journal lacks: delete it and `open` reaches the
//! same incidents, cursors and counters by scanning and replaying the
//! whole journal (the same anchored open, from the anchor at the end of
//! the journal's head, untouched) — the property
//! `tests/proptest_crash.rs` checks at every crash it generates. That
//! full scan is what `open` falls back to, and says so in
//! [`RecoveryReport::full_scan`], whenever there is no anchor to use:
//! no checkpoint, a checkpoint that cannot be read or validated (a
//! checkpoint without an anchor is one of those), or one whose anchor
//! the journal refuses — a shorter file, no record boundary where it
//! says, a digest chain that does not hold exactly the incidents it
//! counts. A checkpoint is restored only from an anchor the journal
//! accepts: any other takes its checkpoint down with it (they are not
//! of one history) and never cuts a byte of the journal — a missing,
//! wrong, stale or hostile anchor costs a full scan, not data.
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
//! with their sessions latched, so replay cannot raise them a second
//! time or re-dispatch their backend action — the never-reused session
//! id is the dedup key. A session the checkpoint holds is latched at
//! adoption; one that replay is yet to create is latched the moment
//! replay creates it. If the incident's kill or quarantine applied,
//! either is marked killed at the call where it took effect — the
//! incident records the session's call count then — so replay drops
//! and tallies the calls the run that applied it dropped, and no
//! others. An incident whose session had already
//! retired at the checkpoint rejoins the log only: its id is spent and
//! replay cannot touch it.
//!
//! All of this holds only for the model and the config that wrote the
//! state: another model classifies the replayed windows otherwise, and
//! another window, stride or vote rule slices and folds them otherwise,
//! so a state and a sentry that are not of one [`StateId`] would mix two
//! histories. `open` refuses such a directory before it changes a byte
//! ([`JournalError::ForeignState`]).
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
//! window is one fsync wide for an incident raised while the journal's
//! sync credit covers a sync, and at most [`COMMIT_DEADLINE`] plus one
//! fsync for one raised after the credit is spent.
//!
//! # Acknowledgement
//!
//! The serving calls — [`ingest`](DurableSentry::ingest) and
//! [`poll`](DurableSentry::poll) — frame the incidents they raise into
//! the journal's pending tail without a sync of their own, and each
//! call returns the incidents that **became durable during it**. The
//! journal keeps the disk's sync budget (its *credit*, see the
//! [journal's durability model](crate::journal#durability-model)): the
//! events earn one sync per `sync_every / 4` of them, up to four
//! banked, and every sync spends one — a full event-only batch's too.
//! While the credit covers a sync, a call that holds an incident syncs
//! for it at once, and it comes back from the call that raised it.
//! Otherwise the incident is held unacknowledged until the journal's
//! `sync_every` event batch fills and syncs the tail it rides in, the
//! events have paid for a sync again, or the oldest held incident has
//! waited [`COMMIT_DEADLINE`] and the call forces the sync.
//! [`drain`](DurableSentry::drain),
//! [`checkpoint`](DurableSentry::checkpoint) and
//! [`open`](DurableSentry::open)'s replay are sync points: they leave
//! nothing held. So a caller sees every incident exactly once, never
//! before it would survive a crash, at most a deadline and an fsync
//! after its verdict — usually one fsync — and the disk's budget is
//! spent on incidents first instead of growing by one sync per
//! incident-raising call. Dropping a
//! `DurableSentry` without a final drain still syncs the tail (the
//! journal's clean-shutdown flush), so held incidents are journaled and
//! the next `open` adopts them; they are just never returned by a call.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::actions::Incident;
use crate::codec::{crc32, Fields};
use crate::event::ProcessEvent;
use crate::journal::{AnchorRefused, Journal, JournalConfig, JournalError};
use crate::service::{Sentry, SentryConfig};
use crate::snapshot::{put_snapshot, read_snapshot, SentrySnapshot};
use csd_accel::CsdInferenceEngine;

/// Magic bytes opening a checkpoint file. The body's layout is named
/// apart from it, by the [`StateId`] the body carries.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CSDSNAP1";

/// The layout of the durable state — the journal's records and the
/// checkpoint's body together. A change to either bumps it, which
/// changes every [`StateId`], so a directory an older build wrote is
/// refused rather than misread.
const STATE_FORMAT: u64 = 1;

/// What a durable state is the state *of*: an FNV-1a digest of the
/// format, of the model the engine serves
/// ([`CsdInferenceEngine::model_digest`]) and of every [`SentryConfig`]
/// field the incident set depends on — window, stride, votes, horizon,
/// idle timeout, action, dedup, staleness SLO and the mux's
/// `max_pending`. The mux's `shards` are left out: they split a serving
/// call over threads and never change a verdict.
///
/// `journal.log`'s head and `checkpoint.snap`'s body each carry it once,
/// and [`DurableSentry::open`] refuses a directory whose files name
/// another ([`JournalError::ForeignState`]). A deliberate change of
/// model or config is therefore an explicit step: drain and checkpoint
/// under the old one, then start the new one in a fresh directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateId(pub u64);

impl StateId {
    /// The id of the state a sentry over `engine` under `config` writes.
    pub fn of(engine: &CsdInferenceEngine, config: &SentryConfig) -> Self {
        let optional = |x: Option<u64>| x.map_or([0, 0], |v| [1, v]);
        let words = [
            &[
                STATE_FORMAT,
                engine.model_digest(),
                config.window_len as u64,
                config.stride as u64,
                config.votes_needed as u64,
                config.vote_horizon as u64,
                config.action as u64,
                u64::from(config.dedup_monotone_ts),
                config.mux.max_pending as u64,
            ][..],
            &optional(config.idle_timeout_events),
            &optional(config.staleness_slo),
        ]
        .concat();
        Self(
            words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                }),
        )
    }
}

/// How long a raised incident may wait, once the journal's sync credit
/// is spent, before a call forces a sync for it: the bound, in wall
/// time and at any event rate, on hand-back after the verdict.
///
/// 10 ms is the magnitude of the service loop's `recv_timeout` (a bus
/// quiet for that long drains anyway). An incident raised while the
/// credit covers a sync does not wait at all; one raised after it is
/// spent waits for the events that pay for the next sync (256 from an
/// empty credit, 12.8 ms at the 20,000 events/s the benchmark paces:
/// longer than this deadline), for the 1,024-event batch, or for this
/// deadline, whichever comes first. So the deadline forces syncs only
/// where incidents come faster than the budget pays for them. On
/// `fleet-durable`, which raises an incident per ≈ 1,250 events, a
/// four-sync bank leaves almost none waiting: `syncs_per_kevent` reads
/// 2.50 and detection latency ≈ 0.6 ms at p50 and ≈ 0.9 ms at p95. On
/// `corpus-durable`, which raises one per ≈ 224 events, more than the
/// budget pays for, some still wait: 3.98, ≈ 0.7 ms at p50 and
/// ≈ 11.4 ms, this deadline and an fsync, at p95. A two-sync bank over a
/// 512-event batch read 3.16 and ≈ 9 ms at p95 on the fleet, and 3.93
/// and ≈ 3.1 ms at p50 on the corpus; incidents that rode the 256-event
/// batch read 4.15 and 4.17 at ≈ 7–8 ms, and a sync for every
/// incident-raising call 5.14 on the fleet (EXPERIMENTS.md "Frozen
/// baselines" rows 20, 51 and 53).
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
    /// Defaults under `dir`: 1,024-event sync batches — a sync budget of
    /// one per 256 events, four banked — and a checkpoint every 8192
    /// events.
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
/// starting at a checkpoint's anchor. With any of these no checkpoint
/// is restored: the whole journal is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullScan {
    /// There is no checkpoint file: a first start, or checkpoints are
    /// switched off.
    NoCheckpoint,
    /// The checkpoint file could not be read or failed validation (see
    /// [`CheckpointRead::Invalid`]). Discarded.
    CheckpointInvalid,
    /// The checkpoint's anchor does not describe this journal, so the
    /// checkpoint is taken to belong to another history. Discarded.
    AnchorRefused(AnchorRefused),
}

/// What [`DurableSentry::open`] found and did.
#[derive(Debug, Clone, Default)]
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
    /// Torn journal bytes truncated on open.
    pub journal_bytes_truncated: u64,
    /// Why the whole journal was scanned; `None` when `open` started at
    /// the checkpoint's anchor.
    pub full_scan: Option<FullScan>,
    /// Journal bytes `open` read: the file's length on a full scan; from
    /// an anchor, the head, the record ending at the anchor, the
    /// digests behind it and the bytes past the anchor.
    pub journal_bytes_scanned: u64,
    /// Of the adopted incidents, those read from the digests the anchor
    /// leads to instead of scanned (0 on a full scan).
    pub chained_incidents: u64,
    /// Positional reads of the journal `open` made before its scan: the
    /// head, and from an anchor the record ending there and one per
    /// digest behind it — the digests plus one when the record at the
    /// anchor is the newest digest, whatever the number of incidents.
    pub journal_reads: u64,
}

impl RecoveryReport {
    /// A checkpoint file existed but was not used: it could not be
    /// read, failed validation (bad magic, CRC, body or no
    /// anchor), or its anchor did not describe the journal — recovery
    /// fell back to full journal replay. [`full_scan`](Self::full_scan)
    /// says which.
    pub fn checkpoint_discarded(&self) -> bool {
        matches!(
            self.full_scan,
            Some(FullScan::CheckpointInvalid | FullScan::AnchorRefused(_))
        )
    }
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
    /// incident re-adoption, and event replay.
    ///
    /// # Errors
    ///
    /// [`JournalError::ForeignState`] if the journal's head or a valid
    /// checkpoint names another [`StateId`] than `engine` and `config`
    /// make: the directory was written under another model or detection
    /// config (or an older format), and is left byte for byte as it was.
    /// [`JournalError::BadMagic`] if `journal.log` is not a journal, and
    /// `Io` if a file operation fails.
    pub fn open(
        engine: CsdInferenceEngine,
        config: SentryConfig,
        durable: DurableConfig,
    ) -> Result<Self, JournalError> {
        fs::create_dir_all(&durable.dir)?;
        let journal_path = durable.dir.join("journal.log");
        let checkpoint_path = durable.dir.join("checkpoint.snap");

        // Identity before anything else: each file names the state it
        // belongs to, and one comparison decides for both, before a
        // byte is cut or an incident adopted. A checkpoint that fails
        // validation names nothing.
        let expected = StateId::of(&engine, &config);
        let checkpoint = read_checkpoint(&checkpoint_path);
        let named = [
            Journal::head(&journal_path)?,
            match &checkpoint {
                CheckpointRead::Valid(snap) => Some(StateId(snap.state)),
                CheckpointRead::Absent | CheckpointRead::Invalid => None,
            },
        ];
        if let Some(found) = named.into_iter().flatten().find(|&id| id != expected) {
            return Err(JournalError::ForeignState { found, expected });
        }

        // The checkpoint first: its anchor says where in the journal to
        // start. An anchor the journal refuses takes its checkpoint
        // down with it — they are not of one history.
        let (anchored, full_scan) = match checkpoint {
            CheckpointRead::Valid(snap) => {
                match Journal::open_at(&journal_path, durable.journal, &snap.journal, snap.events)?
                {
                    Ok(opened) => (Some((snap, opened)), None),
                    Err(refused) => (None, Some(FullScan::AnchorRefused(refused))),
                }
            }
            CheckpointRead::Absent => (None, Some(FullScan::NoCheckpoint)),
            CheckpointRead::Invalid => (None, Some(FullScan::CheckpointInvalid)),
        };
        let (snapshot, (journal, recovered)) = match anchored {
            Some((snap, opened)) => (Some(snap), opened),
            None => (
                None,
                Journal::open_as(&journal_path, durable.journal, expected)?,
            ),
        };
        let mut report = RecoveryReport {
            journal_bytes_truncated: recovered.bytes_truncated,
            journal_bytes_scanned: recovered.bytes_scanned,
            chained_incidents: recovered.chained_incidents,
            journal_reads: recovered.reads,
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

        // Adopt incidents first, oldest first: their sessions latch, so
        // replay cannot raise them again or re-dispatch their actions.
        // A session replay is yet to create is latched when it does,
        // which is before any window of it can be served: `unborn`
        // holds those incidents, the highest sid first.
        let mut adopted: HashSet<u64> = HashSet::new();
        let mut unborn: Vec<Incident> = Vec::new();
        for incident in recovered.incidents {
            if adopted.insert(incident.sid) {
                report.adopted_incidents += 1;
                if incident.sid >= inner.sessions().next_sid() {
                    unborn.push(incident.clone());
                }
                inner.adopt_incident(incident);
            } else {
                report.duplicate_incidents += 1;
            }
        }
        unborn.sort_unstable_by_key(|i| std::cmp::Reverse(i.sid));

        // Replay events past the checkpoint through the ordinary
        // ingest path: from an anchor the scan returned nothing older
        // than the checkpoint, and a full scan restored no checkpoint.
        // The overload governor is off during replay: replay
        // pressure is an artifact of recovery speed, not of live ingest
        // load, and shedding here would diverge from the uninterrupted
        // run. Nor does replay serve a window, by a round or at the
        // call that completes it (both are off while the governor is):
        // a round here would serve the oldest queued ones, and which
        // those are depends on where
        // replay started — the anchor or the journal's first event — so
        // the incidents `open` raised would too, and the anchor would
        // be information. The windows wait for the first poll, so
        // replay raises no incident.
        inner.set_governing(false);
        for event in &recovered.events {
            let raised = inner.ingest(event);
            debug_assert!(raised.is_empty(), "replay serves no window");
            report.replayed_events += 1;
            while let Some(incident) = unborn.pop_if(|i| i.sid < inner.sessions().next_sid()) {
                inner.latch_adopted(&incident);
            }
        }
        inner.set_governing(true);

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
    /// raises — by the window it completes, served out of what the last
    /// poll left unspent ([`Sentry::ingest`]), or by the overload
    /// governor's SLO-driven rounds — are framed into the journal's
    /// pending tail and held. Returns the
    /// incidents that *became durable during this call*, raised by it
    /// or by an earlier one: because this event completed a
    /// `sync_every` batch, because the journal's credit covered a sync
    /// for what is held, because an automatic checkpoint was due (a
    /// sync point: it drains and hands back everything held), or
    /// because the oldest held incident has waited
    /// [`COMMIT_DEADLINE`] and the call forces the sync. Usually empty.
    /// On error the event may or may not be durable — the producer's
    /// resume protocol (re-send from
    /// [`durable_events`](Self::durable_events)) covers both.
    pub fn ingest(&mut self, event: &ProcessEvent) -> Result<Vec<Incident>, JournalError> {
        let checkpoint_due =
            self.checkpoint_every > 0 && self.since_checkpoint + 1 >= self.checkpoint_every;
        if checkpoint_due {
            // The checkpoint below syncs: a batch this event fills
            // rides that sync with the digest instead of taking its own.
            self.journal.frame_event(event);
        } else {
            self.journal.append_event(event)?;
        }
        let raised = self.inner.ingest(event);
        let mut durable = self.hold(raised, false)?;
        self.since_checkpoint += 1;
        if checkpoint_due {
            durable.extend(self.checkpoint()?);
        }
        Ok(durable)
    }

    /// Serves the mux's queue ([`Sentry::poll`]); the incidents raised
    /// are framed into the journal's pending tail and synced at once if
    /// the journal's credit covers a sync, or held until the event
    /// batch's sync, the credit's, or the commit deadline's has made
    /// them durable. Returns the incidents that became durable during this
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
    /// sync is made here if `commit` is set, the journal has credit for
    /// it, or the oldest incident still waiting has waited
    /// [`COMMIT_DEADLINE`]; otherwise the event batch's, or a later
    /// call's, will do it. The clock is read at most once, and only
    /// while something is held and the credit is spent.
    fn hold(&mut self, raised: Vec<Incident>, commit: bool) -> Result<Vec<Incident>, JournalError> {
        if self.held.is_empty() && raised.is_empty() {
            return Ok(raised);
        }
        let waiting = self.journal.pending_incidents() > 0;
        self.journal.frame_incidents(&raised);
        self.held.extend(raised);
        if self.journal.pending_incidents() > 0 {
            if commit
                || self.journal.has_sync_credit()
                || (waiting && self.held_since.elapsed() >= COMMIT_DEADLINE)
            {
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

    /// Takes a quiescent checkpoint now: drain, journal digest and
    /// sync, atomic snapshot write — the snapshot anchored at where that
    /// sync left the journal. A sync point like [`drain`](Self::drain):
    /// returns the incidents the drain raised and everything held. The
    /// drain's incidents and the digest of every incident no digest
    /// holds yet ride one sync, the one a drain would make. Bounds the
    /// next recovery's replay to events ingested after this call, and
    /// what it reads of the journal to the bytes appended after it plus
    /// one record per checkpoint interval.
    pub fn checkpoint(&mut self) -> Result<Vec<Incident>, JournalError> {
        let raised = self.inner.drain();
        self.journal.frame_incidents(&raised);
        self.held.extend(raised);
        let anchor = self.journal.checkpoint()?;
        let durable = self.held.drain(..).collect();
        debug_assert_eq!(
            self.journal.durable_events(),
            self.inner.events(),
            "journal and sentry must agree on the event count at a sync point"
        );
        let snap = SentrySnapshot {
            journal: anchor,
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

/// What [`read_checkpoint`] found at a checkpoint path.
#[derive(Debug)]
pub enum CheckpointRead {
    /// No file: a first start.
    Absent,
    /// A file [`DurableSentry::open`] would discard: unreadable, a wrong
    /// magic, a failed CRC, a body the crate's checkpoint codec does not
    /// read — any text but the exact layout it writes, a field missing
    /// among them, as the [`StateId`] is from a body an older build
    /// wrote — or no journal anchor.
    Invalid,
    /// A checkpoint `open` would start from.
    Valid(Box<SentrySnapshot>),
}

/// Decodes the checkpoint file at `path` (`checkpoint.snap` under a
/// durable directory) with every check [`DurableSentry::open`] applies
/// to it alone: magic, CRC-32 of the body, the JSON [`SentrySnapshot`]
/// and a nonzero anchor. Whether its [`StateId`] is the sentry's is
/// `open`'s to decide, with the journal's. The one decoder of the
/// format in the library: its magic and CRC envelope are read with the
/// field reader the journal and the wire use, and its body with the
/// snapshot module's own strict reader, not serde's.
pub fn read_checkpoint(path: &Path) -> CheckpointRead {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return CheckpointRead::Absent,
        // There is a checkpoint and it cannot be read (permissions, a
        // failing disk): that is a discarded checkpoint, reported, not
        // a first start.
        Err(_) => return CheckpointRead::Invalid,
    };
    decode_checkpoint(&bytes).map_or(CheckpointRead::Invalid, |snap| {
        CheckpointRead::Valid(Box::new(snap))
    })
}

/// The snapshot a checkpoint file's `bytes` hold, if they pass every
/// check [`read_checkpoint`] names.
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Option<SentrySnapshot> {
    let mut file = Fields(bytes);
    let (magic, crc) = (file.take(SNAPSHOT_MAGIC.len())?, file.u32()?);
    if magic != SNAPSHOT_MAGIC || crc32(file.0) != crc {
        return None;
    }
    let snap = read_snapshot(file.0)?;
    (snap.journal.offset != 0).then_some(snap)
}

/// Atomic checkpoint write: temp file, fsync, rename over the old
/// checkpoint, best-effort directory sync. A crash at any point leaves
/// either the old checkpoint or the new one — never a torn mix. The
/// file — magic, CRC-32 of the body, JSON body — is built in `buf`
/// (cleared first, capacity kept between checkpoints; the body written
/// straight into it by the snapshot module's codec) and written in one
/// call.
fn write_checkpoint(
    path: &Path,
    snap: &SentrySnapshot,
    buf: &mut Vec<u8>,
) -> Result<(), JournalError> {
    let body_at = SNAPSHOT_MAGIC.len() + 4;
    buf.clear();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&[0u8; 4]);
    put_snapshot(snap, buf);
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

    fn tiny_engine(seed: u64) -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), seed);
        CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        )
    }

    fn engine() -> CsdInferenceEngine {
        tiny_engine(9)
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

    /// Writes `body` as the checkpoint file at `path`, framed the way
    /// [`write_checkpoint`] frames one: magic, CRC-32 of the body, body.
    fn write_body(path: &Path, body: &[u8]) {
        let file = [SNAPSHOT_MAGIC.as_slice(), &crc32(body).to_le_bytes(), body].concat();
        fs::write(path, file).unwrap();
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
    type Key = (u64, u32, Option<String>, usize, String);

    fn keys(sentry: &Sentry) -> Vec<Key> {
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

    /// `workload(4, 30)` through a durable sentry under `dir` that
    /// checkpoints every 40 events, on the service loop's cadence,
    /// drained and shut down: the directory the checkpoint-framing tests
    /// below tamper with. Returns its config, its events and the
    /// uninterrupted run's incidents.
    fn checkpointed_run(dir: &Path) -> (DurableConfig, Vec<ProcessEvent>, Vec<Key>) {
        let events = workload(4, 30);
        let mut durable = DurableConfig::new(dir);
        durable.checkpoint_every_events = 40;
        let mut d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
        for e in &events {
            d.ingest(e).unwrap();
            if d.sentry().events().is_multiple_of(16) {
                d.poll().unwrap();
            }
        }
        d.drain().unwrap();
        let expect = keys(&Sentry::uninterrupted(engine(), config(), &events, 16));
        (durable, events, expect)
    }

    /// An anchor that does not hold — stale, of another history, or
    /// simply wrong — costs a full scan and its checkpoint, never data:
    /// the journal is not cut by a byte, every incident is adopted from
    /// it, and the report says why. So does a checkpoint with no anchor,
    /// or one missing a field: it is invalid.
    #[test]
    fn an_anchor_that_does_not_hold_costs_a_full_scan_not_data() {
        use AnchorRefused::{BoundaryMismatch, BrokenLink, JournalShort};
        let dir = tmpdir("bad-anchor");
        // A clean shutdown: nothing torn, nothing left to raise.
        let (durable, events, expect) = checkpointed_run(&dir);
        let journal = fs::read(dir.join("journal.log")).unwrap();
        let ckpt = dir.join("checkpoint.snap");
        let CheckpointRead::Valid(good) = read_checkpoint(&ckpt) else {
            panic!("the run left a checkpoint");
        };
        assert!(good.journal.incidents > 0 && good.journal.offset < journal.len() as u64);

        // Another history's checkpoint: same workload shape, shorter
        // names, so its anchor lands inside this journal.
        let other_dir = tmpdir("bad-anchor-other");
        let mut other_durable = DurableConfig::new(&other_dir);
        other_durable.checkpoint_every_events = 40;
        let mut other = DurableSentry::open(engine(), config(), other_durable).unwrap();
        for e in &events {
            let mut e = e.clone();
            if let crate::event::EventKind::Spawn(name) = &mut e.kind {
                name.truncate(1);
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
            (anchored(&|j| j.digest = 0), BrokenLink),
            (anchored(&|j| j.digest_len += 1), BrokenLink),
            ((*foreign).clone(), BoundaryMismatch),
        ];
        let mut buf = Vec::new();
        for (snap, why) in &cases {
            write_checkpoint(&ckpt, snap, &mut buf).unwrap();
            let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
            let report = d.recovery();
            assert_eq!(report.full_scan, Some(FullScan::AnchorRefused(*why)));
            assert!(report.checkpoint_discarded());
            assert_eq!(report.checkpoint_events, 0);
            assert_eq!(report.replayed_events, events.len() as u64);
            assert_eq!(report.journal_bytes_scanned, journal.len() as u64);
            assert_eq!(report.journal_reads, 1, "the magic, then the scan");
            assert_eq!(report.journal_bytes_truncated, 0);
            assert_eq!(keys(d.sentry()), expect, "{why:?}");
            drop(d);
            assert_eq!(
                fs::read(dir.join("journal.log")).unwrap(),
                journal,
                "{why:?}"
            );
        }

        // No anchor at all, and no `journal` field at all: invalid, so
        // discarded, and the whole journal replayed.
        let anchorless = anchored(&|j| *j = JournalAnchor::default());
        let whole = serde_json::to_string(&*good).unwrap();
        let cut = whole.rfind(r#","journal":"#).unwrap();
        for body in [
            serde_json::to_string(&anchorless).unwrap(),
            format!("{}}}", &whole[..cut]),
        ] {
            write_body(&ckpt, body.as_bytes());
            assert!(matches!(read_checkpoint(&ckpt), CheckpointRead::Invalid));
            let d = DurableSentry::open(engine(), config(), durable.clone()).unwrap();
            let report = d.recovery();
            assert_eq!(report.full_scan, Some(FullScan::CheckpointInvalid));
            assert!(report.checkpoint_discarded());
            assert_eq!(report.checkpoint_events, 0);
            assert_eq!(report.replayed_events, events.len() as u64);
            assert_eq!(report.journal_bytes_scanned, journal.len() as u64);
            assert_eq!(keys(d.sentry()), expect);
            drop(d);
            assert_eq!(fs::read(dir.join("journal.log")).unwrap(), journal);
        }

        // And the anchor as it was written: the same place, by reading
        // the tail and the digests only — one read a checkpoint, the
        // boundary's included, and the magic.
        write_checkpoint(&ckpt, &good, &mut buf).unwrap();
        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        let report = d.recovery();
        assert_eq!(report.full_scan, None);
        assert_eq!(report.chained_incidents, a.incidents);
        assert!(
            (2..=good.events / 40 + 2).contains(&report.journal_reads),
            "{report:?}"
        );
        assert_eq!(report.replayed_events, events.len() as u64 - good.events);
        assert!(report.journal_bytes_scanned < journal.len() as u64);
        assert_eq!(keys(d.sentry()), expect);
        drop(d);
        assert_eq!(fs::read(dir.join("journal.log")).unwrap(), journal);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other_dir);
    }

    /// Every file in `dir`, by name, byte for byte.
    fn contents(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|f| {
                let f = f.unwrap();
                (f.file_name(), fs::read(f.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// A sentry over `other` under `other_config` is refused the
    /// directory [`checkpointed_run`] leaves, with both ids and before a
    /// byte of it changes; so is a directory holding either of its files
    /// alone.
    fn assert_foreign(tag: &str, other: CsdInferenceEngine, other_config: SentryConfig) {
        let dir = tmpdir(tag);
        checkpointed_run(&dir);
        let found = StateId::of(&engine(), &config());
        let expected = StateId::of(&other, &other_config);
        assert_ne!(found, expected);
        let alone = tmpdir(&format!("{tag}-alone"));
        for keep in [None, Some("journal.log"), Some("checkpoint.snap")] {
            let at = match keep {
                None => &dir,
                Some(file) => {
                    let _ = fs::remove_dir_all(&alone);
                    fs::create_dir_all(&alone).unwrap();
                    fs::copy(dir.join(file), alone.join(file)).unwrap();
                    &alone
                }
            };
            let before = contents(at);
            let opened =
                DurableSentry::open(other.clone(), other_config.clone(), DurableConfig::new(at));
            assert!(
                matches!(opened, Err(JournalError::ForeignState { found: f, expected: e })
                    if (f, e) == (found, expected)),
                "{keep:?}: {:?}",
                opened.map(|d| d.recovery().clone())
            );
            assert_eq!(contents(at), before, "{keep:?}: refused untouched");
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&alone);
    }

    /// A retrained model does not reopen the state the old one wrote: run
    /// on, it would fold its verdicts into the old model's vote rings.
    #[test]
    fn a_reopen_under_a_retrained_model_is_refused_untouched() {
        assert_foreign("retrained", tiny_engine(77), config());
    }

    /// Nor does another window, stride or vote rule: the checkpoint's
    /// window cursors and vote rings are the old config's.
    #[test]
    fn a_reopen_under_another_detection_config_is_refused_untouched() {
        let other = SentryConfig {
            window_len: 12,
            stride: 6,
            votes_needed: 2,
            vote_horizon: 3,
            ..config()
        };
        assert_foreign("reconfigured", engine(), other);
    }

    /// The mux's shards change no verdict and are no part of the state's
    /// identity: a reopen with another shard count starts at the
    /// checkpoint's anchor and reaches the uninterrupted run's incidents.
    #[test]
    fn a_reopen_with_other_shards_opens_from_the_anchor() {
        let dir = tmpdir("shards");
        let (durable, _, expect) = checkpointed_run(&dir);
        let mut sharded = config();
        sharded.mux.shards = Some(2);
        let d = DurableSentry::open(engine(), sharded, durable).unwrap();
        assert_eq!(d.recovery().full_scan, None);
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

    /// With a sync's worth of credit banked nothing is held at all, and
    /// with the last poll's budget unspent no window waits for the next
    /// poll: the ingest of the deciding call raises the first incident,
    /// syncs for it and hands it back, with no batch full and no
    /// deadline passed.
    #[test]
    fn an_incident_with_credit_comes_back_from_the_call_that_raised_it() {
        let dir = tmpdir("credit");
        let events = workload(6, 40);
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0;
        durable.journal.sync_every = 64;
        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        for e in &events {
            let (banked, syncs) = (d.journal().has_sync_credit(), d.journal().syncs());
            let back = d.ingest(e).unwrap();
            let raised = d.sentry().incidents().len();
            if raised == 0 {
                assert!(back.is_empty());
                if d.sentry().events().is_multiple_of(16) {
                    assert!(d.poll().unwrap().is_empty(), "no window waits for it");
                }
                continue;
            }
            assert!(
                d.sentry().events() > 16,
                "a poll came before the first window"
            );
            assert!(banked, "a quarter of a batch came before the first window");
            assert_eq!(back.len(), raised, "back from the call that raised them");
            let session = d.sentry().sessions().session(back[0].sid).unwrap();
            assert_eq!(
                back[0].alert.at_call as u64,
                session.calls_seen(),
                "its last call"
            );
            assert_eq!(d.journal().durable_incidents(), raised as u64);
            assert_eq!(d.journal().pending_incidents(), 0);
            assert_eq!(d.journal().syncs(), syncs + 1, "one sync, the ingest's");
            let _ = fs::remove_dir_all(&dir);
            return;
        }
        panic!("the workload raises incidents");
    }

    /// The default journal banks four syncs and a full event-only batch
    /// spends one of them, so the three incidents raised next each sync
    /// at once: each comes back from the call that raised it, with no
    /// second batch and no deadline in between.
    #[test]
    fn after_a_full_event_only_batch_three_incidents_come_back_from_their_calls() {
        let dir = tmpdir("bank");
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0;
        let batch = durable.journal.sync_every as u64;
        let mut d = DurableSentry::open(engine(), config(), durable).unwrap();
        // Processes that spawn and exit without a call raise nothing.
        for t in 0..batch {
            let pid = 1_000 + (t / 2) as u32;
            let e = if t % 2 == 0 {
                ProcessEvent::spawn(t, pid, "idle.exe")
            } else {
                ProcessEvent::exit(t, pid)
            };
            assert!(d.ingest(&e).unwrap().is_empty());
        }
        assert_eq!(d.journal().syncs(), 1, "the batch's sync alone");
        assert_eq!(d.journal().durable_events(), batch);
        // The events at which an incident was raised.
        let mut calls = Vec::new();
        for (i, mut e) in workload(6, 40).into_iter().enumerate() {
            e.t_us += batch;
            let before = d.sentry().incidents().len();
            let mut back = d.ingest(&e).unwrap();
            if d.sentry().events().is_multiple_of(16) {
                back.extend(d.poll().unwrap());
            }
            let raised = d.sentry().incidents().len() - before;
            assert_eq!(back.len(), raised, "back from the call that raised them");
            assert_eq!(d.journal().pending_incidents(), 0);
            if raised > 0 {
                calls.push(i as u64);
                assert_eq!(
                    d.journal().syncs(),
                    1 + calls.len() as u64,
                    "one sync a call"
                );
            }
            if calls.len() == 3 {
                assert!(
                    calls[2] - calls[0] < batch / 4,
                    "the events between them pay for no sync: the bank does"
                );
                let _ = fs::remove_dir_all(&dir);
                return;
            }
        }
        panic!("the workload raises three incidents");
    }

    /// Replay serves no window, though the live run served each at its
    /// last call: `open` folds no verdict, and the windows replay queues
    /// wait for the first poll, which serves them all.
    #[test]
    fn replay_folds_no_verdict_and_the_first_poll_serves_what_it_queued() {
        let dir = tmpdir("replay-queues");
        let cfg = SentryConfig {
            votes_needed: 3,
            vote_horizon: 3,
            ..config()
        };
        let events = workload(4, 30);
        let mut durable = DurableConfig::new(&dir);
        durable.checkpoint_every_events = 0;
        let mut d = DurableSentry::open(engine(), cfg.clone(), durable.clone()).unwrap();
        for (i, e) in events.iter().enumerate() {
            d.ingest(e).unwrap();
            if d.sentry().events().is_multiple_of(16) {
                d.poll().unwrap();
            }
            if i + 1 == 60 {
                d.checkpoint().unwrap();
            }
        }
        assert_eq!(d.sentry().staleness(), 0, "the live run kept up");
        drop(d);
        let CheckpointRead::Valid(snap) = read_checkpoint(&dir.join("checkpoint.snap")) else {
            panic!("the run left a checkpoint");
        };

        let mut d = DurableSentry::open(engine(), cfg, durable).unwrap();
        assert_eq!(d.recovery().replayed_events, events.len() as u64 - 60);
        let opened = d.sentry().stats();
        assert_eq!(
            opened.verdicts_folded, snap.verdicts_folded,
            "replay folds none"
        );
        assert_eq!(opened.mux.verdicts, 0);
        assert!(d.sentry().staleness() > 0, "replay queued windows");
        d.poll().unwrap();
        let polled = d.sentry().stats();
        assert!(polled.verdicts_folded > snap.verdicts_folded);
        assert_eq!(polled.mux.ticks, 1, "one poll served them");
        assert_eq!(d.sentry().staleness(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint that still carries ended sessions — a snapshot
    /// taken before the drain that would retire them — loads, and they
    /// retire on the way in: the restored sentry tracks only the live
    /// session and holds the state of the run that never stopped.
    #[test]
    fn checkpoint_with_dead_sessions_loads_and_is_pruned() {
        let dir = tmpdir("dead-sessions");
        fs::create_dir_all(&dir).unwrap();
        // Three processes, ten calls each: the third's window is served
        // first, then the other two call, one of them out of
        // vocabulary, and exit with their windows still queued. A drain
        // serves it: this sentry has never polled, so no budget is left
        // over to serve the other two's windows at their last calls.
        let call = |round: usize, pid: u32| (round * 7 + pid as usize * 3) % VOCAB;
        let mut events = Vec::new();
        let mut t = 0u64;
        for pid in 100..103u32 {
            t += 1;
            events.push(ProcessEvent::spawn(t, pid, "w.exe"));
        }
        for round in 0..10usize {
            t += 1;
            events.push(ProcessEvent::api(t, 102, call(round, 102)));
        }
        let served = events.len();
        for round in 0..10usize {
            for pid in 100..102u32 {
                t += 1;
                events.push(ProcessEvent::api(t, pid, call(round, pid)));
            }
        }
        t += 1;
        events.push(ProcessEvent::api(t, 100, 99));
        for pid in 100..102u32 {
            t += 1;
            events.push(ProcessEvent::exit(t, pid));
        }
        let mut live = Sentry::new(engine(), config());
        let state = StateId::of(&engine(), &config());
        let (mut journal, _) =
            Journal::open_as(&dir.join("journal.log"), JournalConfig::default(), state).unwrap();
        for e in &events[..served] {
            live.ingest(e);
            journal.append_event(e).unwrap();
        }
        for incident in &live.drain() {
            journal.append_incident(incident).unwrap();
        }
        for e in &events[served..] {
            live.ingest(e);
            journal.append_event(e).unwrap();
        }
        let snap = SentrySnapshot {
            journal: journal.checkpoint().unwrap(),
            ..live.snapshot()
        };
        drop(journal);
        assert_eq!(snap.table.sessions.len(), 3, "two of them ended");
        write_checkpoint(&dir.join("checkpoint.snap"), &snap, &mut Vec::new()).unwrap();
        live.drain();
        assert_eq!(live.incidents().len(), 1);

        let mut d = DurableSentry::open(engine(), config(), DurableConfig::new(&dir)).unwrap();
        assert_eq!(d.recovery().full_scan, None, "the checkpoint loads");
        assert_eq!(d.recovery().checkpoint_events, 36);
        assert_eq!(d.recovery().replayed_events, 0);
        assert_eq!(d.recovery().adopted_incidents, 1);
        let sentry = d.sentry();
        assert_eq!(sentry.sessions().tracked(), 1, "the two dead sessions go");
        assert!(sentry.sessions().session(3).unwrap().is_killed());
        assert_eq!(sentry.sessions().retired_calls(), 21);
        assert_eq!(sentry.sessions().retired_oov(), 1);
        // Same state as the run that never stopped, field for field (the
        // mux's counters restart with the process), but for the windows
        // the two dead sessions had queued: a snapshot does not carry
        // the mux, so the live run folds their verdicts and the
        // restored one never sees them.
        let in_flight: u64 = snap
            .table
            .sessions
            .iter()
            .map(|s| s.submitted as u64 - u64::from(s.verdicts))
            .sum();
        assert_eq!(in_flight, 2);
        let (got, mut want) = (sentry.stats(), live.stats());
        assert_eq!(got.verdicts_folded + in_flight, want.verdicts_folded);
        (want.mux, want.verdicts_folded) = (got.mux, got.verdicts_folded);
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        let mut want = live.snapshot();
        want.verdicts_folded -= in_flight;
        assert_eq!(sentry.snapshot(), want);
        // The killed session still drops its stragglers.
        d.ingest(&ProcessEvent::api(t + 1, 102, 1)).unwrap();
        assert_eq!(d.sentry().stats().dropped_after_kill, 1);
        // And the next checkpoint is written without the dead.
        d.checkpoint().unwrap();
        let CheckpointRead::Valid(rewritten) = read_checkpoint(&dir.join("checkpoint.snap")) else {
            panic!("the checkpoint was written");
        };
        assert_eq!(rewritten.table.sessions.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `checkpoint.snap` as [`the_checkpoint_on_disk_is_the_golden_bytes`]
    /// writes it — magic, CRC-32 of the body, JSON body — pinned, so a
    /// directory an earlier build of the format wrote opens unchanged,
    /// and a serializer change that moves a byte fails here.
    const GOLDEN_CHECKPOINT_CRC: u32 = 0x2f91_d437;
    const GOLDEN_CHECKPOINT: &str = concat!(
        r#"{"state":12187428905404245240,"events":38,"verdicts_folded":3,"#,
        r#""whitelist_exact":["svc.exe"],"whitelist_prefixes":["C:\\Windows\\"],"#,
        r#""table":{"next_sid":5,"clock":38,"started":4,"ended":1,"#,
        r#""dropped_after_kill":0,"stray_exits":0,"oov_total":0,"retired_calls":11,"#,
        r#""retired_oov":0,"by_pid":[[7,4],[101,2],[102,3]],"sessions":[{"sid":2,"#,
        r#""pid":101,"name":"w.exe","buf":[6,13,4,11,2,9,0],"base":4,"calls_seen":11,"#,
        r#""oov":0,"killed":false,"ended":0,"started_at":2,"last_event":35,"#,
        r#""submitted":1,"ring":0,"verdicts":1,"latched":false,"shed":false},"#,
        r#"{"sid":3,"pid":102,"name":"w.exe","buf":[9,0,7,14,5,12,3],"base":4,"#,
        r#""calls_seen":11,"oov":0,"killed":false,"ended":0,"started_at":3,"#,
        r#""last_event":36,"submitted":1,"ring":0,"verdicts":1,"latched":false,"#,
        r#""shed":false},{"sid":4,"pid":7,"name":null,"buf":[3],"base":0,"#,
        r#""calls_seen":1,"oov":0,"killed":false,"ended":0,"started_at":38,"#,
        r#""last_event":38,"submitted":0,"ring":0,"verdicts":0,"latched":false,"#,
        r#""shed":false}]},"last_t_us":[[7,1000],[100,37],[101,35],[102,36]],"#,
        r#""dup_events":0,"shed_sessions":0,"journal":{"offset":1155,"incidents":1,"#,
        r#""last_record":1074,"digest":1074,"digest_len":73}}"#,
    );

    /// The checkpoint the golden run wrote in the format's first
    /// generation, version 1, byte for byte: a stream list beside the
    /// sessions, and the table's copies of the vocabulary and the idle
    /// timeout.
    const V1_CHECKPOINT_CRC: u32 = 0x6cb9_7139;
    const V1_CHECKPOINT: &str = concat!(
        r#"{"version":1,"events":38,"verdicts_folded":3,"#,
        r#""whitelist_exact":["svc.exe"],"whitelist_prefixes":["C:\\Windows\\"],"#,
        r#""table":{"vocab":16,"idle_timeout_events":null,"next_sid":5,"clock":38,"#,
        r#""started":4,"ended":1,"dropped_after_kill":0,"stray_exits":0,"#,
        r#""oov_total":0,"retired_calls":11,"retired_oov":0,"by_pid":[[7,4],"#,
        r#"[101,2],[102,3]],"sessions":[{"sid":2,"pid":101,"name":"w.exe","#,
        r#""buf":[6,13,4,11,2,9,0],"base":4,"calls_seen":11,"oov":0,"killed":false,"#,
        r#""ended":0,"started_at":2,"last_event":35},{"sid":3,"pid":102,"#,
        r#""name":"w.exe","buf":[9,0,7,14,5,12,3],"base":4,"calls_seen":11,"oov":0,"#,
        r#""killed":false,"ended":0,"started_at":3,"last_event":36},{"sid":4,"#,
        r#""pid":7,"name":null,"buf":[3],"base":0,"calls_seen":1,"oov":0,"#,
        r#""killed":false,"ended":0,"started_at":38,"last_event":38}]},"#,
        r#""streams":[{"sid":2,"submitted":1,"ring":0,"verdicts":1,"latched":false,"#,
        r#""shed":false},{"sid":3,"submitted":1,"ring":0,"verdicts":1,"#,
        r#""latched":false,"shed":false},{"sid":4,"submitted":0,"ring":0,"#,
        r#""verdicts":0,"latched":false,"shed":false}],"last_t_us":[[7,1000],"#,
        r#"[100,37],[101,35],[102,36]],"dup_events":0,"shed_log":[],"#,
        r#""journal":{"offset":1131,"incidents":1,"last_record":1058,"digest":1058,"#,
        r#""digest_len":65}}"#,
    );

    /// The golden run: a small seeded run into `dir` that ends with a
    /// checkpoint. Returns its config and its events.
    fn golden_run(dir: &Path) -> (SentryConfig, Vec<ProcessEvent>) {
        let mut cfg = config();
        cfg.dedup_monotone_ts = true;
        let mut d = DurableSentry::open(engine(), cfg.clone(), DurableConfig::new(dir)).unwrap();
        d.sentry_mut().whitelist_mut().add("svc.exe");
        d.sentry_mut().whitelist_mut().add_prefix("C:\\Windows\\");
        // Three sessions, one of them exited and retired, and one with
        // no spawn and so no name.
        let mut events = workload(3, 12);
        events.truncate(events.len() - 2);
        events.push(ProcessEvent::api(1000, 7, 3));
        for e in &events {
            d.ingest(e).unwrap();
        }
        d.checkpoint().unwrap();
        (cfg, events)
    }

    /// The twin of the journal's golden-bytes test: a small seeded run
    /// writes these bytes, and a directory holding them opens from the
    /// anchor they carry.
    #[test]
    fn the_checkpoint_on_disk_is_the_golden_bytes() {
        let dir = tmpdir("golden");
        let (cfg, events) = golden_run(&dir);
        let file = fs::read(dir.join("checkpoint.snap")).unwrap();
        let (head, body) = file.split_at(SNAPSHOT_MAGIC.len() + 4);
        let crc = GOLDEN_CHECKPOINT_CRC.to_le_bytes();
        assert_eq!(head, [SNAPSHOT_MAGIC.as_slice(), &crc].concat());
        assert_eq!(std::str::from_utf8(body).unwrap(), GOLDEN_CHECKPOINT);

        let d = DurableSentry::open(engine(), cfg, DurableConfig::new(&dir)).unwrap();
        let report = d.recovery();
        assert_eq!(report.full_scan, None);
        assert_eq!(report.checkpoint_events, events.len() as u64);
        assert_eq!(report.replayed_events, 0);
        assert_eq!(report.adopted_incidents, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint of the previous generation is invalid, never misread
    /// into this one: `open` replays the whole journal and reaches the
    /// incidents of the run that never stopped.
    #[test]
    fn a_version_one_checkpoint_is_invalid_and_the_journal_replays() {
        let dir = tmpdir("version-one");
        let (cfg, events) = golden_run(&dir);
        assert_eq!(crc32(V1_CHECKPOINT.as_bytes()), V1_CHECKPOINT_CRC);
        let ckpt = dir.join("checkpoint.snap");
        write_body(&ckpt, V1_CHECKPOINT.as_bytes());
        assert!(matches!(read_checkpoint(&ckpt), CheckpointRead::Invalid));
        let d = DurableSentry::open(engine(), cfg, DurableConfig::new(&dir)).unwrap();
        let report = d.recovery();
        assert_eq!(report.full_scan, Some(FullScan::CheckpointInvalid));
        assert!(report.checkpoint_discarded());
        assert_eq!(report.replayed_events, events.len() as u64);
        assert_eq!(report.adopted_incidents, 1);
        assert_eq!(
            keys(d.sentry()),
            keys(&Sentry::uninterrupted(engine(), config(), &events, 16))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Nesting a parser cannot hold on its stack, in a checkpoint whose
    /// CRC is good, is an invalid checkpoint and not a crash: `open`
    /// scans the whole journal and reaches the same incidents.
    #[test]
    fn a_deeply_nested_checkpoint_is_invalid_not_a_crash() {
        let dir = tmpdir("deep-nesting");
        let (durable, events, expect) = checkpointed_run(&dir);
        let ckpt = dir.join("checkpoint.snap");
        write_body(&ckpt, &[b'['; 100_000]);
        assert!(matches!(read_checkpoint(&ckpt), CheckpointRead::Invalid));
        let d = DurableSentry::open(engine(), config(), durable).unwrap();
        assert_eq!(d.recovery().full_scan, Some(FullScan::CheckpointInvalid));
        assert_eq!(d.recovery().replayed_events, events.len() as u64);
        assert_eq!(keys(d.sentry()), expect);
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
}
