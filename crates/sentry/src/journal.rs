//! The durable incident/event journal: what survives a host crash.
//!
//! PR 4 made *device* failure a first-class scenario — faults delay
//! verdicts, never lose or change them. This module extends that
//! contract up through the host service layer: every ingested
//! [`ProcessEvent`] and every latched [`Incident`] is appended to a
//! single append-only journal file, so a crashed or killed sentry can
//! be rebuilt to the exact state an uninterrupted run would have
//! reached (see [`durable`](crate::durable) for the replay half).
//!
//! # Record format
//!
//! The file opens with a 16-byte head — the magic [`JOURNAL_MAGIC`],
//! then the [`StateId`] of the sentry that writes it, u64 little-endian,
//! read in one read — and then holds back-to-back records, each framed
//! with the same discipline as the socket protocol in
//! [`event`](crate::event):
//!
//! ```text
//! ┌────────────┬─────────────┬───────┬──────────────────────┐
//! │ len u32 LE │ crc32 u32 LE│ rtype │ body (len-1 bytes)   │
//! └────────────┴─────────────┴───────┴──────────────────────┘
//!   rtype 0 = Event    (body: the wire payload of the event)
//!   rtype 1 = Incident (body: the fixed layout below)
//!   rtype 2 = Digest   (body: a link, a count and incident bodies)
//! ```
//!
//! `len` counts `rtype + body`; the CRC-32 (IEEE, computed eight bytes
//! a step) covers the same bytes. A record is *valid* iff its length
//! fits the remaining file, is within [`MAX_RECORD_LEN`], its CRC
//! matches, and its body decodes.
//!
//! An incident body is little-endian and fixed up to its two strings:
//!
//! ```text
//!   offset  bytes  field
//!        0      8  sid           u64
//!        8      4  pid           u32
//!       12      8  at_call       u64
//!       20      8  probability   f64 bits
//!       28      8  inference_us  f64 bits
//!       36      1  action        0 Logged · 1 Killed · 2 Quarantined · 3 Suppressed
//!       37      1  post_exit     0 · 1
//!       38      1  outcome       0 NotAttempted · 1 Applied · 2 Failed
//!       39      8  calls_seen    u64: an Applied outcome's kill point, 0 otherwise
//!       47  2 + n  name          u16 length n + UTF-8; length 0xFFFF = no name
//!        …  2 + m  outcome text  u16 length m + UTF-8; empty for NotAttempted
//! ```
//!
//! Floats travel as their bits, so a NaN or an infinity is journaled
//! like any other value. A string longer than its length field allows
//! (65,534 bytes for a name, 65,535 for an outcome text) is cut at a
//! character boundary; nothing else about an incident can fail to
//! encode. The decoder is the encoder's inverse and nothing more: a
//! short field, a length past the body, an unknown tag, invalid UTF-8
//! or a byte left over refuses the record. It allocates only the two
//! strings, whose lengths the body's own bytes bound. An event record
//! is decoded by the wire decoder on the same terms, with the same
//! field reader and string writer, so the two cannot disagree.
//!
//! An **incident digest** is what a checkpoint leaves behind
//! ([`Journal::checkpoint`]): the bodies of every incident framed since
//! the previous digest, back to back, behind a link to that digest.
//!
//! ```text
//!   offset  bytes  field
//!        0      8  prev      u64: file offset of the previous digest, 0 = none
//!        8      4  prev_len  u32: its length field, 0 = none
//!       12      4  count     u32: incident bodies that follow, at least 1
//!       16      …  count incident bodies, each the layout above
//! ```
//!
//! A digest that would pass [`MAX_RECORD_LEN`] is split into several,
//! each linked to the one before, so the digests form one chain through
//! the file, newest to oldest, and a reader that knows where the newest
//! one sits reaches every incident before it with one read a digest.
//! The link carries the record's length, so that read is exactly the
//! record. A digest decodes like an incident body: the link is none or
//! both fields are set, the count is at least one, every body decodes,
//! and no byte is left over. Incident records carry no link of their
//! own.
//!
//! The magic is fixed for good. Which format the records are in is part
//! of the head's [`StateId`], with the model and the detection config,
//! so a change of format changes the id, not the magic, and a file
//! another format, model or config wrote is refused whole by
//! [`DurableSentry::open`](crate::DurableSentry::open). A file with an
//! earlier magic is refused like any other file that is not a journal.
//!
//! Recovery decodes one incident body per incident ever raised and
//! replays every tail event through the sessions, so neither the body
//! nor the per-event bookkeeping may cost more than the data asks. The
//! session-id-keyed maps on that path (the session table's and the
//! sentry's stream records) hash with an in-tree multiply-rotate
//! hasher (`session::SidHasher`): the table issues
//! session ids, one after another, so no producer can choose keys that
//! collide. Maps keyed by PID keep the standard library's randomly
//! seeded SipHash, because a producer does choose its PIDs.
//!
//! # Durability model
//!
//! Appends are framed in place in one user-space buffer and reach the
//! file — one `write` plus one `fdatasync` — at *sync points*: every
//! [`sync_every`](JournalConfig::sync_every) event records, at every
//! explicit [`sync`](Journal::sync), [`checkpoint`](Journal::checkpoint)
//! or [`append_incident`](Journal::append_incident) call, and on clean
//! shutdown (drop). A sync writes the whole pending tail, events and
//! incidents alike, so an incident framed into the tail without a
//! sync of its own becomes durable with whatever sync comes next. A
//! digest rides its checkpoint's sync the same way.
//!
//! The journal also keeps the disk's sync budget, its *credit*: each
//! framed event adds one event of credit, up to `sync_every`, and every
//! sync — batch, commit, deadline or checkpoint — spends
//! `sync_every / 4` (at least one event), which may leave it negative.
//! The serving path journals incidents against it: the
//! [`durable`](crate::durable) layer above frames each one without a
//! sync, syncs for it at once while the credit covers a sync
//! (`has_sync_credit`), and otherwise holds it back until
//! [`Journal::pending_incidents`] says it is on disk — after the
//! batch's sync, the one the credit pays for once enough events have
//! come, or the one its commit deadline forces. So incidents are
//! synced first and the budget still averages one sync per
//! `sync_every / 4` events. The credit banks four syncs and a full
//! event-only batch spends one of them, so the three incidents after
//! that batch still sync at once. A crash loses at most
//! `sync_every − 1` trailing event records and the incident records
//! framed among them plus, if the crash interrupts a flush, a torn
//! partial record at the tail.
//!
//! A record's file offset is fixed when it is framed — the synced
//! length plus its position in the pending buffer — and a sync that
//! fails keeps both, so the retry writes every record where its links
//! say it is.
//!
//! # Torn-tail recovery
//!
//! [`Journal::open`] scans the existing file record by record and
//! truncates at the first invalid one — a torn length prefix, a length
//! past the file end, a CRC mismatch, or an undecodable body all end
//! the valid prefix. It is `Journal::open_at` from the anchor every
//! journal has, at the end of the head (see below); only a file
//! shorter than the head takes a branch of its own. Everything before it is returned for replay;
//! everything after is counted in
//! [`JournalRecovery::bytes_truncated`] and physically removed, so the
//! next append extends a clean tail. This is the longest-valid-prefix
//! contract the torn-tail proptest pins: arbitrary truncation or byte
//! corruption of the tail never loses a record that was fully synced
//! before it. The scan checks digests and adopts nothing from them:
//! their incidents are the file's own incident records.
//!
//! # Opening at an anchor
//!
//! The full scan costs time and memory in proportion to everything ever
//! journaled. A checkpoint records where its journal sync left the file
//! — a [`JournalAnchor`], returned by [`Journal::checkpoint`] — and
//! `Journal::open_at` starts there. It reads back the record that
//! ends at the anchor to see that the file still frames to it; walks
//! the digest chain from the anchor's newest digest, one positional
//! read and one CRC check a digest (when the newest digest is the
//! record at the anchor, as it is whenever the checkpoint had incidents
//! to digest, that read is the boundary's); and then scans and, if
//! torn, truncates only the bytes past the anchor, exactly as the full
//! scan would. Event records before the anchor are not read at all, nor
//! is an incident record: [`JournalRecovery::reads`] is the head, the
//! boundary and one per digest behind it, whatever the number of
//! incidents.
//!
//! The anchor is a hint about a file, never a source of data: whatever
//! it claims is checked against the bytes, and one that does not hold
//! is refused with an [`AnchorRefused`] — before anything was truncated
//! — so the caller can fall back to the full scan. That scan — the
//! same path from the head's anchor — stays the only way in
//! without a checkpoint and the reference an anchor is tested against.
//!
//! Two rules keep the chain equal to the anchor's count. Incidents
//! recovered from records past the anchor — the whole file, for a full
//! scan — and incidents framed after `open` belong to no digest the
//! anchor reaches, so every `open` seeds the journal's *undigested*
//! list with the recovered ones and the next checkpoint's digest
//! carries them forward; after a full scan the chain starts again. And
//! a digest past the anchor — written by a checkpoint whose file never
//! landed — is neither adopted from nor linked to: the next digest
//! links to the anchor's.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::actions::{ActionOutcome, ActionTaken, Incident};
use crate::codec::{crc32, put_str, Fields};
use crate::durable::StateId;
use crate::event::{decode_payload, encode_payload, ProcessEvent};
use csd_accel::Alert;

/// Magic bytes opening every journal file. Fixed for good: the
/// format's version is part of the [`StateId`] that follows it.
pub const JOURNAL_MAGIC: &[u8; 8] = b"CSDJRNL5";

/// Bytes of a journal's head: [`JOURNAL_MAGIC`] and the [`StateId`].
const HEAD_LEN: usize = JOURNAL_MAGIC.len() + 8;

/// Upper bound on one record's `rtype + body` length: the largest
/// record there can be, a digest of one incident whose name and outcome
/// text are both as long as their length fields allow (131,129 bytes).
/// A torn or hostile length prefix beyond it ends the valid prefix.
pub const MAX_RECORD_LEN: usize = 1 + DIGEST_HEAD_LEN + MAX_INCIDENT_BODY;

/// Bytes of a record before its `rtype`: length and CRC.
const HEADER_LEN: usize = 8;

/// Record types (the `rtype` byte).
const EVENT: u8 = 0;
const INCIDENT: u8 = 1;
const DIGEST: u8 = 2;

/// Bytes of an incident body before its two strings (see the
/// [module docs](self#record-format)).
const INCIDENT_FIXED_LEN: usize = 8 + 4 + 8 + 8 + 8 + 3 + 8;

/// The longest incident body there is.
const MAX_INCIDENT_BODY: usize = INCIDENT_FIXED_LEN + 2 + MAX_NAME_LEN + 2 + MAX_TEXT_LEN;

/// Bytes of a digest body before its incident bodies: the link to the
/// previous digest (offset and length) and the count.
const DIGEST_HEAD_LEN: usize = 8 + 4 + 4;

/// An incident body's name length that stands for "no name".
const NO_NAME: u16 = u16::MAX;

/// The longest name and outcome text an incident body holds, in bytes.
const MAX_NAME_LEN: usize = NO_NAME as usize - 1;
const MAX_TEXT_LEN: usize = u16::MAX as usize;

/// Why a journal operation failed. Torn tails are *not* errors — open
/// recovers them — so everything here is an environmental failure.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file exists but does not start with [`JOURNAL_MAGIC`] — it
    /// is not a journal, and truncating it would destroy someone
    /// else's data.
    BadMagic,
    /// The durable directory holds the state of another format, model
    /// or detection config: a file names `found`, and the sentry being
    /// opened is `expected`. Nothing was truncated or adopted: the
    /// directory is left as it was, for the sentry that wrote it.
    ForeignState {
        /// The [`StateId`] a state file names.
        found: StateId,
        /// The [`StateId`] of the sentry being opened.
        expected: StateId,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::BadMagic => write!(f, "file is not a csd-sentry journal"),
            JournalError::ForeignState { found, expected } => write!(
                f,
                "durable state {:016x} was written under another model or config \
                 (this sentry's is {:016x})",
                found.0, expected.0
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Where a checkpoint's sync left the journal file: what the checkpoint
/// records so the next `open_at` can start there.
/// All of it describes *synced* bytes; 0 stands for "none". An anchor
/// whose `offset` is 0 — the default, which
/// [`Sentry::snapshot`](crate::Sentry::snapshot) leaves — is no anchor,
/// and a checkpoint carrying it is invalid
/// ([`read_checkpoint`](crate::read_checkpoint)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalAnchor {
    /// The file's synced length: every byte before it is durable and
    /// the last of them ends a record.
    pub offset: u64,
    /// Incident records before `offset`: what the digest chain holds.
    pub incidents: u64,
    /// Offset of the last record before `offset`, or 0 if the file held
    /// only its head.
    pub last_record: u64,
    /// Offset of the newest digest before `offset` — the head of the
    /// chain, and usually `last_record` itself — or 0 if there is none.
    pub digest: u64,
    /// That digest's length field (`rtype` and body bytes), 0 with no
    /// digest.
    pub digest_len: u32,
}

/// Why `Journal::open_at` would not start from an anchor. Nothing
/// was truncated or written when one of these comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorRefused {
    /// The file is shorter than the anchor's offset: the anchor was
    /// taken of a longer file than this one.
    JournalShort,
    /// No record ends exactly at the anchor's offset — its start,
    /// length or CRC do not read back — so the anchor does not
    /// describe this file.
    BoundaryMismatch,
    /// The digest chain does not hold: a link that does not lead to an
    /// earlier digest record — at or past the head, ending before the
    /// record it came from starts, at most [`MAX_RECORD_LEN`] long,
    /// with a good CRC and a body that decodes exactly — or counts that
    /// do not add up to the anchor's.
    BrokenLink,
}

/// What [`Journal::open`] or `Journal::open_at` recovered from an
/// existing file.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every valid event record scanned, in append order: all of the
    /// file's for [`open`](Journal::open), those past the anchor for
    /// `open_at`.
    pub events: Vec<ProcessEvent>,
    /// Every incident record in the file, in append order: the digested
    /// ones first, then the scanned ones.
    pub incidents: Vec<Incident>,
    /// How many of `incidents` were read from the digests the anchor
    /// leads to instead of scanned (0 for a full scan).
    pub chained_incidents: u64,
    /// Positional reads made before the scan: the head, and from an
    /// anchor the boundary record and each digest behind it (the
    /// boundary read doubling as the newest digest's when it is one).
    pub reads: u64,
    /// Bytes read from the file: all of it for a full scan; the head,
    /// the boundary record, the digests and the bytes past the anchor
    /// otherwise.
    pub bytes_scanned: u64,
    /// Bytes discarded past the longest valid prefix (0 for a clean
    /// shutdown).
    pub bytes_truncated: u64,
}

impl JournalRecovery {
    /// Recovered event-record count.
    pub fn event_count(&self) -> u64 {
        self.events.len() as u64
    }
}

/// Journal tuning.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Event records buffered between fsync batches: at most
    /// `sync_every − 1` are ever unsynced. `1` syncs every append (slow,
    /// loses nothing); larger values trade a bounded tail of
    /// re-sendable events for throughput. It also sets the sync budget
    /// incidents draw on (see the [module docs](self#durability-model)):
    /// one sync per `sync_every / 4` events (at least one), at most four
    /// banked. The default, 1,024, is one sync per 256 events, and a
    /// crash loses at most 1,023 events, which the producer re-sends
    /// from [`durable_events`](Journal::durable_events). How long an
    /// incident may wait when the budget is spent is the durable
    /// layer's commit deadline, not a journal setting.
    pub sync_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self { sync_every: 1024 }
    }
}

/// Where a digest record sits: its file offset and its length field.
/// `(0, 0)` is "no digest".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Link {
    at: u64,
    len: u32,
}

/// The append-only durable journal.
///
/// See the [module docs](self) for the format and durability model.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    sync_every: usize,
    /// Encoded records not yet written to the OS.
    pending: Vec<u8>,
    /// Event records in `pending`.
    pending_events: usize,
    /// Incident records in `pending`.
    pending_incidents: usize,
    /// File length as of the last successful sync (or `open`): where
    /// the next batch belongs.
    synced_len: u64,
    /// A write or fdatasync failed since then, so the file may hold
    /// some or all of `pending` past `synced_len`.
    tail_suspect: bool,
    /// Event records durably on disk (written *and* synced).
    durable_events: u64,
    /// Incident records durably on disk.
    durable_incidents: u64,
    /// File offset of the newest record, durable or pending (0 = none).
    last_record: u64,
    /// The newest digest the chain holds, durable or pending: what the
    /// next one links back to.
    digest: Link,
    /// The bodies of the incidents no digest holds yet, back to back:
    /// what the next [`checkpoint`](Self::checkpoint) digests.
    undigested: Vec<u8>,
    /// Where each of those bodies ends in `undigested`.
    undigested_ends: Vec<usize>,
    /// fsync batches issued (for reports).
    syncs: u64,
    /// The sync budget, in events: one per event framed, capped at
    /// `sync_every`, less `sync_every / 4` (at least one) per sync.
    /// Negative after syncs the events had not paid for.
    credit: i64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, recovering the
    /// longest valid record prefix and truncating any torn tail: the
    /// full scan, an `open_at` from the anchor at the
    /// end of the head. The recovered records come back alongside the
    /// journal, positioned to append; every recovered incident waits for
    /// the next [`checkpoint`](Self::checkpoint)'s digest, which starts
    /// the chain again. The journal keeps the [`StateId`] its head
    /// names, whatever it is; a new one is headed with
    /// `StateId::default()`, which names no sentry.
    pub fn open(
        path: &Path,
        config: JournalConfig,
    ) -> Result<(Self, JournalRecovery), JournalError> {
        let state = Self::head(path)?.unwrap_or_default();
        Self::open_as(path, config, state)
    }

    /// The [`StateId`] the head of the journal at `path` names, read
    /// with the magic in one read: `None` if there is no file, or it is
    /// too short to hold a head and what it holds is the start of one —
    /// nothing was ever synced to it. [`JournalError::BadMagic`] if the
    /// file is not a journal. Every open reads the head this way first,
    /// and changes nothing before it has.
    pub(crate) fn head(path: &Path) -> Result<Option<StateId>, JournalError> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut head = Vec::with_capacity(HEAD_LEN);
        file.take(HEAD_LEN as u64).read_to_end(&mut head)?;
        let mut fields = Fields(&head);
        match fields.take(JOURNAL_MAGIC.len()) {
            Some(magic) if magic != JOURNAL_MAGIC => Err(JournalError::BadMagic),
            None if !JOURNAL_MAGIC.starts_with(&head) => Err(JournalError::BadMagic),
            _ => Ok(fields.u64().map(StateId)),
        }
    }

    /// The full scan of the journal at `path`, whose
    /// [`head`](Self::head) has been read: [`open_at`](Self::open_at)
    /// from the anchor at the end of the head, or, for a file too short
    /// to hold one, the file started again, headed with `state`.
    pub(crate) fn open_as(
        path: &Path,
        config: JournalConfig,
        state: StateId,
    ) -> Result<(Self, JournalRecovery), JournalError> {
        let head = JournalAnchor {
            offset: HEAD_LEN as u64,
            ..JournalAnchor::default()
        };
        match Self::open_at(path, config, &head, 0)? {
            Ok(opened) => Ok(opened),
            Err(AnchorRefused::JournalShort) => {
                // Nothing, or a torn first write: nothing valid was
                // ever synced.
                let mut file = open_file(path)?;
                let len = file.metadata()?.len();
                file.set_len(0)?;
                file.write_all(&[JOURNAL_MAGIC.as_slice(), &state.0.to_le_bytes()].concat())?;
                file.sync_data()?;
                let recovery = JournalRecovery {
                    bytes_scanned: len,
                    bytes_truncated: len,
                    ..JournalRecovery::default()
                };
                Ok((Self::positioned(file, path, config, &head, 0), recovery))
            }
            // The boundary of an anchor without records is the head,
            // and its chain is empty: nothing else can be refused.
            Err(refused) => unreachable!("the head's anchor was refused: {refused:?}"),
        }
    }

    /// Opens the journal at `path`, whose [`head`](Self::head) has been
    /// read, from `anchor`, which a checkpoint holding `events_before`
    /// events recorded: reads the incidents
    /// before the anchor from its digests, scans — and, if torn,
    /// truncates — only what lies past it, and counts `events_before`
    /// for the event records it did not read. Everything the anchor
    /// says is checked against the file first (see the
    /// [module docs](self#opening-at-an-anchor)); an anchor that does
    /// not hold comes back as the inner `Err` with the file untouched,
    /// and the caller falls back to [`open_as`](Self::open_as). The
    /// incidents recovered past the anchor wait for the next
    /// checkpoint's digest.
    pub(crate) fn open_at(
        path: &Path,
        config: JournalConfig,
        anchor: &JournalAnchor,
        events_before: u64,
    ) -> Result<Result<(Self, JournalRecovery), AnchorRefused>, JournalError> {
        let mut file = open_file(path)?;
        if file.metadata()?.len() < anchor.offset {
            return Ok(Err(AnchorRefused::JournalShort));
        }
        let mut recovery = JournalRecovery::default();
        let mut buf = Vec::new();
        if let Err(refused) = verify_boundary(&file, anchor, &mut buf, &mut recovery)? {
            return Ok(Err(refused));
        }
        if let Err(refused) = walk_digests(&file, anchor, &mut buf, &mut recovery)? {
            return Ok(Err(refused));
        }
        let mut at = *anchor;
        recover_tail(&mut file, &mut at, &mut recovery)?;
        let events = events_before + recovery.event_count();
        let mut journal = Self::positioned(file, path, config, &at, events);
        journal.seed_undigested(&recovery.incidents[recovery.chained_incidents as usize..]);
        Ok(Ok((journal, recovery)))
    }

    /// A journal standing at `at` — the end of the file's valid records
    /// — with `events` event records before it, its digest chain headed
    /// by `at`'s digest.
    fn positioned(
        file: File,
        path: &Path,
        config: JournalConfig,
        at: &JournalAnchor,
        events: u64,
    ) -> Self {
        Self {
            file,
            path: path.to_path_buf(),
            sync_every: config.sync_every.max(1),
            pending: Vec::with_capacity(4096),
            pending_events: 0,
            pending_incidents: 0,
            synced_len: at.offset,
            tail_suspect: false,
            durable_events: events,
            durable_incidents: at.incidents,
            last_record: at.last_record,
            digest: Link {
                at: at.digest,
                len: at.digest_len,
            },
            undigested: Vec::new(),
            undigested_ends: Vec::new(),
            syncs: 0,
            credit: 0,
        }
    }

    /// Queues `incidents` — recovered from records no digest reaches —
    /// for the next digest.
    fn seed_undigested(&mut self, incidents: &[Incident]) {
        for incident in incidents {
            encode_incident(incident, &mut self.undigested);
            self.undigested_ends.push(self.undigested.len());
        }
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Event records durably on disk. The at-least-once resume
    /// contract: a producer that replays from this offset re-sends
    /// exactly the events a crash could have lost.
    pub fn durable_events(&self) -> u64 {
        self.durable_events
    }

    /// Incident records durably on disk.
    pub fn durable_incidents(&self) -> u64 {
        self.durable_incidents
    }

    /// Event records appended but not yet synced.
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// Incident records appended but not yet synced.
    pub fn pending_incidents(&self) -> usize {
        self.pending_incidents
    }

    /// fsync batches issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The credit's cap, `sync_every`, and what a sync spends of it:
    /// a quarter of the cap, and at least one event, so the bank holds
    /// four syncs and even the smallest batch keeps a budget.
    fn credit_terms(&self) -> (i64, i64) {
        let cap = i64::try_from(self.sync_every).unwrap_or(i64::MAX);
        (cap, (cap / 4).max(1))
    }

    /// Whether the events framed so far have paid for one more sync:
    /// the credit holds at least `sync_every / 4`. The durable layer
    /// syncs a raised incident at once while this holds, and lets it
    /// wait for the batch or the commit deadline otherwise.
    pub(crate) fn has_sync_credit(&self) -> bool {
        self.credit >= self.credit_terms().1
    }

    /// The journal's half of a checkpoint: frames a digest of every
    /// incident no digest holds yet (split at [`MAX_RECORD_LEN`]),
    /// syncs — one sync for the digest and whatever else is pending —
    /// and returns where the file then stands, for the checkpoint to
    /// record. With nothing to digest no digest is framed, and with
    /// nothing pending either nothing is synced.
    pub fn checkpoint(&mut self) -> Result<JournalAnchor, JournalError> {
        self.frame_digests();
        self.sync()?;
        Ok(JournalAnchor {
            offset: self.synced_len,
            incidents: self.durable_incidents,
            last_record: self.last_record,
            digest: self.digest.at,
            digest_len: self.digest.len,
        })
    }

    /// Frames one record in place at the end of `pending` and returns
    /// the file offset it will have: the header is reserved, `body`
    /// appends the record's bytes after the type tag, then length and
    /// CRC are patched in.
    fn frame_in_place(&mut self, rtype: u8, body: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let pending = &mut self.pending;
        let at = pending.len();
        pending.extend_from_slice(&[0u8; HEADER_LEN]);
        pending.push(rtype);
        body(pending);
        let len = pending.len() - at - HEADER_LEN;
        debug_assert!(len <= MAX_RECORD_LEN, "record exceeds MAX_RECORD_LEN");
        let crc = crc32(&pending[at + HEADER_LEN..]);
        pending[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        pending[at + 4..at + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        self.last_record = self.synced_len + at as u64;
        self.last_record
    }

    /// Appends one event record. Buffered; becomes durable at the next
    /// sync point (every `sync_every` events, `sync`, `checkpoint`,
    /// `append_incident`, or clean drop).
    pub fn append_event(&mut self, event: &ProcessEvent) -> Result<(), JournalError> {
        self.frame_event(event);
        if self.pending_events >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Frames one event record into the pending tail without the
    /// batch's sync, for a caller whose next journal step is a
    /// [`checkpoint`](Self::checkpoint): its one sync carries the batch
    /// and the digest together.
    pub(crate) fn frame_event(&mut self, event: &ProcessEvent) {
        self.frame_in_place(EVENT, |out| encode_payload(event, out));
        self.pending_events += 1;
        self.credit = self.credit.saturating_add(1).min(self.credit_terms().0);
    }

    /// Appends one incident record and forces a sync: the incident is
    /// not left in the volatile tail. The serving calls of
    /// [`DurableSentry`](crate::durable::DurableSentry) frame theirs
    /// without the sync and sync for them only while the credit covers
    /// one.
    pub fn append_incident(&mut self, incident: &Incident) -> Result<(), JournalError> {
        self.frame_incidents(std::slice::from_ref(incident));
        self.sync()
    }

    /// Frames `incidents` into the pending tail, and queues their
    /// bodies for the next digest, and syncs nothing: they become
    /// durable with whatever sync comes next, and until then
    /// [`pending_incidents`](Self::pending_incidents) counts them. The
    /// caller must not hand them on before that.
    pub(crate) fn frame_incidents(&mut self, incidents: &[Incident]) {
        for incident in incidents {
            let body = self.pending.len() + HEADER_LEN + 1;
            self.frame_in_place(INCIDENT, |out| encode_incident(incident, out));
            self.undigested.extend_from_slice(&self.pending[body..]);
            self.undigested_ends.push(self.undigested.len());
            self.pending_incidents += 1;
        }
    }

    /// Frames the undigested incidents into as few digest records as
    /// [`MAX_RECORD_LEN`] allows, each linked back to the one before,
    /// and empties the list (keeping its capacity).
    fn frame_digests(&mut self) {
        let bodies = std::mem::take(&mut self.undigested);
        let mut ends = std::mem::take(&mut self.undigested_ends);
        let (mut from, mut next) = (0usize, 0usize);
        while next < ends.len() {
            // One body always fits — `MAX_RECORD_LEN` is sized for the
            // largest — and more while they do.
            let first = next;
            next += 1;
            while ends
                .get(next)
                .is_some_and(|&end| 1 + DIGEST_HEAD_LEN + end - from <= MAX_RECORD_LEN)
            {
                next += 1;
            }
            let to = ends[next - 1];
            let (prev, count) = (self.digest, (next - first) as u32);
            let at = self.frame_in_place(DIGEST, |out| {
                out.extend_from_slice(&prev.at.to_le_bytes());
                out.extend_from_slice(&prev.len.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&bodies[from..to]);
            });
            let len = (1 + DIGEST_HEAD_LEN + to - from) as u32;
            self.digest = Link { at, len };
            from = to;
        }
        ends.clear();
        self.undigested_ends = ends;
        self.undigested = bodies;
        self.undigested.clear();
    }

    /// Writes every buffered record and fdatasyncs. After `Ok`, all
    /// previously appended records survive any crash; only then do they
    /// count as durable. After `Err` the records stay buffered, and the
    /// next sync first cuts the file back to the last synced length:
    /// whatever the failed attempt left there — a partial record, or
    /// the whole batch unsynced — must not end up in front of, or
    /// beside, the batch written again.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.tail_suspect {
            self.file.set_len(self.synced_len)?;
            self.file.seek(SeekFrom::Start(self.synced_len))?;
        }
        self.tail_suspect = true;
        self.file.write_all(&self.pending)?;
        self.file.sync_data()?;
        self.tail_suspect = false;
        self.synced_len += self.pending.len() as u64;
        self.durable_events += self.pending_events as u64;
        self.durable_incidents += self.pending_incidents as u64;
        self.pending_events = 0;
        self.pending_incidents = 0;
        self.pending.clear();
        self.syncs += 1;
        self.credit = self.credit.saturating_sub(self.credit_terms().1);
        Ok(())
    }

    /// Simulates a crash: the buffered tail is lost, except for the
    /// first `torn_bytes` bytes which reach the file *without* record
    /// framing integrity — a flush interrupted mid-write. The next
    /// [`open`](Self::open) must recover the longest valid prefix.
    /// Consumes the journal; nothing else is flushed.
    pub fn simulate_crash(mut self, torn_bytes: usize) {
        let torn = torn_bytes.min(self.pending.len());
        if torn > 0 {
            let prefix = &self.pending[..torn];
            // Best effort, like the real interrupted flush it models.
            let _ = self.file.write_all(prefix);
            let _ = self.file.sync_data();
        }
        self.pending.clear();
        self.pending_events = 0;
        self.pending_incidents = 0;
        // Drop now flushes an empty buffer: a no-op.
    }
}

impl Drop for Journal {
    /// Clean shutdown flushes the buffered tail. Errors are swallowed
    /// (there is no one to report to in drop); callers that need the
    /// result call [`sync`](Self::sync) first.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn open_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// The next record in `rest` — its CRC field and its payload — if its
/// length field is within `1..=`[`MAX_RECORD_LEN`] and `rest` holds
/// all of it.
fn record<'a>(rest: &mut Fields<'a>) -> Option<(u32, &'a [u8])> {
    let len = rest.u32()? as usize;
    let crc = rest.u32()?;
    if len == 0 || len > MAX_RECORD_LEN {
        return None;
    }
    Some((crc, rest.take(len)?))
}

/// The payload of the record `buf` holds, if `buf` is one record
/// exactly — its length field is `buf`'s, less the header — and its
/// CRC matches.
fn whole_record(buf: &[u8]) -> Option<&[u8]> {
    let mut rest = Fields(buf);
    let (crc, payload) = record(&mut rest)?;
    rest.finish(payload).filter(|p| crc32(p) == crc)
}

/// Appends the body of an incident record (the layout in the
/// [module docs](self#record-format)).
fn encode_incident(incident: &Incident, out: &mut Vec<u8>) {
    let alert = &incident.alert;
    let action = match incident.action {
        ActionTaken::Logged => 0,
        ActionTaken::Killed => 1,
        ActionTaken::Quarantined => 2,
        ActionTaken::Suppressed => 3,
    };
    let (outcome, text, calls_seen) = match &incident.outcome {
        ActionOutcome::NotAttempted => (0, "", 0),
        ActionOutcome::Applied {
            receipt,
            calls_seen,
        } => (1, receipt.as_str(), *calls_seen),
        ActionOutcome::Failed(text) => (2, text.as_str(), 0),
    };
    out.extend_from_slice(&incident.sid.to_le_bytes());
    out.extend_from_slice(&incident.pid.to_le_bytes());
    out.extend_from_slice(&(alert.at_call as u64).to_le_bytes());
    out.extend_from_slice(&alert.probability.to_bits().to_le_bytes());
    out.extend_from_slice(&alert.inference_us.to_bits().to_le_bytes());
    out.extend_from_slice(&[action, u8::from(incident.post_exit), outcome]);
    out.extend_from_slice(&calls_seen.to_le_bytes());
    match &incident.name {
        Some(name) => put_str(name, MAX_NAME_LEN, out),
        None => out.extend_from_slice(&NO_NAME.to_le_bytes()),
    }
    put_str(text, MAX_TEXT_LEN, out);
}

/// An incident record's payload (`rtype` included). `None` unless the
/// body is exactly what [`encode_incident`] writes for some incident.
fn decode_incident(payload: &[u8]) -> Option<Incident> {
    let mut body = Fields(payload.get(1..)?);
    let incident = read_incident(&mut body)?;
    body.finish(incident)
}

/// A digest record's payload (`rtype` included): its link, with its
/// incidents appended to `out`. `None` unless the body is exactly what
/// a checkpoint frames — a link that is none or has both fields set, at
/// least one incident, every body whole, no byte left over — and `out`
/// may then hold some of the incidents.
fn decode_digest(payload: &[u8], out: &mut Vec<Incident>) -> Option<Link> {
    let mut body = Fields(payload.get(1..)?);
    let prev = Link {
        at: body.u64()?,
        len: body.u32()?,
    };
    let count = body.u32()?;
    if count == 0 || (prev.at == 0) != (prev.len == 0) {
        return None;
    }
    for _ in 0..count {
        out.push(read_incident(&mut body)?);
    }
    body.finish(prev)
}

/// One incident body off the front of `body`, the inverse of
/// [`encode_incident`].
fn read_incident(body: &mut Fields<'_>) -> Option<Incident> {
    let sid = body.u64()?;
    let pid = body.u32()?;
    let at_call = usize::try_from(body.u64()?).ok()?;
    let probability = f64::from_bits(body.u64()?);
    let inference_us = f64::from_bits(body.u64()?);
    let [action, post_exit, outcome] = body.array()?;
    let calls_seen = body.u64()?;
    let action = match action {
        0 => ActionTaken::Logged,
        1 => ActionTaken::Killed,
        2 => ActionTaken::Quarantined,
        3 => ActionTaken::Suppressed,
        _ => return None,
    };
    let post_exit = match post_exit {
        0 => false,
        1 => true,
        _ => return None,
    };
    let name = match body.u16()? {
        NO_NAME => None,
        len => Some(body.str(len)?.to_string()),
    };
    let len = body.u16()?;
    let text = body.str(len)?;
    let outcome = match (outcome, calls_seen) {
        (0, 0) if text.is_empty() => ActionOutcome::NotAttempted,
        (1, calls_seen) => ActionOutcome::Applied {
            receipt: text.to_string(),
            calls_seen,
        },
        (2, 0) => ActionOutcome::Failed(text.to_string()),
        _ => return None,
    };
    Some(Incident {
        sid,
        pid,
        name,
        alert: Alert {
            at_call,
            probability,
            inference_us,
        },
        action,
        outcome,
        post_exit,
    })
}

/// The anchor is trusted only for a file that frames to it: the record
/// the anchor names as the last one before its offset is there —
/// starting where it says, exactly as long as it says, with a good CRC.
/// The file is already known to be `anchor.offset` long, and its head,
/// which the caller read, is counted here. The record is left in `buf`,
/// header included.
fn verify_boundary(
    file: &File,
    anchor: &JournalAnchor,
    buf: &mut Vec<u8>,
    recovery: &mut JournalRecovery,
) -> Result<Result<(), AnchorRefused>, JournalError> {
    const MISMATCH: Result<(), AnchorRefused> = Err(AnchorRefused::BoundaryMismatch);
    let head_len = HEAD_LEN as u64;
    if anchor.offset < head_len {
        return Ok(MISMATCH);
    }
    recovery.reads += 1;
    recovery.bytes_scanned += head_len;
    if anchor.last_record == 0 {
        // An anchor taken of a journal without records.
        return Ok(if anchor.offset == head_len {
            Ok(())
        } else {
            MISMATCH
        });
    }
    let Some(len) = anchor
        .offset
        .checked_sub(anchor.last_record)
        .and_then(|n| n.checked_sub(HEADER_LEN as u64))
        .filter(|&n| anchor.last_record >= head_len && (1..=MAX_RECORD_LEN as u64).contains(&n))
    else {
        return Ok(MISMATCH);
    };
    buf.resize(HEADER_LEN + len as usize, 0);
    file.read_exact_at(buf, anchor.last_record)?;
    recovery.reads += 1;
    recovery.bytes_scanned += buf.len() as u64;
    if whole_record(buf).is_none() {
        return Ok(MISMATCH);
    }
    Ok(Ok(()))
}

/// Follows the digest links from the anchor's newest digest to the
/// first, leaving the incidents in `recovery` oldest first. `buf` holds
/// the boundary record [`verify_boundary`] read, which is the first
/// digest when the anchor says so. Each digest must start at or past
/// the head, end no later than the digest the walk came from starts
/// (the anchor's offset, for the first), so offsets strictly decrease
/// and the walk ends; be at most [`MAX_RECORD_LEN`] long, exactly as
/// long as its link says; pass its CRC and decode exactly; and the
/// counts must sum to the anchor's.
fn walk_digests(
    file: &File,
    anchor: &JournalAnchor,
    buf: &mut Vec<u8>,
    recovery: &mut JournalRecovery,
) -> Result<Result<(), AnchorRefused>, JournalError> {
    const BROKEN: Result<(), AnchorRefused> = Err(AnchorRefused::BrokenLink);
    let mut link = Link {
        at: anchor.digest,
        len: anchor.digest_len,
    };
    if (link.at == 0) != (link.len == 0) {
        return Ok(BROKEN);
    }
    let mut bound = anchor.offset;
    let mut in_buf = link.at != 0 && link.at == anchor.last_record;
    while link.at != 0 {
        let len = link.len as usize;
        if link.at < HEAD_LEN as u64
            || len > MAX_RECORD_LEN
            || bound
                .checked_sub(link.at)
                .is_none_or(|room| room < (HEADER_LEN + len) as u64)
        {
            return Ok(BROKEN);
        }
        if !std::mem::take(&mut in_buf) {
            buf.resize(HEADER_LEN + len, 0);
            file.read_exact_at(buf, link.at)?;
            recovery.reads += 1;
            recovery.bytes_scanned += buf.len() as u64;
        }
        let Some(payload) =
            whole_record(buf).filter(|p| p.len() == len && p.first() == Some(&DIGEST))
        else {
            return Ok(BROKEN);
        };
        let from = recovery.incidents.len();
        let Some(prev) = decode_digest(payload, &mut recovery.incidents) else {
            return Ok(BROKEN);
        };
        recovery.chained_incidents += (recovery.incidents.len() - from) as u64;
        if recovery.chained_incidents > anchor.incidents {
            return Ok(BROKEN);
        }
        // Newest first for now, like the digests: reversed whole below.
        recovery.incidents[from..].reverse();
        (link, bound) = (prev, link.at);
    }
    if recovery.chained_incidents != anchor.incidents {
        return Ok(BROKEN);
    }
    recovery.incidents.reverse();
    Ok(Ok(()))
}

/// Scans the file from `at.offset` to its end record by record,
/// appends the valid records to `recovery`, cuts a torn tail off the
/// file, and leaves `at` — and the file's cursor — at the end of the
/// longest valid prefix. A digest is checked like any record and
/// adopted from never: its incidents are records of this file already.
fn recover_tail(
    file: &mut File,
    at: &mut JournalAnchor,
    recovery: &mut JournalRecovery,
) -> Result<(), JournalError> {
    let from = at.offset;
    file.seek(SeekFrom::Start(from))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut rest = Fields(&bytes);
    let mut digested = Vec::new();
    // Until a torn header, a length out of range, a record cut
    // mid-body, or the clean end.
    while let Some((crc, payload)) = record(&mut rest) {
        if crc32(payload) != crc {
            break; // Flipped bits anywhere in the payload.
        }
        match payload[0] {
            EVENT => match decode_payload(&payload[1..]) {
                Ok(event) => recovery.events.push(event),
                Err(_) => break,
            },
            INCIDENT => match decode_incident(payload) {
                Some(incident) => {
                    recovery.incidents.push(incident);
                    at.incidents += 1;
                }
                None => break,
            },
            DIGEST => {
                let whole = decode_digest(payload, &mut digested).is_some();
                digested.clear();
                if !whole {
                    break;
                }
            }
            _ => break, // Unknown record type: not ours.
        }
        at.last_record = at.offset;
        at.offset = from + (bytes.len() - rest.0.len()) as u64;
    }
    recovery.bytes_scanned += bytes.len() as u64;
    recovery.bytes_truncated = from + bytes.len() as u64 - at.offset;
    if recovery.bytes_truncated > 0 {
        file.set_len(at.offset)?;
        file.sync_data()?;
    }
    file.seek(SeekFrom::Start(at.offset))?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::actions::{ActionOutcome, ActionTaken};
    use csd_accel::Alert;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csd-journal-{}-{tag}.log", std::process::id()))
    }

    /// A record's length and CRC fields, from its first [`HEADER_LEN`]
    /// bytes.
    fn header(bytes: &[u8]) -> (usize, u32) {
        let mut head = Fields(bytes);
        (head.u32().unwrap() as usize, head.u32().unwrap())
    }

    fn sample_events(n: usize) -> Vec<ProcessEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => ProcessEvent::spawn(i as u64, 100 + i as u32, "proc.exe"),
                1 => ProcessEvent::api(i as u64, 100 + i as u32, i % 16),
                _ => ProcessEvent::exit(i as u64, 100 + i as u32),
            })
            .collect()
    }

    fn sample_incident(sid: u64) -> Incident {
        Incident {
            sid,
            pid: 4242,
            name: Some("evil.exe".to_string()),
            alert: Alert {
                at_call: 100,
                probability: 0.97,
                inference_us: 12.5,
            },
            action: ActionTaken::Quarantined,
            outcome: ActionOutcome::Applied {
                receipt: "sandboxed".to_string(),
                calls_seen: 107,
            },
            post_exit: false,
        }
    }

    #[test]
    fn events_and_incidents_roundtrip_through_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let events = sample_events(10);
        {
            let (mut j, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
            assert!(rec.events.is_empty() && rec.incidents.is_empty());
            for (i, e) in events.iter().enumerate() {
                j.append_event(e).unwrap();
                if i == 4 {
                    j.append_incident(&sample_incident(3)).unwrap();
                }
            }
            // Clean drop syncs the tail.
        }
        let (j, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.bytes_truncated, 0);
        assert_eq!(rec.event_count(), 10);
        assert_eq!(j.durable_events(), 10);
        let got: Vec<ProcessEvent> = rec.events.clone();
        assert_eq!(got, events);
        let incidents: Vec<&Incident> = rec.incidents.iter().collect();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0], &sample_incident(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_loses_only_the_unsynced_tail() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let events = sample_events(20);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
            for e in &events {
                j.append_event(e).unwrap();
            }
            // 16 synced (two batches of 8), 4 pending.
            assert_eq!(j.durable_events(), 16);
            assert_eq!(j.pending_events(), 4);
            j.simulate_crash(0);
        }
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.event_count(), 16, "synced records survive the crash");
        assert_eq!(rec.bytes_truncated, 0, "no torn bytes were written");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_flush_truncates_to_the_longest_valid_prefix() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 4 }).unwrap();
            for e in sample_events(7) {
                j.append_event(&e).unwrap();
            }
            // 4 synced; 3 pending. Crash mid-flush: 11 bytes of the
            // pending batch (a torn partial record) reach the disk.
            j.simulate_crash(11);
        }
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.event_count(), 4, "only fully synced records recover");
        assert!(rec.bytes_truncated > 0, "the torn tail was dropped");
        // The truncation is physical: reopening again is clean.
        let (_, rec2) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec2.bytes_truncated, 0);
        assert_eq!(rec2.event_count(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_ends_the_valid_prefix_at_the_flip() {
        let path = tmp("flip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 1 }).unwrap();
            for e in sample_events(6) {
                j.append_event(&e).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the last record's body.
        let n = bytes.len();
        bytes[n - 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.event_count(), 5, "records before the flip survive");
        assert!(rec.bytes_truncated > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_refused_not_truncated() {
        let path = tmp("notjournal");
        std::fs::write(&path, b"precious user data, definitely not a journal").unwrap();
        let err = Journal::open(&path, JournalConfig::default());
        assert!(matches!(err, Err(JournalError::BadMagic)));
        let back = std::fs::read(&path).unwrap();
        assert_eq!(
            back, b"precious user data, definitely not a journal",
            "refusing must not modify the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The on-disk format, byte for byte: the head (the magic and the
    /// zero id of a journal opened on its own), a spawn event,
    /// [`sample_incident`]`(3)`, an API event, [`sample_incident`]`(4)`,
    /// the first checkpoint's digest of both (no digest before it), then
    /// [`sample_incident`]`(5)` and the second checkpoint's digest of it,
    /// linked back to the first digest's offset (`0xe4`) and length
    /// (`0x99`). One record a line; an incident's body is split at `sid`,
    /// `pid`, `at_call`, the two floats' bits, the three tags, the kill
    /// point and the two strings, a digest's head at the link's two
    /// fields and the count. The two event records are byte for byte,
    /// CRC included, what every earlier format wrote: the event format
    /// has not changed.
    const GOLDEN: &str = "4353444a524e4c35 0000000000000000
        18000000923d22d5000007000000000000009210000008006576696c2e657865
        450000003140416d 01 0300000000000000 92100000 6400000000000000 0ad7a3703d0aef3f 0000000000002940
            020001 6b00000000000000 08006576696c2e657865 090073616e64626f786564
        1200000031440bae000108000000000000009210000005000000
        450000009e8e808d 01 0400000000000000 92100000 6400000000000000 0ad7a3703d0aef3f 0000000000002940
            020001 6b00000000000000 08006576696c2e657865 090073616e64626f786564
        990000001b33eb71 02 0000000000000000 00000000 02000000
            0300000000000000 92100000 6400000000000000 0ad7a3703d0aef3f 0000000000002940
                020001 6b00000000000000 08006576696c2e657865 090073616e64626f786564
            0400000000000000 92100000 6400000000000000 0ad7a3703d0aef3f 0000000000002940
                020001 6b00000000000000 08006576696c2e657865 090073616e64626f786564
        45000000bc16bde8 01 0500000000000000 92100000 6400000000000000 0ad7a3703d0aef3f 0000000000002940
            020001 6b00000000000000 08006576696c2e657865 090073616e64626f786564
        55000000b742e96f 02 e400000000000000 99000000 01000000
            0500000000000000 92100000 6400000000000000 0ad7a3703d0aef3f 0000000000002940
                020001 6b00000000000000 08006576696c2e657865 090073616e64626f786564";

    #[test]
    fn the_on_disk_format_is_the_golden_bytes() {
        let path = tmp("golden");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
            j.append_event(&ProcessEvent::spawn(7, 4242, "evil.exe"))
                .unwrap();
            j.append_incident(&sample_incident(3)).unwrap();
            j.append_event(&ProcessEvent::api(8, 4242, 5)).unwrap();
            j.append_incident(&sample_incident(4)).unwrap();
            j.checkpoint().unwrap();
            j.append_incident(&sample_incident(5)).unwrap();
            j.checkpoint().unwrap();
        }
        let hex: String = std::fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN.replace(char::is_whitespace, ""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incidents_count_as_durable_only_once_their_sync_succeeds() {
        let path = tmp("failed-sync");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        j.append_event(&sample_events(1)[0]).unwrap();
        // A handle that cannot write: every sync fails.
        let writable = std::mem::replace(&mut j.file, File::open(&path).unwrap());
        for incident in [sample_incident(1), sample_incident(2)] {
            assert!(matches!(
                j.append_incident(&incident),
                Err(JournalError::Io(_))
            ));
        }
        assert_eq!(j.durable_incidents(), 0, "nothing reached the disk");
        assert_eq!((j.durable_events(), j.pending_events()), (0, 1));
        assert_eq!(j.syncs(), 0);
        // The records are still buffered; the next sync that works
        // makes them durable, in one batch.
        j.file = writable;
        j.sync().unwrap();
        assert_eq!((j.durable_events(), j.durable_incidents()), (1, 2));
        assert_eq!(j.syncs(), 1, "two incidents, one sync");
        drop(j);
        let (j, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.incidents.len(), 2);
        assert_eq!((j.durable_events(), j.durable_incidents()), (1, 2));
        let _ = std::fs::remove_file(&path);
    }

    /// The durable layer's rule without its deadline: what is held takes
    /// a sync as soon as the credit covers one.
    fn commit_if_credit(j: &mut Journal) {
        if j.pending_incidents() > 0 && j.has_sync_credit() {
            j.sync().unwrap();
        }
    }

    #[test]
    fn an_event_only_stream_still_syncs_every_sync_every_records() {
        let path = tmp("credit-events");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
        for (i, e) in sample_events(8 * 5 + 3).iter().enumerate() {
            j.append_event(e).unwrap();
            let framed = i as u64 + 1;
            assert_eq!(j.syncs(), framed / 8);
            assert_eq!(j.durable_events(), framed / 8 * 8);
        }
        drop(j);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_incident_framed_with_credit_banked_is_durable_without_waiting_for_a_batch() {
        let path = tmp("credit-banked");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
        let events = sample_events(2);
        j.append_event(&events[0]).unwrap();
        assert!(!j.has_sync_credit(), "one event pays for no sync");
        j.append_event(&events[1]).unwrap();
        assert!(j.has_sync_credit(), "two pay for a quarter of a batch");
        j.frame_incidents(&[sample_incident(1)]);
        commit_if_credit(&mut j);
        assert_eq!(j.syncs(), 1);
        assert_eq!((j.durable_events(), j.durable_incidents()), (2, 1));
        assert_eq!((j.pending_events(), j.pending_incidents()), (0, 0));
        assert!(!j.has_sync_credit(), "the sync spent it");
        drop(j);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_burst_of_incidents_spends_the_credit_and_the_next_one_waits() {
        let path = tmp("credit-burst");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
        // A batch sync at the eighth event leaves six events of credit,
        // and seven more fill it to its cap of eight — four syncs.
        for e in &sample_events(15) {
            j.append_event(e).unwrap();
        }
        assert_eq!(j.syncs(), 1);
        for sid in 1..=5 {
            j.frame_incidents(&[sample_incident(sid)]);
            commit_if_credit(&mut j);
        }
        assert_eq!(j.syncs(), 5);
        assert_eq!((j.durable_incidents(), j.pending_incidents()), (4, 1));
        // The fifth waits for a quarter of a batch of new events, not one.
        for (i, e) in sample_events(2).iter().enumerate() {
            assert_eq!(j.pending_incidents(), 1, "still held after {i} events");
            j.append_event(e).unwrap();
            commit_if_credit(&mut j);
        }
        assert_eq!((j.durable_incidents(), j.pending_incidents()), (5, 0));
        assert_eq!(j.syncs(), 6);
        drop(j);
        let _ = std::fs::remove_file(&path);
    }

    /// Whatever the mix of events and incidents, the credit holds the
    /// disk to one sync per `spend` events — `sync_every / 4`, and at
    /// least one, so even a batch of two or three keeps a budget — plus
    /// the closing one; and the batch still bounds what is unsynced.
    #[test]
    fn incidents_spend_no_more_syncs_than_the_events_pay_for() {
        use rand::{Rng, SeedableRng};
        let path = tmp("credit-budget");
        for seed in 0..18u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let sync_every = [1usize, 2, 3, 4, 16, 64][seed as usize % 6];
            let incident_share = [0.02, 0.2, 0.6][seed as usize / 6];
            let _ = std::fs::remove_file(&path);
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every }).unwrap();
            let mut events = 0u64;
            for op in 0..400u64 {
                if rng.random_bool(incident_share) {
                    j.frame_incidents(&[sample_incident(op)]);
                } else {
                    j.append_event(&ProcessEvent::api(op, 7, 3)).unwrap();
                    events += 1;
                }
                commit_if_credit(&mut j);
                assert!(j.pending_events() < sync_every);
            }
            j.sync().unwrap();
            let spend = (sync_every as u64 / 4).max(1);
            let budget = events / spend + 1;
            assert!(
                j.syncs() <= budget,
                "seed {seed}: {} syncs for {events} events, budget {budget}",
                j.syncs()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_sync_after_a_failed_one_writes_every_record_exactly_once() {
        // What the failed attempt left in the file: a torn record, or
        // the whole batch (written, then the fdatasync failed).
        for left_behind in [Some(10), None] {
            let path = tmp("resync");
            let _ = std::fs::remove_file(&path);
            let events = sample_events(7);
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 4 }).unwrap();
            for e in &events {
                j.append_event(e).unwrap();
            }
            assert_eq!((j.durable_events(), j.pending_events()), (4, 3));
            // The sync fails (a handle that cannot write)...
            let mut writable = std::mem::replace(&mut j.file, File::open(&path).unwrap());
            assert!(matches!(j.sync(), Err(JournalError::Io(_))));
            // ...having put this much of the tail in the file, the way
            // `simulate_crash` leaves a torn flush.
            let left = left_behind.unwrap_or(j.pending.len());
            writable.write_all(&j.pending[..left]).unwrap();
            writable.sync_data().unwrap();
            j.file = writable;
            // The next one works — `Drop` issues it if nobody else does.
            j.sync().unwrap();
            assert_eq!((j.durable_events(), j.pending_events()), (7, 0));
            drop(j);
            let (j, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
            let got: Vec<ProcessEvent> = rec.events.clone();
            assert_eq!(got, events, "{left} bytes left behind");
            assert_eq!(rec.bytes_truncated, 0);
            assert_eq!(j.durable_events(), 7, "the cursor is what recovery finds");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A journal of `n` events, an incident framed after each event
    /// `incident_after` picks, syncing every 8 events, and a checkpoint
    /// before event `k` for each `k` in `checkpoints` (`n` is after the
    /// last). Returns their anchors: each covers its `k` events, and
    /// its digest holds every incident framed before it.
    fn journal_with_checkpoints(
        path: &Path,
        n: usize,
        checkpoints: &[usize],
        incident_after: impl Fn(usize) -> bool,
    ) -> Vec<JournalAnchor> {
        let _ = std::fs::remove_file(path);
        let (mut j, _) = Journal::open(path, JournalConfig { sync_every: 8 }).unwrap();
        let mut anchors = Vec::new();
        for (i, e) in sample_events(n).iter().enumerate() {
            if checkpoints.contains(&i) {
                anchors.push(j.checkpoint().unwrap());
            }
            j.append_event(e).unwrap();
            if incident_after(i) {
                j.frame_incidents(&[sample_incident(i as u64)]);
            }
        }
        if checkpoints.contains(&n) {
            anchors.push(j.checkpoint().unwrap());
        }
        j.sync().unwrap();
        anchors
    }

    /// [`journal_with_checkpoints`] with one checkpoint.
    fn anchored_journal(
        path: &Path,
        n: usize,
        anchor_after: usize,
        incident_after: impl Fn(usize) -> bool,
    ) -> JournalAnchor {
        journal_with_checkpoints(path, n, &[anchor_after], incident_after)[0]
    }

    /// `(offset, length field)` of every digest in the anchor's chain,
    /// newest first, read off the file's bytes by their links.
    fn digest_chain(bytes: &[u8], anchor: &JournalAnchor) -> Vec<(u64, usize)> {
        let (mut at, mut len) = (anchor.digest, anchor.digest_len as usize);
        let mut chain = Vec::new();
        while at != 0 {
            chain.push((at, len));
            let body = &bytes[at as usize + HEADER_LEN + 1..];
            at = u64::from_le_bytes(body[..8].try_into().unwrap());
            len = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
        }
        chain
    }

    /// `open_at` against the full scan of a copy of the same file: the
    /// same incidents in the same order, the events past the anchor,
    /// the same truncation and counts, exactly the head, the boundary,
    /// the digests and the tail read — and the same file once both have
    /// appended the same records. Then each side's next checkpoint: its
    /// digest carries forward what the anchor did not reach (the tail's
    /// incidents from the anchor, every incident after the full scan),
    /// so an open at the new anchor reads all of them from digests.
    fn assert_open_at_matches_the_full_scan(
        path: &Path,
        anchor: &JournalAnchor,
        events_before: usize,
    ) -> JournalRecovery {
        let config = JournalConfig::default();
        let copy = path.with_extension("copy");
        std::fs::copy(path, &copy).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let len = bytes.len() as u64;
        let (mut full, full_rec) = Journal::open(&copy, config).unwrap();
        let (mut at, at_rec) = Journal::open_at(path, config, anchor, events_before as u64)
            .unwrap()
            .expect("the anchor holds");
        assert_eq!(full_rec.bytes_scanned, len);
        assert_eq!((full_rec.chained_incidents, full_rec.reads), (0, 1));
        assert_eq!(at_rec.incidents, full_rec.incidents);
        assert_eq!(at_rec.events[..], full_rec.events[events_before..]);
        assert_eq!(at_rec.bytes_truncated, full_rec.bytes_truncated);
        assert_eq!(at_rec.chained_incidents, anchor.incidents);
        // Read: the head, the record at the boundary, every digest
        // behind it once, and the tail.
        let head = HEAD_LEN as u64;
        let behind: Vec<(u64, usize)> = digest_chain(&bytes, anchor)
            .into_iter()
            .filter(|&(at, _)| at != anchor.last_record)
            .collect();
        let digests: u64 = behind.iter().map(|&(_, n)| (HEADER_LEN + n) as u64).sum();
        let boundary = anchor.offset - anchor.last_record.max(head);
        assert_eq!(
            at_rec.bytes_scanned,
            head + boundary + digests + (len - anchor.offset),
            "anchor {anchor:?}"
        );
        assert_eq!(
            at_rec.reads,
            1 + u64::from(anchor.last_record != 0) + behind.len() as u64
        );
        assert_eq!(at.durable_events(), full.durable_events());
        assert_eq!(at.durable_incidents(), full.durable_incidents());
        for j in [&mut full, &mut at] {
            j.append_event(&ProcessEvent::api(99, 1, 2)).unwrap();
            j.append_incident(&sample_incident(999)).unwrap();
        }
        drop((full, at));
        assert_eq!(
            std::fs::read(path).unwrap(),
            std::fs::read(&copy).unwrap(),
            "the same records in the same places"
        );

        for (file, anchored) in [(path, true), (copy.as_path(), false)] {
            let (mut j, rec) = if anchored {
                Journal::open_at(file, config, anchor, events_before as u64)
                    .unwrap()
                    .unwrap()
            } else {
                Journal::open(file, config).unwrap()
            };
            let next = j.checkpoint().unwrap();
            let events = j.durable_events();
            drop(j);
            let (_, again) = Journal::open_at(file, config, &next, events)
                .unwrap()
                .expect("the next checkpoint's anchor holds");
            assert_eq!(again.incidents, rec.incidents, "anchored: {anchored}");
            assert_eq!(again.chained_incidents, rec.incidents.len() as u64);
            assert_eq!(again.event_count(), 0);
        }
        let _ = std::fs::remove_file(&copy);
        at_rec
    }

    #[test]
    fn open_at_recovers_what_the_full_scan_recovers() {
        let path = tmp("anchored");
        type Case = (usize, &'static [usize], usize, fn(usize) -> bool);
        let cases: [Case; 9] = [
            // An anchor taken of an empty journal.
            (20, &[0], 0, |i| i % 3 == 2),
            // No incident anywhere: no digest either.
            (20, &[10], 0, |_| false),
            // Incidents on both sides of the anchor.
            (40, &[20], 0, |i| i % 3 == 2),
            // Nothing past the anchor: a crash straight after the
            // checkpoint.
            (40, &[40], 0, |i| i % 3 == 2),
            // Many incidents before the anchor and none after.
            (60, &[50], 0, |i| i < 45),
            // The anchor's digest holds one incident, framed just
            // before it.
            (30, &[12], 0, |i| i == 11 || i == 20),
            // A digest a checkpoint interval.
            (60, &[10, 20, 30, 40], 3, |i| i % 4 == 1),
            // The last intervals raised nothing: the newest digest is
            // behind the record at the anchor.
            (60, &[10, 20, 30], 2, |i| i < 15),
            // Digests past the anchor — checkpoints whose files never
            // landed — are neither adopted from nor linked to.
            (60, &[10, 20, 30, 40], 1, |i| i % 4 == 1),
        ];
        for (n, checkpoints, pick, incident_after) in cases {
            let anchor = journal_with_checkpoints(&path, n, checkpoints, incident_after)[pick];
            let before = checkpoints[pick];
            let rec = assert_open_at_matches_the_full_scan(&path, &anchor, before);
            assert_eq!(rec.event_count(), (n - before) as u64);
            assert_eq!(
                rec.incidents.len(),
                (0..n).filter(|&i| incident_after(i)).count()
            );
        }
        // The head is not read: its size does not show in what was.
        let anchor = anchored_journal(&path, 5_000, 4_990, |i| i % 1_000 == 0);
        let rec = assert_open_at_matches_the_full_scan(&path, &anchor, 4_990);
        assert_eq!(rec.reads, 2, "the head, and the digest at the anchor");
        assert!(rec.bytes_scanned < 1_024, "{rec:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// What an anchored open reads is one record per digest and the
    /// head — however many incidents each digest holds — and one more
    /// when the record at the anchor is not the newest digest.
    #[test]
    fn an_anchored_open_makes_one_read_a_digest_whatever_the_incidents() {
        let path = tmp("reads");
        for per_interval in [1usize, 7, 300] {
            for intervals in [1usize, 3, 6] {
                let _ = std::fs::remove_file(&path);
                let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
                let mut anchor = JournalAnchor::default();
                let mut sid = 0u64;
                for _ in 0..intervals {
                    for e in sample_events(20) {
                        j.append_event(&e).unwrap();
                    }
                    for _ in 0..per_interval {
                        sid += 1;
                        j.frame_incidents(&[sample_incident(sid)]);
                    }
                    anchor = j.checkpoint().unwrap();
                }
                let digests = intervals as u64;
                assert_eq!(anchor.digest, anchor.last_record);
                let (_, rec) =
                    Journal::open_at(&path, JournalConfig::default(), &anchor, 20 * digests)
                        .unwrap()
                        .expect("the anchor holds");
                assert_eq!(rec.reads, digests + 1, "{per_interval} × {intervals}");
                assert_eq!(rec.chained_incidents, sid);

                // An interval that raised nothing frames no digest.
                for e in sample_events(20) {
                    j.append_event(&e).unwrap();
                }
                let quiet = j.checkpoint().unwrap();
                assert_eq!((quiet.digest, quiet.incidents), (anchor.digest, sid));
                drop(j);
                let (_, rec) =
                    Journal::open_at(&path, JournalConfig::default(), &quiet, 20 * digests + 20)
                        .unwrap()
                        .expect("the anchor holds");
                assert_eq!(rec.reads, digests + 2);
                assert_eq!(rec.chained_incidents, sid);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_tail_past_the_anchor_is_cut_where_the_full_scan_cuts_it() {
        let path = tmp("anchored-torn");
        // The tear's length: inside the first record past the anchor,
        // inside a later one, inside the incident record, all of it.
        for torn in [1, 11, 30, 60, 150, 400] {
            let _ = std::fs::remove_file(&path);
            let config = JournalConfig {
                sync_every: usize::MAX,
            };
            let (mut j, _) = Journal::open(&path, config).unwrap();
            for e in sample_events(9) {
                j.append_event(&e).unwrap();
            }
            j.append_incident(&sample_incident(1)).unwrap();
            let anchor = j.checkpoint().unwrap();
            for e in sample_events(4) {
                j.append_event(&e).unwrap();
            }
            j.frame_incidents(&[sample_incident(2)]);
            j.append_event(&sample_events(1)[0]).unwrap();
            j.simulate_crash(torn);
            let rec = assert_open_at_matches_the_full_scan(&path, &anchor, 9);
            assert_eq!(rec.bytes_truncated > 0, torn < 400, "{torn} torn bytes");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_then_retried_sync_moves_no_offset() {
        let path = tmp("anchored-resync");
        let _ = std::fs::remove_file(&path);
        let config = JournalConfig {
            sync_every: usize::MAX,
        };
        let (mut j, _) = Journal::open(&path, config).unwrap();
        let events = sample_events(6);
        for e in &events[..3] {
            j.append_event(e).unwrap();
        }
        j.append_incident(&sample_incident(1)).unwrap();
        for e in &events[3..5] {
            j.append_event(e).unwrap();
        }
        // An incident and the digest of both are pending when the
        // checkpoint's sync fails, part of the batch already in the
        // file...
        j.frame_incidents(&[sample_incident(2)]);
        let mut writable = std::mem::replace(&mut j.file, File::open(&path).unwrap());
        assert!(matches!(j.checkpoint(), Err(JournalError::Io(_))));
        writable.write_all(&j.pending[..10]).unwrap();
        writable.sync_data().unwrap();
        j.file = writable;
        // ...and another incident is framed behind it before the retry,
        // whose digest links to where the first one *will* be.
        j.frame_incidents(&[sample_incident(3)]);
        let anchor = j.checkpoint().unwrap();
        assert_eq!(anchor.incidents, 3);
        j.append_event(&events[5]).unwrap();
        drop(j);
        assert_eq!(
            digest_chain(&std::fs::read(&path).unwrap(), &anchor).len(),
            2
        );
        // The chain walks: every digest sits where its link says.
        let rec = assert_open_at_matches_the_full_scan(&path, &anchor, 5);
        let sids: Vec<u64> = rec.incidents.iter().map(|i| i.sid).collect();
        assert_eq!(sids, [1, 2, 3]);
        let _ = std::fs::remove_file(&path);
    }

    /// `(offset, rtype)` of every record in a journal file's bytes.
    fn record_offsets(bytes: &[u8]) -> Vec<(u64, u8)> {
        let (mut at, mut out) = (HEAD_LEN, Vec::new());
        while at + HEADER_LEN < bytes.len() {
            out.push((at as u64, bytes[at + HEADER_LEN]));
            at += HEADER_LEN + header(&bytes[at..]).0;
        }
        out
    }

    /// Writes `patch` into the body of the record at `at`, `offset`
    /// bytes past its `rtype`, and fixes its CRC: a record that frames
    /// and says something else.
    fn forge(bytes: &mut [u8], at: u64, offset: usize, patch: &[u8]) {
        let at = at as usize;
        let end = at + HEADER_LEN + header(&bytes[at..]).0;
        let body = at + HEADER_LEN + 1 + offset;
        bytes[body..body + patch.len()].copy_from_slice(patch);
        let crc = crc32(&bytes[at + HEADER_LEN..end]);
        bytes[at + 4..at + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    }

    /// Points the digest at `at` back to `(prev, prev_len)`, CRC and all.
    fn relink(bytes: &mut [u8], at: u64, prev: u64, prev_len: u32) {
        let link = [prev.to_le_bytes().as_slice(), &prev_len.to_le_bytes()].concat();
        forge(bytes, at, 0, &link);
    }

    /// Why `open_at` refuses `anchor` on the file at `path` — which it
    /// must, without changing a byte of it.
    fn refusal(path: &Path, anchor: &JournalAnchor) -> AnchorRefused {
        let before = std::fs::read(path).unwrap();
        let opened = Journal::open_at(path, JournalConfig::default(), anchor, 0).unwrap();
        let Err(why) = opened.map(|_| ()) else {
            panic!("a hostile anchor was honoured: {anchor:?}");
        };
        assert_eq!(
            std::fs::read(path).unwrap(),
            before,
            "a refusal leaves the file alone"
        );
        why
    }

    #[test]
    fn hostile_anchors_and_digests_are_refused_with_the_file_untouched() {
        use AnchorRefused::{BoundaryMismatch, BrokenLink, JournalShort};
        let path = tmp("hostile");
        // Four checkpoints with incidents before each: the anchor is the
        // third's, three digests long; the fourth's digest lies past it.
        let checkpoints = [10, 20, 30, 45];
        let anchors = journal_with_checkpoints(&path, 60, &checkpoints, |i| i % 3 == 2);
        let (good, later) = (anchors[2], anchors[3]);
        // A torn tail, to see that a refusal does not cut it either.
        let mut pristine = std::fs::read(&path).unwrap();
        pristine.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&path, &pristine).unwrap();
        let len = pristine.len() as u64;
        let records = record_offsets(&pristine);
        let chain = digest_chain(&pristine, &good);
        assert_eq!(chain.len(), 3);
        assert_eq!(good.digest, good.last_record, "the boundary is the digest");
        let before = |rtype: u8| {
            let of_type = |&&(at, t): &&(u64, u8)| t == rtype && at < good.last_record;
            records.iter().rev().find(of_type).unwrap().0
        };
        let length = |at: u64| header(&pristine[at as usize..]).0 as u32;
        let (event, incident) = (before(EVENT), before(INCIDENT));
        let tail_incident = records
            .iter()
            .find(|&&(at, t)| t == INCIDENT && at >= good.offset)
            .unwrap()
            .0;

        // The anchor lies; the file is as it was written.
        fn with(mut anchor: JournalAnchor, lie: impl FnOnce(&mut JournalAnchor)) -> JournalAnchor {
            lie(&mut anchor);
            anchor
        }
        let lies = [
            // Past the end of the file.
            (with(good, |a| a.offset = len + 1), JournalShort),
            (with(good, |a| a.offset = u64::MAX), JournalShort),
            // Inside a record, before the head's end, at no boundary.
            (with(good, |a| a.offset = good.offset + 3), BoundaryMismatch),
            (with(good, |a| a.offset = good.offset - 1), BoundaryMismatch),
            (with(good, |a| a.offset = 4), BoundaryMismatch),
            (with(good, |a| a.offset = 0), BoundaryMismatch),
            // The last record is not where the anchor says.
            (
                with(good, |a| a.last_record = good.last_record + 1),
                BoundaryMismatch,
            ),
            (with(good, |a| a.last_record = event), BoundaryMismatch),
            (with(good, |a| a.last_record = 0), BoundaryMismatch),
            (with(good, |a| a.last_record = 5), BoundaryMismatch),
            (
                with(good, |a| a.last_record = good.offset),
                BoundaryMismatch,
            ),
            (with(good, |a| a.last_record = u64::MAX), BoundaryMismatch),
            // The count is one too high, one too low, or all wrong.
            (with(good, |a| a.incidents = good.incidents + 1), BrokenLink),
            (with(good, |a| a.incidents = good.incidents - 1), BrokenLink),
            (with(good, |a| a.incidents = 0), BrokenLink),
            (with(good, |a| a.incidents = u64::MAX), BrokenLink),
            // No digest, or half a link.
            (
                with(good, |a| (a.digest, a.digest_len) = (0, 0)),
                BrokenLink,
            ),
            (with(good, |a| a.digest = 0), BrokenLink),
            (with(good, |a| a.digest_len = 0), BrokenLink),
            // The head is no digest before the anchor: below the head,
            // an event, an incident, an older digest under the newest's
            // length, a digest or an incident past the anchor.
            (with(good, |a| a.digest = 3), BrokenLink),
            (
                with(good, |a| (a.digest, a.digest_len) = (event, length(event))),
                BrokenLink,
            ),
            (
                with(good, |a| {
                    (a.digest, a.digest_len) = (incident, length(incident))
                }),
                BrokenLink,
            ),
            (with(good, |a| a.digest = chain[1].0), BrokenLink),
            (
                with(good, |a| {
                    (a.digest, a.digest_len) = (later.digest, later.digest_len)
                }),
                BrokenLink,
            ),
            (
                with(good, |a| {
                    (a.digest, a.digest_len) = (tail_incident, length(tail_incident))
                }),
                BrokenLink,
            ),
            // A length past MAX_RECORD_LEN, or not the record's.
            (
                with(good, |a| a.digest_len = MAX_RECORD_LEN as u32 + 1),
                BrokenLink,
            ),
            (with(good, |a| a.digest_len = u32::MAX), BrokenLink),
            (
                with(good, |a| a.digest_len = good.digest_len - 1),
                BrokenLink,
            ),
        ];
        for (anchor, expect) in lies {
            assert_eq!(refusal(&path, &anchor), expect, "{anchor:?}");
        }

        // The anchor is true; a digest is not what it was.
        let [(head, _), (second, second_len), (third, _)] = chain[..] else {
            panic!("three digests");
        };
        let second_len = second_len as u32;
        let count = |at: u64| {
            let at = at as usize + HEADER_LEN + 1 + 12;
            u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap())
        };
        let second_count = count(second);
        let (head_len, event_len, incident_len) = (length(head), length(event), length(incident));
        let last = good.last_record as usize;
        type Forgery = Box<dyn Fn(&mut [u8])>;
        let forgeries: [(Forgery, AnchorRefused); 19] = [
            // A link that does not decrease: to itself, forward, below
            // the head.
            (
                Box::new(move |b| relink(b, head, head, head_len)),
                BrokenLink,
            ),
            (
                Box::new(move |b| relink(b, second, head, head_len)),
                BrokenLink,
            ),
            (Box::new(move |b| relink(b, third, 3, 20)), BrokenLink),
            // A link to a record that is no digest.
            (
                Box::new(move |b| relink(b, head, event, event_len)),
                BrokenLink,
            ),
            (
                Box::new(move |b| relink(b, second, incident, incident_len)),
                BrokenLink,
            ),
            // A length past MAX_RECORD_LEN, or one off the record's.
            (
                Box::new(move |b| relink(b, head, second, MAX_RECORD_LEN as u32 + 1)),
                BrokenLink,
            ),
            (
                Box::new(move |b| relink(b, head, second, second_len + 1)),
                BrokenLink,
            ),
            (
                Box::new(move |b| relink(b, head, second, second_len - 1)),
                BrokenLink,
            ),
            // Half a link; no link where there was one, so the counts
            // fall short of the anchor's.
            (Box::new(move |b| relink(b, second, third, 0)), BrokenLink),
            (Box::new(move |b| relink(b, second, 0, 0)), BrokenLink),
            // A count that disagrees with the body: one more, one fewer
            // (a body left over), none.
            (
                Box::new(move |b| forge(b, second, 12, &(second_count + 1).to_le_bytes())),
                BrokenLink,
            ),
            (
                Box::new(move |b| forge(b, second, 12, &(second_count - 1).to_le_bytes())),
                BrokenLink,
            ),
            (Box::new(move |b| forge(b, third, 12, &[0; 4])), BrokenLink),
            // An undecodable body: an unknown action in its first
            // incident, invalid UTF-8 in its name.
            (
                Box::new(move |b| forge(b, head, DIGEST_HEAD_LEN + 36, &[9])),
                BrokenLink,
            ),
            (
                Box::new(move |b| forge(b, second, DIGEST_HEAD_LEN + 49, &[0xFF])),
                BrokenLink,
            ),
            // A flipped bit in a digest behind the anchor: its body, its
            // length.
            (
                Box::new(move |b| b[second as usize + 40] ^= 0x10),
                BrokenLink,
            ),
            (Box::new(move |b| b[third as usize + 3] ^= 0x80), BrokenLink),
            // A flipped bit in the record that ends at the anchor: its
            // body, its length.
            (
                Box::new(move |b| b[last + HEADER_LEN + 3] ^= 0x04),
                BoundaryMismatch,
            ),
            (Box::new(move |b| b[last] ^= 0x01), BoundaryMismatch),
        ];
        for (i, (forge, expect)) in forgeries.iter().enumerate() {
            let mut bytes = pristine.clone();
            forge(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(refusal(&path, &good), *expect, "forgery {i}");
        }

        // A far larger file whose anchor names a "record" longer than
        // any: refused on arithmetic, before a buffer is sized by it.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(4 << 20).unwrap();
        drop(file);
        let huge = with(good, |a| a.offset = 4 << 20);
        assert_eq!(refusal(&path, &huge), BoundaryMismatch);

        // Another run's journal under this run's anchor.
        std::fs::write(&path, &pristine).unwrap();
        let other = tmp("hostile-other");
        let _ = std::fs::remove_file(&other);
        {
            let (mut j, _) = Journal::open(&other, JournalConfig::default()).unwrap();
            for i in 0..200u32 {
                j.append_event(&ProcessEvent::spawn(u64::from(i), i, "another-run.exe"))
                    .unwrap();
            }
        }
        assert_eq!(refusal(&other, &good), BoundaryMismatch);

        // And every true anchor on the true file still opens, to what
        // the full scan finds.
        for (anchor, events) in anchors.iter().zip(checkpoints) {
            assert_open_at_matches_the_full_scan(&path, anchor, events);
        }

        // A digest with a byte left over, whole and anchored: the
        // boundary holds, the digest does not decode.
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        j.append_event(&sample_events(1)[0]).unwrap();
        j.frame_incidents(&[sample_incident(1)]);
        let bodies = std::mem::take(&mut j.undigested);
        j.undigested_ends.clear();
        let at = j.frame_in_place(DIGEST, |out| {
            out.extend_from_slice(&[0; 8 + 4]);
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&bodies);
            out.push(0);
        });
        let len = (1 + DIGEST_HEAD_LEN + bodies.len() + 1) as u32;
        j.digest = Link { at, len };
        let leftover = j.checkpoint().unwrap();
        drop(j);
        assert_eq!(refusal(&path, &leftover), BrokenLink);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&other);
    }

    #[test]
    fn a_journal_of_the_previous_format_is_refused_untouched() {
        let path = tmp("old-magic");
        anchored_journal(&path, 10, 5, |i| i == 2);
        // The magics before this one spelled the format's version, 1
        // to 4.
        let mut bytes = std::fs::read(&path).unwrap();
        for version in b'1'..=b'4' {
            bytes[JOURNAL_MAGIC.len() - 1] = version;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                Journal::open(&path, JournalConfig::default()),
                Err(JournalError::BadMagic)
            ));
            assert!(matches!(Journal::head(&path), Err(JournalError::BadMagic)));
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "refused, not cut");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Incidents whose bodies exercise every field: each action × each
    /// outcome, names absent, empty, non-ASCII and as long as the
    /// length field allows, floats that JSON cannot carry.
    fn codec_incidents() -> Vec<Incident> {
        let actions = [
            ActionTaken::Logged,
            ActionTaken::Killed,
            ActionTaken::Quarantined,
            ActionTaken::Suppressed,
        ];
        let outcomes = [
            ActionOutcome::NotAttempted,
            ActionOutcome::Applied {
                receipt: "/var/sandbox/évil.exe".to_string(),
                calls_seen: 1,
            },
            ActionOutcome::Applied {
                receipt: String::new(),
                calls_seen: u64::MAX,
            },
            ActionOutcome::Failed("kill(4242): ESRCH — no such process".to_string()),
        ];
        let names = [
            None,
            Some(String::new()),
            Some("шифровальщик-🔒.exe".to_string()),
            Some("x".repeat(MAX_NAME_LEN)),
        ];
        let floats = [
            (0.97, 12.5),
            (f64::NAN, f64::INFINITY),
            (f64::NEG_INFINITY, -0.0),
            (
                f64::from_bits(0x7FF0_0000_0000_0001),
                f64::MIN_POSITIVE / 2.0,
            ),
        ];
        let mut incidents = Vec::new();
        for (i, action) in actions.iter().enumerate() {
            for (j, outcome) in outcomes.iter().enumerate() {
                for (k, name) in names.iter().enumerate() {
                    let (probability, inference_us) = floats[(i + j + k) % floats.len()];
                    incidents.push(Incident {
                        sid: u64::MAX - (i * 16 + j * 4 + k) as u64,
                        pid: u32::MAX - k as u32,
                        name: name.clone(),
                        alert: Alert {
                            at_call: usize::MAX - j,
                            probability,
                            inference_us,
                        },
                        action: *action,
                        outcome: outcome.clone(),
                        post_exit: (i + j + k) % 2 == 1,
                    });
                }
            }
        }
        incidents
    }

    /// `a == b` with the floats compared by their bits (NaN ≠ NaN, and
    /// −0.0 = 0.0, under `PartialEq`).
    fn same_bits(a: &Incident, b: &Incident) -> bool {
        let bits = |i: &Incident| {
            (
                i.alert.probability.to_bits(),
                i.alert.inference_us.to_bits(),
            )
        };
        let plain = |i: &Incident| Incident {
            alert: Alert {
                probability: 0.0,
                inference_us: 0.0,
                ..i.alert
            },
            ..i.clone()
        };
        bits(a) == bits(b) && plain(a) == plain(b)
    }

    /// A record payload — `rtype` and body — for `incident`.
    fn incident_payload(incident: &Incident) -> Vec<u8> {
        let mut payload = vec![INCIDENT];
        encode_incident(incident, &mut payload);
        payload
    }

    /// A digest record's payload: the link, `count`, the bodies of
    /// `incidents` and `extra` bytes.
    fn digest_payload(prev: Link, count: u32, incidents: &[Incident], extra: &[u8]) -> Vec<u8> {
        let mut payload = vec![DIGEST];
        payload.extend_from_slice(&prev.at.to_le_bytes());
        payload.extend_from_slice(&prev.len.to_le_bytes());
        payload.extend_from_slice(&count.to_le_bytes());
        for incident in incidents {
            encode_incident(incident, &mut payload);
        }
        payload.extend_from_slice(extra);
        payload
    }

    #[test]
    fn incident_bodies_round_trip_bit_for_bit() {
        let incidents = codec_incidents();
        for (i, incident) in incidents.iter().enumerate() {
            let payload = incident_payload(incident);
            assert!(payload.len() <= MAX_RECORD_LEN);
            let back = decode_incident(&payload).expect("decodes");
            assert!(same_bits(&back, incident), "{i}: {back:?}");
        }
        // And in a digest, back to back.
        let small: Vec<Incident> = incidents
            .into_iter()
            .filter(|i| i.name.as_ref().is_none_or(|n| n.len() < 100))
            .collect();
        let prev = Link { at: 40, len: 77 };
        let payload = digest_payload(prev, small.len() as u32, &small, &[]);
        let mut back = Vec::new();
        assert_eq!(decode_digest(&payload, &mut back), Some(prev));
        assert_eq!(back.len(), small.len());
        assert!(back.iter().zip(&small).all(|(a, b)| same_bits(a, b)));
        // The largest body there is fits a digest of its own, and that
        // digest is the largest record there is.
        let largest = Incident {
            name: Some("n".repeat(MAX_NAME_LEN)),
            outcome: ActionOutcome::Failed("t".repeat(MAX_TEXT_LEN)),
            ..sample_incident(1)
        };
        let payload = incident_payload(&largest);
        assert_eq!(payload.len(), 1 + MAX_INCIDENT_BODY);
        assert_eq!(decode_incident(&payload).unwrap(), largest);
        let one = std::slice::from_ref(&largest);
        let payload = digest_payload(Link::default(), 1, one, &[]);
        assert_eq!(payload.len(), MAX_RECORD_LEN);
        let mut back = Vec::new();
        assert_eq!(decode_digest(&payload, &mut back), Some(Link::default()));
        assert_eq!(back, one);
    }

    #[test]
    fn hostile_digest_bodies_are_refused() {
        let incidents = [
            sample_incident(1),
            Incident {
                name: None,
                ..sample_incident(2)
            },
        ];
        let link = Link { at: 40, len: 77 };
        let good = digest_payload(link, 2, &incidents, &[]);
        assert_eq!(decode_digest(&good, &mut Vec::new()), Some(link));
        // Every truncation, the type tag alone included.
        for len in 0..good.len() {
            assert!(
                decode_digest(&good[..len], &mut Vec::new()).is_none(),
                "cut at {len}"
            );
        }
        let hostile = [
            // A count one short (a body left over), one long, none, all.
            digest_payload(link, 1, &incidents, &[]),
            digest_payload(link, 3, &incidents, &[]),
            digest_payload(link, 0, &incidents, &[]),
            digest_payload(link, 0, &[], &[]),
            digest_payload(link, u32::MAX, &incidents, &[]),
            // Half a link.
            digest_payload(Link { at: 40, len: 0 }, 2, &incidents, &[]),
            digest_payload(Link { at: 0, len: 77 }, 2, &incidents, &[]),
            // A byte left over.
            digest_payload(link, 2, &incidents, &[0]),
        ];
        for (i, payload) in hostile.iter().enumerate() {
            assert!(
                decode_digest(payload, &mut Vec::new()).is_none(),
                "forgery {i}"
            );
        }
        // An undecodable incident inside: an unknown action tag.
        let mut bad = good.clone();
        bad[1 + DIGEST_HEAD_LEN + 36] = 7;
        assert!(decode_digest(&bad, &mut Vec::new()).is_none());
        // In a file, the scan stops at such a record, CRC and all.
        let path = tmp("hostile-digest");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        j.append_event(&ProcessEvent::api(1, 2, 3)).unwrap();
        j.frame_in_place(DIGEST, |out| out.extend_from_slice(&good[1..]));
        for payload in hostile.iter().chain([&bad]) {
            j.frame_in_place(DIGEST, |out| out.extend_from_slice(&payload[1..]));
        }
        drop(j);
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!((rec.event_count(), rec.incidents.len()), (1, 0));
        let whole = HEAD_LEN + 2 * HEADER_LEN + 18 + good.len();
        assert!(rec.bytes_truncated > 0 && rec.bytes_scanned > whole as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// An event record is refused on the wire decoder's terms: a byte
    /// left over after the event's body ends the valid prefix, CRC and
    /// all, as it ends a frame on the socket.
    #[test]
    fn an_event_record_with_a_byte_left_over_ends_the_valid_prefix() {
        let path = tmp("event-leftover");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        j.append_event(&ProcessEvent::api(1, 2, 3)).unwrap();
        j.frame_in_place(EVENT, |out| {
            encode_payload(&ProcessEvent::exit(4, 2), out);
            out.push(0);
        });
        j.append_event(&ProcessEvent::exit(5, 2)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.events, [ProcessEvent::api(1, 2, 3)]);
        assert!(rec.bytes_truncated > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strings_past_their_length_field_are_cut_at_a_character_boundary() {
        // One byte, then three-byte characters across the cap.
        let long = format!("a{}", "€".repeat(MAX_TEXT_LEN / 3 + 2));
        let incident = Incident {
            name: Some(long.clone()),
            outcome: ActionOutcome::Applied {
                receipt: long.clone(),
                calls_seen: 0,
            },
            ..sample_incident(1)
        };
        let back = decode_incident(&incident_payload(&incident)).unwrap();
        let name = back.name.unwrap();
        let ActionOutcome::Applied { receipt: text, .. } = back.outcome else {
            panic!("the outcome kind survives");
        };
        for (cut, max) in [(&name, MAX_NAME_LEN), (&text, MAX_TEXT_LEN)] {
            assert!(long.starts_with(cut.as_str()));
            assert!(cut.len() <= max && cut.len() + 3 > max, "{}", cut.len());
        }
    }

    #[test]
    fn hostile_incident_bodies_are_refused() {
        let incident = Incident {
            name: Some("évil.exe".to_string()),
            ..sample_incident(7)
        };
        let good = incident_payload(&incident);
        assert!(decode_incident(&good).is_some());
        // Every truncation, the type tag alone included.
        for len in 0..good.len() {
            assert!(decode_incident(&good[..len]).is_none(), "cut at {len}");
        }
        // A byte left over.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_incident(&long).is_none());
        // Field offsets in the payload (after the type tag).
        let (action, post_exit, outcome, name_len) = (37, 38, 39, 48);
        let name_at = name_len + 2;
        let text_len = name_at + "évil.exe".len();
        let forged = |at: usize, bytes: &[u8]| {
            let mut p = good.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            p
        };
        let hostile = [
            // Unknown tags.
            forged(action, &[4]),
            forged(action, &[0xFF]),
            forged(post_exit, &[2]),
            forged(outcome, &[3]),
            // No outcome text may ride on NotAttempted, and a kill point
            // only on Applied.
            forged(outcome, &[0]),
            forged(outcome, &[2]),
            // Lengths past the body, by one and by everything.
            forged(name_len, &((text_len - name_at + 1) as u16).to_le_bytes()),
            forged(name_len, &(NO_NAME - 1).to_le_bytes()),
            forged(text_len, &(good.len() - text_len - 1).to_le_bytes()[..2]),
            forged(text_len, &u16::MAX.to_le_bytes()),
            // Lengths short of the body: bytes left over.
            forged(text_len, &(good.len() - text_len - 3).to_le_bytes()[..2]),
            // "No name" with the name's bytes still there.
            forged(name_len, &NO_NAME.to_le_bytes()),
            // Invalid UTF-8: a lone continuation byte, a cut character.
            forged(name_at, &[0x80]),
            forged(name_at + 1, b"x"),
            forged(text_len + 2, &[0xC3]),
        ];
        for (i, payload) in hostile.iter().enumerate() {
            assert!(decode_incident(payload).is_none(), "forgery {i}");
        }
        // The same bytes are refused in a file too: the scan stops at
        // the record, CRC and all.
        let path = tmp("hostile-body");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        j.append_event(&ProcessEvent::api(1, 2, 3)).unwrap();
        for payload in &hostile {
            j.frame_in_place(INCIDENT, |out| out.extend_from_slice(&payload[1..]));
        }
        drop(j);
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!((rec.event_count(), rec.incidents.len()), (1, 0));
        assert!(rec.bytes_truncated > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incidents_reopen_to_the_same_vec_by_scan_and_from_an_anchor() {
        let path = tmp("codec-reopen");
        let _ = std::fs::remove_file(&path);
        let incidents = codec_incidents();
        let half = incidents.len() / 2;
        let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
        let mut anchor = JournalAnchor::default();
        for (i, incident) in incidents.iter().enumerate() {
            if i == half {
                anchor = j.checkpoint().unwrap();
            }
            j.append_event(&ProcessEvent::api(i as u64, 1, i)).unwrap();
            j.frame_incidents(std::slice::from_ref(incident));
        }
        drop(j);
        let (_, scanned) = Journal::open(&path, JournalConfig::default()).unwrap();
        let (_, anchored) = Journal::open_at(&path, JournalConfig::default(), &anchor, half as u64)
            .unwrap()
            .expect("the anchor holds");
        assert_eq!(scanned.bytes_truncated, 0);
        assert_eq!(anchored.chained_incidents, half as u64);
        // Eight of them carry a name as long as its length field
        // allows: the digest splits where the record would be too long.
        let chain = digest_chain(&std::fs::read(&path).unwrap(), &anchor);
        assert!(chain.len() >= 8, "{} digests", chain.len());
        assert!(chain.iter().all(|&(_, len)| len <= MAX_RECORD_LEN));
        assert_eq!(anchored.reads, 1 + chain.len() as u64);
        for rec in [&scanned, &anchored] {
            assert_eq!(rec.incidents.len(), incidents.len());
            assert!(rec
                .incidents
                .iter()
                .zip(&incidents)
                .all(|(a, b)| same_bits(a, b)));
        }
        let _ = std::fs::remove_file(&path);
    }
}
