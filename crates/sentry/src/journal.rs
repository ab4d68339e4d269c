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
//! The file opens with an 8-byte magic (`CSDJRNL3`) and then holds
//! back-to-back records, each framed with the same discipline as the
//! socket protocol in [`event`](crate::event):
//!
//! ```text
//! ┌────────────┬─────────────┬───────┬──────────────────────┐
//! │ len u32 LE │ crc32 u32 LE│ rtype │ body (len-1 bytes)   │
//! └────────────┴─────────────┴───────┴──────────────────────┘
//!   rtype 0 = Event    (body: the wire payload of the event)
//!   rtype 1 = Incident (body: the fixed layout below)
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
//!        0      8  prev          u64: file offset of the previous incident record, 0 = none
//!        8      8  sid           u64
//!       16      4  pid           u32
//!       20      8  at_call       u64
//!       28      8  probability   f64 bits
//!       36      8  inference_us  f64 bits
//!       44      1  action        0 Logged · 1 Killed · 2 Quarantined · 3 Suppressed
//!       45      1  post_exit     0 · 1
//!       46      1  outcome       0 NotAttempted · 1 Applied · 2 Failed
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
//! strings, whose lengths the body's own bytes bound.
//!
//! An incident record's `prev` is the file offset of the incident
//! record before it (0 for the first): the incidents form a chain
//! through the file, newest to oldest, so a reader that knows where the
//! newest one sits reaches all of them without reading the events in
//! between. That is the one incident record there is; a file with an
//! earlier magic — unlinked records (`1`), JSON bodies (`2`) — is
//! refused like any other foreign file.
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
//! explicit [`sync`](Journal::sync) or
//! [`append_incidents`](Journal::append_incidents) call, and on clean
//! shutdown (drop). A sync writes the whole pending tail, events and
//! incidents alike, so an incident framed into the tail without a
//! sync of its own becomes durable with the event batch around it —
//! which is how the serving path journals incidents: they ride the
//! batch's sync, and the [`durable`](crate::durable) layer above
//! holds each one back until [`Journal::pending_incidents`] says it is
//! on disk, forcing a sync only when one has waited past its commit
//! deadline.
//! A crash therefore loses at most `sync_every − 1` trailing event
//! records and the incident records framed among them plus, if the
//! crash interrupts a flush, a torn partial record at the tail.
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
//! the valid prefix. Everything before it is returned for replay;
//! everything after is counted in
//! [`JournalRecovery::bytes_truncated`] and physically removed, so the
//! next append extends a clean tail. This is the longest-valid-prefix
//! contract the torn-tail proptest pins: arbitrary truncation or byte
//! corruption of the tail never loses a record that was fully synced
//! before it.
//!
//! # Opening at an anchor
//!
//! The full scan costs time and memory in proportion to everything ever
//! journaled. A checkpoint records where its journal sync left the file
//! — a [`JournalAnchor`], read off [`Journal::anchor`] — and
//! [`Journal::open_at`] starts there: it reads back the record that
//! ends at the anchor to see that the file still frames to it, walks
//! the incident chain from the anchor's newest incident (one positional
//! read and one CRC check per incident), and then scans and, if torn,
//! truncates only the bytes past the anchor, exactly as the full scan
//! would. Event records before the anchor are not read at all. The
//! anchor is a hint about a file, never a source of data: whatever it
//! claims is checked against the bytes, and one that does not hold is
//! refused with an [`AnchorRefused`] — before anything was truncated —
//! so the caller can fall back to [`Journal::open`]. The full scan stays
//! the only way in without a checkpoint and the reference `open_at` is
//! tested against.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::actions::{ActionOutcome, ActionTaken, Incident};
use crate::event::{decode_payload, encode_payload, ProcessEvent};
use csd_accel::Alert;

/// Magic bytes opening every journal file (format version 3: incident
/// records carry a back-link and a fixed-layout body).
pub const JOURNAL_MAGIC: &[u8; 8] = b"CSDJRNL3";

/// Upper bound on one record's `rtype + body` length: the largest
/// record there can be, an incident whose name and outcome text are
/// both as long as their length fields allow (131,121 bytes). A torn or
/// hostile length prefix beyond it ends the valid prefix.
pub const MAX_RECORD_LEN: usize = 1 + INCIDENT_FIXED_LEN + 2 + MAX_NAME_LEN + 2 + MAX_TEXT_LEN;

/// Bytes of a record before its `rtype`: length and CRC.
const HEADER_LEN: usize = 8;

/// Bytes of an incident record's payload before the rest of its body:
/// `rtype` and the back-link.
const LINK_LEN: usize = 1 + 8;

/// Bytes of an incident body before its two strings (see the
/// [module docs](self#record-format)).
const INCIDENT_FIXED_LEN: usize = 8 + 8 + 4 + 8 + 8 + 8 + 3;

/// An incident body's name length that stands for "no name".
const NO_NAME: u16 = u16::MAX;

/// The longest name and outcome text an incident body holds, in bytes.
const MAX_NAME_LEN: usize = NO_NAME as usize - 1;
const MAX_TEXT_LEN: usize = u16::MAX as usize;

/// What one hop of the chain walk reads before it knows the record's
/// length: several times a usual incident record (≈ 80 bytes), so a
/// hop is one read.
const HOP_READ: u64 = 512;

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
    /// A checkpoint could not be serialized. (Journal records always
    /// encode.)
    Encode(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::BadMagic => write!(f, "file is not a csd-sentry journal"),
            JournalError::Encode(e) => write!(f, "checkpoint failed to encode: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Where a sync left the journal file: what a checkpoint records so the
/// next [`open_at`](Journal::open_at) can start there. All four are
/// file offsets or counts of *synced* bytes; 0 stands for "none", and
/// an anchor whose `offset` is 0 for "no anchor".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalAnchor {
    /// The file's synced length: every byte before it is durable and
    /// the last of them ends a record.
    #[serde(default)]
    pub offset: u64,
    /// Incident records before `offset`.
    #[serde(default)]
    pub incidents: u64,
    /// Offset of the newest incident record before `offset` — the head
    /// of the chain — or 0 if there is none.
    #[serde(default)]
    pub last_incident: u64,
    /// Offset of the last record before `offset`, or 0 if the file held
    /// only its magic.
    #[serde(default)]
    pub last_record: u64,
}

/// Why [`Journal::open_at`] would not start from an anchor. Nothing
/// was truncated or written when one of these comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AnchorRefused {
    /// The file is shorter than the anchor's offset: the anchor was
    /// taken of a longer file than this one.
    JournalShort,
    /// No record ends exactly at the anchor's offset — its start,
    /// length or CRC do not read back — so the anchor does not
    /// describe this file.
    BoundaryMismatch,
    /// The incident chain does not hold: a link that does not point at
    /// an earlier incident record with a good CRC, or a chain longer or
    /// shorter than the anchor's count.
    BrokenLink,
}

/// What [`Journal::open`] or [`Journal::open_at`] recovered from an
/// existing file.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every valid event record scanned, in append order: all of the
    /// file's for [`open`](Journal::open), those past the anchor for
    /// [`open_at`](Journal::open_at).
    pub events: Vec<ProcessEvent>,
    /// Every incident record in the file, in append order: the chained
    /// ones first, then the scanned ones.
    pub incidents: Vec<Incident>,
    /// How many of `incidents` were reached by back-links from the
    /// anchor instead of by the scan (0 for a full scan).
    pub chained_incidents: u64,
    /// Bytes read from the file: all of it for a full scan; the magic,
    /// the boundary record, one read per chained incident and the bytes
    /// past the anchor otherwise.
    pub bytes_scanned: u64,
    /// Bytes discarded past the longest valid prefix (0 for a clean
    /// shutdown).
    pub bytes_truncated: u64,
}

impl JournalRecovery {
    /// The recovered events, in append order.
    pub fn events(&self) -> impl Iterator<Item = &ProcessEvent> {
        self.events.iter()
    }

    /// The recovered incidents, in append order.
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter()
    }

    /// Recovered event-record count.
    pub fn event_count(&self) -> u64 {
        self.events.len() as u64
    }
}

/// Journal tuning.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Event records buffered between fsync batches. `1` syncs every
    /// append (slow, loses nothing); larger values trade a bounded
    /// tail of re-sendable events for throughput. Incidents framed
    /// among the events share the batch's sync; how long one may wait
    /// for it is the durable layer's commit deadline, not a journal
    /// setting.
    pub sync_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self { sync_every: 256 }
    }
}

/// CRC-32 (IEEE 802.3, reflected) slice-by-8 tables, built at compile
/// time: `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[k][b]`
/// is entry `b` carried through `k` more zero bytes, so eight table
/// reads fold eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the same polynomial the device sim's
/// CRC-on-DMA check models, reused here as the record checksum. Eight
/// bytes a step (slice-by-8), then the bytewise step for the rest; the
/// value is the bytewise definition's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
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
    /// File offset of the newest incident record, durable or pending
    /// (0 = none): what the next one links back to.
    last_incident: u64,
    /// File offset of the newest record, durable or pending (0 = none).
    last_record: u64,
    /// fsync batches issued (for reports).
    syncs: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, recovering the
    /// longest valid record prefix and truncating any torn tail. The
    /// recovered records come back alongside the journal, positioned
    /// to append.
    pub fn open(
        path: &Path,
        config: JournalConfig,
    ) -> Result<(Self, JournalRecovery), JournalError> {
        let mut file = open_file(path)?;
        let len = file.metadata()?.len();
        // Where the records end: for now, where they start.
        let mut at = JournalAnchor {
            offset: JOURNAL_MAGIC.len() as u64,
            ..JournalAnchor::default()
        };
        let mut recovery = JournalRecovery {
            bytes_scanned: len.min(at.offset),
            ..JournalRecovery::default()
        };
        if len < at.offset {
            // Nothing, or a torn first write: nothing valid was ever
            // synced.
            recovery.bytes_truncated = len;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(JOURNAL_MAGIC)?;
            file.sync_data()?;
        } else {
            check_magic(&file)?;
            recover_tail(&mut file, &mut at, &mut recovery)?;
        }
        let events = recovery.event_count();
        Ok((Self::positioned(file, path, config, &at, events), recovery))
    }

    /// Opens the journal at `path` from `anchor`, which a checkpoint
    /// holding `events_before` events recorded: reads the incidents
    /// before the anchor by their back-links, scans — and, if torn,
    /// truncates — only what lies past it, and counts `events_before`
    /// for the event records it did not read. Everything the anchor
    /// says is checked against the file first (see the
    /// [module docs](self#opening-at-an-anchor)); an anchor that does
    /// not hold comes back as the inner `Err` with the file untouched,
    /// and the caller falls back to [`open`](Self::open).
    pub fn open_at(
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
        if let Err(refused) = walk_chain(&file, anchor, &mut buf, &mut recovery)? {
            return Ok(Err(refused));
        }
        let mut at = *anchor;
        recover_tail(&mut file, &mut at, &mut recovery)?;
        let events = events_before + recovery.event_count();
        Ok(Ok((
            Self::positioned(file, path, config, &at, events),
            recovery,
        )))
    }

    /// A journal standing at `at` — the end of the file's valid records
    /// — with `events` event records before it.
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
            last_incident: at.last_incident,
            last_record: at.last_record,
            syncs: 0,
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

    /// Where the file stands, for a checkpoint to record. It describes
    /// synced bytes, so it is taken with nothing pending — right after
    /// a [`sync`](Self::sync). (Taken at any other time it names
    /// records the file does not hold yet, and
    /// [`open_at`](Self::open_at) will refuse it.)
    pub fn anchor(&self) -> JournalAnchor {
        debug_assert!(self.pending.is_empty(), "an anchor describes synced bytes");
        JournalAnchor {
            offset: self.synced_len,
            incidents: self.durable_incidents,
            last_incident: self.last_incident,
            last_record: self.last_record,
        }
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
    /// sync point (every `sync_every` events, `sync`,
    /// `append_incidents`, or clean drop).
    pub fn append_event(&mut self, event: &ProcessEvent) -> Result<(), JournalError> {
        self.frame_in_place(0, |out| encode_payload(event, out));
        self.pending_events += 1;
        if self.pending_events >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one incident record and forces a sync: an incident is
    /// never left in the volatile tail.
    pub fn append_incident(&mut self, incident: &Incident) -> Result<(), JournalError> {
        self.append_incidents(std::slice::from_ref(incident))
    }

    /// Appends `incidents` and forces one sync for all of them: none is
    /// left in the volatile tail. No-op for an empty slice. Recovery
    /// replay journals what it raises this way; the serving calls of
    /// [`DurableSentry`](crate::durable::DurableSentry) frame theirs
    /// without the sync and let them ride the event batch's.
    pub fn append_incidents(&mut self, incidents: &[Incident]) -> Result<(), JournalError> {
        if incidents.is_empty() {
            return Ok(());
        }
        self.frame_incidents(incidents);
        self.sync()
    }

    /// Frames `incidents` into the pending tail, each linked back to
    /// the incident record before it, and syncs nothing: they become
    /// durable with whatever sync comes next, and until then
    /// [`pending_incidents`](Self::pending_incidents) counts them. The
    /// caller must not hand them on before that.
    pub(crate) fn frame_incidents(&mut self, incidents: &[Incident]) {
        for incident in incidents {
            let prev = self.last_incident;
            self.last_incident = self.frame_in_place(1, |out| encode_incident(prev, incident, out));
            self.pending_incidents += 1;
        }
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

/// A file at least as long as the magic must start with it.
fn check_magic(file: &File) -> Result<(), JournalError> {
    let mut magic = [0u8; JOURNAL_MAGIC.len()];
    file.read_exact_at(&mut magic, 0)?;
    if &magic == JOURNAL_MAGIC {
        Ok(())
    } else {
        Err(JournalError::BadMagic)
    }
}

/// A record's length and CRC fields, from its first [`HEADER_LEN`]
/// bytes.
fn header(bytes: &[u8]) -> (usize, u32) {
    (
        u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize,
        u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
    )
}

/// Appends the body of an incident record linked back to `prev` (the
/// layout in the [module docs](self#record-format)).
fn encode_incident(prev: u64, incident: &Incident, out: &mut Vec<u8>) {
    let alert = &incident.alert;
    let action = match incident.action {
        ActionTaken::Logged => 0,
        ActionTaken::Killed => 1,
        ActionTaken::Quarantined => 2,
        ActionTaken::Suppressed => 3,
    };
    let (outcome, text) = match &incident.outcome {
        ActionOutcome::NotAttempted => (0, ""),
        ActionOutcome::Applied(text) => (1, text.as_str()),
        ActionOutcome::Failed(text) => (2, text.as_str()),
    };
    out.extend_from_slice(&prev.to_le_bytes());
    out.extend_from_slice(&incident.sid.to_le_bytes());
    out.extend_from_slice(&incident.pid.to_le_bytes());
    out.extend_from_slice(&(alert.at_call as u64).to_le_bytes());
    out.extend_from_slice(&alert.probability.to_bits().to_le_bytes());
    out.extend_from_slice(&alert.inference_us.to_bits().to_le_bytes());
    out.extend_from_slice(&[action, u8::from(incident.post_exit), outcome]);
    match &incident.name {
        Some(name) => put_str(name, MAX_NAME_LEN, out),
        None => out.extend_from_slice(&NO_NAME.to_le_bytes()),
    }
    put_str(text, MAX_TEXT_LEN, out);
}

/// Appends `s` as a `u16` length and its UTF-8, cut to at most `max`
/// (≤ `u16::MAX`) bytes at a character boundary.
fn put_str(s: &str, max: usize, out: &mut Vec<u8>) {
    let len = s.floor_char_boundary(max);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// An incident record's payload (`rtype` included): its back-link and
/// the incident. `None` unless the body is exactly what
/// [`encode_incident`] writes for some incident.
fn decode_incident(payload: &[u8]) -> Option<(u64, Incident)> {
    let mut body = Fields(payload.get(1..)?);
    let prev = body.u64()?;
    let sid = body.u64()?;
    let pid = u32::from_le_bytes(body.array()?);
    let at_call = usize::try_from(body.u64()?).ok()?;
    let probability = f64::from_bits(body.u64()?);
    let inference_us = f64::from_bits(body.u64()?);
    let [action, post_exit, outcome] = body.array()?;
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
    let name = match u16::from_le_bytes(body.array()?) {
        NO_NAME => None,
        len => Some(body.str(len)?.to_string()),
    };
    let len = u16::from_le_bytes(body.array()?);
    let text = body.str(len)?;
    let outcome = match outcome {
        0 if text.is_empty() => ActionOutcome::NotAttempted,
        1 => ActionOutcome::Applied(text.to_string()),
        2 => ActionOutcome::Failed(text.to_string()),
        _ => return None,
    };
    if !body.0.is_empty() {
        return None;
    }
    let incident = Incident {
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
    };
    Some((prev, incident))
}

/// The fields of an incident body not read yet.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The next `n` bytes, if the body has them.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn str(&mut self, len: u16) -> Option<&'a str> {
        std::str::from_utf8(self.take(usize::from(len))?).ok()
    }
}

/// The anchor is trusted only for a file that frames to it: the magic
/// is ours, and the record the anchor names as the last one before its
/// offset is there — starting where it says, exactly as long as it
/// says, with a good CRC. The file is already known to be
/// `anchor.offset` long.
fn verify_boundary(
    file: &File,
    anchor: &JournalAnchor,
    buf: &mut Vec<u8>,
    recovery: &mut JournalRecovery,
) -> Result<Result<(), AnchorRefused>, JournalError> {
    const MISMATCH: Result<(), AnchorRefused> = Err(AnchorRefused::BoundaryMismatch);
    let magic_len = JOURNAL_MAGIC.len() as u64;
    if anchor.offset < magic_len {
        return Ok(MISMATCH);
    }
    check_magic(file)?;
    recovery.bytes_scanned += magic_len;
    if anchor.last_record == 0 {
        // An anchor taken of a journal without records.
        return Ok(if anchor.offset == magic_len {
            Ok(())
        } else {
            MISMATCH
        });
    }
    let Some(len) = anchor
        .offset
        .checked_sub(anchor.last_record)
        .and_then(|n| n.checked_sub(HEADER_LEN as u64))
        .filter(|&n| anchor.last_record >= magic_len && (1..=MAX_RECORD_LEN as u64).contains(&n))
    else {
        return Ok(MISMATCH);
    };
    buf.resize(HEADER_LEN + len as usize, 0);
    file.read_exact_at(buf, anchor.last_record)?;
    recovery.bytes_scanned += buf.len() as u64;
    let (framed_len, crc) = header(buf);
    if framed_len as u64 != len || crc32(&buf[HEADER_LEN..]) != crc {
        return Ok(MISMATCH);
    }
    Ok(Ok(()))
}

/// Follows the back-links from the anchor's newest incident to the
/// first, leaving the incidents in `recovery` oldest first. Each hop
/// must land on an incident record that starts at or past the magic,
/// ends no later than the record the walk came from starts (so offsets
/// strictly decrease and the walk ends), is at most
/// [`MAX_RECORD_LEN`] long and passes its CRC; and the chain must be
/// exactly as long as the anchor's count.
fn walk_chain(
    file: &File,
    anchor: &JournalAnchor,
    buf: &mut Vec<u8>,
    recovery: &mut JournalRecovery,
) -> Result<Result<(), AnchorRefused>, JournalError> {
    const BROKEN: Result<(), AnchorRefused> = Err(AnchorRefused::BrokenLink);
    let (mut at, mut bound) = (anchor.last_incident, anchor.offset);
    while at != 0 {
        if at < JOURNAL_MAGIC.len() as u64
            || at >= bound
            || recovery.chained_incidents == anchor.incidents
        {
            return Ok(BROKEN);
        }
        let room = bound - at;
        let first = room.min(HOP_READ) as usize;
        if first < HEADER_LEN + LINK_LEN {
            return Ok(BROKEN);
        }
        buf.resize(first, 0);
        file.read_exact_at(buf, at)?;
        let (len, crc) = header(buf);
        if len > MAX_RECORD_LEN || (HEADER_LEN + len) as u64 > room {
            return Ok(BROKEN);
        }
        if HEADER_LEN + len > first {
            buf.resize(HEADER_LEN + len, 0);
            file.read_exact_at(&mut buf[first..], at + first as u64)?;
        }
        recovery.bytes_scanned += buf.len() as u64;
        let payload = &buf[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != crc || payload.first() != Some(&1) {
            return Ok(BROKEN);
        }
        let Some((prev, incident)) = decode_incident(payload) else {
            return Ok(BROKEN);
        };
        recovery.incidents.push(incident);
        recovery.chained_incidents += 1;
        (at, bound) = (prev, at);
    }
    if recovery.chained_incidents != anchor.incidents {
        return Ok(BROKEN);
    }
    recovery.incidents.reverse();
    Ok(Ok(()))
}

/// Scans the file from `at.offset` to its end, appends the valid
/// records to `recovery`, cuts a torn tail off the file, and leaves
/// `at` — and the file's cursor — at the end of the valid prefix.
fn recover_tail(
    file: &mut File,
    at: &mut JournalAnchor,
    recovery: &mut JournalRecovery,
) -> Result<(), JournalError> {
    let from = at.offset;
    file.seek(SeekFrom::Start(from))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    scan_records(&bytes, at, recovery);
    recovery.bytes_scanned += bytes.len() as u64;
    recovery.bytes_truncated = from + bytes.len() as u64 - at.offset;
    if recovery.bytes_truncated > 0 {
        file.set_len(at.offset)?;
        file.sync_data()?;
    }
    file.seek(SeekFrom::Start(at.offset))?;
    Ok(())
}

/// Scans `bytes` — the file from `at.offset` on — record by record,
/// pushing decoded records and advancing `at` over the longest valid
/// prefix.
fn scan_records(bytes: &[u8], at: &mut JournalAnchor, recovery: &mut JournalRecovery) {
    let base = at.offset;
    let mut pos = 0usize;
    // Until a torn length/CRC prefix, or the clean end.
    while let Some(head) = bytes.get(pos..pos + HEADER_LEN) {
        let (len, crc) = header(head);
        if len == 0 || len > MAX_RECORD_LEN {
            break;
        }
        let Some(payload) = bytes.get(pos + HEADER_LEN..pos + HEADER_LEN + len) else {
            break; // Record cut mid-body.
        };
        if crc32(payload) != crc {
            break; // Flipped bits anywhere in the payload.
        }
        let offset = base + pos as u64;
        match payload[0] {
            0 => match decode_payload(&payload[1..]) {
                Ok(Some(event)) => recovery.events.push(event),
                _ => break,
            },
            1 => match decode_incident(payload) {
                Some((_, incident)) => {
                    recovery.incidents.push(incident);
                    at.incidents += 1;
                    at.last_incident = offset;
                }
                None => break,
            },
            _ => break, // Unknown record type: not ours.
        }
        at.last_record = offset;
        pos += HEADER_LEN + len;
    }
    at.offset = base + pos as u64;
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
            outcome: ActionOutcome::Applied("sandboxed".to_string()),
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
        let got: Vec<ProcessEvent> = rec.events().cloned().collect();
        assert_eq!(got, events);
        let incidents: Vec<&Incident> = rec.incidents().collect();
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

    /// The on-disk format, byte for byte: the magic, a spawn event,
    /// [`sample_incident`]`(3)` with no incident before it (`prev` 0),
    /// an API event, and [`sample_incident`]`(4)` linked back to the
    /// first one's offset, 40 = `0x28`. One record a line; an incident's
    /// body is split at `prev`, `sid`, `pid`, `at_call`, the two floats'
    /// bits, the three tags and the two strings. The two event records
    /// are byte for byte, CRC included, what every earlier format wrote:
    /// the event format has not changed.
    const GOLDEN: &str = "4353444a524e4c33
        18000000923d22d5000007000000000000009210000008006576696c2e657865
        45000000843ad420 01 0000000000000000 0300000000000000 92100000 6400000000000000
            0ad7a3703d0aef3f 0000000000002940 020001 08006576696c2e657865 090073616e64626f786564
        1200000031440bae000108000000000000009210000005000000
        45000000f368dbb7 01 2800000000000000 0400000000000000 92100000 6400000000000000
            0ad7a3703d0aef3f 0000000000002940 020001 08006576696c2e657865 090073616e64626f786564";

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
        let incidents = [sample_incident(1), sample_incident(2)];
        assert!(matches!(
            j.append_incidents(&incidents),
            Err(JournalError::Io(_))
        ));
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
        assert_eq!(rec.incidents().count(), 2);
        assert_eq!((j.durable_events(), j.durable_incidents()), (1, 2));
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
            let got: Vec<ProcessEvent> = rec.events().cloned().collect();
            assert_eq!(got, events, "{left} bytes left behind");
            assert_eq!(rec.bytes_truncated, 0);
            assert_eq!(j.durable_events(), 7, "the cursor is what recovery finds");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A journal of `n` events, an incident framed after each event
    /// `incident_after` picks, syncing every 8 events; the anchor is
    /// taken once `anchor_after` events are in, after the sync a
    /// checkpoint makes, and covers that many events.
    fn anchored_journal(
        path: &Path,
        n: usize,
        anchor_after: usize,
        incident_after: impl Fn(usize) -> bool,
    ) -> JournalAnchor {
        let _ = std::fs::remove_file(path);
        let (mut j, _) = Journal::open(path, JournalConfig { sync_every: 8 }).unwrap();
        let mut anchor = None;
        for (i, e) in sample_events(n).iter().enumerate() {
            if i == anchor_after {
                j.sync().unwrap();
                anchor = Some(j.anchor());
            }
            j.append_event(e).unwrap();
            if incident_after(i) {
                j.frame_incidents(&[sample_incident(i as u64)]);
            }
        }
        j.sync().unwrap();
        anchor.unwrap_or_else(|| j.anchor())
    }

    /// `open_at` against the full scan of a copy of the same file: the
    /// same incidents in the same order, the events past the anchor,
    /// the same truncation and counts, no more read than the anchor
    /// promises — and, since the links go on where they left off, the
    /// same file once both have appended the same records.
    fn assert_open_at_matches_the_full_scan(
        path: &Path,
        anchor: &JournalAnchor,
        events_before: usize,
    ) -> JournalRecovery {
        let copy = path.with_extension("copy");
        std::fs::copy(path, &copy).unwrap();
        let len = std::fs::metadata(path).unwrap().len();
        let (mut full, full_rec) = Journal::open(&copy, JournalConfig::default()).unwrap();
        let (mut at, at_rec) =
            Journal::open_at(path, JournalConfig::default(), anchor, events_before as u64)
                .unwrap()
                .expect("the anchor holds");
        assert_eq!(full_rec.bytes_scanned, len);
        assert_eq!(full_rec.chained_incidents, 0);
        assert_eq!(at_rec.incidents, full_rec.incidents);
        assert_eq!(at_rec.events[..], full_rec.events[events_before..]);
        assert_eq!(at_rec.bytes_truncated, full_rec.bytes_truncated);
        assert_eq!(at_rec.chained_incidents, anchor.incidents);
        // Read: the magic, the record at the boundary, the tail, and at
        // most a hop's worth per chained incident.
        let fixed = JOURNAL_MAGIC.len() as u64
            + (anchor.offset - anchor.last_record.max(JOURNAL_MAGIC.len() as u64))
            + (len - anchor.offset);
        assert!(
            (fixed..=fixed + HOP_READ * anchor.incidents).contains(&at_rec.bytes_scanned),
            "{} bytes read of {len}, anchor {anchor:?}",
            at_rec.bytes_scanned
        );
        assert_eq!(at.durable_events(), full.durable_events());
        assert_eq!(at.durable_incidents(), full.durable_incidents());
        assert_eq!(at.anchor(), full.anchor(), "both stand at the same place");
        for j in [&mut full, &mut at] {
            j.append_event(&ProcessEvent::api(99, 1, 2)).unwrap();
            j.append_incident(&sample_incident(999)).unwrap();
        }
        drop((full, at));
        assert_eq!(
            std::fs::read(path).unwrap(),
            std::fs::read(&copy).unwrap(),
            "the same records, linked the same way"
        );
        let _ = std::fs::remove_file(&copy);
        at_rec
    }

    #[test]
    fn open_at_recovers_what_the_full_scan_recovers() {
        let path = tmp("anchored");
        type Case = (usize, usize, fn(usize) -> bool);
        let cases: [Case; 6] = [
            // An anchor taken of an empty journal.
            (20, 0, |i| i % 3 == 2),
            // No incident anywhere.
            (20, 10, |_| false),
            // Incidents on both sides of the anchor.
            (40, 20, |i| i % 3 == 2),
            // Nothing past the anchor: a crash straight after the
            // checkpoint.
            (40, 40, |i| i % 3 == 2),
            // Many incidents before the anchor and none after.
            (60, 50, |i| i < 45),
            // The record that ends at the anchor is an incident.
            (30, 12, |i| i == 11 || i == 20),
        ];
        for (n, anchor_after, incident_after) in cases {
            let anchor = anchored_journal(&path, n, anchor_after, incident_after);
            let rec = assert_open_at_matches_the_full_scan(&path, &anchor, anchor_after);
            assert_eq!(rec.event_count(), (n - anchor_after) as u64);
            assert_eq!(
                rec.incidents.len(),
                (0..n).filter(|&i| incident_after(i)).count()
            );
        }
        // The head is not read: its size does not show in what was.
        let anchor = anchored_journal(&path, 5_000, 4_990, |i| i % 1_000 == 0);
        let rec = assert_open_at_matches_the_full_scan(&path, &anchor, 4_990);
        assert!(rec.bytes_scanned < 5 * HOP_READ + 1_024, "{rec:?}");
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
            let anchor = j.anchor();
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
        // An incident is pending when the sync fails, part of the batch
        // already in the file...
        j.frame_incidents(&[sample_incident(2)]);
        let mut writable = std::mem::replace(&mut j.file, File::open(&path).unwrap());
        assert!(matches!(j.sync(), Err(JournalError::Io(_))));
        writable.write_all(&j.pending[..10]).unwrap();
        writable.sync_data().unwrap();
        j.file = writable;
        // ...and another is framed behind it before the retry: it links
        // to where the first one *will* be.
        j.frame_incidents(&[sample_incident(3)]);
        j.sync().unwrap();
        let anchor = j.anchor();
        assert_eq!(anchor.incidents, 3);
        j.append_event(&events[5]).unwrap();
        drop(j);
        // The chain walks: every record sits where its link says.
        let rec = assert_open_at_matches_the_full_scan(&path, &anchor, 5);
        let sids: Vec<u64> = rec.incidents().map(|i| i.sid).collect();
        assert_eq!(sids, [1, 2, 3]);
        let _ = std::fs::remove_file(&path);
    }

    /// `(offset, rtype)` of every record in a journal file's bytes.
    fn record_offsets(bytes: &[u8]) -> Vec<(u64, u8)> {
        let (mut at, mut out) = (JOURNAL_MAGIC.len(), Vec::new());
        while at + HEADER_LEN < bytes.len() {
            out.push((at as u64, bytes[at + HEADER_LEN]));
            at += HEADER_LEN + header(&bytes[at..]).0;
        }
        out
    }

    /// Points the incident record at `at` back to `prev`, CRC and all.
    fn relink(bytes: &mut [u8], at: u64, prev: u64) {
        let at = at as usize;
        let end = at + HEADER_LEN + header(&bytes[at..]).0;
        bytes[at + HEADER_LEN + 1..at + HEADER_LEN + LINK_LEN].copy_from_slice(&prev.to_le_bytes());
        let crc = crc32(&bytes[at + HEADER_LEN..end]);
        bytes[at + 4..at + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
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
    fn hostile_anchors_and_links_are_refused_with_the_file_untouched() {
        use AnchorRefused::{BoundaryMismatch, BrokenLink, JournalShort};
        let path = tmp("hostile");
        let good = anchored_journal(&path, 40, 30, |i| i % 3 == 2);
        // A torn tail, to see that a refusal does not cut it either.
        let mut pristine = std::fs::read(&path).unwrap();
        pristine.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&path, &pristine).unwrap();
        let len = pristine.len() as u64;
        let records = record_offsets(&pristine);
        let before = |rtype: u8| {
            let of_type = |&&(at, t): &&(u64, u8)| t == rtype && at < good.last_record;
            records.iter().rev().find(of_type).unwrap().0
        };
        let tail_incident = records
            .iter()
            .find(|&&(at, t)| t == 1 && at >= good.offset)
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
            // Inside a record, before the magic's end, at no boundary.
            (with(good, |a| a.offset = good.offset + 3), BoundaryMismatch),
            (with(good, |a| a.offset = good.offset - 1), BoundaryMismatch),
            (with(good, |a| a.offset = 4), BoundaryMismatch),
            (with(good, |a| a.offset = 0), BoundaryMismatch),
            // The last record is not where the anchor says.
            (
                with(good, |a| a.last_record = good.last_record + 1),
                BoundaryMismatch,
            ),
            (with(good, |a| a.last_record = before(0)), BoundaryMismatch),
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
            // The chain's head is no incident record before the anchor.
            (with(good, |a| a.last_incident = 0), BrokenLink),
            (with(good, |a| a.last_incident = 3), BrokenLink),
            (
                with(good, |a| a.last_incident = good.last_incident + 1),
                BrokenLink,
            ),
            (with(good, |a| a.last_incident = before(0)), BrokenLink),
            (with(good, |a| a.last_incident = tail_incident), BrokenLink),
            (
                with(good, |a| a.last_incident = good.offset - 4),
                BrokenLink,
            ),
            (with(good, |a| a.last_incident = u64::MAX), BrokenLink),
        ];
        for (anchor, expect) in lies {
            assert_eq!(refusal(&path, &anchor), expect, "{anchor:?}");
        }

        // The anchor is true; a linked record is not what it was.
        let head = good.last_incident;
        let second = before(1);
        assert!(second < head);
        let (event, last) = (before(0), good.last_record as usize);
        type Forgery = Box<dyn Fn(&mut [u8])>;
        let forgeries: [(Forgery, AnchorRefused); 10] = [
            // A link pointing at itself, forward, below the magic, into
            // an event record, past the next incident.
            (Box::new(move |b| relink(b, head, head)), BrokenLink),
            (Box::new(move |b| relink(b, second, head)), BrokenLink),
            (Box::new(move |b| relink(b, head, 3)), BrokenLink),
            (Box::new(move |b| relink(b, head, event)), BrokenLink),
            (Box::new(move |b| relink(b, second, 0)), BrokenLink),
            // A flipped bit in a linked record: its body, its link, its
            // length.
            (
                Box::new(move |b| b[second as usize + 40] ^= 0x10),
                BrokenLink,
            ),
            (
                Box::new(move |b| b[second as usize + HEADER_LEN + 2] ^= 0x01),
                BrokenLink,
            ),
            (
                Box::new(move |b| b[second as usize + 3] ^= 0x80),
                BrokenLink,
            ),
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

        // And the true anchor on the true file still opens.
        assert_open_at_matches_the_full_scan(&path, &good, 30);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&other);
    }

    #[test]
    fn a_journal_of_the_previous_format_is_refused_untouched() {
        let path = tmp("old-magic");
        let anchor = anchored_journal(&path, 10, 5, |i| i == 2);
        // The magic before incident bodies had a fixed layout ended in 2.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[JOURNAL_MAGIC.len() - 1] = b'2';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path, JournalConfig::default()),
            Err(JournalError::BadMagic)
        ));
        assert!(matches!(
            Journal::open_at(&path, JournalConfig::default(), &anchor, 5),
            Err(JournalError::BadMagic)
        ));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "refused, not cut");
        let _ = std::fs::remove_file(&path);
    }

    /// The bytewise definition slice-by-8 must agree with: one table
    /// read a byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_crc_at_every_length_and_alignment() {
        // Bytes from a 64-bit LCG: every byte value, no pattern a
        // table could share with its neighbour.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..300 + 8)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "{len} bytes from {start}"
                );
            }
        }
        // Runs of one byte value, where a table mix-up would cancel.
        for b in [0x00, 0xFF, 0x80, 0x01] {
            let run = [b; 67];
            assert_eq!(crc32(&run), crc32_bytewise(&run), "a run of {b:#04x}");
        }
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
            ActionOutcome::Applied("/var/sandbox/évil.exe".to_string()),
            ActionOutcome::Applied(String::new()),
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
    fn incident_payload(prev: u64, incident: &Incident) -> Vec<u8> {
        let mut payload = vec![1u8];
        encode_incident(prev, incident, &mut payload);
        payload
    }

    #[test]
    fn incident_bodies_round_trip_bit_for_bit() {
        for (i, incident) in codec_incidents().iter().enumerate() {
            let prev = (i as u64).wrapping_mul(0x0123_4567_89AB_CDEF);
            let payload = incident_payload(prev, incident);
            assert!(payload.len() <= MAX_RECORD_LEN);
            let (back_prev, back) = decode_incident(&payload).expect("decodes");
            assert_eq!(back_prev, prev);
            assert!(same_bits(&back, incident), "{i}: {back:?}");
        }
        // The largest body there is fits a record.
        let largest = Incident {
            name: Some("n".repeat(MAX_NAME_LEN)),
            outcome: ActionOutcome::Failed("t".repeat(MAX_TEXT_LEN)),
            ..sample_incident(1)
        };
        let payload = incident_payload(0, &largest);
        assert_eq!(payload.len(), MAX_RECORD_LEN);
        assert_eq!(decode_incident(&payload).unwrap().1, largest);
    }

    #[test]
    fn strings_past_their_length_field_are_cut_at_a_character_boundary() {
        // One byte, then three-byte characters across the cap.
        let long = format!("a{}", "€".repeat(MAX_TEXT_LEN / 3 + 2));
        let incident = Incident {
            name: Some(long.clone()),
            outcome: ActionOutcome::Applied(long.clone()),
            ..sample_incident(1)
        };
        let (_, back) = decode_incident(&incident_payload(0, &incident)).unwrap();
        let name = back.name.unwrap();
        let ActionOutcome::Applied(text) = back.outcome else {
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
        let good = incident_payload(40, &incident);
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
        let (action, post_exit, outcome, name_len) = (45, 46, 47, 48);
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
            // No outcome text may ride on NotAttempted.
            forged(outcome, &[0]),
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
        // the record, CRC and all, and the chain walk refuses it.
        let path = tmp("hostile-body");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        j.append_event(&ProcessEvent::api(1, 2, 3)).unwrap();
        for payload in &hostile {
            j.frame_in_place(1, |out| out.extend_from_slice(&payload[1..]));
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
                j.sync().unwrap();
                anchor = j.anchor();
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
