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
//! The file opens with an 8-byte magic (`CSDJRNL1`) and then holds
//! back-to-back records, each framed with the same discipline as the
//! socket protocol in [`event`](crate::event):
//!
//! ```text
//! ┌────────────┬─────────────┬───────┬──────────────────────┐
//! │ len u32 LE │ crc32 u32 LE│ rtype │ body (len-1 bytes)   │
//! └────────────┴─────────────┴───────┴──────────────────────┘
//!   rtype 0 = Event    (body: the wire payload of the event)
//!   rtype 1 = Incident (body: the incident's JSON record)
//! ```
//!
//! `len` counts `rtype + body`; the CRC-32 (IEEE) covers the same
//! bytes. A record is *valid* iff its length fits the remaining file,
//! is within [`MAX_RECORD_LEN`], its CRC matches, and its body decodes.
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

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::actions::Incident;
use crate::event::{decode_payload, encode_payload, ProcessEvent};

/// Magic bytes opening every journal file (format version 1).
pub const JOURNAL_MAGIC: &[u8; 8] = b"CSDJRNL1";

/// Upper bound on one record's `rtype + body` length. The largest
/// legitimate record is an incident's JSON, far under this; a torn or
/// hostile length prefix beyond it ends the valid prefix.
pub const MAX_RECORD_LEN: usize = 64 * 1024;

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
    /// An incident could not be serialized for the record body.
    Encode(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::BadMagic => write!(f, "file is not a csd-sentry journal"),
            JournalError::Encode(e) => write!(f, "journal record failed to encode: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// An ingested process event.
    Event(ProcessEvent),
    /// A latched incident, with its action outcome. Boxed: incidents
    /// are one record in hundreds, and unboxed they would set the size
    /// of every event record `open` hands back (104 bytes against 40).
    Incident(Box<Incident>),
}

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded past the longest valid prefix (0 for a clean
    /// shutdown).
    pub bytes_truncated: u64,
}

impl JournalRecovery {
    /// The recovered events, in append order.
    pub fn events(&self) -> impl Iterator<Item = &ProcessEvent> {
        self.records.iter().filter_map(|r| match r {
            JournalRecord::Event(e) => Some(e),
            JournalRecord::Incident(_) => None,
        })
    }

    /// The recovered incidents, in append order.
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.records.iter().filter_map(|r| match r {
            JournalRecord::Incident(i) => Some(&**i),
            JournalRecord::Event(_) => None,
        })
    }

    /// Recovered event-record count.
    pub fn event_count(&self) -> u64 {
        self.events().count() as u64
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

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the same polynomial the device sim's
/// CRC-on-DMA check models, reused here as the record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
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
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut recovery = JournalRecovery::default();
        let valid_end = if bytes.is_empty() {
            file.write_all(JOURNAL_MAGIC)?;
            file.sync_data()?;
            JOURNAL_MAGIC.len() as u64
        } else if bytes.len() < JOURNAL_MAGIC.len() {
            // A torn first write: nothing valid was ever synced.
            recovery.bytes_truncated = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(JOURNAL_MAGIC)?;
            file.sync_data()?;
            JOURNAL_MAGIC.len() as u64
        } else if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        } else {
            let valid = scan_records(&bytes[JOURNAL_MAGIC.len()..], &mut recovery.records);
            let end = (JOURNAL_MAGIC.len() + valid) as u64;
            recovery.bytes_truncated = bytes.len() as u64 - end;
            if recovery.bytes_truncated > 0 {
                file.set_len(end)?;
                file.sync_data()?;
            }
            end
        };
        file.seek(SeekFrom::Start(valid_end))?;
        let durable_events = recovery.event_count();
        let durable_incidents = recovery.records.len() as u64 - durable_events;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                sync_every: config.sync_every.max(1),
                pending: Vec::with_capacity(4096),
                pending_events: 0,
                pending_incidents: 0,
                synced_len: valid_end,
                tail_suspect: false,
                durable_events,
                durable_incidents,
                syncs: 0,
            },
            recovery,
        ))
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

    /// Frames one record in place at the end of `pending`: the header
    /// is reserved, `body` appends the record's bytes after the type
    /// tag, then length and CRC are patched in. A record whose body
    /// fails to encode leaves `pending` as it was.
    fn frame_in_place(
        pending: &mut Vec<u8>,
        rtype: u8,
        body: impl FnOnce(&mut Vec<u8>) -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        let at = pending.len();
        pending.extend_from_slice(&[0u8; 8]);
        pending.push(rtype);
        if let Err(e) = body(pending) {
            pending.truncate(at);
            return Err(e);
        }
        let len = pending.len() - at - 8;
        debug_assert!(len <= MAX_RECORD_LEN, "record exceeds MAX_RECORD_LEN");
        let crc = crc32(&pending[at + 8..]);
        pending[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        pending[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }

    /// Appends one event record. Buffered; becomes durable at the next
    /// sync point (every `sync_every` events, `sync`,
    /// `append_incidents`, or clean drop).
    pub fn append_event(&mut self, event: &ProcessEvent) -> Result<(), JournalError> {
        Self::frame_in_place(&mut self.pending, 0, |out| {
            encode_payload(event, out);
            Ok(())
        })?;
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
        self.frame_incidents(incidents)?;
        self.sync()
    }

    /// Frames `incidents` into the pending tail and syncs nothing: they
    /// become durable with whatever sync comes next, and until then
    /// [`pending_incidents`](Self::pending_incidents) counts them. The
    /// caller must not hand them on before that.
    pub(crate) fn frame_incidents(&mut self, incidents: &[Incident]) -> Result<(), JournalError> {
        for incident in incidents {
            Self::frame_in_place(&mut self.pending, 1, |out| {
                serde_json::to_writer(out, incident)
                    .map_err(|e| JournalError::Encode(e.to_string()))
            })?;
            self.pending_incidents += 1;
        }
        Ok(())
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

/// Scans `bytes` (past the magic) record by record, pushing decoded
/// records and returning the byte length of the longest valid prefix.
fn scan_records(bytes: &[u8], out: &mut Vec<JournalRecord>) -> usize {
    let mut at = 0usize;
    loop {
        let Some(header) = bytes.get(at..at + 8) else {
            return at; // Torn length/CRC prefix (or clean end).
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_RECORD_LEN {
            return at;
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            return at; // Record cut mid-body.
        };
        if crc32(payload) != crc {
            return at; // Flipped bits anywhere in the payload.
        }
        let record = match payload[0] {
            0 => match decode_payload(&payload[1..]) {
                Ok(Some(event)) => JournalRecord::Event(event),
                _ => return at,
            },
            1 => match std::str::from_utf8(&payload[1..])
                .ok()
                .and_then(|json| serde_json::from_str::<Incident>(json).ok())
            {
                Some(incident) => JournalRecord::Incident(Box::new(incident)),
                None => return at,
            },
            _ => return at, // Unknown record type: not ours.
        };
        out.push(record);
        at += 8 + len;
    }
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
            assert!(rec.records.is_empty());
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

    /// The journal file of the commit before records were framed in
    /// place: one spawn event, then [`sample_incident`]`(3)`.
    const GOLDEN: &str = "4353444a524e4c31\
        18000000923d22d5000007000000000000009210000008006576696c2e657865\
        b10000006c7b1617017b22736964223a332c22706964223a343234322c226e616d65223a226576\
        696c2e657865222c22616c657274223a7b2261745f63616c6c223a3130302c2270726f62616269\
        6c697479223a302e39372c22696e666572656e63655f7573223a31322e357d2c22616374696f6e\
        223a2251756172616e74696e6564222c226f7574636f6d65223a7b224170706c696564223a2273\
        616e64626f786564227d2c22706f73745f65786974223a66616c73657d";

    #[test]
    fn in_place_framing_writes_the_bytes_the_copying_framing_wrote() {
        let path = tmp("golden");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
            j.append_event(&ProcessEvent::spawn(7, 4242, "evil.exe"))
                .unwrap();
            j.append_incident(&sample_incident(3)).unwrap();
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

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
