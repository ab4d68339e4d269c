//! Process events and the local wire protocol.
//!
//! A [`ProcessEvent`] is one observation from a producer — a driver
//! shim, an ETW consumer, a sandbox agent — about one process: it
//! spawned (with an image name), it issued one API call (by vocabulary
//! index), or it exited. Events carry a microsecond timestamp assigned
//! by the producer; the sentry itself orders by arrival and uses the
//! timestamp only for reporting.
//!
//! Remote producers speak a length-prefixed frame protocol over a local
//! Unix socket (see [`bus`](crate::bus)): each frame is a `u32`
//! little-endian payload length followed by the payload,
//!
//! ```text
//! ┌────────────┬─────┬──────────────┬────────────┬───────────────────┐
//! │ len u32 LE │ tag │ t_us u64 LE  │ pid u32 LE │ tag-specific body │
//! └────────────┴─────┴──────────────┴────────────┴───────────────────┘
//!   tag 0 = Spawn (body: u16 LE name length + UTF-8 bytes)
//!   tag 1 = Api   (body: u32 LE vocabulary index)
//!   tag 2 = Exit  (no body)
//! ```
//!
//! A name past its length field is cut at a character boundary, so every
//! payload the encoder writes decodes. [`write_frame`] refuses a payload
//! over [`MAX_FRAME_LEN`] before it writes a byte, so every frame it
//! writes is one [`read_frame`] takes. The decoder treats the stream as
//! *untrusted* and is the encoder's inverse and nothing more: a corrupt
//! length prefix, an unknown tag, a truncated body, invalid UTF-8 or a
//! byte left over is a typed [`WireError`], never a panic and never an
//! unbounded allocation ([`MAX_FRAME_LEN`] bounds what a length prefix
//! may claim). The bus drops the offending connection and tallies the
//! error; co-resident producers are unaffected. Journal event records
//! are these payloads, read and written with the same field reader and
//! string writer as the journal's incident bodies.

use std::fmt;
use std::io::{self, Read, Write};

use csd_ransomware::replay::{TraceEvent, TraceEventKind};

use crate::codec::{put_str, Fields};

/// Upper bound on a frame payload. The largest legitimate frame is a
/// spawn whose image name is path-length bound, far under this; a
/// corrupt or hostile length prefix beyond it is refused before any
/// allocation happens.
pub const MAX_FRAME_LEN: usize = 4096;

/// Event tags (the payload's first byte).
const SPAWN: u8 = 0;
const API: u8 = 1;
const EXIT: u8 = 2;

/// What happened to the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The process started; the payload is its image name (used for
    /// whitelist checks).
    Spawn(String),
    /// The process issued one API call, by vocabulary index.
    Api(usize),
    /// The process exited.
    Exit,
}

/// One observation about one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessEvent {
    /// Producer-assigned timestamp, microseconds from an arbitrary
    /// per-trace origin.
    pub t_us: u64,
    /// OS process id. PIDs are recycled by the OS; the sentry maps them
    /// to non-recycled session ids (see [`crate::session`]).
    pub pid: u32,
    /// The observation.
    pub kind: EventKind,
}

impl ProcessEvent {
    /// Convenience constructor for an API-call event.
    pub fn api(t_us: u64, pid: u32, call: usize) -> Self {
        Self {
            t_us,
            pid,
            kind: EventKind::Api(call),
        }
    }

    /// Convenience constructor for a spawn event.
    pub fn spawn(t_us: u64, pid: u32, name: &str) -> Self {
        Self {
            t_us,
            pid,
            kind: EventKind::Spawn(name.to_string()),
        }
    }

    /// Convenience constructor for an exit event.
    pub fn exit(t_us: u64, pid: u32) -> Self {
        Self {
            t_us,
            pid,
            kind: EventKind::Exit,
        }
    }
}

impl From<&TraceEvent> for ProcessEvent {
    /// A replay-trace event (the corpus load generator's format) maps
    /// 1:1 onto a live event.
    fn from(e: &TraceEvent) -> Self {
        let kind = match &e.kind {
            TraceEventKind::Spawn(name) => EventKind::Spawn(name.clone()),
            TraceEventKind::Api(call) => EventKind::Api(*call),
            TraceEventKind::Exit => EventKind::Exit,
        };
        Self {
            t_us: e.t_us,
            pid: e.pid,
            kind,
        }
    }
}

/// Why a frame could not be decoded. Everything a hostile or corrupt
/// producer can send maps here — the decode path has no panic.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket read or write failed.
    Io(io::Error),
    /// The length prefix claims a payload larger than [`MAX_FRAME_LEN`].
    Oversize(usize),
    /// The frame ended before its declared length, or the payload
    /// before a field the event needs.
    Truncated,
    /// The first payload byte is not a known event tag.
    BadTag(u8),
    /// A spawn name is not valid UTF-8.
    BadName,
    /// The payload holds bytes past the end of the event's body.
    Trailing,
    /// The peer stopped sending inside a frame and the reader stopped
    /// waiting for the rest: the bytes of that frame are lost, and the
    /// stream is no longer at a frame boundary.
    Stalled,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket i/o failed: {e}"),
            WireError::Oversize(n) => {
                write!(f, "frame claims {n} bytes (limit {MAX_FRAME_LEN})")
            }
            WireError::Truncated => write!(f, "frame shorter than its declared length"),
            WireError::BadTag(t) => write!(f, "unknown event tag {t}"),
            WireError::BadName => write!(f, "spawn name is not valid UTF-8"),
            WireError::Trailing => write!(f, "frame longer than its event"),
            WireError::Stalled => write!(f, "peer stalled inside a frame"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes one event as a tag-prefixed payload (everything after the
/// wire length prefix) appended onto `out`. The same encoding frames
/// events on the socket and records them in the durable journal, so the
/// two paths cannot drift.
pub fn encode_payload(event: &ProcessEvent, out: &mut Vec<u8>) {
    let tag = match event.kind {
        EventKind::Spawn(_) => SPAWN,
        EventKind::Api(_) => API,
        EventKind::Exit => EXIT,
    };
    out.push(tag);
    out.extend_from_slice(&event.t_us.to_le_bytes());
    out.extend_from_slice(&event.pid.to_le_bytes());
    match &event.kind {
        EventKind::Spawn(name) => put_str(name, u16::MAX as usize, out),
        EventKind::Api(call) => {
            let call = u32::try_from(*call).unwrap_or(u32::MAX);
            out.extend_from_slice(&call.to_le_bytes());
        }
        EventKind::Exit => {}
    }
}

/// Encodes one event as a frame onto `w`. A payload over
/// [`MAX_FRAME_LEN`] — a spawn whose name is longer than a reader takes
/// — is [`WireError::Oversize`] before a byte is written, so every frame
/// this writes is one [`read_frame`] reads.
pub fn write_frame<W: Write>(w: &mut W, event: &ProcessEvent) -> Result<(), WireError> {
    let mut payload = Vec::with_capacity(32);
    encode_payload(event, &mut payload);
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversize(payload.len()));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean EOF at a
/// frame boundary (`Ok(false)` when `at_boundary`) from a mid-frame
/// truncation. A read timeout (`WouldBlock` / `TimedOut`) is returned as
/// is only before the first byte of a frame. Inside one, returning would
/// drop the bytes already read and leave the stream mid-frame, so the
/// read is retried while `keep_waiting()` holds and ends in
/// [`WireError::Stalled`] once it does not.
fn read_exact_or_eof<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && at_boundary {
                    return Ok(false);
                }
                return Err(WireError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && (filled > 0 || !at_boundary) =>
            {
                if !keep_waiting() {
                    return Err(WireError::Stalled);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Decodes the next frame from `r`. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the producer hung up); any malformed input is a
/// typed [`WireError`]. A read timeout before the frame's first byte is
/// `WireError::Io` and leaves the stream where it was; one inside the
/// frame is [`WireError::Stalled`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<ProcessEvent>, WireError> {
    read_frame_while(r, &mut || false)
}

/// [`read_frame`] for a reader whose timeouts only poll for shutdown: a
/// timeout inside a frame waits for the rest of it while `keep_waiting()`
/// holds, so no frame is cut in two by a slow peer.
pub(crate) fn read_frame_while<R: Read>(
    r: &mut R,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<Option<ProcessEvent>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf, true, keep_waiting)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    read_exact_or_eof(r, &mut payload, false, keep_waiting)?;
    decode_payload(&payload).map(Some)
}

/// Decodes one frame payload (everything after the length prefix) —
/// the inverse of [`encode_payload`] and nothing more: a short field is
/// [`WireError::Truncated`], and a byte left over after the event's
/// body is [`WireError::Trailing`]. Also the journal's event-record
/// decoder.
pub fn decode_payload(payload: &[u8]) -> Result<ProcessEvent, WireError> {
    let mut body = Fields(payload);
    let short = || WireError::Truncated;
    let [tag] = body.array().ok_or_else(short)?;
    let t_us = body.u64().ok_or_else(short)?;
    let pid = body.u32().ok_or_else(short)?;
    let kind = match tag {
        SPAWN => {
            let len = body.u16().ok_or_else(short)?;
            let name = body.take(usize::from(len)).ok_or_else(short)?;
            let name = std::str::from_utf8(name).map_err(|_| WireError::BadName)?;
            EventKind::Spawn(name.to_string())
        }
        API => EventKind::Api(body.u32().ok_or_else(short)? as usize),
        EXIT => EventKind::Exit,
        t => return Err(WireError::BadTag(t)),
    };
    body.finish(ProcessEvent { t_us, pid, kind })
        .ok_or(WireError::Trailing)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(event: &ProcessEvent) -> ProcessEvent {
        let mut buf = Vec::new();
        write_frame(&mut buf, event).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn frames_roundtrip_every_kind() {
        for event in [
            ProcessEvent::spawn(17, 4242, "C:\\Users\\victim\\evil.exe"),
            ProcessEvent::api(18, 4242, 277),
            ProcessEvent::exit(19, 4242),
            ProcessEvent::spawn(0, 0, ""),
        ] {
            assert_eq!(roundtrip(&event), event);
        }
    }

    #[test]
    fn stream_of_frames_decodes_in_order_until_clean_eof() {
        let events = vec![
            ProcessEvent::spawn(1, 7, "a.exe"),
            ProcessEvent::api(2, 7, 13),
            ProcessEvent::api(3, 7, 14),
            ProcessEvent::exit(4, 7),
        ];
        let mut buf = Vec::new();
        for e in &events {
            write_frame(&mut buf, e).unwrap();
        }
        let mut r = Cursor::new(buf);
        for e in &events {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(e));
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn hostile_length_prefix_is_refused_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn unknown_tag_and_truncations_are_typed_errors() {
        // Unknown tag.
        let mut buf = Vec::new();
        buf.extend_from_slice(&13u32.to_le_bytes());
        buf.push(9);
        buf.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::BadTag(9))
        ));
        // Frame cut mid-payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, &ProcessEvent::api(5, 1, 2)).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::Truncated)
        ));
        // Length prefix cut mid-word.
        let buf = vec![3u8, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::Truncated)
        ));
        // Declared length too small to hold the fixed header.
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[1u8; 4]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn invalid_utf8_spawn_name_is_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ProcessEvent::spawn(1, 2, "ok")).unwrap();
        // Corrupt the name bytes in place (last two bytes of the frame).
        let n = buf.len();
        buf[n - 2] = 0xFF;
        buf[n - 1] = 0xFE;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::BadName)
        ));
    }

    #[test]
    fn a_byte_past_the_event_is_a_typed_error() {
        // An exit's whole body, and one byte more inside the frame.
        let mut payload = Vec::new();
        encode_payload(&ProcessEvent::exit(3, 9), &mut payload);
        payload.push(0);
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::Trailing)
        ));
        assert!(matches!(decode_payload(&payload), Err(WireError::Trailing)));
    }

    #[test]
    fn a_frame_the_reader_would_refuse_is_never_written() {
        // 5,015 payload bytes: over the 4,096 a reader takes.
        let event = ProcessEvent::spawn(1, 2, &"x".repeat(5_000));
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &event),
            Err(WireError::Oversize(5015))
        ));
        assert!(buf.is_empty(), "nothing written");
    }

    #[test]
    fn a_spawn_name_past_its_length_field_is_cut_at_a_character_boundary() {
        // Two-byte characters across the 65,535-byte field.
        let name = "é".repeat(40_000);
        let mut payload = Vec::new();
        encode_payload(&ProcessEvent::spawn(1, 2, &name), &mut payload);
        let Ok(ProcessEvent {
            kind: EventKind::Spawn(back),
            ..
        }) = decode_payload(&payload)
        else {
            panic!("the payload decodes to a spawn");
        };
        assert!(name.starts_with(back.as_str()));
        assert_eq!(back.len(), usize::from(u16::MAX) - 1);
    }

    #[test]
    fn replay_trace_events_convert_one_to_one() {
        let spawn = TraceEvent {
            t_us: 5,
            pid: 31,
            kind: TraceEventKind::Spawn("x.exe".to_string()),
        };
        assert_eq!(
            ProcessEvent::from(&spawn),
            ProcessEvent::spawn(5, 31, "x.exe")
        );
        let api = TraceEvent {
            t_us: 6,
            pid: 31,
            kind: TraceEventKind::Api(100),
        };
        assert_eq!(ProcessEvent::from(&api), ProcessEvent::api(6, 31, 100));
        let exit = TraceEvent {
            t_us: 7,
            pid: 31,
            kind: TraceEventKind::Exit,
        };
        assert_eq!(ProcessEvent::from(&exit), ProcessEvent::exit(7, 31));
    }
}
