//! Checkpoint snapshots: the sentry's durable state, flattened.
//!
//! A checkpoint captures everything a restarted
//! [`Sentry`](crate::Sentry) needs so that *checkpoint + journal
//! replay* reconstructs the same incident
//! set an uninterrupted run produces: the session table (including the
//! `next_sid` cursor, so replayed events assign the same never-reused
//! session ids), every *tracked* session with its window cursor and
//! vote ring in one record, and the scalar service counters. What the
//! deployment fixes — the model (the engine's) and the detection config
//! — is not in it; its [`StateId`](crate::StateId) is, and a reopen
//! under another model or config is refused. Sessions that ended and
//! retired are not in it — nothing can reference them again, and their
//! tallies are already in the counters — so a checkpoint's size follows
//! the sessions alive when it was taken. Volatile telemetry — the
//! latency histograms, the mux's in-flight windows — is deliberately
//! *not* captured: checkpoints are taken quiescently (after a drain),
//! when the mux is empty, and latency samples are measurements of a
//! particular run, not state the detection pipeline depends on.
//!
//! The structures here are plain named-field structs of integers,
//! strings, options, `Vec`s and pairs — the JSON body of
//! `checkpoint.snap`. The library writes and reads that body with the
//! codec at the end of this module (`put_snapshot`, `read_snapshot`):
//! compact JSON in declaration order, byte for byte what the serde
//! derives write, read back by a strict cursor that takes each field in
//! order and refuses anything else. Every field is required: a body
//! missing one does not read. Ordering is normalized (sorted by sid) so
//! snapshots of equal states are byte-equal. The derives — these are the
//! only types in the workspace that derive `Deserialize` — serve only
//! `benchmark/`, which decodes the file with them, until it calls
//! [`read_checkpoint`](crate::read_checkpoint) instead (ROADMAP 1 A);
//! then this codec's text becomes binary fields and serde goes.
//!
//! Incidents are not in the snapshot either: the journal is their
//! system of record (every latched incident is an fsync'd journal
//! record before `poll` returns it), and [`durable`](crate::durable)
//! re-adopts them from there on open. What a *checkpoint* does carry
//! about the journal is five numbers saying where its sync left the
//! file and where the newest incident digest in it is
//! ([`SentrySnapshot::journal`]): a place to start reading, which
//! `open` checks against the file before using, not a copy of anything
//! in it — so the checkpoint stays the size of the live sessions however
//! many incidents precede it.

use serde::{Deserialize, Serialize};

use crate::codec::Fields;
use crate::journal::JournalAnchor;

/// One session's durable state, its stream's included (see
/// [`Session`](crate::Session)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnap {
    /// Never-reused session id.
    pub sid: u64,
    /// The PID this incarnation ran under.
    pub pid: u32,
    /// Image name, if a spawn was observed.
    pub name: Option<String>,
    /// Buffered in-vocabulary calls not yet consumed by windows.
    pub buf: Vec<usize>,
    /// Stream position of `buf[0]`.
    pub base: usize,
    /// API calls observed (including out-of-vocabulary).
    pub calls_seen: u64,
    /// Out-of-vocabulary calls observed.
    pub oov: u64,
    /// Killed by the action layer.
    pub killed: bool,
    /// End state: 0 = live, 1 = exit, 2 = idle timeout, 3 = superseded.
    pub ended: u8,
    /// Table-clock value at session start.
    pub started_at: u64,
    /// Table-clock value of the most recent event.
    pub last_event: u64,
    /// Windows submitted so far.
    pub submitted: usize,
    /// The packed vote ring.
    pub ring: u64,
    /// Verdicts folded.
    pub verdicts: u32,
    /// An incident latched; the stream is closed.
    pub latched: bool,
    /// Shed by the overload governor; the stream is closed without a
    /// verdict.
    pub shed: bool,
}

/// The session table's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSnap {
    /// Next session id to assign — the replay-determinism linchpin.
    pub next_sid: u64,
    /// Events applied (the table clock).
    pub clock: u64,
    /// Sessions started.
    pub started: u64,
    /// Sessions ended.
    pub ended: u64,
    /// Calls dropped on killed sessions.
    pub dropped_after_kill: u64,
    /// Exits for unknown PIDs.
    pub stray_exits: u64,
    /// Out-of-vocabulary calls across all sessions.
    pub oov_total: u64,
    /// `calls_seen` summed over retired sessions.
    pub retired_calls: u64,
    /// `oov` summed over retired sessions.
    pub retired_oov: u64,
    /// The PID → sid links, sorted by PID.
    pub by_pid: Vec<(u32, u64)>,
    /// Every tracked session, sorted by sid.
    pub sessions: Vec<SessionSnap>,
}

/// The whole sentry, minus engine, config, and volatile telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentrySnapshot {
    /// The [`StateId`](crate::StateId) of the sentry that took it: the
    /// format, the model and the detection config.
    /// [`DurableSentry::open`](crate::DurableSentry::open) refuses a
    /// checkpoint that names another; one without the field is invalid.
    pub state: u64,
    /// Events ingested when the snapshot was taken. Recovery replays
    /// journal event records from this index on.
    pub events: u64,
    /// Verdicts folded.
    ///
    /// Incident-derived counters (suppressed, post-exit, failed
    /// actions) are deliberately absent: every incident is a journal
    /// record, [`adopt_incident`](crate::Sentry::adopt_incident) puts it
    /// back in the log on recovery, and
    /// [`stats`](crate::Sentry::stats) counts them from the log.
    pub verdicts_folded: u64,
    /// Whitelisted exact image names, in insertion order.
    pub whitelist_exact: Vec<String>,
    /// Whitelisted path prefixes, in insertion order.
    pub whitelist_prefixes: Vec<String>,
    /// The session table.
    pub table: TableSnap,
    /// Monotone-timestamp dedup watermarks, sorted by PID — one per PID
    /// *ever seen*, not per live one, and deliberately so: a frame
    /// re-sent after its process exited must still be recognised, and
    /// the next incarnation of the PID must still be held to timestamps
    /// above the last one's. (Empty unless
    /// [`dedup_monotone_ts`](crate::SentryConfig::dedup_monotone_ts).)
    /// Checkpointed events are never replayed, so the watermark that
    /// guarded them must survive the checkpoint — otherwise a duplicate
    /// frame re-sent across a crash would be ingested twice.
    pub last_t_us: Vec<(u32, u64)>,
    /// Duplicate frames dropped by monotone-timestamp dedup.
    pub dup_events: u64,
    /// Sessions shed by the overload governor, ever: a tracked shed
    /// session carries its own [`SessionSnap::shed`] flag, so the
    /// checkpoint keeps no shed records and stays the live sessions' size.
    pub shed_sessions: u64,
    /// Where the checkpoint's journal sync left `journal.log`: the
    /// place [`DurableSentry::open`](crate::DurableSentry::open) starts
    /// reading from, once it has checked it against the file.
    /// [`DurableSentry::checkpoint`](crate::DurableSentry::checkpoint)
    /// fills it in from the journal it has just synced;
    /// [`Sentry::snapshot`](crate::Sentry::snapshot), which knows no
    /// journal, leaves it zeroed — offset 0 means "no anchor", and a
    /// checkpoint without one is invalid.
    pub journal: JournalAnchor,
}

// ------------------------------------------------------------ the codec

/// Appends `snap`'s compact JSON to `out`: byte for byte what the serde
/// derives' compact writer produces — fields in declaration order, no
/// whitespace, integers in shortest decimal, strings escaped as that
/// writer escapes them (`\"`, `\\`, `\n`, `\r`, `\t`, and `\u00xx` for
/// any other control character; everything else raw).
pub(crate) fn put_snapshot(snap: &SentrySnapshot, out: &mut Vec<u8>) {
    let mut w = Text(out);
    w.raw(b"{\"state\":").uint(snap.state);
    w.raw(b",\"events\":").uint(snap.events);
    w.raw(b",\"verdicts_folded\":").uint(snap.verdicts_folded);
    w.raw(b",\"whitelist_exact\":")
        .seq(&snap.whitelist_exact, |w, s| {
            w.str(s);
        });
    w.raw(b",\"whitelist_prefixes\":")
        .seq(&snap.whitelist_prefixes, |w, s| {
            w.str(s);
        });
    let t = &snap.table;
    w.raw(b",\"table\":{\"next_sid\":").uint(t.next_sid);
    w.raw(b",\"clock\":").uint(t.clock);
    w.raw(b",\"started\":").uint(t.started);
    w.raw(b",\"ended\":").uint(t.ended);
    w.raw(b",\"dropped_after_kill\":")
        .uint(t.dropped_after_kill);
    w.raw(b",\"stray_exits\":").uint(t.stray_exits);
    w.raw(b",\"oov_total\":").uint(t.oov_total);
    w.raw(b",\"retired_calls\":").uint(t.retired_calls);
    w.raw(b",\"retired_oov\":").uint(t.retired_oov);
    w.raw(b",\"by_pid\":").seq(&t.by_pid, Text::pair);
    w.raw(b",\"sessions\":").seq(&t.sessions, put_session);
    w.raw(b"},\"last_t_us\":").seq(&snap.last_t_us, Text::pair);
    w.raw(b",\"dup_events\":").uint(snap.dup_events);
    w.raw(b",\"shed_sessions\":").uint(snap.shed_sessions);
    let j = &snap.journal;
    w.raw(b",\"journal\":{\"offset\":").uint(j.offset);
    w.raw(b",\"incidents\":").uint(j.incidents);
    w.raw(b",\"last_record\":").uint(j.last_record);
    w.raw(b",\"digest\":").uint(j.digest);
    w.raw(b",\"digest_len\":").uint(j.digest_len);
    w.raw(b"}}");
}

fn put_session(w: &mut Text<'_>, s: &SessionSnap) {
    w.raw(b"{\"sid\":").uint(s.sid);
    w.raw(b",\"pid\":").uint(s.pid);
    w.raw(b",\"name\":");
    match &s.name {
        Some(name) => w.str(name),
        None => w.raw(b"null"),
    };
    w.raw(b",\"buf\":").seq(&s.buf, |w, &call| {
        w.uint(call as u64);
    });
    w.raw(b",\"base\":").uint(s.base as u64);
    w.raw(b",\"calls_seen\":").uint(s.calls_seen);
    w.raw(b",\"oov\":").uint(s.oov);
    w.raw(b",\"killed\":").bool(s.killed);
    w.raw(b",\"ended\":").uint(s.ended);
    w.raw(b",\"started_at\":").uint(s.started_at);
    w.raw(b",\"last_event\":").uint(s.last_event);
    w.raw(b",\"submitted\":").uint(s.submitted as u64);
    w.raw(b",\"ring\":").uint(s.ring);
    w.raw(b",\"verdicts\":").uint(s.verdicts);
    w.raw(b",\"latched\":").bool(s.latched);
    w.raw(b",\"shed\":").bool(s.shed);
    w.raw(b"}");
}

/// The writer's side: compact JSON appended to a reused buffer.
struct Text<'a>(&'a mut Vec<u8>);

impl Text<'_> {
    fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn uint(&mut self, v: impl Into<u64>) -> &mut Self {
        let mut v = v.into();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.raw(&digits[at..])
    }

    fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { b"true" } else { b"false" })
    }

    fn str(&mut self, s: &str) -> &mut Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.raw(b"\"");
        let bytes = s.as_bytes();
        let mut clean = 0;
        let mut long = *b"\\u0000";
        for (at, &b) in bytes.iter().enumerate() {
            let short: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1F => {
                    long[4] = HEX[usize::from(b >> 4)];
                    long[5] = HEX[usize::from(b & 0xF)];
                    &long
                }
                _ => continue,
            };
            self.raw(&bytes[clean..at]).raw(short);
            clean = at + 1;
        }
        self.raw(&bytes[clean..]).raw(b"\"")
    }

    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.raw(b"[");
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.raw(b",");
            }
            item(self, x);
        }
        self.raw(b"]")
    }

    fn pair<A: Copy + Into<u64>, B: Copy + Into<u64>>(&mut self, &(a, b): &(A, B)) {
        self.raw(b"[").uint(a).raw(b",").uint(b).raw(b"]");
    }
}

/// Reads back exactly what [`put_snapshot`] writes: each field in its
/// order, with its key, its punctuation and its canonical number or
/// string form, and nothing after the last brace. Anything else — other
/// whitespace, order or escapes, a missing, extra or out-of-range field,
/// a leading zero, a raw control character in a string, invalid UTF-8 —
/// is `None`. Struct fields are read in the order they are written
/// here, which is their declaration order. The layout has a fixed
/// depth, so no input recurses.
pub(crate) fn read_snapshot(body: &[u8]) -> Option<SentrySnapshot> {
    let mut r = Cursor(Fields(body));
    let snap = SentrySnapshot {
        state: r.key(b"{\"state\":")?.uint()?,
        events: r.key(b",\"events\":")?.uint()?,
        verdicts_folded: r.key(b",\"verdicts_folded\":")?.uint()?,
        whitelist_exact: r.key(b",\"whitelist_exact\":")?.seq(Cursor::str)?,
        whitelist_prefixes: r.key(b",\"whitelist_prefixes\":")?.seq(Cursor::str)?,
        table: TableSnap {
            next_sid: r.key(b",\"table\":{\"next_sid\":")?.uint()?,
            clock: r.key(b",\"clock\":")?.uint()?,
            started: r.key(b",\"started\":")?.uint()?,
            ended: r.key(b",\"ended\":")?.uint()?,
            dropped_after_kill: r.key(b",\"dropped_after_kill\":")?.uint()?,
            stray_exits: r.key(b",\"stray_exits\":")?.uint()?,
            oov_total: r.key(b",\"oov_total\":")?.uint()?,
            retired_calls: r.key(b",\"retired_calls\":")?.uint()?,
            retired_oov: r.key(b",\"retired_oov\":")?.uint()?,
            by_pid: r.key(b",\"by_pid\":")?.seq(Cursor::pair)?,
            sessions: r.key(b",\"sessions\":")?.seq(read_session)?,
        },
        last_t_us: r.key(b"},\"last_t_us\":")?.seq(Cursor::pair)?,
        dup_events: r.key(b",\"dup_events\":")?.uint()?,
        shed_sessions: r.key(b",\"shed_sessions\":")?.uint()?,
        journal: JournalAnchor {
            offset: r.key(b",\"journal\":{\"offset\":")?.uint()?,
            incidents: r.key(b",\"incidents\":")?.uint()?,
            last_record: r.key(b",\"last_record\":")?.uint()?,
            digest: r.key(b",\"digest\":")?.uint()?,
            digest_len: r.key(b",\"digest_len\":")?.uint()?,
        },
    };
    r.key(b"}}")?;
    r.0.finish(snap)
}

fn read_session(r: &mut Cursor<'_>) -> Option<SessionSnap> {
    let session = SessionSnap {
        sid: r.key(b"{\"sid\":")?.uint()?,
        pid: r.key(b",\"pid\":")?.uint()?,
        name: if r.key(b",\"name\":")?.key(b"null").is_some() {
            None
        } else {
            Some(r.str()?)
        },
        buf: r.key(b",\"buf\":")?.seq(Cursor::uint)?,
        base: r.key(b",\"base\":")?.uint()?,
        calls_seen: r.key(b",\"calls_seen\":")?.uint()?,
        oov: r.key(b",\"oov\":")?.uint()?,
        killed: r.key(b",\"killed\":")?.bool()?,
        ended: r.key(b",\"ended\":")?.uint()?,
        started_at: r.key(b",\"started_at\":")?.uint()?,
        last_event: r.key(b",\"last_event\":")?.uint()?,
        submitted: r.key(b",\"submitted\":")?.uint()?,
        ring: r.key(b",\"ring\":")?.uint()?,
        verdicts: r.key(b",\"verdicts\":")?.uint()?,
        latched: r.key(b",\"latched\":")?.bool()?,
        shed: r.key(b",\"shed\":")?.bool()?,
    };
    r.key(b"}")?;
    Some(session)
}

/// The reader's side: a strict cursor over the body, each read taking
/// one token off the front or refusing.
struct Cursor<'a>(Fields<'a>);

impl Cursor<'_> {
    /// Takes `bytes` if the body goes on with them.
    fn key(&mut self, bytes: &[u8]) -> Option<&mut Self> {
        self.0 .0.starts_with(bytes).then(|| {
            self.0 .0 = &self.0 .0[bytes.len()..];
            self
        })
    }

    /// An unsigned integer in shortest decimal that fits `T`.
    fn uint<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let rest = self.0 .0;
        let len = rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
        let digits = self.0.take(len)?;
        if digits.is_empty() || (digits[0] == b'0' && len > 1) {
            return None;
        }
        let v = digits.iter().try_fold(0u64, |v, &d| {
            v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })?;
        T::try_from(v).ok()
    }

    fn bool(&mut self) -> Option<bool> {
        if self.key(b"true").is_some() {
            Some(true)
        } else {
            self.key(b"false").map(|_| false)
        }
    }

    /// A string as [`Text::str`] writes it: raw bytes but for the six
    /// escapes it uses, valid UTF-8.
    fn str(&mut self) -> Option<String> {
        self.key(b"\"")?;
        let mut out = Vec::new();
        loop {
            let rest = self.0 .0;
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
            out.extend_from_slice(self.0.take(run)?);
            match self.0.take(1)? {
                b"\"" => return String::from_utf8(out).ok(),
                b"\\" => {}
                _ => return None, // a raw control character
            }
            let byte = match self.0.take(1)? {
                b"\"" => b'"',
                b"\\" => b'\\',
                b"n" => b'\n',
                b"r" => b'\r',
                b"t" => b'\t',
                b"u" => {
                    let [b'0', b'0', hi @ (b'0' | b'1'), lo] = self.0.array::<4>()? else {
                        return None;
                    };
                    let lo = match lo {
                        b'0'..=b'9' => lo - b'0',
                        b'a'..=b'f' => lo - b'a' + 10,
                        _ => return None,
                    };
                    let byte = ((hi - b'0') << 4) | lo;
                    // The writer spells these three short.
                    if matches!(byte, b'\n' | b'\r' | b'\t') {
                        return None;
                    }
                    byte
                }
                _ => return None,
            };
            out.push(byte);
        }
    }

    /// A JSON array of what `item` reads.
    fn seq<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.key(b"[")?;
        let mut items = Vec::new();
        if self.key(b"]").is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.key(b"]").is_some() {
                return Some(items);
            }
            self.key(b",")?;
        }
    }

    /// A pair of unsigned integers, `[a,b]`.
    fn pair<A: TryFrom<u64>, B: TryFrom<u64>>(&mut self) -> Option<(A, B)> {
        let a = self.key(b"[")?.uint()?;
        let b = self.key(b",")?.uint()?;
        self.key(b"]")?;
        Some((a, b))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::codec::crc32;
    use crate::durable::{decode_checkpoint, SNAPSHOT_MAGIC};

    /// Names no escape table should miss: JSON's two escaped printables,
    /// every control character, DEL, non-ASCII, and U+2028 / U+2029
    /// (raw in JSON, line breaks in JavaScript).
    fn hostile_names() -> Vec<String> {
        let mut names: Vec<String> = vec![
            String::new(),
            "w.exe".into(),
            "q\"uote".into(),
            "back\\slash\\".into(),
            "\\\"\\u0041\"".into(),
            "é日本🦀".into(),
            "line\u{2028}para\u{2029}".into(),
            "\u{7f}del".into(),
            "\u{feff}bom".into(),
            "C:\\Users\\Public\\vssadmin.exe".into(),
        ];
        names.push((0u8..0x20).map(char::from).collect());
        names.extend((0u8..0x20).map(|b| format!("{}{b}", char::from(b))));
        names.push("x".repeat(4_000) + "\u{10ffff}");
        names
    }

    fn session(sid: u64, name: Option<String>, calls: usize, seed: u64) -> SessionSnap {
        SessionSnap {
            sid,
            pid: (sid as u32).wrapping_mul(2_654_435_761),
            name,
            buf: (0..calls)
                .map(|i| (i as u64 * 7 + seed) as usize % 300)
                .collect(),
            base: (seed as usize) * 10,
            calls_seen: seed * 13 + calls as u64,
            oov: seed % 5,
            killed: seed.is_multiple_of(3),
            ended: (seed % 4) as u8,
            started_at: seed,
            last_event: seed + calls as u64,
            submitted: calls / 4,
            ring: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            verdicts: (seed % 1_000) as u32,
            latched: seed.is_multiple_of(2),
            shed: seed.is_multiple_of(7),
        }
    }

    /// A checkpoint with `sessions` sessions of `calls` buffered calls
    /// each: many short ones are the corpus's shape, a few long ones
    /// the fleet's.
    fn shaped(sessions: u64, calls: usize, names: &[String]) -> SentrySnapshot {
        let live: Vec<SessionSnap> = (0..sessions)
            .map(|i| {
                let name = (i % 4 != 3).then(|| names[i as usize % names.len()].clone());
                session(100 + i, name, calls, i)
            })
            .collect();
        SentrySnapshot {
            state: 0xC5D0_5EED_0000_0001,
            events: 4_321,
            verdicts_folded: 987,
            whitelist_exact: names.iter().take(2).cloned().collect(),
            whitelist_prefixes: vec!["C:\\Windows\\".into()],
            table: TableSnap {
                next_sid: 100 + sessions,
                clock: 4_321,
                started: sessions + 40,
                ended: 40,
                dropped_after_kill: 3,
                stray_exits: 1,
                oov_total: 12,
                retired_calls: 2_000,
                retired_oov: 9,
                by_pid: live.iter().map(|s| (s.pid, s.sid)).collect(),
                sessions: live,
            },
            last_t_us: (0..sessions).map(|i| (i as u32, 1_000_000 + i)).collect(),
            dup_events: 2,
            shed_sessions: 1,
            journal: JournalAnchor {
                offset: 123_456,
                incidents: 4,
                last_record: 123_400,
                digest: 120_000,
                digest_len: 77,
            },
        }
    }

    /// Snapshots at the edges: every hostile name as a session and a
    /// whitelist entry, the largest value of every field width
    /// (`u64`, `u32`, `u8`, `usize`), empty and long arrays.
    fn edge_snapshots() -> Vec<SentrySnapshot> {
        let names = hostile_names();
        let mut snaps = vec![
            shaped(0, 0, &names),
            shaped(12, 3, &names),
            shaped(3, 2_000, &names),
        ];
        let mut max = shaped(2, 0, &names);
        max.state = u64::MAX;
        max.events = u64::MAX;
        max.verdicts_folded = u64::MAX;
        max.whitelist_exact = names.clone();
        max.whitelist_prefixes = names.clone();
        max.table.next_sid = u64::MAX;
        max.table.clock = u64::MAX;
        max.table.retired_calls = u64::MAX;
        max.table.by_pid = vec![(u32::MAX, u64::MAX), (0, 0)];
        max.last_t_us = vec![(u32::MAX, u64::MAX)];
        max.dup_events = u64::MAX;
        max.journal = JournalAnchor {
            offset: u64::MAX,
            incidents: u64::MAX,
            last_record: u64::MAX,
            digest: u64::MAX,
            digest_len: u32::MAX,
        };
        for s in &mut max.table.sessions {
            s.sid = u64::MAX;
            s.pid = u32::MAX;
            s.buf = vec![usize::MAX, 0, 1, 9, 10, 99, 100];
            s.base = usize::MAX;
            s.ended = u8::MAX;
            s.ring = u64::MAX;
            s.verdicts = u32::MAX;
        }
        snaps.push(max);
        snaps.push(SentrySnapshot {
            table: TableSnap {
                sessions: names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| session(i as u64, Some(n.clone()), i % 3, i as u64))
                    .collect(),
                ..shaped(0, 0, &names).table
            },
            ..shaped(0, 0, &names)
        });
        snaps
    }

    fn written(snap: &SentrySnapshot) -> Vec<u8> {
        let mut out = Vec::new();
        put_snapshot(snap, &mut out);
        out
    }

    #[test]
    fn the_codec_writes_serdes_bytes_and_reads_them_back() {
        for snap in edge_snapshots() {
            let ours = written(&snap);
            let theirs = serde_json::to_string(&snap).unwrap();
            assert_eq!(std::str::from_utf8(&ours).unwrap(), theirs);
            assert_eq!(read_snapshot(&ours).as_ref(), Some(&snap));
            let serde_read: SentrySnapshot = serde_json::from_str(&theirs).unwrap();
            assert_eq!(read_snapshot(theirs.as_bytes()), Some(serde_read));
        }
    }

    /// Every prefix and every one-byte change (each single bit, and the
    /// byte's complement) of a corpus-shaped and a fleet-shaped body,
    /// each framed with its CRC recomputed so the body reaches the
    /// reader: it never panics, refuses every prefix, and what it
    /// accepts is what the derives read from the same bytes. It may
    /// refuse bodies they accept.
    #[test]
    fn hostile_bodies_never_panic_and_what_is_accepted_is_what_serde_reads() {
        let names = ["w.exe".to_string(), "q\"\\\u{1}é".to_string()];
        for snap in [shaped(10, 3, &names), shaped(3, 40, &names)] {
            let body = written(&snap);
            let decode = |body: &[u8]| {
                let file = [SNAPSHOT_MAGIC.as_slice(), &crc32(body).to_le_bytes(), body].concat();
                decode_checkpoint(&file)
            };
            assert_eq!(decode(&body).as_ref(), Some(&snap));
            for len in 0..body.len() {
                assert_eq!(decode(&body[..len]), None, "a {len}-byte prefix");
            }
            let (mut accepted, mut mutants) = (0, 0);
            let mut mutant = body.clone();
            for at in 0..body.len() {
                for flip in [1, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                    mutant[at] = body[at] ^ flip;
                    mutants += 1;
                    if let Some(read) = decode(&mutant) {
                        accepted += 1;
                        let text = std::str::from_utf8(&mutant).unwrap();
                        let serde_read: SentrySnapshot =
                            serde_json::from_str(text).unwrap_or_else(|e| {
                                panic!("accepted what serde refuses ({e}): {text}")
                            });
                        assert_eq!(read, serde_read, "{text}");
                    }
                }
                mutant[at] = body[at];
            }
            // Digit-for-digit and in-string changes read as other
            // snapshots; structural ones are refused.
            assert!(
                0 < accepted && accepted < mutants / 2,
                "{accepted} of {mutants}"
            );
        }
    }

    /// Bodies one token off the writer's form: numbers that overflow
    /// their field, escapes that are malformed, a lone surrogate, and
    /// spellings the derives accept but the writer never makes.
    #[test]
    fn off_form_tokens_are_refused() {
        let good = String::from_utf8(written(&shaped(1, 2, &["p.exe".into()]))).unwrap();
        assert!(read_snapshot(good.as_bytes()).is_some());
        let swap = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1)
        };
        let refused = [
            // One past `u64::MAX`; the derives' reader would saturate it.
            swap("\"events\":4321", "\"events\":18446744073709551616"),
            swap("\"events\":4321", "\"events\":99999999999999999999999"),
            swap("\"ended\":0", "\"ended\":256"),
            swap("\"digest_len\":77", "\"digest_len\":4294967296"),
            swap("\"p.exe\"", "\"p\\u00zz\""),
            swap("\"p.exe\"", "\"p\\u12\""),
            swap("\"p.exe\"", "\"p\\ud800\""),
            swap("\"p.exe\"", "\"p\\ud83d\\ude00\""),
            swap("\"p.exe\"", "\"p\\x\""),
            swap("\"p.exe\"", "\"p\\"),
            swap("\"p.exe\"", "\"p\u{1}\""),
            // The derives read these; the writer never spells them.
            swap("\"p.exe\"", "\"p\\u000A\""),
            swap("\"p.exe\"", "\"p\\u000a\""),
            swap("\"p.exe\"", "\"p\\/\""),
            swap("\"events\":4321", "\"events\":04321"),
            swap("\"events\":4321", "\"events\":4321.0"),
            swap("\"events\":4321", "\"events\": 4321"),
            swap(
                "\"dup_events\":2,\"shed_sessions\":1",
                "\"shed_sessions\":1,\"dup_events\":2",
            ),
            good.clone() + " ",
        ];
        for body in refused {
            assert_eq!(read_snapshot(body.as_bytes()), None, "{body}");
        }
        assert_eq!(read_snapshot(&[0xFF]), None);
    }
}
