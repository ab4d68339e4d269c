//! Layer drives: the workload's exact event or window stream replayed
//! single-threaded into one layer's public API, so each layer has its
//! own number next to the traced loop's spans. Per-layer metrics have
//! no bound; they explain end-to-end movement, they never justify code.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use csd_accel::{Alert, ShardedStreamMux, Verdict};
use csd_sentry::{
    read_frame, write_frame, ActionOutcome, ActionTaken, EventBus, Incident, Journal,
    JournalConfig, JournalError, ProcessEvent, Sentry, SentrySnapshot, SessionTable, SocketClient,
    SocketServer, DEFAULT_BUS_CAPACITY, SNAPSHOT_MAGIC,
};

use crate::setup::{Inputs, Submission};
use crate::workload::{CHECKPOINT_EVERY, POLL_EVERY};

/// `JournalConfig::default().sync_every`.
const SYNC_EVERY: usize = 256;
/// Frames pushed through the socket drive (two writes per frame make
/// the whole trace needlessly slow for a rate).
const SOCKET_FRAMES: usize = 100_000;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, prefixed `crate.module`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

pub(crate) fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ns_per(elapsed: Duration, n: usize) -> f64 {
    elapsed.as_secs_f64() * 1e9 / n.max(1) as f64
}

/// `sentry.event`: wire encode and decode of every event.
pub fn event_layer(events: &[ProcessEvent]) -> Vec<Metric> {
    let mut wire = Vec::with_capacity(events.len() * 24);
    let t = Instant::now();
    for e in events {
        write_frame(&mut wire, e).expect("encoding into memory cannot fail");
    }
    let encode = t.elapsed();
    let mut reader = wire.as_slice();
    let t = Instant::now();
    let mut decoded = 0usize;
    while let Some(event) = read_frame(&mut reader).expect("own frames decode") {
        black_box(event);
        decoded += 1;
    }
    let decode = t.elapsed();
    assert_eq!(decoded, events.len(), "every frame decodes");
    vec![
        metric("sentry.event.encode_ns", ns_per(encode, events.len()), "ns"),
        metric("sentry.event.decode_ns", ns_per(decode, events.len()), "ns"),
        metric(
            "sentry.event.frame_bytes",
            wire.len() as f64 / events.len() as f64,
            "bytes",
        ),
    ]
}

/// `sentry.bus`: one in-process hop, and the socket → server → bus path
/// with a consumer that only drains.
pub fn bus_layer(events: &[ProcessEvent], dir: &Path) -> std::io::Result<Vec<Metric>> {
    let consume = |bus: &EventBus, n: usize| {
        let mut buf = Vec::new();
        let mut got = 0usize;
        while got < n {
            buf.clear();
            let k = bus.recv_into(&mut buf, Duration::from_millis(10));
            got += k;
        }
    };

    let bus = EventBus::new(DEFAULT_BUS_CAPACITY);
    let producer = bus.producer();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| events.iter().all(|e| producer.send(e.clone())));
        consume(&bus, events.len());
    });
    let hop = t.elapsed();

    let frames = &events[..events.len().min(SOCKET_FRAMES)];
    let bus = EventBus::new(DEFAULT_BUS_CAPACITY);
    let server = SocketServer::bind(&dir.join("drive.sock"), bus.producer())?;
    let mut client = SocketClient::connect(server.path())?;
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for e in frames {
                client.send(e).expect("socket write");
            }
        });
        consume(&bus, frames.len());
    });
    let socket = t.elapsed();
    Ok(vec![
        metric("sentry.bus.hop_ns", ns_per(hop, events.len()), "ns"),
        metric(
            "sentry.bus.socket_frames_per_s",
            frames.len() as f64 / socket.as_secs_f64(),
            "1/s",
        ),
    ])
}

/// `sentry.session`: the session table alone.
pub fn session_layer(inputs: &Inputs) -> Vec<Metric> {
    let vocab = inputs.engine.weights().dims().vocab;
    let mut table = SessionTable::new(vocab, inputs.config.idle_timeout_events);
    let mut live_peak = 0u64;
    let t = Instant::now();
    for e in &inputs.closed.events {
        black_box(table.apply(e));
        live_peak = live_peak.max(table.started() - table.ended_count());
    }
    let apply = t.elapsed();
    vec![
        metric(
            "sentry.session.apply_ns",
            ns_per(apply, inputs.closed.events.len()),
            "ns",
        ),
        metric("sentry.session.live_peak", live_peak as f64, "count"),
    ]
}

/// `sentry.service`: the same stream through the volatile [`Sentry`] on
/// the service loop's cadence (poll every 16 events, drain where the
/// durable path checkpoints) — the "durable within 2× of volatile"
/// reference. One untimed-per-call pass for the rate, one with a clock
/// around each call.
pub fn service_layer(inputs: &Inputs) -> Vec<Metric> {
    let events = &inputs.closed.events;
    let replay = |per_call: bool| {
        let mut sentry = Sentry::new(inputs.engine.clone(), inputs.config.clone());
        let (mut ingest, mut poll, mut polls) = (Duration::ZERO, Duration::ZERO, 0usize);
        let t = Instant::now();
        for (i, e) in events.iter().enumerate() {
            if per_call {
                let c = Instant::now();
                black_box(sentry.ingest(e));
                ingest += c.elapsed();
            } else {
                black_box(sentry.ingest(e));
            }
            if (i + 1).is_multiple_of(POLL_EVERY) {
                polls += 1;
                if per_call {
                    let c = Instant::now();
                    black_box(sentry.poll());
                    poll += c.elapsed();
                } else {
                    black_box(sentry.poll());
                }
            }
            if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
                black_box(sentry.drain());
            }
        }
        black_box(sentry.drain());
        (t.elapsed(), ingest, poll, polls)
    };
    let (wall, ..) = replay(false);
    let (_, ingest, poll, polls) = replay(true);
    vec![
        metric(
            "sentry.service.volatile_events_per_s",
            events.len() as f64 / wall.as_secs_f64(),
            "1/s",
        ),
        metric(
            "sentry.service.ingest_ns",
            ns_per(ingest, events.len()),
            "ns",
        ),
        metric("sentry.service.poll_us", ns_per(poll, polls) / 1e3, "us"),
    ]
}

/// `sentry.journal`: the journal alone, fed the events in 256-record
/// sync batches with an incident record (and its forced sync) at each
/// deciding call; then a full scan of the file it wrote.
pub fn journal_layer(inputs: &Inputs, dir: &Path) -> Result<Vec<Metric>, JournalError> {
    let path = dir.join("drive-journal.log");
    let _ = std::fs::remove_file(&path);
    // The journal's own batching is switched off so that appends and
    // syncs can be timed apart; the loop below syncs on its schedule.
    let manual = JournalConfig {
        sync_every: usize::MAX,
    };
    let (mut journal, _) = Journal::open(&path, manual)?;
    let mut deciding = inputs.closed.expected.iter().peekable();
    let (mut append, mut sync) = (Duration::ZERO, Duration::ZERO);
    let mut batch_syncs = 0usize;
    let start = Instant::now();
    for (i, e) in inputs.closed.events.iter().enumerate() {
        let t = Instant::now();
        journal.append_event(e)?;
        append += t.elapsed();
        if journal.pending_events() >= SYNC_EVERY {
            let t = Instant::now();
            journal.sync()?;
            sync += t.elapsed();
            batch_syncs += 1;
        }
        if let Some(expected) = deciding.next_if(|x| x.event_idx == i) {
            journal.append_incident(&Incident {
                sid: u64::from(expected.pid),
                pid: expected.pid,
                name: Some(format!("process/{}", expected.pid)),
                alert: Alert {
                    at_call: expected.at_call,
                    probability: 0.97,
                    inference_us: 1234.5,
                },
                action: ActionTaken::Logged,
                outcome: ActionOutcome::NotAttempted,
                post_exit: false,
            })?;
        }
    }
    journal.sync()?;
    let busy = start.elapsed();
    drop(journal);

    let t = Instant::now();
    let (journal, recovered) = Journal::open(&path, JournalConfig::default())?;
    let scan = t.elapsed();
    assert_eq!(
        recovered.event_count(),
        inputs.closed.events.len() as u64,
        "the scan recovers every event"
    );
    drop(journal);
    std::fs::remove_file(&path)?;
    Ok(vec![
        metric(
            "sentry.journal.append_event_ns",
            ns_per(append, inputs.closed.events.len()),
            "ns",
        ),
        metric(
            "sentry.journal.sync_us",
            ns_per(sync, batch_syncs) / 1e3,
            "us",
        ),
        metric("sentry.journal.busy_s", busy.as_secs_f64(), "s"),
        metric("sentry.journal.scan_s", scan.as_secs_f64(), "s"),
    ])
}

/// `sentry.snapshot` read side: checkpoint file → restored sentry, the
/// way `DurableSentry::open` loads it.
pub fn snapshot_load(inputs: &Inputs, checkpoint: &Path) -> std::io::Result<Vec<Metric>> {
    let bytes_last = std::fs::metadata(checkpoint)?.len();
    let t = Instant::now();
    let bytes = std::fs::read(checkpoint)?;
    let body = bytes
        .get(SNAPSHOT_MAGIC.len() + 4..)
        .and_then(|b| std::str::from_utf8(b).ok())
        .ok_or_else(|| std::io::Error::other("checkpoint file is not a snapshot"))?;
    let snap: SentrySnapshot =
        serde_json::from_str(body).map_err(|e| std::io::Error::other(e.to_string()))?;
    black_box(Sentry::restore(
        inputs.engine.clone(),
        inputs.config.clone(),
        &snap,
    ));
    let load = t.elapsed();
    Ok(vec![
        metric("sentry.snapshot.bytes_last", bytes_last as f64, "bytes"),
        metric("sentry.snapshot.load_ms", load.as_secs_f64() * 1e3, "ms"),
    ])
}

/// What one standalone mux drive measured.
#[derive(Debug, Clone, Copy)]
pub struct MuxDrive {
    /// Mean nanoseconds per `submit`.
    pub submit_ns: f64,
    /// Mean microseconds per `tick_into`.
    pub tick_us: f64,
    /// Verdicts per wall second of the whole drive.
    pub verdicts_per_s: f64,
}

/// `core.shard`: the window stream into a standalone
/// [`ShardedStreamMux`] on the service loop's cadence — a tick per 16
/// events, a drain where the durable path checkpoints.
pub fn mux_drive(inputs: &Inputs, submissions: &[Submission<'_>], shards: usize) -> MuxDrive {
    let mut config = inputs.config.mux;
    config.shards = Some(shards);
    let mut mux = ShardedStreamMux::new(inputs.engine.clone(), config);
    let mut out: Vec<Verdict> = Vec::new();
    let mut next = submissions.iter().peekable();
    let (mut submit, mut tick, mut ticks) = (Duration::ZERO, Duration::ZERO, 0usize);
    let start = Instant::now();
    for i in 0..inputs.closed.events.len() {
        if let Some(s) = next.next_if(|s| s.event_idx == i) {
            let t = Instant::now();
            mux.submit(u64::from(s.pid), s.at_call, s.window);
            submit += t.elapsed();
        }
        if (i + 1).is_multiple_of(POLL_EVERY) {
            let t = Instant::now();
            mux.tick_into(&mut out);
            tick += t.elapsed();
            ticks += 1;
        }
        if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            mux.drain_into(&mut out);
        }
    }
    mux.drain_into(&mut out);
    let wall = start.elapsed();
    assert_eq!(
        out.len(),
        submissions.len(),
        "the standalone mux must retire every window"
    );
    MuxDrive {
        submit_ns: ns_per(submit, submissions.len()),
        tick_us: ns_per(tick, ticks) / 1e3,
        verdicts_per_s: out.len() as f64 / wall.as_secs_f64(),
    }
}

/// `core.engine`: serial `classify` and the lane-batched engine over
/// the head of the window stream.
pub fn engine_layer(inputs: &Inputs, submissions: &[Submission<'_>]) -> Vec<Metric> {
    let serial = &submissions[..submissions.len().min(2000)];
    let t = Instant::now();
    for s in serial {
        black_box(inputs.engine.classify(s.window));
    }
    let classify = t.elapsed();

    let batch: Vec<&[usize]> = submissions.iter().take(16_000).map(|s| s.window).collect();
    let t = Instant::now();
    black_box(inputs.engine.classify_batch_refs(&batch));
    let lanes = t.elapsed();
    vec![
        metric(
            "core.engine.classify_us",
            ns_per(classify, serial.len()) / 1e3,
            "us",
        ),
        metric(
            "core.engine.lanes_windows_per_s",
            batch.len() as f64 / lanes.as_secs_f64(),
            "1/s",
        ),
    ]
}

/// `tensor.lanes`: one 16-lane gate block of the table matmul at the
/// paper's dimensions (4H = 128 rows, H = 32 recurrent columns, 278
/// table items). Operands are synthetic — the engine's packed weights
/// are not public — so this tracks the kernel, not the model.
pub fn lanes_layer() -> Vec<Metric> {
    const ROWS: usize = 128;
    const HCOLS: usize = 32;
    const WIDTH: usize = 16;
    const ITEMS: usize = 278;
    const CALLS: usize = 50_000;
    let small = |i: usize| ((i * 2_654_435_761) % 2_000_001) as f64 - 1_000_000.0;
    let w: Vec<f64> = (0..ROWS * HCOLS).map(small).collect();
    let zh: Vec<f64> = (0..HCOLS * WIDTH).map(|i| small(i + 7)).collect();
    let table: Vec<f64> = (0..ITEMS * ROWS).map(|i| small(i + 13) * 1e6).collect();
    let items: Vec<usize> = (0..WIDTH).map(|l| (l * 17) % ITEMS).collect();
    let mut out = vec![0.0f64; ROWS * WIDTH];
    let t = Instant::now();
    for _ in 0..CALLS {
        csd_tensor::lanes::matmul_fx_lanes_table(
            black_box(&w),
            ROWS,
            HCOLS,
            black_box(&zh),
            WIDTH,
            &table,
            &items,
            &mut out,
        );
        black_box(&mut out);
    }
    vec![metric(
        "tensor.lanes.gate_block_us",
        ns_per(t.elapsed(), CALLS) / 1e3,
        "us",
    )]
}
