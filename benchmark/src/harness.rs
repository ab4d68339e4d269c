//! One repetition of a workload's measured phase: a feeder (closed-loop
//! producer or paced socket client) on its own thread, the service loop
//! on the calling thread, a fresh durable directory.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csd_sentry::{
    run_service, write_frame, DurableConfig, EventBus, EventProducer, FrameHook, JournalError,
    ServiceConfig, ServiceOutcome, SocketServer, SupervisorPolicy, DEFAULT_BUS_CAPACITY,
};

use crate::clock::{pace_ns, thread_cpu_s, thread_user_s, PACE_REF_NS};
use crate::mirror::{mirror_service, MirrorOutcome, Observed};
use crate::setup::{Expected, Inputs, Trace};
use crate::stats::Summary;
use crate::trace::Probe;
use crate::workload::{Load, TICK_US};

/// Which service loop a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLoop {
    /// The real `csd_sentry::run_service` (no incident times).
    Real,
    /// The benchmark's mirror of it.
    Mirror,
}

/// How late the paced generator ran.
#[derive(Debug, Clone, Default)]
pub struct Lag {
    /// Per tick: microseconds between its due time and its first write.
    pub tick_lag_us: Vec<f64>,
}

impl Lag {
    /// Share of ticks that started more than one tick late.
    pub fn late_share(&self) -> f64 {
        let late = self
            .tick_lag_us
            .iter()
            .filter(|&&l| l > TICK_US as f64)
            .count();
        late as f64 / self.tick_lag_us.len().max(1) as f64
    }
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// CPU seconds the service thread spent in the service loop.
    pub cpu_s: f64,
    /// The user-mode part of `cpu_s`, in steps of 10 ms.
    pub user_s: f64,
    /// The host's pace while the loop ran: the median of the readings
    /// taken on the service thread (see [`PACE_EVERY`]).
    pub pace_ns: f64,
    /// The first (due) send.
    pub start: Instant,
    /// Seconds from then until the service loop had drained,
    /// checkpointed and returned.
    pub wall_s: f64,
    /// The service loop's result.
    pub service: ServiceOutcome,
    /// Incident hand-back times (mirror loop only).
    pub observed: Vec<Observed>,
    /// Checkpoints, journal syncs and cadence polls (mirror loop only).
    pub checkpoints: u64,
    /// See `checkpoints`.
    pub journal_syncs: u64,
    /// See `checkpoints`.
    pub polls: u64,
    /// For each expected incident, in `Trace::expected` order: when its
    /// deciding call was sent (closed loop) or due (paced).
    pub due: Vec<Instant>,
    /// Events the bus refused.
    pub bus_refused: u64,
    /// Connections the socket server dropped for a malformed frame.
    pub decode_errors: u64,
    /// Socket reader threads that died by panic.
    pub reader_panics: u64,
    /// Generator lateness (paced only).
    pub lag: Option<Lag>,
}

/// One detection latency.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// When the deciding call was sent or due, seconds into the run.
    pub due_s: f64,
    /// Hand-back time minus that, microseconds.
    pub us: f64,
}

impl Rep {
    /// `user_s` at the reference pace.
    pub fn ref_user_s(&self) -> f64 {
        self.user_s * PACE_REF_NS / self.pace_ns
    }

    /// Detection latencies of every observed incident the oracle also
    /// expects.
    pub fn latencies(&self, expected: &[Expected]) -> Vec<Latency> {
        let due: std::collections::HashMap<(u32, usize), Instant> = expected
            .iter()
            .zip(&self.due)
            .map(|(e, &t)| ((e.pid, e.at_call), t))
            .collect();
        self.observed
            .iter()
            .filter_map(|o| {
                let sent = *due.get(&(o.pid, o.at_call))?;
                Some(Latency {
                    due_s: sent.saturating_duration_since(self.start).as_secs_f64(),
                    us: o.at.saturating_duration_since(sent).as_secs_f64() * 1e6,
                })
            })
            .collect()
    }
}

/// Events between two readings of the host's pace on the service
/// thread of a closed-loop repetition: 30 to 50 readings a repetition,
/// whose arithmetic adds about a percent to the thread's user time.
pub const PACE_EVERY: u64 = 4096;

/// Reads the host's pace on the service thread, in the middle of its
/// work, through `ServiceConfig::ingest_hook` — the one place the real
/// `run_service` lets a caller onto that thread.
#[derive(Debug, Default)]
struct PaceSampler {
    events: AtomicU64,
    readings: Mutex<Vec<f64>>,
}

impl PaceSampler {
    fn hook(self: &Arc<Self>) -> FrameHook {
        let sampler = Arc::clone(self);
        Arc::new(move |_event| {
            let n = sampler.events.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(PACE_EVERY) {
                sampler.read();
            }
        })
    }

    fn read(&self) {
        self.readings
            .lock()
            .expect("no reading thread panics")
            .push(pace_ns());
    }

    fn median(&self) -> f64 {
        Summary::of(&self.readings.lock().expect("no reading thread panics")).median
    }
}

/// Runs one repetition of `trace`, offered as `load`, under `dir` (which
/// must not hold an earlier run's state).
pub fn run_rep<P: Probe>(
    inputs: &Inputs,
    trace: &Trace,
    load: Load,
    dir: &Path,
    which: ServiceLoop,
    probe: &mut P,
) -> Result<Rep, JournalError> {
    std::fs::create_dir_all(dir)?;
    let bus = EventBus::new(DEFAULT_BUS_CAPACITY);
    let stop = Arc::new(AtomicBool::new(false));
    let durable = DurableConfig::new(dir);
    let policy = SupervisorPolicy::default();
    let pace = Arc::new(PaceSampler::default());
    let service = ServiceConfig {
        // A paced loop is mostly idle and is timed by its incidents, a
        // traced one by its spans: no pace kernel inside either.
        ingest_hook: (load == Load::Closed && !P::TRACING).then(|| pace.hook()),
        ..ServiceConfig::default()
    };
    let server = match load {
        Load::Closed => None,
        Load::Paced { .. } => Some(SocketServer::bind(&dir.join("bus.sock"), bus.producer())?),
    };

    let (fed, served, returned_at, cpu_s, user_s) = std::thread::scope(|s| {
        let feeder = {
            let stop = Arc::clone(&stop);
            let producer = bus.producer();
            let server = server.as_ref();
            s.spawn(move || match (load, server) {
                (Load::Paced { per_tick }, Some(server)) => {
                    feed_paced(server, trace, per_tick, &stop)
                }
                _ => feed_closed(&producer, trace, &stop),
            })
        };
        pace.read();
        let (cpu_before, user_before) = (thread_cpu_s(), thread_user_s());
        let served = match which {
            ServiceLoop::Real => run_service(
                &policy,
                || inputs.engine.clone(),
                &inputs.config,
                &durable,
                &service,
                &bus,
                &stop,
            )
            .map(|(outcome, report)| (outcome.map(unobserved), report)),
            ServiceLoop::Mirror => mirror_service(
                &policy,
                || inputs.engine.clone(),
                &inputs.config,
                &durable,
                &service,
                &bus,
                &stop,
                probe,
            ),
        };
        let returned_at = Instant::now();
        let (cpu_s, user_s) = (thread_cpu_s() - cpu_before, thread_user_s() - user_before);
        pace.read();
        if !matches!(served, Ok((Some(_), _))) {
            // Unblock a feeder stuck on a full bus before joining it.
            stop.store(true, Ordering::SeqCst);
            let mut sink = Vec::new();
            while !feeder.is_finished() {
                sink.clear();
                bus.recv_into(&mut sink, Duration::from_millis(1));
            }
        }
        let fed = feeder.join().expect("feeder thread panicked");
        (fed, served, returned_at, cpu_s, user_s)
    });
    let (served, supervisor) = served?;
    let served = served.ok_or_else(|| {
        std::io::Error::other(format!(
            "service loop escalated to degraded shutdown: {supervisor:?}"
        ))
    })?;

    Ok(Rep {
        cpu_s,
        user_s,
        pace_ns: pace.median(),
        start: fed.start,
        wall_s: returned_at.duration_since(fed.start).as_secs_f64(),
        service: served.service,
        observed: served.observed,
        checkpoints: served.checkpoints,
        journal_syncs: served.journal_syncs,
        polls: served.polls,
        due: fed.due,
        bus_refused: bus.refused(),
        decode_errors: server.as_ref().map_or(0, SocketServer::decode_errors),
        reader_panics: server.as_ref().map_or(0, SocketServer::reader_panics),
        lag: fed.lag,
    })
}

/// `run_service`'s result in the mirror's shape: it says nothing about
/// when incidents came back or what the journal did.
fn unobserved(service: ServiceOutcome) -> MirrorOutcome {
    MirrorOutcome {
        service,
        observed: Vec::new(),
        checkpoints: 0,
        journal_syncs: 0,
        polls: 0,
    }
}

struct Fed {
    /// First (due) send.
    start: Instant,
    due: Vec<Instant>,
    lag: Option<Lag>,
}

/// Closed loop: blocking sends, as fast as the bus accepts them.
fn feed_closed(producer: &EventProducer, trace: &Trace, stop: &AtomicBool) -> Fed {
    let start = Instant::now();
    let mut due = Vec::with_capacity(trace.expected.len());
    let mut deciding = trace.expected.iter().map(|e| e.event_idx).peekable();
    for (i, event) in trace.events.iter().enumerate() {
        if deciding.peek() == Some(&i) {
            deciding.next();
            due.push(Instant::now());
        }
        if !producer.send(event.clone()) {
            break; // The service loop is gone; its error is reported.
        }
    }
    stop.store(true, Ordering::SeqCst);
    Fed {
        start,
        due,
        lag: None,
    }
}

/// Open loop: every tick, write the frames due in it — one `write` per
/// tick, so the generator costs the two-core host as little as it can.
/// A tick that starts late is recorded, not skipped; latency counts
/// from due times.
fn feed_paced(server: &SocketServer, trace: &Trace, per_tick: usize, stop: &AtomicBool) -> Fed {
    let (events, expected) = (&trace.events, &trace.expected);
    let tick = Duration::from_micros(TICK_US);
    let mut client = UnixStream::connect(server.path()).expect("connect to the bus socket");
    let mut frames = Vec::with_capacity(per_tick * 32);
    // A short lead so the first tick is not late by construction.
    let start = Instant::now() + Duration::from_millis(5);
    let mut lag = Lag::default();
    for (k, due_now) in events.chunks(per_tick).enumerate() {
        frames.clear();
        for event in due_now {
            write_frame(&mut frames, event).expect("encoding into memory cannot fail");
        }
        let due = start + tick * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        lag.tick_lag_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        if client.write_all(&frames).is_err() {
            break; // The server hung up; its counters say why.
        }
    }
    drop(client);
    // Wait until the server has forwarded every frame (or given up on
    // the connection), then let the service loop wind down.
    let forwarded_all = || server.frames() >= events.len() as u64;
    let gave_up = || server.decode_errors() + server.reader_panics() > 0;
    while !forwarded_all() && !gave_up() && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(200));
    }
    std::thread::sleep(Duration::from_millis(1));
    stop.store(true, Ordering::SeqCst);
    Fed {
        start,
        due: expected
            .iter()
            .map(|e| start + tick * (e.event_idx / per_tick) as u32)
            .collect(),
        lag: Some(lag),
    }
}
