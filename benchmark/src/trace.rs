//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's side of the public API and written out when the run
//! ends. End-to-end numbers are never taken from a traced run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The calls the service loop makes, one span name each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The whole service loop; every other span is its child.
    Service,
    /// `EventBus::recv_into` (mostly waiting for traffic).
    BusRecv,
    /// `DurableSentry::ingest`.
    Ingest,
    /// `DurableSentry::poll`.
    Poll,
    /// `DurableSentry::drain`.
    Drain,
    /// `DurableSentry::checkpoint`.
    Checkpoint,
}

impl Layer {
    /// Every child span kind, in budget order.
    pub const CHILDREN: [Layer; 5] = [
        Layer::BusRecv,
        Layer::Ingest,
        Layer::Poll,
        Layer::Drain,
        Layer::Checkpoint,
    ];

    /// The span's name in reports and dumps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Service => "service.loop",
            Layer::BusRecv => "bus.recv_into",
            Layer::Ingest => "durable.ingest",
            Layer::Poll => "durable.poll",
            Layer::Drain => "durable.drain",
            Layer::Checkpoint => "durable.checkpoint",
        }
    }
}

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which call.
    pub layer: Layer,
    /// Index of the span that caused this one (the root is its own).
    pub parent: u32,
    /// The pid of the event being handled — spans of one process share
    /// it; 0 for calls not tied to one event.
    pub pid: u32,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// What the service loop reports to. [`Untraced`] compiles to nothing.
pub trait Probe {
    /// Whether the loop should take the explicit-checkpoint path and
    /// sample staleness (only a traced run does).
    const TRACING: bool;

    /// Runs `f` as a child span of the service loop.
    fn span<T>(&mut self, layer: Layer, pid: u32, f: impl FnOnce() -> T) -> T;

    /// Records one verdict-staleness sample (ingest-clock events).
    fn staleness(&mut self, events: u64);
}

/// The probe of every end-to-end run.
#[derive(Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    const TRACING: bool = false;

    #[inline(always)]
    fn span<T>(&mut self, _: Layer, _: u32, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn staleness(&mut self, _: u64) {}
}

/// The recording probe.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    staleness: Vec<f64>,
}

impl Tracer {
    /// Starts a trace: the root span opens now.
    pub fn start(capacity: usize) -> Self {
        let mut spans = Vec::with_capacity(capacity + 1);
        spans.push(Span {
            layer: Layer::Service,
            parent: 0,
            pid: 0,
            start_ns: 0,
            end_ns: 0,
        });
        Self {
            origin: Instant::now(),
            spans,
            staleness: Vec::new(),
        }
    }

    /// Closes the root span.
    pub fn finish(&mut self) {
        self.spans[0].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Staleness samples, in sampling order.
    pub fn staleness_samples(&self) -> &[f64] {
        &self.staleness
    }

    /// Wall time of the root span, seconds.
    pub fn wall_s(&self) -> f64 {
        (self.spans[0].end_ns - self.spans[0].start_ns) as f64 / 1e9
    }

    /// Durations of every `layer` span, seconds.
    pub fn durations_s(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The root's self time as a share of its duration: wall the child
    /// spans do not cover. Children never nest, so a child's self time
    /// is its duration.
    pub fn unaccounted_share(&self) -> f64 {
        let covered: u64 = self.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        let wall = self.spans[0].end_ns - self.spans[0].start_ns;
        1.0 - covered as f64 / wall.max(1) as f64
    }

    /// Writes the spans as CSV (`name,parent,pid,start_ns,end_ns`).
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,parent,pid,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.layer.name(),
                s.parent,
                s.pid,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Probe for Tracer {
    const TRACING: bool = true;

    fn span<T>(&mut self, layer: Layer, pid: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let value = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            parent: 0,
            pid,
            start_ns,
            end_ns,
        });
        value
    }

    fn staleness(&mut self, events: u64) {
        self.staleness.push(events as f64);
    }
}
