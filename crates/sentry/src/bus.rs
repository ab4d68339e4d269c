//! The event bus: many producers, one sentry.
//!
//! Producers are of two kinds. In-process components (the replay load
//! generator, tests, an embedding host program) clone an
//! [`EventProducer`] and push [`ProcessEvent`]s directly — a bounded
//! channel, so a stalled consumer exerts backpressure instead of
//! growing without bound. Remote producers connect to a
//! [`SocketServer`] over a local Unix socket and speak the
//! length-prefixed frame protocol of [`event`](crate::event); each
//! connection is decoded on its own thread and feeds the same channel.
//!
//! The wire decode path treats connections as untrusted: a malformed
//! frame ends *that connection* (typed error, tallied in
//! [`SocketServer::decode_errors`]) and never disturbs the bus, other
//! producers, or the consumer. The same isolation holds for *panics*:
//! each reader thread's body runs under `catch_unwind`, so a panic in
//! per-connection processing (a hostile frame that trips a bug, a
//! poisoned hook) is caught at the thread boundary, tallied in
//! [`SocketServer::reader_panics`], and ends only that connection —
//! never a silent thread death, never a wedged accept loop. The server
//! shuts down on drop: the accept loop and every live connection
//! thread are joined, so a test or host program tears down cleanly.

use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::{read_frame_while, write_frame, ProcessEvent, WireError};

/// Default bound on queued events between producers and the sentry.
pub const DEFAULT_BUS_CAPACITY: usize = 65_536;

/// Most events one [`EventBus::recv_into`] hands over. A batch is a
/// transient copy, so the consumer's staging buffers follow this
/// constant rather than the queue bound; without a limit, a producer
/// that keeps pace with the drain stretches one batch — and those
/// buffers — past even the bus's capacity.
pub const MAX_BATCH: usize = 1024;

/// The consuming end of the bus, owned by the sentry's driver loop.
#[derive(Debug)]
pub struct EventBus {
    rx: Receiver<ProcessEvent>,
    tx: SyncSender<ProcessEvent>,
    refused: Arc<AtomicU64>,
}

/// A clone-cheap producer handle onto an [`EventBus`].
#[derive(Debug, Clone)]
pub struct EventProducer {
    tx: SyncSender<ProcessEvent>,
    refused: Arc<AtomicU64>,
}

impl EventBus {
    /// Creates a bus bounded at `capacity` queued events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a rendezvous bus would deadlock
    /// single-threaded tests).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bus capacity must be positive");
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        Self {
            rx,
            tx,
            refused: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A new producer handle feeding this bus.
    pub fn producer(&self) -> EventProducer {
        EventProducer {
            tx: self.tx.clone(),
            refused: Arc::clone(&self.refused),
        }
    }

    /// Blocks up to `timeout` for one event, then takes what else is
    /// queued, up to [`MAX_BATCH`] events in all (the rest is there for
    /// the next call). Returns how many were appended — `0` means the
    /// timeout elapsed with the bus idle.
    pub fn recv_into(&self, out: &mut Vec<ProcessEvent>, timeout: Duration) -> usize {
        let Ok(first) = self.rx.recv_timeout(timeout) else {
            return 0;
        };
        let before = out.len();
        out.push(first);
        out.extend(self.rx.try_iter().take(MAX_BATCH - 1));
        out.len() - before
    }

    /// Events refused because the bus was full (producers saw
    /// backpressure and dropped rather than block).
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }
}

impl EventProducer {
    /// Pushes one event, blocking while the bus is full. Returns
    /// `false` if the consumer is gone.
    pub fn send(&self, event: ProcessEvent) -> bool {
        self.tx.send(event).is_ok()
    }

    /// Pushes one event without blocking. A full bus refuses the event
    /// (tallied on [`EventBus::refused`]) — the producer's choice of
    /// `send` vs `try_send` is the block-vs-shed backpressure policy.
    pub fn try_send(&self, event: ProcessEvent) -> bool {
        match self.tx.try_send(event) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.refused.fetch_add(1, Ordering::Relaxed);
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// Accept-loop poll cadence. The listener runs non-blocking so drop can
/// stop it without a wake-up connection.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Most connections served at once. Each holds a reader thread and a
/// file descriptor, so a hostile peer count must not be able to grow
/// either without bound; a connection arriving at the cap is dropped at
/// accept and counted ([`SocketServer::connections_refused`]).
pub const MAX_CONNECTIONS: usize = 256;

/// Per-frame instrumentation hook: called with each decoded frame
/// before it is forwarded to the bus. The chaos harness and regression
/// tests use it to observe or disturb (panic in) per-connection
/// processing.
pub type FrameHook = Arc<dyn Fn(&ProcessEvent) + Send + Sync>;

/// The tallies a [`SocketServer`] keeps, shared by its handle, its
/// accept loop and every connection it serves.
#[derive(Debug, Default)]
struct ServerCounters {
    decode_errors: AtomicU64,
    frames: AtomicU64,
    reader_panics: AtomicU64,
    accept_errors: AtomicU64,
    connections_refused: AtomicU64,
}

/// A Unix-socket frame server feeding an [`EventBus`].
#[derive(Debug)]
pub struct SocketServer {
    path: PathBuf,
    running: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// Binds `path` and starts accepting connections; each connection's
    /// frames are decoded and pushed to `producer` (blocking push: a
    /// full bus back-pressures the socket, which back-pressures the
    /// remote producer through the kernel buffer). A stale socket file
    /// at `path` is removed first.
    pub fn bind(path: &Path, producer: EventProducer) -> std::io::Result<Self> {
        Self::bind_with_hook(path, producer, None)
    }

    /// [`bind`](Self::bind) with a per-frame [`FrameHook`] installed on
    /// every connection.
    pub fn bind_with_hook(
        path: &Path,
        producer: EventProducer,
        hook: Option<FrameHook>,
    ) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let running = Arc::new(AtomicBool::new(true));
        let counters = Arc::new(ServerCounters::default());
        let accept_thread = {
            let running = Arc::clone(&running);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                accept_loop(AcceptCtx {
                    listener: &listener,
                    producer: &producer,
                    running: &running,
                    counters: &counters,
                    hook: hook.as_ref(),
                });
            })
        };
        Ok(Self {
            path: path.to_path_buf(),
            running,
            counters,
            accept_thread: Some(accept_thread),
        })
    }

    /// Connections dropped because they sent a malformed frame.
    pub fn decode_errors(&self) -> u64 {
        self.counters.decode_errors.load(Ordering::Relaxed)
    }

    /// Reader threads that died by panic — caught at the thread
    /// boundary, counted, connection dropped. Anything non-zero is a
    /// bug being witnessed instead of lost.
    pub fn reader_panics(&self) -> u64 {
        self.counters.reader_panics.load(Ordering::Relaxed)
    }

    /// `accept` calls that failed with anything other than "no
    /// connection waiting" (descriptor exhaustion, an aborted handshake,
    /// a signal). Each is retried after the accept poll interval.
    pub fn accept_errors(&self) -> u64 {
        self.counters.accept_errors.load(Ordering::Relaxed)
    }

    /// Connections dropped at accept because [`MAX_CONNECTIONS`] were
    /// already being served.
    pub fn connections_refused(&self) -> u64 {
        self.counters.connections_refused.load(Ordering::Relaxed)
    }

    /// Frames decoded and forwarded so far, across all connections.
    pub fn frames(&self) -> u64 {
        self.counters.frames.load(Ordering::Relaxed)
    }

    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Everything the accept loop threads through to its connections.
struct AcceptCtx<'a> {
    listener: &'a UnixListener,
    producer: &'a EventProducer,
    running: &'a Arc<AtomicBool>,
    counters: &'a Arc<ServerCounters>,
    hook: Option<&'a FrameHook>,
}

/// Accepts connections until `running` clears, spawning one decode
/// thread per connection (at most [`MAX_CONNECTIONS`] at once); joins
/// them all before returning. Each connection body runs under
/// `catch_unwind`: a panic is counted and ends that connection only. A
/// failed `accept` is counted and retried: the errors it can return
/// while the listener is open are transient, and descriptor exhaustion
/// in particular clears when a connection ends.
fn accept_loop(ctx: AcceptCtx<'_>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while ctx.running.load(Ordering::SeqCst) {
        match ctx.listener.accept() {
            Ok(_) if connections.len() >= MAX_CONNECTIONS => {
                ctx.counters
                    .connections_refused
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok((stream, _)) => {
                let producer = ctx.producer.clone();
                let running = Arc::clone(ctx.running);
                let counters = Arc::clone(ctx.counters);
                let hook = ctx.hook.map(Arc::clone);
                connections.push(std::thread::spawn(move || {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        serve_connection(stream, &producer, &running, &counters, hook.as_ref());
                    }));
                    if caught.is_err() {
                        // The thread boundary is where a lost panic
                        // would otherwise vanish: count it here.
                        counters.reader_panics.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            Err(e) => {
                if e.kind() != std::io::ErrorKind::WouldBlock {
                    ctx.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
        connections.retain(|c| !c.is_finished());
    }
    for c in connections {
        let _ = c.join();
    }
}

/// Decodes one connection's frames until EOF, error, or shutdown.
fn serve_connection(
    stream: UnixStream,
    producer: &EventProducer,
    running: &Arc<AtomicBool>,
    counters: &ServerCounters,
    hook: Option<&FrameHook>,
) {
    // A read timeout keeps shutdown responsive on idle connections. One
    // that fires inside a frame keeps the bytes read so far and waits for
    // the rest until shutdown, when the frame is lost with the
    // connection (`WireError::Stalled`).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut reader = BufReader::new(stream);
    let mut keep_waiting = || running.load(Ordering::SeqCst);
    while running.load(Ordering::SeqCst) {
        match read_frame_while(&mut reader, &mut keep_waiting) {
            Ok(Some(event)) => {
                counters.frames.fetch_add(1, Ordering::Relaxed);
                if let Some(hook) = hook {
                    hook(&event);
                }
                if !producer.send(event) {
                    return; // Consumer gone; nothing left to feed.
                }
            }
            Ok(None) => return, // Clean EOF.
            Err(WireError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(WireError::Stalled) => return, // Shutdown mid-frame.
            Err(_) => {
                // Malformed frame: this connection is untrusted from
                // here on — drop it, keep the bus and its peers alive.
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// A frame-protocol client: what a remote producer links against.
#[derive(Debug)]
pub struct SocketClient {
    stream: UnixStream,
}

impl SocketClient {
    /// Connects to a [`SocketServer`] at `path`.
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            stream: UnixStream::connect(path)?,
        })
    }

    /// Sends one event as a frame.
    pub fn send(&mut self, event: &ProcessEvent) -> Result<(), WireError> {
        write_frame(&mut self.stream, event)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn in_process_producers_feed_the_bus_in_order() {
        let bus = EventBus::new(16);
        let p = bus.producer();
        for i in 0..5 {
            assert!(p.send(ProcessEvent::api(i, 1, i as usize)));
        }
        let mut out = Vec::new();
        assert_eq!(bus.recv_into(&mut out, Duration::ZERO), 5);
        let calls: Vec<usize> = out
            .iter()
            .map(|e| match e.kind {
                EventKind::Api(c) => c,
                _ => unreachable!("only api events were sent"),
            })
            .collect();
        assert_eq!(calls, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_bus_refuses_try_send_and_tallies() {
        let bus = EventBus::new(2);
        let p = bus.producer();
        assert!(p.try_send(ProcessEvent::exit(0, 1)));
        assert!(p.try_send(ProcessEvent::exit(1, 1)));
        assert!(!p.try_send(ProcessEvent::exit(2, 1)), "bus is full");
        assert_eq!(bus.refused(), 1);
        let mut out = Vec::new();
        assert_eq!(
            bus.recv_into(&mut out, Duration::ZERO),
            2,
            "queued events survive"
        );
    }

    #[test]
    fn multiple_producer_clones_share_one_bus() {
        let bus = EventBus::new(64);
        let handles: Vec<_> = (0..4u32)
            .map(|pid| {
                let p = bus.producer();
                std::thread::spawn(move || {
                    for i in 0..8u64 {
                        p.send(ProcessEvent::api(i, pid, i as usize));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        bus.recv_into(&mut out, Duration::ZERO);
        assert_eq!(out.len(), 32, "every producer's events arrive");
    }

    #[test]
    fn recv_into_hands_over_at_most_one_batch_and_leaves_the_rest_queued() {
        let bus = EventBus::new(4 * MAX_BATCH);
        let p = bus.producer();
        for i in 0..(2 * MAX_BATCH + 5) as u64 {
            assert!(p.send(ProcessEvent::exit(i, 1)));
        }
        let mut out = Vec::new();
        let sizes: Vec<usize> = (0..4)
            .map(|_| bus.recv_into(&mut out, Duration::from_millis(5)))
            .collect();
        assert_eq!(sizes, [MAX_BATCH, MAX_BATCH, 5, 0]);
        assert!(
            out.iter().map(|e| e.t_us).eq(0..(2 * MAX_BATCH + 5) as u64),
            "in order, none lost"
        );
    }

    #[test]
    fn recv_into_times_out_on_an_idle_bus() {
        let bus = EventBus::new(4);
        let _keep_alive = bus.producer();
        let mut out = Vec::new();
        assert_eq!(bus.recv_into(&mut out, Duration::from_millis(5)), 0);
        assert!(out.is_empty());
    }
}
