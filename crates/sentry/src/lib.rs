//! `csd-sentry` — live process-event ingestion over the fleet engine.
//!
//! The reproduced paper (DSN-S 2024) deploys its CSD-resident LSTM as a
//! *monitor*: "the CSD continuously monitors the API calls of the host
//! system in the background" (§I). The rest of this workspace builds
//! the engine side of that sentence — bit-faithful kernels, the
//! stream mux's window queue, fleet sharding; this crate builds the
//! service around it, following the split Owlyshield (the production
//! EDR the paper's deployment model resembles) uses between its driver
//! shim, process tracker, and actions-on-kill layers:
//!
//! - [`event`] — [`ProcessEvent`]: spawn / API-call / exit
//!   observations, plus the length-prefixed local wire protocol with a
//!   panic-free, allocation-bounded decoder for untrusted producers.
//! - [`bus`] — the bounded many-producer event bus: in-process
//!   [`EventProducer`] handles and the Unix-socket [`SocketServer`]
//!   that remote producers connect to.
//! - [`session`] — per-PID lifecycle: spawn / exit / idle-timeout /
//!   PID-supersession, each incarnation keyed by a never-reused session
//!   id so recycled PIDs can't inherit verdicts or incidents; a
//!   session is also the one record of its stream (window cursor, vote
//!   ring, outstanding windows, loss), and an ended session leaves the
//!   table once no verdict can name it.
//! - [`whitelist`] — image-name allow list consulted between alert and
//!   action (suppresses the response, never the detection).
//! - [`actions`] — the dispatch end: log / kill / quarantine, every
//!   outcome latched as an [`Incident`].
//! - [`service`] — [`Sentry`]: the assembly. Events in; windows sliced
//!   at the serial monitor's classify points and submitted to a
//!   [`ShardedStreamMux`](csd_accel::ShardedStreamMux) keyed by session
//!   id; verdicts folded through packed k-of-n vote rings, alert for
//!   alert what a serial `StreamMonitor` per process raises; incidents
//!   out.
//! - [`histogram`] — [`LatencyHistogram`]: the fixed-size verdict-latency
//!   telemetry the service keeps.
//!
//! # Example
//!
//! ```rust
//! use csd_accel::{CsdInferenceEngine, OptimizationLevel};
//! use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
//! use csd_sentry::{ProcessEvent, Sentry, SentryConfig};
//!
//! let model = SequenceClassifier::new(ModelConfig::tiny(16), 9);
//! let engine = CsdInferenceEngine::new(
//!     &ModelWeights::from_model(&model),
//!     OptimizationLevel::FixedPoint,
//! );
//! let mut sentry = Sentry::new(
//!     engine,
//!     SentryConfig { window_len: 8, stride: 4, votes_needed: 1, vote_horizon: 1,
//!                    ..SentryConfig::default() },
//! );
//! sentry.ingest(&ProcessEvent::spawn(0, 4242, "suspect.exe"));
//! for i in 0..8 {
//!     sentry.ingest(&ProcessEvent::api(1 + i, 4242, (i as usize * 7) % 16));
//! }
//! let incidents = sentry.drain(); // verdicts fold; maybe an incident
//! assert!(incidents.len() <= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod actions;
pub mod bus;
mod codec;
pub mod durable;
pub mod event;
pub mod histogram;
pub mod journal;
pub mod quarantine;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod supervisor;
pub mod whitelist;

pub use actions::{ActionKind, ActionOutcome, ActionTaken, Incident};
pub use bus::{
    EventBus, EventProducer, FrameHook, SocketClient, SocketServer, DEFAULT_BUS_CAPACITY,
};
pub use durable::{
    read_checkpoint, CheckpointRead, DurableConfig, DurableSentry, FullScan, RecoveryReport,
    StateId, SNAPSHOT_MAGIC,
};
pub use event::{read_frame, write_frame, EventKind, ProcessEvent, WireError, MAX_FRAME_LEN};
pub use histogram::LatencyHistogram;
pub use journal::{
    AnchorRefused, Journal, JournalAnchor, JournalConfig, JournalError, JournalRecovery,
    JOURNAL_MAGIC,
};
pub use quarantine::{QuarantineBackend, SimBackend};
pub use service::{OverloadLevel, Sentry, SentryConfig, SentryStats, ShedRecord};
pub use session::{Applied, EndReason, Session, SessionTable, StreamLoss};
pub use snapshot::{SentrySnapshot, SessionSnap, TableSnap};
pub use supervisor::{
    run_service, supervise, ServiceConfig, ServiceOutcome, SupervisorPolicy, SupervisorReport,
};
pub use whitelist::Whitelist;
