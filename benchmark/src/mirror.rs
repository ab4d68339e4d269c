//! The benchmark's own service loop: a line-for-line mirror of the body
//! of `csd_sentry::run_service` that also reports *when* each incident
//! was handed back, which `run_service` has no sink for.
//!
//! Known limit: a later change to `run_service`'s loop body is invisible
//! to everything measured through this mirror until the mirror is
//! updated. `tests/loop_mirror.rs` pins that both produce the same
//! outputs, and every saturation run reports the real loop's throughput
//! next to the mirror's, so drift in speed shows too.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use csd_accel::CsdInferenceEngine;
use csd_sentry::{
    supervise, DurableConfig, DurableSentry, EventBus, Incident, JournalError, ProcessEvent,
    SentryConfig, ServiceConfig, ServiceOutcome, SupervisorPolicy, SupervisorReport,
};

use crate::trace::{Layer, Probe};

/// Traced runs sample verdict staleness every this many events
/// (`Sentry::staleness` walks every stream, so not on each one).
const STALENESS_EVERY: u64 = 256;

/// One incident as the loop's caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// The alerting process.
    pub pid: u32,
    /// `Incident.alert.at_call`.
    pub at_call: usize,
    /// When the `ingest`/`poll`/`drain`/`checkpoint` call that yielded
    /// it returned: journaled, fsynced and handed to the caller.
    pub at: Instant,
}

/// What a completed mirror run produced.
#[derive(Debug)]
pub struct MirrorOutcome {
    /// The fields `run_service` returns.
    pub service: ServiceOutcome,
    /// Every incident with its hand-back time, in hand-back order.
    pub observed: Vec<Observed>,
    /// Checkpoints the final incarnation wrote.
    pub checkpoints: u64,
    /// fsync batches the final incarnation's journal issued.
    pub journal_syncs: u64,
    /// `poll` calls made on the loop's fixed cadence.
    pub polls: u64,
}

fn observe(observed: &mut Vec<Observed>, raised: &[Incident]) {
    if raised.is_empty() {
        return;
    }
    let at = Instant::now();
    observed.extend(raised.iter().map(|i| Observed {
        pid: i.pid,
        at_call: i.alert.at_call,
        at,
    }));
}

/// `run_service`, with a probe around each call into the sentry.
///
/// With a tracing probe the automatic checkpoint is switched off
/// (`checkpoint_every_events = 0`) and the loop calls `drain()` then
/// `checkpoint()` itself at the same event counts — the same code path,
/// but visible as two spans.
#[allow(clippy::too_many_arguments)]
pub fn mirror_service<P: Probe>(
    policy: &SupervisorPolicy,
    mut make_engine: impl FnMut() -> CsdInferenceEngine,
    config: &SentryConfig,
    durable: &DurableConfig,
    service: &ServiceConfig,
    bus: &EventBus,
    stop: &Arc<AtomicBool>,
    probe: &mut P,
) -> Result<(Option<MirrorOutcome>, SupervisorReport), JournalError> {
    let checkpoint_every = durable.checkpoint_every_events;
    let mut durable = durable.clone();
    if P::TRACING {
        durable.checkpoint_every_events = 0;
    }

    let mut journal_error: Option<JournalError> = None;
    let mut pending: VecDeque<ProcessEvent> = VecDeque::new();
    let mut popped = 0u64;
    let mut applied = 0u64;
    let mut polls = 0u64;
    let mut observed: Vec<Observed> = Vec::new();
    let (outcome, report) = supervise(policy, |_attempt| {
        let run = (|| -> Result<MirrorOutcome, JournalError> {
            let mut sentry = DurableSentry::open(make_engine(), config.clone(), durable.clone())?;
            let mut buf: Vec<ProcessEvent> = Vec::new();
            let mut since_poll = 0u64;
            let mut since_checkpoint = 0u64;
            loop {
                let refilled = if pending.is_empty() {
                    buf.clear();
                    let n = probe.span(Layer::BusRecv, 0, || {
                        bus.recv_into(&mut buf, service.recv_timeout)
                    });
                    pending.extend(buf.drain(..));
                    n
                } else {
                    pending.len()
                };
                while let Some(event) = pending.pop_front() {
                    popped += 1;
                    if let Some(hook) = &service.ingest_hook {
                        hook(&event);
                    }
                    let raised = probe.span(Layer::Ingest, event.pid, || sentry.ingest(&event))?;
                    observe(&mut observed, &raised);
                    applied += 1;
                    if P::TRACING {
                        since_checkpoint += 1;
                        if checkpoint_every > 0 && since_checkpoint >= checkpoint_every {
                            since_checkpoint = 0;
                            let raised = probe.span(Layer::Drain, 0, || sentry.drain())?;
                            observe(&mut observed, &raised);
                            let raised =
                                probe.span(Layer::Checkpoint, 0, || sentry.checkpoint())?;
                            observe(&mut observed, &raised);
                        }
                        if applied.is_multiple_of(STALENESS_EVERY) {
                            probe.staleness(sentry.sentry().staleness());
                        }
                    }
                    since_poll += 1;
                    if since_poll >= service.poll_every {
                        since_poll = 0;
                        polls += 1;
                        let raised = probe.span(Layer::Poll, 0, || sentry.poll())?;
                        observe(&mut observed, &raised);
                    }
                }
                if refilled == 0 && stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            let raised = probe.span(Layer::Drain, 0, || sentry.drain())?;
            observe(&mut observed, &raised);
            let raised = probe.span(Layer::Checkpoint, 0, || sentry.checkpoint())?;
            observe(&mut observed, &raised);
            Ok(MirrorOutcome {
                service: ServiceOutcome {
                    incidents: sentry.sentry().incidents().to_vec(),
                    stats: sentry.sentry().stats(),
                    durable_events: sentry.durable_events(),
                    events_lost_to_panic: popped - applied,
                },
                observed: std::mem::take(&mut observed),
                checkpoints: sentry.checkpoints_written(),
                journal_syncs: sentry.journal().syncs(),
                polls,
            })
        })();
        match run {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                journal_error = Some(e);
                None
            }
        }
    });
    if let Some(e) = journal_error {
        return Err(e);
    }
    Ok((outcome.flatten(), report))
}
