//! The supervisor: no silent death for the service loop.
//!
//! The ingest/pump/poll loop is the sentry's heart; if it dies, the
//! host is unprotected, and somebody has to know. The supervisor
//! wraps each incarnation of the loop in `catch_unwind`,
//! counts consecutive deaths, respawns with exponential backoff, and
//! escalates to a *clean degraded shutdown* after
//! [`max_consecutive_panics`](SupervisorPolicy::max_consecutive_panics)
//! deaths in a row — a crash loop must end in a visible, typed outcome
//! (the [`SupervisorReport`]), not a spin.
//!
//! Respawning is where the recovery lattice pays off: each new
//! incarnation of [`run_service`] reopens its [`DurableSentry`] from
//! the journal + checkpoint on disk, so a panic mid-stream costs at
//! most the unsynced journal tail (which producers re-send — see the
//! resume protocol in [`durable`](crate::durable)), never the incident
//! record.
//!
//! A successful body run resets the consecutive-death counter: the
//! escalation threshold measures a crash *loop*, not total panics over
//! a long uptime.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::actions::Incident;
use crate::bus::{EventBus, FrameHook};
use crate::durable::{DurableConfig, DurableSentry};
use crate::journal::JournalError;
use crate::service::{SentryConfig, SentryStats};
use csd_accel::CsdInferenceEngine;

/// Supervision tuning.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Consecutive panics after which the supervisor stops respawning
    /// and reports a degraded shutdown.
    pub max_consecutive_panics: u32,
    /// Backoff before the first respawn; doubles per consecutive death.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_consecutive_panics: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

impl SupervisorPolicy {
    /// The backoff before respawn number `consecutive` (1-based).
    fn backoff(&self, consecutive: u32) -> Duration {
        let factor = 1u32 << consecutive.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// What a supervised run went through.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Body incarnations started (first run + respawns).
    pub attempts: u32,
    /// Panics caught at the supervision boundary.
    pub panics: u32,
    /// Respawns performed after a panic.
    pub respawns: u32,
    /// The run ended in degraded shutdown: the crash-loop threshold
    /// was reached and the supervisor stopped respawning.
    pub escalated: bool,
    /// The last caught panic's message, for the operator.
    pub last_panic: Option<String>,
}

/// Runs `body` under supervision: panics are caught, counted, and
/// retried with backoff until a run completes (its value is returned)
/// or the crash-loop threshold escalates (returns `None`). `body`
/// receives the 0-based attempt number; attempt `n > 0` means `n`
/// incarnations died before it.
pub fn supervise<T>(
    policy: &SupervisorPolicy,
    mut body: impl FnMut(u32) -> T,
) -> (Option<T>, SupervisorReport) {
    let mut report = SupervisorReport::default();
    let mut consecutive = 0u32;
    loop {
        let attempt = report.attempts;
        report.attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| body(attempt))) {
            Ok(value) => return (Some(value), report),
            Err(payload) => {
                report.panics += 1;
                consecutive += 1;
                report.last_panic = Some(panic_message(payload.as_ref()));
                if consecutive >= policy.max_consecutive_panics {
                    report.escalated = true;
                    return (None, report);
                }
                std::thread::sleep(policy.backoff(consecutive));
                report.respawns += 1;
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Service-loop tuning.
#[derive(Clone)]
pub struct ServiceConfig {
    /// How often the mux's queue is served: a
    /// [`poll`](DurableSentry::poll) after this many ingested events.
    /// A poll serves the waiting windows up to its budget, so this sets
    /// how long a verdict can wait for the next poll, not how much
    /// engine work is done per event.
    pub poll_every: u64,
    /// How long one loop iteration blocks waiting for bus traffic, and
    /// so how long the bus must be quiet before the loop drains.
    pub recv_timeout: Duration,
    /// Optional per-event hook, called before each ingest. The chaos
    /// harness injects panics here to exercise the supervision path.
    pub ingest_hook: Option<FrameHook>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            poll_every: 16,
            recv_timeout: Duration::from_millis(10),
            ingest_hook: None,
        }
    }
}

/// What a completed (non-escalated) service run produced.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Every incident latched by the final incarnation (including
    /// journal-recovered ones from earlier incarnations).
    pub incidents: Vec<Incident>,
    /// The final incarnation's service counters.
    pub stats: SentryStats,
    /// Events durably journaled — the producers' resume cursor.
    pub durable_events: u64,
    /// Events lost to panics: popped off the queue but not yet
    /// journaled when their incarnation died. At most one per panic —
    /// the event being processed; the rest of the batch survives in
    /// the supervisor-held queue.
    pub events_lost_to_panic: u64,
}

/// The supervised ingest/pump/poll loop over a durable sentry.
///
/// Each incarnation opens a fresh [`DurableSentry`] under
/// `durable.dir` — recovering journal + checkpoint state left by its
/// predecessor — then pulls events off `bus`, ingests, and polls every
/// [`poll_every`](ServiceConfig::poll_every) events until `stop` is
/// raised *and* the bus has gone quiet, at which point it drains,
/// checkpoints, and returns. A panic anywhere in the body (including
/// the ingest hook) is caught by the supervisor and the next
/// incarnation picks up from disk.
///
/// A bus that goes quiet *without* `stop` — a receive that times out —
/// makes the loop [`drain`](DurableSentry::drain): no further event is
/// coming to drive a poll or complete a sync batch, so the windows the
/// mux still holds are classified and the incidents held for the batch
/// sync are committed and handed back now, not when traffic resumes.
/// On an empty mux with nothing held the drain runs no engine round
/// and issues no sync, so an idle service costs nothing. (The
/// benchmark's mirror of this loop, `benchmark/src/mirror.rs`, does
/// not have this branch: its paced bus is never quiet for a receive
/// timeout.)
///
/// The pull queue lives *outside* the supervised body, so a panic
/// forfeits at most the one event being processed (typed and counted
/// in [`ServiceOutcome::events_lost_to_panic`]); everything already
/// pulled off the bus but not yet touched survives into the next
/// incarnation.
///
/// Journal I/O errors are not retried: they mean the durable substrate
/// itself is failing, and respawning into the same broken disk would
/// be a crash loop with extra steps. They surface as `Err` immediately.
pub fn run_service(
    policy: &SupervisorPolicy,
    mut make_engine: impl FnMut() -> CsdInferenceEngine,
    config: &SentryConfig,
    durable: &DurableConfig,
    service: &ServiceConfig,
    bus: &EventBus,
    stop: &Arc<AtomicBool>,
) -> Result<(Option<ServiceOutcome>, SupervisorReport), JournalError> {
    use std::collections::VecDeque;

    let mut journal_error: Option<JournalError> = None;
    // Survives incarnations: events pulled from the bus, not yet
    // processed. `popped - applied` at any panic is the loss (≤ 1).
    let mut pending: VecDeque<crate::event::ProcessEvent> = VecDeque::new();
    let mut popped = 0u64;
    let mut applied = 0u64;
    let (outcome, report) = supervise(policy, |_attempt| {
        let run = (|| -> Result<ServiceOutcome, JournalError> {
            let mut sentry = DurableSentry::open(make_engine(), config.clone(), durable.clone())?;
            let mut buf: Vec<crate::event::ProcessEvent> = Vec::new();
            let mut since_poll = 0u64;
            loop {
                let refilled = if pending.is_empty() {
                    buf.clear();
                    let n = bus.recv_into(&mut buf, service.recv_timeout);
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
                    sentry.ingest(&event)?;
                    applied += 1;
                    since_poll += 1;
                    if since_poll >= service.poll_every {
                        since_poll = 0;
                        sentry.poll()?;
                    }
                }
                if refilled == 0 {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // A quiet bus: no further event is coming to drive
                    // a poll or complete a sync batch, so finish what
                    // the mux holds and commit what is held now.
                    sentry.drain()?;
                }
            }
            // The checkpoint drains, and one sync carries what the drain
            // raises, the pending tail and the incident digest.
            sentry.checkpoint()?;
            Ok(ServiceOutcome {
                incidents: sentry.sentry().incidents().to_vec(),
                stats: sentry.sentry().stats(),
                durable_events: sentry.durable_events(),
                events_lost_to_panic: popped - applied,
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn first_success_returns_immediately() {
        let (value, report) = supervise(&SupervisorPolicy::default(), |attempt| attempt * 10);
        assert_eq!(value, Some(0));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.panics, 0);
        assert!(!report.escalated);
    }

    #[test]
    fn panics_respawn_until_a_run_completes() {
        let policy = SupervisorPolicy {
            max_consecutive_panics: 5,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        };
        let (value, report) = supervise(&policy, |attempt| {
            assert!(attempt < 4, "must not retry past success");
            if attempt < 3 {
                panic!("incarnation {attempt} dies");
            }
            "recovered"
        });
        assert_eq!(value, Some("recovered"));
        assert_eq!(report.attempts, 4);
        assert_eq!(report.panics, 3);
        assert_eq!(report.respawns, 3);
        assert!(!report.escalated);
        assert_eq!(report.last_panic.as_deref(), Some("incarnation 2 dies"));
    }

    #[test]
    fn crash_loop_escalates_to_degraded_shutdown() {
        let policy = SupervisorPolicy {
            max_consecutive_panics: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let ran = AtomicU32::new(0);
        let (value, report) = supervise(&policy, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
            panic!("always dies");
        });
        assert_eq!(value, Option::<()>::None);
        assert!(report.escalated, "crash loop must end visibly");
        assert_eq!(report.attempts, 3);
        assert_eq!(report.panics, 3);
        assert_eq!(ran.load(Ordering::SeqCst), 3, "no respawn past the cap");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = SupervisorPolicy {
            max_consecutive_panics: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(policy.backoff(30), Duration::from_millis(35));
    }
}
