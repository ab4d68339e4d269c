//! What happens after an alert: the action layer.
//!
//! Detection (the vote fold in [`service`](crate::service)) decides
//! *that* a session is ransomware; this module decides *what to do*.
//! The configured [`ActionKind`] maps an alert to a response — log
//! only, kill the process, or quarantine it (suspend + isolate, the
//! conservative default for deployments where a false kill is worse
//! than a slow response). Whitelisted images have their action
//! suppressed but still recorded, so the operator sees every firing.
//!
//! Every outcome latches as an [`Incident`]: one per session, never
//! revised, never detached from its never-reused session id — a
//! recycled PID cannot inherit or overwrite a dead incarnation's
//! incident. The incident log is the service's forensic record and the
//! bench campaign's parity witness.

use csd_accel::Alert;

/// The configured response to an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Record only; the process keeps running.
    Log,
    /// Terminate the process (the session is marked killed; straggler
    /// events on its PID are dropped and tallied).
    Kill,
    /// Suspend and isolate. Like kill from the sentry's bookkeeping
    /// view (no further windows), but recorded distinctly — recovery
    /// tooling treats the two differently.
    Quarantine,
}

/// What was actually done for one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionTaken {
    /// Logged; no intervention.
    Logged,
    /// Process killed.
    Killed,
    /// Process quarantined.
    Quarantined,
    /// The image was whitelisted: the configured action was withheld.
    Suppressed,
}

impl ActionKind {
    /// The outcome this action produces when not suppressed.
    pub fn taken(self) -> ActionTaken {
        match self {
            ActionKind::Log => ActionTaken::Logged,
            ActionKind::Kill => ActionTaken::Killed,
            ActionKind::Quarantine => ActionTaken::Quarantined,
        }
    }

    /// Whether this action ends the session's event intake (the
    /// process is stopped, one way or another).
    pub fn stops_process(self) -> bool {
        matches!(self, ActionKind::Kill | ActionKind::Quarantine)
    }
}

/// What actually happened when the action was dispatched to its
/// backend — the *outcome*, as distinct from the *intent* recorded in
/// [`ActionTaken`]. PR 9 latched only the intent; the durable journal
/// records outcomes, so a restarted sentry knows whether a quarantine
/// completed before the crash or must be reconciled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionOutcome {
    /// No backend intervention was attempted: log-only action,
    /// whitelist suppression, or the session had already exited.
    NotAttempted,
    /// The backend applied the action.
    Applied {
        /// The backend's receipt (e.g. the sandbox path a quarantined
        /// image was moved to).
        receipt: String,
        /// The session's [`calls_seen`](crate::Session::calls_seen)
        /// when the action took effect: its later calls are dropped,
        /// and recovery stops the session at the same call.
        calls_seen: u64,
    },
    /// The backend failed; the string is the error. The incident still
    /// latches — a failed response is forensic signal, not silence.
    Failed(String),
}

/// One latched alert-plus-response record.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The session the alert latched against (never reused).
    pub sid: u64,
    /// The OS PID that session ran under (reusable; forensic context
    /// only — attribution is by `sid`).
    pub pid: u32,
    /// Image name, if a spawn was observed.
    pub name: Option<String>,
    /// The triggering alert.
    pub alert: Alert,
    /// What the sentry did.
    pub action: ActionTaken,
    /// What the action's backend reported.
    pub outcome: ActionOutcome,
    /// The verdict landed after the session had already ended (exit or
    /// idle timeout raced the engine) — the record stands, but there
    /// was no process left to act on.
    pub post_exit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_kinds_map_to_their_outcomes() {
        assert_eq!(ActionKind::Log.taken(), ActionTaken::Logged);
        assert_eq!(ActionKind::Kill.taken(), ActionTaken::Killed);
        assert_eq!(ActionKind::Quarantine.taken(), ActionTaken::Quarantined);
        assert!(!ActionKind::Log.stops_process());
        assert!(ActionKind::Kill.stops_process());
        assert!(ActionKind::Quarantine.stops_process());
    }
}
