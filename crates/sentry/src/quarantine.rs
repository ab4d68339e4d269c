//! Pluggable action backends: where an alert's response actually runs.
//!
//! PR 9's action layer stopped at *intent*: an alert latched an
//! [`ActionTaken`](crate::actions::ActionTaken) and the session table
//! was marked killed, but nothing outside the sentry's own bookkeeping
//! happened. This module makes the response a real dispatch through a
//! [`QuarantineBackend`], and the latched
//! [`Incident`](crate::actions::Incident) records the backend's
//! [`ActionOutcome`](crate::actions::ActionOutcome) — applied with a
//! receipt, or failed with the error — not just the intent. The
//! durable journal then persists outcomes, so a restarted sentry can
//! tell a completed quarantine from one the crash interrupted.
//!
//! One implementation ships: [`SimBackend`], the default, an in-memory
//! simulator that always succeeds and remembers what it was asked to
//! do, which keeps unit tests and benches hermetic. A production
//! deployment would implement the trait over actual process control
//! (suspend + image relocation); the sentry does not care which it is
//! handed.

/// A backend that can terminate or isolate a process.
///
/// Both calls return a *receipt* on success — a short human-readable
/// string recorded in the incident's outcome (a sandbox path, a kill
/// confirmation) — or the error on failure. Failures latch the
/// incident all the same; they are counted in
/// [`SentryStats::actions_failed`](crate::service::SentryStats) and
/// journaled so nothing fails silently.
pub trait QuarantineBackend: std::fmt::Debug + Send {
    /// Terminate the process.
    fn kill(&mut self, pid: u32, name: Option<&str>) -> Result<String, String>;
    /// Suspend and isolate the process.
    fn quarantine(&mut self, pid: u32, name: Option<&str>) -> Result<String, String>;
}

/// One dispatched call, as remembered by [`SimBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimDispatch {
    /// `true` for quarantine, `false` for kill.
    pub quarantined: bool,
    /// Target PID.
    pub pid: u32,
    /// Target image name, if known.
    pub name: Option<String>,
}

/// The default backend: succeeds unconditionally, remembers every
/// dispatch. No side effects outside the struct.
#[derive(Debug, Default)]
pub struct SimBackend {
    dispatches: Vec<SimDispatch>,
}

impl SimBackend {
    /// A fresh simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every dispatch so far, in order.
    pub fn dispatches(&self) -> &[SimDispatch] {
        &self.dispatches
    }
}

impl QuarantineBackend for SimBackend {
    fn kill(&mut self, pid: u32, name: Option<&str>) -> Result<String, String> {
        self.dispatches.push(SimDispatch {
            quarantined: false,
            pid,
            name: name.map(str::to_string),
        });
        Ok(format!("sim: pid {pid} terminated"))
    }

    fn quarantine(&mut self, pid: u32, name: Option<&str>) -> Result<String, String> {
        self.dispatches.push(SimDispatch {
            quarantined: true,
            pid,
            name: name.map(str::to_string),
        });
        Ok(format!("sim: pid {pid} suspended and isolated"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn sim_backend_remembers_dispatches() {
        let mut b = SimBackend::new();
        b.kill(10, Some("a.exe")).unwrap();
        b.quarantine(11, None).unwrap();
        assert_eq!(b.dispatches().len(), 2);
        assert!(!b.dispatches()[0].quarantined);
        assert!(b.dispatches()[1].quarantined);
        assert_eq!(b.dispatches()[0].name.as_deref(), Some("a.exe"));
    }
}
