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
//! One implementation ships: [`SimBackend`], the default, a stateless
//! simulator that always succeeds and touches nothing, which keeps unit
//! tests and benches hermetic. A production
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

/// The default backend: succeeds unconditionally and keeps nothing. No
/// side effects; the receipt names the PID.
#[derive(Debug)]
pub struct SimBackend;

impl QuarantineBackend for SimBackend {
    fn kill(&mut self, pid: u32, _name: Option<&str>) -> Result<String, String> {
        Ok(format!("sim: pid {pid} terminated"))
    }

    fn quarantine(&mut self, pid: u32, _name: Option<&str>) -> Result<String, String> {
        Ok(format!("sim: pid {pid} suspended and isolated"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_backend_succeeds_with_a_receipt_naming_the_pid() {
        let mut b = SimBackend;
        assert_eq!(
            b.kill(10, Some("a.exe")),
            Ok("sim: pid 10 terminated".to_string())
        );
        assert_eq!(
            b.quarantine(11, None),
            Ok("sim: pid 11 suspended and isolated".to_string())
        );
    }
}
