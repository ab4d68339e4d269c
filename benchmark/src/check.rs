//! The output check: the live incident set must equal the offline
//! oracle's exactly, and every typed loss the public API exposes counts
//! as a failed operation.

use std::collections::HashMap;

use csd_sentry::Incident;

use crate::harness::Rep;
use crate::setup::Expected;

/// Failed operations of one repetition, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Expected incidents the run never raised.
    pub missing: u64,
    /// Incidents for processes the oracle does not expect to alert
    /// (a second incident for one process counts here too).
    pub spurious: u64,
    /// Incidents for the right process at the wrong call.
    pub misattributed: u64,
    /// Events sent that the sentry never counted as ingested.
    pub undelivered: u64,
    /// Events the bus refused.
    pub bus_refused: u64,
    /// Socket connections dropped (malformed frame or reader panic).
    pub socket_dropped: u64,
    /// Windows the mux evicted, refused or rejected.
    pub mux_lost: u64,
    /// Sessions the overload governor shed.
    pub shed: u64,
    /// Events lost to a service-loop panic.
    pub lost_to_panic: u64,
}

impl Failures {
    /// All failed operations.
    pub fn total(&self) -> u64 {
        self.missing
            + self.spurious
            + self.misattributed
            + self.undelivered
            + self.bus_refused
            + self.socket_dropped
            + self.mux_lost
            + self.shed
            + self.lost_to_panic
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &Failures) {
        self.missing += other.missing;
        self.spurious += other.spurious;
        self.misattributed += other.misattributed;
        self.undelivered += other.undelivered;
        self.bus_refused += other.bus_refused;
        self.socket_dropped += other.socket_dropped;
        self.mux_lost += other.mux_lost;
        self.shed += other.shed;
        self.lost_to_panic += other.lost_to_panic;
    }
}

/// Compares `incidents` with the oracle's `(pid, at_call)` set.
pub fn compare_incidents<'a>(
    expected: impl IntoIterator<Item = &'a Expected>,
    incidents: &[Incident],
) -> Failures {
    let mut want: HashMap<u32, usize> = expected.into_iter().map(|e| (e.pid, e.at_call)).collect();
    let mut failures = Failures::default();
    for incident in incidents {
        match want.remove(&incident.pid) {
            Some(at_call) if at_call == incident.alert.at_call => {}
            Some(_) => failures.misattributed += 1,
            None => failures.spurious += 1,
        }
    }
    failures.missing = want.len() as u64;
    failures
}

/// Every failed operation of one measured repetition. The operations
/// attempted are `events_sent` events plus the expected incidents.
pub fn check_rep(expected: &[Expected], events_sent: u64, rep: &Rep) -> Failures {
    let stats = &rep.service.stats;
    Failures {
        undelivered: events_sent.saturating_sub(stats.events),
        bus_refused: rep.bus_refused,
        socket_dropped: rep.decode_errors + rep.reader_panics,
        mux_lost: stats.mux.evicted + stats.mux.refused + stats.mux.rejected,
        shed: stats.shed_sessions,
        lost_to_panic: rep.service.events_lost_to_panic,
        ..compare_incidents(expected, &rep.service.incidents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_accel::Alert;
    use csd_sentry::{ActionOutcome, ActionTaken};

    fn incident(pid: u32, at_call: usize) -> Incident {
        Incident {
            sid: u64::from(pid),
            pid,
            name: None,
            alert: Alert {
                at_call,
                probability: 0.9,
                inference_us: 1.0,
            },
            action: ActionTaken::Logged,
            outcome: ActionOutcome::NotAttempted,
            post_exit: false,
        }
    }

    fn expected(pid: u32, at_call: usize) -> Expected {
        Expected {
            pid,
            at_call,
            event_idx: 0,
        }
    }

    #[test]
    fn each_kind_of_wrong_incident_is_counted_once() {
        let want = [expected(1, 100), expected(2, 110), expected(3, 120)];
        let got = [
            incident(1, 100), // right
            incident(2, 130), // wrong call
            incident(9, 100), // nobody expected this process
            incident(1, 100), // a duplicate is spurious
        ];
        let f = compare_incidents(&want, &got);
        assert_eq!(
            (f.missing, f.misattributed, f.spurious),
            (1, 1, 2),
            "pid 3 missing, pid 2 misattributed, pid 9 and the duplicate spurious"
        );
        assert_eq!(f.total(), 4);
    }
}
