//! Property-based contract of the session lifecycle under arbitrary
//! interleavings of spawn / exit / idle-timeout against concurrent
//! event streams.
//!
//! The invariants these pin are the ones PID recycling makes easy to
//! get wrong:
//!
//! - **No verdict ever attaches to a recycled PID**: session ids are
//!   never reused, every incident keys on the sid that submitted the
//!   window, and a PID's later incarnations start with clean vote
//!   state.
//! - **Latched incidents survive PID reuse**: once latched against a
//!   sid, an incident never moves, mutates, or duplicates, whatever
//!   traffic arrives on that PID afterwards.
//! - **Event conservation**: every API event lands somewhere —
//!   buffered, tallied out-of-vocabulary, or tallied as dropped-after-
//!   kill — and the ingest path never panics on any interleaving.
//!
//! Ended sessions retire from the table once no verdict can name them,
//! so none of this is read off "every session ever is still in the
//! map": identities come from watching the PID links as the script
//! runs ([`Observed`]), tallies from tracked sessions plus the table's
//! retired totals, and attributions from the incident log.

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{ActionKind, ProcessEvent, Sentry, SentryConfig};
use proptest::prelude::*;

const VOCAB: usize = 16;

fn engine(seed: u64) -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), seed);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}

fn config(action: ActionKind, idle: Option<u64>) -> SentryConfig {
    SentryConfig {
        window_len: 8,
        stride: 4,
        votes_needed: 1,
        vote_horizon: 1,
        action,
        idle_timeout_events: idle,
        ..SentryConfig::default()
    }
}

/// One scripted step over a small PID space. Calls may be
/// out-of-vocabulary (`VOCAB + something`) to exercise the ingest
/// filter.
#[derive(Debug, Clone)]
enum Step {
    Spawn(u32),
    Call(u32, usize),
    Burst(u32, u8),
    Exit(u32),
    Poll,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let pid = 1u32..6;
    // The call/burst arms repeat so traffic dominates lifecycle churn.
    prop_oneof![
        pid.clone().prop_map(Step::Spawn),
        (pid.clone(), 0usize..VOCAB + 4).prop_map(|(p, c)| Step::Call(p, c)),
        (pid.clone(), 0usize..VOCAB + 4).prop_map(|(p, c)| Step::Call(p, c)),
        (pid.clone(), 1u8..24).prop_map(|(p, n)| Step::Burst(p, n)),
        (pid.clone(), 1u8..24).prop_map(|(p, n)| Step::Burst(p, n)),
        pid.prop_map(Step::Exit),
        Just(Step::Poll),
    ]
}

/// Every `(sid, pid)` incarnation the PID links ever showed, in the
/// order the table created them.
#[derive(Debug, Default)]
struct Observed {
    incarnations: Vec<(u64, u32)>,
}

impl Observed {
    /// Reads `pid`'s link after an event on it. A new incarnation must
    /// carry an id above every id seen so far: ids are never reused,
    /// whether or not the earlier session is still tracked.
    fn note(&mut self, sentry: &Sentry, pid: u32) {
        let Some(sid) = sentry.sessions().sid_for_pid(pid) else {
            return;
        };
        if self.incarnations.contains(&(sid, pid)) {
            return;
        }
        if let Some(&(last, _)) = self.incarnations.last() {
            assert!(sid > last, "sid {sid} handed out after {last}");
        }
        assert!(sid < sentry.sessions().next_sid());
        self.incarnations.push((sid, pid));
    }

    fn pid_of(&self, sid: u64) -> Option<u32> {
        self.incarnations
            .iter()
            .find(|&&(s, _)| s == sid)
            .map(|&(_, pid)| pid)
    }
}

/// Applies one step, noting the incarnation it may have started.
fn apply_step(sentry: &mut Sentry, seen: &mut Observed, t: u64, step: &Step) {
    match step {
        Step::Spawn(pid) => {
            sentry.ingest(&ProcessEvent::spawn(t, *pid, &format!("proc-{pid}.exe")));
            seen.note(sentry, *pid);
        }
        Step::Call(pid, call) => {
            sentry.ingest(&ProcessEvent::api(t, *pid, *call));
            seen.note(sentry, *pid);
        }
        Step::Burst(pid, n) => {
            for i in 0..*n {
                sentry.ingest(&ProcessEvent::api(
                    t,
                    *pid,
                    (usize::from(i) * 7 + *pid as usize) % VOCAB,
                ));
                seen.note(sentry, *pid);
            }
        }
        Step::Exit(pid) => {
            sentry.ingest(&ProcessEvent::exit(t, *pid));
        }
        Step::Poll => {
            sentry.poll();
        }
    }
}

/// Replays a script, returning the sentry after a final drain and the
/// incarnations seen on the way.
fn run_script(
    seed: u64,
    action: ActionKind,
    idle: Option<u64>,
    script: &[Step],
) -> (Sentry, Observed) {
    let mut sentry = Sentry::new(engine(seed), config(action, idle));
    let mut seen = Observed::default();
    for (t, step) in (1u64..).zip(script) {
        apply_step(&mut sentry, &mut seen, t, step);
    }
    sentry.drain();
    (sentry, seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Session ids are unique across every incarnation, each PID has at
    /// most one live (PID-linked) session, and every incident's sid
    /// belongs to a session whose recorded PID matches the incident —
    /// so a verdict can never surface against a PID's later
    /// incarnation.
    #[test]
    fn sids_are_unique_and_incidents_attach_to_their_incarnation(
        seed in 0u64..16,
        script in prop::collection::vec(arb_step(), 1..80),
        kill in any::<bool>(),
    ) {
        let action = if kill { ActionKind::Kill } else { ActionKind::Log };
        let (sentry, seen) = run_script(seed, action, Some(20), &script);

        // `Observed::note` has already held every new incarnation to an
        // id above all earlier ones; the table agrees on how many there
        // were, and tracks no session it did not hand an id to.
        let stats = sentry.stats();
        prop_assert_eq!(seen.incarnations.len() as u64, stats.sessions_started);
        prop_assert_eq!(sentry.sessions().next_sid(), stats.sessions_started + 1);
        for session in sentry.sessions().sessions() {
            prop_assert_eq!(seen.pid_of(session.sid()), Some(session.pid()));
        }
        // After the drain only PID-linked sessions are left.
        prop_assert_eq!(
            sentry.sessions().tracked() as u64,
            stats.sessions_started - stats.sessions_ended,
            "every ended session retired"
        );

        for incident in sentry.incidents() {
            prop_assert_eq!(seen.pid_of(incident.sid), Some(incident.pid),
                "incident pid matches the incarnation that earned it");
            if let Some(session) = sentry.sessions().session(incident.sid) {
                prop_assert_eq!(session.pid(), incident.pid);
            }
        }
        // At most one incident per sid: latched means latched.
        let mut incident_sids: Vec<u64> =
            sentry.incidents().iter().map(|i| i.sid).collect();
        let n = incident_sids.len();
        incident_sids.sort_unstable();
        incident_sids.dedup();
        prop_assert_eq!(incident_sids.len(), n, "an incident was raised twice for one sid");
    }

    /// Every API event is conserved: buffered into some session,
    /// tallied out-of-vocabulary, or tallied dropped-after-kill. And no
    /// interleaving of spawn/exit/idle-timeout/kill panics anywhere in
    /// the path.
    #[test]
    fn api_events_are_conserved_across_lifecycle_interleavings(
        seed in 0u64..16,
        script in prop::collection::vec(arb_step(), 1..80),
        kill in any::<bool>(),
        idle in prop_oneof![Just(None), (5u64..40).prop_map(Some)],
    ) {
        let action = if kill { ActionKind::Kill } else { ActionKind::Log };
        let (sentry, _) = run_script(seed, action, idle, &script);
        let stats = sentry.stats();

        let api_events: u64 = script.iter().map(|s| match s {
            Step::Call(..) => 1,
            Step::Burst(_, n) => u64::from(*n),
            _ => 0,
        }).sum();
        // Per-session tallies live in the tracked sessions and, for
        // retired ones, in the table's totals.
        let table = sentry.sessions();
        let calls_seen: u64 =
            table.sessions().map(|s| s.calls_seen()).sum::<u64>() + table.retired_calls();
        prop_assert_eq!(
            api_events,
            calls_seen + stats.dropped_after_kill,
            "every call is either seen by a session or tallied as dropped"
        );
        let oov: u64 = table.sessions().map(|s| s.oov()).sum::<u64>() + table.retired_oov();
        prop_assert_eq!(oov, stats.oov_calls, "oov tallies agree");
        // Engine-side conservation: windows either fold or are
        // accounted as loss (none here: default backpressure bound is
        // far above this traffic).
        prop_assert_eq!(stats.mux.evicted + stats.mux.refused + stats.mux.rejected, 0);
    }

    /// After an incident latches, a PID-reusing successor starts with
    /// clean vote state and the original incident is byte-stable — the
    /// alert outlives the process that earned it, and only that
    /// process.
    #[test]
    fn latched_incidents_survive_pid_reuse_untouched(
        seed in 0u64..16,
        prefix in prop::collection::vec(arb_step(), 0..30),
        reuse_pid in 1u32..6,
    ) {
        let mut script = prefix;
        // Guarantee the reused pid sees a full window of in-vocab
        // traffic in its first incarnation, then dies, then returns.
        script.push(Step::Burst(reuse_pid, 12));
        script.push(Step::Exit(reuse_pid));
        let (mut sentry, _) = run_script(seed, ActionKind::Kill, None, &script);
        let t = script.len() as u64;
        let before: Vec<_> = sentry.incidents().to_vec();
        // The first incarnation exited and the drain ran: it has
        // retired, so whatever it latched is held by the log alone.
        for incident in before.iter().filter(|i| i.pid == reuse_pid) {
            prop_assert!(sentry.sessions().session(incident.sid).is_none());
        }

        // Second incarnation on the same pid: fresh traffic, then exit.
        sentry.ingest(&ProcessEvent::spawn(t + 1, reuse_pid, "reborn.exe"));
        let new_sid = sentry.sessions().sid_for_pid(reuse_pid)
            .expect("respawned session is linked");
        for i in 0..12usize {
            sentry.ingest(&ProcessEvent::api(t + 2 + i as u64, reuse_pid, (i * 5) % VOCAB));
        }
        sentry.drain();

        // Old incidents are byte-stable.
        prop_assert_eq!(&sentry.incidents()[..before.len()], &before[..],
            "pre-reuse incidents never move or mutate");
        // Any new incident for this pid names the new sid, not an old one.
        for incident in &sentry.incidents()[before.len()..] {
            if incident.pid == reuse_pid {
                prop_assert_eq!(incident.sid, new_sid,
                    "post-reuse incident attaches to the new incarnation");
            }
        }
        // The new incarnation never inherits an old latch: if its first
        // window was positive it gets its *own* incident.
        let new_session = sentry.sessions().session(new_sid).expect("tracked");
        prop_assert_eq!(new_session.pid(), reuse_pid);
    }

    /// Idle timeout interleaved with concurrent traffic: swept sessions
    /// end exactly once, keep their counters, and the busy session
    /// survives. In-flight verdicts for swept sessions fold as
    /// post-exit incidents, never against anyone else.
    #[test]
    fn idle_timeout_races_concurrent_streams_safely(
        seed in 0u64..16,
        idle_calls in 4usize..12,
        busy_calls in 30usize..90,
    ) {
        let mut sentry = Sentry::new(engine(seed), config(ActionKind::Log, Some(10)));
        // Session A: a burst that fills at least one window, then silence.
        for i in 0..idle_calls.max(8) {
            sentry.ingest(&ProcessEvent::api(i as u64, 1, (i * 3) % VOCAB));
        }
        let sid_a = sentry.sessions().sid_for_pid(1).expect("linked");
        // Session B: keeps talking long enough that A's timeout fires
        // inside the stream.
        for i in 0..busy_calls {
            sentry.ingest(&ProcessEvent::api(100 + i as u64, 2, (i * 5) % VOCAB));
        }
        sentry.drain();

        // A timed out and, its verdicts folded, retired with its tally.
        prop_assert_eq!(sentry.stats().sessions_ended, 1, "silent session timed out");
        prop_assert!(sentry.sessions().session(sid_a).is_none(), "and retired");
        prop_assert_eq!(sentry.sessions().retired_calls(), idle_calls.max(8) as u64);
        prop_assert_eq!(sentry.sessions().sid_for_pid(1), None, "pid unlinked");
        let b_sid = sentry.sessions().sid_for_pid(2).expect("busy session survives");
        prop_assert!(sentry.sessions().session(b_sid).expect("tracked").is_live());
        // A's verdicts (its window was submitted before the sweep) fold
        // against A; any incident for pid 1 is A's and flagged post-exit.
        for incident in sentry.incidents() {
            if incident.pid == 1 {
                prop_assert_eq!(incident.sid, sid_a);
                prop_assert!(incident.post_exit, "folded after the timeout");
            }
        }
    }
}
