//! Chaos campaign: crash safety and overload behaviour of the durable
//! sentry under an adversarial host, over a 300-entry corpus replayed
//! as live traffic (30,600 events), one test a cell. Each cell is a
//! [`World::chaos`] — the corpus trace under a seeded [`ChaosSchedule`]
//! — run by the crash world's one driver and judged by its one checker
//! (`tests/common/mod.rs`), which adds to what a cell asserts the
//! acknowledgement contract after every call and, at every kill, a
//! reopen that starts at the checkpoint's anchor, reads at most the
//! bytes appended since plus 512 per incident read from a digest and one
//! record, and ends where a full scan of the journal ends.
//!
//! - **Parity cells** perturb the trace with duplicated, reordered,
//!   reset and delayed frames — `chaos-light` each class at 1 %,
//!   `chaos-heavy-kills` at 5 % — and `kill -9` at fractions of the
//!   deliveries: `kills-only` and `chaos-light-kills` at 25 and 60 %,
//!   the heavy cell at 10, 35, 50 and 80 %; `clean` has neither. At
//!   each kill the driver crashes the [`DurableSentry`], reopens it and
//!   resumes after the journal's durable events — the at-least-once
//!   protocol, monotone-timestamp dedup absorbing every duplicate.
//!   Contract: the incident set equals an uninterrupted in-memory run's
//!   — **zero lost, zero duplicated**. The clean and the heaviest cell
//!   run again at two mux shards.
//! - **Overload cells** (`overload-ungoverned`, `overload-governed`: the
//!   overload shape at 1 % chaos) poll on a lazy cadence and not on a
//!   stall, so ingest outpaces what the polls buy the engine. With an
//!   SLO set the governor's ladder must engage and hold p99 staleness
//!   within 8× the SLO and at least 2× under a governorless twin; any
//!   incident missing versus the oracle must belong to a *shed* session.
//!
//! A parity cell fails if the tracked session count runs more than
//! [`TRACKED_SLACK`] ahead of the live one. The oracles' incident
//! counts, the schedules' chaos counts and the duplicates dedup drops
//! are functions of the seeds and are pinned; journal syncs, replays
//! and bytes scanned follow the commit deadline's wall clock, so they
//! are only bounded.

use std::sync::OnceLock;

mod common;

use common::{pid_keys, Key, Run, World};
use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_ransomware::chaos::{ChaosConfig, ChaosSchedule};
use csd_ransomware::dataset::DatasetBuilder;
use csd_ransomware::replay::{interleave, EventTrace, ReplayProfile};
use csd_sentry::{ActionKind, OverloadLevel, ProcessEvent, Sentry, SentryConfig};

/// Caller poll cadence in delivered frames. Parity cells use the fast
/// service-loop cadence; overload cells deliberately degrade it: a
/// poll's 1,024 window-steps every 4,096 frames are 0.25 an event,
/// against ≈ 1.5 the overload shape's windows offer.
const POLL_EVERY: u64 = 16;
const LAZY_POLL_EVERY: u64 = 4096;

/// Journal sync batch: the cells measure scheduling, not fsync
/// throughput.
const SYNC_EVERY: usize = 1024;

/// Sessions a parity cell may track beyond the live ones: those that
/// exited while their window was still in the mux — none in live
/// service, a few after a recovery, whose replay queues windows for the
/// polls that follow it. Overload cells are exempt — their backlog is
/// the experiment.
const TRACKED_SLACK: u64 = 128;

/// The governed overload cell's staleness SLO, in events.
const SLO: u64 = 512;

/// Kill points as fractions of a schedule's deliveries.
const KILLS_MID: &[f64] = &[0.25, 0.6];
const KILLS_DENSE: &[f64] = &[0.1, 0.35, 0.5, 0.8];

/// The replayed trace and the uninterrupted run's incidents in each
/// sentry shape, built once and shared by every cell. Replay pids are
/// never reused, so [`pid_keys`] name an incident independently of sid
/// assignment order (which frame reordering may perturb).
struct Campaign {
    trace: EventTrace,
    parity: Vec<Key>,
    overload: Vec<Key>,
}

fn campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let dataset = DatasetBuilder::new(7)
            .ransomware_windows(150)
            .benign_windows(150)
            .build();
        let entries = dataset.entries().len() as u64;
        let profile = ReplayProfile {
            mean_gap_us: 50,
            jitter: 0.5,
            spread_us: entries * 100 * 50 / 4,
        };
        let trace = interleave(&dataset, 17, profile);
        let events: Vec<ProcessEvent> = trace.events.iter().map(ProcessEvent::from).collect();
        let oracle = |overload| {
            pid_keys(
                Sentry::uninterrupted(engine(), sentry_config(overload), &events, 0).incidents(),
            )
        };
        let (parity, overload) = std::thread::scope(|s| {
            let overload = s.spawn(|| oracle(true));
            (oracle(false), overload.join().expect("overload oracle"))
        });
        Campaign {
            trace,
            parity,
            overload,
        }
    })
}

fn engine() -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}

/// Sentry config shared by a cell and its oracle. Overload cells use a
/// shorter window and stride so sessions carry several outstanding
/// windows (sheddable backlog); parity cells use the corpus-native
/// one-window-per-session shape. Both run the default mux: overload
/// comes from the cell's poll cadence.
fn sentry_config(overload: bool) -> SentryConfig {
    SentryConfig {
        window_len: if overload { 50 } else { 100 },
        stride: if overload { 25 } else { 10 },
        votes_needed: 1,
        vote_horizon: 1,
        action: ActionKind::Log,
        dedup_monotone_ts: true,
        ..SentryConfig::default()
    }
}

/// What a cell's contract is judged on: the run, the chaos the schedule
/// injected (all classes) and the duplicates monotone-timestamp dedup
/// dropped.
struct Outcome {
    run: Run,
    chaos: u64,
    dup_events: u64,
}

/// Runs the cell `name`: the campaign trace under `chaos`, killed at
/// `kill_fracs` of its deliveries, on `shards` mux shards; an overload
/// cell polls every [`LAZY_POLL_EVERY`] frames only, under `slo`.
fn run_cell(
    name: &'static str,
    chaos: ChaosConfig,
    kill_fracs: &[f64],
    shards: usize,
    overload: bool,
    slo: Option<u64>,
) -> Outcome {
    let c = campaign();
    let mut config = sentry_config(overload);
    config.staleness_slo = slo;
    config.mux.shards = Some(shards);

    let total = c.trace.len() as u64;
    let mut chaos_cfg = chaos;
    chaos_cfg.kill_at = kill_fracs
        .iter()
        .map(|f| ((f * total as f64) as u64).min(total.saturating_sub(1)))
        .collect();
    let schedule = ChaosSchedule::plan(&c.trace, 0xC4A0 ^ total, &chaos_cfg);
    let cadence = if overload {
        LAZY_POLL_EVERY
    } else {
        POLL_EVERY
    };
    let world = World {
        poll_every: cadence,
        // Delivery stalls; the service loop keeps polling — except an
        // overload cell's lazy caller.
        poll_on_stall: !overload,
        sync_every: SYNC_EVERY,
        ..World::chaos(name, &schedule, engine, config)
    };
    let run = world.run(if overload { &c.overload } else { &c.parity });
    if !overload {
        let (tracked, live) = (run.tracked_peak, run.live_peak);
        assert!(
            tracked <= live + TRACKED_SLACK,
            "cell {name}: {tracked} sessions tracked with at most \
             {live} alive: ended sessions are not retiring"
        );
    }
    let dup_events = run.sentry.sentry().stats().dup_events;
    Outcome {
        chaos: schedule.counters.total(),
        dup_events,
        run,
    }
}

/// Runs a parity cell, which the checker holds to the campaign's
/// contract: crash-recovery equivalence, zero lost and zero duplicated
/// incidents.
fn parity_cell(name: &'static str, chaos: ChaosConfig, kills: &[f64], shards: usize) -> Outcome {
    run_cell(name, chaos, kills, shards, false, None)
}

#[test]
fn the_oracles_raise_the_pinned_incident_counts() {
    let c = campaign();
    assert_eq!((c.parity.len(), c.overload.len()), (156, 267));
}

#[test]
fn clean_cell_matches_the_oracle() {
    let r = parity_cell("clean", ChaosConfig::none(), &[], 1);
    assert_eq!((r.chaos, r.dup_events), (0, 0));
}

#[test]
fn clean_cell_at_two_shards_matches_the_oracle() {
    let r = parity_cell("clean-2shards", ChaosConfig::none(), &[], 2);
    assert_eq!((r.chaos, r.dup_events), (0, 0));
}

#[test]
fn kills_lose_and_duplicate_no_incident() {
    let r = parity_cell("kills-only", ChaosConfig::none(), KILLS_MID, 1);
    assert_eq!((r.chaos, r.dup_events), (2, 0));
}

#[test]
fn light_chaos_loses_and_duplicates_no_incident() {
    let r = parity_cell("chaos-light", ChaosConfig::uniform(0.01), &[], 1);
    assert_eq!((r.chaos, r.dup_events), (938, 357));
}

#[test]
fn light_chaos_with_kills_loses_and_duplicates_no_incident() {
    let r = parity_cell(
        "chaos-light-kills",
        ChaosConfig::uniform(0.01),
        KILLS_MID,
        1,
    );
    assert_eq!((r.chaos, r.dup_events), (940, 357));
}

fn heavy_chaos_with_kills(name: &'static str, shards: usize) {
    let r = parity_cell(name, ChaosConfig::uniform(0.05), KILLS_DENSE, shards);
    assert_eq!((r.chaos, r.dup_events), (4741, 1885));
    assert!(r.dup_events > 0, "heavy chaos must actually exercise dedup");
    let replayed: u64 = r.run.reopens.iter().map(|o| o.report.replayed_events).sum();
    assert!(replayed > 0, "kills must actually exercise journal replay");
}

#[test]
fn heavy_chaos_with_kills_loses_and_duplicates_no_incident() {
    heavy_chaos_with_kills("chaos-heavy-kills", 1);
}

#[test]
fn heavy_chaos_with_kills_at_two_shards_loses_and_duplicates_no_incident() {
    heavy_chaos_with_kills("chaos-heavy-kills-2shards", 2);
}

#[test]
fn the_governor_bounds_staleness_where_a_lazy_cadence_degenerates() {
    let overload_cell = |name, slo| {
        let r = run_cell(name, ChaosConfig::uniform(0.01), &[], 1, true, slo);
        assert_eq!((r.chaos, r.dup_events), (938, 357), "cell {name}");
        r.run
    };
    let ungoverned = overload_cell("overload-ungoverned", None);
    assert_eq!(ungoverned.lost, 0, "no governor, no shedding, no loss");
    let governed = overload_cell("overload-governed", Some(SLO));
    let stats = governed.sentry.sentry().stats();
    assert!(stats.slo_polls > 0, "the governor drove SLO polls");
    assert_ne!(
        governed.top_rung,
        OverloadLevel::Normal,
        "the ladder engaged"
    );
    // The governed equilibrium is capacity-limited (the oldest window
    // always belongs to a session the shed rung cannot touch yet), so
    // the bound is a small constant multiple of the SLO — crucially
    // independent of feed length, unlike the ungoverned twin.
    let p99 = governed.staleness_p99();
    assert!(
        p99 <= 8 * SLO,
        "governed p99 staleness {p99} exceeds 8×slo {}",
        8 * SLO
    );
    // Ungoverned staleness grows with the feed; the governed run
    // plateaus. The ungoverned p99 is bounded by the trace's total
    // backlog, not unbounded growth, and the gap is ≈ 28× on both the
    // full corpus and this one; assert the conservative 2×.
    let factor = 2;
    assert!(
        p99 * factor <= ungoverned.staleness_p99(),
        "the governor must beat the degenerate cadence by ≥{factor}× (governed p99 \
         {p99}, ungoverned {})",
        ungoverned.staleness_p99()
    );
}
