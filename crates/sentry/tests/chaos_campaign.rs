//! Chaos campaign: crash safety and overload behaviour of the durable
//! sentry under an adversarial host, over a 300-entry corpus replayed
//! as live traffic (30,600 events), one test a cell.
//!
//! - **Parity cells** perturb the trace with a seeded [`ChaosSchedule`]
//!   (duplicated, reordered, reset and delayed frames; `kill -9` at
//!   scheduled delivery offsets). At each kill the driver crashes the
//!   [`DurableSentry`], reopens it and resumes at
//!   [`ChaosSchedule::index_after_delivery`] of the journal's durable
//!   events — the at-least-once protocol, monotone-timestamp dedup
//!   absorbing every duplicate. Contract: the incident set equals an
//!   uninterrupted in-memory run's — **zero lost, zero duplicated**.
//!   The clean and the heaviest cell run again at two mux shards.
//! - **Overload cells** poll on a lazy cadence and not on a stall, so
//!   ingest outpaces what the polls buy the engine. With an SLO set the
//!   governor's ladder must engage and hold p99 staleness within 8× the
//!   SLO and at least 2× under a governorless twin; any incident missing
//!   versus the oracle must belong to a *shed* session.
//!
//! Every cell must end tracking only live sessions; a parity cell fails
//! if the tracked count runs more than [`TRACKED_SLACK`] ahead of the
//! live one. A reopen that had a checkpoint must start at its anchor and
//! read at most the bytes appended since plus [`HOP_BYTES`] per incident
//! read from a digest and one record. The oracles' incident counts, the
//! schedules' chaos counts and the duplicates dedup drops are functions
//! of the seeds and are pinned; journal syncs, replays and bytes scanned
//! follow the commit deadline's wall clock, so they are only bounded.

use std::collections::HashSet;
use std::fs;
use std::sync::OnceLock;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_ransomware::chaos::{ChaosConfig, ChaosOp, ChaosSchedule};
use csd_ransomware::dataset::DatasetBuilder;
use csd_ransomware::replay::{interleave, EventTrace, ReplayProfile};
use csd_sentry::{
    read_checkpoint, ActionKind, CheckpointRead, DurableConfig, DurableSentry, OverloadLevel,
    ProcessEvent, Sentry, SentryConfig,
};

/// Caller poll cadence in delivered frames. Parity cells use the fast
/// service-loop cadence; overload cells deliberately degrade it: a
/// poll's 1,024 window-steps every 4,096 frames are 0.25 an event,
/// against ≈ 1.5 the overload shape's windows offer.
const POLL_EVERY: usize = 16;
const LAZY_POLL_EVERY: usize = 4096;

/// Journal sync batch: the cells measure scheduling, not fsync
/// throughput.
const SYNC_EVERY: usize = 1024;

/// Sessions a parity cell may track beyond the live ones: those that
/// exited while their window was still in the mux — none in live
/// service, a few after a recovery, whose replay queues windows for the
/// polls that follow it. Overload cells are exempt — their backlog is
/// the experiment.
const TRACKED_SLACK: u64 = 128;

/// What a reopen may read per incident it reads from a digest, and the
/// slack for the one record it reads back at the checkpoint's anchor.
const HOP_BYTES: u64 = 512;

/// The governed overload cell's staleness SLO, in events.
const SLO: u64 = 512;

/// Kill points as fractions of a schedule's deliveries.
const KILLS_MID: &[f64] = &[0.25, 0.6];
const KILLS_DENSE: &[f64] = &[0.1, 0.35, 0.5, 0.8];

/// Incident identity across runs. Replay pids are never reused, so
/// `(pid, at_call, action)` names an incident independently of sid
/// assignment order (which frame reordering may perturb).
type Key = (u32, usize, String);

/// The replayed trace and the uninterrupted run's incidents in each
/// sentry shape, built once and shared by every cell.
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
            keys(&Sentry::uninterrupted(
                engine(),
                sentry_config(overload),
                &events,
                0,
            ))
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

fn keys(sentry: &Sentry) -> Vec<Key> {
    let mut keys: Vec<Key> = sentry
        .incidents()
        .iter()
        .map(|i| (i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    keys.sort();
    keys
}

struct Cell {
    name: &'static str,
    chaos: ChaosConfig,
    /// Kill points as fractions of total deliveries.
    kill_fracs: &'static [f64],
    shards: usize,
    /// An overload cell: polls every [`LAZY_POLL_EVERY`] frames only.
    overload: bool,
    slo: Option<u64>,
}

/// What a cell's contract is judged on.
struct Outcome {
    /// Chaos the schedule injected, all classes.
    chaos: u64,
    /// Duplicates monotone-timestamp dedup dropped.
    dup_events: u64,
    lost: usize,
    duplicated: usize,
    /// Lost incidents whose session was *not* shed.
    untyped_losses: usize,
    replayed_events: u64,
    staleness_p99: u64,
    slo_polls: u64,
    top_rung: OverloadLevel,
}

fn run_cell(cell: &Cell, expect: &[Key]) -> Outcome {
    let trace = &campaign().trace;
    let mut config = sentry_config(cell.overload);
    config.staleness_slo = cell.slo;
    config.mux.shards = Some(cell.shards);
    let poll_every = if cell.overload {
        LAZY_POLL_EVERY
    } else {
        POLL_EVERY
    };

    let total = trace.len() as u64;
    let mut chaos_cfg = cell.chaos.clone();
    chaos_cfg.kill_at = cell
        .kill_fracs
        .iter()
        .map(|f| ((f * total as f64) as u64).min(total.saturating_sub(1)))
        .collect();
    let schedule = ChaosSchedule::plan(trace, 0xC4A0 ^ total, &chaos_cfg);

    let dir = std::env::temp_dir().join(format!(
        "csd-chaos-campaign-{}-{}",
        std::process::id(),
        cell.name
    ));
    let _ = fs::remove_dir_all(&dir);
    let mut durable = DurableConfig::new(&dir);
    durable.journal.sync_every = SYNC_EVERY;
    let open = || DurableSentry::open(engine(), config.clone(), durable.clone());
    let mut d = open().expect("open durable sentry");

    let mut executed_kills: HashSet<usize> = HashSet::new();
    let mut staleness_samples: Vec<u64> = Vec::new();
    // Frames handed to ingest, crash-resume re-sends included; and the
    // deliveries the journal may hold, rewound to its durable count at
    // each kill.
    let (mut frames_sent, mut delivered) = (0u64, 0u64);
    let (mut replayed_events, mut since_poll) = (0u64, 0usize);
    let mut max_rung = OverloadLevel::Normal;
    let (mut live_sessions_peak, mut tracked_sessions_peak) = (0u64, 0u64);

    let mut i = 0usize;
    while i < schedule.ops.len() {
        match &schedule.ops[i] {
            ChaosOp::Deliver(ev) => {
                frames_sent += 1;
                delivered += 1;
                d.ingest(&ProcessEvent::from(ev)).expect("journaled ingest");
                since_poll += 1;
                if since_poll >= poll_every {
                    since_poll = 0;
                    d.poll().expect("journaled poll");
                }
                if frames_sent.is_multiple_of(16) {
                    staleness_samples.push(d.sentry().staleness());
                    max_rung = max_rung.max(d.sentry().overload_level());
                    let table = d.sentry().sessions();
                    live_sessions_peak =
                        live_sessions_peak.max(table.started() - table.ended_count());
                    tracked_sessions_peak = tracked_sessions_peak.max(table.tracked() as u64);
                }
            }
            // The schedule already wove the conservative re-send of the
            // previous frame; the reset itself is invisible here.
            ChaosOp::Reset => {}
            // Delivery stalls; the service loop keeps polling — except
            // an overload cell's lazy caller.
            ChaosOp::Delay(_) if !cell.overload => {
                d.poll().expect("journaled poll");
            }
            ChaosOp::Delay(_) => {}
            ChaosOp::Kill if executed_kills.insert(i) => {
                // Torn tails of varying lengths across kills.
                d.simulate_crash((executed_kills.len() * 13) % 40);
                let journal_len = fs::metadata(dir.join("journal.log")).map_or(0, |m| m.len());
                let anchored_at = match read_checkpoint(&dir.join("checkpoint.snap")) {
                    CheckpointRead::Valid(snap) => Some(snap.journal.offset),
                    CheckpointRead::Absent | CheckpointRead::Invalid => None,
                };
                d = open().expect("reopen after crash");
                let recovery = d.recovery();
                replayed_events += recovery.replayed_events;
                if let Some(offset) = anchored_at {
                    assert_eq!(
                        recovery.full_scan, None,
                        "cell {}: a checkpoint this run wrote was not used",
                        cell.name
                    );
                    let bound =
                        (journal_len - offset) + HOP_BYTES * recovery.chained_incidents + HOP_BYTES;
                    assert!(
                        recovery.journal_bytes_scanned <= bound,
                        "cell {}: a respawn read {} bytes of a {journal_len}-byte journal \
                         checkpointed at {offset}: {recovery:?}",
                        cell.name,
                        recovery.journal_bytes_scanned
                    );
                }
                let durable_events = d.durable_events();
                assert!(
                    durable_events <= delivered,
                    "journal never runs ahead of the producer"
                );
                delivered = durable_events;
                i = schedule.index_after_delivery(durable_events);
                since_poll = 0;
                continue;
            }
            ChaosOp::Kill => {}
        }
        i += 1;
    }
    d.drain().expect("final drain");

    let sentry = d.sentry();
    let got = keys(sentry);
    // One incident per pid, ever (pids are unique per corpus entry).
    let pids: HashSet<u32> = got.iter().map(|k| k.0).collect();
    let got_set: HashSet<&Key> = got.iter().collect();
    let shed_pids: HashSet<u32> = sentry.shed_log().iter().map(|r| r.pid).collect();
    let lost: Vec<&Key> = expect.iter().filter(|k| !got_set.contains(k)).collect();
    // And nothing invented: every raised incident is an oracle incident.
    let expect_set: HashSet<&Key> = expect.iter().collect();
    let invented = got.iter().filter(|k| !expect_set.contains(k)).count();
    assert_eq!(
        invented, 0,
        "cell {}: incidents not in the oracle",
        cell.name
    );

    let stats = sentry.stats();
    assert_eq!(
        sentry.sessions().tracked() as u64,
        stats.sessions_started - stats.sessions_ended,
        "cell {}: ended sessions outlived the final drain",
        cell.name
    );
    if !cell.overload {
        assert!(
            tracked_sessions_peak <= live_sessions_peak + TRACKED_SLACK,
            "cell {}: {tracked_sessions_peak} sessions tracked with at most \
             {live_sessions_peak} alive: ended sessions are not retiring",
            cell.name
        );
    }
    staleness_samples.sort_unstable();
    let p99_at = ((staleness_samples.len() - 1) as f64 * 0.99).round() as usize;
    let _ = fs::remove_dir_all(&dir);
    Outcome {
        chaos: schedule.counters.total(),
        dup_events: stats.dup_events,
        lost: lost.len(),
        duplicated: got.len() - pids.len(),
        untyped_losses: lost.iter().filter(|k| !shed_pids.contains(&k.0)).count(),
        replayed_events,
        staleness_p99: staleness_samples[p99_at],
        slo_polls: stats.slo_polls,
        top_rung: max_rung,
    }
}

/// Runs a parity cell and holds it to the campaign's contract:
/// crash-recovery equivalence, zero lost and zero duplicated incidents.
fn parity_cell(
    name: &'static str,
    chaos: ChaosConfig,
    kill_fracs: &'static [f64],
    shards: usize,
) -> Outcome {
    let cell = Cell {
        name,
        chaos,
        kill_fracs,
        shards,
        overload: false,
        slo: None,
    };
    let r = run_cell(&cell, &campaign().parity);
    assert_eq!(r.lost, 0, "cell {name}: lost incidents");
    assert_eq!(r.duplicated, 0, "cell {name}: duplicated incidents");
    r
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
    assert!(
        r.replayed_events > 0,
        "kills must actually exercise journal replay"
    );
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
        let cell = Cell {
            name,
            chaos: ChaosConfig::uniform(0.01),
            kill_fracs: &[],
            shards: 1,
            overload: true,
            slo,
        };
        let r = run_cell(&cell, &campaign().overload);
        assert_eq!((r.chaos, r.dup_events), (938, 357), "cell {name}");
        assert_eq!(r.duplicated, 0, "cell {name}: duplicated incidents");
        let untyped = r.untyped_losses;
        assert_eq!(
            untyped, 0,
            "cell {name}: an incident was lost without a shed record"
        );
        r
    };
    let ungoverned = overload_cell("overload-ungoverned", None);
    assert_eq!(ungoverned.lost, 0, "no governor, no shedding, no loss");
    let governed = overload_cell("overload-governed", Some(SLO));
    assert!(governed.slo_polls > 0, "the governor drove SLO polls");
    assert_ne!(
        governed.top_rung,
        OverloadLevel::Normal,
        "the ladder engaged"
    );
    // The governed equilibrium is capacity-limited (the oldest window
    // always belongs to a session the shed rung cannot touch yet), so
    // the bound is a small constant multiple of the SLO — crucially
    // independent of feed length, unlike the ungoverned twin.
    let p99 = governed.staleness_p99;
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
        p99 * factor <= ungoverned.staleness_p99,
        "the governor must beat the degenerate cadence by ≥{factor}× (governed p99 \
         {p99}, ungoverned {})",
        ungoverned.staleness_p99
    );
}
