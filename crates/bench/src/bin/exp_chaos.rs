//! Chaos campaign: crash-safety and overload behaviour of the durable
//! sentry under an adversarial host, over the corpus replayed as live
//! traffic. Writes `BENCH_chaos.json`.
//!
//! ```text
//! cargo run --release -p csd-bench --bin exp_chaos [-- --smoke]
//! ```
//!
//! Two kinds of cells, swept as kill-points × chaos rates × overload:
//!
//! - **Parity cells**: the interleaved corpus trace is perturbed by a
//!   seeded [`ChaosSchedule`] (duplicated, reordered, reset, delayed
//!   frames; `kill -9` at scheduled delivery offsets). The driver
//!   crashes the [`DurableSentry`] at each kill, reopens it, and
//!   resumes delivery from the journal's durable-event cursor — the
//!   at-least-once protocol, with monotone-timestamp dedup absorbing
//!   every duplicate. The contract, asserted in every cell: the final
//!   incident set is *identical* to an uninterrupted in-memory run
//!   over the clean trace — **zero lost, zero duplicated incidents**.
//! - **Overload cells**: the caller polls on a deliberately lazy fixed
//!   cadence, and a delivery stall does not poll, so ingest genuinely
//!   outpaces what the polls buy the engine — the degenerate
//!   configuration where verdict staleness grows with the feed length.
//!   With the
//!   bounded-staleness SLO set, the governor's ladder (SLO-driven
//!   polls → typed shedding) must engage and hold
//!   p99 staleness near the SLO; a governorless twin of the same cell
//!   is run first to report the degeneration being prevented. Any
//!   incident missing versus the oracle must belong to a *shed*
//!   session — coverage loss under overload is typed and counted,
//!   never silent.
//!
//! Every cell runs the mux at one shard, as every serving configuration
//! does; `--smoke` repeats the clean and the heaviest parity cell at two,
//! so the chunked serving path meets the same contract in CI.
//!
//! Every cell also reports what the sentry held: the most sessions it
//! tracked at once next to the most that were alive, and the size of
//! the last checkpoint — and what it asked of the disk: journal sync
//! batches and checkpoints, counted, because a cell's wall time follows
//! whatever an fsync costs on the host that day. A parity cell fails if
//! the tracked count runs more than [`TRACKED_SLACK`] ahead of the live
//! one — ended sessions must retire once their verdicts are in — and
//! every cell must end tracking only the sessions still alive.
//!
//! And every cell reports what its respawns read: journal bytes
//! scanned, positional reads and incidents read from checkpoint
//! digests, summed over the reopens, beside the events replayed and
//! incidents adopted. A kill cell fails if a reopen that had a
//! checkpoint did not start at its anchor, or read more than the bytes
//! appended since that checkpoint plus [`HOP_BYTES`] per chained
//! incident and one record: a respawn costs what the checkpoint
//! interval holds, not what the journal does.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_ransomware::chaos::{ChaosConfig, ChaosCounters, ChaosOp, ChaosSchedule};
use csd_ransomware::dataset::{Dataset, DatasetBuilder};
use csd_ransomware::replay::{interleave, EventTrace, ReplayProfile};
use csd_sentry::{
    read_checkpoint, ActionKind, CheckpointRead, DurableConfig, DurableSentry, OverloadLevel,
    ProcessEvent, Sentry, SentryConfig,
};
use serde::Serialize;

/// Caller poll cadence in delivered frames. Parity cells use the fast
/// service-loop cadence; overload cells deliberately degrade it: a
/// poll's 1,024 window-steps every 4,096 frames are 0.25 an event,
/// against ≈ 1.5 the overload shape's windows offer.
const POLL_EVERY: usize = 16;
const LAZY_POLL_EVERY: usize = 4096;

/// Overload cells journal with larger sync batches: the cell measures
/// scheduling, not fsync throughput.
const SYNC_EVERY: usize = 1024;

/// Sessions a parity cell may track beyond the live ones: those that
/// exited while their window was still in the mux — none in live
/// service, where the poll after a window's last call returns its
/// verdict, a few after a recovery, whose replay queues windows for the
/// polls that follow it. Overload cells are exempt — their backlog is
/// the experiment.
const TRACKED_SLACK: u64 = 128;

/// What a reopen may read per incident it reads from a digest, and the
/// slack for the one record it reads back at the checkpoint's anchor.
const HOP_BYTES: u64 = 512;

#[derive(Serialize)]
struct CellReport {
    name: String,
    shards: usize,
    kills: u64,
    chaos: ChaosCounters,
    /// Frames handed to ingest, including crash-resume re-sends.
    frames_sent: u64,
    /// Duplicates absorbed by monotone-timestamp dedup.
    dup_events: u64,
    incidents: usize,
    oracle_incidents: usize,
    lost_incidents: usize,
    duplicate_incidents: usize,
    /// Journal events replayed across all recoveries in this cell.
    replayed_events: u64,
    /// Incidents re-adopted from the journal across all recoveries.
    adopted_incidents: u64,
    /// Journal bytes read across all recoveries.
    journal_bytes_scanned: u64,
    /// Of the adopted incidents, those read from the digests a
    /// checkpoint's anchor leads to rather than scanned.
    chained_incidents: u64,
    /// Positional journal reads across all recoveries: the magic, and
    /// from an anchor the record there and one per digest.
    journal_reads: u64,
    staleness_p50: u64,
    staleness_p99: u64,
    staleness_max: u64,
    /// Most sessions alive at once (started − ended), sampled every 16
    /// frames.
    live_sessions_peak: u64,
    /// Most sessions tracked at once: live plus awaiting a verdict.
    tracked_sessions_peak: u64,
    /// Size of `checkpoint.snap` as the cell's last automatic checkpoint
    /// left it (0 if the cell never reached one).
    checkpoint_bytes_last: u64,
    /// Journal sync batches issued, over every incarnation of the cell:
    /// what it asked of the disk, whatever a sync cost that day.
    journal_syncs: u64,
    /// Checkpoints written, over every incarnation.
    checkpoints: u64,
    /// Overload-cell fields (zero/default in parity cells).
    slo: Option<u64>,
    slo_polls: u64,
    shed_sessions: u64,
    top_rung: String,
    /// Oracle incidents missing from the run whose session was *not*
    /// shed — must be zero everywhere (in parity cells, all misses
    /// must be zero to begin with).
    untyped_losses: usize,
    wall_ms: f64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    entries: usize,
    events: usize,
    cells: Vec<CellReport>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn corpus(smoke: bool) -> Dataset {
    if smoke {
        DatasetBuilder::new(7)
            .ransomware_windows(150)
            .benign_windows(150)
            .build()
    } else {
        DatasetBuilder::paper(7).build()
    }
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
fn sentry_config(overload: bool, n_entries: usize) -> SentryConfig {
    let mut config = SentryConfig {
        window_len: if overload { 50 } else { 100 },
        stride: if overload { 25 } else { 10 },
        votes_needed: 1,
        vote_horizon: 1,
        action: ActionKind::Log,
        dedup_monotone_ts: true,
        ..SentryConfig::default()
    };
    config.mux.max_pending = (n_entries * 4).max(4096);
    config
}

/// Incident identity across runs. Replay pids are never reused, so
/// `(pid, at_call, action)` names an incident independently of sid
/// assignment order (which frame reordering may perturb).
fn oracle_keys(trace: &EventTrace, config: &SentryConfig) -> Vec<(u32, usize, String)> {
    let events: Vec<ProcessEvent> = trace.events.iter().map(ProcessEvent::from).collect();
    let sentry = Sentry::uninterrupted(engine(), config.clone(), &events, 0);
    let mut keys: Vec<_> = sentry
        .incidents()
        .iter()
        .map(|i| (i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    keys.sort();
    keys
}

/// The journal offset the checkpoint in `dir` is anchored at, if there
/// is one that [`DurableSentry::open`] would use.
fn anchor_offset(dir: &Path) -> Option<u64> {
    match read_checkpoint(&dir.join("checkpoint.snap")) {
        CheckpointRead::Valid(snap) => Some(snap.journal.offset),
        CheckpointRead::Absent | CheckpointRead::Invalid => None,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csd-exp-chaos-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[derive(Clone)]
struct Cell {
    name: &'static str,
    chaos: ChaosConfig,
    /// Kill points as fractions of total deliveries.
    kill_fracs: &'static [f64],
    slo: Option<u64>,
    poll_every: usize,
    /// Mux shard count.
    shards: usize,
}

#[allow(clippy::too_many_lines)]
fn run_cell(cell: &Cell, trace: &EventTrace, expect: &[(u32, usize, String)]) -> CellReport {
    let overload = cell.slo.is_some() || cell.poll_every > POLL_EVERY;
    let mut config = sentry_config(overload, expect.len().max(1));
    config.staleness_slo = cell.slo;
    config.mux.shards = Some(cell.shards);

    let total = trace.len() as u64;
    let mut chaos_cfg = cell.chaos.clone();
    chaos_cfg.kill_at = cell
        .kill_fracs
        .iter()
        .map(|f| ((f * total as f64) as u64).min(total.saturating_sub(1)))
        .collect();
    let schedule = ChaosSchedule::plan(trace, 0xC4A0 ^ total, &chaos_cfg);

    let dir = tmpdir(cell.name);
    let mut durable = DurableConfig::new(&dir);
    durable.journal.sync_every = SYNC_EVERY;

    let start = Instant::now();
    let mut d = DurableSentry::open(engine(), config.clone(), durable.clone())
        .expect("open durable sentry");

    // The k-th executed delivery's op index; a crash rewinds the op
    // cursor to just past the last *durable* delivery — the
    // at-least-once resume protocol over the journal cursor.
    let mut exec_log: Vec<usize> = Vec::with_capacity(schedule.ops.len());
    let mut executed_kills: HashSet<usize> = HashSet::new();
    let mut staleness_samples: Vec<u64> = Vec::new();
    let mut frames_sent = 0u64;
    let mut kills_done = 0u64;
    let mut replayed_events = 0u64;
    let mut adopted_incidents = 0u64;
    let (mut journal_bytes_scanned, mut chained_incidents, mut journal_reads) = (0u64, 0u64, 0u64);
    let mut since_poll = 0usize;
    let mut max_rung = OverloadLevel::Normal;
    let (mut live_sessions_peak, mut tracked_sessions_peak) = (0u64, 0u64);
    let (mut journal_syncs, mut checkpoints) = (0u64, 0u64);

    let mut i = 0usize;
    while i < schedule.ops.len() {
        match &schedule.ops[i] {
            ChaosOp::Deliver(ev) => {
                exec_log.push(i);
                frames_sent += 1;
                d.ingest(&ProcessEvent::from(ev)).expect("journaled ingest");
                since_poll += 1;
                if since_poll >= cell.poll_every {
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
            ChaosOp::Reset => {
                // The schedule already wove the conservative re-send of
                // the previous frame; the transport event itself is
                // invisible to the consumer.
            }
            ChaosOp::Delay(_) => {
                // Delivery stalls; the service loop keeps polling —
                // except an overload cell's lazy caller, which polls
                // only on its cadence.
                if !overload {
                    d.poll().expect("journaled poll");
                }
            }
            ChaosOp::Kill => {
                if executed_kills.insert(i) {
                    kills_done += 1;
                    journal_syncs += d.journal().syncs();
                    checkpoints += d.checkpoints_written();
                    // Torn tails of varying lengths across kills.
                    d.simulate_crash((kills_done as usize * 13) % 40);
                    let journal_len = fs::metadata(dir.join("journal.log")).map_or(0, |m| m.len());
                    let anchored_at = anchor_offset(&dir);
                    d = DurableSentry::open(engine(), config.clone(), durable.clone())
                        .expect("reopen after crash");
                    let recovery = d.recovery();
                    replayed_events += recovery.replayed_events;
                    adopted_incidents += recovery.adopted_incidents;
                    journal_bytes_scanned += recovery.journal_bytes_scanned;
                    chained_incidents += recovery.chained_incidents;
                    journal_reads += recovery.journal_reads;
                    if let Some(offset) = anchored_at {
                        assert_eq!(
                            recovery.full_scan, None,
                            "cell {}: a checkpoint this run wrote was not used",
                            cell.name
                        );
                        let bound = (journal_len - offset)
                            + HOP_BYTES * recovery.chained_incidents
                            + HOP_BYTES;
                        assert!(
                            recovery.journal_bytes_scanned <= bound,
                            "cell {}: a respawn read {} bytes of a {journal_len}-byte journal \
                             checkpointed at {offset}: {recovery:?}",
                            cell.name,
                            recovery.journal_bytes_scanned
                        );
                    }
                    let durable_n = d.durable_events() as usize;
                    assert!(
                        durable_n <= exec_log.len(),
                        "journal never runs ahead of the producer"
                    );
                    i = if durable_n == 0 {
                        0
                    } else {
                        exec_log[durable_n - 1] + 1
                    };
                    exec_log.truncate(durable_n);
                    since_poll = 0;
                    continue;
                }
            }
        }
        i += 1;
    }
    d.drain().expect("final drain");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    journal_syncs += d.journal().syncs();
    checkpoints += d.checkpoints_written();

    let sentry = d.sentry();
    let mut got: Vec<_> = sentry
        .incidents()
        .iter()
        .map(|i| (i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    got.sort();

    // Zero duplicated incidents: one per pid, ever (pids are unique per
    // corpus entry).
    let mut pids: Vec<u32> = got.iter().map(|k| k.0).collect();
    let n_pids = pids.len();
    pids.sort_unstable();
    pids.dedup();
    let duplicate_incidents = n_pids - pids.len();

    let got_set: HashSet<&(u32, usize, String)> = got.iter().collect();
    let shed_pids: HashSet<u32> = sentry.shed_log().iter().map(|r| r.pid).collect();
    let lost: Vec<_> = expect.iter().filter(|k| !got_set.contains(k)).collect();
    let untyped_losses = lost.iter().filter(|k| !shed_pids.contains(&k.0)).count();
    // And nothing invented: every raised incident is an oracle incident.
    let expect_set: HashSet<&(u32, usize, String)> = expect.iter().collect();
    let invented = got.iter().filter(|k| !expect_set.contains(k)).count();
    assert_eq!(
        invented, 0,
        "cell {}: incidents not in the oracle",
        cell.name
    );

    staleness_samples.sort_unstable();
    let stats = sentry.stats();
    assert_eq!(
        sentry.sessions().tracked() as u64,
        stats.sessions_started - stats.sessions_ended,
        "cell {}: ended sessions outlived the final drain",
        cell.name
    );
    if !overload {
        assert!(
            tracked_sessions_peak <= live_sessions_peak + TRACKED_SLACK,
            "cell {}: {tracked_sessions_peak} sessions tracked with at most \
             {live_sessions_peak} alive: ended sessions are not retiring",
            cell.name
        );
    }
    let checkpoint_bytes_last = fs::metadata(dir.join("checkpoint.snap")).map_or(0, |m| m.len());
    let report = CellReport {
        name: cell.name.to_string(),
        shards: cell.shards,
        kills: kills_done,
        chaos: schedule.counters,
        frames_sent,
        dup_events: stats.dup_events,
        incidents: got.len(),
        oracle_incidents: expect.len(),
        lost_incidents: lost.len(),
        duplicate_incidents,
        replayed_events,
        adopted_incidents,
        journal_bytes_scanned,
        chained_incidents,
        journal_reads,
        staleness_p50: percentile(&staleness_samples, 0.50),
        staleness_p99: percentile(&staleness_samples, 0.99),
        staleness_max: staleness_samples.last().copied().unwrap_or(0),
        live_sessions_peak,
        tracked_sessions_peak,
        checkpoint_bytes_last,
        journal_syncs,
        checkpoints,
        slo: cell.slo,
        slo_polls: stats.slo_polls,
        shed_sessions: stats.shed_sessions,
        top_rung: format!("{max_rung:?}"),
        untyped_losses,
        wall_ms,
    };
    let _ = fs::remove_dir_all(&dir);
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dataset = corpus(smoke);
    let entries = dataset.entries().len();
    let profile = ReplayProfile {
        mean_gap_us: 50,
        jitter: 0.5,
        spread_us: (entries as u64) * 100 * 50 / 4,
    };
    let trace = interleave(&dataset, 17, profile);
    println!(
        "exp_chaos: {} entries, {} events ({})",
        entries,
        trace.len(),
        if smoke { "smoke" } else { "full corpus" }
    );

    // One oracle per sentry shape (parity cells and overload cells use
    // different window geometry).
    let parity_expect = oracle_keys(&trace, &sentry_config(false, entries));
    let overload_expect = oracle_keys(&trace, &sentry_config(true, entries));
    println!(
        "oracle: {} incidents (parity shape), {} (overload shape)",
        parity_expect.len(),
        overload_expect.len()
    );

    let kills_mid: &[f64] = &[0.25, 0.6];
    let kills_dense: &[f64] = &[0.1, 0.35, 0.5, 0.8];
    let mut cells = vec![
        Cell {
            name: "clean",
            chaos: ChaosConfig::none(),
            kill_fracs: &[],
            slo: None,
            poll_every: POLL_EVERY,
            shards: 1,
        },
        Cell {
            name: "kills-only",
            chaos: ChaosConfig::none(),
            kill_fracs: kills_mid,
            slo: None,
            poll_every: POLL_EVERY,
            shards: 1,
        },
        Cell {
            name: "chaos-light",
            chaos: ChaosConfig::uniform(0.01),
            kill_fracs: &[],
            slo: None,
            poll_every: POLL_EVERY,
            shards: 1,
        },
        Cell {
            name: "chaos-light-kills",
            chaos: ChaosConfig::uniform(0.01),
            kill_fracs: kills_mid,
            slo: None,
            poll_every: POLL_EVERY,
            shards: 1,
        },
        Cell {
            name: "chaos-heavy-kills",
            chaos: ChaosConfig::uniform(0.05),
            kill_fracs: kills_dense,
            slo: None,
            poll_every: POLL_EVERY,
            shards: 1,
        },
    ];
    if smoke {
        for (of, name) in [
            ("clean", "clean-2shards"),
            ("chaos-heavy-kills", "chaos-heavy-kills-2shards"),
        ] {
            let twin = cells.iter().find(|c| c.name == of).expect("cell exists");
            cells.push(Cell {
                name,
                shards: 2,
                ..twin.clone()
            });
        }
    }
    let overload_cells = [
        Cell {
            name: "overload-ungoverned",
            chaos: ChaosConfig::uniform(0.01),
            kill_fracs: &[],
            slo: None,
            poll_every: LAZY_POLL_EVERY,
            shards: 1,
        },
        Cell {
            name: "overload-governed",
            chaos: ChaosConfig::uniform(0.01),
            kill_fracs: &[],
            slo: Some(512),
            poll_every: LAZY_POLL_EVERY,
            shards: 1,
        },
    ];

    let mut reports = Vec::new();
    for cell in &cells {
        let r = run_cell(cell, &trace, &parity_expect);
        println!(
            "  {:<26} shards={} kills={} chaos={} dup_dropped={} incidents={}/{} lost={} dup={} \
             replayed_events={} adopted_incidents={} journal_bytes_scanned={} \
             chained_incidents={} journal_reads={} \
             tracked_sessions_peak={} (live {}) checkpoint_bytes_last={} journal_syncs={} \
             checkpoints={} ({:.0} ms)",
            r.name,
            r.shards,
            r.kills,
            r.chaos.total(),
            r.dup_events,
            r.incidents,
            r.oracle_incidents,
            r.lost_incidents,
            r.duplicate_incidents,
            r.replayed_events,
            r.adopted_incidents,
            r.journal_bytes_scanned,
            r.chained_incidents,
            r.journal_reads,
            r.tracked_sessions_peak,
            r.live_sessions_peak,
            r.checkpoint_bytes_last,
            r.journal_syncs,
            r.checkpoints,
            r.wall_ms,
        );
        // The campaign's contract: crash-recovery equivalence, every
        // cell, zero lost and zero duplicated incidents.
        assert_eq!(r.lost_incidents, 0, "cell {}: lost incidents", r.name);
        assert_eq!(
            r.duplicate_incidents, 0,
            "cell {}: duplicated incidents",
            r.name
        );
        reports.push(r);
    }

    let mut governed_p99 = 0u64;
    let mut ungoverned_p99 = 0u64;
    for cell in &overload_cells {
        let r = run_cell(cell, &trace, &overload_expect);
        println!(
            "  {:<26} staleness p50={} p99={} max={} rung={} slo_polls={} shed={} untyped_losses={} \
             tracked_sessions_peak={} (live {}) checkpoint_bytes_last={} journal_syncs={} \
             checkpoints={} ({:.0} ms)",
            r.name,
            r.staleness_p50,
            r.staleness_p99,
            r.staleness_max,
            r.top_rung,
            r.slo_polls,
            r.shed_sessions,
            r.untyped_losses,
            r.tracked_sessions_peak,
            r.live_sessions_peak,
            r.checkpoint_bytes_last,
            r.journal_syncs,
            r.checkpoints,
            r.wall_ms,
        );
        assert_eq!(
            r.duplicate_incidents, 0,
            "cell {}: duplicated incidents",
            r.name
        );
        assert_eq!(
            r.untyped_losses, 0,
            "cell {}: an incident was lost without a shed record",
            r.name
        );
        match cell.slo {
            Some(slo) => {
                governed_p99 = r.staleness_p99;
                assert!(r.slo_polls > 0, "the governor drove SLO polls");
                assert_ne!(r.top_rung, "Normal", "the ladder engaged");
                // The governed equilibrium is capacity-limited (the
                // oldest window always belongs to a session the shed
                // rung cannot touch yet), so the bound is a small
                // constant multiple of the SLO — crucially independent
                // of feed length, unlike the ungoverned twin.
                assert!(
                    r.staleness_p99 <= 8 * slo,
                    "governed p99 staleness {} exceeds 8×slo {}",
                    r.staleness_p99,
                    8 * slo
                );
            }
            None => {
                ungoverned_p99 = r.staleness_p99;
                assert_eq!(r.lost_incidents, 0, "no governor, no shedding, no loss");
            }
        }
        reports.push(r);
    }
    // Ungoverned staleness grows with the feed; the governed run
    // plateaus. The ungoverned p99 is bounded by the trace's total
    // backlog, not unbounded growth, and the gap is ≈ 28× on both
    // corpora; assert the conservative 2×.
    let factor = 2;
    assert!(
        governed_p99 * factor <= ungoverned_p99,
        "the governor must beat the degenerate cadence by ≥{factor}× (governed p99 \
         {governed_p99}, ungoverned {ungoverned_p99})"
    );

    let by_name: HashMap<&str, &CellReport> =
        reports.iter().map(|r| (r.name.as_str(), r)).collect();
    assert!(
        by_name["chaos-heavy-kills"].dup_events > 0,
        "heavy chaos must actually exercise dedup"
    );
    assert!(
        by_name["chaos-heavy-kills"].replayed_events > 0,
        "kills must actually exercise journal replay"
    );

    let report = Report {
        smoke,
        entries,
        events: trace.len(),
        cells: reports,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    fs::write("BENCH_chaos.json", json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");
}
