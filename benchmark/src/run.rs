//! One workload, start to finish: set-up, the closed-loop, paced and
//! recovery phases with their output checks — or, traced, the per-layer
//! budget.

use std::path::PathBuf;
use std::time::Instant;

use csd_sentry::JournalError;

use crate::check::{check_rep, Failures};
use crate::clock::Lap;
use crate::harness::{run_rep, Rep, ServiceLoop};
use crate::host::{peak_rss_mb, stolen_share_base, stolen_share_since, RunDir};
use crate::layers::{self, metric, Metric};
use crate::recover::{recover_phase, Recovery};
use crate::setup::{prepare, Inputs, Trace};
use crate::stats::{mean, quantile, Summary};
use crate::trace::{Layer, Tracer, Untraced};
use crate::workload::{Load, Plan, Workload, PACED_EVENTS_PER_S};

/// End-to-end metric names, as in `BENCHMARK.json`.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "events_per_user_cpu_s",
    "syncs_per_kevent",
    "detect_latency_p50_us",
    "detect_latency_p95_us",
    "recover_cpu_s",
    "peak_rss_mb",
];

/// Per-layer metric names, as in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 50] = [
    "host.pace_ns",
    "gen.lag_p99_us",
    "gen.late_share",
    "sentry.event.encode_ns",
    "sentry.event.decode_ns",
    "sentry.event.frame_bytes",
    "sentry.bus.hop_ns",
    "sentry.bus.recv_wait_share",
    "sentry.bus.refused",
    "sentry.bus.socket_frames_per_s",
    "sentry.bus.decode_errors",
    "sentry.session.apply_ns",
    "sentry.session.live_peak",
    "sentry.service.ingest_ns",
    "sentry.service.poll_us",
    "sentry.service.polls_per_event",
    "sentry.service.staleness_p99_events",
    "sentry.service.paced_idle_share",
    "sentry.service.volatile_events_per_s",
    "sentry.service.mirror_events_per_s",
    "sentry.service.run_service_events_per_s",
    "sentry.journal.append_event_ns",
    "sentry.journal.sync_us",
    "sentry.journal.syncs",
    "sentry.journal.bytes",
    "sentry.journal.busy_s",
    "sentry.journal.scan_s",
    "sentry.snapshot.checkpoint_ms",
    "sentry.snapshot.checkpoints",
    "sentry.snapshot.bytes_last",
    "sentry.snapshot.busy_s",
    "sentry.snapshot.load_ms",
    "sentry.durable.ingest_ns",
    "sentry.durable.poll_us",
    "sentry.durable.drain_ms",
    "sentry.durable.replayed_events",
    "sentry.durable.adopted_incidents",
    "core.shard.submit_ns",
    "core.shard.tick_us",
    "core.shard.ticks",
    "core.shard.occupancy",
    "core.shard.verdicts_per_s",
    "core.shard.in_service_verdicts_per_s",
    "core.shard.verdicts_per_s.s2",
    "core.shard.evicted",
    "core.engine.classify_us",
    "core.engine.lanes_windows_per_s",
    "tensor.lanes.gate_block_us",
    "budget.unaccounted_share",
    "trace.overhead_share",
];

/// Closed-loop repetitions an end-to-end run makes at least: one takes
/// 0.7 to 3.5 s on the bench host, depending on its disk.
const MIN_CLOSED_REPS: usize = 3;
/// Set-ups per end-to-end run; their median is `setup_s`.
const SETUPS: usize = 3;
/// A paced repetition is marked invalid when more than this share of
/// its ticks started more than one tick late.
pub const LATE_TICK_LIMIT: f64 = 0.10;
/// The paced repetition's latencies are grouped, in time order, into at
/// most this many slices of at least [`SLICE_INCIDENTS`] incidents;
/// percentiles are taken within a slice.
const MAX_SLICES: usize = 5;
const SLICE_INCIDENTS: usize = 200;
/// The tail percentile: the highest that leaves ten samples beyond it
/// in a slice of [`SLICE_INCIDENTS`].
const TAIL: f64 = 0.95;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Trace seed.
    pub seed: u64,
    /// Seconds the closed-loop and paced phases share.
    pub seconds: u64,
    /// Per-layer run instead of end-to-end run.
    pub traced: bool,
    /// Small sizes, one set-up, two closed-loop repetitions, all checks.
    pub smoke: bool,
    /// Closed-loop repetition count instead of the one `seconds` gives.
    pub reps: Option<usize>,
}

/// One reported metric: the value, and the spread behind it when it
/// summarizes repetitions.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Name, value and unit.
    pub metric: Metric,
    /// Quartiles and sample count of what the value summarizes.
    pub summary: Option<Summary>,
    /// What the reader must know to read the value (e.g. which
    /// percentile a small sample supported).
    pub note: Option<String>,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Reported>,
    /// Measurements printed for the reader but not part of the
    /// contract's metric set.
    pub extras: Vec<Reported>,
    /// Operations attempted: events sent plus incidents expected.
    pub attempted: u64,
    /// Failed operations, by kind.
    pub failures: Failures,
    /// `false` when the paced generator ran too late for the latencies
    /// to mean much.
    pub valid: bool,
    /// Sizes of the generated inputs, for the report file.
    pub sizes: Vec<(&'static str, f64)>,
}

impl Report {
    /// Every output matched the oracle and nothing was lost.
    pub fn correct(&self) -> bool {
        self.failures.total() == 0
    }
}

fn plain(metric: Metric) -> Reported {
    Reported {
        metric,
        summary: None,
        note: None,
    }
}

/// The lower quartile of samples of which a host's busy spell may have
/// slowed some (slices of a paced repetition): with five samples, half
/// way between the two fastest.
fn lower_quartile(name: &'static str, samples: &[f64], unit: &'static str) -> Reported {
    let summary = Summary::of(samples);
    Reported {
        metric: metric(name, summary.q1, unit),
        summary: Some(summary),
        note: None,
    }
}

/// The mean of samples that each did different work, all of which
/// counts (crash points), with the spread printed beside it.
fn mean_of(name: &'static str, samples: &[f64], unit: &'static str) -> Reported {
    Reported {
        metric: metric(name, mean(samples), unit),
        summary: Some(Summary::of(samples)),
        note: None,
    }
}

/// The median of samples that may each have been disturbed (set-ups,
/// paces), with the spread printed beside it.
fn median(name: &'static str, samples: &[f64], unit: &'static str) -> Reported {
    let summary = Summary::of(samples);
    Reported {
        metric: metric(name, summary.median, unit),
        summary: Some(summary),
        note: None,
    }
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("a measured value is never NaN"));
    samples
}

/// Repetition directories under the run directory; only the latest is
/// kept.
struct RepDirs<'a> {
    run: &'a RunDir,
    next: usize,
    last: Option<PathBuf>,
}

impl<'a> RepDirs<'a> {
    fn new(run: &'a RunDir) -> Self {
        Self {
            run,
            next: 0,
            last: None,
        }
    }

    fn fresh(&mut self) -> PathBuf {
        if let Some(old) = self.last.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let dir = self.run.path().join(format!("rep-{}", self.next));
        self.next += 1;
        self.last = Some(dir.clone());
        dir
    }
}

/// Accumulates the output check over repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Failures,
}

impl Tally {
    fn rep(&mut self, trace: &Trace, rep: &Rep) {
        let sent = trace.events.len() as u64;
        self.attempted += sent + trace.expected.len() as u64;
        self.failures.add(&check_rep(&trace.expected, sent, rep));
    }

    fn recovery(&mut self, inputs: &Inputs, recovery: &Recovery) {
        self.attempted += recovery.events_sent + inputs.closed.expected.len() as u64;
        self.failures.add(&recovery.failures);
    }
}

fn sizes(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let stage = |lap: Option<Lap>| lap.map_or(0.0, |l| l.wall_s);
    vec![
        ("closed_events", inputs.closed.events.len() as f64),
        ("closed_processes", inputs.closed.processes.len() as f64),
        (
            "closed_expected_incidents",
            inputs.closed.expected.len() as f64,
        ),
        ("paced_events", inputs.paced.events.len() as f64),
        ("paced_processes", inputs.paced.processes.len() as f64),
        (
            "paced_expected_incidents",
            inputs.paced.expected.len() as f64,
        ),
        ("paced_events_per_s", PACED_EVENTS_PER_S),
        (
            "oracle_windows",
            (inputs.closed.oracle_windows + inputs.paced.oracle_windows) as f64,
        ),
        ("setup_train_wall_s", stage(inputs.train)),
        ("setup_generate_wall_s", stage(Some(inputs.generate))),
        ("setup_oracle_wall_s", stage(Some(inputs.oracle))),
    ]
}

/// Runs `options.workload` in the mode `options.traced` selects.
pub fn run(options: &Options) -> Result<Report, JournalError> {
    let run_dir = RunDir::create()?;
    if options.traced {
        traced(options, &run_dir)
    } else {
        end_to_end(options, &run_dir)
    }
}

/// What the closed-loop repetitions measured.
///
/// Every repetition replays the same trace through the real
/// `run_service`. The throughput reported is all their events over all
/// the user-mode CPU seconds the service thread needed, each
/// repetition's at the reference pace: a total, so it does not depend
/// on how many repetitions fitted into the phase.
#[derive(Default)]
struct ClosedLoop {
    /// Per repetition: events per wall second.
    wall_rates: Vec<f64>,
    /// Per repetition: events per user CPU second at the reference pace.
    user_rates: Vec<f64>,
    /// Per repetition: the host's pace.
    paces: Vec<f64>,
    /// User CPU seconds at the reference pace, all repetitions.
    ref_user_s: f64,
    /// CPU seconds, user and system, as the clock read them.
    cpu_s: f64,
}

impl ClosedLoop {
    fn rep(
        &mut self,
        inputs: &Inputs,
        dirs: &mut RepDirs<'_>,
        tally: &mut Tally,
    ) -> Result<(), JournalError> {
        let rep = run_rep(
            inputs,
            &inputs.closed,
            Load::Closed,
            &dirs.fresh(),
            ServiceLoop::Real,
            &mut Untraced,
        )?;
        tally.rep(&inputs.closed, &rep);
        let events = inputs.closed.events.len() as f64;
        self.wall_rates.push(events / rep.wall_s);
        self.user_rates.push(events / rep.ref_user_s());
        self.paces.push(rep.pace_ns);
        self.ref_user_s += rep.ref_user_s();
        self.cpu_s += rep.cpu_s;
        Ok(())
    }

    fn events(&self, inputs: &Inputs) -> f64 {
        (self.wall_rates.len() * inputs.closed.events.len()) as f64
    }
}

/// The paced repetition's latencies, µs, in time order, cut into slices
/// of equal duration.
fn latency_slices(inputs: &Inputs, rep: &Rep) -> Vec<Vec<f64>> {
    let latencies = rep.latencies(&inputs.paced.expected);
    let n = (latencies.len() / SLICE_INCIDENTS).clamp(1, MAX_SLICES);
    let span_s = inputs.paced.events.len() as f64 / PACED_EVENTS_PER_S;
    let mut slices = vec![Vec::new(); n];
    for l in latencies {
        slices[((l.due_s / span_s * n as f64) as usize).min(n - 1)].push(l.us);
    }
    slices.into_iter().map(sorted).collect()
}

fn end_to_end(options: &Options, run_dir: &RunDir) -> Result<Report, JournalError> {
    let plan = Plan::new(options.seconds);
    // Set-up, several times: it is a metric of its own, so that work
    // moved into set-up shows.
    let setups = if options.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut inputs = None;
    for _ in 0..setups {
        drop(inputs.take());
        let prepared = prepare(options.workload, options.seed, plan.paced_s, options.smoke);
        setup_s.push(prepared.setup_s());
        inputs = Some(prepared);
    }
    let inputs = inputs.expect("set-up ran at least once");

    let mut dirs = RepDirs::new(run_dir);
    let mut tally = Tally::default();
    let stolen_before = stolen_share_base();

    // As many repetitions as the phase's time holds (what is reported
    // is a total over them), or the number asked for.
    let reps = options.reps.or(options.smoke.then_some(2));
    let mut closed = ClosedLoop::default();
    let phase = Instant::now();
    while match reps {
        Some(n) => closed.wall_rates.len() < n,
        None => closed.wall_rates.len() < MIN_CLOSED_REPS || phase.elapsed() < plan.closed,
    } {
        closed.rep(&inputs, &mut dirs, &mut tally)?;
    }

    let paced = run_rep(
        &inputs,
        &inputs.paced,
        inputs.workload.paced(),
        &dirs.fresh(),
        ServiceLoop::Mirror,
        &mut Untraced,
    )?;
    tally.rep(&inputs.paced, &paced);

    let recovery = recover_phase(&inputs, &dirs.fresh(), options.seed)?;
    tally.recovery(&inputs, &recovery);

    let paced_events = inputs.paced.events.len() as f64;
    let throughput = Reported {
        metric: metric(
            "events_per_user_cpu_s",
            closed.events(&inputs) / closed.ref_user_s,
            "1/s",
        ),
        summary: Some(Summary::of(&closed.user_rates)),
        note: Some("closed loop; all repetitions' events over all their user CPU seconds".into()),
    };

    // Latency percentiles within each slice of the paced repetition.
    let slices = latency_slices(&inputs, &paced);
    let smallest = slices.iter().map(Vec::len).min().unwrap_or(0);
    if smallest == 0 {
        return Err(std::io::Error::other(
            "a stretch of the paced phase raised no incident to time; pick another seed",
        )
        .into());
    }
    let percentiles =
        |p: f64| -> Vec<f64> { slices.iter().map(|slice| quantile(slice, p)).collect() };
    let mut p50 = lower_quartile("detect_latency_p50_us", &percentiles(0.5), "us");
    p50.note = Some(format!(
        "{} incidents in {} s at {} events/s, {} slices",
        slices.iter().map(Vec::len).sum::<usize>(),
        plan.paced_s,
        PACED_EVENTS_PER_S,
        slices.len()
    ));
    let mut p95 = lower_quartile("detect_latency_p95_us", &percentiles(TAIL), "us");
    p95.note = Some(format!("the smallest slice has {smallest} incidents"));

    let opens = |f: fn(&Lap) -> f64| recovery.opens.iter().map(f).collect::<Vec<_>>();
    let metrics = vec![
        median("setup_s", &setup_s, "s"),
        throughput,
        plain(metric(
            "syncs_per_kevent",
            (paced.journal_syncs + paced.checkpoints) as f64 * 1e3 / paced_events,
            "1/kevent",
        )),
        p50,
        p95,
        mean_of("recover_cpu_s", &opens(Lap::ref_cpu_s), "s"),
        plain(metric(
            "peak_rss_mb",
            peak_rss_mb().ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))?,
            "MiB",
        )),
    ];

    let lag = paced.lag.clone().unwrap_or_default();
    let extras = vec![
        median("wall_events_per_s", &closed.wall_rates, "1/s"),
        plain(metric(
            "events_per_cpu_s",
            closed.events(&inputs) / closed.cpu_s,
            "1/s",
        )),
        mean_of("recover_s", &opens(|lap| lap.wall_s), "s"),
        median("host.pace_ns", &closed.paces, "ns"),
        plain(metric(
            "host.stolen_share",
            stolen_share_since(stolen_before),
            "ratio",
        )),
        plain(metric("gen.late_share", lag.late_share(), "ratio")),
        plain(metric(
            "gen.lag_p99_us",
            quantile(&sorted(lag.tick_lag_us), 0.99),
            "us",
        )),
    ];
    Ok(Report {
        metrics,
        extras,
        attempted: tally.attempted,
        failures: tally.failures,
        valid: on_schedule(&paced),
        sizes: sizes(&inputs),
    })
}

/// Whether the paced generator held its schedule well enough.
fn on_schedule(rep: &Rep) -> bool {
    rep.lag
        .as_ref()
        .is_none_or(|l| l.late_share() <= LATE_TICK_LIMIT)
}

fn traced(options: &Options, run_dir: &RunDir) -> Result<Report, JournalError> {
    // The paced phase is here for the generator's and the idle loop's
    // numbers only: half its end-to-end length.
    let paced_s = (Plan::new(options.seconds).paced_s / 2).max(2);
    let inputs = prepare(options.workload, options.seed, paced_s, options.smoke);
    let mut dirs = RepDirs::new(run_dir);
    let mut tally = Tally::default();
    let trace = &inputs.closed;

    // The real loop once, for the drift check against its mirror; then
    // the mirror twice: untraced for the reference wall, and traced.
    let real = run_rep(
        &inputs,
        trace,
        Load::Closed,
        &dirs.fresh(),
        ServiceLoop::Real,
        &mut Untraced,
    )?;
    tally.rep(trace, &real);
    let reference = run_rep(
        &inputs,
        trace,
        Load::Closed,
        &dirs.fresh(),
        ServiceLoop::Mirror,
        &mut Untraced,
    )?;
    tally.rep(trace, &reference);
    let mut tracer = Tracer::start(trace.events.len() * 9 / 8);
    let closed_dir = dirs.fresh();
    let rep = run_rep(
        &inputs,
        trace,
        Load::Closed,
        &closed_dir,
        ServiceLoop::Mirror,
        &mut tracer,
    )?;
    tracer.finish();
    tally.rep(trace, &rep);
    tracer.dump(&crate::host::output_dir().join(format!("trace-{}.csv", inputs.workload.name)))?;

    let events = trace.events.len() as f64;
    let wall = tracer.wall_s();
    let spans = |layer| tracer.durations_s(layer);
    let (ingest, poll, drain, checkpoint) = (
        spans(Layer::Ingest),
        spans(Layer::Poll),
        spans(Layer::Drain),
        spans(Layer::Checkpoint),
    );
    let stats = &rep.service.stats;
    let mut found = vec![
        metric("host.pace_ns", crate::clock::pace_ns(), "ns"),
        metric(
            "sentry.bus.recv_wait_share",
            spans(Layer::BusRecv).iter().sum::<f64>() / wall,
            "ratio",
        ),
        metric("sentry.bus.refused", rep.bus_refused as f64, "count"),
        metric(
            "sentry.service.polls_per_event",
            rep.polls as f64 / events,
            "ratio",
        ),
        metric(
            "sentry.service.mirror_events_per_s",
            events / reference.wall_s,
            "1/s",
        ),
        metric(
            "sentry.service.run_service_events_per_s",
            events / real.wall_s,
            "1/s",
        ),
        metric("sentry.journal.syncs", rep.journal_syncs as f64, "count"),
        metric(
            "sentry.journal.bytes",
            std::fs::metadata(closed_dir.join("journal.log"))?.len() as f64,
            "bytes",
        ),
        metric(
            "sentry.snapshot.checkpoint_ms",
            mean(&checkpoint) * 1e3,
            "ms",
        ),
        metric(
            "sentry.snapshot.checkpoints",
            rep.checkpoints as f64,
            "count",
        ),
        metric("sentry.snapshot.busy_s", checkpoint.iter().sum(), "s"),
        metric("sentry.durable.ingest_ns", mean(&ingest) * 1e9, "ns"),
        metric("sentry.durable.poll_us", mean(&poll) * 1e6, "us"),
        metric("sentry.durable.drain_ms", mean(&drain) * 1e3, "ms"),
        metric("core.shard.ticks", stats.mux.ticks as f64, "count"),
        metric("core.shard.occupancy", stats.mux.occupancy, "ratio"),
        metric(
            "core.shard.in_service_verdicts_per_s",
            stats.mux.verdicts as f64 / wall,
            "1/s",
        ),
        metric("core.shard.evicted", stats.mux.evicted as f64, "count"),
        metric(
            "budget.unaccounted_share",
            tracer.unaccounted_share(),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            rep.wall_s / reference.wall_s - 1.0,
            "ratio",
        ),
    ];
    found.extend(layers::snapshot_load(
        &inputs,
        &closed_dir.join("checkpoint.snap"),
    )?);

    // The paced phase, traced: how late the generator ran, how idle the
    // loop is at the offered rate, how stale verdicts get on the way.
    let mut paced_tracer = Tracer::start(inputs.paced.events.len() * 9 / 8);
    let paced = run_rep(
        &inputs,
        &inputs.paced,
        inputs.workload.paced(),
        &dirs.fresh(),
        ServiceLoop::Mirror,
        &mut paced_tracer,
    )?;
    paced_tracer.finish();
    tally.rep(&inputs.paced, &paced);
    let lag = paced.lag.clone().unwrap_or_default();
    let staleness = sorted(paced_tracer.staleness_samples().to_vec());
    found.extend([
        metric("gen.late_share", lag.late_share(), "ratio"),
        metric(
            "gen.lag_p99_us",
            quantile(&sorted(lag.tick_lag_us), 0.99),
            "us",
        ),
        metric(
            "sentry.bus.decode_errors",
            paced.decode_errors as f64,
            "count",
        ),
        metric(
            "sentry.service.paced_idle_share",
            paced_tracer.durations_s(Layer::BusRecv).iter().sum::<f64>() / paced_tracer.wall_s(),
            "ratio",
        ),
        metric(
            "sentry.service.staleness_p99_events",
            quantile(&staleness, 0.99),
            "events",
        ),
    ]);

    let recovery = recover_phase(&inputs, &dirs.fresh(), options.seed)?;
    tally.recovery(&inputs, &recovery);
    let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    found.push(metric(
        "sentry.durable.replayed_events",
        mean(&as_f64(&recovery.replayed_events)),
        "events",
    ));
    found.push(metric(
        "sentry.durable.adopted_incidents",
        mean(&as_f64(&recovery.adopted_incidents)),
        "count",
    ));

    // Layer drives over the closed-loop trace's stream.
    let config = &inputs.config;
    let submissions = trace.submissions(config.window_len, config.stride);
    found.extend(layers::event_layer(&trace.events));
    found.extend(layers::bus_layer(&trace.events, run_dir.path())?);
    found.extend(layers::session_layer(&inputs));
    found.extend(layers::service_layer(&inputs));
    found.extend(layers::journal_layer(&inputs, run_dir.path())?);
    let one = layers::mux_drive(&inputs, &submissions, 1);
    let two = layers::mux_drive(&inputs, &submissions, 2);
    found.push(metric("core.shard.submit_ns", one.submit_ns, "ns"));
    found.push(metric("core.shard.tick_us", one.tick_us, "us"));
    found.push(metric(
        "core.shard.verdicts_per_s",
        one.verdicts_per_s,
        "1/s",
    ));
    found.push(metric(
        "core.shard.verdicts_per_s.s2",
        two.verdicts_per_s,
        "1/s",
    ));
    found.extend(layers::engine_layer(&inputs, &submissions));
    found.extend(layers::lanes_layer());

    // Report in the contract's order; a name without a measurement is
    // a bug here, not a zero.
    let metrics = PER_LAYER
        .iter()
        .map(|name| {
            let m = found
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            plain(m.clone())
        })
        .collect();
    Ok(Report {
        metrics,
        extras: Vec::new(),
        attempted: tally.attempted,
        failures: tally.failures,
        valid: on_schedule(&paced),
        sizes: sizes(&inputs),
    })
}
