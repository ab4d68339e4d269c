//! Set-up: detector training, seeded trace generation, engine pack and
//! the offline oracle. Everything here is timed as `setup_s` and never
//! inside another metric; the program under test receives only the
//! generated events.

use std::collections::HashMap;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier, TrainOptions, Trainer};
use csd_ransomware::dataset::DatasetEntry;
use csd_ransomware::replay::REPLAY_PID_BASE;
use csd_ransomware::{
    interleave, sliding_windows, BenignProfile, Dataset, DatasetBuilder, ReplayProfile, Sandbox,
    SplitKind, Variant, WindowsVersion,
};
use csd_sentry::{EventKind, ProcessEvent, SentryConfig};

use crate::clock::{timed, Lap};
use crate::workload::{Shape, Workload, BENIGN_CALLS, DETONATION_CALLS};

/// Detonation pids start this far above the benign ones, so no pid is
/// ever reused within a trace.
const DETONATION_PID_OFFSET: u32 = 1 << 20;

/// Mean gap between one process's calls on the trace clock, µs. Only
/// the interleaving order depends on it: saturation sends as fast as
/// the service accepts and pacing goes by event index.
const MEAN_GAP_US: u64 = 50;

/// One generated process: what the oracle classifies offline.
#[derive(Debug, Clone)]
pub struct Process {
    /// Its pid in the trace (never reused).
    pub pid: u32,
    /// Its calls, in order.
    pub calls: Vec<usize>,
    /// The call count at which the oracle's vote latched, if it did.
    pub latched_at: Option<usize>,
}

/// One incident the oracle expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// The alerting process.
    pub pid: u32,
    /// `Incident.alert.at_call`: the call that completed the deciding
    /// window.
    pub at_call: usize,
    /// Index in the trace of that call's event — latency counts from
    /// its send.
    pub event_idx: usize,
}

/// A generated trace with its offline answer.
#[derive(Debug)]
pub struct Trace {
    /// The processes behind the events.
    pub processes: Vec<Process>,
    /// The merged, time-ordered events.
    pub events: Vec<ProcessEvent>,
    /// The expected incident set, ordered by `event_idx`.
    pub expected: Vec<Expected>,
    /// Windows the oracle classified to get there.
    pub oracle_windows: usize,
    by_pid: HashMap<u32, usize>,
}

/// One window the sentry submits while replaying a trace.
#[derive(Debug, Clone, Copy)]
pub struct Submission<'a> {
    /// Index of the event that completed the window.
    pub event_idx: usize,
    /// The submitting process.
    pub pid: u32,
    /// Calls seen when the window completed.
    pub at_call: usize,
    /// The window.
    pub window: &'a [usize],
}

impl Trace {
    /// The trace's window stream, in submission order: every process's
    /// sliding windows up to and including the one that latched it.
    /// (Live, a few more are submitted before the deciding verdict
    /// folds; how many depends on timing, so layer drives leave them
    /// out.)
    pub fn submissions(&self, window_len: usize, stride: usize) -> Vec<Submission<'_>> {
        let mut seen = vec![0usize; self.processes.len()];
        let mut out = Vec::with_capacity(self.oracle_windows);
        for (event_idx, e) in self.events.iter().enumerate() {
            if !matches!(e.kind, EventKind::Api(_)) {
                continue;
            }
            let p = self.by_pid[&e.pid];
            seen[p] += 1;
            let n = seen[p];
            let proc = &self.processes[p];
            let due = n >= window_len && (n - window_len).is_multiple_of(stride);
            if due && proc.latched_at.is_none_or(|at| n <= at) {
                out.push(Submission {
                    event_idx,
                    pid: e.pid,
                    at_call: n,
                    window: &proc.calls[n - window_len..n],
                });
            }
        }
        out
    }
}

/// Everything the measured phases need.
#[derive(Debug)]
pub struct Inputs {
    /// The workload being run.
    pub workload: Workload,
    /// The packed engine (cloned per sentry incarnation).
    pub engine: CsdInferenceEngine,
    /// The sentry configuration.
    pub config: SentryConfig,
    /// The closed-loop (and recovery) trace.
    pub closed: Trace,
    /// The paced trace.
    pub paced: Trace,
    /// Detector training, timed. `None` when the caller brought weights.
    pub train: Option<Lap>,
    /// Engine pack and generation of both traces, timed.
    pub generate: Lap,
    /// The oracle's classification of both traces, timed.
    pub oracle: Lap,
}

impl Inputs {
    /// The whole set-up in seconds at the reference pace. Training and
    /// the oracle compute on two threads and wait for nothing, so their
    /// wall time scales with the pace like CPU time does.
    pub fn setup_s(&self) -> f64 {
        self.train.map_or(0.0, |lap| lap.ref_wall_s())
            + self.generate.ref_wall_s()
            + self.oracle.ref_wall_s()
    }
}

/// Runs the whole set-up for `workload`; the paced trace lasts
/// `paced_seconds`.
pub fn prepare(workload: Workload, seed: u64, paced_seconds: u64, smoke: bool) -> Inputs {
    let (weights, train) = timed(train_detector);
    Inputs {
        train: Some(train),
        ..prepare_with(&weights, workload, seed, paced_seconds, smoke)
    }
}

/// The set-up after training: engine pack, trace generation, oracle.
/// (Tests pass untrained weights: what they pin does not depend on how
/// good the detector is.)
pub fn prepare_with(
    weights: &ModelWeights,
    workload: Workload,
    seed: u64,
    paced_seconds: u64,
    smoke: bool,
) -> Inputs {
    let config = workload.sentry_config();
    let ((engine, mut closed, mut paced), generate) = timed(|| {
        (
            CsdInferenceEngine::new(weights, OptimizationLevel::FixedPoint),
            generate(workload.closed_shape(smoke), seed),
            generate(workload.paced_shape(paced_seconds), seed ^ 0x9ace),
        )
    });
    let ((), oracle) = timed(|| {
        run_oracle(&engine, &config, &mut closed);
        run_oracle(&engine, &config, &mut paced);
    });
    Inputs {
        workload,
        engine,
        config,
        closed,
        paced,
        train: None,
        generate,
        oracle,
    }
}

/// The `tests/mitigation_loop.rs` detector: paper dimensions, 400
/// noisy windows, 14 epochs, fixed seed — good enough that detonations
/// latch and most benign processes survive. Two gradient threads
/// whatever the host has, so every host trains the same weights.
pub fn train_detector() -> ModelWeights {
    const WINDOWS: usize = 400;
    const SEED: u64 = 0x717;
    let ransomware = WINDOWS * 46 / 100;
    let corpus = DatasetBuilder::new(SEED)
        .ransomware_windows(ransomware)
        .benign_windows(WINDOWS - ransomware)
        .noise(0.12)
        .build();
    let (train, _) = corpus.split(0.2, SplitKind::Random, 1);
    let mut model = SequenceClassifier::new(ModelConfig::paper(), SEED);
    Trainer::new(TrainOptions {
        epochs: 14,
        seed: SEED,
        threads: 2,
        ..TrainOptions::default()
    })
    .fit(&mut model, &train.examples(), &[]);
    ModelWeights::from_model(&model)
}

fn generate(shape: Shape, seed: u64) -> Trace {
    let mut processes = Vec::new();
    let events = match shape {
        Shape::Corpus { sessions } => {
            let ransomware = sessions * 46 / 100;
            let corpus = DatasetBuilder::new(seed)
                .ransomware_windows(ransomware)
                .benign_windows(sessions - ransomware)
                .build();
            // exp_sentry's arrival shape: starts spread over a quarter
            // of the nominal makespan, so sessions overlap heavily.
            let spread_us = sessions as u64 * 100 * MEAN_GAP_US / 4;
            replay(&corpus, seed, spread_us, 0, &mut processes)
        }
        Shape::Fleet {
            benign,
            detonations,
            spread_quarters,
        } => {
            let lifetime_us = BENIGN_CALLS as u64 * MEAN_GAP_US;
            let benign_spread = lifetime_us * spread_quarters / 4;
            let benign = Dataset::from_entries(benign_entries(benign, seed));
            let detonations = Dataset::from_entries(detonation_entries(detonations, seed));
            let mut events = replay(&benign, seed, benign_spread, 0, &mut processes);
            // Detonations keep arriving until the last benign process
            // is about to exit.
            events.extend(replay(
                &detonations,
                seed ^ 0xde70,
                benign_spread + lifetime_us * 9 / 10,
                DETONATION_PID_OFFSET,
                &mut processes,
            ));
            // Stable: per-pid order survives the merge.
            events.sort_by_key(|e| e.t_us);
            events
        }
    };
    let by_pid = processes
        .iter()
        .enumerate()
        .map(|(i, p)| (p.pid, i))
        .collect();
    Trace {
        processes,
        events,
        expected: Vec::new(),
        oracle_windows: 0,
        by_pid,
    }
}

/// `interleave`s one dataset into live events under `pid_offset`,
/// recording each entry as a [`Process`].
fn replay(
    dataset: &Dataset,
    seed: u64,
    spread_us: u64,
    pid_offset: u32,
    processes: &mut Vec<Process>,
) -> Vec<ProcessEvent> {
    let profile = ReplayProfile {
        mean_gap_us: MEAN_GAP_US,
        jitter: 0.5,
        spread_us,
    };
    for (i, entry) in dataset.entries().iter().enumerate() {
        processes.push(Process {
            pid: REPLAY_PID_BASE + i as u32 + pid_offset,
            calls: entry.sequence.clone(),
            latched_at: None,
        });
    }
    interleave(dataset, seed, profile)
        .events
        .iter()
        .map(|e| {
            let mut event = ProcessEvent::from(e);
            event.pid += pid_offset;
            event
        })
        .collect()
}

/// Calls cut from the head of every benign session. The quickly trained
/// detector flags the start-up burst of about every second session; a
/// long-lived process is observed mid-life, and without its start-up
/// most benign processes survive, so the mux has windows to classify
/// until the trace ends.
const STARTUP_CALLS: usize = 200;

/// Long-lived benign processes: three in four are manual desktop
/// sessions, one in four an application from the suite; each is seeded
/// runs concatenated to [`BENIGN_CALLS`] calls.
fn benign_entries(n: usize, seed: u64) -> Vec<DatasetEntry> {
    let apps = BenignProfile::suite();
    (0..n)
        .map(|i| {
            let mut calls = Vec::with_capacity(BENIGN_CALLS + 4096);
            let mut run = 0u64;
            while calls.len() < BENIGN_CALLS {
                let salt = (i as u64) << 8 | run;
                let os = WindowsVersion::BOTH[(salt % 2) as usize];
                let sandbox = Sandbox::new(seed.wrapping_add(salt.wrapping_mul(0x517c_c1b7)));
                let session = if i % 4 == 3 {
                    sandbox.run_benign(&apps[i / 4 % apps.len()], os).calls
                } else {
                    sandbox.run_manual(os, salt).calls
                };
                calls.extend(session.into_iter().skip(STARTUP_CALLS));
                run += 1;
            }
            calls.truncate(BENIGN_CALLS);
            DatasetEntry {
                sequence: calls,
                is_ransomware: false,
                source: format!("benign/p{i}"),
            }
        })
        .collect()
}

/// Short detonations cycling over the variant corpus and both guests.
fn detonation_entries(n: usize, seed: u64) -> Vec<DatasetEntry> {
    let variants = Variant::corpus();
    let sandbox = Sandbox::new(seed);
    (0..n)
        .map(|j| {
            let variant = &variants[j % variants.len()];
            let os = WindowsVersion::BOTH[j / variants.len() % 2];
            let mut calls = sandbox.detonate_run(variant, os, (j / variants.len()) as u64);
            calls.truncate(DETONATION_CALLS);
            DatasetEntry {
                sequence: calls,
                is_ransomware: true,
                source: format!("{}/{os:?}/d{j}", variant.id()),
            }
        })
        .collect()
}

/// Serial `classify` calls that anchor the lane-batched oracle to the
/// reference path (a serial call costs ten lane-batched ones).
const SERIAL_ANCHORS: usize = 32;

/// The offline oracle: every process's sliding windows classified by
/// the lane-batched engine — bit-identical to serial `classify` by the
/// engine's contract, spot-checked here — and folded through the
/// sentry's k-of-n rule until the process latches. Fills `latched_at`,
/// `expected` and `oracle_windows`.
fn run_oracle(engine: &CsdInferenceEngine, config: &SentryConfig, trace: &mut Trace) {
    let mut windows: Vec<&[usize]> = Vec::new();
    let mut first_window = Vec::with_capacity(trace.processes.len() + 1);
    for p in &trace.processes {
        first_window.push(windows.len());
        windows.extend(sliding_windows(&p.calls, config.window_len, config.stride));
    }
    first_window.push(windows.len());
    assert!(!windows.is_empty(), "a trace has at least one full window");
    let verdicts = engine.classify_batch_refs(&windows);
    for i in (0..windows.len()).step_by(windows.len() / SERIAL_ANCHORS + 1) {
        assert_eq!(
            engine.classify(windows[i]),
            verdicts[i],
            "lane-batched and serial classification disagree on window {i}"
        );
    }
    trace.oracle_windows = windows.len();

    let mask = (1u64 << config.vote_horizon) - 1;
    for (p, bounds) in trace.processes.iter_mut().zip(first_window.windows(2)) {
        let mut ring = 0u64;
        for (j, verdict) in verdicts[bounds[0]..bounds[1]].iter().enumerate() {
            ring = ((ring << 1) | u64::from(verdict.is_positive)) & mask;
            if ring.count_ones() as usize >= config.votes_needed {
                p.latched_at = Some(j * config.stride + config.window_len);
                break;
            }
        }
    }

    // Locate each deciding call's event.
    let mut seen = vec![0usize; trace.processes.len()];
    for (event_idx, e) in trace.events.iter().enumerate() {
        if !matches!(e.kind, EventKind::Api(_)) {
            continue;
        }
        let p = trace.by_pid[&e.pid];
        seen[p] += 1;
        if trace.processes[p].latched_at == Some(seen[p]) {
            trace.expected.push(Expected {
                pid: e.pid,
                at_call: seen[p],
                event_idx,
            });
        }
    }
}
