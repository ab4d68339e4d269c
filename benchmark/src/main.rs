//! Command line of the benchmark. See `README.md`.

use std::fmt::Write as _;
use std::process::ExitCode;

use csd_benchmark::host::{output_dir, Fingerprint};
use csd_benchmark::run::{run, Options, Report, Reported, LATE_TICK_LIMIT};
use csd_benchmark::workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: csd-benchmark --seed <u64> [--workload <name>] \
[--seconds <n>] [--trace <0|1> | --traced] [--smoke] [--reps <n>]
Without --workload, every workload runs in a fresh child process.";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    reps: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        traced: false,
        smoke: false,
        reps: None,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                parsed.seed = number(value()?)?;
                seed_given = true;
            }
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--trace" => parsed.traced = number(value()?)? != 0,
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--reps" => parsed.reps = Some(number(value()?)?.max(1) as usize),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !seed_given {
        return Err(format!("--seed is required\n{USAGE}"));
    }
    if parsed.smoke {
        // Three paced seconds; the closed loop runs twice whatever the time.
        parsed.seconds = 5;
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // No `CSD_*` knob may steer a measured run: the crates fall back to
    // their defaults once the variables are gone.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CSD_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&argv),
    }
}

/// Every workload in turn, each in a fresh child process so that one
/// workload's caches, allocator state and peak memory never reach the
/// next.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", workload.name])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(workload.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        reps: args.reps,
    };
    let report = match run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let out = output_dir();
    let fingerprint = Fingerprint::read(&out);
    print_report(&options, &fingerprint, &report);
    let mode = if options.traced { "-traced" } else { "" };
    let path = out.join(format!("report-{}{mode}.json", workload.name));
    if let Err(e) = std::fs::write(&path, report_json(&options, &fingerprint, &report)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if !report.valid {
        eprintln!(
            "{}: INVALID TIMING — the paced generator started more than {:.0}% of its ticks over \
             a millisecond late; the host was too busy for the latencies to mean much (the \
             outputs were still checked)",
            workload.name,
            LATE_TICK_LIMIT * 100.0
        );
    }
    // The contract's result line, last on stdout.
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: WRONG OUTPUT — {:?}", workload.name, report.failures);
        ExitCode::FAILURE
    }
}

fn print_report(options: &Options, host: &Fingerprint, report: &Report) {
    println!(
        "== {} (seed {}, {} s, {}{}) ==",
        options.workload.name,
        options.seed,
        options.seconds,
        if options.traced {
            "traced"
        } else {
            "end to end"
        },
        if options.smoke { ", smoke" } else { "" },
    );
    println!(
        "host: commit {} nproc {} simd {} fs {}",
        host.commit, host.nproc, host.simd, host.fs_type
    );
    let sizes: Vec<String> = report
        .sizes
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("inputs: {}", sizes.join(" "));
    for r in report.metrics.iter().chain(&report.extras) {
        let mut line = format!(
            "{:<40} {:>16.4} {:<7}",
            r.metric.name, r.metric.value, r.metric.unit
        );
        if let Some(s) = &r.summary {
            let _ = write!(
                line,
                " [min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} n {}]",
                s.min, s.q1, s.median, s.q3, s.max, s.n
            );
        }
        if let Some(note) = &r.note {
            let _ = write!(line, " ({note})");
        }
        println!("{}", line.trim_end());
    }
    println!(
        "failed_ops_share {} / {} = {:e}  {:?}",
        report.failures.total(),
        report.attempted,
        report.failures.total() as f64 / report.attempted.max(1) as f64,
        report.failures
    );
}

/// A JSON number: every digit as measured. Non-finite values cannot
/// happen for a measured quantity and are reported as a bug.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a measured value is finite");
    format!("{v:?}")
}

fn metrics_json(metrics: &[Reported]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|r| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                r.metric.name,
                number(r.metric.value),
                r.metric.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failures.total(),
        metrics_json(&report.metrics)
    )
}

/// The full report: the result line's content plus host fingerprint,
/// seed, input sizes, spreads and notes.
fn report_json(options: &Options, host: &Fingerprint, report: &Report) -> String {
    let sizes: Vec<String> = report
        .sizes
        .iter()
        .map(|(name, value)| format!("{name:?}: {}", number(*value)))
        .collect();
    let spreads: Vec<String> = report
        .metrics
        .iter()
        .chain(&report.extras)
        .filter_map(|r| {
            let s = r.summary?;
            Some(format!(
                "{:?}: {{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"n\": {}}}",
                r.metric.name,
                number(s.min),
                number(s.q1),
                number(s.median),
                number(s.q3),
                number(s.max),
                s.n
            ))
        })
        .collect();
    let notes: Vec<String> = report
        .metrics
        .iter()
        .filter_map(|r| Some(format!("{:?}: {:?}", r.metric.name, r.note.as_ref()?)))
        .collect();
    format!(
        "{{\"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \
         \"commit\": {:?}, \"nproc\": {}, \"simd\": {:?}, \"fs_type\": {:?}, \
         \"valid\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": {:?}, \"inputs\": {{{}}}, \"metrics\": {}, \"extras\": {}, \
         \"spreads\": {{{}}}, \"notes\": {{{}}}}}\n",
        options.workload.name,
        options.seed,
        options.seconds,
        options.traced,
        options.smoke,
        host.commit,
        host.nproc,
        host.simd,
        host.fs_type,
        report.valid,
        report.correct(),
        report.attempted,
        report.failures.total(),
        format!("{:?}", report.failures),
        sizes.join(", "),
        metrics_json(&report.metrics),
        metrics_json(&report.extras),
        spreads.join(", "),
        notes.join(", "),
    )
}
