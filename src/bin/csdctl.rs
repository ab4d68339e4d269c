//! `csdctl` — command-line front end for the CSD inference stack.
//!
//! ```text
//! csdctl dataset --out corpus.csv [--windows 2000] [--seed 3277] [--noise 0.12]
//! csdctl train   --data corpus.csv --out model.weights [--epochs 25] [--test-frac 0.2]
//! csdctl detect  --model model.weights --data corpus.csv [--level fixed|ii|vanilla]
//! csdctl monitor --model model.weights --family Wannacry [--variant 3]
//! csdctl info    --model model.weights
//! ```
//!
//! `dataset` synthesizes a labelled sliding-window corpus (CSV, `n+1`
//! columns); `train` fits the paper's architecture and writes the weight
//! text file; `detect` runs the CSD engine over a CSV and reports the
//! four §IV metrics; `monitor` streams a fresh detonation through the live
//! monitor with damage accounting; `info` prints a weight file's shape.

use std::process::ExitCode;

use csd_inference::accel::kernels::preprocess::in_vocabulary;
use csd_inference::accel::{CsdInferenceEngine, OptimizationLevel};
use csd_inference::accel::{MonitorConfig, StreamMonitor};
use csd_inference::nn::{
    evaluate, ConfusionMatrix, ModelConfig, ModelWeights, SequenceClassifier, TrainOptions, Trainer,
};
use csd_inference::ransomware::{
    ApiVocabulary, DamageTimeline, Dataset, DatasetBuilder, FamilyProfile, Sandbox, SplitKind,
    Variant, WindowsVersion,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(&Flags) -> Result<(), String>;
    let (known, run): (&[&str], Command) = match command.as_str() {
        "dataset" => (&["--out", "--windows", "--seed", "--noise"], cmd_dataset),
        "train" => (
            &["--data", "--out", "--epochs", "--test-frac", "--seed"],
            cmd_train,
        ),
        "detect" => (&["--model", "--data", "--level"], cmd_detect),
        "monitor" => (&["--model", "--family", "--variant", "--seed"], cmd_monitor),
        "info" => (&["--model"], cmd_info),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("csdctl: unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = Flags::parse(command, &args[1..], known)
        .map_err(|e| e.to_string())
        .and_then(|flags| run(&flags));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("csdctl: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
csdctl — CSD-based LSTM inference toolkit

commands:
  dataset --out FILE [--windows N] [--seed N] [--noise F]
      synthesize a labelled API-call corpus as CSV (46% ransomware)
  train --data FILE --out FILE [--epochs N] [--test-frac F] [--seed N]
      train the paper's 7,472-parameter model; writes the weight text file
  detect --model FILE --data FILE [--level fixed|ii|vanilla]
      classify a CSV with the CSD engine; prints accuracy/precision/recall/F1
  monitor --model FILE --family NAME [--variant N] [--seed N]
      detonate a fresh sample and stream it through the live monitor
  info --model FILE
      describe a weight file";

/// Why a subcommand's arguments were refused.
enum FlagError {
    /// An argument that is not one of the subcommand's flags.
    Unknown { command: String, flag: String },
    /// A flag at the end of the line, or followed by another flag.
    MissingValue(String),
    /// A flag given more than once.
    Repeated(String),
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unknown { command, flag } => {
                write!(f, "unknown flag {flag} for {command} (see `csdctl help`)")
            }
            Self::MissingValue(flag) => write!(f, "missing value for {flag}"),
            Self::Repeated(flag) => write!(f, "flag {flag} given twice"),
        }
    }
}

/// A subcommand's `--name value` pairs, each name one of the flags the
/// subcommand takes and given once, and each value not itself a flag.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn parse(command: &str, args: &'a [String], known: &[&str]) -> Result<Self, FlagError> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(name) = args.next() {
            if !known.contains(&name.as_str()) {
                return Err(FlagError::Unknown {
                    command: command.to_string(),
                    flag: name.clone(),
                });
            }
            if pairs.iter().any(|&(seen, _)| seen == name) {
                return Err(FlagError::Repeated(name.clone()));
            }
            match args.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((name.as_str(), value.as_str()))
                }
                _ => return Err(FlagError::MissingValue(name.clone())),
            }
        }
        Ok(Self(pairs))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    fn required(&self, name: &str) -> Result<&'a str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag {name}"))
    }
}

/// Reads a labelled CSV corpus for a model of `vocab` tokens. The file
/// comes from outside the program and `Dataset::from_csv` cannot know the
/// vocabulary, so every token is checked here, where the model is known:
/// the engine and the trainer both panic on one they have no row for
/// (and on a corpus with no sequence at all).
fn load_dataset(path: &str, vocab: usize) -> Result<Dataset, String> {
    let csv = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let ds = Dataset::from_csv(&csv)?;
    if ds.is_empty() {
        return Err(format!("{path}: no sequences"));
    }
    // `from_csv` makes one entry per non-blank line, in order.
    let rows = csv
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    for ((lineno, _), entry) in rows.zip(ds.entries()) {
        if let Some(token) = entry.sequence.iter().find(|&&t| !in_vocabulary(vocab, t)) {
            return Err(format!(
                "{path}: line {}: token {token} outside the model's vocabulary of {vocab}",
                lineno + 1
            ));
        }
    }
    Ok(ds)
}

fn cmd_dataset(flags: &Flags) -> Result<(), String> {
    let out = flags.required("--out")?;
    let windows: usize = flags.parse_or("--windows", 2_000)?;
    let seed: u64 = flags.parse_or("--seed", 0xC5D)?;
    let noise: f64 = flags.parse_or("--noise", 0.12)?;
    // `DatasetBuilder::noise` panics outside [0, 1), NaN included.
    if !(0.0..1.0).contains(&noise) {
        return Err(format!(
            "bad value for --noise: {noise} (must be in [0, 1))"
        ));
    }
    let ransomware = windows * 46 / 100;
    let ds = DatasetBuilder::new(seed)
        .ransomware_windows(ransomware)
        .benign_windows(windows - ransomware)
        .noise(noise)
        .build();
    std::fs::write(out, ds.to_csv()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} sequences ({} ransomware, {:.1}%) to {out}",
        ds.len(),
        ds.ransomware_count(),
        ds.ransomware_fraction() * 100.0
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let data = flags.required("--data")?;
    let out = flags.required("--out")?;
    let epochs: usize = flags.parse_or("--epochs", 25)?;
    let test_frac: f64 = flags.parse_or("--test-frac", 0.2)?;
    let seed: u64 = flags.parse_or("--seed", 0xC5D)?;
    // `Trainer::new` panics on zero epochs.
    if epochs == 0 {
        return Err("bad value for --epochs: 0 (must be positive)".into());
    }
    // `Dataset::split` panics outside (0, 1), NaN included, and on fewer
    // than two sequences, where it cannot leave one on each side.
    if !(test_frac > 0.0 && test_frac < 1.0) {
        return Err(format!(
            "bad value for --test-frac: {test_frac} (must be in (0, 1))"
        ));
    }

    let config = ModelConfig::paper();
    let ds = load_dataset(data, config.vocab)?;
    if ds.len() < 2 {
        return Err(format!(
            "{data}: one sequence; training needs two, one to train on and one to test"
        ));
    }
    let (train, test) = ds.split(test_frac, SplitKind::Random, seed);
    eprintln!(
        "training on {} sequences, evaluating on {} ...",
        train.len(),
        test.len()
    );
    let mut model = SequenceClassifier::new(config, seed);
    // The thread count only schedules gradient sub-batches, so a seed
    // names one weight file on every host.
    let trainer = Trainer::new(TrainOptions {
        epochs,
        seed,
        ..TrainOptions::default()
    });
    let history = trainer.fit(&mut model, &train.examples(), &test.examples());
    if let Some((epoch, acc)) = history.peak_accuracy() {
        println!("peak test accuracy {acc:.4} at epoch {epoch}");
    }
    let report = evaluate(&model, &test.examples());
    println!("final: {report}");
    std::fs::write(out, ModelWeights::from_model(&model).to_text())
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote weight file {out}");
    Ok(())
}

fn cmd_detect(flags: &Flags) -> Result<(), String> {
    let model_path = flags.required("--model")?;
    let data = flags.required("--data")?;
    let level = match flags.get("--level").unwrap_or("fixed") {
        "fixed" => OptimizationLevel::FixedPoint,
        "ii" => OptimizationLevel::IiOptimized,
        "vanilla" => OptimizationLevel::Vanilla,
        other => return Err(format!("unknown level {other:?} (fixed|ii|vanilla)")),
    };
    let text =
        std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let weights = ModelWeights::from_text(&text).map_err(|e| e.to_string())?;
    let engine = CsdInferenceEngine::new(&weights, level);

    let ds = load_dataset(data, engine.weights().dims().vocab)?;
    let windows: Vec<&[usize]> = ds.entries().iter().map(|e| e.sequence.as_slice()).collect();
    let verdicts = engine.classify_batch_refs(&windows);
    let mut cm = ConfusionMatrix::new();
    for (e, verdict) in ds.entries().iter().zip(verdicts) {
        cm.record(e.is_ransomware, verdict.is_positive);
    }
    println!(
        "{} sequences classified at level {level}: {}",
        ds.len(),
        cm.report()
    );
    println!(
        "confusion: TP {} / FP {} / FN {} / TN {}",
        cm.true_positives(),
        cm.false_positives(),
        cm.false_negatives(),
        cm.true_negatives()
    );
    Ok(())
}

fn cmd_monitor(flags: &Flags) -> Result<(), String> {
    let model_path = flags.required("--model")?;
    let family_name = flags.required("--family")?;
    let seed: u64 = flags.parse_or("--seed", 0xFEED)?;
    let family = FamilyProfile::by_name(family_name)
        .ok_or_else(|| format!("unknown family {family_name:?}"))?;
    let variant_idx: u32 = flags.parse_or("--variant", 0)?;
    if variant_idx >= family.variants {
        return Err(format!(
            "{family_name} has {} variants (0..{})",
            family.variants,
            family.variants - 1
        ));
    }
    let text =
        std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let weights = ModelWeights::from_text(&text).map_err(|e| e.to_string())?;
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);

    let sandbox = Sandbox::new(seed);
    let variant = Variant::new(family, variant_idx);
    let trace = sandbox.detonate(&variant, WindowsVersion::Win11);
    println!(
        "detonating {} on Windows 11: {} API calls captured",
        variant.id(),
        trace.len()
    );
    let vocab = ApiVocabulary::windows();
    let timeline = DamageTimeline::from_trace(&trace.calls, &vocab);
    let mut monitor = StreamMonitor::new(engine, MonitorConfig::default());
    match monitor.observe_all(&trace.calls) {
        Some(alert) => {
            println!(
                "ALERT at API call #{} (P = {:.4}) after {} classifications",
                alert.at_call,
                alert.probability,
                monitor.classifications()
            );
            println!(
                "cumulative on-device inference: {:.0} µs",
                alert.inference_us
            );
            println!(
                "damage at alert: {} of {} files lost; freezing writes saves {}",
                timeline.files_lost_by(alert.at_call),
                timeline.total_files(),
                timeline.files_saved_by(alert.at_call)
            );
        }
        None => println!("no alert raised over the full trace"),
    }
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let model_path = flags.required("--model")?;
    let text =
        std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let w = ModelWeights::from_text(&text).map_err(|e| e.to_string())?;
    println!(
        "vocab {} | embed {} | hidden {} | activation {:?}",
        w.config.vocab, w.config.embed_dim, w.config.hidden, w.config.cell_activation
    );
    println!(
        "parameters: {} embedding + {} LSTM + {} head = {}",
        w.embedding.len(),
        w.lstm_kernel.len() + w.lstm_recurrent.len() + w.lstm_bias.len(),
        w.fc_weights.len() + 1,
        w.num_parameters()
    );
    Ok(())
}
