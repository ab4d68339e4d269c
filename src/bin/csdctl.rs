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
    let result = match command.as_str() {
        "dataset" => cmd_dataset(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "detect" => cmd_detect(&args[1..]),
        "monitor" => cmd_monitor(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
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

/// Pulls `--name value` out of `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing required flag {name}"))
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

fn cmd_dataset(args: &[String]) -> Result<(), String> {
    let out = required(args, "--out")?;
    let windows: usize = parse(args, "--windows", 2_000)?;
    let seed: u64 = parse(args, "--seed", 0xC5D)?;
    let noise: f64 = parse(args, "--noise", 0.12)?;
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

fn cmd_train(args: &[String]) -> Result<(), String> {
    let data = required(args, "--data")?;
    let out = required(args, "--out")?;
    let epochs: usize = parse(args, "--epochs", 25)?;
    let test_frac: f64 = parse(args, "--test-frac", 0.2)?;
    let seed: u64 = parse(args, "--seed", 0xC5D)?;

    let config = ModelConfig::paper();
    let ds = load_dataset(data, config.vocab)?;
    let (train, test) = ds.split(test_frac, SplitKind::Random, seed);
    eprintln!(
        "training on {} sequences, evaluating on {} ...",
        train.len(),
        test.len()
    );
    let mut model = SequenceClassifier::new(config, seed);
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

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let model_path = required(args, "--model")?;
    let data = required(args, "--data")?;
    let level = match flag(args, "--level").unwrap_or("fixed") {
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

fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let model_path = required(args, "--model")?;
    let family_name = required(args, "--family")?;
    let seed: u64 = parse(args, "--seed", 0xFEED)?;
    let family = FamilyProfile::by_name(family_name)
        .ok_or_else(|| format!("unknown family {family_name:?}"))?;
    let variant_idx: u32 = parse(args, "--variant", 0)?;
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

fn cmd_info(args: &[String]) -> Result<(), String> {
    let model_path = required(args, "--model")?;
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
