//! `csdctl` driven as a user drives it: the binary, its exit code and
//! what it prints. A data file is input from outside the program, so a
//! token the model has no row for must be a reported error with the line
//! it sits on, and a file without sequences a reported error too — not
//! a panic out of the engine, the trainer or the split. So is a split
//! the trainer cannot make: a test fraction outside (0, 1), or a corpus
//! of one sequence, and a weight file whose fixed point can overflow or
//! that has no hidden unit or no vocabulary; so is a noise rate outside
//! [0, 1), a level `detect` does not know, a flag the subcommand does
//! not take, a flag without its value and a flag given twice.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use csd_inference::nn::{ModelConfig, ModelWeights, SequenceClassifier, TrainOptions, Trainer};
use csd_inference::ransomware::{Dataset, SplitKind};

fn csdctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csdctl"))
        .args(args)
        .output()
        .expect("csdctl runs")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn assert_refused(name: &str, out: &Output, complaint: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{name} accepted: {out:?}");
    assert!(!stderr.contains("panicked at"), "{name} panicked: {stderr}");
    assert!(stderr.contains(complaint), "{name}: {stderr}");
}

/// Writes a six-sequence corpus under a directory of its own and returns
/// the directory.
fn small_corpus(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let corpus = dir.join("corpus.csv");
    let out = csdctl(&[
        "dataset",
        "--out",
        path_str(&corpus),
        "--windows",
        "6",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "dataset: {out:?}");
    dir
}

fn train(dir: &Path, data: &Path, test_frac: &str) -> Output {
    csdctl(&[
        "train",
        "--data",
        path_str(data),
        "--out",
        path_str(&dir.join("model.txt")),
        "--epochs",
        "1",
        "--test-frac",
        test_frac,
    ])
}

#[test]
fn train_refuses_a_test_fraction_outside_the_unit_interval() {
    let dir = small_corpus("csdctl_cli_test_frac");
    let corpus = dir.join("corpus.csv");
    for frac in ["0", "1", "NaN", "-0.5", "1.5"] {
        let out = train(&dir, &corpus, frac);
        assert_refused(&format!("--test-frac {frac}"), &out, "--test-frac");
    }
}

#[test]
fn train_refuses_zero_epochs() {
    let dir = small_corpus("csdctl_cli_epochs");
    let out = csdctl(&[
        "train",
        "--data",
        path_str(&dir.join("corpus.csv")),
        "--out",
        path_str(&dir.join("model.txt")),
        "--epochs",
        "0",
    ]);
    assert_refused("--epochs 0", &out, "--epochs");
}

#[test]
fn dataset_refuses_a_noise_rate_outside_zero_to_one() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csdctl_cli_noise");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let corpus = dir.join("corpus.csv");
    for noise in ["nan", "1.5", "-0.1"] {
        let out = csdctl(&[
            "dataset",
            "--out",
            path_str(&corpus),
            "--windows",
            "6",
            "--noise",
            noise,
        ]);
        assert_refused(&format!("--noise {noise}"), &out, "--noise");
    }
}

/// A flag the subcommand does not take, or a flag where a value belongs,
/// is refused by name: `--window 40` used to be ignored (2,000 sequences
/// written), and `--out --windows 20` wrote a file named `--windows`.
#[test]
fn dataset_refuses_an_unknown_flag_and_a_flag_without_its_value() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csdctl_cli_flags");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let corpus = dir.join("corpus.csv");
    let out = csdctl(&["dataset", "--out", path_str(&corpus), "--window", "40"]);
    assert_refused("--window 40", &out, "unknown flag --window");
    assert!(!corpus.exists(), "a refused dataset wrote {corpus:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_csdctl"))
        .args(["dataset", "--out", "--windows", "20"])
        .current_dir(&dir)
        .output()
        .expect("csdctl runs");
    assert_refused("--out --windows", &out, "missing value for --out");
    assert!(
        !dir.join("--windows").exists(),
        "a flag became the output file"
    );
}

#[test]
fn dataset_refuses_a_flag_given_twice_before_writing_anything() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csdctl_cli_repeated");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (first, second) = (dir.join("a.csv"), dir.join("b.csv"));
    for file in [&first, &second] {
        let _ = std::fs::remove_file(file);
    }
    let out = csdctl(&[
        "dataset",
        "--out",
        path_str(&first),
        "--windows",
        "6",
        "--out",
        path_str(&second),
    ]);
    assert_refused("--out twice", &out, "flag --out given twice");
    assert!(!first.exists(), "a refused dataset wrote {first:?}");
    assert!(!second.exists(), "a refused dataset wrote {second:?}");
}

#[test]
fn train_refuses_a_one_sequence_corpus() {
    let dir = small_corpus("csdctl_cli_one_sequence");
    let csv = std::fs::read_to_string(dir.join("corpus.csv")).expect("corpus written");
    let single = dir.join("single.csv");
    let first = csv.lines().next().expect("a sequence");
    std::fs::write(&single, format!("{first}\n")).expect("write one-sequence corpus");
    let out = train(&dir, &single, "0.2");
    assert_refused("one sequence", &out, path_str(&single));
}

#[test]
fn dataset_train_detect_round_trip_and_out_of_vocabulary_tokens_are_errors() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csdctl_cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (corpus, model, bad, empty) = (
        dir.join("corpus.csv"),
        dir.join("model.txt"),
        dir.join("oov.csv"),
        dir.join("empty.csv"),
    );

    let out = csdctl(&[
        "dataset",
        "--out",
        path_str(&corpus),
        "--windows",
        "40",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "dataset: {out:?}");

    let train = |data: &Path| {
        csdctl(&[
            "train",
            "--data",
            path_str(data),
            "--out",
            path_str(&model),
            "--epochs",
            "1",
            "--seed",
            "7",
        ])
    };
    let detect_at = |data: &Path, level: &str| {
        csdctl(&[
            "detect",
            "--model",
            path_str(&model),
            "--data",
            path_str(data),
            "--level",
            level,
        ])
    };
    let detect = |data: &Path| detect_at(data, "fixed");

    let out = train(&corpus);
    assert!(out.status.success(), "train: {out:?}");
    let out = detect(&corpus);
    assert!(out.status.success(), "detect: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("40 sequences classified"), "{stdout}");
    assert!(stdout.contains("confusion: TP "), "{stdout}");

    // Both float levels run the per-CU loop on the same f64 weights, so
    // they print the same confusion counts; an unknown level is refused.
    let confusion = |level: &str| {
        let out = detect_at(&corpus, level);
        assert!(out.status.success(), "detect --level {level}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("40 sequences classified"), "{stdout}");
        stdout
            .lines()
            .find(|l| l.starts_with("confusion: "))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no confusion line at {level}: {stdout}"))
    };
    assert_eq!(confusion("vanilla"), confusion("ii"));
    assert_refused(
        "--level bogus",
        &detect_at(&corpus, "bogus"),
        "unknown level",
    );

    // The same corpus with one token past the 278-entry vocabulary on a
    // new last line, and a file with no sequence in it.
    let mut csv = std::fs::read_to_string(&corpus).expect("corpus written");
    let oov_line = csv.lines().count() + 1;
    csv.push_str("5,999,7,1\n");
    std::fs::write(&bad, csv).expect("write oov corpus");
    std::fs::write(&empty, "\n").expect("write empty corpus");
    let oov = format!("line {oov_line}: token 999 outside");
    for (data, complaint) in [(&bad, oov.as_str()), (&empty, "no sequences")] {
        for (name, out) in [("train", train(data)), ("detect", detect(data))] {
            assert_refused(&format!("{name} {data:?}"), &out, complaint);
        }
    }
}

/// `train` writes one weight file for a `--seed` whatever the host has:
/// the default thread count is the host's parallelism, and it only
/// schedules the gradient sub-batches.
#[test]
fn train_writes_one_weight_file_on_every_host() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csdctl_cli_threads");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (corpus, model) = (dir.join("corpus.csv"), dir.join("model.txt"));
    let out = csdctl(&[
        "dataset",
        "--out",
        path_str(&corpus),
        "--windows",
        "12",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "dataset: {out:?}");
    let out = csdctl(&[
        "train",
        "--data",
        path_str(&corpus),
        "--out",
        path_str(&model),
        "--epochs",
        "2",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "train: {out:?}");

    // `train`'s defaults: a test fraction of 0.2, a random split and a
    // model seeded with `--seed`.
    let csv = std::fs::read_to_string(&corpus).expect("corpus written");
    let (train, test) =
        Dataset::from_csv(&csv)
            .expect("corpus parses")
            .split(0.2, SplitKind::Random, 7);
    let mut want = SequenceClassifier::new(ModelConfig::paper(), 7);
    Trainer::new(TrainOptions {
        epochs: 2,
        seed: 7,
        ..TrainOptions::default()
    })
    .fit(&mut want, &train.examples(), &test.examples());
    let written = std::fs::read_to_string(&model).expect("model written");
    assert!(
        written == ModelWeights::from_model(&want).to_text(),
        "the weight file is not the library's fit"
    );
}

/// A weight file whose every value quantizes, but whose fixed-point
/// head (large weights, a bias at the top of the range) or gate rows
/// (recurrent weights of 10^12) can leave `i64`, is refused when read:
/// `detect` used to panic mid-classify with `fc logit overflow` or `dot
/// product overflow`.
#[test]
fn detect_refuses_weights_that_can_overflow_the_fixed_point() {
    let dir = small_corpus("csdctl_cli_overflow");
    let (corpus, model) = (dir.join("corpus.csv"), dir.join("model.txt"));
    let out = train(&dir, &corpus, "0.2");
    assert!(out.status.success(), "train: {out:?}");
    let text = std::fs::read_to_string(&model).expect("model written");
    let trained = ModelWeights::from_text(&text).expect("trained weights load");
    let mut head = trained.clone();
    head.fc_weights.fill(1e11);
    head.fc_bias = 9.2e12;
    let mut gates = trained;
    gates.lstm_recurrent.fill(1e12);
    for (name, hostile, complaint) in [
        ("head", head.to_text(), "the fc head can overflow"),
        ("gates", gates.to_text(), "gate row 0 can overflow"),
    ] {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, hostile).expect("write hostile weights");
        let out = csdctl(&[
            "detect",
            "--model",
            path_str(&path),
            "--data",
            path_str(&corpus),
        ]);
        assert_refused(name, &out, complaint);
    }
}

/// A weight file whose header says `hidden 0` (or `vocab 0`) is refused
/// when read: it used to load, and `detect` and `monitor` then panicked
/// with an out-of-vocabulary item on the first window.
#[test]
fn detect_and_monitor_refuse_a_model_without_hidden_units_or_vocabulary() {
    let dir = small_corpus("csdctl_cli_empty_model");
    let corpus = dir.join("corpus.csv");
    let weights = ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 3));
    let mut no_hidden = weights.clone();
    no_hidden.config.hidden = 0;
    for section in [
        &mut no_hidden.lstm_kernel,
        &mut no_hidden.lstm_recurrent,
        &mut no_hidden.lstm_bias,
        &mut no_hidden.fc_weights,
    ] {
        section.clear();
    }
    let mut no_vocab = weights;
    no_vocab.config.vocab = 0;
    no_vocab.embedding.clear();
    for (field, model) in [("hidden 0", no_hidden), ("vocab 0", no_vocab)] {
        let path = dir.join(format!("{}.txt", field.replace(' ', "_")));
        std::fs::write(&path, model.to_text()).expect("write empty model");
        let model = path_str(&path);
        let detect = csdctl(&["detect", "--model", model, "--data", path_str(&corpus)]);
        assert_refused(&format!("detect {field}"), &detect, field);
        let monitor = csdctl(&["monitor", "--model", model, "--family", "Wannacry"]);
        assert_refused(&format!("monitor {field}"), &monitor, field);
    }
}
