//! `csdctl` driven as a user drives it: the binary, its exit code and
//! what it prints. A data file is input from outside the program, so a
//! token the model has no row for must be a reported error with the line
//! it sits on, and a file without sequences a reported error too — not
//! a panic out of the engine, the trainer or the split.

use std::path::Path;
use std::process::{Command, Output};

fn csdctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csdctl"))
        .args(args)
        .output()
        .expect("csdctl runs")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
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
    let detect = |data: &Path| {
        csdctl(&[
            "detect",
            "--model",
            path_str(&model),
            "--data",
            path_str(data),
        ])
    };

    let out = train(&corpus);
    assert!(out.status.success(), "train: {out:?}");
    let out = detect(&corpus);
    assert!(out.status.success(), "detect: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("40 sequences classified"), "{stdout}");
    assert!(stdout.contains("confusion: TP "), "{stdout}");

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
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{name} accepted {data:?}: {out:?}");
            assert!(!stderr.contains("panicked at"), "{name} panicked: {stderr}");
            assert!(stderr.contains(complaint), "{name}: {stderr}");
        }
    }
}
