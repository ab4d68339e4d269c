//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Every table and figure in the paper's evaluation has a regenerating
//! entry point here (see `EXPERIMENTS.md` for the full index):
//!
//! | Experiment | Binary | Bench |
//! |---|---|---|
//! | Fig. 3 (kernel times × optimizations) | `exp_fig3` | `fig3_optimizations` |
//! | Table I (FPGA vs CPU vs GPU) | `exp_table1` | `table1_hardware` |
//! | Fig. 4 (training convergence) | `exp_fig4` | — |
//! | Table II (ransomware corpus) | `exp_table2` | — |
//! | §IV dataset stats (29K / 46%) | `exp_dataset_stats` | — |
//! | §IV detection metrics | `exp_detection` | — |
//! | Energy per item (extension) | `exp_energy` | — |
//! | Mitigation value (extension) | `exp_mitigation` | — |
//! | Window length (extension) | `exp_window` | — |
//! | Family identification (extension) | `exp_family` | — |
//! | Ablations (activation / scale / CUs / P2P / model) | — | `ablation_*` |
//! | Fused hot path vs per-CU reference path | `exp_fused` | `fused_vs_unfused` |
//!
//! Historical comparisons (seed, PR 1 batch path, per-PID serial
//! monitors, gate table off, mixed precision, the two-tier cascade, the
//! volatile corpus replay, the batch-throughput sweep, the stream-mux
//! shard sweep and the lane-batched batch engine) are recorded numbers:
//! see "Frozen baselines" in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use csd_nn::{
    evaluate, ClassificationReport, ModelConfig, SequenceClassifier, TrainOptions, Trainer,
    TrainingHistory,
};
use csd_ransomware::{Dataset, DatasetBuilder, SplitKind};

/// Deterministic seed used by every experiment unless overridden.
pub const EXPERIMENT_SEED: u64 = 0xC5D;

/// A ready-made detection task: corpus, split, and the examples the
/// trainer consumes.
#[derive(Debug)]
pub struct DetectionTask {
    /// Training examples.
    pub train: Vec<(Vec<usize>, bool)>,
    /// Held-out test examples.
    pub test: Vec<(Vec<usize>, bool)>,
    /// The underlying dataset (for stats).
    pub dataset: Dataset,
}

/// Builds a detection task of `ransomware + benign` windows with a 20%
/// test split holding out entire detonation runs, so no test window
/// overlaps a training trace (the paper shuffles windows randomly, which
/// leaks overlapping windows across the split; see EXPERIMENTS.md).
pub fn detection_task(ransomware: usize, benign: usize, seed: u64) -> DetectionTask {
    let dataset = DatasetBuilder::new(seed)
        .ransomware_windows(ransomware)
        .benign_windows(benign)
        .noise(0.12)
        .build();
    let (train, test) = dataset.split(0.2, SplitKind::BySource, seed ^ 1);
    DetectionTask {
        train: train.examples(),
        test: test.examples(),
        dataset,
    }
}

/// Trains the paper's 7,472-parameter architecture on a task, returning
/// the model, convergence history, and final test report.
pub fn train_detector(
    task: &DetectionTask,
    epochs: usize,
    seed: u64,
) -> (SequenceClassifier, TrainingHistory, ClassificationReport) {
    let mut model = SequenceClassifier::new(ModelConfig::paper(), seed);
    let trainer = Trainer::new(TrainOptions {
        epochs,
        batch_size: 32,
        learning_rate: 0.01,
        seed,
        ..TrainOptions::default()
    });
    let history = trainer.fit(&mut model, &task.train, &task.test);
    let report = evaluate(&model, &task.test);
    (model, history, report)
}

/// A fixed pseudo-API-call sequence of length 100 for timing benches
/// (content does not affect timing).
pub fn bench_sequence() -> Vec<usize> {
    (0..100).map(|i| (i * 31 + 5) % 278).collect()
}

/// Prints a two-column paper-vs-measured table row.
pub fn print_row(label: &str, paper: &str, measured: &str) {
    println!("{label:<42} {paper:>18} {measured:>18}");
}

/// Prints the standard table header.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    print_row("quantity", "paper", "measured");
    println!("{}", "-".repeat(80));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_task_splits() {
        let t = detection_task(60, 60, 3);
        assert_eq!(t.train.len() + t.test.len(), 120);
        assert!(!t.test.is_empty());
    }

    #[test]
    fn bench_sequence_is_valid() {
        let s = bench_sequence();
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|&t| t < 278));
    }
}
