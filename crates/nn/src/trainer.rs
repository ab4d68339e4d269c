//! Mini-batch training loop with convergence history.
//!
//! Regenerates the paper's Fig. 4 ("Convergence of the LSTM training on
//! ransomware API call sequences"): per-epoch test accuracy alongside the
//! final precision/recall/F1 reported in §IV.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::lstm::Tape;
use crate::metrics::{ClassificationReport, ConfusionMatrix};
use crate::model::SequenceClassifier;
use crate::optimizer::Adam;

/// A labelled training example: token sequence + binary label
/// (`true` = ransomware in the paper's use case).
pub type Example = (Vec<usize>, bool);

/// Options controlling a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Elementwise gradient clip.
    pub clip: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Evaluate on the test set every `eval_every` epochs (1 = every epoch).
    pub eval_every: usize,
    /// Worker threads for intra-batch gradient parallelism. A batch's
    /// gradient is summed per thread chunk, so the trained bits depend on
    /// this count (the default, the host's parallelism, varies by host).
    pub threads: usize,
    /// Stop early when test accuracy has not improved for this many
    /// evaluations (`None` disables early stopping).
    pub patience: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            learning_rate: 0.01,
            clip: 5.0,
            seed: 0x5eed,
            eval_every: 1,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            patience: None,
        }
    }
}

/// One row of the convergence history (one point on Fig. 4's curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean training BCE loss over the epoch.
    pub train_loss: f64,
    /// Test-set metrics (present on evaluation epochs).
    pub test: Option<ClassificationReport>,
}

/// The full convergence history of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    records: Vec<EpochRecord>,
}

impl TrainingHistory {
    /// All epoch records in order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The best test accuracy observed and the epoch it occurred at.
    pub fn peak_accuracy(&self) -> Option<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.test.map(|t| (r.epoch, t.accuracy)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("accuracy is finite"))
    }

    /// Serializes the convergence curve as CSV
    /// (`epoch,train_loss,accuracy,precision,recall,f1`; metric columns
    /// are empty on non-evaluation epochs) — plot-ready Fig. 4 data.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,train_loss,accuracy,precision,recall,f1\n");
        for r in &self.records {
            match r.test {
                Some(t) => out.push_str(&format!(
                    "{},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                    r.epoch, r.train_loss, t.accuracy, t.precision, t.recall, t.f1
                )),
                None => out.push_str(&format!("{},{:.6},,,,\n", r.epoch, r.train_loss)),
            }
        }
        out
    }
}

/// Trains a [`SequenceClassifier`] with Adam, recording convergence.
#[derive(Debug)]
pub struct Trainer {
    options: TrainOptions,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `epochs`, `batch_size`, `eval_every`, or `threads` is zero.
    pub fn new(options: TrainOptions) -> Self {
        assert!(options.epochs > 0, "epochs must be positive");
        assert!(options.batch_size > 0, "batch_size must be positive");
        assert!(options.eval_every > 0, "eval_every must be positive");
        assert!(options.threads > 0, "threads must be positive");
        Self { options }
    }

    /// The configured options.
    pub fn options(&self) -> &TrainOptions {
        &self.options
    }

    /// Runs training in place, returning the convergence history.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or any sequence is empty/out-of-vocabulary.
    pub fn fit(
        &self,
        model: &mut SequenceClassifier,
        train: &[Example],
        test: &[Example],
    ) -> TrainingHistory {
        assert!(!train.is_empty(), "training set is empty");
        let mut rng = ChaCha8Rng::seed_from_u64(self.options.seed);
        let mut opt = Adam::new(self.options.learning_rate).with_clip(self.options.clip);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut history = TrainingHistory::default();
        let mut best_acc = f64::NEG_INFINITY;
        let mut since_best = 0usize;

        for epoch in 1..=self.options.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(self.options.batch_size) {
                let (loss, grads) = self.batch_gradients(model, train, batch);
                epoch_loss += loss * batch.len() as f64;
                let mut params = model.flatten_params();
                opt.step(&mut params, &grads);
                model.assign_params(&params);
            }
            let train_loss = epoch_loss / train.len() as f64;

            let test_report = if !test.is_empty() && epoch % self.options.eval_every == 0 {
                Some(evaluate(model, test))
            } else {
                None
            };
            history.records.push(EpochRecord {
                epoch,
                train_loss,
                test: test_report,
            });

            if let (Some(report), Some(patience)) = (test_report, self.options.patience) {
                if report.accuracy > best_acc {
                    best_acc = report.accuracy;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= patience {
                        break;
                    }
                }
            }
        }
        history
    }

    /// Mean loss and mean flat gradient over one mini-batch, computed in
    /// parallel: the batch is cut into `threads` chunks, the last runs on
    /// the calling thread and each other one on a scoped thread, and the
    /// chunk sums are added in chunk order.
    fn batch_gradients(
        &self,
        model: &SequenceClassifier,
        train: &[Example],
        batch: &[usize],
    ) -> (f64, Vec<f64>) {
        let threads = self.options.threads.min(batch.len()).max(1);
        let chunk = batch.len().div_ceil(threads);
        let packed = &model.lstm_cell().pack();
        let params = model.num_parameters();
        let chunk_sum = |ids: &[usize]| {
            let mut tape = Tape::default();
            let mut example = vec![0.0; params];
            let mut loss = 0.0;
            let mut acc = vec![0.0; params];
            for &i in ids {
                let (seq, label) = &train[i];
                let label = if *label { 1.0 } else { 0.0 };
                loss += model.gradients_into(packed, &mut tape, seq, label, &mut example);
                for (a, g) in acc.iter_mut().zip(&example) {
                    *a += g;
                }
            }
            (loss, acc)
        };
        let partials: Vec<(f64, Vec<f64>)> = std::thread::scope(|scope| {
            let mut chunks: Vec<&[usize]> = batch.chunks(chunk).collect();
            let last = chunks.pop().expect("a nonempty batch");
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|ids| scope.spawn(move || chunk_sum(ids)))
                .collect();
            let last = chunk_sum(last);
            handles
                .into_iter()
                .map(|h| h.join().expect("gradient worker panicked"))
                .chain([last])
                .collect()
        });
        let n = batch.len() as f64;
        let mut total_loss = 0.0;
        let mut grads = vec![0.0; model.num_parameters()];
        for (loss, flat) in partials {
            total_loss += loss;
            for (g, f) in grads.iter_mut().zip(&flat) {
                *g += f;
            }
        }
        for g in &mut grads {
            *g /= n;
        }
        (total_loss / n, grads)
    }
}

/// Evaluates a model on a labelled set, producing the paper's four metrics.
///
/// # Panics
///
/// Panics if any sequence is empty or out-of-vocabulary.
pub fn evaluate(model: &SequenceClassifier, examples: &[Example]) -> ClassificationReport {
    let mut cm = ConfusionMatrix::new();
    for (seq, label) in examples {
        cm.record(*label, model.predict(seq));
    }
    cm.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits_digest;
    use crate::model::ModelConfig;

    /// A linearly-separable toy task: positive sequences use tokens 0–3,
    /// negative use 4–7.
    fn toy_data(n: usize, seed: u64) -> Vec<Example> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let positive = i % 2 == 0;
            let base = if positive { 0 } else { 4 };
            let seq: Vec<usize> = (0..12)
                .map(|_| {
                    use rand::Rng;
                    base + rng.random_range(0..4usize)
                })
                .collect();
            out.push((seq, positive));
        }
        out
    }

    #[test]
    fn trainer_learns_toy_task() {
        let train = toy_data(64, 1);
        let test = toy_data(32, 2);
        let mut model = SequenceClassifier::new(ModelConfig::tiny(8), 7);
        let trainer = Trainer::new(TrainOptions {
            epochs: 25,
            batch_size: 16,
            learning_rate: 0.02,
            threads: 2,
            ..TrainOptions::default()
        });
        let history = trainer.fit(&mut model, &train, &test);
        let (epoch, acc) = history.peak_accuracy().expect("evaluated");
        assert!(acc > 0.9, "peak accuracy {acc} at epoch {epoch}");
        assert_eq!(history.records().len(), 25);
    }

    #[test]
    fn loss_decreases_over_training() {
        let train = toy_data(32, 3);
        let mut model = SequenceClassifier::new(ModelConfig::tiny(8), 9);
        let trainer = Trainer::new(TrainOptions {
            epochs: 15,
            batch_size: 8,
            learning_rate: 0.02,
            threads: 1,
            ..TrainOptions::default()
        });
        let history = trainer.fit(&mut model, &train, &[]);
        let first = history.records().first().expect("records").train_loss;
        let last = history.records().last().expect("records").train_loss;
        assert!(last < first, "loss went {first} → {last}");
    }

    #[test]
    fn early_stopping_halts() {
        let train = toy_data(16, 4);
        let test = toy_data(16, 5);
        let mut model = SequenceClassifier::new(ModelConfig::tiny(8), 1);
        let trainer = Trainer::new(TrainOptions {
            epochs: 200,
            batch_size: 8,
            learning_rate: 0.02,
            patience: Some(3),
            threads: 1,
            ..TrainOptions::default()
        });
        let history = trainer.fit(&mut model, &train, &test);
        assert!(history.records().len() < 200, "early stopping never fired");
    }

    #[test]
    fn history_csv_has_one_row_per_epoch() {
        let train = toy_data(16, 10);
        let test = toy_data(8, 11);
        let mut model = SequenceClassifier::new(ModelConfig::tiny(8), 4);
        let trainer = Trainer::new(TrainOptions {
            epochs: 5,
            batch_size: 8,
            eval_every: 2,
            threads: 1,
            ..TrainOptions::default()
        });
        let history = trainer.fit(&mut model, &train, &test);
        let csv = history.to_csv();
        assert_eq!(csv.lines().count(), 6, "{csv}");
        assert!(csv.starts_with("epoch,train_loss"));
        // Evaluation epochs carry six filled columns, others leave blanks.
        let row2: Vec<&str> = csv.lines().nth(2).expect("row").split(',').collect();
        assert_eq!(row2.len(), 6);
        assert!(!row2[2].is_empty(), "epoch 2 evaluated");
        let row1: Vec<&str> = csv.lines().nth(1).expect("row").split(',').collect();
        assert!(row1[2].is_empty(), "epoch 1 not evaluated");
    }

    #[test]
    fn eval_every_skips_epochs() {
        let train = toy_data(8, 6);
        let test = toy_data(8, 7);
        let mut model = SequenceClassifier::new(ModelConfig::tiny(8), 2);
        let trainer = Trainer::new(TrainOptions {
            epochs: 4,
            batch_size: 8,
            eval_every: 2,
            threads: 1,
            ..TrainOptions::default()
        });
        let history = trainer.fit(&mut model, &train, &test);
        let evals = history
            .records()
            .iter()
            .filter(|r| r.test.is_some())
            .count();
        assert_eq!(evals, 2);
    }

    #[test]
    fn parallel_and_serial_gradients_agree() {
        let train = toy_data(12, 8);
        let model = SequenceClassifier::new(ModelConfig::tiny(8), 3);
        let serial = Trainer::new(TrainOptions {
            threads: 1,
            ..TrainOptions::default()
        });
        let parallel = Trainer::new(TrainOptions {
            threads: 4,
            ..TrainOptions::default()
        });
        let ids: Vec<usize> = (0..12).collect();
        let (l1, g1) = serial.batch_gradients(&model, &train, &ids);
        let (l2, g2) = parallel.batch_gradients(&model, &train, &ids);
        assert!((l1 - l2).abs() < 1e-12);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// Trained weights do not change by one bit: the parameters after a
    /// small seeded two-thread fit of the paper's model, pinned by digest.
    #[test]
    fn paper_fit_is_pinned_to_the_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x717);
        let train: Vec<Example> = (0..24)
            .map(|i| {
                use rand::Rng;
                let positive = i % 3 != 0;
                let band = if positive { 0..160usize } else { 120..278 };
                let len = [100, 37, 100, 1][i % 4];
                let seq = (0..len).map(|_| rng.random_range(band.clone())).collect();
                (seq, positive)
            })
            .collect();
        let mut model = SequenceClassifier::new(ModelConfig::paper(), 0x717);
        let history = Trainer::new(TrainOptions {
            epochs: 2,
            batch_size: 8,
            seed: 0x717,
            threads: 2,
            ..TrainOptions::default()
        })
        .fit(&mut model, &train, &[]);
        let losses = history.records().iter().map(|r| r.train_loss);
        assert_eq!(
            (bits_digest(model.flatten_params()), bits_digest(losses)),
            (0xaf7c_73d0_db5c_8bd9, 0x699b_9595_30cf_60bf),
            "fit digest"
        );
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_panics() {
        let mut model = SequenceClassifier::new(ModelConfig::tiny(4), 0);
        Trainer::new(TrainOptions::default()).fit(&mut model, &[], &[]);
    }
}
