//! Binary-classification metrics as reported in the paper's §IV:
//! accuracy, precision, recall, and F1.

/// A 2×2 confusion matrix for the ransomware (positive) / benign (negative)
/// task.
///
/// # Example
///
/// ```rust
/// use csd_nn::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new();
/// cm.record(true, true);   // TP
/// cm.record(false, false); // TN
/// cm.record(false, true);  // FP
/// assert_eq!(cm.total(), 3);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ConfusionMatrix {
    tp: u64,
    tn: u64,
    fp: u64,
    fn_: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(actual, predicted)` outcome.
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.tp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fp += 1,
            (true, false) => self.fn_ += 1,
        }
    }

    /// True positives.
    pub fn true_positives(&self) -> u64 {
        self.tp
    }

    /// True negatives.
    pub fn true_negatives(&self) -> u64 {
        self.tn
    }

    /// False positives.
    pub fn false_positives(&self) -> u64 {
        self.fp
    }

    /// False negatives.
    pub fn false_negatives(&self) -> u64 {
        self.fn_
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// `(TP + TN) / total`; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// `TP / (TP + FP)`; 0 when no positive predictions.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// `TP / (TP + FN)`; 0 when no positive labels.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Summarizes into a [`ClassificationReport`].
    pub fn report(&self) -> ClassificationReport {
        ClassificationReport {
            accuracy: self.accuracy(),
            precision: self.precision(),
            recall: self.recall(),
            f1: self.f1(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The four headline metrics the paper reports (§IV: 0.9833 / 0.9789 /
/// 0.9890 / 0.9840).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassificationReport {
    /// Fraction of correct predictions.
    pub accuracy: f64,
    /// Positive predictive value.
    pub precision: f64,
    /// True-positive rate.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl std::fmt::Display for ClassificationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accuracy {:.4}, precision {:.4}, recall {:.4}, F1 {:.4}",
            self.accuracy, self.precision, self.recall, self.f1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix of parallel label/prediction slices.
    fn from_predictions(actual: &[bool], predicted: &[bool]) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new();
        for (&a, &p) in actual.iter().zip(predicted) {
            cm.record(a, p);
        }
        cm
    }

    #[test]
    fn perfect_classifier() {
        let cm = from_predictions(&[true, false, true], &[true, false, true]);
        let r = cm.report();
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.f1, 1.0);
    }

    #[test]
    fn all_wrong_classifier() {
        let cm = from_predictions(&[true, false], &[false, true]);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn hand_computed_example() {
        // TP=8, FP=2, FN=1, TN=9.
        let mut cm = ConfusionMatrix::new();
        for _ in 0..8 {
            cm.record(true, true);
        }
        for _ in 0..2 {
            cm.record(false, true);
        }
        cm.record(true, false);
        for _ in 0..9 {
            cm.record(false, false);
        }
        assert!((cm.accuracy() - 17.0 / 20.0).abs() < 1e-12);
        assert!((cm.precision() - 0.8).abs() < 1e-12);
        assert!((cm.recall() - 8.0 / 9.0).abs() < 1e-12);
        let f1 = 2.0 * 0.8 * (8.0 / 9.0) / (0.8 + 8.0 / 9.0);
        assert!((cm.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn report_display() {
        let cm = from_predictions(&[true], &[true]);
        let s = cm.report().to_string();
        assert!(s.contains("accuracy 1.0000"));
    }

    #[test]
    fn paper_metrics_consistency() {
        // The paper's four numbers must be jointly achievable; find a
        // confusion matrix (scaled to the 29K dataset) that produces them.
        // Test split ~20% of 29K ≈ 5,800 with 46% positive ≈ 2,668 pos.
        let pos = 2668u64;
        let neg = 5800 - pos;
        let recall = 0.9890;
        let precision = 0.9789;
        let tp = (pos as f64 * recall).round() as u64;
        let fn_ = pos - tp;
        let fp = ((tp as f64 / precision) - tp as f64).round() as u64;
        let tn = neg - fp;
        let cm = ConfusionMatrix { tp, tn, fp, fn_ };
        assert!((cm.accuracy() - 0.9833).abs() < 0.002);
        assert!((cm.f1() - 0.9840).abs() < 0.002);
    }
}
