//! Corpus assembly: the paper's 29K-sequence dataset and smaller variants.
//!
//! §IV: "The dataset consisted of 29K sequences, of which 46% resulted from
//! ransomware" — Appendix A details the composition: 13,340 ransomware
//! windows from 78 variants detonated on Windows 10 and 11, and 15,660
//! benign windows from 30 applications plus manual interaction, all of
//! length 100. [`DatasetBuilder::paper`] reproduces those exact counts;
//! smaller test corpora come from explicit targets.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::benign::BenignProfile;
use crate::sandbox::{Sandbox, WindowsVersion};
use crate::variant::Variant;
use crate::window::{sliding_windows, WINDOW_LEN};

/// Calls between the starts of two consecutive windows of a trace.
const STRIDE: usize = 10;

/// One labelled example with provenance (which run produced it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetEntry {
    /// The length-100 token sequence.
    pub sequence: Vec<usize>,
    /// `true` = ransomware.
    pub is_ransomware: bool,
    /// Source key, e.g. `"Wannacry#3/Win10/r2"` or `"BackupBee/Win11"`.
    pub source: String,
}

/// How to split a dataset into train/test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitKind {
    /// Uniform random example-level split (the paper's methodology —
    /// windows are shuffled before splitting).
    Random,
    /// Hold out entire sources (variant/app runs): no window from a test
    /// source appears in training. Harder and more realistic.
    BySource,
}

/// A labelled sliding-window corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    entries: Vec<DatasetEntry>,
}

impl Dataset {
    /// Wraps entries.
    pub fn from_entries(entries: Vec<DatasetEntry>) -> Self {
        Self { entries }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries.
    pub fn entries(&self) -> &[DatasetEntry] {
        &self.entries
    }

    /// Number of ransomware examples.
    pub fn ransomware_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_ransomware).count()
    }

    /// Fraction of ransomware examples (the paper's 46%).
    pub fn ransomware_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.ransomware_count() as f64 / self.len() as f64
        }
    }

    /// Examples in `(sequence, label)` form for the trainer.
    pub fn examples(&self) -> Vec<(Vec<usize>, bool)> {
        self.entries
            .iter()
            .map(|e| (e.sequence.clone(), e.is_ransomware))
            .collect()
    }

    /// Splits into `(train, test)` with `test_fraction` of examples held
    /// out, per `kind`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < test_fraction < 1`.
    pub fn split(&self, test_fraction: f64, kind: SplitKind, seed: u64) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match kind {
            SplitKind::Random => {
                let mut idx: Vec<usize> = (0..self.len()).collect();
                idx.shuffle(&mut rng);
                let n_test = ((self.len() as f64) * test_fraction).round() as usize;
                let (test_idx, train_idx) = idx.split_at(n_test.clamp(1, self.len() - 1));
                let take = |ids: &[usize]| {
                    Dataset::from_entries(ids.iter().map(|&i| self.entries[i].clone()).collect())
                };
                (take(train_idx), take(test_idx))
            }
            SplitKind::BySource => {
                let mut sources: Vec<&str> =
                    self.entries.iter().map(|e| e.source.as_str()).collect();
                sources.sort_unstable();
                sources.dedup();
                let mut sources: Vec<String> = sources.into_iter().map(str::to_string).collect();
                sources.shuffle(&mut rng);
                let target = ((self.len() as f64) * test_fraction).round() as usize;
                let n_sources = sources.len();
                let mut held = std::collections::HashSet::new();
                let mut held_count = 0usize;
                for s in sources {
                    // Always leave at least one source on the training
                    // side, whatever the requested fraction.
                    if held_count >= target || held.len() + 1 == n_sources {
                        break;
                    }
                    held_count += self.entries.iter().filter(|e| e.source == s).count();
                    held.insert(s);
                }
                let (test, train): (Vec<_>, Vec<_>) = self
                    .entries
                    .iter()
                    .cloned()
                    .partition(|e| held.contains(&e.source));
                (Dataset::from_entries(train), Dataset::from_entries(test))
            }
        }
    }

    /// Serializes to the paper's CSV layout: `n + 1` columns (the `n = 100`
    /// items plus a trailing label), one row per sequence (§III-A).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            for tok in &e.sequence {
                out.push_str(&tok.to_string());
                out.push(',');
            }
            out.push(if e.is_ransomware { '1' } else { '0' });
            out.push('\n');
        }
        out
    }

    /// Parses the CSV produced by [`Self::to_csv`] (provenance is not
    /// stored in CSV; sources come back as `"csv"`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed row.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut fields: Vec<&str> = line.split(',').collect();
            let label = fields
                .pop()
                .ok_or_else(|| format!("line {}: empty row", lineno + 1))?;
            let is_ransomware = match label.trim() {
                "1" => true,
                "0" => false,
                other => return Err(format!("line {}: bad label {other:?}", lineno + 1)),
            };
            let sequence = fields
                .iter()
                .map(|f| {
                    f.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("line {}: bad token {f:?}", lineno + 1))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if sequence.is_empty() {
                return Err(format!("line {}: no tokens", lineno + 1));
            }
            entries.push(DatasetEntry {
                sequence,
                is_ransomware,
                source: "csv".to_string(),
            });
        }
        Ok(Self { entries })
    }
}

/// Builds corpora by detonating the synthetic sandbox.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    seed: u64,
    ransomware_target: usize,
    benign_target: usize,
    noise: f64,
}

impl DatasetBuilder {
    /// The paper's published totals: 13,340 ransomware and 15,660 benign
    /// windows (29K total, 46% ransomware).
    pub const PAPER_RANSOMWARE: usize = 13_340;
    /// Benign total (see [`Self::PAPER_RANSOMWARE`]).
    pub const PAPER_BENIGN: usize = 15_660;

    /// Creates a builder with small defaults (200/200 windows, 3% trace
    /// noise) for tests.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ransomware_target: 200,
            benign_target: 200,
            noise: 0.03,
        }
    }

    /// The full paper-scale corpus (29K windows).
    pub fn paper(seed: u64) -> Self {
        Self::new(seed)
            .ransomware_windows(Self::PAPER_RANSOMWARE)
            .benign_windows(Self::PAPER_BENIGN)
    }

    /// Sets the ransomware window target.
    pub fn ransomware_windows(mut self, n: usize) -> Self {
        self.ransomware_target = n;
        self
    }

    /// Sets the benign window target.
    pub fn benign_windows(mut self, n: usize) -> Self {
        self.benign_target = n;
        self
    }

    /// Sets the trace-noise rate: each captured call is replaced by a
    /// uniformly random vocabulary token with this probability, modelling
    /// the interleaved background activity and hook misses a real sandbox
    /// capture exhibits (default 3%).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate < 1`.
    pub fn noise(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "noise rate must be in [0, 1)");
        self.noise = rate;
        self
    }

    /// Generates the corpus: detonations cycle over variants × {Win10,
    /// Win11} × run index (and apps/manual sessions for benign) until each
    /// class reaches its target, then the examples are shuffled.
    pub fn build(&self) -> Dataset {
        let sandbox = Sandbox::new(self.seed);
        let vocab_len = sandbox.vocabulary().len();
        let mut noise_rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x0153_e5ed);
        let mut apply_noise = |trace: Vec<usize>| -> Vec<usize> {
            if self.noise == 0.0 {
                return trace;
            }
            trace
                .into_iter()
                .map(|tok| {
                    use rand::Rng;
                    if noise_rng.random::<f64>() < self.noise {
                        noise_rng.random_range(0..vocab_len)
                    } else {
                        tok
                    }
                })
                .collect()
        };
        let mut entries = Vec::with_capacity(self.ransomware_target + self.benign_target);

        // Ransomware: round-robin over variants and OS versions; extra
        // passes are re-detonations (run index bumps the seed).
        let variants = Variant::corpus();
        let mut run = 0u64;
        let mut collected = 0usize;
        'outer: loop {
            for v in &variants {
                for os in WindowsVersion::BOTH {
                    let trace = apply_noise(sandbox.detonate_run(v, os, run));
                    for w in sliding_windows(&trace, WINDOW_LEN, STRIDE) {
                        if collected >= self.ransomware_target {
                            break 'outer;
                        }
                        entries.push(DatasetEntry {
                            sequence: w.to_vec(),
                            is_ransomware: true,
                            source: format!("{}/{os:?}/r{run}", v.id()),
                        });
                        collected += 1;
                    }
                }
            }
            run += 1;
            assert!(run < 10_000, "ransomware target unreachable");
        }

        // Benign: applications plus manual-interaction sessions.
        let apps = BenignProfile::suite();
        let mut session = 0u64;
        let mut collected = 0usize;
        'benign: loop {
            for os in WindowsVersion::BOTH {
                for app in &apps {
                    let trace = if session == 0 {
                        sandbox.run_benign(app, os).calls
                    } else {
                        // Later passes: fresh sessions via the seed offset.
                        let sb = Sandbox::new(self.seed.wrapping_add(session * 0x517c_c1b7));
                        sb.run_benign(app, os).calls
                    };
                    let trace = apply_noise(trace);
                    for w in sliding_windows(&trace, WINDOW_LEN, STRIDE) {
                        if collected >= self.benign_target {
                            break 'benign;
                        }
                        entries.push(DatasetEntry {
                            sequence: w.to_vec(),
                            is_ransomware: false,
                            source: format!("{}/{os:?}/s{session}", app.name),
                        });
                        collected += 1;
                    }
                }
                let manual = apply_noise(sandbox.run_manual(os, session).calls);
                for w in sliding_windows(&manual, WINDOW_LEN, STRIDE) {
                    if collected >= self.benign_target {
                        break 'benign;
                    }
                    entries.push(DatasetEntry {
                        sequence: w.to_vec(),
                        is_ransomware: false,
                        source: format!("manual/{os:?}/s{session}"),
                    });
                    collected += 1;
                }
            }
            session += 1;
            assert!(session < 10_000, "benign target unreachable");
        }

        // "The final benign and ransomware API call sequences were then
        // merged and shuffled" (Appendix A).
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xdead_beef);
        entries.shuffle(&mut rng);
        Dataset { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        DatasetBuilder::new(42)
            .ransomware_windows(120)
            .benign_windows(140)
            .build()
    }

    #[test]
    fn builder_hits_exact_targets() {
        let ds = small();
        assert_eq!(ds.len(), 260);
        assert_eq!(ds.ransomware_count(), 120);
    }

    #[test]
    fn paper_fraction_is_46_percent() {
        let total = DatasetBuilder::PAPER_RANSOMWARE + DatasetBuilder::PAPER_BENIGN;
        assert_eq!(total, 29_000);
        let frac = DatasetBuilder::PAPER_RANSOMWARE as f64 / total as f64;
        assert!((frac - 0.46).abs() < 0.001);
    }

    #[test]
    fn all_windows_are_length_100() {
        let ds = small();
        assert!(ds.entries().iter().all(|e| e.sequence.len() == WINDOW_LEN));
    }

    #[test]
    fn build_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a, b);
    }

    #[test]
    fn entries_are_shuffled() {
        let ds = small();
        // The first 120 entries are not all ransomware.
        let first: usize = ds.entries()[..120]
            .iter()
            .filter(|e| e.is_ransomware)
            .count();
        assert!(first < 120);
    }

    #[test]
    fn random_split_fractions() {
        let ds = small();
        let (train, test) = ds.split(0.25, SplitKind::Random, 7);
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(test.len(), 65);
    }

    #[test]
    fn by_source_split_keeps_sources_disjoint() {
        let ds = small();
        let (train, test) = ds.split(0.3, SplitKind::BySource, 8);
        let train_sources: std::collections::HashSet<_> =
            train.entries().iter().map(|e| &e.source).collect();
        for e in test.entries() {
            assert!(!train_sources.contains(&e.source));
        }
        assert!(!test.is_empty());
    }

    #[test]
    fn csv_roundtrip() {
        let ds = small();
        let csv = ds.to_csv();
        // n + 1 columns.
        let first = csv.lines().next().expect("rows");
        assert_eq!(first.split(',').count(), WINDOW_LEN + 1);
        let parsed = Dataset::from_csv(&csv).expect("parse");
        assert_eq!(parsed.len(), ds.len());
        for (a, b) in parsed.entries().iter().zip(ds.entries()) {
            assert_eq!(a.sequence, b.sequence);
            assert_eq!(a.is_ransomware, b.is_ransomware);
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Dataset::from_csv("1,2,x,1\n").is_err());
        assert!(Dataset::from_csv("1,2,3,7\n").is_err()); // bad label
        assert!(Dataset::from_csv("1\n").is_err()); // label only, no tokens
    }

    #[test]
    fn examples_match_entries() {
        let ds = small();
        let ex = ds.examples();
        assert_eq!(ex.len(), ds.len());
        assert_eq!(ex[0].0, ds.entries()[0].sequence);
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn bad_split_fraction_rejected() {
        let _ = small().split(1.5, SplitKind::Random, 0);
    }
}
