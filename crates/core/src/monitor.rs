//! The online detection wrapper: from per-window classification to a
//! deployable monitor.
//!
//! The paper's use case is *continuous* protection — "data centers can
//! execute the classifier continuously in the background" (§I) with
//! "real-time mitigation upon detecting the presence of ransomware" (§I).
//! That needs more than a window classifier: a component that consumes
//! API calls one at a time as the host emits them, maintains the rolling
//! window, classifies at each stride, and debounces alerts so a single
//! borderline window (an encrypted-backup burst, say) does not quarantine
//! a workload.
//!
//! [`StreamMonitor`] implements that loop around a
//! [`CsdInferenceEngine`], with k-of-n vote debouncing and inference-time
//! accounting from the pipeline schedule. The window itself is a
//! [`RollingWindow`] — a compacting buffer that keeps the current window
//! contiguous so each classification reads it in place instead of
//! copying it out. Many processes at once are the job of the sentry
//! service (`csd-sentry`) over the
//! [`ShardedStreamMux`](crate::shard::ShardedStreamMux), which keeps
//! each process's votes in a packed [`VoteRing`].

use std::collections::VecDeque;

use crate::engine::CsdInferenceEngine;
use crate::schedule::PipelineSchedule;

/// Configuration for the streaming monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Rolling-window length (the paper uses 100).
    pub window_len: usize,
    /// Classify every `stride` calls once the window is full.
    pub stride: usize,
    /// Raise an alert when `votes_needed` of the last `vote_horizon`
    /// classifications were positive (1-of-1 = alert on first hit).
    pub votes_needed: usize,
    /// Number of recent classifications considered for voting.
    pub vote_horizon: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            window_len: 100,
            stride: 10,
            votes_needed: 2,
            vote_horizon: 3,
        }
    }
}

/// A raised alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Index of the API call whose window completed the vote.
    pub at_call: usize,
    /// Probability of the triggering window.
    pub probability: f64,
    /// Cumulative on-device inference time spent until the alert, in µs
    /// (from the steady-state pipeline schedule).
    pub inference_us: f64,
}

/// A fixed-length rolling window over a call stream, backed by a
/// compacting buffer so the current window is always one contiguous
/// slice.
///
/// A `VecDeque` ring would wrap, forcing every consumer to copy the
/// window out before handing it to the engine; this buffer instead
/// appends until the dead prefix reaches one window length, then shifts
/// the live window back to the front — one `window_len`-item move per
/// `window_len` pushes, so pushes stay amortized O(1), the backing
/// allocation never exceeds two window lengths, and
/// [`as_slice`](Self::as_slice) is free.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    buf: Vec<usize>,
    start: usize,
    window_len: usize,
}

impl RollingWindow {
    /// An empty window of capacity `window_len`.
    ///
    /// # Panics
    ///
    /// Panics when `window_len` is zero.
    pub fn new(window_len: usize) -> Self {
        assert!(window_len > 0, "window length must be positive");
        Self {
            buf: Vec::with_capacity(2 * window_len),
            start: 0,
            window_len,
        }
    }

    /// The configured window length.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Items currently held (at most `window_len`).
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether no item has been pushed since creation/[`clear`](Self::clear).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the window holds `window_len` items.
    fn is_full(&self) -> bool {
        self.len() == self.window_len
    }

    /// Appends one item, evicting the oldest once full.
    pub fn push(&mut self, item: usize) {
        self.buf.push(item);
        if self.buf.len() - self.start > self.window_len {
            self.start += 1;
        }
        if self.start == self.window_len {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.window_len);
            self.start = 0;
        }
    }

    /// The live window, oldest first — the full window once
    /// `window_len` items have been pushed.
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[self.start..]
    }

    /// Empties the window, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }
}

/// Streaming ransomware monitor around a CSD engine.
#[derive(Debug, Clone)]
pub struct StreamMonitor {
    engine: CsdInferenceEngine,
    config: MonitorConfig,
    window: RollingWindow,
    calls_seen: usize,
    since_classify: usize,
    votes: VecDeque<bool>,
    classifications: usize,
    alerted: Option<Alert>,
    per_item_us: f64,
    /// Out-of-vocabulary calls dropped at `observe` (cached vocab size
    /// keeps the boundary check off the engine's assert path).
    vocab: usize,
    oov_calls: u64,
}

impl StreamMonitor {
    /// Wraps `engine` with the given `config`.
    ///
    /// # Panics
    ///
    /// Panics if `window_len`, `stride`, `votes_needed`, or `vote_horizon`
    /// is zero, or `votes_needed > vote_horizon`.
    pub fn new(engine: CsdInferenceEngine, config: MonitorConfig) -> Self {
        assert!(config.window_len > 0, "window length must be positive");
        assert!(config.stride > 0, "stride must be positive");
        assert!(config.votes_needed > 0, "votes_needed must be positive");
        assert!(
            config.votes_needed <= config.vote_horizon,
            "cannot need more votes than the horizon holds"
        );
        let per_item_us = PipelineSchedule::for_level(engine.level()).steady_item_us;
        let vocab = engine.weights().dims().vocab;
        Self {
            engine,
            config,
            window: RollingWindow::new(config.window_len),
            calls_seen: 0,
            since_classify: 0,
            votes: VecDeque::with_capacity(config.vote_horizon),
            classifications: 0,
            alerted: None,
            per_item_us,
            vocab,
            oov_calls: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Number of API calls observed so far.
    pub fn calls_seen(&self) -> usize {
        self.calls_seen
    }

    /// Number of window classifications performed so far.
    pub fn classifications(&self) -> usize {
        self.classifications
    }

    /// The alert, if one has been raised (alerts latch: the first one is
    /// the mitigation trigger).
    pub fn alert(&self) -> Option<Alert> {
        self.alerted
    }

    /// Out-of-vocabulary calls dropped so far (each counted toward
    /// [`calls_seen`](Self::calls_seen) but excluded from the window).
    pub fn oov_calls(&self) -> u64 {
        self.oov_calls
    }

    /// Feeds one API call; returns a newly-raised alert, if any.
    ///
    /// An out-of-vocabulary call cannot be embedded, so it is dropped
    /// here — tallied in [`oov_calls`](Self::oov_calls), counted toward
    /// [`calls_seen`](Self::calls_seen), excluded from the window —
    /// rather than panicking inside the engine. A monitor fed by a live
    /// (possibly hostile) process must treat the call stream as
    /// untrusted input; the sentry's session table filters the same way
    /// at ingest.
    pub fn observe(&mut self, call: usize) -> Option<Alert> {
        self.calls_seen += 1;
        if !crate::kernels::preprocess::in_vocabulary(self.vocab, call) {
            self.oov_calls += 1;
            return None;
        }
        self.window.push(call);
        if self.alerted.is_some() || !self.window.is_full() {
            return None;
        }
        self.since_classify += 1;
        let first_full = self.classifications == 0;
        if !first_full && self.since_classify < self.config.stride {
            return None;
        }
        self.since_classify = 0;
        // The compacting window is contiguous: classify in place, no
        // per-window copy.
        let verdict = self.engine.classify(self.window.as_slice());
        self.classifications += 1;
        if self.votes.len() == self.config.vote_horizon {
            self.votes.pop_front();
        }
        self.votes.push_back(verdict.is_positive);
        let positive_votes = self.votes.iter().filter(|&&v| v).count();
        if positive_votes >= self.config.votes_needed {
            let alert = Alert {
                at_call: self.calls_seen,
                probability: verdict.probability,
                inference_us: self.classifications as f64
                    * self.config.window_len as f64
                    * self.per_item_us,
            };
            self.alerted = Some(alert);
            return Some(alert);
        }
        None
    }

    /// Feeds a batch of calls, returning the first alert raised.
    pub fn observe_all(&mut self, calls: &[usize]) -> Option<Alert> {
        for &c in calls {
            if let Some(a) = self.observe(c) {
                return Some(a);
            }
        }
        None
    }

    /// Resets the monitor for a new stream (keeps the engine).
    pub fn reset(&mut self) {
        self.window.clear();
        self.votes.clear();
        self.calls_seen = 0;
        self.since_classify = 0;
        self.classifications = 0;
        self.alerted = None;
        self.oov_calls = 0;
    }
}

/// A packed k-of-n vote ring: the newest `horizon ≤ 64` verdicts of one
/// stream as the low bits of a `u64` (bit 0 newest), so a tracked
/// stream pays eight bytes for its debouncing state. The production
/// monitor (the sentry service) folds verdicts through this type and
/// checkpoints its bits; [`StreamMonitor`] keeps its own
/// `VecDeque<bool>` as the independent reference it is tested against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteRing(u64);

impl VoteRing {
    /// The mask selecting the newest `horizon` verdicts, computed once
    /// per monitor and passed to every [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics when `horizon` exceeds 64 — the ring is one `u64`.
    pub fn mask(horizon: usize) -> u64 {
        assert!(horizon <= 64, "vote ring packs votes into 64 bits");
        if horizon == 64 {
            u64::MAX
        } else {
            (1u64 << horizon) - 1
        }
    }

    /// Rebuilds a ring from its checkpointed bits.
    pub fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// The raw bits (bit 0 newest), as checkpoints store them.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Shifts one verdict in under `mask` (see [`mask`](Self::mask)) and
    /// reports whether at least `votes_needed` of the remembered
    /// verdicts are now positive.
    pub fn push(&mut self, positive: bool, mask: u64, votes_needed: usize) -> bool {
        self.0 = ((self.0 << 1) | u64::from(positive)) & mask;
        self.0.count_ones() as usize >= votes_needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptimizationLevel;
    use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

    /// A model biased hard positive/negative by construction: weights come
    /// from a trained-ish seed, so we drive the monitor with a model the
    /// tests control via a threshold trick — instead use real sequences
    /// where a fresh model produces *some* verdict and we assert the
    /// mechanics (windowing, strides, voting, latching), which are
    /// engine-agnostic.
    fn monitor(config: MonitorConfig) -> StreamMonitor {
        let model = SequenceClassifier::new(ModelConfig::tiny(16), 9);
        let engine = CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        );
        StreamMonitor::new(engine, config)
    }

    fn small_config() -> MonitorConfig {
        MonitorConfig {
            window_len: 8,
            stride: 4,
            votes_needed: 1,
            vote_horizon: 1,
        }
    }

    #[test]
    fn no_classification_before_window_fills() {
        let mut m = monitor(small_config());
        for c in 0..7usize {
            m.observe(c % 16);
        }
        assert_eq!(m.classifications(), 0);
        m.observe(7);
        assert_eq!(m.classifications(), 1, "first full window classifies");
    }

    #[test]
    fn stride_controls_classification_rate() {
        let mut m = monitor(MonitorConfig {
            votes_needed: 1,
            vote_horizon: 1,
            ..small_config()
        });
        // Feed 28 calls: windows complete at call 8, then every 4 calls.
        let calls: Vec<usize> = (0..28).map(|i| i % 16).collect();
        for &c in &calls {
            if m.alert().is_none() {
                m.observe(c);
            }
        }
        if m.alert().is_none() {
            // (8) + (12,16,20,24,28) → 6 classifications.
            assert_eq!(m.classifications(), 6);
        }
    }

    #[test]
    fn voting_debounces_single_positives() {
        // votes_needed 2 of horizon 3: one positive window cannot alert.
        let mut m = monitor(MonitorConfig {
            window_len: 8,
            stride: 4,
            votes_needed: 2,
            vote_horizon: 3,
        });
        let mut first_alert_classifications = None;
        for i in 0..200usize {
            if let Some(_a) = m.observe(i % 16) {
                first_alert_classifications = Some(m.classifications());
                break;
            }
        }
        if let Some(n) = first_alert_classifications {
            assert!(n >= 2, "an alert needs at least two positive windows");
        }
    }

    #[test]
    fn alerts_latch() {
        let mut m = monitor(small_config());
        let mut alerts = 0;
        for i in 0..400usize {
            if m.observe(i % 3).is_some() {
                alerts += 1;
            }
        }
        assert!(alerts <= 1, "alerts must latch");
        if alerts == 1 {
            assert!(m.alert().is_some());
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut m = monitor(small_config());
        for i in 0..50usize {
            m.observe(i % 16);
        }
        m.reset();
        assert_eq!(m.calls_seen(), 0);
        assert_eq!(m.classifications(), 0);
        assert!(m.alert().is_none());
    }

    #[test]
    fn alert_carries_inference_accounting() {
        let mut m = monitor(small_config());
        let alert = m.observe_all(&(0..400).map(|i| i % 2).collect::<Vec<_>>());
        if let Some(a) = alert {
            assert!(a.inference_us > 0.0);
            assert!(a.at_call >= m.config().window_len);
        }
    }

    #[test]
    fn vote_ring_matches_a_deque_of_bools_at_every_horizon() {
        // The packed ring against the obvious reference, including the
        // horizon == 64 edge where `1 << horizon` would overflow.
        for horizon in [1usize, 2, 3, 7, 63, 64] {
            let mask = VoteRing::mask(horizon);
            for votes_needed in [1, horizon.div_ceil(2), horizon] {
                let mut ring = VoteRing::default();
                let mut reference: VecDeque<bool> = VecDeque::new();
                for i in 0..200usize {
                    let positive = (i * 7 + i / 5) % 3 != 0;
                    if reference.len() == horizon {
                        reference.pop_front();
                    }
                    reference.push_back(positive);
                    let expect = reference.iter().filter(|&&v| v).count() >= votes_needed;
                    assert_eq!(
                        ring.push(positive, mask, votes_needed),
                        expect,
                        "horizon {horizon} k {votes_needed} step {i}"
                    );
                }
                assert_eq!(VoteRing::from_bits(ring.bits()), ring);
            }
        }
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn vote_ring_rejects_horizons_beyond_one_word() {
        let _ = VoteRing::mask(65);
    }

    #[test]
    fn oov_calls_are_dropped_and_tallied_not_a_panic() {
        let mut m = monitor(small_config());
        // ModelConfig::tiny(16) has vocab 16; token 10_000 is hostile
        // input, not a reason to take the monitor down.
        assert!(m.observe(10_000).is_none());
        assert_eq!(m.oov_calls(), 1);
        assert_eq!(m.calls_seen(), 1, "the call was still observed");
        // The window excludes the garbage: parity with a monitor that
        // never saw it, shifted by the dropped call count.
        let mut clean = monitor(small_config());
        for i in 0..40usize {
            m.observe(i % 16);
            clean.observe(i % 16);
        }
        assert_eq!(m.classifications(), clean.classifications());
        assert_eq!(
            m.alert().map(|a| a.probability),
            clean.alert().map(|a| a.probability)
        );
        m.reset();
        assert_eq!(m.oov_calls(), 0, "reset clears the tally");
    }

    #[test]
    #[should_panic(expected = "cannot need more votes")]
    fn invalid_vote_config_rejected() {
        let _ = monitor(MonitorConfig {
            votes_needed: 4,
            vote_horizon: 3,
            ..small_config()
        });
    }
}
