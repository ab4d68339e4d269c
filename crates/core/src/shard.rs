//! The stream multiplexer: one bounded FIFO of windows, served one
//! window at a time.
//!
//! [`ShardedStreamMux`] is what a fleet of process streams submits its
//! completed windows to. It holds them in one queue, in submission
//! order, and serves the head: each window classifies alone through the
//! row kernel ([`classify_with_scratch`]), so every verdict is serial
//! [`classify`]'s, bit for bit, and each stream's verdicts leave in the
//! order it submitted them by construction.
//!
//! # Admission
//!
//! [`submit`](ShardedStreamMux::submit) is the only way in, and the
//! only place admission policy lives: it refuses out-of-vocabulary
//! windows, applies the pending bound — a full queue evicts its oldest
//! window to admit the new one — counts every loss and numbers the
//! window ([`Verdict::seq`]). It tells the caller what it did
//! ([`Admission`]), naming the window an eviction discarded, so a
//! caller that tracks its outstanding windows can follow the queue
//! exactly and charge each loss to its stream.
//! Multi-producer ingestion sits in front of the mux, not inside it
//! (the sentry's bounded event bus).
//!
//! # Serving budget
//!
//! Engine time is counted in window-steps: a window of `len` calls
//! costs `len`. One round ([`tick_into`](ShardedStreamMux::tick_into))
//! is [`ROUND_STEPS`] of them, and
//! [`serve_into`](ShardedStreamMux::serve_into) takes a budget in
//! rounds. A serving call adds its budget to a credit and serves the
//! head while the credit is positive; the window that overdraws it
//! leaves a debt the next calls pay first, and an empty queue banks
//! nothing. So a round buys on average the engine time of
//! [`ROUND_STEPS`] window-steps, whatever the window lengths, and the
//! windows served are a pure function of the sequence of submit and
//! serving calls. [`drain_into`](ShardedStreamMux::drain_into) has no
//! budget: it serves everything and clears the debt.
//!
//! A budgeted call also leaves a **spare**: the window-steps of its
//! budget it did not spend (nonzero only when it emptied the queue),
//! which replaces the spare before it and so never exceeds one call's
//! budget. [`serve_spare_into`](ShardedStreamMux::serve_spare_into)
//! spends it on windows submitted since, oldest first, while it covers
//! each whole window: it never overdraws, so it creates no debt. A
//! caller can so classify a window at the call that completes it out of
//! engine time a serving call has already granted, while a caller that
//! serves lazily — its last call left a backlog, and a spare of 0 —
//! gets no engine time beyond its budgets. A drain grants no budget and
//! leaves no spare: until the next budgeted call, windows wait.
//!
//! # Shards
//!
//! [`StreamMuxConfig::shards`] is `None` by default: every window
//! classifies on the caller's thread. With `Some(n)`, a serving call
//! that can afford two or more windows classifies them over at most
//! `min(n, cores)` chunks, the caller's thread running the first and a
//! scoped thread each other one — the chunked loop behind
//! [`classify_batch_refs`] — and emits them in queue order.
//! Which windows are served, and every verdict, are the same at every
//! `n`; only the wall time differs.
//!
//! # Faults
//!
//! An armed [`FaultPlan`] draws once for each window served, in queue
//! order ([`FaultPlan::corrupt_window`]). A corrupted window is counted,
//! re-run through the same kernel and emitted: its verdict is delayed
//! by the re-run, whose window-steps are charged to the credit (or to
//! the spare, down to 0), and is never lost or changed.
//!
//! [`classify_with_scratch`]: CsdInferenceEngine::classify_with_scratch
//! [`classify`]: CsdInferenceEngine::classify
//! [`classify_batch_refs`]: CsdInferenceEngine::classify_batch_refs

#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;
use std::time::Instant;

use csd_device::FaultPlan;

use crate::engine::{Classification, CsdInferenceEngine};
use crate::scratch::EngineScratch;
use crate::stream::{Admission, MuxStats, StreamMuxConfig, Verdict, ROUND_STEPS};

/// An admitted window, waiting in the queue.
#[derive(Debug, Clone)]
struct Window {
    stream: u64,
    at_call: usize,
    items: Vec<usize>,
    /// Admission sequence number (see [`Verdict::seq`]).
    seq: u64,
}

/// The stream multiplexer: a bounded FIFO of windows behind one
/// `submit`/`serve_into`/`drain` front, verdicts bit-identical to
/// serial classification and delivered in submission order.
///
/// See the [module docs](self) for admission, the serving budget and
/// shards.
#[derive(Debug, Clone)]
pub struct ShardedStreamMux {
    engine: CsdInferenceEngine,
    scratch: EngineScratch,
    /// Admitted windows, oldest first. Windows leave only from the
    /// front (served or evicted), so the queue holds a contiguous range
    /// of sequence numbers.
    queue: VecDeque<Window>,
    /// Window buffers recycled from served and evicted windows, so the
    /// steady state allocates nothing.
    free_bufs: Vec<Vec<usize>>,
    shards: usize,
    /// Window-steps served beyond the budgets granted so far.
    debt: u64,
    /// Window-steps the last budgeted serving call left unspent, less
    /// what [`serve_spare_into`](Self::serve_spare_into) has spent since
    /// (0 after a drain).
    spare: u64,
    max_pending: usize,
    next_seq: u64,
    /// Admitted windows later evicted by backpressure.
    evicted: u64,
    /// Windows refused for out-of-vocabulary tokens.
    rejected: u64,
    /// Vocabulary size, cached for admission-time validation.
    vocab: usize,
    started: Instant,
    ticks: u64,
    verdicts: u64,
    /// Armed fault plan: one corruption draw per window served. `None`
    /// = fault-free (zero overhead).
    faults: Option<FaultPlan>,
    /// Corrupted windows re-run before their verdict was emitted.
    fault_events: u64,
}

impl ShardedStreamMux {
    /// Builds the mux around `engine`: a queue bounded by
    /// `config.max_pending`, served over at most `config.shards` chunks
    /// (one when left open, and never zero).
    ///
    /// # Panics
    ///
    /// Panics when `config.max_pending` is zero.
    pub fn new(engine: CsdInferenceEngine, config: StreamMuxConfig) -> Self {
        assert!(config.max_pending > 0, "max_pending must be positive");
        let vocab = engine.weights().dims().vocab;
        let scratch = engine.make_scratch();
        Self {
            engine,
            scratch,
            queue: VecDeque::new(),
            free_bufs: Vec::new(),
            shards: config.shards.unwrap_or(1).max(1),
            debt: 0,
            spare: 0,
            max_pending: config.max_pending,
            next_seq: 0,
            evicted: 0,
            rejected: 0,
            vocab,
            started: Instant::now(),
            ticks: 0,
            verdicts: 0,
            faults: None,
            fault_events: 0,
        }
    }

    /// Windows queued, not yet served.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether no window is queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued windows from admission sequence number `from` on,
    /// oldest first, as `(seq, stream)` — the queue's front from where
    /// a caller stopped looking last time, without walking what it has
    /// already passed over.
    pub fn queued_from(&self, from: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let head = self.queue.front().map_or(self.next_seq, |w| w.seq);
        let skip = usize::try_from(from.saturating_sub(head))
            .map_or(self.queue.len(), |n| n.min(self.queue.len()));
        self.queue.range(skip..).map(|w| (w.seq, w.stream))
    }

    /// Arms degraded mode: each window served draws one corruption
    /// chance from `plan` ([`FaultPlan::corrupt_window`]), in queue
    /// order. A corrupted window is re-run before its verdict is
    /// emitted — bit-identical, so no verdict is lost or changed, only
    /// delayed.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Enqueues one window for classification, copying it into a pooled
    /// buffer, and says what became of it ([`Admission`]). A window is
    /// refused only when a token falls outside the model's vocabulary;
    /// a full queue evicts its oldest window, names it, and admits this
    /// one.
    ///
    /// An out-of-vocabulary window is a *typed rejection, not a panic*:
    /// one misbehaving (or hostile) process is refused at the boundary
    /// and tallied ([`MuxStats::rejected`]); every other stream is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics on an empty window (the engine's contract).
    pub fn submit(&mut self, stream: u64, at_call: usize, window: &[usize]) -> Admission {
        assert!(!window.is_empty(), "empty sequence");
        if !window
            .iter()
            .all(|&item| crate::kernels::preprocess::in_vocabulary(self.vocab, item))
        {
            self.rejected += 1;
            return Admission::Rejected;
        }
        let mut admission = Admission::Queued;
        if self.queue.len() >= self.max_pending {
            if let Some(victim) = self.queue.pop_front() {
                self.evicted += 1;
                admission = Admission::QueuedEvicting {
                    stream: victim.stream,
                    at_call: victim.at_call,
                };
                self.free_bufs.push(victim.items);
            }
        }
        let mut items = self.free_bufs.pop().unwrap_or_default();
        items.clear();
        items.extend_from_slice(window);
        self.queue.push_back(Window {
            stream,
            at_call,
            items,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        admission
    }

    /// Serves one round ([`ROUND_STEPS`] window-steps of budget),
    /// appending the verdicts to `out` and returning how many were
    /// appended.
    pub fn tick_into(&mut self, out: &mut Vec<Verdict>) -> usize {
        let before = out.len();
        self.serve_into(out, 1);
        out.len() - before
    }

    /// Convenience wrapper over [`tick_into`](Self::tick_into).
    pub fn tick(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Serves queued windows under a budget of `max_rounds` rounds of
    /// [`ROUND_STEPS`] window-steps each, appending their verdicts to
    /// `out` in queue order: the budget joins the credit, which first
    /// pays any debt, and the head is served while the credit is
    /// positive. What is left of the credit becomes the spare (see the
    /// [module docs](self)).
    pub fn serve_into(&mut self, out: &mut Vec<Verdict>, max_rounds: usize) {
        let budget = (max_rounds as u64).saturating_mul(ROUND_STEPS as u64);
        let mut credit = i128::from(budget) - i128::from(self.debt);
        let mut take = 0;
        for w in &self.queue {
            if credit <= 0 {
                break;
            }
            credit -= w.items.len() as i128;
            take += 1;
        }
        credit -= i128::from(self.serve(take, out));
        // Overdraw is debt; an unspent credit is not banked, only kept
        // as the spare until the next budgeted call replaces it.
        self.debt = u64::try_from(-credit.min(0)).unwrap_or(u64::MAX);
        self.spare = u64::try_from(credit).unwrap_or(0);
    }

    /// Serves the queue's head, oldest first, while the spare covers
    /// each whole window, appending the verdicts to `out` and returning
    /// how many were appended. Each window served, and a corrupted
    /// one's re-run, is paid from the spare, never on credit: the debt
    /// is left as it was.
    pub fn serve_spare_into(&mut self, out: &mut Vec<Verdict>) -> usize {
        let mut left = self.spare;
        let mut take = 0;
        for w in &self.queue {
            let Some(rest) = left.checked_sub(w.items.len() as u64) else {
                break;
            };
            left = rest;
            take += 1;
        }
        let rerun = self.serve(take, out);
        self.spare = left.saturating_sub(rerun);
        take
    }

    /// Serves every queued window, appending every verdict to `out`:
    /// [`serve_into`](Self::serve_into) without a budget, which also
    /// clears the debt and leaves no spare.
    pub fn drain_into(&mut self, out: &mut Vec<Verdict>) {
        self.serve(self.queue.len(), out);
        self.debt = 0;
        self.spare = 0;
    }

    /// Convenience wrapper over [`drain_into`](Self::drain_into).
    pub fn drain(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Counters and loss tallies.
    pub fn stats(&self) -> MuxStats {
        MuxStats {
            ticks: self.ticks,
            verdicts: self.verdicts,
            evicted: self.evicted,
            refused: 0,
            rejected: self.rejected,
            occupancy: 0.0,
            verdicts_per_sec: self.verdicts as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            faults: self.fault_events,
            shards: self.shards as u64,
        }
    }

    /// Takes the `take` oldest windows off the queue, classifies them —
    /// on this thread, or over chunks across threads when there are
    /// shards and company — and emits their verdicts in queue order.
    /// Returns the window-steps spent re-running corrupted windows.
    fn serve(&mut self, take: usize, out: &mut Vec<Verdict>) -> u64 {
        if take == 0 {
            return 0;
        }
        let chunked = (self.shards > 1 && take > 1).then(|| {
            let refs: Vec<&[usize]> = self.queue.range(..take).map(|w| &w.items[..]).collect();
            self.engine.classify_chunked(&refs, self.shards)
        });
        let mut rerun = 0;
        for k in 0..take {
            let Some(w) = self.queue.pop_front() else {
                break;
            };
            let c = match &chunked {
                Some(classified) => classified[k],
                None => self
                    .engine
                    .classify_with_scratch(&w.items, &mut self.scratch),
            };
            rerun += self.emit(w, c, out);
        }
        self.ticks += 1;
        rerun
    }

    /// Draws the window's fault, re-runs it if corrupted, records its
    /// verdict and recycles its buffer. Returns the re-run's
    /// window-steps (0 without one).
    fn emit(
        &mut self,
        w: Window,
        mut classification: Classification,
        out: &mut Vec<Verdict>,
    ) -> u64 {
        let mut rerun = 0;
        if self.faults.as_mut().is_some_and(FaultPlan::corrupt_window) {
            // The corrupted result is discarded; the window runs again
            // through the same kernel — bit-identical, so the verdict
            // is delayed, never lost or changed.
            self.fault_events += 1;
            rerun = w.items.len() as u64;
            classification = self
                .engine
                .classify_with_scratch(&w.items, &mut self.scratch);
        }
        self.verdicts += 1;
        out.push(Verdict {
            stream: w.stream,
            at_call: w.at_call,
            classification,
            seq: w.seq,
        });
        self.free_bufs.push(w.items);
        rerun
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptimizationLevel;
    use csd_device::FaultConfig;
    use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

    fn engine(seed: u64) -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::tiny(16), seed);
        CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        )
    }

    fn seq(n: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 37 + 11 + salt * 29) % 16).collect()
    }

    fn sharded(e: CsdInferenceEngine, shards: usize) -> ShardedStreamMux {
        ShardedStreamMux::new(
            e,
            StreamMuxConfig {
                shards: Some(shards),
                ..StreamMuxConfig::default()
            },
        )
    }

    /// Runs `ticks` rounds and returns each one's verdicts.
    fn tick_by_tick(mux: &mut ShardedStreamMux, ticks: usize) -> Vec<Vec<Verdict>> {
        (0..ticks).map(|_| mux.tick()).collect()
    }

    #[test]
    fn one_shard_unless_asked_and_never_zero() {
        let count = |shards: Option<usize>| {
            let config = StreamMuxConfig {
                shards,
                ..StreamMuxConfig::default()
            };
            ShardedStreamMux::new(engine(1), config).stats().shards
        };
        assert_eq!(count(None), 1, "the default is one shard");
        assert_eq!(count(Some(3)), 3, "an explicit count is honoured");
        assert_eq!(count(Some(0)), 1, "never zero");
    }

    #[test]
    fn verdicts_bit_identical_to_serial_and_identical_at_every_shard_count() {
        let e = engine(7);
        let windows: Vec<Vec<usize>> = (0..17).map(|k| seq(3 + (k * 13) % 40, k)).collect();
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        let run = |shards: usize| {
            let mut mux = sharded(e.clone(), shards);
            let mut verdicts = Vec::new();
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w).queued());
                match k % 3 {
                    0 => {
                        mux.tick_into(&mut verdicts);
                    }
                    1 => mux.serve_into(&mut verdicts, 2),
                    _ => {}
                }
            }
            mux.drain_into(&mut verdicts);
            assert!(mux.is_idle());
            verdicts
        };
        let one = run(1);
        assert_eq!(one.len(), windows.len());
        for v in &one {
            assert_eq!(v.classification, serial[v.stream as usize]);
        }
        for shards in [2usize, 3, 4] {
            assert_eq!(run(shards), one, "{shards} shards");
        }
    }

    #[test]
    fn verdicts_leave_in_submission_order() {
        // Ragged lengths: a long window ahead of short ones still comes
        // back first, at every shard count.
        let lens = [60usize, 4, 30, 5, 12, 4, 40, 6];
        for shards in [1usize, 4] {
            let mut mux = sharded(engine(3), shards);
            for (k, &n) in lens.iter().enumerate() {
                mux.submit(9, k, &seq(n, k));
                mux.submit(k as u64 + 100, k, &seq(n / 2 + 2, k + 50));
            }
            let verdicts = mux.drain();
            let seqs: Vec<u64> = verdicts.iter().map(|v| v.seq).collect();
            assert_eq!(seqs, (0..2 * lens.len() as u64).collect::<Vec<_>>());
            let stream9: Vec<usize> = verdicts
                .iter()
                .filter(|v| v.stream == 9)
                .map(|v| v.at_call)
                .collect();
            assert_eq!(stream9, (0..lens.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_round_buys_sixteen_window_steps_and_overdraw_is_paid_first() {
        // Two 100-step windows. The first round's 16 steps are credit
        // enough to start the first, which overdraws by 84; rounds two
        // to six pay that debt, and the seventh serves the second.
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1);
        let (w0, w1) = (seq(100, 0), seq(100, 1));
        mux.submit(0, 0, &w0);
        mux.submit(1, 1, &w1);
        let ticks = tick_by_tick(&mut mux, 7);
        let served: Vec<usize> = ticks.iter().map(Vec::len).collect();
        assert_eq!(served, [1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(ticks[0][0].classification, e.classify(&w0));
        assert_eq!(ticks[6][0].classification, e.classify(&w1));
        assert!(mux.is_idle());
        // A poll's 64 rounds are 1,024 steps: ten 100-step windows leave
        // 24 of credit, which starts an eleventh.
        let mut mux = sharded(e, 1);
        for k in 0..15 {
            mux.submit(k, 0, &seq(100, k as usize));
        }
        let mut out = Vec::new();
        mux.serve_into(&mut out, 64);
        assert_eq!((out.len(), mux.pending()), (11, 4));
    }

    #[test]
    fn debt_carries_across_calls_and_an_idle_queue_banks_nothing() {
        let mut mux = sharded(engine(21), 1);
        // Rounds on an empty queue bank nothing, and count as no tick.
        for _ in 0..100 {
            assert!(mux.tick().is_empty());
        }
        assert_eq!(mux.stats().ticks, 0);
        mux.submit(0, 0, &seq(40, 0));
        mux.submit(1, 1, &seq(40, 1));
        assert_eq!(mux.tick().len(), 1, "one round starts one window");
        // 24 of debt: a round pays 16, the next serves.
        assert!(mux.tick().is_empty());
        assert_eq!(mux.tick().len(), 1);
        // The debt outlives an emptied queue: 40 − 8 = 32 more are owed,
        // so a window arriving now waits two rounds, and a zero-round
        // serve neither pays nor serves.
        mux.submit(2, 2, &seq(40, 2));
        let mut out = Vec::new();
        mux.serve_into(&mut out, 0);
        assert!(out.is_empty());
        assert!(mux.tick().is_empty());
        assert!(mux.tick().is_empty());
        assert_eq!(mux.tick().len(), 1);
        // A drain serves everything whatever is owed, and clears it.
        mux.submit(3, 3, &seq(40, 3));
        mux.submit(4, 4, &seq(40, 4));
        assert_eq!(mux.drain().len(), 2);
        mux.submit(5, 5, &seq(40, 5));
        assert_eq!(mux.tick().len(), 1, "nothing owed after a drain");
    }

    #[test]
    fn the_spare_is_replaced_never_added_to_and_capped_at_the_budget() {
        let mut mux = sharded(engine(21), 1);
        let mut out = Vec::new();
        assert_eq!(mux.spare, 0, "nothing granted yet");
        // A poll's 1,024 steps over an empty queue are all spare, and a
        // second poll's replace them: the spare is capped at one budget.
        mux.serve_into(&mut out, 64);
        assert_eq!(mux.spare, 1024);
        mux.serve_into(&mut out, 64);
        assert_eq!(mux.spare, 1024);
        // A round replaces it with its own 16, not 1,040.
        mux.tick_into(&mut out);
        assert_eq!(mux.spare, 16);
        // What a call spends is not spare.
        mux.submit(0, 0, &seq(8, 0));
        mux.serve_into(&mut out, 64);
        assert_eq!((out.len(), mux.spare), (1, 1016));
        // A call that leaves a backlog leaves no spare.
        for k in 1..3 {
            mux.submit(k, 0, &seq(40, k as usize));
        }
        mux.tick_into(&mut out);
        assert_eq!((mux.pending(), mux.spare, mux.debt), (1, 0, 24));
    }

    #[test]
    fn a_drain_leaves_no_spare() {
        let mut mux = sharded(engine(21), 1);
        let mut out = Vec::new();
        mux.serve_into(&mut out, 64);
        assert_eq!(mux.spare, 1024);
        // Even on an empty queue: a drain grants no budget.
        mux.drain_into(&mut out);
        assert_eq!((out.len(), mux.debt, mux.spare), (0, 0, 0));
        mux.submit(0, 0, &seq(8, 0));
        assert_eq!(mux.serve_spare_into(&mut out), 0, "it waits");
        // The next budgeted call grants one again.
        mux.serve_into(&mut out, 64);
        assert_eq!((out.len(), mux.spare), (1, 1016));
    }

    #[test]
    fn the_spare_serves_whole_windows_only_and_leaves_the_debt() {
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1);
        let mut out = Vec::new();
        // With nothing granted, nothing is served.
        mux.submit(0, 0, &seq(8, 0));
        assert_eq!(mux.serve_spare_into(&mut out), 0);
        // A poll leaves 1,024 − 8: ten 100-step windows fit in it whole,
        // the eleventh does not start.
        mux.serve_into(&mut out, 64);
        out.clear();
        let windows: Vec<Vec<usize>> = (0..11).map(|k| seq(100, k)).collect();
        for (k, w) in windows.iter().enumerate() {
            mux.submit(k as u64, k, w);
        }
        assert_eq!(mux.serve_spare_into(&mut out), 10);
        assert_eq!((mux.pending(), mux.spare, mux.debt), (1, 16, 0));
        for (v, w) in out.iter().zip(&windows) {
            assert_eq!(v.classification, e.classify(w));
        }
        // Spent down, the spare serves nothing more and owes nothing.
        assert_eq!(mux.serve_spare_into(&mut out), 0);
        assert_eq!(mux.debt, 0);
        assert_eq!(mux.drain().len(), 1);
        // A call that leaves a debt leaves no spare, so the two never
        // meet through the calls above: set a spare beside a debt to
        // show that spending it neither pays nor grows the debt.
        mux.submit(11, 0, &seq(40, 11));
        mux.submit(12, 0, &seq(8, 12));
        mux.tick_into(&mut out);
        assert_eq!((mux.pending(), mux.spare, mux.debt), (1, 0, 24));
        mux.spare = 16;
        assert_eq!(mux.serve_spare_into(&mut out), 1);
        assert_eq!((mux.spare, mux.debt), (8, 24));
        // A corrupted window's re-run is paid from the spare, down to 0.
        mux.arm_faults(FaultPlan::new(
            1,
            FaultConfig {
                corruption: 1.0,
                ..FaultConfig::none()
            },
        ));
        mux.submit(13, 0, &seq(8, 13));
        assert_eq!(mux.serve_spare_into(&mut out), 1);
        assert_eq!((mux.spare, mux.debt), (0, 24));
    }

    #[test]
    fn stats_track_ticks_and_verdicts() {
        let mut mux = sharded(engine(21), 1);
        for k in 0..4u64 {
            mux.submit(k, 0, &seq(12, k as usize));
        }
        // Rounds of 16 steps over 12-step windows: two (8 owed), one
        // (4 owed), one.
        let ticks = tick_by_tick(&mut mux, 3);
        let served: Vec<usize> = ticks.iter().map(Vec::len).collect();
        assert_eq!(served, [2, 1, 1]);
        let s = mux.stats();
        assert_eq!((s.verdicts, s.ticks), (4, 3));
        assert_eq!(s.occupancy, 0.0);
        assert!(s.verdicts_per_sec > 0.0);
    }

    #[test]
    fn faulty_mux_never_loses_or_changes_a_verdict() {
        let e = engine(21);
        let windows: Vec<Vec<usize>> = (0..16).map(|k| seq(6 + (k * 11) % 50, k)).collect();
        for shards in [1usize, 3] {
            let mut mux = sharded(e.clone(), shards);
            mux.arm_faults(FaultPlan::new(42, FaultConfig::uniform(0.3)));
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w).queued());
            }
            let mut verdicts = Vec::new();
            while !mux.is_idle() {
                mux.serve_into(&mut verdicts, 4);
            }
            assert_eq!(verdicts.len(), windows.len(), "no verdict lost");
            for (k, v) in verdicts.iter().enumerate() {
                assert_eq!(v.stream, k as u64, "queue order");
                assert_eq!(v.classification, e.classify(&windows[k]), "stream {k}");
            }
            let s = mux.stats();
            assert!(s.faults > 0, "rate 0.3 over 16 windows must hit");
            assert_eq!(s.evicted + s.refused, 0, "faults delay, they never drop");
        }
    }

    #[test]
    fn a_corrupted_window_is_rerun_and_its_steps_are_owed() {
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1);
        let cfg = FaultConfig {
            corruption: 1.0,
            ..FaultConfig::none()
        };
        mux.arm_faults(FaultPlan::new(1, cfg));
        let (w0, w1) = (seq(8, 0), seq(8, 1));
        mux.submit(0, 0, &w0);
        mux.submit(1, 1, &w1);
        // 16 steps buy both 8-step windows; their re-runs cost 16 more,
        // so a window submitted now waits a round.
        let first = mux.tick();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].classification, e.classify(&w0));
        assert_eq!(first[1].classification, e.classify(&w1));
        mux.submit(2, 2, &w0);
        assert!(mux.tick().is_empty());
        assert_eq!(mux.tick().len(), 1);
        assert_eq!(mux.stats().faults, 3);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_window_rejected() {
        let mut mux = sharded(engine(21), 1);
        mux.submit(0, 0, &[]);
    }

    #[test]
    fn a_full_queue_evicts_the_head_and_names_it() {
        let mut mux = ShardedStreamMux::new(
            engine(2),
            StreamMuxConfig {
                max_pending: 3,
                shards: None,
            },
        );
        for k in 0..8u64 {
            // The queue always admits: past the bound, the oldest
            // queued window is evicted, and the caller is told which —
            // the stream that lost it, not the submitter.
            let admission = mux.submit(k, k as usize * 10, &seq(6, k as usize));
            let expect = if k < 3 {
                Admission::Queued
            } else {
                Admission::QueuedEvicting {
                    stream: k - 3,
                    at_call: (k as usize - 3) * 10,
                }
            };
            assert_eq!(admission, expect, "submission {k}");
        }
        assert_eq!(mux.pending(), 3, "the bound holds");
        let stats = mux.stats();
        assert_eq!((stats.evicted, stats.refused), (5, 0));
        let kept: Vec<u64> = mux.drain().iter().map(|v| v.stream).collect();
        assert_eq!(kept, vec![5, 6, 7]);
    }

    #[test]
    fn oov_windows_rejected_not_a_panic() {
        let e = engine(7); // tiny(16): vocabulary is 0..=15
        let windows: Vec<Vec<usize>> = (0..9).map(|k| seq(3 + (k * 13) % 30, k)).collect();
        let mut mux = sharded(e.clone(), 2);
        let mut bad = seq(10, 1);
        bad[5] = 16;
        assert_eq!(mux.submit(50, 0, &bad), Admission::Rejected);
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w).queued());
        }
        assert_eq!(mux.submit(51, 1, &[9, 99, 9]), Admission::Rejected);
        assert_eq!(mux.submit(51, 2, &[usize::MAX]), Admission::Rejected);
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            assert_eq!(v.classification, e.classify(&windows[v.stream as usize]));
        }
        let stats = mux.stats();
        assert_eq!(
            (stats.rejected, stats.evicted + stats.refused),
            (3, 0),
            "not backpressure"
        );
        assert!(mux.is_idle());
    }

    #[test]
    fn queued_from_resumes_where_the_caller_stopped() {
        let mut mux = sharded(engine(2), 1);
        for k in 0..5u64 {
            mux.submit(10 + k, 0, &seq(8, k as usize));
        }
        let all: Vec<(u64, u64)> = mux.queued_from(0).collect();
        assert_eq!(all, vec![(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)]);
        assert_eq!(
            mux.queued_from(3).collect::<Vec<_>>(),
            vec![(3, 13), (4, 14)]
        );
        assert_eq!(mux.queued_from(9).count(), 0);
        // Two 8-step windows leave with a round; sequence numbers stay.
        assert_eq!(mux.tick().len(), 2);
        assert_eq!(mux.queued_from(0).next(), Some((2, 12)));
        assert_eq!(mux.queued_from(4).collect::<Vec<_>>(), vec![(4, 14)]);
    }
}
