//! The stream multiplexer: a coordinator over one or more
//! continuous-batching lane blocks (see [`stream`](crate::stream)), with
//! one admission path, placement fixed at admission and per-stream
//! in-order verdict delivery.
//!
//! A single lane block advances every lane on one thread, and that is
//! the default: one shard, run inline on the caller's thread, no worker
//! pool. Asked for `N` shards ([`StreamMuxConfig::shards`]),
//! [`ShardedStreamMux`] splits the lanes into `N` shard-owned blocks and
//! advances every *loaded* shard in parallel via
//! [`WorkerPool::scatter_scoped`] — worth it only where each shard has a
//! free core and enough admitted windows to fill its lanes. The 0-ULP
//! contract is untouched either way: each shard runs the same lane
//! kernels on the same windows, so every verdict is still bit-identical
//! to serial [`classify`](CsdInferenceEngine::classify).
//!
//! # Admission and routing
//!
//! [`submit`](ShardedStreamMux::submit) is the only way in, and the
//! only place admission policy lives: it refuses out-of-vocabulary
//! windows, applies the global backpressure bound and its
//! [`OverflowPolicy`], tallies every loss against its stream, assigns
//! the window a global sequence number, and routes it to the
//! least-loaded shard (deterministic tie-break: lowest index). That is
//! the one placement decision: a window stays on the shard it was
//! admitted to, so the whole schedule is a pure function of the
//! submission sequence. The lane blocks are handed validated, numbered,
//! owned buffers and keep no admission state. Multi-producer ingestion
//! sits in front of the mux, not inside it (the sentry's bounded event
//! bus).
//!
//! # Per-stream order
//!
//! Windows retire independently: a short window beats an earlier long
//! one in the next lane (or on the next shard), and a corrupted lane's
//! serial re-run is emitted ahead of whatever is still in flight. The
//! monitor fold is order-sensitive (vote rings, alert latching), so the
//! coordinator reorders: every window gets a global sequence number at
//! admission, and a small per-stream reorder buffer holds early verdicts
//! until their predecessors settle. The delivered contract: *each
//! stream's verdicts arrive in its submission order*, at every shard
//! count. Only streams with windows in flight hold reorder state —
//! dormant streams cost nothing here.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use csd_device::FaultPlan;

use crate::engine::CsdInferenceEngine;
use crate::pool::WorkerPool;
use crate::stream::{
    LaneCounters, MuxStats, OverflowPolicy, StreamLoss, StreamMux, StreamMuxConfig, Verdict,
};

/// Most ticks each loaded shard advances per scatter while serving:
/// large enough to amortize the pool's scatter overhead over real
/// kernel work, small enough that retirements settle between bursts
/// instead of piling up in the shards' out-buffers.
const DRAIN_BURST: usize = 64;

/// One shard: a lane block (unbounded queue — backpressure is global,
/// at the coordinator) plus its verdict out-buffer.
#[derive(Debug, Clone)]
struct Shard {
    mux: StreamMux,
    /// Per-shard verdict buffer, filled inside scatter jobs (each shard
    /// writes only its own) and settled by the coordinator afterwards.
    out: Vec<Verdict>,
}

/// Per-stream reorder state: sequence numbers still in flight, plus
/// verdicts (or drop tombstones) that arrived ahead of a predecessor.
/// The entry exists only while the stream has windows in flight.
#[derive(Debug, Clone, Default)]
struct StreamOrder {
    /// Admission sequence numbers not yet settled, oldest first.
    outstanding: VecDeque<u64>,
    /// Early arrivals: `(seq, verdict)`, `None` marking a window
    /// dropped by backpressure after later windows were admitted.
    held: Vec<(u64, Option<Verdict>)>,
}

/// The continuous-batching stream multiplexer: `N` shard-owned lane
/// blocks (one unless asked) behind one `submit`/`tick_into`/`drain`
/// front, verdicts bit-identical to serial classification, per-stream
/// delivery in submission order, and — with more than one shard — every
/// loaded shard advanced in parallel on the worker pool.
///
/// See the [module docs](self) for the admission protocol.
#[derive(Debug, Clone)]
pub struct ShardedStreamMux {
    shards: Vec<Shard>,
    /// Per-stream reorder buffers, only for streams with work in
    /// flight.
    order: HashMap<u64, StreamOrder>,
    /// Verdicts released by settling, awaiting the next flush into a
    /// caller's buffer.
    ready: Vec<Verdict>,
    max_pending: usize,
    policy: OverflowPolicy,
    next_seq: u64,
    /// Admitted windows later evicted by `DropOldest` global
    /// backpressure (charged to the stream that lost its window).
    evicted: u64,
    /// Windows refused at admission by `DropNewest` global backpressure
    /// (charged to the submitting stream).
    refused: u64,
    /// Windows refused for out-of-vocabulary tokens, before they can
    /// reach any shard's lane block.
    rejected: u64,
    /// Per-stream breakdown of the three tallies above; only streams
    /// that lost a window hold an entry.
    loss: HashMap<u64, StreamLoss>,
    /// Vocabulary size, cached for admission-time validation.
    vocab: usize,
    started: Instant,
}

impl ShardedStreamMux {
    /// Builds `config.shards` shards (one when left open, and never
    /// zero) around clones of `engine`. `config.lanes` is *per shard*;
    /// `config.max_pending` bounds the *total* pending count across
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics when `config.lanes` is `Some(0)` or `config.max_pending`
    /// is zero.
    pub fn new(engine: CsdInferenceEngine, config: StreamMuxConfig) -> Self {
        assert!(config.max_pending > 0, "max_pending must be positive");
        let shard_count = config.shards.unwrap_or(1).max(1);
        let vocab = engine.weights().dims().vocab;
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                mux: StreamMux::new(engine.clone(), config.lanes),
                out: Vec::new(),
            })
            .collect();
        Self {
            shards,
            order: HashMap::new(),
            ready: Vec::new(),
            max_pending: config.max_pending,
            policy: config.policy,
            next_seq: 0,
            evicted: 0,
            refused: 0,
            rejected: 0,
            loss: HashMap::new(),
            vocab,
            started: Instant::now(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Lane slots per shard (total lanes = `width() * shards()`).
    pub fn width(&self) -> usize {
        self.shards[0].mux.width()
    }

    /// The engine behind shard 0's lanes (all shards run clones of the
    /// same engine — for parity checks and accounting).
    pub fn engine(&self) -> &CsdInferenceEngine {
        self.shards[0].mux.engine()
    }

    /// Windows queued across all shards, not yet occupying lanes.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.mux.pending()).sum()
    }

    /// Windows currently occupying lanes across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.mux.in_flight()).sum()
    }

    /// Whether nothing is queued, in flight, or held for reordering.
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty()
            && self.order.is_empty()
            && self.shards.iter().all(|s| s.mux.is_idle())
    }

    /// The per-stream loss breakdown for `stream`: windows evicted by
    /// [`OverflowPolicy::DropOldest`] backpressure after admission,
    /// refused at admission by [`OverflowPolicy::DropNewest`], or
    /// rejected for out-of-vocabulary tokens.
    pub fn loss_for(&self, stream: u64) -> StreamLoss {
        self.loss.get(&stream).copied().unwrap_or_default()
    }

    /// Drops `stream`'s loss entry and returns it — for a caller whose
    /// stream ids are never reused and that keeps its own total for
    /// retired streams, so the map follows the streams still alive.
    /// The aggregate tallies in [`stats`](Self::stats) are unaffected.
    pub fn forget_stream(&mut self, stream: u64) -> StreamLoss {
        self.loss.remove(&stream).unwrap_or_default()
    }

    /// Arms degraded mode on every shard: each occupied lane draws one
    /// corruption chance per tick ([`FaultPlan::corrupt_lane`]); a
    /// corrupted lane's window is evicted and re-classified through the
    /// serial fused path — bit-identical, so no verdict is lost or
    /// changed, only delayed — and the lane sits out `cooldown_ticks`
    /// ticks before taking new work. Each shard derives an independent
    /// plan from `plan`'s seed so the fault streams decorrelate across
    /// shards while staying a pure function of the original seed.
    pub fn arm_faults(&mut self, plan: FaultPlan, cooldown_ticks: u64) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let seed = plan
                .seed()
                .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            shard
                .mux
                .arm_faults(FaultPlan::new(seed, *plan.config()), cooldown_ticks);
        }
    }

    /// Whether any shard has a fault plan armed.
    pub fn faults_armed(&self) -> bool {
        self.shards.iter().any(|s| s.mux.faults_armed())
    }

    /// Enqueues one window for classification, copying it into a pooled
    /// buffer on the least-loaded shard. Returns `false` when the window
    /// was refused — by backpressure ([`OverflowPolicy::DropNewest`]
    /// with the pending bound reached) or because a token falls outside
    /// the model's vocabulary; under [`OverflowPolicy::DropOldest`] a
    /// full queue evicts its globally oldest window instead and this
    /// window is admitted.
    ///
    /// An out-of-vocabulary window is a *typed rejection, not a panic*:
    /// admitting it would panic the engine mid-tick on a shard thread
    /// and take every co-scheduled stream's windows down with it, so one
    /// misbehaving (or hostile) process is refused at the boundary and
    /// tallied ([`loss_for`](Self::loss_for), [`MuxStats::rejected`]);
    /// every other stream is untouched.
    ///
    /// # Panics
    ///
    /// Panics on an empty window (the engine's contract).
    pub fn submit(&mut self, stream: u64, at_call: usize, window: &[usize]) -> bool {
        assert!(!window.is_empty(), "empty sequence");
        if !window
            .iter()
            .all(|&item| crate::kernels::preprocess::in_vocabulary(self.vocab, item))
        {
            self.rejected += 1;
            self.loss.entry(stream).or_default().rejected += 1;
            return false;
        }
        if self.pending() >= self.max_pending && !self.make_room(stream) {
            return false;
        }
        let target = self.least_loaded();
        let mut buf = self.shards[target].mux.lease_buf();
        buf.clear();
        buf.extend_from_slice(window);
        self.enqueue(target, stream, at_call, buf);
        true
    }

    /// Runs one coordinator round — flush, one tick on every loaded
    /// shard (in parallel when more than one is loaded), settle —
    /// appending released verdicts to `out` and returning how many were
    /// appended.
    pub fn tick_into(&mut self, out: &mut Vec<Verdict>) -> usize {
        let before = out.len();
        self.round(out, 1);
        out.len() - before
    }

    /// Convenience wrapper over [`tick_into`](Self::tick_into).
    pub fn tick(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Serves until idle, appending every released verdict to `out`:
    /// [`serve_into`](Self::serve_into) without a budget.
    pub fn drain_into(&mut self, out: &mut Vec<Verdict>) {
        self.serve_into(out, usize::MAX);
        debug_assert!(self.order.is_empty(), "all in-flight windows settled");
    }

    /// Serves the admitted windows — to their verdicts, the mux idle —
    /// or until `max_rounds` rounds of engine time are spent, appending
    /// every released verdict to `out`.
    ///
    /// One loop, one rule, read off the mux and nothing else. With no
    /// lane active and fewer windows pending than one block holds
    /// (`pending < width`, and a lone window on a one-lane mux), each
    /// classifies serially, alone, through the row-vectorised kernel;
    /// otherwise the lane blocks advance. A partly filled block is never
    /// the cheaper way: a block round costs the same at any occupancy
    /// (5–6 µs at 16 lanes and paper dimensions, 500–600 µs for a
    /// block of 100-step windows), a window alone costs ≈ 29 µs, so `n`
    /// windows break even only at the full block, which is no cheaper
    /// per window than the row kernel (EXPERIMENTS.md rows 21a and 23d:
    /// both share the element-wise kernels, so in one traced pair the
    /// cut that took a window alone from 47.6 to 31.8 µs took a lane of
    /// a full block from 48.7 to 33.1 with it, and the rule stands; the
    /// threshold was `width / 4` while a window alone cost 315–450 µs,
    /// eight lanes' worth). Verdicts are bit-identical either way, so
    /// the choice is invisible in anything but time — and a window that
    /// arrives alone has its verdict at this call instead of `len`
    /// rounds later.
    ///
    /// The budget is in lane rounds, the unit a caller dimensions by
    /// ([`tick_into`](Self::tick_into) is one): a serially classified
    /// window is charged `⌈len / width⌉`, the rounds a full block would
    /// have spent on it, so a budget buys about the same engine time
    /// whichever way the windows go (at one lane, exactly `len` — what
    /// its lane would have taken). A serial window starts while any
    /// budget is left and may overdraw it by its own charge.
    pub fn serve_into(&mut self, out: &mut Vec<Verdict>, max_rounds: usize) {
        let width = self.width();
        let mut budget = max_rounds;
        loop {
            self.flush_ready(out);
            let active = self.in_flight();
            let pending = self.pending();
            if budget == 0 || (active == 0 && pending == 0) {
                break;
            }
            if active == 0 && pending <= (width - 1).max(1) {
                for i in 0..self.shards.len() {
                    let mut buf = std::mem::take(&mut self.shards[i].out);
                    while budget > 0 {
                        let Some(len) = self.shards[i].mux.classify_next_serially(&mut buf) else {
                            break;
                        };
                        budget = budget.saturating_sub(len.div_ceil(width));
                    }
                    self.settle_batch(&mut buf);
                    self.shards[i].out = buf;
                }
                continue;
            }
            let ticks = DRAIN_BURST.min(budget);
            self.round(out, ticks);
            budget -= ticks;
        }
        self.flush_ready(out);
    }

    /// Convenience wrapper over [`drain_into`](Self::drain_into).
    pub fn drain(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Aggregated counters across shards plus the coordinator's loss
    /// tallies. Occupancy is lane-step-weighted
    /// (`Σ occupied / Σ ticks·width`); latency percentiles merge every
    /// shard's recent-retirement samples; `ticks` sums shard ticks
    /// (lane sweeps executed, wherever they ran).
    pub fn stats(&self) -> MuxStats {
        let per: Vec<LaneCounters> = self.shards.iter().map(|s| s.mux.counters()).collect();
        let sum = |field: fn(&LaneCounters) -> u64| per.iter().map(field).sum::<u64>();
        let mut merged: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.mux.latency_samples().iter().copied())
            .collect();
        merged.sort_unstable();
        let pct = |q: f64| -> u64 {
            if merged.is_empty() {
                0
            } else {
                merged[((merged.len() - 1) as f64 * q).round() as usize]
            }
        };
        let ticks = sum(|c| c.ticks);
        let verdicts = sum(|c| c.verdicts);
        let lane_steps = ticks * self.width() as u64;
        MuxStats {
            ticks,
            verdicts,
            dropped: self.evicted + self.refused,
            evicted: self.evicted,
            refused: self.refused,
            rejected: self.rejected,
            occupancy: if lane_steps == 0 {
                0.0
            } else {
                sum(|c| c.occupied_steps) as f64 / lane_steps as f64
            },
            p50_latency_ticks: pct(0.50),
            p99_latency_ticks: pct(0.99),
            verdicts_per_sec: verdicts as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            faults: sum(|c| c.faults),
            degraded_reruns: sum(|c| c.degraded_reruns),
            degraded_ticks: sum(|c| c.degraded_ticks),
            lanes_poisoned: sum(|c| c.lanes_poisoned),
            shards: self.shards.len() as u64,
        }
    }

    /// Assigns the next global sequence number, records it in the
    /// stream's reorder state, and hands the buffer to `target`.
    fn enqueue(&mut self, target: usize, stream: u64, at_call: usize, buf: Vec<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order
            .entry(stream)
            .or_default()
            .outstanding
            .push_back(seq);
        self.shards[target]
            .mux
            .admit_owned(stream, at_call, seq, buf);
    }

    /// Applies the overflow policy when the global pending bound is hit.
    /// Returns whether the incoming window may be admitted.
    fn make_room(&mut self, incoming: u64) -> bool {
        match self.policy {
            OverflowPolicy::DropOldest => {
                // Evict the globally oldest pending window: smallest
                // admission sequence number across shard queue heads.
                let victim = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.mux.oldest_pending_order().map(|o| (o, i)))
                    .min();
                let Some((_, i)) = victim else {
                    // Nothing pending anywhere (the bound was consumed
                    // by in-flight work): admit.
                    return true;
                };
                // The victim was selected for having pending work, but a
                // miss must not panic the coordinator — just admit.
                let Some((stream, seq)) = self.shards[i].mux.evict_oldest_pending() else {
                    return true;
                };
                self.evicted += 1;
                self.loss.entry(stream).or_default().evicted += 1;
                // A tombstone settles the dropped seq so later verdicts
                // of the stream are not held forever.
                self.settle(stream, seq, None);
                true
            }
            OverflowPolicy::DropNewest => {
                self.refused += 1;
                self.loss.entry(incoming).or_default().refused += 1;
                false
            }
        }
    }

    /// The shard to route the next admission to: least (pending +
    /// in-flight), ties to the lowest index — deterministic.
    fn least_loaded(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.mux.pending() + s.mux.in_flight(), *i))
            .map(|(i, _)| i)
            .expect("at least one shard")
    }

    /// One coordinator round: flush released verdicts, advance every
    /// loaded shard `ticks` ticks, settle the retirements, flush again.
    fn round(&mut self, out: &mut Vec<Verdict>, ticks: usize) {
        self.flush_ready(out);
        let loaded = self.shards.iter().filter(|s| !s.mux.is_idle()).count();
        if loaded > 1 && WorkerPool::global().threads() > 1 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = self
                .shards
                .iter_mut()
                .filter(|s| !s.mux.is_idle())
                .map(|s| {
                    let Shard { mux, out } = s;
                    Box::new(move || Self::advance(mux, out, ticks))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            WorkerPool::global().scatter_scoped(jobs);
        } else if loaded > 0 {
            for s in self.shards.iter_mut().filter(|s| !s.mux.is_idle()) {
                Self::advance(&mut s.mux, &mut s.out, ticks);
            }
        }
        for i in 0..self.shards.len() {
            let mut buf = std::mem::take(&mut self.shards[i].out);
            self.settle_batch(&mut buf);
            self.shards[i].out = buf;
        }
        self.flush_ready(out);
    }

    /// Advances one shard up to `ticks` ticks (stopping early if it
    /// goes idle), collecting retirements into its out-buffer.
    fn advance(mux: &mut StreamMux, out: &mut Vec<Verdict>, ticks: usize) {
        for _ in 0..ticks {
            if mux.is_idle() {
                break;
            }
            mux.tick_into(out);
        }
    }

    /// Settles a batch of shard retirements, draining `buf`.
    fn settle_batch(&mut self, buf: &mut Vec<Verdict>) {
        for v in buf.drain(..) {
            self.settle(v.stream, v.seq, Some(v));
        }
    }

    /// Settles one sequence number of one stream — a verdict, or `None`
    /// for a backpressure drop. In-order arrivals release immediately
    /// (plus any held successors they unblock); early arrivals are held
    /// until their predecessors settle.
    fn settle(&mut self, stream: u64, seq: u64, verdict: Option<Verdict>) {
        use std::collections::hash_map::Entry;
        let Entry::Occupied(mut entry) = self.order.entry(stream) else {
            debug_assert!(false, "settle for a stream with no reorder state");
            self.ready.extend(verdict);
            return;
        };
        let state = entry.get_mut();
        if state.outstanding.front() != Some(&seq) {
            state.held.push((seq, verdict));
            return;
        }
        state.outstanding.pop_front();
        self.ready.extend(verdict);
        // Release any held successors that are now at the front.
        while let Some(&front) = state.outstanding.front() {
            let Some(pos) = state.held.iter().position(|&(s, _)| s == front) else {
                break;
            };
            let (_, held) = state.held.swap_remove(pos);
            state.outstanding.pop_front();
            self.ready.extend(held);
        }
        if state.outstanding.is_empty() {
            debug_assert!(state.held.is_empty(), "held without outstanding");
            entry.remove();
        }
    }

    /// Appends every released verdict to `out`.
    fn flush_ready(&mut self, out: &mut Vec<Verdict>) {
        out.append(&mut self.ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptimizationLevel;
    use crate::weights::LANE_MAX_STEPS;
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

    fn sharded(e: CsdInferenceEngine, shards: usize, lanes: usize) -> ShardedStreamMux {
        ShardedStreamMux::new(
            e,
            StreamMuxConfig {
                lanes: Some(lanes),
                shards: Some(shards),
                ..StreamMuxConfig::default()
            },
        )
    }

    /// Each shard's verdict count, read off its lane block.
    fn verdicts_per_shard(mux: &ShardedStreamMux) -> Vec<u64> {
        mux.shards
            .iter()
            .map(|s| s.mux.counters().verdicts)
            .collect()
    }

    #[test]
    fn one_shard_unless_asked_and_never_zero() {
        let count = |shards: Option<usize>| {
            let config = StreamMuxConfig {
                shards,
                ..StreamMuxConfig::default()
            };
            ShardedStreamMux::new(engine(1), config).shards()
        };
        assert_eq!(count(None), 1, "the default is one shard");
        assert_eq!(count(Some(3)), 3, "an explicit count is honoured");
        assert_eq!(count(Some(0)), 1, "never zero");
    }

    #[test]
    fn sharded_verdicts_bit_identical_to_serial_at_every_shard_count() {
        let e = engine(7);
        let windows: Vec<Vec<usize>> = (0..17).map(|k| seq(3 + (k * 13) % 40, k)).collect();
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        for shards in [1usize, 2, 3, 4] {
            let mut mux = sharded(e.clone(), shards, 2);
            let mut verdicts = Vec::new();
            for (k, w) in windows.iter().enumerate() {
                mux.submit(k as u64, k, w);
                if k % 3 == 0 {
                    mux.tick_into(&mut verdicts);
                }
            }
            mux.drain_into(&mut verdicts);
            assert!(mux.is_idle());
            assert_eq!(verdicts.len(), windows.len(), "{shards} shards");
            for v in &verdicts {
                assert_eq!(
                    v.classification, serial[v.stream as usize],
                    "{shards} shards, stream {}",
                    v.stream
                );
            }
        }
    }

    #[test]
    fn one_shard_verdicts_match_serial_classify_at_every_level() {
        // Paper dimensions: the float levels and the fixed-point pack
        // take different lane kernels.
        let weights = ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 21));
        for level in OptimizationLevel::ALL {
            let e = CsdInferenceEngine::new(&weights, level);
            let mut mux = sharded(e.clone(), 1, 4);
            let windows: Vec<Vec<usize>> = (0..11usize)
                .map(|k| {
                    (0..5 + k * 9 % 60)
                        .map(|i| (i * 37 + 11 + k * 29) % 278)
                        .collect()
                })
                .collect();
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w));
            }
            let verdicts = mux.drain();
            assert_eq!(verdicts.len(), windows.len(), "{level}");
            for v in &verdicts {
                assert_eq!(
                    v.classification,
                    e.classify(&windows[v.stream as usize]),
                    "{level} stream {}",
                    v.stream
                );
            }
            assert!(mux.is_idle());
        }
    }

    #[test]
    fn interleaved_submission_and_ticks_match_serial() {
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1, 3);
        let windows: Vec<Vec<usize>> = (0..9).map(|k| seq(4 + (k * 13) % 40, k)).collect();
        let mut verdicts = Vec::new();
        for (k, w) in windows.iter().enumerate() {
            mux.submit(k as u64, k, w);
            // Advance a few ticks mid-stream: admission interleaves with
            // retirement.
            for _ in 0..k % 4 {
                mux.tick_into(&mut verdicts);
            }
        }
        mux.drain_into(&mut verdicts);
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            assert_eq!(v.classification, e.classify(&windows[v.stream as usize]));
        }
    }

    #[test]
    fn same_tick_refill_keeps_slots_busy() {
        // 4 equal-length windows through 2 lanes: generation two starts
        // the tick after generation one retires, so the whole batch takes
        // 2·len ticks, not 2·len + idle gaps.
        let mut mux = sharded(engine(21), 1, 2);
        let len = 10;
        for k in 0..4u64 {
            mux.submit(k, 0, &seq(len, k as usize));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 4);
        let stats = mux.stats();
        assert_eq!(stats.ticks, 2 * len as u64);
        assert!((stats.occupancy - 1.0).abs() < 1e-12, "no idle lane-steps");
        // First generation retires at tick len, second at 2·len.
        assert_eq!(verdicts[0].latency_ticks, len as u64);
        assert_eq!(verdicts[3].latency_ticks, 2 * len as u64);
    }

    #[test]
    fn retirement_order_is_fifo_for_equal_lengths() {
        let mut mux = sharded(engine(21), 1, 2);
        for k in 0..6u64 {
            mux.submit(k, k as usize, &seq(8, k as usize));
        }
        let verdicts = mux.drain();
        let order: Vec<u64> = verdicts.iter().map(|v| v.stream).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn tick_on_idle_mux_is_noop() {
        let mut mux = sharded(engine(21), 1, 2);
        assert!(mux.tick().is_empty());
        assert_eq!(mux.stats().ticks, 0);
    }

    #[test]
    fn serve_classifies_less_than_a_block_serially_and_charges_it_in_rounds() {
        let e = engine(21);
        let windows: Vec<Vec<usize>> = (0..16).map(|k| seq(100, k)).collect();
        // Fifteen windows on sixteen lanes: no lane round. Each is
        // charged ⌈100 / 16⌉ = 7 rounds, so a 64-round budget serves
        // nine in full and starts a tenth.
        let mut mux = sharded(e.clone(), 1, 16);
        for (k, w) in windows.iter().take(15).enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let mut out = Vec::new();
        mux.serve_into(&mut out, 64);
        assert_eq!(out.len(), 10);
        assert_eq!((mux.pending(), mux.in_flight()), (5, 0));
        assert_eq!(mux.stats().ticks, 0);
        for v in &out {
            assert_eq!(v.classification, e.classify(&windows[v.stream as usize]));
        }
        // A block's worth goes through the block, under the same budget.
        let mut mux = sharded(e.clone(), 1, 16);
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        mux.serve_into(&mut out, 64);
        assert_eq!((mux.pending(), mux.in_flight()), (0, 16));
        assert_eq!(mux.stats().ticks, 64);
        // One lane: a lone window classifies serially (charged its
        // length, what its lane would have taken); two are a backlog.
        let mut mux = sharded(e, 1, 1);
        mux.submit(0, 0, &windows[0]);
        mux.serve_into(&mut out, 64);
        assert!(mux.is_idle());
        assert_eq!(mux.stats().ticks, 0);
        mux.submit(0, 0, &windows[0]);
        mux.submit(1, 1, &windows[1]);
        mux.serve_into(&mut out, 64);
        assert_eq!((mux.pending(), mux.in_flight()), (1, 1));
        assert_eq!(mux.stats().ticks, 64);
    }

    #[test]
    fn overlong_windows_take_the_serial_route() {
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1, 2);
        let long: Vec<usize> = (0..LANE_MAX_STEPS + 1).map(|i| i % 16).collect();
        let short = seq(9, 3);
        mux.submit(0, 0, &long);
        mux.submit(1, 1, &short);
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 2);
        for v in &verdicts {
            let expect = if v.stream == 0 {
                e.classify(&long)
            } else {
                e.classify(&short)
            };
            assert_eq!(v.classification, expect);
        }
    }

    #[test]
    fn stats_track_occupancy_and_latency() {
        let mut mux = sharded(engine(21), 1, 4);
        for k in 0..4u64 {
            mux.submit(k, 0, &seq(12, k as usize));
        }
        let _ = mux.drain();
        let s = mux.stats();
        assert_eq!(s.verdicts, 4);
        assert_eq!(s.ticks, 12);
        assert!((s.occupancy - 1.0).abs() < 1e-12);
        assert_eq!(s.p50_latency_ticks, 12);
        assert_eq!(s.p99_latency_ticks, 12);
        assert!(s.verdicts_per_sec > 0.0);
    }

    #[test]
    fn faulty_mux_never_loses_or_changes_a_verdict() {
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1, 4);
        mux.arm_faults(FaultPlan::new(42, FaultConfig::uniform(0.2)), 3);
        assert!(mux.faults_armed());
        let windows: Vec<Vec<usize>> = (0..16).map(|k| seq(6 + (k * 11) % 50, k)).collect();
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len(), "no verdict lost");
        for v in &verdicts {
            assert_eq!(
                v.classification,
                e.classify(&windows[v.stream as usize]),
                "stream {}",
                v.stream
            );
        }
        let s = mux.stats();
        assert!(s.faults > 0, "rate 0.2 over dozens of lane-ticks must hit");
        assert_eq!(s.degraded_reruns, s.faults);
        assert!(s.degraded_ticks > 0);
        assert_eq!(s.dropped, 0, "faults delay, they never drop");
        assert!(mux.is_idle());
    }

    #[test]
    fn corrupted_lane_is_benched_for_the_cooldown_then_readmitted() {
        let e = engine(21);
        let mut mux = sharded(e.clone(), 1, 1);
        let cfg = FaultConfig {
            corruption: 1.0,
            ..FaultConfig::none()
        };
        mux.arm_faults(FaultPlan::new(1, cfg), 5);
        let w0 = seq(3, 0);
        let w1 = seq(3, 1);
        mux.submit(0, 0, &w0);
        mux.submit(1, 1, &w1);
        // First tick: the lane corrupts on its first sweep; the window
        // reruns serially (verdict intact) and the lane is benched.
        let first = mux.tick();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].classification, e.classify(&w0));
        assert_eq!(mux.stats().lanes_poisoned, 1);
        // Cooldown: ticks pass with no lane able to take the pending
        // window — the progress guarantee keeps time moving.
        let mut ticks_benched = 0;
        let second = loop {
            let out = mux.tick();
            if !out.is_empty() {
                break out;
            }
            ticks_benched += 1;
            assert!(ticks_benched < 20, "cooldown must expire");
        };
        assert!(
            ticks_benched >= 4,
            "lane benched, saw {ticks_benched} idle ticks"
        );
        assert_eq!(second[0].classification, e.classify(&w1));
        let s = mux.stats();
        assert_eq!(s.faults, 2);
        assert_eq!(s.degraded_reruns, 2);
        assert!(s.degraded_ticks >= 5);
        assert!(mux.is_idle());
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_window_rejected() {
        let mut mux = sharded(engine(21), 1, 2);
        mux.submit(0, 0, &[]);
    }

    #[test]
    fn per_stream_verdicts_arrive_in_submission_order() {
        // One stream's windows are deliberately ragged — a long window
        // followed by short ones — so shards would retire them out of
        // order without the reorder buffer.
        let e = engine(3);
        let mut mux = sharded(e, 4, 1);
        let lens = [60usize, 4, 30, 5, 12, 4, 40, 6];
        for (k, &n) in lens.iter().enumerate() {
            mux.submit(9, k, &seq(n, k));
            mux.submit(k as u64 + 100, k, &seq(n / 2 + 2, k + 50));
        }
        let verdicts = mux.drain();
        let stream9: Vec<usize> = verdicts
            .iter()
            .filter(|v| v.stream == 9)
            .map(|v| v.at_call)
            .collect();
        assert_eq!(stream9, (0..lens.len()).collect::<Vec<_>>());
        // And seq numbers are strictly increasing per stream.
        let seqs: Vec<u64> = verdicts
            .iter()
            .filter(|v| v.stream == 9)
            .map(|v| v.seq)
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn global_backpressure_drops_oldest_at_one_shard_and_across_shards() {
        for shards in [1usize, 2] {
            let mut mux = ShardedStreamMux::new(
                engine(2),
                StreamMuxConfig {
                    lanes: Some(1),
                    max_pending: 3,
                    policy: OverflowPolicy::DropOldest,
                    shards: Some(shards),
                },
            );
            for k in 0..8u64 {
                // DropOldest always admits: the oldest pending window is
                // evicted to make room. Nothing occupies a lane until the
                // first tick, so 5 of the 8 are evicted and 3 survive.
                assert!(mux.submit(k, k as usize, &seq(6, k as usize)));
            }
            assert_eq!(mux.pending(), 3, "{shards} shards: the bound holds");
            let stats = mux.stats();
            assert_eq!(stats.dropped, 5, "8 submitted, bound 3 → 5 evicted");
            assert_eq!(stats.evicted, 5, "DropOldest losses are evictions");
            assert_eq!(stats.refused, 0);
            let mut kept: Vec<u64> = mux.drain().iter().map(|v| v.stream).collect();
            // The survivors are the newest three (at one shard they also
            // retire in submission order); the evicted ones are charged
            // to the streams that lost them, not to the submitters.
            if shards == 1 {
                assert_eq!(kept, vec![5, 6, 7]);
            }
            kept.sort_unstable();
            assert_eq!(kept, vec![5, 6, 7], "{shards} shards: oldest five evicted");
            for k in 0..8u64 {
                let lost = u64::from(k < 5);
                assert_eq!(
                    mux.loss_for(k),
                    StreamLoss {
                        evicted: lost,
                        refused: 0,
                        rejected: 0
                    },
                    "{shards} shards, stream {k}"
                );
                assert_eq!(mux.loss_for(k).dropped(), lost);
            }
            assert_eq!(mux.loss_for(99), StreamLoss::default(), "untracked stream");
            // Forgetting a stream hands its entry back exactly once and
            // leaves the aggregate alone.
            assert_eq!(mux.forget_stream(0).evicted, 1);
            assert_eq!(mux.forget_stream(0), StreamLoss::default());
            assert_eq!(mux.loss_for(0), StreamLoss::default());
            assert_eq!(mux.stats().evicted, 5);
        }
    }

    #[test]
    fn drop_newest_refuses_and_charges_the_submitter() {
        for shards in [1usize, 2] {
            let mut mux = ShardedStreamMux::new(
                engine(2),
                StreamMuxConfig {
                    lanes: Some(1),
                    max_pending: 1,
                    policy: OverflowPolicy::DropNewest,
                    shards: Some(shards),
                },
            );
            // The first submit queues as pending; the tick moves it into a
            // lane, freeing the pending bound for one more.
            assert!(mux.submit(0, 0, &seq(6, 0)));
            // Bound is 1: the second submit already exceeds it and, under
            // DropNewest, is refused and charged to its own stream.
            assert!(!mux.submit(1, 1, &seq(6, 1)));
            assert_eq!(mux.loss_for(1).dropped(), 1);
            let _ = mux.tick();
            assert!(mux.submit(2, 2, &seq(6, 2)));
            assert!(!mux.submit(3, 3, &seq(6, 3)), "bound hit, newest refused");
            let mut kept: Vec<u64> = mux.drain().iter().map(|v| v.stream).collect();
            kept.sort_unstable();
            assert_eq!(kept, vec![0, 2], "the queue stayed intact");
            assert_eq!(mux.stats().dropped, 2);
            assert_eq!(mux.stats().refused, 2, "DropNewest losses are refusals");
            assert_eq!(mux.stats().evicted, 0);
            for refused in [1u64, 3] {
                assert_eq!(
                    mux.loss_for(refused),
                    StreamLoss {
                        evicted: 0,
                        refused: 1,
                        rejected: 0
                    },
                    "{shards} shards: submitter {refused} charged"
                );
            }
            assert_eq!(mux.loss_for(0).total(), 0, "admitted streams lose nothing");
        }
    }

    #[test]
    fn aggregated_stats_sum_shards() {
        let e = engine(5);
        let mut mux = sharded(e, 2, 1);
        for k in 0..12u64 {
            let n = if k % 2 == 0 { 50 } else { 3 };
            mux.submit(k, k as usize, &seq(n, k as usize));
        }
        let _ = mux.drain();
        let agg = mux.stats();
        assert_eq!(agg.shards, 2);
        assert_eq!(agg.verdicts, verdicts_per_shard(&mux).iter().sum::<u64>());
        assert_eq!(
            agg.ticks,
            mux.shards
                .iter()
                .map(|s| s.mux.counters().ticks)
                .sum::<u64>()
        );
        // Least-loaded routing spread the admissions: both shards ran.
        for (i, retired) in verdicts_per_shard(&mux).into_iter().enumerate() {
            assert!(retired > 0, "shard {i} retired nothing");
        }
        assert!(agg.occupancy > 0.0 && agg.occupancy <= 1.0);
        assert!(agg.p50_latency_ticks <= agg.p99_latency_ticks);
    }

    #[test]
    fn oov_windows_rejected_not_a_panic_at_every_shard_count() {
        // Regression: an out-of-vocabulary token admitted to any shard
        // would panic that shard's lane block mid-scatter and poison
        // the whole coordinator round. `submit` refuses it with a typed
        // per-stream tally, and clean streams classify bit-identically.
        let e = engine(7); // tiny(16): vocabulary is 0..=15
        let windows: Vec<Vec<usize>> = (0..9).map(|k| seq(3 + (k * 13) % 30, k)).collect();
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        for shards in [1usize, 2, 3] {
            let mut mux = sharded(e.clone(), shards, 2);
            let mut bad = seq(10, 1);
            bad[5] = 16;
            assert!(!mux.submit(50, 0, &bad), "{shards} shards: OOV refused");
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w));
            }
            assert!(!mux.submit(51, 1, &[9, 99, 9]));
            assert!(!mux.submit(51, 2, &[usize::MAX]), "extreme token refused");
            let verdicts = mux.drain();
            assert_eq!(verdicts.len(), windows.len(), "{shards} shards");
            for v in &verdicts {
                assert_eq!(v.classification, serial[v.stream as usize]);
            }
            assert_eq!(mux.loss_for(50).rejected, 1);
            assert_eq!(mux.loss_for(51).rejected, 2);
            assert_eq!(mux.loss_for(0).rejected, 0);
            let stats = mux.stats();
            assert_eq!(stats.rejected, 3, "{shards} shards");
            assert_eq!(stats.dropped, 0, "rejection is not backpressure");
            assert_eq!(mux.loss_for(51).dropped(), 0);
            assert!(mux.is_idle());
        }
    }
}
