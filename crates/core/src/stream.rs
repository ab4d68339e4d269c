//! The stream multiplexer's vocabulary types and its continuous-batching
//! lane block.
//!
//! The paper's deployment is *continuous* monitoring of many concurrent
//! API-call streams (§I "execute the classifier continuously in the
//! background"; §II's data-center host runs thousands of processes). The
//! serial [`StreamMonitor`](crate::monitor::StreamMonitor) classifies one
//! full window per completed stride — fine for one stream, but a fleet of
//! processes turns that into thousands of independent serial `classify`
//! calls with no shared admission, backpressure or ordering.
//!
//! The mux's lane block is *iteration-level* (continuous) batching,
//! the scheduling idea behind Orca-style LLM serving applied to LSTM
//! windows: a fixed block of `W` lane slots advances all in-flight
//! windows one timestep per tick through the engine's crate-private
//! `step_lanes`; a window that consumes its last item retires within the
//! tick (`retire_lane` — the FC head), and its slot is refilled from the
//! pending queue *in the same tick*, so slots never idle waiting for a
//! batch barrier. (The block is the lane axis's only user; whether it
//! earns its place under the mux is ROADMAP direction 2 A, and
//! EXPERIMENTS.md row 24b has the reading per level.) Every verdict
//! is bit-identical to serial
//! [`classify`](crate::engine::CsdInferenceEngine::classify) of the same
//! window — the lane-stepping contract — so going online changes nothing
//! observable except throughput.
//!
//! The mux API is [`ShardedStreamMux`](crate::shard::ShardedStreamMux),
//! the coordinator in [`shard`](crate::shard): it owns admission —
//! backpressure and its [`OverflowPolicy`], the vocabulary boundary,
//! sequence numbering, per-stream [`StreamLoss`] accounting — and builds
//! [`MuxStats`]. This module holds the types that API speaks
//! ([`StreamMuxConfig`], [`Verdict`], [`MuxStats`], [`StreamLoss`]) and
//! the crate-private lane block each shard runs: lanes, same-tick refill,
//! the serial route, fault poisoning and a FIFO pending deque, handed
//! validated, numbered, owned buffers by the coordinator.

#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;

use csd_device::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::engine::{Classification, CsdInferenceEngine};
use crate::scratch::{EngineScratch, LaneScratch};
use crate::weights::LANE_MAX_STEPS;

/// What [`ShardedStreamMux::submit`](crate::shard::ShardedStreamMux::submit)
/// does when the pending queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Evict the oldest pending window to admit the new one — the
    /// freshest data wins (default: stale windows age out under
    /// overload, recent behaviour keeps being classified).
    DropOldest,
    /// Refuse the new window, keeping the queue intact.
    DropNewest,
}

/// Configuration for a
/// [`ShardedStreamMux`](crate::shard::ShardedStreamMux).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamMuxConfig {
    /// Number of lane slots `W` per shard. `None` resolves to the
    /// engine's cache-derived width (16 at the paper's dimensions).
    pub lanes: Option<usize>,
    /// Bound on the pending-window queue, summed across shards;
    /// [`OverflowPolicy`] applies beyond it.
    pub max_pending: usize,
    /// What to do when `max_pending` is reached.
    pub policy: OverflowPolicy,
    /// Shard count. `None` is one shard, run inline on the caller's
    /// thread; `Some(n)` splits the lanes into `n` blocks advanced in
    /// parallel on the worker pool, which pays only where each shard
    /// has a free core and enough admitted windows to fill its lanes.
    #[serde(default)]
    pub shards: Option<usize>,
}

impl Default for StreamMuxConfig {
    fn default() -> Self {
        Self {
            lanes: None,
            max_pending: 4096,
            policy: OverflowPolicy::DropOldest,
            shards: None,
        }
    }
}

/// One retired window's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The stream (process) id the window came from.
    pub stream: u64,
    /// Caller-supplied position tag (the call index that completed the
    /// window, for monitors).
    pub at_call: usize,
    /// The classification — bit-identical to serial `classify` of the
    /// same window.
    pub classification: Classification,
    /// Ticks from submission to retirement (queue wait + compute).
    pub latency_ticks: u64,
    /// Admission sequence number, assigned by the mux at `submit` and
    /// strictly increasing in submission order (so each stream's own
    /// verdicts carry an increasing subsequence). The sharded mux uses
    /// it to deliver per-stream verdicts in submission order no matter
    /// which shard ran the window.
    #[serde(default)]
    pub seq: u64,
}

/// A snapshot of the multiplexer's tick-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MuxStats {
    /// Lane-sweep ticks executed.
    pub ticks: u64,
    /// Windows retired (verdicts emitted).
    pub verdicts: u64,
    /// Windows dropped by backpressure — the sum of
    /// [`evicted`](Self::evicted) and [`refused`](Self::refused), kept
    /// as the historical aggregate so old snapshots stay comparable.
    pub dropped: u64,
    /// Windows evicted *after admission*: the queue was full under
    /// [`OverflowPolicy::DropOldest`] and the oldest pending window was
    /// discarded to make room for a newer one. Charged to the stream
    /// that lost its window, not the one that submitted.
    #[serde(default)]
    pub evicted: u64,
    /// Windows refused *at submission*: the queue was full under
    /// [`OverflowPolicy::DropNewest`] and the incoming window was turned
    /// away. Charged to the submitting stream.
    #[serde(default)]
    pub refused: u64,
    /// Windows refused at submission for out-of-vocabulary tokens — a
    /// typed rejection at the admission boundary, never a panic inside
    /// a shared lane block. Distinct from backpressure: rejection means
    /// the *data* was unclassifiable, not that the mux was overloaded.
    #[serde(default)]
    pub rejected: u64,
    /// Mean fraction of lane slots occupied per tick (1.0 = every sweep
    /// fully utilized).
    pub occupancy: f64,
    /// Median submission-to-verdict latency in ticks, over the most
    /// recent window of verdicts.
    pub p50_latency_ticks: u64,
    /// 99th-percentile submission-to-verdict latency in ticks, over the
    /// most recent window of verdicts.
    pub p99_latency_ticks: u64,
    /// Verdicts per wall-clock second since the mux was created.
    pub verdicts_per_sec: f64,
    /// Lane-corruption faults injected by an armed
    /// [`FaultPlan`] (degraded mode; 0 when no plan is armed).
    pub faults: u64,
    /// Windows evicted from a corrupted lane and re-classified through
    /// the serial fused path — every one still produced its verdict.
    pub degraded_reruns: u64,
    /// Ticks that ran (or idled forward) with at least one lane
    /// poisoned.
    pub degraded_ticks: u64,
    /// Lanes currently poisoned (out of service awaiting cooldown).
    pub lanes_poisoned: u64,
    /// Shards aggregated into this snapshot.
    #[serde(default = "MuxStats::one_shard")]
    pub shards: u64,
}

impl MuxStats {
    /// Serde default for [`shards`](Self::shards): historical snapshots
    /// predate sharding and were all single-mux.
    fn one_shard() -> u64 {
        1
    }
}

/// Per-stream submission-loss breakdown: every way a stream's windows
/// can fail to produce a verdict, separately countable so a monitor (or
/// the sentry service) can report *why* a process lost coverage — was
/// its data garbage, was it overload eviction, or was it turned away at
/// the door.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamLoss {
    /// Admitted windows of this stream later evicted by
    /// [`OverflowPolicy::DropOldest`] backpressure.
    pub evicted: u64,
    /// Windows refused at submission by [`OverflowPolicy::DropNewest`]
    /// backpressure.
    pub refused: u64,
    /// Windows refused at submission for out-of-vocabulary tokens.
    pub rejected: u64,
}

impl StreamLoss {
    /// Total windows of the stream that never produced a verdict.
    pub fn total(&self) -> u64 {
        self.evicted + self.refused + self.rejected
    }

    /// Backpressure losses only (evicted + refused), matching the
    /// historical `dropped` aggregate.
    pub fn dropped(&self) -> u64 {
        self.evicted + self.refused
    }
}

/// A window travelling through the mux: pending (`pos == 0`, queued) or
/// active (occupying a lane at item `pos`).
#[derive(Debug, Clone)]
struct Window {
    stream: u64,
    at_call: usize,
    seq: Vec<usize>,
    pos: usize,
    enqueued_tick: u64,
    /// Admission sequence number (see [`Verdict::seq`]).
    order: u64,
}

/// Verdict latencies kept for percentile stats (a ring of the most
/// recent retirements, so long-running muxes stay bounded).
const LATENCY_RING: usize = 4096;

/// One lane block's raw tallies; the coordinator sums them across
/// shards into [`MuxStats`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneCounters {
    pub(crate) ticks: u64,
    pub(crate) verdicts: u64,
    /// Lane-steps that advanced a window (of `ticks · width` swept).
    pub(crate) occupied_steps: u64,
    pub(crate) faults: u64,
    pub(crate) degraded_reruns: u64,
    pub(crate) degraded_ticks: u64,
    pub(crate) lanes_poisoned: u64,
}

/// One shard's continuous-batching lane block.
///
/// See the [module docs](self) for the scheduling model. The
/// coordinator ([`ShardedStreamMux`](crate::shard::ShardedStreamMux))
/// is the only caller: it validates, numbers and bounds windows, then
/// hands each one over as an owned buffer
/// ([`admit_owned`](Self::admit_owned)); buffers recycle through
/// retirements ([`lease_buf`](Self::lease_buf)), so the steady state
/// allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct StreamMux {
    engine: CsdInferenceEngine,
    width: usize,
    scratch: LaneScratch,
    serial_scratch: EngineScratch,
    /// Per-lane occupancy.
    slots: Vec<Option<Window>>,
    /// Reused per-tick gather argument for `step_lanes`.
    items: Vec<Option<usize>>,
    pending: VecDeque<Window>,
    free_bufs: Vec<Vec<usize>>,
    /// Whether the engine's lane-stepping path is available; when not,
    /// every window takes the (bit-identical) serial path.
    lane_ok: bool,
    active: usize,
    ticks: u64,
    verdicts: u64,
    occupied_steps: u64,
    latencies: Vec<u64>,
    lat_next: usize,
    /// Armed fault plan: each occupied lane draws one lane-corruption
    /// chance per tick. `None` = fault-free (zero overhead).
    faults: Option<FaultPlan>,
    /// Ticks a poisoned lane sits out before re-admission.
    lane_cooldown: u64,
    /// Per-lane poison state: `Some(t)` keeps the lane out of service
    /// until tick `t`.
    poisoned: Vec<Option<u64>>,
    fault_events: u64,
    degraded_reruns: u64,
    degraded_ticks: u64,
}

impl StreamMux {
    /// Builds a lane block of `lanes` slots around `engine` (`None`
    /// resolves to the engine's cache-derived
    /// [`lane_width`](CsdInferenceEngine::lane_width)).
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is `Some(0)`.
    pub(crate) fn new(engine: CsdInferenceEngine, lanes: Option<usize>) -> Self {
        let width = lanes.unwrap_or_else(|| engine.lane_width());
        assert!(width > 0, "a stream mux needs at least one lane");
        let scratch = LaneScratch::new(engine.weights().dims(), width);
        let serial_scratch = engine.make_scratch();
        let lane_ok = engine.supports_lane_stepping();
        Self {
            engine,
            width,
            scratch,
            serial_scratch,
            slots: (0..width).map(|_| None).collect(),
            items: vec![None; width],
            pending: VecDeque::new(),
            free_bufs: Vec::new(),
            lane_ok,
            active: 0,
            ticks: 0,
            verdicts: 0,
            occupied_steps: 0,
            latencies: Vec::with_capacity(LATENCY_RING),
            lat_next: 0,
            faults: None,
            lane_cooldown: 0,
            poisoned: vec![None; width],
            fault_events: 0,
            degraded_reruns: 0,
            degraded_ticks: 0,
        }
    }

    /// Arms degraded mode: each occupied lane draws one corruption
    /// chance per tick from `plan` ([`FaultPlan::corrupt_lane`]). A
    /// corrupted lane's window is evicted and re-classified through the
    /// serial fused path — bit-identical, so no verdict is lost or
    /// changed, only delayed — and the lane sits out `cooldown_ticks`
    /// ticks before taking new work.
    pub(crate) fn arm_faults(&mut self, plan: FaultPlan, cooldown_ticks: u64) {
        self.faults = Some(plan);
        self.lane_cooldown = cooldown_ticks;
    }

    /// Whether a fault plan is armed.
    pub(crate) fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// Number of lane slots.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Windows queued but not yet occupying a lane.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Windows currently occupying lanes.
    pub(crate) fn in_flight(&self) -> usize {
        self.active
    }

    /// Whether no window is queued or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.in_flight() == 0 && self.pending.is_empty()
    }

    /// The engine behind the lanes (for parity checks and accounting).
    pub(crate) fn engine(&self) -> &CsdInferenceEngine {
        &self.engine
    }

    /// The block's raw tallies.
    pub(crate) fn counters(&self) -> LaneCounters {
        LaneCounters {
            ticks: self.ticks,
            verdicts: self.verdicts,
            occupied_steps: self.occupied_steps,
            faults: self.fault_events,
            degraded_reruns: self.degraded_reruns,
            degraded_ticks: self.degraded_ticks,
            lanes_poisoned: self.poisoned.iter().filter(|p| p.is_some()).count() as u64,
        }
    }

    /// The retained latency samples (most recent retirements, in ticks),
    /// for the coordinator's percentile merge.
    pub(crate) fn latency_samples(&self) -> &[u64] {
        &self.latencies
    }

    /// Admits an already-pooled buffer as a pending window. The
    /// coordinator has validated its vocabulary, applied backpressure
    /// and assigned `order` from its global counter before routing here.
    pub(crate) fn admit_owned(&mut self, stream: u64, at_call: usize, order: u64, seq: Vec<usize>) {
        debug_assert!(!seq.is_empty(), "empty sequence");
        debug_assert!(
            seq.iter().all(|&item| {
                crate::kernels::preprocess::in_vocabulary(self.engine.weights().dims().vocab, item)
            }),
            "caller validated vocabulary before routing"
        );
        self.pending.push_back(Window {
            stream,
            at_call,
            seq,
            pos: 0,
            enqueued_tick: self.ticks,
            order,
        });
    }

    /// Hands out a pooled buffer (possibly dirty — callers clear it) so
    /// window payloads recycle inside the shard that will retire them.
    pub(crate) fn lease_buf(&mut self) -> Vec<usize> {
        self.free_bufs.pop().unwrap_or_default()
    }

    /// Evicts the oldest pending window (for coordinator-level
    /// [`OverflowPolicy::DropOldest`]), recycling its buffer and
    /// returning its `(stream, seq)` identity — the *caller* does the
    /// drop accounting.
    pub(crate) fn evict_oldest_pending(&mut self) -> Option<(u64, u64)> {
        let window = self.pending.pop_front()?;
        let identity = (window.stream, window.order);
        self.free_bufs.push(window.seq);
        Some(identity)
    }

    /// Admission sequence number of the oldest pending window, if any.
    pub(crate) fn oldest_pending_order(&self) -> Option<u64> {
        self.pending.front().map(|w| w.order)
    }

    /// Classifies the oldest pending window through the serial path —
    /// the coordinator's route for windows too few to fill a block — and
    /// returns its length, or `None` with nothing pending.
    pub(crate) fn classify_next_serially(&mut self, out: &mut Vec<Verdict>) -> Option<usize> {
        let window = self.pending.pop_front()?;
        let len = window.seq.len();
        self.classify_serial(window, out);
        Some(len)
    }

    /// Classifies a window through the serial path and emits its verdict
    /// — the route for windows the lane path cannot take, for a corrupted
    /// lane's re-run and for windows too few to fill a block.
    fn classify_serial(&mut self, window: Window, out: &mut Vec<Verdict>) {
        let c = self
            .engine
            .classify_with_scratch(&window.seq, &mut self.serial_scratch);
        self.emit(window, c, out);
    }

    /// Records one verdict and recycles the window's buffer.
    fn emit(&mut self, window: Window, classification: Classification, out: &mut Vec<Verdict>) {
        let latency = self.ticks - window.enqueued_tick;
        if self.latencies.len() < LATENCY_RING {
            self.latencies.push(latency);
        } else {
            self.latencies[self.lat_next] = latency;
        }
        self.lat_next = (self.lat_next + 1) % LATENCY_RING;
        self.verdicts += 1;
        out.push(Verdict {
            stream: window.stream,
            at_call: window.at_call,
            classification,
            latency_ticks: latency,
            seq: window.order,
        });
        self.free_bufs.push(window.seq);
    }

    /// Fills lane `lane` from the pending queue if possible. Windows
    /// the lane path cannot serve (no exactness pack, or longer than
    /// [`LANE_MAX_STEPS`]) classify serially right here — bit-identical —
    /// rather than occupying a slot they cannot use.
    fn refill_slot(&mut self, lane: usize, out: &mut Vec<Verdict>) {
        debug_assert!(self.slots[lane].is_none());
        while let Some(window) = self.pending.pop_front() {
            if !self.lane_ok || window.seq.len() > LANE_MAX_STEPS {
                self.classify_serial(window, out);
                continue;
            }
            // Clear at admission, not retirement: a slot left empty for
            // a few ticks keeps riding the lockstep kernels, so its
            // h/C state is garbage by the time a window arrives.
            self.scratch.clear_lane(lane);
            self.slots[lane] = Some(window);
            self.active += 1;
            return;
        }
    }

    /// Runs one lockstep tick, appending retired verdicts to `out` and
    /// returning how many were emitted. A tick admits pending windows
    /// into free slots, advances every occupied lane one item, retires
    /// finished lanes (FC head), and refills each retired slot from the
    /// queue *within the same tick* — continuous batching with no batch
    /// barrier. With nothing active or pending this is a no-op.
    pub(crate) fn tick_into(&mut self, out: &mut Vec<Verdict>) -> usize {
        let before = out.len();
        // Re-admit poisoned lanes whose cooldown has expired. The lane's
        // state is garbage after the fault, but refill clears at
        // admission anyway.
        for lane in 0..self.width {
            if matches!(self.poisoned[lane], Some(until) if self.ticks >= until) {
                self.poisoned[lane] = None;
            }
        }
        for lane in 0..self.width {
            if self.slots[lane].is_none() && self.poisoned[lane].is_none() {
                self.refill_slot(lane, out);
            }
        }
        if self.active == 0 {
            // Progress guarantee under total poisoning: with work queued
            // but every lane benched, time must still advance or the
            // cooldowns never expire and a drain spins forever.
            if !self.pending.is_empty() && self.poisoned.iter().any(Option::is_some) {
                self.ticks += 1;
                self.degraded_ticks += 1;
            }
            return out.len() - before;
        }
        for (item, slot) in self.items.iter_mut().zip(self.slots.iter()) {
            *item = slot.as_ref().map(|w| w.seq[w.pos]);
        }
        // Split borrows: the gather buffer is rebuilt above, so the
        // engine only needs `scratch` mutably.
        self.engine.step_lanes(&mut self.scratch, &self.items);
        self.ticks += 1;
        self.occupied_steps += self.active as u64;
        if self.faults.is_some() {
            for lane in 0..self.width {
                if self.slots[lane].is_none() {
                    continue;
                }
                let corrupt = self.faults.as_mut().is_some_and(FaultPlan::corrupt_lane);
                if !corrupt {
                    continue;
                }
                // CRC catches the corrupted sweep: the lane's h/C state
                // is untrustworthy, so its window reruns on the serial
                // fused path (bit-identical — the verdict is delayed,
                // never lost or changed) and the lane sits out the
                // cooldown.
                let window = self.slots[lane].take().expect("checked occupied");
                self.active -= 1;
                self.fault_events += 1;
                self.poisoned[lane] = Some(self.ticks + self.lane_cooldown);
                self.degraded_reruns += 1;
                self.classify_serial(window, out);
            }
            if self.poisoned.iter().any(Option::is_some) {
                self.degraded_ticks += 1;
            }
        }
        for lane in 0..self.width {
            let finished = {
                let Some(w) = self.slots[lane].as_mut() else {
                    continue;
                };
                w.pos += 1;
                w.pos == w.seq.len()
            };
            if !finished {
                continue;
            }
            let window = self.slots[lane].take().expect("checked occupied");
            let classification = self.engine.retire_lane(&self.scratch, lane);
            self.active -= 1;
            self.emit(window, classification, out);
            // Same-tick refill: the slot starts its next window's first
            // item on the very next sweep.
            self.refill_slot(lane, out);
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mux_stats_json_predating_loss_split_still_deserializes() {
        // A BENCH_*.json snapshot written before `evicted`/`refused`
        // existed: the split fields default to zero, `dropped` keeps
        // its recorded aggregate.
        let old = r#"{
            "ticks": 10, "verdicts": 8, "dropped": 3,
            "occupancy": 0.5, "p50_latency_ticks": 1,
            "p99_latency_ticks": 2, "verdicts_per_sec": 100.0,
            "faults": 0, "degraded_reruns": 0, "degraded_ticks": 0,
            "lanes_poisoned": 0
        }"#;
        let stats: MuxStats = serde_json::from_str(old).expect("old snapshot parses");
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.refused, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.shards, 1);
    }
}
