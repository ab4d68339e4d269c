//! Deterministic host-layer chaos for replay traffic.
//!
//! The device sim already has a seeded fault plan (`csd::fault`) for
//! datapath failures — corrupted transfers, stalled kernels, brownouts.
//! This module is its *host-side* mirror: the failure classes that hit
//! the ingestion service rather than the accelerator. A sentry that
//! only survives a healthy host is not crash-safe; this plan lets every
//! campaign cell replay the same traffic under the same misbehaviour,
//! exactly reproducibly.
//!
//! Chaos classes (mapped to host failure modes in DESIGN.md §5j):
//!
//! - **Kill** — the sentry process dies (`kill -9`) after a configured
//!   number of delivered frames. The unsynced journal tail is lost; the
//!   next incarnation recovers from checkpoint + journal and producers
//!   re-send from the durable cursor (at-least-once).
//! - **Duplicate** — a frame is delivered twice back to back, the
//!   classic at-least-once re-send after a lost acknowledgement.
//! - **Reset** — a producer's connection drops; on reconnect it
//!   conservatively re-sends its last unacknowledged frame. The
//!   schedule materializes the re-send as a following `Deliver`, so
//!   drivers treat `Reset` purely as a reconnect marker.
//! - **Reorder** — two *adjacent, different-pid* frames swap. Per-pid
//!   program order is never violated (a single connection is FIFO; only
//!   cross-connection arrival order races), so session windows stay
//!   well-formed while cross-session interleaving is perturbed.
//! - **Delay** — delivery stalls for a burst. Drivers model it as a
//!   poll-starved stretch, which is what builds the backlog that the
//!   bounded-staleness overload ladder exists to bound.
//!
//! The plan only *decides* chaos; enforcement lives in the replay
//! driver (`csd-sentry`'s `tests/chaos_campaign.rs`), which maps each
//! [`ChaosOp`] onto the durable sentry under test. Everything is seeded
//! SplitMix64: the same `(trace, seed, config)` triple yields
//! byte-identical schedules.

use crate::replay::{EventTrace, TraceEvent};

/// Per-class chaos probabilities and the kill schedule.
///
/// Probabilities are per *delivered frame*, matching the granularity
/// at which a real transport misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Probability a frame is delivered twice back to back.
    pub duplicate: f64,
    /// Probability a frame swaps with the next frame when their pids
    /// differ (same-pid neighbours never swap).
    pub reorder: f64,
    /// Probability a connection reset precedes a frame; the previous
    /// frame (if any) is re-sent after the reset.
    pub reset: f64,
    /// Probability a delivery stall precedes a frame.
    pub delay: f64,
    /// How many events each stall withholds polling for (the stall
    /// magnitude, in driver poll-budget units).
    pub delay_events: u64,
    /// Kill the consumer after these delivered-frame counts. Offsets
    /// past the end of the schedule never fire; duplicates are
    /// collapsed.
    pub kill_at: Vec<u64>,
}

impl ChaosConfig {
    /// A plan that injects nothing (explicit baseline).
    pub fn none() -> Self {
        Self {
            duplicate: 0.0,
            reorder: 0.0,
            reset: 0.0,
            delay: 0.0,
            delay_events: 0,
            kill_at: Vec::new(),
        }
    }

    /// Duplicate / reorder / delay at probability `rate`, resets at a
    /// quarter of it (whole-connection drops are rarer than message
    /// races), 64-event stalls, no kills.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "chaos rate must be in [0,1]");
        Self {
            duplicate: rate,
            reorder: rate,
            reset: rate / 4.0,
            delay: rate,
            delay_events: 64,
            kill_at: Vec::new(),
        }
    }

    /// The same config with kills at the given delivered-frame counts.
    pub fn with_kills(mut self, kill_at: Vec<u64>) -> Self {
        self.kill_at = kill_at;
        self
    }

    /// `true` when every probability is zero and no kill is scheduled.
    pub fn is_none(&self) -> bool {
        self.duplicate == 0.0
            && self.reorder == 0.0
            && self.reset == 0.0
            && self.delay == 0.0
            && self.kill_at.is_empty()
    }
}

/// One step of a chaos schedule, interpreted by the replay driver.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOp {
    /// Hand this frame to the ingest path. Every `Deliver` corresponds
    /// to exactly one journal append on the consumer, so a consumer
    /// whose journal holds `n` durable events resumes after the `n`th
    /// `Deliver`.
    Deliver(TraceEvent),
    /// A producer connection dropped and reconnected. The conservative
    /// re-send of its last frame follows as an ordinary `Deliver`.
    Reset,
    /// Delivery stalls: the driver withholds polling for this many
    /// events, building real backlog.
    Delay(u64),
    /// The consumer process dies here (`kill -9`). The driver crashes
    /// the durable sentry, reopens it, and rewinds its cursor to the op
    /// after the last `Deliver` the journal holds.
    Kill,
}

/// Running tallies of injected chaos, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosCounters {
    /// Frames delivered (including duplicate and re-sent copies).
    pub delivered: u64,
    /// Back-to-back duplicate deliveries injected.
    pub duplicated: u64,
    /// Adjacent different-pid swaps performed.
    pub reordered: u64,
    /// Connection resets injected.
    pub resets: u64,
    /// Delivery stalls injected.
    pub delays: u64,
    /// Consumer kills scheduled.
    pub kills: u64,
}

impl ChaosCounters {
    /// Total chaos injections across all classes (delivery excluded).
    pub fn total(&self) -> u64 {
        self.duplicated + self.reordered + self.resets + self.delays + self.kills
    }
}

/// SplitMix64, vendored inline like the device fault plan's generator:
/// the exact stream is part of the schedule's reproducibility contract.
#[derive(Debug, Clone, Copy)]
struct ChaosRng(u64);

impl ChaosRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.uniform() < p
    }
}

/// A fully materialized chaos schedule: the trace, perturbed.
///
/// Invariants the constructor guarantees (and the tests pin):
///
/// - every original frame appears as a `Deliver` at least once — chaos
///   never silently drops traffic; loss only happens through kills and
///   the journal's unsynced tail, which the resume protocol re-sends;
/// - per-pid program order of first deliveries matches the trace —
///   only cross-pid arrival order is perturbed;
/// - the same `(trace, seed, config)` yields a byte-identical schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The ops, in driver execution order.
    pub ops: Vec<ChaosOp>,
    /// What was injected while building the schedule.
    pub counters: ChaosCounters,
}

impl ChaosSchedule {
    /// Builds the schedule for `trace` under `config`, seeded.
    pub fn plan(trace: &EventTrace, seed: u64, config: &ChaosConfig) -> Self {
        let mut rng = ChaosRng(seed);
        let mut counters = ChaosCounters::default();

        // Pass 1: adjacent different-pid swaps over the frame order.
        let mut frames: Vec<TraceEvent> = trace.events.clone();
        if config.reorder > 0.0 {
            let mut i = 0;
            while i + 1 < frames.len() {
                if frames[i].pid != frames[i + 1].pid && rng.chance(config.reorder) {
                    frames.swap(i, i + 1);
                    counters.reordered += 1;
                    i += 2; // a swapped pair is settled; no triple shuffles
                } else {
                    i += 1;
                }
            }
        }

        // Pass 2: weave resets, delays, and duplicates around delivery.
        let mut ops = Vec::with_capacity(frames.len() + frames.len() / 8);
        let mut last: Option<TraceEvent> = None;
        for frame in frames {
            if rng.chance(config.reset) {
                ops.push(ChaosOp::Reset);
                counters.resets += 1;
                if let Some(prev) = &last {
                    ops.push(ChaosOp::Deliver(prev.clone()));
                    counters.delivered += 1;
                }
            }
            if rng.chance(config.delay) && config.delay_events > 0 {
                ops.push(ChaosOp::Delay(config.delay_events));
                counters.delays += 1;
            }
            let dup = rng.chance(config.duplicate);
            ops.push(ChaosOp::Deliver(frame.clone()));
            counters.delivered += 1;
            if dup {
                ops.push(ChaosOp::Deliver(frame.clone()));
                counters.delivered += 1;
                counters.duplicated += 1;
            }
            last = Some(frame);
        }

        // Pass 3: splice kills in after their delivered-frame offsets.
        let mut kill_at = config.kill_at.clone();
        kill_at.sort_unstable();
        kill_at.dedup();
        if !kill_at.is_empty() {
            let mut spliced = Vec::with_capacity(ops.len() + kill_at.len());
            let mut kills = kill_at.iter().peekable();
            let mut delivered = 0u64;
            // A kill at offset 0 fires before any delivery.
            while kills.next_if(|&&k| k == 0).is_some() {
                spliced.push(ChaosOp::Kill);
                counters.kills += 1;
            }
            for op in ops {
                let is_delivery = matches!(op, ChaosOp::Deliver(_));
                spliced.push(op);
                if is_delivery {
                    delivered += 1;
                    while kills.next_if(|&&k| k == delivered).is_some() {
                        spliced.push(ChaosOp::Kill);
                        counters.kills += 1;
                    }
                }
            }
            ops = spliced;
        }

        Self { ops, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::replay::{interleave, ReplayProfile, TraceEventKind};

    fn trace() -> EventTrace {
        let ds = DatasetBuilder::new(11)
            .ransomware_windows(4)
            .benign_windows(4)
            .build();
        interleave(&ds, 42, ReplayProfile::default())
    }

    fn delivered(schedule: &ChaosSchedule) -> Vec<&TraceEvent> {
        schedule
            .ops
            .iter()
            .filter_map(|op| match op {
                ChaosOp::Deliver(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let t = trace();
        let cfg = ChaosConfig::uniform(0.1).with_kills(vec![20, 60]);
        let a = ChaosSchedule::plan(&t, 7, &cfg);
        let b = ChaosSchedule::plan(&t, 7, &cfg);
        assert_eq!(a, b);
        let c = ChaosSchedule::plan(&t, 8, &cfg);
        assert_ne!(a, c, "different seed, different chaos");
    }

    #[test]
    fn no_chaos_is_a_pure_passthrough() {
        let t = trace();
        let s = ChaosSchedule::plan(&t, 1, &ChaosConfig::none());
        assert_eq!(s.counters.total(), 0);
        assert_eq!(s.counters.delivered, t.len() as u64);
        let frames: Vec<TraceEvent> = delivered(&s).into_iter().cloned().collect();
        assert_eq!(frames, t.events);
    }

    #[test]
    fn every_original_frame_is_delivered_at_least_once() {
        let t = trace();
        let s = ChaosSchedule::plan(&t, 3, &ChaosConfig::uniform(0.2));
        let got = delivered(&s);
        for e in &t.events {
            assert!(got.contains(&e), "frame lost by chaos: {e:?}");
        }
        assert!(
            s.counters.duplicated > 0 && s.counters.reordered > 0,
            "rate 0.2 over {} frames must actually inject",
            t.len()
        );
    }

    #[test]
    fn per_pid_program_order_survives_reordering() {
        let t = trace();
        let s = ChaosSchedule::plan(
            &t,
            5,
            &ChaosConfig {
                reorder: 0.5,
                ..ChaosConfig::none()
            },
        );
        assert!(s.counters.reordered > 0);
        let pids: std::collections::BTreeSet<u32> = t.events.iter().map(|e| e.pid).collect();
        for pid in pids {
            let original: Vec<&TraceEvent> = t.events.iter().filter(|e| e.pid == pid).collect();
            let chaotic: Vec<&TraceEvent> =
                delivered(&s).into_iter().filter(|e| e.pid == pid).collect();
            assert_eq!(chaotic, original, "pid {pid} program order violated");
        }
    }

    #[test]
    fn kills_land_exactly_after_their_delivery_offsets() {
        let t = trace();
        let cfg = ChaosConfig::none().with_kills(vec![10, 5, 5, 0]);
        let s = ChaosSchedule::plan(&t, 9, &cfg);
        assert_eq!(s.counters.kills, 3, "offset dups collapse");
        assert_eq!(s.ops[0], ChaosOp::Kill, "offset 0 kills before delivery");
        let mut seen = 0u64;
        for (i, op) in s.ops.iter().enumerate() {
            match op {
                ChaosOp::Deliver(_) => seen += 1,
                ChaosOp::Kill if i > 0 => {
                    assert!(seen == 5 || seen == 10, "kill after {seen} deliveries")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn kill_offsets_past_the_schedule_never_fire() {
        let t = trace();
        let cfg = ChaosConfig::none().with_kills(vec![1_000_000]);
        let s = ChaosSchedule::plan(&t, 2, &cfg);
        assert_eq!(s.counters.kills, 0);
        assert!(s.ops.iter().all(|op| !matches!(op, ChaosOp::Kill)));
    }

    #[test]
    fn resets_resend_the_previous_frame() {
        let t = trace();
        let s = ChaosSchedule::plan(
            &t,
            6,
            &ChaosConfig {
                reset: 0.3,
                ..ChaosConfig::none()
            },
        );
        assert!(s.counters.resets > 0);
        for (i, op) in s.ops.iter().enumerate() {
            if matches!(op, ChaosOp::Reset) && i > 0 {
                // The op after a mid-stream reset re-delivers the frame
                // delivered most recently before it.
                let prev = s.ops[..i].iter().rev().find_map(|o| match o {
                    ChaosOp::Deliver(e) => Some(e),
                    _ => None,
                });
                if let (Some(prev), Some(ChaosOp::Deliver(next))) = (prev, s.ops.get(i + 1)) {
                    assert_eq!(next, prev, "reset at op {i} must re-send");
                }
            }
        }
    }

    #[test]
    fn spawn_duplicates_are_possible_chaos() {
        // A duplicated spawn is the nastiest duplicate (it would
        // supersede the live session without ingest-side dedup); make
        // sure the schedule can actually produce one so the campaign
        // exercises that path.
        let t = trace();
        let s = ChaosSchedule::plan(
            &t,
            11,
            &ChaosConfig {
                duplicate: 1.0,
                ..ChaosConfig::none()
            },
        );
        let dup_spawn = s.ops.windows(2).any(|w| {
            matches!(
                (&w[0], &w[1]),
                (ChaosOp::Deliver(a), ChaosOp::Deliver(b))
                    if a == b && matches!(a.kind, TraceEventKind::Spawn(_))
            )
        });
        assert!(dup_spawn, "duplicate=1.0 must duplicate spawns too");
    }
}
