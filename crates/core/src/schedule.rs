//! The per-item pipeline schedule of §III-C.
//!
//! "While an item in the sequence is being processed by the kernel_gates
//! CUs and kernel_hidden_state, kernel_preprocess preemptively processes
//! the next item in the sequence to generate its embeddings in parallel so
//! the embeddings can be consumed by the kernel_gates CUs when available."
//!
//! [`PipelineSchedule`] turns the per-kernel timings of
//! [`crate::timing::breakdown`] into that two-stage software pipeline:
//!
//! ```text
//! stage A: kernel_preprocess(item t+1)            ── overlaps ──┐
//! stage B: kernel_gates(item t) → kernel_hidden_state(item t) ◀─┘
//! ```
//!
//! The recurrence forces gates→hidden to serialize within an item (the
//! gates need `h_{t−1}`, hidden needs the gates), so the steady-state
//! per-item cost is `max(preprocess, gates + hidden)` and the bottleneck
//! stage is explicit. [`PipelineSchedule::simulate`] also produces the
//! full Gantt-style event trace for inspection and testing.

use crate::kernels::LstmDims;
use crate::opt::OptimizationLevel;
use crate::timing::{breakdown, KernelBreakdown};

/// Which pipeline stage bounds the steady-state item rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// The embedding/fan-out stage (memory-bound designs).
    Preprocess,
    /// The gates + hidden-state compute chain.
    Compute,
}

/// One executed kernel occurrence in the simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleEvent {
    /// Item index within the sequence.
    pub item: usize,
    /// Kernel name tag: `"preprocess"`, `"gates"`, or `"hidden"`.
    pub kernel: &'static str,
    /// Start time in µs from sequence start.
    pub start_us: f64,
    /// End time in µs.
    pub end_us: f64,
}

/// The derived pipeline timing for one optimization level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSchedule {
    /// Per-kernel times feeding the schedule.
    pub breakdown: KernelBreakdown,
    /// Steady-state per-item time: `max(preprocess, gates + hidden)`.
    pub steady_item_us: f64,
    /// Which stage sets that rate.
    pub bottleneck: Bottleneck,
    /// Pipeline fill time (the first item has no prefetch to hide).
    pub fill_us: f64,
}

impl PipelineSchedule {
    /// Builds the schedule for `level` on the paper's model dimensions.
    pub fn for_level(level: OptimizationLevel) -> Self {
        Self::from_breakdown(breakdown(level, &LstmDims::paper()))
    }

    /// Builds the schedule from an explicit per-kernel breakdown.
    pub fn from_breakdown(b: KernelBreakdown) -> Self {
        let compute = b.gates_us + b.hidden_us;
        let steady = b.preprocess_us.max(compute);
        Self {
            breakdown: b,
            steady_item_us: steady,
            bottleneck: if b.preprocess_us > compute {
                Bottleneck::Preprocess
            } else {
                Bottleneck::Compute
            },
            fill_us: b.preprocess_us,
        }
    }

    /// Total time for an `items`-long sequence under the pipeline:
    /// `fill + items × steady`.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn sequence_us(&self, items: usize) -> f64 {
        assert!(items > 0, "empty sequence");
        self.fill_us + items as f64 * self.steady_item_us
    }

    /// The unpipelined (paper-Fig.-3-sum) time for comparison:
    /// `items × (preprocess + gates + hidden)`.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn sequence_unpipelined_us(&self, items: usize) -> f64 {
        assert!(items > 0, "empty sequence");
        items as f64 * self.breakdown.total_us()
    }

    /// Simulates the schedule for `items` items, returning every kernel
    /// occurrence. Invariants encoded (and tested):
    ///
    /// - `preprocess(t+1)` starts no later than `gates(t)` does;
    /// - `gates(t)` starts only when both `preprocess(t)` and
    ///   `hidden(t−1)` (which produces `h_{t−1}`) are done;
    /// - `hidden(t)` follows `gates(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn simulate(&self, items: usize) -> Vec<ScheduleEvent> {
        assert!(items > 0, "empty sequence");
        let b = self.breakdown;
        let mut events = Vec::with_capacity(items * 3);
        let mut pre_done = vec![0.0f64; items];
        let mut hidden_done = 0.0f64;
        let mut pre_free = 0.0f64;
        // Preprocess is eager: it runs as soon as its circuit is free.
        for (t, done) in pre_done.iter_mut().enumerate() {
            let start = pre_free;
            let end = start + b.preprocess_us;
            events.push(ScheduleEvent {
                item: t,
                kernel: "preprocess",
                start_us: start,
                end_us: end,
            });
            *done = end;
            pre_free = end;
        }
        for (t, &pre) in pre_done.iter().enumerate() {
            let g_start = pre.max(hidden_done);
            let g_end = g_start + b.gates_us;
            events.push(ScheduleEvent {
                item: t,
                kernel: "gates",
                start_us: g_start,
                end_us: g_end,
            });
            let h_end = g_end + b.hidden_us;
            events.push(ScheduleEvent {
                item: t,
                kernel: "hidden",
                start_us: g_end,
                end_us: h_end,
            });
            hidden_done = h_end;
        }
        events.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        events
    }

    /// The simulated makespan for `items` items.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn simulated_makespan_us(&self, items: usize) -> f64 {
        self.simulate(items)
            .iter()
            .map(|e| e.end_us)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> PipelineSchedule {
        PipelineSchedule::for_level(OptimizationLevel::FixedPoint)
    }

    #[test]
    fn steady_state_is_max_of_stages() {
        for level in OptimizationLevel::ALL {
            let s = PipelineSchedule::for_level(level);
            let b = s.breakdown;
            assert_eq!(
                s.steady_item_us,
                b.preprocess_us.max(b.gates_us + b.hidden_us),
                "{level}"
            );
        }
    }

    #[test]
    fn pipeline_beats_unpipelined_sum() {
        for level in OptimizationLevel::ALL {
            let s = PipelineSchedule::for_level(level);
            assert!(
                s.sequence_us(100) < s.sequence_unpipelined_us(100),
                "{level}: prefetch overlap must save time"
            );
        }
    }

    #[test]
    fn compute_bound_at_every_level() {
        // With these kernels the gates+hidden chain dominates preprocess,
        // so prefetching fully hides the embedding generation — the point
        // of §III-C.
        for level in OptimizationLevel::ALL {
            assert_eq!(
                PipelineSchedule::for_level(level).bottleneck,
                Bottleneck::Compute,
                "{level}"
            );
        }
    }

    #[test]
    fn simulation_matches_closed_form() {
        for level in OptimizationLevel::ALL {
            let s = PipelineSchedule::for_level(level);
            for items in [1usize, 2, 10, 100] {
                let sim = s.simulated_makespan_us(items);
                // Closed form: fill + n·steady is exact when compute-bound.
                let closed = s.sequence_us(items);
                assert!(
                    (sim - closed).abs() < 1e-9,
                    "{level} n={items}: sim {sim} vs closed {closed}"
                );
            }
        }
    }

    #[test]
    fn prefetch_overlaps_compute() {
        let s = fixed();
        let events = s.simulate(5);
        // preprocess(1) must start before gates(0) ends.
        let pre1 = events
            .iter()
            .find(|e| e.kernel == "preprocess" && e.item == 1)
            .expect("pre1");
        let gates0 = events
            .iter()
            .find(|e| e.kernel == "gates" && e.item == 0)
            .expect("gates0");
        assert!(pre1.start_us < gates0.end_us + s.breakdown.hidden_us);
    }

    #[test]
    fn recurrence_dependencies_respected() {
        let s = fixed();
        let events = s.simulate(20);
        let find = |kernel: &str, item: usize| {
            *events
                .iter()
                .find(|e| e.kernel == kernel && e.item == item)
                .expect("event")
        };
        for t in 0..20 {
            let pre = find("preprocess", t);
            let gates = find("gates", t);
            let hidden = find("hidden", t);
            assert!(gates.start_us >= pre.end_us - 1e-12, "gates wait for x_t");
            assert!(
                hidden.start_us >= gates.end_us - 1e-12,
                "hidden waits for the gates"
            );
            if t > 0 {
                let prev_hidden = find("hidden", t - 1);
                assert!(
                    gates.start_us >= prev_hidden.end_us - 1e-12,
                    "gates wait for h_(t-1)"
                );
            }
        }
    }

    #[test]
    fn event_count_and_ordering() {
        let events = fixed().simulate(7);
        assert_eq!(events.len(), 21);
        for pair in events.windows(2) {
            assert!(pair[0].start_us <= pair[1].start_us);
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn zero_items_rejected() {
        let _ = fixed().sequence_us(0);
    }
}
