//! Typed HLS pragmas.
//!
//! The paper's II-minimization pass (§III-D) applies three pragmas:
//!
//! - `#pragma HLS PIPELINE II=1` — overlap loop iterations,
//! - `#pragma HLS UNROLL` — replicate the loop body,
//! - `#pragma HLS ARRAY_PARTITION complete` — split buffers into registers
//!   so unrolled bodies are not serialized on BRAM ports,
//!
//! plus `#pragma HLS DATAFLOW` in `kernel_gates` (§III-C) for task-level
//! overlap. [`Pragmas`] is the typed equivalent attached to a loop nest.

/// The pragma set attached to one loop nest.
///
/// # Example
///
/// ```rust
/// use csd_hls::Pragmas;
///
/// // The paper's II-optimization recipe.
/// let p = Pragmas::new().pipeline(1).unroll_full().partition();
/// assert_eq!(p.pipeline_ii(), Some(1));
/// assert!(p.is_fully_unrolled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pragmas {
    pipeline_ii: Option<u32>,
    /// `None` = no unroll, `Some(0)` = full unroll, `Some(u)` = factor `u`.
    unroll: Option<u32>,
    array_partition: bool,
}

impl Pragmas {
    /// No pragmas (the paper's "Vanilla" configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `#pragma HLS PIPELINE II=<target>`.
    ///
    /// # Panics
    ///
    /// Panics if `target_ii == 0` (an II of zero is meaningless; II=1 is
    /// maximal throughput).
    pub fn pipeline(mut self, target_ii: u32) -> Self {
        assert!(target_ii > 0, "initiation interval must be >= 1");
        self.pipeline_ii = Some(target_ii);
        self
    }

    /// Adds `#pragma HLS UNROLL factor=<factor>`.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`; use [`Pragmas::unroll_full`] for complete
    /// unrolling.
    pub fn unroll(mut self, factor: u32) -> Self {
        assert!(factor > 0, "unroll factor must be >= 1");
        self.unroll = Some(factor);
        self
    }

    /// Adds `#pragma HLS UNROLL` (complete unroll).
    pub fn unroll_full(mut self) -> Self {
        self.unroll = Some(0);
        self
    }

    /// Adds `#pragma HLS ARRAY_PARTITION complete`.
    pub fn partition(mut self) -> Self {
        self.array_partition = true;
        self
    }

    /// The requested pipeline II, if pipelined.
    pub fn pipeline_ii(&self) -> Option<u32> {
        self.pipeline_ii
    }

    /// The requested unroll factor for `trips` iterations: 1 when absent,
    /// `trips` when full.
    pub fn unroll_factor(&self, trips: u32) -> u32 {
        match self.unroll {
            None => 1,
            Some(0) => trips.max(1),
            Some(u) => u.min(trips.max(1)),
        }
    }

    /// `true` when complete unrolling was requested.
    pub fn is_fully_unrolled(&self) -> bool {
        self.unroll == Some(0)
    }

    /// `true` when buffers feeding this loop are completely partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.array_partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_has_nothing() {
        let p = Pragmas::new();
        assert_eq!(p.pipeline_ii(), None);
        assert_eq!(p.unroll_factor(40), 1);
        assert!(!p.is_partitioned());
        assert!(!p.is_fully_unrolled());
    }

    #[test]
    fn full_unroll_equals_trip_count() {
        let p = Pragmas::new().unroll_full();
        assert_eq!(p.unroll_factor(40), 40);
        assert_eq!(p.unroll_factor(1), 1);
    }

    #[test]
    fn partial_unroll_clamped_to_trips() {
        let p = Pragmas::new().unroll(64);
        assert_eq!(p.unroll_factor(40), 40);
        assert_eq!(p.unroll_factor(128), 64);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_rejected() {
        let _ = Pragmas::new().pipeline(0);
    }

    #[test]
    #[should_panic(expected = "unroll factor")]
    fn zero_unroll_rejected() {
        let _ = Pragmas::new().unroll(0);
    }
}
