//! Simulation time and resource timelines.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation time in integer nanoseconds.
///
/// Integer time keeps the simulator deterministic and free of
/// floating-point ordering hazards; at nanosecond resolution the clock
/// wraps after ~584 years of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero.
    pub const ZERO: Nanos = Nanos(0);

    /// From microseconds (rounded to the nearest nanosecond).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_micros(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "duration must be >= 0");
        Nanos((us * 1_000.0).round() as u64)
    }

    /// As fractional microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration of `bytes` moved at `gib_per_s` GiB/s (rounded up).
    ///
    /// # Panics
    ///
    /// Panics unless `gib_per_s` is finite and positive.
    pub fn for_transfer(bytes: u64, gib_per_s: f64) -> Self {
        assert!(
            gib_per_s.is_finite() && gib_per_s > 0.0,
            "bandwidth must be positive"
        );
        let ns = bytes as f64 / (gib_per_s * 1.073_741_824); // GiB/s → bytes/ns
        Nanos(ns.ceil() as u64)
    }

    /// Saturating maximum with another time.
    pub fn max(self, other: Self) -> Self {
        Nanos(self.0.max(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.checked_add(rhs.0).expect("sim time overflow"))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.checked_sub(rhs.0).expect("negative sim duration"))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} µs", self.as_micros())
    }
}

/// A serially-reusable resource (a PCIe link, a DDR bank, an SSD channel):
/// requests are serviced in arrival order, each occupying the resource for
/// its duration — the busy-until contention model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceTimeline {
    busy_until: Nanos,
    busy_total: Nanos,
}

impl ResourceTimeline {
    /// A resource idle from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books the resource for `duration` starting no earlier than `now`;
    /// returns the completion time.
    pub fn acquire(&mut self, now: Nanos, duration: Nanos) -> Nanos {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy_total += duration;
        end
    }

    /// Total busy time booked so far (for utilization accounting).
    pub fn busy_total(&self) -> Nanos {
        self.busy_total
    }

    /// Utilization over `[0, horizon]`; 0 when the horizon is zero.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            0.0
        } else {
            (self.busy_total.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos(1_500);
        let b = Nanos(500);
        assert_eq!(a + b, Nanos(2_000));
        assert_eq!(a - b, Nanos(1_000));
        assert!((Nanos::from_micros(1.5).as_nanos()) == 1_500);
        assert!((a.as_micros() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_duration_from_bandwidth() {
        // 1 GiB at 1 GiB/s = 1 s = 1e9 ns.
        let d = Nanos::for_transfer(1 << 30, 1.0);
        assert_eq!(d.as_nanos(), 1_000_000_000);
        // Zero bytes take zero time.
        assert_eq!(Nanos::for_transfer(0, 3.2), Nanos::ZERO);
    }

    #[test]
    fn timeline_serializes_overlapping_requests() {
        let mut r = ResourceTimeline::new();
        let e1 = r.acquire(Nanos(0), Nanos(100));
        let e2 = r.acquire(Nanos(10), Nanos(50)); // arrives while busy
        let e3 = r.acquire(Nanos(500), Nanos(10)); // arrives when idle
        assert_eq!(e1, Nanos(100));
        assert_eq!(e2, Nanos(150));
        assert_eq!(e3, Nanos(510));
        assert_eq!(r.busy_total(), Nanos(160));
    }

    #[test]
    fn utilization_bounded() {
        let mut r = ResourceTimeline::new();
        r.acquire(Nanos(0), Nanos(50));
        assert!((r.utilization(Nanos(100)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(Nanos::ZERO), 0.0);
        assert!(r.utilization(Nanos(10)) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "negative sim duration")]
    fn negative_duration_panics() {
        let _ = Nanos(1) - Nanos(2);
    }
}
