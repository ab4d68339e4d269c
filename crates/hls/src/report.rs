//! Kernel reports in wall-clock units.

use std::fmt;

use crate::latency::KernelTiming;
use crate::resource::ResourceEstimate;

/// A kernel clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    freq_mhz: f64,
}

impl Clock {
    /// The default Vitis kernel clock for UltraScale+ data-center cards.
    pub const DEFAULT_MHZ: f64 = 300.0;

    /// Creates a clock at `freq_mhz` MHz.
    ///
    /// # Panics
    ///
    /// Panics unless `freq_mhz` is finite and positive.
    pub fn mhz(freq_mhz: f64) -> Self {
        assert!(
            freq_mhz.is_finite() && freq_mhz > 0.0,
            "clock frequency must be positive"
        );
        Self { freq_mhz }
    }

    /// The paper's experimental platform clock (300 MHz).
    pub fn default_kernel_clock() -> Self {
        Self::mhz(Self::DEFAULT_MHZ)
    }

    /// Frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Nanoseconds per cycle.
    pub fn period_ns(&self) -> f64 {
        1_000.0 / self.freq_mhz
    }

    /// Converts a cycle count to microseconds.
    ///
    /// ```rust
    /// use csd_hls::Clock;
    /// let c = Clock::mhz(300.0);
    /// assert!((c.micros(300) - 1.0).abs() < 1e-12);
    /// ```
    pub fn micros(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_mhz
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::default_kernel_clock()
    }
}

/// A human-readable per-kernel report: the unit Fig. 3 is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name (e.g. `kernel_gates`).
    pub name: String,
    /// Cycle-level timing.
    pub timing: KernelTiming,
    /// Fabric resources consumed.
    pub resources: ResourceEstimate,
    /// Clock used for wall-clock conversion.
    pub clock: Clock,
}

impl KernelReport {
    /// Full latency (fill) in microseconds.
    pub fn fill_micros(&self) -> f64 {
        self.clock.micros(self.timing.fill_cycles)
    }

    /// Steady-state per-input cost in microseconds.
    pub fn interval_micros(&self) -> f64 {
        self.clock.micros(self.timing.interval_cycles)
    }
}

impl fmt::Display for KernelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: fill {:.5} µs, interval {:.5} µs ({} / {} cycles @ {:.0} MHz; {})",
            self.name,
            self.fill_micros(),
            self.interval_micros(),
            self.timing.fill_cycles,
            self.timing.interval_cycles,
            self.clock.freq_mhz(),
            self.resources
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversions() {
        let c = Clock::mhz(300.0);
        assert!((c.period_ns() - 3.3333).abs() < 1e-3);
        assert!((c.micros(1) - 0.003_333).abs() < 1e-5);
        assert_eq!(Clock::default().freq_mhz(), 300.0);
    }

    #[test]
    fn report_micros() {
        let r = KernelReport {
            name: "kernel_gates".into(),
            timing: KernelTiming {
                fill_cycles: 600,
                interval_cycles: 32,
            },
            resources: ResourceEstimate::zero(),
            clock: Clock::mhz(300.0),
        };
        assert!((r.fill_micros() - 2.0).abs() < 1e-9);
        assert!((r.interval_micros() - 32.0 / 300.0).abs() < 1e-9);
        assert!(r.to_string().contains("kernel_gates"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_rejected() {
        let _ = Clock::mhz(0.0);
    }
}
