//! The kernel clock: cycle counts in wall-clock units.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversions() {
        let c = Clock::mhz(300.0);
        assert!((c.micros(1) - 0.003_333).abs() < 1e-5);
        assert_eq!(Clock::default().freq_mhz(), 300.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_rejected() {
        let _ = Clock::mhz(0.0);
    }
}
