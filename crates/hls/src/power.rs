//! FPGA power and energy estimation.
//!
//! The paper argues CSDs cut energy ("the lower-power processing
//! capability of CSDs ... decreases energy consumption under heavy
//! workloads", §I) but publishes no numbers. This module makes the claim
//! quantitative with the standard first-order FPGA power decomposition:
//!
//! `P = P_static(device) + Σ_resource (count × toggle × unit_power(f))`
//!
//! Unit dynamic powers follow Xilinx Power Estimator ballparks for
//! UltraScale+ at 300 MHz and are deliberately conservative; the
//! comparisons that matter (orders of magnitude vs CPU/GPU baselines)
//! are robust to 2–3× error in any constant.

use crate::report::Clock;
use crate::resource::ResourceEstimate;

/// Per-unit dynamic power at a reference 300 MHz clock and 100% toggle,
/// in microwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitPowers {
    /// One DSP48 slice.
    pub dsp_uw: f64,
    /// One LUT.
    pub lut_uw: f64,
    /// One flip-flop.
    pub ff_uw: f64,
    /// One BRAM36.
    pub bram_uw: f64,
}

impl UnitPowers {
    /// UltraScale+ ballparks: 2.3 mW/DSP, 4.5 µW/LUT, 1.5 µW/FF,
    /// 7 mW/BRAM36.
    fn ultrascale_plus() -> Self {
        Self {
            dsp_uw: 2_300.0,
            lut_uw: 4.5,
            ff_uw: 1.5,
            bram_uw: 7_000.0,
        }
    }
}

/// A device-level power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Static (leakage + always-on shell) power in watts.
    pub static_w: f64,
    /// Per-unit dynamic powers.
    pub units: UnitPowers,
    /// Mean switching activity of the busy design, 0–1.
    pub toggle: f64,
}

impl PowerModel {
    /// The SmartSSD's FPGA power envelope: ~10 W static/shell for the
    /// KU15P card context.
    pub fn smartssd() -> Self {
        Self {
            static_w: 10.0,
            units: UnitPowers::ultrascale_plus(),
            toggle: 0.25,
        }
    }

    /// The Alveo u200 testbed: ~22 W static/shell (PCIe card + DDR).
    pub fn alveo_u200() -> Self {
        Self {
            static_w: 22.0,
            units: UnitPowers::ultrascale_plus(),
            toggle: 0.25,
        }
    }

    /// Dynamic power of a design occupying `resources` at `clock`, in
    /// watts. Scales linearly with frequency from the 300 MHz reference.
    fn dynamic_w(&self, resources: &ResourceEstimate, clock: Clock) -> f64 {
        let scale = self.toggle * clock.freq_mhz() / 300.0;
        let uw = resources.dsp as f64 * self.units.dsp_uw
            + resources.lut as f64 * self.units.lut_uw
            + resources.ff as f64 * self.units.ff_uw
            + resources.bram as f64 * self.units.bram_uw;
        uw * scale / 1e6
    }

    /// Total (static + dynamic) power in watts.
    pub fn total_w(&self, resources: &ResourceEstimate, clock: Clock) -> f64 {
        self.static_w + self.dynamic_w(resources, clock)
    }

    /// Energy in microjoules for a task occupying `resources` for
    /// `micros` µs.
    ///
    /// # Panics
    ///
    /// Panics on a negative duration.
    pub fn energy_uj(&self, resources: &ResourceEstimate, clock: Clock, micros: f64) -> f64 {
        assert!(micros >= 0.0, "negative duration");
        self.total_w(resources, clock) * micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::DeviceProfile;

    #[test]
    fn dynamic_power_scales_with_resources_and_clock() {
        let m = PowerModel::alveo_u200();
        let small = ResourceEstimate {
            dsp: 100,
            lut: 10_000,
            ff: 20_000,
            bram: 10,
        };
        let big = small.times(4);
        let c = Clock::mhz(300.0);
        assert!(m.dynamic_w(&big, c) > m.dynamic_w(&small, c));
        assert!(
            (m.dynamic_w(&big, c) - 4.0 * m.dynamic_w(&small, c)).abs() < 1e-9,
            "linear in resources"
        );
        let fast = Clock::mhz(600.0);
        assert!((m.dynamic_w(&small, fast) - 2.0 * m.dynamic_w(&small, c)).abs() < 1e-9);
    }

    #[test]
    fn full_u200_stays_within_card_envelope() {
        // The u200 is a 225 W card; a fully-toggling full device must be
        // below that and above the static floor.
        let m = PowerModel::alveo_u200();
        let w = m.total_w(&DeviceProfile::alveo_u200().capacity, Clock::mhz(300.0));
        assert!(w > m.static_w);
        assert!(w < 225.0, "{w} W");
    }

    #[test]
    fn smartssd_envelope_is_small() {
        let m = PowerModel::smartssd();
        let w = m.total_w(&DeviceProfile::kintex_ku15p().capacity, Clock::mhz(300.0));
        // SmartSSD board power is tens of watts.
        assert!(w < 60.0, "{w} W");
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = PowerModel::smartssd();
        let r = ResourceEstimate {
            dsp: 1_000,
            lut: 100_000,
            ff: 200_000,
            bram: 100,
        };
        let c = Clock::mhz(300.0);
        let e1 = m.energy_uj(&r, c, 1.0);
        let e10 = m.energy_uj(&r, c, 10.0);
        assert!((e10 - 10.0 * e1).abs() < 1e-9);
        assert!((e1 - m.total_w(&r, c)).abs() < 1e-12);
    }

    #[test]
    fn zero_resources_cost_only_static() {
        let m = PowerModel::alveo_u200();
        let c = Clock::mhz(300.0);
        assert_eq!(m.dynamic_w(&ResourceEstimate::zero(), c), 0.0);
        assert_eq!(m.total_w(&ResourceEstimate::zero(), c), m.static_w);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_rejected() {
        let m = PowerModel::smartssd();
        let _ = m.energy_uj(&ResourceEstimate::zero(), Clock::mhz(300.0), -1.0);
    }
}
