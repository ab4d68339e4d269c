//! FPGA resource accounting against real device profiles.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A bundle of FPGA resources (consumed by a design or offered by a device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceEstimate {
    /// DSP48 slices.
    pub dsp: u32,
    /// Look-up tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
    /// BRAM36 blocks.
    pub bram: u32,
}

impl ResourceEstimate {
    /// The empty estimate.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Scales every resource by an integer replication factor (e.g. unroll).
    pub fn times(self, k: u32) -> Self {
        Self {
            dsp: self.dsp * k,
            lut: self.lut * k,
            ff: self.ff * k,
            bram: self.bram * k,
        }
    }

    /// Subtracts `used` from this budget, flooring at zero per resource.
    pub fn saturating_sub(self, used: ResourceEstimate) -> Self {
        Self {
            dsp: self.dsp.saturating_sub(used.dsp),
            lut: self.lut.saturating_sub(used.lut),
            ff: self.ff.saturating_sub(used.ff),
            bram: self.bram.saturating_sub(used.bram),
        }
    }

    /// `true` when every resource fits within `budget`.
    pub fn fits_within(&self, budget: &ResourceEstimate) -> bool {
        self.dsp <= budget.dsp
            && self.lut <= budget.lut
            && self.ff <= budget.ff
            && self.bram <= budget.bram
    }

    /// The utilization fraction of the scarcest resource relative to
    /// `budget` (1.0 = that resource exactly exhausted).
    pub fn utilization(&self, budget: &ResourceEstimate) -> f64 {
        let frac = |used: u32, avail: u32| {
            if avail == 0 {
                if used == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                used as f64 / avail as f64
            }
        };
        frac(self.dsp, budget.dsp)
            .max(frac(self.lut, budget.lut))
            .max(frac(self.ff, budget.ff))
            .max(frac(self.bram, budget.bram))
    }
}

impl Add for ResourceEstimate {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            dsp: self.dsp + rhs.dsp,
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
        }
    }
}

impl AddAssign for ResourceEstimate {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} DSP, {} LUT, {} FF, {} BRAM",
            self.dsp, self.lut, self.ff, self.bram
        )
    }
}

/// A named FPGA device with its resource capacity and DDR bank count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Total fabric resources.
    pub capacity: ResourceEstimate,
    /// Global-memory (DDR) banks available to kernels. The paper uses a
    /// "conservative two DDR banks" on the u200, which physically has four
    /// (§III-C).
    pub ddr_banks: u32,
}

impl DeviceProfile {
    /// The Alveo u200 (Virtex UltraScale+ VU9P): the paper's experimental
    /// platform (§IV).
    pub fn alveo_u200() -> Self {
        Self {
            name: "Alveo u200 (VU9P)".to_string(),
            capacity: ResourceEstimate {
                dsp: 6_840,
                lut: 1_182_240,
                ff: 2_364_480,
                bram: 2_160,
            },
            ddr_banks: 4,
        }
    }

    /// The SmartSSD's Kintex UltraScale+ KU15P — the deployment target the
    /// u200 stands in for ("part of the UltraScale family and similar to
    /// the SmartSSD's Kintex KU15P", §IV).
    pub fn kintex_ku15p() -> Self {
        Self {
            name: "Kintex KU15P (SmartSSD)".to_string(),
            capacity: ResourceEstimate {
                dsp: 1_968,
                lut: 523_000,
                ff: 1_045_440,
                bram: 984,
            },
            ddr_banks: 1,
        }
    }

    /// A per-kernel resource budget: an even share of the device across
    /// `kernels` concurrently-resident kernels, derated to 70% to leave
    /// room for the platform shell and routing slack.
    ///
    /// # Panics
    ///
    /// Panics if `kernels == 0`.
    pub fn kernel_budget(&self, kernels: u32) -> ResourceEstimate {
        assert!(kernels > 0, "at least one kernel");
        ResourceEstimate {
            dsp: self.capacity.dsp * 7 / 10 / kernels,
            lut: self.capacity.lut * 7 / 10 / kernels,
            ff: self.capacity.ff * 7 / 10 / kernels,
            bram: self.capacity.bram * 7 / 10 / kernels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u200_is_bigger_than_ku15p() {
        let u200 = DeviceProfile::alveo_u200();
        let ku15p = DeviceProfile::kintex_ku15p();
        assert!(ku15p.capacity.fits_within(&u200.capacity));
        assert!(!u200.capacity.fits_within(&ku15p.capacity));
    }

    #[test]
    fn arithmetic() {
        let a = ResourceEstimate {
            dsp: 1,
            lut: 10,
            ff: 20,
            bram: 0,
        };
        let b = a.times(3);
        assert_eq!(b.dsp, 3);
        assert_eq!((a + b).lut, 40);
    }

    #[test]
    fn utilization_picks_scarcest() {
        let budget = ResourceEstimate {
            dsp: 100,
            lut: 1000,
            ff: 1000,
            bram: 10,
        };
        let used = ResourceEstimate {
            dsp: 90,
            lut: 100,
            ff: 100,
            bram: 1,
        };
        assert!((used.utilization(&budget) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_missing_resource_is_infinite() {
        let budget = ResourceEstimate {
            dsp: 0,
            lut: 100,
            ff: 100,
            bram: 0,
        };
        let used = ResourceEstimate {
            dsp: 1,
            ..ResourceEstimate::zero()
        };
        assert!(used.utilization(&budget).is_infinite());
        assert!(ResourceEstimate::zero().utilization(&budget) == 0.0);
    }

    #[test]
    fn kernel_budget_divides_capacity() {
        let u200 = DeviceProfile::alveo_u200();
        let b6 = u200.kernel_budget(6);
        assert!(b6.dsp <= u200.capacity.dsp / 6);
        assert!(b6.times(6).fits_within(&u200.capacity));
    }

    #[test]
    fn display_nonempty() {
        assert!(!ResourceEstimate::zero().to_string().is_empty());
    }
}
