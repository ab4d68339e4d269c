//! Baseline device power attribution for the energy comparison.
//!
//! The paper motivates CSDs partly on energy ("decreases energy
//! consumption under heavy workloads", §I) but reports no figures. These
//! constants let the `exp_energy` extension quantify energy *per
//! inference item* as `device power × per-item time`, the attribution
//! convention used in most accelerator papers.

/// Power draw attributed to a baseline device while serving the
/// inference workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePower {
    /// Human-readable device name.
    pub name: &'static str,
    /// Watts drawn while the workload runs.
    pub busy_w: f64,
}

impl DevicePower {
    /// Intel Xeon Silver 4114 (the paper's host CPU): 85 W TDP; a
    /// single-stream inference loop keeps the package near TDP because
    /// the framework spins across cores.
    pub fn xeon_silver_4114() -> Self {
        Self {
            name: "Intel Xeon Silver 4114",
            busy_w: 85.0,
        }
    }

    /// NVIDIA A100 (PCIe, 250 W TGP): a tiny sequential model leaves the
    /// SMs mostly idle, so we attribute a measured-typical ~120 W rather
    /// than the full TGP — a deliberately *favourable* assumption for the
    /// GPU baseline.
    pub fn a100_light_load() -> Self {
        Self {
            name: "NVIDIA A100 (light load)",
            busy_w: 120.0,
        }
    }

    /// Energy in microjoules for a task taking `micros` µs.
    ///
    /// # Panics
    ///
    /// Panics on a negative duration.
    pub fn energy_uj(&self, micros: f64) -> f64 {
        assert!(micros >= 0.0, "negative duration");
        self.busy_w * micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_time() {
        let cpu = DevicePower::xeon_silver_4114();
        assert_eq!(cpu.energy_uj(0.0), 0.0);
        assert!((cpu.energy_uj(10.0) - 850.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_attribution_is_below_tgp() {
        let gpu = DevicePower::a100_light_load();
        assert!(gpu.busy_w < 250.0);
        assert!(gpu.busy_w > DevicePower::xeon_silver_4114().busy_w);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_rejected() {
        let _ = DevicePower::a100_light_load().energy_uj(-1.0);
    }
}
