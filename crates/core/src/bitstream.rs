//! The `v++` link step: from kernel sources to a device image.
//!
//! §IV: "v++ was utilized to compile the kernel objects into .xo files and
//! to link these objects with the target platform when generating the FPGA
//! binary (i.e., the .xclbin file)". [`link`] plays that role for the
//! simulated flow: it schedules every kernel of the five-kernel design
//! against its floorplan budget, verifies the whole design fits the target
//! device, and produces an [`Xclbin`] — the artifact the
//! [`HostProgram`](crate::host::HostProgram) programs the FPGA with.
//!
//! Because the design is "compiled once and can be updated at the
//! operator's discretion" (§III-A), the [`Xclbin`] captures *structure*
//! (timings, resources, dimensions) and never parameter values.

use csd_hls::{Clock, DeviceProfile, KernelEstimate, ResourceEstimate};

use crate::kernels::{gates, hidden, preprocess, GateKind, LstmDims};
use crate::opt::OptimizationLevel;
use crate::timing::kernel_budget;

/// Linking failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// The composed design exceeds the device's capacity.
    DoesNotFit {
        /// Resources the design needs.
        needed: ResourceEstimate,
        /// Resources the device offers.
        available: ResourceEstimate,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::DoesNotFit { needed, available } => {
                write!(f, "design needs {needed} but the device offers {available}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// One compiled kernel inside the image.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelImage {
    /// Kernel instance name (e.g. `kernel_gates[Forget]`).
    pub name: String,
    /// Scheduling/resource results from the HLS flow.
    pub estimate: KernelEstimate,
}

/// The linked FPGA binary: structure only, no parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Xclbin {
    /// Target device.
    pub device: DeviceProfile,
    /// Kernel clock.
    pub clock: Clock,
    /// Optimization level the kernels were built at.
    pub level: OptimizationLevel,
    /// Model dimensions baked into the loop bounds.
    pub dims: LstmDims,
    /// The six kernel instances (preprocess, four gate CUs, hidden).
    pub kernels: Vec<KernelImage>,
}

impl Xclbin {
    /// Looks a kernel up by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelImage> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Total fabric resources across all kernel instances.
    fn total_resources(&self) -> ResourceEstimate {
        self.kernels
            .iter()
            .fold(ResourceEstimate::zero(), |acc, k| {
                acc + k.estimate.resources
            })
    }

    /// Utilization of the scarcest device resource (1.0 = full).
    pub fn utilization(&self) -> f64 {
        self.total_resources().utilization(&self.device.capacity)
    }

    /// The per-item time of a kernel in µs, using the steady-state
    /// interval for row-pipelined fixed-point gate CUs and the fill
    /// latency otherwise (see `timing::breakdown`).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the image.
    pub fn per_item_us(&self, name: &str) -> f64 {
        let k = self
            .kernel(name)
            .unwrap_or_else(|| panic!("kernel {name} not in image"));
        let cycles = if self.level.is_fixed_point() && name.starts_with("kernel_gates") {
            k.estimate.timing.interval_cycles
        } else {
            k.estimate.timing.fill_cycles
        };
        self.clock.micros(cycles)
    }
}

/// Links the five-kernel design for `device` at `level`.
///
/// # Errors
///
/// Returns [`LinkError::DoesNotFit`] when the scheduled design exceeds the
/// device capacity (each kernel is budget-clamped first, so this fires
/// only for devices smaller than the floorplan assumes).
pub fn link(
    level: OptimizationLevel,
    dims: &LstmDims,
    device: &DeviceProfile,
) -> Result<Xclbin, LinkError> {
    let clock = Clock::default_kernel_clock();
    let small = kernel_budget(device, 10);
    let gate_budget = kernel_budget(device, 20);
    let mut kernels = Vec::with_capacity(6);
    kernels.push(KernelImage {
        name: "kernel_preprocess".to_string(),
        estimate: preprocess::spec(level, dims).estimate(&small),
    });
    for kind in GateKind::ALL {
        kernels.push(KernelImage {
            name: format!("kernel_gates[{kind:?}]"),
            estimate: gates::spec(kind, level, dims).estimate(&gate_budget),
        });
    }
    kernels.push(KernelImage {
        name: "kernel_hidden_state".to_string(),
        estimate: hidden::spec(level, dims).estimate(&small),
    });

    let image = Xclbin {
        device: device.clone(),
        clock,
        level,
        dims: *dims,
        kernels,
    };
    let needed = image.total_resources();
    if !needed.fits_within(&device.capacity) {
        return Err(LinkError::DoesNotFit {
            needed,
            available: device.capacity,
        });
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_links_on_the_u200() {
        let image = link(
            OptimizationLevel::FixedPoint,
            &LstmDims::paper(),
            &DeviceProfile::alveo_u200(),
        )
        .expect("links");
        assert_eq!(image.kernels.len(), 6);
        assert!(image.utilization() <= 1.0);
        assert!(image.kernel("kernel_preprocess").is_some());
        assert!(image.kernel("kernel_gates[Forget]").is_some());
    }

    #[test]
    fn design_also_fits_the_smartssd_fabric() {
        // The SmartSSD's KU15P is ~3.5× smaller than the u200; the design
        // still links (the per-kernel budgets clamp unrolling), it is just
        // slower.
        let dims = LstmDims::paper();
        let smart = link(
            OptimizationLevel::FixedPoint,
            &dims,
            &DeviceProfile::kintex_ku15p(),
        )
        .expect("links on KU15P");
        let u200 = link(
            OptimizationLevel::FixedPoint,
            &dims,
            &DeviceProfile::alveo_u200(),
        )
        .expect("links on u200");
        let smart_gates = smart.per_item_us("kernel_gates[Input]");
        let u200_gates = u200.per_item_us("kernel_gates[Input]");
        assert!(
            smart_gates >= u200_gates,
            "smaller fabric cannot be faster: {smart_gates} vs {u200_gates}"
        );
    }

    #[test]
    fn tiny_device_fails_to_link() {
        let tiny = DeviceProfile {
            name: "toy".to_string(),
            capacity: ResourceEstimate {
                dsp: 8,
                lut: 2_000,
                ff: 4_000,
                bram: 4,
            },
            ddr_banks: 1,
        };
        let err = link(OptimizationLevel::FixedPoint, &LstmDims::paper(), &tiny)
            .expect_err("must not fit");
        let LinkError::DoesNotFit { needed, available } = err.clone();
        assert!(!needed.fits_within(&available));
        assert!(err.to_string().contains("device offers"));
    }

    #[test]
    fn image_timings_match_the_breakdown() {
        let dims = LstmDims::paper();
        for level in OptimizationLevel::ALL {
            let image = link(level, &dims, &DeviceProfile::alveo_u200()).expect("links");
            let b = crate::timing::breakdown(level, &dims);
            assert!((image.per_item_us("kernel_preprocess") - b.preprocess_us).abs() < 1e-9);
            assert!((image.per_item_us("kernel_hidden_state") - b.hidden_us).abs() < 1e-9);
            let worst_gate = GateKind::ALL
                .iter()
                .map(|k| image.per_item_us(&format!("kernel_gates[{k:?}]")))
                .fold(0.0f64, f64::max);
            assert!((worst_gate - b.gates_us).abs() < 1e-9, "{level}");
        }
    }
}
