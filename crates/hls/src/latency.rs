//! The cycle model: loop nests, achievable initiation intervals, and
//! resource-clamped unrolling.
//!
//! The rules implemented here are the standard HLS scheduling facts:
//!
//! - A pipelined loop of `n` iterations costs `depth + II·(n − 1)` cycles.
//! - The achievable II is bounded below by loop-carried dependences (a
//!   multiply-*accumulate* cannot initiate faster than the adder's latency,
//!   so floating-point MACs are stuck at II ≈ 7 while single-cycle integer
//!   adds reach II = 1 — the paper's fixed-point win) and by memory ports
//!   (two per BRAM; `ARRAY_PARTITION complete` removes the bound).
//! - `UNROLL factor=U` replicates the body `U` times; a fully-unrolled
//!   reduction becomes a balanced adder tree of depth `⌈log₂ n⌉`.
//! - Unrolling replicates operators, so it is clamped by the kernel's
//!   resource budget — 3-DSP floating multipliers run out of DSPs three
//!   times sooner than 1-DSP fixed-point multipliers, which is why the
//!   paper's fixed-point configuration can flatten `kernel_gates` entirely
//!   and the float configuration cannot.
//! - Pipelining an outer loop requires (and HLS performs) complete
//!   unrolling of the loops it contains; if resources forbid that, the
//!   outer pipeline fails and the loop stays sequential.

use crate::op::{op_cost, NumericFormat, Op, OpLatencies};
use crate::pragma::Pragmas;
use crate::resource::{DeviceProfile, ResourceEstimate};

/// Cycles of control overhead per iteration of a non-pipelined loop.
pub const LOOP_OVERHEAD: u64 = 2;

/// Cycles to set up one AXI master burst to global memory (DDR).
pub const AXI_BURST_SETUP: u64 = 28;

/// What one loop iteration does.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopBody {
    /// Multiply-accumulate with a loop-carried dependence on the
    /// accumulator: two buffer reads, a multiply, and an accumulating add.
    Mac,
    /// Independent straight-line ops each iteration (no carried dependence).
    Map(Vec<Op>),
    /// A nested inner loop (plus optional per-iteration prologue ops).
    Nested(Box<LoopNest>),
}

/// A counted loop with pragmas.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    trips: u32,
    body: LoopBody,
    pragmas: Pragmas,
}

impl LoopNest {
    /// Creates a loop running `trips` iterations of `body` under `pragmas`.
    ///
    /// # Panics
    ///
    /// Panics if `trips == 0`.
    pub fn new(trips: u32, body: LoopBody, pragmas: Pragmas) -> Self {
        assert!(trips > 0, "loop must have at least one trip");
        Self {
            trips,
            body,
            pragmas,
        }
    }

    /// Trip count.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// The loop body.
    pub fn body(&self) -> &LoopBody {
        &self.body
    }

    /// The attached pragmas.
    pub fn pragmas(&self) -> Pragmas {
        self.pragmas
    }
}

/// One top-level stage of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A loop nest.
    Loop(LoopNest),
    /// Straight-line ops.
    Seq(Vec<Op>),
    /// An AXI burst transferring `words` words from/to global memory.
    AxiBurst {
        /// Number of data words moved.
        words: u32,
    },
    /// An AXI-Stream handoff of `words` words between kernels: no burst
    /// setup, one word per cycle (§III-C: "streaming can be easily ported
    /// to the kernel implementation for additional acceleration").
    Stream {
        /// Number of data words moved.
        words: u32,
    },
}

/// Estimated cycles and achieved schedule for one loop or kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTiming {
    /// Cycles from first input to first complete output (pipeline fill +
    /// drain; for non-pipelined code, simply the latency).
    pub fill_cycles: u64,
    /// Steady-state cycles between consecutive inputs when the kernel is
    /// streamed (the kernel-level initiation interval). Equal to
    /// `fill_cycles` when nothing is pipelined.
    pub interval_cycles: u64,
}

/// The result of estimating a [`KernelSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEstimate {
    /// Timing of the whole kernel.
    pub timing: KernelTiming,
    /// Fabric resources consumed.
    pub resources: ResourceEstimate,
    /// `true` if any requested unroll had to be reduced to fit the budget.
    pub unroll_clamped: bool,
}

struct LoopEstimate {
    latency: u64,
    /// Achieved initiation interval if the loop is pipelined end-to-end.
    ii: Option<u64>,
    resources: ResourceEstimate,
    clamped: bool,
}

/// A kernel: named, format-typed, a sequence of stages, optionally in a
/// `DATAFLOW` region (stages overlap; latency = slowest stage).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    name: String,
    format: NumericFormat,
    stages: Vec<Stage>,
    dataflow: bool,
}

impl KernelSpec {
    /// Creates an empty kernel.
    pub fn new(name: impl Into<String>, format: NumericFormat) -> Self {
        Self {
            name: name.into(),
            format,
            stages: Vec::new(),
            dataflow: false,
        }
    }

    /// Appends a loop stage.
    pub fn stage(mut self, nest: LoopNest) -> Self {
        self.stages.push(Stage::Loop(nest));
        self
    }

    /// Appends a straight-line stage.
    pub fn seq(mut self, ops: Vec<Op>) -> Self {
        self.stages.push(Stage::Seq(ops));
        self
    }

    /// Appends an AXI burst stage.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn axi_burst(mut self, words: u32) -> Self {
        assert!(words > 0, "burst must move at least one word");
        self.stages.push(Stage::AxiBurst { words });
        self
    }

    /// Marks the kernel body as a `#pragma HLS DATAFLOW` region.
    pub fn dataflow(mut self) -> Self {
        self.dataflow = true;
        self
    }

    /// Converts every memory-mapped AXI burst into an AXI-Stream handoff —
    /// the §III-C acceleration for stream-capable platforms. Returns the
    /// transformed kernel.
    pub fn streamed(mut self) -> Self {
        for stage in &mut self.stages {
            if let Stage::AxiBurst { words } = *stage {
                *stage = Stage::Stream { words };
            }
        }
        self
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arithmetic format.
    pub fn format(&self) -> NumericFormat {
        self.format
    }

    /// Estimates timing and resources under `budget`.
    ///
    /// Stages are scheduled greedily in order: each loop's unrolling is
    /// clamped against whatever budget the preceding stages left over, so
    /// the kernel's total never exceeds its floorplan share.
    pub fn estimate(&self, budget: &ResourceEstimate) -> KernelEstimate {
        let lat = OpLatencies::for_format(self.format);
        let mut total_latency: u64 = 0;
        let mut slowest_stage: u64 = 0;
        let mut interval: u64 = 0;
        let mut resources = ResourceEstimate::zero();
        let mut clamped = false;
        for s in &self.stages {
            let remaining = budget.saturating_sub(resources);
            let (stage_latency, stage_interval) = match s {
                Stage::Loop(nest) => {
                    let est = estimate_loop(nest, self.format, &lat, &remaining);
                    resources += est.resources;
                    clamped |= est.clamped;
                    let si = est.ii.unwrap_or(est.latency);
                    (est.latency, si)
                }
                Stage::Seq(ops) => {
                    for &op in ops {
                        resources += op_cost(self.format, op);
                    }
                    let l = lat.chain(ops) as u64;
                    (l, l)
                }
                Stage::AxiBurst { words } => {
                    let l = AXI_BURST_SETUP + *words as u64;
                    (l, l)
                }
                Stage::Stream { words } => {
                    let l = *words as u64;
                    (l, l)
                }
            };
            total_latency += stage_latency;
            slowest_stage = slowest_stage.max(stage_latency);
            interval = interval.max(stage_interval);
        }
        let fill = if self.dataflow {
            // Stages overlap: fill ≈ slowest stage + one-cycle handoffs.
            slowest_stage + self.stages.len() as u64
        } else {
            total_latency
        };
        KernelEstimate {
            timing: KernelTiming {
                fill_cycles: fill.max(1),
                interval_cycles: interval.max(1),
            },
            resources,
            unroll_clamped: clamped,
        }
    }

    /// Estimates against a default budget: one sixth of a derated Alveo
    /// u200 (the paper's five kernels plus shell headroom).
    pub fn estimate_default(&self) -> KernelTiming {
        let budget = DeviceProfile::alveo_u200().kernel_budget(6);
        self.estimate(&budget).timing
    }
}

/// Resources of a single body instance (one iteration, unrolled once).
fn body_instance_resources(
    body: &LoopBody,
    format: NumericFormat,
    lat: &OpLatencies,
    budget: &ResourceEstimate,
) -> ResourceEstimate {
    match body {
        LoopBody::Mac => {
            op_cost(format, Op::MemRead).times(2)
                + op_cost(format, Op::Mul)
                + op_cost(format, Op::Add)
        }
        LoopBody::Map(ops) => ops.iter().fold(ResourceEstimate::zero(), |acc, &op| {
            acc + op_cost(format, op)
        }),
        LoopBody::Nested(inner) => estimate_loop(inner, format, lat, budget).resources,
    }
}

/// Largest unroll factor `≤ requested` whose replicated body fits `budget`.
fn clamp_unroll(requested: u32, instance: &ResourceEstimate, budget: &ResourceEstimate) -> u32 {
    let mut u = requested.max(1);
    while u > 1 && !instance.times(u).fits_within(budget) {
        u -= 1;
    }
    u
}

fn estimate_loop(
    nest: &LoopNest,
    format: NumericFormat,
    lat: &OpLatencies,
    budget: &ResourceEstimate,
) -> LoopEstimate {
    let pragmas = nest.pragmas();
    let trips = nest.trips() as u64;

    // Pipelining an outer loop forces complete unrolling of inner loops.
    if let LoopBody::Nested(inner) = nest.body() {
        return estimate_nested(nest, inner, format, lat, budget);
    }

    let instance = body_instance_resources(nest.body(), format, lat, budget);
    let requested_u = pragmas.unroll_factor(nest.trips());
    let applied_u = clamp_unroll(requested_u, &instance, budget);
    let clamped = applied_u < requested_u;
    let eff_trips = trips.div_ceil(applied_u as u64);
    let resources = instance.times(applied_u);

    match nest.body() {
        LoopBody::Mac => {
            // Depth of one initiation: parallel reads+multiplies, a
            // ⌈log₂ U⌉ adder tree over the partial products, then the
            // accumulating add.
            let tree_levels = (applied_u.max(1) as f64).log2().ceil() as u64;
            let read = if pragmas.is_partitioned() {
                lat.mem_read as u64
            } else {
                // Two reads per MAC over two BRAM ports: serialized pairs.
                (lat.mem_read as u64) * applied_u as u64
            };
            let depth = read + lat.mul as u64 + tree_levels * lat.add as u64 + lat.add as u64;
            if eff_trips == 1 {
                // Fully unrolled: a pure combinational/pipelined tree.
                LoopEstimate {
                    latency: depth,
                    ii: Some(1),
                    resources,
                    clamped,
                }
            } else if let Some(req_ii) = pragmas.pipeline_ii() {
                // Loop-carried accumulation bounds II by the adder latency.
                let mem_ii = if pragmas.is_partitioned() {
                    1
                } else {
                    applied_u as u64
                };
                let ii = (req_ii as u64).max(lat.add as u64).max(mem_ii);
                LoopEstimate {
                    latency: depth + ii * (eff_trips - 1),
                    ii: Some(ii),
                    resources,
                    clamped,
                }
            } else {
                LoopEstimate {
                    latency: eff_trips * (depth + LOOP_OVERHEAD),
                    ii: None,
                    resources,
                    clamped,
                }
            }
        }
        LoopBody::Map(ops) => {
            let reads = ops.iter().filter(|&&o| o == Op::MemRead).count() as u64;
            let depth = lat.chain(ops) as u64;
            if eff_trips == 1 {
                LoopEstimate {
                    latency: depth,
                    ii: Some(1),
                    resources,
                    clamped,
                }
            } else if let Some(req_ii) = pragmas.pipeline_ii() {
                // No carried dependence: II bounded only by memory ports.
                let mem_ii = if pragmas.is_partitioned() {
                    1
                } else {
                    (reads * applied_u as u64).div_ceil(2).max(1)
                };
                let ii = (req_ii as u64).max(mem_ii);
                LoopEstimate {
                    latency: depth + ii * (eff_trips - 1),
                    ii: Some(ii),
                    resources,
                    clamped,
                }
            } else {
                LoopEstimate {
                    latency: eff_trips * (depth + LOOP_OVERHEAD),
                    ii: None,
                    resources,
                    clamped,
                }
            }
        }
        LoopBody::Nested(_) => unreachable!("handled above"),
    }
}

fn estimate_nested(
    outer: &LoopNest,
    inner: &LoopNest,
    format: NumericFormat,
    lat: &OpLatencies,
    budget: &ResourceEstimate,
) -> LoopEstimate {
    let outer_pragmas = outer.pragmas();
    let outer_trips = outer.trips() as u64;

    // Resolve the inner loop first (it may itself clamp).
    let inner_est = estimate_loop(inner, format, lat, budget);

    // An unrolled or pipelined outer loop replicates / flattens the inner
    // loop body. Pipelining the outer requires the inner fully unrolled;
    // model that by re-estimating the inner with a full-unroll request and
    // checking resources.
    if outer_pragmas.pipeline_ii().is_some() || outer_pragmas.unroll_factor(outer.trips()) > 1 {
        let flat_inner = LoopNest::new(
            inner.trips(),
            inner.body().clone(),
            inner.pragmas().unroll_full().partition(),
        );
        let flat_est = estimate_loop(&flat_inner, format, lat, budget);
        let fully_flat = flat_est.ii == Some(1) && !flat_est.clamped;
        if fully_flat {
            // Inner became a tree of depth `flat_est.latency`. Now unroll
            // the outer as far as replicated trees fit.
            let requested_u = outer_pragmas.unroll_factor(outer.trips());
            let applied_u = clamp_unroll(requested_u, &flat_est.resources, budget);
            let clamped = applied_u < requested_u;
            let eff_trips = outer_trips.div_ceil(applied_u as u64);
            let resources = flat_est.resources.times(applied_u);
            if eff_trips == 1 {
                return LoopEstimate {
                    latency: flat_est.latency,
                    ii: Some(1),
                    resources,
                    clamped,
                };
            }
            if outer_pragmas.pipeline_ii().is_some() {
                // Rows are independent: II = 1 across outer iterations.
                let ii = outer_pragmas.pipeline_ii().unwrap_or(1) as u64;
                return LoopEstimate {
                    latency: flat_est.latency + ii * (eff_trips - 1),
                    ii: Some(ii * eff_trips),
                    resources,
                    clamped,
                };
            }
            return LoopEstimate {
                latency: eff_trips * (flat_est.latency + LOOP_OVERHEAD),
                ii: None,
                resources,
                clamped: true, // pipelining/unrolling was requested but partial
            };
        }
        // Inner could not be flattened: outer pipeline request fails,
        // fall through to the sequential outer with the (possibly
        // optimized) inner.
        return LoopEstimate {
            latency: outer_trips * (inner_est.latency + LOOP_OVERHEAD),
            ii: None,
            resources: inner_est.resources,
            clamped: true,
        };
    }

    LoopEstimate {
        latency: outer_trips * (inner_est.latency + LOOP_OVERHEAD),
        ii: None,
        resources: inner_est.resources,
        clamped: inner_est.clamped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_budget() -> ResourceEstimate {
        DeviceProfile::alveo_u200().capacity
    }

    fn tiny_budget() -> ResourceEstimate {
        ResourceEstimate {
            dsp: 8,
            lut: 4_000,
            ff: 8_000,
            bram: 8,
        }
    }

    #[test]
    fn pipelined_mac_uses_fill_plus_ii() {
        // 40-MAC, float, pipelined: II = fadd = 4 (loop-carried accumulate).
        let nest = LoopNest::new(40, LoopBody::Mac, Pragmas::new().pipeline(1).partition());
        let est = estimate_loop(
            &nest,
            NumericFormat::Float32,
            &OpLatencies::float32(),
            &big_budget(),
        );
        assert_eq!(est.ii, Some(4));
        // depth = read 2 + mul 4 + tree 0 + add 4 = 10; 10 + 4·39 = 166.
        assert_eq!(est.latency, 10 + 4 * 39);
    }

    #[test]
    fn fixed_point_mac_reaches_ii_one() {
        let nest = LoopNest::new(40, LoopBody::Mac, Pragmas::new().pipeline(1).partition());
        let est = estimate_loop(
            &nest,
            NumericFormat::FixedPoint64,
            &OpLatencies::fixed_point64(),
            &big_budget(),
        );
        assert_eq!(est.ii, Some(1), "single-cycle integer add → II=1");
        assert!(est.latency < 60);
    }

    #[test]
    fn unpipelined_loop_is_trips_times_depth() {
        let nest = LoopNest::new(10, LoopBody::Mac, Pragmas::new());
        let est = estimate_loop(
            &nest,
            NumericFormat::Float32,
            &OpLatencies::float32(),
            &big_budget(),
        );
        // depth = 2 (reads, U=1) + mul 4 + add 4 = 10 per iteration.
        assert_eq!(est.ii, None);
        assert_eq!(est.latency, 10 * (2 + 4 + 4 + LOOP_OVERHEAD));
    }

    #[test]
    fn full_unroll_becomes_adder_tree() {
        let nest = LoopNest::new(32, LoopBody::Mac, Pragmas::new().unroll_full().partition());
        let est = estimate_loop(
            &nest,
            NumericFormat::FixedPoint64,
            &OpLatencies::fixed_point64(),
            &big_budget(),
        );
        // read 1 + mul 3 + 5 tree levels + final add = 1+3+5+1 = 10.
        assert_eq!(est.latency, 10);
        assert_eq!(est.ii, Some(1));
    }

    #[test]
    fn unroll_clamped_by_dsp_budget() {
        let nest = LoopNest::new(
            40,
            LoopBody::Mac,
            Pragmas::new().unroll_full().partition().pipeline(1),
        );
        let est = estimate_loop(
            &nest,
            NumericFormat::Float32,
            &OpLatencies::float32(),
            &tiny_budget(),
        );
        assert!(est.clamped, "40 float MACs cannot fit in 8 DSPs");
        assert!(est.resources.fits_within(&tiny_budget()));
    }

    #[test]
    fn float_clamps_before_fixed_on_same_budget() {
        // The paper's asymmetry: fixed-point multipliers are cheaper, so the
        // same budget admits more parallelism.
        let budget = ResourceEstimate {
            dsp: 60,
            lut: 100_000,
            ff: 200_000,
            bram: 100,
        };
        let nest = LoopNest::new(40, LoopBody::Mac, Pragmas::new().unroll_full().partition());
        let f = estimate_loop(
            &nest,
            NumericFormat::Float32,
            &OpLatencies::float32(),
            &budget,
        );
        let x = estimate_loop(
            &nest,
            NumericFormat::FixedPoint64,
            &OpLatencies::fixed_point64(),
            &budget,
        );
        assert!(f.clamped);
        assert!(!x.clamped || x.latency < f.latency);
        assert!(x.latency < f.latency);
    }

    #[test]
    fn nested_outer_pipeline_flattens_inner() {
        // 32 rows × 40-MAC, fixed point, outer pipelined: the whole gate
        // matrix streams at low latency.
        let inner = LoopNest::new(40, LoopBody::Mac, Pragmas::new().pipeline(1).partition());
        let outer = LoopNest::new(
            32,
            LoopBody::Nested(Box::new(inner)),
            Pragmas::new().pipeline(1),
        );
        let est = estimate_loop(
            &outer,
            NumericFormat::FixedPoint64,
            &OpLatencies::fixed_point64(),
            &big_budget(),
        );
        assert!(est.ii.is_some());
        assert!(est.latency < 32 * 50, "pipelined rows overlap");
    }

    #[test]
    fn nested_without_pragmas_is_sequential() {
        let inner = LoopNest::new(4, LoopBody::Mac, Pragmas::new());
        let outer = LoopNest::new(3, LoopBody::Nested(Box::new(inner)), Pragmas::new());
        let est = estimate_loop(
            &outer,
            NumericFormat::Float32,
            &OpLatencies::float32(),
            &big_budget(),
        );
        assert_eq!(est.ii, None);
        let inner_lat = 4 * (2 + 4 + 4 + LOOP_OVERHEAD);
        assert_eq!(est.latency, 3 * (inner_lat + LOOP_OVERHEAD));
    }

    #[test]
    fn kernel_spec_dataflow_overlaps_stages() {
        let mk = |dataflow: bool| {
            let spec = KernelSpec::new("k", NumericFormat::FixedPoint64)
                .stage(LoopNest::new(
                    16,
                    LoopBody::Map(vec![Op::Mul, Op::Add]),
                    Pragmas::new().pipeline(1).partition(),
                ))
                .stage(LoopNest::new(
                    16,
                    LoopBody::Map(vec![Op::Mul]),
                    Pragmas::new().pipeline(1).partition(),
                ));
            let spec = if dataflow { spec.dataflow() } else { spec };
            spec.estimate(&big_budget()).timing.fill_cycles
        };
        assert!(mk(true) < mk(false));
    }

    #[test]
    fn axi_burst_costs_setup_plus_beats() {
        let spec = KernelSpec::new("dma", NumericFormat::Float32).axi_burst(8);
        let t = spec.estimate(&big_budget()).timing;
        assert_eq!(t.fill_cycles, AXI_BURST_SETUP + 8);
    }

    #[test]
    fn streaming_removes_burst_setup() {
        let burst = KernelSpec::new("k", NumericFormat::FixedPoint64).axi_burst(8);
        let stream = burst.clone().streamed();
        let tb = burst.estimate(&big_budget()).timing.fill_cycles;
        let ts = stream.estimate(&big_budget()).timing.fill_cycles;
        assert_eq!(tb, AXI_BURST_SETUP + 8);
        assert_eq!(ts, 8);
    }

    #[test]
    fn interval_is_max_stage_interval() {
        let spec = KernelSpec::new("k", NumericFormat::FixedPoint64)
            .axi_burst(8)
            .stage(LoopNest::new(
                32,
                LoopBody::Map(vec![Op::Add]),
                Pragmas::new().pipeline(1).partition(),
            ));
        let est = spec.estimate(&big_budget());
        assert_eq!(est.timing.interval_cycles, AXI_BURST_SETUP + 8);
    }

    #[test]
    #[should_panic(expected = "at least one trip")]
    fn zero_trips_rejected() {
        let _ = LoopNest::new(0, LoopBody::Mac, Pragmas::new());
    }
}
