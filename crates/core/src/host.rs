//! The host program against the simulated SmartSSD.
//!
//! §III-A: "the host program that is responsible for general control flow,
//! initiating data transfers, and managing the interaction with the FPGA
//! ingests this text file amid initializing the FPGA." [`HostProgram`]
//! performs exactly those steps on the [`csd_device`] runtime: parse the
//! weight file, quantize, allocate device buffers on the two DDR banks,
//! migrate the parameters, load sequence data from the SSD peer-to-peer,
//! and drive the per-item kernel schedule — returning both the
//! classification (computed bit-faithfully by the engine) and the
//! simulated device time.
//!
//! With a fault plan armed on the device (see [`csd_device::fault`]),
//! every step can fail; [`HostProgram`] recovers per its
//! [`RecoveryPolicy`]: bounded retry with exponential backoff, waiting
//! out brownouts, and a full bitstream reload ([reprogram]) after
//! repeated failures — so a flaky device delays verdicts but never
//! loses or changes one.
//!
//! [reprogram]: RecoveryPolicy::reprogram_after

#![deny(clippy::unwrap_used)]

use std::fmt;

use csd_device::{
    BufferHandle, DeviceRuntime, FaultCounters, FaultPlan, KernelHandle, Nanos, RuntimeError,
    SmartSsd,
};
use csd_nn::{ModelWeights, WeightsError};
use serde::{Deserialize, Serialize};

use crate::bitstream::{link, LinkError, Xclbin};
use crate::engine::{Classification, CsdInferenceEngine};
use crate::kernels::GateKind;
use crate::opt::OptimizationLevel;

/// Anything that can go wrong while booting or driving a host session,
/// with the layer that failed preserved for callers to match on.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// The weight text file failed to parse.
    Weights(WeightsError),
    /// The five-kernel design did not fit the target fabric.
    Link(LinkError),
    /// The device runtime rejected an operation.
    Device(RuntimeError),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Weights(e) => write!(f, "weight file rejected: {e}"),
            HostError::Link(e) => write!(f, "design failed to link: {e}"),
            HostError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::Weights(e) => Some(e),
            HostError::Link(e) => Some(e),
            HostError::Device(e) => Some(e),
        }
    }
}

impl From<WeightsError> for HostError {
    fn from(e: WeightsError) -> Self {
        HostError::Weights(e)
    }
}

impl From<LinkError> for HostError {
    fn from(e: LinkError) -> Self {
        HostError::Link(e)
    }
}

impl From<RuntimeError> for HostError {
    fn from(e: RuntimeError) -> Self {
        HostError::Device(e)
    }
}

/// How a [`HostProgram`] responds to device faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Retries per classification before giving up and surfacing the
    /// error (the fleet layer then quarantines the device).
    pub max_retries: u32,
    /// Base backoff between retries; doubles per consecutive failure.
    pub backoff: Nanos,
    /// Consecutive failures that trigger a bitstream reload. Set to
    /// `u32::MAX` for a retry-only policy (the hung-kernel worst case
    /// then drains at the stall's own pace).
    pub reprogram_after: u32,
    /// Per-run kernel watchdog deadline (`None` disables it — a hung
    /// kernel then just makes the run slow instead of erroring).
    pub watchdog: Option<Nanos>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            backoff: Nanos::from_micros(50.0),
            reprogram_after: 2,
            watchdog: Some(Nanos::from_micros(10_000.0)),
        }
    }
}

impl RecoveryPolicy {
    /// Retry-with-backoff only; never reloads the bitstream.
    pub fn retry_only() -> Self {
        Self {
            reprogram_after: u32::MAX,
            ..Self::default()
        }
    }
}

/// Running recovery tallies for one host session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Device faults observed (all classes).
    pub faults: u64,
    /// Retries performed.
    pub retries: u64,
    /// Bitstream reloads performed.
    pub reprograms: u64,
    /// Kernel watchdog deadline trips.
    pub watchdog_trips: u64,
    /// Brownout windows waited out.
    pub brownout_waits: u64,
    /// CRC-on-DMA transfer rejections.
    pub crc_rejects: u64,
    /// SSD page-read failures.
    pub page_read_failures: u64,
}

impl RecoveryStats {
    fn note(&mut self, e: &RuntimeError) {
        self.faults += 1;
        match e {
            RuntimeError::TransferCorrupted { .. } => self.crc_rejects += 1,
            RuntimeError::KernelTimeout { .. } => self.watchdog_trips += 1,
            RuntimeError::PageReadFailed => self.page_read_failures += 1,
            RuntimeError::DeviceBrownout { .. } => self.brownout_waits += 1,
            _ => {}
        }
    }
}

/// Simulated cost of tearing the session down and reloading the
/// bitstream (partial reconfiguration of a KU15P-class fabric runs in
/// the hundreds of milliseconds).
const REPROGRAM_COST: Nanos = Nanos(400_000_000);

/// The result of one device-timed sequence classification.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRun {
    /// The classification (identical to the engine's).
    pub classification: Classification,
    /// Simulated device time from enqueue to final-kernel completion,
    /// including any retries, backoff, and reprogramming.
    pub elapsed: Nanos,
    /// Bytes loaded from NAND peer-to-peer for this run.
    pub p2p_bytes: u64,
    /// Retries it took to land this verdict (0 = clean first attempt).
    pub retries: u32,
}

/// The host program: one programmed FPGA session.
#[derive(Debug)]
pub struct HostProgram {
    runtime: DeviceRuntime,
    engine: CsdInferenceEngine,
    /// The linked image, kept so a bitstream reload can re-register the
    /// kernels with the same per-item timings.
    image: Xclbin,
    weight_buf: BufferHandle,
    seq_buf: BufferHandle,
    k_pre: KernelHandle,
    k_gates: [KernelHandle; 4],
    k_hidden: KernelHandle,
    model_version: u64,
    policy: RecoveryPolicy,
    stats: RecoveryStats,
    /// P2P bytes from sessions torn down by [`Self::reprogram`], so
    /// per-run accounting stays monotone across bitstream reloads.
    p2p_offset: u64,
}

impl HostProgram {
    /// Parses the paper's weight text file and initializes the device.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Weights`] for a malformed file,
    /// [`HostError::Link`] if the design does not fit, or
    /// [`HostError::Device`] if device setup fails.
    pub fn from_weight_file(text: &str, level: OptimizationLevel) -> Result<Self, HostError> {
        let weights = ModelWeights::from_text(text)?;
        Self::new(&weights, level)
    }

    /// Initializes the device from already-parsed weights: links the
    /// five-kernel design for the u200 testbed (the `v++` step) and
    /// programs the resulting image.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Link`] if the design does not fit the u200
    /// fabric, or [`HostError::Device`] if buffer allocation fails.
    pub fn new(weights: &ModelWeights, level: OptimizationLevel) -> Result<Self, HostError> {
        let engine = CsdInferenceEngine::new(weights, level);
        let dims = engine.weights().dims();
        let device = SmartSsd::new_u200_testbed();
        let image = link(level, &dims, device.fpga())?;
        Ok(Self::program_engine(device, image, engine)?)
    }

    /// Programs a pre-linked [`Xclbin`] image with the given weights.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if buffer allocation fails, or
    /// [`RuntimeError::ShapeMismatch`] when the weights' dimensions do not
    /// match the image's compiled loop bounds.
    pub fn program(weights: &ModelWeights, image: Xclbin) -> Result<Self, RuntimeError> {
        let engine = CsdInferenceEngine::new(weights, image.level);
        if engine.weights().dims() != image.dims {
            return Err(RuntimeError::ShapeMismatch);
        }
        // Pick the SmartSSD flavour whose fabric matches the image.
        let device = if image.device == csd_hls::DeviceProfile::kintex_ku15p() {
            SmartSsd::new_smartssd()
        } else {
            SmartSsd::new_u200_testbed()
        };
        Self::program_engine(device, image, engine)
    }

    fn program_engine(
        device: SmartSsd,
        image: Xclbin,
        engine: CsdInferenceEngine,
    ) -> Result<Self, RuntimeError> {
        let policy = RecoveryPolicy::default();
        let mut runtime = DeviceRuntime::new(device);
        runtime.set_watchdog(policy.watchdog);
        let (weight_buf, seq_buf, k_pre, k_gates, k_hidden) =
            Self::set_up_session(&mut runtime, &image, &engine)?;
        Ok(Self {
            runtime,
            engine,
            image,
            weight_buf,
            seq_buf,
            k_pre,
            k_gates,
            k_hidden,
            model_version: 1,
            policy,
            stats: RecoveryStats::default(),
            p2p_offset: 0,
        })
    }

    /// Allocates the two-bank buffer layout, migrates the weights, and
    /// registers the five kernel circuits — shared between first boot
    /// and every bitstream reload.
    #[allow(clippy::type_complexity)]
    fn set_up_session(
        runtime: &mut DeviceRuntime,
        image: &Xclbin,
        engine: &CsdInferenceEngine,
    ) -> Result<
        (
            BufferHandle,
            BufferHandle,
            KernelHandle,
            [KernelHandle; 4],
            KernelHandle,
        ),
        RuntimeError,
    > {
        // Weights on bank 0, sequence data on bank 1 (two-bank policy).
        let weight_buf = runtime.alloc_buffer(0, engine.weights().device_bytes())?;
        let seq_buf = runtime.alloc_buffer(1, 4096)?;
        runtime.migrate_to_device(weight_buf)?;

        // Register the kernel instances with their per-item durations
        // straight from the linked image.
        let micros = |name: &str| Nanos::from_micros(image.per_item_us(name));
        let k_pre = runtime.register_kernel("kernel_preprocess", micros("kernel_preprocess"));
        let k_gates = GateKind::ALL.map(|kind| {
            let name = format!("kernel_gates[{kind:?}]");
            let d = micros(&name);
            runtime.register_kernel(name, d)
        });
        let k_hidden =
            runtime.register_kernel("kernel_hidden_state", micros("kernel_hidden_state"));
        Ok((weight_buf, seq_buf, k_pre, k_gates, k_hidden))
    }

    /// Replaces the default [`RecoveryPolicy`] (builder style).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.set_recovery(policy);
        self
    }

    /// Replaces the recovery policy in place.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
        self.runtime.set_watchdog(policy.watchdog);
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Recovery tallies accumulated by this session.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Arms a deterministic fault schedule on the underlying device.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.runtime.device_mut().arm_faults(plan);
    }

    /// Disarms fault injection; returns the retired plan if one was armed.
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.runtime.device_mut().disarm_faults()
    }

    /// Faults the device has injected so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.runtime.device().fault_counters()
    }

    /// Tears the session down and reloads the bitstream: the device
    /// (armed fault plan and all) survives, every circuit is freed —
    /// including ones hung by a stalled run — and the weights are
    /// re-migrated. Costs ~400 ms of simulated time.
    ///
    /// # Errors
    ///
    /// Returns the last [`RuntimeError`] if re-migrating the weights
    /// keeps failing past the retry budget; the session is left
    /// consistent and a later retry may still succeed.
    pub fn reprogram(&mut self) -> Result<(), RuntimeError> {
        self.stats.reprograms += 1;
        self.p2p_offset += self.runtime.summary().p2p_bytes;
        let old = std::mem::replace(
            &mut self.runtime,
            DeviceRuntime::new(SmartSsd::new_u200_testbed()),
        );
        let (device, elapsed) = old.release();
        let mut runtime = DeviceRuntime::new_at(device, elapsed + REPROGRAM_COST);
        runtime.set_watchdog(self.policy.watchdog);
        let mut attempt = 0u32;
        let result = loop {
            match Self::set_up_session(&mut runtime, &self.image, &self.engine) {
                Ok(handles) => break Ok(handles),
                Err(e) => {
                    self.stats.note(&e);
                    if attempt >= self.policy.max_retries {
                        break Err(e);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    if let RuntimeError::DeviceBrownout { until } = e {
                        runtime.advance_to(until);
                    } else {
                        runtime.advance(self.backoff_for(attempt));
                    }
                }
            }
        };
        match result {
            Ok((weight_buf, seq_buf, k_pre, k_gates, k_hidden)) => {
                self.runtime = runtime;
                self.weight_buf = weight_buf;
                self.seq_buf = seq_buf;
                self.k_pre = k_pre;
                self.k_gates = k_gates;
                self.k_hidden = k_hidden;
                Ok(())
            }
            Err(e) => {
                // Keep the real device so its clock and fault counters
                // stay truthful; the caller sees the error and can
                // quarantine or retry.
                self.runtime = runtime;
                Err(e)
            }
        }
    }

    /// Exponential backoff for the `attempt`-th retry (1-based).
    fn backoff_for(&self, attempt: u32) -> Nanos {
        let shift = attempt.saturating_sub(1).min(16);
        Nanos(self.policy.backoff.as_nanos().saturating_mul(1u64 << shift))
    }

    /// The currently-deployed model version (1 after boot; bumped by
    /// every [`Self::update_weights`]).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Hot-swaps the deployed model with retrained weights — the §III-A
    /// operational loop: "it is advisable to update the FPGA-based model
    /// with a version that has been retrained on new ransomware strains
    /// once they are uncovered in Cyber Threat Intelligence (CTI) feeds".
    /// The kernel bitstream is compiled once; only the parameter buffers
    /// move, so the update is a single weight migration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ShapeMismatch`] when the new weights do not
    /// match the compiled kernel dimensions (the FPGA structure "remains
    /// fixed regardless of changes in the number of parameters" — to
    /// change shape, rebuild the [`HostProgram`]), or a migration error.
    pub fn update_weights(&mut self, weights: &ModelWeights) -> Result<Nanos, RuntimeError> {
        let new_engine = CsdInferenceEngine::new(weights, self.engine.level());
        if new_engine.weights().dims() != self.engine.weights().dims() {
            return Err(RuntimeError::ShapeMismatch);
        }
        let done = self.runtime.migrate_to_device(self.weight_buf)?;
        self.engine = new_engine;
        self.model_version += 1;
        Ok(done)
    }

    /// The functional engine backing this session.
    pub fn engine(&self) -> &CsdInferenceEngine {
        &self.engine
    }

    /// Engages the mitigation: freezes SSD writes so "subsequent
    /// encryption by the malware" (§IV) cannot land — the action a
    /// [`crate::monitor::StreamMonitor`] alert triggers.
    pub fn quarantine(&mut self) {
        self.runtime.freeze_writes();
    }

    /// Releases the quarantine after remediation.
    pub fn release_quarantine(&mut self) {
        self.runtime.thaw_writes();
    }

    /// A write attempt against the protected storage (e.g. the ransomware
    /// sealing another encrypted file); returns `None` when the quarantine
    /// rejected it.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn attempt_victim_write(&mut self, bytes: u64) -> Option<Nanos> {
        self.runtime.attempt_host_write(bytes)
    }

    /// Classifies a sequence stored on the SSD: loads it P2P into FPGA
    /// DRAM, drives the per-item kernel schedule, and returns the result
    /// with simulated timing.
    ///
    /// Under an armed fault plan, failures are absorbed per the
    /// [`RecoveryPolicy`]: bounded retry with exponential backoff,
    /// waiting out brownouts, and a bitstream reload after
    /// [`RecoveryPolicy::reprogram_after`] consecutive failures. The
    /// verdict itself is never affected — a faulted run produces no
    /// verdict at all until an attempt completes cleanly, and the
    /// classification is computed bit-faithfully by the engine.
    ///
    /// # Errors
    ///
    /// Returns the last [`RuntimeError`] once the retry budget
    /// ([`RecoveryPolicy::max_retries`]) is exhausted.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn classify_from_ssd(&mut self, seq: &[usize]) -> Result<DeviceRun, RuntimeError> {
        assert!(!seq.is_empty(), "empty sequence");
        let start = self.runtime.now();
        let before_p2p = self.p2p_offset + self.runtime.summary().p2p_bytes;
        let mut retries = 0u32;
        let mut consecutive = 0u32;
        let end = loop {
            match self.attempt_run(seq) {
                Ok(end) => break end,
                Err(e) => {
                    self.stats.note(&e);
                    if retries >= self.policy.max_retries {
                        return Err(e);
                    }
                    retries += 1;
                    consecutive += 1;
                    self.stats.retries += 1;
                    if let RuntimeError::DeviceBrownout { until } = e {
                        self.runtime.advance_to(until);
                    } else {
                        self.runtime.advance(self.backoff_for(consecutive));
                    }
                    if consecutive >= self.policy.reprogram_after {
                        self.reprogram()?;
                        consecutive = 0;
                    }
                }
            }
        };
        let classification = self.engine.classify(seq);
        Ok(DeviceRun {
            classification,
            elapsed: end - start,
            p2p_bytes: self.p2p_offset + self.runtime.summary().p2p_bytes - before_p2p,
            retries,
        })
    }

    /// One fault-vulnerable pass of the P2P load + kernel schedule.
    fn attempt_run(&mut self, seq: &[usize]) -> Result<Nanos, RuntimeError> {
        let bytes = (seq.len() * std::mem::size_of::<u64>()) as u64;
        self.runtime.p2p_load(self.seq_buf, bytes)?;
        for _item in seq {
            // Parameters were migrated once at boot and live in on-chip
            // buffers; per item, only the sequence data is re-read.
            // Kernels overlap across items (§III-C's pipeline): each
            // circuit serializes with itself, so the steady-state item
            // rate is set by the slowest kernel.
            self.runtime.enqueue(self.k_pre, &[self.seq_buf])?;
            for k in self.k_gates {
                self.runtime.enqueue(k, &[])?;
            }
            self.runtime.enqueue(self.k_hidden, &[])?;
        }
        Ok(self.runtime.wait_all())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use csd_device::FaultConfig;
    use csd_nn::{ModelConfig, SequenceClassifier};

    fn weights() -> ModelWeights {
        ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 4))
    }

    fn seq() -> Vec<usize> {
        (0..100).map(|i| (7 * i) % 278).collect()
    }

    #[test]
    fn weight_file_roundtrip_boots_the_device() {
        let text = weights().to_text();
        let mut host =
            HostProgram::from_weight_file(&text, OptimizationLevel::FixedPoint).expect("boot");
        let run = host.classify_from_ssd(&seq()).expect("run");
        assert!(run.elapsed > Nanos::ZERO);
        assert!((0.0..=1.0).contains(&run.classification.probability));
    }

    #[test]
    fn bad_weight_file_is_rejected_with_typed_error() {
        let err = HostProgram::from_weight_file("garbage", OptimizationLevel::Vanilla)
            .expect_err("must fail");
        assert!(
            matches!(err, HostError::Weights(WeightsError::BadMagic)),
            "{err:?}"
        );
        assert!(err.to_string().contains("magic"), "{err}");
        use std::error::Error as _;
        assert!(err.source().is_some(), "layered error keeps its source");
    }

    #[test]
    fn hostile_weight_file_is_an_error_not_a_panic() {
        // Each of these parses as an `f64` and would reach the
        // quantizer's `expect`; the last line's header wraps
        // `vocab · embed_dim` to 0.
        let text = weights().to_text();
        let first = text.find("[embedding]\n").expect("section") + "[embedding]\n".len();
        let end = first + text[first..].find(' ').expect("a first value");
        for hostile in ["NaN", "inf", "-inf", "1e400", "1e13"] {
            let mut poisoned = text.clone();
            poisoned.replace_range(first..end, hostile);
            let err = HostProgram::from_weight_file(&poisoned, OptimizationLevel::FixedPoint)
                .expect_err("must fail");
            assert!(
                matches!(&err, HostError::Weights(WeightsError::BadNumber(tok)) if tok == hostile),
                "{err:?}"
            );
        }
        let wrapped = text
            .replace("vocab 278\n", "vocab 9223372036854775808\n")
            .replace("embed_dim 8\n", "embed_dim 2\n");
        let err = HostProgram::from_weight_file(&wrapped, OptimizationLevel::FixedPoint)
            .expect_err("must fail");
        assert!(
            matches!(err, HostError::Weights(WeightsError::BadHeader(_))),
            "{err:?}"
        );
    }

    #[test]
    fn classification_matches_pure_engine() {
        let w = weights();
        let mut host = HostProgram::new(&w, OptimizationLevel::FixedPoint).expect("boot");
        let engine = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        let s = seq();
        let run = host.classify_from_ssd(&s).expect("run");
        assert_eq!(run.classification, engine.classify(&s));
    }

    #[test]
    fn sequence_data_travels_p2p() {
        let mut host = HostProgram::new(&weights(), OptimizationLevel::FixedPoint).expect("boot");
        let run = host.classify_from_ssd(&seq()).expect("run");
        assert_eq!(run.p2p_bytes, 100 * 8);
    }

    #[test]
    fn optimized_level_is_faster_on_device() {
        let w = weights();
        let s = seq();
        let mut vanilla = HostProgram::new(&w, OptimizationLevel::Vanilla).expect("boot");
        let mut fixed = HostProgram::new(&w, OptimizationLevel::FixedPoint).expect("boot");
        let tv = vanilla.classify_from_ssd(&s).expect("run").elapsed;
        let tf = fixed.classify_from_ssd(&s).expect("run").elapsed;
        assert!(tf < tv, "fixed {tf} vs vanilla {tv}");
    }

    #[test]
    fn quarantine_blocks_encryption_writes() {
        let mut host = HostProgram::new(&weights(), OptimizationLevel::FixedPoint).expect("boot");
        assert!(host.attempt_victim_write(16 * 1024).is_some());
        host.quarantine();
        assert!(host.attempt_victim_write(16 * 1024).is_none());
        assert!(host.attempt_victim_write(4096).is_none());
        host.release_quarantine();
        assert!(host.attempt_victim_write(4096).is_some());
    }

    #[test]
    fn program_rejects_mismatched_dimensions() {
        let image = crate::bitstream::link(
            OptimizationLevel::FixedPoint,
            &crate::kernels::LstmDims::paper(),
            &csd_hls::DeviceProfile::alveo_u200(),
        )
        .expect("links");
        let wrong = ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::tiny(30), 2));
        assert_eq!(
            HostProgram::program(&wrong, image).unwrap_err(),
            RuntimeError::ShapeMismatch
        );
    }

    #[test]
    fn smartssd_image_runs_slower_than_u200() {
        // The deployment fabric (KU15P) is smaller, so the same design
        // clamps harder and each item takes longer on-device.
        let w = weights();
        let dims = crate::kernels::LstmDims::paper();
        let s = seq();
        let elapsed_on = |device: csd_hls::DeviceProfile| {
            let image = crate::bitstream::link(OptimizationLevel::FixedPoint, &dims, &device)
                .expect("links");
            let mut host = HostProgram::program(&w, image).expect("program");
            host.classify_from_ssd(&s).expect("run").elapsed
        };
        let smart = elapsed_on(csd_hls::DeviceProfile::kintex_ku15p());
        let u200 = elapsed_on(csd_hls::DeviceProfile::alveo_u200());
        assert!(smart >= u200, "{smart} vs {u200}");
    }

    #[test]
    fn cti_weight_update_swaps_the_model() {
        let old = weights();
        let retrained =
            ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), 99));
        let mut host = HostProgram::new(&old, OptimizationLevel::FixedPoint).expect("boot");
        assert_eq!(host.model_version(), 1);
        let s = seq();
        let before = host.engine().classify(&s);
        host.update_weights(&retrained).expect("update");
        assert_eq!(host.model_version(), 2);
        let after = host.engine().classify(&s);
        assert_ne!(before, after, "new weights must change behaviour");
        // And matches a fresh engine on the retrained weights.
        let fresh = CsdInferenceEngine::new(&retrained, OptimizationLevel::FixedPoint);
        assert_eq!(after, fresh.classify(&s));
    }

    #[test]
    fn update_rejects_shape_changes() {
        let mut host = HostProgram::new(&weights(), OptimizationLevel::FixedPoint).expect("boot");
        let other_shape =
            ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::tiny(50), 1));
        let err = host.update_weights(&other_shape).unwrap_err();
        assert_eq!(err, RuntimeError::ShapeMismatch);
        assert_eq!(host.model_version(), 1, "failed update must not bump");
    }

    fn corruption_only(rate: f64) -> FaultConfig {
        let mut cfg = FaultConfig::none();
        cfg.corruption = rate;
        cfg
    }

    #[test]
    fn low_rate_corruption_is_absorbed_by_retries() {
        let w = weights();
        let s = seq();
        let engine = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        let mut host = HostProgram::new(&w, OptimizationLevel::FixedPoint)
            .expect("boot")
            .with_recovery(RecoveryPolicy {
                max_retries: 16,
                ..RecoveryPolicy::default()
            });
        host.arm_faults(FaultPlan::new(11, corruption_only(0.002)));
        let mut faulted_runs = 0;
        for _ in 0..8 {
            let run = host.classify_from_ssd(&s).expect("recovers");
            // The verdict is bit-identical to the fault-free engine no
            // matter how many attempts it took.
            assert_eq!(run.classification, engine.classify(&s));
            if run.retries > 0 {
                faulted_runs += 1;
            }
        }
        assert!(faulted_runs > 0, "rate 0.002 over 8 runs must fault");
        let stats = host.recovery_stats();
        assert!(stats.faults > 0 && stats.retries > 0);
        assert_eq!(stats.crc_rejects, stats.faults, "only corruption armed");
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_error() {
        let mut host = HostProgram::new(&weights(), OptimizationLevel::FixedPoint)
            .expect("boot")
            .with_recovery(RecoveryPolicy {
                max_retries: 2,
                ..RecoveryPolicy::retry_only()
            });
        host.arm_faults(FaultPlan::new(5, corruption_only(1.0)));
        let err = host
            .classify_from_ssd(&seq())
            .expect_err("budget exhausted");
        assert!(matches!(err, RuntimeError::TransferCorrupted { .. }));
        let stats = host.recovery_stats();
        assert_eq!(stats.retries, 2, "exactly the budget");
        assert_eq!(stats.faults, 3, "initial attempt + two retries");
        assert_eq!(stats.reprograms, 0, "retry-only policy never reloads");
        // The device recovers the moment the fault clears.
        host.disarm_faults();
        assert!(host.classify_from_ssd(&seq()).is_ok());
    }

    #[test]
    fn watchdog_plus_reprogram_frees_a_hung_circuit() {
        let mut cfg = FaultConfig::none();
        cfg.stall = 1.0;
        cfg.stall_duration = Nanos::from_micros(2_000_000.0); // 2 s hang
        let mut host = HostProgram::new(&weights(), OptimizationLevel::FixedPoint)
            .expect("boot")
            .with_recovery(RecoveryPolicy {
                max_retries: 1,
                reprogram_after: 1,
                ..RecoveryPolicy::default()
            });
        host.arm_faults(FaultPlan::new(9, cfg));
        let err = host.classify_from_ssd(&seq()).expect_err("still flaky");
        assert!(matches!(err, RuntimeError::KernelTimeout { .. }), "{err:?}");
        let stats = host.recovery_stats();
        assert!(stats.watchdog_trips >= 1);
        assert!(stats.reprograms >= 1, "policy reloads after 1 failure");
        // Clear the fault, reload once more to free the hung circuit:
        // the run completes in device-time, not hang-time.
        host.disarm_faults();
        host.reprogram().expect("clean reload");
        let run = host.classify_from_ssd(&seq()).expect("clean run");
        assert!(
            run.elapsed < Nanos::from_micros(1_000_000.0),
            "no residual hang: {}",
            run.elapsed
        );
    }

    #[test]
    fn brownout_is_waited_out_not_fatal() {
        let mut cfg = FaultConfig::none();
        // Per-operation probability: one classify issues ~600 faultable
        // operations, so even 3e-4 browns out most attempts once.
        cfg.brownout = 0.0003;
        cfg.brownout_window = Nanos::from_micros(500.0);
        let w = weights();
        let s = seq();
        let engine = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        let mut host = HostProgram::new(&w, OptimizationLevel::FixedPoint)
            .expect("boot")
            .with_recovery(RecoveryPolicy {
                max_retries: 16,
                ..RecoveryPolicy::default()
            });
        host.arm_faults(FaultPlan::new(3, cfg));
        for _ in 0..4 {
            let run = host.classify_from_ssd(&s).expect("waits out brownouts");
            assert_eq!(run.classification, engine.classify(&s));
        }
        assert!(
            host.recovery_stats().brownout_waits > 0,
            "brownouts did fire"
        );
        assert!(host.fault_counters().brownouts > 0);
    }

    #[test]
    fn successive_runs_accumulate_time() {
        let mut host = HostProgram::new(&weights(), OptimizationLevel::FixedPoint).expect("boot");
        let a = host.classify_from_ssd(&seq()).expect("run").elapsed;
        let b = host.classify_from_ssd(&seq()).expect("run").elapsed;
        // Same work each run (modulo resource-timeline carryover).
        assert!(b.as_nanos() <= 2 * a.as_nanos());
    }
}
