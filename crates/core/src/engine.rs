//! The end-to-end CSD inference engine.
//!
//! [`CsdInferenceEngine`] executes the five-kernel design functionally.
//! There are two loops, and every entry point — one window, a batch, the
//! stream mux — runs one of them a sequence at a time:
//!
//! - the **per-CU loop** (four separate gate kernels, mirroring the four
//!   hardware CUs of §III-C) is the table-free reference, and the only
//!   path at the float levels;
//! - the **row kernel** is the fixed-point production path on an
//!   AVX-512 host at `H ∈ {8, 16, 24, 32}` (the paper's `H = 32` among
//!   them, [`lanes::window_fits`]): the embedding is folded into a
//!   per-item gate table (see [`LaneGatesFx`]), and a window is one call
//!   of [`lanes::run_window_fx`], one function on `f64`-encoded integers
//!   whose gates and cell state never leave its registers. It is
//!   bit-for-bit the per-CU loop in 10^6-scaled fixed point.
//!
//! So fixed point has two bodies, and a host runs one of them: the
//! register window where the host and `H` allow it, the per-CU loop
//! everywhere else (EXPERIMENTS.md row 34a). [`GatePath::PerCu`]
//! selects the reference at every level. The per-CU loop is also the
//! fallback on a host that has the register window: weights the pack
//! proof refuses and sequences past [`LANE_MAX_STEPS`] run it on the
//! fused path too.

use std::sync::{Arc, OnceLock};

use csd_fxp::Fx6;
use csd_nn::ModelWeights;
use csd_tensor::{fan_out, lanes, Vector};

use crate::kernels::{gates, hidden, preprocess, GateKind};
use crate::opt::OptimizationLevel;
use crate::scratch::{EngineScratch, InferenceScratch};
use crate::weights::{LaneGatesFx, QuantizedWeights, LANE_MAX_STEPS};

/// The cores the machine makes available, read once per process: the
/// most chunks a batch is cut into.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The outcome of classifying one sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// `P(positive | sequence)` — ransomware probability in the use case.
    pub probability: f64,
    /// Hard decision at threshold 0.5.
    pub is_positive: bool,
}

/// How the per-timestep gate computation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatePath {
    /// The production path, and the default: the row kernel in fixed
    /// point (the per-CU loop where the register window does not fit the
    /// host or `H`, past [`LANE_MAX_STEPS`] or under weights the pack
    /// refuses), the per-CU loop at both float levels.
    Fused,
    /// Four separate gate kernels, exactly as the seed engine ran them —
    /// the hardware-mirroring formulation, and the table-free reference
    /// every other path is proven bit-identical against.
    PerCu,
}

/// Immutable model state shared (via `Arc`) by engine clones and batch
/// workers: the quantized weights plus the row kernel's pack derived
/// from them at construction.
#[derive(Debug)]
struct EngineCore {
    weights: QuantizedWeights,
    /// The production fixed-point pack of the gates plus the embedding
    /// table: the folded input-gate table and transposed recurrent
    /// weights behind the register window (`None` when the window does
    /// not fit this host and `H`, or the exactness proof fails; every
    /// window then runs the per-CU loop, bit-identical anyway).
    pack: Option<LaneGatesFx>,
}

/// The CSD-resident classifier.
#[derive(Debug, Clone)]
pub struct CsdInferenceEngine {
    core: Arc<EngineCore>,
    level: OptimizationLevel,
    path: GatePath,
}

impl CsdInferenceEngine {
    /// Builds an engine from exported model weights at the given
    /// optimization level.
    ///
    /// # Panics
    ///
    /// Panics if the weight arrays are inconsistent with their config.
    pub fn new(weights: &ModelWeights, level: OptimizationLevel) -> Self {
        let weights = QuantizedWeights::from_model_weights(weights);
        let pack = lanes::window_fits(weights.dims().hidden)
            .then(|| {
                LaneGatesFx::pack(
                    &weights.gate_w_fx,
                    &weights.gate_b_fx,
                    &weights.embedding_fx,
                )
            })
            .flatten();
        Self {
            core: Arc::new(EngineCore { weights, pack }),
            level,
            path: GatePath::Fused,
        }
    }

    /// Selects the gate execution path explicitly.
    pub fn with_gate_path(mut self, path: GatePath) -> Self {
        self.path = path;
        self
    }

    /// The gate execution path in effect.
    pub fn gate_path(&self) -> GatePath {
        self.path
    }

    /// The optimization level the engine executes at.
    pub fn level(&self) -> OptimizationLevel {
        self.level
    }

    /// The ingested (and quantized) weights.
    pub fn weights(&self) -> &QuantizedWeights {
        &self.core.weights
    }

    /// Allocates scratch sized for this engine's model, for use with
    /// [`classify_with_scratch`](Self::classify_with_scratch).
    pub fn make_scratch(&self) -> EngineScratch {
        EngineScratch::new(self.core.weights.dims())
    }

    /// Classifies one sequence.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn classify(&self, seq: &[usize]) -> Classification {
        let mut scratch = self.make_scratch();
        self.classify_with_scratch(seq, &mut scratch)
    }

    /// Classifies one sequence reusing caller-owned scratch. On the row
    /// kernel the per-timestep loop performs no heap allocation; callers
    /// classifying many sequences (monitors, batch workers) amortize the
    /// buffer allocation across all of them.
    ///
    /// In fixed point this runs the table-folded, `f64`-encoded window
    /// ([`csd_tensor::lanes::run_window_fx`]) where it fits. At paper
    /// dimensions on AVX-512 a 100-step window costs ≈ 24 µs here, where
    /// the AVX-512 slice kernels the register body replaced cost ≈ 27 µs
    /// — what one lane of a full 16-lane block cost, and a sixteenth of
    /// what it cost as the only lane of one (EXPERIMENTS.md rows 21a,
    /// 23d, 26a, 31a) — so nothing classifies windows any other way.
    /// Elsewhere it runs the per-CU loop, ≈ 0.78 ms a 100-step window at
    /// paper dimensions (row 34a).
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence, an out-of-vocabulary token, or
    /// scratch sized for different model dimensions.
    pub fn classify_with_scratch(
        &self,
        seq: &[usize],
        scratch: &mut EngineScratch,
    ) -> Classification {
        assert!(!seq.is_empty(), "empty sequence");
        let w = &self.core.weights;
        let probability = if self.level.is_fixed_point() {
            self.run_states_fx(seq, scratch);
            hidden::classify_fx(&scratch.fx_buffers.h, &w.fc_w_fx, w.fc_b_fx).to_f64()
        } else {
            self.run_states_f64(seq, &mut scratch.f64_buffers);
            hidden::classify_f64(&scratch.f64_buffers.h, &w.fc_w_f64, w.fc_b_f64)
        };
        Classification {
            probability,
            is_positive: probability >= 0.5,
        }
    }

    /// Classifies many sequences — the data-center background-scanning
    /// workload (§I: "execute the classifier continuously in the
    /// background"). Results are returned in input order.
    ///
    /// Convenience wrapper over
    /// [`classify_batch_refs`](Self::classify_batch_refs) for callers
    /// holding owned sequences.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, an empty sequence, or an
    /// out-of-vocabulary token.
    pub fn classify_batch(&self, sequences: &[Vec<usize>]) -> Vec<Classification> {
        let refs: Vec<&[usize]> = sequences.iter().map(Vec::as_slice).collect();
        self.classify_batch_refs(&refs)
    }

    /// Classifies many borrowed sequences in input order: a plain loop
    /// of [`classify_with_scratch`](Self::classify_with_scratch) over at
    /// most one chunk per core, each reusing one scratch for its whole
    /// chunk, through [`csd_tensor::fan_out`]: the calling thread runs
    /// the first chunk and a scoped thread each other one, borrowing the
    /// engine and the input slices — neither is cloned. Both gate paths
    /// take this loop, so every result is `classify`'s, bit for bit.
    ///
    /// There is no lane-block arm: held to a ≥ 1.25× bar against this
    /// loop, 16-lane SoA blocks read 0.60–0.86× of it at batch 512 and
    /// failed the bar at every level, batch size and length mix
    /// (EXPERIMENTS.md row 24a).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, an empty sequence, or an
    /// out-of-vocabulary token.
    pub fn classify_batch_refs(&self, sequences: &[&[usize]]) -> Vec<Classification> {
        self.classify_chunked(sequences, usize::MAX)
    }

    /// [`classify_batch_refs`](Self::classify_batch_refs) over at most
    /// `max_chunks` chunks — the stream mux's sharded serving path.
    ///
    /// # Panics
    ///
    /// As [`classify_batch_refs`](Self::classify_batch_refs). A chunk's
    /// panic reaches the caller with the engine's own message, once
    /// every chunk has finished.
    pub(crate) fn classify_chunked(
        &self,
        sequences: &[&[usize]],
        max_chunks: usize,
    ) -> Vec<Classification> {
        assert!(!sequences.is_empty(), "empty batch");
        fan_out(
            sequences,
            cores().min(max_chunks),
            || self.make_scratch(),
            |scratch, seq| self.classify_with_scratch(seq, scratch),
        )
    }

    /// The final hidden state in f64 (for parity tests against the
    /// offline model).
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or out-of-vocabulary token.
    pub fn final_hidden_f64(&self, seq: &[usize]) -> Vec<f64> {
        assert!(!seq.is_empty(), "empty sequence");
        let mut scratch = self.make_scratch();
        if self.level.is_fixed_point() {
            self.run_states_fx(seq, &mut scratch);
            scratch.fx_buffers.h.to_f64_vec()
        } else {
            self.run_states_f64(seq, &mut scratch.f64_buffers);
            scratch.f64_buffers.h.to_f64_vec()
        }
    }

    /// Walks the sequence through the per-CU loop, the only float path:
    /// a functional model of the paper's float32 designs, kept for
    /// Fig. 3's Vanilla and II levels. Leaves the final states in `s.c` /
    /// `s.h`.
    fn run_states_f64(&self, seq: &[usize], s: &mut InferenceScratch<f64>) {
        let w = &self.core.weights;
        s.reset();
        for &item in seq {
            let x = preprocess::run_f64(&w.embedding_f64, item);
            // §III-C: each CU receives its own copies of x_t, h_{t−1}.
            let xs = preprocess::fanout(&x);
            let hs = hidden::fanout_h(&s.h);
            let g = self.run_gate_cus_f64(&hs, &xs);
            let (c_next, h_next) = hidden::run_f64(&g[0], &g[1], &g[3], &g[2], &s.c);
            s.c = c_next;
            s.h = h_next;
        }
    }

    fn run_gate_cus_f64(&self, hs: &[Vector<f64>; 4], xs: &[Vector<f64>; 4]) -> [Vector<f64>; 4] {
        let w = &self.core.weights;
        std::array::from_fn(|slot| {
            let kind = GateKind::ALL[slot];
            gates::run_f64(
                kind,
                &w.gate_w_f64[kind.index()],
                &w.gate_b_f64[kind.index()],
                &hs[slot],
                &xs[slot],
            )
        })
    }

    /// Walks the sequence in fixed point; leaves the final hidden state
    /// in `scratch.fx_buffers.h`. The fused path is the row kernel
    /// ([`run_states_fx_rows`](Self::run_states_fx_rows)) when the engine
    /// holds a pack — the register window fits the host and `H`, and the
    /// weights passed the pack proof — and the sequence is at most
    /// [`LANE_MAX_STEPS`] long, the softsign kernel's exactness range.
    /// Everything else runs the per-CU loop, the reference the row kernel
    /// is bit-identical to: on an AVX-512 host no fused workload ever
    /// reached it (0 of 480,594 windows on the benchmark's two
    /// workloads, EXPERIMENTS.md row 34a).
    fn run_states_fx(&self, seq: &[usize], scratch: &mut EngineScratch) {
        let core = &self.core;
        let s = &mut scratch.fx_buffers;
        match &core.pack {
            Some(pack) if self.path == GatePath::Fused && seq.len() <= LANE_MAX_STEPS => {
                Self::run_states_fx_rows(pack, seq, &mut scratch.f64_buffers, &mut s.h);
            }
            _ => {
                s.reset();
                for &item in seq {
                    let x = preprocess::run_fx(&core.weights.embedding_fx, item);
                    let xs = preprocess::fanout(&x);
                    let hs = hidden::fanout_h(&s.h);
                    let g = self.run_gate_cus_fx(&hs, &xs);
                    let (c_next, h_next) = hidden::run_fx(&g[0], &g[1], &g[3], &g[2], &s.c);
                    s.c = c_next;
                    s.h = h_next;
                }
            }
        }
    }

    /// One sequence through the row kernel, one call of
    /// [`lanes::run_window_fx`]: the raw state is held `f64`-encoded in
    /// `raw` (the float buffers, idle on a fixed-point engine otherwise),
    /// and each item costs one gate-table row plus the `H` recurrent
    /// columns — no embedding copy, no `[h|x]` concat, no bias add. The
    /// final hidden state is decoded into `h_out`.
    fn run_states_fx_rows(
        pack: &LaneGatesFx,
        seq: &[usize],
        raw: &mut InferenceScratch<f64>,
        h_out: &mut Vector<Fx6>,
    ) {
        raw.reset();
        let (c, h) = (raw.c.as_mut_slice(), raw.h.as_mut_slice());
        lanes::run_window_fx(pack.w_hidden_t(), pack.gate_table(), seq, c, h);
        for (out, &v) in h_out.as_mut_slice().iter_mut().zip(h.iter()) {
            *out = Fx6::from_raw(v as i64);
        }
    }

    fn run_gate_cus_fx(&self, hs: &[Vector<Fx6>; 4], xs: &[Vector<Fx6>; 4]) -> [Vector<Fx6>; 4] {
        let w = &self.core.weights;
        std::array::from_fn(|slot| {
            let kind = GateKind::ALL[slot];
            gates::run_fx(
                kind,
                &w.gate_w_fx[kind.index()],
                &w.gate_b_fx[kind.index()],
                &hs[slot],
                &xs[slot],
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_nn::{ModelConfig, SequenceClassifier};

    fn model() -> SequenceClassifier {
        SequenceClassifier::new(ModelConfig::paper(), 21)
    }

    fn seq(n: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 37 + 11) % 278).collect()
    }

    #[test]
    fn float_engine_matches_offline_model_exactly() {
        let m = model();
        let w = ModelWeights::from_model(&m);
        for level in [OptimizationLevel::Vanilla, OptimizationLevel::IiOptimized] {
            let engine = CsdInferenceEngine::new(&w, level);
            let s = seq(50);
            assert!(
                (engine.classify(&s).probability - m.predict_proba(&s)).abs() < 1e-9,
                "{level}"
            );
        }
    }

    #[test]
    fn fixed_engine_tracks_offline_model() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        for n in [1, 10, 100] {
            let s = seq(n);
            let p_fx = engine.classify(&s).probability;
            let p_f64 = m.predict_proba(&s);
            assert!(
                (p_fx - p_f64).abs() < 0.02,
                "len {n}: fixed {p_fx} vs f64 {p_f64}"
            );
        }
    }

    #[test]
    fn hidden_state_parity_within_quantization_drift() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        let s = seq(100);
        let h_fx = engine.final_hidden_f64(&s);
        let h_f64 = m.final_hidden(&s);
        for (a, b) in h_fx.iter().zip(h_f64.iter()) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn both_gate_paths_identical() {
        let m = model();
        let w = ModelWeights::from_model(&m);
        let s = seq(40);
        for level in OptimizationLevel::ALL {
            let fused = CsdInferenceEngine::new(&w, level).classify(&s);
            let per_cu = CsdInferenceEngine::new(&w, level)
                .with_gate_path(GatePath::PerCu)
                .classify(&s);
            assert_eq!(fused, per_cu, "{level}");
        }
    }

    #[test]
    fn weights_that_fail_the_pack_proof_run_the_per_cu_path_end_to_end() {
        // One candidate-gate row with recurrent weights ~10^4: raw 10^10
        // against |h| ≤ 1 (raw 10^6) is 32·10^16 ≫ 2^52, so the pack
        // proof fails and nothing may touch the table.
        refused_weights_run_the_per_cu_path_end_to_end(1.0e4);
    }

    #[test]
    fn weights_between_the_rescale_and_the_f64_bound_run_the_per_cu_path_end_to_end() {
        // Recurrent weights of 60: the row's worst case, 32·60·10^12 ≈
        // 1.9·10^15, is an exact f64 sum (< 2^52) but outside the
        // four-op rescale's 2^49, so the pack refuses it all the same.
        let worst = 32.0 * 60.0 * 1.0e12;
        assert!(worst > csd_fxp::LANE_ROW_BOUND as f64 && worst < csd_fxp::EXACT_F64_INT as f64);
        refused_weights_run_the_per_cu_path_end_to_end(60.0);
    }

    /// Sets every recurrent weight of one candidate-gate row to
    /// `±magnitude`, checks that the pack refuses the model, and that
    /// every entry point classifies it 0-ULP against the per-CU path.
    fn refused_weights_run_the_per_cu_path_end_to_end(magnitude: f64) {
        let m = model();
        let mut w = ModelWeights::from_model(&m);
        let h = w.config.hidden;
        for hc in 0..h {
            let sign = if hc % 2 == 0 { 1.0 } else { -1.0 };
            w.lstm_recurrent[hc * 4 * h + 2 * h + 5] = sign * magnitude;
        }
        let fused = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        assert!(fused.core.pack.is_none());
        let per_cu = fused.clone().with_gate_path(GatePath::PerCu);

        // Serial classify (Fused → its per-CU fallback) ≡ the per-CU reference, 0 ULP.
        let windows: Vec<Vec<usize>> = [1usize, 9, 40, 100, 33, 77, 100, 12]
            .iter()
            .enumerate()
            .map(|(k, &n)| (0..n).map(|i| (i * 37 + 11 + k * 53) % 278).collect())
            .collect();
        let reference: Vec<Classification> = windows.iter().map(|s| per_cu.classify(s)).collect();
        let serial: Vec<Classification> = windows.iter().map(|s| fused.classify(s)).collect();
        assert_eq!(serial, reference);

        // The batch entry point loops over the same serial `classify`.
        let refs: Vec<&[usize]> = windows.iter().map(Vec::as_slice).collect();
        assert_eq!(fused.classify_batch_refs(&refs), reference);

        // The stream mux serves every window through the same path.
        let mut mux = crate::ShardedStreamMux::new(
            fused,
            crate::StreamMuxConfig {
                shards: Some(1),
                ..crate::StreamMuxConfig::default()
            },
        );
        for (k, s) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, s.len(), s).queued());
        }
        let mut verdicts = mux.drain();
        verdicts.sort_unstable_by_key(|v| v.stream);
        let got: Vec<Classification> = verdicts.iter().map(|v| v.classification).collect();
        assert_eq!(got, reference);
        assert_eq!(mux.stats().verdicts, windows.len() as u64);
    }

    #[test]
    fn batch_matches_serial_classification() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        let batch: Vec<Vec<usize>> = (0..13)
            .map(|k| (0..60).map(|i| (i * 11 + k * 3) % 278).collect())
            .collect();
        let parallel = engine.classify_batch(&batch);
        for (seq, got) in batch.iter().zip(&parallel) {
            assert_eq!(*got, engine.classify(seq));
        }
        assert_eq!(parallel.len(), 13);
    }

    #[test]
    fn batch_of_one_sequence() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        let batch = vec![seq(25)];
        let got = engine.classify_batch(&batch);
        assert_eq!(got, vec![engine.classify(&batch[0])]);
    }

    #[test]
    fn batch_of_cores_plus_one() {
        // One more sequence than chunks: ceil-division chunking must
        // cover every sequence with no empty trailing chunk.
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::Vanilla);
        let n = cores() + 1;
        let batch: Vec<Vec<usize>> = (0..n)
            .map(|k| (0..12).map(|i| (i * 7 + k) % 278).collect())
            .collect();
        let got = engine.classify_batch(&batch);
        assert_eq!(got.len(), n);
        for (seq, res) in batch.iter().zip(&got) {
            assert_eq!(*res, engine.classify(seq));
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn a_panic_in_the_last_chunk_reaches_the_caller_with_the_engines_message() {
        // Two sequences a chunk and one over: the out-of-vocabulary
        // token sits in the last chunk, which a spawned thread runs
        // wherever there is a second core.
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        let mut batch: Vec<Vec<usize>> = (0..2 * cores() + 1).map(|k| seq(10 + k)).collect();
        if let Some(last) = batch.last_mut() {
            last.push(278);
        }
        let _ = engine.classify_batch(&batch);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        let mut scratch = engine.make_scratch();
        for n in [1, 5, 40, 3] {
            let s = seq(n);
            assert_eq!(
                engine.classify_with_scratch(&s, &mut scratch),
                engine.classify(&s),
                "len {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::Vanilla);
        let _ = engine.classify_batch(&[]);
    }

    #[test]
    fn decision_threshold() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        let c = engine.classify(&seq(30));
        assert_eq!(c.is_positive, c.probability >= 0.5);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::Vanilla);
        let _ = engine.classify(&[]);
    }
}
