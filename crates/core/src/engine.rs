//! The end-to-end CSD inference engine.
//!
//! [`CsdInferenceEngine`] executes the five-kernel design functionally.
//! The default per-timestep path is *fused and allocation-free*: the four
//! `H×Z` gate matrices are stacked once at construction into a single
//! `4H×Z` matrix, so each item costs one embedding copy, one concat, one
//! matvec and two in-place sweeps over preallocated scratch (in fixed
//! point the embedding half is further folded into a per-item gate
//! table, see [`LaneGatesFx`], and one sequence alone runs the same
//! `f64`-encoded kernels as a lane of a block, vectorised across gate
//! rows instead of across lanes). The original per-CU formulation (four
//! separate gate kernels, mirroring the four hardware CUs of §III-C)
//! remains available via [`GatePath`] as the table-free reference and is
//! bit-for-bit identical — in f64 for the float levels and in
//! 10^6-scaled fixed point for [`OptimizationLevel::FixedPoint`].

use std::sync::Arc;

use csd_fxp::Fx6;
use csd_nn::ModelWeights;
use csd_tensor::{lanes, Vector};
use serde::{Deserialize, Serialize};

use crate::kernels::{gates, hidden, preprocess, GateKind};
use crate::opt::OptimizationLevel;
use crate::pool::WorkerPool;
use crate::scratch::{EngineScratch, InferenceScratch, LaneScratch};
use crate::weights::{FusedGates, LaneGatesFx, QuantizedWeights, LANE_MAX_STEPS};

/// The outcome of classifying one sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Classification {
    /// `P(positive | sequence)` — ransomware probability in the use case.
    pub probability: f64,
    /// Hard decision at threshold 0.5.
    pub is_positive: bool,
}

/// How the per-timestep gate computation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatePath {
    /// One fused `4H×Z` matvec into preallocated scratch — the default,
    /// allocation-free software hot path.
    Fused,
    /// Four separate gate kernels, exactly as the seed engine ran them —
    /// the hardware-mirroring formulation, and the table-free reference
    /// every other path is proven bit-identical against.
    PerCu,
}

/// Immutable model state shared (via `Arc`) by engine clones and batch
/// workers: the quantized weights plus the fused gate matrices derived
/// from them at construction.
#[derive(Debug)]
struct EngineCore {
    weights: QuantizedWeights,
    fused_f64: FusedGates<f64>,
    fused_fx: FusedGates<Fx6>,
    /// The production fixed-point pack of `fused_fx` plus the embedding
    /// table: the folded input-gate table and recurrent weights behind
    /// both the row-vectorised serial kernel and the mux's lane step
    /// (`None` when the exactness proof fails; every fixed-point path
    /// then runs the wide serial matvec, bit-identical anyway).
    lane_fx: Option<LaneGatesFx>,
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
        let fused_f64 = weights.fused_f64();
        let fused_fx = weights.fused_fx();
        let lane_fx = LaneGatesFx::pack(&fused_fx, &weights.embedding_fx, weights.dims().hidden);
        Self {
            core: Arc::new(EngineCore {
                weights,
                fused_f64,
                fused_fx,
                lane_fx,
            }),
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

    /// Classifies one sequence reusing caller-owned scratch. On the
    /// default fused path the per-timestep loop performs no heap
    /// allocation; callers classifying many sequences (monitors, batch
    /// workers) amortize the buffer allocation across all of them.
    ///
    /// In fixed point this is the width-1 case of the mux's lane step: the
    /// same table-folded, `f64`-encoded kernels, with the gate matvec
    /// vectorised across its `4H` rows
    /// ([`csd_tensor::lanes::matvec_fx_rows_table`]). At paper
    /// dimensions a 100-step window costs ≈ 29 µs here, the same as
    /// one lane of a full 16-lane block and a sixteenth of what it
    /// costs as the only lane of one (EXPERIMENTS.md rows 21a, 23d), so
    /// one window never has to wait for company.
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
    /// of [`classify_with_scratch`](Self::classify_with_scratch) over
    /// chunks scattered onto the persistent worker pool as *scoped* jobs
    /// that borrow the engine and the input slices — neither is cloned —
    /// each reusing one scratch for its whole chunk. A batch that makes
    /// one chunk runs on the calling thread. Both gate paths take this
    /// loop, so every result is `classify`'s, bit for bit.
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
        assert!(!sequences.is_empty(), "empty batch");
        let classify_chunk = move |batch: &[&[usize]]| {
            let mut scratch = self.make_scratch();
            batch
                .iter()
                .map(|seq| self.classify_with_scratch(seq, &mut scratch))
                .collect::<Vec<_>>()
        };
        let pool = WorkerPool::global();
        let threads = pool.threads().min(sequences.len());
        if threads == 1 {
            return classify_chunk(sequences);
        }
        // Ceil division: at most `threads` chunks, never an empty one.
        let chunk = sequences.len().div_ceil(threads);
        let jobs: Vec<Box<dyn FnOnce() -> Vec<Classification> + Send + '_>> = sequences
            .chunks(chunk)
            .map(|batch| {
                Box::new(move || classify_chunk(batch))
                    as Box<dyn FnOnce() -> Vec<Classification> + Send + '_>
            })
            .collect();
        pool.scatter_scoped(jobs).into_iter().flatten().collect()
    }

    /// The stream multiplexer's default lane width: the widest multiple
    /// of 8 whose lane block — about `(4H + Z + H) · 8` bytes of
    /// `g`/`z`/`c` state per lane — fits a 32 KiB L1 data cache, clamped
    /// to `[8, 64]`. Multiples of 8 keep the AVX-512 kernels on their
    /// full-width tiles; for the paper's dimensions (`H = 32`, `Z = 40`,
    /// 1600 bytes per lane) this lands on 16 lanes, i.e. two 8-wide
    /// vectors.
    pub(crate) fn lane_width(&self) -> usize {
        let dims = self.core.weights.dims();
        let bytes_per_lane = 8 * (4 * dims.hidden + dims.z() + dims.hidden);
        let fit = (32 * 1024) / bytes_per_lane.max(1);
        (fit / 8 * 8).clamp(8, 64)
    }

    /// Whether the stream multiplexer can step this engine's windows
    /// through its lane block: the float levels always step; fixed point
    /// additionally needs the weights to have passed the lane exactness
    /// proof at construction. When `false` the mux classifies every
    /// window through the serial path instead — which is bit-identical
    /// anyway.
    pub fn supports_lane_stepping(&self) -> bool {
        !self.level.is_fixed_point() || self.core.lane_fx.is_some()
    }

    /// Advances a lane block one timestep in lockstep: lane `l` consumes
    /// `items[l]` when `Some`, and keeps computing on its (never read)
    /// stale state when `None`. This is the iteration-level primitive
    /// behind the continuous-batching stream multiplexer
    /// ([`crate::shard::ShardedStreamMux`]), its only caller: the mux
    /// owns the per-lane occupancy (which window, which position) and
    /// the engine owns one SoA kernel sweep per call.
    ///
    /// After the final item of a lane's sequence, read its verdict with
    /// [`retire_lane`](Self::retire_lane) and zero its state with
    /// [`LaneScratch::clear_lane`] before assigning the lane a new
    /// sequence. Stepping is bit-identical to the serial path: a sequence
    /// fed item by item through a lane produces exactly the bits
    /// [`classify`](Self::classify) produces, at every optimization
    /// level, regardless of what the other lanes are doing.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-vocabulary item, when `items.len()` differs
    /// from the scratch width, when the scratch was sized for different
    /// model dimensions, or on a fixed-point engine whose weights failed
    /// the lane exactness proof (check
    /// [`supports_lane_stepping`](Self::supports_lane_stepping)).
    pub(crate) fn step_lanes(&self, scratch: &mut LaneScratch, items: &[Option<usize>]) {
        let width = scratch.width();
        assert_eq!(items.len(), width, "one item slot per lane");
        assert_eq!(
            scratch.z.len(),
            self.core.weights.dims().z() * width,
            "scratch sized for different model dimensions"
        );
        if self.level.is_fixed_point() {
            let pack = self
                .core
                .lane_fx
                .as_ref()
                .expect("weights failed the lane exactness proof; see supports_lane_stepping");
            self.step_lanes_fx(pack, scratch, items);
        } else {
            self.step_lanes_f64(scratch, items);
        }
    }

    /// Applies the FC head to lane `lane`'s current hidden-state column,
    /// returning the classification of the sequence that lane just
    /// finished. Call exactly once per sequence, after
    /// [`step_lanes`](Self::step_lanes) consumed its final item.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is outside the scratch width.
    pub(crate) fn retire_lane(&self, scratch: &LaneScratch, lane: usize) -> Classification {
        let w = &self.core.weights;
        let hdim = w.dims().hidden;
        let width = scratch.width();
        assert!(lane < width, "lane {lane} out of range for width {width}");
        let probability = if self.level.is_fixed_point() {
            let mut h: Vector<Fx6> = Vector::zeros(hdim);
            for r in 0..hdim {
                h[r] = Fx6::from_raw(scratch.z[r * width + lane] as i64);
            }
            hidden::classify_fx(&h, &w.fc_w_fx, w.fc_b_fx).to_f64()
        } else {
            let mut h: Vector<f64> = Vector::zeros(hdim);
            for r in 0..hdim {
                h[r] = scratch.z[r * width + lane];
            }
            hidden::classify_f64(&h, &w.fc_w_f64, w.fc_b_f64)
        };
        Classification {
            probability,
            is_positive: probability >= 0.5,
        }
    }

    /// One fixed-point lockstep timestep, then the full SoA kernel
    /// sweep. Lanes passed `None` keep computing — their state stays
    /// inside every kernel's proven exactness range and is never read.
    ///
    /// A consuming lane just records its item index: the table matmul
    /// initializes that lane's accumulators from the precomputed
    /// `W_x·e(item) + b·SCALE` row, runs only the `H` recurrent columns,
    /// and rescales in its store epilogue — no embedding gather, no `E`
    /// input columns, no separate rescale pass (exact integer
    /// reassociation, hence bit-identical to the per-CU reference). Idle
    /// lanes keep item 0, whose table row is proof-bounded like any
    /// other, so their (never read) state stays exact.
    fn step_lanes_fx(&self, pack: &LaneGatesFx, s: &mut LaneScratch, items: &[Option<usize>]) {
        let hdim = pack.hidden();
        let vocab = pack.vocab();
        let width = s.width();
        let hw = hdim * width;
        for (l, slot) in items.iter().enumerate() {
            if let Some(item) = *slot {
                assert!(item < vocab, "item {item} out of vocabulary");
                s.item[l] = item;
            }
        }
        lanes::matmul_fx_lanes_table(
            pack.w_hidden(),
            4 * hdim,
            hdim,
            &s.z[..hw],
            width,
            pack.gate_table(),
            &s.item,
            &mut s.g,
        );
        // Separate compact activation passes beat a fused
        // rescale+activate kernel on this data: the gate block is
        // L1-resident, so re-reading it is nearly free, while the small
        // loop bodies pipeline better. (The table matmul's in-register
        // rescale epilogue is the exception — it reuses values already
        // in accumulators, costing no extra pass at all.)
        lanes::sigmoid_lut_lanes(&mut s.g[..2 * hw]);
        lanes::softsign_lanes(&mut s.g[2 * hw..3 * hw]);
        lanes::sigmoid_lut_lanes(&mut s.g[3 * hw..]);
        let (c, zh) = (&mut s.c, &mut s.z[..hw]);
        lanes::update_lanes(&s.g, hdim, width, c, zh);
    }

    /// Float twin of [`step_lanes_fx`](Self::step_lanes_fx): each
    /// elementwise step written exactly as the serial fused path computes
    /// it (same operations, same order, per lane), so IEEE determinism
    /// makes the results bit-identical.
    fn step_lanes_f64(&self, s: &mut LaneScratch, items: &[Option<usize>]) {
        let core = &self.core;
        let w = &core.weights;
        let dims = w.dims();
        let (hdim, zdim) = (dims.hidden, dims.z());
        let wflat = core.fused_f64.w.as_flat();
        let bias = core.fused_f64.b.as_slice();
        let width = s.width();
        let hw = hdim * width;
        for (l, slot) in items.iter().enumerate() {
            if let Some(item) = *slot {
                assert!(
                    item < w.embedding_f64.rows(),
                    "item {item} out of vocabulary"
                );
                let row = w.embedding_f64.row(item);
                for (e, &v) in row.iter().enumerate() {
                    s.z[(hdim + e) * width + l] = v;
                }
            }
        }
        lanes::matmul_f64_lanes(wflat, 4 * hdim, zdim, &s.z, width, &mut s.g, &mut s.acc);
        for (r, &b) in bias.iter().enumerate() {
            for v in &mut s.g[r * width..(r + 1) * width] {
                *v += b;
            }
        }
        for (g, block) in s.g.chunks_exact_mut(hw).enumerate() {
            if GateKind::ALL[g].is_candidate() {
                for v in block {
                    *v /= 1.0 + v.abs();
                }
            } else {
                for v in block {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
        let (i_g, rest) = s.g.split_at(hw);
        let (f_g, rest) = rest.split_at(hw);
        let (cbar, o_g) = rest.split_at(hw);
        let zh = &mut s.z[..hw];
        for j in 0..hw {
            let ct = f_g[j] * s.c[j] + i_g[j] * cbar[j];
            s.c[j] = ct;
            zh[j] = o_g[j] * (ct / (1.0 + ct.abs()));
        }
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

    /// Walks the sequence updating `(C, h)` in `s`; leaves the final
    /// states in `s.c` / `s.h`.
    fn run_states_f64(&self, seq: &[usize], s: &mut InferenceScratch<f64>) {
        let core = &self.core;
        s.reset();
        match self.path {
            GatePath::Fused => {
                let hdim = core.weights.dims().hidden;
                for &item in seq {
                    preprocess::run_into(&core.weights.embedding_f64, item, &mut s.x);
                    s.h.concat_into(&s.x, &mut s.z);
                    core.fused_f64.w.matvec_into(&s.z, &mut s.g);
                    s.g.add_assign(&core.fused_f64.b);
                    gates::activate_fused_f64(&mut s.g, hdim);
                    hidden::update_fused_f64(&s.g, &mut s.c, &mut s.h);
                }
            }
            GatePath::PerCu => {
                for &item in seq {
                    let x = preprocess::run_f64(&core.weights.embedding_f64, item);
                    // §III-C: each CU receives its own copies of x_t, h_{t−1}.
                    let xs = preprocess::fanout(&x);
                    let hs = hidden::fanout_h(&s.h);
                    let g = self.run_gate_cus_f64(&hs, &xs);
                    let (c_next, h_next) = hidden::run_f64(&g[0], &g[1], &g[3], &g[2], &s.c);
                    s.c = c_next;
                    s.h = h_next;
                }
            }
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
    /// in `scratch.fx_buffers.h`. The fused path has two arms: the row
    /// kernel ([`run_states_fx_rows`](Self::run_states_fx_rows)), or —
    /// for weights that failed the pack proof and sequences past
    /// [`LANE_MAX_STEPS`], the softsign kernel's exactness range — the
    /// wide integer matvec, bit-identical anyway.
    fn run_states_fx(&self, seq: &[usize], scratch: &mut EngineScratch) {
        let core = &self.core;
        let s = &mut scratch.fx_buffers;
        s.reset();
        match self.path {
            GatePath::Fused => match &core.lane_fx {
                Some(pack) if seq.len() <= LANE_MAX_STEPS => {
                    Self::run_states_fx_rows(pack, seq, &mut scratch.f64_buffers, &mut s.h);
                }
                _ => {
                    let hdim = core.weights.dims().hidden;
                    for &item in seq {
                        preprocess::run_into(&core.weights.embedding_fx, item, &mut s.x);
                        s.h.concat_into(&s.x, &mut s.z);
                        core.fused_fx.w.matvec_into(&s.z, &mut s.g);
                        s.g.add_assign(&core.fused_fx.b);
                        gates::activate_fused_fx(&mut s.g, hdim);
                        hidden::update_fused_fx(&s.g, &mut s.c, &mut s.h);
                    }
                }
            },
            GatePath::PerCu => {
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

    /// One sequence as the width-1 case of
    /// [`step_lanes_fx`](Self::step_lanes_fx): the raw state is held
    /// `f64`-encoded in `raw` (the float buffers, idle on a fixed-point
    /// engine otherwise), the gate matvec is the row-vectorised table
    /// kernel — one gate-table row plus the `H` recurrent columns per
    /// item, no embedding copy, no `[h|x]` concat, no bias add — and the
    /// activation and update kernels are the lane ones at width 1. The
    /// final hidden state is decoded into `h_out`.
    fn run_states_fx_rows(
        pack: &LaneGatesFx,
        seq: &[usize],
        raw: &mut InferenceScratch<f64>,
        h_out: &mut Vector<Fx6>,
    ) {
        let (rows, hdim) = (pack.rows(), pack.hidden());
        raw.reset();
        let (g, c, h) = (
            raw.g.as_mut_slice(),
            raw.c.as_mut_slice(),
            raw.h.as_mut_slice(),
        );
        for &item in seq {
            assert!(item < pack.vocab(), "item {item} out of vocabulary");
            let table_row = &pack.gate_table()[item * rows..(item + 1) * rows];
            lanes::matvec_fx_rows_table(pack.w_hidden_t(), h, table_row, g);
            lanes::sigmoid_lut_lanes(&mut g[..2 * hdim]);
            lanes::softsign_lanes(&mut g[2 * hdim..3 * hdim]);
            lanes::sigmoid_lut_lanes(&mut g[3 * hdim..]);
            lanes::update_lanes(g, hdim, 1, c, h);
        }
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
    fn lane_width_heuristic_for_paper_dims() {
        // (4·32 + 40 + 32)·8 = 1600 B/lane → 20 lanes fit 32 KiB →
        // round down to the multiple of 8: two full AVX-512 vectors.
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::FixedPoint);
        assert_eq!(engine.lane_width(), 16);
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
    fn weights_that_fail_the_pack_proof_run_the_wide_path_end_to_end() {
        // One candidate-gate row with recurrent weights ~10^4: raw 10^10
        // against |h| ≤ 1 (raw 10^6) is 32·10^16 ≫ 2^52, so the lane
        // proof fails and nothing may touch the table or the lanes.
        refused_weights_run_the_wide_path_end_to_end(1.0e4);
    }

    #[test]
    fn weights_between_the_rescale_and_the_f64_bound_run_the_wide_path_end_to_end() {
        // Recurrent weights of 60: the row's worst case, 32·60·10^12 ≈
        // 1.9·10^15, is an exact f64 sum (< 2^52) but outside the
        // four-op rescale's 2^49, so the pack refuses it all the same.
        let worst = 32.0 * 60.0 * 1.0e12;
        assert!(worst > csd_fxp::LANE_ROW_BOUND as f64 && worst < csd_fxp::EXACT_F64_INT as f64);
        refused_weights_run_the_wide_path_end_to_end(60.0);
    }

    /// Sets every recurrent weight of one candidate-gate row to
    /// `±magnitude`, checks that the pack refuses the model, and that
    /// every entry point classifies it 0-ULP against the per-CU path.
    fn refused_weights_run_the_wide_path_end_to_end(magnitude: f64) {
        let m = model();
        let mut w = ModelWeights::from_model(&m);
        let h = w.config.hidden;
        for hc in 0..h {
            let sign = if hc % 2 == 0 { 1.0 } else { -1.0 };
            w.lstm_recurrent[hc * 4 * h + 2 * h + 5] = sign * magnitude;
        }
        let fused = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        assert!(!fused.supports_lane_stepping());
        let per_cu = fused.clone().with_gate_path(GatePath::PerCu);

        // Serial classify (Fused → wide arm) ≡ the per-CU reference, 0 ULP.
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

        // The stream mux retires every window through its serial route
        // (stepping a lane would panic on this engine).
        let mut mux = crate::ShardedStreamMux::new(
            fused,
            crate::StreamMuxConfig {
                shards: Some(1),
                ..crate::StreamMuxConfig::default()
            },
        );
        for (k, s) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, s.len(), s));
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
    fn batch_of_pool_threads_plus_one() {
        // One more sequence than workers: ceil-division chunking must
        // cover every sequence with no empty trailing chunk.
        let m = model();
        let engine =
            CsdInferenceEngine::new(&ModelWeights::from_model(&m), OptimizationLevel::Vanilla);
        let n = WorkerPool::global().threads() + 1;
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
