//! Host-side weight ingest and 10^6 quantization.
//!
//! §III-D: "We multiply the floating-point values of weights, biases, and
//! embeddings by this factor before the host initialization shown in
//! Fig. 2, converting them to integers while preserving significant
//! digits." [`QuantizedWeights`] performs that conversion from the
//! [`csd_nn::ModelWeights`] export, keeping both the float and the
//! fixed-point views so every optimization level can execute functionally.

use csd_fxp::{row_exact_in_f64, Fx6, EXACT_F64_INT};
use csd_nn::ModelWeights;
use csd_tensor::{Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::kernels::LstmDims;

/// Longest sequence (timesteps from a zero state) the `f64`-encoded
/// fixed-point row kernel accepts.
///
/// The kernels hold raw values as exact integers in `f64`. Each
/// timestep grows the cell state by at most `SCALE` in raw magnitude
/// (`|C_t| ≤ |round(f·C/S)| + |round(i·C'/S)| ≤ |C_{t−1}| + SCALE`, since
/// the sigmoid gates are ≤ `SCALE` and the candidate is a softsign
/// output), so after `t` steps `|C| ≤ t · SCALE`. The softsign kernel
/// needs `|C|·SCALE + den/2 < 2^53`, i.e. `|C| ≤ ~8·10^9 = 8000·SCALE`.
/// Longer sequences run the per-CU reference loop (bit-identical anyway;
/// no benchmark window comes near it, EXPERIMENTS.md row 28a).
pub const LANE_MAX_STEPS: usize = 8_000;

/// A fixed `f64` buffer whose first element starts a 64-byte cache line.
///
/// The row kernel reads `W_hᵀ` with one 64-byte load per FMA, and a
/// `Vec`'s allocation is 16-byte aligned: three times in four every one
/// of those loads straddles two lines, which halves what the load ports
/// deliver (a row matvec measured 271 ns so against 188 ns aligned, a
/// 100-step window 42 µs against 34–35; EXPERIMENTS.md row 21g). The
/// values sit at an offset inside an over-allocated `Vec`, whose heap
/// block does not move with the struct; a clone places its own copy.
#[derive(Debug)]
struct LineAligned {
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl LineAligned {
    const LINE_BYTES: usize = 64;
    const LINE_F64S: usize = Self::LINE_BYTES / std::mem::size_of::<f64>();

    fn new(values: &[f64]) -> Self {
        let mut buf = vec![0.0; values.len() + Self::LINE_F64S - 1];
        // `align_offset` may decline (it does under const evaluation);
        // an unaligned buffer is slower, never wrong.
        let start = match buf.as_ptr().align_offset(Self::LINE_BYTES) {
            offset if offset < Self::LINE_F64S => offset,
            _ => 0,
        };
        buf[start..start + values.len()].copy_from_slice(values);
        Self {
            buf,
            start,
            len: values.len(),
        }
    }

    fn as_slice(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl Clone for LineAligned {
    fn clone(&self) -> Self {
        Self::new(self.as_slice())
    }
}

impl PartialEq for LineAligned {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// The fixed-point gate parameters folded and re-encoded for the
/// production fixed-point path — the AVX-512 register window of
/// [`csd_tensor::lanes::run_window_fx`]. Its rows are the four per-gate
/// `H × Z` matrices' rows in TF gate order (`i f c o`), gate `g` owning
/// rows `g·H..(g+1)·H`: one pass over them computes all four gate
/// pre-activations of a timestep.
///
/// The embedding is folded through the input (`W_x`) half of every row
/// into a per-item **input-gate table** with the bias pre-multiplied by
/// `SCALE` (`round(a/S) + b == round((a + b·S)/S)` exactly, because
/// `b·S` is a multiple of `S`), so a timestep is one table-row gather
/// plus the `H` recurrent columns. The table is item-major, so a row is
/// contiguous. The recurrent half (`W_h`, 32 KB at paper dimensions) is
/// kept as exact `f64` integers, transposed (`hidden × rows`): the
/// window loads a register of weights against one broadcast `h[k]`.
///
/// [`LaneGatesFx::pack`] is where the exactness contract is *proven*, not
/// assumed: it rejects (returns `None`) any weight set whose worst-case
/// pre-activation accumulator could leave the domain of the kernels'
/// exact rescale. The engine then runs rejected models through the
/// per-CU reference loop, so neither packing nor vectorisation ever
/// changes a single output bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneGatesFx {
    /// The recurrent-column weights `W_h` as exact `f64` values,
    /// transposed, `hidden × rows` — what the window iterates over, a
    /// 64-byte load at a time.
    w_h_t: LineAligned,
    /// The precomputed **input-gate table**, `vocab × rows` row-major:
    /// `table[item·rows + r] = Σ_e w[r][hidden+e]·emb[item][e] +
    /// b_r·SCALE`. One row gather replaces the per-timestep embedding
    /// copy plus the `E` input columns of the matmul. Left where the
    /// allocator puts it: a row is read once a timestep, and placing it
    /// on a cache line (16 lines a row instead of 17) won 3 of 5
    /// alternations at a 28–30 µs window, under the 4 it had to
    /// (EXPERIMENTS.md row 23a).
    table: Vec<f64>,
    rows: usize,
    hidden: usize,
}

impl LaneGatesFx {
    /// Folds and re-encodes the per-gate weights `gate_w` (each `H × Z`
    /// over `[h | x]` columns), biases `gate_b` and the embedding table,
    /// or `None` when the shapes disagree or the exactness proof fails.
    ///
    /// The proof obligations, per gate row `r`:
    ///
    /// 1. every embedding raw value is an exact `f64` integer (< `2^52`);
    /// 2. `Σ_k |w[r][k]| · zbound[k] + |b_r|·SCALE + SCALE/2 < 2^49`
    ///    ([`csd_fxp::LANE_ROW_BOUND`]), where `zbound[k] = SCALE` for
    ///    recurrent columns (`|h| ≤ 1` is an invariant of the update
    ///    kernel: `h = o ∗ softsign(C)` with `o ≤ 1`) and the column's
    ///    largest `|raw|` for embedding columns.
    ///
    /// Under (2) every FMA partial sum is an exact integer and the
    /// finished accumulator is inside the domain of the kernels'
    /// four-op rescale, so the register window and the reference
    /// `i64`/`i128` accumulation produce identical raw gate
    /// pre-activations.
    pub fn pack(
        gate_w: &[Matrix<Fx6>; 4],
        gate_b: &[Vector<Fx6>; 4],
        embedding: &Matrix<Fx6>,
    ) -> Option<Self> {
        let hidden = gate_w[0].rows();
        let cols = hidden + embedding.cols();
        if gate_w
            .iter()
            .any(|w| (w.rows(), w.cols()) != (hidden, cols))
            || gate_b.iter().any(|b| b.len() != hidden)
        {
            return None;
        }
        let rows = 4 * hidden;
        // Row `r` of the pack is row `r mod H` of gate `r / H`.
        let gate_rows = || {
            gate_w
                .iter()
                .zip(gate_b)
                .flat_map(|(w, b)| (0..hidden).map(move |j| (w.row(j), b[j].raw())))
        };
        let mut zbound = vec![Fx6::SCALE; cols];
        for (k, zb) in zbound.iter_mut().enumerate().skip(hidden) {
            let col = k - hidden;
            let mut m: u64 = 1;
            for r in 0..embedding.rows() {
                // `unsigned_abs`: `i64::MIN.abs()` is `i64::MIN` where
                // overflow wraps, which would pass under the bound.
                let mag = embedding.get(r, col).raw().unsigned_abs();
                if mag >= EXACT_F64_INT as u64 {
                    return None;
                }
                m = m.max(mag);
            }
            *zb = m as i64;
        }
        let mut row_raw = vec![0i64; cols];
        for (row, bias) in gate_rows() {
            for (slot, w) in row_raw.iter_mut().zip(row) {
                *slot = w.raw();
            }
            if !row_exact_in_f64(&row_raw, &zbound, bias, Fx6::SCALE) {
                return None;
            }
        }
        // Fold the embedding columns (plus the scaled bias) into the
        // per-item input-gate table. Every entry is a partial sum of a
        // row accumulator the proof above already bounded below 2^49,
        // so it is exact in f64 — no additional obligation.
        let vocab = embedding.rows();
        let mut table = Vec::with_capacity(vocab * rows);
        for item in 0..vocab {
            for (row, bias) in gate_rows() {
                let mut acc = bias as i128 * Fx6::SCALE as i128;
                for e in 0..embedding.cols() {
                    acc += row[hidden + e].raw() as i128 * embedding.get(item, e).raw() as i128;
                }
                table.push(acc as f64);
            }
        }
        let mut w_h_t = vec![0.0; hidden * rows];
        for (r, (row, _)) in gate_rows().enumerate() {
            for k in 0..hidden {
                w_h_t[k * rows + r] = row[k].raw() as f64;
            }
        }
        Some(Self {
            w_h_t: LineAligned::new(&w_h_t),
            table,
            rows,
            hidden,
        })
    }

    /// `W_h` transposed, row-major `hidden × rows`, starting on a cache
    /// line.
    pub fn w_hidden_t(&self) -> &[f64] {
        self.w_h_t.as_slice()
    }

    /// The input-gate table, `vocab × rows` row-major, `f64`-encoded.
    pub fn gate_table(&self) -> &[f64] {
        &self.table
    }

    /// Gate rows (`4H`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Recurrent columns (`H`).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Vocabulary size (input-gate table rows).
    pub fn vocab(&self) -> usize {
        self.table.len() / self.rows.max(1)
    }
}

/// The full parameter set in kernel-ready layout: per-gate `H × Z`
/// matrices over `[h | x]` columns (TF gate order `i f c o`), in both f64
/// and 10^6-scaled fixed point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedWeights {
    dims: LstmDims,
    /// Embedding table, float view.
    pub embedding_f64: Matrix<f64>,
    /// Embedding table, quantized view (the buffer DMA'd to FPGA DRAM).
    pub embedding_fx: Matrix<Fx6>,
    /// Per-gate combined weights, float view.
    pub gate_w_f64: [Matrix<f64>; 4],
    /// Per-gate combined weights, quantized view.
    pub gate_w_fx: [Matrix<Fx6>; 4],
    /// Per-gate biases, float view.
    pub gate_b_f64: [Vector<f64>; 4],
    /// Per-gate biases, quantized view.
    pub gate_b_fx: [Vector<Fx6>; 4],
    /// FC head weights, float view.
    pub fc_w_f64: Vector<f64>,
    /// FC head weights, quantized view.
    pub fc_w_fx: Vector<Fx6>,
    /// FC head bias, float view.
    pub fc_b_f64: f64,
    /// FC head bias, quantized view.
    pub fc_b_fx: Fx6,
}

impl QuantizedWeights {
    /// Ingests an exported weight set, rebuilding the combined per-gate
    /// matrices from the TensorFlow-convention `kernel`/`recurrent`
    /// arrays, then quantizing everything at scale 10^6.
    ///
    /// # Panics
    ///
    /// Panics if array lengths disagree with the export's config.
    pub fn from_model_weights(w: &ModelWeights) -> Self {
        let dims = LstmDims {
            vocab: w.config.vocab,
            embed: w.config.embed_dim,
            hidden: w.config.hidden,
        };
        let (v, x, h) = (dims.vocab, dims.embed, dims.hidden);
        assert_eq!(w.embedding.len(), v * x, "embedding size mismatch");
        assert_eq!(w.lstm_kernel.len(), x * 4 * h, "kernel size mismatch");
        assert_eq!(w.lstm_recurrent.len(), h * 4 * h, "recurrent size mismatch");
        assert_eq!(w.lstm_bias.len(), 4 * h, "bias size mismatch");
        assert_eq!(w.fc_weights.len(), h, "fc size mismatch");

        let embedding_f64 = Matrix::from_f64_flat(v, x, &w.embedding);
        let z = h + x;
        let gate_w_f64: [Matrix<f64>; 4] = std::array::from_fn(|g| {
            let mut m = Matrix::zeros(h, z);
            for j in 0..h {
                for hc in 0..h {
                    *m.get_mut(j, hc) = w.lstm_recurrent[hc * 4 * h + g * h + j];
                }
                for xc in 0..x {
                    *m.get_mut(j, h + xc) = w.lstm_kernel[xc * 4 * h + g * h + j];
                }
            }
            m
        });
        let gate_b_f64: [Vector<f64>; 4] =
            std::array::from_fn(|g| Vector::from(w.lstm_bias[g * h..(g + 1) * h].to_vec()));
        let fc_w_f64 = Vector::from(w.fc_weights.clone());

        Self {
            dims,
            embedding_fx: Matrix::from_f64_flat(v, x, &embedding_f64.to_f64_flat()),
            gate_w_fx: std::array::from_fn(|g| {
                Matrix::from_f64_flat(h, z, &gate_w_f64[g].to_f64_flat())
            }),
            gate_b_fx: std::array::from_fn(|g| Vector::from_f64_slice(&gate_b_f64[g].to_f64_vec())),
            fc_w_fx: Vector::from_f64_slice(&fc_w_f64.to_f64_vec()),
            fc_b_fx: Fx6::from_f64(w.fc_bias),
            embedding_f64,
            gate_w_f64,
            gate_b_f64,
            fc_w_f64,
            fc_b_f64: w.fc_bias,
        }
    }

    /// The model dimensions.
    pub fn dims(&self) -> LstmDims {
        self.dims
    }

    /// Bytes occupied by the quantized parameter buffers on the device
    /// (i64 per parameter), for buffer sizing in the host program.
    pub fn device_bytes(&self) -> u64 {
        let params = self.dims.vocab * self.dims.embed
            + 4 * (self.dims.hidden * self.dims.z() + self.dims.hidden)
            + self.dims.hidden
            + 1;
        (params * std::mem::size_of::<i64>()) as u64
    }

    /// Serializes the quantized parameters into the byte image the host
    /// DMA's to FPGA DRAM: a 16-byte header (magic, vocab, embed, hidden)
    /// followed by every raw `i64` little-endian, in kernel consumption
    /// order (embedding | W_i W_f W_c W_o | b_i b_f b_c b_o | fc_w | fc_b).
    pub fn to_device_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.device_bytes() as usize);
        out.extend_from_slice(b"CSDW");
        out.extend_from_slice(&(self.dims.vocab as u32).to_le_bytes());
        out.extend_from_slice(&(self.dims.embed as u32).to_le_bytes());
        out.extend_from_slice(&(self.dims.hidden as u32).to_le_bytes());
        let mut push = |fx: Fx6| out.extend_from_slice(&fx.raw().to_le_bytes());
        for &v in self.embedding_fx.as_flat() {
            push(v);
        }
        for g in 0..4 {
            for &v in self.gate_w_fx[g].as_flat() {
                push(v);
            }
        }
        for g in 0..4 {
            for &v in self.gate_b_fx[g].as_slice() {
                push(v);
            }
        }
        for &v in self.fc_w_fx.as_slice() {
            push(v);
        }
        push(self.fc_b_fx);
        out
    }

    /// Parses a device image back into raw fixed-point values (used by
    /// tests to prove the DMA buffer is faithful).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn parse_device_image(image: &[u8]) -> Result<(LstmDims, Vec<Fx6>), String> {
        if image.len() < 16 {
            return Err("image shorter than the header".to_string());
        }
        if &image[0..4] != b"CSDW" {
            return Err("bad magic".to_string());
        }
        let word =
            |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().expect("4 bytes")) as usize;
        let dims = LstmDims {
            vocab: word(4),
            embed: word(8),
            hidden: word(12),
        };
        let body = &image[16..];
        if !body.len().is_multiple_of(8) {
            return Err("payload not i64-aligned".to_string());
        }
        let expected = dims.vocab * dims.embed
            + 4 * (dims.hidden * (dims.hidden + dims.embed))
            + 4 * dims.hidden
            + dims.hidden
            + 1;
        if body.len() / 8 != expected {
            return Err(format!(
                "expected {expected} parameters, found {}",
                body.len() / 8
            ));
        }
        let values = body
            .chunks_exact(8)
            .map(|c| Fx6::from_raw(i64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        Ok((dims, values))
    }

    /// Worst-case quantization error introduced across all parameters.
    pub fn max_quantization_error(&self) -> f64 {
        let mut worst: f64 = self.embedding_f64.max_abs_diff(&Matrix::from_f64_flat(
            self.dims.vocab,
            self.dims.embed,
            &self.embedding_fx.to_f64_flat(),
        ));
        for g in 0..4 {
            let dq = Matrix::from_f64_flat(
                self.dims.hidden,
                self.dims.z(),
                &self.gate_w_fx[g].to_f64_flat(),
            );
            worst = worst.max(self.gate_w_f64[g].max_abs_diff(&dq));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_fxp::LANE_ROW_BOUND;
    use csd_nn::{ModelConfig, SequenceClassifier};

    fn weights() -> QuantizedWeights {
        let model = SequenceClassifier::new(ModelConfig::paper(), 33);
        QuantizedWeights::from_model_weights(&ModelWeights::from_model(&model))
    }

    #[test]
    fn dims_match_paper() {
        let q = weights();
        assert_eq!(q.dims(), LstmDims::paper());
        assert_eq!(q.gate_w_f64[0].rows(), 32);
        assert_eq!(q.gate_w_f64[0].cols(), 40);
    }

    #[test]
    fn quantization_error_within_half_lsb() {
        let q = weights();
        assert!(q.max_quantization_error() <= 0.5e-6 + 1e-12);
    }

    #[test]
    fn combined_matrix_agrees_with_nn_reconstruction() {
        // The per-gate matrices rebuilt here must match what csd-nn's own
        // import produces (same TF layout interpretation).
        let model = SequenceClassifier::new(ModelConfig::tiny(9), 5);
        let export = ModelWeights::from_model(&model);
        let q = QuantizedWeights::from_model_weights(&export);
        let rebuilt = export.to_model();
        for g in 0..4 {
            assert_eq!(q.gate_w_f64[g], *rebuilt.lstm_cell().weight(g));
            assert_eq!(q.gate_b_f64[g], *rebuilt.lstm_cell().bias(g));
        }
    }

    /// Gate row `r` of a pack over `gate_w`/`gate_b`: row `r mod H` of
    /// gate `r / H`, and its bias.
    fn gate_row<'a>(
        gate_w: &'a [Matrix<Fx6>; 4],
        gate_b: &[Vector<Fx6>; 4],
        r: usize,
    ) -> (&'a [Fx6], Fx6) {
        let h = gate_w[0].rows();
        (gate_w[r / h].row(r % h), gate_b[r / h][r % h])
    }

    #[test]
    fn gate_table_entries_are_the_folded_embedding_products() {
        let q = weights();
        let dims = q.dims();
        let lane =
            LaneGatesFx::pack(&q.gate_w_fx, &q.gate_b_fx, &q.embedding_fx).expect("paper packs");
        assert_eq!(lane.hidden(), dims.hidden);
        assert_eq!(lane.vocab(), q.embedding_fx.rows());
        assert_eq!(lane.gate_table().len(), lane.vocab() * lane.rows());
        assert_eq!(lane.w_hidden_t().len(), lane.rows() * dims.hidden);
        for item in [0usize, 1, 137, 277] {
            for r in 0..lane.rows() {
                let (row, bias) = gate_row(&q.gate_w_fx, &q.gate_b_fx, r);
                let mut acc = bias.raw() as i128 * Fx6::SCALE as i128;
                for e in 0..dims.embed {
                    acc += row[dims.hidden + e].raw() as i128
                        * q.embedding_fx.get(item, e).raw() as i128;
                }
                // The f64 entry is that integer, exactly encoded.
                let entry = lane.gate_table()[item * lane.rows() + r];
                assert_eq!(entry as i128, acc, "item {item} row {r}");
            }
        }
        // The window's copy starts a cache line, in a clone too.
        assert_eq!(lane.w_hidden_t().as_ptr().align_offset(64), 0);
        let copy = lane.clone();
        assert_eq!(copy.w_hidden_t().as_ptr().align_offset(64), 0);
        assert_eq!(copy, lane);
        // W_h is the recurrent prefix of each gate row, transposed.
        for r in 0..lane.rows() {
            for k in 0..dims.hidden {
                let raw = gate_row(&q.gate_w_fx, &q.gate_b_fx, r).0[k].raw();
                assert_eq!(lane.w_hidden_t()[k * lane.rows() + r] as i64, raw);
            }
        }
    }

    /// The table-free reference: each gate's wide `[h | e(item)]` matvec
    /// plus bias, the four gates' rows in order.
    fn wide_preact(
        gate_w: &[Matrix<Fx6>; 4],
        gate_b: &[Vector<Fx6>; 4],
        embedding: &Matrix<Fx6>,
        item: usize,
        h: &[Fx6],
    ) -> Vec<i64> {
        let mut z: Vec<Fx6> = h.to_vec();
        z.extend((0..embedding.cols()).map(|e| embedding.get(item, e)));
        let z = Vector::from(z);
        gate_w
            .iter()
            .zip(gate_b)
            .flat_map(|(w, b)| {
                w.matvec(&z)
                    .add(b)
                    .iter()
                    .map(|v| v.raw())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// What the window's matvec computes from a pack's transposed `W_h`
    /// and one gate-table row, in integers: `round_half_away((table[r] +
    /// Σ_k w_t[k][r]·h[k]) / SCALE)`.
    fn row_preact(lane: &LaneGatesFx, item: usize, h: &[Fx6]) -> Vec<i64> {
        let rows = lane.rows();
        let table_row = &lane.gate_table()[item * rows..(item + 1) * rows];
        (0..rows)
            .map(|r| {
                let acc = table_row[r] as i64
                    + (0..h.len())
                        .map(|k| lane.w_hidden_t()[k * rows + r] as i64 * h[k].raw())
                        .sum::<i64>();
                csd_fxp::div_round_raw(acc, Fx6::SCALE)
            })
            .collect()
    }

    #[test]
    fn row_matvec_is_bit_identical_to_wide_path() {
        let q = weights();
        let dims = q.dims();
        let lane =
            LaneGatesFx::pack(&q.gate_w_fx, &q.gate_b_fx, &q.embedding_fx).expect("paper packs");
        // Every |h| ≤ 1, the kernel's domain, its two ends included.
        let mut h: Vec<Fx6> = (0..dims.hidden)
            .map(|i| Fx6::from_raw((i as i64 * 137_911) % 2_000_001 - 1_000_000))
            .collect();
        h[0] = Fx6::from_raw(Fx6::SCALE);
        h[1] = Fx6::from_raw(-Fx6::SCALE);
        for item in [0usize, 42, 277] {
            assert_eq!(
                row_preact(&lane, item, &h),
                wide_preact(&q.gate_w_fx, &q.gate_b_fx, &q.embedding_fx, item, &h),
                "item {item}"
            );
        }
    }

    /// Four gates of one unit each, every gate row `[w_h, 1]` over one
    /// recurrent and one embedding column, biases 0.
    fn one_unit_gates(w_h: i64) -> ([Matrix<Fx6>; 4], [Vector<Fx6>; 4]) {
        (
            std::array::from_fn(|_| Matrix::from_flat(1, 2, vec![Fx6::from_raw(w_h), Fx6::ONE])),
            std::array::from_fn(|_| Vector::from(vec![Fx6::ZERO])),
        )
    }

    #[test]
    fn pack_is_decided_by_the_row_bound_alone() {
        // One recurrent column, one embedding column. The row bound:
        // |w_h|·SCALE + 1·e (= SCALE²) + SCALE/2 must stay below 2^49.
        let embedding = Matrix::from_flat(1, 1, vec![Fx6::ONE]);
        let pack =
            |(w, b): &([Matrix<Fx6>; 4], [Vector<Fx6>; 4])| LaneGatesFx::pack(w, b, &embedding);
        let rest = Fx6::SCALE * Fx6::SCALE + Fx6::SCALE / 2;
        let edge = (LANE_ROW_BOUND - rest - 1) / Fx6::SCALE;
        assert!(pack(&one_unit_gates(edge + 1)).is_none());
        assert!(pack(&one_unit_gates(-(edge + 1))).is_none());
        // At the edge the weights pack, and the window's matvec — whose
        // accumulator then comes within SCALE of 2^49 — agrees with the
        // wide path.
        for w_h in [edge, -edge] {
            let gates = one_unit_gates(w_h);
            let lane = pack(&gates).expect("inside the row bound");
            for h in [Fx6::ONE, Fx6::from_raw(-Fx6::SCALE), Fx6::from_raw(333_333)] {
                assert_eq!(
                    row_preact(&lane, 0, &[h]),
                    wide_preact(&gates.0, &gates.1, &embedding, 0, &[h])
                );
            }
        }
    }

    #[test]
    fn pack_refuses_an_embedding_raw_of_i64_min() {
        // `i64::MIN.abs()` overflows: wrapped, it is negative and would
        // sit under any magnitude bound.
        let embedding = Matrix::from_flat(1, 1, vec![Fx6::from_raw(i64::MIN)]);
        let w = std::array::from_fn(|_| Matrix::from_flat(1, 2, vec![Fx6::ZERO, Fx6::ZERO]));
        let b = std::array::from_fn(|_| Vector::from(vec![Fx6::ZERO]));
        assert!(LaneGatesFx::pack(&w, &b, &embedding).is_none());
    }

    #[test]
    fn device_bytes_counts_all_parameters() {
        let q = weights();
        // 7,505 parameters × 8 bytes.
        assert_eq!(q.device_bytes(), 7_505 * 8);
    }

    #[test]
    fn device_image_roundtrip() {
        let q = weights();
        let image = q.to_device_image();
        assert_eq!(image.len() as u64, 16 + q.device_bytes());
        let (dims, values) = QuantizedWeights::parse_device_image(&image).expect("parse");
        assert_eq!(dims, q.dims());
        assert_eq!(values.len(), 7_505);
        // First value is embedding[0,0]; last is the FC bias.
        assert_eq!(values[0], q.embedding_fx.as_flat()[0]);
        assert_eq!(*values.last().expect("non-empty"), q.fc_b_fx);
    }

    #[test]
    fn device_image_rejects_corruption() {
        let q = weights();
        let image = q.to_device_image();
        assert!(QuantizedWeights::parse_device_image(&image[..10]).is_err());
        let mut bad_magic = image.clone();
        bad_magic[0] = b'X';
        assert!(QuantizedWeights::parse_device_image(&bad_magic).is_err());
        let truncated = &image[..image.len() - 8];
        let err = QuantizedWeights::parse_device_image(truncated).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }
}
