//! Lane-batched (structure-of-arrays) kernels for the fused LSTM gate
//! computation, and the row-vectorised kernel that runs one sequence
//! alone at the same cost.
//!
//! A fixed-point timestep is a `4H × H` recurrent product on top of a
//! precomputed gate-table row, plus elementwise activations. There are
//! two ways to fill a SIMD register with it, and this module has both:
//!
//! - **Across lanes** ([`matmul_fx_lanes_table`]): `W` sequences
//!   ("lanes") advance in lockstep with all state stored as `rows × W`
//!   lane blocks, so the timestep becomes a `4H × H · H × W`
//!   matrix–*matrix* product and the activations sweep contiguous lane
//!   rows. Memory layout: element `(row r, lane l)` lives at
//!   `buf[r * width + l]`. A block costs the same whether one lane is
//!   occupied or all of them. The stream mux's lane block is this
//!   axis's only caller; batches loop the row kernel below.
//! - **Across rows** ([`matvec_fx_rows_table`]): one sequence, its `4H`
//!   gate rows spread over the registers. The gate-table row is
//!   contiguous and `W_h` is kept transposed, so neither needs a
//!   gather; the elementwise kernels ([`sigmoid_lut_lanes`],
//!   [`softsign_lanes`], [`update_lanes`]) are layout-agnostic and run
//!   unchanged at width 1. One window alone costs about what it costs as
//!   one lane of a full block.
//!
//! # Bit-identity contract
//!
//! Every kernel here is **bit-identical** to the serial scalar code it
//! replaces — not approximately equal, identical:
//!
//! - The `f64` kernels replay the serial operation sequence exactly.
//!   [`matmul_f64_lanes`] reproduces `f64::dot_slices`' four-accumulator
//!   chunked summation *per lane* (same adds, same order, no FMA), and
//!   the pointwise ops are the identical IEEE-754 expressions. Since
//!   every individual IEEE op is correctly rounded, vectorizing across
//!   lanes cannot change any bit.
//! - The fixed-point kernels hold `Fixed<6>` raw integers as exact `f64`
//!   values (every intermediate stays below `2^53`) and compute the
//!   *integer-exact* result of the reference formulas — accumulate,
//!   round-half-away-from-zero rescale, LUT sigmoid, exact softsign.
//!   The accumulation, the rescales and the softsign use FMA, reciprocal
//!   and division sequences whose error terms are provably too small to
//!   change the integer on a stated domain; the LUT sigmoid, an integer
//!   function on a 16 M-point domain, is compared with its scalar
//!   reference on every point of it by a test instead. Callers must
//!   uphold the range bounds documented per kernel (the engine proves
//!   them at weight-pack time). Both vectorisation axes rest on one
//!   argument: under the pack-time row bound every partial sum of a gate
//!   row is an exact integer below `2^49`, so the sum is the same
//!   integer however the additions associate — lane-tiled, row-tiled or
//!   scalar — and its rescale is the four-op one.
//!
//! On x86-64 with AVX-512 (F+DQ+VL) the fixed-point kernels dispatch to
//! hand-written intrinsics (with AVX2+FMA bodies for the two matrix
//! kernels); everywhere else they fall back to scalar reference code
//! operating on the same `f64`-encoded integers. The tier is resolved
//! once per process and every kernel dispatches on it. The fallbacks
//! produce the same bits, so the engine's output never depends on the
//! host ISA.

use std::sync::OnceLock;

use csd_fxp::{sigmoid_fx_lut, softsign_fx, Fx6};

/// The decimal scale of [`Fx6`] as an `f64` (`10^6`).
const FSCALE: f64 = Fx6::SCALE as f64;

/// The SIMD tier the fixed-point kernels dispatch on. Each tier implies
/// the ones below it: [`Tier::Avx512`] is only resolved on a host that
/// also reports AVX2 and FMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// AVX-512 F + DQ + VL (and AVX2 + FMA).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 + FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Portable scalar code.
    Scalar,
}

/// The host's tier, detected on first use.
fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                if has!("avx512f") && has!("avx512dq") && has!("avx512vl") {
                    return Tier::Avx512;
                }
                return Tier::Avx2;
            }
        }
        Tier::Scalar
    })
}

/// Which SIMD tier the fixed-point lane kernels dispatch to on this host.
///
/// Purely informational (bench reports); the result is one of
/// `"avx512"`, `"avx2"`, or `"scalar"` and never affects output bits.
pub fn simd_level() -> &'static str {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => "avx2",
        Tier::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------------
// f64 path
// ---------------------------------------------------------------------------

/// Lane-batched `out = W · Z` for the float path: `w` is `rows × cols`
/// row-major, `z` is a `cols × width` lane block, `out` is `rows × width`.
///
/// Per lane this reproduces `f64::dot_slices` bit-for-bit: four
/// accumulators over column chunks of 4 (separate multiply then add — no
/// FMA contraction), combined as `(a0 + a1) + (a2 + a3)`, remainder
/// columns added sequentially. `acc` is caller-provided scratch of at
/// least `4 * width` elements so the hot loop never allocates.
///
/// # Panics
///
/// Panics when the slice lengths disagree with `rows`/`cols`/`width`.
pub fn matmul_f64_lanes(
    w: &[f64],
    rows: usize,
    cols: usize,
    z: &[f64],
    width: usize,
    out: &mut [f64],
    acc: &mut [f64],
) {
    assert_eq!(w.len(), rows * cols, "lane matmul weight shape mismatch");
    assert_eq!(z.len(), cols * width, "lane matmul input shape mismatch");
    assert_eq!(out.len(), rows * width, "lane matmul output shape mismatch");
    assert!(acc.len() >= 4 * width, "lane matmul scratch too small");
    let (a0, rest) = acc.split_at_mut(width);
    let (a1, rest) = rest.split_at_mut(width);
    let (a2, rest) = rest.split_at_mut(width);
    let a3 = &mut rest[..width];
    let chunks = cols / 4;
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        a0.fill(0.0);
        a1.fill(0.0);
        a2.fill(0.0);
        a3.fill(0.0);
        for m in 0..chunks {
            let k = 4 * m;
            let (w0, w1, w2, w3) = (row[k], row[k + 1], row[k + 2], row[k + 3]);
            let z0 = &z[k * width..(k + 1) * width];
            let z1 = &z[(k + 1) * width..(k + 2) * width];
            let z2 = &z[(k + 2) * width..(k + 3) * width];
            let z3 = &z[(k + 3) * width..(k + 4) * width];
            for l in 0..width {
                a0[l] += w0 * z0[l];
                a1[l] += w1 * z1[l];
                a2[l] += w2 * z2[l];
                a3[l] += w3 * z3[l];
            }
        }
        let o = &mut out[r * width..(r + 1) * width];
        for l in 0..width {
            o[l] = (a0[l] + a1[l]) + (a2[l] + a3[l]);
        }
        for k in 4 * chunks..cols {
            let wk = row[k];
            let zk = &z[k * width..(k + 1) * width];
            for l in 0..width {
                o[l] += wk * zk[l];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed-point path: integer-exact arithmetic on f64-encoded Fx6 raws
// ---------------------------------------------------------------------------

/// Lane-batched fused gate matmul with a precomputed **input-gate
/// table**: the accumulator of row `r`, lane `l` is *initialized* from
/// `table[items[l] · rows + r]` — the per-item precomputation
/// `Σ_x w_x[r]·e(item)_x + bias_r·SCALE` — and the k-loop then covers
/// only the `hcols` recurrent columns. The final rescale is fused into
/// the store epilogue, so `out` receives the finished raw gate
/// pre-activation: `round_half_away(acc / SCALE)`.
///
/// This is exactly `round_half_away((Σ_k w[r][k]·z[k][l] + bias_r·SCALE)
/// / SCALE)` over the full `Z = hcols + E` gate input (with the embedding
/// columns holding `e(items[l])`), i.e. the serial semantics
/// `round(Σ w·z / SCALE) + bias_r` — `round(a/S) + b == round((a + b·S)/S)`
/// because `b·S` is a multiple of `S`. The table entry is the exact
/// integer value of the folded-out partial sum, and integer addition is
/// associative when nothing overflows, so moving those terms into the
/// init changes no bit.
///
/// The caller proves the per-row bound `Σ_k |w[r][k]|·max|z[k]| +
/// |b_r|·SCALE + SCALE/2 < 2^49` over the full row at pack time (a table
/// entry is a partial sum of that proven accumulator, hence itself
/// exact). Under the bound every product and partial sum is an exact
/// `f64` integer no matter how the additions associate, and the finished
/// accumulator is inside the domain of the AVX-512 epilogue's four-op
/// rescale, so the FMA-tiled SIMD versions and the scalar fallback agree
/// bit for bit.
///
/// `zh` is the `hcols × width` recurrent lane block (the `h` rows of
/// the gate input); `table` is `n_items × rows` row-major.
///
/// # Panics
///
/// Panics when slice lengths disagree with `rows`/`hcols`/`width`, or
/// when any `items[l]` is outside the table.
#[allow(clippy::too_many_arguments)]
pub fn matmul_fx_lanes_table(
    w: &[f64],
    rows: usize,
    hcols: usize,
    zh: &[f64],
    width: usize,
    table: &[f64],
    items: &[usize],
    out: &mut [f64],
) {
    assert!(rows > 0, "table matmul needs at least one row");
    assert_eq!(w.len(), rows * hcols, "table matmul weight shape mismatch");
    assert_eq!(zh.len(), hcols * width, "table matmul input shape mismatch");
    assert_eq!(
        out.len(),
        rows * width,
        "table matmul output shape mismatch"
    );
    assert_eq!(items.len(), width, "one table index per lane");
    let n_items = table.len() / rows;
    assert_eq!(table.len(), n_items * rows, "ragged gate table");
    for &item in items {
        assert!(item < n_items, "item {item} outside the gate table");
    }
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if rows.is_multiple_of(8) && width.is_multiple_of(8) => {
            // SAFETY: the tier was resolved from the host's avx512f/dq/vl
            // bits; the shape and item-range asserts guarantee in-bounds
            // access.
            #[allow(unsafe_code)]
            unsafe {
                x86::mm_fma_avx512_table(w, rows, hcols, zh, width, table, items, out)
            };
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 | Tier::Avx2 if rows.is_multiple_of(4) && width.is_multiple_of(4) => {
            // SAFETY: both tiers are only resolved on a host with avx2 and
            // fma; the shape and item-range asserts guarantee in-bounds
            // access.
            #[allow(unsafe_code)]
            unsafe {
                x86::mm_fma_avx2_table(w, rows, hcols, zh, width, table, items, out)
            };
            rescale_lanes(out);
        }
        _ => matmul_fx_table_scalar(w, rows, hcols, zh, width, table, items, out),
    }
}

/// Scalar reference for [`matmul_fx_lanes_table`], rescale included.
#[allow(clippy::too_many_arguments)]
fn matmul_fx_table_scalar(
    w: &[f64],
    rows: usize,
    hcols: usize,
    zh: &[f64],
    width: usize,
    table: &[f64],
    items: &[usize],
    out: &mut [f64],
) {
    for r in 0..rows {
        let row = &w[r * hcols..(r + 1) * hcols];
        let o = &mut out[r * width..(r + 1) * width];
        for (acc, &item) in o.iter_mut().zip(items) {
            *acc = table[item * rows + r];
        }
        for (k, &wk) in row.iter().enumerate() {
            let zk = &zh[k * width..(k + 1) * width];
            for (acc, &zv) in o.iter_mut().zip(zk) {
                *acc += wk * zv;
            }
        }
        for acc in o.iter_mut() {
            *acc = div_round_raw(*acc as i64, Fx6::SCALE) as f64;
        }
    }
}

/// Row-vectorised fused gate matvec for **one** sequence:
/// `out[r] = round_half_away((table_row[r] + Σ_k w_t[k·rows + r]·h[k]) /
/// SCALE)` — [`matmul_fx_lanes_table`] at width 1, with the SIMD axis
/// turned from lanes to gate rows.
///
/// `w_t` is the recurrent half `W_h` **transposed**, `hcols × rows`
/// row-major, so the `rows` weights that multiply `h[k]` are contiguous:
/// per `k` the kernel broadcasts `h[k]` once and feeds one load-FMA per
/// register of rows (16 `zmm` accumulators at the paper's `4H = 128`).
/// `table_row` is the sequence's current gate-table row, contiguous as
/// stored — no transpose, no gather. The rescale is fused into the
/// store epilogue. Any alignment is correct; a `w_t` that starts on a
/// 64-byte cache line is a third faster (every load of a register of
/// weights otherwise straddles two lines, and the loop is one load per
/// FMA).
///
/// Exact by the argument of [`matmul_fx_lanes_table`]: under the
/// pack-time row bound (`|h[k]| ≤ SCALE`) every product and partial sum
/// is an exact integer below `2^49`, so accumulating `k`-outer across
/// rows gives the same integer as the reference `k`-inner `i64` sum, on
/// every body.
///
/// # Panics
///
/// Panics when the slice lengths disagree: `rows = out.len()`,
/// `hcols = h.len()`.
pub fn matvec_fx_rows_table(w_t: &[f64], h: &[f64], table_row: &[f64], out: &mut [f64]) {
    let rows = out.len();
    assert_eq!(
        w_t.len(),
        h.len() * rows,
        "row matvec weight shape mismatch"
    );
    assert_eq!(table_row.len(), rows, "row matvec table row mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: the tier was resolved from the host's avx512f/dq/vl
            // bits; the shape asserts guarantee in-bounds access.
            #[allow(unsafe_code)]
            unsafe {
                x86::mv_rows_avx512(w_t, h, table_row, out)
            }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            // SAFETY: the tier is only resolved on a host with avx2 and
            // fma; the shape asserts guarantee in-bounds access.
            #[allow(unsafe_code)]
            unsafe {
                x86::mv_rows_avx2(w_t, h, table_row, out)
            };
            rescale_lanes(out);
        }
        Tier::Scalar => matvec_fx_rows_scalar(w_t, h, table_row, out),
    }
}

/// Scalar reference for [`matvec_fx_rows_table`], rescale included.
fn matvec_fx_rows_scalar(w_t: &[f64], h: &[f64], table_row: &[f64], out: &mut [f64]) {
    accumulate_rows_from(w_t, h, table_row, out, 0);
    for acc in out.iter_mut() {
        *acc = div_round_raw(*acc as i64, Fx6::SCALE) as f64;
    }
}

/// The raw (unrescaled) accumulators of rows `from..` of a row matvec —
/// the whole scalar body, and the SIMD bodies' tail past their last full
/// register. `k`-outer over contiguous rows, so the compiler vectorises
/// the inner loop on whatever the build target offers.
fn accumulate_rows_from(w_t: &[f64], h: &[f64], table_row: &[f64], out: &mut [f64], from: usize) {
    let rows = out.len();
    let out = &mut out[from..];
    out.copy_from_slice(&table_row[from..]);
    for (k, &hk) in h.iter().enumerate() {
        let col = &w_t[k * rows + from..(k + 1) * rows];
        for (acc, &wv) in out.iter_mut().zip(col) {
            *acc += wv * hk;
        }
    }
}

/// In-place `x := round_half_away(x / SCALE)` over a block of `f64`-encoded
/// raw integers — the `10^12 → 10^6` product correction (§III-D), exactly
/// as `div_round_i64(x, SCALE)` computes it.
///
/// Exact for `|x| + SCALE/2 < 2^53`, whatever the matmul row bound the
/// caller holds. Only the AVX2 tiles need it as a separate sweep — the
/// AVX-512 and scalar kernels rescale in their store epilogue.
fn rescale_lanes(xs: &mut [f64]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: the tier was resolved from the host's avx512f/dq/vl
            // bits.
            #[allow(unsafe_code)]
            unsafe {
                x86::rescale_avx512(xs)
            }
        }
        _ => {
            for x in xs {
                *x = div_round_raw(*x as i64, Fx6::SCALE) as f64;
            }
        }
    }
}

/// In-place LUT sigmoid over a block of `f64`-encoded raw pre-activations,
/// the same raw as `csd_fxp::sigmoid_fx_lut` on each element: 256-entry
/// table over `[-8, 8]`, linear interpolation, saturation outside. The
/// scalar function is the reference and what every tier but AVX-512
/// calls; that tier's body is checked against it on every input the
/// table covers.
///
/// Exact for `|x| ≤ 2^52` (far beyond any pre-activation the matmul bound
/// admits).
pub fn sigmoid_lut_lanes(xs: &mut [f64]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: the tier was resolved from the host's avx512f/dq/vl
            // bits.
            #[allow(unsafe_code)]
            unsafe {
                x86::sigmoid_avx512(xs, x86::sigmoid_segments())
            }
        }
        _ => {
            for x in xs {
                *x = sigmoid_fx_lut(Fx6::from_raw(*x as i64)).raw() as f64;
            }
        }
    }
}

/// In-place exact softsign over a block of `f64`-encoded raw values:
/// `round_half_away(x·SCALE / (|x| + SCALE))`, bit-identical to
/// `csd_fxp::softsign_fx`.
///
/// Exact for `|x| ≤ ~8·10^9` (`x·SCALE + den/2` must stay below `2^53`);
/// the engine's sequence-length cap guarantees it.
pub fn softsign_lanes(xs: &mut [f64]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: the tier was resolved from the host's avx512f/dq/vl
            // bits.
            #[allow(unsafe_code)]
            unsafe {
                x86::softsign_avx512(xs)
            }
        }
        _ => {
            for x in xs {
                *x = softsign_fx(Fx6::from_raw(*x as i64)).raw() as f64;
            }
        }
    }
}

/// Lane-batched LSTM state update for the fixed-point path:
/// `C_t = f∗C_{t−1} + i∗C'`, `h_t = o ∗ softsign(C_t)` with every `∗` the
/// rescaling fixed-point product — bit-identical to the serial
/// `update_fused_fx`.
///
/// `g` is the activated `4H × width` gate block in TF order
/// (`i f c o`), `c` and `h` are `hidden × width` lane blocks. Exact while
/// `|C_t| ≤ ~8·10^9` raw (≤ 8000 timesteps from a zero state, since each
/// step grows `|C|` by at most `SCALE`).
///
/// # Panics
///
/// Panics when the slice lengths disagree with `hidden`/`width`.
pub fn update_lanes(g: &[f64], hidden: usize, width: usize, c: &mut [f64], h: &mut [f64]) {
    let hw = hidden * width;
    assert_eq!(g.len(), 4 * hw, "lane update gate shape mismatch");
    assert_eq!(c.len(), hw, "lane update cell shape mismatch");
    assert_eq!(h.len(), hw, "lane update hidden shape mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: the tier was resolved from the host's avx512f/dq/vl
            // bits; the shape asserts guarantee in-bounds access.
            #[allow(unsafe_code)]
            unsafe {
                x86::update_avx512(g, hw, c, h)
            }
        }
        _ => {
            let (gi, gf, gc, go) = (&g[..hw], &g[hw..2 * hw], &g[2 * hw..3 * hw], &g[3 * hw..]);
            for j in 0..hw {
                let ct =
                    fx_mul_raw(gf[j] as i64, c[j] as i64) + fx_mul_raw(gi[j] as i64, gc[j] as i64);
                c[j] = ct as f64;
                let ss = softsign_fx(Fx6::from_raw(ct)).raw();
                h[j] = fx_mul_raw(go[j] as i64, ss) as f64;
            }
        }
    }
}

/// Round-half-away-from-zero division, the reference rescale semantics.
fn div_round_raw(num: i64, den: i64) -> i64 {
    let half = den / 2;
    if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    }
}

/// The rescaling fixed-point product on raw values (`Fx6` `Mul` replica).
fn fx_mul_raw(a: i64, b: i64) -> i64 {
    let p = a as i128 * b as i128;
    let half = (Fx6::SCALE / 2) as i128;
    let scale = Fx6::SCALE as i128;
    (if p >= 0 {
        (p + half) / scale
    } else {
        (p - half) / scale
    }) as i64
}

// ---------------------------------------------------------------------------
// x86-64 intrinsics
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fx_mul_raw, FSCALE};
    use csd_fxp::activation::{sigmoid_lut_table, LUT_ENTRIES, LUT_RANGE};
    use csd_fxp::{sigmoid_fx_lut, softsign_fx, Fx6};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// `RN((1/SCALE)·(1 + 2^-50))`: the reciprocal [`div_round_scale_pd`]
    /// multiplies by, nudged up so a product can only err upward.
    const INV_SCALE_UP: f64 = (1.0 + 1.0 / (1u64 << 50) as f64) / FSCALE;

    /// Exact `round_half_away(x / SCALE)` for `x` an exact integer with
    /// `|x| + SCALE/2 < 2^49` — the domain the pack-time row bound puts
    /// every matvec accumulator in, and far above the `≤ 10^12` gate
    /// products of the state update — in four ops:
    /// `trunc((x + copysign(SCALE/2, x)) · y⁺)`, `y⁺` =
    /// [`INV_SCALE_UP`].
    ///
    /// Why truncating the *rounded* product is the true quotient: with
    /// `m = |x| + SCALE/2` and both roundings (of `y⁺`, of the product)
    /// within a relative `2^-53`, the product is `(m/SCALE)·(1 + ε)`
    /// with `0.75·2^-50 < ε < 1.25·2^-50`. It errs upward only, so an
    /// exact multiple of `SCALE` (every tie of the original `x`) never
    /// truncates one low; and any other `m` leaves `m/SCALE` at least
    /// `1/SCALE = 10^-6` under its next integer, while the excess
    /// `(m/SCALE)·ε` stays below `2^49/SCALE · 1.25·2^-50 < 6.3·10^-7`,
    /// so the product never reaches it.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn div_round_scale_pd(x: __m512d) -> __m512d {
        let half = _mm512_castpd_si512(_mm512_set1_pd((Fx6::SCALE / 2) as f64));
        let sgnmask = _mm512_castpd_si512(_mm512_set1_pd(-0.0));
        // `(x & sgnmask) | half`: one `vpternlog`.
        let signed_half = _mm512_castsi512_pd(_mm512_ternarylogic_epi64::<0xEA>(
            _mm512_castpd_si512(x),
            sgnmask,
            half,
        ));
        let m = _mm512_add_pd(x, signed_half);
        _mm512_roundscale_pd(
            _mm512_mul_pd(m, _mm512_set1_pd(INV_SCALE_UP)),
            _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC,
        )
    }

    /// [`div_round_scale_pd`] on the wide domain `|x| + SCALE/2 ≤ 2^53`,
    /// for the two callers whose operand the pack proof does not bound
    /// below `2^49`: `f∗C` in [`update_avx512`] (`|C|` grows by up to
    /// `SCALE` a timestep, so the product reaches `8·10^15` at the
    /// sequence cap) and the stand-alone sweep [`rescale_avx512`].
    /// `floor(RN(m / SCALE))` on the magnitude `m = |x| + SCALE/2`, with
    /// the correctly rounded `m / SCALE` from
    /// [`div_by_scale_exact_pd`] — no ±1 correction step needed.
    ///
    /// Why the floor of the *rounded* quotient is the true floor: RN
    /// moves `m/SCALE` by at most half an ulp, which for quotients below
    /// `2^34` (the largest the domain admits: `2^53/10^6 < 2^34`) is at
    /// most `2^-20 < 10^-6`. The true quotient is either an exact
    /// integer (`m` a multiple of `SCALE`, rounded to itself) or at
    /// least `1/SCALE = 10^-6` away from one, so rounding can never
    /// carry it across an integer boundary.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn div_round_scale_wide_pd(x: __m512d) -> __m512d {
        let half = _mm512_set1_pd((Fx6::SCALE / 2) as f64);
        let sgnmask = _mm512_set1_pd(-0.0);
        let sgn = _mm512_and_pd(x, sgnmask);
        let mag = _mm512_andnot_pd(sgnmask, x);
        let m = _mm512_add_pd(mag, half);
        let q = _mm512_roundscale_pd(
            div_by_scale_exact_pd(m),
            _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC,
        );
        _mm512_or_pd(q, sgn)
    }

    /// Exact `round_half_away(num/den)` for nonnegative exact-integer
    /// magnitudes and a variable denominator (softsign). Requires
    /// `num + den/2 < 2^53` and the softsign domain bounds
    /// (`q ≤ SCALE`, `den < 2^34`), under which `m − q0·den` is a small
    /// integer computed exactly by the FMA.
    ///
    /// The quotient estimate avoids `vdivpd` (~10-cycle throughput on
    /// Skylake-class cores): `rcp14` (relative error < 2^-14) refined by
    /// one Newton step gives `1/den` to < 2^-27.9 including rounding, so
    /// `q0 = floor(m · y)` is off from `floor(m/den)` by at most one
    /// (absolute error ≤ (SCALE + ½)·2^-27.9 < 0.004 before the floor) —
    /// exactly the range the branchless ±1 residual correction repairs.
    /// The corrected quotient is the true floor no matter how the
    /// estimate was produced, so the result is unchanged bit for bit.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn div_round_generic_pd(mag_num: __m512d, den: __m512d, sgn: __m512d) -> __m512d {
        let half = _mm512_roundscale_pd(
            _mm512_mul_pd(den, _mm512_set1_pd(0.5)),
            _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC,
        );
        let m = _mm512_add_pd(mag_num, half);
        let y0 = _mm512_rcp14_pd(den);
        let y = _mm512_mul_pd(y0, _mm512_fnmadd_pd(den, y0, _mm512_set1_pd(2.0)));
        let q0 = _mm512_roundscale_pd(
            _mm512_mul_pd(m, y),
            _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC,
        );
        let r = _mm512_fnmadd_pd(q0, den, m);
        let ge = _mm512_cmp_pd_mask(r, den, _CMP_GE_OQ);
        let lt = _mm512_cmp_pd_mask(r, _mm512_setzero_pd(), _CMP_LT_OQ);
        let one = _mm512_set1_pd(1.0);
        let q1 = _mm512_mask_add_pd(q0, ge, q0, one);
        let q = _mm512_mask_sub_pd(q1, lt, q1, one);
        _mm512_or_pd(q, sgn)
    }

    /// Correctly rounded `x / SCALE` — the same bits as
    /// `_mm512_div_pd(x, FSCALE)` and as the scalar `raw as f64 / 1e6` —
    /// for `x` an exact integer with `|x| ≤ 2^53`, computed with one
    /// multiply and two FMAs instead of a ~10-cycle `vdivpd`.
    ///
    /// Markstein's constant-divisor sequence with `y = RN(1/SCALE)`:
    /// `q0 = RN(x·y)` is within 2 ulp of `x/SCALE`; the FMA residual
    /// `r = x − q0·SCALE` is *exact* (its value is a multiple of
    /// `lsb(q0)·2^6 ≥ 2^-13` bounded by a few ulps of `x`, so it spans
    /// < 20 bits, since `SCALE = 2^6·15625`); and `q0 + r/SCALE =
    /// x/SCALE` exactly as reals, so the final `RN(q0 + RN(r·y))` rounds
    /// `x/SCALE` perturbed by at most ~2^(e−103) (`2^e ≤ |x|/SCALE`).
    /// That perturbation cannot cross a rounding boundary: `x/SCALE =
    /// x/(2^6·5^6)` is never exactly a 53-bit midpoint (the numerator of
    /// its distance to one is a nonzero integer, as `15625·odd` has no
    /// factor of 2), so the nearest midpoint is at least
    /// `2^(e−53)/10^6 > 2^(e−73)` away.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn div_by_scale_exact_pd(x: __m512d) -> __m512d {
        let c = _mm512_set1_pd(FSCALE);
        let y = _mm512_set1_pd(1.0 / FSCALE);
        let q0 = _mm512_mul_pd(x, y);
        let r = _mm512_fnmadd_pd(q0, c, x);
        _mm512_fmadd_pd(r, y, q0)
    }

    /// Load eight consecutive gate-table entries for each of eight lanes
    /// (`table[items8[l]·rows + r .. +8]`) and transpose in-register so
    /// vector `i` of the result holds entry `r + i` across the eight
    /// lanes — exactly the accumulator layout of the row-tiled matmul.
    ///
    /// 8 unaligned loads + 24 permute ops, all pure data movement, so
    /// trivially exact. Compare ~64 scalar gather stores for the same
    /// init through memory.
    ///
    /// # Safety
    ///
    /// Requires avx512f; `items8.len() == 8`, every `items8[l]·rows + r
    /// + 8 <= table.len()`, and `r + 8 <= rows`.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn transpose_table_8(
        table: &[f64],
        rows: usize,
        items8: &[usize],
        r: usize,
    ) -> [__m512d; 8] {
        let r0 = _mm512_loadu_pd(table.as_ptr().add(items8[0] * rows + r));
        let r1 = _mm512_loadu_pd(table.as_ptr().add(items8[1] * rows + r));
        let r2 = _mm512_loadu_pd(table.as_ptr().add(items8[2] * rows + r));
        let r3 = _mm512_loadu_pd(table.as_ptr().add(items8[3] * rows + r));
        let r4 = _mm512_loadu_pd(table.as_ptr().add(items8[4] * rows + r));
        let r5 = _mm512_loadu_pd(table.as_ptr().add(items8[5] * rows + r));
        let r6 = _mm512_loadu_pd(table.as_ptr().add(items8[6] * rows + r));
        let r7 = _mm512_loadu_pd(table.as_ptr().add(items8[7] * rows + r));
        // Stage 1: interleave adjacent lane pairs within 128-bit blocks.
        let t0 = _mm512_unpacklo_pd(r0, r1);
        let t1 = _mm512_unpackhi_pd(r0, r1);
        let t2 = _mm512_unpacklo_pd(r2, r3);
        let t3 = _mm512_unpackhi_pd(r2, r3);
        let t4 = _mm512_unpacklo_pd(r4, r5);
        let t5 = _mm512_unpackhi_pd(r4, r5);
        let t6 = _mm512_unpacklo_pd(r6, r7);
        let t7 = _mm512_unpackhi_pd(r6, r7);
        // Stages 2–3: gather the 128-bit blocks across vectors. 0x88
        // selects blocks [a0,a2,b0,b2]; 0xDD selects [a1,a3,b1,b3].
        let u0 = _mm512_shuffle_f64x2::<0x88>(t0, t2);
        let u1 = _mm512_shuffle_f64x2::<0x88>(t4, t6);
        let u2 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
        let u3 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
        let u4 = _mm512_shuffle_f64x2::<0xDD>(t0, t2);
        let u5 = _mm512_shuffle_f64x2::<0xDD>(t4, t6);
        let u6 = _mm512_shuffle_f64x2::<0xDD>(t1, t3);
        let u7 = _mm512_shuffle_f64x2::<0xDD>(t5, t7);
        [
            _mm512_shuffle_f64x2::<0x88>(u0, u1),
            _mm512_shuffle_f64x2::<0x88>(u2, u3),
            _mm512_shuffle_f64x2::<0x88>(u4, u5),
            _mm512_shuffle_f64x2::<0x88>(u6, u7),
            _mm512_shuffle_f64x2::<0xDD>(u0, u1),
            _mm512_shuffle_f64x2::<0xDD>(u2, u3),
            _mm512_shuffle_f64x2::<0xDD>(u4, u5),
            _mm512_shuffle_f64x2::<0xDD>(u6, u7),
        ]
    }

    /// AVX-512 gate-table matmul. Lane-vector pairs get an 8-row ×
    /// 16-lane tile (16 accumulators): per `k` step that is 8 weight
    /// broadcasts + 2 `z` loads feeding 16 FMAs — 5 load-port cycles
    /// against 8 FMA-port cycles, so the loop runs FMA-bound, where the
    /// single-vector 8 × 8 tile (9 loads per 8 FMAs) is load-port-bound.
    /// An odd trailing vector falls back to the 8 × 8 tile. The
    /// accumulators are *initialized from the precomputed input-gate
    /// table* (via [`transpose_table_8`]), the `k` loop covers only the
    /// `hcols` recurrent columns, and the rescale is fused into the
    /// store epilogue ([`div_round_scale_pd`] on the finished
    /// accumulator). All products and sums are exact integers, so
    /// neither the fused multiply-adds nor the tile shape introduce any
    /// rounding.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `rows % 8 == 0`, `width % 8 == 0`, every
    /// `items[l]` in table range, and the slice shapes asserted by the
    /// dispatching wrapper.
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn mm_fma_avx512_table(
        w: &[f64],
        rows: usize,
        hcols: usize,
        zh: &[f64],
        width: usize,
        table: &[f64],
        items: &[usize],
        out: &mut [f64],
    ) {
        debug_assert_eq!(rows % 8, 0);
        debug_assert_eq!(width % 8, 0);
        let nvec = width / 8;
        let mut r = 0;
        while r < rows {
            let mut v = 0;
            while v + 2 <= nvec {
                let init0 = transpose_table_8(table, rows, &items[v * 8..v * 8 + 8], r);
                let init1 = transpose_table_8(table, rows, &items[(v + 1) * 8..(v + 2) * 8], r);
                let mut acc = [[_mm512_setzero_pd(); 2]; 8];
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = [init0[i], init1[i]];
                }
                for k in 0..hcols {
                    let z0 = _mm512_loadu_pd(zh.as_ptr().add(k * width + v * 8));
                    let z1 = _mm512_loadu_pd(zh.as_ptr().add(k * width + (v + 1) * 8));
                    for (i, a) in acc.iter_mut().enumerate() {
                        let wk = _mm512_set1_pd(*w.get_unchecked((r + i) * hcols + k));
                        a[0] = _mm512_fmadd_pd(wk, z0, a[0]);
                        a[1] = _mm512_fmadd_pd(wk, z1, a[1]);
                    }
                }
                for (i, a) in acc.iter().enumerate() {
                    let o0 = div_round_scale_pd(a[0]);
                    let o1 = div_round_scale_pd(a[1]);
                    _mm512_storeu_pd(out.as_mut_ptr().add((r + i) * width + v * 8), o0);
                    _mm512_storeu_pd(out.as_mut_ptr().add((r + i) * width + (v + 1) * 8), o1);
                }
                v += 2;
            }
            while v < nvec {
                let mut acc = transpose_table_8(table, rows, &items[v * 8..v * 8 + 8], r);
                for k in 0..hcols {
                    let zv = _mm512_loadu_pd(zh.as_ptr().add(k * width + v * 8));
                    for (i, a) in acc.iter_mut().enumerate() {
                        let wk = _mm512_set1_pd(*w.get_unchecked((r + i) * hcols + k));
                        *a = _mm512_fmadd_pd(wk, zv, *a);
                    }
                }
                for (i, a) in acc.iter().enumerate() {
                    let o = div_round_scale_pd(*a);
                    _mm512_storeu_pd(out.as_mut_ptr().add((r + i) * width + v * 8), o);
                }
                v += 1;
            }
            r += 8;
        }
    }

    /// AVX2+FMA gate-table matmul: 4-row × 4-lane tiles (same
    /// exact-integer argument as the AVX-512 tile, so same bits) with
    /// accumulators initialized by four scalar table loads per row
    /// (`_mm256_set_pd` — no cross-lane permute network below AVX-512).
    /// Leaves the raw accumulator in `out`; the dispatching wrapper runs
    /// the scalar rescale sweep afterwards.
    ///
    /// # Safety
    ///
    /// Requires avx2/fma; `rows % 4 == 0`, `width % 4 == 0`, every
    /// `items[l]` in table range, and the slice shapes asserted by the
    /// dispatching wrapper.
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mm_fma_avx2_table(
        w: &[f64],
        rows: usize,
        hcols: usize,
        zh: &[f64],
        width: usize,
        table: &[f64],
        items: &[usize],
        out: &mut [f64],
    ) {
        debug_assert_eq!(rows % 4, 0);
        debug_assert_eq!(width % 4, 0);
        let nvec = width / 4;
        let mut r = 0;
        while r < rows {
            for v in 0..nvec {
                let (l0, l1, l2, l3) = (
                    items[v * 4] * rows,
                    items[v * 4 + 1] * rows,
                    items[v * 4 + 2] * rows,
                    items[v * 4 + 3] * rows,
                );
                let mut a0 =
                    _mm256_set_pd(table[l3 + r], table[l2 + r], table[l1 + r], table[l0 + r]);
                let mut a1 = _mm256_set_pd(
                    table[l3 + r + 1],
                    table[l2 + r + 1],
                    table[l1 + r + 1],
                    table[l0 + r + 1],
                );
                let mut a2 = _mm256_set_pd(
                    table[l3 + r + 2],
                    table[l2 + r + 2],
                    table[l1 + r + 2],
                    table[l0 + r + 2],
                );
                let mut a3 = _mm256_set_pd(
                    table[l3 + r + 3],
                    table[l2 + r + 3],
                    table[l1 + r + 3],
                    table[l0 + r + 3],
                );
                for k in 0..hcols {
                    let zv = _mm256_loadu_pd(zh.as_ptr().add(k * width + v * 4));
                    a0 = _mm256_fmadd_pd(_mm256_set1_pd(*w.get_unchecked(r * hcols + k)), zv, a0);
                    a1 = _mm256_fmadd_pd(
                        _mm256_set1_pd(*w.get_unchecked((r + 1) * hcols + k)),
                        zv,
                        a1,
                    );
                    a2 = _mm256_fmadd_pd(
                        _mm256_set1_pd(*w.get_unchecked((r + 2) * hcols + k)),
                        zv,
                        a2,
                    );
                    a3 = _mm256_fmadd_pd(
                        _mm256_set1_pd(*w.get_unchecked((r + 3) * hcols + k)),
                        zv,
                        a3,
                    );
                }
                _mm256_storeu_pd(out.as_mut_ptr().add(r * width + v * 4), a0);
                _mm256_storeu_pd(out.as_mut_ptr().add((r + 1) * width + v * 4), a1);
                _mm256_storeu_pd(out.as_mut_ptr().add((r + 2) * width + v * 4), a2);
                _mm256_storeu_pd(out.as_mut_ptr().add((r + 3) * width + v * 4), a3);
            }
            r += 4;
        }
    }

    /// `NV` registers of eight gate rows each, starting at row `r`:
    /// accumulators loaded from the table row, one broadcast of `h[k]`
    /// and `NV` load-FMAs per `k`, rescale in the store epilogue.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `r + 8·NV <= out.len()`, `w_t.len() ==
    /// h.len()·out.len()`, `table_row.len() == out.len()`.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn rows_tile_avx512<const NV: usize>(
        w_t: &[f64],
        h: &[f64],
        table_row: &[f64],
        out: &mut [f64],
        r: usize,
    ) {
        let rows = out.len();
        let mut acc = [_mm512_setzero_pd(); NV];
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm512_loadu_pd(table_row.as_ptr().add(r + 8 * i));
        }
        for (k, &hk) in h.iter().enumerate() {
            let hv = _mm512_set1_pd(hk);
            let col = w_t.as_ptr().add(k * rows + r);
            for (i, a) in acc.iter_mut().enumerate() {
                *a = _mm512_fmadd_pd(_mm512_loadu_pd(col.add(8 * i)), hv, *a);
            }
        }
        for (i, a) in acc.iter().enumerate() {
            _mm512_storeu_pd(out.as_mut_ptr().add(r + 8 * i), div_round_scale_pd(*a));
        }
    }

    /// AVX-512 row matvec: 128-row tiles of 16 accumulators (the whole
    /// gate vector at paper dimensions — 16 independent FMA chains, so
    /// the loop runs at FMA throughput, one 64-byte weight load per
    /// FMA), then single registers of eight rows, then a scalar tail
    /// for `rows % 8`. All products and sums are exact integers, so the
    /// tile shape introduces no rounding.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl and the slice shapes asserted by the
    /// dispatching wrapper.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn mv_rows_avx512(
        w_t: &[f64],
        h: &[f64],
        table_row: &[f64],
        out: &mut [f64],
    ) {
        let rows = out.len();
        let mut r = 0;
        while r + 128 <= rows {
            rows_tile_avx512::<16>(w_t, h, table_row, out, r);
            r += 128;
        }
        while r + 8 <= rows {
            rows_tile_avx512::<1>(w_t, h, table_row, out, r);
            r += 8;
        }
        super::accumulate_rows_from(w_t, h, table_row, out, r);
        for acc in &mut out[r..] {
            *acc = super::div_round_raw(*acc as i64, Fx6::SCALE) as f64;
        }
    }

    /// `NV` registers of four gate rows each, starting at row `r`; the
    /// raw accumulator is stored.
    ///
    /// # Safety
    ///
    /// Requires avx2/fma; `r + 4·NV <= out.len()` and the slice shapes
    /// of [`rows_tile_avx512`].
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rows_tile_avx2<const NV: usize>(
        w_t: &[f64],
        h: &[f64],
        table_row: &[f64],
        out: &mut [f64],
        r: usize,
    ) {
        let rows = out.len();
        let mut acc = [_mm256_setzero_pd(); NV];
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_pd(table_row.as_ptr().add(r + 4 * i));
        }
        for (k, &hk) in h.iter().enumerate() {
            let hv = _mm256_set1_pd(hk);
            let col = w_t.as_ptr().add(k * rows + r);
            for (i, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_pd(_mm256_loadu_pd(col.add(4 * i)), hv, *a);
            }
        }
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(out.as_mut_ptr().add(r + 4 * i), *a);
        }
    }

    /// AVX2+FMA row matvec: 32-row tiles of 8 accumulators, single
    /// registers of four rows, scalar tail. Leaves the raw accumulator
    /// in `out`; the dispatching wrapper runs the rescale sweep
    /// afterwards (as for [`mm_fma_avx2_table`]).
    ///
    /// # Safety
    ///
    /// Requires avx2/fma and the slice shapes asserted by the
    /// dispatching wrapper.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mv_rows_avx2(w_t: &[f64], h: &[f64], table_row: &[f64], out: &mut [f64]) {
        let rows = out.len();
        let mut r = 0;
        while r + 32 <= rows {
            rows_tile_avx2::<8>(w_t, h, table_row, out, r);
            r += 32;
        }
        while r + 4 <= rows {
            rows_tile_avx2::<1>(w_t, h, table_row, out, r);
            r += 4;
        }
        super::accumulate_rows_from(w_t, h, table_row, out, r);
    }

    /// The stand-alone rescale sweep, on the wide domain
    /// `|x| + SCALE/2 ≤ 2^53`: its caller is a block of raw accumulators
    /// from a body that did not rescale in its epilogue, which this
    /// function cannot see the bound of.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn rescale_avx512(xs: &mut [f64]) {
        let mut i = 0;
        while i + 8 <= xs.len() {
            let x = _mm512_loadu_pd(xs.as_ptr().add(i));
            _mm512_storeu_pd(xs.as_mut_ptr().add(i), div_round_scale_wide_pd(x));
            i += 8;
        }
        for x in &mut xs[i..] {
            *x = super::div_round_raw(*x as i64, Fx6::SCALE) as f64;
        }
    }

    /// The sigmoid LUT in slope–intercept form and raw units: segment `i`
    /// of `sigmoid_fx_lut`'s interpolation is `intercept[i] +
    /// slope[i]·frac`, with `intercept[i] = t[i]·SCALE` and `slope[i] =
    /// (t[i+1] − t[i])·SCALE`. The last entry is the high saturation,
    /// `(SCALE, 0)`. 4 KB, derived once from the table the scalar path
    /// interpolates.
    pub(super) struct SigmoidSegments {
        intercept: [f64; LUT_ENTRIES],
        slope: [f64; LUT_ENTRIES],
    }

    pub(super) fn sigmoid_segments() -> &'static SigmoidSegments {
        static SEGMENTS: OnceLock<SigmoidSegments> = OnceLock::new();
        SEGMENTS.get_or_init(|| {
            let t = sigmoid_lut_table();
            let mut seg = SigmoidSegments {
                intercept: [FSCALE; LUT_ENTRIES],
                slope: [0.0; LUT_ENTRIES],
            };
            for i in 0..LUT_ENTRIES - 1 {
                seg.intercept[i] = t[i] * FSCALE;
                seg.slope[i] = (t[i + 1] - t[i]) * FSCALE;
            }
            seg
        })
    }

    /// One vector of LUT sigmoid: the same integer as the scalar
    /// `sigmoid_fx_lut` on every input, by a different route. The table
    /// position comes straight from the raw integer with one FMA
    /// (`raw·(255/16·SCALE) + 127.5`, no division by `SCALE`), clamped
    /// to `[0, 255]` — which is also the high saturation, entry 255
    /// being `(SCALE, 0)`; the interpolation is one FMA on
    /// [`SigmoidSegments`]; rounding is `floor(y + 0.5)`; the low
    /// saturation zeroes the lanes at or below `−8·SCALE`.
    ///
    /// None of these intermediates has the bits of the scalar's — its
    /// `raw / SCALE`, its two-multiply lerp, its `· SCALE` and `round` —
    /// and no argument is offered that the results agree. The function
    /// maps integers to integers and is constant outside
    /// `(−8·SCALE, 8·SCALE)`, so the test
    /// `sigmoid_matches_scalar_lut_across_domain` compares the two on
    /// every raw of that interval and a margin beyond it.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl. `raw` must hold exact integers with
    /// `|raw| ≤ 2^52`.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn sigmoid_pd(raw: __m512d, seg: &SigmoidSegments) -> __m512d {
        const LAST: f64 = LUT_ENTRIES as f64 - 1.0;
        const POS_PER_RAW: f64 = LAST / (2.0 * LUT_RANGE * FSCALE);
        // Rounds down to an integer for `vrndscale`; for `vreduce`,
        // `x − floor(x)`.
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let pos = _mm512_fmadd_pd(raw, _mm512_set1_pd(POS_PER_RAW), _mm512_set1_pd(LAST / 2.0));
        let pos = _mm512_min_pd(
            _mm512_max_pd(pos, _mm512_setzero_pd()),
            _mm512_set1_pd(LAST),
        );
        let idx = _mm512_cvttpd_epi64(pos);
        let frac = _mm512_reduce_pd::<FLOOR>(pos);
        let intercept = _mm512_i64gather_pd::<8>(idx, seg.intercept.as_ptr());
        let slope = _mm512_i64gather_pd::<8>(idx, seg.slope.as_ptr());
        let y = _mm512_fmadd_pd(slope, frac, intercept);
        let above_low = _mm512_cmp_pd_mask(raw, _mm512_set1_pd(-LUT_RANGE * FSCALE), _CMP_GT_OQ);
        _mm512_maskz_roundscale_pd::<FLOOR>(above_low, _mm512_add_pd(y, _mm512_set1_pd(0.5)))
    }

    /// One vector of exact softsign on raw values:
    /// `round_half_away(x·SCALE / (|x| + SCALE))`.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `|x| ≤ ~8·10^9` for every element.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn softsign_pd(raw: __m512d) -> __m512d {
        let fscale = _mm512_set1_pd(FSCALE);
        let sgnmask = _mm512_set1_pd(-0.0);
        let sgn = _mm512_and_pd(raw, sgnmask);
        let mag = _mm512_andnot_pd(sgnmask, raw);
        let num = _mm512_mul_pd(mag, fscale);
        let den = _mm512_add_pd(mag, fscale);
        div_round_generic_pd(num, den, sgn)
    }

    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `|x| ≤ 2^52` for every element.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn sigmoid_avx512(xs: &mut [f64], seg: &SigmoidSegments) {
        let mut i = 0;
        while i + 8 <= xs.len() {
            let raw = _mm512_loadu_pd(xs.as_ptr().add(i));
            _mm512_storeu_pd(xs.as_mut_ptr().add(i), sigmoid_pd(raw, seg));
            i += 8;
        }
        for x in &mut xs[i..] {
            *x = sigmoid_fx_lut(Fx6::from_raw(*x as i64)).raw() as f64;
        }
    }

    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `|x| ≤ ~8·10^9` for every element.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn softsign_avx512(xs: &mut [f64]) {
        let mut i = 0;
        while i + 8 <= xs.len() {
            let raw = _mm512_loadu_pd(xs.as_ptr().add(i));
            _mm512_storeu_pd(xs.as_mut_ptr().add(i), softsign_pd(raw));
            i += 8;
        }
        for x in &mut xs[i..] {
            *x = softsign_fx(Fx6::from_raw(*x as i64)).raw() as f64;
        }
    }

    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `g.len() == 4*hw`, `c.len() == h.len() == hw`,
    /// and `|C_t| ≤ ~8·10^9` raw throughout.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn update_avx512(g: &[f64], hw: usize, c: &mut [f64], h: &mut [f64]) {
        let (gi, gf, gc, go) = (&g[..hw], &g[hw..2 * hw], &g[2 * hw..3 * hw], &g[3 * hw..]);
        let mut j = 0;
        while j + 8 <= hw {
            let iv = _mm512_loadu_pd(gi.as_ptr().add(j));
            let fv = _mm512_loadu_pd(gf.as_ptr().add(j));
            let cb = _mm512_loadu_pd(gc.as_ptr().add(j));
            let ov = _mm512_loadu_pd(go.as_ptr().add(j));
            let cv = _mm512_loadu_pd(c.as_ptr().add(j));
            // `f∗C` reaches 8·10^15 at the sequence cap; the two gate
            // products below are ≤ SCALE² = 10^12.
            let fc = div_round_scale_wide_pd(_mm512_mul_pd(fv, cv));
            let ic = div_round_scale_pd(_mm512_mul_pd(iv, cb));
            let ct = _mm512_add_pd(fc, ic);
            _mm512_storeu_pd(c.as_mut_ptr().add(j), ct);
            let ss = softsign_pd(ct);
            let hv = div_round_scale_pd(_mm512_mul_pd(ov, ss));
            _mm512_storeu_pd(h.as_mut_ptr().add(j), hv);
            j += 8;
        }
        while j < hw {
            let ct = fx_mul_raw(gf[j] as i64, c[j] as i64) + fx_mul_raw(gi[j] as i64, gc[j] as i64);
            c[j] = ct as f64;
            let ss = softsign_fx(Fx6::from_raw(ct)).raw();
            h[j] = fx_mul_raw(go[j] as i64, ss) as f64;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scalar;

    fn div_round_i64(num: i64, den: i64) -> i64 {
        div_round_raw(num, den)
    }

    #[test]
    fn rescale_matches_integer_reference_across_domain() {
        let mut probes: Vec<i64> = Vec::new();
        let mut v: i64 = 1;
        while v < (1i64 << 52) {
            probes.push(v);
            probes.push(-v);
            probes.push(v + 1);
            probes.push(v / 3 * 2 + 7);
            v *= 3;
        }
        probes.extend((-30_000_000_000i64..30_000_000_000).step_by(777_777_771));
        probes.extend([
            499_999, 500_000, 500_001, 1_499_999, 1_500_000, 1_500_001, 0, 1, -1,
        ]);
        // Cover both the vector body and the scalar tail of the kernel.
        while probes.len() % 8 != 5 {
            probes.push(0);
        }
        let mut got: Vec<f64> = probes.iter().map(|&x| x as f64).collect();
        rescale_lanes(&mut got);
        for (&inp, &out) in probes.iter().zip(&got) {
            assert_eq!(out as i64, div_round_i64(inp, Fx6::SCALE), "rescale {inp}");
        }
    }

    /// Rescales `probes` in the store epilogue of both table kernels —
    /// with no recurrent column the accumulator is the table entry, so
    /// `out = rescale(table)` — and compares with the integer reference.
    /// Pads `probes` with zeros to one register past whole 128-row
    /// tiles, so the row kernel runs both of its tile shapes; the lane
    /// kernel takes the whole blocks of 128.
    fn assert_epilogue_rescale_matches(probes: &mut Vec<i64>) {
        while probes.len() % 128 != 8 {
            probes.push(0);
        }
        let table: Vec<f64> = probes.iter().map(|&x| x as f64).collect();

        let mut by_rows = vec![0.0f64; table.len()];
        matvec_fx_rows_table(&[], &[], &table, &mut by_rows);
        for (&inp, &out) in probes.iter().zip(&by_rows) {
            assert_eq!(out as i64, div_round_i64(inp, Fx6::SCALE), "rows {inp}");
        }

        // 8 gate rows × 16 lanes a call, lane `l` reading table row `l`,
        // so `out[r·16 + l] = rescale(block[l·8 + r])`.
        let items: Vec<usize> = (0..16).collect();
        let mut by_lanes = [0.0f64; 128];
        for (block, raws) in table.chunks_exact(128).zip(probes.chunks_exact(128)) {
            matmul_fx_lanes_table(&[], 8, 0, &[], 16, block, &items, &mut by_lanes);
            for l in 0..16 {
                for r in 0..8 {
                    let inp = raws[l * 8 + r];
                    assert_eq!(
                        by_lanes[r * 16 + l] as i64,
                        div_round_i64(inp, Fx6::SCALE),
                        "lanes {inp}"
                    );
                }
            }
        }
    }

    /// The four-op rescale of the AVX-512 matvec epilogues on its whole
    /// domain, `|x| < 2^49`. Along a ×3 ladder of quotients up to the
    /// top: the exact multiple of `SCALE`, the tie half a `SCALE` below
    /// it and both neighbours of each, in both signs. Then every integer
    /// of the band around 0 and of the last band under `±2^49`.
    #[test]
    fn epilogue_rescale_matches_integer_reference_below_2p49() {
        const TOP: i64 = (1 << 49) - 1;
        const BAND: i64 = 1_500_000;
        const BLOCK: usize = 1 << 16;
        let half = Fx6::SCALE / 2;
        let mut ladder: Vec<i64> = Vec::new();
        let mut q: i64 = 1;
        while q * Fx6::SCALE <= TOP {
            for base in [q * Fx6::SCALE, q * Fx6::SCALE - half] {
                for x in [base - 1, base, base + 1] {
                    ladder.extend([x, -x]);
                }
            }
            q *= 3;
        }
        let mut dense = ladder
            .into_iter()
            .chain(-BAND..=BAND)
            .chain(TOP - BAND..=TOP)
            .chain(-TOP..=BAND - TOP);
        let mut block: Vec<i64> = Vec::with_capacity(BLOCK + 128);
        loop {
            block.clear();
            block.extend(dense.by_ref().take(BLOCK));
            if block.is_empty() {
                break;
            }
            assert_epilogue_rescale_matches(&mut block);
        }
    }

    /// Runs `raws` through [`sigmoid_lut_lanes`] and compares every
    /// element with the scalar `sigmoid_fx_lut`.
    fn assert_sigmoid_matches_scalar(raws: &[i64], got: &mut Vec<f64>) {
        got.clear();
        got.extend(raws.iter().map(|&r| r as f64));
        sigmoid_lut_lanes(got);
        for (&inp, &out) in raws.iter().zip(got.iter()) {
            let expect = sigmoid_fx_lut(Fx6::from_raw(inp)).raw();
            assert_eq!(out as i64, expect, "sigmoid raw {inp}");
        }
    }

    /// The proof of the vector sigmoid: it is an integer function,
    /// constant outside `(−8·SCALE, 8·SCALE)`, so every raw of that
    /// interval (and 10^5 beyond each end) is compared with the scalar
    /// reference — 16,200,001 inputs, none sampled — and then probes far
    /// outside it. Blocks of `8n + 3` keep memory flat and run the
    /// kernel's scalar tail on every one.
    #[test]
    fn sigmoid_matches_scalar_lut_across_domain() {
        const EDGE: i64 = 8_100_000;
        const BLOCK: i64 = (1 << 16) + 3;
        let mut got = Vec::with_capacity(BLOCK as usize);
        let mut raws = Vec::with_capacity(BLOCK as usize);
        let mut lo = -EDGE;
        while lo <= EDGE {
            raws.clear();
            raws.extend(lo..(lo + BLOCK).min(EDGE + 1));
            assert_sigmoid_matches_scalar(&raws, &mut got);
            lo += BLOCK;
        }

        let mut raws: Vec<i64> = vec![1_000_000_000, -1_000_000_000];
        // Up to the top of the documented |raw| ≤ 2^52 domain, on a
        // ladder whose quotients by SCALE land on the 2^-6 grid
        // (multiples of 15625) and next to it.
        let mut m: i64 = 15_625;
        while m < (1i64 << 52) {
            for d in [-1i64, 0, 1] {
                raws.push(m + d);
                raws.push(-(m + d));
            }
            m *= 2;
        }
        raws.extend([
            (1i64 << 52) - 1,
            -((1i64 << 52) - 1),
            (1i64 << 52),
            -(1i64 << 52),
        ]);
        while raws.len() % 8 != 3 {
            raws.push(0);
        }
        assert_sigmoid_matches_scalar(&raws, &mut got);
        // `−0.0` is what a negative accumulator that rescales to zero
        // leaves behind.
        let mut zeros = [-0.0f64; 8];
        sigmoid_lut_lanes(&mut zeros);
        assert_eq!(zeros, [(Fx6::SCALE / 2) as f64; 8]);
    }

    #[test]
    fn softsign_matches_scalar_across_domain() {
        let mut raws: Vec<i64> = (-200_000_000..200_000_000).step_by(9973).collect();
        raws.extend([
            8_000_000_000,
            -8_000_000_000,
            7_999_999_999,
            -7_999_999_999,
            0,
            1,
            -1,
            499_999,
            500_000,
            500_001,
        ]);
        while raws.len() % 8 != 1 {
            raws.push(0);
        }
        let mut got: Vec<f64> = raws.iter().map(|&r| r as f64).collect();
        softsign_lanes(&mut got);
        for (&inp, &out) in raws.iter().zip(&got) {
            let expect = softsign_fx(Fx6::from_raw(inp)).raw();
            assert_eq!(out as i64, expect, "softsign raw {inp}");
        }
    }

    #[test]
    fn fx_table_matmul_matches_integer_reference() {
        const ROWS: usize = 128;
        const HCOLS: usize = 32;
        const N_ITEMS: usize = 278;
        let wi: Vec<i64> = (0..ROWS * HCOLS)
            .map(|i| i as i64 * 2_654_435_761 % 4_000_000 - 2_000_000)
            .collect();
        let ti: Vec<i64> = (0..N_ITEMS * ROWS)
            .map(|i| i as i64 * 48_271 % 40_000_000_000_000 - 20_000_000_000_000)
            .collect();
        let wf: Vec<f64> = wi.iter().map(|&x| x as f64).collect();
        let tf: Vec<f64> = ti.iter().map(|&x| x as f64).collect();
        // 16 exercises the paired-vector transpose-init AVX-512 tile, 24
        // the pair plus the odd trailing vector, 8 the single-vector
        // tile, 4 the AVX2 set_pd init, 1/3/11 the scalar fallback.
        for width in [1usize, 3, 4, 8, 11, 16, 24] {
            let items: Vec<usize> = (0..width).map(|l| (l * 97 + 13) % N_ITEMS).collect();
            let zi: Vec<i64> = (0..HCOLS * width)
                .map(|i| i as i64 * 40_503 % 2_000_000 - 1_000_000)
                .collect();
            let zf: Vec<f64> = zi.iter().map(|&x| x as f64).collect();
            let mut acc = vec![0.0f64; ROWS * width];
            matmul_fx_lanes_table(&wf, ROWS, HCOLS, &zf, width, &tf, &items, &mut acc);
            for r in 0..ROWS {
                for l in 0..width {
                    let mut s = ti[items[l] * ROWS + r];
                    for k in 0..HCOLS {
                        s += wi[r * HCOLS + k] * zi[k * width + l];
                    }
                    let expect = div_round_i64(s, Fx6::SCALE);
                    assert_eq!(
                        acc[r * width + l] as i64,
                        expect,
                        "table matmul r={r} l={l} w={width}"
                    );
                }
            }
        }
    }

    /// Runs `body` (a full row matvec, rescale included) over every
    /// shape the tiles split differently — 4: below one register;
    /// 8, 24: single registers; 12: register plus tail; 128: the
    /// 16-register tile; 136: tile plus register — against the `i128`
    /// reference, with operands at the edge of a row bound of
    /// `2^bound_bits`: `|h|` up to `SCALE` and every row's worst case
    /// `Σ|w|·SCALE + |table| + SCALE/2` within a few units of it. Odd
    /// rows push every term the way of their table entry, so their
    /// partial sums climb to that edge; even rows mix signs.
    fn check_rows_body(
        name: &str,
        bound_bits: u32,
        body: impl Fn(&[f64], &[f64], &[f64], &mut [f64]),
    ) {
        let bound: i64 = (1 << bound_bits) - 1 - Fx6::SCALE / 2;
        let encode = |v: &[i64]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
        for rows in [4usize, 8, 12, 24, 128, 136] {
            for hcols in [1usize, 8, 32] {
                let hi: Vec<i64> = (0..hcols)
                    .map(|k| match k % 4 {
                        0 => Fx6::SCALE,
                        1 => -Fx6::SCALE,
                        _ => (k as i64 * 40_503) % 2_000_001 - 1_000_000,
                    })
                    .collect();
                let ti: Vec<i64> = (0..rows)
                    .map(|r| (bound / 3 + r as i64 * 7_919) * if r % 4 < 2 { 1 } else { -1 })
                    .collect();
                // `hcols × rows` row-major: the transposed layout.
                let mut wi = vec![0i64; hcols * rows];
                for r in 0..rows {
                    let each = (bound - ti[r].abs()) / (hcols as i64 * Fx6::SCALE);
                    for k in 0..hcols {
                        let sign = if r % 2 == 1 {
                            ti[r].signum() * hi[k].signum()
                        } else if (r + k) % 3 == 0 {
                            1
                        } else {
                            -1
                        };
                        wi[k * rows + r] = sign * (each - (k as i64 * 31) % 1000);
                    }
                }
                let mut out = vec![0.0f64; rows];
                body(&encode(&wi), &encode(&hi), &encode(&ti), &mut out);
                for r in 0..rows {
                    let col = |k: usize| wi[k * rows + r] as i128;
                    let worst = (0..hcols).map(|k| col(k).abs()).sum::<i128>() * Fx6::SCALE as i128
                        + ti[r].abs() as i128;
                    assert!(worst <= bound as i128, "operands outside the pack bound");
                    let acc =
                        ti[r] as i128 + (0..hcols).map(|k| col(k) * hi[k] as i128).sum::<i128>();
                    if r % 2 == 1 {
                        assert!(acc.abs() > (bound / 2) as i128, "edge not reached: {acc}");
                    }
                    assert_eq!(
                        out[r] as i64,
                        div_round_i64(acc as i64, Fx6::SCALE),
                        "{name} rows={rows} hcols={hcols} r={r}"
                    );
                }
            }
        }
    }

    /// The contract — and the AVX-512 epilogue's domain — is the pack
    /// bound, `2^49`; the bodies that rescale with the wide sweep or in
    /// integers are held to the `2^52` they are exact to.
    #[test]
    fn fx_rows_matvec_matches_integer_reference_on_every_body() {
        check_rows_body("dispatch", 49, matvec_fx_rows_table);
        check_rows_body("scalar", 52, matvec_fx_rows_scalar);
        #[cfg(target_arch = "x86_64")]
        {
            if tier() != Tier::Scalar {
                check_rows_body("avx2", 52, |w_t, h, table_row, out| {
                    // SAFETY: the tier says the host has avx2 and fma;
                    // `check_rows_body` sizes every slice from `rows`.
                    #[allow(unsafe_code)]
                    unsafe {
                        x86::mv_rows_avx2(w_t, h, table_row, out)
                    };
                    rescale_lanes(out);
                });
            }
            if tier() == Tier::Avx512 {
                check_rows_body("avx512", 49, |w_t, h, table_row, out| {
                    // SAFETY: the tier says the host has avx512f/dq/vl;
                    // `check_rows_body` sizes every slice from `rows`.
                    #[allow(unsafe_code)]
                    unsafe {
                        x86::mv_rows_avx512(w_t, h, table_row, out)
                    };
                });
            }
        }
    }

    #[test]
    fn update_matches_fx6_reference() {
        let hidden = 32;
        for width in [3usize, 8] {
            let hw = hidden * width;
            let mut g: Vec<f64> = (0..4 * hw)
                .map(|i| ((i as i64 * 31_337) % 2_000_001 - 1_000_000) as f64)
                .collect();
            // Gates i/f/o are sigmoid outputs: clamp to [0, SCALE].
            for blk in [0usize, 1, 3] {
                for x in &mut g[blk * hw..(blk + 1) * hw] {
                    *x = x.abs() % FSCALE;
                }
            }
            // The gate products at their largest (SCALE², both signs) and
            // on exact ties of the rescale (odd multiples of SCALE/2).
            for (j, (gate, cand)) in [
                (1_000_000.0, 1_000_000.0),
                (1_000_000.0, -1_000_000.0),
                (500_000.0, 999_999.0),
                (500_000.0, -999_999.0),
                (1.0, 500_000.0),
                (1.0, -500_000.0),
            ]
            .into_iter()
            .enumerate()
            {
                g[j] = gate;
                g[2 * hw + j] = cand;
                g[3 * hw + j] = gate;
            }
            let mut c: Vec<f64> = (0..hw)
                .map(|i| ((i as i64 * 48_271) % 16_000_000_000 - 8_000_000_000) as f64)
                .collect();
            // f = SCALE against the largest |C| the sequence cap admits.
            g[hw] = FSCALE;
            c[0] = -7_999_000_000.0;
            g[hw + 1] = FSCALE;
            c[1] = 7_999_000_000.0;
            let mut h = vec![0.0f64; hw];
            let c0 = c.clone();
            update_lanes(&g, hidden, width, &mut c, &mut h);
            for j in 0..hw {
                let fv = Fx6::from_raw(g[hw + j] as i64);
                let iv = Fx6::from_raw(g[j] as i64);
                let cb = Fx6::from_raw(g[2 * hw + j] as i64);
                let ov = Fx6::from_raw(g[3 * hw + j] as i64);
                let ct = fv * Fx6::from_raw(c0[j] as i64) + iv * cb;
                assert_eq!(c[j] as i64, ct.raw(), "update c j={j} w={width}");
                let hh = ov * softsign_fx(ct);
                assert_eq!(h[j] as i64, hh.raw(), "update h j={j} w={width}");
            }
        }
    }

    #[test]
    fn f64_matmul_matches_dot_slices_per_lane() {
        let rows = 128;
        let cols = 40;
        let w: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as i64 * 2_654_435_761 % 4_000_000 - 2_000_000) as f64) * 1e-6)
            .collect();
        for width in [1usize, 3, 8, 16] {
            let z: Vec<f64> = (0..cols * width)
                .map(|i| ((i as i64 * 40_503 % 2_000_000 - 1_000_000) as f64) * 1e-6)
                .collect();
            let mut out = vec![0.0f64; rows * width];
            let mut acc = vec![0.0f64; 4 * width];
            matmul_f64_lanes(&w, rows, cols, &z, width, &mut out, &mut acc);
            for r in 0..rows {
                for l in 0..width {
                    let col: Vec<f64> = (0..cols).map(|k| z[k * width + l]).collect();
                    let expect = f64::dot_slices(&w[r * cols..(r + 1) * cols], &col);
                    assert_eq!(
                        out[r * width + l].to_bits(),
                        expect.to_bits(),
                        "f64 matmul r={r} l={l} w={width}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_level_reports_a_tier() {
        assert!(["avx512", "avx2", "scalar"].contains(&simd_level()));
    }
}
