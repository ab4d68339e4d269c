//! The three `f64` products of LSTM training: the gate pre-activations of
//! a forward step, the rank-1 weight-gradient updates of a BPTT pass, and
//! the four gates' `Wᵀ·d` back-product that carries a step's gradient to
//! `[h_{t−1}, x_t]`.
//!
//! Each kernel has a portable body, plain slice loops compiled for the
//! build's baseline target, and an AVX-512 body. The pre-activations'
//! AVX-512 body is the same loop compiled under `#[target_feature]`; the
//! rank-1 update and the back-product have register-tiled intrinsic
//! bodies, because the compiler spills their accumulators when it tiles
//! plain loops itself. The tier is the one the fixed-point kernels in
//! [`lanes`](crate::lanes) resolve, once per process; the safe entry
//! points dispatch on it.
//!
//! # Bit-identity contract
//!
//! Every output element runs the same operation sequence as the `Matrix`
//! code it replaces, in every body: vectorisation runs *across* output
//! elements, never along one element's sum. Products are multiplied then
//! added, never fused (Rust does not contract `a * b + c`, and the
//! intrinsic bodies multiply and add in separate instructions). So
//! [`gate_preact`] equals `W.matvec(z) + b` (the four interleaved
//! partials of `f64::dot_slices`), [`rank1_add`] equals BPTT's
//! outer-product accumulation one step after the other, and
//! [`back_product_gates`] equals `out + W_i.vecmat(d_i) + W_f.vecmat(d_f)
//! + W_C'.vecmat(d_C') + W_o.vecmat(d_o)`, added left to right, bit for
//! bit. The rank-1 update and the back-product skip a row whose `d` is
//! zero (`-0.0` included), as `Matrix::vecmat` does.

#[cfg(target_arch = "x86_64")]
use crate::lanes::{tier, Tier};

/// Runs `$block::<N>(args…, start)` over `0..$len` in blocks of `N` =
/// 32, then 8, then 1 elements. Each width is a constant, so the
/// compiler keeps a block's accumulators in registers: 32 `f64`s are
/// four AVX-512 registers.
macro_rules! by_blocks {
    ($len:expr, $block:ident($($arg:expr),*)) => {{
        let (len, mut at) = ($len, 0);
        while at + 32 <= len {
            $block::<32>($($arg,)* at);
            at += 32;
        }
        while at + 8 <= len {
            $block::<8>($($arg,)* at);
            at += 8;
        }
        while at < len {
            $block::<1>($($arg,)* at);
            at += 1;
        }
    }};
}

/// Gate pre-activations `out[r] = Σ_k W[r][k]·z[k] + b[r]`, with the sum
/// in `f64::dot_slices`' order: four partials over whole chunks of four,
/// `(a0 + a1) + (a2 + a3)`, then the remainder, then `+ b[r]`.
///
/// `w_t` is `W` transposed: `z.len() × rows` row-major, `rows =
/// out.len()`, so one row of it is contiguous across output rows.
///
/// # Panics
///
/// Panics when `w_t.len() != z.len() · out.len()` or `b.len() !=
/// out.len()`.
pub fn gate_preact(w_t: &[f64], z: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(
        w_t.len(),
        z.len() * out.len(),
        "pre-activation weight shape mismatch"
    );
    assert_eq!(b.len(), out.len(), "pre-activation bias length mismatch");
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Avx512 {
        // SAFETY: the tier is only resolved on a host with avx512f/dq/vl.
        #[allow(unsafe_code)]
        unsafe {
            x86::gate_preact(w_t, z, b, out)
        };
        return;
    }
    gate_preact_body(w_t, z, b, out);
}

/// The rank-1 gradient updates of a whole BPTT pass, last step first:
/// for `t` from `steps − 1` down to `0`, and every row `r` with
/// `d[t][r] ≠ 0`, `g_w[r][c] += d[t][r]·z[t][c]` for every column `c`
/// and `g_b[r] += d[t][r]`. Every element sees the additions a per-step
/// update would make, in the same order. On AVX-512 a block of four rows
/// of `g_w` stays in registers through every step and is stored once;
/// the portable body carries [`RANK1_ROWS`] rows through the steps in L1.
///
/// `d` is `steps × rows` and `z` is `steps × cols`, both row-major; `g_w`
/// is `rows × cols`, `rows = g_b.len()`.
///
/// # Panics
///
/// Panics when the lengths disagree on `steps`, `rows` or `cols`.
pub fn rank1_add(d: &[f64], z: &[f64], g_w: &mut [f64], g_b: &mut [f64]) {
    let rows = g_b.len();
    assert!(
        rows > 0 && d.len().is_multiple_of(rows),
        "rank-1 gradient length mismatch"
    );
    let steps = d.len() / rows;
    assert!(
        steps > 0 && z.len().is_multiple_of(steps),
        "rank-1 input length mismatch"
    );
    assert_eq!(
        g_w.len(),
        rows * (z.len() / steps),
        "rank-1 gradient shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Avx512 {
        // SAFETY: the tier is only resolved on a host with avx512f/dq/vl.
        #[allow(unsafe_code)]
        unsafe {
            x86::rank1_add(d, z, g_w, g_b)
        };
        return;
    }
    rank1_add_body(d, z, g_w, g_b);
}

/// The back-product of all four LSTM gates, `out[c] += (W_gᵀ·d_g)[c]`
/// for `g` = `i, f, C', o` in that order: each gate's `W_gᵀ·d_g` is summed
/// on its own from `0.0` over the rows with `d_g[r] ≠ 0`, in row order,
/// and then added to `out` — `out + W_g.vecmat(d_g)`, gate after gate.
/// The AVX-512 body runs the four gates' sums interleaved, one register
/// tile of columns at a time.
///
/// `d` is the four gates' `d_g` in gate order (`4H`), and `w` the four
/// gates' `W_g` stacked in the same order: `4H × out.len()` row-major.
///
/// # Panics
///
/// Panics when `d.len()` is not a multiple of four or `w.len() != d.len()
/// · out.len()`.
pub fn back_product_gates(w: &[f64], d: &[f64], out: &mut [f64]) {
    assert!(
        d.len().is_multiple_of(4),
        "back-product needs four gates' rows"
    );
    assert_eq!(
        w.len(),
        d.len() * out.len(),
        "back-product weight shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Avx512 {
        // SAFETY: the tier is only resolved on a host with avx512f/dq/vl.
        #[allow(unsafe_code)]
        unsafe {
            x86::back_product_gates(w, d, out)
        };
        return;
    }
    back_product_gates_body(w, d, out);
}

#[inline(always)]
fn gate_preact_body(w_t: &[f64], z: &[f64], b: &[f64], out: &mut [f64]) {
    by_blocks!(out.len(), preact_rows(w_t, z, b, out));
}

// The loops below index fixed-size arrays and pre-cut slices rather than
// chaining iterators: the optimiser removes the bounds checks either way,
// and unoptimised test builds, which train models too, run them several
// times faster.

/// [`gate_preact`] for output rows `r0 .. r0 + N`.
#[inline(always)]
fn preact_rows<const N: usize>(w_t: &[f64], z: &[f64], b: &[f64], out: &mut [f64], r0: usize) {
    let rows = out.len();
    let row = |k: usize| -> &[f64; N] { w_t[k * rows + r0..][..N].try_into().expect("N wide") };
    let mut acc = [[0.0f64; N]; 4];
    let whole = z.len() / 4 * 4;
    for k in (0..whole).step_by(4) {
        for (j, partial) in acc.iter_mut().enumerate() {
            let (w, zk) = (row(k + j), z[k + j]);
            for r in 0..N {
                partial[r] += w[r] * zk;
            }
        }
    }
    let [a0, a1, a2, a3] = &acc;
    let mut sum = [0.0f64; N];
    for r in 0..N {
        sum[r] = (a0[r] + a1[r]) + (a2[r] + a3[r]);
    }
    for (k, &zk) in z.iter().enumerate().skip(whole) {
        let w = row(k);
        for r in 0..N {
            sum[r] += w[r] * zk;
        }
    }
    let (out, b) = (&mut out[r0..r0 + N], &b[r0..r0 + N]);
    for r in 0..N {
        out[r] = sum[r] + b[r];
    }
}

/// Rows of `g_w` the portable [`rank1_add`] body carries through every
/// step at once: 16 rows of the paper's 40 columns are 5 KiB, which stay
/// in L1.
const RANK1_ROWS: usize = 16;

#[inline(always)]
fn rank1_add_body(d: &[f64], z: &[f64], g_w: &mut [f64], g_b: &mut [f64]) {
    let rows = g_b.len();
    let cols = g_w.len() / rows;
    let steps = d.len() / rows;
    for r0 in (0..rows).step_by(RANK1_ROWS) {
        for t in (0..steps).rev() {
            let z_t = &z[t * cols..(t + 1) * cols];
            for r in r0..rows.min(r0 + RANK1_ROWS) {
                let dv = d[t * rows + r];
                if dv == 0.0 {
                    continue;
                }
                let g_row = &mut g_w[r * cols..(r + 1) * cols];
                for c in 0..cols {
                    g_row[c] += dv * z_t[c];
                }
                g_b[r] += dv;
            }
        }
    }
}

/// The portable [`back_product_gates`]: one gate after the other.
fn back_product_gates_body(w: &[f64], d: &[f64], out: &mut [f64]) {
    let h = d.len() / 4;
    for g in 0..4 {
        let (w_g, d_g) = (&w[g * h * out.len()..][..h * out.len()], &d[g * h..][..h]);
        by_blocks!(out.len(), back_product_cols(w_g, d_g, out));
    }
}

/// One gate's back-product for columns `c0 .. c0 + N`.
#[inline(always)]
fn back_product_cols<const N: usize>(w: &[f64], d: &[f64], out: &mut [f64], c0: usize) {
    let cols = out.len();
    let mut acc = [0.0f64; N];
    for (r, &dv) in d.iter().enumerate() {
        if dv == 0.0 {
            continue;
        }
        let w_r: &[f64; N] = w[r * cols + c0..][..N].try_into().expect("N wide");
        for c in 0..N {
            acc[c] += dv * w_r[c];
        }
    }
    let out = &mut out[c0..c0 + N];
    for c in 0..N {
        out[c] += acc[c];
    }
}

/// The AVX-512 bodies.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Columns one register tile spans: five registers of eight `f64`s,
    /// the paper's `Z = 40` in one tile. The rank-1 update holds four
    /// rows of a tile (20 registers), the back-product four gates' sums
    /// (20 registers).
    const TILE: usize = 40;

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn gate_preact(w_t: &[f64], z: &[f64], b: &[f64], out: &mut [f64]) {
        super::gate_preact_body(w_t, z, b, out);
    }

    /// Lanes `0 .. min(s.len(), 8)` of `s`, the rest zero.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(s: &[f64]) -> __m512d {
        // SAFETY: the mask selects only lanes inside `s`, and a masked
        // load does not touch the lanes it leaves out.
        #[allow(unsafe_code)]
        unsafe {
            _mm512_maskz_loadu_pd(lanes(s.len()), s.as_ptr())
        }
    }

    /// Stores lanes `0 .. min(s.len(), 8)` of `v` to `s`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(s: &mut [f64], v: __m512d) {
        // SAFETY: as in `load`.
        #[allow(unsafe_code)]
        unsafe {
            _mm512_mask_storeu_pd(s.as_mut_ptr(), lanes(s.len()), v)
        }
    }

    /// The mask of lanes `0 .. min(len, 8)`.
    fn lanes(len: usize) -> __mmask8 {
        ((1u32 << len.min(8)) - 1) as __mmask8
    }

    /// Register `k` of a tile of `n` columns starting at `s[0]`: eight
    /// columns, fewer in the last register of a ragged tile.
    #[inline(always)]
    fn chunk(s: &[f64], k: usize) -> &[f64] {
        &s[8 * k..s.len().min(8 * k + 8)]
    }

    /// Evaluates `$call` with the constant `$c` the registers `$n`
    /// columns take (one to five).
    macro_rules! by_width {
        ($n:expr, $c:ident => $call:expr) => {
            match $n.div_ceil(8) {
                1 => {
                    const $c: usize = 1;
                    $call
                }
                2 => {
                    const $c: usize = 2;
                    $call
                }
                3 => {
                    const $c: usize = 3;
                    $call
                }
                4 => {
                    const $c: usize = 4;
                    $call
                }
                _ => {
                    const $c: usize = 5;
                    $call
                }
            }
        };
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn rank1_add(d: &[f64], z: &[f64], g_w: &mut [f64], g_b: &mut [f64]) {
        let rows = g_b.len();
        let cols = g_w.len() / rows;
        for c0 in (0..cols).step_by(TILE) {
            let n = (cols - c0).min(TILE);
            let mut r0 = 0;
            while r0 + 4 <= rows {
                by_width!(n, C => rank1_tile::<4, C>(d, z, g_w, rows, r0, c0, n));
                r0 += 4;
            }
            for r0 in r0..rows {
                by_width!(n, C => rank1_tile::<1, C>(d, z, g_w, rows, r0, c0, n));
            }
        }
        rank1_bias(d, g_b);
    }

    /// [`rank1_add`]'s weight updates for rows `r0 .. r0 + R` and the
    /// `n` columns from `c0`, which take `C` registers a row: the tile is
    /// loaded once, takes every step's update in registers, last step
    /// first, and is stored once.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    #[allow(clippy::too_many_arguments)]
    fn rank1_tile<const R: usize, const C: usize>(
        d: &[f64],
        z: &[f64],
        g_w: &mut [f64],
        rows: usize,
        r0: usize,
        c0: usize,
        n: usize,
    ) {
        let cols = g_w.len() / rows;
        assert!(8 * (C - 1) < n && n <= 8 * C && c0 + n <= cols && r0 + R <= rows);
        let mut acc = [[_mm512_setzero_pd(); C]; R];
        for (i, acc) in acc.iter_mut().enumerate() {
            let g = &g_w[(r0 + i) * cols..][c0..c0 + n];
            for (k, a) in acc.iter_mut().enumerate() {
                *a = load(chunk(g, k));
            }
        }
        for (z_t, d_t) in z.chunks_exact(cols).zip(d.chunks_exact(rows)).rev() {
            let z_t = &z_t[c0..c0 + n];
            let mut zs = [_mm512_setzero_pd(); C];
            for (k, zk) in zs.iter_mut().enumerate() {
                *zk = load(chunk(z_t, k));
            }
            for (acc, &dv) in acc.iter_mut().zip(&d_t[r0..r0 + R]) {
                if dv == 0.0 {
                    continue;
                }
                let dv = _mm512_set1_pd(dv);
                for (a, &zk) in acc.iter_mut().zip(&zs) {
                    *a = _mm512_add_pd(*a, _mm512_mul_pd(dv, zk));
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            let g = &mut g_w[(r0 + i) * cols..][c0..c0 + n];
            for (k, &a) in acc.iter().enumerate() {
                store(&mut g[8 * k..n.min(8 * k + 8)], a);
            }
        }
    }

    /// [`rank1_add`]'s bias updates, eight rows to a register: a masked
    /// add leaves the lanes whose `d` is zero untouched.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn rank1_bias(d: &[f64], g_b: &mut [f64]) {
        let rows = g_b.len();
        let steps = d.len() / rows;
        for r0 in (0..rows).step_by(8) {
            let n = (rows - r0).min(8);
            let mut acc = load(&g_b[r0..r0 + n]);
            for t in (0..steps).rev() {
                let dv = load(&d[t * rows + r0..][..n]);
                let nonzero = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(dv, _mm512_setzero_pd());
                acc = _mm512_mask_add_pd(acc, nonzero, acc, dv);
            }
            store(&mut g_b[r0..r0 + n], acc);
        }
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn back_product_gates(w: &[f64], d: &[f64], out: &mut [f64]) {
        let cols = out.len();
        for c0 in (0..cols).step_by(TILE) {
            let n = (cols - c0).min(TILE);
            by_width!(n, C => back_product_tile::<C>(w, d, out, c0, n));
        }
    }

    /// [`back_product_gates`] for the `n` columns from `c0`, which take
    /// `C` registers: the four gates' sums run interleaved, row by row,
    /// each in `C` registers of its own, and are added to `out` in gate
    /// order.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn back_product_tile<const C: usize>(
        w: &[f64],
        d: &[f64],
        out: &mut [f64],
        c0: usize,
        n: usize,
    ) {
        let (cols, h) = (out.len(), d.len() / 4);
        assert!(8 * (C - 1) < n && n <= 8 * C && c0 + n <= cols);
        // Row iterators a gate, not row offsets: with offsets the compiler
        // left bounds checks and stack reloads between the FP ops.
        let mut gates: [_; 4] = std::array::from_fn(|g| {
            let rows = g * h..(g + 1) * h;
            w[rows.start * cols..rows.end * cols]
                .chunks_exact(cols)
                .zip(&d[rows])
        });
        let mut acc = [[_mm512_setzero_pd(); C]; 4];
        for _ in 0..h {
            for (acc, gate) in acc.iter_mut().zip(&mut gates) {
                let (w_r, &dv) = gate.next().expect("h rows a gate");
                if dv == 0.0 {
                    continue;
                }
                let w_r = &w_r[c0..c0 + n];
                let dv = _mm512_set1_pd(dv);
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_add_pd(*a, _mm512_mul_pd(dv, load(chunk(w_r, k))));
                }
            }
        }
        let out = &mut out[c0..c0 + n];
        for k in 0..C {
            let mut o = load(chunk(out, k));
            for acc in &acc {
                o = _mm512_add_pd(o, acc[k]);
            }
            store(&mut out[8 * k..n.min(8 * k + 8)], o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, Vector};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Random values over a wide exponent range, with exact zeros,
    /// negative zeros and repeated values mixed in.
    fn values(rng: &mut ChaCha8Rng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.random_range(0..10u32) {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                _ => rng.random_range(-1.0..1.0) * 2f64.powi(rng.random_range(-20..20)),
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `(rows, cols)`: row counts on both sides of the rank-1 update's
    /// four-row register block and the pre-activations' blocks of 32 and
    /// 8, and column counts on both sides of the 40-column register tile
    /// and its eight-column registers: `(31, 5)` and `(33, 3)` leave rows
    /// outside a four-row block, and `(136, 43)`, `(20, 9)`, `(64, 17)`
    /// and `(33, 3)` a ragged last register of columns.
    const SHAPES: [(usize, usize); 9] = [
        (1, 1),
        (4, 2),
        (20, 9),
        (31, 5),
        (32, 40),
        (33, 3),
        (128, 40),
        (136, 43),
        (64, 17),
    ];

    /// `(H, Z)` for the four-gate back-product: `4H` rows of `Z` columns,
    /// with ragged column tails at `Z` = 3, 9 and 43, and no rows or no
    /// columns at all.
    const GATE_SHAPES: [(usize, usize); 9] = [
        (0, 3),
        (2, 0),
        (1, 1),
        (1, 2),
        (5, 9),
        (8, 40),
        (32, 40),
        (33, 3),
        (34, 43),
    ];

    #[test]
    fn gate_preact_is_matvec_plus_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for (rows, cols) in SHAPES {
            let w = values(&mut rng, rows * cols);
            let (z, b) = (values(&mut rng, cols), values(&mut rng, rows));
            let m = Matrix::from_flat(rows, cols, w);
            let want = m
                .matvec(&Vector::from(z.clone()))
                .add(&Vector::from(b.clone()));
            let mut out = vec![f64::NAN; rows];
            gate_preact(&m.transpose().to_f64_flat(), &z, &b, &mut out);
            assert_eq!(bits(&out), bits(want.as_slice()), "{rows}×{cols}");
        }
    }

    #[test]
    fn rank1_add_is_the_per_step_outer_product_loop() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for (rows, cols) in SHAPES {
            for steps in [1, 3, 100] {
                let (d, z) = (
                    values(&mut rng, steps * rows),
                    values(&mut rng, steps * cols),
                );
                let (mut g_w, mut g_b) = (values(&mut rng, rows * cols), values(&mut rng, rows));
                let (mut want_w, mut want_b) = (g_w.clone(), g_b.clone());
                for t in (0..steps).rev() {
                    for r in 0..rows {
                        let dv = d[t * rows + r];
                        if dv == 0.0 {
                            continue;
                        }
                        for c in 0..cols {
                            want_w[r * cols + c] += dv * z[t * cols + c];
                        }
                        want_b[r] += dv;
                    }
                }
                rank1_add(&d, &z, &mut g_w, &mut g_b);
                assert_eq!(bits(&g_w), bits(&want_w), "{steps} × {rows}×{cols}");
                assert_eq!(bits(&g_b), bits(&want_b), "{steps} × {rows}×{cols}");
            }
        }
    }

    #[test]
    fn back_product_gates_is_four_vecmats_added_in_gate_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (h, cols) in GATE_SHAPES {
            let gates: Vec<Matrix<f64>> = (0..4)
                .map(|_| Matrix::from_flat(h, cols, values(&mut rng, h * cols)))
                .collect();
            let (d, mut out) = (values(&mut rng, 4 * h), values(&mut rng, cols));
            let mut want = Vector::from(out.clone());
            for (g, m) in gates.iter().enumerate() {
                want = want.add(&m.vecmat(&Vector::from(d[g * h..(g + 1) * h].to_vec())));
            }
            let w: Vec<f64> = gates.iter().flat_map(|m| m.to_f64_flat()).collect();
            back_product_gates(&w, &d, &mut out);
            assert_eq!(bits(&out), bits(want.as_slice()), "H {h}, Z {cols}");
        }
    }

    /// The AVX-512 bodies against the portable ones on the same inputs
    /// (on a host without AVX-512 there is only the portable body).
    #[test]
    fn avx512_bodies_match_portable_bodies() {
        #[cfg(target_arch = "x86_64")]
        if tier() == Tier::Avx512 {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            for (rows, cols) in SHAPES {
                let (w, z, b) = (
                    values(&mut rng, rows * cols),
                    values(&mut rng, cols),
                    values(&mut rng, rows),
                );
                let (mut simd, mut portable) = (vec![0.0; rows], vec![0.0; rows]);
                // SAFETY: the tier says the host has avx512f/dq/vl.
                #[allow(unsafe_code)]
                unsafe {
                    x86::gate_preact(&w, &z, &b, &mut simd)
                };
                gate_preact_body(&w, &z, &b, &mut portable);
                assert_eq!(bits(&simd), bits(&portable), "preact {rows}×{cols}");

                // Seven steps of `d` and `z`.
                let (d, zs) = (values(&mut rng, 7 * rows), values(&mut rng, 7 * cols));
                let (mut simd_w, mut simd_b) = (w.clone(), b.clone());
                let (mut port_w, mut port_b) = (w.clone(), b.clone());
                // SAFETY: as above.
                #[allow(unsafe_code)]
                unsafe {
                    x86::rank1_add(&d, &zs, &mut simd_w, &mut simd_b)
                };
                rank1_add_body(&d, &zs, &mut port_w, &mut port_b);
                assert_eq!(bits(&simd_w), bits(&port_w), "rank-1 {rows}×{cols}");
                assert_eq!(bits(&simd_b), bits(&port_b), "rank-1 bias {rows}×{cols}");
            }
            for (h, cols) in GATE_SHAPES {
                let (w, d) = (values(&mut rng, 4 * h * cols), values(&mut rng, 4 * h));
                let out = values(&mut rng, cols);
                let (mut simd, mut portable) = (out.clone(), out);
                // SAFETY: as above.
                #[allow(unsafe_code)]
                unsafe {
                    x86::back_product_gates(&w, &d, &mut simd)
                };
                back_product_gates_body(&w, &d, &mut portable);
                assert_eq!(bits(&simd), bits(&portable), "back-product H {h}, Z {cols}");
            }
        }
    }

    #[test]
    fn zero_rows_are_skipped() {
        // A zero `d` row adds nothing, even against an infinite `z`: one
        // step, three rows.
        let (d, z) = ([0.0, -0.0, 2.0], [f64::INFINITY, 1.0]);
        let (mut g_w, mut g_b) = (vec![0.0; 6], vec![0.0; 3]);
        rank1_add(&d, &z, &mut g_w, &mut g_b);
        assert_eq!(g_w, [0.0, 0.0, 0.0, 0.0, f64::INFINITY, 2.0]);
        assert_eq!(g_b, [0.0, 0.0, 2.0]);

        // The same inside a register block: rows 1 and 2 of the first
        // four-row block are zero at the one step, against infinite and
        // NaN inputs over a ragged tile of nine columns. A skipped row
        // keeps its `-0.0`, where adding `0.0` would have made it `0.0`.
        let (rows, cols) = (5, 9);
        let d = [1.0, 0.0, -0.0, 2.0, 0.0];
        let mut z = [1.0; 9];
        (z[0], z[8]) = (f64::INFINITY, f64::NAN);
        let (mut g_w, mut g_b) = (vec![-0.0; rows * cols], vec![-0.0; rows]);
        rank1_add(&d, &z, &mut g_w, &mut g_b);
        for (r, g_row) in g_w.chunks_exact(cols).enumerate() {
            if d[r] == 0.0 {
                assert_eq!(bits(g_row), bits(&[-0.0; 9]), "row {r}");
                assert_eq!(g_b[r].to_bits(), (-0.0f64).to_bits(), "bias {r}");
            } else {
                assert_eq!(g_row[0], f64::INFINITY, "row {r}");
                assert_eq!(g_row[1..8], [d[r]; 7], "row {r}");
                assert!(g_row[8].is_nan(), "row {r}");
                assert_eq!(g_b[r], d[r], "bias {r}");
            }
        }

        // The back-product: `H = 2`, two columns. Every gate has a zero
        // row whose weights are infinite or NaN; gate o's rows are both
        // zero.
        let d = [0.0, 1.0, 2.0, -0.0, -0.0, 1.0, 0.0, -0.0];
        let w = [
            [f64::INFINITY, f64::NAN],
            [1.0, 2.0],
            [3.0, 4.0],
            [f64::NAN, f64::NAN],
            [f64::NAN, f64::INFINITY],
            [5.0, 6.0],
            [f64::INFINITY, f64::INFINITY],
            [f64::NAN, f64::NEG_INFINITY],
        ]
        .concat();
        let mut out = [0.0, -0.0];
        back_product_gates(&w, &d, &mut out);
        assert_eq!(out, [1.0 + 6.0 + 5.0, 2.0 + 8.0 + 6.0]);
    }

    #[test]
    #[should_panic(expected = "pre-activation weight shape mismatch")]
    fn gate_preact_checks_its_shapes() {
        gate_preact(&[1.0; 5], &[1.0; 2], &[0.0; 3], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "back-product needs four gates' rows")]
    fn back_product_gates_checks_its_gates() {
        back_product_gates(&[1.0; 6], &[1.0; 3], &mut [0.0; 2]);
    }
}
