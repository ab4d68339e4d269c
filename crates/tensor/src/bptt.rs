//! The three `f64` products of LSTM training: the gate pre-activations of
//! a forward step, the rank-1 weight-gradient updates of a BPTT pass, and
//! the `Wᵀ·d` back-product that carries a step's gradient to `[h_{t−1},
//! x_t]`.
//!
//! Each kernel is one plain slice loop compiled twice: under
//! `#[target_feature]` for the AVX-512 tier the fixed-point kernels in
//! [`lanes`](crate::lanes) resolve, and for the build's baseline target.
//! The tier is resolved once per process; the safe entry points dispatch
//! on it.
//!
//! # Bit-identity contract
//!
//! Every output element runs the same operation sequence as the `Matrix`
//! code it replaces, in both bodies: vectorisation runs *across* output
//! elements, never along one element's sum. Products are multiplied then
//! added, never fused (Rust does not contract `a * b + c`). So
//! [`gate_preact`] equals `W.matvec(z) + b` (the four interleaved
//! partials of `f64::dot_slices`), [`rank1_add`] equals BPTT's
//! outer-product accumulation one step after the other, and
//! [`back_product_add`] equals `out + W.vecmat(d)`, bit for bit. The
//! rank-1 update and the back-product skip a row whose `d` is zero
//! (`-0.0` included), as `Matrix::vecmat` does.

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
/// update would make, in the same order; the steps run over a few rows
/// of `g_w` at a time, so those rows stay in L1.
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

/// The back-product `out[c] += (Wᵀ·d)[c]`: `Wᵀ·d` is summed on its own
/// from `0.0` over the rows with `d[r] ≠ 0`, in row order, and then added
/// to `out` — `out + W.vecmat(d)`.
///
/// `w` is `d.len() × out.len()` row-major.
///
/// # Panics
///
/// Panics when `w.len() != d.len() · out.len()`.
pub fn back_product_add(w: &[f64], d: &[f64], out: &mut [f64]) {
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
            x86::back_product_add(w, d, out)
        };
        return;
    }
    back_product_add_body(w, d, out);
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

/// Rows of `g_w` [`rank1_add`] carries through every step at once: 16
/// rows of the paper's 40 columns are 5 KiB, which stay in L1.
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

#[inline(always)]
fn back_product_add_body(w: &[f64], d: &[f64], out: &mut [f64]) {
    by_blocks!(out.len(), back_product_cols(w, d, out));
}

/// [`back_product_add`] for columns `c0 .. c0 + N`.
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

/// The same loops compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn gate_preact(w_t: &[f64], z: &[f64], b: &[f64], out: &mut [f64]) {
        super::gate_preact_body(w_t, z, b, out);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn rank1_add(d: &[f64], z: &[f64], g_w: &mut [f64], g_b: &mut [f64]) {
        super::rank1_add_body(d, z, g_w, g_b);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn back_product_add(w: &[f64], d: &[f64], out: &mut [f64]) {
        super::back_product_add_body(w, d, out);
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
            for steps in [1, 3] {
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
    fn back_product_add_is_vecmat_then_add() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (rows, cols) in SHAPES {
            let m = Matrix::from_flat(rows, cols, values(&mut rng, rows * cols));
            let (d, mut out) = (values(&mut rng, rows), values(&mut rng, cols));
            let want = Vector::from(out.clone()).add(&m.vecmat(&Vector::from(d.clone())));
            back_product_add(&m.to_f64_flat(), &d, &mut out);
            assert_eq!(bits(&out), bits(want.as_slice()), "{rows}×{cols}");
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

                // Three steps of `d` and `z`.
                let (d, zs) = (values(&mut rng, 3 * rows), values(&mut rng, 3 * cols));
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

                let (mut simd, mut portable) = (z.clone(), z.clone());
                // SAFETY: as above.
                #[allow(unsafe_code)]
                unsafe {
                    x86::back_product_add(&w, &b, &mut simd)
                };
                back_product_add_body(&w, &b, &mut portable);
                assert_eq!(bits(&simd), bits(&portable), "back-product {rows}×{cols}");
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
        let w = [f64::INFINITY, f64::NAN, 1.0, 1.0, 3.0, 4.0];
        let mut out = [0.0, 0.0];
        back_product_add(&w, &d, &mut out);
        assert_eq!(out, [6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "pre-activation weight shape mismatch")]
    fn gate_preact_checks_its_shapes() {
        gate_preact(&[1.0; 5], &[1.0; 2], &[0.0; 3], &mut [0.0; 3]);
    }
}
