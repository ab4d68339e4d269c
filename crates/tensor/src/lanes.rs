//! The fixed-point LSTM window: every sequence the engine classifies in
//! fixed point on a host [`window_fits`] accepts runs [`run_window_fx`].
//!
//! A fixed-point timestep is a `4H × H` recurrent product on top of a
//! precomputed gate-table row, the LUT sigmoid on the `i f o` gates, the
//! softsign on the candidate, and the state update. The gate axis is the
//! SIMD axis: the gate-table row is contiguous and `W_h` is kept
//! transposed, so neither needs a gather. On AVX-512 at `H ∈ {8, 16, 24,
//! 32}` (the paper's `H = 32` among them) the whole window is one
//! function: the `4H` gate accumulators stay in registers through the
//! matvec, the activations and the update run on them in place, the cell
//! state `C` never leaves the function, and `h` sits in one cache line
//! the next step broadcasts from — what the paper's `kernel_hidden_state`
//! does on chip (§III-C).
//!
//! That register body is one of the engine's two fixed-point bodies. A
//! host without AVX-512, or an `H` the body does not take, gets the
//! other: the engine's per-CU loop, the reference every fixed-point
//! path is bit-identical to (EXPERIMENTS.md row 34a). Nothing here runs
//! a window any other way; the slice-at-a-time step loop the register
//! body is checked against lives in this module's tests.
//!
//! [`matmul_fx_lanes_table`] is the same product for `W` sequences
//! ("lanes") in lockstep, state stored as `rows × W` blocks. Nothing in
//! the engine calls it — a window alone costs what one lane of a full
//! block did (EXPERIMENTS.md row 26a) — and it runs scalar code only
//! (row 28a).
//!
//! # Bit-identity contract
//!
//! Every kernel here is **bit-identical** to the serial scalar code it
//! replaces — not approximately equal, identical. The kernels hold
//! `Fixed<6>` raw integers as exact `f64` values (every intermediate
//! stays below `2^53`) and compute the *integer-exact* result of the
//! reference formulas — accumulate, round-half-away-from-zero rescale,
//! LUT sigmoid, exact softsign. The accumulation, the rescales and the
//! softsign use FMA, reciprocal and division sequences whose error
//! terms are provably too small to change the integer on a stated
//! domain; the LUT sigmoid, an integer function on a 16 M-point domain,
//! is compared with its scalar reference on every point of it by a test
//! instead. Callers must uphold the range bounds documented per kernel
//! (the engine proves them at weight-pack time): under the pack-time
//! row bound every partial sum of a gate row is an exact integer below
//! `2^49`, so the sum is the same integer however the additions
//! associate, and its rescale is the four-op one.
//!
//! The tier (`avx512` or `scalar`) is resolved once per process. The
//! register body and the per-CU loop produce the same bits, so the
//! engine's output never depends on the host ISA.

use std::sync::OnceLock;

use csd_fxp::{div_round_raw, Fx6};

/// The decimal scale of [`Fx6`] as an `f64` (`10^6`).
const FSCALE: f64 = Fx6::SCALE as f64;

/// The SIMD tier the fixed-point kernels dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// AVX-512 F + DQ + VL.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// Portable scalar code.
    Scalar,
}

/// The host's tier, detected on first use.
pub(crate) fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") && has!("avx512dq") && has!("avx512vl") {
                return Tier::Avx512;
            }
        }
        Tier::Scalar
    })
}

/// Which SIMD tier the fixed-point kernels dispatch to on this host.
///
/// Purely informational (bench reports); the result is `"avx512"` or
/// `"scalar"` and never affects output bits.
pub fn simd_level() -> &'static str {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => "avx512",
        Tier::Scalar => "scalar",
    }
}

/// Whether [`run_window_fx`] runs a window of `hidden` units on this
/// host: AVX-512 and `hidden ∈ {8, 16, 24, 32}`. Where it does not, the
/// engine runs its per-CU loop.
pub fn window_fits(hidden: usize) -> bool {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => hidden > 0 && hidden.is_multiple_of(8) && hidden <= x86::WINDOW_MAX_HIDDEN,
        Tier::Scalar => false,
    }
}

// ---------------------------------------------------------------------------
// Fixed-point path: integer-exact arithmetic on f64-encoded Fx6 raws
// ---------------------------------------------------------------------------

/// Lane-batched fused gate matmul with a precomputed **input-gate
/// table**: the gate matvec of [`run_window_fx`] for `width` sequences
/// at once,
/// `out[r·width + l] = round_half_away((table[items[l]·rows + r] +
/// Σ_k w[r][k]·zh[k·width + l]) / SCALE)`. Scalar code, exact while
/// every accumulator stays below `2^53` (the pack-time row bound keeps
/// it below `2^49`).
///
/// `w` is `rows × hcols` row-major (not transposed); `zh` is the
/// `hcols × width` recurrent lane block (the `h` rows of the gate
/// input); `table` is `n_items × rows` row-major.
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
        for acc in o {
            *acc = div_round_raw(*acc as i64, Fx6::SCALE) as f64;
        }
    }
}

/// One window of the fixed-point LSTM: from the state in `c`/`h`, each
/// item of `seq` in turn runs the gate matvec on its gate-table row, the
/// LUT sigmoid on the `i f o` gates, the softsign on the candidate, and
/// the update `C_t = f∗C_{t−1} + i∗C'`, `h_t = o ∗ softsign(C_t)`, every
/// `∗` the rescaling fixed-point product. The state after the last item
/// is left in `c`/`h`, and it is bit-identical to the per-CU
/// `Vector<Fx6>` loop's.
///
/// `H = c.len()`; `w_t` is `W_h` transposed, `H × 4H` row-major, so the
/// `4H` weights that multiply `h[k]` are contiguous, and `table` the
/// item-major input-gate table, `vocab × 4H`. A table row is the
/// per-item precomputation `Σ_x w_x[r]·e(item)_x + bias_r·SCALE`, so
/// row `r`'s pre-activation is exactly the serial
/// `round(Σ w·z / SCALE) + bias_r` over the full gate input:
/// `round(a/S) + b == round((a + b·S)/S)` when `b·S` is a multiple of
/// `S`, and integer addition is associative when nothing overflows.
///
/// The window runs in one function: the `H/2` gate-accumulator
/// registers take one broadcast of `h[k]` and one load-FMA each per
/// recurrent column, and are rescaled, activated and folded into the
/// `H/8` cell-state registers in place; `h` goes through one
/// 64-byte-aligned stack line the next step broadcasts from; `c`/`h`
/// are read once and written once a window. Its per-register helpers —
/// the four-op rescale, the LUT sigmoid, the softsign, the wide rescale
/// of `f∗C` — are each checked against a scalar reference (the sigmoid
/// on every input its table covers), and the whole window against a
/// slice-at-a-time step loop up to 8,000 steps. A `w_t` that starts on a
/// 64-byte cache line is faster (every load of a register of weights
/// otherwise straddles two lines); any alignment is correct.
///
/// Exact under the pack-time row bound `Σ_k |w[r][k]|·max|z[k]| +
/// |b_r|·SCALE + SCALE/2 < 2^49` over every full gate row, with `|h| ≤
/// SCALE` on entry, and while `|C| ≤ ~8·10^9` raw: each timestep grows
/// `|C|` by at most `SCALE`, so 8000 steps from a zero state.
///
/// # Panics
///
/// Panics when [`window_fits`] refuses `H` on this host, when the slice
/// lengths disagree, or when an item of `seq` is outside the table.
pub fn run_window_fx(w_t: &[f64], table: &[f64], seq: &[usize], c: &mut [f64], h: &mut [f64]) {
    assert!(
        window_fits(c.len()),
        "no register window for H = {} on a {} host",
        c.len(),
        simd_level()
    );
    check_window(w_t, table, seq, c, h);
    // SAFETY: `window_fits` holds only where the tier was resolved from
    // the host's avx512f/dq/vl bits and `H` is a nonzero multiple of 8 up
    // to 32, so each arm's `8·NH` is `H`; `check_window` asserted
    // `h.len() == H` and `w_t.len() == 4H²`.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    unsafe {
        match c.len() / 8 {
            1 => x86::window_avx512::<1>(w_t, table, seq, c, h),
            2 => x86::window_avx512::<2>(w_t, table, seq, c, h),
            3 => x86::window_avx512::<3>(w_t, table, seq, c, h),
            _ => x86::window_avx512::<4>(w_t, table, seq, c, h),
        }
    }
}

/// The shape and vocabulary asserts the window relies on.
fn check_window(w_t: &[f64], table: &[f64], seq: &[usize], c: &[f64], h: &[f64]) {
    let hidden = c.len();
    assert!(hidden > 0, "window needs at least one hidden unit");
    assert_eq!(h.len(), hidden, "window hidden shape mismatch");
    let rows = 4 * hidden;
    assert_eq!(w_t.len(), hidden * rows, "window weight shape mismatch");
    let vocab = table.len() / rows;
    assert_eq!(table.len(), vocab * rows, "ragged gate table");
    for &item in seq {
        assert!(item < vocab, "item {item} out of vocabulary");
    }
}

// ---------------------------------------------------------------------------
// x86-64 intrinsics
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::FSCALE;
    use csd_fxp::activation::{sigmoid_lut_table, LUT_ENTRIES, LUT_RANGE};
    use csd_fxp::Fx6;
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
    pub(super) unsafe fn div_round_scale_pd(x: __m512d) -> __m512d {
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
    /// for the one operand the pack proof does not bound below `2^49`:
    /// `f∗C` in [`update_pd`] (`|C|` grows by up to `SCALE` a
    /// timestep, so the product reaches `8·10^15` at the sequence cap).
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
    pub(super) unsafe fn div_round_scale_wide_pd(x: __m512d) -> __m512d {
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
    pub(super) unsafe fn sigmoid_pd(raw: __m512d, seg: &SigmoidSegments) -> __m512d {
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
    pub(super) unsafe fn softsign_pd(raw: __m512d) -> __m512d {
        let fscale = _mm512_set1_pd(FSCALE);
        let sgnmask = _mm512_set1_pd(-0.0);
        let sgn = _mm512_and_pd(raw, sgnmask);
        let mag = _mm512_andnot_pd(sgnmask, raw);
        let num = _mm512_mul_pd(mag, fscale);
        let den = _mm512_add_pd(mag, fscale);
        div_round_generic_pd(num, den, sgn)
    }

    /// The state update on one register of eight hidden units, from the
    /// activated gates: `C_t = f∗C + i∗C'`, `h_t = o ∗ softsign(C_t)`,
    /// returned as `(C_t, h_t)`.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl; `i f o` in `[0, SCALE]`, `|C'| ≤ SCALE`
    /// and `|C_t| ≤ ~8·10^9` raw.
    #[inline]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn update_pd(
        i: __m512d,
        f: __m512d,
        cand: __m512d,
        o: __m512d,
        c: __m512d,
    ) -> (__m512d, __m512d) {
        // `f∗C` reaches 8·10^15 at the sequence cap; the two gate
        // products below are ≤ SCALE² = 10^12.
        let fc = div_round_scale_wide_pd(_mm512_mul_pd(f, c));
        let ic = div_round_scale_pd(_mm512_mul_pd(i, cand));
        let ct = _mm512_add_pd(fc, ic);
        let ht = div_round_scale_pd(_mm512_mul_pd(o, softsign_pd(ct)));
        (ct, ht)
    }

    /// The largest `H` [`window_avx512`] takes: 16 gate accumulators and
    /// 4 cell-state registers, 20 of the 32 `zmm`.
    pub(super) const WINDOW_MAX_HIDDEN: usize = 32;

    /// `h` between timesteps: one cache-line-aligned stack buffer the
    /// next step's matvec broadcasts from.
    #[repr(C, align(64))]
    struct HiddenLine([f64; WINDOW_MAX_HIDDEN]);

    /// [`super::run_window_fx`] in one function at `H = 8·NH`. Per item: the
    /// `4·NH` gate accumulators (`acc[gate][j]`, TF order `i f c o`,
    /// units `8j..8j+8`) start from the gate-table row and take one
    /// broadcast of `h[k]` and one load-FMA per register for each `k`;
    /// then, in place, the four-op rescale, the sigmoid on `i f o`, the
    /// softsign on `c`, and [`update_pd`] into the `NH` cell registers,
    /// which hold `C` for the whole window (the compiler keeps them and the
    /// activated gates in registers or its own stack frame; the FMA loop's
    /// accumulators stay in registers). `h` is stored to the line
    /// the next step broadcasts from, `C` and `h` to the caller's slices
    /// after the last item.
    ///
    /// # Safety
    ///
    /// Requires avx512f/dq/vl, `c.len() == h.len() == 8·NH` and
    /// `w_t.len() == 8·NH · 32·NH`; and the contract of
    /// [`super::run_window_fx`] for the bits. Table rows are indexed
    /// with bounds checks.
    // Index loops over constant bounds: reached through iterators, the
    // accumulators stayed on the stack through the FMA loop (row 31a).
    #[allow(unsafe_code, clippy::needless_range_loop)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn window_avx512<const NH: usize>(
        w_t: &[f64],
        table: &[f64],
        seq: &[usize],
        c: &mut [f64],
        h: &mut [f64],
    ) {
        let (hidden, rows) = (8 * NH, 32 * NH);
        let seg = sigmoid_segments();
        let mut h_line = HiddenLine([0.0; WINDOW_MAX_HIDDEN]);
        h_line.0[..hidden].copy_from_slice(h);
        let mut cell = [_mm512_setzero_pd(); NH];
        for j in 0..NH {
            cell[j] = _mm512_loadu_pd(c.as_ptr().add(8 * j));
        }
        for &item in seq {
            let row = table[item * rows..(item + 1) * rows].as_ptr();
            let mut acc = [[_mm512_setzero_pd(); NH]; 4];
            for g in 0..4 {
                for j in 0..NH {
                    acc[g][j] = _mm512_loadu_pd(row.add(8 * (g * NH + j)));
                }
            }
            for k in 0..hidden {
                let hv = _mm512_set1_pd(h_line.0[k]);
                let col = w_t.as_ptr().add(k * rows);
                for g in 0..4 {
                    for j in 0..NH {
                        let w = _mm512_loadu_pd(col.add(8 * (g * NH + j)));
                        acc[g][j] = _mm512_fmadd_pd(w, hv, acc[g][j]);
                    }
                }
            }
            for g in 0..4 {
                for j in 0..NH {
                    acc[g][j] = div_round_scale_pd(acc[g][j]);
                }
            }
            for g in [0, 1, 3] {
                for j in 0..NH {
                    acc[g][j] = sigmoid_pd(acc[g][j], seg);
                }
            }
            for j in 0..NH {
                acc[2][j] = softsign_pd(acc[2][j]);
            }
            for j in 0..NH {
                let (ct, ht) = update_pd(acc[0][j], acc[1][j], acc[2][j], acc[3][j], cell[j]);
                cell[j] = ct;
                _mm512_store_pd(h_line.0.as_mut_ptr().add(8 * j), ht);
            }
        }
        for j in 0..NH {
            _mm512_storeu_pd(c.as_mut_ptr().add(8 * j), cell[j]);
        }
        h.copy_from_slice(&h_line.0[..hidden]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_fxp::{sigmoid_fx_lut, softsign_fx};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn div_round_i64(num: i64, den: i64) -> i64 {
        div_round_raw(num, den)
    }

    /// The reference [`run_window_fx`] is checked against: the same
    /// window one stage at a time — the matvec, both sigmoids, the
    /// softsign and the update each a pass over a `4H` gate vector and
    /// the state slices — in scalar code, at any `H` and on any host.
    fn run_window_fx_steps(
        w_t: &[f64],
        table: &[f64],
        seq: &[usize],
        c: &mut [f64],
        h: &mut [f64],
    ) {
        check_window(w_t, table, seq, c, h);
        let hidden = c.len();
        let rows = 4 * hidden;
        let mut g = vec![0.0; rows];
        for &item in seq {
            matvec_fx_rows(w_t, h, &table[item * rows..(item + 1) * rows], &mut g);
            sigmoid_lut_lanes(&mut g[..2 * hidden]);
            softsign_lanes(&mut g[2 * hidden..3 * hidden]);
            sigmoid_lut_lanes(&mut g[3 * hidden..]);
            update_lanes(&g, c, h);
        }
    }

    /// The step loop's gate matvec: `out[r] =
    /// round_half_away((table_row[r] + Σ_k w_t[k·rows + r]·h[k]) /
    /// SCALE)`, `k`-outer over contiguous rows.
    fn matvec_fx_rows(w_t: &[f64], h: &[f64], table_row: &[f64], out: &mut [f64]) {
        let rows = out.len();
        assert_eq!(w_t.len(), h.len() * rows, "row matvec weight shape");
        out.copy_from_slice(table_row);
        for (k, &hk) in h.iter().enumerate() {
            for (acc, &wv) in out.iter_mut().zip(&w_t[k * rows..(k + 1) * rows]) {
                *acc += wv * hk;
            }
        }
        rescale_lanes(out);
    }

    /// In-place `x := round_half_away(x / SCALE)`, exactly as
    /// `div_round_i64(x, SCALE)` computes it.
    fn rescale_lanes(xs: &mut [f64]) {
        for x in xs {
            *x = div_round_raw(*x as i64, Fx6::SCALE) as f64;
        }
    }

    /// In-place `csd_fxp::sigmoid_fx_lut` on `f64`-encoded raws.
    fn sigmoid_lut_lanes(xs: &mut [f64]) {
        for x in xs {
            *x = sigmoid_fx_lut(Fx6::from_raw(*x as i64)).raw() as f64;
        }
    }

    /// In-place `csd_fxp::softsign_fx` on `f64`-encoded raws.
    fn softsign_lanes(xs: &mut [f64]) {
        for x in xs {
            *x = softsign_fx(Fx6::from_raw(*x as i64)).raw() as f64;
        }
    }

    /// The step loop's state update, on the activated `4H` gate vector
    /// `g` in TF order (`i f c o`) and the `H`-element state `c`/`h`.
    fn update_lanes(g: &[f64], c: &mut [f64], h: &mut [f64]) {
        let hidden = c.len();
        let (gi, gf, gc, go) = (
            &g[..hidden],
            &g[hidden..2 * hidden],
            &g[2 * hidden..3 * hidden],
            &g[3 * hidden..],
        );
        for j in 0..hidden {
            let ct = fx_mul_raw(gf[j] as i64, c[j] as i64) + fx_mul_raw(gi[j] as i64, gc[j] as i64);
            c[j] = ct as f64;
            let ss = softsign_fx(Fx6::from_raw(ct)).raw();
            h[j] = fx_mul_raw(go[j] as i64, ss) as f64;
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

    /// Runs every whole register of `xs` through `reg` on an AVX-512
    /// host and returns the rest: the tail past the last whole register,
    /// or all of `xs` on any other host.
    #[cfg(target_arch = "x86_64")]
    fn by_register(
        xs: &mut [f64],
        reg: impl Fn(std::arch::x86_64::__m512d) -> std::arch::x86_64::__m512d,
    ) -> &mut [f64] {
        use std::arch::x86_64::{_mm512_loadu_pd, _mm512_storeu_pd};
        if tier() != Tier::Avx512 {
            return xs;
        }
        let (head, tail) = xs.split_at_mut(xs.len() / 8 * 8);
        for block in head.chunks_exact_mut(8) {
            // SAFETY: the tier says the host has avx512f/dq/vl, and each
            // block is one whole register.
            #[allow(unsafe_code)]
            unsafe {
                _mm512_storeu_pd(block.as_mut_ptr(), reg(_mm512_loadu_pd(block.as_ptr())));
            }
        }
        tail
    }

    /// The window body's four-op rescale where [`by_register`] runs it,
    /// the slice rescale on the rest.
    fn rescale_by_register(xs: &mut [f64]) {
        // SAFETY (in the closure): `by_register` calls it on an AVX-512
        // host only.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        let xs = by_register(xs, |x| unsafe { x86::div_round_scale_pd(x) });
        rescale_lanes(xs);
    }

    /// The window body's LUT sigmoid where [`by_register`] runs it, the
    /// step loop's on the rest.
    fn sigmoid_by_register(xs: &mut [f64]) {
        // SAFETY (in the closure): `by_register` calls it on an AVX-512
        // host only.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        let xs = by_register(xs, |x| unsafe {
            x86::sigmoid_pd(x, x86::sigmoid_segments())
        });
        sigmoid_lut_lanes(xs);
    }

    /// The window body's softsign where [`by_register`] runs it, the
    /// step loop's on the rest.
    fn softsign_by_register(xs: &mut [f64]) {
        // SAFETY (in the closure): `by_register` calls it on an AVX-512
        // host only.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        let xs = by_register(xs, |x| unsafe { x86::softsign_pd(x) });
        softsign_lanes(xs);
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
        while !probes.len().is_multiple_of(8) {
            probes.push(0);
        }
        let mut got: Vec<f64> = probes.iter().map(|&x| x as f64).collect();
        rescale_lanes(&mut got);
        for (&inp, &out) in probes.iter().zip(&got) {
            assert_eq!(out as i64, div_round_i64(inp, Fx6::SCALE), "rescale {inp}");
        }
        // The wide rescale `update_pd` applies to `f∗C`, on the same
        // ladder up to the top of its `2^53` domain.
        #[cfg(target_arch = "x86_64")]
        if tier() == Tier::Avx512 {
            use std::arch::x86_64::{_mm512_loadu_pd, _mm512_storeu_pd};
            let mut got: Vec<f64> = probes.iter().map(|&x| x as f64).collect();
            for block in got.chunks_exact_mut(8) {
                // SAFETY: the tier says the host has avx512f/dq/vl, and
                // each block is one whole register.
                #[allow(unsafe_code)]
                unsafe {
                    let x = _mm512_loadu_pd(block.as_ptr());
                    _mm512_storeu_pd(block.as_mut_ptr(), x86::div_round_scale_wide_pd(x));
                }
            }
            for (&inp, &out) in probes.iter().zip(&got) {
                assert_eq!(out as i64, div_round_i64(inp, Fx6::SCALE), "wide {inp}");
            }
        }
    }

    /// Rescales `probes` a register at a time as the window body rescales
    /// its gate accumulators, and compares with the integer reference.
    fn assert_epilogue_rescale_matches(probes: &[i64], got: &mut Vec<f64>) {
        got.clear();
        got.extend(probes.iter().map(|&x| x as f64));
        rescale_by_register(got);
        for (&inp, &out) in probes.iter().zip(got.iter()) {
            assert_eq!(out as i64, div_round_i64(inp, Fx6::SCALE), "rows {inp}");
        }
    }

    /// The four-op rescale of the window body's accumulators on its whole
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
        let mut block: Vec<i64> = Vec::with_capacity(BLOCK);
        let mut got = Vec::with_capacity(BLOCK);
        loop {
            block.clear();
            block.extend(dense.by_ref().take(BLOCK));
            if block.is_empty() {
                break;
            }
            assert_epilogue_rescale_matches(&block, &mut got);
        }
    }

    /// Runs `raws` through the window body's sigmoid and compares every
    /// element with the scalar `sigmoid_fx_lut`.
    fn assert_sigmoid_matches_scalar(raws: &[i64], got: &mut Vec<f64>) {
        got.clear();
        got.extend(raws.iter().map(|&r| r as f64));
        sigmoid_by_register(got);
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
        sigmoid_by_register(&mut zeros);
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
        softsign_by_register(&mut got);
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
        for width in [1usize, 3, 16] {
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

    /// The step loop's matvec against the `i128` reference, over row
    /// counts on and off a register's eight (4, 6, 8, 12, 24, 128, 136)
    /// and with operands at the edge of the `2^52` it is exact to: `|h|`
    /// up to `SCALE` and every row's worst case `Σ|w|·SCALE + |table| +
    /// SCALE/2` within a few units of it. Odd rows push every term the
    /// way of their table entry, so their partial sums climb to that
    /// edge; even rows mix signs.
    #[test]
    fn reference_row_matvec_matches_integer_reference() {
        let bound: i64 = (1 << 52) - 1 - Fx6::SCALE / 2;
        let encode = |v: &[i64]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
        for rows in [4usize, 6, 8, 12, 24, 128, 136] {
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
                matvec_fx_rows(&encode(&wi), &encode(&hi), &encode(&ti), &mut out);
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
                        "rows={rows} hcols={hcols} r={r}"
                    );
                }
            }
        }
    }

    /// The window body's `update_pd` over the whole registers of the
    /// state on an AVX-512 host, the step loop's update on the rest.
    fn update_by_register(g: &[f64], c: &mut [f64], h: &mut [f64]) {
        let hw = c.len();
        let mut whole = 0;
        #[cfg(target_arch = "x86_64")]
        if tier() == Tier::Avx512 {
            use std::arch::x86_64::{_mm512_loadu_pd as load, _mm512_storeu_pd as store};
            whole = hw / 8 * 8;
            for j in (0..whole).step_by(8) {
                let gate = |blk: usize| g[blk * hw + j..blk * hw + j + 8].as_ptr();
                // SAFETY: the tier says the host has avx512f/dq/vl, and
                // every pointer starts a whole register inside its slice.
                #[allow(unsafe_code)]
                unsafe {
                    let c_in = load(c[j..j + 8].as_ptr());
                    let (ct, ht) = x86::update_pd(
                        load(gate(0)),
                        load(gate(1)),
                        load(gate(2)),
                        load(gate(3)),
                        c_in,
                    );
                    store(c[j..j + 8].as_mut_ptr(), ct);
                    store(h[j..j + 8].as_mut_ptr(), ht);
                }
            }
        }
        let g_tail: Vec<f64> = (0..4)
            .flat_map(|blk| &g[blk * hw + whole..(blk + 1) * hw])
            .copied()
            .collect();
        update_lanes(&g_tail, &mut c[whole..], &mut h[whole..]);
    }

    #[test]
    fn update_matches_fx6_reference() {
        // 99: twelve registers and a scalar tail.
        for hw in [99usize, 256] {
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
            // `f∗C` a unit under a tie at the top of the wide rescale's
            // domain, where the four-op rescale's upward error rounds it
            // past the tie.
            for (j, sign) in [(2, 1.0), (3, -1.0)] {
                g[hw + j] = 999_999.0;
                c[j] = sign * 7_999_500_001.0;
            }
            // The step loop's update, then the window body's.
            for (name, update) in [
                ("steps", update_lanes as fn(&[f64], &mut [f64], &mut [f64])),
                ("registers", update_by_register),
            ] {
                let (mut c_out, mut h) = (c.clone(), vec![0.0f64; hw]);
                update(&g, &mut c_out, &mut h);
                for j in 0..hw {
                    let fv = Fx6::from_raw(g[hw + j] as i64);
                    let iv = Fx6::from_raw(g[j] as i64);
                    let cb = Fx6::from_raw(g[2 * hw + j] as i64);
                    let ov = Fx6::from_raw(g[3 * hw + j] as i64);
                    let ct = fv * Fx6::from_raw(c[j] as i64) + iv * cb;
                    assert_eq!(c_out[j] as i64, ct.raw(), "{name} c j={j} hidden={hw}");
                    let hh = ov * softsign_fx(ct);
                    assert_eq!(h[j] as i64, hh.raw(), "{name} h j={j} hidden={hw}");
                }
            }
        }
    }

    /// A random pack of `hidden` units inside the row bound, `(w_t,
    /// table)`: every row's recurrent weights sum to at most `2^45 /
    /// SCALE` and every table entry is below `2^48`. Units `≡ 0 mod 4`
    /// drive `i f o` into the high saturation and the candidate to
    /// `≈ ±SCALE` on every item, so `|C|` grows by almost `SCALE` a step
    /// (both signs); units `≡ 1 mod 4` drive every gate into the low
    /// saturation; the rest draw their table entries to `±16` after the
    /// rescale, across the LUT and both ends of it.
    fn random_pack(hidden: usize, vocab: usize, rng: &mut ChaCha8Rng) -> (Vec<f64>, Vec<f64>) {
        const DRIVE: i64 = 1 << 48;
        const SPREAD: i64 = 16 * Fx6::SCALE * Fx6::SCALE;
        let rows = 4 * hidden;
        let w_max = (1i64 << 45) / (hidden as i64 * Fx6::SCALE);
        let w_t = (0..hidden * rows)
            .map(|_| rng.random_range(-w_max..=w_max) as f64)
            .collect();
        let mut table = Vec::with_capacity(vocab * rows);
        for _ in 0..vocab {
            for r in 0..rows {
                let (gate, unit) = (r / hidden, r % hidden);
                let entry = match unit % 4 {
                    0 if gate == 2 && unit % 8 == 4 => -DRIVE,
                    0 => DRIVE,
                    1 => -DRIVE,
                    _ => rng.random_range(-SPREAD..=SPREAD),
                };
                table.push(entry as f64);
            }
        }
        (w_t, table)
    }

    /// The register body against the step loop on random packs, every
    /// final `(C, h)` raw for raw, at each `H` the body takes (8 to 32;
    /// on a host without AVX-512 there is no body to check). Lengths 1,
    /// 2, 100 and the engine's `LANE_MAX_STEPS` (8,000), from a random
    /// state with `|C|, |h| ≤ SCALE`; at the longest, the driven units'
    /// `|C|` ends within 1 % of the `8·10^9` the kernels are exact to.
    #[test]
    fn window_body_matches_the_step_loop() {
        const LANE_MAX_STEPS: usize = 8_000;
        const VOCAB: usize = 16;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let raws = |v: &[f64]| v.iter().map(|&x| x as i64).collect::<Vec<i64>>();
        for hidden in [8usize, 16, 24, 32] {
            if !window_fits(hidden) {
                assert_eq!(simd_level(), "scalar");
                continue;
            }
            let (w_t, table) = random_pack(hidden, VOCAB, &mut rng);
            for len in [1usize, 2, 100, LANE_MAX_STEPS] {
                let seq: Vec<usize> = (0..len).map(|_| rng.random_range(0..VOCAB)).collect();
                let mut state = || -> Vec<f64> {
                    (0..hidden)
                        .map(|_| rng.random_range(-Fx6::SCALE..=Fx6::SCALE) as f64)
                        .collect()
                };
                let (c0, h0) = (state(), state());
                let (mut c, mut h) = (c0.clone(), h0.clone());
                run_window_fx(&w_t, &table, &seq, &mut c, &mut h);
                let (mut c_ref, mut h_ref) = (c0, h0);
                run_window_fx_steps(&w_t, &table, &seq, &mut c_ref, &mut h_ref);
                let at = format!("H = {hidden}, {len} steps");
                assert_eq!(raws(&c), raws(&c_ref), "C at {at}");
                assert_eq!(raws(&h), raws(&h_ref), "h at {at}");
                // Every gate of a unit ≡ 1 mod 4 is 0: so are C and h.
                assert!(c.iter().skip(1).step_by(4).all(|&v| v == 0.0), "{at}");
                if len == LANE_MAX_STEPS {
                    for (j, &v) in c.iter().enumerate().step_by(4) {
                        assert!(v.abs() > 7.92e9, "|C[{j}]| = {v} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn simd_level_reports_a_tier() {
        assert!(["avx512", "scalar"].contains(&simd_level()));
    }

    #[test]
    fn window_fits_the_register_shapes_on_avx512_only() {
        let avx512 = simd_level() == "avx512";
        for hidden in [8usize, 16, 24, 32] {
            assert_eq!(window_fits(hidden), avx512, "H = {hidden}");
        }
        for hidden in [0usize, 1, 5, 12, 34, 40, 64] {
            assert!(!window_fits(hidden), "H = {hidden}");
        }
    }

    #[test]
    #[should_panic(expected = "no register window for H = 5")]
    fn a_window_the_register_body_does_not_fit_is_refused() {
        let (mut c, mut h) = (vec![0.0; 5], vec![0.0; 5]);
        run_window_fx(&[0.0; 100], &[0.0; 20], &[0], &mut c, &mut h);
    }
}
