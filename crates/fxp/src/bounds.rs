//! Accumulator-width proofs for the fixed-point MAC paths.
//!
//! The engine's row kernel runs 10^6-scaled integer arithmetic in `f64`
//! FMA lanes (exact-integer window `±2^53`), narrower than the reference
//! `i128` accumulator, and the reference rounds its sum back into an
//! `i64`. Each is sound only under a magnitude bound over the worst-case
//! input — the pack-time row bound for the lanes, the weight-file check
//! for the `i64` — and *integer addition is exact and associative when
//! nothing overflows*, so once the bound holds the narrow sum equals the
//! wide sum bit for bit, no matter how a SIMD tile associates the adds.
//!
//! This module is the single home for those bounds so the weight
//! loader, the packer in `csd-accel` and the kernels in `csd-tensor`
//! cite one proof instead of each re-deriving (and possibly drifting
//! on) the arithmetic.

/// The largest integer magnitude the `f64`-encoded fixed-point kernels
/// admit for any value or partial sum: `2^52`.
///
/// Every integer of magnitude up to `2^53` is exactly representable in
/// `f64`; the kernels bound their domain one bit lower so that a final
/// `+ SCALE/2` rounding bias (and any single product) provably cannot
/// cross `2^53` either.
pub const EXACT_F64_INT: i64 = 1 << 52;

/// The largest worst-case magnitude a fused-gate row accumulator may
/// reach for the `f64` lane kernels to take the weights: `2^49`.
///
/// Exactness of the sum alone would admit [`EXACT_F64_INT`]. The
/// AVX-512 matvec epilogues rescale the finished accumulator with a
/// multiply by a rounded-up `1/SCALE` and a truncation, which is the
/// exact `round_half_away(x / SCALE)` only while the quotient's excess
/// stays under `1/SCALE` — up to `2^49` (see `csd_tensor::lanes`).
/// The benchmark's trained detector sits 62× below it (worst row
/// 9.1·10^12); a weight set above it runs the per-CU reference path,
/// bit-identical anyway.
pub const LANE_ROW_BOUND: i64 = 1 << 49;

/// Worst-case row accumulator magnitude: `Σ_k |row[k]| · zbound[k]`,
/// where `zbound[k]` bounds `|z[k]|` over every input the caller will
/// ever present. Computed in `i128`, where each term fits, and saturating
/// at `i128::MAX`, so a hostile row reads as too large, never as small.
///
/// # Panics
///
/// Panics when `row` and `zbound` disagree in length.
pub fn row_mac_bound(row: &[i64], zbound: &[i64]) -> i128 {
    assert_eq!(row.len(), zbound.len(), "bound length mismatch");
    row.iter()
        .zip(zbound)
        .map(|(&w, &zb)| w.unsigned_abs() as i128 * zb.unsigned_abs() as i128)
        .fold(0, i128::saturating_add)
}

/// Whether a fused-gate row is exact in the `f64` lane kernels: the
/// worst-case accumulator `Σ_k |row[k]|·zbound[k] + |bias|·scale +
/// scale/2` (the folded bias plus the rounding offset of the final
/// rescale) stays strictly below [`LANE_ROW_BOUND`].
///
/// Under this bound every product and every partial sum — in any
/// association — is an integer of magnitude below `2^53`, so each FMA
/// and add is exact and the tiled SIMD matmul equals the `i128`
/// reference bit for bit, and the finished accumulator is inside the
/// domain of the kernels' rescale.
pub fn row_exact_in_f64(row: &[i64], zbound: &[i64], bias: i64, scale: i64) -> bool {
    let bound = row_mac_bound(row, zbound)
        + bias.unsigned_abs() as i128 * scale as i128
        + (scale / 2) as i128;
    bound < LANE_ROW_BOUND as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fx6;

    #[test]
    fn mac_bound_is_the_abs_weighted_sum() {
        assert_eq!(row_mac_bound(&[2, -3], &[10, 100]), 320);
        assert_eq!(row_mac_bound(&[], &[]), 0);
        assert_eq!(row_mac_bound(&[i64::MIN; 3], &[i64::MIN; 3]), i128::MAX);
    }

    #[test]
    #[should_panic(expected = "bound length mismatch")]
    fn mac_bound_rejects_shape_mismatch() {
        let _ = row_mac_bound(&[1], &[1, 2]);
    }

    #[test]
    fn f64_row_bound_accepts_paper_scale_magnitudes() {
        // A 40-column row of |w| ≤ 4 (raw 4·10^6) against |z| ≤ 1
        // (raw 10^6) sums to 1.6·10^14 < 2^49 ≈ 5.6·10^14.
        let row = vec![4_000_000i64; 40];
        let zbound = vec![Fx6::SCALE; 40];
        assert!(row_exact_in_f64(&row, &zbound, 2_000_000, Fx6::SCALE));
    }

    #[test]
    fn f64_row_bound_is_the_rescale_domain_not_the_f64_one() {
        // One column against |z| ≤ 1: the edge is the last weight whose
        // accumulator plus the rounding offset stays under 2^49.
        let edge = (LANE_ROW_BOUND - Fx6::SCALE / 2 - 1) / Fx6::SCALE;
        assert!(row_exact_in_f64(&[edge], &[Fx6::SCALE], 0, Fx6::SCALE));
        assert!(!row_exact_in_f64(&[edge + 1], &[Fx6::SCALE], 0, Fx6::SCALE));
        assert!(!row_exact_in_f64(
            &[-(edge + 1)],
            &[Fx6::SCALE],
            0,
            Fx6::SCALE
        ));
    }

    #[test]
    fn f64_row_bound_rejects_overflowing_rows() {
        let row = vec![EXACT_F64_INT / 2; 4];
        let zbound = vec![4i64; 4];
        assert!(!row_exact_in_f64(&row, &zbound, 0, Fx6::SCALE));
        // The bias contribution alone can break the bound.
        assert!(!row_exact_in_f64(
            &[0],
            &[0],
            EXACT_F64_INT / Fx6::SCALE,
            Fx6::SCALE
        ));
    }
}
