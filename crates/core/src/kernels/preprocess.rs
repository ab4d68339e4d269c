//! `kernel_preprocess`: item → embedding, fanned out to the gate CUs.
//!
//! §III-B: the kernel "consumes a fully-formed data sequence \[and\] for each
//! item ... generat\[es\] its corresponding embedding based off the weights
//! from the offline training procedure", implemented as the dot product of
//! the item's one-hot vector with the flattened `M × O` embedding buffer.
//! §III-C: it "creates four copies of the embedding of the given item ...
//! such that each CU has its own copies", and prefetches item `t+1` while
//! item `t` is in flight.
//!
//! The kernel is *memory-bound*: one AXI burst fetches the embedding row
//! and four bursts fan the copies out, so optimization levels barely move
//! it — exactly the paper's observation that "the execution time of
//! kernel_preprocess remained fairly fixed".

use csd_fxp::Fx6;
use csd_hls::{KernelSpec, LoopBody, LoopNest, Op};
use csd_tensor::{Matrix, Vector};

use crate::kernels::LstmDims;
use crate::opt::OptimizationLevel;

/// Whether `item` indexes a row of a `vocab`-entry embedding table (or,
/// equivalently, a row of the precomputed input-gate table the engine
/// folds the embedding into).
///
/// This is the *single* vocabulary predicate: the stream layers validate
/// tokens at the admission boundary with it, so the engine's internal
/// out-of-vocabulary asserts — kept as defense in depth — are
/// unreachable through `ShardedStreamMux` and the monitors.
pub fn in_vocabulary(vocab: usize, item: usize) -> bool {
    item < vocab
}

/// Functional embedding lookup, f64 path: equivalent to
/// `onehot(item) · E` but without materializing the one-hot vector.
///
/// # Panics
///
/// Panics if `item` is out of vocabulary.
pub fn run_f64(embedding: &Matrix<f64>, item: usize) -> Vector<f64> {
    assert!(item < embedding.rows(), "item {item} out of vocabulary");
    Vector::from(embedding.row(item).to_vec())
}

/// Functional embedding lookup, fixed-point path (the quantized buffer the
/// host shipped to FPGA DRAM).
///
/// # Panics
///
/// Panics if `item` is out of vocabulary.
pub fn run_fx(embedding: &Matrix<Fx6>, item: usize) -> Vector<Fx6> {
    assert!(item < embedding.rows(), "item {item} out of vocabulary");
    Vector::from(embedding.row(item).to_vec())
}

/// Fans `x` out into the per-CU copies (§III-C's four-copy operation).
pub fn fanout<T: csd_tensor::Scalar>(x: &Vector<T>) -> [Vector<T>; 4] {
    [x.clone(), x.clone(), x.clone(), x.clone()]
}

/// The hardware structure: row fetch burst → embedding prep loop → four
/// fan-out bursts to the gate CUs' buffers.
pub fn spec(level: OptimizationLevel, dims: &LstmDims) -> KernelSpec {
    let embed = dims.embed as u32;
    let mut spec = KernelSpec::new("kernel_preprocess", level.format()).axi_burst(embed);
    spec = spec.stage(LoopNest::new(
        embed,
        LoopBody::Map(vec![Op::MemRead, Op::Mul]),
        level.inner_loop_pragmas(),
    ));
    for _ in 0..4 {
        spec = spec.axi_burst(embed);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_hls::Clock;
    use csd_tensor::Initializer;

    fn embedding() -> Matrix<f64> {
        Initializer::XavierUniform.matrix(278, 8, 5)
    }

    #[test]
    fn lookup_matches_row() {
        let e = embedding();
        let x = run_f64(&e, 42);
        assert_eq!(x.as_slice(), e.row(42));
    }

    #[test]
    fn fx_lookup_matches_f64_within_quantization() {
        let e = embedding();
        let eq = Matrix::<Fx6>::from_f64_flat(278, 8, &e.to_f64_flat());
        let a = run_f64(&e, 7);
        let b = run_fx(&eq, 7);
        for (x, y) in a.iter().zip(b.to_f64_vec()) {
            assert!((x - y).abs() <= 5e-7);
        }
    }

    #[test]
    fn fanout_makes_four_identical_copies() {
        let x = Vector::from(vec![1.0, 2.0]);
        let copies = fanout(&x);
        assert!(copies.iter().all(|c| c == &x));
    }

    #[test]
    fn timing_is_flat_across_levels() {
        // The paper: "kernel_preprocess remained fairly fixed".
        let dims = LstmDims::paper();
        let clock = Clock::default_kernel_clock();
        let times: Vec<f64> = OptimizationLevel::ALL
            .iter()
            .map(|&l| clock.micros(spec(l, &dims).estimate_default().fill_cycles))
            .collect();
        let spread = times
            .iter()
            .fold(0.0f64, |m, &t| m.max((t - times[0]).abs()));
        assert!(spread < 0.1, "{times:?}");
        // And in the paper's ballpark (0.74–0.80 µs): within 2×.
        assert!(times[0] > 0.3 && times[0] < 1.6, "{times:?}");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_panics() {
        let _ = run_f64(&embedding(), 278);
    }
}
