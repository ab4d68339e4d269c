//! Deterministic weight initialization for offline training.
//!
//! The paper trains its model offline in TensorFlow before exporting weights
//! (§III-A, "Porting the model to hardware"); we reproduce the common
//! Glorot/Xavier defaults with a seedable RNG so every experiment in
//! `EXPERIMENTS.md` is bit-reproducible.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::matrix::Matrix;
use crate::vector::Vector;

/// Weight-initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Initializer {
    /// Glorot/Xavier uniform: `U(-L, L)` with `L = sqrt(6 / (fan_in + fan_out))` —
    /// TensorFlow's default for `Dense`/`LSTM` kernels.
    #[default]
    XavierUniform,
    /// Uniform in `[-limit, limit]` with an explicit limit.
    Uniform {
        /// Half-width of the sampling interval.
        limit_millis: u32,
    },
}

impl Initializer {
    /// Samples a `rows × cols` matrix using this scheme and `seed`.
    pub fn matrix(self, rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let limit = self.limit(rows, cols);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                if limit == 0.0 {
                    0.0
                } else {
                    rng.random_range(-limit..limit)
                }
            })
            .collect();
        Matrix::from_flat(rows, cols, data)
    }

    /// Samples a length-`len` vector using this scheme and `seed`.
    pub fn vector(self, len: usize, seed: u64) -> Vector<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let limit = self.limit(len, 1);
        (0..len)
            .map(|_| {
                if limit == 0.0 {
                    0.0
                } else {
                    rng.random_range(-limit..limit)
                }
            })
            .collect()
    }

    fn limit(self, fan_in: usize, fan_out: usize) -> f64 {
        match self {
            Initializer::XavierUniform => (6.0 / (fan_in + fan_out) as f64).sqrt(),
            Initializer::Uniform { limit_millis } => limit_millis as f64 / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = Initializer::XavierUniform.matrix(4, 4, 42);
        let b = Initializer::XavierUniform.matrix(4, 4, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Initializer::XavierUniform.matrix(4, 4, 1);
        let b = Initializer::XavierUniform.matrix(4, 4, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn xavier_within_limit() {
        let m = Initializer::XavierUniform.matrix(8, 8, 3);
        let limit = (6.0 / 16.0f64).sqrt();
        for &v in m.as_flat() {
            assert!(v.abs() <= limit);
        }
    }

    #[test]
    fn uniform_limit_respected() {
        let m = Initializer::Uniform { limit_millis: 100 }.matrix(10, 10, 5);
        assert!(m.as_flat().iter().all(|&v| v.abs() <= 0.1));
        // Not all zero: the sampler actually ran.
        assert!(m.as_flat().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn vector_sampling() {
        let v = Initializer::XavierUniform.vector(16, 9);
        assert_eq!(v.len(), 16);
        assert!(v.iter().any(|&x| x != 0.0));
    }
}
