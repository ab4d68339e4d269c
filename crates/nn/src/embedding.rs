//! Item-embedding layer.
//!
//! The paper embeds each sequence item before the LSTM: "it is ideal to
//! incorporate an embedding generation step for each item in a given
//! sequence" (§III-A). With vocabulary `M = 278` and embedding size `O = 8`
//! this contributes the paper's 2,224 embedding parameters.

use csd_tensor::{Initializer, Matrix, Vector};

/// A trainable `vocab × dim` embedding table.
///
/// Forward is a row lookup — equivalent to the one-hot × matrix dot product
/// that `kernel_preprocess` performs on the FPGA (§III-B) but without
/// materializing the one-hot vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    table: Matrix<f64>,
}

impl Embedding {
    /// Creates a Xavier-initialized `vocab × dim` table.
    ///
    /// # Panics
    ///
    /// Panics if `vocab` or `dim` is zero.
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        assert!(vocab > 0 && dim > 0, "embedding dims must be positive");
        Self {
            table: Initializer::XavierUniform.matrix(vocab, dim, seed),
        }
    }

    /// Wraps an existing table.
    pub fn from_table(table: Matrix<f64>) -> Self {
        Self { table }
    }

    /// Vocabulary size `M`.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension `O`.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Number of trainable parameters (`M × O`).
    pub fn num_parameters(&self) -> usize {
        self.vocab() * self.dim()
    }

    /// The underlying table (rows are item embeddings).
    pub fn table(&self) -> &Matrix<f64> {
        &self.table
    }

    /// Looks up the embedding of `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of vocabulary.
    pub fn forward(&self, item: usize) -> Vector<f64> {
        Vector::from(self.row(item).to_vec())
    }

    /// The embedding of `item`, borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of vocabulary.
    pub(crate) fn row(&self, item: usize) -> &[f64] {
        assert!(item < self.vocab(), "item {item} out of vocabulary");
        self.table.row(item)
    }

    /// Accumulates the gradient `d_x` flowing back into row `item` of
    /// `grad_table`, a flat row-major `vocab × dim` gradient.
    ///
    /// # Panics
    ///
    /// Panics on vocabulary or dimension mismatch.
    pub fn backward(&self, item: usize, d_x: &[f64], grad_table: &mut [f64]) {
        assert!(item < self.vocab(), "item {item} out of vocabulary");
        assert_eq!(d_x.len(), self.dim(), "gradient dim mismatch");
        assert_eq!(
            grad_table.len(),
            self.num_parameters(),
            "gradient shape mismatch"
        );
        let row = &mut grad_table[item * self.dim()..(item + 1) * self.dim()];
        for (g, &d) in row.iter_mut().zip(d_x) {
            *g += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let e = Embedding::new(278, 8, 0);
        assert_eq!(e.num_parameters(), 2_224);
    }

    #[test]
    fn forward_is_row_lookup() {
        let e = Embedding::new(10, 4, 1);
        let v = e.forward(3);
        assert_eq!(v.as_slice(), e.table().row(3));
    }

    #[test]
    fn forward_matches_onehot_vecmat() {
        // kernel_preprocess computes one-hot ⋅ table; lookup must agree.
        let e = Embedding::new(6, 3, 2);
        let mut onehot = Vector::<f64>::zeros(6);
        onehot[4] = 1.0;
        assert_eq!(e.table().vecmat(&onehot), e.forward(4));
    }

    #[test]
    fn backward_accumulates_only_target_row() {
        let e = Embedding::new(5, 2, 3);
        let mut grad = vec![0.0; 10];
        e.backward(2, &[1.0, -1.0], &mut grad);
        e.backward(2, &[0.5, 0.5], &mut grad);
        assert_eq!(grad[4..6], [1.5, -0.5]);
        assert_eq!(grad[0..2], [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_panics() {
        let e = Embedding::new(3, 2, 0);
        let _ = e.forward(3);
    }
}
