//! Dense row-major matrices.

use crate::scalar::Scalar;
use crate::vector::Vector;

/// A dense row-major matrix of [`Scalar`]s.
///
/// Row-major layout matches both the flattened 1-D buffers the paper ships
/// to `kernel_preprocess` ("a 1-dimensional buffer consisting of the
/// flattened embedding vector", §III-B) and TensorFlow's `get_weights()`
/// export convention consumed by the host program.
///
/// # Example
///
/// ```rust
/// use csd_tensor::{Matrix, Vector};
///
/// let m = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 2.0]]);
/// let y = m.matvec(&Vector::from(vec![3.0, 4.0]));
/// assert_eq!(y.as_slice(), &[3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in &rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data size mismatch");
        Self { rows, cols, data }
    }

    /// Quantizes/converts an `f64` flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_f64_flat(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data size mismatch");
        Self {
            rows,
            cols,
            data: data.iter().map(|&v| T::from_f64(v)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major storage — the exact layout DMA'd into FPGA DDR.
    pub fn as_flat(&self) -> &[T] {
        &self.data
    }

    /// Converts the flat storage to `f64`.
    pub fn to_f64_flat(&self) -> Vec<f64> {
        self.data.iter().map(|v| v.to_f64()).collect()
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| T::dot_slices(self.row(r), x.as_slice()))
            .collect()
    }

    /// Vector–matrix product `xᵀ · self` (used for the one-hot × embedding
    /// lookup in `kernel_preprocess`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(x.len(), self.rows, "vecmat dimension mismatch");
        let mut out = vec![T::zero(); self.cols];
        for r in 0..self.rows {
            let xv = x[r];
            if xv == T::zero() {
                continue;
            }
            for (c, o) in out.iter_mut().enumerate() {
                *o += xv * self.data[r * self.cols + c];
            }
        }
        Vector::from(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| a * k).collect(),
        }
    }

    /// Maximum absolute elementwise difference vs. `rhs`, in `f64`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Self) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.as_flat().len(), 6);
    }

    #[test]
    fn matvec_matches_hand_calc() {
        let y = sample().matvec(&Vector::from(vec![1.0, 0.0, -1.0]));
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn vecmat_is_transpose_matvec() {
        let m = sample();
        let x = Vector::from(vec![2.0, -1.0]);
        let a = m.vecmat(&x);
        let b = m.transpose().matvec(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn vecmat_one_hot_selects_row() {
        let m = sample();
        let onehot = Vector::from(vec![0.0, 1.0]);
        assert_eq!(m.vecmat(&onehot).as_slice(), m.row(1));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_and_scale() {
        let m = sample();
        assert_eq!(m.add(&m), m.scale(2.0));
    }

    #[test]
    fn from_flat_roundtrip() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.to_f64_flat(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_bad_shape_panics() {
        let _ = sample().matvec(&Vector::from(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
