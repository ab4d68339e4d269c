//! Dense vectors.

use std::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense, heap-allocated vector of [`Scalar`]s.
///
/// # Example
///
/// ```rust
/// use csd_tensor::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0, 3.0]);
/// let b = Vector::from(vec![4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b), 32.0);
/// assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Vector<T> {
    data: Vec<T>,
}

impl<T: Scalar> Vector<T> {
    /// A zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![T::zero(); len],
        }
    }

    /// Builds a vector by converting each `f64` element.
    pub fn from_f64_slice(values: &[f64]) -> Self {
        Self {
            data: values.iter().map(|&v| T::from_f64(v)).collect(),
        }
    }

    /// Converts every element to `f64`.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|v| v.to_f64()).collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Inner product.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn dot(&self, rhs: &Self) -> T {
        T::dot_slices(&self.data, &rhs.data)
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.len(), rhs.len(), "vector add length mismatch");
        Self {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Elementwise (Hadamard) product — the `∗` in the paper's
    /// `C_t = f_t ∗ C_{t−1} + i_t ∗ C'_t`.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn hadamard(&self, rhs: &Self) -> Self {
        assert_eq!(self.len(), rhs.len(), "hadamard length mismatch");
        Self {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: T) -> Self {
        Self {
            data: self.data.iter().map(|&a| a * k).collect(),
        }
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Self {
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Concatenates `self` with `rhs` — the `[h_{t−1}, x_t]` construction in
    /// the LSTM gate equations.
    pub fn concat(&self, rhs: &Self) -> Self {
        let mut data = Vec::with_capacity(self.len() + rhs.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Self { data }
    }

    /// Maximum absolute elementwise difference vs. `rhs`, in `f64`.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn max_abs_diff(&self, rhs: &Self) -> f64 {
        assert_eq!(self.len(), rhs.len(), "diff length mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T> From<Vec<T>> for Vector<T> {
    fn from(data: Vec<T>) -> Self {
        Self { data }
    }
}

impl<T: Scalar> FromIterator<T> for Vector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<T> Index<usize> for Vector<T> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        &self.data[index]
    }
}

impl<T> IndexMut<usize> for Vector<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.data[index]
    }
}

impl<'a, T> IntoIterator for &'a Vector<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_fxp::Fx6;

    #[test]
    fn zeros_and_len() {
        let v: Vector<f64> = Vector::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from(vec![1.0, -2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, -10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.dot(&b), -7.0);
    }

    #[test]
    fn concat_orders_h_then_x() {
        let h = Vector::from(vec![1.0, 2.0]);
        let x = Vector::from(vec![9.0]);
        assert_eq!(h.concat(&x).as_slice(), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn map_and_index() {
        let mut v = Vector::from(vec![1.0, 4.0]);
        v[1] = 9.0;
        assert_eq!(v[1], 9.0);
        assert_eq!(v.map(|x| x * x).as_slice(), &[1.0, 81.0]);
    }

    #[test]
    fn fixed_point_roundtrip() {
        let v: Vector<Fx6> = Vector::from_f64_slice(&[0.5, -0.25]);
        assert_eq!(v.to_f64_vec(), vec![0.5, -0.25]);
    }

    #[test]
    fn max_abs_diff_measures_quantization() {
        let xs = [0.123_456_78, -0.9];
        let exact = Vector::from(xs.to_vec());
        let quant: Vector<f64> = Vector::from(Vector::<Fx6>::from_f64_slice(&xs).to_f64_vec());
        assert!(exact.max_abs_diff(&quant) <= 5e-7);
    }

    #[test]
    fn from_iterator() {
        let v: Vector<f64> = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_length_mismatch_panics() {
        let a = Vector::from(vec![1.0]);
        let b = Vector::from(vec![1.0, 2.0]);
        let _ = a.add(&b);
    }
}
