//! Dense query vectors.

use core::fmt;

/// A dense embedding vector (the query `x` of `y = A x`).
///
/// In the paper's application, `x` is a dense embedding of a few hundred
/// dimensions, small enough to replicate in on-chip URAM. Values are
/// non-negative (the datapath is unsigned) and queries are L2-normalised
/// so that dot products rank by cosine similarity.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::DenseVector;
///
/// let mut x = DenseVector::from_values(vec![3.0, 4.0]);
/// x.normalize();
/// assert!((x.norm() - 1.0).abs() < 1e-6);
/// assert!((x.as_slice()[0] - 0.6).abs() < 1e-6);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseVector {
    values: Vec<f32>,
}

impl DenseVector {
    /// Wraps a value vector.
    pub fn from_values(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// An all-zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
        }
    }

    /// Vector length (`M`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the values.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Mutably borrows the values.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.values
            .iter()
            .map(|v| (*v as f64) * (*v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Scales to unit L2 norm; zero vectors are left unchanged.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for v in &mut self.values {
                *v = (*v as f64 / n) as f32;
            }
        }
    }

    /// Dot product with another vector, in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.len(), other.len(), "length mismatch");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum()
    }
}

impl fmt::Debug for DenseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseVector(len={}", self.len())?;
        if self.len() <= 8 {
            write!(f, ", {:?}", self.values)?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f32>> for DenseVector {
    fn from(values: Vec<f32>) -> Self {
        Self::from_values(values)
    }
}

impl FromIterator<f32> for DenseVector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self::from_values(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_unit_norm() {
        let mut v = DenseVector::from_values(vec![1.0, 2.0, 2.0]);
        assert_eq!(v.norm(), 3.0);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_normalize_is_noop() {
        let mut v = DenseVector::zeros(4);
        v.normalize();
        assert_eq!(v.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn dot_product() {
        let a = DenseVector::from_values(vec![1.0, 0.5]);
        let b = DenseVector::from_values(vec![2.0, 4.0]);
        assert_eq!(a.dot(&b), 4.0);
    }

    #[test]
    fn collects_from_iterator() {
        let v: DenseVector = (0..3).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
