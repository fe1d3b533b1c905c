//! Dense `f32` embedding vectors.
//!
//! A thin wrapper over `Vec<f32>` with the operations the pipelines need:
//! dot, L2 norm, cosine, in-place scaled accumulation and normalization.
//! All arithmetic routes through the shared `wg_util::kernel` layer, so
//! every caller gets the same 8-lane vectorized loops.

use wg_util::kernel;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector(pub Vec<f32>);

impl Vector {
    /// All-zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Borrow the raw components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Dot product. Panics on dimension mismatch (an embedding-space bug,
    /// not a data condition).
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(self.dim(), other.dim(), "vector dimension mismatch");
        kernel::dot(&self.0, &other.0)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        kernel::norm_sq(&self.0).sqrt()
    }

    /// Cosine similarity in `[-1, 1]`; zero vectors yield 0.0.
    pub fn cosine(&self, other: &Vector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom <= f32::MIN_POSITIVE {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    /// `self += weight * other`.
    pub fn add_scaled(&mut self, other: &Vector, weight: f32) {
        assert_eq!(self.dim(), other.dim(), "vector dimension mismatch");
        kernel::axpy(&mut self.0, weight, &other.0);
    }

    /// Scale all components in place.
    pub fn scale(&mut self, s: f32) {
        kernel::scale(&mut self.0, s);
    }

    /// Normalize to unit length in place; zero vectors are left unchanged.
    /// Returns whether normalization happened.
    pub fn normalize(&mut self) -> bool {
        normalize(&mut self.0)
    }

    /// Whether the vector is (approximately) unit length.
    pub fn is_normalized(&self) -> bool {
        (self.norm() - 1.0).abs() < 1e-3
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        is_zero(&self.0)
    }
}

/// [`Vector::normalize`] on a bare slice, for callers that accumulate into
/// a reused buffer.
pub(crate) fn normalize(v: &mut [f32]) -> bool {
    let n = kernel::norm_sq(v).sqrt();
    if n <= f32::MIN_POSITIVE {
        return false;
    }
    kernel::scale(v, 1.0 / n);
    true
}

/// [`Vector::is_zero`] on a bare slice.
pub(crate) fn is_zero(v: &[f32]) -> bool {
    v.iter().all(|&x| x == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = Vector(vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        let b = Vector(vec![1.0, 0.0]);
        assert_eq!(a.dot(&b), 3.0);
    }

    #[test]
    fn dot_handles_remainders() {
        // 11 elements: 1 chunk of 8 + 3 remainder.
        let a = Vector((1..=11).map(|i| i as f32).collect());
        let b = Vector(vec![1.0; 11]);
        assert_eq!(a.dot(&b), 66.0);
    }

    #[test]
    fn cosine_basics() {
        let a = Vector(vec![1.0, 0.0]);
        let b = Vector(vec![0.0, 1.0]);
        let c = Vector(vec![2.0, 0.0]);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&c), 1.0);
        assert_eq!(a.cosine(&Vector(vec![-1.0, 0.0])), -1.0);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let z = Vector::zeros(4);
        let a = Vector(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(z.cosine(&a), 0.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut a = Vector(vec![3.0, 4.0]);
        assert!(a.normalize());
        assert!(a.is_normalized());
        let mut z = Vector::zeros(2);
        assert!(!z.normalize());
        assert!(z.is_zero());
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut acc = Vector::zeros(3);
        acc.add_scaled(&Vector(vec![1.0, 2.0, 3.0]), 2.0);
        acc.add_scaled(&Vector(vec![1.0, 0.0, 0.0]), -1.0);
        assert_eq!(acc.0, vec![1.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }
}
