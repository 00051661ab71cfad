use crate::isa::multiversion;
use crate::{Shape, TensorError};
use rand_distr_normal::sample_standard_normal;

/// Minimal standard-normal sampling without pulling `rand_distr`:
/// Box–Muller on the workspace RNG.
mod rand_distr_normal {
    use rand::Rng;

    pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f32 {
        // Box–Muller transform; u1 in (0, 1] to avoid ln(0).
        let u1: f32 = 1.0 - rng.gen::<f32>();
        let u2: f32 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

/// Dense, owned, row-major `f32` tensor.
///
/// The workhorse value type of the engine. All layer activations, weights
/// and gradients are `Tensor`s. Layout is row-major (C order); activations
/// use NCHW.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Build from existing data; errors if the length disagrees with dims.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Build from a slice (copies). Panics on length mismatch — use only
    /// with locally-constructed shapes.
    pub fn from_slice(dims: &[usize], data: &[f32]) -> Self {
        Self::from_vec(dims, data.to_vec()).expect("from_slice: length mismatch")
    }

    /// I.i.d. Gaussian entries with standard deviation `std`.
    pub fn randn<R: rand::Rng>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel())
            .map(|_| sample_standard_normal(rng) * std)
            .collect();
        Tensor { shape, data }
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn uniform<R: rand::Rng>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dims slice shorthand.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index (debug-checked).
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index (debug-checked).
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    // ------------------------------------------------------------- reshape

    /// Reshape in place to dims with the same volume.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.numel(),
                actual: self.data.len(),
            });
        }
        self.shape = new_shape;
        Ok(self)
    }

    // ----------------------------------------------------------- immutable

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Elementwise binary op `self ⊕ other`; shapes must match exactly.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert_eq!(self.shape, other.shape, "zip: shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scale by a constant.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|a| a * k)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    // -------------------------------------------------------------- mutable

    /// `self += other` in place (also the residual add of a ResNet block).
    pub fn add_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "add_assign: shape mismatch");
        add_into(&mut self.data, &other.data);
    }

    /// `self += k * other` in place (axpy).
    pub fn axpy(&mut self, k: f32, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Scale in place.
    pub fn scale_assign(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Zero all elements (reuse allocation).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    // ------------------------------------------------------------ 2-D views

    /// Number of rows, treating the tensor as a 2-D matrix `[d0, rest]`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.dim(0)
    }

    /// Row `i` of a rank-≥1 tensor flattened as `[d0, rest]`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let stride = self.data.len() / self.shape.dim(0).max(1);
        &self.data[i * stride..(i + 1) * stride]
    }

    /// Mutable row `i` flattened as `[d0, rest]`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let stride = self.data.len() / self.shape.dim(0).max(1);
        &mut self.data[i * stride..(i + 1) * stride]
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        debug_assert_eq!(self.shape.rank(), 2, "transpose2 requires rank-2");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Index of the maximum element in row `i` (rank-2 logits → class).
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row(i);
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(idx, _)| idx)
            .unwrap_or(0)
    }
}

multiversion! {
    fn add_into(dst: &mut [f32], src: &[f32]) {
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctor_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Tensor::from_vec(&[2, 3], vec![0.0; 5]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[2, 2], &[1., 2., 3., 4.]);
        let b = Tensor::from_slice(&[2, 2], &[4., 3., 2., 1.]);
        assert_eq!(a.add(&b).data(), &[5., 5., 5., 5.]);
        assert_eq!(a.sub(&b).data(), &[-3., -1., 1., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 6., 6., 4.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn axpy_and_norms() {
        let mut a = Tensor::from_slice(&[3], &[1., 2., 2.]);
        let b = Tensor::from_slice(&[3], &[1., 0., 0.]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3., 2., 2.]);
        assert!((a.sq_norm() - 17.0).abs() < 1e-6);
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = crate::rng_from_seed(1);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let back = a.transpose2().transpose2();
        assert_eq!(a, back);
    }

    #[test]
    fn rows_and_argmax() {
        let t = Tensor::from_slice(&[2, 3], &[0.1, 0.9, 0.3, 0.5, 0.2, 0.8]);
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 2);
        assert_eq!(t.row(1), &[0.5, 0.2, 0.8]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = crate::rng_from_seed(42);
        let mut r2 = crate::rng_from_seed(42);
        let a = Tensor::randn(&[16], 1.0, &mut r1);
        let b = Tensor::randn(&[16], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let mut rng = crate::rng_from_seed(7);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.sq_norm() / t.numel() as f32 - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
