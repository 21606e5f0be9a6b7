use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{Result, Shape, TensorError};

/// Owned, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single storage type used throughout the workspace. It is
/// deliberately simple: no views, no broadcasting magic beyond the explicit
/// `*_rowwise` helpers — the layers in `stepping-nn` are written against this
/// concrete contract, which keeps every gradient auditable.
///
/// # Example
///
/// ```
/// use stepping_tensor::{Shape, Tensor};
///
/// let t = Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// let doubled = t.map(|x| x * 2.0);
/// assert_eq!(doubled.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// `shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy reshaped to `shape` (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        self.shape.check_same_len(&shape)?;
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Reshapes in place (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn reshape_in_place(&mut self, shape: Shape) -> Result<()> {
        self.shape.check_same_len(&shape)?;
        self.shape = shape;
        Ok(())
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place element-wise combination: `self[i] = f(self[i], other[i])`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_in_place(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// `self += alpha * other` (AXPY), the hot loop of every optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in the flattened buffer.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the flattened buffer.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Dot product of the flattened buffers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Returns `true` if every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose2(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (r, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut out = Tensor::zeros(Shape::of(&[c, r]));
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices or
    /// [`TensorError::InvalidArgument`] for an out-of-range row.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (r, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        if i >= r {
            return Err(TensorError::InvalidArgument(format!(
                "row {i} out of range for {r} rows"
            )));
        }
        Ok(Tensor {
            shape: Shape::of(&[c]),
            data: self.data[i * c..(i + 1) * c].to_vec(),
        })
    }

    /// Copies outer-dimension slots `lo..hi` into a new tensor (rows of a
    /// matrix, samples of an `[n, c, h, w]` batch). Used by the parallel
    /// trainer to cut a batch into canonical shards.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a rank-0 tensor or an
    /// out-of-order / out-of-range slot range.
    pub fn slice_outer(&self, lo: usize, hi: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::InvalidArgument(
                "slice_outer needs at least one dimension".into(),
            ));
        }
        let n = self.shape.dims()[0];
        if lo > hi || hi > n {
            return Err(TensorError::InvalidArgument(format!(
                "slice {lo}..{hi} out of range for outer dimension {n}"
            )));
        }
        let stride = self.data.len().checked_div(n).unwrap_or(0);
        let mut dims = self.shape.dims().to_vec();
        dims[0] = hi - lo;
        Ok(Tensor {
            shape: Shape::of(&dims),
            data: self.data[lo * stride..hi * stride].to_vec(),
        })
    }

    /// Adds a rank-1 `bias` to every row of a rank-2 tensor, in place.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `self` is not `[n, c]` or `bias` not `[c]`.
    pub fn add_rowwise(&mut self, bias: &Tensor) -> Result<()> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (n, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        if bias.shape.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::of(&[c]),
                actual: bias.shape.clone(),
            });
        }
        for i in 0..n {
            for j in 0..c {
                self.data[i * c + j] += bias.data[j];
            }
        }
        Ok(())
    }

    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(Shape::of(&[0]))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.len() > MAX_SHOWN {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;

            /// # Panics
            ///
            /// Panics if the shapes differ; use [`Tensor::zip`] for a fallible
            /// version.
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b).expect("elementwise op shape mismatch")
            }
        }
    };
}

impl_elementwise_op!(Add, add, +);
impl_elementwise_op!(Sub, sub, -);
impl_elementwise_op!(Mul, mul, *);
impl_elementwise_op!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add_assign(&mut self, rhs: &Tensor) {
        self.zip_in_place(rhs, |a, b| a + b)
            .expect("add_assign shape mismatch");
    }
}

impl SubAssign<&Tensor> for Tensor {
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub_assign(&mut self, rhs: &Tensor) {
        self.zip_in_place(rhs, |a, b| a - b)
            .expect("sub_assign shape mismatch");
    }
}

impl MulAssign<f32> for Tensor {
    fn mul_assign(&mut self, rhs: f32) {
        self.scale(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x2() -> Tensor {
        Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn constructors_fill_correctly() {
        assert_eq!(Tensor::zeros(Shape::of(&[3])).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(Shape::of(&[2])).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(Shape::of(&[2]), 7.5).data(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).len(), 1);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::of(&[3]), vec![1.0]).is_err());
        assert!(Tensor::from_vec(Shape::of(&[2]), vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = t2x2();
        t.set(&[0, 1], 9.0).unwrap();
        assert_eq!(t.get(&[0, 1]).unwrap(), 9.0);
        assert_eq!(t.get(&[1, 1]).unwrap(), 4.0);
    }

    #[test]
    fn arithmetic_ops_elementwise() {
        let a = t2x2();
        let b = Tensor::ones(Shape::of(&[2, 2]));
        assert_eq!((&a + &b).data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!((&a - &b).data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!((&a * &a).data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!((&a / &a).data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t2x2();
        let b = Tensor::ones(Shape::of(&[2, 2]));
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5, 2.5, 3.5, 4.5]);
        assert!(a.axpy(1.0, &Tensor::ones(Shape::of(&[3]))).is_err());
    }

    #[test]
    fn reductions() {
        let a = t2x2();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.argmax(), 3);
        assert_eq!(a.norm_sq(), 30.0);
        assert_eq!(a.dot(&a).unwrap(), 30.0);
    }

    #[test]
    fn transpose2_swaps_axes() {
        let a = Tensor::from_vec(Shape::of(&[2, 3]), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = a.transpose2().unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        // double transpose is identity
        assert_eq!(t.transpose2().unwrap(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t2x2();
        let r = a.reshape(Shape::of(&[4])).unwrap();
        assert_eq!(r.data(), a.data());
        assert!(a.reshape(Shape::of(&[3])).is_err());
    }

    #[test]
    fn add_rowwise_broadcasts_bias() {
        let mut a = Tensor::zeros(Shape::of(&[2, 3]));
        let b = Tensor::from_vec(Shape::of(&[3]), vec![1.0, 2.0, 3.0]).unwrap();
        a.add_rowwise(&b).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_extracts_slice() {
        let a = t2x2();
        assert_eq!(a.row(1).unwrap().data(), &[3.0, 4.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = t2x2();
        assert!(a.is_finite());
        a.set(&[0, 0], f32::NAN).unwrap();
        assert!(!a.is_finite());
    }

    #[test]
    fn display_truncates() {
        let a = Tensor::zeros(Shape::of(&[20]));
        let s = a.to_string();
        assert!(s.contains('…'));
    }
}
