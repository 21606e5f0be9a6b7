use std::fmt;

use crate::{Result, TensorError};

/// The extents of an n-dimensional tensor, in row-major order.
///
/// `Shape` is a thin, copy-on-clone wrapper over a `Vec<usize>` that provides
/// stride computation and index arithmetic. A rank-0 shape (`Shape::scalar()`)
/// describes a single element.
///
/// # Example
///
/// ```
/// use stepping_tensor::Shape;
///
/// let s = Shape::of(&[2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of extents.
    pub fn of(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates the rank-0 scalar shape (one element).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Becomes `[rows, sample…]`, reusing its buffer.
    pub(crate) fn set_rows(&mut self, rows: usize, sample: &[usize]) {
        self.dims.clear();
        self.dims.push(rows);
        self.dims.extend_from_slice(sample);
    }

    /// The extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements (any extent is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a row-major linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the index rank differs from
    /// the shape's rank, or [`TensorError::InvalidArgument`] if any coordinate
    /// is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::InvalidArgument(format!(
                    "index {i} out of bounds for axis {axis} with extent {d}"
                )));
            }
            off += i * strides[axis];
        }
        Ok(off)
    }

    /// Checks element-count compatibility for a reshape to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn check_same_len(&self, other: &Shape) -> Result<()> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                expected: self.clone(),
                actual: other.clone(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::of(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::of(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::of(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_round_trips() {
        let s = Shape::of(&[2, 3, 4]);
        let mut seen = vec![false; s.len()];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(!seen[off], "offset {off} visited twice");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn offset_rejects_bad_rank_and_bounds() {
        let s = Shape::of(&[2, 3]);
        assert!(matches!(
            s.offset(&[1]),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn zero_extent_shape_is_empty() {
        let s = Shape::of(&[3, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn display_formats_like_a_list() {
        assert_eq!(Shape::of(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn dim_checks_axis() {
        let s = Shape::of(&[4, 5]);
        assert_eq!(s.dim(1).unwrap(), 5);
        assert!(matches!(
            s.dim(2),
            Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 })
        ));
    }
}
