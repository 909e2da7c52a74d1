//! Tensor shapes and the small shape algebra used by the compiler.

use crate::error::{Result, TensorError};
use crate::inline::InlineVec;
use std::fmt;

/// Per-axis extents or strides: inline up to rank 4, heap-spilled above.
pub type Dims = InlineVec<usize, 4>;

/// A dense, row-major tensor shape.
///
/// The extents are stored inline up to rank 4 ([`Dims`]), so building,
/// cloning and deriving shapes does not touch the allocator; equality,
/// hashing and `Debug` are those of the extent slice (`Shape([2, 3])`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Dims);

impl Shape {
    /// Creates a shape from its dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims.into())
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Dims::new())
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `dim`.
    pub fn dim(&self, dim: usize) -> Result<usize> {
        self.0.get(dim).copied().ok_or(TensorError::DimOutOfRange {
            dim,
            rank: self.0.len(),
        })
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Dims {
        let mut strides: Dims = self.0.iter().map(|_| 1).collect();
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index rank does not match.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            off += index[i] * stride;
            stride *= d;
        }
        off
    }

    /// Shape with dimension `dim` replaced by extent 1 (a kept reduction).
    pub fn with_dim(&self, dim: usize, extent: usize) -> Result<Shape> {
        if dim >= self.0.len() {
            return Err(TensorError::DimOutOfRange {
                dim,
                rank: self.0.len(),
            });
        }
        let mut dims = self.0.clone();
        dims[dim] = extent;
        Ok(Shape(dims))
    }

    /// Whether `other` broadcasts to `self` (equal extents or `other` has 1).
    pub fn broadcasts_from(&self, other: &Shape) -> bool {
        if self.rank() != other.rank() {
            return false;
        }
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(&a, &b)| a == b || b == 1)
    }

    /// Broadcasted result shape of two operands, if compatible.
    pub fn broadcast_with(&self, other: &Shape) -> Result<Shape> {
        if self.rank() != other.rank() {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast",
                lhs: self.clone(),
                rhs: other.clone(),
            });
        }
        let mut dims = Dims::new();
        for (&a, &b) in self.0.iter().zip(other.0.iter()) {
            if a == b || b == 1 {
                dims.push(a);
            } else if a == 1 {
                dims.push(b);
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: self.clone(),
                    rhs: other.clone(),
                });
            }
        }
        Ok(Shape(dims))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
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
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.into())
    }
}

impl FromIterator<usize> for Shape {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Shape(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn debug_and_hash_are_those_of_the_extent_vec() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        for dims in [vec![], vec![7], vec![2, 3, 4], vec![1, 2, 3, 4, 5]] {
            let s = Shape::new(dims.clone());
            assert_eq!(format!("{s:?}"), format!("Shape({dims:?})"));
            assert_eq!(hash(&|h| s.hash(h)), hash(&|h| dims.hash(h)));
            assert_eq!(s.rank(), dims.len());
        }
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn dim_out_of_range() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.dim(2).is_err());
        assert_eq!(s.dim(1).unwrap(), 3);
    }

    #[test]
    fn broadcasting_rules() {
        let a = Shape::new(vec![4, 5]);
        let b = Shape::new(vec![4, 1]);
        assert!(a.broadcasts_from(&b));
        assert!(!b.broadcasts_from(&a));
        assert_eq!(a.broadcast_with(&b).unwrap(), a);
        assert_eq!(b.broadcast_with(&a).unwrap(), a);

        let c = Shape::new(vec![3, 5]);
        assert!(a.broadcast_with(&c).is_err());
    }

    #[test]
    fn with_dim_replaces_extent() {
        let s = Shape::new(vec![4, 5]);
        assert_eq!(s.with_dim(1, 1).unwrap(), Shape::new(vec![4, 1]));
        assert!(s.with_dim(2, 1).is_err());
    }
}
