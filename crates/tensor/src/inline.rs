//! A short list of `Copy` values stored in place.
//!
//! Shapes, strides and per-axis ranges are built and dropped on every
//! tile and every operator the kernel interpreter evaluates, and almost
//! all of them are short (every shape in the repository has rank ≤ 3).
//! [`InlineVec`] keeps up to `N` elements inline and spills longer lists
//! to the heap, so building one of rank ≤ `N` never calls the allocator
//! and no rank limit is introduced.
//!
//! Equality, hashing and `Debug` go through the element slice, so an
//! `InlineVec` compares, hashes and prints exactly like the `Vec` of the
//! same elements.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Up to `N` elements inline, a heap `Vec` above that.
///
/// # Examples
///
/// ```
/// use sf_tensor::InlineVec;
/// let mut v: InlineVec<usize, 4> = [2, 3].as_slice().into();
/// v.push(4);
/// assert_eq!(&v[..], &[2, 3, 4]);
/// assert_eq!(format!("{v:?}"), format!("{:?}", vec![2, 3, 4]));
/// ```
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy + Default, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "inline length is a u8") };
        InlineVec(Repr::Inline {
            len: 0,
            buf: [T::default(); N],
        })
    }

    /// Appends one element, spilling to the heap past `N`.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = value;
                *len += 1;
            }
            Repr::Inline { len, buf } => {
                let mut v = Vec::with_capacity(2 * N.max(1));
                v.extend_from_slice(&buf[..*len as usize]);
                v.push(value);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.0 {
            Repr::Inline { len: 0, .. } => None,
            Repr::Inline { len, buf } => {
                *len -= 1;
                Some(buf[*len as usize])
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(s: &[T]) -> Self {
        s.iter().copied().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// Moves the elements inline when they fit, else adopts the `Vec`.
    fn from(v: Vec<T>) -> Self {
        if v.len() <= N {
            v.as_slice().into()
        } else {
            InlineVec(Repr::Heap(v))
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<H: Hash + ?Sized>(h: &H) -> u64 {
        let mut s = DefaultHasher::new();
        h.hash(&mut s);
        s.finish()
    }

    #[test]
    fn spills_past_inline_capacity_and_keeps_order() {
        let mut v: InlineVec<usize, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
            assert_eq!(&v[..], &(0..=i).collect::<Vec<_>>()[..]);
        }
        assert!(matches!(v.0, Repr::Heap(_)));
        v[4] = 9;
        assert_eq!(v, vec![0, 1, 2, 3, 9]);
        assert_eq!(v.pop(), Some(9));
        let mut w: InlineVec<usize, 2> = [7].as_slice().into();
        assert_eq!((w.pop(), w.pop()), (Some(7), None));
    }

    #[test]
    fn compares_hashes_and_prints_like_the_vec() {
        for elems in [vec![], vec![3], vec![2, 3, 4, 5], vec![1, 2, 3, 4, 5, 6]] {
            let v: InlineVec<usize, 4> = elems.clone().into();
            let w: InlineVec<usize, 4> = elems.iter().copied().collect();
            assert_eq!(v, w);
            assert_eq!(hash_of(&v), hash_of(&elems));
            assert_eq!(format!("{v:?}"), format!("{elems:?}"));
            assert_eq!(format!("{v:#?}"), format!("{elems:#?}"));
        }
    }

    #[test]
    fn stays_small() {
        assert!(std::mem::size_of::<InlineVec<usize, 4>>() <= 40);
    }
}
