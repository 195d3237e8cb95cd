//! Cheap-clone immutable byte buffers.
//!
//! Part of the zero-dependency substrate: an in-repo replacement for the
//! `bytes` crate, providing the two types the codec and the controllers
//! need. [`Bytes`] is an immutable, reference-counted view into a byte
//! allocation — cloning and slicing are O(1) and never copy, so a payload
//! can be handed to several consumers (or sliced into sub-messages)
//! without duplicating the data. [`BytesMut`] is a growable staging buffer
//! that freezes into a [`Bytes`].
//!
//! A buffer built from a `Vec<u8>` (so also a frozen [`BytesMut`] and a
//! finished [`Encoder`](crate::Encoder)) keeps that `Vec` behind an
//! `Arc`: the conversion moves the allocation and copies nothing. A copy
//! of a borrowed slice is one `Arc<[u8]>` allocation. Both are viewed
//! through an `(offset, len)` window; buffers built from `&'static [u8]`
//! borrow the static data directly and allocate nothing.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Backing storage of a [`Bytes`]: borrowed static data, a shared copy of
/// a slice, or a shared, moved-in `Vec`.
#[derive(Clone)]
enum Data {
    Static(&'static [u8]),
    Copied(Arc<[u8]>),
    Owned(Arc<Vec<u8>>),
}

/// An immutable, cheaply cloneable byte buffer.
///
/// `Bytes` dereferences to `&[u8]`, so all slice methods apply. Cloning
/// bumps a reference count; [`Bytes::slice`] produces a sub-view sharing
/// the same allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Data,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// A buffer borrowing `data` directly — zero-copy, no allocation.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes { off: 0, len: data.len(), data: Data::Static(data) }
    }

    /// A buffer holding a copy of `data`, in one allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { off: 0, len: data.len(), data: Data::Copied(Arc::from(data)) }
    }

    /// Number of bytes in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.data {
            Data::Static(s) => s,
            Data::Copied(a) => a,
            Data::Owned(v) => v,
        };
        &whole[self.off..self.off + self.len]
    }

    /// An O(1) sub-view sharing this buffer's allocation.
    ///
    /// # Panics
    /// If the range is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice range decreasing: {start} > {end}");
        assert!(end <= self.len, "slice range out of bounds: {end} > {}", self.len);
        Bytes { data: self.data.clone(), off: self.off + start, len: end - start }
    }

    /// Copy the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take ownership of `v`'s allocation: O(1), no copy.
    fn from(v: Vec<u8>) -> Self {
        Bytes { off: 0, len: v.len(), data: Data::Owned(Arc::new(v)) }
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    /// A copy of a small fixed-size value, in one allocation.
    fn from(v: [u8; N]) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A growable byte buffer that freezes into an immutable [`Bytes`].
///
/// This is the staging half of the codec: `Encoder` appends into a
/// `BytesMut` and `finish` freezes it without copying. It dereferences
/// mutably, so a header reserved up front can be filled in place before
/// the buffer is frozen.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ensure room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Append one byte.
    pub fn push(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a, b);
        let (Data::Owned(pa), Data::Owned(pb)) = (&a.data, &b.data) else {
            panic!("expected shared storage");
        };
        assert!(Arc::ptr_eq(pa, pb));
    }

    #[test]
    fn slice_is_a_window() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let mid = a.slice(2..5);
        assert_eq!(mid.as_slice(), &[2, 3, 4]);
        // Slicing a slice composes offsets.
        let inner = mid.slice(1..);
        assert_eq!(inner.as_slice(), &[3, 4]);
        assert_eq!(mid.slice(..0).len(), 0);
        assert_eq!(a.slice(..), a);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_end_panics() {
        Bytes::from(vec![1u8]).slice(0..2);
    }

    #[test]
    fn static_buffers_do_not_allocate() {
        let s = Bytes::from_static(b"hello");
        assert!(matches!(s.data, Data::Static(_)));
        assert!(matches!(s.slice(1..3).data, Data::Static(_)));
        assert_eq!(s.slice(1..3), *b"el");
    }

    #[test]
    fn equality_across_representations() {
        let v = vec![9u8, 8, 7];
        let heap = Bytes::from(v.clone());
        let copied = Bytes::copy_from_slice(&v);
        assert_eq!(heap, copied);
        assert_eq!(heap, v);
        assert_eq!(v, heap);
        assert_eq!(heap, v.as_slice());
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(2);
        m.extend_from_slice(&[1, 2]);
        m.push(3);
        m.reserve(16);
        assert_eq!(m.len(), 3);
        let frozen = m.freeze();
        assert_eq!(frozen, [1u8, 2, 3][..]);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![1u8, 2, 3, 4, 5];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr);

        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(&[7; 40]);
        let ptr = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), ptr);
        assert_eq!(frozen.slice(8..).as_ptr(), ptr.wrapping_add(8));
    }

    #[test]
    fn bytes_mut_fills_a_reserved_header_in_place() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[0; 4]);
        m.extend_from_slice(b"body");
        m[..4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(m.freeze(), *b"\x07\x00\x00\x00body");
    }

    #[test]
    fn ord_and_hash_follow_content() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![1u8, 2]);
        let b = Bytes::from_static(&[1, 2]);
        let c = Bytes::from(vec![1u8, 3]);
        assert!(a < c);
        let set: HashSet<Bytes> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
