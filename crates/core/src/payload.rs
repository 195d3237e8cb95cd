//! Data exchanged between tasks.
//!
//! The paper's `Payload` "is either a pointer to an in-memory object or a
//! binary buffer". [`Payload`] mirrors that union: controllers keep payloads
//! in [`Payload::InMemory`] form when producer and consumer share an address
//! space (the MPI controller "checks explicitly for inter-rank messages for
//! which it skips the serialization") and serialize to [`Payload::Buffer`]
//! across shard boundaries.
//!
//! In-memory payloads carry a type-erased encoder so a generic controller
//! can serialize them at a shard boundary without knowing the concrete type
//! — the controller never inspects user data, it only moves it.

use std::any::Any;
use std::sync::Arc;

use crate::buffer::Bytes;

use crate::codec::{DecodeError, Encoder};

type ErasedEncode = fn(&(dyn Any + Send + Sync), &mut Encoder);

fn encode_erased<T: PayloadData>(any: &(dyn Any + Send + Sync), e: &mut Encoder) {
    any.downcast_ref::<T>()
        .expect("erased encoder invoked on foreign type")
        .encode_into(e)
}

/// A value a task consumes or produces.
#[derive(Clone)]
pub enum Payload {
    /// A serialized representation, as produced by
    /// [`PayloadData::encode`]. This is what travels over a (simulated)
    /// network boundary.
    Buffer(Bytes),
    /// A shared in-memory object plus its type-erased encoder. Cheap to
    /// clone (reference counted); used for same-address-space edges to avoid
    /// de/serialization and copies.
    InMemory {
        /// The shared value.
        value: Arc<dyn Any + Send + Sync>,
        /// Serializer bound to the value's concrete type at wrap time.
        encode: ErasedEncode,
    },
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Buffer(b) => write!(f, "Payload::Buffer({} bytes)", b.len()),
            Payload::InMemory { .. } => write!(f, "Payload::InMemory(..)"),
        }
    }
}

/// Serialization contract for task inputs/outputs.
///
/// This is the second of the paper's "three basic steps" for the user:
/// "provide deserialization/serialization routines for the objects that are
/// exchanged between tasks". [`encode_into`](Self::encode_into) is the
/// one serializer a type writes: it appends to an [`Encoder`] that may
/// already hold a message header, so a controller serializes a payload
/// straight into the buffer that travels. Implementations must
/// round-trip: `decode(encode(x))` must be observably equal to `x`.
pub trait PayloadData: Send + Sync + Sized + 'static {
    /// Append the serialized form to `e`.
    fn encode_into(&self, e: &mut Encoder);
    /// Serialize to a buffer of its own.
    fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.finish()
    }
    /// Reconstruct from the bytes [`Self::encode_into`] wrote.
    fn decode(buf: &[u8]) -> Result<Self, DecodeError>;
}

impl Payload {
    /// Wrap an owned value without serializing it.
    pub fn wrap<T: PayloadData>(value: T) -> Self {
        Payload::InMemory { value: Arc::new(value), encode: encode_erased::<T> }
    }

    /// Wrap an already-shared value.
    pub fn wrap_arc<T: PayloadData>(value: Arc<T>) -> Self {
        Payload::InMemory { value, encode: encode_erased::<T> }
    }

    /// Wrap a serialized buffer.
    pub fn buffer(buf: Bytes) -> Self {
        Payload::Buffer(buf)
    }

    /// Serialized size if already a buffer, `None` otherwise.
    pub fn buffer_len(&self) -> Option<usize> {
        match self {
            Payload::Buffer(b) => Some(b.len()),
            Payload::InMemory { .. } => None,
        }
    }

    /// Whether this payload is in serialized form.
    pub fn is_buffer(&self) -> bool {
        matches!(self, Payload::Buffer(_))
    }

    /// Extract a typed view of the payload, deserializing if needed.
    ///
    /// Returns an error if the payload is in-memory but of a different type,
    /// or is a buffer that fails to decode as `T`. The in-memory path is a
    /// cheap downcast + refcount bump; the buffer path allocates a fresh
    /// `T`.
    pub fn extract<T: PayloadData>(&self) -> Result<Arc<T>, PayloadError> {
        match self {
            Payload::InMemory { value, .. } => value
                .clone()
                .downcast::<T>()
                .map_err(|_| PayloadError::TypeMismatch { expected: std::any::type_name::<T>() }),
            Payload::Buffer(buf) => T::decode(buf).map(Arc::new).map_err(PayloadError::Decode),
        }
    }

    /// Append this payload's serialized form to `e`, encoding in-memory
    /// values with no knowledge of their concrete type. Controllers call
    /// this on the sender side of cross-shard edges.
    pub fn encode_into(&self, e: &mut Encoder) {
        match self {
            Payload::Buffer(b) => e.put_raw(b),
            Payload::InMemory { value, encode } => encode(value.as_ref(), e),
        }
    }

    /// Serialized form of this payload, encoding in-memory values.
    pub fn to_buffer(&self) -> Bytes {
        match self {
            Payload::Buffer(b) => b.clone(),
            Payload::InMemory { .. } => {
                let mut e = Encoder::new();
                self.encode_into(&mut e);
                e.finish()
            }
        }
    }
}

/// Errors produced when reading a [`Payload`] as a concrete type.
#[derive(Debug)]
pub enum PayloadError {
    /// The in-memory payload holds a different concrete type.
    TypeMismatch {
        /// Name of the type the caller asked for.
        expected: &'static str,
    },
    /// The serialized payload failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::TypeMismatch { expected } => {
                write!(f, "payload type mismatch: expected {expected}")
            }
            PayloadError::Decode(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for PayloadError {}

/// A `PayloadData` implementation for raw byte blobs, useful for opaque
/// pass-through data (e.g. image fragments already in wire format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob(pub Vec<u8>);

impl PayloadData for Blob {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_raw(&self.0);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        Ok(Blob(buf.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Decoder;

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: f32,
    }

    impl PayloadData for Pair {
        fn encode_into(&self, e: &mut Encoder) {
            e.put_u64(self.a);
            e.put_f32(self.b);
        }

        fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
            let mut d = Decoder::new(buf);
            Ok(Pair { a: d.get_u64()?, b: d.get_f32()? })
        }
    }

    #[test]
    fn in_memory_extract_is_zero_copy() {
        let p = Payload::wrap(Pair { a: 1, b: 2.0 });
        let x = p.extract::<Pair>().unwrap();
        let y = p.extract::<Pair>().unwrap();
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!(*x, Pair { a: 1, b: 2.0 });
    }

    #[test]
    fn buffer_roundtrip() {
        let orig = Pair { a: 99, b: -0.5 };
        let p = Payload::buffer(orig.encode());
        assert!(p.is_buffer());
        assert_eq!(*p.extract::<Pair>().unwrap(), orig);
    }

    #[test]
    fn erased_to_buffer_matches_typed_encode() {
        let orig = Pair { a: 3, b: 7.5 };
        let expected = orig.encode();
        let p = Payload::wrap(orig);
        assert_eq!(p.to_buffer(), expected);
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        p.encode_into(&mut e);
        Payload::buffer(expected.clone()).encode_into(&mut e);
        let framed = e.finish();
        assert_eq!(framed[0], 0xAB);
        assert_eq!((&framed[1..13], &framed[13..]), (&expected[..], &expected[..]));
    }

    #[test]
    fn type_mismatch_reports_error() {
        let p = Payload::wrap(Blob(vec![1, 2, 3]));
        let err = p.extract::<Pair>().unwrap_err();
        assert!(matches!(err, PayloadError::TypeMismatch { .. }));
    }

    #[test]
    fn decode_failure_reports_error() {
        let p = Payload::buffer(Bytes::from_static(&[0u8; 3]));
        let err = p.extract::<Pair>().unwrap_err();
        assert!(matches!(err, PayloadError::Decode(_)));
    }

    #[test]
    fn blob_roundtrip() {
        let b = Blob(vec![9, 8, 7]);
        let p = Payload::buffer(b.encode());
        assert_eq!(*p.extract::<Blob>().unwrap(), b);
    }

    #[test]
    fn wrap_arc_shares_the_value() {
        let v = Arc::new(Blob(vec![1]));
        let p = Payload::wrap_arc(v.clone());
        let out = p.extract::<Blob>().unwrap();
        assert!(Arc::ptr_eq(&v, &out));
    }

    #[test]
    fn buffer_len_only_for_buffers() {
        assert_eq!(Payload::buffer(Bytes::from_static(b"abc")).buffer_len(), Some(3));
        assert_eq!(Payload::wrap(Blob(vec![])).buffer_len(), None);
    }
}
