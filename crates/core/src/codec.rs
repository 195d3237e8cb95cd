//! A small, dependency-free binary codec.
//!
//! BabelFlow requires users to "provide deserialization/serialization
//! routines for the objects that are exchanged between tasks". This module
//! supplies the primitives those routines are written with: a little-endian
//! [`Encoder`]/[`Decoder`] pair over flat byte buffers. It is deliberately
//! minimal — no self-description, no versioning — because task payloads are
//! always decoded by code compiled from the same crate graph.

use crate::buffer::{Bytes, BytesMut, FRAMES};

/// Streaming little-endian encoder writing into a growable buffer.
///
/// The `put_*` methods are named after the type they write. The slice
/// writers copy a whole run at once, not one element at a time; their
/// bytes are those of the element-by-element loop.
#[allow(missing_docs)]
pub struct Encoder {
    buf: Vec<u8>,
}

#[allow(missing_docs)]
impl Encoder {
    /// Create an encoder with a default capacity.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Create an encoder pre-sized for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap) }
    }

    /// Finish encoding and return the immutable buffer (O(1): the
    /// encoder's allocation becomes the buffer's).
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finish encoding but keep the buffer writable, so a header reserved
    /// at its front can be filled in before it is frozen.
    pub fn into_inner(self) -> BytesMut {
        BytesMut::from(self.buf)
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ensure room for `additional` more bytes, so a writer that knows
    /// its size grows the buffer once. A large buffer comes from the
    /// frame pool (see [`Recycler`](crate::buffer::Recycler)), so it is
    /// memory a previous message already touched.
    pub fn reserve(&mut self, additional: usize) {
        if additional > self.buf.capacity() - self.buf.len() {
            let mut grown = FRAMES.take(self.buf.len().saturating_add(additional));
            grown.extend_from_slice(&self.buf);
            FRAMES.give(std::mem::replace(&mut self.buf, grown));
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write raw bytes, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.put_raw(v);
    }

    /// Write a UTF-8 string with a length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write what `body` writes, with its byte length as a prefix: the
    /// bytes of `put_bytes` on a separate encoding, without the separate
    /// buffer.
    pub fn put_len_prefixed(&mut self, body: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.put_u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Append `v`'s elements as `N`-byte little-endian words in one pass
    /// over a pre-sized tail.
    fn put_words<T: Copy, const N: usize>(&mut self, v: &[T], le: fn(T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + v.len() * N, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(N).zip(v) {
            dst.copy_from_slice(&le(x));
        }
    }

    /// Write `f32` values, with no length prefix.
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_words(v, f32::to_le_bytes);
    }

    /// Write a length-prefixed slice of `f32` values.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        self.put_f32s(v);
    }

    /// Write a length-prefixed slice of `u32` values.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        self.put_words(v, u32::to_le_bytes);
    }

    /// Write a length-prefixed slice of `u64` values.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        self.put_words(v, u64::to_le_bytes);
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Error produced when a [`Decoder`] runs out of input or reads malformed
/// data. Payload decoding failures indicate a bug in matching ser/de pairs,
/// so controllers surface this as a hard error rather than a recoverable one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable context of the failed read.
    pub what: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Streaming little-endian decoder over a byte slice.
///
/// The `get_*` methods are named after the type they read.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[allow(missing_docs)]
impl<'a> Decoder<'a> {
    /// Start decoding from the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the full input has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    pub fn get_i32(&mut self) -> Result<i32, DecodeError> {
        Ok(i32::from_le_bytes(self.take(4, "i32")?.try_into().unwrap()))
    }

    pub fn get_f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.take(4, "f32")?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().unwrap()))
    }

    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| DecodeError { what: "usize overflow" })
    }

    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a length-prefixed byte slice (borrowed from the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.get_usize()?;
        self.take(n, "bytes body")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| DecodeError { what: "utf8" })
    }

    /// Read `n` little-endian `N`-byte words, after checking that the
    /// input holds them all.
    fn get_words<T, const N: usize>(
        &mut self,
        n: usize,
        what: &'static str,
        from_le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let raw = self.take(n.checked_mul(N).ok_or(DecodeError { what })?, what)?;
        Ok(raw.chunks_exact(N).map(|c| from_le(c.try_into().expect("N bytes"))).collect())
    }

    /// Fill `out` with `f32` values written by [`Encoder::put_f32s`].
    pub fn get_f32s_into(&mut self, out: &mut [f32]) -> Result<(), DecodeError> {
        let n = out.len().checked_mul(4).ok_or(DecodeError { what: "f32 run len" })?;
        let raw = self.take(n, "f32 run body")?;
        for (x, c) in out.iter_mut().zip(raw.chunks_exact(4)) {
            *x = f32::from_le_bytes(c.try_into().expect("4 bytes"));
        }
        Ok(())
    }

    /// Read a length-prefixed `f32` slice into a vector.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.get_usize()?;
        self.get_words(n, "f32 vec body", f32::from_le_bytes)
    }

    /// Read a length-prefixed `u32` slice into a vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.get_usize()?;
        self.get_words(n, "u32 vec body", u32::from_le_bytes)
    }

    /// Read a length-prefixed `u64` slice into a vector.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, DecodeError> {
        let n = self.get_usize()?;
        self.get_words(n, "u64 vec body", u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEADBEEF);
        e.put_u64(u64::MAX - 1);
        e.put_i64(-42);
        e.put_i32(-7);
        e.put_f32(3.5);
        e.put_f64(-2.25);
        e.put_bool(true);
        e.put_str("hello");
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_i32().unwrap(), -7);
        assert_eq!(d.get_f32().unwrap(), 3.5);
        assert_eq!(d.get_f64().unwrap(), -2.25);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "hello");
        assert!(d.is_done());
    }

    #[test]
    fn roundtrip_slices() {
        let mut e = Encoder::new();
        e.put_f32_slice(&[1.0, -2.0, 0.5]);
        e.put_u64_slice(&[1, 2, 3, u64::MAX]);
        e.put_u32_slice(&[7, u32::MAX]);
        e.put_f32s(&[4.0, -0.0]);
        e.put_bytes(b"\x00\x01\x02");
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_f32_vec().unwrap(), vec![1.0, -2.0, 0.5]);
        assert_eq!(d.get_u64_vec().unwrap(), vec![1, 2, 3, u64::MAX]);
        assert_eq!(d.get_u32_vec().unwrap(), vec![7, u32::MAX]);
        let mut run = [0.0f32; 2];
        d.get_f32s_into(&mut run).unwrap();
        assert_eq!((run[0], run[1].to_bits()), (4.0, (-0.0f32).to_bits()));
        assert_eq!(d.get_bytes().unwrap(), b"\x00\x01\x02");
        assert!(d.is_done());
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.put_u64(5);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..4]);
        assert!(d.get_u64().is_err());
    }

    #[test]
    fn bad_utf8_errors() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert!(d.get_str().is_err());
    }

    #[test]
    fn length_prefix_longer_than_input_errors() {
        let mut e = Encoder::new();
        e.put_usize(1000);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert!(d.get_bytes().is_err());
    }

    #[test]
    fn len_prefixed_matches_put_bytes() {
        let mut nested = Encoder::new();
        nested.put_u32(5);
        nested.put_str("abc");
        let inner = nested.finish();
        let mut via_buffer = Encoder::new();
        via_buffer.put_u8(1);
        via_buffer.put_bytes(&inner);
        let mut in_place = Encoder::new();
        in_place.put_u8(1);
        in_place.put_len_prefixed(|e| {
            e.put_u32(5);
            e.put_str("abc");
        });
        assert_eq!(in_place.finish(), via_buffer.finish());
    }

    #[test]
    fn finish_keeps_the_encoder_allocation() {
        let mut e = Encoder::with_capacity(32);
        e.put_u64(9);
        let ptr = e.buf.as_ptr();
        assert_eq!(e.finish().as_ptr(), ptr);
    }

    #[test]
    fn empty_slices_roundtrip() {
        let mut e = Encoder::new();
        e.put_f32_slice(&[]);
        e.put_u64_slice(&[]);
        e.put_str("");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_f32_vec().unwrap(), Vec::<f32>::new());
        assert_eq!(d.get_u64_vec().unwrap(), Vec::<u64>::new());
        assert_eq!(d.get_str().unwrap(), "");
        assert!(d.is_done());
    }
}
