//! Wire format of dataflow messages between ranks: the `u32` plan index
//! and `u32` input slot the sender's route names, the `u64` source task,
//! the `u64` payload length, then the payload, all little-endian. Every
//! rank runs the same plan, so the receiver fills the named slot with no
//! lookup. A message is serialized once, into the frame the reliable
//! layer sends and retains, and read in place on receipt.

use babelflow_core::{Bytes, BytesMut, Decoder, Encoder, Payload, TaskId};

use crate::reliable::SEQ_ROOM;

/// Tag used for dataflow payload messages.
pub const TAG_DATAFLOW: u32 = 0;

/// Bytes of a dataflow message before its payload.
pub const HEADER_LEN: usize = 24;

/// A received dataflow message: which input slot it fills, which task
/// sent it, and the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowMsg {
    /// The consumer's plan index and the input slot the payload fills.
    pub dst: (u32, u32),
    /// Producing task.
    pub src_task: TaskId,
    /// Serialized payload.
    pub payload: Bytes,
}

impl DataflowMsg {
    /// Serialize the message `src_task` sends to `dst` (a plan index and
    /// input slot) into a new frame for [`ReliableEndpoint::send`](crate::ReliableEndpoint::send):
    /// [`SEQ_ROOM`] bytes left for the sequence number, the header, then
    /// `payload`, encoded in place ("each rank … skips the serialization"
    /// only for local messages — this is the remote path). This is the
    /// one copy of the payload's bytes between sender and receiver.
    pub fn encode_frame(dst: (u32, u32), src_task: TaskId, payload: &Payload) -> BytesMut {
        // Room for a small payload; a large one reserves its own size.
        let mut e = Encoder::with_capacity(SEQ_ROOM + HEADER_LEN + 64);
        e.put_u64(0);
        e.put_u32(dst.0);
        e.put_u32(dst.1);
        e.put_u64(src_task.0);
        e.put_len_prefixed(|e| payload.encode_into(e));
        e.into_inner()
    }

    /// Decode a message body (a frame without its sequence number);
    /// `None` on malformed input. The payload is an O(1) slice of `buf`.
    pub fn decode(buf: &Bytes) -> Option<Self> {
        let mut d = Decoder::new(buf);
        let dst = (d.get_u32().ok()?, d.get_u32().ok()?);
        let src_task = TaskId(d.get_u64().ok()?);
        let len = d.get_bytes().ok()?.len();
        d.is_done().then(|| DataflowMsg {
            dst,
            src_task,
            payload: buf.slice(HEADER_LEN..HEADER_LEN + len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::Blob;

    /// The message body of a frame: what the receiver reads once the
    /// sequence number is stripped.
    fn body(dst: (u32, u32), src: u64, payload: &Payload) -> Bytes {
        DataflowMsg::encode_frame(dst, TaskId(src), payload).freeze().slice(SEQ_ROOM..)
    }

    #[test]
    fn roundtrip() {
        let payload = Payload::wrap(Blob(vec![1, 2, 3]));
        for dst in [(5, 2), (u32::MAX, u32::MAX)] {
            let back = DataflowMsg::decode(&body(dst, 9, &payload)).unwrap();
            let sent = DataflowMsg { dst, src_task: TaskId(9), payload: payload.to_buffer() };
            assert_eq!(back, sent);
        }
    }

    #[test]
    fn layout_is_header_then_payload() {
        let encoded = body((5, 2), 9, &Payload::wrap(Blob(vec![1, 2, 3])));
        let mut e = Encoder::new();
        e.put_u32(5);
        e.put_u32(2);
        e.put_u64(9);
        e.put_bytes(&[1, 2, 3]);
        assert_eq!(encoded, e.finish());
        assert_eq!(encoded.len(), HEADER_LEN + 3);
        // A payload already in buffer form encodes to the same bytes.
        let buffered = Payload::buffer(Bytes::from_static(&[1, 2, 3]));
        assert_eq!(body((5, 2), 9, &buffered), encoded);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = body((0, 1), 1, &Payload::buffer(Bytes::new())).to_vec();
        bytes.push(0xFF);
        assert!(DataflowMsg::decode(&Bytes::from(bytes)).is_none());
    }

    #[test]
    fn truncated_rejected() {
        let bytes = body((0, 1), 1, &Payload::buffer(Bytes::from_static(b"abc")));
        assert!(DataflowMsg::decode(&bytes.slice(..bytes.len() - 1)).is_none());
        assert!(DataflowMsg::decode(&bytes.slice(..HEADER_LEN - 1)).is_none());
    }
}
