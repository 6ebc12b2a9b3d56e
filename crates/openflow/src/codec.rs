//! Stream framing: splitting a TCP byte stream into OpenFlow messages.
//!
//! The RUM prototype (paper §4) is a TCP proxy that sits between switches
//! and the controller.  [`OfCodec`] accumulates raw bytes from a socket and
//! yields complete [`OfMessage`]s; it also serializes outgoing messages.  The
//! codec is deliberately runtime-agnostic: the `rum-tcp` crate drives it from
//! blocking std sockets, and tests drive it from in-memory buffers.

use crate::error::{DecodeError, EncodeError};
use crate::messages::{OfHeader, OfMessage, OFP_HEADER_LEN};

/// Consumed bytes accumulate at the front of the scratch buffer until this
/// many are pending, then one `memmove` reclaims the space.  Keeping the
/// threshold above the typical read size means steady-state decoding does no
/// allocation and only rare, bounded copies.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// An incremental decoder/encoder for an OpenFlow byte stream.
///
/// The decoder owns one scratch buffer that is reused across frames and
/// reads: `feed` appends, `next_message` advances a cursor over complete
/// frames, and the consumed prefix is compacted in place once it grows past
/// a fixed threshold — no per-frame allocation or copying.
#[derive(Debug, Default)]
pub struct OfCodec {
    buffer: Vec<u8>,
    /// Length of the already-decoded prefix of `buffer`.
    pos: usize,
}

impl OfCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        OfCodec {
            buffer: Vec::with_capacity(4096),
            pos: 0,
        }
    }

    /// Appends raw bytes received from the peer.
    pub fn feed(&mut self, data: &[u8]) {
        if self.pos == self.buffer.len() {
            self.buffer.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buffer.copy_within(self.pos.., 0);
            self.buffer.truncate(self.buffer.len() - self.pos);
            self.pos = 0;
        }
        self.buffer.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.pos
    }

    /// Attempts to decode the next complete message from the buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed.  A framing-level error
    /// (bad version, bad length, unknown type) is returned as `Err` and the
    /// offending frame is discarded so the stream can attempt to resync.
    pub fn next_message(&mut self) -> Result<Option<OfMessage>, DecodeError> {
        let pending = &self.buffer[self.pos..];
        if pending.len() < OFP_HEADER_LEN {
            return Ok(None);
        }
        let header = OfHeader::peek(pending)?;
        let declared = header.length as usize;
        if declared < OFP_HEADER_LEN {
            // Drop the stream contents: a length smaller than the header is
            // unrecoverable desynchronisation.
            self.reset();
            return Err(DecodeError::BadLength {
                what: "ofp_header.length",
                len: declared,
            });
        }
        if pending.len() < declared {
            return Ok(None);
        }
        let frame = &pending[..declared];
        let result = OfMessage::decode(frame).map(Some);
        // The frame is consumed whether or not it decoded — a bad frame is
        // skipped so the stream can resync on the next one.
        self.pos += declared;
        result
    }

    /// Decodes every complete message currently buffered.
    pub fn drain_messages(&mut self) -> Result<Vec<OfMessage>, DecodeError> {
        let mut out = Vec::new();
        self.drain_messages_into(&mut out)?;
        Ok(out)
    }

    /// Decodes every complete message currently buffered, appending to a
    /// caller-owned vector (reused across reads on the socket hot path).
    pub fn drain_messages_into(&mut self, out: &mut Vec<OfMessage>) -> Result<(), DecodeError> {
        while let Some(msg) = self.next_message()? {
            out.push(msg);
        }
        Ok(())
    }

    /// Serializes a message for transmission.
    pub fn encode(&self, msg: &OfMessage) -> Result<Vec<u8>, EncodeError> {
        msg.encode_to_vec()
    }

    /// Appends the encoded message to a caller-owned buffer — the
    /// allocation-free form of [`OfCodec::encode`].
    pub fn encode_into(&self, msg: &OfMessage, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        msg.encode_into(out)
    }

    /// Serializes a batch of messages into one contiguous buffer (useful to
    /// issue a flow-mod burst followed by a barrier in a single write).
    pub fn encode_batch(&self, msgs: &[OfMessage]) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(msgs.iter().map(OfMessage::wire_len).sum());
        self.encode_batch_into(msgs, &mut out)?;
        Ok(out)
    }

    /// Appends an encoded batch to a caller-owned buffer, encoding each
    /// message in place (no per-message allocation).
    pub fn encode_batch_into(
        &self,
        msgs: &[OfMessage],
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        out.reserve(msgs.iter().map(OfMessage::wire_len).sum());
        for m in msgs {
            m.encode_into(out)?;
        }
        Ok(())
    }

    /// Discards all buffered bytes (e.g. after a connection reset).
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::flow_match::OfMatch;
    use crate::messages::FlowMod;
    use std::net::Ipv4Addr;

    fn sample_messages() -> Vec<OfMessage> {
        vec![
            OfMessage::Hello { xid: 1 },
            OfMessage::FlowMod {
                xid: 2,
                body: FlowMod::add(
                    OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
                    10,
                    vec![Action::output(1)],
                ),
            },
            OfMessage::BarrierRequest { xid: 3 },
            OfMessage::EchoRequest {
                xid: 4,
                data: vec![0xab; 32],
            },
        ]
    }

    #[test]
    fn feed_all_at_once() {
        let msgs = sample_messages();
        let mut codec = OfCodec::new();
        let bytes = codec.encode_batch(&msgs).unwrap();
        codec.feed(&bytes);
        let decoded = codec.drain_messages().unwrap();
        assert_eq!(decoded, msgs);
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn feed_byte_by_byte() {
        let msgs = sample_messages();
        let mut codec = OfCodec::new();
        let bytes = codec.encode_batch(&msgs).unwrap();
        let mut decoded = Vec::new();
        for b in bytes {
            codec.feed(&[b]);
            while let Some(m) = codec.next_message().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn partial_message_returns_none() {
        let mut codec = OfCodec::new();
        let bytes = OfMessage::EchoRequest {
            xid: 1,
            data: vec![1, 2, 3, 4],
        }
        .encode_to_vec()
        .unwrap();
        codec.feed(&bytes[..6]);
        assert!(codec.next_message().unwrap().is_none());
        codec.feed(&bytes[6..]);
        assert!(codec.next_message().unwrap().is_some());
    }

    #[test]
    fn bad_length_clears_buffer() {
        let mut codec = OfCodec::new();
        // length field of 4 (< header size) is unrecoverable
        codec.feed(&[0x01, 0x00, 0x00, 0x04, 0, 0, 0, 1]);
        assert!(codec.next_message().is_err());
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn unknown_type_skips_frame_but_keeps_stream() {
        let mut codec = OfCodec::new();
        let mut bad = OfMessage::Hello { xid: 1 }.encode_to_vec().unwrap();
        bad[1] = 77; // unknown type
        let good = OfMessage::BarrierReply { xid: 2 }.encode_to_vec().unwrap();
        codec.feed(&bad);
        codec.feed(&good);
        assert!(codec.next_message().is_err());
        // The bad frame was consumed; the good one is still decodable.
        let msg = codec.next_message().unwrap().unwrap();
        assert_eq!(msg, OfMessage::BarrierReply { xid: 2 });
    }

    #[test]
    fn reset_discards_buffered_bytes() {
        let mut codec = OfCodec::new();
        codec.feed(&[1, 2, 3]);
        assert_eq!(codec.buffered(), 3);
        codec.reset();
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn decoder_scratch_is_reused_across_frames() {
        let msgs = sample_messages();
        let mut codec = OfCodec::new();
        let wire = codec.encode_batch(&msgs).unwrap();
        // Warm up the scratch buffer once...
        codec.feed(&wire);
        assert_eq!(codec.drain_messages().unwrap().len(), msgs.len());
        let cap = codec.buffer.capacity();
        let ptr = codec.buffer.as_ptr();
        // ... then many more rounds must not grow or reallocate it.
        for _ in 0..100 {
            codec.feed(&wire);
            assert_eq!(codec.drain_messages().unwrap().len(), msgs.len());
        }
        assert_eq!(codec.buffer.capacity(), cap);
        assert_eq!(codec.buffer.as_ptr(), ptr);
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn consumed_prefix_is_compacted_past_the_threshold() {
        let msg = OfMessage::EchoRequest {
            xid: 1,
            data: vec![0xaa; 1024],
        };
        let wire = msg.encode_to_vec().unwrap();
        let mut codec = OfCodec::new();
        // Feed a partial frame so the buffer is never fully consumed, then
        // keep the stream going long past the compaction threshold.
        for _ in 0..2 * COMPACT_THRESHOLD / wire.len() {
            codec.feed(&wire);
            codec.feed(&wire[..3]); // next frame arrives split
            while codec.next_message().unwrap().is_some() {}
            codec.feed(&wire[3..]);
            while codec.next_message().unwrap().is_some() {}
        }
        assert_eq!(codec.buffered(), 0);
        assert!(
            codec.pos < COMPACT_THRESHOLD + wire.len(),
            "consumed prefix must be compacted, pos = {}",
            codec.pos
        );
    }

    #[test]
    fn encode_into_appends_and_batches() {
        let msgs = sample_messages();
        let codec = OfCodec::new();
        let mut buf = Vec::new();
        for m in &msgs {
            codec.encode_into(m, &mut buf).unwrap();
        }
        assert_eq!(buf, codec.encode_batch(&msgs).unwrap());
        // Appending a batch after existing content preserves the prefix.
        let mut appended = b"prefix".to_vec();
        codec.encode_batch_into(&msgs, &mut appended).unwrap();
        assert_eq!(&appended[..6], b"prefix");
        assert_eq!(&appended[6..], &buf[..]);
    }
}
