//! OpenFlow 1.0 messages: the [`OfMessage`] enum and its wire codec.
//!
//! Every message the proxy, switch or controller exchanges is an
//! [`OfMessage`].  Messages are encoded with [`OfMessage::encode`] and decoded
//! from a full frame with [`OfMessage::decode`]; stream framing (splitting a
//! TCP byte stream into frames) lives in [`crate::codec`].

pub mod flow_mod;
pub mod packet_io;
pub mod stats;
pub mod switch_config;

pub use flow_mod::{FlowMod, FlowModCommand, FlowRemoved};
pub use packet_io::{PacketIn, PacketOut, PhyPort, PortStatus};
pub use stats::{
    FlowStatsAccumulator, FlowStatsEntry, PortStatsEntry, StatsReply, StatsRequest,
    TableStatsEntry, MAX_STATS_BODY, STATS_REPLY_MORE,
};
pub use switch_config::{FeaturesReply, PortMod, SwitchConfig};

use crate::constants::msg_type;
use crate::error::{DecodeError, EncodeError};
use crate::types::Xid;
use crate::OFP_VERSION;
use bytes::{Buf, BufMut};

/// Size of the fixed OpenFlow header.
pub const OFP_HEADER_LEN: usize = 8;

/// The fixed OpenFlow header preceding every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfHeader {
    /// Protocol version (always 0x01 here).
    pub version: u8,
    /// Message type (see [`crate::constants::msg_type`]).
    pub msg_type: u8,
    /// Total message length including this header.
    pub length: u16,
    /// Transaction id.
    pub xid: Xid,
}

impl OfHeader {
    /// Decodes a header from the first 8 bytes of a buffer without consuming
    /// them (peek), so stream framing can wait for the full message.
    pub fn peek(buf: &[u8]) -> Result<OfHeader, DecodeError> {
        if buf.len() < OFP_HEADER_LEN {
            return Err(DecodeError::Truncated {
                what: "ofp_header",
                needed: OFP_HEADER_LEN,
                available: buf.len(),
            });
        }
        Ok(OfHeader {
            version: buf[0],
            msg_type: buf[1],
            length: u16::from_be_bytes([buf[2], buf[3]]),
            xid: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        })
    }

    /// Encodes the header.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.version);
        buf.put_u8(self.msg_type);
        buf.put_u16(self.length);
        buf.put_u32(self.xid);
    }
}

/// The body of an error message (`OFPT_ERROR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMsg {
    /// High-level error type (see [`crate::constants::error_type`]).
    pub err_type: u16,
    /// Type-specific error code.
    pub code: u16,
    /// At least 64 bytes of the offending request, or ASCII text.
    pub data: Vec<u8>,
}

/// A fully parsed OpenFlow 1.0 message (header payload + xid).
///
/// The xid is carried alongside the payload because the RUM proxy routinely
/// needs to correlate replies with requests and to re-stamp messages it
/// forwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfMessage {
    /// OFPT_HELLO.
    Hello {
        /// Transaction id.
        xid: Xid,
    },
    /// OFPT_ERROR — also used (with [`crate::constants::error_type::RUM_ACK`])
    /// as RUM's positive acknowledgment channel.
    Error {
        /// Transaction id.
        xid: Xid,
        /// Error body.
        body: ErrorMsg,
    },
    /// OFPT_ECHO_REQUEST.
    EchoRequest {
        /// Transaction id.
        xid: Xid,
        /// Arbitrary payload echoed back.
        data: Vec<u8>,
    },
    /// OFPT_ECHO_REPLY.
    EchoReply {
        /// Transaction id.
        xid: Xid,
        /// Echoed payload.
        data: Vec<u8>,
    },
    /// OFPT_VENDOR.
    Vendor {
        /// Transaction id.
        xid: Xid,
        /// Vendor id.
        vendor: u32,
        /// Opaque vendor body.
        data: Vec<u8>,
    },
    /// OFPT_FEATURES_REQUEST.
    FeaturesRequest {
        /// Transaction id.
        xid: Xid,
    },
    /// OFPT_FEATURES_REPLY.
    FeaturesReply {
        /// Transaction id.
        xid: Xid,
        /// Reply body.
        body: FeaturesReply,
    },
    /// OFPT_GET_CONFIG_REQUEST.
    GetConfigRequest {
        /// Transaction id.
        xid: Xid,
    },
    /// OFPT_GET_CONFIG_REPLY.
    GetConfigReply {
        /// Transaction id.
        xid: Xid,
        /// Switch configuration.
        config: SwitchConfig,
    },
    /// OFPT_SET_CONFIG.
    SetConfig {
        /// Transaction id.
        xid: Xid,
        /// Switch configuration.
        config: SwitchConfig,
    },
    /// OFPT_PACKET_IN.
    PacketIn {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: PacketIn,
    },
    /// OFPT_FLOW_REMOVED.
    FlowRemoved {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: FlowRemoved,
    },
    /// OFPT_PORT_STATUS.
    PortStatus {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: PortStatus,
    },
    /// OFPT_PACKET_OUT.
    PacketOut {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: PacketOut,
    },
    /// OFPT_FLOW_MOD.
    FlowMod {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: FlowMod,
    },
    /// OFPT_PORT_MOD.
    PortMod {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: PortMod,
    },
    /// OFPT_STATS_REQUEST.
    StatsRequest {
        /// Transaction id.
        xid: Xid,
        /// Message body.
        body: StatsRequest,
    },
    /// OFPT_STATS_REPLY.
    StatsReply {
        /// Transaction id.
        xid: Xid,
        /// `OFPSF_REPLY_MORE`: further fragments of this reply follow (large
        /// replies are split into fragments sharing one xid).
        more: bool,
        /// Message body.
        body: StatsReply,
    },
    /// OFPT_BARRIER_REQUEST.
    BarrierRequest {
        /// Transaction id.
        xid: Xid,
    },
    /// OFPT_BARRIER_REPLY.
    BarrierReply {
        /// Transaction id.
        xid: Xid,
    },
    /// OFPT_QUEUE_GET_CONFIG_REQUEST / REPLY, carried opaquely.
    QueueGetConfig {
        /// Transaction id.
        xid: Xid,
        /// True for the reply direction.
        reply: bool,
        /// Raw body bytes.
        data: Vec<u8>,
    },
}

impl OfMessage {
    /// The transaction id of this message.
    pub fn xid(&self) -> Xid {
        match self {
            OfMessage::Hello { xid }
            | OfMessage::Error { xid, .. }
            | OfMessage::EchoRequest { xid, .. }
            | OfMessage::EchoReply { xid, .. }
            | OfMessage::Vendor { xid, .. }
            | OfMessage::FeaturesRequest { xid }
            | OfMessage::FeaturesReply { xid, .. }
            | OfMessage::GetConfigRequest { xid }
            | OfMessage::GetConfigReply { xid, .. }
            | OfMessage::SetConfig { xid, .. }
            | OfMessage::PacketIn { xid, .. }
            | OfMessage::FlowRemoved { xid, .. }
            | OfMessage::PortStatus { xid, .. }
            | OfMessage::PacketOut { xid, .. }
            | OfMessage::FlowMod { xid, .. }
            | OfMessage::PortMod { xid, .. }
            | OfMessage::StatsRequest { xid, .. }
            | OfMessage::StatsReply { xid, .. }
            | OfMessage::BarrierRequest { xid }
            | OfMessage::BarrierReply { xid }
            | OfMessage::QueueGetConfig { xid, .. } => *xid,
        }
    }

    /// Rewrites the transaction id (the proxy re-stamps forwarded messages).
    pub fn set_xid(&mut self, new_xid: Xid) {
        match self {
            OfMessage::Hello { xid }
            | OfMessage::Error { xid, .. }
            | OfMessage::EchoRequest { xid, .. }
            | OfMessage::EchoReply { xid, .. }
            | OfMessage::Vendor { xid, .. }
            | OfMessage::FeaturesRequest { xid }
            | OfMessage::FeaturesReply { xid, .. }
            | OfMessage::GetConfigRequest { xid }
            | OfMessage::GetConfigReply { xid, .. }
            | OfMessage::SetConfig { xid, .. }
            | OfMessage::PacketIn { xid, .. }
            | OfMessage::FlowRemoved { xid, .. }
            | OfMessage::PortStatus { xid, .. }
            | OfMessage::PacketOut { xid, .. }
            | OfMessage::FlowMod { xid, .. }
            | OfMessage::PortMod { xid, .. }
            | OfMessage::StatsRequest { xid, .. }
            | OfMessage::StatsReply { xid, .. }
            | OfMessage::BarrierRequest { xid }
            | OfMessage::BarrierReply { xid }
            | OfMessage::QueueGetConfig { xid, .. } => *xid = new_xid,
        }
    }

    /// The message type code.
    pub fn msg_type(&self) -> u8 {
        match self {
            OfMessage::Hello { .. } => msg_type::HELLO,
            OfMessage::Error { .. } => msg_type::ERROR,
            OfMessage::EchoRequest { .. } => msg_type::ECHO_REQUEST,
            OfMessage::EchoReply { .. } => msg_type::ECHO_REPLY,
            OfMessage::Vendor { .. } => msg_type::VENDOR,
            OfMessage::FeaturesRequest { .. } => msg_type::FEATURES_REQUEST,
            OfMessage::FeaturesReply { .. } => msg_type::FEATURES_REPLY,
            OfMessage::GetConfigRequest { .. } => msg_type::GET_CONFIG_REQUEST,
            OfMessage::GetConfigReply { .. } => msg_type::GET_CONFIG_REPLY,
            OfMessage::SetConfig { .. } => msg_type::SET_CONFIG,
            OfMessage::PacketIn { .. } => msg_type::PACKET_IN,
            OfMessage::FlowRemoved { .. } => msg_type::FLOW_REMOVED,
            OfMessage::PortStatus { .. } => msg_type::PORT_STATUS,
            OfMessage::PacketOut { .. } => msg_type::PACKET_OUT,
            OfMessage::FlowMod { .. } => msg_type::FLOW_MOD,
            OfMessage::PortMod { .. } => msg_type::PORT_MOD,
            OfMessage::StatsRequest { .. } => msg_type::STATS_REQUEST,
            OfMessage::StatsReply { .. } => msg_type::STATS_REPLY,
            OfMessage::BarrierRequest { .. } => msg_type::BARRIER_REQUEST,
            OfMessage::BarrierReply { .. } => msg_type::BARRIER_REPLY,
            OfMessage::QueueGetConfig { reply, .. } => {
                if *reply {
                    msg_type::QUEUE_GET_CONFIG_REPLY
                } else {
                    msg_type::QUEUE_GET_CONFIG_REQUEST
                }
            }
        }
    }

    /// A short human-readable name for logs and traces.
    pub fn name(&self) -> &'static str {
        match self {
            OfMessage::Hello { .. } => "Hello",
            OfMessage::Error { .. } => "Error",
            OfMessage::EchoRequest { .. } => "EchoRequest",
            OfMessage::EchoReply { .. } => "EchoReply",
            OfMessage::Vendor { .. } => "Vendor",
            OfMessage::FeaturesRequest { .. } => "FeaturesRequest",
            OfMessage::FeaturesReply { .. } => "FeaturesReply",
            OfMessage::GetConfigRequest { .. } => "GetConfigRequest",
            OfMessage::GetConfigReply { .. } => "GetConfigReply",
            OfMessage::SetConfig { .. } => "SetConfig",
            OfMessage::PacketIn { .. } => "PacketIn",
            OfMessage::FlowRemoved { .. } => "FlowRemoved",
            OfMessage::PortStatus { .. } => "PortStatus",
            OfMessage::PacketOut { .. } => "PacketOut",
            OfMessage::FlowMod { .. } => "FlowMod",
            OfMessage::PortMod { .. } => "PortMod",
            OfMessage::StatsRequest { .. } => "StatsRequest",
            OfMessage::StatsReply { .. } => "StatsReply",
            OfMessage::BarrierRequest { .. } => "BarrierRequest",
            OfMessage::BarrierReply { .. } => "BarrierReply",
            OfMessage::QueueGetConfig { .. } => "QueueGetConfig",
        }
    }

    /// True if this message mutates switch state (and therefore matters to
    /// barrier ordering in the RUM layer).
    pub fn is_state_modifying(&self) -> bool {
        matches!(
            self,
            OfMessage::FlowMod { .. }
                | OfMessage::PortMod { .. }
                | OfMessage::SetConfig { .. }
                | OfMessage::PacketOut { .. }
        )
    }

    /// Length of the body (everything after the 8-byte header).
    pub fn body_len(&self) -> usize {
        match self {
            OfMessage::Hello { .. }
            | OfMessage::FeaturesRequest { .. }
            | OfMessage::GetConfigRequest { .. }
            | OfMessage::BarrierRequest { .. }
            | OfMessage::BarrierReply { .. } => 0,
            OfMessage::Error { body, .. } => 4 + body.data.len(),
            OfMessage::EchoRequest { data, .. } | OfMessage::EchoReply { data, .. } => data.len(),
            OfMessage::Vendor { data, .. } => 4 + data.len(),
            OfMessage::FeaturesReply { body, .. } => body.body_len(),
            OfMessage::GetConfigReply { .. } | OfMessage::SetConfig { .. } => {
                switch_config::SWITCH_CONFIG_LEN
            }
            OfMessage::PacketIn { body, .. } => body.body_len(),
            OfMessage::FlowRemoved { body, .. } => body.body_len(),
            OfMessage::PortStatus { body, .. } => body.body_len(),
            OfMessage::PacketOut { body, .. } => body.body_len(),
            OfMessage::FlowMod { body, .. } => body.body_len(),
            OfMessage::PortMod { .. } => switch_config::PORT_MOD_LEN,
            OfMessage::StatsRequest { body, .. } => body.body_len(),
            OfMessage::StatsReply { body, .. } => body.body_len(),
            OfMessage::QueueGetConfig { data, .. } => data.len(),
        }
    }

    /// Total encoded length including the header.
    pub fn wire_len(&self) -> usize {
        OFP_HEADER_LEN + self.body_len()
    }

    /// Encodes the full message (header + body) into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) -> Result<(), EncodeError> {
        let total = self.wire_len();
        if total > u16::MAX as usize {
            return Err(EncodeError::TooLarge(total));
        }
        let header = OfHeader {
            version: OFP_VERSION,
            msg_type: self.msg_type(),
            length: total as u16,
            xid: self.xid(),
        };
        header.encode(buf);
        match self {
            OfMessage::Hello { .. }
            | OfMessage::FeaturesRequest { .. }
            | OfMessage::GetConfigRequest { .. }
            | OfMessage::BarrierRequest { .. }
            | OfMessage::BarrierReply { .. } => {}
            OfMessage::Error { body, .. } => {
                buf.put_u16(body.err_type);
                buf.put_u16(body.code);
                buf.put_slice(&body.data);
            }
            OfMessage::EchoRequest { data, .. } | OfMessage::EchoReply { data, .. } => {
                buf.put_slice(data);
            }
            OfMessage::Vendor { vendor, data, .. } => {
                buf.put_u32(*vendor);
                buf.put_slice(data);
            }
            OfMessage::FeaturesReply { body, .. } => body.encode_body(buf),
            OfMessage::GetConfigReply { config, .. } | OfMessage::SetConfig { config, .. } => {
                config.encode_body(buf)
            }
            OfMessage::PacketIn { body, .. } => body.encode_body(buf),
            OfMessage::FlowRemoved { body, .. } => body.encode_body(buf),
            OfMessage::PortStatus { body, .. } => body.encode_body(buf),
            OfMessage::PacketOut { body, .. } => body.encode_body(buf),
            OfMessage::FlowMod { body, .. } => body.encode_body(buf),
            OfMessage::PortMod { body, .. } => body.encode_body(buf),
            OfMessage::StatsRequest { body, .. } => body.encode_body(buf),
            OfMessage::StatsReply { more, body, .. } => {
                body.encode_body_flags(buf, if *more { stats::STATS_REPLY_MORE } else { 0 })
            }
            OfMessage::QueueGetConfig { data, .. } => buf.put_slice(data),
        }
        Ok(())
    }

    /// Appends the encoded message (header + body) to `out` without any
    /// intermediate allocation — the zero-alloc form every send path uses:
    /// callers keep one buffer per connection and reuse it across drains.
    ///
    /// On error nothing has been written (the only failure, an oversized
    /// message, is detected before the first byte).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        out.reserve(self.wire_len());
        self.encode(out)
    }

    /// Encodes into a fresh byte vector (one allocation, sized exactly).
    pub fn encode_to_vec(&self) -> Result<Vec<u8>, EncodeError> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode(&mut buf)?;
        Ok(buf)
    }

    /// Decodes a single complete message from `frame`.
    ///
    /// The frame must contain exactly one message (as produced by the stream
    /// codec); trailing bytes beyond the declared length are rejected by the
    /// codec, not here.
    pub fn decode(frame: &[u8]) -> Result<OfMessage, DecodeError> {
        let header = OfHeader::peek(frame)?;
        if header.version != OFP_VERSION {
            return Err(DecodeError::BadVersion(header.version));
        }
        let declared = header.length as usize;
        if declared < OFP_HEADER_LEN || declared > frame.len() {
            return Err(DecodeError::BadLength {
                what: "ofp_header.length",
                len: declared,
            });
        }
        let body_len = declared - OFP_HEADER_LEN;
        let mut body = &frame[OFP_HEADER_LEN..declared];
        let xid = header.xid;
        let msg = match header.msg_type {
            msg_type::HELLO => OfMessage::Hello { xid },
            msg_type::ERROR => {
                if body.len() < 4 {
                    return Err(DecodeError::Truncated {
                        what: "error message",
                        needed: 4,
                        available: body.len(),
                    });
                }
                let err_type = body.get_u16();
                let code = body.get_u16();
                OfMessage::Error {
                    xid,
                    body: ErrorMsg {
                        err_type,
                        code,
                        data: body.to_vec(),
                    },
                }
            }
            msg_type::ECHO_REQUEST => OfMessage::EchoRequest {
                xid,
                data: body.to_vec(),
            },
            msg_type::ECHO_REPLY => OfMessage::EchoReply {
                xid,
                data: body.to_vec(),
            },
            msg_type::VENDOR => {
                if body.len() < 4 {
                    return Err(DecodeError::Truncated {
                        what: "vendor message",
                        needed: 4,
                        available: body.len(),
                    });
                }
                let vendor = body.get_u32();
                OfMessage::Vendor {
                    xid,
                    vendor,
                    data: body.to_vec(),
                }
            }
            msg_type::FEATURES_REQUEST => OfMessage::FeaturesRequest { xid },
            msg_type::FEATURES_REPLY => OfMessage::FeaturesReply {
                xid,
                body: FeaturesReply::decode_body(&mut body, body_len)?,
            },
            msg_type::GET_CONFIG_REQUEST => OfMessage::GetConfigRequest { xid },
            msg_type::GET_CONFIG_REPLY => OfMessage::GetConfigReply {
                xid,
                config: SwitchConfig::decode_body(&mut body)?,
            },
            msg_type::SET_CONFIG => OfMessage::SetConfig {
                xid,
                config: SwitchConfig::decode_body(&mut body)?,
            },
            msg_type::PACKET_IN => OfMessage::PacketIn {
                xid,
                body: PacketIn::decode_body(&mut body, body_len)?,
            },
            msg_type::FLOW_REMOVED => OfMessage::FlowRemoved {
                xid,
                body: FlowRemoved::decode_body(&mut body)?,
            },
            msg_type::PORT_STATUS => OfMessage::PortStatus {
                xid,
                body: PortStatus::decode_body(&mut body)?,
            },
            msg_type::PACKET_OUT => OfMessage::PacketOut {
                xid,
                body: PacketOut::decode_body(&mut body, body_len)?,
            },
            msg_type::FLOW_MOD => OfMessage::FlowMod {
                xid,
                body: FlowMod::decode_body(&mut body, body_len)?,
            },
            msg_type::PORT_MOD => OfMessage::PortMod {
                xid,
                body: PortMod::decode_body(&mut body)?,
            },
            msg_type::STATS_REQUEST => OfMessage::StatsRequest {
                xid,
                body: StatsRequest::decode_body(&mut body, body_len)?,
            },
            msg_type::STATS_REPLY => {
                let (reply, flags) = StatsReply::decode_body_flags(&mut body, body_len)?;
                OfMessage::StatsReply {
                    xid,
                    more: flags & stats::STATS_REPLY_MORE != 0,
                    body: reply,
                }
            }
            msg_type::BARRIER_REQUEST => OfMessage::BarrierRequest { xid },
            msg_type::BARRIER_REPLY => OfMessage::BarrierReply { xid },
            msg_type::QUEUE_GET_CONFIG_REQUEST => OfMessage::QueueGetConfig {
                xid,
                reply: false,
                data: body.to_vec(),
            },
            msg_type::QUEUE_GET_CONFIG_REPLY => OfMessage::QueueGetConfig {
                xid,
                reply: true,
                data: body.to_vec(),
            },
            other => return Err(DecodeError::UnknownMessageType(other)),
        };
        Ok(msg)
    }

    /// The error `err_type`/`code` answering this request: its xid, and its
    /// first 64 bytes echoed, as OpenFlow 1.0 asks.
    pub fn error_reply(&self, err_type: u16, code: u16) -> OfMessage {
        let mut data = self.encode_to_vec().unwrap_or_default();
        data.truncate(64);
        let body = ErrorMsg {
            err_type,
            code,
            data,
        };
        let xid = self.xid();
        OfMessage::Error { xid, body }
    }

    /// Builds the positive acknowledgment RUM sends to a RUM-aware
    /// controller when the flow-mod with transaction id `acked_xid` is known
    /// to be active in the data plane (paper §4: an error message with an
    /// unused error code is reused as the ack channel).
    pub fn rum_ack(acked_xid: Xid) -> OfMessage {
        OfMessage::Error {
            xid: acked_xid,
            body: ErrorMsg {
                err_type: crate::constants::error_type::RUM_ACK,
                code: 0,
                data: acked_xid.to_be_bytes().to_vec(),
            },
        }
    }

    /// Returns `Some(acked_xid)` when the message is a RUM positive ack.
    pub fn as_rum_ack(&self) -> Option<Xid> {
        match self {
            OfMessage::Error { body, .. }
                if body.err_type == crate::constants::error_type::RUM_ACK
                    && body.data.len() >= 4 =>
            {
                Some(u32::from_be_bytes([
                    body.data[0],
                    body.data[1],
                    body.data[2],
                    body.data[3],
                ]))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::flow_match::OfMatch;
    use crate::packet::PacketHeader;
    use crate::types::DatapathId;
    use std::net::Ipv4Addr;

    fn round_trip(msg: OfMessage) {
        let bytes = msg.encode_to_vec().unwrap();
        assert_eq!(bytes.len(), msg.wire_len());
        let header = OfHeader::peek(&bytes).unwrap();
        assert_eq!(header.length as usize, bytes.len());
        assert_eq!(header.version, OFP_VERSION);
        let decoded = OfMessage::decode(&bytes).unwrap();
        assert_eq!(decoded, msg, "round trip failed for {}", msg.name());
    }

    #[test]
    fn round_trip_simple_messages() {
        round_trip(OfMessage::Hello { xid: 1 });
        round_trip(OfMessage::FeaturesRequest { xid: 2 });
        round_trip(OfMessage::GetConfigRequest { xid: 3 });
        round_trip(OfMessage::BarrierRequest { xid: 4 });
        round_trip(OfMessage::BarrierReply { xid: 5 });
        round_trip(OfMessage::EchoRequest {
            xid: 6,
            data: vec![1, 2, 3],
        });
        round_trip(OfMessage::EchoReply {
            xid: 7,
            data: vec![],
        });
        round_trip(OfMessage::Vendor {
            xid: 8,
            vendor: 0x2320,
            data: vec![9, 9],
        });
        round_trip(OfMessage::QueueGetConfig {
            xid: 9,
            reply: true,
            data: vec![0, 1, 2, 3],
        });
    }

    #[test]
    fn round_trip_error() {
        round_trip(OfMessage::Error {
            xid: 11,
            body: ErrorMsg {
                err_type: crate::constants::error_type::FLOW_MOD_FAILED,
                code: crate::constants::flow_mod_failed_code::ALL_TABLES_FULL,
                data: vec![0xde, 0xad],
            },
        });
    }

    #[test]
    fn round_trip_flow_mod() {
        let fm = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
            500,
            vec![Action::SetNwTos(8), Action::output(2)],
        );
        round_trip(OfMessage::FlowMod { xid: 21, body: fm });
    }

    #[test]
    fn round_trip_packet_io() {
        let frame = PacketHeader::default().to_bytes();
        round_trip(OfMessage::PacketIn {
            xid: 31,
            body: PacketIn::unbuffered(2, 1, frame.clone()),
        });
        round_trip(OfMessage::PacketOut {
            xid: 32,
            body: PacketOut::single_port(4, frame),
        });
    }

    #[test]
    fn round_trip_features_and_config() {
        round_trip(OfMessage::FeaturesReply {
            xid: 41,
            body: FeaturesReply::simulated(DatapathId::new(7), 3),
        });
        round_trip(OfMessage::GetConfigReply {
            xid: 42,
            config: SwitchConfig::default(),
        });
        round_trip(OfMessage::SetConfig {
            xid: 43,
            config: SwitchConfig {
                flags: 0,
                miss_send_len: 0xffff,
            },
        });
    }

    #[test]
    fn round_trip_stats() {
        round_trip(OfMessage::StatsRequest {
            xid: 51,
            body: StatsRequest::Desc,
        });
        round_trip(OfMessage::StatsReply {
            xid: 52,
            more: false,
            body: StatsReply::Aggregate {
                packet_count: 1,
                byte_count: 2,
                flow_count: 3,
            },
        });
        round_trip(OfMessage::StatsReply {
            xid: 53,
            more: true,
            body: StatsReply::Flow(vec![]),
        });
    }

    #[test]
    fn round_trip_flow_removed_port_status() {
        round_trip(OfMessage::FlowRemoved {
            xid: 61,
            body: FlowRemoved {
                match_: OfMatch::wildcard_all(),
                cookie: 1,
                priority: 2,
                reason: 0,
                duration_sec: 3,
                duration_nsec: 4,
                idle_timeout: 5,
                packet_count: 6,
                byte_count: 7,
            },
        });
        round_trip(OfMessage::PortStatus {
            xid: 62,
            body: PortStatus {
                reason: 2,
                desc: PhyPort::simple(1, crate::types::MacAddr::from_id(1), "p1"),
            },
        });
        round_trip(OfMessage::PortMod {
            xid: 63,
            body: PortMod {
                port_no: 1,
                hw_addr: crate::types::MacAddr::from_id(1),
                config: 0,
                mask: 0,
                advertise: 0,
            },
        });
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut bytes = OfMessage::Hello { xid: 1 }.encode_to_vec().unwrap();
        bytes[0] = 0x04;
        assert!(matches!(
            OfMessage::decode(&bytes),
            Err(DecodeError::BadVersion(0x04))
        ));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut bytes = OfMessage::Hello { xid: 1 }.encode_to_vec().unwrap();
        bytes[1] = 99;
        assert!(matches!(
            OfMessage::decode(&bytes),
            Err(DecodeError::UnknownMessageType(99))
        ));
    }

    #[test]
    fn decode_rejects_length_beyond_frame() {
        let mut bytes = OfMessage::Hello { xid: 1 }.encode_to_vec().unwrap();
        bytes[3] = 200; // declared length larger than the frame
        assert!(OfMessage::decode(&bytes).is_err());
    }

    #[test]
    fn xid_accessors() {
        let mut msg = OfMessage::BarrierRequest { xid: 9 };
        assert_eq!(msg.xid(), 9);
        msg.set_xid(100);
        assert_eq!(msg.xid(), 100);
        assert_eq!(msg.msg_type(), msg_type::BARRIER_REQUEST);
        assert_eq!(msg.name(), "BarrierRequest");
    }

    #[test]
    fn state_modifying_classification() {
        assert!(OfMessage::FlowMod {
            xid: 0,
            body: FlowMod::delete(OfMatch::wildcard_all()),
        }
        .is_state_modifying());
        assert!(!OfMessage::BarrierRequest { xid: 0 }.is_state_modifying());
        assert!(!OfMessage::Hello { xid: 0 }.is_state_modifying());
    }

    #[test]
    fn rum_ack_round_trip() {
        let ack = OfMessage::rum_ack(0x1234_5678);
        assert_eq!(ack.as_rum_ack(), Some(0x1234_5678));
        let bytes = ack.encode_to_vec().unwrap();
        let decoded = OfMessage::decode(&bytes).unwrap();
        assert_eq!(decoded.as_rum_ack(), Some(0x1234_5678));
        // A normal error message is not an ack.
        let err = OfMessage::Error {
            xid: 1,
            body: ErrorMsg {
                err_type: 1,
                code: 0,
                data: vec![0, 0, 0, 1],
            },
        };
        assert_eq!(err.as_rum_ack(), None);
    }
}
