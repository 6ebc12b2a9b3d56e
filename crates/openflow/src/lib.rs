//! OpenFlow 1.0 protocol support for the RUM reproduction.
//!
//! The RUM layer from *"Providing Reliable FIB Update Acknowledgments in
//! SDN"* (CoNEXT 2014) is a transparent proxy that intercepts and rewrites
//! OpenFlow traffic between a controller and its switches.  Faithfully
//! reproducing it therefore requires a real protocol implementation, not a
//! mock: messages must round-trip through the wire format, flow matches must
//! have the exact OpenFlow 1.0 wildcard semantics, and probe packets must be
//! synthesised against those semantics.
//!
//! This crate provides:
//!
//! * [`types`] — small value types shared across the stack (MAC addresses,
//!   datapath ids, port numbers, ...).
//! * [`wildcards`] — the OpenFlow 1.0 wildcard bitfield with its odd
//!   CIDR-style network-address wildcarding.
//! * [`flow_match`] — the 40-byte `ofp_match` structure, its matching
//!   semantics against concrete packet headers and the overlap / covering
//!   analysis used for probe synthesis.
//! * [`packet`] — a concrete packet-header model plus an Ethernet/IPv4/L4
//!   serializer so `PacketIn`/`PacketOut` payloads carry real bytes.
//! * [`actions`] — the OpenFlow 1.0 action list with wire codec and an
//!   interpreter that applies actions to packet headers.
//! * [`messages`] — every OpenFlow 1.0 message, with encode/decode.
//! * [`codec`] — stream framing (length-delimited) for the TCP deployment.
//! * [`classifier`] — a tuple-space index answering "which rules may match
//!   this packet" in one hash probe per distinct wildcard mask.
//!
//! The implementation follows the OpenFlow Switch Specification v1.0.0
//! (wire format offsets, constants and semantics).  Everything is
//! deterministic and allocation-light so it can run inside the
//! discrete-event simulator as well as over real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod classifier;
pub mod codec;
pub mod constants;
pub mod error;
pub mod flow_match;
pub mod messages;
pub mod packet;
pub mod types;
pub mod wildcards;

pub use actions::Action;
pub use classifier::{PacketKey, TupleSpace};
pub use codec::OfCodec;
pub use error::{DecodeError, EncodeError};
pub use flow_match::OfMatch;
pub use messages::{OfHeader, OfMessage};
pub use packet::PacketHeader;
pub use types::{BufferId, DatapathId, MacAddr, PortNo, Xid};
pub use wildcards::Wildcards;

/// The OpenFlow protocol version implemented by this crate (`0x01`).
pub const OFP_VERSION: u8 = 0x01;
