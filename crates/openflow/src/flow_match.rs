//! The OpenFlow 1.0 `ofp_match` structure and its matching semantics.
//!
//! Besides wire encoding and packet matching, this module implements the
//! relational analysis the general-probing technique of the paper needs:
//! whether two matches *overlap* (some packet matches both), whether one
//! *covers* another (matches a superset), and synthesising an *example
//! packet* for a match — the starting point for probe-packet generation.

use crate::constants::OFP_VLAN_NONE;
use crate::error::DecodeError;
use crate::packet::PacketHeader;
use crate::types::{ipv4_to_u32, u32_to_ipv4, MacAddr, PortNo};
use crate::wildcards::Wildcards;
use bytes::{Buf, BufMut};
use std::net::Ipv4Addr;

/// Encoded size of `ofp_match` on the wire.
pub const OFP_MATCH_LEN: usize = 40;

/// An OpenFlow 1.0 flow match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OfMatch {
    /// Wildcard flags; a field only participates in matching when its
    /// wildcard bit is clear (or, for IP addresses, when fewer than 32 bits
    /// are wildcarded).
    pub wildcards: Wildcards,
    /// Input switch port.
    pub in_port: PortNo,
    /// Ethernet source address.
    pub dl_src: MacAddr,
    /// Ethernet destination address.
    pub dl_dst: MacAddr,
    /// Input VLAN id ([`OFP_VLAN_NONE`] matches untagged packets).
    pub dl_vlan: u16,
    /// Input VLAN priority.
    pub dl_vlan_pcp: u8,
    /// Ethernet frame type.
    pub dl_type: u16,
    /// IP ToS (actually DSCP: only the upper 6 bits are significant).
    pub nw_tos: u8,
    /// IP protocol or lower 8 bits of ARP opcode.
    pub nw_proto: u8,
    /// IP source address.
    pub nw_src: Ipv4Addr,
    /// IP destination address.
    pub nw_dst: Ipv4Addr,
    /// TCP/UDP source port.
    pub tp_src: u16,
    /// TCP/UDP destination port.
    pub tp_dst: u16,
}

impl Default for OfMatch {
    fn default() -> Self {
        OfMatch::wildcard_all()
    }
}

impl OfMatch {
    /// A match with every field wildcarded (matches every packet).
    pub fn wildcard_all() -> Self {
        OfMatch {
            wildcards: Wildcards::all(),
            in_port: 0,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_vlan: 0,
            dl_vlan_pcp: 0,
            dl_type: 0,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    /// An exact match on every field of a concrete packet header arriving on
    /// `in_port`.
    pub fn exact_from_packet(pkt: &PacketHeader, in_port: PortNo) -> Self {
        OfMatch {
            wildcards: Wildcards::none(),
            in_port,
            dl_src: pkt.dl_src,
            dl_dst: pkt.dl_dst,
            dl_vlan: pkt.dl_vlan,
            dl_vlan_pcp: pkt.dl_vlan_pcp,
            dl_type: pkt.dl_type,
            nw_tos: pkt.nw_tos,
            nw_proto: pkt.nw_proto,
            nw_src: pkt.nw_src,
            nw_dst: pkt.nw_dst,
            tp_src: pkt.tp_src,
            tp_dst: pkt.tp_dst,
        }
    }

    /// A match on an IPv4 source/destination address pair with everything
    /// else wildcarded — the rule shape used throughout the paper's
    /// evaluation ("300 IP flows between hosts H1 and H2").
    pub fn ipv4_pair(nw_src: Ipv4Addr, nw_dst: Ipv4Addr) -> Self {
        let mut m = OfMatch::wildcard_all();
        m.wildcards = m
            .wildcards
            .with(Wildcards::DL_TYPE, false)
            .with_nw_src_bits(0)
            .with_nw_dst_bits(0);
        m.dl_type = crate::constants::ETHERTYPE_IPV4;
        m.nw_src = nw_src;
        m.nw_dst = nw_dst;
        m
    }

    /// Builder-style: match on the IP ToS value (used by RUM probing rules).
    pub fn with_nw_tos(mut self, tos: u8) -> Self {
        self.wildcards = self.wildcards.with(Wildcards::NW_TOS, false);
        self.nw_tos = tos;
        // ToS matching requires the packet to be IP.
        self.wildcards = self.wildcards.with(Wildcards::DL_TYPE, false);
        self.dl_type = crate::constants::ETHERTYPE_IPV4;
        self
    }

    /// Builder-style: match on the VLAN id.
    pub fn with_dl_vlan(mut self, vlan: u16) -> Self {
        self.wildcards = self.wildcards.with(Wildcards::DL_VLAN, false);
        self.dl_vlan = vlan;
        self
    }

    /// Builder-style: match on the input port.
    pub fn with_in_port(mut self, port: PortNo) -> Self {
        self.wildcards = self.wildcards.with(Wildcards::IN_PORT, false);
        self.in_port = port;
        self
    }

    /// Builder-style: match on the IP protocol.
    pub fn with_nw_proto(mut self, proto: u8) -> Self {
        self.wildcards = self
            .wildcards
            .with(Wildcards::NW_PROTO, false)
            .with(Wildcards::DL_TYPE, false);
        self.dl_type = crate::constants::ETHERTYPE_IPV4;
        self.nw_proto = proto;
        self
    }

    /// Builder-style: match on the transport destination port.
    pub fn with_tp_dst(mut self, port: u16) -> Self {
        self.wildcards = self.wildcards.with(Wildcards::TP_DST, false);
        self.tp_dst = port;
        self
    }

    /// Builder-style: match on an IPv4 source prefix of `prefix_len` bits.
    pub fn with_nw_src_prefix(mut self, addr: Ipv4Addr, prefix_len: u32) -> Self {
        self.wildcards = self
            .wildcards
            .with(Wildcards::DL_TYPE, false)
            .with_nw_src_bits(32 - prefix_len.min(32));
        self.dl_type = crate::constants::ETHERTYPE_IPV4;
        self.nw_src = addr;
        self
    }

    /// Builder-style: match on an IPv4 destination prefix of `prefix_len` bits.
    pub fn with_nw_dst_prefix(mut self, addr: Ipv4Addr, prefix_len: u32) -> Self {
        self.wildcards = self
            .wildcards
            .with(Wildcards::DL_TYPE, false)
            .with_nw_dst_bits(32 - prefix_len.min(32));
        self.dl_type = crate::constants::ETHERTYPE_IPV4;
        self.nw_dst = addr;
        self
    }

    /// Tests whether a concrete packet header arriving on `in_port` matches.
    pub fn matches(&self, pkt: &PacketHeader, in_port: PortNo) -> bool {
        let w = &self.wildcards;
        if !w.is_wildcarded(Wildcards::IN_PORT) && self.in_port != in_port {
            return false;
        }
        if !w.is_wildcarded(Wildcards::DL_SRC) && self.dl_src != pkt.dl_src {
            return false;
        }
        if !w.is_wildcarded(Wildcards::DL_DST) && self.dl_dst != pkt.dl_dst {
            return false;
        }
        if !w.is_wildcarded(Wildcards::DL_VLAN) && self.dl_vlan != pkt.dl_vlan {
            return false;
        }
        if !w.is_wildcarded(Wildcards::DL_VLAN_PCP)
            && pkt.dl_vlan != OFP_VLAN_NONE
            && self.dl_vlan_pcp != pkt.dl_vlan_pcp
        {
            return false;
        }
        if !w.is_wildcarded(Wildcards::DL_TYPE) && self.dl_type != pkt.dl_type {
            return false;
        }
        if !w.is_wildcarded(Wildcards::NW_TOS) && (self.nw_tos & 0xfc) != (pkt.nw_tos & 0xfc) {
            return false;
        }
        if !w.is_wildcarded(Wildcards::NW_PROTO) && self.nw_proto != pkt.nw_proto {
            return false;
        }
        let src_mask = w.nw_src_mask();
        if ipv4_to_u32(self.nw_src) & src_mask != pkt.nw_src_u32() & src_mask {
            return false;
        }
        let dst_mask = w.nw_dst_mask();
        if ipv4_to_u32(self.nw_dst) & dst_mask != pkt.nw_dst_u32() & dst_mask {
            return false;
        }
        if !w.is_wildcarded(Wildcards::TP_SRC) && self.tp_src != pkt.tp_src {
            return false;
        }
        if !w.is_wildcarded(Wildcards::TP_DST) && self.tp_dst != pkt.tp_dst {
            return false;
        }
        true
    }

    /// True if some packet could match both `self` and `other`.
    ///
    /// Used by the general-probing technique to detect rules whose probe
    /// packets might be hijacked by other entries, and by the flow table for
    /// `CHECK_OVERLAP` semantics.
    pub fn overlaps(&self, other: &OfMatch) -> bool {
        fn field_compatible<T: PartialEq>(a_wild: bool, a_val: T, b_wild: bool, b_val: T) -> bool {
            a_wild || b_wild || a_val == b_val
        }

        let (wa, wb) = (&self.wildcards, &other.wildcards);
        if !field_compatible(
            wa.is_wildcarded(Wildcards::IN_PORT),
            self.in_port,
            wb.is_wildcarded(Wildcards::IN_PORT),
            other.in_port,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::DL_SRC),
            self.dl_src,
            wb.is_wildcarded(Wildcards::DL_SRC),
            other.dl_src,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::DL_DST),
            self.dl_dst,
            wb.is_wildcarded(Wildcards::DL_DST),
            other.dl_dst,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::DL_VLAN),
            self.dl_vlan,
            wb.is_wildcarded(Wildcards::DL_VLAN),
            other.dl_vlan,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::DL_VLAN_PCP),
            self.dl_vlan_pcp,
            wb.is_wildcarded(Wildcards::DL_VLAN_PCP),
            other.dl_vlan_pcp,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::DL_TYPE),
            self.dl_type,
            wb.is_wildcarded(Wildcards::DL_TYPE),
            other.dl_type,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::NW_TOS),
            self.nw_tos & 0xfc,
            wb.is_wildcarded(Wildcards::NW_TOS),
            other.nw_tos & 0xfc,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::NW_PROTO),
            self.nw_proto,
            wb.is_wildcarded(Wildcards::NW_PROTO),
            other.nw_proto,
        ) {
            return false;
        }
        // For IP prefixes: compatible iff equal on the intersection of masks.
        let common_src = wa.nw_src_mask() & wb.nw_src_mask();
        if ipv4_to_u32(self.nw_src) & common_src != ipv4_to_u32(other.nw_src) & common_src {
            return false;
        }
        let common_dst = wa.nw_dst_mask() & wb.nw_dst_mask();
        if ipv4_to_u32(self.nw_dst) & common_dst != ipv4_to_u32(other.nw_dst) & common_dst {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::TP_SRC),
            self.tp_src,
            wb.is_wildcarded(Wildcards::TP_SRC),
            other.tp_src,
        ) {
            return false;
        }
        if !field_compatible(
            wa.is_wildcarded(Wildcards::TP_DST),
            self.tp_dst,
            wb.is_wildcarded(Wildcards::TP_DST),
            other.tp_dst,
        ) {
            return false;
        }
        true
    }

    /// True if `self` matches every packet that `other` matches (i.e. `self`
    /// is equal to or strictly more general than `other`).
    pub fn covers(&self, other: &OfMatch) -> bool {
        fn field_covers<T: PartialEq>(a_wild: bool, a_val: T, b_wild: bool, b_val: T) -> bool {
            a_wild || (!b_wild && a_val == b_val)
        }

        let (wa, wb) = (&self.wildcards, &other.wildcards);
        field_covers(
            wa.is_wildcarded(Wildcards::IN_PORT),
            self.in_port,
            wb.is_wildcarded(Wildcards::IN_PORT),
            other.in_port,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::DL_SRC),
            self.dl_src,
            wb.is_wildcarded(Wildcards::DL_SRC),
            other.dl_src,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::DL_DST),
            self.dl_dst,
            wb.is_wildcarded(Wildcards::DL_DST),
            other.dl_dst,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::DL_VLAN),
            self.dl_vlan,
            wb.is_wildcarded(Wildcards::DL_VLAN),
            other.dl_vlan,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::DL_VLAN_PCP),
            self.dl_vlan_pcp,
            wb.is_wildcarded(Wildcards::DL_VLAN_PCP),
            other.dl_vlan_pcp,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::DL_TYPE),
            self.dl_type,
            wb.is_wildcarded(Wildcards::DL_TYPE),
            other.dl_type,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::NW_TOS),
            self.nw_tos & 0xfc,
            wb.is_wildcarded(Wildcards::NW_TOS),
            other.nw_tos & 0xfc,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::NW_PROTO),
            self.nw_proto,
            wb.is_wildcarded(Wildcards::NW_PROTO),
            other.nw_proto,
        ) && {
            // self covers other on an IP field iff self's mask is a subset of
            // other's mask and the masked addresses agree.
            let ma = wa.nw_src_mask();
            let mb = wb.nw_src_mask();
            (ma & !mb) == 0 && (ipv4_to_u32(self.nw_src) & ma) == (ipv4_to_u32(other.nw_src) & ma)
        } && {
            let ma = wa.nw_dst_mask();
            let mb = wb.nw_dst_mask();
            (ma & !mb) == 0 && (ipv4_to_u32(self.nw_dst) & ma) == (ipv4_to_u32(other.nw_dst) & ma)
        } && field_covers(
            wa.is_wildcarded(Wildcards::TP_SRC),
            self.tp_src,
            wb.is_wildcarded(Wildcards::TP_SRC),
            other.tp_src,
        ) && field_covers(
            wa.is_wildcarded(Wildcards::TP_DST),
            self.tp_dst,
            wb.is_wildcarded(Wildcards::TP_DST),
            other.tp_dst,
        )
    }

    /// True when this is an exact match (no wildcarded fields).
    pub fn is_exact(&self) -> bool {
        self.wildcards.raw()
            & !(Wildcards::NW_BITS_MASK << Wildcards::NW_SRC_SHIFT)
            & !(Wildcards::NW_BITS_MASK << Wildcards::NW_DST_SHIFT)
            == 0
            && self.wildcards.nw_src_bits() == 0
            && self.wildcards.nw_dst_bits() == 0
    }

    /// Synthesises a concrete packet header (and input port) that matches
    /// this rule.  Wildcarded fields take neutral defaults; specified fields
    /// take the rule's values.  The result is the seed for probe-packet
    /// generation in the RUM layer.
    pub fn example_packet(&self, template: &PacketHeader) -> (PacketHeader, PortNo) {
        let w = &self.wildcards;
        let mut pkt = *template;
        let in_port = if w.is_wildcarded(Wildcards::IN_PORT) {
            0
        } else {
            self.in_port
        };
        if !w.is_wildcarded(Wildcards::DL_SRC) {
            pkt.dl_src = self.dl_src;
        }
        if !w.is_wildcarded(Wildcards::DL_DST) {
            pkt.dl_dst = self.dl_dst;
        }
        if !w.is_wildcarded(Wildcards::DL_VLAN) {
            pkt.dl_vlan = self.dl_vlan;
        }
        if !w.is_wildcarded(Wildcards::DL_VLAN_PCP) {
            pkt.dl_vlan_pcp = self.dl_vlan_pcp;
        }
        if !w.is_wildcarded(Wildcards::DL_TYPE) {
            pkt.dl_type = self.dl_type;
        }
        if !w.is_wildcarded(Wildcards::NW_TOS) {
            pkt.nw_tos = self.nw_tos;
        }
        if !w.is_wildcarded(Wildcards::NW_PROTO) {
            pkt.nw_proto = self.nw_proto;
        }
        let src_mask = w.nw_src_mask();
        pkt.set_nw_src_u32((pkt.nw_src_u32() & !src_mask) | (ipv4_to_u32(self.nw_src) & src_mask));
        let dst_mask = w.nw_dst_mask();
        pkt.set_nw_dst_u32((pkt.nw_dst_u32() & !dst_mask) | (ipv4_to_u32(self.nw_dst) & dst_mask));
        if !w.is_wildcarded(Wildcards::TP_SRC) {
            pkt.tp_src = self.tp_src;
        }
        if !w.is_wildcarded(Wildcards::TP_DST) {
            pkt.tp_dst = self.tp_dst;
        }
        (pkt, in_port)
    }

    /// Encodes into the 40-byte wire representation.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.wildcards.raw());
        buf.put_u16(self.in_port);
        buf.put_slice(&self.dl_src.octets());
        buf.put_slice(&self.dl_dst.octets());
        buf.put_u16(self.dl_vlan);
        buf.put_u8(self.dl_vlan_pcp);
        buf.put_u8(0); // pad
        buf.put_u16(self.dl_type);
        buf.put_u8(self.nw_tos);
        buf.put_u8(self.nw_proto);
        buf.put_slice(&[0, 0]); // pad
        buf.put_u32(ipv4_to_u32(self.nw_src));
        buf.put_u32(ipv4_to_u32(self.nw_dst));
        buf.put_u16(self.tp_src);
        buf.put_u16(self.tp_dst);
    }

    /// Decodes from the 40-byte wire representation.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        if buf.remaining() < OFP_MATCH_LEN {
            return Err(DecodeError::Truncated {
                what: "ofp_match",
                needed: OFP_MATCH_LEN,
                available: buf.remaining(),
            });
        }
        let wildcards = Wildcards::from_raw(buf.get_u32());
        let in_port = buf.get_u16();
        let mut dl_src = [0u8; 6];
        buf.copy_to_slice(&mut dl_src);
        let mut dl_dst = [0u8; 6];
        buf.copy_to_slice(&mut dl_dst);
        let dl_vlan = buf.get_u16();
        let dl_vlan_pcp = buf.get_u8();
        buf.advance(1);
        let dl_type = buf.get_u16();
        let nw_tos = buf.get_u8();
        let nw_proto = buf.get_u8();
        buf.advance(2);
        let nw_src = u32_to_ipv4(buf.get_u32());
        let nw_dst = u32_to_ipv4(buf.get_u32());
        let tp_src = buf.get_u16();
        let tp_dst = buf.get_u16();
        Ok(OfMatch {
            wildcards,
            in_port,
            dl_src: MacAddr(dl_src),
            dl_dst: MacAddr(dl_dst),
            dl_vlan,
            dl_vlan_pcp,
            dl_type,
            nw_tos,
            nw_proto,
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{ETHERTYPE_IPV4, IPPROTO_TCP, IPPROTO_UDP};
    use bytes::BytesMut;

    fn pkt(src: [u8; 4], dst: [u8; 4], tos: u8) -> PacketHeader {
        let mut p = PacketHeader::ipv4_udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            1000,
            2000,
        );
        p.nw_tos = tos;
        p
    }

    #[test]
    fn wildcard_all_matches_any_packet() {
        let m = OfMatch::wildcard_all();
        assert!(m.matches(&pkt([10, 0, 0, 1], [10, 0, 0, 2], 0), 3));
        assert!(m.matches(&PacketHeader::default(), 0));
    }

    #[test]
    fn ipv4_pair_matches_only_that_pair() {
        let m = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        assert!(m.matches(&pkt([10, 0, 0, 1], [10, 0, 0, 2], 0), 1));
        assert!(!m.matches(&pkt([10, 0, 0, 1], [10, 0, 0, 3], 0), 1));
        assert!(!m.matches(&pkt([10, 0, 0, 9], [10, 0, 0, 2], 0), 1));
    }

    #[test]
    fn tos_matching_ignores_low_bits() {
        // The spec matches on the 6-bit DSCP, so the two ECN bits are ignored.
        let m = OfMatch::wildcard_all().with_nw_tos(0xb8);
        assert!(m.matches(&pkt([1, 1, 1, 1], [2, 2, 2, 2], 0xb8), 0));
        assert!(m.matches(&pkt([1, 1, 1, 1], [2, 2, 2, 2], 0xbb), 0));
        assert!(!m.matches(&pkt([1, 1, 1, 1], [2, 2, 2, 2], 0x00), 0));
    }

    #[test]
    fn prefix_matching() {
        let m = OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 0, 1, 0), 24);
        assert!(m.matches(&pkt([1, 2, 3, 4], [10, 0, 1, 200], 0), 0));
        assert!(!m.matches(&pkt([1, 2, 3, 4], [10, 0, 2, 200], 0), 0));
    }

    #[test]
    fn in_port_matching() {
        let m = OfMatch::wildcard_all().with_in_port(7);
        assert!(m.matches(&PacketHeader::default(), 7));
        assert!(!m.matches(&PacketHeader::default(), 8));
    }

    #[test]
    fn exact_match_round_trip_via_packet() {
        let p = pkt([10, 1, 1, 1], [10, 2, 2, 2], 0x10);
        let m = OfMatch::exact_from_packet(&p, 4);
        assert!(m.is_exact());
        assert!(m.matches(&p, 4));
        assert!(!m.matches(&p, 5));
        let mut p2 = p;
        p2.tp_dst = 9999;
        assert!(!m.matches(&p2, 4));
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = OfMatch::ipv4_pair(Ipv4Addr::new(172, 16, 0, 1), Ipv4Addr::new(172, 16, 5, 9))
            .with_nw_tos(0x20)
            .with_in_port(3)
            .with_tp_dst(80)
            .with_nw_proto(IPPROTO_TCP);
        let mut buf = BytesMut::new();
        m.encode(&mut buf);
        assert_eq!(buf.len(), OFP_MATCH_LEN);
        let decoded = OfMatch::decode(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn decode_truncated() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            OfMatch::decode(&mut buf.freeze()),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn overlap_disjoint_pairs() {
        let a = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let b = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 2));
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn overlap_prefix_vs_exact() {
        let prefix = OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        let exact = OfMatch::ipv4_pair(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(10, 9, 9, 9));
        assert!(prefix.overlaps(&exact));
        assert!(exact.overlaps(&prefix));
        let outside = OfMatch::ipv4_pair(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(11, 0, 0, 1));
        assert!(!prefix.overlaps(&outside));
    }

    #[test]
    fn overlap_on_different_fields_is_still_overlap() {
        // One constrains ToS, the other constrains tp_dst; a packet with both
        // values exists, so they overlap.
        let a = OfMatch::wildcard_all().with_nw_tos(0x40);
        let b = OfMatch::wildcard_all().with_tp_dst(80);
        assert!(a.overlaps(&b));
    }

    #[test]
    fn covers_relationships() {
        let all = OfMatch::wildcard_all();
        let pair = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let prefix = OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 24);
        assert!(all.covers(&pair));
        assert!(!pair.covers(&all));
        assert!(prefix
            .covers(&OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 32)));
        assert!(pair.covers(&pair));
        // A /24 on a *different* network does not cover.
        let other_prefix =
            OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 1, 0), 24);
        assert!(!other_prefix.covers(&pair.clone()));
    }

    #[test]
    fn covers_implies_overlap() {
        let a = OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 16);
        let b = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 3, 4), Ipv4Addr::new(10, 0, 0, 9));
        assert!(a.covers(&b));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn example_packet_matches_its_own_rule() {
        let rules = [
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
            OfMatch::wildcard_all().with_nw_tos(0x3c),
            OfMatch::wildcard_all()
                .with_nw_dst_prefix(Ipv4Addr::new(192, 168, 0, 0), 16)
                .with_nw_proto(IPPROTO_UDP)
                .with_tp_dst(53),
            OfMatch::wildcard_all().with_in_port(9).with_dl_vlan(100),
        ];
        let template = PacketHeader::default();
        for rule in &rules {
            let (p, port) = rule.example_packet(&template);
            assert!(rule.matches(&p, port), "example packet must match {rule:?}");
        }
    }

    #[test]
    fn example_packet_preserves_template_for_wildcarded_fields() {
        let template = pkt([9, 9, 9, 9], [8, 8, 8, 8], 0x04);
        let rule = OfMatch::wildcard_all().with_tp_dst(443);
        let (p, _) = rule.example_packet(&template);
        assert_eq!(p.nw_src, Ipv4Addr::new(9, 9, 9, 9));
        assert_eq!(p.tp_dst, 443);
    }

    #[test]
    fn ipv4_pair_is_ip_only() {
        let m = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(m.dl_type, ETHERTYPE_IPV4);
        assert!(!m.wildcards.is_wildcarded(Wildcards::DL_TYPE));
        assert!(!m.is_exact());
    }
}
