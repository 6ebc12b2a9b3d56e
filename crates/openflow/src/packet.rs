//! Concrete packet headers and an Ethernet/IPv4/L4 (de)serializer.
//!
//! Data-plane packets in the simulator are represented by a fully concrete
//! [`PacketHeader`].  When a packet crosses the control plane (inside a
//! `PacketIn` or `PacketOut` message) it is serialized to real Ethernet
//! bytes, so the RUM layer parses exactly what a production proxy would see
//! on the wire.

use crate::constants::{
    ETHERTYPE_ARP, ETHERTYPE_IPV4, ETHERTYPE_VLAN, IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP,
    OFP_VLAN_NONE,
};
use crate::error::DecodeError;
use crate::types::{ipv4_to_u32, u32_to_ipv4, MacAddr};
use std::net::Ipv4Addr;

/// A concrete set of packet header values, as seen by the data plane.
///
/// Fields mirror the ones OpenFlow 1.0 can match on.  A packet either has a
/// VLAN tag (`vlan_vid != OFP_VLAN_NONE`) or not; transport ports are only
/// meaningful for TCP/UDP and the ICMP type/code are mapped onto `tp_src` /
/// `tp_dst` as the specification prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHeader {
    /// Ethernet source address.
    pub dl_src: MacAddr,
    /// Ethernet destination address.
    pub dl_dst: MacAddr,
    /// VLAN id, or [`OFP_VLAN_NONE`] if the packet is untagged.
    pub dl_vlan: u16,
    /// VLAN priority (only meaningful when tagged).
    pub dl_vlan_pcp: u8,
    /// Ethertype of the payload (after any VLAN tag).
    pub dl_type: u16,
    /// IP ToS byte (DSCP in the upper 6 bits), 0 for non-IP packets.
    pub nw_tos: u8,
    /// IP protocol, 0 for non-IP packets.
    pub nw_proto: u8,
    /// IP source address (0.0.0.0 for non-IP packets).
    pub nw_src: Ipv4Addr,
    /// IP destination address (0.0.0.0 for non-IP packets).
    pub nw_dst: Ipv4Addr,
    /// TCP/UDP source port or ICMP type.
    pub tp_src: u16,
    /// TCP/UDP destination port or ICMP code.
    pub tp_dst: u16,
}

impl Default for PacketHeader {
    fn default() -> Self {
        PacketHeader {
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_vlan: OFP_VLAN_NONE,
            dl_vlan_pcp: 0,
            dl_type: ETHERTYPE_IPV4,
            nw_tos: 0,
            nw_proto: IPPROTO_UDP,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        }
    }
}

impl PacketHeader {
    /// Convenience constructor for an untagged IPv4/UDP packet, the workhorse
    /// of the paper's experiments (300 IP flows between two hosts).
    pub fn ipv4_udp(
        dl_src: MacAddr,
        dl_dst: MacAddr,
        nw_src: Ipv4Addr,
        nw_dst: Ipv4Addr,
        tp_src: u16,
        tp_dst: u16,
    ) -> Self {
        PacketHeader {
            dl_src,
            dl_dst,
            dl_type: ETHERTYPE_IPV4,
            nw_proto: IPPROTO_UDP,
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
            ..Default::default()
        }
    }

    /// Convenience constructor for an untagged IPv4/TCP packet.
    pub fn ipv4_tcp(
        dl_src: MacAddr,
        dl_dst: MacAddr,
        nw_src: Ipv4Addr,
        nw_dst: Ipv4Addr,
        tp_src: u16,
        tp_dst: u16,
    ) -> Self {
        PacketHeader {
            nw_proto: IPPROTO_TCP,
            ..Self::ipv4_udp(dl_src, dl_dst, nw_src, nw_dst, tp_src, tp_dst)
        }
    }

    /// True when the packet carries a VLAN tag.
    pub fn has_vlan(&self) -> bool {
        self.dl_vlan != OFP_VLAN_NONE
    }

    /// True when the packet is IPv4.
    pub fn is_ipv4(&self) -> bool {
        self.dl_type == ETHERTYPE_IPV4
    }

    /// True when the packet has L4 ports (TCP or UDP over IPv4).
    pub fn has_l4_ports(&self) -> bool {
        self.is_ipv4() && (self.nw_proto == IPPROTO_TCP || self.nw_proto == IPPROTO_UDP)
    }

    /// Serializes the header into a minimal but valid Ethernet frame.
    ///
    /// IPv4 packets get a correct IPv4 header (including checksum) followed
    /// by an 8-byte UDP/TCP/ICMP stub carrying the transport fields; other
    /// ethertypes get an empty payload.  The result is long enough (>= 60
    /// bytes, padded) to be a legal minimum-size Ethernet frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.dl_dst.octets());
        out.extend_from_slice(&self.dl_src.octets());
        if self.has_vlan() {
            out.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
            let tci = ((self.dl_vlan_pcp as u16) << 13) | (self.dl_vlan & 0x0fff);
            out.extend_from_slice(&tci.to_be_bytes());
        }
        out.extend_from_slice(&self.dl_type.to_be_bytes());

        if self.is_ipv4() {
            let transport = self.transport_stub();
            let total_len = 20 + transport.len();
            let mut ip = Vec::with_capacity(total_len);
            ip.push(0x45); // version 4, IHL 5
            ip.push(self.nw_tos);
            ip.extend_from_slice(&(total_len as u16).to_be_bytes());
            ip.extend_from_slice(&[0, 0]); // identification
            ip.extend_from_slice(&[0x40, 0]); // flags: don't fragment
            ip.push(64); // TTL
            ip.push(self.nw_proto);
            ip.extend_from_slice(&[0, 0]); // checksum placeholder
            ip.extend_from_slice(&self.nw_src.octets());
            ip.extend_from_slice(&self.nw_dst.octets());
            let csum = ipv4_checksum(&ip[..20]);
            ip[10..12].copy_from_slice(&csum.to_be_bytes());
            ip.extend_from_slice(&transport);
            out.extend_from_slice(&ip);
        }

        // Pad to the Ethernet minimum frame size (60 bytes before FCS).
        while out.len() < 60 {
            out.push(0);
        }
        out
    }

    fn transport_stub(&self) -> Vec<u8> {
        match self.nw_proto {
            IPPROTO_TCP => {
                // 20-byte TCP header with only ports, seq/ack zero, offset 5.
                let mut t = Vec::with_capacity(20);
                t.extend_from_slice(&self.tp_src.to_be_bytes());
                t.extend_from_slice(&self.tp_dst.to_be_bytes());
                t.extend_from_slice(&[0; 8]); // seq + ack
                t.push(0x50); // data offset
                t.push(0x10); // ACK flag
                t.extend_from_slice(&[0xff, 0xff]); // window
                t.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
                t
            }
            IPPROTO_UDP => {
                let mut t = Vec::with_capacity(8);
                t.extend_from_slice(&self.tp_src.to_be_bytes());
                t.extend_from_slice(&self.tp_dst.to_be_bytes());
                t.extend_from_slice(&8u16.to_be_bytes()); // length
                t.extend_from_slice(&[0, 0]); // checksum (optional in IPv4)
                t
            }
            IPPROTO_ICMP => {
                let mut t = Vec::with_capacity(8);
                t.push(self.tp_src as u8); // type
                t.push(self.tp_dst as u8); // code
                t.extend_from_slice(&[0, 0]); // checksum
                t.extend_from_slice(&[0, 0, 0, 0]); // rest of header
                t
            }
            _ => Vec::new(),
        }
    }

    /// Parses an Ethernet frame produced by [`PacketHeader::to_bytes`] (or by
    /// any real network stack) back into a header.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        if data.len() < 14 {
            return Err(DecodeError::Truncated {
                what: "ethernet frame",
                needed: 14,
                available: data.len(),
            });
        }
        let dl_dst = MacAddr([data[0], data[1], data[2], data[3], data[4], data[5]]);
        let dl_src = MacAddr([data[6], data[7], data[8], data[9], data[10], data[11]]);
        let mut ethertype = u16::from_be_bytes([data[12], data[13]]);
        let mut offset = 14;
        let mut dl_vlan = OFP_VLAN_NONE;
        let mut dl_vlan_pcp = 0;
        if ethertype == ETHERTYPE_VLAN {
            if data.len() < 18 {
                return Err(DecodeError::Truncated {
                    what: "802.1Q tag",
                    needed: 18,
                    available: data.len(),
                });
            }
            let tci = u16::from_be_bytes([data[14], data[15]]);
            dl_vlan = tci & 0x0fff;
            dl_vlan_pcp = (tci >> 13) as u8;
            ethertype = u16::from_be_bytes([data[16], data[17]]);
            offset = 18;
        }

        let mut header = PacketHeader {
            dl_src,
            dl_dst,
            dl_vlan,
            dl_vlan_pcp,
            dl_type: ethertype,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        };

        if ethertype == ETHERTYPE_IPV4 {
            let ip = &data[offset..];
            if ip.len() < 20 {
                return Err(DecodeError::Truncated {
                    what: "IPv4 header",
                    needed: 20,
                    available: ip.len(),
                });
            }
            if ip[0] >> 4 != 4 {
                return Err(DecodeError::Malformed("IPv4 version nibble"));
            }
            let ihl = (ip[0] & 0x0f) as usize * 4;
            if ihl < 20 || ip.len() < ihl {
                return Err(DecodeError::Malformed("IPv4 IHL"));
            }
            header.nw_tos = ip[1];
            header.nw_proto = ip[9];
            header.nw_src = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
            header.nw_dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
            let l4 = &ip[ihl..];
            match header.nw_proto {
                IPPROTO_TCP | IPPROTO_UDP if l4.len() >= 4 => {
                    header.tp_src = u16::from_be_bytes([l4[0], l4[1]]);
                    header.tp_dst = u16::from_be_bytes([l4[2], l4[3]]);
                }
                IPPROTO_ICMP if l4.len() >= 2 => {
                    header.tp_src = l4[0] as u16;
                    header.tp_dst = l4[1] as u16;
                }
                _ => {}
            }
        } else if ethertype == ETHERTYPE_ARP {
            // ARP: nw_proto carries the opcode, addresses the ARP SPA/TPA,
            // as the OpenFlow 1.0 specification prescribes.
            let arp = &data[offset..];
            if arp.len() >= 28 {
                header.nw_proto = arp[7];
                header.nw_src = Ipv4Addr::new(arp[14], arp[15], arp[16], arp[17]);
                header.nw_dst = Ipv4Addr::new(arp[24], arp[25], arp[26], arp[27]);
            }
        }

        Ok(header)
    }

    /// The ToS byte [`PacketHeader::from_bytes`] reports for `data`, read
    /// without parsing anything else: the IPv4 ToS, or 0 for other
    /// ethertypes and frames cut short before it.  (Frames `from_bytes`
    /// rejects may yield any value.)  Lets a proxy test every forwarded
    /// frame for a reserved marking at the cost of two loads.
    pub fn peek_nw_tos(data: &[u8]) -> u8 {
        let ethertype_at = |at: usize| {
            data.get(at..at + 2)
                .map(|b| u16::from_be_bytes([b[0], b[1]]))
        };
        let (ethertype, ip_at) = match ethertype_at(12) {
            Some(ETHERTYPE_VLAN) => (ethertype_at(16), 18),
            untagged => (untagged, 14),
        };
        match (ethertype, data.get(ip_at + 1)) {
            (Some(ETHERTYPE_IPV4), Some(&tos)) => tos,
            _ => 0,
        }
    }

    /// The IP source address as a raw big-endian u32 (useful for matching).
    pub fn nw_src_u32(&self) -> u32 {
        ipv4_to_u32(self.nw_src)
    }

    /// The IP destination address as a raw big-endian u32.
    pub fn nw_dst_u32(&self) -> u32 {
        ipv4_to_u32(self.nw_dst)
    }

    /// Replaces the IP source address from a raw u32.
    pub fn set_nw_src_u32(&mut self, raw: u32) {
        self.nw_src = u32_to_ipv4(raw);
    }

    /// Replaces the IP destination address from a raw u32.
    pub fn set_nw_dst_u32(&mut self, raw: u32) {
        self.nw_dst = u32_to_ipv4(raw);
    }
}

/// Computes the standard 16-bit one's-complement IPv4 header checksum.
pub fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = header.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PacketHeader {
        PacketHeader::ipv4_udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 200),
            4242,
            80,
        )
    }

    #[test]
    fn round_trip_udp() {
        let h = sample();
        let bytes = h.to_bytes();
        assert!(bytes.len() >= 60);
        let parsed = PacketHeader::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn round_trip_tcp_with_tos() {
        let mut h = PacketHeader::ipv4_tcp(
            MacAddr::from_id(3),
            MacAddr::from_id(4),
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            5555,
            443,
        );
        h.nw_tos = 0xb8;
        let parsed = PacketHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.nw_tos, 0xb8);
    }

    #[test]
    fn round_trip_vlan_tagged() {
        let mut h = sample();
        h.dl_vlan = 100;
        h.dl_vlan_pcp = 5;
        let bytes = h.to_bytes();
        let parsed = PacketHeader::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.has_vlan());
    }

    #[test]
    fn round_trip_icmp() {
        let mut h = sample();
        h.nw_proto = IPPROTO_ICMP;
        h.tp_src = 8; // echo request
        h.tp_dst = 0;
        let parsed = PacketHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed.nw_proto, IPPROTO_ICMP);
        assert_eq!(parsed.tp_src, 8);
        assert_eq!(parsed.tp_dst, 0);
    }

    #[test]
    fn ipv4_checksum_is_valid() {
        let h = sample();
        let bytes = h.to_bytes();
        // IPv4 header starts right after the 14-byte Ethernet header.
        let ip = &bytes[14..34];
        // Re-checksumming a valid header (checksum included) yields 0.
        assert_eq!(ipv4_checksum(ip), 0);
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 style computation.
        let header: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(ipv4_checksum(&header), 0xb861);
    }

    #[test]
    fn truncated_frame_is_rejected() {
        assert!(matches!(
            PacketHeader::from_bytes(&[0u8; 10]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_ip_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.truncate(20);
        assert!(PacketHeader::from_bytes(&bytes).is_err());
    }

    #[test]
    fn non_ip_frame_parses_l2_only() {
        let mut h = sample();
        h.dl_type = 0x88cc; // LLDP
        let bytes = h.to_bytes();
        let parsed = PacketHeader::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.dl_type, 0x88cc);
        assert_eq!(parsed.nw_src, Ipv4Addr::UNSPECIFIED);
    }

    #[test]
    fn peeked_tos_agrees_with_the_full_parse() {
        let mut tagged = sample();
        tagged.dl_vlan = 100;
        tagged.nw_tos = 0xf4;
        let mut lldp = sample();
        lldp.dl_type = 0x88cc;
        for header in [sample(), tagged, lldp] {
            let bytes = header.to_bytes();
            // Every prefix the parser accepts must peek to the parsed value.
            for len in 0..=bytes.len() {
                if let Ok(parsed) = PacketHeader::from_bytes(&bytes[..len]) {
                    assert_eq!(PacketHeader::peek_nw_tos(&bytes[..len]), parsed.nw_tos);
                }
            }
        }
        assert_eq!(PacketHeader::peek_nw_tos(&tagged.to_bytes()), 0xf4);
        assert_eq!(PacketHeader::peek_nw_tos(&[]), 0);
    }

    #[test]
    fn default_packet_is_untagged() {
        let h = PacketHeader::default();
        assert!(!h.has_vlan());
        assert!(h.is_ipv4());
        assert!(h.has_l4_ports());
    }
}
