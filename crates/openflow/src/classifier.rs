//! Tuple-space classification: finding the rules a packet matches without
//! scanning every rule.
//!
//! An OpenFlow 1.0 rule constrains some header fields and wildcards the
//! rest; the set of constrained fields (with the IP prefix lengths) is the
//! rule's *mask*.  All rules of one mask — one *tuple* — can share a hash
//! map: project the rule through the mask, hash what is left, and a packet
//! projected through the same mask lands on the same slot exactly when the
//! rule matches it.  A lookup therefore costs one hash probe per distinct
//! mask instead of one comparison per rule, and real tables use a handful of
//! masks for thousands of rules.
//!
//! [`TupleSpace`] is only the index.  It stores caller-chosen rule ids
//! (installation sequence numbers), bucketed by priority, and answers "which
//! ids *may* match this packet" — a superset the caller verifies with
//! [`OfMatch::matches`] and then ranks.  Its one user, the switch's flow
//! table `ofswitch::FlowTable` (also RUM's model of a switch), wants the
//! earliest-installed match of the highest priority.  To stay small the
//! maps key on a 64-bit fingerprint of the projected fields rather than on
//! the fields themselves; verification is what makes a fingerprint
//! collision harmless.
//!
//! One kind of rule is not a masked comparison: with `DL_VLAN` wildcarded
//! and `DL_VLAN_PCP` constrained, whether the priority bits matter depends
//! on whether the *packet* carries a tag.  Such rules sit in a per-priority
//! residual list that every lookup reports in full.

use crate::constants::OFP_VLAN_NONE;
use crate::flow_match::OfMatch;
use crate::packet::PacketHeader;
use crate::types::{ipv4_to_u32, MacAddr, PortNo};
use crate::wildcards::Wildcards;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeBounds;

/// A concrete packet, prepared once per lookup for projection through any
/// number of masks.
#[derive(Debug, Clone, Copy)]
pub struct PacketKey(OfMatch);

impl PacketKey {
    /// Prepares `packet`, as received on `in_port`.
    pub fn new(packet: &PacketHeader, in_port: PortNo) -> Self {
        PacketKey(OfMatch::exact_from_packet(packet, in_port))
    }
}

/// Hashes a fingerprint to itself: the fingerprint is already mixed.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// All indexed rules of one priority that share one mask.
#[derive(Debug, Clone)]
struct Tuple {
    /// The canonical wildcard set of every rule in this tuple.
    mask: Wildcards,
    /// Fingerprint of the masked fields → the smallest rule id carrying it.
    first: HashMap<u64, u64, BuildHasherDefault<FingerprintHasher>>,
    /// `(fingerprint, id)` of every further rule whose fingerprint is
    /// already in `first` (rules equal under the mask — differing only in
    /// ignored bits — or a fingerprint collision), ascending by id.
    later: Vec<(u64, u64)>,
}

impl Tuple {
    fn insert(&mut self, fingerprint: u64, mut id: u64) {
        if let Some(first) = self.first.get_mut(&fingerprint) {
            if id < *first {
                std::mem::swap(first, &mut id);
            }
            let at = self.later.partition_point(|&(_, later)| later < id);
            self.later.insert(at, (fingerprint, id));
        } else {
            self.first.insert(fingerprint, id);
        }
    }

    fn remove(&mut self, fingerprint: u64, id: u64) {
        if self.first.get(&fingerprint) == Some(&id) {
            match self.later.iter().position(|&(f, _)| f == fingerprint) {
                Some(at) => {
                    let (_, next) = self.later.remove(at);
                    self.first.insert(fingerprint, next);
                }
                None => {
                    self.first.remove(&fingerprint);
                }
            }
        } else if let Some(at) = self
            .later
            .iter()
            .position(|&later| later == (fingerprint, id))
        {
            self.later.remove(at);
        }
    }

    /// Ids carrying `fingerprint`, ascending.
    fn ids_with(&self, fingerprint: u64, visit: &mut impl FnMut(u64)) {
        let Some(&first) = self.first.get(&fingerprint) else {
            return;
        };
        visit(first);
        for &(f, id) in &self.later {
            if f == fingerprint {
                visit(id);
            }
        }
    }
}

/// The rules of one priority.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    tuples: Vec<Tuple>,
    /// Rules that are not a masked comparison (see the module docs),
    /// ascending by id.
    residual: Vec<u64>,
}

impl Bucket {
    fn is_empty(&self) -> bool {
        self.tuples.is_empty() && self.residual.is_empty()
    }

    fn tuple_at(&self, mask: Wildcards) -> Option<usize> {
        self.tuples.iter().position(|t| t.mask == mask)
    }

    /// Every rule id of this priority, in no particular order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.tuples
            .iter()
            .flat_map(|t| t.first.values().copied().chain(t.later.iter().map(|l| l.1)))
            .chain(self.residual.iter().copied())
    }

    /// Calls `visit` with the id of every rule of this priority that may
    /// match `packet`: all that do, plus at most the odd fingerprint
    /// collision and the residual rules.  Ids sharing a tuple arrive in
    /// ascending order; the caller verifies each with [`OfMatch::matches`].
    pub fn candidates(&self, packet: &PacketKey, mut visit: impl FnMut(u64)) {
        for tuple in &self.tuples {
            tuple.ids_with(fingerprint(tuple.mask, &packet.0), &mut visit);
        }
        for &id in &self.residual {
            visit(id);
        }
    }

    /// Calls `visit` with the id of every rule of this priority that may be
    /// bit-for-bit equal to `match_` (OpenFlow's *strict* comparison); the
    /// caller verifies each with `==`.
    pub fn strict_candidates(&self, match_: &OfMatch, mut visit: impl FnMut(u64)) {
        match mask_of(match_) {
            Some(mask) => {
                if let Some(at) = self.tuple_at(mask) {
                    self.tuples[at].ids_with(fingerprint(mask, match_), &mut visit);
                }
            }
            None => self.residual.iter().copied().for_each(visit),
        }
    }
}

/// A priority-bucketed tuple-space index over rule ids; see the module
/// docs.
#[derive(Debug, Clone, Default)]
pub struct TupleSpace {
    buckets: BTreeMap<u16, Bucket>,
}

impl TupleSpace {
    /// An empty index.
    pub fn new() -> Self {
        TupleSpace::default()
    }

    /// Indexes rule `id` with the given match and priority.  An id is
    /// indexed at most once.
    pub fn insert(&mut self, match_: &OfMatch, priority: u16, id: u64) {
        let bucket = self.buckets.entry(priority).or_default();
        let Some(mask) = mask_of(match_) else {
            let at = bucket.residual.partition_point(|&r| r < id);
            bucket.residual.insert(at, id);
            return;
        };
        let at = match bucket.tuple_at(mask) {
            Some(at) => at,
            None => {
                bucket.tuples.push(Tuple {
                    mask,
                    first: HashMap::default(),
                    later: Vec::new(),
                });
                bucket.tuples.len() - 1
            }
        };
        bucket.tuples[at].insert(fingerprint(mask, match_), id);
    }

    /// Removes rule `id`, indexed with exactly this match and priority.
    pub fn remove(&mut self, match_: &OfMatch, priority: u16, id: u64) {
        let Some(bucket) = self.buckets.get_mut(&priority) else {
            return;
        };
        match mask_of(match_) {
            Some(mask) => {
                if let Some(at) = bucket.tuple_at(mask) {
                    bucket.tuples[at].remove(fingerprint(mask, match_), id);
                    if bucket.tuples[at].first.is_empty() {
                        bucket.tuples.remove(at);
                    }
                }
            }
            None => {
                if let Ok(at) = bucket.residual.binary_search(&id) {
                    bucket.residual.remove(at);
                }
            }
        }
        if bucket.is_empty() {
            self.buckets.remove(&priority);
        }
    }

    /// The rules of exactly `priority`, if any.
    pub fn bucket(&self, priority: u16) -> Option<&Bucket> {
        self.buckets.get(&priority)
    }

    /// The non-empty buckets whose priority lies in `priorities`, highest
    /// priority first.
    pub fn descending(&self, priorities: impl RangeBounds<u16>) -> impl Iterator<Item = &Bucket> {
        self.buckets.range(priorities).rev().map(|(_, b)| b)
    }
}

/// The canonical mask of `match_` — its wildcard set with undefined bits
/// dropped and the prefix counts saturated — or `None` when matching is not
/// a masked comparison.
fn mask_of(match_: &OfMatch) -> Option<Wildcards> {
    let w = match_.wildcards;
    if w.is_wildcarded(Wildcards::DL_VLAN) && !w.is_wildcarded(Wildcards::DL_VLAN_PCP) {
        return None;
    }
    Some(
        Wildcards::from_raw(w.raw())
            .with_nw_src_bits(w.nw_src_bits())
            .with_nw_dst_bits(w.nw_dst_bits()),
    )
}

/// Hashes the fields of `m` that `mask` constrains, reduced to what
/// [`OfMatch::matches`] compares: the DSCP bits of the ToS byte, the prefix
/// of each address, and no VLAN priority without a VLAN tag (`mask`
/// constrains the VLAN id whenever it constrains the priority).  A rule with
/// this mask matches a packet exactly when both hash equal fields here.
fn fingerprint(mask: Wildcards, m: &OfMatch) -> u64 {
    let keep = |flag: u32, value: u64| if mask.is_wildcarded(flag) { 0 } else { value };
    let mac = |a: MacAddr| {
        let o = a.octets();
        u64::from_be_bytes([0, 0, o[0], o[1], o[2], o[3], o[4], o[5]])
    };
    let pcp = if m.dl_vlan == OFP_VLAN_NONE {
        0
    } else {
        m.dl_vlan_pcp
    };
    let words = [
        keep(Wildcards::IN_PORT, u64::from(m.in_port)) << 48
            | keep(Wildcards::DL_SRC, mac(m.dl_src)),
        keep(Wildcards::DL_VLAN, u64::from(m.dl_vlan)) << 48
            | keep(Wildcards::DL_DST, mac(m.dl_dst)),
        u64::from(ipv4_to_u32(m.nw_src) & mask.nw_src_mask()) << 32
            | u64::from(ipv4_to_u32(m.nw_dst) & mask.nw_dst_mask()),
        keep(Wildcards::TP_SRC, u64::from(m.tp_src)) << 48
            | keep(Wildcards::TP_DST, u64::from(m.tp_dst)) << 32
            | keep(Wildcards::DL_TYPE, u64::from(m.dl_type)) << 16
            | keep(Wildcards::NW_PROTO, u64::from(m.nw_proto)) << 8
            | keep(Wildcards::NW_TOS, u64::from(m.nw_tos & 0xfc)),
        keep(Wildcards::DL_VLAN_PCP, u64::from(pcp)),
    ];
    let mut h = 0u64;
    for word in words {
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // The splitmix64 finaliser: the hash map reads both ends of the word.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn packet(src: [u8; 4], dst: [u8; 4]) -> PacketHeader {
        PacketHeader::ipv4_udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            7,
            9,
        )
    }

    fn candidates(space: &TupleSpace, priority: u16, pkt: &PacketHeader) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(b) = space.bucket(priority) {
            b.candidates(&PacketKey::new(pkt, 1), |id| out.push(id));
        }
        out
    }

    #[test]
    fn one_probe_per_mask_finds_the_matching_rule() {
        let mut space = TupleSpace::new();
        for i in 0..200u8 {
            let pair = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i));
            space.insert(&pair, 5, u64::from(i));
        }
        let prefix = OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 24);
        space.insert(&prefix, 5, 900);
        assert_eq!(
            candidates(&space, 5, &packet([10, 0, 0, 7], [10, 1, 0, 7])),
            vec![7, 900]
        );
        assert_eq!(
            candidates(&space, 5, &packet([10, 0, 0, 7], [10, 1, 0, 8])),
            vec![900]
        );
        assert!(candidates(&space, 5, &packet([10, 0, 0, 7], [10, 2, 0, 7])).is_empty());
        assert!(candidates(&space, 6, &packet([10, 0, 0, 7], [10, 1, 0, 7])).is_empty());
    }

    #[test]
    fn rules_equal_under_the_mask_share_a_slot_in_id_order() {
        // Same /24, different host bits; same DSCP, different ECN bits.
        let a = OfMatch::wildcard_all()
            .with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 1), 24)
            .with_nw_tos(0xb8);
        let b = OfMatch::wildcard_all()
            .with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 2), 24)
            .with_nw_tos(0xbb);
        let mut pkt = packet([1, 1, 1, 1], [10, 1, 0, 99]);
        pkt.nw_tos = 0xb9;
        let mut space = TupleSpace::new();
        space.insert(&b, 1, 20);
        space.insert(&a, 1, 10);
        assert_eq!(candidates(&space, 1, &pkt), vec![10, 20]);
        space.remove(&a, 1, 10);
        assert_eq!(candidates(&space, 1, &pkt), vec![20]);
        space.remove(&b, 1, 20);
        assert!(space.bucket(1).is_none(), "empty buckets are dropped");
    }

    #[test]
    fn vlan_priority_without_vlan_id_stays_on_the_residual_list() {
        let mut odd = OfMatch::wildcard_all();
        odd.wildcards = odd.wildcards.with(Wildcards::DL_VLAN_PCP, false);
        odd.dl_vlan_pcp = 3;
        let mut space = TupleSpace::new();
        space.insert(&odd, 2, 1);
        // Reported for every packet; `matches` decides.
        let untagged = packet([1, 1, 1, 1], [2, 2, 2, 2]);
        assert_eq!(candidates(&space, 2, &untagged), vec![1]);
        let mut strict = Vec::new();
        space
            .bucket(2)
            .unwrap()
            .strict_candidates(&odd, |id| strict.push(id));
        assert_eq!(strict, vec![1]);
        space.remove(&odd, 2, 1);
        assert!(space.bucket(2).is_none());
    }

    #[test]
    fn descending_walks_priorities_from_the_top() {
        let mut space = TupleSpace::new();
        for (priority, id) in [(1u16, 1u64), (9, 2), (5, 3)] {
            space.insert(&OfMatch::wildcard_all(), priority, id);
        }
        let order = |range: std::ops::RangeInclusive<u16>| -> Vec<u64> {
            space.descending(range).flat_map(|b| b.ids()).collect()
        };
        assert_eq!(order(0..=u16::MAX), vec![2, 3, 1]);
        assert_eq!(order(0..=5), vec![3, 1]);
        assert_eq!(order(6..=u16::MAX), vec![2]);
    }
}
