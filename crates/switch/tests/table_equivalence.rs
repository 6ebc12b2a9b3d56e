//! Property test: the indexed [`FlowTable`] is observationally identical to
//! the linear-scan reference oracle ([`LinearFlowTable`]) under randomized
//! flow-mod sequences — adds (with and without CHECK_OVERLAP and idle/hard
//! timeouts), strict and loose modifies and deletes (with out-port filters),
//! expiry sweeps, packet lookups and counter accounting — over
//! wildcard-heavy tables: a dozen distinct masks per priority, rules that
//! differ only in bits matching ignores, and the one rule shape that is not
//! a masked comparison.

use ofswitch::{FlowTable, LinearFlowTable};
use openflow::constants::OFP_VLAN_NONE;
use openflow::messages::{FlowMod, FlowModCommand};
use openflow::{Action, MacAddr, OfMatch, PacketHeader, Wildcards};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::time::Duration;

fn packet(rng: &mut SmallRng) -> PacketHeader {
    let a = rng.gen_index(4) as u8 + 1;
    let b = rng.gen_index(4) as u8 + 1;
    let mut pkt = PacketHeader::ipv4_udp(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(10, 0, 0, a),
        Ipv4Addr::new(10, 0, b, 1),
        1000 + rng.gen_index(2) as u16,
        2000 + rng.gen_index(3) as u16,
    );
    // Occasionally flip ECN bits so the index's DSCP canonicalisation is
    // exercised.
    pkt.nw_tos = (rng.gen_index(3) as u8) << 2 | rng.gen_index(4) as u8;
    // A third of the packets carry a VLAN tag: whether a rule's VLAN
    // priority matters depends on it.
    if rng.gen_index(3) == 0 {
        pkt.dl_vlan = [100, 200][rng.gen_index(2)];
        pkt.dl_vlan_pcp = rng.gen_index(3) as u8;
    }
    pkt
}

/// Sets bits matching ignores — values of wildcarded fields, host bits
/// beyond a prefix, ECN bits, prefix counts past 32 — from tiny ranges, so
/// the table holds rules that are distinct under strict comparison yet
/// match exactly the same packets.
fn add_ignored_bits(m: &mut OfMatch, rng: &mut SmallRng) {
    let w = m.wildcards;
    if w.is_wildcarded(Wildcards::IN_PORT) {
        m.in_port = rng.gen_index(2) as u16;
    }
    if w.is_wildcarded(Wildcards::DL_SRC) {
        m.dl_src = MacAddr::from_id(rng.gen_index(2) as u64);
    }
    if w.is_wildcarded(Wildcards::TP_SRC) {
        m.tp_src = rng.gen_index(2) as u16;
    }
    if w.is_wildcarded(Wildcards::DL_VLAN_PCP) {
        m.dl_vlan_pcp = rng.gen_index(2) as u8;
    }
    m.nw_tos |= rng.gen_index(2) as u8;
    if w.nw_src_bits() >= 8 {
        m.nw_src = Ipv4Addr::from(u32::from(m.nw_src) | rng.gen_index(2) as u32);
    }
    if w.nw_dst_bits() == 32 {
        // Any count of 32..=63 wildcards the whole address.
        m.wildcards = Wildcards(w.raw() | (rng.gen_index(2) as u32) << Wildcards::NW_DST_SHIFT);
    }
}

/// A match drawn from a deliberately small pool so adds, strict operations
/// and overlap checks collide often.
fn random_match(rng: &mut SmallRng) -> OfMatch {
    let mut m = match rng.gen_index(8) {
        0 => {
            // Fully exact match derived from a plausible packet.
            let pkt = packet(rng);
            OfMatch::exact_from_packet(&pkt, rng.gen_index(3) as u16)
        }
        1 => OfMatch::ipv4_pair(
            Ipv4Addr::new(10, 0, 0, rng.gen_index(4) as u8 + 1),
            Ipv4Addr::new(10, 0, rng.gen_index(4) as u8 + 1, 1),
        ),
        2 => OfMatch::wildcard_all()
            .with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), [8, 16, 24][rng.gen_index(3)]),
        3 => OfMatch::wildcard_all().with_tp_dst(2000 + rng.gen_index(3) as u16),
        4 => OfMatch::wildcard_all().with_nw_dst_prefix(
            Ipv4Addr::new(10, 0, rng.gen_index(4) as u8 + 1, 0),
            [8, 24][rng.gen_index(2)],
        ),
        5 => OfMatch::wildcard_all().with_nw_tos((rng.gen_index(3) as u8) << 2),
        6 => {
            // VLAN shapes: id only; id and priority; "untagged" and a
            // priority that then never matters; and a priority without an
            // id, which matches every untagged packet and the tagged ones
            // of that priority — not a masked comparison.
            let mut m = match rng.gen_index(4) {
                0 | 1 => OfMatch::wildcard_all().with_dl_vlan([100, 200][rng.gen_index(2)]),
                2 => OfMatch::wildcard_all().with_dl_vlan(OFP_VLAN_NONE),
                _ => OfMatch::wildcard_all(),
            };
            if m.wildcards.is_wildcarded(Wildcards::DL_VLAN) || rng.gen_bool(0.5) {
                m.wildcards = m.wildcards.with(Wildcards::DL_VLAN_PCP, false);
                m.dl_vlan_pcp = rng.gen_index(3) as u8;
            }
            m
        }
        _ => OfMatch::wildcard_all(),
    };
    if rng.gen_bool(0.4) {
        add_ignored_bits(&mut m, rng);
    }
    m
}

fn random_flow_mod(rng: &mut SmallRng, next_cookie: &mut u64) -> FlowMod {
    let match_ = random_match(rng);
    let priority = [1u16, 5, 9][rng.gen_index(3)];
    let port = rng.gen_index(4) as u16 + 1;
    let cookie = {
        *next_cookie += 1;
        *next_cookie
    };
    match rng.gen_index(8) {
        // Adds dominate: bulk install is the hot path under test.
        0..=3 => {
            let mut fm =
                FlowMod::add(match_, priority, vec![Action::output(port)]).with_cookie(cookie);
            if rng.gen_bool(0.25) {
                fm = fm.with_check_overlap();
            }
            if rng.gen_bool(0.3) {
                fm = fm.with_hard_timeout(rng.gen_index(3) as u16 + 1);
            }
            if rng.gen_bool(0.3) {
                fm = fm.with_idle_timeout(rng.gen_index(3) as u16 + 1);
            }
            fm
        }
        4 => {
            FlowMod::modify_strict(match_, priority, vec![Action::output(port)]).with_cookie(cookie)
        }
        5 => FlowMod {
            command: FlowModCommand::Modify,
            ..FlowMod::add(match_, priority, vec![Action::output(port)]).with_cookie(cookie)
        },
        6 => {
            let mut fm = FlowMod::delete_strict(match_, priority);
            if rng.gen_bool(0.3) {
                fm.out_port = rng.gen_index(4) as u16 + 1;
            }
            fm
        }
        _ => {
            let mut fm = FlowMod::delete(match_);
            if rng.gen_bool(0.3) {
                fm.out_port = rng.gen_index(4) as u16 + 1;
            }
            fm
        }
    }
}

fn assert_same_state(indexed: &FlowTable, oracle: &LinearFlowTable, seed: u64, step: usize) {
    assert_eq!(
        indexed.len(),
        oracle.len(),
        "length diverged (seed {seed}, step {step})"
    );
    // Full observational check: the entry sequences (installation order,
    // every field) must be identical.
    let a: Vec<_> = indexed.entries().collect();
    let b: Vec<_> = oracle.entries().collect();
    assert_eq!(a, b, "entry sequences diverged (seed {seed}, step {step})");
}

#[test]
fn indexed_table_matches_linear_oracle() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x000F_100D + seed);
        // Half the runs use a small capacity so TableFull paths are hit too.
        let cap = if seed % 2 == 0 { 0 } else { 12 };
        let mut indexed = FlowTable::new(cap);
        let mut oracle = LinearFlowTable::new(cap);
        let mut now = Duration::ZERO;
        let mut cookie = 0u64;

        for step in 0..400 {
            now += Duration::from_millis(rng.gen_range_u64(400));
            match rng.gen_index(10) {
                // Mostly flow-mods...
                0..=6 => {
                    let fm = random_flow_mod(&mut rng, &mut cookie);
                    let ra = indexed.apply(&fm, now);
                    let rb = oracle.apply(&fm, now);
                    assert_eq!(ra, rb, "apply outcome diverged (seed {seed}, step {step})");
                }
                // ... with lookups, accounting and expiry mixed in.
                7 => {
                    let pkt = packet(&mut rng);
                    let in_port = rng.gen_index(3) as u16;
                    assert_eq!(
                        indexed.peek_lookup(&pkt, in_port),
                        oracle.peek_lookup(&pkt, in_port),
                        "peek_lookup diverged (seed {seed}, step {step})"
                    );
                    assert_eq!(
                        indexed.lookup(&pkt, in_port).cloned(),
                        oracle.lookup(&pkt, in_port).cloned(),
                        "lookup diverged (seed {seed}, step {step})"
                    );
                    assert_eq!(indexed.lookup_count, oracle.lookup_count);
                    assert_eq!(indexed.matched_count, oracle.matched_count);
                }
                8 => {
                    let m = random_match(&mut rng);
                    let priority = [1u16, 5, 9][rng.gen_index(3)];
                    assert_eq!(
                        indexed.find_strict(&m, priority),
                        oracle.find_strict(&m, priority),
                        "find_strict diverged (seed {seed}, step {step})"
                    );
                    indexed.account(&m, priority, 64, now);
                    oracle.account(&m, priority, 64, now);
                }
                _ => {
                    assert_eq!(
                        indexed.expire(now),
                        oracle.expire(now),
                        "expire diverged (seed {seed}, step {step})"
                    );
                }
            }
            assert_same_state(&indexed, &oracle, seed, step);
        }
        // Final expiry far in the future drains every timed entry the same
        // way on both implementations.
        let later = now + Duration::from_secs(3600);
        assert_eq!(indexed.expire(later), oracle.expire(later));
        assert_same_state(&indexed, &oracle, seed, usize::MAX);
    }
}

/// Tables that fill up: no timeouts and no delete-everything, so every
/// priority ends up holding many rules under at least four distinct masks
/// (with /8 and /24 prefixes, VLAN shapes and ignored-bit twins among them)
/// while strict and loose deletes and modifies keep churning it — and every
/// step is followed by lookups that must agree with the oracle.
#[test]
fn wildcard_heavy_tables_answer_every_lookup_like_the_oracle() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0x7_0B1E + seed);
        let mut indexed = FlowTable::new(0);
        let mut oracle = LinearFlowTable::new(0);
        let mut cookie = 0u64;
        let mut most_masks = [0usize; 3];
        for step in 0..600 {
            let mut fm = random_flow_mod(&mut rng, &mut cookie);
            fm.hard_timeout = 0;
            fm.idle_timeout = 0;
            if fm.command == FlowModCommand::Delete && fm.match_.wildcards.matches_everything() {
                continue;
            }
            assert_eq!(
                indexed.apply(&fm, Duration::ZERO),
                oracle.apply(&fm, Duration::ZERO),
                "apply outcome diverged (seed {seed}, step {step})"
            );
            for _ in 0..4 {
                let pkt = packet(&mut rng);
                let in_port = rng.gen_index(3) as u16;
                assert_eq!(
                    indexed.peek_lookup(&pkt, in_port),
                    oracle.peek_lookup(&pkt, in_port),
                    "peek_lookup diverged (seed {seed}, step {step})"
                );
                assert_eq!(
                    indexed.lookup(&pkt, in_port).cloned(),
                    oracle.lookup(&pkt, in_port).cloned(),
                    "lookup diverged (seed {seed}, step {step})"
                );
            }
            for (slot, priority) in [1u16, 5, 9].into_iter().enumerate() {
                let masks: std::collections::BTreeSet<u32> = oracle
                    .entries()
                    .filter(|e| e.priority == priority)
                    .map(|e| e.match_.wildcards.raw())
                    .collect();
                most_masks[slot] = most_masks[slot].max(masks.len());
            }
        }
        assert_same_state(&indexed, &oracle, seed, usize::MAX);
        assert!(
            most_masks.iter().all(|&n| n >= 4),
            "seed {seed} never held four masks in one priority: {most_masks:?}"
        );
    }
}

/// Two rules of one priority under different masks both match; whichever
/// was installed first wins, whichever hash map finds it.
#[test]
fn equal_priority_overlap_across_masks_resolves_by_install_order() {
    let pkt = PacketHeader::ipv4_udp(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 2, 1),
        1000,
        2000,
    );
    let by_prefix = OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 0, 2, 0), 24);
    let by_port = OfMatch::wildcard_all().with_tp_dst(2000);
    for (first, second) in [(by_prefix, by_port), (by_port, by_prefix)] {
        let mut indexed = FlowTable::new(0);
        let mut oracle = LinearFlowTable::new(0);
        for (cookie, m) in [(1, first), (2, second)] {
            let fm = FlowMod::add(m, 5, vec![Action::output(1)]).with_cookie(cookie);
            indexed.apply(&fm, Duration::ZERO).unwrap();
            oracle.apply(&fm, Duration::ZERO).unwrap();
        }
        assert_eq!(indexed.lookup(&pkt, 1).unwrap().cookie, 1);
        assert_eq!(oracle.lookup(&pkt, 1).unwrap().cookie, 1);
    }
}
