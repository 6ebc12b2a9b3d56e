//! Randomised property tests over the core data structures and invariants.
//!
//! These were originally written with `proptest`; the offline build
//! environment has no crates.io access, so the same properties are exercised
//! with a seeded deterministic generator instead (no shrinking, but fully
//! reproducible: every failure message includes the case index, and the seed
//! is fixed).

use openflow::messages::{FlowMod, FlowModCommand};
use openflow::{Action, MacAddr, OfMatch, OfMessage, PacketHeader, Wildcards};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

const CASES: usize = 128;

fn rng_for(test: u64) -> SmallRng {
    SmallRng::seed_from_u64(0x5eed_0000 + test)
}

fn arb_mac(rng: &mut SmallRng) -> MacAddr {
    let mut b = [0u8; 6];
    for byte in &mut b {
        *byte = rng.next_u32() as u8;
    }
    MacAddr::new(b)
}

fn arb_ipv4(rng: &mut SmallRng) -> Ipv4Addr {
    Ipv4Addr::from(rng.next_u32())
}

fn arb_packet_header(rng: &mut SmallRng) -> PacketHeader {
    let mut h = PacketHeader::ipv4_udp(
        arb_mac(rng),
        arb_mac(rng),
        arb_ipv4(rng),
        arb_ipv4(rng),
        rng.next_u32() as u16,
        rng.next_u32() as u16,
    );
    h.nw_proto = if rng.gen_bool(0.5) { 6 } else { 17 };
    h.nw_tos = rng.next_u32() as u8;
    if rng.gen_bool(0.5) {
        let v = rng.gen_range_u64(4095) as u16;
        h.dl_vlan = v;
        h.dl_vlan_pcp = (v % 8) as u8;
    }
    h
}

fn arb_action(rng: &mut SmallRng) -> Action {
    match rng.gen_index(12) {
        0 => Action::Output {
            port: rng.next_u32() as u16,
            max_len: rng.next_u32() as u16,
        },
        1 => Action::SetVlanVid(rng.gen_range_u64(4096) as u16),
        2 => Action::SetVlanPcp(rng.gen_index(8) as u8),
        3 => Action::StripVlan,
        4 => Action::SetDlSrc(arb_mac(rng)),
        5 => Action::SetDlDst(arb_mac(rng)),
        6 => Action::SetNwSrc(rng.next_u32()),
        7 => Action::SetNwDst(rng.next_u32()),
        8 => Action::SetNwTos(rng.next_u32() as u8),
        9 => Action::SetTpSrc(rng.next_u32() as u16),
        10 => Action::SetTpDst(rng.next_u32() as u16),
        _ => Action::Enqueue {
            port: rng.next_u32() as u16,
            queue_id: rng.next_u32(),
        },
    }
}

fn arb_actions(rng: &mut SmallRng, max: usize) -> Vec<Action> {
    (0..rng.gen_index(max)).map(|_| arb_action(rng)).collect()
}

/// An arbitrary match built the way controllers build them: from a concrete
/// packet plus a random subset of wildcarded fields.
fn arb_match(rng: &mut SmallRng) -> OfMatch {
    let pkt = arb_packet_header(rng);
    let in_port = rng.next_u32() as u16;
    let wild_bits = rng.next_u32() as u16;
    let src_bits = rng.gen_range_u64(33) as u32;
    let dst_bits = rng.gen_range_u64(33) as u32;
    let mut m = OfMatch::exact_from_packet(&pkt, in_port);
    let mut w = m.wildcards;
    for (bit, flag) in [
        Wildcards::IN_PORT,
        Wildcards::DL_VLAN,
        Wildcards::DL_SRC,
        Wildcards::DL_DST,
        Wildcards::DL_TYPE,
        Wildcards::NW_PROTO,
        Wildcards::TP_SRC,
        Wildcards::TP_DST,
        Wildcards::DL_VLAN_PCP,
        Wildcards::NW_TOS,
    ]
    .iter()
    .enumerate()
    {
        w = w.with(*flag, wild_bits & (1 << bit) != 0);
    }
    w = w.with_nw_src_bits(src_bits).with_nw_dst_bits(dst_bits);
    m.wildcards = w;
    m
}

/// Ethernet/IP serialisation round-trips for every header we generate.
#[test]
fn packet_header_bytes_round_trip() {
    let mut rng = rng_for(1);
    for case in 0..CASES {
        let h = arb_packet_header(&mut rng);
        let parsed = PacketHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h, "case {case}");
    }
}

/// OpenFlow match encode/decode round-trips.
#[test]
fn of_match_wire_round_trip() {
    let mut rng = rng_for(2);
    for case in 0..CASES {
        let m = arb_match(&mut rng);
        let mut buf = bytes::BytesMut::new();
        m.encode(&mut buf);
        let decoded = OfMatch::decode(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, m, "case {case}");
    }
}

/// Flow-mod messages round-trip through the full message codec.
#[test]
fn flow_mod_message_round_trip() {
    let mut rng = rng_for(3);
    let commands = [
        FlowModCommand::Add,
        FlowModCommand::Modify,
        FlowModCommand::ModifyStrict,
        FlowModCommand::Delete,
        FlowModCommand::DeleteStrict,
    ];
    for case in 0..CASES {
        let m = arb_match(&mut rng);
        let actions = arb_actions(&mut rng, 5);
        let priority = rng.next_u32() as u16;
        let xid = rng.next_u32();
        let cookie = rng.next_u64();
        let cmd = commands[rng.gen_index(commands.len())];
        let mut body = FlowMod::add(m, priority, actions).with_cookie(cookie);
        body.command = cmd;
        let msg = OfMessage::FlowMod { xid, body };
        let bytes = msg.encode_to_vec().unwrap();
        assert_eq!(OfMessage::decode(&bytes).unwrap(), msg, "case {case}");
    }
}

/// PacketIn / PacketOut / barrier messages survive the stream codec even
/// when delivered byte by byte.
#[test]
fn stream_codec_survives_arbitrary_fragmentation() {
    let mut rng = rng_for(4);
    for case in 0..CASES {
        let n_headers = 1 + rng.gen_index(3);
        let headers: Vec<PacketHeader> = (0..n_headers)
            .map(|_| arb_packet_header(&mut rng))
            .collect();
        let split = 1 + rng.gen_index(6);
        let codec = openflow::OfCodec::new();
        let msgs: Vec<OfMessage> = headers
            .iter()
            .enumerate()
            .flat_map(|(i, h)| {
                vec![
                    OfMessage::PacketOut {
                        xid: i as u32,
                        body: openflow::messages::PacketOut::single_port(1, h.to_bytes()),
                    },
                    OfMessage::BarrierRequest {
                        xid: 1000 + i as u32,
                    },
                ]
            })
            .collect();
        let wire = codec.encode_batch(&msgs).unwrap();
        let mut rx = openflow::OfCodec::new();
        let mut decoded = Vec::new();
        for chunk in wire.chunks(split) {
            rx.feed(chunk);
            while let Some(m) = rx.next_message().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, msgs, "case {case} (split {split})");
    }
}

/// `example_packet` always produces a packet that matches its own rule.
#[test]
fn example_packet_matches_rule() {
    let mut rng = rng_for(5);
    for case in 0..CASES {
        let m = arb_match(&mut rng);
        let (pkt, port) = m.example_packet(&PacketHeader::default());
        assert!(m.matches(&pkt, port), "case {case}: {m:?}");
    }
}

/// If a rule covers another, then any packet matching the covered rule's
/// example also matches the covering rule, and the two rules overlap.
#[test]
fn covers_implies_overlap_and_match() {
    let mut rng = rng_for(6);
    for case in 0..CASES {
        let a = arb_match(&mut rng);
        let b = arb_match(&mut rng);
        if a.covers(&b) {
            assert!(a.overlaps(&b), "case {case}: covers must imply overlaps");
            let (pkt, port) = b.example_packet(&PacketHeader::default());
            assert!(
                a.matches(&pkt, port),
                "case {case}: covering rule must match the covered example"
            );
        }
        // Overlap is symmetric.
        assert_eq!(a.overlaps(&b), b.overlaps(&a), "case {case}");
        // Every match covers and overlaps itself.
        assert!(a.covers(&a), "case {case}");
        assert!(a.overlaps(&a), "case {case}");
    }
}

/// Applying actions is deterministic and output ports are preserved.
#[test]
fn action_application_is_deterministic() {
    let mut rng = rng_for(7);
    for case in 0..CASES {
        let h = arb_packet_header(&mut rng);
        let actions = arb_actions(&mut rng, 6);
        let (a1, p1) = Action::apply_list(&actions, &h);
        let (a2, p2) = Action::apply_list(&actions, &h);
        assert_eq!(a1, a2, "case {case}");
        assert_eq!(p1, p2, "case {case}");
        assert_eq!(p1, Action::output_ports(&actions), "case {case}");
    }
}

/// True when `entry`, an oracle lookup, handles `packet` exactly as
/// `actions` do: same header out, same output ports.
fn handled_like(
    entry: Option<&ofswitch::FlowEntry>,
    actions: &[Action],
    packet: &PacketHeader,
) -> bool {
    entry.is_some_and(|e| {
        Action::apply_list(&e.actions, packet) == Action::apply_list(actions, packet)
    })
}

/// Applies `fm` to the oracle and asserts that `probe` is a witness for it
/// there: handled otherwise before the mod, as the mod does after it, and
/// caught downstream with the header the mod's actions produce.
fn apply_and_check_witness(
    oracle: &mut ofswitch::LinearFlowTable,
    fm: &FlowMod,
    probe: Option<&rum::probe::GeneralProbe>,
    now: std::time::Duration,
    context: &str,
) {
    let before =
        probe.map(|p| handled_like(oracle.peek_lookup(&p.packet, 0), &fm.actions, &p.packet));
    let _ = oracle.apply(fm, now);
    let Some(probe) = probe else {
        return;
    };
    assert!(
        fm.match_.matches(&probe.packet, 0),
        "{context}: probe misses the rule"
    );
    assert_eq!(
        before,
        Some(false),
        "{context}: handled alike before the mod"
    );
    assert!(
        handled_like(
            oracle.peek_lookup(&probe.packet, 0),
            &fm.actions,
            &probe.packet
        ),
        "{context}: not handled as the mod does after it"
    );
    assert_eq!(
        probe.expected_at_catch,
        Action::apply_list(&fm.actions, &probe.packet).0,
        "{context}"
    );
}

/// A property over the RUM probe synthesiser: whenever a probe is produced,
/// it matches the probed rule and no higher-priority rule, and it is a
/// witness for the rule on the reference table.
#[test]
fn synthesized_probe_hits_exactly_the_probed_rule() {
    let mut rng = rng_for(8);
    let now = std::time::Duration::ZERO;
    let mut probes = 0;
    for case in 0..64 {
        let src = arb_ipv4(&mut rng);
        let dst = arb_ipv4(&mut rng);
        let probed = FlowMod::add(OfMatch::ipv4_pair(src, dst), 100, vec![Action::output(2)]);
        let mut model = ofswitch::FlowTable::new(0);
        let mut oracle = ofswitch::LinearFlowTable::new(0);
        let mut table = vec![FlowMod::add(OfMatch::wildcard_all(), 0, vec![])];
        for _ in 0..rng.gen_index(10) {
            table.push(FlowMod::add(
                OfMatch::ipv4_pair(arb_ipv4(&mut rng), arb_ipv4(&mut rng)),
                1 + rng.gen_range_u64(199) as u16,
                vec![Action::output(3)],
            ));
        }
        for fm in &table {
            model.apply(fm, now).unwrap();
            oracle.apply(fm, now).unwrap();
        }
        let probe = rum::probe::synthesize_general_probe(&mut model, &probed, 0xf8, 77, now).ok();
        if let Some(probe) = &probe {
            for k in &table {
                assert!(
                    k.priority <= probed.priority || !k.match_.matches(&probe.packet, 0),
                    "case {case}: probe hijacked by a higher-priority rule"
                );
            }
        }
        probes += usize::from(probe.is_some());
        apply_and_check_witness(
            &mut oracle,
            &probed,
            probe.as_ref(),
            now,
            &format!("case {case}"),
        );
        assert!(
            model.entries().eq(oracle.entries()),
            "case {case}: models diverged"
        );
    }
    assert!(probes > 32, "a thin run: {probes} probes");
}

/// RUM's table model is the switch's own table: while adds, strict and
/// loose modifies and deletes (some filtered by `out_port`) churn a table
/// of overlapping rules — shared priorities, re-added entries,
/// higher-priority hijackers of the canonical probe, prefixes over the
/// exact pairs, and the VLAN-priority-without-id shape the index cannot
/// hash — synthesis applies every mod exactly once, so the model's entries
/// equal the linear reference table's, and every probe it accepts is a
/// witness on that reference.
#[test]
fn table_model_tracks_the_oracle_and_accepts_only_witnesses() {
    // Rules above priority 100 are exact pairs or hijackers of the canonical
    // probe only, so a broad rule at the top does not hold every candidate
    // for the rest of the run.
    let arb_match = |rng: &mut SmallRng, priority: u16| {
        let a = rng.gen_index(8) as u8 + 1;
        let b = rng.gen_index(8) as u8 + 1;
        match rng.gen_index(if priority > 100 { 4 } else { 8 }) {
            0..=2 => OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, a), Ipv4Addr::new(10, 1, 0, b)),
            3 => OfMatch::wildcard_all()
                .with_nw_src_prefix(rum::probe::PROBE_SRC_IP, [24, 32][rng.gen_index(2)]),
            4 => OfMatch::wildcard_all()
                .with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, b), [16, 24, 32][rng.gen_index(3)]),
            5 => OfMatch::wildcard_all().with_tp_dst(40_001 + rng.gen_index(2) as u16),
            6 => {
                let mut m = OfMatch::wildcard_all();
                m.wildcards = m.wildcards.with(Wildcards::DL_VLAN_PCP, false);
                m.dl_vlan_pcp = rng.gen_index(2) as u8;
                m
            }
            _ => OfMatch::wildcard_all(),
        }
    };
    let arb_actions = |rng: &mut SmallRng| match rng.gen_index(5) {
        0 => vec![],
        1 | 2 => vec![Action::output(2)],
        3 => vec![Action::output(3)],
        _ => vec![Action::SetNwTos(0x04), Action::output(2)],
    };
    for seed in 0..6 {
        let mut rng = rng_for(100 + seed);
        let mut model = ofswitch::FlowTable::new(0);
        let mut oracle = ofswitch::LinearFlowTable::new(0);
        let mut probes = 0;
        for step in 0..1_000 {
            let mut fm = FlowMod {
                command: match rng.gen_index(10) {
                    0..=5 => FlowModCommand::Add,
                    6 => FlowModCommand::Modify,
                    7 => FlowModCommand::ModifyStrict,
                    8 => FlowModCommand::DeleteStrict,
                    // A loose delete by a wildcard would keep emptying the
                    // table; pairs and prefixes still take their share.
                    _ if rng.gen_bool(0.7) => FlowModCommand::Add,
                    _ => FlowModCommand::Delete,
                },
                ..{
                    let priority = [0u16, 50, 100, 100, 200, 65_535][rng.gen_index(6)];
                    FlowMod::add(
                        arb_match(&mut rng, priority),
                        priority,
                        arb_actions(&mut rng),
                    )
                }
            };
            // Strict mods mostly target an entry the table holds: modifies
            // are then proved against the version they replace, and deletes
            // keep high-priority pairs from holding every candidate.
            let strict = matches!(
                fm.command,
                FlowModCommand::ModifyStrict | FlowModCommand::DeleteStrict
            );
            if strict && !oracle.is_empty() && rng.gen_bool(0.8) {
                let held = oracle.entries().nth(rng.gen_index(oracle.len())).unwrap();
                (fm.match_, fm.priority) = (held.match_, held.priority);
            }
            if fm.command.is_delete() {
                fm.actions.clear();
                if rng.gen_bool(0.5) {
                    fm.out_port = [2, 3][rng.gen_index(2)];
                }
            }
            let now = std::time::Duration::from_millis(step);
            let probe = rum::probe::synthesize_general_probe(&mut model, &fm, 0xf8, 77, now).ok();
            probes += usize::from(probe.is_some());
            let context = format!("seed {seed}, step {step}, {fm:?}");
            apply_and_check_witness(&mut oracle, &fm, probe.as_ref(), now, &context);
            assert!(
                model.entries().eq(oracle.entries()),
                "{context}: models diverged"
            );
        }
        assert!(probes > 50 && oracle.len() > 20, "seed {seed}: a thin run");
    }
}

/// The session multiplexer's shared-budget invariant: under random ack
/// interleavings across many concurrent tenants, the number of
/// sent-but-unconfirmed modifications never exceeds the global window, no
/// tenant starves (every admitted session completes), and acks that belong
/// to nobody are counted as strays rather than misattributed.
#[test]
fn session_mux_never_exceeds_global_window_under_random_interleavings() {
    use controller::{ConnId, UpdatePlan};
    use sessiond::{MuxConfig, MuxEffect, MuxInput, SessionMux};
    use std::time::Duration;

    let mut rng = rng_for(10);
    for case in 0..64 {
        let tenants = 2 + rng.gen_index(5);
        let global_window = 1 + rng.gen_index(6);
        let config = MuxConfig {
            session_window: 1 + rng.gen_index(3),
            global_window,
            quantum: 1 + rng.gen_range_u64(3),
            ..MuxConfig::default()
        };
        let namespace_bits = config.namespace_bits;
        let mut mux = SessionMux::new(config);
        let mut outstanding: Vec<u64> = Vec::new();
        let collect = |fx: &[MuxEffect], outstanding: &mut Vec<u64>| {
            for e in fx {
                if let MuxEffect::Send {
                    message: OfMessage::FlowMod { xid, .. },
                    ..
                } = e
                {
                    outstanding.push(u64::from(*xid));
                }
            }
        };
        let mut fx = Vec::new();
        let mut sids = Vec::new();
        let mut planned = 0u64;
        for t in 0..tenants {
            let mods = 1 + rng.gen_index(8) as u64;
            planned += mods;
            let mut plan = UpdatePlan::new();
            for r in 0..mods {
                plan.add(
                    r + 1,
                    0,
                    FlowMod::add(
                        OfMatch::ipv4_pair(
                            Ipv4Addr::new(10, t as u8, r as u8, 1),
                            Ipv4Addr::new(10, 200, 0, 1),
                        ),
                        100,
                        vec![Action::output(2)],
                    ),
                )
                .unwrap();
            }
            fx.clear();
            sids.push(
                mux.submit(plan, Duration::ZERO, &mut fx)
                    .expect("disjoint plans all admit"),
            );
            collect(&fx, &mut outstanding);
            assert!(
                mux.global_in_flight() <= global_window,
                "case {case}: admission burst violated the global window"
            );
        }

        // An xid in the flow-mod namespace of a tenant that was never
        // admitted: always a stray.
        let stray_xid = ((tenants as u32 + 5) << namespace_bits) + 1;
        let mut expected_strays = 0u64;
        let mut now_ms = 0u64;
        let mut steps = 0usize;
        while !mux.all_done() {
            steps += 1;
            assert!(
                steps < 20_000,
                "case {case}: a tenant starved ({} still running)",
                mux.running_sessions()
            );
            now_ms += 1 + rng.gen_range_u64(5);
            let input = if outstanding.is_empty() || rng.gen_bool(0.05) {
                if rng.gen_bool(0.5) {
                    expected_strays += 1;
                    MuxInput::FromSwitch {
                        conn: ConnId::new(0),
                        message: OfMessage::rum_ack(stray_xid),
                    }
                } else {
                    MuxInput::Tick
                }
            } else {
                // Ack a random outstanding modification — interleaving
                // across tenants is entirely up to the network.
                let idx = rng.gen_index(outstanding.len());
                let xid = outstanding.swap_remove(idx);
                MuxInput::FromSwitch {
                    conn: ConnId::new(0),
                    message: OfMessage::rum_ack(xid as u32),
                }
            };
            fx.clear();
            mux.handle(Duration::from_millis(now_ms), input, &mut fx);
            collect(&fx, &mut outstanding);
            assert!(
                mux.global_in_flight() <= global_window,
                "case {case}: global window violated ({} > {global_window})",
                mux.global_in_flight()
            );
        }

        assert_eq!(mux.stray_acks(), expected_strays, "case {case}");
        assert_eq!(mux.global_in_flight(), 0, "case {case}");
        let mut confirmed = 0u64;
        for (t, sid) in sids.iter().enumerate() {
            let session = mux.session(*sid).expect("completed sessions are retained");
            assert!(session.is_complete(), "case {case}: tenant {t} starved");
            confirmed += session.confirmed_count() as u64;
        }
        assert_eq!(confirmed, planned, "case {case}");
    }
}

/// The update session's window invariant: under arbitrary (randomised)
/// interleavings of acknowledgments, rejections and ticks, the number of
/// sent-but-unconfirmed modifications never exceeds K, dependencies are
/// always respected, and the plan eventually completes.
#[test]
fn update_session_never_exceeds_window_under_random_ack_interleavings() {
    use controller::{AckMode, ConnId, SessionEffect, SessionInput, UpdatePlan, UpdateSession};
    use std::time::Duration;

    let mut rng = rng_for(9);
    for case in 0..CASES {
        let n_mods = 2 + rng.gen_index(20) as u64;
        let window = 1 + rng.gen_index(6);
        // Random DAG: each mod may depend on up to two earlier mods.
        let mut plan = UpdatePlan::new();
        for id in 1..=n_mods {
            let mut deps = Vec::new();
            if id > 1 && rng.gen_bool(0.5) {
                deps.push(1 + rng.gen_range_u64(id - 1));
            }
            if id > 1 && rng.gen_bool(0.25) {
                let d = 1 + rng.gen_range_u64(id - 1);
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
            let target = rng.gen_index(3);
            plan.add_with_deps(
                id,
                target,
                FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, 0, 0, id as u8),
                        Ipv4Addr::new(10, 1, 0, id as u8),
                    ),
                    100,
                    vec![Action::output(2)],
                ),
                deps,
            )
            .unwrap();
        }
        plan.validate().expect("forward deps are acyclic");

        let mut session = UpdateSession::new(plan, AckMode::RumAcks, window);
        let mut outstanding: Vec<u64> = Vec::new();
        let mut now = Duration::ZERO;
        let collect = |fx: Vec<SessionEffect>, outstanding: &mut Vec<u64>| {
            for e in fx {
                if let SessionEffect::Send {
                    message: OfMessage::FlowMod { xid, .. },
                    ..
                } = e
                {
                    outstanding.push(u64::from(xid));
                }
            }
        };
        let fx = session.handle(now, SessionInput::Started);
        collect(fx, &mut outstanding);
        assert!(
            session.in_flight() <= window,
            "case {case}: {} in flight with window {window} right after start",
            session.in_flight()
        );

        let mut steps = 0usize;
        while !session.is_complete() {
            steps += 1;
            assert!(
                steps < 10_000,
                "case {case}: session did not complete (confirmed {}/{n_mods})",
                session.confirmed_count()
            );
            now += Duration::from_millis(1 + rng.gen_range_u64(10));
            let input = if outstanding.is_empty() || rng.gen_bool(0.1) {
                SessionInput::Tick
            } else {
                // Ack a random outstanding modification (ordering across
                // switches is entirely up to the network).
                let idx = rng.gen_index(outstanding.len());
                let id = outstanding.swap_remove(idx);
                SessionInput::FromSwitch {
                    conn: ConnId::new(0),
                    message: OfMessage::rum_ack(id as u32),
                }
            };
            let fx = session.handle(now, input);
            collect(fx, &mut outstanding);
            assert!(
                session.in_flight() <= window,
                "case {case}: window violated ({} > {window})",
                session.in_flight()
            );
        }
        // Dependencies were honoured: every mod was sent at or after the
        // confirmation of each of its dependencies.
        for m in session.plan().mods() {
            for d in &m.deps {
                assert!(
                    session.send_times()[&m.id] >= session.confirmation_times()[d],
                    "case {case}: mod {} sent before dep {d} confirmed",
                    m.id
                );
            }
        }
        assert_eq!(session.confirmed_count(), n_mods as usize, "case {case}");
    }
}
