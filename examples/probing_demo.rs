//! A close-up of the probing machinery: what rules RUM installs, what probe
//! packets it synthesises, and how a single rule modification gets confirmed.
//!
//! Run with `cargo run --release --example probing_demo`.

use rum_repro::ofswitch::FlowTable;
use rum_repro::openflow::messages::FlowMod;
use rum_repro::prelude::*;
use rum_repro::rum::coloring::assign_probe_colors;
use rum_repro::rum::config::CATCH_TOS_BASE;
use rum_repro::rum::probe::{
    catch_rule, sequential_probe_packet, sequential_probe_rule, synthesize_general_probe,
};
use std::net::Ipv4Addr;
use std::time::Duration;

fn main() {
    println!("== RUM probing machinery walk-through ==\n");

    // 1. Per-switch probe values: a triangle of switches needs three distinct
    //    catch values; a longer chain can reuse them (vertex colouring, which
    //    RUM applies to fleets too large for one value per switch).
    let catch_values = |links: &[(usize, usize)], n| -> Vec<u8> {
        (assign_probe_colors(links, n).into_iter())
            .map(|colour| CATCH_TOS_BASE - 4 * colour as u8)
            .collect()
    };
    let triangle = catch_values(&[(0, 1), (1, 2), (0, 2)], 3);
    let chain = catch_values(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5);
    println!("probe-catch ToS values (triangle): {triangle:02x?}");
    println!("probe-catch ToS values (5-chain):  {chain:02x?} (colours reused)\n");

    // 2. The rules RUM installs for sequential probing.
    let catch = catch_rule(triangle[2], 900);
    println!(
        "catch rule at S3: priority {}, match ToS 0x{:02x}, action -> controller",
        catch.priority, catch.match_.nw_tos
    );
    let probe_rule = sequential_probe_rule(triangle[2], 2, 7, 901, true);
    println!(
        "probe rule at S2: match ToS 0x{:02x}, actions {:?}\n",
        probe_rule.match_.nw_tos, probe_rule.actions
    );
    let probe_packet = sequential_probe_packet();
    println!(
        "sequential probe packet: {} -> {}, ToS 0x{:02x}\n",
        probe_packet.nw_src, probe_packet.nw_dst, probe_packet.nw_tos
    );

    // 3. General probing: synthesise a probe for a concrete rule while other
    //    rules overlap with it.  RUM's model of the switch is the switch's own
    //    flow table; synthesis looks each candidate up before and after the
    //    mod and applies the mod to the model.
    let mut table = FlowTable::new(0);
    for fm in [
        FlowMod::add(OfMatch::wildcard_all(), 0, vec![]),
        // A higher-priority rule that would hijack the obvious probe.
        FlowMod::add(
            OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(198, 51, 100, 1), 32),
            200,
            vec![Action::output(9)],
        ),
    ] {
        table.apply(&fm, Duration::ZERO).unwrap();
    }
    let probed = FlowMod::add(
        OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
        100,
        vec![Action::output(2)],
    );
    let catch_tos = triangle[2];
    match synthesize_general_probe(&mut table, &probed, catch_tos, 4242, Duration::ZERO) {
        Ok(probe) => println!(
            "general probe for '10.1/16 -> port 2': src {}, dst {}, ToS 0x{:02x}, tp_src {} (probe id), leaves via port {}",
            probe.packet.nw_src,
            probe.packet.nw_dst,
            probe.packet.nw_tos,
            probe.packet.tp_src,
            probe.out_port
        ),
        Err(e) => println!("no probe possible: {e}"),
    }

    // 4. And a rule that cannot be probed (a drop rule): RUM falls back to a
    //    control-plane timeout, as the paper prescribes.
    let drop_rule = FlowMod::add(
        OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
        300,
        vec![],
    );
    match synthesize_general_probe(&mut table, &drop_rule, catch_tos, 4243, Duration::ZERO) {
        Ok(_) => println!("unexpectedly probed a drop rule"),
        Err(e) => println!("drop rule falls back to the control-plane technique: {e}"),
    }

    // 5. End to end: one rule through a buggy switch, watched by RUM.
    println!("\n== one rule, end to end ==");
    let mut sim = Simulator::new(3);
    let scenario = BulkUpdateScenario {
        n_rules: 1,
        packets_per_sec: 0,
        ..Default::default()
    };
    let net = scenario.build(&mut sim);
    let controller = Controller::new(
        "ctrl",
        net.plan.clone(),
        AckMode::RumAcks,
        1,
        SimTime::from_millis(10),
    );
    let ctrl_id = sim.add_node(controller);
    let switches = [net.sw_a, net.sw_b, net.sw_c];
    let builder = RumBuilder::new(switches.len()).technique(TechniqueConfig::default_general());
    let (proxies, handle) = deploy(&mut sim, builder, ctrl_id, &switches);
    sim.node_mut::<Controller>(ctrl_id)
        .unwrap()
        .set_connections(vec![proxies[1]]);
    for (i, sw) in switches.iter().enumerate() {
        sim.node_mut::<OpenFlowSwitch>(*sw)
            .unwrap()
            .connect_controller(proxies[i]);
    }
    sim.run_until(SimTime::from_secs(5));

    let dp = sim.trace().data_plane_activation_times();
    let cp = sim.trace().confirmation_times();
    let cookie = controller::scenarios::BulkUpdateScenario::rule_cookie(0);
    println!(
        "rule sent at t=10 ms, data-plane active at {}, acknowledged to the controller at {}",
        dp[&cookie], cp[&cookie]
    );
    let stats = handle.stats(SwitchId::new(1));
    println!(
        "probes injected: {}, acknowledgments sent: {}",
        stats.probes_injected, stats.acks_sent
    );
}
