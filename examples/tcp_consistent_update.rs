//! The paper's full prototype, end to end, on real I/O: the triangle
//! path-migration plan executed by the sans-IO `UpdateSession` over loopback
//! TCP sockets, through the RUM proxy, against socket-hosted switches — and
//! cross-checked against the *same* session driven inside the simulator.
//!
//! ```text
//!   TcpUpdateController ◀── 3 connections ── RumTcpProxy ◀── S1,S2,S3
//!   (UpdateSession)          (RumEngine)                  (socket switches)
//! ```
//!
//! Both runs use `AckMode::RumAcks` with a window of 1 and the static
//! timeout technique; the confirm *ordering* must be identical, because all
//! ordering decisions live in the two sans-IO engines, not in the drivers.
//!
//! Run with `cargo run --release --example tcp_consistent_update [n_flows]`.
//!
//! Pass `--telemetry` to run the TCP deployment with the live telemetry
//! plane enabled: engine, proxy-transport and session metrics all land in
//! one shared registry served over a loopback TCP endpoint (printed at
//! start-up — point `rumtop` at it while the update runs), and the example
//! scrapes its own endpoint at the end to validate the snapshot.
//!
//! Pass `--sessions N` to run the **multi-tenant** variant instead: N
//! concurrent tenant sessions, each owning a disjoint plan of `n_flows`
//! rules, multiplexed through one `sessiond::SessionMux` behind a
//! `TcpMuxController` over the same loopback proxy + socket switches.  The
//! run self-validates: every tenant must complete, every tenant's confirm
//! order must be exactly its plan order (the per-session window is 1), and
//! the mux must attribute every ack (zero strays).

use controller::{AckMode, Controller, TriangleScenario, UpdatePlan, UpdateSession};
use ofswitch::SwitchModel;
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use rum::{deploy, RumBuilder, TechniqueConfig};
use rum_tcp::{
    spawn_switch, wait_for, ProxyConfig, RumTcpProxy, TcpMuxController, TcpUpdateController,
};
use sessiond::MuxConfig;
use simnet::OpenFlowSwitch;
use simnet::{SimTime, Simulator};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;
use telemetry::Registry;

/// The static hold-down RUM waits after a barrier reply before confirming.
const HOLD_DOWN: Duration = Duration::from_millis(25);
/// The paper's K: with a window of 1 the confirm order is fully determined
/// by the plan, so the two deployments must agree exactly.
const WINDOW: usize = 1;

/// Worst-case completion budget for a run: window 1 serialises the plan,
/// so each of the `2 * n_flows` modifications costs one hold-down plus
/// slack for the controller's polling interval (simnet) or socket latency
/// (TCP).  25 ms of hold-down alone under-budgets large plans — the simnet
/// controller only notices each confirmation on its next 10 ms tick.
fn run_budget(n_flows: u32) -> Duration {
    (HOLD_DOWN + Duration::from_millis(20)) * (2 * n_flows + 20)
}

fn scenario(n_flows: u32) -> TriangleScenario {
    TriangleScenario {
        n_flows,
        packets_per_sec: 0,
        ..Default::default()
    }
}

/// Runs the migration inside the simulator and returns the confirm order.
fn run_simnet(n_flows: u32) -> Vec<u64> {
    let mut sim = Simulator::new(7);
    let net = scenario(n_flows).build(&mut sim);
    let switches = [net.s1, net.s2, net.s3];
    let ctrl = Controller::new(
        "ctrl",
        net.plan.clone(),
        AckMode::RumAcks,
        WINDOW,
        SimTime::from_millis(10),
    );
    let ctrl_id = sim.add_node(ctrl);
    let builder = RumBuilder::new(switches.len())
        .technique(TechniqueConfig::StaticTimeout { delay: HOLD_DOWN });
    let (proxies, _handle) = deploy(&mut sim, builder, ctrl_id, &switches);
    sim.node_mut::<Controller>(ctrl_id)
        .unwrap()
        .set_connections(proxies.clone());
    for (i, sw) in switches.iter().enumerate() {
        sim.node_mut::<OpenFlowSwitch>(*sw)
            .unwrap()
            .connect_controller(proxies[i]);
    }
    // Window 1 serialises the plan: 2*n mods, each ~hold-down apart.
    sim.run_until(SimTime::from(run_budget(n_flows)));
    let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
    assert!(
        ctrl.is_complete(),
        "simnet run confirmed only {}/{}",
        ctrl.confirmed_count(),
        2 * n_flows as usize
    );
    ctrl.session().confirmed_order().to_vec()
}

/// Runs the migration over loopback TCP and returns the confirm order.
/// With `telemetry`, a shared registry collects engine + proxy + session
/// metrics, is served live over TCP, and is self-scraped and validated at
/// the end of the run.
fn run_tcp(n_flows: u32, telemetry: bool) -> Vec<u64> {
    let registry = telemetry.then(|| Arc::new(Registry::new()));
    let server = registry.as_ref().map(|reg| {
        let server =
            telemetry::serve("127.0.0.1:0", reg.clone()).expect("telemetry endpoint binds");
        println!(
            "telemetry endpoint on {} (try: cargo run --release -p rum_bench --bin rumtop -- {})",
            server.local_addr(),
            server.local_addr()
        );
        server
    });

    let plan = scenario(n_flows).plan();
    let n_mods = plan.len();
    let mut session = UpdateSession::new(plan, AckMode::RumAcks, WINDOW);
    if let Some(reg) = &registry {
        session.attach_metrics(reg);
    }
    let controller = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 3);
    let ctrl_handle = controller.start().expect("controller starts");
    println!("controller listening on {}", ctrl_handle.local_addr);

    let mut builder =
        RumBuilder::new(3).technique(TechniqueConfig::StaticTimeout { delay: HOLD_DOWN });
    if let Some(reg) = &registry {
        builder = builder.metrics(reg.clone());
    }
    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: "127.0.0.1:0".parse().unwrap(),
            controller_addr: ctrl_handle.local_addr,
        },
        builder,
    );
    let proxy_handle = proxy.start().expect("proxy starts");
    println!("RUM proxy listening on {}", proxy_handle.local_addr);

    // Connect the switches one at a time so accept order — and therefore
    // the ConnId/SwitchId mapping — is S1, S2, S3, like the plan expects.
    let models = [
        ("S1", SwitchModel::faithful()),
        ("S2", SwitchModel::hp5406zl()),
        ("S3", SwitchModel::faithful()),
    ];
    let mut switch_handles = Vec::new();
    for (i, (label, model)) in models.into_iter().enumerate() {
        let handle = spawn_switch(proxy_handle.local_addr, model).expect("switch connects");
        assert!(
            wait_for(
                || ctrl_handle.connections() == i + 1,
                Duration::from_secs(5)
            ),
            "{label} did not reach the controller"
        );
        println!("{label} connected through the proxy");
        switch_handles.push(handle);
    }

    let budget = run_budget(n_flows) + Duration::from_secs(5);
    let outcome = ctrl_handle
        .wait_for_outcome(budget)
        .expect("update must finish within the budget");
    println!("update outcome: {outcome:?}");
    let order = ctrl_handle.confirmed_order();
    assert_eq!(order.len(), n_mods, "every modification must confirm");

    if let Some(server) = server {
        validate_snapshot(server.local_addr(), n_mods);
        server.shutdown();
    }
    ctrl_handle.shutdown();
    proxy_handle.shutdown();
    for handle in &switch_handles {
        handle.stop();
    }
    let s2 = switch_handles.swap_remove(1).join();
    println!(
        "S2 ended with {} rules in its control-plane table",
        s2.control_rules
    );
    order
}

/// Scrapes the example's own telemetry endpoint and checks the snapshot
/// agrees with what the run just did.  Panics (nonzero exit) on any
/// missing or inconsistent metric — this is the CI smoke check.
fn validate_snapshot(addr: std::net::SocketAddr, n_mods: usize) {
    let snap = telemetry::scrape(addr, Duration::from_secs(2)).expect("scrape own endpoint");
    let expected_counters = [
        "session.mods_sent",
        "session.mods_confirmed",
        "proxy.connections",
        "proxy.drains",
        "proxy.to_switch_msgs",
        "proxy.to_controller_msgs",
        "rum.sw0.controller_flow_mods",
        "rum.sw1.controller_flow_mods",
        "rum.sw2.controller_flow_mods",
    ];
    for key in expected_counters {
        assert!(
            snap.counters.contains_key(key),
            "telemetry snapshot is missing counter {key}"
        );
    }
    assert_eq!(
        snap.counters["session.mods_confirmed"], n_mods as u64,
        "every confirmed modification must be visible in telemetry"
    );
    assert_eq!(snap.counters["proxy.connections"], 3);
    assert!(
        snap.gauges.contains_key("session.in_flight"),
        "telemetry snapshot is missing gauge session.in_flight"
    );
    let latency = snap
        .histograms
        .get("session.confirm_latency_us")
        .expect("telemetry snapshot is missing histogram session.confirm_latency_us");
    assert_eq!(latency.count, n_mods as u64);
    println!(
        "telemetry snapshot OK: {} metrics, confirm latency p50 {}us p99 {}us",
        snap.counters.len() + snap.gauges.len() + snap.histograms.len(),
        latency.p50,
        latency.p99
    );
}

/// A tenant's plan for the multi-tenant mode: `mods` dependency-free rule
/// installs in the tenant's own /24 match space (so admission never
/// serialises or rejects it), targeting switch `tenant % 3`.
fn tenant_plan(tenant: usize, mods: u32) -> UpdatePlan {
    let mut plan = UpdatePlan::new();
    for r in 0..mods.min(254) {
        let id = r as u64 + 1;
        plan.add(
            id,
            tenant % 3,
            FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, (tenant >> 8) as u8, (tenant & 0xff) as u8, r as u8 + 1),
                    Ipv4Addr::new(10, 200, 0, 1),
                ),
                100,
                vec![Action::output(1)],
            )
            .with_cookie(id),
        )
        .expect("tenant-local ids are unique");
    }
    plan
}

/// The multi-tenant variant: `n_sessions` concurrent tenants through one
/// `SessionMux` over the same loopback proxy + socket-switch topology.
/// Panics (nonzero exit) if any tenant misses a confirm, confirms out of
/// plan order, or the mux misattributes an ack.
fn run_multi_session(n_sessions: usize, n_flows: u32) {
    let mods_per_tenant = n_flows.min(254);
    let config = MuxConfig::default();
    let controller = TcpMuxController::new("127.0.0.1:0".parse().unwrap(), config, 3);
    let ctrl_handle = controller.start().expect("mux controller starts");
    println!("mux controller listening on {}", ctrl_handle.local_addr);

    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: "127.0.0.1:0".parse().unwrap(),
            controller_addr: ctrl_handle.local_addr,
        },
        RumBuilder::new(3).technique(TechniqueConfig::StaticTimeout { delay: HOLD_DOWN }),
    );
    let proxy_handle = proxy.start().expect("proxy starts");
    println!("RUM proxy listening on {}", proxy_handle.local_addr);

    let models = [
        ("S1", SwitchModel::faithful()),
        ("S2", SwitchModel::hp5406zl()),
        ("S3", SwitchModel::faithful()),
    ];
    let mut switch_handles = Vec::new();
    for (i, (label, model)) in models.into_iter().enumerate() {
        let handle = spawn_switch(proxy_handle.local_addr, model).expect("switch connects");
        assert!(
            wait_for(
                || ctrl_handle.connections() == i + 1,
                Duration::from_secs(5)
            ),
            "{label} did not reach the controller"
        );
        switch_handles.push(handle);
    }
    println!("S1, S2, S3 connected through the proxy");

    // Admit the whole tenant population up front, so every session contends
    // for the shared outstanding-window budget from the first instant.
    let sids: Vec<_> = (0..n_sessions)
        .map(|t| {
            ctrl_handle
                .submit(tenant_plan(t, mods_per_tenant))
                .expect("disjoint tenant plans all admit")
        })
        .collect();
    println!("{n_sessions} tenants admitted ({mods_per_tenant} rules each)");

    // Worst case is full serialisation of every modification, plus slack.
    let total_mods = n_sessions as u32 * mods_per_tenant;
    let budget =
        (HOLD_DOWN + Duration::from_millis(20)) * (total_mods + 20) + Duration::from_secs(5);
    assert!(
        ctrl_handle.wait_all_done(budget),
        "not every tenant finished within {budget:?}"
    );

    // Self-validation: with a per-session window of 1, each tenant's
    // confirm order is fully determined by its plan.
    let expected: Vec<u64> = (1..=mods_per_tenant as u64).collect();
    for (t, sid) in sids.iter().enumerate() {
        let order = ctrl_handle.confirmed_order(*sid);
        assert_eq!(order, expected, "tenant {t} confirmed out of plan order");
    }
    let strays = ctrl_handle.with_mux(|m| m.stray_acks());
    assert_eq!(strays, 0, "the mux misattributed {strays} acks");

    ctrl_handle.shutdown();
    proxy_handle.shutdown();
    println!(
        "\nall {n_sessions} tenants completed; every per-session confirm order matches\n\
         its plan ([1..{mods_per_tenant}]), and every ack was attributed (0 strays) —\n\
         one SessionMux, one proxy, {total_mods} rule installs."
    );
}

fn main() {
    let mut n_flows: u32 = 10;
    let mut telemetry = false;
    let mut sessions: usize = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--telemetry" {
            telemetry = true;
        } else if arg == "--sessions" {
            sessions = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--sessions needs a tenant count");
        } else if let Ok(n) = arg.parse() {
            n_flows = n;
        }
    }

    if sessions > 0 {
        println!(
            "Multi-tenant mode: {sessions} concurrent sessions of {n_flows} rules each,\n\
             one sessiond::SessionMux over loopback TCP, RUM static timeout {HOLD_DOWN:?}\n"
        );
        run_multi_session(sessions, n_flows);
        return;
    }
    println!(
        "Consistent triangle migration of {n_flows} flows (install at S2, then flip S1),\n\
         window K = {WINDOW}, RUM static timeout {HOLD_DOWN:?}, AckMode::RumAcks\n"
    );

    println!("--- run 1: simulator driver ---");
    let sim_order = run_simnet(n_flows);
    println!("confirmed {} modifications\n", sim_order.len());

    println!("--- run 2: TCP driver (loopback sockets) ---");
    let tcp_order = run_tcp(n_flows, telemetry);
    println!("confirmed {} modifications\n", tcp_order.len());

    assert_eq!(
        sim_order, tcp_order,
        "the two drivers must confirm in the same order"
    );
    println!(
        "confirm ordering is IDENTICAL across drivers ({} confirmations):",
        sim_order.len()
    );
    let shown: Vec<String> = sim_order.iter().take(6).map(|id| id.to_string()).collect();
    println!(
        "  [{}{}]",
        shown.join(", "),
        if sim_order.len() > 6 { ", ..." } else { "" }
    );
    println!(
        "\nSame plan, same session, same RUM engine — one driver is a discrete-event\n\
         simulator, the other is real sockets; every ordering decision lives in the\n\
         sans-IO cores, so the executions agree exactly."
    );
}
