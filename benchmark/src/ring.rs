//! The two probing workloads: an 8-switch `Fabric` ring of early-reply
//! switch hosts behind `RumTcpProxy` running general probing.
//!
//! * `probe_ring` drives one `UpdateSession` (`TcpUpdateController`) over
//!   all eight switches: the paper's headline case.
//! * `mux_tenants` drives the same ring through `TcpMuxController` /
//!   `SessionMux` with up to 1,000 tenant sessions submitted up front.
//!
//! The switch model bounds throughput here, so what the proxy contributes
//! shows in ack overhead (confirmation minus ground-truth activation) and
//! CPU per operation.

use crate::chain::{self, Driver};
use crate::measure::{process_cpu_ms, thread_cpu_ms, Fnv64, SplitMix64};
use crate::report::{Failures, Layers, Outcome, Phase};
use crate::trace::Tracer;
use crate::wire::sample_outbox_depth;
use controller::{AckMode, SessionOutcome, UpdatePlan, UpdateSession};
use ofswitch::{FaultPlan, FlowTable, GroundTruth, SwitchModel};
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch, PacketHeader};
use rum::{RumBuilder, SwitchId, SwitchPortMap, TechniqueConfig};
use rum_tcp::{
    spawn_switch_with, Fabric, ProxyConfig, ProxyHandle, RumTcpProxy, SocketSwitchHandle,
    SwitchHostOptions, TcpControllerHandle, TcpMuxController, TcpMuxHandle, TcpUpdateController,
};
use sessiond::{MuxConfig, SessionId};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Switch hosts of the probing ring.  A constant, not derived from `nproc`.
pub const SWITCHES: usize = 8;
/// Engine shards of the proxy under test.
pub const SHARDS: usize = 8;
/// Outstanding-modification window of both closed loops.
pub const WINDOW: usize = 64;
/// Ring port towards the predecessor / successor switch.
pub const RING_IN_PORT: u16 = 1;
pub const RING_OUT_PORT: u16 = 2;
/// ADDs per switch per second of `--seconds`: 1,400 at the standard 10 s,
/// just under the model's 1,500-rule table.
const ADDS_PER_SWITCH_PER_S: f64 = 140.0;
/// Tenants per second of `--seconds`: 1,000 at the standard 10 s (the
/// 20-bit namespace admits 1,023 sessions).
const TENANTS_PER_S: f64 = 100.0;
const MODS_PER_TENANT: usize = 8;
/// Priority of every planned rule (above the preinstalled drop-all).
const RULE_PRIORITY: u16 = 100;
const COOKIE_PREINSTALLED: u64 = 1;
/// Completion deadline of a run; never part of a measurement.
const BUDGET: Duration = Duration::from_secs(120);
/// Set-ups timed per run (the last one carries the measured phase).
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    ProbeRing,
    MuxTenants,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::ProbeRing => "probe_ring",
            Kind::MuxTenants => "mux_tenants",
        }
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One planned modification as the checks need it.
#[derive(Clone, Copy)]
pub struct Planned {
    /// Cookie on the wire (the ground-truth join key).
    pub wire_cookie: u64,
    /// Target switch.
    pub switch: usize,
    /// Tenant (0 on `probe_ring`) and the id local to its plan.
    pub tenant: usize,
    pub local_id: u64,
}

pub struct Inputs {
    /// One plan on `probe_ring`, one per tenant on `mux_tenants`.
    pub plans: Vec<UpdatePlan>,
    pub planned: Vec<Planned>,
    /// Encoded size of all planned flow-mods: the useful payload.
    pub payload_bytes: u64,
    pub fnv: u64,
}

pub fn ring_port_maps(n: usize) -> Vec<SwitchPortMap> {
    (0..n)
        .map(|i| {
            let prev = SwitchId::new((i + n - 1) % n);
            let next = SwitchId::new((i + 1) % n);
            let mut map = SwitchPortMap::default();
            map.port_to_switch.insert(RING_IN_PORT, prev);
            map.port_to_switch.insert(RING_OUT_PORT, next);
            map.inject_via = Some((prev, RING_OUT_PORT));
            map
        })
        .collect()
}

/// A rule of switch `sw`'s own `10.sw.x.y` space forwarding to its ring
/// successor, where the successor's catch rule observes the probe.
pub fn ring_rule(sw: usize, r: usize) -> FlowMod {
    FlowMod::add(
        OfMatch::ipv4_pair(
            Ipv4Addr::new(10, (sw >> 8) as u8 | 0x40, sw as u8, (r >> 8) as u8),
            Ipv4Addr::new(10, 200, (r & 0xff) as u8, 1),
        ),
        RULE_PRIORITY,
        vec![Action::output(RING_OUT_PORT)],
    )
}

pub fn drop_all() -> FlowMod {
    FlowMod::add(OfMatch::wildcard_all(), 0, vec![]).with_cookie(COOKIE_PREINSTALLED)
}

/// General probing sized to probe the whole released window concurrently.
pub fn probing(model: &SwitchModel, window: usize) -> TechniqueConfig {
    let lag = model.worst_case_dataplane_lag();
    TechniqueConfig::GeneralProbing {
        probe_interval: Duration::from_millis(10),
        max_outstanding: window,
        fallback_delay: lag + lag / 4,
    }
}

/// The fleet-wide plan layout shared with `sim_fleet`: `per_switch` rounds,
/// each visiting every switch once in a seeded order; ids and cookies count
/// up from a seeded base.
pub fn fleet_plan(
    rng: &mut SplitMix64,
    n_switches: usize,
    per_switch: usize,
) -> (UpdatePlan, Vec<Planned>) {
    let base = 1_000 + rng.below(1 << 20);
    let mut plan = UpdatePlan::new();
    let mut planned = Vec::with_capacity(n_switches * per_switch);
    let mut order: Vec<usize> = (0..n_switches).collect();
    for r in 0..per_switch {
        rng.shuffle(&mut order);
        for &sw in &order {
            let id = base + planned.len() as u64;
            plan.add(id, sw, ring_rule(sw, r))
                .expect("plan ids are unique");
            planned.push(Planned {
                wire_cookie: id,
                switch: sw,
                tenant: 0,
                local_id: id,
            });
        }
    }
    (plan, planned)
}

/// ADDs per switch (`probe_ring`) or tenants (`mux_tenants`) at `scale`.
fn size(kind: Kind, scale: f64) -> usize {
    match kind {
        Kind::ProbeRing => ((ADDS_PER_SWITCH_PER_S * scale) as usize).clamp(1, 1_400),
        Kind::MuxTenants => ((TENANTS_PER_S * scale) as usize).clamp(1, 1_000),
    }
}

pub fn generate(kind: Kind, seed: u64, scale: f64) -> Inputs {
    let mut rng = SplitMix64::new(kind.name(), seed);
    let (plans, planned) = match kind {
        Kind::ProbeRing => {
            let (plan, planned) = fleet_plan(&mut rng, SWITCHES, size(kind, scale));
            (vec![plan], planned)
        }
        Kind::MuxTenants => {
            let tenants = size(kind, scale);
            let mut plans = Vec::with_capacity(tenants);
            let mut planned = Vec::with_capacity(tenants * MODS_PER_TENANT);
            // Balanced tenant → switch assignment in a seeded order.
            let mut targets: Vec<usize> = (0..tenants).map(|t| t % SWITCHES).collect();
            rng.shuffle(&mut targets);
            for (t, &sw) in targets.iter().enumerate() {
                let mut plan = UpdatePlan::new();
                for r in 0..MODS_PER_TENANT {
                    let id = r as u64 + 1;
                    // The match space is per tenant, so admission never
                    // finds a conflict.
                    plan.add(id, sw, ring_rule(sw, t * MODS_PER_TENANT + r))
                        .expect("tenant-local ids are unique");
                    planned.push(Planned {
                        // The mux rewrites ids into the tenant's namespace:
                        // base = (t + 1) << 20.
                        wire_cookie: (((t + 1) as u64) << sessiond::DEFAULT_NAMESPACE_BITS) + id,
                        switch: sw,
                        tenant: t,
                        local_id: id,
                    });
                }
                plans.push(plan);
            }
            (plans, planned)
        }
    };
    let mut fnv = Fnv64::default();
    fnv.bytes(kind.name().as_bytes());
    let mut payload_bytes = 0u64;
    let mut wire = Vec::new();
    for plan in &plans {
        for m in plan.mods() {
            fnv.u64(m.id);
            fnv.u64(m.target as u64);
            wire.clear();
            openflow::OfMessage::FlowMod {
                xid: 0,
                body: m.flow_mod.clone(),
            }
            .encode_into(&mut wire)
            .expect("encodable flow-mod");
            fnv.bytes(&wire);
            payload_bytes += wire.len() as u64;
        }
    }
    Inputs {
        plans,
        planned,
        payload_bytes,
        fnv: fnv.finish(),
    }
}

pub fn mux_config() -> MuxConfig {
    MuxConfig {
        ack_mode: AckMode::RumAcks,
        session_window: 1,
        global_window: WINDOW,
        quantum: 1,
        ..MuxConfig::default()
    }
}

// ---------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------

enum Controller {
    Single(TcpControllerHandle),
    Mux(TcpMuxHandle),
}

impl Controller {
    fn connections(&self) -> usize {
        match self {
            Controller::Single(h) => h.connections(),
            Controller::Mux(h) => h.connections(),
        }
    }

    fn shutdown(self) {
        match self {
            Controller::Single(h) => h.shutdown(),
            Controller::Mux(h) => h.shutdown(),
        }
    }
}

struct Fleet {
    epoch: Instant,
    controller: Controller,
    proxy: ProxyHandle,
    hosts: Vec<SocketSwitchHandle>,
    /// `spawn_switch_with` → the controller's connection count advancing,
    /// per switch.
    attach_ms: Vec<f64>,
}

impl Fleet {
    /// Stops everything and returns each switch's ground truth.
    fn teardown(self) -> Vec<GroundTruth> {
        self.controller.shutdown();
        self.proxy.shutdown();
        for h in &self.hosts {
            h.stop();
        }
        self.hosts.into_iter().map(|h| h.join().truth).collect()
    }
}

/// Brings up controller, proxy and the eight fabric-ringed switch hosts one
/// at a time (so proxy slot `i` = fabric index `i` = plan target `i`).
///
/// `release` false builds the identical fleet but tells the single-session
/// controller to expect one connection more than will ever attach, so the
/// update is never released: that is a timed set-up only.
fn start_fleet(
    kind: Kind,
    inputs: &Inputs,
    registry: Option<&Arc<Registry>>,
    release: bool,
) -> Fleet {
    let epoch = Instant::now();
    let listen = "127.0.0.1:0".parse().expect("literal address");
    let model = SwitchModel::fast_buggy();
    let (controller, controller_addr) = match kind {
        Kind::ProbeRing => {
            let mut session = UpdateSession::new(inputs.plans[0].clone(), AckMode::RumAcks, WINDOW);
            if let Some(r) = registry {
                session.attach_metrics(r);
            }
            let expect = if release { SWITCHES } else { SWITCHES + 1 };
            let h = TcpUpdateController::new_with_epoch(listen, session, expect, epoch)
                .start()
                .expect("controller starts");
            let addr = h.local_addr;
            (Controller::Single(h), addr)
        }
        Kind::MuxTenants => {
            let mut ctrl = TcpMuxController::new_with_epoch(listen, mux_config(), SWITCHES, epoch);
            if let Some(r) = registry {
                ctrl.mux_mut().attach_metrics(r);
            }
            let h = ctrl.start().expect("mux controller starts");
            let addr = h.local_addr;
            (Controller::Mux(h), addr)
        }
    };
    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: listen,
            controller_addr,
        },
        RumBuilder::new(SWITCHES)
            .shards(SHARDS)
            .technique(probing(&model, WINDOW))
            .port_maps(ring_port_maps(SWITCHES)),
    )
    .start()
    .expect("proxy starts");

    let fabric = Fabric::new();
    for i in 0..SWITCHES {
        fabric.link(i, RING_OUT_PORT, (i + 1) % SWITCHES, RING_IN_PORT);
    }
    let mut hosts = Vec::with_capacity(SWITCHES);
    let mut attach_ms = Vec::with_capacity(SWITCHES);
    for i in 0..SWITCHES {
        let t = Instant::now();
        hosts.push(
            spawn_switch_with(
                proxy.local_addr,
                model.clone(),
                SwitchHostOptions {
                    // The seed feeds the fault plan; the early-reply
                    // adversary itself is the model's barrier mode.
                    faults: FaultPlan::seeded(inputs.fnv),
                    epoch: Some(epoch),
                    fabric: Some((fabric.clone(), i)),
                    preinstall: vec![drop_all()],
                    ..Default::default()
                },
            )
            .expect("switch host connects"),
        );
        while controller.connections() <= i {
            assert!(
                t.elapsed() < Duration::from_secs(10),
                "switch {i} did not reach the controller"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        attach_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Fleet {
        epoch,
        controller,
        proxy,
        hosts,
        attach_ms,
    }
}

/// Per-mod `(send, confirm)` times read back from the controller.
type Times = HashMap<(usize, u64), (Option<Duration>, Option<Duration>)>;

/// What a measured phase leaves behind besides the [`Outcome`].
struct PhaseSide {
    attach_ms: Vec<f64>,
    probes_injected: u64,
    probes_consumed: u64,
    to_switch: u64,
    to_controller: u64,
    bytes: u64,
    drains: u64,
    timers_fired: u64,
    outbox_depth_max: u64,
    /// `gen.write` spans: one per `submit` on `mux_tenants`.
    submits: Vec<(u64, Instant, Instant)>,
    /// `gen.await`: update released → outcome.
    awaited: (Instant, Instant),
}

/// Runs the update to completion on a released fleet and joins every
/// confirmation against its own switch's ground truth.
fn measure(kind: Kind, inputs: &Inputs, fleet: Fleet, traced: bool) -> (Outcome, PhaseSide) {
    let cpu0 = process_cpu_ms();
    let gen_cpu0 = thread_cpu_ms();
    let t_release = Instant::now();
    let release_at = fleet.epoch.elapsed();

    let sampler_stop = Arc::new(AtomicBool::new(false));
    let max_depth = Arc::new(AtomicU64::new(0));
    let sampler = traced.then(|| {
        let (stop, max_depth) = (Arc::clone(&sampler_stop), Arc::clone(&max_depth));
        let registry = fleet.proxy.metrics();
        std::thread::spawn(move || sample_outbox_depth(&registry, &stop, &max_depth))
    });

    let mut submits = Vec::new();
    let mut sids: Vec<SessionId> = Vec::new();
    if let Controller::Mux(h) = &fleet.controller {
        for (t, plan) in inputs.plans.iter().enumerate() {
            let t0 = traced.then(Instant::now);
            sids.push(h.submit(plan.clone()).expect("disjoint tenant plans admit"));
            if let Some(t0) = t0 {
                submits.push((t as u64, t0, Instant::now()));
            }
        }
    }
    let mut failures = Failures::default();
    let mut times: Times = HashMap::with_capacity(inputs.planned.len());
    let mut sessions = 0u64;
    match &fleet.controller {
        Controller::Single(h) => {
            match h.wait_for_outcome(BUDGET) {
                Some(SessionOutcome::Completed { .. }) => sessions = 1,
                Some(SessionOutcome::Aborted { .. }) => failures.aborted = 1,
                None => {}
            }
            h.with_session(|s| {
                failures.stray_acks = s.stray_acks();
                for p in &inputs.planned {
                    times.insert(
                        (0, p.local_id),
                        (
                            s.send_times().get(&p.local_id).copied(),
                            s.confirmation_times().get(&p.local_id).copied(),
                        ),
                    );
                }
            });
        }
        Controller::Mux(h) => {
            h.wait_all_done(BUDGET);
            h.with_mux(|m| {
                failures.stray_acks = m.stray_acks();
                for (t, &sid) in sids.iter().enumerate() {
                    match m.outcome(sid) {
                        Some(SessionOutcome::Completed { .. }) => sessions += 1,
                        Some(SessionOutcome::Aborted { .. }) => failures.aborted += 1,
                        None => {}
                    }
                    let s = m.session(sid).expect("admitted session exists");
                    for id in 1..=MODS_PER_TENANT as u64 {
                        times.insert(
                            (t, id),
                            (
                                s.send_times().get(&id).copied(),
                                s.confirmation_times().get(&id).copied(),
                            ),
                        );
                    }
                }
            });
        }
    }
    let t_done = Instant::now();
    let cpu_ms = process_cpu_ms() - cpu0;
    let gen_cpu_ms = thread_cpu_ms() - gen_cpu0;
    sampler_stop.store(true, Ordering::Relaxed);
    if let Some(s) = sampler {
        s.join().expect("sampler thread");
    }

    let stats = fleet.proxy.total_stats();
    let counters = fleet.proxy.counters();
    let side = PhaseSide {
        attach_ms: fleet.attach_ms.clone(),
        probes_injected: stats.probes_injected,
        probes_consumed: stats.probes_consumed,
        to_switch: counters.to_switch(),
        to_controller: counters.to_controller(),
        bytes: counters.to_switch_bytes() + counters.to_controller_bytes(),
        drains: counters.drains(),
        timers_fired: counters.timers_fired(),
        outbox_depth_max: max_depth.load(Ordering::Relaxed),
        submits,
        awaited: (t_release, t_done),
    };
    let truths = fleet.teardown();

    let mut outcome = Outcome {
        input_fnv64: inputs.fnv,
        attempted: inputs.planned.len() as u64,
        ..Outcome::default()
    };
    let mut phase = Phase {
        sessions,
        payload_bytes: inputs.payload_bytes,
        cpu_ms,
        gen_cpu_ms,
        ..Phase::default()
    };
    let mut first_send: Option<Duration> = None;
    let mut last_confirm = Duration::ZERO;
    for p in &inputs.planned {
        let (sent, confirmed) = times[&(p.tenant, p.local_id)];
        let Some(at) = confirmed else {
            failures.missed_acks += 1;
            continue;
        };
        phase.ops += 1;
        last_confirm = last_confirm.max(at);
        let truth = &truths[p.switch];
        if !truth.active_at(p.wire_cookie, at) {
            failures.false_acks += 1;
        }
        if let Some(sent) = sent {
            first_send = Some(first_send.map_or(sent, |f| f.min(sent)));
            outcome
                .confirm_latency_ms
                .push(at.saturating_sub(sent).as_secs_f64() * 1e3);
        }
        if let Some(active) = truth.first_activation(p.wire_cookie) {
            outcome
                .ack_overhead_ms
                .push(at.saturating_sub(active).as_secs_f64() * 1e3);
        }
    }
    // The mux phase starts with the first submit; the single session's with
    // its first send (the controller releases it on the last attach).
    let started = match kind {
        Kind::ProbeRing => first_send.unwrap_or(release_at),
        Kind::MuxTenants => release_at,
    };
    phase.elapsed_s = last_confirm.saturating_sub(started).as_secs_f64();
    outcome.phases.push(phase);
    outcome.failures = failures;
    (outcome, side)
}

/// Child processes a timed run is split over, each running the whole plan.
/// What a probe round trip costs (1.1–1.4 ms) is a property of the process
/// on the sizing box, and a scheduling stall in one fleet would own the
/// pooled p99 of a single-fleet run.
pub const PARTS: usize = 3;

/// One part of the timed, untraced run: timed set-ups, then the whole plan.
pub fn run_part(kind: Kind, seed: u64, scale: f64, process_start: Instant) -> Outcome {
    let inputs = generate(kind, seed, scale);
    let prelude = process_start.elapsed().as_secs_f64();
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let t = Instant::now();
        let fleet = start_fleet(kind, &inputs, None, false);
        setup_s.push(prelude + t.elapsed().as_secs_f64());
        fleet.teardown();
    }
    let t = Instant::now();
    let fleet = start_fleet(kind, &inputs, None, true);
    setup_s.push(prelude + t.elapsed().as_secs_f64());
    let (mut outcome, _) = measure(kind, &inputs, fleet, false);
    outcome.setup_s = setup_s;
    outcome
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// `FlowTable::apply` of the workload's own rules at a given occupancy and
/// `lookup` of a packet each installed rule matches, timed directly.
fn table_layers(layers: &mut Layers) {
    const PROBE_AT: [(usize, &str); 2] = [
        (100, "ofswitch.apply_ns_at_100"),
        (1_400, "ofswitch.apply_ns_at_1400"),
    ];
    /// Applies timed around each occupancy (a window that stays clear of
    /// the table's hash-map growth steps), and tables averaged over.
    const AROUND: usize = 16;
    const TABLES: usize = 32;
    let mut apply_ns = [0u128; 2];
    let mut lookup_ns = 0u128;
    let mut lookups = 0u128;
    for _ in 0..TABLES {
        let mut table = FlowTable::new(1_500);
        table
            .apply(&drop_all(), Duration::ZERO)
            .expect("drop-all installs");
        for r in 0..1_400 + AROUND / 2 {
            let fm = ring_rule(0, r).with_cookie(r as u64 + 10);
            let slot = PROBE_AT
                .iter()
                .position(|(at, _)| (*at - AROUND / 2..*at + AROUND / 2).contains(&r));
            let t = Instant::now();
            let applied = table.apply(std::hint::black_box(&fm), Duration::ZERO);
            let dt = t.elapsed().as_nanos();
            applied.expect("rule installs under the table capacity");
            if let Some(slot) = slot {
                apply_ns[slot] += dt;
            }
        }
        for r in (0..1_400).step_by(7) {
            let fm = ring_rule(0, r);
            let pkt = PacketHeader {
                nw_src: fm.match_.nw_src,
                nw_dst: fm.match_.nw_dst,
                ..PacketHeader::default()
            };
            let t = Instant::now();
            let hit = table
                .lookup(std::hint::black_box(&pkt), RING_IN_PORT)
                .is_some();
            lookup_ns += t.elapsed().as_nanos();
            lookups += 1;
            std::hint::black_box(hit);
        }
    }
    for (slot, (_, name)) in PROBE_AT.iter().enumerate() {
        layers.set(name, apply_ns[slot] as f64 / (AROUND * TABLES) as f64);
    }
    layers.set(
        "ofswitch.lookup_ns_per_pkt",
        lookup_ns as f64 / lookups as f64,
    );
}

/// Copies what the sans-IO replay measured into the per-layer table; shared
/// with `sim_fleet`, which replays the same chain at 1,000 switches.
pub fn chain_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    replay: &chain::Replayed,
    n_switches: usize,
) {
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let times = tracer.self_times();
    let layer = |name: &str| times.get(name).copied().unwrap_or_default();
    let decode = layer("openflow.decode");
    let encode = layer("openflow.encode");
    layers.set("openflow.decode_ns_per_msg", decode.ns_per_call());
    layers.set("openflow.encode_ns_per_msg", encode.ns_per_call());
    layers.set(
        "openflow.bytes_per_msg",
        per(replay.wire_bytes, encode.calls),
    );
    layers.set("openflow.decode_errors", replay.decode_errors as f64);
    layers.set(
        "controller.session_ns_per_input",
        layer("controller.session").ns_per_call(),
    );
    layers.set(
        "sessiond.handle_ns_per_input",
        layer("sessiond.handle").ns_per_call(),
    );
    layers.set(
        "sessiond.submit_us_per_session",
        layer("sessiond.submit").ns_per_call() / 1e3,
    );
    layers.set(
        "ofswitch.behavior_ns_per_msg",
        layer("ofswitch.behavior").ns_per_call(),
    );
    let at = |occupancy: u32| {
        tracer.mean_self_ns_where("rum.handle.flowmod", |cookie| {
            replay
                .occupancy_at
                .get(&cookie)
                .is_some_and(|o| (occupancy.saturating_sub(10)..occupancy).contains(o))
        })
    };
    layers.set("rum.general.flowmod_ns_at_100", at(100));
    layers.set("rum.general.flowmod_ns_at_1400", at(1_400));
    layers.set(
        if n_switches == SWITCHES {
            "rum.general.probe_return_ns_at_8sw"
        } else {
            "rum.general.probe_return_ns_at_1000sw"
        },
        layer("rum.handle.probe_return").ns_per_call(),
    );
}

/// The traced run: an untraced and a traced TCP phase of half the size each
/// (their difference is the tracing overhead), the full-size sans-IO replay
/// on a virtual clock, and the direct table timings.
pub fn trace(kind: Kind, seed: u64, scale: f64) -> (Layers, Tracer, u64, Failures) {
    let mut layers = Layers::default();
    let mut tracer = Tracer::default();
    let half = generate(kind, seed, scale / 2.0);

    let (plain, _) = measure(kind, &half, start_fleet(kind, &half, None, true), false);
    let registry = Arc::new(Registry::new());
    let (traced, side) = measure(
        kind,
        &half,
        start_fleet(kind, &half, Some(&registry), true),
        true,
    );
    for &(t, t0, t1) in &side.submits {
        tracer.record("gen.write", t, t0, t1);
    }
    tracer.record("gen.await", 0, side.awaited.0, side.awaited.1);

    layers.set(
        "trace.overhead_pct",
        (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
    );
    layers.set("gen.cpu_share", plain.gen_cpu_share());
    let kops = traced.ops().max(1) as f64 / 1e3;
    let drains = side.drains.max(1) as f64;
    layers.set(
        "rum_tcp.msgs_per_drain",
        (side.to_switch + side.to_controller) as f64 / drains,
    );
    layers.set("rum_tcp.bytes_per_drain", side.bytes as f64 / drains);
    layers.set(
        "rum_tcp.timers_fired_per_kop",
        side.timers_fired as f64 / kops,
    );
    layers.set("rum_tcp.outbox_depth_max", side.outbox_depth_max as f64);
    layers.set(
        "rum_tcp.attach_ms_per_switch",
        crate::measure::median(&side.attach_ms),
    );
    layers.set("rum.probes_injected", side.probes_injected as f64);
    layers.set("rum.probes_consumed", side.probes_consumed as f64);
    layers.set(
        "rum.probe_yield",
        side.probes_consumed as f64 / side.probes_injected.max(1) as f64,
    );
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    match kind {
        Kind::ProbeRing => {
            layers.set("controller.retries", counter("session.retries"));
            layers.set("controller.mods_failed", counter("session.mods_failed"));
        }
        Kind::MuxTenants => {
            layers.set(
                "sessiond.serialized_conflict",
                counter("sessiond.serialized_conflict"),
            );
            layers.set("sessiond.stray_acks", traced.failures.stray_acks as f64);
        }
    }

    // The full-size replay: occupancy reaches what the timed run reaches.
    let full = generate(kind, seed, scale);
    let driver = match kind {
        Kind::ProbeRing => Driver::single(full.plans[0].clone(), WINDOW),
        Kind::MuxTenants => Driver::mux(mux_config(), full.plans.clone()),
    };
    let model = SwitchModel::fast_buggy();
    let replay = chain::replay(
        &mut tracer,
        driver,
        SWITCHES,
        &model,
        RumBuilder::new(SWITCHES)
            .shards(SHARDS)
            .technique(probing(&model, WINDOW))
            .port_maps(ring_port_maps(SWITCHES)),
    );
    chain_layers(&mut layers, &tracer, &replay, SWITCHES);
    if kind == Kind::MuxTenants {
        layers.set("sessiond.queued_max", replay.queued_max as f64);
    }
    table_layers(&mut layers);

    // What only sockets, the reactor and threads explain: the process CPU of
    // the untraced run, minus the benchmark's own thread, minus every
    // replayed layer's self time.
    let chain_us_per_kop =
        replay.layer_self_ns(&tracer) as f64 / 1e3 / (replay.confirmed.max(1) as f64 / 1e3);
    layers.set(
        "rum_tcp.wire_residual_us_per_kop",
        (plain.system_us_per_kop() - chain_us_per_kop).max(0.0),
    );

    let mut failures = plain.failures;
    failures += traced.failures;
    // The replay must confirm the whole plan too.
    failures.missed_acks += full.planned.len() as u64 - replay.confirmed;
    (
        layers,
        tracer,
        plain.attempted + traced.attempted + full.planned.len() as u64,
        failures,
    )
}

pub fn describe(kind: Kind, scale: f64) -> String {
    let fleet = format!("{SWITCHES} fast_buggy switch hosts, general probing every 10 ms");
    match kind {
        Kind::ProbeRing => format!(
            "one plan of {} ADDs per switch over {fleet}",
            size(kind, scale)
        ),
        Kind::MuxTenants => format!(
            "{} tenants x {MODS_PER_TENANT} ADDs over {fleet}",
            size(kind, scale)
        ),
    }
}
