//! `sim_fleet`: the 1,000-switch ring on the simnet driver.
//!
//! No sockets, no threads, virtual time: hp5406zl early-reply switches, the
//! whole plan released at once, general probing through `rum::deploy` with 8
//! shards.  Every probe return visits every switch's technique, so colouring
//! and the sharded engine dominate, and the virtual completion time and the
//! per-switch confirm orders must repeat bit-for-bit for a seed.

use crate::chain::{self, Driver};
use crate::measure::{process_cpu_ms, Fnv64, SplitMix64};
use crate::report::{Failures, Layers, Outcome, Phase};
use crate::ring::{chain_layers, drop_all, fleet_plan, probing, ring_port_maps, Planned};
use crate::ring::{RING_IN_PORT, RING_OUT_PORT, SHARDS};
use crate::trace::Tracer;
use controller::{AckMode, Controller, UpdatePlan};
use ofswitch::{FaultPlan, SwitchModel};
use openflow::DatapathId;
use rum::{deploy, RumBuilder, RumHandle, SwitchId};
use simnet::{OpenFlowSwitch, SimTime, Simulator};
use std::time::Instant;

/// Switches of the simulated fleet.
const FLEET: usize = 1_000;
/// Rules per switch per second of `--seconds`: 40 at the standard 10 s.
const RULES_PER_SWITCH_PER_S: f64 = 4.0;
/// When the simulated controller releases the plan.
const SIM_START: SimTime = SimTime::from_millis(10);
/// Simulated horizon; an incomplete run reports missed acks.
const SIM_HORIZON: SimTime = SimTime::from_secs(600);
/// Fleet builds timed per run (the last one carries the measured phase).
const SETUPS: usize = 3;

struct Inputs {
    plan: UpdatePlan,
    planned: Vec<Planned>,
    seed: u64,
    fnv: u64,
}

fn rules_per_switch(scale: f64) -> usize {
    ((RULES_PER_SWITCH_PER_S * scale).round() as usize).clamp(1, 250)
}

fn generate(seed: u64, scale: f64) -> Inputs {
    let mut rng = SplitMix64::new("sim_fleet", seed);
    let (plan, planned) = fleet_plan(&mut rng, FLEET, rules_per_switch(scale));
    let mut fnv = Fnv64::default();
    fnv.bytes(b"sim_fleet");
    for p in &planned {
        fnv.u64(p.wire_cookie);
        fnv.u64(p.switch as u64);
    }
    Inputs {
        plan,
        planned,
        seed,
        fnv: fnv.finish(),
    }
}

/// The whole plan is released at once, so the whole plan is the window.
fn builder(model: &SwitchModel, window: usize) -> RumBuilder {
    RumBuilder::new(FLEET)
        .shards(SHARDS)
        .technique(probing(model, window))
        .port_maps(ring_port_maps(FLEET))
        .record_confirmations(true)
}

struct Fleet {
    sim: Simulator,
    controller: simnet::NodeId,
    switches: Vec<simnet::NodeId>,
    handle: RumHandle,
}

/// Builds the simulator: 1,000 switches, the ring links, the controller and
/// the sharded proxy (port maps, probe-plan colouring).
fn build(inputs: &Inputs) -> Fleet {
    let model = SwitchModel::hp5406zl();
    let mut sim = Simulator::new(inputs.seed);
    let switches: Vec<simnet::NodeId> = (0..FLEET)
        .map(|i| {
            let mut sw = OpenFlowSwitch::with_faults(
                format!("sw{i}"),
                DatapathId::new(i as u64 + 1),
                2,
                model.clone(),
                FaultPlan::seeded(inputs.seed),
            );
            sw.preinstall(&drop_all());
            sim.add_node(sw)
        })
        .collect();
    for i in 0..FLEET {
        sim.topology_mut().add_link(
            switches[i],
            RING_OUT_PORT,
            switches[(i + 1) % FLEET],
            RING_IN_PORT,
            SimTime::from_micros(50),
        );
    }
    let window = inputs.plan.len();
    let controller = sim.add_node(Controller::new(
        "ctrl",
        inputs.plan.clone(),
        AckMode::RumAcks,
        window,
        SIM_START,
    ));
    let (proxies, handle) = deploy(&mut sim, builder(&model, window), controller, &switches);
    sim.node_mut::<Controller>(controller)
        .expect("controller node")
        .set_connections(proxies.clone());
    for (i, &sw) in switches.iter().enumerate() {
        sim.node_mut::<OpenFlowSwitch>(sw)
            .expect("switch node")
            .connect_controller(proxies[i]);
    }
    Fleet {
        sim,
        controller,
        switches,
        handle,
    }
}

/// What one simulated run produced.
struct SimRun {
    phase: Phase,
    failures: Failures,
    virtual_completion_ms: f64,
    confirm_order_fnv64: u64,
    events: u64,
    handle: RumHandle,
}

fn run_fleet(inputs: &Inputs, mut fleet: Fleet) -> SimRun {
    let cpu0 = process_cpu_ms();
    let t0 = Instant::now();
    fleet.sim.run_until(SIM_HORIZON);
    let elapsed_s = t0.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu0;

    let ctrl = fleet
        .sim
        .node_ref::<Controller>(fleet.controller)
        .expect("controller node");
    let confirmations = ctrl.session().confirmation_times();
    let mut failures = Failures {
        stray_acks: ctrl.session().stray_acks(),
        ..Failures::default()
    };
    let mut ops = 0u64;
    for p in &inputs.planned {
        let Some(&at) = confirmations.get(&p.wire_cookie) else {
            failures.missed_acks += 1;
            continue;
        };
        ops += 1;
        let truth = fleet
            .sim
            .node_ref::<OpenFlowSwitch>(fleet.switches[p.switch])
            .expect("switch node")
            .behavior()
            .ground_truth();
        if !truth.active_at(p.wire_cookie, at) {
            failures.false_acks += 1;
        }
    }
    let virtual_completion_ms = ctrl
        .completed_at()
        .map_or(f64::NAN, |t| t.saturating_sub(SIM_START).as_millis_f64());
    let mut order = Fnv64::default();
    for i in 0..FLEET {
        for cookie in fleet.handle.confirmed_order_for(SwitchId::new(i)) {
            order.u64(cookie);
        }
        order.u64(u64::MAX);
    }
    SimRun {
        phase: Phase {
            ops,
            elapsed_s,
            // Every planned flow-mod is the 80-byte ADD of the ring.
            payload_bytes: ops * 80,
            sessions: u64::from(ctrl.completed_at().is_some()),
            cpu_ms,
            gen_cpu_ms: 0.0,
        },
        failures,
        virtual_completion_ms,
        confirm_order_fnv64: order.finish(),
        events: fleet.sim.events_processed(),
        handle: fleet.handle,
    }
}

/// The timed run.
pub fn run(seed: u64, scale: f64, process_start: Instant) -> Outcome {
    let inputs = generate(seed, scale);
    let prelude = process_start.elapsed().as_secs_f64();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fleet = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        fleet = Some(build(&inputs));
        setup_s.push(prelude + t.elapsed().as_secs_f64());
    }
    let run = run_fleet(&inputs, fleet.expect("SETUPS > 0"));
    Outcome {
        input_fnv64: inputs.fnv,
        exact: vec![
            (
                "virtual_completion_ms",
                format!("{}", run.virtual_completion_ms),
            ),
            (
                "confirm_order_fnv64",
                format!("{:#018x}", run.confirm_order_fnv64),
            ),
        ],
        setup_s,
        phases: vec![run.phase],
        attempted: inputs.planned.len() as u64,
        failures: run.failures,
        ..Outcome::default()
    }
}

/// The traced run: the simulator run twice (completion time and confirm
/// orders must repeat bit-for-bit), the direct timings of sharded-engine
/// build and registry snapshot, and the same plan replayed through the
/// sans-IO chain with spans.
pub fn trace(seed: u64, scale: f64) -> (Layers, Tracer, u64, Failures) {
    let mut layers = Layers::default();
    let mut tracer = Tracer::default();
    let inputs = generate(seed, scale);
    let model = SwitchModel::hp5406zl();

    let first = run_fleet(&inputs, build(&inputs));
    let second = run_fleet(&inputs, build(&inputs));
    let mut failures = first.failures;
    failures += second.failures;
    // Same seed, same build: anything but identical output is corruption.
    if first.virtual_completion_ms.to_bits() != second.virtual_completion_ms.to_bits()
        || first.confirm_order_fnv64 != second.confirm_order_fnv64
    {
        failures.corrupted += 1;
    }
    layers.set("simnet.events", first.events as f64);
    layers.set(
        "simnet.ns_per_event",
        first.phase.elapsed_s * 1e9 / first.events.max(1) as f64,
    );
    layers.set("simnet.virtual_completion_ms", first.virtual_completion_ms);
    let stats = first.handle.total_stats();
    layers.set("rum.probes_injected", stats.probes_injected as f64);
    layers.set("rum.probes_consumed", stats.probes_consumed as f64);
    layers.set(
        "rum.probe_yield",
        stats.probes_consumed as f64 / stats.probes_injected.max(1) as f64,
    );

    tracer.enter("telemetry.snapshot", 0);
    std::hint::black_box(first.handle.metrics().snapshot());
    tracer.exit();
    let window = inputs.plan.len();
    tracer.enter("rum.build_sharded", 0);
    let engine = builder(&model, window).build_sharded();
    tracer.exit();
    drop(engine);
    layers.set(
        "telemetry.snapshot_ms_at_1000sw",
        tracer.layer("telemetry.snapshot").self_ns as f64 / 1e6,
    );
    layers.set(
        "rum.build_sharded_ms",
        tracer.layer("rum.build_sharded").self_ns as f64 / 1e6,
    );

    // The replay twice: with spans, and with a tracer that records nothing.
    // No generator and no sockets here, so that difference is the whole
    // tracing overhead.
    let replay_once = |tracer: &mut Tracer| {
        let t = Instant::now();
        let replay = chain::replay(
            tracer,
            Driver::single(inputs.plan.clone(), window),
            FLEET,
            &model,
            builder(&model, window),
        );
        (replay, t.elapsed().as_secs_f64())
    };
    let (replay, traced_s) = replay_once(&mut tracer);
    let (untraced, untraced_s) = replay_once(&mut Tracer::disabled());
    chain_layers(&mut layers, &tracer, &replay, FLEET);
    failures.missed_acks += inputs.planned.len() as u64 - replay.confirmed;
    if untraced.completion != replay.completion {
        failures.corrupted += 1;
    }
    layers.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    (layers, tracer, 3 * inputs.planned.len() as u64, failures)
}

pub fn describe(scale: f64) -> String {
    format!(
        "{FLEET}-switch simnet ring of hp5406zl early-reply switches x {} rules each, general probing, {SHARDS} shards",
        rules_per_switch(scale)
    )
}
