//! The simulator driver for the sans-IO [`crate::RumEngine`]: per-switch proxy
//! nodes, topology-derived port maps, and one-call deployment.
//!
//! The paper's prototype is a chain of TCP proxies: every switch connects to
//! RUM believing it is the controller, and RUM connects onward to the real
//! controller impersonating the switches.  In the simulator the same
//! structure appears as one [`RumProxy`] node per monitored switch, all
//! sharing a single [`crate::RumEngine`] (RUM is one logical process), exactly like
//! the prototype's proxy chain shares one POX process.
//!
//! All message-level logic lives in the engine; this module only translates
//! simulator events into [`Input`]s and executes the returned [`Effect`]s
//! through the simulator [`Context`].  The `rum-tcp` crate does the same over
//! real sockets.

use crate::config::{RumBuilder, SwitchPortMap};
use crate::engine::{Effect, Input, ProxyStats, SwitchId, TimerToken};
use crate::shard::ShardedEngine;
use simnet::{Context, EventPayload, Node, NodeId, SimTime, Topology};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One-way latency RUM adds on each hop of the simulated control channel.
const CONTROL_LATENCY: SimTime = SimTime::from_micros(100);

/// The shared state of one simulated RUM deployment: the engine plus the
/// routing the driver needs to execute effects.
struct SimRum {
    engine: ShardedEngine,
    controller: NodeId,
    switch_nodes: Vec<NodeId>,
    /// The effects buffer every input is handled into, empty between inputs.
    effects: Vec<Effect>,
}

impl SimRum {
    /// Feeds one input and executes the effects through `ctx`.
    fn drive(&mut self, input: Input, ctx: &mut Context<'_>) {
        let mut effects = std::mem::take(&mut self.effects);
        self.engine
            .handle_into(ctx.now().into(), input, &mut effects);
        self.execute(effects.drain(..), ctx);
        self.effects = effects;
    }

    fn execute(&self, effects: impl IntoIterator<Item = Effect>, ctx: &mut Context<'_>) {
        for effect in effects {
            match effect {
                Effect::ToController { message, .. } => {
                    ctx.send_control(self.controller, message, CONTROL_LATENCY);
                }
                Effect::ToSwitch { switch, message } | Effect::InjectVia { switch, message } => {
                    ctx.send_control(self.switch_nodes[switch.index()], message, CONTROL_LATENCY);
                }
                Effect::ArmTimer { delay, token } => {
                    ctx.set_timer(delay.into(), token.raw());
                }
                Effect::Confirmed { .. } => {
                    // Observational; the controller learns through the ack /
                    // barrier messages emitted alongside.
                }
            }
        }
    }
}

/// A handle to a deployed RUM layer, for post-run inspection.
#[derive(Clone)]
pub struct RumHandle {
    shared: Rc<RefCell<SimRum>>,
}

impl RumHandle {
    /// Statistics for one monitored switch.
    pub fn stats(&self, switch: SwitchId) -> ProxyStats {
        self.shared.borrow().engine.stats(switch)
    }

    /// Number of monitored switches.
    pub fn n_switches(&self) -> usize {
        self.shared.borrow().engine.n_switches()
    }

    /// Every confirmation the engine emitted, in order.
    pub fn confirmed_order(&self) -> Vec<(SwitchId, u64)> {
        self.shared.borrow().engine.confirmed_order()
    }

    /// The confirmation cookie sequence of one switch — the cross-driver /
    /// cross-shard conformance invariant.
    pub fn confirmed_order_for(&self, switch: SwitchId) -> Vec<u64> {
        self.shared.borrow().engine.confirmed_order_for(switch)
    }

    /// Total statistics summed over all monitored switches.  Derived from
    /// the engine's telemetry registry, like every other stats surface.
    pub fn total_stats(&self) -> ProxyStats {
        self.shared.borrow().engine.total_stats()
    }

    /// The telemetry registry the deployment's statistics live in.
    pub fn metrics(&self) -> std::sync::Arc<telemetry::Registry> {
        std::sync::Arc::clone(self.shared.borrow().engine.metrics())
    }
}

/// A per-switch proxy node: the switch's OpenFlow peer on one side, one of
/// the controller's "switches" on the other.  A thin driver — every decision
/// is made by the shared [`crate::RumEngine`].
pub struct RumProxy {
    shared: Rc<RefCell<SimRum>>,
    switch: SwitchId,
    controller: NodeId,
    label: String,
}

impl RumProxy {
    /// The RUM deployment handle (for inspection after a run).
    pub fn handle(&self) -> RumHandle {
        RumHandle {
            shared: Rc::clone(&self.shared),
        }
    }

    /// The switch identity this proxy front-ends.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }
}

impl Node for RumProxy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn start(&mut self, ctx: &mut Context<'_>) {
        // The engine starts exactly once; whichever proxy node starts first
        // kicks it off and executes the start-up effects (catch rules,
        // initial technique timers) for every switch.
        let mut shared = self.shared.borrow_mut();
        let effects = shared.engine.start(ctx.now().into());
        shared.execute(effects, ctx);
    }

    fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
        let mut shared = self.shared.borrow_mut();
        match event {
            EventPayload::Control { from, message } => {
                let input = if from == self.controller {
                    Input::FromController {
                        switch: self.switch,
                        message,
                    }
                } else {
                    // From our switch — or from an unrelated node (e.g. a
                    // switch we only inject probes through): treat it as
                    // switch-side traffic so probe PacketIns are captured.
                    //
                    // A switch-side Hello is the handshake replay of a
                    // restarted switch reattaching (nothing else initiates
                    // one mid-session in the simulator); tell the engine so
                    // it re-installs its rules and re-issues unconfirmed
                    // modifications, then forward the Hello so the
                    // controller answers it end to end.
                    if matches!(message, openflow::OfMessage::Hello { .. }) {
                        shared.drive(
                            Input::SwitchReconnected {
                                switch: self.switch,
                            },
                            ctx,
                        );
                    }
                    Input::FromSwitch {
                        switch: self.switch,
                        message,
                    }
                };
                shared.drive(input, ctx);
            }
            EventPayload::Timer { token } => {
                shared.drive(
                    Input::TimerFired {
                        token: TimerToken::from_raw(token),
                    },
                    ctx,
                );
            }
            EventPayload::Packet { .. } => {
                // The proxy sits on the control path only.
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Derives per-switch [`SwitchPortMap`]s from the data-plane topology: which
/// local port leads to which other monitored switch, and through which
/// neighbour probes can be injected.
pub fn derive_port_maps(topology: &Topology, switches: &[NodeId]) -> Vec<SwitchPortMap> {
    let switch_of: HashMap<NodeId, SwitchId> = (switches.iter().enumerate())
        .map(|(i, &node)| (node, SwitchId::new(i)))
        .collect();
    switches
        .iter()
        .map(|&sw| {
            let mut map = SwitchPortMap::default();
            for (port, peer) in topology.neighbors(sw) {
                if let Some(&peer_idx) = switch_of.get(&peer) {
                    map.port_to_switch.insert(port, peer_idx);
                    if map.inject_via.is_none() {
                        // The port on the neighbour that points back at us.
                        if let Some(back_port) = topology.port_towards(peer, sw) {
                            map.inject_via = Some((peer_idx, back_port));
                        }
                    }
                }
            }
            map
        })
        .collect()
}

/// Deploys a RUM layer into a simulation: creates one proxy node per switch
/// and returns their node ids (index-aligned with `switches`) plus a handle
/// for post-run inspection.
///
/// Port maps the builder left unspecified are derived from the simulator
/// topology.  After calling this, point the controller's connections at the
/// returned proxy ids and each switch's controller connection at its proxy.
pub fn deploy(
    sim: &mut simnet::Simulator,
    builder: RumBuilder,
    controller: NodeId,
    switches: &[NodeId],
) -> (Vec<NodeId>, RumHandle) {
    let shards = builder.shard_count();
    // Fill in any port maps the caller left empty BEFORE building: a large
    // fleet's probe-plan colouring is derived from this adjacency.
    let derived = derive_port_maps(sim.topology(), switches);
    let config = builder.fill_unspecified_port_maps(derived).build_config();
    assert_eq!(
        config.n_switches(),
        switches.len(),
        "the builder must be sized for exactly the monitored switches"
    );
    let shared = Rc::new(RefCell::new(SimRum {
        engine: ShardedEngine::new(config, shards),
        controller,
        switch_nodes: switches.to_vec(),
        effects: Vec::new(),
    }));
    let handle = RumHandle {
        shared: Rc::clone(&shared),
    };
    let proxies = switches
        .iter()
        .enumerate()
        .map(|(i, _)| {
            sim.add_node(RumProxy {
                shared: Rc::clone(&shared),
                switch: SwitchId::new(i),
                controller,
                label: format!("rum-proxy-{i}"),
            })
        })
        .collect();
    (proxies, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TechniqueConfig;
    use controller::scenarios::BulkUpdateScenario;
    use controller::{AckMode, Controller, UpdatePlan};
    use ofswitch::SwitchModel;
    use openflow::messages::FlowMod;
    use openflow::OfMatch;
    use simnet::OpenFlowSwitch;
    use simnet::Simulator;
    use std::time::Duration;

    /// Runs the bulk-update scenario through RUM with the given technique and
    /// returns (simulator, controller id, rum handle).
    fn run_bulk(
        technique: TechniqueConfig,
        n_rules: usize,
        window: usize,
        model: SwitchModel,
        until: SimTime,
    ) -> (Simulator, NodeId, RumHandle) {
        run_plan(technique, n_rules, window, model, until, |plan| plan)
    }

    /// [`run_bulk`] with the scenario's update plan passed through `edit`.
    fn run_plan(
        technique: TechniqueConfig,
        n_rules: usize,
        window: usize,
        model: SwitchModel,
        until: SimTime,
        edit: impl FnOnce(UpdatePlan) -> UpdatePlan,
    ) -> (Simulator, NodeId, RumHandle) {
        let mut sim = Simulator::new(11);
        let scenario = BulkUpdateScenario {
            n_rules,
            packets_per_sec: 0,
            model,
            ..Default::default()
        };
        let net = scenario.build(&mut sim);
        let ctrl = Controller::new(
            "ctrl",
            edit(net.plan.clone()),
            AckMode::RumAcks,
            window,
            SimTime::from_millis(10),
        );
        let ctrl_id = sim.add_node(ctrl);

        // RUM monitors the whole chain A - B - C so probes can be injected
        // via A and caught at C.  The controller only talks to B (plan
        // target 0 = B), so its single connection points at B's proxy.
        let switches = [net.sw_a, net.sw_b, net.sw_c];
        let builder = RumBuilder::new(switches.len()).technique(technique);
        let (proxies, handle) = deploy(&mut sim, builder, ctrl_id, &switches);
        sim.node_mut::<Controller>(ctrl_id)
            .unwrap()
            .set_connections(vec![proxies[1]]);
        for (idx, sw) in switches.iter().enumerate() {
            sim.node_mut::<OpenFlowSwitch>(*sw)
                .unwrap()
                .connect_controller(proxies[idx]);
        }
        sim.run_until(until);
        (sim, ctrl_id, handle)
    }

    fn assert_never_early(sim: &Simulator, expected: usize) {
        let delays = sim.trace().activation_delays();
        assert_eq!(delays.len(), expected);
        let negative: Vec<_> = delays.iter().filter(|d| d.delay_millis() < 0.0).collect();
        assert!(
            negative.is_empty(),
            "no acknowledgment may precede data-plane activation, got {negative:?}"
        );
    }

    #[test]
    fn baseline_on_buggy_switch_acks_too_early() {
        let (sim, ctrl_id, _) = run_bulk(
            TechniqueConfig::BarrierBaseline,
            30,
            30,
            SwitchModel::hp5406zl(),
            SimTime::from_secs(5),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        let delays = sim.trace().activation_delays();
        let negative = delays.iter().filter(|d| d.delay_millis() < 0.0).count();
        assert!(
            negative > 20,
            "the baseline must reproduce the premature acknowledgments ({negative}/30)"
        );
    }

    #[test]
    fn static_timeout_is_never_early_on_buggy_switch() {
        let (sim, ctrl_id, _) = run_bulk(
            TechniqueConfig::StaticTimeout {
                delay: Duration::from_millis(300),
            },
            30,
            30,
            SwitchModel::hp5406zl(),
            SimTime::from_secs(10),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        assert_never_early(&sim, 30);
    }

    #[test]
    fn sequential_probing_is_never_early_and_uses_probes() {
        let (sim, ctrl_id, handle) = run_bulk(
            TechniqueConfig::default_sequential(),
            40,
            40,
            SwitchModel::hp5406zl(),
            SimTime::from_secs(20),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(
            ctrl.is_complete(),
            "confirmed {} of 40",
            ctrl.confirmed_count()
        );
        assert_never_early(&sim, 40);
        let stats = handle.stats(SwitchId::new(1));
        assert!(stats.proxy_flow_mods > 0, "probe rule must be installed");
        assert!(stats.probes_injected > 0);
        // Probes are caught at a neighbouring switch, so the consumption is
        // attributed to whichever proxy received the PacketIn.
        assert!(handle.total_stats().probes_consumed > 0);
        assert!(stats.acks_sent >= 40);
    }

    #[test]
    fn general_probing_is_never_early_even_on_reordering_switch() {
        let (sim, ctrl_id, handle) = run_bulk(
            TechniqueConfig::default_general(),
            40,
            40,
            SwitchModel::reordering(),
            SimTime::from_secs(20),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(
            ctrl.is_complete(),
            "confirmed {} of 40",
            ctrl.confirmed_count()
        );
        let delays = sim.trace().activation_delays();
        // Only the controller's own rules have confirmations (probe rules are
        // proxy-internal); none may be negative.
        assert!(delays.iter().all(|d| d.delay_millis() >= -1e-9));
        let stats = handle.stats(SwitchId::new(1));
        assert!(stats.probes_injected > 0);
        assert!(handle.total_stats().probes_consumed > 0);
        // Every confirmation in the engine log belongs to switch B.
        assert!(handle
            .confirmed_order()
            .iter()
            .all(|(sw, _)| *sw == SwitchId::new(1)));
        assert_eq!(handle.confirmed_order().len(), 40);
    }

    /// `fallback_delay: Duration::MAX` says "never hand out a guessed ack":
    /// a rule general probing cannot probe (it forwards nowhere) must then
    /// stay unconfirmed, not be confirmed by a timer whose deadline wrapped
    /// around the clock into the past.
    #[test]
    fn unreachable_fallback_delay_never_confirms_an_unprobeable_rule() {
        let (sim, ctrl_id, handle) = run_plan(
            TechniqueConfig::GeneralProbing {
                probe_interval: Duration::from_millis(10),
                max_outstanding: 30,
                fallback_delay: Duration::MAX,
            },
            1,
            1,
            SwitchModel::hp5406zl(),
            SimTime::from_secs(20),
            |_| {
                let mut plan = UpdatePlan::new();
                let drop = FlowMod::add(OfMatch::wildcard_all(), 500, Vec::new());
                plan.add(1_000, 0, drop).unwrap();
                plan
            },
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert_eq!(ctrl.confirmed_count(), 0, "a guessed ack was handed out");
        assert!(handle.confirmed_order().is_empty());
        assert_eq!(handle.stats(SwitchId::new(1)).unconfirmed, 1);
    }

    #[test]
    fn general_probing_acks_are_close_to_data_plane_activation() {
        let (sim, ctrl_id, _) = run_bulk(
            TechniqueConfig::default_general(),
            30,
            30,
            SwitchModel::hp5406zl(),
            SimTime::from_secs(20),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        let delays = sim.trace().activation_delays();
        let controller_rules: Vec<_> = delays
            .iter()
            .filter(|d| d.cookie >= 1_000 && d.cookie < 1_000 + 30)
            .collect();
        assert_eq!(controller_rules.len(), 30);
        // Paper: within 30 ms of the data-plane modification for 90% of
        // modifications.  Allow a little slack for the simulated timing.
        let close = controller_rules
            .iter()
            .filter(|d| d.delay_millis() >= 0.0 && d.delay_millis() <= 60.0)
            .count();
        assert!(
            close * 10 >= controller_rules.len() * 9,
            "only {close}/30 acks were within 60 ms"
        );
    }

    #[test]
    fn reliable_barriers_wait_for_data_plane() {
        // Controller uses plain barriers (transparent mode); RUM makes them
        // honest via sequential probing.
        let mut sim = Simulator::new(5);
        let scenario = BulkUpdateScenario {
            n_rules: 20,
            packets_per_sec: 0,
            model: SwitchModel::hp5406zl(),
            ..Default::default()
        };
        let net = scenario.build(&mut sim);
        let ctrl = Controller::new(
            "ctrl",
            net.plan.clone(),
            AckMode::Barriers { batch: 10 },
            20,
            SimTime::from_millis(10),
        );
        let ctrl_id = sim.add_node(ctrl);
        let switches = [net.sw_a, net.sw_b, net.sw_c];
        let builder = RumBuilder::new(switches.len())
            .technique(TechniqueConfig::default_sequential())
            .fine_grained_acks(false);
        let (proxies, _handle) = deploy(&mut sim, builder, ctrl_id, &switches);
        sim.node_mut::<Controller>(ctrl_id)
            .unwrap()
            .set_connections(vec![proxies[1]]);
        for (idx, sw) in switches.iter().enumerate() {
            sim.node_mut::<OpenFlowSwitch>(*sw)
                .unwrap()
                .connect_controller(proxies[idx]);
        }
        sim.run_until(SimTime::from_secs(20));
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        // Confirmation through RUM-held barriers must never precede the data
        // plane.
        let delays = sim.trace().activation_delays();
        let controller_rules: Vec<_> = delays
            .iter()
            .filter(|d| d.cookie >= 1_000 && d.cookie < 1_020)
            .collect();
        assert_eq!(controller_rules.len(), 20);
        assert!(controller_rules.iter().all(|d| d.delay_millis() >= 0.0));
    }

    #[test]
    fn derive_port_maps_from_topology() {
        let mut sim = Simulator::new(1);
        let scenario = BulkUpdateScenario {
            n_rules: 1,
            packets_per_sec: 0,
            ..Default::default()
        };
        let net = scenario.build(&mut sim);
        let switches = [net.sw_a, net.sw_b, net.sw_c];
        let maps = derive_port_maps(sim.topology(), &switches);
        assert_eq!(maps.len(), 3);
        // B (index 1) reaches A through port 1 and C through port 2.
        assert_eq!(maps[1].port_to_switch[&1], SwitchId::new(0));
        assert_eq!(maps[1].port_to_switch[&2], SwitchId::new(2));
        // B's probes can be injected via A (which reaches B through port 2).
        assert_eq!(maps[1].inject_via, Some((SwitchId::new(0), 2)));
        // A has only one monitored neighbour: B.
        assert_eq!(maps[0].port_to_switch[&2], SwitchId::new(1));
    }
}
