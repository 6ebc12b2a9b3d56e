//! The one fleet harness under the three gate modules.
//!
//! Every gate run has the same shape: a controller, the RUM proxy layer, a
//! set of (mis)behaving switches, and a join of every acknowledgment
//! against the data plane's ground truth.  This module owns exactly the
//! shared part — the [`Topology`] (one link list feeding the simulator
//! links, the TCP [`Fabric`] and the proxy's port maps), one stand-up per
//! driver ([`SimFleet`], [`TcpFleet`]), one tear-down with one
//! [`ReadBack`], and the one [`join_ground_truth`].  The controller is the
//! caller's: both drivers are generic over the machine, so a session, a
//! session with a reconciler and a mux all ride the same harness.

use crate::scale::{RING_IN_PORT, RING_OUT_PORT};
use crate::scenario_matrix::{restart_reconnect_delay, FaultModel};
use controller::scenarios::{bulk_ports, COOKIE_PREINSTALLED, DROP_ALL_PRIORITY};
use controller::Machine;
use ofswitch::{FaultPlan, FlowEntry, GroundTruth, SwitchModel};
use openflow::messages::FlowMod;
use openflow::{DatapathId, OfMatch, PortNo};
use rum::{ProxyStats, RumBuilder, RumHandle, SwitchId, SwitchPortMap, TechniqueConfig};
use rum_tcp::{
    spawn_switch_with, wait_for, Fabric, ProxyConfig, ProxyHandle, RumTcpProxy, SocketSwitchHandle,
    SwitchHostOptions, SwitchReport, TcpDriver, TcpDriverHandle,
};
use simnet::{Node, NodeId, OpenFlowSwitch, SimTime, Simulator};
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use telemetry::Registry;

/// When a simulated controller starts pushing its update.
pub(crate) const SIM_START: SimTime = SimTime::from_millis(10);

/// How long one switch host may take to reach the controller through the
/// proxy.  Only a deadline: a healthy attach takes milliseconds.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(10);

/// An ephemeral loopback port.
pub(crate) fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("a literal socket address")
}

/// The drop-all rule every fleet switch starts with
/// (`controller::scenarios` uses the same identity).
pub(crate) fn preinstalled_drop_all() -> FlowMod {
    FlowMod::add(OfMatch::wildcard_all(), DROP_ALL_PRIORITY, vec![])
        .with_cookie(COOKIE_PREINSTALLED)
}

/// The data-plane shape of a fleet, in proxy `SwitchId` space (slot `i` =
/// `SwitchId` `i` = controller `ConnId` `i` = plan target `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Topology {
    /// The 3-switch bulk chain A — B — C: the device under test B is slot 0
    /// (it attaches first), the upstream helper A slot 1, the downstream
    /// helper C slot 2.  Only the device under test misbehaves.
    Chain,
    /// A ring of `n` switches that all misbehave alike: port 1 towards the
    /// predecessor, port 2 towards the successor.
    Ring(usize),
}

impl Topology {
    /// Switches in the fleet.
    pub(crate) fn len(self) -> usize {
        match self {
            Topology::Chain => 3,
            Topology::Ring(n) => n,
        }
    }

    /// Every link once, as `(slot, port, peer slot, peer port)`.
    fn links(self) -> Vec<(usize, PortNo, usize, PortNo)> {
        use bulk_ports::{A_TO_B, B_TO_A, B_TO_C, C_TO_B};
        match self {
            Topology::Chain => vec![(1, A_TO_B, 0, B_TO_A), (0, B_TO_C, 2, C_TO_B)],
            Topology::Ring(n) => {
                assert!(n >= 2, "a ring needs at least two switches");
                (0..n)
                    .map(|i| (i, RING_OUT_PORT, (i + 1) % n, RING_IN_PORT))
                    .collect()
            }
        }
    }

    /// The proxy's view of the links.  Probes for a switch ride in through
    /// the neighbour on its lowest-numbered port (the choice
    /// `rum::derive_port_maps` makes from a simulator topology): the
    /// upstream helper on the chain, the predecessor on the ring.  The same
    /// maps go to both drivers, so probe paths match exactly.
    pub(crate) fn port_maps(self) -> Vec<SwitchPortMap> {
        let mut ends = vec![BTreeMap::new(); self.len()];
        for (a, port_a, b, port_b) in self.links() {
            ends[a].insert(port_a, (SwitchId::new(b), port_b));
            ends[b].insert(port_b, (SwitchId::new(a), port_a));
        }
        ends.iter()
            .map(|ports| SwitchPortMap {
                port_to_switch: ports
                    .iter()
                    .map(|(&port, &(peer, _))| (port, peer))
                    .collect(),
                inject_via: ports.values().next().copied(),
            })
            .collect()
    }
}

/// What the gate runs vary about the fleet; everything else is a constant
/// of the harness.
#[derive(Debug, Clone)]
pub(crate) struct FleetSpec<'a> {
    pub(crate) topology: Topology,
    /// Timing model and fault plan of the misbehaving switches.
    pub(crate) fault: &'a FaultModel,
    /// The RUM technique; `None` is the barrier-only cell, where the device
    /// under test attaches to the controller directly and nothing else does.
    pub(crate) technique: Option<TechniqueConfig>,
    /// Engine shards of the proxy.
    pub(crate) shards: usize,
}

impl FleetSpec<'_> {
    /// Switch connections the controller must expect.
    pub(crate) fn connections(&self) -> usize {
        match self.technique {
            Some(_) => self.topology.len(),
            None => 1,
        }
    }

    /// Model, fault plan and reconnect delay of the switch in `slot`.  A
    /// restarted device under test comes back (only the restart columns trip
    /// this): the reboot outlives every pre-restart confirmation timer, then
    /// the reattach replays the handshake and the proxy re-issues unconfirmed
    /// modifications.  The ring fleets never restart.
    fn switch(&self, slot: usize) -> (SwitchModel, FaultPlan, Option<Duration>) {
        let FaultModel { model, faults, .. } = self.fault.clone();
        match (self.topology, slot) {
            (Topology::Chain, 0) => {
                let delay = restart_reconnect_delay(&model);
                (model, faults, Some(delay))
            }
            (Topology::Chain, _) => (SwitchModel::faithful(), FaultPlan::none(), None),
            (Topology::Ring(_), _) => (model, faults, None),
        }
    }

    fn builder(&self, technique: &TechniqueConfig) -> RumBuilder {
        RumBuilder::new(self.topology.len())
            .shards(self.shards)
            .technique(technique.clone())
            .port_maps(self.topology.port_maps())
    }
}

/// What a finished run leaves behind on the switch and proxy side.
pub(crate) struct ReadBack {
    /// Data-plane timeline of every switch that ran, by slot.
    pub(crate) truths: Vec<GroundTruth>,
    /// The device under test's final control table.
    pub(crate) dut_entries: Vec<FlowEntry>,
    /// Per slot, the cookies the engine confirmed, in its order (empty
    /// without a proxy).
    pub(crate) confirmed_orders: Vec<Vec<u64>>,
    /// The simulator engine's statistics summed over its switches (`None`
    /// without a proxy and over TCP).
    pub(crate) engine_stats: Option<ProxyStats>,
}

/// A fleet standing in the simulator around the caller's controller node.
pub(crate) struct SimFleet<C> {
    /// The caller runs it to its horizon; a stalled update simply stops
    /// there and is read back as missed acknowledgments.
    pub(crate) sim: Simulator,
    ctrl: NodeId,
    switches: Vec<NodeId>,
    rum: Option<RumHandle>,
    controller: PhantomData<C>,
}

impl<C: Node + 'static> SimFleet<C> {
    /// Builds switches and links, adds `ctrl`, deploys the proxy layer and
    /// wires the control channels.  `connect` is the controller type's own
    /// `set_connections`.
    pub(crate) fn stand_up(
        spec: &FleetSpec<'_>,
        seed: u64,
        ctrl: C,
        connect: fn(&mut C, Vec<NodeId>),
    ) -> Self {
        let mut sim = Simulator::new(seed);
        let drop_all = preinstalled_drop_all();
        let switches: Vec<NodeId> = (0..spec.topology.len())
            .map(|slot| {
                let (model, faults, reconnect_delay) = spec.switch(slot);
                let dpid = DatapathId::new(slot as u64 + 1);
                let mut sw =
                    OpenFlowSwitch::with_faults(format!("sw{slot}"), dpid, 2, model, faults);
                sw.set_reconnect_delay(reconnect_delay);
                sw.preinstall(&drop_all);
                sim.add_node(sw)
            })
            .collect();
        for (a, port_a, b, port_b) in spec.topology.links() {
            let latency = SimTime::from_micros(50);
            sim.topology_mut()
                .add_link(switches[a], port_a, switches[b], port_b, latency);
        }
        let ctrl = sim.add_node(ctrl);
        let (peers, rum) = match &spec.technique {
            None => (vec![ctrl], None),
            Some(t) => {
                let (proxies, rum) = rum::deploy(&mut sim, spec.builder(t), ctrl, &switches);
                (proxies, Some(rum))
            }
        };
        for (&sw, &peer) in switches.iter().zip(&peers) {
            let sw = sim.node_mut::<OpenFlowSwitch>(sw).expect("a switch node");
            sw.connect_controller(peer);
        }
        let connections = match (&spec.technique, spec.topology) {
            (None, _) => vec![switches[0]],
            // The chain's plans only ever target the device under test.
            (Some(_), Topology::Chain) => vec![peers[0]],
            (Some(_), Topology::Ring(_)) => peers,
        };
        connect(
            sim.node_mut::<C>(ctrl).expect("the controller node"),
            connections,
        );
        SimFleet {
            sim,
            ctrl,
            switches,
            rum,
            controller: PhantomData,
        }
    }

    /// The controller node, for reading the run's outcome.
    pub(crate) fn controller(&self) -> &C {
        self.sim
            .node_ref::<C>(self.ctrl)
            .expect("the controller node")
    }

    pub(crate) fn read_back(&self) -> ReadBack {
        let behavior = |sw: &NodeId| {
            let sw = self.sim.node_ref::<OpenFlowSwitch>(*sw);
            sw.expect("a switch node").behavior()
        };
        let dut = behavior(&self.switches[0]);
        ReadBack {
            truths: (self.switches.iter())
                .map(|sw| behavior(sw).ground_truth().clone())
                .collect(),
            dut_entries: dut.control_table().entries().cloned().collect(),
            confirmed_orders: (self.rum.iter())
                .flat_map(|rum| {
                    (0..rum.n_switches()).map(|i| rum.confirmed_order_for(SwitchId::new(i)))
                })
                .collect(),
            engine_stats: self.rum.as_ref().map(RumHandle::total_stats),
        }
    }
}

/// A fleet standing on loopback sockets around the caller's controller
/// driver.  Dropping it tears it down — controller, then proxy, then switch
/// hosts — so a run that panics half-way (a failed attach check, a caller's
/// assertion) leaves no listener or host thread behind.
pub(crate) struct TcpFleet<M: Machine> {
    ctrl: Option<TcpDriverHandle<M>>,
    proxy: Option<ProxyHandle>,
    hosts: Vec<SocketSwitchHandle>,
}

impl<M: Machine> TcpFleet<M> {
    /// Starts `ctrl` (built by the caller for [`FleetSpec::connections`]
    /// connections against `epoch`), the proxy in front of it, and the
    /// switch hosts — attached one at a time, so accept order is slot order.
    pub(crate) fn stand_up(spec: &FleetSpec<'_>, epoch: Instant, ctrl: TcpDriver<M>) -> Self
    where
        M: Send + 'static,
        M::Effect: Send,
    {
        let ctrl = ctrl.start().expect("controller starts");
        let controller_addr = ctrl.local_addr;
        let mut fleet = TcpFleet {
            ctrl: Some(ctrl),
            proxy: None,
            hosts: Vec::new(),
        };
        let target = match &spec.technique {
            None => controller_addr,
            Some(t) => {
                let config = ProxyConfig {
                    listen_addr: loopback(),
                    controller_addr,
                };
                let proxy = RumTcpProxy::new(config, spec.builder(t)).start();
                fleet.proxy.insert(proxy.expect("proxy starts")).local_addr
            }
        };
        let fabric = Fabric::new();
        for (a, port_a, b, port_b) in spec.topology.links() {
            fabric.link(a, port_a, b, port_b);
        }
        let n = spec.connections();
        for slot in 0..n {
            let (model, faults, reconnect_delay) = spec.switch(slot);
            let options = SwitchHostOptions {
                faults,
                epoch: Some(epoch),
                fabric: Some((fabric.clone(), slot)),
                preinstall: vec![preinstalled_drop_all()],
                reconnect_delay,
            };
            let host = spawn_switch_with(target, model, options).expect("fleet switch connects");
            fleet.hosts.push(host);
            assert!(
                wait_for(|| fleet.controller().connections() > slot, ATTACH_TIMEOUT),
                "switch {slot} of {n} did not reach the controller"
            );
        }
        fleet
    }

    /// The running controller, for submitting, waiting and reading.
    pub(crate) fn controller(&self) -> &TcpDriverHandle<M> {
        self.ctrl.as_ref().expect("present until tear-down")
    }

    /// Reads the proxy's confirm orders, tears the fleet down and returns
    /// what the switch hosts report.
    pub(crate) fn tear_down(mut self) -> ReadBack {
        let confirmed_orders = (self.proxy.iter())
            .flat_map(|p| (0..p.n_switches()).map(|i| p.confirmed_order_for(SwitchId::new(i))))
            .collect();
        let mut reports = self.shut_down();
        ReadBack {
            dut_entries: std::mem::take(&mut reports[0].control_entries),
            truths: reports.into_iter().map(|r| r.truth).collect(),
            confirmed_orders,
            engine_stats: None,
        }
    }

    fn shut_down(&mut self) -> Vec<SwitchReport> {
        if let Some(ctrl) = self.ctrl.take() {
            ctrl.shutdown();
        }
        if let Some(proxy) = self.proxy.take() {
            proxy.shutdown();
        }
        for host in &self.hosts {
            host.stop();
        }
        self.hosts.drain(..).map(|host| host.join()).collect()
    }
}

impl<M: Machine> Drop for TcpFleet<M> {
    fn drop(&mut self) {
        // `join` re-raises a switch host's panic; raised while this drop runs
        // during an unwind it would abort the process, so it stops here.
        let _ = catch_unwind(AssertUnwindSafe(|| self.shut_down()));
    }
}

/// The one join of a run against ground truth: every planned `(cookie,
/// switch)` is looked up in `confirmations` and judged against **that
/// switch's** data-plane timeline — confirmed while the rule was not active
/// is a false acknowledgment, never confirmed is a missed one.
///
/// The counts are driven *through* the telemetry registry
/// (`{prefix}.false_acks`, `{prefix}.missed_acks`, the same vocabulary live
/// runs use) and returned as this run's counter deltas, so the registry and
/// the report can never disagree.
pub(crate) fn join_ground_truth(
    planned: &[(u64, usize)],
    confirmations: &HashMap<u64, Duration>,
    truths: &[GroundTruth],
    prefix: &str,
    registry: &Registry,
) -> (u64, u64) {
    let false_ctr = registry.counter(&format!("{prefix}.false_acks"));
    let missed_ctr = registry.counter(&format!("{prefix}.missed_acks"));
    let (false_before, missed_before) = (false_ctr.get(), missed_ctr.get());
    for &(cookie, switch) in planned {
        match confirmations.get(&cookie) {
            Some(&at) => {
                if !truths[switch].active_at(cookie, at) {
                    false_ctr.inc();
                }
            }
            None => missed_ctr.inc(),
        }
    }
    (
        false_ctr.get() - false_before,
        missed_ctr.get() - missed_before,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::{AckMode, UpdatePlan, UpdateSession};
    use ofswitch::TruthEvent;
    use rum_tcp::TcpUpdateController;
    use std::net::TcpStream;

    /// The maps derived from the link lists are the tables the runners used
    /// to spell out by hand, as `(ports → peer, inject via (peer, its port))`
    /// per switch: B1 ↔ A2 and B2 ↔ C1 with probes entering through the
    /// neighbour upstream, predecessor and successor on the ring.
    #[test]
    fn derived_port_maps_equal_the_hand_written_tables() {
        type Table = Vec<(Vec<(PortNo, usize)>, (usize, PortNo))>;
        let check = |topology: Topology, want: Table| {
            let got = topology.port_maps();
            assert_eq!(got.len(), want.len(), "{topology:?}");
            for (map, (ports, (via, via_port))) in got.iter().zip(want) {
                let ports = ports
                    .into_iter()
                    .map(|(port, peer)| (port, SwitchId::new(peer)));
                assert_eq!(map.port_to_switch, ports.collect(), "{topology:?}");
                assert_eq!(map.inject_via, Some((SwitchId::new(via), via_port)));
            }
        };
        let chain = vec![
            (vec![(1, 1), (2, 2)], (1, 2)),
            (vec![(2, 0)], (0, 1)),
            (vec![(1, 0)], (0, 2)),
        ];
        check(Topology::Chain, chain);
        for n in [2, 3, 64] {
            let ring = (0..n).map(|i| {
                let (prev, next) = ((i + n - 1) % n, (i + 1) % n);
                let ports = vec![(RING_IN_PORT, prev), (RING_OUT_PORT, next)];
                (ports, (prev, RING_OUT_PORT))
            });
            check(Topology::Ring(n), ring.collect());
        }
    }

    /// The join, case by case: a confirmation is judged at its own instant
    /// against its own switch's timeline.
    #[test]
    fn join_counts_false_and_missed_acks_per_switch() {
        let ms = Duration::from_millis;
        let activated = |cookie, at| TruthEvent {
            at: ms(at),
            cookie,
            activated: true,
        };
        let truths = [
            GroundTruth {
                events: vec![activated(1, 50), activated(2, 50)],
                ..Default::default()
            },
            GroundTruth {
                events: vec![activated(3, 50)],
                ..Default::default()
            },
        ];
        // (case, planned, confirmed at, expected (false, missed))
        let cases = [
            ("confirmed after activation", (1, 0), Some(60), (0, 0)),
            ("confirmed before activation", (2, 0), Some(40), (1, 0)),
            ("never confirmed", (1, 0), None, (0, 1)),
            ("active on switch 1 only", (3, 1), Some(60), (0, 0)),
            ("attributed to the wrong switch", (3, 0), Some(60), (1, 0)),
        ];
        let registry = Registry::new();
        for (case, planned, confirmed_at, want) in cases {
            let confirmations = confirmed_at
                .map(|at| (planned.0, ms(at)))
                .into_iter()
                .collect();
            let got = join_ground_truth(&[planned], &confirmations, &truths, "join", &registry);
            assert_eq!(got, want, "{case}");
        }
        // Each call returned its own delta; the registry holds the total.
        let snap = registry.snapshot();
        assert_eq!(snap.counters["join.false_acks"], 2);
        assert_eq!(snap.counters["join.missed_acks"], 1);
    }

    /// Dropping a standing fleet without running it closes both listeners:
    /// what a failed attach check or a caller's panic unwinds through.
    #[test]
    fn dropping_a_tcp_fleet_tears_it_down() {
        let fault = FaultModel {
            name: "none",
            model: SwitchModel::fast_buggy(),
            faults: FaultPlan::none(),
        };
        let spec = FleetSpec {
            topology: Topology::Ring(4),
            fault: &fault,
            technique: Some(TechniqueConfig::default_general()),
            shards: 2,
        };
        let epoch = Instant::now();
        let session = UpdateSession::new(UpdatePlan::new(), AckMode::RumAcks, 1);
        let ctrl = TcpUpdateController::new_with_epoch(loopback(), session, 4, epoch);
        let fleet = TcpFleet::stand_up(&spec, epoch, ctrl);
        let ctrl_addr = fleet.controller().local_addr;
        let proxy_addr = fleet.proxy.as_ref().expect("a proxy stands").local_addr;
        assert_eq!(fleet.hosts.len(), 4);
        drop(fleet);
        for addr in [ctrl_addr, proxy_addr] {
            assert!(TcpStream::connect(addr).is_err(), "{addr} still listens");
        }
    }
}
