//! The simulator driver of the shared switch machine.
//!
//! [`OpenFlowSwitch`] is a thin `simnet` node around [`ofswitch::Datapath`]:
//! it hands every simulator event (control message, data-plane packet,
//! timer) to the machine and executes the returned [`BehaviorAction`]s
//! through the simulator [`Context`].  Every switch decision — handshake
//! and stats replies, `PacketOut` execution, lookup in the lagging data
//! plane, table-miss and drop policy, barrier modes, the fault plan — lives
//! in the machine, which `rum_tcp::switch_host` drives over real sockets.
//!
//! What stays here is transport: virtual time and the deadline timer,
//! delivering a reply no earlier than its `at`, cabling ([`Topology`]
//! resolves floods and unwired ports), trace records and [`SimPacket`]
//! identity, the reboot timer — and **pacing**: the `PacketOut` queue, the
//! `PacketIn` spacing/suppression and their CPU charges are applied here to
//! the machine's inputs and outputs.  Pacing is not in the machine because
//! the TCP host sleeps in whole-millisecond `poll(2)` calls: honouring a
//! 30–40 µs spacing there would add ~0.5–1 ms to every probe round trip
//! (and moving the charge would shift virtual time under the golden test).
//!
//! [`Topology`]: crate::topology::Topology

use ofswitch::{Behavior, BehaviorAction, Datapath, FaultPlan, FlowTable, SwitchModel};
use openflow::messages::PacketOut;
use openflow::{DatapathId, OfMessage, PacketHeader, Xid};

use crate::engine::Context;
use crate::event::EventPayload;
use crate::measure::TraceEvent;
use crate::node::{Node, NodeId};
use crate::packet::SimPacket;
use crate::time::SimTime;
use std::any::Any;
use std::collections::VecDeque;

/// Timer token: re-examine the machine (sync ticks, in-flight batches,
/// withheld barriers).
const TOKEN_BEHAVIOR: u64 = 0;
/// Timer token: execute queued PacketOut messages.
const TOKEN_PACKET_OUT: u64 = 2;
/// Timer token: reattach after a restart (reboot finished).
const TOKEN_RECONNECT: u64 = 3;

/// A simulated OpenFlow 1.0 switch: the simnet driver of the shared
/// [`Datapath`] machine.
pub struct OpenFlowSwitch {
    datapath: Datapath,
    controller: Option<NodeId>,

    /// Paced `PacketOut`s: execution time and the message's two halves.
    pending_packet_outs: VecDeque<(SimTime, Xid, PacketOut)>,
    packet_out_available_at: SimTime,
    packet_in_available_at: SimTime,
    /// The earliest armed machine deadline, to avoid flooding the event
    /// queue with duplicate timers.
    armed_deadline: Option<SimTime>,
    /// Reusable action buffer.
    actions: Vec<BehaviorAction>,
    /// How long a restarted switch stays down before it reattaches and
    /// replays the handshake.  `None` (the default) leaves it down forever.
    reconnect_delay: Option<std::time::Duration>,

    packet_ins_sent: u64,
    packet_ins_suppressed: u64,
    data_packets_forwarded: u64,
    data_packets_dropped: u64,
}

impl OpenFlowSwitch {
    /// Creates a switch with `n_ports` data ports and the given behaviour
    /// model (fault-free).
    pub fn new(
        label: impl Into<String>,
        dpid: DatapathId,
        n_ports: u16,
        model: SwitchModel,
    ) -> Self {
        Self::with_faults(label, dpid, n_ports, model, FaultPlan::none())
    }

    /// Creates a switch with an explicit fault plan.
    pub fn with_faults(
        label: impl Into<String>,
        dpid: DatapathId,
        n_ports: u16,
        model: SwitchModel,
        faults: FaultPlan,
    ) -> Self {
        OpenFlowSwitch {
            datapath: Datapath::new(label, dpid, n_ports, model, faults),
            controller: None,
            pending_packet_outs: VecDeque::new(),
            packet_out_available_at: SimTime::ZERO,
            packet_in_available_at: SimTime::ZERO,
            armed_deadline: None,
            actions: Vec::new(),
            reconnect_delay: None,
            packet_ins_sent: 0,
            packet_ins_suppressed: 0,
            data_packets_forwarded: 0,
            data_packets_dropped: 0,
        }
    }

    /// Points the switch's OpenFlow connection at a node (the controller or
    /// a RUM proxy impersonating it).
    pub fn connect_controller(&mut self, node: NodeId) {
        self.controller = Some(node);
    }

    /// Makes a restarted switch come back: after `delay` it reattaches the
    /// machine and replays the OpenFlow handshake towards its controller
    /// connection.  `None` (the default) keeps it down forever.
    pub fn set_reconnect_delay(&mut self, delay: Option<std::time::Duration>) {
        self.reconnect_delay = delay;
    }

    /// Installs a rule directly into both tables, bypassing the control
    /// channel and all timing models.  Used to pre-install state before an
    /// experiment starts, like the paper pre-installs the initial paths.
    pub fn preinstall(&mut self, fm: &openflow::messages::FlowMod) {
        self.datapath.behavior_mut().preinstall(fm);
    }

    /// The switch's datapath id.
    pub fn dpid(&self) -> DatapathId {
        self.datapath.dpid()
    }

    /// The behaviour engine (model, fault plan, tables, ground truth).
    pub fn behavior(&self) -> &Behavior {
        self.datapath.behavior()
    }

    /// The behaviour model.
    pub fn model(&self) -> &SwitchModel {
        self.behavior().model()
    }

    /// The control-plane view of the flow table.
    pub fn control_table(&self) -> &FlowTable {
        self.behavior().control_table()
    }

    /// The data-plane view of the flow table.
    pub fn data_table(&self) -> &FlowTable {
        self.behavior().data_table()
    }

    /// Number of accepted modifications not yet visible in the data plane.
    pub fn dataplane_backlog(&self) -> usize {
        self.behavior().dataplane_backlog()
    }

    /// Flow modifications processed so far.
    pub fn flow_mods_processed(&self) -> u64 {
        self.behavior().counters().flow_mods
    }

    /// Barrier requests processed so far.
    pub fn barriers_processed(&self) -> u64 {
        self.behavior().counters().barriers
    }

    /// PacketIn messages emitted so far.
    pub fn packet_ins_sent(&self) -> u64 {
        self.packet_ins_sent
    }

    /// PacketIn messages suppressed by the rate limiter.
    pub fn packet_ins_suppressed(&self) -> u64 {
        self.packet_ins_suppressed
    }

    /// Data-plane packets that left on at least one wired port (or went to
    /// the controller) so far.
    pub fn data_packets_forwarded(&self) -> u64 {
        self.data_packets_forwarded
    }

    /// Data-plane packets dropped so far.
    pub fn data_packets_dropped(&self) -> u64 {
        self.data_packets_dropped
    }

    /// The time at which the control-plane CPU becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.behavior().busy_until().into()
    }

    fn send_to_controller(&self, ctx: &mut Context<'_>, msg: OfMessage, extra_delay: SimTime) {
        if let Some(ctrl) = self.controller {
            let latency: SimTime = self.model().control_latency.into();
            ctx.send_control(ctrl, msg, latency + extra_delay);
        }
    }

    /// Runs one machine call and executes what it returned.  `packet` is
    /// the identity data-plane actions act on: the arrived packet, or the
    /// injected one a `PacketOut` creates.
    fn run(
        &mut self,
        ctx: &mut Context<'_>,
        packet: Option<&SimPacket>,
        call: impl FnOnce(&mut Datapath, &mut Vec<BehaviorAction>),
    ) {
        let now = ctx.now();
        let mut actions = std::mem::take(&mut self.actions);
        call(&mut self.datapath, &mut actions);
        let (mut sent, mut dropped) = (false, false);
        let send = |ctx: &mut Context<'_>, port, header| {
            packet.is_some_and(|p| ctx.send_packet(port, p.forwarded(ctx.self_id(), header)))
        };
        for action in actions.drain(..) {
            match action {
                BehaviorAction::Reply { at, message } => {
                    let at: SimTime = at.into();
                    self.send_to_controller(ctx, message, at.saturating_sub(now));
                }
                BehaviorAction::Activated { at, cookie } => {
                    ctx.record(TraceEvent::DataPlaneActivated {
                        switch: ctx.self_id(),
                        cookie,
                        time: at.into(),
                    });
                }
                BehaviorAction::Deactivated { at, cookie } => {
                    ctx.record(TraceEvent::DataPlaneDeactivated {
                        switch: ctx.self_id(),
                        cookie,
                        time: at.into(),
                    });
                }
                BehaviorAction::Restarted { at } => {
                    // The simulator has no socket to tear down; record the
                    // restart, drop driver-level queued work, and — when a
                    // reconnect delay is configured — schedule the reboot to
                    // finish with a reattach + handshake replay.
                    self.pending_packet_outs.clear();
                    let at: SimTime = at.into();
                    ctx.record(TraceEvent::Marker {
                        label: format!(
                            "{}: switch restarted (tables wiped)",
                            self.datapath.label()
                        ),
                        time: at,
                    });
                    if let Some(delay) = self.reconnect_delay {
                        let delay: SimTime = SimTime::from(delay) + at.saturating_sub(now);
                        ctx.set_timer(delay, TOKEN_RECONNECT);
                    }
                }
                BehaviorAction::PacketIn { message } => {
                    self.emit_packet_in(message, ctx);
                    sent = true;
                }
                BehaviorAction::Output { port, header } => sent |= send(ctx, port, header),
                BehaviorAction::Flood { except, header } => {
                    for port in ctx.topology().ports_of(ctx.self_id()) {
                        sent |= port != except && send(ctx, port, header);
                    }
                }
                BehaviorAction::Dropped => dropped = true,
            }
        }
        self.actions = actions;
        // An output onto an unwired port went nowhere: that is a drop too.
        if let Some(packet) = packet {
            if sent && !dropped {
                self.data_packets_forwarded += 1;
            } else {
                self.record_drop(packet, ctx);
            }
        }
    }

    /// Timers are armed lazily from the machine's deadlines; an idle switch
    /// schedules nothing.
    fn rearm_deadline(&mut self, ctx: &mut Context<'_>) {
        let Some(deadline) = self.datapath.next_deadline() else {
            return;
        };
        let deadline: SimTime = deadline.into();
        if self.armed_deadline.is_some_and(|armed| armed <= deadline) {
            return;
        }
        self.armed_deadline = Some(deadline);
        ctx.set_timer(deadline.saturating_sub(ctx.now()), TOKEN_BEHAVIOR);
    }

    /// Pacing: PacketOut processing consumes control-plane CPU (slowing rule
    /// installation slightly) and is rate limited: the message reaches the
    /// machine when its slot comes up.
    fn queue_packet_out(&mut self, xid: Xid, po: PacketOut, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let cost = self.model().packet_out_time;
        self.datapath.behavior_mut().consume_cpu(now.into(), cost);
        let interval: SimTime = self.model().packet_out_interval.into();
        let exec_at = self.packet_out_available_at.max(now);
        self.packet_out_available_at = exec_at + interval;
        self.pending_packet_outs.push_back((exec_at, xid, po));
        ctx.set_timer(exec_at.saturating_sub(now), TOKEN_PACKET_OUT);
    }

    /// Pacing: the PacketIn path is rate limited; when the limiter is saturated the
    /// switch silently drops the notification (observed behaviour under
    /// overload).
    fn emit_packet_in(&mut self, msg: OfMessage, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let interval: SimTime = self.model().packet_in_interval.into();
        let backlog = self.packet_in_available_at.saturating_sub(now);
        if backlog > interval * 64 {
            self.packet_ins_suppressed += 1;
            return;
        }
        let emit_at = self.packet_in_available_at.max(now);
        self.packet_in_available_at = emit_at + interval;
        let cost = self.model().packet_in_time;
        self.datapath.behavior_mut().consume_cpu(now.into(), cost);
        self.packet_ins_sent += 1;
        self.send_to_controller(ctx, msg, emit_at.saturating_sub(now));
    }

    fn record_drop(&mut self, packet: &SimPacket, ctx: &mut Context<'_>) {
        self.data_packets_dropped += 1;
        if !packet.injected {
            ctx.record(TraceEvent::PacketDropped {
                node: ctx.self_id(),
                flow: None,
                packet_id: packet.id,
                time: ctx.now(),
            });
        }
    }
}

impl Node for OpenFlowSwitch {
    fn name(&self) -> String {
        self.datapath.label().to_string()
    }

    fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Always let the machine catch up first: sync ticks and in-flight
        // batches due before this event must be visible to it.
        self.run(ctx, None, |dp, out| dp.advance(now.into(), out));
        self.rearm_deadline(ctx);
        match event {
            EventPayload::Control { from, message } => {
                // Adopt whoever speaks to us first as our controller.
                self.controller.get_or_insert(from);
                match message {
                    OfMessage::PacketOut { xid, body } => self.queue_packet_out(xid, body, ctx),
                    other => self.run(ctx, None, |dp, out| dp.on_control(now.into(), other, out)),
                }
            }
            EventPayload::Packet { packet, in_port } => {
                self.run(ctx, Some(&packet), |dp, out| {
                    dp.on_packet(now.into(), packet.header, in_port, packet.size, out)
                });
            }
            EventPayload::Timer { token } => match token {
                // The advance above did the work; just allow re-arming for
                // the next deadline.
                TOKEN_BEHAVIOR => self.armed_deadline = None,
                TOKEN_PACKET_OUT => {
                    while self.pending_packet_outs.front().is_some_and(|p| p.0 <= now) {
                        let (_, xid, body) = self.pending_packet_outs.pop_front().expect("front");
                        // Identity only: every `Output` brings its own header.
                        let id = u64::from(body.buffer_id);
                        let injected =
                            SimPacket::new(PacketHeader::default(), id, now, ctx.self_id())
                                .into_injected();
                        let msg = OfMessage::PacketOut { xid, body };
                        self.run(ctx, Some(&injected), |dp, out| {
                            dp.on_control(now.into(), msg, out)
                        });
                    }
                }
                // The reboot finished: reattach the machine, which replays
                // the handshake (the switch-side Hello comes back as a Reply).
                TOKEN_RECONNECT => self.run(ctx, None, |dp, out| dp.reattach(now.into(), out)),
                _ => {}
            },
        }
        self.rearm_deadline(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::measure::FlowId;
    use crate::traffic::{FlowSpec, Host};
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch, PortNo};
    use std::net::Ipv4Addr;

    /// A stub controller that records everything the switch sends and can be
    /// pre-loaded with messages to transmit at given times.
    pub struct StubController {
        to_send: Vec<(SimTime, NodeId, OfMessage)>,
        pub received: Vec<(SimTime, OfMessage)>,
    }

    impl StubController {
        pub fn new(to_send: Vec<(SimTime, NodeId, OfMessage)>) -> Self {
            StubController {
                to_send,
                received: Vec::new(),
            }
        }
        pub fn barrier_reply_times(&self) -> Vec<SimTime> {
            self.received
                .iter()
                .filter(|(_, m)| matches!(m, OfMessage::BarrierReply { .. }))
                .map(|(t, _)| *t)
                .collect()
        }
    }

    impl Node for StubController {
        fn name(&self) -> String {
            "stub-controller".into()
        }
        fn start(&mut self, ctx: &mut Context<'_>) {
            for (t, to, msg) in self.to_send.drain(..) {
                // Send now with the extra latency baked in.
                ctx.send_control(to, msg, t);
            }
        }
        fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
            if let EventPayload::Control { message, .. } = event {
                self.received.push((ctx.now(), message));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn flow_mod(i: u8, port: PortNo, cookie: u64) -> OfMessage {
        OfMessage::FlowMod {
            xid: cookie as u32,
            body: FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
                100,
                vec![Action::output(port)],
            )
            .with_cookie(cookie),
        }
    }

    #[test]
    fn faithful_switch_barrier_waits_for_data_plane() {
        let mut sim = Simulator::new(1);
        let sw_id = NodeId(1);
        let ctrl = StubController::new(vec![
            (SimTime::from_millis(1), sw_id, flow_mod(1, 2, 11)),
            (
                SimTime::from_millis(1),
                sw_id,
                OfMessage::BarrierRequest { xid: 99 },
            ),
        ]);
        let ctrl_id = sim.add_node(ctrl);
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, SwitchModel::faithful());
        sw.connect_controller(ctrl_id);
        sim.add_node(sw);
        sim.run_until(SimTime::from_secs(2));

        let activations = sim.trace().data_plane_activation_times();
        let dp_time = activations[&11];
        let ctrl = sim.node_ref::<StubController>(ctrl_id).unwrap();
        let reply_time = ctrl.barrier_reply_times()[0];
        assert!(
            reply_time >= dp_time,
            "faithful barrier reply ({reply_time}) must not precede data-plane activation ({dp_time})"
        );
    }

    #[test]
    fn hp_switch_barrier_replies_before_data_plane() {
        let mut sim = Simulator::new(1);
        let sw_id = NodeId(1);
        let ctrl = StubController::new(vec![
            (SimTime::from_millis(1), sw_id, flow_mod(1, 2, 11)),
            (
                SimTime::from_millis(1),
                sw_id,
                OfMessage::BarrierRequest { xid: 99 },
            ),
        ]);
        let ctrl_id = sim.add_node(ctrl);
        let mut sw = OpenFlowSwitch::new("s2", DatapathId::new(2), 4, SwitchModel::hp5406zl());
        sw.connect_controller(ctrl_id);
        sim.add_node(sw);
        sim.run_until(SimTime::from_secs(2));

        let activations = sim.trace().data_plane_activation_times();
        let dp_time = activations[&11];
        let ctrl = sim.node_ref::<StubController>(ctrl_id).unwrap();
        let reply_time = ctrl.barrier_reply_times()[0];
        assert!(
            reply_time < dp_time,
            "the buggy switch must acknowledge the barrier ({reply_time}) before the data plane activates ({dp_time})"
        );
        // The gap should be in the published 100-300 ms band.
        let gap = dp_time - reply_time;
        assert!(gap >= SimTime::from_millis(50), "gap was {gap}");
        assert!(gap <= SimTime::from_millis(310), "gap was {gap}");
    }

    #[test]
    fn data_plane_lags_but_eventually_converges() {
        let mut sim = Simulator::new(1);
        let sw_id = NodeId(1);
        let msgs: Vec<(SimTime, NodeId, OfMessage)> = (0..50u64)
            .map(|i| {
                (
                    SimTime::from_millis(1),
                    sw_id,
                    flow_mod(i as u8, 2, 100 + i),
                )
            })
            .collect();
        let ctrl_id = sim.add_node(StubController::new(msgs));
        let mut sw = OpenFlowSwitch::new("s2", DatapathId::new(2), 4, SwitchModel::hp5406zl());
        sw.connect_controller(ctrl_id);
        let sw_node = sim.add_node(sw);
        sim.run_until(SimTime::from_millis(150));
        {
            let sw = sim.node_ref::<OpenFlowSwitch>(sw_node).unwrap();
            assert_eq!(
                sw.control_table().len(),
                50,
                "control plane accepted all mods"
            );
            assert!(
                sw.data_table().len() < 50,
                "data plane must lag the control plane shortly after the burst"
            );
        }
        sim.run_until(SimTime::from_secs(3));
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_node).unwrap();
        assert_eq!(
            sw.data_table().len(),
            50,
            "data plane eventually catches up"
        );
        assert_eq!(sw.flow_mods_processed(), 50);
        assert_eq!(sw.dataplane_backlog(), 0);
    }

    #[test]
    fn packets_forward_through_installed_rules_and_drop_otherwise() {
        let mut sim = Simulator::new(1);
        // h1 -- s1 -- h2
        let mut h1 = Host::new("h1");
        let mut h2 = Host::new("h2");
        let header = crate::traffic::flow_header(
            0,
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
        );
        h1.add_tx_flow(FlowSpec::constant_rate(
            FlowId(0),
            header,
            1,
            250,
            SimTime::ZERO,
            SimTime::from_millis(400),
        ));
        h2.expect_flow(&header, FlowId(0));
        // Two more flows that must not arrive: one no rule matches, one whose
        // rule points at the unwired port 3.
        let flow_header = |i| {
            crate::traffic::flow_header(
                i,
                openflow::MacAddr::from_id(1),
                openflow::MacAddr::from_id(2),
            )
        };
        let (missed, unwired) = (flow_header(7), flow_header(8));
        for (id, h) in [(7, missed), (8, unwired)] {
            h1.add_tx_flow(FlowSpec::constant_rate(
                FlowId(id),
                h,
                1,
                100,
                SimTime::ZERO,
                SimTime::from_millis(100),
            ));
        }
        let h1_id = sim.add_node(h1);
        let h2_id = sim.add_node(h2);
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, SwitchModel::faithful());
        // Pre-install: traffic from h1 (port 1) forwarded out port 2 to h2.
        for (h, port, cookie) in [(header, 2, 1), (unwired, 3, 2)] {
            sw.preinstall(
                &FlowMod::add(
                    OfMatch::ipv4_pair(h.nw_src, h.nw_dst),
                    10,
                    vec![Action::output(port)],
                )
                .with_cookie(cookie),
            );
        }
        let sw_id = sim.add_node(sw);
        sim.topology_mut()
            .add_link(h1_id, 1, sw_id, 1, SimTime::from_micros(50));
        sim.topology_mut()
            .add_link(sw_id, 2, h2_id, 1, SimTime::from_micros(50));
        sim.run_until(SimTime::from_millis(600));
        let delivered = sim.trace().delivered_packets(Some(FlowId(0)));
        assert_eq!(delivered, 100, "250 pkt/s for 400 ms");
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_id).unwrap();
        assert_eq!(sw.data_packets_forwarded(), 100);
        // The miss and the unwired output both count and trace as drops;
        // only the miss is reported (no controller is connected to hear it).
        assert_eq!(sw.data_packets_dropped(), 20);
        assert_eq!(sim.trace().dropped_packets(None), 20);
        assert_eq!(sw.packet_ins_sent(), 10);
    }

    #[test]
    fn table_full_produces_error_message() {
        let mut sim = Simulator::new(1);
        let sw_id = NodeId(1);
        let mut model = SwitchModel::faithful();
        model.table_capacity = 1;
        let ctrl_id = sim.add_node(StubController::new(vec![
            (SimTime::from_millis(1), sw_id, flow_mod(1, 2, 1)),
            (SimTime::from_millis(2), sw_id, flow_mod(2, 2, 2)),
        ]));
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, model);
        sw.connect_controller(ctrl_id);
        sim.add_node(sw);
        sim.run_until(SimTime::from_secs(1));
        let ctrl = sim.node_ref::<StubController>(ctrl_id).unwrap();
        let errors: Vec<&OfMessage> = ctrl
            .received
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, OfMessage::Error { .. }))
            .collect();
        assert_eq!(errors.len(), 1);
    }

    /// The fault plan is reachable through the simnet driver: a wedged
    /// modification never activates, yet the buggy switch still answers
    /// barriers — the trace shows the confirmation gap the matrix measures.
    #[test]
    fn fault_plan_wedges_data_plane_through_the_driver() {
        let mut sim = Simulator::new(1);
        let sw_id = NodeId(1);
        let faults = FaultPlan::seeded(21).with_silent_drops(4);
        let wedge = (0..32u64).find(|&c| faults.drops_cookie(c)).unwrap();
        let mut msgs: Vec<(SimTime, NodeId, OfMessage)> = (0..=wedge + 2)
            .map(|c| (SimTime::from_millis(1), sw_id, flow_mod(c as u8, 2, c)))
            .collect();
        msgs.push((
            SimTime::from_millis(1),
            sw_id,
            OfMessage::BarrierRequest { xid: 4242 },
        ));
        let ctrl_id = sim.add_node(StubController::new(msgs));
        let mut sw = OpenFlowSwitch::with_faults(
            "s1",
            DatapathId::new(1),
            4,
            SwitchModel::hp5406zl(),
            faults,
        );
        sw.connect_controller(ctrl_id);
        sim.add_node(sw);
        sim.run_until(SimTime::from_secs(5));

        let sw = sim.node_ref::<OpenFlowSwitch>(NodeId(1)).unwrap();
        let truth = sw.behavior().ground_truth();
        assert!(truth.first_activation(wedge).is_none());
        assert!(truth.wedged.contains(&wedge));
        if wedge > 0 {
            assert!(truth.first_activation(0).is_some());
        }
        // The buggy switch acknowledged the barrier regardless.
        let ctrl = sim.node_ref::<StubController>(ctrl_id).unwrap();
        assert_eq!(ctrl.barrier_reply_times().len(), 1);
    }
}
