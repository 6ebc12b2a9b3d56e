//! The simulator transport for controller-side [`Machine`]s.
//!
//! [`MachineNode`] is a thin `simnet` node, the controller-side mirror of how
//! `rum::RumProxy` drives `rum::RumEngine`: it translates simulator events
//! into [`MachineInput`]s and executes the lowered [`MachineEffect`]s through
//! the simulator [`Context`] (control messages, timers, trace records).  All
//! logic lives in the machine; `rum_tcp::TcpDriver` drives the very same
//! machines over real TCP sockets.  [`Controller`] is the node driving one
//! [`SessionMachine`]; `sessiond::MuxController` wraps the multi-tenant one.

use crate::machine::{Machine, MachineEffect, MachineInput, SessionMachine};
use crate::plan::UpdatePlan;
use crate::resync::{Reconciler, ResyncConfig};
use crate::session::{ConnId, UpdateSession};
use openflow::OfMessage;
use simnet::{Context, EventPayload, Node, NodeId, SimTime, TraceEvent};
use std::any::Any;
use std::collections::HashMap;

// Re-exported for the many callers that predate the session split.
pub use crate::session::AckMode;

/// Timer token used to start the run; machine timers are offset by one.
const TOKEN_START: u64 = 0;

/// One-way control-channel latency of every message the node sends.
const CONTROL_LATENCY: SimTime = SimTime::from_micros(200);

/// A controller node driving a [`Machine`] against a set of switch
/// connections inside the simulator.
pub struct MachineNode<M: Machine> {
    label: String,
    machine: M,
    connections: Vec<NodeId>,
    start_at: SimTime,
    started: bool,
    /// PacketIns from nodes that are not switch connections (the machine
    /// only sees traffic on known connections).
    stray_packet_ins: u64,
}

impl<M: Machine> MachineNode<M> {
    /// Creates a node that feeds `machine` [`MachineInput::Started`] at
    /// `start_at`.
    pub fn with_machine(label: impl Into<String>, machine: M, start_at: SimTime) -> Self {
        MachineNode {
            label: label.into(),
            machine,
            connections: Vec::new(),
            start_at,
            started: false,
            stray_packet_ins: 0,
        }
    }

    /// Sets the nodes terminating each switch connection (index = the
    /// `SwitchRef` used in the plan).  The node can be the switch itself or a
    /// RUM proxy impersonating it.
    pub fn set_connections(&mut self, connections: Vec<NodeId>) {
        self.connections = connections;
    }

    /// The machine, for post-run inspection.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Mutable access to the machine, e.g. to configure it before the run.
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    /// PacketIns received from nodes that are not switch connections.
    pub fn stray_packet_ins(&self) -> u64 {
        self.stray_packet_ins
    }

    /// Feeds one input into the machine and executes the effects.
    fn drive(&mut self, input: MachineInput, ctx: &mut Context<'_>) {
        let mut effects = Vec::new();
        self.machine.handle(ctx.now().into(), input, &mut effects);
        for effect in effects {
            match self.machine.lower(effect) {
                MachineEffect::Send { conn, message } => {
                    // A reply addressed to an unmapped sender has nowhere to
                    // go; a send with no connections at all is a wiring bug.
                    let Some(&node) = self.connections.get(conn.index()) else {
                        assert!(
                            !self.connections.is_empty() || conn == ConnId::UNMAPPED,
                            "controller {} has no switch connections configured",
                            self.label
                        );
                        continue;
                    };
                    if let OfMessage::FlowMod { ref body, .. } = message {
                        ctx.record(TraceEvent::FlowModSent {
                            cookie: body.cookie,
                            time: ctx.now(),
                        });
                    }
                    ctx.send_control(node, message, CONTROL_LATENCY);
                }
                MachineEffect::ArmTimer { delay, raw } => ctx.set_timer(delay.into(), raw + 1),
                MachineEffect::Confirmed { cookie } => {
                    ctx.record(TraceEvent::ControlPlaneConfirmed {
                        cookie,
                        time: ctx.now(),
                    });
                }
                MachineEffect::Note { text, .. } => self.mark(&text, ctx),
            }
        }
    }

    fn mark(&self, text: &str, ctx: &mut Context<'_>) {
        ctx.record(TraceEvent::Marker {
            label: format!("{}: {text}", self.label),
            time: ctx.now(),
        });
    }
}

impl<M: Machine + 'static> Node for MachineNode<M> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.start_at, TOKEN_START);
    }

    fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
        match event {
            EventPayload::Timer { token: TOKEN_START } if !self.started => {
                self.started = true;
                self.mark("start", ctx);
                self.drive(MachineInput::Started, ctx);
            }
            EventPayload::Timer { token } if token > TOKEN_START => {
                self.drive(MachineInput::TimerFired { raw: token - 1 }, ctx);
            }
            EventPayload::Timer { .. } | EventPayload::Packet { .. } => {}
            EventPayload::Control { from, message } => {
                if let Some(index) = self.connections.iter().position(|&n| n == from) {
                    let conn = ConnId::new(index);
                    return self.drive(MachineInput::FromSwitch { conn, message }, ctx);
                }
                // Traffic from nodes outside the switch connections (e.g. a
                // RUM proxy relaying an ack that surfaced at a neighbouring
                // switch): answer liveness directly and count punted
                // packets here; acknowledgments correlate by cookie, not by
                // connection, so they go into the machine under a conn that
                // sends can never resolve to.
                let conn = ConnId::UNMAPPED;
                let latency = CONTROL_LATENCY;
                match message {
                    OfMessage::PacketIn { .. } => self.stray_packet_ins += 1,
                    OfMessage::EchoRequest { xid, data } => {
                        ctx.send_control(from, OfMessage::EchoReply { xid, data }, latency)
                    }
                    OfMessage::Hello { xid } => {
                        ctx.send_control(from, OfMessage::Hello { xid }, latency)
                    }
                    message => self.drive(MachineInput::FromSwitch { conn, message }, ctx),
                }
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

/// A controller node that executes an [`UpdatePlan`] by driving a
/// [`SessionMachine`] inside the simulator.
pub type Controller = MachineNode<SessionMachine>;

impl Controller {
    /// Creates a controller executing `plan` with the given acknowledgment
    /// mode and window, starting the update at `start_at`.
    pub fn new(
        label: impl Into<String>,
        plan: UpdatePlan,
        ack_mode: AckMode,
        window: usize,
        start_at: SimTime,
    ) -> Self {
        let session = UpdateSession::new(plan, ack_mode, window);
        Self::with_machine(label, SessionMachine::new(session), start_at)
    }

    /// See [`SessionMachine::enable_resync`].  In the simulator a Hello on a
    /// mapped connection is the reconnect signal — nothing else initiates
    /// one mid-session.
    pub fn enable_resync(&mut self, config: ResyncConfig) -> &mut Reconciler {
        self.machine.enable_resync(config)
    }

    /// The reconciler, if resync is enabled.
    pub fn reconciler(&self) -> Option<&Reconciler> {
        self.machine.reconciler()
    }

    /// Mutable access to the reconciler, if resync is enabled.
    pub fn reconciler_mut(&mut self) -> Option<&mut Reconciler> {
        self.machine.reconciler_mut()
    }

    /// Read access to the update session (plan, timestamps, outcome).
    pub fn session(&self) -> &UpdateSession {
        self.machine.session()
    }

    /// Mutable access to the update session, e.g. to set a
    /// [`crate::session::FailurePolicy`] before the run starts.
    pub fn session_mut(&mut self) -> &mut UpdateSession {
        self.machine.session_mut()
    }

    /// The update plan.
    pub fn plan(&self) -> &UpdatePlan {
        self.session().plan()
    }

    /// Number of confirmed modifications.
    pub fn confirmed_count(&self) -> usize {
        self.session().confirmed_count()
    }

    /// Number of sent modifications.
    pub fn sent_count(&self) -> usize {
        self.session().sent_count()
    }

    /// Modifications rejected by the switch or given up on by the failure
    /// policy.
    pub fn failed(&self) -> &[u64] {
        self.session().failed()
    }

    /// True once every modification in the plan is confirmed.
    pub fn is_complete(&self) -> bool {
        self.session().is_complete()
    }

    /// When the last modification was confirmed, if the update finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.session().completed_at().map(SimTime::from)
    }

    /// Confirmation time per modification id, in simulation time.
    pub fn confirmation_times(&self) -> HashMap<u64, SimTime> {
        sim_times(self.session().confirmation_times())
    }

    /// Send time per modification id, in simulation time.
    pub fn send_times(&self) -> HashMap<u64, SimTime> {
        sim_times(self.session().send_times())
    }

    /// PacketIn messages received (e.g. probes leaking to a non-RUM
    /// controller, or data packets punted by a switch).
    pub fn packet_ins_received(&self) -> u64 {
        self.session().packet_ins_received() + self.stray_packet_ins
    }
}

fn sim_times(times: &HashMap<u64, std::time::Duration>) -> HashMap<u64, SimTime> {
    times
        .iter()
        .map(|(&id, &d)| (id, SimTime::from(d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FailurePolicy;
    use ofswitch::SwitchModel;
    use openflow::messages::FlowMod;
    use openflow::{Action, DatapathId, OfMatch};
    use simnet::OpenFlowSwitch;
    use simnet::Simulator;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn small_plan(n: u64) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(
                i + 1,
                0,
                FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8),
                        Ipv4Addr::new(10, 1, 0, 1),
                    ),
                    100,
                    vec![Action::output(2)],
                ),
            )
            .unwrap();
        }
        plan
    }

    fn run_with_switch(
        plan: UpdatePlan,
        ack_mode: AckMode,
        window: usize,
        model: SwitchModel,
        until: SimTime,
    ) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(3);
        let controller = Controller::new("ctrl", plan, ack_mode, window, SimTime::from_millis(1));
        let ctrl_id = sim.add_node(controller);
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, model);
        sw.connect_controller(ctrl_id);
        let sw_id = sim.add_node(sw);
        sim.node_mut::<Controller>(ctrl_id)
            .unwrap()
            .set_connections(vec![sw_id]);
        sim.run_until(until);
        (sim, ctrl_id, sw_id)
    }

    #[test]
    fn no_wait_mode_sends_everything_immediately() {
        let (sim, ctrl_id, sw_id) = run_with_switch(
            small_plan(20),
            AckMode::NoWait,
            usize::MAX >> 1,
            SwitchModel::faithful(),
            SimTime::from_secs(1),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        assert_eq!(ctrl.sent_count(), 20);
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_id).unwrap();
        assert_eq!(sw.flow_mods_processed(), 20);
    }

    #[test]
    fn barrier_mode_confirms_all_mods_on_faithful_switch() {
        let (sim, ctrl_id, sw_id) = run_with_switch(
            small_plan(30),
            AckMode::Barriers { batch: 10 },
            10,
            SwitchModel::faithful(),
            SimTime::from_secs(5),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete(), "confirmed {}", ctrl.confirmed_count());
        assert!(ctrl.completed_at().is_some());
        // On a faithful switch, every confirmation must come after the
        // corresponding data-plane activation.
        let delays = sim.trace().activation_delays();
        assert_eq!(delays.len(), 30);
        assert!(delays.iter().all(|d| d.delay_millis() >= 0.0));
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_id).unwrap();
        assert!(sw.barriers_processed() >= 3);
    }

    #[test]
    fn barrier_mode_on_buggy_switch_confirms_too_early() {
        let (sim, ctrl_id, _) = run_with_switch(
            small_plan(30),
            AckMode::Barriers { batch: 1 },
            30,
            SwitchModel::hp5406zl(),
            SimTime::from_secs(10),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        // The whole point of the paper: with a buggy switch, barrier-based
        // confirmations arrive before the data plane activation.
        let delays = sim.trace().activation_delays();
        assert_eq!(delays.len(), 30);
        let negative = delays.iter().filter(|d| d.delay_millis() < 0.0).count();
        assert!(
            negative > 15,
            "expected most confirmations to be premature, got {negative}/30"
        );
    }

    #[test]
    fn window_limits_outstanding_mods() {
        let (sim, ctrl_id, _) = run_with_switch(
            small_plan(50),
            AckMode::RumAcks,
            5,
            SwitchModel::faithful(),
            SimTime::from_secs(2),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        // Nothing ever acks in RumAcks mode without a RUM layer, so exactly
        // one window worth of modifications is in flight.
        assert_eq!(ctrl.sent_count(), 5);
        assert_eq!(ctrl.confirmed_count(), 0);
        assert!(!ctrl.is_complete());
    }

    #[test]
    fn dependencies_gate_sending() {
        let mut plan = UpdatePlan::new();
        plan.add(
            1,
            0,
            FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
                100,
                vec![Action::output(2)],
            ),
        )
        .unwrap();
        plan.add_with_deps(
            2,
            0,
            FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 1, 0, 2)),
                100,
                vec![Action::output(2)],
            ),
            vec![1],
        )
        .unwrap();
        let (sim, ctrl_id, _) = run_with_switch(
            plan,
            AckMode::Barriers { batch: 1 },
            10,
            SwitchModel::faithful(),
            SimTime::from_secs(2),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(ctrl.is_complete());
        let sent = ctrl.send_times();
        let confirmed = ctrl.confirmation_times();
        assert!(
            sent[&2] >= confirmed[&1],
            "mod 2 (sent {}) must wait for mod 1's confirmation ({})",
            sent[&2],
            confirmed[&1]
        );
    }

    #[test]
    fn rejected_mods_are_recorded_as_failed() {
        let mut model = SwitchModel::faithful();
        model.table_capacity = 5;
        let (sim, ctrl_id, _) = run_with_switch(
            small_plan(8),
            AckMode::NoWait,
            100,
            model,
            SimTime::from_secs(2),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert_eq!(
            ctrl.failed().len(),
            3,
            "three mods exceed the 5-entry table"
        );
    }

    /// The failure policy works end to end inside the simulator: with
    /// RumAcks and no RUM layer nothing ever confirms, so every sent mod
    /// times out, retries, and finally aborts the update with a rollback.
    #[test]
    fn failure_policy_aborts_update_without_acks() {
        let mut sim = Simulator::new(3);
        let mut plan = UpdatePlan::new();
        let first = plan
            .add(
                1,
                0,
                FlowMod::add(
                    OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
                    100,
                    vec![Action::output(2)],
                ),
            )
            .unwrap();
        plan.add_with_deps(
            2,
            0,
            FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 1, 0, 2)),
                100,
                vec![Action::output(2)],
            ),
            vec![first],
        )
        .unwrap();
        let mut controller =
            Controller::new("ctrl", plan, AckMode::RumAcks, 10, SimTime::from_millis(1));
        controller
            .session_mut()
            .set_failure_policy(FailurePolicy::retry(Duration::from_millis(50), 2));
        let ctrl_id = sim.add_node(controller);
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, SwitchModel::faithful());
        sw.connect_controller(ctrl_id);
        let sw_id = sim.add_node(sw);
        sim.node_mut::<Controller>(ctrl_id)
            .unwrap()
            .set_connections(vec![sw_id]);
        sim.run_until(SimTime::from_secs(2));

        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert!(!ctrl.is_complete());
        assert_eq!(ctrl.failed(), &[1], "mod 1 exhausted its retries");
        assert!(matches!(
            ctrl.session().outcome(),
            Some(crate::session::SessionOutcome::Aborted { report })
                if report.cancelled == vec![2]
        ));
        // Mod 1 was sent 1 + 2 retries = 3 times, plus one rollback delete.
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_id).unwrap();
        assert_eq!(sw.flow_mods_processed(), 4);
    }

    /// A send to a conn with no connection behind it is dropped, not a
    /// panic: the mod for the unwired second switch goes nowhere while the
    /// first switch's mod confirms.
    #[test]
    fn send_to_an_unmapped_conn_is_dropped() {
        let rule = |i| {
            FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, 1)),
                100,
                vec![Action::output(2)],
            )
        };
        let mut plan = UpdatePlan::new();
        plan.add(1, 0, rule(1)).unwrap();
        plan.add(2, 1, rule(2)).unwrap();
        let (sim, ctrl_id, sw_id) = run_with_switch(
            plan,
            AckMode::Barriers { batch: 1 },
            10,
            SwitchModel::faithful(),
            SimTime::from_secs(2),
        );
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        assert_eq!(ctrl.sent_count(), 2);
        assert_eq!(ctrl.session().confirmed_order(), &[1]);
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_id).unwrap();
        assert_eq!(sw.flow_mods_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_is_rejected() {
        Controller::new("c", UpdatePlan::new(), AckMode::NoWait, 0, SimTime::ZERO);
    }

    /// The whole reconciliation loop end to end inside the simulator: a
    /// restart wipes both the preinstalled rule and everything the update
    /// installed, the reattach Hello triggers a resync, and the repaired
    /// table ends exactly equal to the desired store.
    #[test]
    fn resync_restores_wiped_rules_after_restart() {
        use crate::backoff::BackoffPolicy;
        use crate::resync::ResyncConfig;
        use ofswitch::FaultPlan;

        let mut sim = Simulator::new(7);
        let drop_all = FlowMod::add(OfMatch::wildcard_all(), 0, Vec::new()).with_cookie(1);
        let mut controller = Controller::new(
            "ctrl",
            small_plan(6),
            AckMode::NoWait,
            16,
            SimTime::from_millis(1),
        );
        let reconciler = controller.enable_resync(ResyncConfig {
            backoff: BackoffPolicy::new(Duration::from_millis(20), Duration::from_millis(160)),
            max_rounds: 6,
            ack_mode: AckMode::Barriers { batch: 4 },
            window: 8,
            failure_policy: FailurePolicy::retry(Duration::from_millis(50), 2),
        });
        reconciler.store_mut().note_confirmed(0, &drop_all);
        let ctrl_id = sim.add_node(controller);

        let faults = FaultPlan::seeded(7).with_restart_after(3);
        let mut sw = OpenFlowSwitch::with_faults(
            "s1",
            DatapathId::new(1),
            4,
            SwitchModel::faithful(),
            faults,
        );
        sw.preinstall(&drop_all);
        sw.connect_controller(ctrl_id);
        sw.set_reconnect_delay(Some(Duration::from_millis(30)));
        let sw_id = sim.add_node(sw);
        sim.node_mut::<Controller>(ctrl_id)
            .unwrap()
            .set_connections(vec![sw_id]);
        sim.run_until(SimTime::from_secs(20));

        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        let resync = ctrl.reconciler().unwrap();
        let status = resync.status(0).expect("resync ran");
        assert!(status.converged, "status: {status:?}");
        assert_eq!(status.final_diff, 0);
        assert!(
            status.rounds >= 2,
            "a wiped table cannot converge in one round"
        );
        // All 7 desired rules (6 planned + the preinstalled drop-all) were
        // wiped and re-issued.
        assert_eq!(status.delta_mods, 7);

        // The real test: the switch's control table is *equal* to the
        // desired store — same identities, same cookies, same actions.
        let sw = sim.node_ref::<OpenFlowSwitch>(sw_id).unwrap();
        let table = sw.behavior().control_table();
        assert_eq!(table.len(), resync.store().len(0));
        for entry in table.entries() {
            let want = resync
                .store()
                .get(0, &entry.match_, entry.priority)
                .expect("installed rule is desired");
            assert_eq!(want.actions, entry.actions);
        }
    }
}
