//! The simulator deployment of the [`SessionMux`].
//!
//! [`MuxController`] is to the mux what `controller::Controller` is to a
//! single session: the shared [`MachineNode`] transport around a machine.
//! Plans are registered before the run and submitted together when the node
//! starts, so a whole tenant population contends from the first instant —
//! the "millions of users" regime in miniature.

use crate::mux::{AdmitError, MuxConfig, MuxEffect, SessionId, SessionMux};
use controller::{Machine, MachineEffect, MachineInput, MachineNode, UpdatePlan};
use simnet::{Context, EventPayload, Node, NodeId, SimTime};
use std::any::Any;
use std::time::Duration;

/// A [`SessionMux`] whose tenant plans are staged up front and submitted on
/// [`MachineInput::Started`].
struct StagedMux {
    mux: SessionMux,
    /// Plans queued for submission at start.
    pending_plans: Vec<UpdatePlan>,
    /// Per-plan submission results, in registration order.
    submissions: Vec<Result<SessionId, AdmitError>>,
}

impl Machine for StagedMux {
    type Effect = MuxEffect;

    fn handle(&mut self, now: Duration, input: MachineInput, effects: &mut Vec<MuxEffect>) {
        if matches!(input, MachineInput::Started) {
            for plan in std::mem::take(&mut self.pending_plans) {
                self.submissions.push(self.mux.submit(plan, now, effects));
            }
            return;
        }
        Machine::handle(&mut self.mux, now, input, effects)
    }

    fn lower(&self, effect: MuxEffect) -> MachineEffect {
        self.mux.lower(effect)
    }
}

/// A controller node that submits many tenant plans to a [`SessionMux`] and
/// drives the mux inside the simulator.
pub struct MuxController(MachineNode<StagedMux>);

impl MuxController {
    /// Creates a mux controller that starts submitting at `start_at`.
    pub fn new(label: impl Into<String>, config: MuxConfig, start_at: SimTime) -> Self {
        let staged = StagedMux {
            mux: SessionMux::new(config),
            pending_plans: Vec::new(),
            submissions: Vec::new(),
        };
        MuxController(MachineNode::with_machine(label, staged, start_at))
    }

    /// Registers one tenant plan for submission at start time.  Returns the
    /// registration index; pair it with [`MuxController::submission_results`]
    /// after the run to find the tenant's [`SessionId`] (or admission error).
    pub fn add_plan(&mut self, plan: UpdatePlan) -> usize {
        let pending = &mut self.0.machine_mut().pending_plans;
        pending.push(plan);
        pending.len() - 1
    }

    /// Sets the nodes terminating each switch connection (index = the
    /// `SwitchRef` used in the plans).
    pub fn set_connections(&mut self, connections: Vec<NodeId>) {
        self.0.set_connections(connections);
    }

    /// Read access to the mux (per-session state, outcomes, counters).
    pub fn mux(&self) -> &SessionMux {
        &self.0.machine().mux
    }

    /// Mutable access to the mux, e.g. to attach metrics before the run.
    pub fn mux_mut(&mut self) -> &mut SessionMux {
        &mut self.0.machine_mut().mux
    }

    /// One result per registered plan, in registration order.  Empty until
    /// the node starts.
    pub fn submission_results(&self) -> &[Result<SessionId, AdmitError>] {
        &self.0.machine().submissions
    }

    /// PacketIn messages received across the mux and unmapped senders.
    pub fn packet_ins_received(&self) -> u64 {
        self.mux().packet_ins() + self.0.stray_packet_ins()
    }
}

/// Delegates to the wrapped node; the wrapper itself is the registered node
/// so that `Simulator::node_ref::<MuxController>` finds it.
impl Node for MuxController {
    fn name(&self) -> String {
        self.0.name()
    }

    fn start(&mut self, ctx: &mut Context<'_>) {
        self.0.start(ctx);
    }

    fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
        self.0.handle(event, ctx);
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
    use crate::mux::SessionState;
    use ofswitch::SwitchModel;
    use openflow::messages::FlowMod;
    use openflow::{Action, DatapathId, OfMatch};
    use simnet::{OpenFlowSwitch, Simulator};
    use std::net::Ipv4Addr;

    fn tenant_plan(tenant: u8, n: u8) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(
                u64::from(i) + 1,
                0,
                FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, tenant, 0, i + 1),
                        Ipv4Addr::new(10, 200, 0, 1),
                    ),
                    100,
                    vec![Action::output(2)],
                ),
            )
            .unwrap();
        }
        plan
    }

    /// Many tenants over one faithful switch with barrier acks: everything
    /// completes inside the simulator, through the real Node plumbing.
    #[test]
    fn tenants_complete_against_a_simulated_switch() {
        let mut sim = Simulator::new(3);
        let mut ctrl = MuxController::new(
            "muxd",
            MuxConfig {
                ack_mode: controller::AckMode::Barriers { batch: 1 },
                session_window: 2,
                global_window: 4,
                quantum: 1,
                ..MuxConfig::default()
            },
            SimTime::from_millis(1),
        );
        for t in 0..6 {
            ctrl.add_plan(tenant_plan(t, 3));
        }
        let ctrl_id = sim.add_node(ctrl);
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, SwitchModel::faithful());
        sw.connect_controller(ctrl_id);
        let sw_id = sim.add_node(sw);
        sim.node_mut::<MuxController>(ctrl_id)
            .unwrap()
            .set_connections(vec![sw_id]);
        sim.run_until(SimTime::from_secs(5));

        let ctrl = sim.node_ref::<MuxController>(ctrl_id).unwrap();
        assert_eq!(ctrl.submission_results().len(), 6);
        assert!(ctrl.mux().all_done());
        for result in ctrl.submission_results() {
            let sid = *result.as_ref().expect("disjoint plans all admit");
            assert_eq!(ctrl.mux().state(sid), Some(&SessionState::Done));
            assert!(
                ctrl.mux().session(sid).unwrap().is_complete(),
                "{sid} did not complete"
            );
        }
        assert_eq!(ctrl.mux().stray_acks(), 0);
    }

    /// Conflicting plans serialize through the simulator run and still all
    /// complete, in submission order.
    #[test]
    fn conflicting_tenants_serialize_and_complete() {
        let mut sim = Simulator::new(3);
        let mut ctrl = MuxController::new(
            "muxd",
            MuxConfig {
                ack_mode: controller::AckMode::Barriers { batch: 1 },
                session_window: 4,
                global_window: 8,
                ..MuxConfig::default()
            },
            SimTime::from_millis(1),
        );
        // Three identical plans — total overlap, strict serialization.
        for _ in 0..3 {
            ctrl.add_plan(tenant_plan(1, 2));
        }
        let ctrl_id = sim.add_node(ctrl);
        let mut sw = OpenFlowSwitch::new("s1", DatapathId::new(1), 4, SwitchModel::faithful());
        sw.connect_controller(ctrl_id);
        let sw_id = sim.add_node(sw);
        sim.node_mut::<MuxController>(ctrl_id)
            .unwrap()
            .set_connections(vec![sw_id]);
        sim.run_until(SimTime::from_secs(5));

        let ctrl = sim.node_ref::<MuxController>(ctrl_id).unwrap();
        assert!(ctrl.mux().all_done());
        // Completion times respect submission order (FIFO serialization).
        let done_at: Vec<_> = ctrl
            .submission_results()
            .iter()
            .map(|r| {
                let sid = *r.as_ref().unwrap();
                ctrl.mux()
                    .session(sid)
                    .unwrap()
                    .completed_at()
                    .expect("completed")
            })
            .collect();
        assert!(done_at[0] < done_at[1] && done_at[1] < done_at[2]);
    }
}
