//! The paper's consistent-update controller over real sockets: a
//! [`SessionMachine`] (one [`UpdateSession`], optionally with declarative
//! resync) behind the shared [`TcpDriver`].  The simulator's
//! `controller::Controller` drives the exact same machine.

use crate::driver::{TcpDriver, TcpDriverHandle};
use controller::{Reconciler, ResyncConfig, SessionMachine, SessionOutcome, UpdateSession};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A consistent-update controller serving an [`UpdateSession`] over TCP;
/// the update begins once every expected connection is up.
pub type TcpUpdateController = TcpDriver<SessionMachine>;

impl TcpUpdateController {
    /// Creates a controller executing `session` once `n_connections` switch
    /// connections have been accepted on `listen_addr`.
    ///
    /// # Panics
    ///
    /// Panics if the session's plan targets a `SwitchRef` outside
    /// `0..n_connections` — its modifications could never be sent.
    pub fn new(listen_addr: SocketAddr, session: UpdateSession, n_connections: usize) -> Self {
        Self::new_with_epoch(listen_addr, session, n_connections, Instant::now())
    }

    /// Like [`TcpUpdateController::new`] but measuring session time against
    /// an explicit `epoch` — share one `Instant` with the switch hosts so
    /// confirmation times and data-plane activation times are comparable.
    pub fn new_with_epoch(
        listen_addr: SocketAddr,
        session: UpdateSession,
        n_connections: usize,
        epoch: Instant,
    ) -> Self {
        if let Some(max) = session.plan().targets().into_iter().max() {
            assert!(
                max < n_connections,
                "plan targets switch {max} but only {n_connections} connections are expected"
            );
        }
        TcpDriver {
            listen_addr,
            machine: SessionMachine::new(session),
            n_connections,
            epoch,
        }
    }

    /// See [`SessionMachine::enable_resync`].  Over TCP a mid-run Hello is
    /// the reconnect signal: the switch host replays the handshake on
    /// reattach and the RUM proxy forwards it.  Seed the returned
    /// reconciler's desired store (pre-installed rules) before
    /// [`TcpDriver::start`].
    pub fn enable_resync(&mut self, config: ResyncConfig) -> &mut Reconciler {
        self.machine.enable_resync(config)
    }
}

/// A handle to a running TCP update controller.
pub type TcpControllerHandle = TcpDriverHandle<SessionMachine>;

impl TcpControllerHandle {
    /// Runs `f` against the session under the lock (confirm counts,
    /// timestamps, outcome).
    pub fn with_session<R>(&self, f: impl FnOnce(&UpdateSession) -> R) -> R {
        self.with(|m| f(m.session()))
    }

    /// Every confirmation the session recorded, in order.
    pub fn confirmed_order(&self) -> Vec<u64> {
        self.with_session(|s| s.confirmed_order().to_vec())
    }

    /// Runs `f` against the reconciler under the lock (status, trace,
    /// desired store) — `None` when resync was never enabled.
    pub fn with_reconciler<R>(&self, f: impl FnOnce(&Reconciler) -> R) -> Option<R> {
        self.with(|m| m.reconciler().map(f))
    }

    /// Blocks until at least `n` switches have reached a terminal resync
    /// state (converged or gave up) or `timeout` elapses; returns whether
    /// they did.
    pub fn wait_for_resync(&self, n: usize, timeout: Duration) -> bool {
        self.wait_until(timeout, |m| {
            m.reconciler().is_some_and(|r| r.terminal_count() >= n)
        })
    }

    /// Blocks until the session reaches a terminal outcome (completed or
    /// aborted) or `timeout` elapses; returns the outcome if there is one.
    pub fn wait_for_outcome(&self, timeout: Duration) -> Option<SessionOutcome> {
        self.wait_until(timeout, |m| m.session().outcome().is_some());
        self.with_session(|s| s.outcome().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::testing::acking_switch;
    use controller::{AckMode, FailurePolicy, UpdatePlan};
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use std::net::{Ipv4Addr, TcpStream};

    fn plan(n: u64) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(
                i + 1,
                0,
                FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, 0, 0, i as u8 + 1),
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

    #[test]
    fn session_completes_over_real_sockets() {
        let session = UpdateSession::new(plan(6), AckMode::RumAcks, 2);
        let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let handle = ctrl.start().expect("controller starts");
        let switch = acking_switch(handle.local_addr);
        let outcome = handle
            .wait_for_outcome(Duration::from_secs(5))
            .expect("update finishes");
        assert!(matches!(outcome, SessionOutcome::Completed { .. }));
        assert_eq!(handle.confirmed_order(), vec![1, 2, 3, 4, 5, 6]);
        assert!(handle.with_session(|s| s.is_complete()));
        handle.shutdown();
        let sent = switch.join().unwrap();
        assert_eq!(sent, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn silent_switch_triggers_the_failure_policy() {
        let mut session = UpdateSession::new(plan(2), AckMode::RumAcks, 1);
        session.set_failure_policy(FailurePolicy::retry(Duration::from_millis(40), 1));
        let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let handle = ctrl.start().unwrap();
        // A switch that swallows everything: never acks.
        let stream = TcpStream::connect(handle.local_addr).unwrap();
        let outcome = handle
            .wait_for_outcome(Duration::from_secs(5))
            .expect("the policy must abort the stalled update");
        match outcome {
            SessionOutcome::Aborted { report } => assert_eq!(report.failed, 1),
            other => panic!("expected abort, got {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }

    /// The reconciliation loop end to end over real sockets: a restart
    /// fault wipes the switch (pre-installed rule included), the reattach
    /// Hello triggers a resync, and the readback-verified table converges
    /// to exactly the desired store — the socket twin of the simulator's
    /// `resync_restores_wiped_rules_after_restart`.
    #[test]
    fn resync_restores_wiped_rules_over_real_sockets() {
        use crate::switch_host::{spawn_switch_with, SwitchHostOptions};
        use controller::{BackoffPolicy, ResyncConfig};
        use ofswitch::{FaultPlan, SwitchModel};

        let drop_all = FlowMod::add(OfMatch::wildcard_all(), 0, Vec::new()).with_cookie(1);
        let session = UpdateSession::new(plan(6), AckMode::NoWait, 16);
        let mut ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let reconciler = ctrl.enable_resync(ResyncConfig {
            backoff: BackoffPolicy::new(Duration::from_millis(20), Duration::from_millis(160)),
            max_rounds: 6,
            ack_mode: AckMode::Barriers { batch: 4 },
            window: 8,
            failure_policy: FailurePolicy::retry(Duration::from_millis(100), 2),
        });
        reconciler.store_mut().note_confirmed(0, &drop_all);
        let handle = ctrl.start().expect("controller starts");

        let sw = spawn_switch_with(
            handle.local_addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                faults: FaultPlan::seeded(7).with_restart_after(3),
                preinstall: vec![drop_all],
                reconnect_delay: Some(Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .expect("switch connects");

        // The no-wait session settles immediately; the interesting part is
        // what happens after the restart.
        let outcome = handle
            .wait_for_outcome(Duration::from_secs(5))
            .expect("session settles");
        assert!(matches!(outcome, SessionOutcome::Completed { .. }));
        assert!(
            handle.wait_for_resync(1, Duration::from_secs(10)),
            "resync must reach a terminal state"
        );

        let (status, desired, last_round) = handle
            .with_reconciler(|r| {
                (
                    r.status(0).cloned().expect("resync ran"),
                    r.store().len(0),
                    r.trace(0).last().copied().expect("at least one round"),
                )
            })
            .expect("resync enabled");
        assert!(status.converged, "status: {status:?}");
        assert_eq!(status.final_diff, 0);
        assert!(
            status.rounds >= 2,
            "a wiped table cannot converge in one round"
        );
        // All 7 desired rules (6 planned + the preinstalled drop-all) were
        // wiped and re-issued; the final readback saw them all and no diff.
        assert_eq!(status.delta_mods, 7);
        assert_eq!(desired, 7);
        assert_eq!(last_round.actual, 7);
        assert_eq!(last_round.diff(), 0);

        sw.stop();
        handle.shutdown();
        let report = sw.join();
        assert_eq!(
            report.control_rules, desired,
            "table equals the desired store"
        );
    }

    /// A send to a conn without a slot is dropped, not a panic: the reply
    /// to a message fed under the unmapped conn goes nowhere and the driver
    /// keeps serving.
    #[test]
    fn send_to_an_unmapped_conn_is_dropped() {
        use controller::{ConnId, Machine, MachineInput};

        let session = UpdateSession::new(plan(1), AckMode::RumAcks, 1);
        let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let handle = ctrl.start().expect("controller starts");
        handle.drive(|machine, now, effects| {
            let conn = ConnId::UNMAPPED;
            let message = openflow::OfMessage::Hello { xid: 1 };
            machine.handle(now, MachineInput::FromSwitch { conn, message }, effects);
            assert_eq!(effects.len(), 1, "the session answers the Hello");
        });
        let switch = acking_switch(handle.local_addr);
        let outcome = handle.wait_for_outcome(Duration::from_secs(5));
        assert!(matches!(outcome, Some(SessionOutcome::Completed { .. })));
        handle.shutdown();
        drop(switch);
    }

    #[test]
    #[should_panic(expected = "plan targets switch 1")]
    fn undersized_connection_count_is_rejected() {
        let mut p = UpdatePlan::new();
        p.add(
            1,
            1,
            FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(1)]),
        )
        .unwrap();
        let session = UpdateSession::new(p, AckMode::NoWait, 1);
        TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
    }
}
