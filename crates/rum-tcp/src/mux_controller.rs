//! Many concurrent tenant sessions over one set of real switch
//! connections: a [`SessionMux`] behind the shared [`TcpDriver`].
//!
//! Unlike the single-session controller, plans are **submitted at runtime**
//! through [`TcpMuxHandle::submit`]: the churn interface a soak harness
//! streams hundreds of plans through.  Admission (namespace isolation,
//! conflict policy) happens synchronously in `submit`, so a rejected plan
//! surfaces as a typed [`AdmitError`] to the submitting thread, not as a
//! late failure.

use crate::driver::{TcpDriver, TcpDriverHandle};
use controller::UpdatePlan;
use sessiond::{AdmitError, MuxConfig, SessionId, SessionMux};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A multi-tenant update controller serving a [`SessionMux`] over TCP;
/// plans arrive after [`TcpDriver::start`] through [`TcpMuxHandle::submit`].
pub type TcpMuxController = TcpDriver<SessionMux>;

impl TcpMuxController {
    /// Creates a mux controller expecting `n_connections` switch
    /// connections on `listen_addr`.
    pub fn new(listen_addr: SocketAddr, config: MuxConfig, n_connections: usize) -> Self {
        Self::new_with_epoch(listen_addr, config, n_connections, Instant::now())
    }

    /// Like [`TcpMuxController::new`] but measuring mux time against an
    /// explicit `epoch` — share one `Instant` with the switch hosts so
    /// confirmation times and data-plane activation times are comparable.
    pub fn new_with_epoch(
        listen_addr: SocketAddr,
        config: MuxConfig,
        n_connections: usize,
        epoch: Instant,
    ) -> Self {
        TcpDriver {
            listen_addr,
            machine: SessionMux::new(config),
            n_connections,
            epoch,
        }
    }

    /// Mutable access to the mux before the run starts, e.g. to attach a
    /// telemetry registry.
    pub fn mux_mut(&mut self) -> &mut SessionMux {
        &mut self.machine
    }
}

/// A handle to a running TCP mux controller.
pub type TcpMuxHandle = TcpDriverHandle<SessionMux>;

impl TcpMuxHandle {
    /// Submits one tenant plan.  Admission is synchronous: a conflict under
    /// [`sessiond::ConflictPolicy::Reject`], an oversized id or namespace
    /// exhaustion comes back as a typed [`AdmitError`] right here.  On
    /// admission the session's first window of sends goes out (or buffers
    /// on not-yet-attached routes) before this returns.
    pub fn submit(&self, plan: UpdatePlan) -> Result<SessionId, AdmitError> {
        self.drive(|mux, now, effects| mux.submit(plan, now, effects))
    }

    /// Runs `f` against the mux under the lock (per-session state, confirm
    /// orders, outcomes, counters).
    pub fn with_mux<R>(&self, f: impl FnOnce(&SessionMux) -> R) -> R {
        self.with(f)
    }

    /// One session's confirmation order (local plan ids).
    pub fn confirmed_order(&self, session: SessionId) -> Vec<u64> {
        self.with(|m| {
            m.session(session)
                .map(|s| s.confirmed_order().to_vec())
                .unwrap_or_default()
        })
    }

    /// Blocks until every submitted session reached a terminal outcome or
    /// `timeout` elapses; true if all sessions are done.
    pub fn wait_all_done(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, SessionMux::all_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::testing::acking_switch;
    use controller::AckMode;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use sessiond::{ConflictPolicy, SessionState};
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

    #[test]
    fn concurrent_tenants_complete_over_real_sockets() {
        let ctrl = TcpMuxController::new(
            "127.0.0.1:0".parse().unwrap(),
            MuxConfig {
                ack_mode: AckMode::RumAcks,
                session_window: 2,
                global_window: 8,
                quantum: 2,
                ..MuxConfig::default()
            },
            1,
        );
        let handle = ctrl.start().expect("controller starts");
        let switch = acking_switch(handle.local_addr);

        let mut sessions = Vec::new();
        for t in 0..5u8 {
            sessions.push(handle.submit(tenant_plan(t, 4)).expect("disjoint plans"));
        }
        assert!(
            handle.wait_all_done(Duration::from_secs(5)),
            "all tenants must finish"
        );
        for (t, sid) in sessions.iter().enumerate() {
            assert_eq!(
                handle.confirmed_order(*sid),
                vec![1, 2, 3, 4],
                "tenant {t} confirm order"
            );
            assert_eq!(
                handle.with_mux(|m| m.state(*sid).cloned()),
                Some(SessionState::Done)
            );
        }
        assert_eq!(handle.with_mux(|m| m.stray_acks()), 0);
        handle.shutdown();
        let wire = switch.join().unwrap();
        // 5 tenants × 4 mods, every wire xid unique (disjoint namespaces).
        assert_eq!(wire.len(), 20);
        let unique: std::collections::HashSet<_> = wire.iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn conflicting_submission_is_rejected_synchronously() {
        let ctrl = TcpMuxController::new(
            "127.0.0.1:0".parse().unwrap(),
            MuxConfig {
                conflict_policy: ConflictPolicy::Reject,
                ..MuxConfig::default()
            },
            1,
        );
        let handle = ctrl.start().unwrap();
        let switch = acking_switch(handle.local_addr);
        let first = handle.submit(tenant_plan(1, 2)).expect("first plan admits");
        let err = handle.submit(tenant_plan(1, 2)).unwrap_err();
        assert!(
            matches!(err, AdmitError::Conflict { with, .. } if with == first),
            "got {err:?}"
        );
        assert!(handle.wait_all_done(Duration::from_secs(5)));
        handle.shutdown();
        drop(switch);
    }
}
