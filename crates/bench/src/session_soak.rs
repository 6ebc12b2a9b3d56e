//! The multi-tenant session soak: hundreds of concurrent tenant sessions
//! multiplexed through one `sessiond::SessionMux` over a misbehaving switch
//! fleet — the "millions of users" workload at benchmark scale.
//!
//! Each tenant owns a small dependency-free plan of rules in its own match
//! space (so admission never serialises them); every plan targets the same
//! device under test, behind the RUM proxy running **general probing** —
//! the technique the paper proves never acknowledges falsely.  The soak
//! streams all plans into the mux up front, so the whole tenant population
//! is concurrently admitted and contends for the shared outstanding-window
//! budget from the first instant, then waits a bounded wall-clock budget
//! for completion.
//!
//! The soak runs on **both drivers** of the mux — the deterministic
//! simulator ([`sessiond::MuxController`]) and real sockets
//! ([`rum_tcp::TcpMuxController`]) — with the same namespace scheme, so the
//! per-session confirm orders are comparable across drivers for the same
//! seed.  The fleet and the ground-truth join are `crate::fleet`'s, exactly
//! as in the scenario matrix (a confirm while the rule was not in the data
//! plane is a **false ack**, a planned rule never confirmed inside the
//! budget a **missed ack**, counted under
//! `soak.{driver}.{fault}.{false_acks,missed_acks}`); this module adds the
//! tenant population and its plans, the mux in front of the fleet, and the
//! per-modification confirm latencies behind the tail percentiles
//! (p50/p99/p99.9) of the `session_soak` section of `BENCH_results.json`.

use crate::fleet::{
    join_ground_truth, loopback, FleetSpec, SimFleet, TcpFleet, Topology, SIM_START,
};
use crate::report::{percentile, SessionSoakRecord};
use crate::scale::RING_OUT_PORT;
use crate::scenario_matrix::{Driver, FaultModel};
use controller::scenarios::{bulk_ports, FLOW_RULE_PRIORITY};
use controller::{AckMode, SessionOutcome, UpdatePlan};
use ofswitch::SwitchModel;
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use rum::TechniqueConfig;
use rum_tcp::TcpMuxController;
use sessiond::{MuxConfig, MuxController, SessionId, SessionMux};
use simnet::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Parameters of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent tenant sessions (the acceptance bar is ≥ 200 on TCP).
    pub sessions: usize,
    /// Modifications per tenant plan (all dependency-free, all targeting
    /// the device under test).
    pub mods_per_session: usize,
    /// Simulator seed; also seeds the fault plan so verdicts are a pure
    /// function of `(seed, wire cookie)` on both drivers.
    pub seed: u64,
    /// Wall-clock budget of the TCP run; tenants not done by then are
    /// recorded as missed acks, never silently waited out.
    pub budget: Duration,
    /// The shared outstanding-window budget the scheduler divides fairly
    /// across tenants.
    pub global_window: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            sessions: 200,
            mods_per_session: 3,
            seed: 42,
            budget: Duration::from_secs(45),
            global_window: 24,
        }
    }
}

/// Result of one soak run: the persisted record plus the per-session
/// confirm orders (registration order) for cross-driver equality checks.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// The `session_soak` row written to `BENCH_results.json`.
    pub record: SessionSoakRecord,
    /// Each tenant's confirm order (local plan ids), in registration order.
    pub per_session_orders: Vec<Vec<u64>>,
}

/// The headline adversary of the soak: the early-barrier-reply switch the
/// paper measures, with no extra faults layered on.  General probing must
/// produce **zero false and zero missed acks** against it.
pub fn early_reply_fault(base: &SwitchModel, seed: u64) -> FaultModel {
    crate::scenario_matrix::fault_models(base, seed, 1)
        .into_iter()
        .next()
        .expect("fault_models is never empty")
}

/// Where tenant `t`'s rules land and where they forward to: the device
/// under test and its downstream helper on the chain (the same rule shape
/// the bulk scenario uses, so the probing fabric carries the probes);
/// switch `t % n` and its successor on an `n`-ring, so the whole fleet
/// carries tenant load.
fn tenant_target(topology: Topology, tenant: usize) -> (controller::plan::SwitchRef, u16) {
    match topology {
        Topology::Chain => (0, bulk_ports::B_TO_C),
        Topology::Ring(n) => (tenant % n, RING_OUT_PORT),
    }
}

/// One tenant's plan: `mods` dependency-free rules in the tenant's own
/// `10.t.t.r` match space (disjoint across tenants, so admission never
/// conflicts), all on the tenant's [`tenant_target`].
fn tenant_plan(topology: Topology, tenant: usize, mods: usize) -> UpdatePlan {
    assert!(mods < 255, "per-tenant rule space is one /24");
    let (target, out_port) = tenant_target(topology, tenant);
    let mut plan = UpdatePlan::new();
    for r in 0..mods {
        let id = r as u64 + 1;
        plan.add(
            id,
            target,
            FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, (tenant >> 8) as u8, (tenant & 0xff) as u8, r as u8 + 1),
                    Ipv4Addr::new(10, 200, 0, 1),
                ),
                FLOW_RULE_PRIORITY,
                vec![Action::output(out_port)],
            )
            // The wire cookie becomes `namespace base + id`, unique across
            // the whole fleet — the key the ground-truth join uses.
            .with_cookie(id),
        )
        .expect("tenant-local ids are unique");
    }
    plan
}

/// The mux configuration of the soak.  `session_window = 1` serialises each
/// tenant's own plan, so every per-session confirm order is fully
/// determined by the session's dispatch rule — the property the
/// cross-driver equality check rests on.  Concurrency comes from the tenant
/// population, not from within a session.
fn mux_config(cfg: &SoakConfig) -> MuxConfig {
    MuxConfig {
        ack_mode: AckMode::RumAcks,
        session_window: 1,
        global_window: cfg.global_window,
        quantum: 1,
        ..MuxConfig::default()
    }
}

/// General probing sized for the soak: the proxy must be able to probe the
/// whole released window concurrently, or overflow mods would fall back to
/// the delay heuristic and weaken the zero-false-acks claim.
pub(crate) fn probing(model: &SwitchModel, window: usize) -> TechniqueConfig {
    let lag = model.worst_case_dataplane_lag();
    TechniqueConfig::GeneralProbing {
        probe_interval: Duration::from_millis(10),
        max_outstanding: window.max(30),
        fallback_delay: lag + lag / 4,
    }
}

/// One tenant's run artefacts, read back from the mux after the run.
struct TenantResult {
    order: Vec<u64>,
    /// Per planned mod: (wire cookie, send time, confirm time).
    mods: Vec<(u64, Option<Duration>, Option<Duration>)>,
    completed: bool,
    aborted: bool,
}

/// Reads every tenant's confirmations, send times and outcome, plus the
/// acknowledgments the mux could attribute to no tenant, out of the mux
/// (both drivers expose the same `SessionMux` surface).
fn collect(mux: &SessionMux, sids: &[SessionId], mods: usize) -> (Vec<TenantResult>, u64) {
    let tenants = sids
        .iter()
        .map(|&sid| {
            let s = mux.session(sid).expect("admitted session exists");
            let base = mux.base(sid).unwrap_or(0);
            let confirms = s.confirmation_times();
            let sends = s.send_times();
            TenantResult {
                order: s.confirmed_order().to_vec(),
                mods: (1..=mods as u64)
                    .map(|id| {
                        (
                            base + id,
                            sends.get(&id).copied(),
                            confirms.get(&id).copied(),
                        )
                    })
                    .collect(),
                completed: matches!(mux.outcome(sid), Some(SessionOutcome::Completed { .. })),
                aborted: matches!(mux.outcome(sid), Some(SessionOutcome::Aborted { .. })),
            }
        })
        .collect();
    (tenants, mux.stray_acks())
}

/// Simulated horizon: generous against the hp5406zl's ~250 mods/s and
/// 290 ms data-plane lag; an incomplete run reports missed acks instead of
/// hanging.
const SOAK_SIM_HORIZON: SimTime = SimTime::from_secs(120);

/// Runs the soak on the simulator driver (hp5406zl base model, simulated
/// time) over the bulk chain.  `wall_ms` is the simulated span from
/// submission to the last confirmation.
pub fn run_simnet_soak(
    cfg: &SoakConfig,
    fault: &FaultModel,
    registry: &Arc<Registry>,
) -> SoakOutcome {
    run_soak(Driver::Simnet, cfg, fault, Topology::Chain, 1, registry)
}

/// Runs the soak on the real-socket driver (fast_buggy base model, wall
/// clock) over the bulk chain: all tenant plans submitted up front so the
/// whole population is concurrently in flight, then a bounded wait.
pub fn run_tcp_soak(cfg: &SoakConfig, fault: &FaultModel, registry: &Arc<Registry>) -> SoakOutcome {
    run_soak(Driver::Tcp, cfg, fault, Topology::Chain, 1, registry)
}

/// One soak run: the tenant population through one mux against the fleet,
/// every tenant's confirmations joined against its target switch's ground
/// truth (counters `soak.{driver}.{fault}.*`), the per-modification
/// send → confirm latencies feeding the tail percentiles.
pub(crate) fn run_soak(
    driver: Driver,
    cfg: &SoakConfig,
    fault: &FaultModel,
    topology: Topology,
    shards: usize,
    registry: &Arc<Registry>,
) -> SoakOutcome {
    let spec = FleetSpec {
        topology,
        fault,
        technique: Some(probing(&fault.model, cfg.global_window)),
        shards,
    };
    let plan = |t| tenant_plan(topology, t, cfg.mods_per_session);
    let ((tenants, stray_acks), truths, wall_ms) = match driver {
        Driver::Simnet => {
            let mut ctrl = MuxController::new("soakd", mux_config(cfg), SIM_START);
            ctrl.mux_mut().attach_metrics(registry);
            for t in 0..cfg.sessions {
                ctrl.add_plan(plan(t));
            }
            let mut fleet =
                SimFleet::stand_up(&spec, cfg.seed, ctrl, MuxController::set_connections);
            fleet.sim.run_until(SOAK_SIM_HORIZON);
            let ctrl = fleet.controller();
            let sids: Vec<SessionId> = (ctrl.submission_results().iter())
                .map(|r| *r.as_ref().expect("disjoint tenant plans all admit"))
                .collect();
            let collected = collect(ctrl.mux(), &sids, cfg.mods_per_session);
            let start: Duration = SIM_START.into();
            let wall_ms = (collected.0.iter())
                .flat_map(|t| t.mods.iter().filter_map(|&(_, _, c)| c))
                .max()
                .map(|last| last.saturating_sub(start).as_secs_f64() * 1e3)
                .unwrap_or(f64::NAN);
            (collected, fleet.read_back().truths, wall_ms)
        }
        Driver::Tcp => {
            let epoch = Instant::now();
            let (addr, n) = (loopback(), spec.connections());
            let mut ctrl = TcpMuxController::new_with_epoch(addr, mux_config(cfg), n, epoch);
            ctrl.mux_mut().attach_metrics(registry);
            let fleet = TcpFleet::stand_up(&spec, epoch, ctrl);
            let handle = fleet.controller();
            let started = Instant::now();
            let sids: Vec<SessionId> = (0..cfg.sessions)
                .map(|t| {
                    handle
                        .submit(plan(t))
                        .expect("disjoint tenant plans all admit")
                })
                .collect();
            handle.wait_all_done(cfg.budget);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let collected = handle.with_mux(|m| collect(m, &sids, cfg.mods_per_session));
            (collected, fleet.tear_down().truths, wall_ms)
        }
    };

    let mut planned = Vec::new();
    let mut confirmations = HashMap::new();
    let mut latencies_ms = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let target = tenant_target(topology, t).0;
        for &(wire, send, confirm) in &tenant.mods {
            planned.push((wire, target));
            if let Some(at) = confirm {
                confirmations.insert(wire, at);
                if let Some(sent) = send {
                    latencies_ms.push(at.saturating_sub(sent).as_secs_f64() * 1e3);
                }
            }
        }
    }
    let prefix = format!("soak.{}.{}", driver.label(), fault.name);
    let (false_acks, missed_acks) =
        join_ground_truth(&planned, &confirmations, &truths, &prefix, registry);
    let record = SessionSoakRecord {
        driver: driver.label().to_string(),
        fault: fault.name.to_string(),
        switches: topology.len() as u64,
        sessions: tenants.len() as u64,
        completed: tenants.iter().filter(|t| t.completed).count() as u64,
        aborted: tenants.iter().filter(|t| t.aborted).count() as u64,
        planned_mods: planned.len() as u64,
        confirmed_mods: confirmations.len() as u64,
        false_acks,
        missed_acks,
        stray_acks,
        p50_confirm_ms: percentile(&latencies_ms, 0.5).unwrap_or(f64::NAN),
        p99_confirm_ms: percentile(&latencies_ms, 0.99).unwrap_or(f64::NAN),
        p999_confirm_ms: percentile(&latencies_ms, 0.999).unwrap_or(f64::NAN),
        wall_ms,
    };
    SoakOutcome {
        record,
        per_session_orders: tenants.into_iter().map(|t| t.order).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tenant match spaces never collide, so admission never serialises.
    #[test]
    fn tenant_plans_are_disjoint() {
        let a = tenant_plan(Topology::Chain, 3, 4);
        let b = tenant_plan(Topology::Chain, 259, 4);
        assert_eq!(a.len(), 4);
        for m in a.mods() {
            for n in b.mods() {
                assert_ne!(
                    (&m.flow_mod.match_, m.flow_mod.priority),
                    (&n.flow_mod.match_, n.flow_mod.priority),
                    "tenants 3 and 259 must not overlap"
                );
            }
        }
    }

    /// A reduced-scale simnet soak under the headline early-reply fault:
    /// every tenant completes, zero false and zero missed acks, finite
    /// tails, and the verdict counters flow through the registry.
    #[test]
    fn simnet_soak_smoke_is_sound_under_early_replies() {
        let cfg = SoakConfig {
            sessions: 8,
            mods_per_session: 2,
            global_window: 6,
            ..SoakConfig::default()
        };
        let fault = early_reply_fault(&SwitchModel::hp5406zl(), cfg.seed);
        let registry = Arc::new(Registry::new());
        let outcome = run_simnet_soak(&cfg, &fault, &registry);
        let r = &outcome.record;
        assert_eq!(r.sessions, 8, "{r:?}");
        assert_eq!(r.completed, 8, "{r:?}");
        assert_eq!(r.false_acks, 0, "{r:?}");
        assert_eq!(r.missed_acks, 0, "{r:?}");
        assert_eq!(r.stray_acks, 0, "{r:?}");
        assert_eq!(r.confirmed_mods, 16, "{r:?}");
        assert!(r.p999_confirm_ms.is_finite(), "{r:?}");
        assert!(r.p50_confirm_ms <= r.p99_confirm_ms, "{r:?}");
        // session_window = 1 serialises each plan: in-order confirms.
        for order in &outcome.per_session_orders {
            assert_eq!(order, &vec![1, 2]);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["soak.simnet.early_reply.false_acks"], 0);
        assert_eq!(snap.counters["sessiond.completed"], 8);
    }

    /// A reduced-scale TCP soak over real sockets: many concurrent tenants
    /// through the proxy against a buggy early-reply switch host, still
    /// zero false and zero missed acks under general probing.
    #[test]
    fn tcp_soak_smoke_is_sound_under_early_replies() {
        let cfg = SoakConfig {
            sessions: 6,
            mods_per_session: 2,
            budget: Duration::from_secs(15),
            global_window: 6,
            ..SoakConfig::default()
        };
        let fault = early_reply_fault(&SwitchModel::fast_buggy(), cfg.seed);
        let registry = Arc::new(Registry::new());
        let outcome = run_tcp_soak(&cfg, &fault, &registry);
        let r = &outcome.record;
        assert_eq!(r.completed, 6, "{r:?}");
        assert_eq!(r.false_acks, 0, "{r:?}");
        assert_eq!(r.missed_acks, 0, "{r:?}");
        assert_eq!(outcome.per_session_orders.len(), 6);
        for order in &outcome.per_session_orders {
            assert_eq!(order, &vec![1, 2]);
        }
    }
}
