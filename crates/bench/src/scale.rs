//! The 1,000-switch scale layer: the sharded proxy serving a large switch
//! fleet on both drivers of the shared behaviour engine.
//!
//! The classic scenario matrix proves soundness on a 3-switch chain; this
//! module proves the same zero-false-acks claim **at fleet scale**.  The
//! topology is a ring of `n` switches (port 1 towards the predecessor,
//! port 2 towards the successor), every switch runs the early-barrier-reply
//! adversary, and the plan installs rules spread across the whole fleet —
//! every rule forwards to its switch's ring successor, where the probing
//! technique's catch rule observes it.  The update starts only once all `n`
//! connections are attached (both drivers gate on that), so the measured
//! run really is `n` concurrent switches behind one sharded engine.
//!
//! Verdicts are classified per rule against **that rule's own switch**
//! ground truth and flow through the registry under
//! `scale.{driver}.{n}.{fault}.{technique}.*` — the same delta-read pattern
//! the classic matrix uses, in a distinct namespace so live telemetry can
//! tell the fleet runs apart from the chain runs.
//!
//! The fleet itself is `crate::fleet`'s ring and the run is the matrix's
//! single-session cell; this module adds what fleet size brings: the
//! fleet-wide plan, the fixed sharding, and the engine's per-switch confirm
//! orders handed to the conformance tests.

use crate::fleet::Topology;
use crate::scenario_matrix::{run_cell, CellRun, Driver, MatrixCell, MatrixTechnique};
use crate::session_soak::{early_reply_fault, probing, run_soak, SoakConfig, SoakOutcome};
use controller::scenarios::COOKIE_NEW_RULE_BASE;
use controller::UpdatePlan;
use ofswitch::SwitchModel;
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use rum::{ProxyStats, SwitchPortMap};
use simnet::SimTime;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;
use telemetry::Registry;

/// Ring port towards the predecessor switch.
pub const RING_IN_PORT: u16 = 1;
/// Ring port towards the successor switch (the output port of every rule).
pub const RING_OUT_PORT: u16 = 2;

/// Engine shards of every scale run.  Fixed (not derived from the host's
/// core count) so the shard striping — and with it the per-switch timer and
/// xid streams — is identical on every machine and both drivers.
pub const SCALE_SHARDS: usize = 8;

/// Port maps of an `n`-switch ring in proxy `SwitchId` space: switch `i`
/// reaches its predecessor through port 1 and its successor through port 2;
/// probes for `i` are injected via the predecessor's port 2.
pub fn ring_port_maps(n: usize) -> Vec<SwitchPortMap> {
    Topology::Ring(n).port_maps()
}

/// The fleet-wide plan: `rules_per_switch` rules per switch, id/cookie
/// `COOKIE_NEW_RULE_BASE + k` (disjoint from the preinstalled drop-all),
/// each in its own `10.x.y.z` match space and forwarding out the ring
/// towards its successor.  Rule `k` targets switch `k % n`, so every switch
/// in the fleet carries plan load.
pub fn scale_plan(n_switches: usize, rules_per_switch: usize) -> UpdatePlan {
    assert!(rules_per_switch < 255, "per-switch rule space is one /24");
    let mut plan = UpdatePlan::new();
    for (k, (sw, r)) in (0..rules_per_switch)
        .flat_map(|r| (0..n_switches).map(move |sw| (sw, r)))
        .enumerate()
    {
        let id = COOKIE_NEW_RULE_BASE + k as u64;
        plan.add(
            id,
            sw,
            FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, (sw >> 8) as u8, (sw & 0xff) as u8, r as u8 + 1),
                    Ipv4Addr::new(10, 200, 0, 1),
                ),
                controller::scenarios::FLOW_RULE_PRIORITY,
                vec![Action::output(RING_OUT_PORT)],
            ),
        )
        .expect("scale plan ids are unique");
    }
    plan
}

/// One fleet-scale run's artefacts: the matrix verdict plus the engine-side
/// per-switch confirm orders, which the conformance tests compare
/// byte-for-byte against the single-engine oracle in virtual time and as
/// per-switch sets across drivers.
#[derive(Debug)]
pub struct ScaleCellOutcome {
    /// The classified verdict row (`switches` included).
    pub cell: MatrixCell,
    /// `per_switch_orders[i]` = the cookies switch `i` confirmed, in the
    /// order the engine confirmed them.
    pub per_switch_orders: Vec<Vec<u64>>,
    /// The simulator engine's statistics summed over the fleet (`None` over
    /// TCP).
    pub engine_stats: Option<ProxyStats>,
    /// Events the simulator processed (`None` over TCP).
    pub events_processed: Option<u64>,
}

/// Runs the fleet-scale cell on the simulator driver with the default
/// [`SCALE_SHARDS`] sharding.
pub fn run_simnet_scale_cell(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    registry: &Registry,
) -> ScaleCellOutcome {
    run_simnet_scale_cell_with(n_switches, rules_per_switch, seed, SCALE_SHARDS, registry)
}

/// Runs the fleet-scale cell on the simulator driver: an `n`-switch ring of
/// early-reply adversaries (hp5406zl timings) behind the engine split into
/// `shards` shards, under general probing.  `shards = 1` is the unsharded
/// oracle.
pub fn run_simnet_scale_cell_with(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    shards: usize,
    registry: &Registry,
) -> ScaleCellOutcome {
    scale_cell(
        Driver::Simnet,
        n_switches,
        rules_per_switch,
        seed,
        shards,
        registry,
    )
}

/// Wall-clock completion budget of a TCP scale run, after all connections
/// are attached.  A 1,000-switch run completes in about 0.25 s (measured at
/// PR 17; it took ~30 s before PR 14's probe routing and table index), so
/// the budget is generous — it is only a deadline, never part of any
/// measurement.
fn scale_budget(n_switches: usize) -> Duration {
    Duration::from_secs(15) + Duration::from_millis(60) * n_switches as u32
}

/// Runs the fleet-scale cell on the real-socket driver: `n` fabric-ringed
/// switch hosts (fast_buggy early-reply adversaries), the sharded
/// event-loop proxy at [`SCALE_SHARDS`], and a `TcpUpdateController` that
/// starts the update only once the whole fleet is attached.
pub fn run_tcp_scale_cell(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    registry: &Registry,
) -> ScaleCellOutcome {
    scale_cell(
        Driver::Tcp,
        n_switches,
        rules_per_switch,
        seed,
        SCALE_SHARDS,
        registry,
    )
}

/// Every switch runs the early-reply adversary under general probing — the
/// technique the paper proves never acknowledges falsely, and the only one
/// whose per-switch claim honestly involves the whole attached fleet.
fn scale_cell(
    driver: Driver,
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    shards: usize,
    registry: &Registry,
) -> ScaleCellOutcome {
    let fault = early_reply_fault(&driver.base_model(), seed);
    let plan = scale_plan(n_switches, rules_per_switch);
    let technique = MatrixTechnique::Rum(probing(&fault.model, plan.len().max(1)));
    let run = CellRun {
        technique: &technique,
        fault: &fault,
        topology: Topology::Ring(n_switches),
        shards,
        plan,
        horizon: SimTime::from_secs(120),
        budget: scale_budget(n_switches),
    };
    let (cell, read_back) = run_cell(driver, run, seed, registry);
    ScaleCellOutcome {
        cell,
        per_switch_orders: read_back.confirmed_orders,
        engine_stats: read_back.engine_stats,
        events_processed: read_back.events_processed,
    }
}

/// The multi-tenant session soak over the sharded proxy at fleet scale:
/// tenant `t` targets switch `t % n` of an `n`-switch early-reply ring, so
/// the whole fleet carries tenant load concurrently.  Confirmations are
/// judged per tenant against the **target switch's** ground truth; the
/// record carries `switches = n`.
pub fn run_tcp_scale_soak(
    cfg: &SoakConfig,
    n_switches: usize,
    registry: &Arc<Registry>,
) -> SoakOutcome {
    let fault = early_reply_fault(&SwitchModel::fast_buggy(), cfg.seed);
    let topology = Topology::Ring(n_switches);
    run_soak(Driver::Tcp, cfg, &fault, topology, SCALE_SHARDS, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum::SwitchId;

    /// Ring maps are closed, consistent and injectable: every switch sees
    /// its predecessor on port 1, its successor on port 2, and probes ride
    /// in through the predecessor's out-port.
    #[test]
    fn ring_port_maps_are_consistent() {
        let maps = ring_port_maps(5);
        assert_eq!(maps.len(), 5);
        for (i, map) in maps.iter().enumerate() {
            let prev = SwitchId::new((i + 4) % 5);
            let next = SwitchId::new((i + 1) % 5);
            assert_eq!(map.port_to_switch[&RING_IN_PORT], prev);
            assert_eq!(map.port_to_switch[&RING_OUT_PORT], next);
            assert_eq!(map.inject_via, Some((prev, RING_OUT_PORT)));
        }
        // The two-switch ring degenerates to a pair wired both ways.
        let pair = ring_port_maps(2);
        assert_eq!(pair[0].port_to_switch[&RING_OUT_PORT], SwitchId::new(1));
        assert_eq!(pair[1].port_to_switch[&RING_OUT_PORT], SwitchId::new(0));
    }

    /// The fleet plan spreads rules round-robin across switches with unique
    /// cookies disjoint from the preinstalled drop-all.
    #[test]
    fn scale_plan_spreads_rules_across_the_fleet() {
        let plan = scale_plan(4, 2);
        assert_eq!(plan.len(), 8);
        for (k, m) in plan.mods().iter().enumerate() {
            assert_eq!(m.id, COOKIE_NEW_RULE_BASE + k as u64);
            assert!(m.id > controller::scenarios::COOKIE_PREINSTALLED);
            assert_eq!(m.target, k % 4, "rule k lands on switch k % n");
            assert_eq!(m.flow_mod.cookie, m.id);
        }
    }

    /// A reduced-scale simnet fleet run: 8 early-reply switches behind the
    /// sharded engine, general probing, zero false and zero missed acks —
    /// with every switch (not just one device under test) carrying rules.
    #[test]
    fn simnet_scale_cell_is_sound_at_reduced_scale() {
        let registry = Registry::new();
        let out = run_simnet_scale_cell(8, 2, 42, &registry);
        let cell = &out.cell;
        assert_eq!(out.per_switch_orders.len(), 8);
        assert_eq!(
            out.per_switch_orders.iter().map(Vec::len).sum::<usize>(),
            16,
            "every planned rule appears in exactly one switch's confirm order"
        );
        assert_eq!(cell.switches, 8);
        assert_eq!(cell.planned, 16);
        assert_eq!(cell.false_acks, 0, "{cell:?}");
        assert_eq!(cell.missed_acks, 0, "{cell:?}");
        assert!(cell.completion_ms.is_some(), "{cell:?}");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["scale.simnet.8.early_reply.rum-general.false_acks"],
            0
        );
    }

    /// General probing's probe budget on the 64-switch early-reply ring
    /// (128 rules, seed 42, 8 shards): probes go out on evidence, not on
    /// every tick.  The evidence-driven schedule injects 1,920 probes here;
    /// the ceiling is that plus 25 %.  Probing every rule on arrival and
    /// re-probing rules newer than a returning probe injected 1,984;
    /// re-injecting every pending probe on every tick injected 3,712.
    #[test]
    fn simnet_scale_cell_keeps_its_probe_budget() {
        let registry = Registry::new();
        let out = run_simnet_scale_cell_with(64, 2, 42, SCALE_SHARDS, &registry);
        assert_eq!(out.cell.confirmed, 128, "{:?}", out.cell);
        let probes = out
            .engine_stats
            .expect("a simulator engine")
            .probes_injected;
        assert!(probes <= 2_400, "{probes} probes injected");
    }

    /// The 64-switch, 2-rule cell processes exactly 8,513 simulator events
    /// (the count a binary-heap queue gives): how the event queue stores and
    /// orders events must not add or drop a single one.
    #[test]
    fn simnet_scale_cell_processes_a_pinned_event_count() {
        let registry = Registry::new();
        let out = run_simnet_scale_cell_with(64, 2, 42, SCALE_SHARDS, &registry);
        assert_eq!(out.events_processed, Some(8_513), "{:?}", out.cell);
    }

    /// The same reduced-scale fleet over real sockets: 8 fabric-ringed
    /// early-reply hosts, the sharded event-loop proxy, still zero false
    /// and zero missed acks.
    #[test]
    fn tcp_scale_cell_is_sound_at_reduced_scale() {
        let registry = Registry::new();
        let out = run_tcp_scale_cell(8, 2, 42, &registry);
        let cell = &out.cell;
        assert_eq!(out.per_switch_orders.len(), 8);
        assert_eq!(cell.switches, 8);
        assert_eq!(cell.planned, 16);
        assert_eq!(cell.false_acks, 0, "{cell:?}");
        assert_eq!(cell.missed_acks, 0, "{cell:?}");
        assert!(cell.completion_ms.is_some(), "{cell:?}");
        assert_eq!(out.events_processed, None);
    }

    /// The fleet-scale soak at reduced scale: tenants spread across an
    /// 8-switch buggy ring, zero false / missed / stray acks.
    #[test]
    fn tcp_scale_soak_is_sound_at_reduced_scale() {
        let cfg = SoakConfig {
            sessions: 12,
            mods_per_session: 2,
            budget: Duration::from_secs(20),
            global_window: 8,
            ..SoakConfig::default()
        };
        let registry = Arc::new(Registry::new());
        let outcome = run_tcp_scale_soak(&cfg, 8, &registry);
        let r = &outcome.record;
        assert_eq!(r.switches, 8, "{r:?}");
        assert_eq!(r.completed, 12, "{r:?}");
        assert_eq!(r.false_acks, 0, "{r:?}");
        assert_eq!(r.missed_acks, 0, "{r:?}");
        assert_eq!(r.stray_acks, 0, "{r:?}");
    }
}
