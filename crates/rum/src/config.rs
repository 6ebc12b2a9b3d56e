//! Configuration of the RUM layer, and the [`RumBuilder`] fluent API that
//! produces it.
//!
//! Deployments construct an engine like this:
//!
//! ```
//! use rum::{RumBuilder, TechniqueConfig};
//!
//! let engine = RumBuilder::new(3)
//!     .technique(TechniqueConfig::default_sequential())
//!     .fine_grained_acks(true)
//!     .probe_links(&[(0, 1), (1, 2)])
//!     .build_config();
//! assert_eq!(engine.n_switches(), 3);
//! ```
//!
//! Barriers are always reliable: a controller's `BarrierReply` is held until
//! every modification before it is confirmed.  The configuration is the
//! whole deployment's: which shard of a [`crate::ShardedEngine`] owns a
//! switch is decided by [`crate::ShardRouter::shard_of`] alone.

use crate::coloring::assign_probe_colors;
use crate::engine::{RumEngine, SwitchId};
use openflow::PortNo;
use std::collections::HashMap;
use std::time::Duration;

/// The reserved "pre-probe" DSCP value carried by freshly injected sequential
/// probes (paper §3.2.1: `H1 == preprobe`).  Expressed as a full ToS byte.
pub const PREPROBE_TOS: u8 = 0xFC;

/// First ToS byte used for per-switch probe-catch values; switch colours map
/// to `CATCH_TOS_BASE - 4 * colour` so they never collide with the pre-probe
/// value and stay within the 64 DSCP codepoints.
pub const CATCH_TOS_BASE: u8 = 0xF8;

/// The largest fleet that can hold a globally unique catch codepoint per
/// switch (`CATCH_TOS_BASE / 4` usable DSCP values).  Beyond this the
/// deployment must share codepoints via vertex colouring over the monitored
/// topology (paper §3.2.2) — [`RumBuilder`] derives that colouring from the
/// port maps automatically when no explicit plan is given.
pub const MAX_UNIQUE_CATCH_SWITCHES: usize = (CATCH_TOS_BASE / 4) as usize;

/// Priority of the probe-catch rule RUM installs on every switch.
pub const CATCH_RULE_PRIORITY: u16 = 65_535;
/// Priority of the versioned sequential-probing rule.
pub const PROBE_RULE_PRIORITY: u16 = 65_534;

/// Which acknowledgment technique a RUM instance runs, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TechniqueConfig {
    /// Trust the switch's barrier replies (the unreliable baseline).
    BarrierBaseline,
    /// Confirm a fixed delay after the switch's barrier reply.
    StaticTimeout {
        /// The delay added after each barrier reply.
        delay: Duration,
    },
    /// Estimate data-plane activation from an assumed modification rate.
    AdaptiveDelay {
        /// Assumed switch modification rate (rules per second).
        assumed_rate: f64,
        /// Assumed worst-case control-to-data-plane synchronisation lag.
        assumed_sync_lag: Duration,
    },
    /// Versioned probe rule confirming whole batches (requires the switch not
    /// to reorder modifications across barriers).
    SequentialProbing {
        /// Real modifications per probe-rule version bump.
        batch_size: usize,
        /// How often probes are injected while confirmations are outstanding.
        probe_interval: Duration,
    },
    /// Per-rule probe packets; works even on reordering switches.
    GeneralProbing {
        /// How often the tick re-probes: the oldest pending rule (the
        /// canary) and every pending rule older than the switch's predicted
        /// lag (the shortest arrival → confirm time seen, `fallback_delay`
        /// before the first).  A confirming return re-probes, once, every
        /// pending rule whose last probe predates the confirmed rule's last
        /// injection.
        probe_interval: Duration,
        /// At most this many oldest unconfirmed rules are probed per round —
        /// a tick, or the re-probe a confirming return starts (the paper
        /// probes "up to 30 oldest flow modifications at once").
        max_outstanding: usize,
        /// Confirmation delay used when no distinguishing probe exists.
        fallback_delay: Duration,
    },
}

impl TechniqueConfig {
    /// The paper's default parameters for each technique.
    pub fn default_sequential() -> Self {
        TechniqueConfig::SequentialProbing {
            batch_size: 10,
            probe_interval: Duration::from_millis(10),
        }
    }

    /// The paper's default parameters for general probing.
    pub fn default_general() -> Self {
        TechniqueConfig::GeneralProbing {
            probe_interval: Duration::from_millis(10),
            max_outstanding: 30,
            fallback_delay: Duration::from_millis(300),
        }
    }

    /// A short name used in experiment reports.
    pub fn label(&self) -> &'static str {
        match self {
            TechniqueConfig::BarrierBaseline => "barriers",
            TechniqueConfig::StaticTimeout { .. } => "timeout",
            TechniqueConfig::AdaptiveDelay { .. } => "adaptive",
            TechniqueConfig::SequentialProbing { .. } => "sequential",
            TechniqueConfig::GeneralProbing { .. } => "general",
        }
    }

    /// True for the data-plane probing techniques.
    pub fn is_probing(&self) -> bool {
        matches!(
            self,
            TechniqueConfig::SequentialProbing { .. } | TechniqueConfig::GeneralProbing { .. }
        )
    }
}

/// What RUM knows about one monitored switch's place in the topology.
///
/// This is configuration a network operator derives from the topology (or
/// RUM could learn via LLDP); the probing techniques need it to pick probe
/// injection points and to know which neighbour will catch a probe forwarded
/// out of a given port.  Deliberately deployment-agnostic: switches are
/// identified by [`SwitchId`], never by simulator nodes or sockets.
#[derive(Debug, Clone, Default)]
pub struct SwitchPortMap {
    /// For each local port: the monitored switch reachable through that port.
    pub port_to_switch: HashMap<PortNo, SwitchId>,
    /// A neighbour to inject probes through: `(neighbour switch, the port on
    /// that neighbour that leads to this switch)`.
    pub inject_via: Option<(SwitchId, PortNo)>,
}

impl SwitchPortMap {
    /// The neighbouring monitored switch reached through `port`, if any.
    pub fn next_hop(&self, port: PortNo) -> Option<SwitchId> {
        self.port_to_switch.get(&port).copied()
    }

    /// True when no topology knowledge has been configured at all (the
    /// simulator driver fills such slots in from its topology).
    pub fn is_unspecified(&self) -> bool {
        self.port_to_switch.is_empty() && self.inject_via.is_none()
    }
}

/// The plan for which header field carries probe identifiers and which values
/// are reserved for RUM (paper §3.2.2 "Reducing the number of switch-specific
/// values").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFieldPlan {
    /// The ToS byte of freshly injected (pre-probe) packets.
    pub preprobe_tos: u8,
    /// Per-switch probe-catch ToS byte (index = switch index).
    catch_tos: Vec<u8>,
    /// The DSCP codepoints (`tos >> 2`) in `catch_tos`, one bit each: every
    /// forwarded PacketIn is tested against it, whatever the fleet size.
    catch_dscps: u64,
}

impl ProbeFieldPlan {
    /// Assigns catch values using vertex colouring over the monitored-switch
    /// adjacency so that adjacent switches always differ, then maps colours to
    /// DSCP codepoints.
    pub fn from_links(links: &[(usize, usize)], n_switches: usize) -> Self {
        let colors = assign_probe_colors(links, n_switches);
        let catch_tos: Vec<u8> = colors
            .iter()
            .map(|&c| {
                let v = CATCH_TOS_BASE as i32 - 4 * c as i32;
                assert!(v > 0, "ran out of DSCP codepoints for probe colours");
                v as u8
            })
            .collect();
        let catch_dscps = catch_tos.iter().fold(0, |set, &c| set | 1u64 << (c >> 2));
        ProbeFieldPlan {
            preprobe_tos: PREPROBE_TOS,
            catch_tos,
            catch_dscps,
        }
    }

    /// Assigns a globally unique value per switch (no colouring), as the
    /// simple variant of the paper does.
    pub fn unique_per_switch(n_switches: usize) -> Self {
        Self::from_links(
            &(0..n_switches)
                .flat_map(|a| (a + 1..n_switches).map(move |b| (a, b)))
                .collect::<Vec<_>>(),
            n_switches,
        )
    }

    /// The catch value of `switch`.
    pub fn catch_tos(&self, switch: SwitchId) -> u8 {
        self.catch_tos[switch.index()]
    }

    /// Every switch's catch value (index = switch index).
    pub fn catch_values(&self) -> &[u8] {
        &self.catch_tos
    }

    /// True if `tos` is one of the values reserved by RUM (pre-probe or any
    /// catch value), i.e. a packet carrying it is a probe, not user traffic.
    pub fn is_probe_tos(&self, tos: u8) -> bool {
        tos & 0xfc == self.preprobe_tos & 0xfc || self.catch_dscps >> (tos >> 2) & 1 != 0
    }

    /// True if the Ethernet frame `data` carries a reserved ToS value —
    /// decided from that one byte, without parsing the frame.
    pub fn marks(&self, data: &[u8]) -> bool {
        self.is_probe_tos(openflow::PacketHeader::peek_nw_tos(data))
    }

    /// The switch whose catch value is `tos`, if any.
    pub fn switch_for_catch_tos(&self, tos: u8) -> Option<SwitchId> {
        self.catch_tos
            .iter()
            .position(|&c| c & 0xfc == tos & 0xfc)
            .map(SwitchId::new)
    }
}

/// Where a returning probe can have come from: the reverse of the port maps.
///
/// A probe for a rule on switch *S* leaves *S* through one of its ports and
/// is punted by the catch rule of the switch *N* behind that port.  So a
/// probe-marked PacketIn from *N* concerns only the techniques of switches
/// with a port leading to *N* — and, when *N*'s own port map says which
/// switch sits behind the port the packet arrived on, only that one.
/// Offering the probe to anyone else is not merely wasted work: catch
/// codepoints and probe-id bands are shared across a large fleet, so a
/// distant switch with an identical pending rule would take the probe as
/// proof of its own rule.
#[derive(Debug, Clone)]
pub(crate) struct ProbeSources {
    /// Per catch switch: the switches with a port leading to it, ascending.
    upstream: Vec<Vec<SwitchId>>,
    /// Per catch switch: its own port map, as a sorted list.
    behind_port: Vec<Vec<(PortNo, SwitchId)>>,
}

impl ProbeSources {
    pub(crate) fn new(port_maps: &[SwitchPortMap]) -> Self {
        let mut upstream = vec![Vec::new(); port_maps.len()];
        for (sender, map) in port_maps.iter().enumerate() {
            let sender = SwitchId::new(sender);
            for catch in map.port_to_switch.values() {
                // Senders arrive in ascending order, so each list stays
                // sorted and a repeat is always the last element.
                if let Some(list) = upstream.get_mut(catch.index()) {
                    if list.last() != Some(&sender) {
                        list.push(sender);
                    }
                }
            }
        }
        let behind_port = port_maps
            .iter()
            .map(|map| {
                let mut ports: Vec<_> = map.port_to_switch.iter().map(|(&p, &s)| (p, s)).collect();
                ports.sort_unstable();
                ports
            })
            .collect();
        ProbeSources {
            upstream,
            behind_port,
        }
    }

    /// The switches with a port leading to `catch`, ascending.
    pub(crate) fn upstream(&self, catch: SwitchId) -> &[SwitchId] {
        self.upstream.get(catch.index()).map_or(&[], Vec::as_slice)
    }

    /// The switch `catch`'s port map places behind its port `in_port`.
    pub(crate) fn behind(&self, catch: SwitchId, in_port: PortNo) -> Option<SwitchId> {
        let ports = self.behind_port.get(catch.index())?;
        let at = ports.binary_search_by_key(&in_port, |&(p, _)| p).ok()?;
        Some(ports[at].1)
    }

    /// The techniques a probe punted by `catch`, having arrived there on
    /// `in_port`, is offered to: [`ProbeSources::upstream`], narrowed to the
    /// sender when the port identifies it.
    pub(crate) fn candidates(&self, catch: SwitchId, in_port: PortNo) -> &[SwitchId] {
        let upstream = self.upstream(catch);
        match self.behind(catch, in_port) {
            None => upstream,
            Some(sender) => match upstream.binary_search(&sender) {
                Ok(at) => &upstream[at..=at],
                Err(_) => &[],
            },
        }
    }
}

/// Configuration of a whole RUM deployment (one instance monitoring a set of
/// switches on behalf of one controller).  Built through [`RumBuilder`].
#[derive(Debug, Clone)]
pub struct RumConfig {
    /// The acknowledgment technique to run.
    pub technique: TechniqueConfig,
    /// Send fine-grained per-rule acknowledgments (reserved error code) to
    /// the controller, for RUM-aware controllers.
    pub fine_grained_acks: bool,
    /// Buffer controller commands that follow an unconfirmed barrier and
    /// release them only after the barrier is acknowledged (needed for
    /// switches that reorder across barriers).
    pub buffer_across_barriers: bool,
    /// Record every confirmation (switch, cookie) in order, for post-run
    /// inspection.  Disable in long-running deployments to keep memory flat.
    pub record_confirmations: bool,
    /// Per-switch topology knowledge (index = switch index).
    pub port_maps: Vec<SwitchPortMap>,
    /// Header-field plan for probing.
    pub probe_plan: ProbeFieldPlan,
    /// The telemetry registry engine statistics are published into.  `None`
    /// gives the engine a private registry — the stats surface is identical
    /// either way; pass a shared registry to expose a deployment through
    /// `telemetry::serve` alongside other components.
    pub metrics: Option<std::sync::Arc<telemetry::Registry>>,
}

impl RumConfig {
    /// Number of monitored switches.
    pub fn n_switches(&self) -> usize {
        self.port_maps.len()
    }

    /// Starts a fluent builder for `n_switches` monitored switches.
    pub fn builder(n_switches: usize) -> RumBuilder {
        RumBuilder::new(n_switches)
    }
}

/// Fluent construction of a RUM deployment configuration (and engine).
///
/// Defaults match the paper's deployment: fine-grained acks on, no
/// cross-barrier buffering, one unique probe-catch value per switch, and
/// empty port maps (the simulator driver derives them from its topology;
/// other deployments set them explicitly via [`RumBuilder::port_map`]).
#[derive(Debug, Clone)]
pub struct RumBuilder {
    config: RumConfig,
    shards: usize,
    /// True while the probe plan is still the placeholder of a fleet too
    /// large for unique codepoints: the real plan is coloured from the
    /// port-map adjacency when the deployment is built.
    derive_probe_plan: bool,
}

impl RumBuilder {
    /// A builder for a deployment monitoring `n_switches` switches.
    ///
    /// Fleets up to [`MAX_UNIQUE_CATCH_SWITCHES`] default to one globally
    /// unique probe-catch codepoint per switch.  Larger fleets cannot — the
    /// DSCP space has 62 usable values — so their default plan is derived at
    /// build time by colouring the adjacency the port maps describe
    /// (adjacent switches always end up with distinct values, which is the
    /// only property probing soundness needs).  An explicit
    /// [`RumBuilder::probe_plan`] / [`RumBuilder::probe_links`] call always
    /// wins over both defaults.
    pub fn new(n_switches: usize) -> Self {
        let derive_probe_plan = n_switches > MAX_UNIQUE_CATCH_SWITCHES;
        let probe_plan = if derive_probe_plan {
            // Placeholder (every switch the same colour) — replaced by the
            // topology-derived colouring in `finalise`.
            ProbeFieldPlan::from_links(&[], n_switches)
        } else {
            ProbeFieldPlan::unique_per_switch(n_switches)
        };
        RumBuilder {
            shards: 1,
            derive_probe_plan,
            config: RumConfig {
                technique: TechniqueConfig::BarrierBaseline,
                fine_grained_acks: true,
                buffer_across_barriers: false,
                record_confirmations: true,
                port_maps: vec![SwitchPortMap::default(); n_switches],
                probe_plan,
                metrics: None,
            },
        }
    }

    /// Splits the deployment into `n` shards for [`RumBuilder::build_sharded`]
    /// (default 1: the classic single-engine path, kept as the conformance
    /// oracle), each owning a contiguous run of switch indices (see
    /// [`crate::ShardRouter::shard_of`]).  [`RumBuilder::build`] ignores
    /// this and always produces the unsharded engine.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "a deployment needs at least one shard");
        self.shards = n;
        self
    }

    /// The shard count configured via [`RumBuilder::shards`].
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Selects the acknowledgment technique (default: barrier baseline).
    pub fn technique(mut self, technique: TechniqueConfig) -> Self {
        self.config.technique = technique;
        self
    }

    /// Whether to send fine-grained per-rule acknowledgments.
    pub fn fine_grained_acks(mut self, on: bool) -> Self {
        self.config.fine_grained_acks = on;
        self
    }

    /// Whether to buffer commands that follow an unconfirmed barrier.
    pub fn buffer_across_barriers(mut self, on: bool) -> Self {
        self.config.buffer_across_barriers = on;
        self
    }

    /// Whether to keep the in-order confirmation log
    /// ([`RumEngine::confirmed_order`]).  On by default; turn it off for
    /// long-running deployments where the log would grow without bound.
    ///
    /// The log holds one 32-byte [`crate::engine::ConfirmRecord`] per
    /// confirmed modification, and on a flow-mod blast it is most of the
    /// proxy's memory: the benchmark's `wire_blast` peaks at ~115 MB RSS with
    /// it and ~20 MB without.  It stays on by default because the
    /// cross-driver and technique tests read `confirmed_order` and
    /// `confirmed_order_for` from engines built with the default builder.
    pub fn record_confirmations(mut self, on: bool) -> Self {
        self.config.record_confirmations = on;
        self
    }

    /// Sets the topology knowledge for one switch.
    pub fn port_map(mut self, switch: SwitchId, map: SwitchPortMap) -> Self {
        self.config.port_maps[switch.index()] = map;
        self
    }

    /// Replaces all port maps at once (must match the switch count).
    pub fn port_maps(mut self, maps: Vec<SwitchPortMap>) -> Self {
        assert_eq!(
            maps.len(),
            self.config.port_maps.len(),
            "one port map per monitored switch"
        );
        self.config.port_maps = maps;
        self
    }

    /// Replaces only the port maps the caller left unspecified.  Drivers
    /// that derive topology knowledge themselves (e.g. the simulator
    /// deployment) use this before building, so the probe-plan colouring of
    /// a large fleet sees the completed adjacency rather than the gaps.
    pub fn fill_unspecified_port_maps(mut self, derived: Vec<SwitchPortMap>) -> Self {
        assert_eq!(
            derived.len(),
            self.config.port_maps.len(),
            "one derived port map per monitored switch"
        );
        for (slot, map) in self.config.port_maps.iter_mut().zip(derived) {
            if slot.is_unspecified() {
                *slot = map;
            }
        }
        self
    }

    /// Publishes engine statistics into `registry` (counters and the
    /// unconfirmed gauge under `rum.sw{i}.*`, confirm latency under
    /// `rum.sw{i}.confirm_latency_us`).  Without this the engine uses a
    /// private registry, so `RumEngine::stats` behaves the same either way.
    pub fn metrics(mut self, registry: std::sync::Arc<telemetry::Registry>) -> Self {
        self.config.metrics = Some(registry);
        self
    }

    /// Uses an explicit probe-field plan.
    pub fn probe_plan(mut self, plan: ProbeFieldPlan) -> Self {
        assert_eq!(
            plan.catch_tos.len(),
            self.config.port_maps.len(),
            "one catch value per monitored switch"
        );
        self.config.probe_plan = plan;
        self.derive_probe_plan = false;
        self
    }

    /// Derives the probe-field plan from the monitored-switch adjacency via
    /// vertex colouring (adjacent switches get distinct catch values).
    pub fn probe_links(self, links: &[(usize, usize)]) -> Self {
        let n = self.config.port_maps.len();
        self.probe_plan(ProbeFieldPlan::from_links(links, n))
    }

    /// Resolves the deferred probe plan of a large fleet: colour the
    /// adjacency the port maps describe so adjacent switches get distinct
    /// catch codepoints.  Both directions of every port mapping and the
    /// inject-via neighbour count as adjacency; links are collected in
    /// sorted order (and the colouring itself is BTree-ordered), so the
    /// derived plan is identical across drivers and runs for the same maps.
    fn finalise(mut self) -> RumConfig {
        if self.derive_probe_plan {
            let n = self.config.port_maps.len();
            let mut links: Vec<(usize, usize)> = Vec::new();
            for (i, map) in self.config.port_maps.iter().enumerate() {
                for &neighbour in map.port_to_switch.values() {
                    links.push((i, neighbour.index()));
                }
                if let Some((neighbour, _)) = map.inject_via {
                    links.push((i, neighbour.index()));
                }
            }
            links.sort_unstable();
            links.dedup();
            self.config.probe_plan = ProbeFieldPlan::from_links(&links, n);
        }
        self.config
    }

    /// Finishes the configuration.
    pub fn build_config(self) -> RumConfig {
        self.finalise()
    }

    /// Builds a ready-to-drive [`RumEngine`].
    ///
    /// # Panics
    ///
    /// See [`RumEngine::new`]: sequential probing requires each port map to
    /// name at least one monitored neighbour.
    pub fn build(self) -> RumEngine {
        RumEngine::new(self.finalise())
    }

    /// Builds a [`crate::ShardedEngine`] with the shard count configured via
    /// [`RumBuilder::shards`].  With one shard this is exactly the engine
    /// [`RumBuilder::build`] produces, wrapped.
    ///
    /// # Panics
    ///
    /// See [`RumEngine::new`].
    pub fn build_sharded(self) -> crate::ShardedEngine {
        let shards = self.shards;
        crate::ShardedEngine::new(self.finalise(), shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_labels_and_defaults() {
        assert_eq!(TechniqueConfig::BarrierBaseline.label(), "barriers");
        assert_eq!(TechniqueConfig::default_sequential().label(), "sequential");
        assert_eq!(TechniqueConfig::default_general().label(), "general");
        assert!(TechniqueConfig::default_general().is_probing());
        assert!(!TechniqueConfig::BarrierBaseline.is_probing());
        match TechniqueConfig::default_sequential() {
            TechniqueConfig::SequentialProbing { batch_size, .. } => assert_eq!(batch_size, 10),
            _ => panic!(),
        }
    }

    #[test]
    fn probe_plan_assigns_distinct_values_to_adjacent_switches() {
        // Triangle: all three adjacent.
        let plan = ProbeFieldPlan::from_links(&[(0, 1), (1, 2), (0, 2)], 3);
        let sw = |i| SwitchId::new(i);
        assert_ne!(plan.catch_tos(sw(0)), plan.catch_tos(sw(1)));
        assert_ne!(plan.catch_tos(sw(1)), plan.catch_tos(sw(2)));
        assert_ne!(plan.catch_tos(sw(0)), plan.catch_tos(sw(2)));
        for i in 0..3 {
            assert_ne!(plan.catch_tos(sw(i)) & 0xfc, PREPROBE_TOS & 0xfc);
            assert!(plan.is_probe_tos(plan.catch_tos(sw(i))));
            assert_eq!(
                plan.switch_for_catch_tos(plan.catch_tos(sw(i))),
                Some(sw(i))
            );
        }
        assert!(plan.is_probe_tos(PREPROBE_TOS));
        assert!(!plan.is_probe_tos(0x00));
        assert_eq!(plan.switch_for_catch_tos(0x04), None);
    }

    #[test]
    fn probe_plan_reuses_colors_on_a_path() {
        // A path of 5 switches is 2-colourable, so only 2 catch values are
        // needed even though there are 5 switches.
        let plan = ProbeFieldPlan::from_links(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5);
        let distinct: std::collections::BTreeSet<u8> = plan.catch_tos.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
        // Adjacent still differ.
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            assert_ne!(
                plan.catch_tos(SwitchId::new(a)),
                plan.catch_tos(SwitchId::new(b))
            );
        }
    }

    #[test]
    fn unique_per_switch_gives_all_distinct() {
        let plan = ProbeFieldPlan::unique_per_switch(4);
        let distinct: std::collections::BTreeSet<u8> = plan.catch_tos.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn port_map_next_hop() {
        let mut m = SwitchPortMap::default();
        assert!(m.is_unspecified());
        m.port_to_switch.insert(2, SwitchId::new(1));
        assert!(!m.is_unspecified());
        assert_eq!(m.next_hop(2), Some(SwitchId::new(1)));
        assert_eq!(m.next_hop(3), None);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let cfg = RumBuilder::new(3)
            .technique(TechniqueConfig::default_sequential())
            .buffer_across_barriers(true)
            .fine_grained_acks(false)
            .build_config();
        assert_eq!(cfg.n_switches(), 3);
        assert!(!cfg.fine_grained_acks);
        assert!(cfg.buffer_across_barriers);
        assert_eq!(cfg.technique.label(), "sequential");
        assert_eq!(RumConfig::builder(2).build_config().n_switches(), 2);
    }

    #[test]
    fn builder_probe_links_colour_the_plan() {
        let cfg = RumBuilder::new(3)
            .probe_links(&[(0, 1), (1, 2)])
            .build_config();
        // A path is 2-colourable: ends share a value, middle differs.
        assert_eq!(
            cfg.probe_plan.catch_tos(SwitchId::new(0)),
            cfg.probe_plan.catch_tos(SwitchId::new(2))
        );
        assert_ne!(
            cfg.probe_plan.catch_tos(SwitchId::new(0)),
            cfg.probe_plan.catch_tos(SwitchId::new(1))
        );
    }

    #[test]
    #[should_panic(expected = "one port map per monitored switch")]
    fn builder_rejects_wrong_port_map_count() {
        RumBuilder::new(3).port_maps(vec![SwitchPortMap::default(); 2]);
    }

    fn ring_maps(n: usize) -> Vec<SwitchPortMap> {
        (0..n)
            .map(|i| {
                let prev = SwitchId::new((i + n - 1) % n);
                let next = SwitchId::new((i + 1) % n);
                let mut m = SwitchPortMap::default();
                m.port_to_switch.insert(1, prev);
                m.port_to_switch.insert(2, next);
                m.inject_via = Some((prev, 2));
                m
            })
            .collect()
    }

    #[test]
    fn large_fleets_derive_the_probe_plan_from_port_maps() {
        // More switches than DSCP codepoints: the builder must not panic and
        // must colour the catch values from the port-map adjacency so that
        // neighbours never share one.
        let n = MAX_UNIQUE_CATCH_SWITCHES + 938; // 1,000
        let cfg = RumBuilder::new(n).port_maps(ring_maps(n)).build_config();
        for i in 0..n {
            let next = (i + 1) % n;
            assert_ne!(
                cfg.probe_plan.catch_tos(SwitchId::new(i)),
                cfg.probe_plan.catch_tos(SwitchId::new(next)),
                "ring neighbours {i} and {next} share a catch value"
            );
        }
        // An even ring is 2-colourable.
        let distinct: std::collections::BTreeSet<u8> =
            cfg.probe_plan.catch_tos.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
        // Derivation is deterministic: an identical build yields an
        // identical plan (the cross-driver equality tests depend on this).
        let again = RumBuilder::new(n).port_maps(ring_maps(n)).build_config();
        assert_eq!(cfg.probe_plan.catch_tos, again.probe_plan.catch_tos);
    }

    #[test]
    fn explicit_probe_plan_suppresses_derivation() {
        let n = MAX_UNIQUE_CATCH_SWITCHES + 2;
        let plan = ProbeFieldPlan::from_links(&[(0, 1)], n);
        let expected = plan.catch_tos.clone();
        let cfg = RumBuilder::new(n)
            .probe_plan(plan)
            .port_maps(ring_maps(n))
            .build_config();
        assert_eq!(cfg.probe_plan.catch_tos, expected);
    }

    #[test]
    fn fill_unspecified_port_maps_only_fills_gaps() {
        let mut explicit = SwitchPortMap::default();
        explicit.port_to_switch.insert(7, SwitchId::new(2));
        let derived = ring_maps(3);
        let cfg = RumBuilder::new(3)
            .port_map(SwitchId::new(1), explicit)
            .fill_unspecified_port_maps(derived.clone())
            .build_config();
        // Slot 1 keeps the caller's map; slots 0 and 2 take the derived ones.
        assert_eq!(cfg.port_maps[1].next_hop(7), Some(SwitchId::new(2)));
        assert_eq!(cfg.port_maps[1].next_hop(1), None);
        assert_eq!(cfg.port_maps[0].next_hop(2), Some(SwitchId::new(1)));
        assert_eq!(cfg.port_maps[2].next_hop(1), Some(SwitchId::new(1)));
    }
}
