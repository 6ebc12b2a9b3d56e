//! Configuration of the RUM layer, and the [`RumBuilder`] fluent API that
//! produces it.
//!
//! Deployments configure one like this:
//!
//! ```
//! use rum::{RumBuilder, TechniqueConfig};
//!
//! let config = RumBuilder::new(3)
//!     .technique(TechniqueConfig::default_general())
//!     .fine_grained_acks(true)
//!     .build_config();
//! assert_eq!(config.n_switches(), 3);
//! ```
//!
//! Barriers are always reliable: a controller's `BarrierReply` is held until
//! every modification before it is confirmed.  The configuration is the
//! whole deployment's: which shard of a [`crate::ShardedEngine`] owns a
//! switch is decided by [`crate::ShardRouter::shard_of`] alone.

use crate::coloring::assign_probe_colors;
use crate::engine::{RumEngine, SwitchId};
use openflow::types::MAX_PROXY_SWITCHES;
use openflow::PortNo;
use std::collections::HashMap;
use std::sync::Arc;
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
/// topology (paper §3.2.2), derived from the port maps.
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
    /// Per-rule probe packets; works even on reordering switches.  A rule
    /// arriving on an idle switch is probed at once; one arriving behind a
    /// pending rule waits for a tick or a return round.
    GeneralProbing {
        /// How often the tick re-probes: the oldest pending rule (the
        /// canary) and every pending rule older than the switch's predicted
        /// lag (the shortest arrival → confirm time seen, `fallback_delay`
        /// before the first).  A confirming return re-probes, once, every
        /// pending rule that arrived before the confirmed rule's last
        /// injection and was not probed since.
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
    /// True when no topology knowledge has been configured at all (the
    /// simulator driver fills such slots in from its topology).
    pub fn is_unspecified(&self) -> bool {
        self.port_to_switch.is_empty() && self.inject_via.is_none()
    }
}

/// Where probes go in one deployment (paper §3.2): per monitored switch, the
/// ToS value its catch rule matches, the neighbour behind each of its ports,
/// the neighbour its probes are injected through, and the switches whose
/// probes its catch rule punts.
///
/// A probe for a rule on switch *S* leaves *S* through one of its ports and
/// is punted by the catch rule of the switch *N* behind that port, so a
/// probe-marked PacketIn from *N* concerns only the switches with a port
/// leading to *N* — and, when *N*'s own port map says which switch sits
/// behind the port the packet arrived on, only that one
/// ([`ProbeTopology::candidates`]).  Offering the probe to anyone else is
/// not merely wasted work: catch codepoints and probe-id bands are shared
/// across a large fleet, so a distant switch with an identical pending rule
/// would take the probe as proof of its own rule.
///
/// Built once by [`RumBuilder`] from the port maps and shared by `Arc` by the
/// shard router, every engine shard and the probing techniques.
#[derive(Debug)]
pub(crate) struct ProbeTopology {
    switches: Vec<ProbeSwitch>,
    /// The DSCP codepoints (`tos >> 2`) of the catch values, one bit each:
    /// every forwarded PacketIn is tested against it, whatever the fleet
    /// size.
    catch_dscps: u64,
}

/// One switch's entry in the [`ProbeTopology`].
#[derive(Debug)]
struct ProbeSwitch {
    catch_tos: u8,
    /// Its port map as a list sorted by port.
    ports: Vec<(PortNo, SwitchId)>,
    inject_via: Option<(SwitchId, PortNo)>,
    /// The switches with a port leading to this one, ascending.
    upstream: Vec<SwitchId>,
}

impl ProbeTopology {
    /// The topology of the switches `port_maps` describes (index = switch
    /// index).
    ///
    /// Catch values (paper §3.2.2, "Reducing the number of switch-specific
    /// values"): fleets up to [`MAX_UNIQUE_CATCH_SWITCHES`] get one unique
    /// codepoint per switch, the colouring of the complete graph.  Larger
    /// fleets colour the adjacency the port maps describe — both directions
    /// of every port and the inject-via neighbour, as a sorted link list —
    /// so adjacent switches always differ, which is the only property
    /// probing soundness needs, and equal maps give equal values on every
    /// driver and run.
    pub(crate) fn new(port_maps: &[SwitchPortMap]) -> Self {
        let n = port_maps.len();
        let mut switches: Vec<ProbeSwitch> = (port_maps.iter())
            .map(|map| {
                let mut ports: Vec<_> = map.port_to_switch.iter().map(|(&p, &s)| (p, s)).collect();
                ports.sort_unstable();
                ProbeSwitch {
                    catch_tos: 0,
                    ports,
                    inject_via: map.inject_via,
                    upstream: Vec::new(),
                }
            })
            .collect();
        let mut links: Vec<(usize, usize)> = Vec::new();
        for sender in 0..n {
            let id = SwitchId::new(sender);
            for k in 0..switches[sender].ports.len() {
                let catch = switches[sender].ports[k].1;
                links.push((sender, catch.index()));
                // Senders arrive in ascending order, so each list stays
                // sorted and a repeat is always the last element.
                if let Some(to) = switches.get_mut(catch.index()) {
                    if to.upstream.last() != Some(&id) {
                        to.upstream.push(id);
                    }
                }
            }
            if let Some((neighbour, _)) = switches[sender].inject_via {
                links.push((sender, neighbour.index()));
            }
        }
        let colours = if n <= MAX_UNIQUE_CATCH_SWITCHES {
            (0..n).collect()
        } else {
            links.sort_unstable();
            links.dedup();
            assign_probe_colors(&links, n)
        };
        let mut catch_dscps = 0u64;
        for (switch, colour) in switches.iter_mut().zip(colours) {
            let tos = (CATCH_TOS_BASE as usize)
                .checked_sub(4 * colour)
                .filter(|&tos| tos > 0)
                .expect("ran out of DSCP codepoints for probe colours");
            switch.catch_tos = tos as u8;
            catch_dscps |= 1 << (tos >> 2);
        }
        ProbeTopology {
            switches,
            catch_dscps,
        }
    }

    /// Number of monitored switches.
    pub(crate) fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// The ToS value `switch`'s catch rule matches.
    pub(crate) fn catch_tos(&self, switch: SwitchId) -> u8 {
        self.switches[switch.index()].catch_tos
    }

    /// True if the Ethernet frame `data` carries a value reserved by RUM
    /// (the pre-probe value or any catch value), i.e. is a probe, not user
    /// traffic — decided from the ToS byte alone, without parsing the frame.
    pub(crate) fn marks(&self, data: &[u8]) -> bool {
        let tos = openflow::PacketHeader::peek_nw_tos(data);
        tos & 0xfc == PREPROBE_TOS & 0xfc || self.catch_dscps >> (tos >> 2) & 1 != 0
    }

    /// `switch`'s port map as `(port, neighbour)` pairs sorted by port.
    pub(crate) fn ports(&self, switch: SwitchId) -> &[(PortNo, SwitchId)] {
        &self.switches[switch.index()].ports
    }

    /// The monitored switch behind `switch`'s `port`, if any.
    pub(crate) fn next_hop(&self, switch: SwitchId, port: PortNo) -> Option<SwitchId> {
        let ports = &self.switches.get(switch.index())?.ports;
        let at = ports.binary_search_by_key(&port, |&(p, _)| p).ok()?;
        Some(ports[at].1)
    }

    /// The neighbour `switch`'s probes are injected through, and the port
    /// on it that leads to `switch`.
    pub(crate) fn inject_via(&self, switch: SwitchId) -> Option<(SwitchId, PortNo)> {
        self.switches[switch.index()].inject_via
    }

    /// The switches whose probes a PacketIn punted by `catch`, having
    /// arrived there on `in_port`, can vouch for, ascending: every switch
    /// with a port leading to `catch`, narrowed to the one behind `in_port`
    /// when `catch`'s port map names one.
    pub(crate) fn candidates(&self, catch: SwitchId, in_port: PortNo) -> &[SwitchId] {
        let Some(entry) = self.switches.get(catch.index()) else {
            return &[];
        };
        let upstream = entry.upstream.as_slice();
        match self.next_hop(catch, in_port) {
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
    /// Where probes go: catch values, port maps and probe sources of every
    /// monitored switch.
    pub(crate) topology: Arc<ProbeTopology>,
    /// The telemetry registry engine statistics are published into.  `None`
    /// gives the engine a private registry — the stats surface is identical
    /// either way; pass a shared registry to expose a deployment through
    /// `telemetry::serve` alongside other components.
    pub metrics: Option<Arc<telemetry::Registry>>,
}

impl RumConfig {
    /// Number of monitored switches.
    pub fn n_switches(&self) -> usize {
        self.topology.n_switches()
    }

    /// Starts a fluent builder for `n_switches` monitored switches.
    pub fn builder(n_switches: usize) -> RumBuilder {
        RumBuilder::new(n_switches)
    }
}

/// Fluent construction of a RUM deployment configuration (and engine).
///
/// Defaults match the paper's deployment: fine-grained acks on, no
/// cross-barrier buffering, and empty port maps (the simulator driver
/// derives them from its topology; other deployments set them explicitly via
/// [`RumBuilder::port_maps`]).  The probe topology (catch values, port maps
/// and probe sources in one structure) is built from the port maps when the
/// deployment is built.
#[derive(Debug, Clone)]
pub struct RumBuilder {
    technique: TechniqueConfig,
    fine_grained_acks: bool,
    buffer_across_barriers: bool,
    record_confirmations: bool,
    metrics: Option<Arc<telemetry::Registry>>,
    port_maps: Vec<SwitchPortMap>,
    shards: usize,
}

impl RumBuilder {
    /// A builder for a deployment monitoring `n_switches` switches.
    pub fn new(n_switches: usize) -> Self {
        RumBuilder {
            technique: TechniqueConfig::BarrierBaseline,
            fine_grained_acks: true,
            buffer_across_barriers: false,
            record_confirmations: true,
            metrics: None,
            port_maps: vec![SwitchPortMap::default(); n_switches],
            shards: 1,
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
        self.technique = technique;
        self
    }

    /// Whether to send fine-grained per-rule acknowledgments.
    pub fn fine_grained_acks(mut self, on: bool) -> Self {
        self.fine_grained_acks = on;
        self
    }

    /// Whether to buffer commands that follow an unconfirmed barrier.
    pub fn buffer_across_barriers(mut self, on: bool) -> Self {
        self.buffer_across_barriers = on;
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
        self.record_confirmations = on;
        self
    }

    /// Sets every switch's topology knowledge (must match the switch count).
    pub fn port_maps(mut self, maps: Vec<SwitchPortMap>) -> Self {
        assert_eq!(
            maps.len(),
            self.port_maps.len(),
            "one port map per monitored switch"
        );
        self.port_maps = maps;
        self
    }

    /// Replaces only the port maps the caller left unspecified.  Drivers
    /// that derive topology knowledge themselves (e.g. the simulator
    /// deployment) use this before building, so the catch-value colouring
    /// of a large fleet sees the completed adjacency rather than the gaps.
    pub fn fill_unspecified_port_maps(mut self, derived: Vec<SwitchPortMap>) -> Self {
        assert_eq!(
            derived.len(),
            self.port_maps.len(),
            "one derived port map per monitored switch"
        );
        for (slot, map) in self.port_maps.iter_mut().zip(derived) {
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
    pub fn metrics(mut self, registry: Arc<telemetry::Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Finishes the configuration: the one place the probe topology is
    /// built.
    ///
    /// # Panics
    ///
    /// Panics for a fleet larger than [`MAX_PROXY_SWITCHES`]: the last
    /// switches' technique xids would run into the catch-rule xids.
    pub fn build_config(self) -> RumConfig {
        assert!(
            self.port_maps.len() <= MAX_PROXY_SWITCHES,
            "{} switches exceed the xid layout: technique xid bands fit {MAX_PROXY_SWITCHES}",
            self.port_maps.len()
        );
        RumConfig {
            technique: self.technique,
            fine_grained_acks: self.fine_grained_acks,
            buffer_across_barriers: self.buffer_across_barriers,
            record_confirmations: self.record_confirmations,
            topology: Arc::new(ProbeTopology::new(&self.port_maps)),
            metrics: self.metrics,
        }
    }

    /// Builds a ready-to-drive [`RumEngine`].
    ///
    /// # Panics
    ///
    /// See [`RumEngine::new`]: sequential probing requires each port map to
    /// name at least one monitored neighbour.
    pub fn build(self) -> RumEngine {
        RumEngine::new(self.build_config())
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
        crate::ShardedEngine::new(self.build_config(), shards)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coloring::assign_probe_colors;
    use crate::engine::Input;
    use crate::shard::tests::punted;
    use crate::ShardRouter;
    use std::collections::BTreeSet;

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

    /// The topology the technique tests probe switch 1 in: three switches,
    /// switch 1's port 2 leads to switch 2, and switch 1's probes are
    /// injected through switch 0's port 2.
    pub(crate) fn probed_switch_one() -> Arc<ProbeTopology> {
        let mut maps = vec![SwitchPortMap::default(); 3];
        maps[1].port_to_switch.insert(2, SwitchId::new(2));
        maps[1].inject_via = Some((SwitchId::new(0), 2));
        Arc::new(ProbeTopology::new(&maps))
    }

    /// Port maps joining both ends of every link: switch `a` reaches `b`
    /// through its port `b + 1`.
    fn linked(n: usize, links: &[(usize, usize)]) -> Vec<SwitchPortMap> {
        let mut maps = vec![SwitchPortMap::default(); n];
        for &(a, b) in links {
            maps[a]
                .port_to_switch
                .insert(b as PortNo + 1, SwitchId::new(b));
            maps[b]
                .port_to_switch
                .insert(a as PortNo + 1, SwitchId::new(a));
        }
        maps
    }

    fn catch_values(topology: &ProbeTopology) -> Vec<u8> {
        (0..topology.n_switches())
            .map(|i| topology.catch_tos(SwitchId::new(i)))
            .collect()
    }

    fn tos_frame(tos: u8) -> Vec<u8> {
        let header = openflow::PacketHeader {
            nw_tos: tos,
            ..Default::default()
        };
        header.to_bytes()
    }

    #[test]
    fn probe_plan_assigns_distinct_values_to_adjacent_switches() {
        let topology = ProbeTopology::new(&linked(3, &[(0, 1), (1, 2), (0, 2)]));
        let values = catch_values(&topology);
        assert_eq!(values.iter().collect::<BTreeSet<_>>().len(), 3);
        for tos in values {
            assert_ne!(tos & 0xfc, PREPROBE_TOS & 0xfc);
            assert!(topology.marks(&tos_frame(tos)));
        }
        assert!(topology.marks(&tos_frame(PREPROBE_TOS)));
        assert!(!topology.marks(&tos_frame(0x00)));
        assert!(!topology.marks(&tos_frame(0x04)));
    }

    #[test]
    fn probe_plan_reuses_colors_on_a_path() {
        // Past the unique codepoints a path is coloured: two values serve
        // the whole path, and neighbours still differ.
        let n = MAX_UNIQUE_CATCH_SWITCHES + 8;
        let links: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        let values = catch_values(&ProbeTopology::new(&linked(n, &links)));
        assert_eq!(values.iter().collect::<BTreeSet<_>>().len(), 2);
        assert!(values.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn unique_per_switch_gives_all_distinct() {
        // Up to the unique codepoints every switch gets its own value, the
        // complete graph's colouring, whatever the port maps say.
        for n in [1, 4, MAX_UNIQUE_CATCH_SWITCHES] {
            let complete: Vec<_> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .collect();
            let expected: Vec<u8> = (assign_probe_colors(&complete, n).into_iter())
                .map(|c| CATCH_TOS_BASE - 4 * c as u8)
                .collect();
            let path: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
            let values = catch_values(&ProbeTopology::new(&linked(n, &path)));
            assert_eq!(values, expected, "{n} switches");
            assert_eq!(values.iter().collect::<BTreeSet<_>>().len(), n);
        }
    }

    #[test]
    fn port_map_next_hop() {
        let mut m = SwitchPortMap::default();
        assert!(m.is_unspecified());
        m.port_to_switch.insert(2, SwitchId::new(1));
        assert!(!m.is_unspecified());
        assert_eq!(m.port_to_switch.get(&2), Some(&SwitchId::new(1)));
        assert_eq!(m.port_to_switch.get(&3), None);
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
    fn largest_fleet_the_xid_layout_allows_builds() {
        let cfg = RumBuilder::new(MAX_PROXY_SWITCHES).build_config();
        assert_eq!(cfg.n_switches(), 28_671);
    }

    #[test]
    #[should_panic(expected = "28672 switches exceed the xid layout")]
    fn builder_rejects_a_fleet_past_the_xid_layout() {
        RumBuilder::new(MAX_PROXY_SWITCHES + 1).build_config();
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
        // An even ring of 1,000 switches is 2-coloured from its port maps,
        // and an identical build yields identical values (the cross-driver
        // equality tests depend on this).
        let n = 1000;
        let build = || RumBuilder::new(n).port_maps(ring_maps(n)).build_config();
        let values = catch_values(&build().topology);
        assert_eq!(values.iter().collect::<BTreeSet<_>>().len(), 2);
        assert!((0..n).all(|i| values[i] != values[(i + 1) % n]));
        assert_eq!(values, catch_values(&build().topology));
    }

    #[test]
    fn fill_unspecified_port_maps_only_fills_gaps() {
        let mut explicit = SwitchPortMap::default();
        explicit.port_to_switch.insert(7, SwitchId::new(2));
        let mut maps = vec![SwitchPortMap::default(); 3];
        maps[1] = explicit;
        let cfg = RumBuilder::new(3)
            .port_maps(maps)
            .fill_unspecified_port_maps(ring_maps(3))
            .build_config();
        // Slot 1 keeps the caller's map; slots 0 and 2 take the derived ones.
        let (topology, sw) = (&cfg.topology, SwitchId::new);
        assert_eq!(topology.ports(sw(1)), &[(7, sw(2))]);
        assert_eq!(topology.inject_via(sw(1)), None);
        assert_eq!(topology.next_hop(sw(0), 2), Some(sw(1)));
        assert_eq!(topology.next_hop(sw(2), 1), Some(sw(1)));
        assert_eq!(topology.inject_via(sw(2)), Some((sw(1), 2)));
    }

    /// splitmix64: the seeded draws of the property test below.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Random port maps of `kind` over `n` switches: ring, star, chain,
    /// random graph (links in both directions), or random one-way ports.
    /// Ports are distinct and sparse per switch; with `inject`, every switch
    /// names a random other switch to inject through, by its port back when
    /// it has one.
    fn random_maps(draw: &mut Draw, n: usize, kind: usize, inject: bool) -> Vec<SwitchPortMap> {
        let mut arcs: Vec<(usize, usize)> = match kind {
            0 => (0..n).map(|i| (i, (i + 1) % n)).collect(),
            1 => (1..n).map(|i| (0, i)).collect(),
            2 => (1..n).map(|i| (i - 1, i)).collect(),
            _ => (0..2 * n).map(|_| (draw.below(n), draw.below(n))).collect(),
        };
        if kind != 4 {
            let back: Vec<_> = arcs.iter().map(|&(a, b)| (b, a)).collect();
            arcs.extend(back);
        }
        let mut maps = vec![SwitchPortMap::default(); n];
        let mut next_port = vec![0 as PortNo; n];
        for (a, b) in arcs.into_iter().filter(|&(a, b)| a != b) {
            next_port[a] += 1 + draw.below(3) as PortNo;
            maps[a]
                .port_to_switch
                .insert(next_port[a], SwitchId::new(b));
        }
        if inject {
            for a in 0..n {
                let via = (a + 1 + draw.below(n - 1)) % n;
                let back = maps[via]
                    .port_to_switch
                    .iter()
                    .find(|(_, s)| s.index() == a);
                let port = back.map_or(200 + draw.below(50) as PortNo, |(&p, _)| p);
                maps[a].inject_via = Some((SwitchId::new(via), port));
            }
        }
        maps
    }

    /// The topology against a brute-force reference over random port maps
    /// on both sides of the unique-codepoint limit: catch values, probe
    /// candidates and the shards the router hands a probe PacketIn to.
    #[test]
    fn topology_matches_brute_force_reference() {
        for seed in 0..12u64 {
            for kind in 0..5 {
                for inject in [false, true] {
                    let mut draw = Draw(seed * 10 + kind as u64);
                    let small = 2 + draw.below(MAX_UNIQUE_CATCH_SWITCHES - 1);
                    let large = MAX_UNIQUE_CATCH_SWITCHES + 1 + draw.below(100);
                    for n in [small, large] {
                        let case = format!("seed {seed}, kind {kind}, inject {inject}, n {n}");
                        let state = draw.0;
                        let maps = random_maps(&mut draw, n, kind, inject);
                        check_topology(&maps, &case);
                        // Maps equal in content, built in fresh hash maps.
                        let again = random_maps(&mut Draw(state), n, kind, inject);
                        assert_eq!(
                            catch_values(&ProbeTopology::new(&maps)),
                            catch_values(&ProbeTopology::new(&again)),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    fn check_topology(maps: &[SwitchPortMap], case: &str) {
        let n = maps.len();
        let config = RumBuilder::new(n).port_maps(maps.to_vec()).build_config();
        let topology = &config.topology;
        let values = catch_values(topology);
        if n <= MAX_UNIQUE_CATCH_SWITCHES {
            assert_eq!(values.iter().collect::<BTreeSet<_>>().len(), n, "{case}");
        } else {
            for (a, map) in maps.iter().enumerate() {
                let via = map.inject_via.map(|(s, _)| s);
                for b in map.port_to_switch.values().chain(via.iter()) {
                    assert_ne!(values[a], values[b.index()], "{case}: {a} and {b}");
                }
            }
        }
        let routers: Vec<_> =
            (([1, 3, 7].iter()).map(|&shards| ShardRouter::new(&config, shards))).collect();
        for catch in (0..n).map(SwitchId::new) {
            let upstream: BTreeSet<SwitchId> = (0..n)
                .filter(|&s| maps[s].port_to_switch.values().any(|&c| c == catch))
                .map(SwitchId::new)
                .collect();
            let named: Vec<PortNo> = maps[catch.index()].port_to_switch.keys().copied().collect();
            for in_port in named.into_iter().chain([0, 199]) {
                let expected: Vec<SwitchId> = match maps[catch.index()].port_to_switch.get(&in_port)
                {
                    Some(&sender) => upstream.iter().copied().filter(|&s| s == sender).collect(),
                    None => upstream.iter().copied().collect(),
                };
                assert_eq!(
                    topology.candidates(catch, in_port),
                    &expected[..],
                    "{case}: catch {catch}, port {in_port}"
                );
                let probe = punted(catch.index(), in_port, tos_frame(topology.catch_tos(catch)));
                for router in &routers {
                    let owners: BTreeSet<usize> = (expected.iter().chain([&catch]))
                        .map(|&s| router.shard_of(s))
                        .collect();
                    let mut delivered = Vec::new();
                    router.deliver(probe.clone(), |k, input: Input| {
                        assert_eq!(input, probe);
                        delivered.push(k);
                    });
                    let owners: Vec<usize> = owners.into_iter().collect();
                    assert_eq!(delivered, owners, "{case}: catch {catch}, port {in_port}");
                }
            }
        }
    }
}
