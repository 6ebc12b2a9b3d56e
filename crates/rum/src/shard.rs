//! Sharding the RUM deployment by switch: [`ShardedEngine`] runs one
//! [`RumEngine`] per shard so concurrent drivers (one lock per shard) never
//! contend on a single engine mutex, while per-switch semantics stay
//! byte-identical to the unsharded engine.
//!
//! # Shard → switch mapping
//!
//! Shard `k` of `n` owns a contiguous run of switch indices:
//! [`ShardRouter::shard_of`] maps index `i` of `N` switches to `i * n / N`,
//! so runs differ in length by at most one.  Every fleet numbers its
//! switches along its topology (rings, chains), so a run is a stretch of
//! neighbours and a probe's catch switch almost always shares its sender's
//! shard.  Each shard engine shares the whole deployment's configuration
//! but holds state — technique, metrics, barriers — only for its run; every
//! input affecting a switch is routed to its owner shard, so all state
//! transitions of one switch serialize through one engine in arrival order —
//! exactly as in the unsharded engine.
//!
//! The one exception is probe PacketIns: a probe for a rule on switch A
//! surfaces at the neighbour behind that rule's output port.  A
//! probe-marked PacketIn from switch N is therefore delivered to the owners
//! of the switches with a port leading to N — of the single switch behind
//! the port it arrived on, where N's port map names it — plus N's own owner,
//! which alone does the consumption accounting ([`ShardRouter::deliver`]).
//! That is one or two shards, whatever the fleet size, and each runs the
//! probe matching only for the upstream switches it owns.
//!
//! # Why confirm order is preserved
//!
//! A confirmation for switch `s` is emitted only by `s`'s owner shard, in
//! response to inputs delivered in arrival order, and catch-rule xids are a
//! pure function of `(switch, generation)` rather than a shared counter —
//! so for any fixed input schedule the per-switch confirmation sequence (and
//! every byte sent on `s`'s connections) is identical to the unsharded
//! engine's.  Only the interleaving *across* switches may differ, which no
//! per-switch invariant (and no connection byte stream) observes.

use crate::config::{ProbeTopology, RumConfig};
use crate::engine::{ConfirmRecord, Effect, Input, ProxyStats, RumEngine, SwitchId};
use openflow::OfMessage;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;
use telemetry::Registry;

/// Where a sharded driver must deliver one [`Input`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Deliver to exactly this shard (the owner of the affected switch).
    Shard(usize),
    /// Concerns more than one shard: a probe PacketIn, which
    /// [`ShardRouter::deliver`] narrows to the shards upstream of the
    /// sender.  Delivering to every shard, in shard order, is always
    /// correct — the others find nothing to do.
    Broadcast,
}

/// Pure input → shard routing, shared by [`ShardedEngine`] and the TCP
/// driver (which wraps each shard in its own mutex and must route before
/// locking).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    n_shards: usize,
    n_switches: usize,
    topology: Arc<ProbeTopology>,
}

impl ShardRouter {
    /// A router for `n_shards` shards over `config`'s deployment.
    pub fn new(config: &RumConfig, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "a deployment needs at least one shard");
        ShardRouter {
            n_shards,
            n_switches: config.n_switches(),
            topology: Arc::clone(&config.topology),
        }
    }

    /// Number of shards routed over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard owning `switch`: index `i` of `N` switches belongs to shard
    /// `i * n_shards / N`, so each shard owns a contiguous run of indices and
    /// runs differ in length by at most one.  This is the deployment's one
    /// switch → shard rule.  An index past the fleet goes to the last shard,
    /// which acts for none of it.
    pub fn shard_of(&self, switch: SwitchId) -> usize {
        (switch.index() * self.n_shards / self.n_switches.max(1)).min(self.n_shards - 1)
    }

    /// The indices of the switches shard `k` owns — the inverse of
    /// [`ShardRouter::shard_of`]: `i` is in it exactly when
    /// `i * n_shards >= k * N`, and not in the next one.
    pub(crate) fn owned_by(&self, k: usize) -> Range<usize> {
        let first = |k: usize| (k * self.n_switches).div_ceil(self.n_shards);
        first(k)..first(k + 1)
    }

    /// Classifies one input.  Everything affecting a single switch goes to
    /// its owner; probe PacketIns (which confirm rules of other switches)
    /// concern several shards — [`ShardRouter::deliver`] knows which.
    pub fn route(&self, input: &Input) -> Routing {
        match input {
            Input::FromController { switch, .. } | Input::SwitchReconnected { switch } => {
                Routing::Shard(self.shard_of(*switch))
            }
            Input::FromSwitch { switch, message } => {
                if self.n_shards > 1 && self.is_probe_packet_in(message) {
                    Routing::Broadcast
                } else {
                    Routing::Shard(self.shard_of(*switch))
                }
            }
            Input::TimerFired { token } => Routing::Shard(self.shard_of(token.switch())),
        }
    }

    /// Hands `input` to `to_shard` once per shard it concerns, in ascending
    /// shard order: the owner for everything affecting a single switch, and
    /// for a probe PacketIn from switch N the owners of the switches whose
    /// probes it can vouch for (the probe topology's candidates) plus N's own
    /// (see the module docs).
    pub fn deliver(&self, input: Input, mut to_shard: impl FnMut(usize, Input)) {
        let (own, candidates) = match (self.route(&input), &input) {
            (Routing::Shard(k), _) => return to_shard(k, input),
            (
                Routing::Broadcast,
                Input::FromSwitch {
                    switch,
                    message: OfMessage::PacketIn { body, .. },
                },
            ) => (
                self.shard_of(*switch),
                self.topology.candidates(*switch, body.in_port),
            ),
            (Routing::Broadcast, _) => unreachable!("only probe PacketIns are broadcast"),
        };
        // Candidates ascend, so do their owners: `own` is merged in, and a
        // repeat is always the shard just before.
        let owners = candidates.iter().map(|&s| self.shard_of(s));
        let shards = (owners.clone().take_while(|&k| k < own))
            .chain([own])
            .chain(owners.skip_while(|&k| k <= own));
        let mut held = None;
        for k in shards {
            match held {
                Some(h) if h == k => continue,
                Some(h) => to_shard(h, input.clone()),
                None => {}
            }
            held = Some(k);
        }
        to_shard(held.expect("the owner shard at least"), input);
    }

    /// True for a PacketIn punting one of RUM's own probe packets (reserved
    /// ToS, explicit to-controller action) — the only switch-side input that
    /// concerns techniques beyond the arrival switch's.  Only the ToS byte
    /// is looked at; the engines that receive the probe parse it.
    fn is_probe_packet_in(&self, message: &OfMessage) -> bool {
        let OfMessage::PacketIn { body, .. } = message else {
            return false;
        };
        body.reason == openflow::constants::packet_in_reason::ACTION
            && self.topology.marks(&body.data)
    }
}

/// A set of per-shard [`RumEngine`]s behind the same input → effects
/// interface as a single engine, routing each input to the shard(s) it
/// concerns.  Built via [`crate::RumBuilder::build_sharded`]; with one shard
/// this is exactly the unsharded engine, wrapped.
///
/// All shards publish statistics into one shared telemetry registry (the
/// registry deduplicates handles by name, and only a switch's owner shard
/// ever touches its counters), so the stats surface is identical to the
/// unsharded engine's.
pub struct ShardedEngine {
    shards: Vec<RumEngine>,
    router: ShardRouter,
}

impl ShardedEngine {
    /// Builds `n_shards` engines over `config`.  Prefer
    /// [`crate::RumBuilder::build_sharded`].
    ///
    /// # Panics
    ///
    /// See [`RumEngine::new`]; additionally `n_shards` must be at least 1.
    pub fn new(mut config: RumConfig, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "a deployment needs at least one shard");
        // One registry across all shards, so every stats surface (owner or
        // not) reads the same counters.
        if config.metrics.is_none() {
            config.metrics = Some(Arc::new(Registry::new()));
        }
        let router = ShardRouter::new(&config, n_shards);
        let config = Arc::new(config);
        let shards = (0..n_shards)
            .map(|k| RumEngine::acting_for(Arc::clone(&config), router.owned_by(k)))
            .collect();
        ShardedEngine { shards, router }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of monitored switches.
    pub fn n_switches(&self) -> usize {
        self.shards[0].n_switches()
    }

    /// The deployment configuration, shared by every shard.
    pub fn config(&self) -> &RumConfig {
        self.shards[0].config()
    }

    /// The shared telemetry registry all shards publish into.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.shards[0].metrics()
    }

    /// Statistics for one monitored switch, read from its owner shard.
    pub fn stats(&self, switch: SwitchId) -> ProxyStats {
        self.shards[self.router.shard_of(switch)].stats(switch)
    }

    /// Total statistics summed over all monitored switches.
    pub fn total_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for shard in &self.shards {
            total += shard.total_stats();
        }
        total
    }

    /// Starts every shard, in shard order, concatenating their start-up
    /// effects.  Each switch's effects are emitted exactly once (by its
    /// owner).
    pub fn start(&mut self, now: Duration) -> Vec<Effect> {
        let mut effects = Vec::new();
        for shard in &mut self.shards {
            effects.append(&mut shard.start(now));
        }
        effects
    }

    /// Routes one input to the shard(s) it concerns and returns the combined
    /// effects.
    pub fn handle(&mut self, now: Duration, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.handle_into(now, input, &mut effects);
        effects
    }

    /// Appending form of [`ShardedEngine::handle`].
    pub fn handle_into(&mut self, now: Duration, input: Input, effects: &mut Vec<Effect>) {
        let shards = &mut self.shards;
        self.router
            .deliver(input, |k, input| shards[k].handle_into(now, input, effects));
    }

    /// Every confirmation across all shards, merged by emission time (ties
    /// resolved in shard order).  Per-switch subsequences are exact; the
    /// cross-switch interleaving of equal-time confirmations is the merge's
    /// choice, as it is for any concurrent deployment.
    pub fn confirmations(&self) -> Vec<ConfirmRecord> {
        if self.shards.len() == 1 {
            return self.shards[0].confirmations().to_vec();
        }
        // Each shard's log is already time-sorted (engines only move
        // forward in time), so a k-way stable merge suffices.
        let mut cursors: Vec<(usize, &[ConfirmRecord])> = self
            .shards
            .iter()
            .map(|s| (0usize, s.confirmations()))
            .collect();
        let total: usize = cursors.iter().map(|(_, log)| log.len()).sum();
        let mut merged = Vec::with_capacity(total);
        while merged.len() < total {
            let mut best: Option<usize> = None;
            for (k, (pos, log)) in cursors.iter().enumerate() {
                if *pos >= log.len() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => log[*pos].at < cursors[b].1[cursors[b].0].at,
                };
                if better {
                    best = Some(k);
                }
            }
            let k = best.expect("an unfinished shard exists");
            merged.push(cursors[k].1[cursors[k].0]);
            cursors[k].0 += 1;
        }
        merged
    }

    /// Every confirmation `(switch, cookie)` in merged order — see
    /// [`ShardedEngine::confirmations`].
    pub fn confirmed_order(&self) -> Vec<(SwitchId, u64)> {
        self.confirmations()
            .iter()
            .map(|r| (r.switch, r.cookie))
            .collect()
    }

    /// The confirmation cookie sequence of one switch — the invariant that
    /// must be byte-identical between sharded and unsharded runs.
    pub fn confirmed_order_for(&self, switch: SwitchId) -> Vec<u64> {
        self.shards[self.router.shard_of(switch)]
            .confirmations()
            .iter()
            .filter(|r| r.switch == switch)
            .map(|r| r.cookie)
            .collect()
    }

    /// Decomposes into the per-shard engines plus the router — the TCP
    /// driver wraps each engine in its own lock.
    pub fn into_parts(self) -> (Vec<RumEngine>, ShardRouter) {
        (self.shards, self.router)
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("n_shards", &self.shards.len())
            .field("n_switches", &self.n_switches())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{RumBuilder, TechniqueConfig};
    use crate::engine::TimerToken;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use std::net::Ipv4Addr;

    fn flow_mod(xid: u32) -> OfMessage {
        OfMessage::FlowMod {
            xid,
            body: FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
                100,
                vec![Action::output(2)],
            ),
        }
    }

    /// One shard is literally the unsharded engine: identical effects for an
    /// identical input schedule.
    #[test]
    fn single_shard_matches_unsharded_engine() {
        let mut single = RumBuilder::new(2)
            .technique(TechniqueConfig::BarrierBaseline)
            .build();
        let mut sharded = RumBuilder::new(2)
            .technique(TechniqueConfig::BarrierBaseline)
            .build_sharded();
        assert_eq!(sharded.n_shards(), 1);
        assert_eq!(single.start(Duration::ZERO), sharded.start(Duration::ZERO));
        for (t, input) in [
            Input::FromController {
                switch: SwitchId::new(0),
                message: flow_mod(5),
            },
            Input::FromController {
                switch: SwitchId::new(1),
                message: flow_mod(6),
            },
        ]
        .into_iter()
        .enumerate()
        {
            let now = Duration::from_millis(t as u64);
            assert_eq!(
                single.handle(now, input.clone()),
                sharded.handle(now, input)
            );
        }
        assert_eq!(single.confirmed_order(), sharded.confirmed_order());
    }

    /// Range ownership: each switch's inputs act only on its owner shard,
    /// and per-switch confirm order matches the unsharded oracle.
    #[test]
    fn sharded_confirms_match_oracle_per_switch() {
        let n = 5;
        let build = || RumBuilder::new(n).technique(TechniqueConfig::BarrierBaseline);
        let mut oracle = build().build();
        let mut sharded = build().shards(3).build_sharded();
        oracle.start(Duration::ZERO);
        sharded.start(Duration::ZERO);

        // Interleave flow-mods across switches, then confirm via the proxy
        // barriers each engine injected.
        let mut oracle_barriers = Vec::new();
        let mut sharded_barriers = Vec::new();
        for i in 0..n {
            let sw = SwitchId::new(i);
            let now = Duration::from_millis(i as u64);
            let input = Input::FromController {
                switch: sw,
                message: flow_mod(100 + i as u32),
            };
            let barrier_of = |fx: &[Effect]| {
                fx.iter()
                    .find_map(|e| match e {
                        Effect::ToSwitch {
                            message: OfMessage::BarrierRequest { xid },
                            ..
                        } => Some(*xid),
                        _ => None,
                    })
                    .expect("proxy barrier")
            };
            oracle_barriers.push((sw, barrier_of(&oracle.handle(now, input.clone()))));
            sharded_barriers.push((sw, barrier_of(&sharded.handle(now, input))));
        }
        assert_eq!(
            oracle_barriers, sharded_barriers,
            "technique xid streams must be shard-invariant"
        );
        // Reply in reverse switch order so the global confirm order differs
        // from the install order.
        for &(sw, xid) in oracle_barriers.iter().rev() {
            let now = Duration::from_millis(50);
            let reply = Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid },
            };
            oracle.handle(now, reply.clone());
            sharded.handle(now, reply);
        }
        for i in 0..n {
            let sw = SwitchId::new(i);
            let oracle_seq: Vec<u64> = oracle
                .confirmations()
                .iter()
                .filter(|r| r.switch == sw)
                .map(|r| r.cookie)
                .collect();
            assert_eq!(oracle_seq, sharded.confirmed_order_for(sw));
            assert_eq!(oracle.stats(sw), sharded.stats(sw));
        }
        assert_eq!(oracle.total_stats(), sharded.total_stats());
    }

    /// Start-up emits each switch's catch rule exactly once across shards,
    /// with the same xids the oracle uses.
    #[test]
    fn start_effects_partition_across_shards() {
        let n = 6;
        let build = || RumBuilder::new(n).technique(TechniqueConfig::default_general());
        let catch_rules = |fx: &[Effect]| {
            let mut seen: Vec<(usize, u32)> = fx
                .iter()
                .filter_map(|e| match e {
                    Effect::ToSwitch {
                        switch,
                        message: OfMessage::FlowMod { xid, .. },
                    } => Some((switch.index(), *xid)),
                    _ => None,
                })
                .collect();
            seen.sort_unstable();
            seen
        };
        let oracle_fx = build().build().start(Duration::ZERO);
        let sharded_fx = build().shards(4).build_sharded().start(Duration::ZERO);
        let oracle_rules = catch_rules(&oracle_fx);
        assert_eq!(oracle_rules.len(), n);
        assert_eq!(oracle_rules, catch_rules(&sharded_fx));
    }

    /// The router sends per-switch inputs to the owner, broadcasts probe
    /// PacketIns, and decodes timer tokens back to the arming switch's
    /// shard.  Seven switches on three shards: 0–2, 3–4 and 5–6.
    #[test]
    fn router_routes_by_ownership() {
        let config = RumBuilder::new(7)
            .technique(TechniqueConfig::default_general())
            .build_config();
        let router = ShardRouter::new(&config, 3);
        assert_eq!(router.n_shards(), 3);
        assert_eq!(
            router.route(&Input::FromController {
                switch: SwitchId::new(5),
                message: flow_mod(1),
            }),
            Routing::Shard(2)
        );
        assert_eq!(
            router.route(&Input::SwitchReconnected {
                switch: SwitchId::new(4)
            }),
            Routing::Shard(1)
        );
        // Timer armed by switch 6's technique.
        assert_eq!(
            router.route(&Input::TimerFired {
                token: TimerToken::for_switch(SwitchId::new(6), 7),
            }),
            Routing::Shard(2)
        );
        // A probe-marked PacketIn broadcasts; ordinary PacketIns go to the
        // arrival switch's owner.
        let probe = openflow::PacketHeader {
            nw_tos: config.topology.catch_tos(SwitchId::new(0)),
            ..Default::default()
        };
        let packet_in = |data: Vec<u8>| OfMessage::PacketIn {
            xid: 0,
            body: openflow::messages::PacketIn {
                buffer_id: 0,
                total_len: data.len() as u16,
                in_port: 1,
                reason: openflow::constants::packet_in_reason::ACTION,
                data,
            },
        };
        assert_eq!(
            router.route(&Input::FromSwitch {
                switch: SwitchId::new(1),
                message: packet_in(probe.to_bytes()),
            }),
            Routing::Broadcast
        );
        let user = openflow::PacketHeader { nw_tos: 0, ..probe };
        assert_eq!(
            router.route(&Input::FromSwitch {
                switch: SwitchId::new(3),
                message: packet_in(user.to_bytes()),
            }),
            Routing::Shard(1)
        );
    }

    /// A general-probing deployment on an `n`-switch ring whose port 1 leads
    /// to the previous switch and port 2 to the next.
    /// An `n`-switch ring running `technique`: port 1 leads to the
    /// predecessor, port 2 to the successor, and probes for a switch are
    /// injected through its predecessor.
    pub(crate) fn ring(n: usize, technique: TechniqueConfig) -> RumConfig {
        use crate::config::SwitchPortMap;
        let maps = (0..n)
            .map(|i| {
                let prev = SwitchId::new((i + n - 1) % n);
                let mut map = SwitchPortMap::default();
                map.port_to_switch.insert(1, prev);
                map.port_to_switch.insert(2, SwitchId::new((i + 1) % n));
                map.inject_via = Some((prev, 2));
                map
            })
            .collect();
        RumBuilder::new(n)
            .technique(technique)
            .port_maps(maps)
            .build_config()
    }

    /// A probe punted by `catch`'s catch rule after arriving on `in_port`.
    fn probe_return(config: &RumConfig, catch: usize, in_port: u16) -> Input {
        let header = openflow::PacketHeader {
            nw_tos: config.topology.catch_tos(SwitchId::new(catch)),
            ..Default::default()
        };
        punted(catch, in_port, header.to_bytes())
    }

    /// The packet `data` punted by `catch`'s catch rule after arriving on
    /// `in_port`.
    pub(crate) fn punted(catch: usize, in_port: u16, data: Vec<u8>) -> Input {
        Input::FromSwitch {
            switch: SwitchId::new(catch),
            message: OfMessage::PacketIn {
                xid: 0,
                body: openflow::messages::PacketIn {
                    buffer_id: 0,
                    total_len: data.len() as u16,
                    in_port,
                    reason: openflow::constants::packet_in_reason::ACTION,
                    data,
                },
            },
        }
    }

    /// The shards `router` delivers `input` to, in delivery order.
    fn shards_for(router: &ShardRouter, input: Input) -> Vec<usize> {
        let mut shards = Vec::new();
        router.deliver(input.clone(), |k, delivered| {
            assert_eq!(delivered, input);
            shards.push(k);
        });
        shards
    }

    /// `deliver` narrows what `route` calls a broadcast: a probe PacketIn
    /// reaches the owner of the switch behind its arrival port and the
    /// sender's own — or, arriving on a port the map does not name, the
    /// owners of everything upstream — and nobody else.
    #[test]
    fn deliver_sends_probe_returns_upstream_only() {
        let config = ring(12, TechniqueConfig::default_general());
        let router = ShardRouter::new(&config, 5);
        let shards_for = |input| shards_for(&router, input);
        let probe_from = |catch, in_port| probe_return(&config, catch, in_port);
        // Twelve switches on five shards: 0–2, 3–4, 5–7, 8–9, 10–11.  Port 1
        // of switch 7 leads to switch 6, on 7's own shard: one delivery.
        assert_eq!(shards_for(probe_from(7, 1)), vec![2]);
        // Port 1 of switch 8 leads to switch 7, across a shard boundary.
        assert_eq!(shards_for(probe_from(8, 1)), vec![2, 3]);
        // Port 1 of switch 0 leads to switch 11: ascending shard order.
        assert_eq!(shards_for(probe_from(0, 1)), vec![0, 4]);
        // An unnamed port: both neighbours of 7 (6 and 8) and 7 itself.
        assert_eq!(shards_for(probe_from(7, 9)), vec![2, 3]);
        assert_eq!(
            shards_for(Input::FromController {
                switch: SwitchId::new(8),
                message: flow_mod(1),
            }),
            vec![3]
        );
    }

    /// `shard_of` cuts every fleet into contiguous runs balanced to ±1,
    /// each engine acts for exactly its run, and on a 1,000-switch ring the
    /// only probe returns that reach two shards are the eight that cross a
    /// run boundary.
    #[test]
    fn ownership_is_contiguous_and_balanced() {
        for n in [1, 3, 4, 8, 64, 1000] {
            let build = || RumBuilder::new(n).technique(TechniqueConfig::default_general());
            let config = build().build_config();
            for n_shards in 1..=8 {
                let router = ShardRouter::new(&config, n_shards);
                let owner: Vec<usize> = (0..n).map(|i| router.shard_of(SwitchId::new(i))).collect();
                assert!(owner.windows(2).all(|w| w[0] <= w[1]), "{n}/{n_shards}");
                let mut sizes = vec![0usize; n_shards];
                for &k in &owner {
                    sizes[k] += 1;
                }
                let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
                assert!(spread <= 1, "{n}/{n_shards}: {sizes:?}");
                // An engine installs the catch rule of every switch it acts
                // for, and of no other.
                let mut sharded = build().shards(n_shards).build_sharded();
                for (k, engine) in sharded.shards.iter_mut().enumerate() {
                    let mut acted: Vec<usize> = (engine.start(Duration::ZERO).iter())
                        .filter_map(|effect| match effect {
                            Effect::ToSwitch { switch, .. } => Some(switch.index()),
                            _ => None,
                        })
                        .collect();
                    acted.dedup();
                    let owned: Vec<usize> = (0..n).filter(|&i| owner[i] == k).collect();
                    assert_eq!(acted, owned, "{n}/{n_shards}: shard {k}");
                }
            }
        }
        let config = ring(1000, TechniqueConfig::default_general());
        let router = ShardRouter::new(&config, 8);
        // Each switch's probe comes back through its successor, arriving
        // on the successor's port 1.
        let crossing = (0..1000)
            .filter(|&catch| shards_for(&router, probe_return(&config, catch, 1)).len() > 1)
            .count();
        assert_eq!(crossing, 8);
    }
}
