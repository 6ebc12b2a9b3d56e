//! A probe return vouches for one rule on one switch: the switch that
//! forwarded the probe to the neighbour whose catch rule punted it.
//!
//! Catch codepoints are shared across a large fleet (graph colouring) and so
//! are probe-id bands (`index % 15`), so two distant switches holding the
//! same pending rule expect bit-identical probe headers.  Before probe
//! returns were routed by topology, every technique was offered every probe
//! and both confirmed — a false acknowledgment for the switch whose probe
//! never came back.

use openflow::constants::packet_in_reason;
use openflow::messages::{FlowMod, PacketIn};
use openflow::{Action, OfMatch, OfMessage, PortNo};
use rum::{Effect, Input, RumBuilder, RumEngine, ShardedEngine, SwitchId, SwitchPortMap};
use rum::{RumConfig, TechniqueConfig};
use std::net::Ipv4Addr;
use std::time::Duration;

/// The two engine shapes behind one face.
trait Engine {
    fn start(&mut self, now: Duration) -> Vec<Effect>;
    fn handle(&mut self, now: Duration, input: Input) -> Vec<Effect>;
}

impl Engine for RumEngine {
    fn start(&mut self, now: Duration) -> Vec<Effect> {
        RumEngine::start(self, now)
    }
    fn handle(&mut self, now: Duration, input: Input) -> Vec<Effect> {
        RumEngine::handle(self, now, input)
    }
}

impl Engine for ShardedEngine {
    fn start(&mut self, now: Duration) -> Vec<Effect> {
        ShardedEngine::start(self, now)
    }
    fn handle(&mut self, now: Duration, input: Input) -> Vec<Effect> {
        ShardedEngine::handle(self, now, input)
    }
}

fn builder(maps: Vec<SwitchPortMap>) -> RumBuilder {
    RumConfig::builder(maps.len())
        .technique(TechniqueConfig::default_general())
        .port_maps(maps)
}

/// Port 1 leads to the predecessor, port 2 to the successor; probes enter
/// through the predecessor.
fn ring_maps(n: usize) -> Vec<SwitchPortMap> {
    (0..n)
        .map(|i| {
            let prev = SwitchId::new((i + n - 1) % n);
            let mut map = SwitchPortMap::default();
            map.port_to_switch.insert(1, prev);
            map.port_to_switch.insert(2, SwitchId::new((i + 1) % n));
            map.inject_via = Some((prev, 2));
            map
        })
        .collect()
}

/// Switch 0 is the hub, its port `k` leading to leaf `k`; every leaf's port 2
/// leads back to the hub, through which its probes are injected.
fn star_maps(n: usize) -> Vec<SwitchPortMap> {
    let hub = SwitchId::new(0);
    let mut maps = vec![SwitchPortMap::default(); n];
    for leaf in 1..n {
        maps[0]
            .port_to_switch
            .insert(leaf as PortNo, SwitchId::new(leaf));
        maps[leaf].port_to_switch.insert(2, hub);
        maps[leaf].inject_via = Some((hub, leaf as PortNo));
    }
    maps
}

/// The same flow-mod goes to `probed` and to `twin`; `probed`'s probe then
/// comes back through `catch`'s catch rule, having arrived there on
/// `in_port`.  Returns the switches the engine confirmed the rule on.
fn confirmed_after_one_probe_return(
    engine: &mut dyn Engine,
    probed: usize,
    twin: usize,
    catch: usize,
    in_port: PortNo,
) -> Vec<usize> {
    engine.start(Duration::ZERO);
    let flow_mod = || OfMessage::FlowMod {
        xid: 7,
        body: FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
            100,
            vec![Action::output(2)],
        )
        .with_cookie(7),
    };
    let mut probes = Vec::new();
    for switch in [probed, twin] {
        let effects = engine.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: SwitchId::new(switch),
                message: flow_mod(),
            },
        );
        probes.push(
            effects
                .into_iter()
                .find_map(|effect| match effect {
                    Effect::InjectVia {
                        message: OfMessage::PacketOut { body, .. },
                        ..
                    } => Some(body.data),
                    _ => None,
                })
                .expect("a forwarding rule is probed at once"),
        );
    }
    assert_eq!(
        probes[0], probes[1],
        "the premise: both switches expect the very same probe"
    );
    let data = probes.swap_remove(0);
    let effects = engine.handle(
        Duration::from_millis(2),
        Input::FromSwitch {
            switch: SwitchId::new(catch),
            message: OfMessage::PacketIn {
                xid: 0,
                body: PacketIn {
                    buffer_id: u32::MAX,
                    total_len: data.len() as u16,
                    in_port,
                    reason: packet_in_reason::ACTION,
                    data,
                },
            },
        },
    );
    assert!(
        !effects
            .iter()
            .any(|effect| matches!(effect, Effect::ToController { message, .. } if message.as_rum_ack().is_none())),
        "a probe is RUM's own packet and never reaches the controller"
    );
    effects
        .into_iter()
        .filter_map(|effect| match effect {
            Effect::Confirmed { switch, cookie: 7 } => Some(switch.index()),
            _ => None,
        })
        .collect()
}

/// Switches 0 and 30 of a 100-switch ring share a colour and a probe-id
/// band; switch 0's probe returns via switch 1 and proves switch 0's rule
/// only.
#[test]
fn ring_probe_return_confirms_only_the_upstream_switch() {
    let mut engine = builder(ring_maps(100)).build();
    assert_eq!(
        confirmed_after_one_probe_return(&mut engine, 0, 30, 1, 1),
        vec![0]
    );
}

/// The same through eight shards: switch 1's owner does the accounting,
/// switch 0's the confirming, and switch 30's owner (shard 6) is not asked.
#[test]
fn sharded_ring_probe_return_confirms_only_the_upstream_switch() {
    let mut engine = builder(ring_maps(100)).shards(8).build_sharded();
    assert_eq!(
        confirmed_after_one_probe_return(&mut engine, 0, 30, 1, 1),
        vec![0]
    );
    assert_eq!(engine.stats(SwitchId::new(1)).probes_consumed, 1);
    assert_eq!(engine.total_stats().probes_consumed, 1);
    assert_eq!(engine.stats(SwitchId::new(30)).unconfirmed, 1);
}

/// Leaves 1 and 16 of a star are both upstream of the hub and congruent
/// mod 15; the port the probe arrived on tells them apart.
#[test]
fn star_probe_return_is_narrowed_by_the_arrival_port() {
    for shards in [1, 8] {
        let mut engine = builder(star_maps(20)).shards(shards).build_sharded();
        assert_eq!(
            confirmed_after_one_probe_return(&mut engine, 1, 16, 0, 1),
            vec![1],
            "{shards} shard(s)"
        );
    }
    // A port the hub's map does not name narrows nothing: both leaves are
    // upstream, and which one sent the probe cannot be told.
    let mut engine = builder(star_maps(20)).build();
    assert_eq!(
        confirmed_after_one_probe_return(&mut engine, 1, 16, 0, 99),
        vec![1, 16]
    );
}
