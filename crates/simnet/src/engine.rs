//! The simulator main loop and the [`Context`] through which nodes act.

use crate::event::{EventPayload, EventQueue};
use crate::measure::{TraceEvent, TraceSink};
use crate::node::{Node, NodeId};
use crate::packet::SimPacket;
use crate::time::SimTime;
use crate::topology::Topology;
use openflow::{OfMessage, PortNo};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The environment a node sees while handling an event.
///
/// All side effects a node can have — sending packets, sending control
/// messages, arming timers, recording measurements — go through this type,
/// which keeps nodes decoupled from each other and the simulation fully
/// deterministic.
pub struct Context<'a> {
    now: SimTime,
    self_id: NodeId,
    topology: &'a Topology,
    queue: &'a mut EventQueue,
    trace: &'a mut TraceSink,
    rng: &'a mut SmallRng,
}

impl<'a> Context<'a> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node handling the event.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Read-only access to the data-plane topology.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// Sends a data-plane packet out of `out_port`.
    ///
    /// Returns `true` if the port is wired; an unwired port silently drops
    /// the packet (mirroring a disconnected interface) and returns `false`.
    pub fn send_packet(&mut self, out_port: PortNo, packet: SimPacket) -> bool {
        match self.topology.peer_of(self.self_id, out_port) {
            Some((peer, latency)) => {
                self.queue.schedule(
                    self.now + latency,
                    peer.node,
                    EventPayload::Packet {
                        packet,
                        in_port: peer.port,
                    },
                );
                true
            }
            None => false,
        }
    }

    /// Sends an OpenFlow control-plane message to another node, arriving
    /// after `latency`.
    pub fn send_control(&mut self, to: NodeId, message: OfMessage, latency: SimTime) {
        self.queue.schedule(
            self.now + latency,
            to,
            EventPayload::Control {
                from: self.self_id,
                message,
            },
        );
    }

    /// Arms a timer that will fire back on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.queue.schedule(
            self.now + delay,
            self.self_id,
            EventPayload::Timer { token },
        );
    }

    /// Records a measurement event.
    pub fn record(&mut self, event: TraceEvent) {
        self.trace.record(event);
    }

    /// Deterministic random-number generator shared by the whole simulation.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    names: Vec<String>,
    topology: Topology,
    queue: EventQueue,
    trace: TraceSink,
    now: SimTime,
    rng: SmallRng,
    started: bool,
    events_processed: u64,
}

impl Simulator {
    /// Creates a simulator seeded for deterministic runs.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            names: Vec::new(),
            topology: Topology::new(),
            queue: EventQueue::new(),
            trace: TraceSink::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            started: false,
            events_processed: 0,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node<N: Node>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.names.push(node.name());
        self.nodes.push(Some(Box::new(node)));
        id
    }

    /// Mutable access to the topology (wire links before running).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Read-only access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Schedules an event from outside any node (used by experiment drivers
    /// to kick off an update at a chosen time).
    pub fn schedule(&mut self, time: SimTime, target: NodeId, payload: EventPayload) {
        self.queue.schedule(time, target, payload);
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The recorded trace.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The registered name of a node.
    pub fn name_of(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable, downcast access to a node (after or between runs).
    pub fn node_ref<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.index()]
            .as_ref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutable, downcast access to a node.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.index()]
            .as_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            let mut node = self.nodes[idx].take().expect("node present at start");
            {
                let mut ctx = Context {
                    now: self.now,
                    self_id: NodeId(idx),
                    topology: &self.topology,
                    queue: &mut self.queue,
                    trace: &mut self.trace,
                    rng: &mut self.rng,
                };
                node.start(&mut ctx);
            }
            self.nodes[idx] = Some(node);
        }
    }

    /// Processes a single event.  Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time must be monotonic");
        self.now = event.time;
        self.events_processed += 1;
        let idx = event.target.index();
        let mut node = self.nodes[idx]
            .take()
            .unwrap_or_else(|| panic!("event targeted at missing node {}", event.target));
        {
            let mut ctx = Context {
                now: self.now,
                self_id: event.target,
                topology: &self.topology,
                queue: &mut self.queue,
                trace: &mut self.trace,
                rng: &mut self.rng,
            };
            node.handle(event.payload, &mut ctx);
        }
        self.nodes[idx] = Some(node);
        true
    }

    /// Runs until no event earlier than or at `deadline` remains; the clock
    /// is left at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.names)
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("trace_events", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// A node that echoes every timer as a new timer `delay` later, up to a
    /// bound, and counts what it saw.
    struct TickNode {
        delay: SimTime,
        remaining: u32,
        ticks_seen: u32,
        packets_seen: u32,
        controls_seen: u32,
    }

    impl TickNode {
        fn new(delay: SimTime, count: u32) -> Self {
            TickNode {
                delay,
                remaining: count,
                ticks_seen: 0,
                packets_seen: 0,
                controls_seen: 0,
            }
        }
    }

    impl Node for TickNode {
        fn name(&self) -> String {
            "tick".into()
        }

        fn start(&mut self, ctx: &mut Context<'_>) {
            if self.remaining > 0 {
                ctx.set_timer(self.delay, 0);
            }
        }

        fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
            match event {
                EventPayload::Timer { .. } => {
                    self.ticks_seen += 1;
                    self.remaining -= 1;
                    if self.remaining > 0 {
                        ctx.set_timer(self.delay, 0);
                    }
                }
                EventPayload::Packet { .. } => self.packets_seen += 1,
                EventPayload::Control { .. } => self.controls_seen += 1,
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A node that forwards every received packet out of port 1.
    struct ForwardNode {
        forwarded: u32,
    }

    impl Node for ForwardNode {
        fn name(&self) -> String {
            "fwd".into()
        }
        fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
            if let EventPayload::Packet { packet, .. } = event {
                self.forwarded += 1;
                ctx.send_packet(1, packet.with_hop(ctx.self_id()));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_the_requested_number_of_times() {
        let mut sim = Simulator::new(1);
        let id = sim.add_node(TickNode::new(SimTime::from_millis(10), 5));
        sim.run_until(SimTime::from_secs(1));
        let node = sim.node_ref::<TickNode>(id).unwrap();
        assert_eq!(node.ticks_seen, 5);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn run_until_does_not_process_future_events() {
        let mut sim = Simulator::new(1);
        let id = sim.add_node(TickNode::new(SimTime::from_millis(100), 10));
        sim.run_until(SimTime::from_millis(350));
        assert_eq!(sim.node_ref::<TickNode>(id).unwrap().ticks_seen, 3);
        sim.run_until(SimTime::from_millis(1050));
        assert_eq!(sim.node_ref::<TickNode>(id).unwrap().ticks_seen, 10);
    }

    #[test]
    fn packets_follow_links_and_accumulate_hops() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(ForwardNode { forwarded: 0 });
        let b = sim.add_node(ForwardNode { forwarded: 0 });
        let sink = sim.add_node(TickNode::new(SimTime::from_millis(1), 0));
        // a:1 -> b:2, b:1 -> sink:1
        sim.topology_mut()
            .add_link(a, 1, b, 2, SimTime::from_micros(100));
        sim.topology_mut()
            .add_link(b, 1, sink, 1, SimTime::from_micros(100));
        let pkt = SimPacket::new(openflow::PacketHeader::default(), 1, SimTime::ZERO, a);
        sim.schedule(
            SimTime::from_micros(1),
            a,
            EventPayload::Packet {
                packet: pkt,
                in_port: 7,
            },
        );
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.node_ref::<ForwardNode>(a).unwrap().forwarded, 1);
        assert_eq!(sim.node_ref::<ForwardNode>(b).unwrap().forwarded, 1);
        assert_eq!(sim.node_ref::<TickNode>(sink).unwrap().packets_seen, 1);
    }

    #[test]
    fn send_packet_on_unwired_port_reports_false() {
        let mut sim = Simulator::new(1);
        struct Lonely {
            result: Option<bool>,
        }
        impl Node for Lonely {
            fn name(&self) -> String {
                "lonely".into()
            }
            fn start(&mut self, ctx: &mut Context<'_>) {
                let pkt = SimPacket::new(
                    openflow::PacketHeader::default(),
                    0,
                    ctx.now(),
                    ctx.self_id(),
                );
                self.result = Some(ctx.send_packet(3, pkt));
            }
            fn handle(&mut self, _e: EventPayload, _c: &mut Context<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let id = sim.add_node(Lonely { result: None });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.node_ref::<Lonely>(id).unwrap().result, Some(false));
    }

    #[test]
    fn control_messages_are_delivered_with_latency() {
        let mut sim = Simulator::new(1);
        let receiver = sim.add_node(TickNode::new(SimTime::from_millis(1), 0));
        struct Sender {
            to: NodeId,
        }
        impl Node for Sender {
            fn name(&self) -> String {
                "sender".into()
            }
            fn start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_control(
                    self.to,
                    OfMessage::Hello { xid: 1 },
                    SimTime::from_millis(5),
                );
            }
            fn handle(&mut self, _e: EventPayload, _c: &mut Context<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.add_node(Sender { to: receiver });
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(sim.node_ref::<TickNode>(receiver).unwrap().controls_seen, 0);
        sim.run_until(SimTime::from_millis(6));
        assert_eq!(sim.node_ref::<TickNode>(receiver).unwrap().controls_seen, 1);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> u64 {
            let mut sim = Simulator::new(seed);
            sim.add_node(TickNode::new(SimTime::from_millis(3), 100));
            sim.add_node(TickNode::new(SimTime::from_millis(7), 100));
            sim.run_until(SimTime::from_secs(1));
            sim.events_processed()
        }
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn debug_format_mentions_nodes() {
        let mut sim = Simulator::new(0);
        sim.add_node(TickNode::new(SimTime::from_millis(1), 1));
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("tick"));
        assert_eq!(sim.node_count(), 1);
        assert_eq!(sim.name_of(NodeId(0)), "tick");
    }
}
