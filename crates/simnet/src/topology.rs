//! Data-plane topology: point-to-point links between node ports.

use crate::node::NodeId;
use crate::time::SimTime;
use openflow::PortNo;
use std::collections::HashMap;

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The node.
    pub node: NodeId,
    /// The port on that node.
    pub port: PortNo,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(node: NodeId, port: PortNo) -> Self {
        Endpoint { node, port }
    }
}

/// A bidirectional link with a propagation latency.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// One end.
    pub a: Endpoint,
    /// The other end.
    pub b: Endpoint,
    /// One-way propagation latency.
    pub latency: SimTime,
}

/// The set of data-plane links in an experiment.
///
/// The topology is immutable while the simulation runs; nodes query it via
/// the [`crate::Context`] to learn where a packet sent out of a port ends up.
/// Each node's wired ports are kept sorted next to their links, indexed by
/// node id (ids are dense, as [`crate::Simulator::add_node`] hands them
/// out), so a lookup touches only that node's few ports.
#[derive(Debug, Default)]
pub struct Topology {
    links: Vec<Link>,
    /// `ports[n]` = node `n`'s `(port, index into links)`, sorted by port.
    ports: Vec<Vec<(PortNo, usize)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Connects `(a, port_a)` to `(b, port_b)` with the given one-way
    /// latency.  Panics if either endpoint is already connected — silently
    /// rewiring a port is almost always an experiment bug.
    pub fn add_link(
        &mut self,
        a: NodeId,
        port_a: PortNo,
        b: NodeId,
        port_b: PortNo,
        latency: SimTime,
    ) {
        let idx = self.links.len();
        self.wire(a, port_a, idx);
        self.wire(b, port_b, idx);
        self.links.push(Link {
            a: Endpoint::new(a, port_a),
            b: Endpoint::new(b, port_b),
            latency,
        });
    }

    fn wire(&mut self, node: NodeId, port: PortNo, link: usize) {
        if self.ports.len() <= node.index() {
            self.ports.resize_with(node.index() + 1, Vec::new);
        }
        let ports = &mut self.ports[node.index()];
        match ports.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(_) => panic!("endpoint {node}:{port} already wired"),
            Err(at) => ports.insert(at, (port, link)),
        }
    }

    /// `node`'s sorted `(port, link index)` list; empty for an unwired node.
    fn wired(&self, node: NodeId) -> &[(PortNo, usize)] {
        self.ports.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// The far end of `link` seen from `(node, port)`.
    fn far_end(&self, node: NodeId, port: PortNo, link: usize) -> (Endpoint, SimTime) {
        let link = &self.links[link];
        let peer = if link.a == Endpoint::new(node, port) {
            link.b
        } else {
            link.a
        };
        (peer, link.latency)
    }

    /// Where does traffic leaving `node` through `port` arrive?
    /// Returns the peer endpoint and the link latency.
    pub fn peer_of(&self, node: NodeId, port: PortNo) -> Option<(Endpoint, SimTime)> {
        let ports = self.wired(node);
        let at = ports.binary_search_by_key(&port, |&(p, _)| p).ok()?;
        Some(self.far_end(node, port, ports[at].1))
    }

    /// All wired ports of a node, sorted.
    pub fn ports_of(&self, node: NodeId) -> Vec<PortNo> {
        self.wired(node).iter().map(|&(port, _)| port).collect()
    }

    /// All neighbours of a node with the local port leading to each, sorted
    /// by port.
    pub fn neighbors(&self, node: NodeId) -> Vec<(PortNo, NodeId)> {
        (self.wired(node).iter())
            .map(|&(port, link)| (port, self.far_end(node, port, link).0.node))
            .collect()
    }

    /// The local port on `from` that leads directly to `to`, if any (the
    /// lowest such port).
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortNo> {
        (self.wired(from).iter())
            .find(|&&(port, link)| self.far_end(from, port, link).0.node == to)
            .map(|&(port, _)| port)
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// The adjacency list over nodes (ignoring ports), useful for graph
    /// algorithms such as the vertex colouring RUM uses to assign per-switch
    /// probe values.
    pub fn adjacency(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for link in &self.links {
            adj.entry(link.a.node).or_default().push(link.b.node);
            adj.entry(link.b.node).or_default().push(link.a.node);
        }
        for neighbors in adj.values_mut() {
            neighbors.sort_unstable();
            neighbors.dedup();
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_lookup_both_directions() {
        let mut t = Topology::new();
        t.add_link(NodeId(0), 1, NodeId(1), 2, SimTime::from_micros(50));
        let (peer, lat) = t.peer_of(NodeId(0), 1).unwrap();
        assert_eq!(peer, Endpoint::new(NodeId(1), 2));
        assert_eq!(lat, SimTime::from_micros(50));
        let (peer, _) = t.peer_of(NodeId(1), 2).unwrap();
        assert_eq!(peer, Endpoint::new(NodeId(0), 1));
        assert!(t.peer_of(NodeId(0), 9).is_none());
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut t = Topology::new();
        t.add_link(NodeId(0), 1, NodeId(1), 1, SimTime::ZERO);
        t.add_link(NodeId(0), 1, NodeId(2), 1, SimTime::ZERO);
    }

    /// A 40-node ring with a chord per node, wired in a shuffled order and
    /// with shuffled port numbers: every node's ports come back sorted, and
    /// every lookup agrees with the links as wired.
    #[test]
    fn ports_are_sorted_whatever_the_wiring_order() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let mut rng = SmallRng::seed_from_u64(7);
        let n = 40;
        let mut port_pool: Vec<Vec<PortNo>> = (0..n)
            .map(|_| {
                let mut ports: Vec<PortNo> = (1..=8).collect();
                ports.shuffle(&mut rng);
                ports
            })
            .collect();
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i + 7) % n)])
            .collect();
        pairs.shuffle(&mut rng);
        let mut t = Topology::new();
        let mut wired = Vec::new();
        for (a, b) in pairs {
            let pa = port_pool[a].pop().unwrap();
            let pb = port_pool[b].pop().unwrap();
            t.add_link(NodeId(a), pa, NodeId(b), pb, SimTime::from_micros(a as u64));
            wired.push((a, pa, b, pb));
        }
        for i in 0..n {
            let ports = t.ports_of(NodeId(i));
            assert_eq!(ports.len(), 4, "node {i}");
            assert!(ports.windows(2).all(|w| w[0] < w[1]), "node {i}: {ports:?}");
            let neighbors = t.neighbors(NodeId(i));
            assert_eq!(neighbors.iter().map(|&(p, _)| p).collect::<Vec<_>>(), ports);
        }
        for (a, pa, b, pb) in wired {
            let lat = SimTime::from_micros(a as u64);
            assert_eq!(
                t.peer_of(NodeId(a), pa),
                Some((Endpoint::new(NodeId(b), pb), lat))
            );
            assert_eq!(
                t.peer_of(NodeId(b), pb),
                Some((Endpoint::new(NodeId(a), pa), lat))
            );
            assert_eq!(t.port_towards(NodeId(a), NodeId(b)), Some(pa));
            assert_eq!(t.port_towards(NodeId(b), NodeId(a)), Some(pb));
        }
        assert!(t.ports_of(NodeId(n)).is_empty());
        assert!(t.peer_of(NodeId(n), 1).is_none());
    }

    #[test]
    fn triangle_adjacency() {
        // The paper's Figure 1a triangle: S1 - S2 - S3 - S1.
        let mut t = Topology::new();
        t.add_link(NodeId(0), 1, NodeId(1), 1, SimTime::from_micros(10));
        t.add_link(NodeId(1), 2, NodeId(2), 1, SimTime::from_micros(10));
        t.add_link(NodeId(2), 2, NodeId(0), 2, SimTime::from_micros(10));
        let adj = t.adjacency();
        assert_eq!(adj[&NodeId(0)], vec![NodeId(1), NodeId(2)]);
        assert_eq!(adj[&NodeId(1)], vec![NodeId(0), NodeId(2)]);
        assert_eq!(adj[&NodeId(2)], vec![NodeId(0), NodeId(1)]);
        assert_eq!(t.ports_of(NodeId(0)), vec![1, 2]);
        assert_eq!(t.port_towards(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(t.port_towards(NodeId(0), NodeId(0)), None);
        assert_eq!(t.neighbors(NodeId(1)), vec![(1, NodeId(0)), (2, NodeId(2))]);
    }
}
