//! Measurement: trace events and the analyses behind the paper's figures.
//!
//! Every node records [`TraceEvent`]s into the shared [`TraceSink`] through
//! its [`crate::Context`].  After a run, the analysis methods reduce the raw
//! trace to the quantities the paper reports:
//!
//! * per-flow *broken time* (Figure 1b) — how long a flow went dark during a
//!   network update,
//! * per-flow *update time* (Figures 6, 7) — when the last old-path packet
//!   and the first new-path packet arrived,
//! * per-rule *activation delay* (Figure 8) — signed gap between data-plane
//!   activation and the control-plane acknowledgment,
//! * drop counts (the "6000–7500 packets lost" headline number).

use crate::node::NodeId;
use crate::time::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Identifies an end-to-end flow in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl FlowId {
    /// The raw value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A single recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A host emitted a data packet.
    PacketSent {
        /// The flow the packet belongs to.
        flow: FlowId,
        /// Packet id.
        packet_id: u64,
        /// Emission time.
        time: SimTime,
    },
    /// A host received a data packet addressed to it.
    PacketDelivered {
        /// Receiving node.
        node: NodeId,
        /// The flow the packet belongs to.
        flow: FlowId,
        /// Packet id.
        packet_id: u64,
        /// Delivery time.
        time: SimTime,
        /// Emission time.
        sent_at: SimTime,
        /// Path signature (node indices of traversed switches, in order).
        path: Vec<usize>,
    },
    /// A switch dropped a data packet (no matching rule, or an explicit drop
    /// rule).
    PacketDropped {
        /// Dropping node.
        node: NodeId,
        /// The flow the packet belongs to (if classifiable).
        flow: Option<FlowId>,
        /// Packet id.
        packet_id: u64,
        /// Drop time.
        time: SimTime,
    },
    /// A rule (identified by its controller-assigned cookie) became active in
    /// a switch's *data plane* — the ground truth RUM tries to track.
    DataPlaneActivated {
        /// The switch.
        switch: NodeId,
        /// The rule's cookie.
        cookie: u64,
        /// Activation time.
        time: SimTime,
    },
    /// A rule stopped being active in the data plane (deleted/replaced).
    DataPlaneDeactivated {
        /// The switch.
        switch: NodeId,
        /// The rule's cookie.
        cookie: u64,
        /// Deactivation time.
        time: SimTime,
    },
    /// The controller (through whatever acknowledgment technique is in use)
    /// considered the rule with this cookie to be installed.
    ControlPlaneConfirmed {
        /// The rule's cookie.
        cookie: u64,
        /// Confirmation time.
        time: SimTime,
    },
    /// The controller sent the flow-mod with this cookie to the switch side.
    FlowModSent {
        /// The rule's cookie.
        cookie: u64,
        /// Send time.
        time: SimTime,
    },
    /// A free-form annotation (used sparingly, e.g. phase markers).
    Marker {
        /// Label.
        label: String,
        /// Time.
        time: SimTime,
    },
}

impl TraceEvent {
    /// The timestamp of the event.
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::PacketSent { time, .. }
            | TraceEvent::PacketDelivered { time, .. }
            | TraceEvent::PacketDropped { time, .. }
            | TraceEvent::DataPlaneActivated { time, .. }
            | TraceEvent::DataPlaneDeactivated { time, .. }
            | TraceEvent::ControlPlaneConfirmed { time, .. }
            | TraceEvent::FlowModSent { time, .. }
            | TraceEvent::Marker { time, .. } => *time,
        }
    }
}

/// Summary of one flow's behaviour across a network update.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowUpdateSummary {
    /// The flow.
    pub flow: FlowId,
    /// Arrival time of the last packet delivered over the initial path.
    pub last_old_path: Option<SimTime>,
    /// Arrival time of the first packet delivered over the final path.
    pub first_new_path: Option<SimTime>,
    /// Number of delivered packets.
    pub delivered: usize,
    /// Number of dropped packets attributed to this flow.
    pub dropped: usize,
    /// True when the flow's path actually changed during the run.
    pub path_changed: bool,
}

impl FlowUpdateSummary {
    /// The interval during which the flow was broken (no packets were being
    /// delivered because the old path was already torn down but the new path
    /// was not yet functional).  Zero when the switchover was seamless.
    pub fn broken_time(&self) -> SimTime {
        match (self.last_old_path, self.first_new_path) {
            (Some(last_old), Some(first_new)) if first_new > last_old => first_new - last_old,
            _ => SimTime::ZERO,
        }
    }
}

/// The activation-delay sample behind Figure 8: one per rule modification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationDelay {
    /// The rule's cookie.
    pub cookie: u64,
    /// When the rule became active in the data plane.
    pub data_plane: SimTime,
    /// When the controller was told the rule was in place.
    pub control_plane: SimTime,
}

impl ActivationDelay {
    /// Signed delay in milliseconds: positive when the acknowledgment arrived
    /// after the data-plane activation (safe), negative when the controller
    /// was told too early (the incorrect behaviour the paper demonstrates).
    pub fn delay_millis(&self) -> f64 {
        self.control_plane.signed_delta_millis(self.data_plane)
    }
}

/// Collects trace events during a simulation run.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Records one event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total packets dropped (optionally restricted to one flow).
    pub fn dropped_packets(&self, flow: Option<FlowId>) -> usize {
        self.events
            .iter()
            .filter(|e| match e {
                TraceEvent::PacketDropped { flow: f, .. } => flow.is_none() || *f == flow,
                _ => false,
            })
            .count()
    }

    /// Total packets delivered (optionally restricted to one flow).
    pub fn delivered_packets(&self, flow: Option<FlowId>) -> usize {
        self.events
            .iter()
            .filter(|e| match e {
                TraceEvent::PacketDelivered { flow: f, .. } => flow.is_none_or(|want| *f == want),
                _ => false,
            })
            .count()
    }

    /// Per-flow update summaries (Figures 1b, 6, 7).
    ///
    /// The initial path of a flow is the path signature of its first
    /// delivered packet; the final path is the signature of its last
    /// delivered packet.  `last_old_path` / `first_new_path` are computed
    /// against those two signatures.
    pub fn flow_update_summaries(&self) -> BTreeMap<FlowId, FlowUpdateSummary> {
        // Gather deliveries per flow in time order (events are recorded in
        // time order because the simulator is single-threaded).
        let mut deliveries: BTreeMap<FlowId, Vec<(SimTime, Vec<usize>)>> = BTreeMap::new();
        let mut drops: HashMap<FlowId, usize> = HashMap::new();
        for e in &self.events {
            match e {
                TraceEvent::PacketDelivered {
                    flow, time, path, ..
                } => deliveries
                    .entry(*flow)
                    .or_default()
                    .push((*time, path.clone())),
                TraceEvent::PacketDropped {
                    flow: Some(flow), ..
                } => *drops.entry(*flow).or_default() += 1,
                _ => {}
            }
        }
        deliveries
            .into_iter()
            .map(|(flow, recs)| {
                let old_path = recs.first().map(|(_, p)| p.clone()).unwrap_or_default();
                let new_path = recs.last().map(|(_, p)| p.clone()).unwrap_or_default();
                let path_changed = old_path != new_path;
                let last_old_path = recs
                    .iter()
                    .filter(|(_, p)| *p == old_path)
                    .map(|(t, _)| *t)
                    .next_back();
                let first_new_path = if path_changed {
                    recs.iter().find(|(_, p)| *p == new_path).map(|(t, _)| *t)
                } else {
                    last_old_path
                };
                let summary = FlowUpdateSummary {
                    flow,
                    last_old_path,
                    first_new_path,
                    delivered: recs.len(),
                    dropped: drops.get(&flow).copied().unwrap_or(0),
                    path_changed,
                };
                (flow, summary)
            })
            .collect()
    }

    /// Per-rule activation delays (Figure 8).
    ///
    /// For each cookie, pairs the *first* data-plane activation with the
    /// *first* control-plane confirmation.  Rules missing either side are
    /// skipped (e.g. probe rules RUM installs for itself).
    pub fn activation_delays(&self) -> Vec<ActivationDelay> {
        let mut data_plane: HashMap<u64, SimTime> = HashMap::new();
        let mut control_plane: HashMap<u64, SimTime> = HashMap::new();
        for e in &self.events {
            match e {
                TraceEvent::DataPlaneActivated { cookie, time, .. } => {
                    data_plane.entry(*cookie).or_insert(*time);
                }
                TraceEvent::ControlPlaneConfirmed { cookie, time } => {
                    control_plane.entry(*cookie).or_insert(*time);
                }
                _ => {}
            }
        }
        let mut out: Vec<ActivationDelay> = data_plane
            .into_iter()
            .filter_map(|(cookie, dp)| {
                control_plane.get(&cookie).map(|cp| ActivationDelay {
                    cookie,
                    data_plane: dp,
                    control_plane: *cp,
                })
            })
            .collect();
        out.sort_by_key(|d| d.cookie);
        out
    }

    /// The times at which flow mods were sent, keyed by cookie.
    pub fn flow_mod_send_times(&self) -> HashMap<u64, SimTime> {
        let mut out = HashMap::new();
        for e in &self.events {
            if let TraceEvent::FlowModSent { cookie, time } = e {
                out.entry(*cookie).or_insert(*time);
            }
        }
        out
    }

    /// The times at which rules were confirmed to the controller, keyed by
    /// cookie.
    pub fn confirmation_times(&self) -> HashMap<u64, SimTime> {
        let mut out = HashMap::new();
        for e in &self.events {
            if let TraceEvent::ControlPlaneConfirmed { cookie, time } = e {
                out.entry(*cookie).or_insert(*time);
            }
        }
        out
    }

    /// The first data-plane activation time per cookie.
    pub fn data_plane_activation_times(&self) -> HashMap<u64, SimTime> {
        let mut out = HashMap::new();
        for e in &self.events {
            if let TraceEvent::DataPlaneActivated { cookie, time, .. } = e {
                out.entry(*cookie).or_insert(*time);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(flow: u64, t_ms: u64, path: Vec<usize>) -> TraceEvent {
        TraceEvent::PacketDelivered {
            node: NodeId(9),
            flow: FlowId(flow),
            packet_id: t_ms,
            time: SimTime::from_millis(t_ms),
            sent_at: SimTime::from_millis(t_ms.saturating_sub(1)),
            path,
        }
    }

    #[test]
    fn broken_time_computed_from_path_change() {
        let mut sink = TraceSink::new();
        // Old path 1-3, packets until t=100; new path 1-2-3 from t=390.
        for t in (0..=100).step_by(20) {
            sink.record(delivered(1, t, vec![1, 3]));
        }
        for t in (390..=450).step_by(20) {
            sink.record(delivered(1, t, vec![1, 2, 3]));
        }
        let summaries = sink.flow_update_summaries();
        let s = &summaries[&FlowId(1)];
        assert!(s.path_changed);
        assert_eq!(s.last_old_path, Some(SimTime::from_millis(100)));
        assert_eq!(s.first_new_path, Some(SimTime::from_millis(390)));
        assert_eq!(s.broken_time(), SimTime::from_millis(290));
        assert_eq!(s.delivered, 6 + 4);
    }

    #[test]
    fn seamless_update_has_zero_broken_time() {
        let mut sink = TraceSink::new();
        sink.record(delivered(2, 0, vec![1, 3]));
        sink.record(delivered(2, 4, vec![1, 3]));
        sink.record(delivered(2, 8, vec![1, 2, 3]));
        let s = &sink.flow_update_summaries()[&FlowId(2)];
        assert!(s.path_changed);
        // A seamless switchover is bounded by the inter-packet gap (4 ms),
        // the paper's measurement precision.
        assert!(s.broken_time() <= SimTime::from_millis(4));
        assert_eq!(s.first_new_path, Some(SimTime::from_millis(8)));
    }

    #[test]
    fn unchanged_path_reports_no_change() {
        let mut sink = TraceSink::new();
        sink.record(delivered(3, 0, vec![1, 3]));
        sink.record(delivered(3, 10, vec![1, 3]));
        let s = &sink.flow_update_summaries()[&FlowId(3)];
        assert!(!s.path_changed);
        assert_eq!(s.broken_time(), SimTime::ZERO);
    }

    #[test]
    fn drop_counting() {
        let mut sink = TraceSink::new();
        sink.record(TraceEvent::PacketDropped {
            node: NodeId(1),
            flow: Some(FlowId(7)),
            packet_id: 1,
            time: SimTime::from_millis(5),
        });
        sink.record(TraceEvent::PacketDropped {
            node: NodeId(1),
            flow: None,
            packet_id: 2,
            time: SimTime::from_millis(6),
        });
        sink.record(delivered(7, 10, vec![1]));
        assert_eq!(sink.dropped_packets(None), 2);
        assert_eq!(sink.dropped_packets(Some(FlowId(7))), 1);
        assert_eq!(sink.delivered_packets(None), 1);
        assert_eq!(sink.delivered_packets(Some(FlowId(7))), 1);
        assert_eq!(sink.delivered_packets(Some(FlowId(8))), 0);
        let s = &sink.flow_update_summaries()[&FlowId(7)];
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn activation_delay_sign_convention() {
        let mut sink = TraceSink::new();
        // Rule 1: ack 50 ms after data plane (safe).
        sink.record(TraceEvent::DataPlaneActivated {
            switch: NodeId(2),
            cookie: 1,
            time: SimTime::from_millis(100),
        });
        sink.record(TraceEvent::ControlPlaneConfirmed {
            cookie: 1,
            time: SimTime::from_millis(150),
        });
        // Rule 2: ack 200 ms BEFORE data plane (the bug the paper exposes).
        sink.record(TraceEvent::ControlPlaneConfirmed {
            cookie: 2,
            time: SimTime::from_millis(100),
        });
        sink.record(TraceEvent::DataPlaneActivated {
            switch: NodeId(2),
            cookie: 2,
            time: SimTime::from_millis(300),
        });
        // Rule 3: no confirmation at all -> excluded.
        sink.record(TraceEvent::DataPlaneActivated {
            switch: NodeId(2),
            cookie: 3,
            time: SimTime::from_millis(400),
        });
        let delays = sink.activation_delays();
        assert_eq!(delays.len(), 2);
        assert!((delays[0].delay_millis() - 50.0).abs() < 1e-9);
        assert!((delays[1].delay_millis() + 200.0).abs() < 1e-9);
    }

    #[test]
    fn first_occurrence_wins_for_duplicate_cookies() {
        let mut sink = TraceSink::new();
        sink.record(TraceEvent::DataPlaneActivated {
            switch: NodeId(0),
            cookie: 9,
            time: SimTime::from_millis(10),
        });
        sink.record(TraceEvent::DataPlaneActivated {
            switch: NodeId(0),
            cookie: 9,
            time: SimTime::from_millis(99),
        });
        sink.record(TraceEvent::ControlPlaneConfirmed {
            cookie: 9,
            time: SimTime::from_millis(20),
        });
        let delays = sink.activation_delays();
        assert_eq!(delays[0].data_plane, SimTime::from_millis(10));
        assert_eq!(
            sink.data_plane_activation_times()[&9],
            SimTime::from_millis(10)
        );
    }

    #[test]
    fn event_time_accessor_and_maps() {
        let mut sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record(TraceEvent::FlowModSent {
            cookie: 4,
            time: SimTime::from_millis(2),
        });
        sink.record(TraceEvent::Marker {
            label: "update-start".into(),
            time: SimTime::from_millis(3),
        });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[1].time(), SimTime::from_millis(3));
        assert_eq!(sink.flow_mod_send_times()[&4], SimTime::from_millis(2));
        assert!(sink.confirmation_times().is_empty());
    }
}
