//! The one sans-IO switch machine under both switch drivers.
//!
//! [`Datapath`] wraps a [`Behavior`] (tables, timing model, faults, ground
//! truth) with everything else an OpenFlow 1.0 switch decides per message,
//! so that `simnet::OpenFlowSwitch` and `rum_tcp::switch_host` only move
//! bytes and time:
//!
//! * control dispatch — the `Hello` ping-pong guard, echo, features,
//!   get/set-config, desc/aggregate/table/port stats, the accepted-and-
//!   ignored set, `BAD_REQUEST` for controller-bound messages;
//! * `PacketOut` execution — header parse, action list, `in_port`
//!   normalisation, `OFPP_TABLE` / `OFPP_CONTROLLER`;
//! * the data plane — lookup in the *lagging* table, table-miss policy
//!   (`miss_send_len`), drop rules, special-port resolution and `PacketIn`
//!   construction.
//!
//! Inputs are [`Datapath::on_control`] and [`Datapath::on_packet`] plus the
//! pass-through clock calls; outputs are [`BehaviorAction`]s.  What the
//! machine cannot know stays with the driver: which ports are cabled (it
//! resolves [`BehaviorAction::Flood`] and decides whether an
//! [`BehaviorAction::Output`] went anywhere) and pacing.
//!
//! **Pacing and its CPU charge are deliberately not here** (why: see
//! `simnet::ofnode`).  The simulator queues `PacketOut`s, spaces and
//! suppresses `PacketIn`s and charges `packet_in_time`; both drivers charge
//! `packet_out_time` on arrival.

use crate::behavior::{Behavior, BehaviorAction, FaultPlan};
use crate::model::SwitchModel;
use openflow::constants::{error_type, packet_in_reason, port as of_port};
use openflow::messages::{
    ErrorMsg, FeaturesReply, PacketIn, PacketOut, PortStatsEntry, StatsReply, StatsRequest,
    SwitchConfig, TableStatsEntry,
};
use openflow::{Action, DatapathId, OfMessage, PacketHeader, PortNo, Wildcards, Xid};
use std::time::Duration;

/// Size accounted against a rule for a `PacketOut`-injected frame.
const INJECTED_SIZE: usize = 64;

/// One OpenFlow 1.0 switch as a pure state machine (see module docs).
#[derive(Debug)]
pub struct Datapath {
    label: String,
    dpid: DatapathId,
    n_ports: u16,
    behavior: Behavior,
    config: SwitchConfig,
    /// True between our reattach `Hello` going out and the peer's `Hello`
    /// coming back; that reply completes the handshake and must not be
    /// answered with yet another `Hello` (the two sides would ping-pong).
    hello_pending: bool,
    forwarded: u64,
}

impl Datapath {
    /// A switch named `label` with ports `1..=n_ports`.
    pub fn new(
        label: impl Into<String>,
        dpid: DatapathId,
        n_ports: u16,
        model: SwitchModel,
        faults: FaultPlan,
    ) -> Self {
        Datapath {
            label: label.into(),
            dpid,
            n_ports,
            behavior: Behavior::new(model, faults),
            config: SwitchConfig::default(),
            hello_pending: false,
            forwarded: 0,
        }
    }

    /// The switch's name (`dp_desc`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The datapath id.
    pub fn dpid(&self) -> DatapathId {
        self.dpid
    }

    /// The behaviour engine (model, fault plan, tables, ground truth).
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// The behaviour engine, for what drivers own: pre-installing rules,
    /// charging pacing work to the control-plane CPU, settling at teardown.
    pub fn behavior_mut(&mut self) -> &mut Behavior {
        &mut self.behavior
    }

    /// See [`Behavior::advance`].
    pub fn advance(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) {
        self.behavior.advance(now, out);
    }

    /// See [`Behavior::next_deadline`].
    pub fn next_deadline(&self) -> Option<Duration> {
        self.behavior.next_deadline()
    }

    /// See [`Behavior::reattach`]; additionally expects the peer's `Hello`.
    pub fn reattach(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) {
        let before = out.len();
        self.behavior.reattach(now, out);
        self.hello_pending |= out.len() > before;
    }

    /// Sends the switch-side handshake `Hello` again — for a driver whose
    /// fresh control channel died before delivering the reattach one.
    pub fn rehello(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) {
        self.hello_pending = true;
        let message = OfMessage::Hello { xid: 0 };
        out.push(BehaviorAction::Reply { at: now, message });
    }

    /// Handles one control-channel message arriving at `now`.
    pub fn on_control(&mut self, now: Duration, msg: OfMessage, out: &mut Vec<BehaviorAction>) {
        let message = match msg {
            OfMessage::FlowMod { xid, body } => {
                return self.behavior.on_flow_mod(now, xid, body, out)
            }
            OfMessage::BarrierRequest { xid } => return self.behavior.on_barrier(now, xid, out),
            OfMessage::StatsRequest { xid, body } => return self.on_stats(now, xid, body, out),
            OfMessage::PacketOut { body, .. } => return self.packet_out(now, body, out),
            // A Hello answering our own reattach Hello completes the
            // handshake; any other is the peer opening one.
            OfMessage::Hello { .. } if std::mem::take(&mut self.hello_pending) => return,
            OfMessage::Hello { xid } => OfMessage::Hello { xid },
            OfMessage::EchoRequest { xid, data } => OfMessage::EchoReply { xid, data },
            OfMessage::FeaturesRequest { xid } => OfMessage::FeaturesReply {
                xid,
                body: FeaturesReply::simulated(self.dpid, self.n_ports),
            },
            OfMessage::GetConfigRequest { xid } => OfMessage::GetConfigReply {
                xid,
                config: self.config,
            },
            OfMessage::SetConfig { config, .. } => {
                self.config = config;
                return;
            }
            OfMessage::EchoReply { .. }
            | OfMessage::Vendor { .. }
            | OfMessage::PortMod { .. }
            | OfMessage::QueueGetConfig { .. }
            | OfMessage::Error { .. } => return, // accepted and ignored
            // Controller-bound messages arriving at a switch indicate a
            // mis-wired experiment.
            other => OfMessage::Error {
                xid: other.xid(),
                body: ErrorMsg {
                    err_type: error_type::BAD_REQUEST,
                    code: 0,
                    data: Vec::new(),
                },
            },
        };
        out.push(BehaviorAction::Reply { at: now, message });
    }

    fn on_stats(
        &mut self,
        now: Duration,
        xid: Xid,
        req: StatsRequest,
        out: &mut Vec<BehaviorAction>,
    ) {
        let (model, control) = (self.behavior.model(), self.behavior.control_table());
        let body = match req {
            // Fragmentation and the stats-targeted faults live in the engine.
            StatsRequest::Flow { match_, .. } => {
                return self.behavior.on_flow_stats(now, xid, &match_, out)
            }
            StatsRequest::Desc => StatsReply::Desc {
                mfr_desc: "RUM reproduction".into(),
                hw_desc: format!("simulated switch ({:?})", model.barrier_mode),
                sw_desc: "ofswitch".into(),
                serial_num: format!("{}", self.dpid),
                dp_desc: self.label.clone(),
            },
            StatsRequest::Aggregate { match_, .. } => {
                let (mut packet_count, mut byte_count, mut flow_count) = (0, 0, 0);
                for e in control.entries().filter(|e| match_.covers(&e.match_)) {
                    packet_count += e.packet_count;
                    byte_count += e.byte_count;
                    flow_count += 1;
                }
                StatsReply::Aggregate {
                    packet_count,
                    byte_count,
                    flow_count,
                }
            }
            StatsRequest::Table => StatsReply::Table(vec![TableStatsEntry {
                table_id: 0,
                name: "main".into(),
                wildcards: Wildcards::ALL,
                max_entries: match model.table_capacity {
                    0 => 65535,
                    n => n as u32,
                },
                active_count: control.len() as u32,
                lookup_count: self.behavior.data_table().lookup_count,
                matched_count: self.behavior.data_table().matched_count,
            }]),
            StatsRequest::Port { .. } => StatsReply::Port(
                (1..=self.n_ports)
                    .map(|port_no| PortStatsEntry {
                        port_no,
                        tx_packets: self.forwarded,
                        rx_packets: self.forwarded,
                        ..Default::default()
                    })
                    .collect(),
            ),
            StatsRequest::Other { stats_type, .. } => StatsReply::Other {
                stats_type,
                body: Vec::new(),
            },
        };
        let message = OfMessage::StatsReply {
            xid,
            more: false,
            body,
        };
        out.push(BehaviorAction::Reply { at: now, message });
    }

    /// Executes a `PacketOut`: each output of its action list either goes
    /// through the flow table (`OFPP_TABLE`) or leaves directly.
    fn packet_out(&mut self, now: Duration, po: PacketOut, out: &mut Vec<BehaviorAction>) {
        let Ok(header) = PacketHeader::from_bytes(&po.data) else {
            return;
        };
        let (rewritten, outputs) = Action::apply_list(&po.actions, &header);
        // "No ingress port" looks up, reflects and floods as port 0 ...
        let in_port = match po.in_port {
            of_port::NONE => 0,
            port => port,
        };
        for port in outputs {
            if port == of_port::TABLE {
                self.on_packet(now, rewritten, in_port, INJECTED_SIZE, out);
                continue;
            }
            // ... but the PacketOut's own PacketIn reports it as sent.
            let from = match port {
                of_port::CONTROLLER => po.in_port,
                _ => in_port,
            };
            resolve(rewritten, from, port, out);
        }
    }

    /// A packet arriving on the data plane at `in_port` (from a cable or
    /// `OFPP_TABLE`): looks it up in the lagging data-plane table and emits
    /// where it goes, or [`BehaviorAction::Dropped`] on a miss (plus a
    /// `NO_MATCH` `PacketIn` while `miss_send_len > 0`), a drop rule or
    /// outputs that lead nowhere.
    pub fn on_packet(
        &mut self,
        now: Duration,
        header: PacketHeader,
        in_port: PortNo,
        size: usize,
        out: &mut Vec<BehaviorAction>,
    ) {
        let verdict = self.behavior.classify_packet(now, &header, in_port, size);
        let mut forwarded = false;
        for port in verdict.outputs {
            forwarded |= resolve(verdict.rewritten, in_port, port, out);
        }
        if forwarded {
            self.forwarded += 1;
            return;
        }
        out.push(BehaviorAction::Dropped);
        if !verdict.matched && self.config.miss_send_len > 0 {
            out.push(packet_in(header, in_port, packet_in_reason::NO_MATCH));
        }
    }
}

/// Sends `header` out of `port`, interpreting OpenFlow special ports;
/// false when the port leads nowhere.
fn resolve(
    header: PacketHeader,
    in_port: PortNo,
    port: PortNo,
    out: &mut Vec<BehaviorAction>,
) -> bool {
    out.push(match port {
        of_port::CONTROLLER => packet_in(header, in_port, packet_in_reason::ACTION),
        of_port::IN_PORT => BehaviorAction::Output {
            port: in_port,
            header,
        },
        of_port::FLOOD | of_port::ALL => BehaviorAction::Flood {
            except: in_port,
            header,
        },
        of_port::TABLE | of_port::NORMAL | of_port::LOCAL | of_port::NONE => return false,
        port => BehaviorAction::Output { port, header },
    });
    true
}

fn packet_in(header: PacketHeader, in_port: PortNo, reason: u8) -> BehaviorAction {
    let body = PacketIn::unbuffered(in_port, reason, header.to_bytes());
    BehaviorAction::PacketIn {
        message: OfMessage::PacketIn { xid: 0, body },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::{MacAddr, OfMatch};
    use std::net::Ipv4Addr;

    fn header(i: u8) -> PacketHeader {
        PacketHeader::ipv4_udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, i),
            Ipv4Addr::new(10, 1, 0, i),
            7,
            8,
        )
    }

    /// A faithful 4-port switch forwarding flow 1 out of port 2 and dropping
    /// flow 3 by an explicit drop rule.
    fn switch() -> Datapath {
        let mut dp = Datapath::new(
            "s1",
            DatapathId::new(1),
            4,
            SwitchModel::faithful(),
            FaultPlan::none(),
        );
        for (i, actions, cookie) in [(1, vec![Action::output(2)], 5), (3, vec![], 6)] {
            let h = header(i);
            let fm = FlowMod::add(OfMatch::ipv4_pair(h.nw_src, h.nw_dst), 10, actions);
            dp.behavior_mut().preinstall(&fm.with_cookie(cookie));
        }
        dp
    }

    /// Runs one control message and returns the replies (times dropped).
    fn replies(dp: &mut Datapath, msg: OfMessage) -> Vec<OfMessage> {
        let mut out = Vec::new();
        dp.on_control(Duration::from_millis(1), msg, &mut out);
        out.into_iter()
            .map(|a| match a {
                BehaviorAction::Reply { message, .. } => message,
                other => panic!("not a reply: {other:?}"),
            })
            .collect()
    }

    fn packet_out(dp: &mut Datapath, po: PacketOut) -> Vec<BehaviorAction> {
        let mut out = Vec::new();
        let msg = OfMessage::PacketOut { xid: 1, body: po };
        dp.on_control(Duration::from_millis(1), msg, &mut out);
        out
    }

    fn packet_in_of(action: &BehaviorAction) -> &PacketIn {
        match action {
            BehaviorAction::PacketIn {
                message: OfMessage::PacketIn { xid: 0, body },
            } => body,
            other => panic!("not a PacketIn: {other:?}"),
        }
    }

    #[test]
    fn handshake_messages_are_answered() {
        let mut dp = switch();
        assert_eq!(
            replies(&mut dp, OfMessage::Hello { xid: 1 }),
            [OfMessage::Hello { xid: 1 }]
        );
        let features = replies(&mut dp, OfMessage::FeaturesRequest { xid: 2 });
        match &features[..] {
            [OfMessage::FeaturesReply { xid: 2, body }] => {
                assert_eq!(body.datapath_id, DatapathId::new(1));
                assert_eq!(body.ports.len(), 4);
            }
            other => panic!("{other:?}"),
        }
        let echo = OfMessage::EchoRequest {
            xid: 3,
            data: vec![1, 2],
        };
        assert_eq!(
            replies(&mut dp, echo),
            [OfMessage::EchoReply {
                xid: 3,
                data: vec![1, 2]
            }]
        );
        // SetConfig is silent and GetConfig reads it back.
        let config = SwitchConfig {
            flags: 0,
            miss_send_len: 77,
        };
        assert!(replies(&mut dp, OfMessage::SetConfig { xid: 4, config }).is_empty());
        assert_eq!(
            replies(&mut dp, OfMessage::GetConfigRequest { xid: 5 }),
            [OfMessage::GetConfigReply { xid: 5, config }]
        );
        // Every non-flow stats kind is answered in one unfragmented reply.
        let aggregate = StatsRequest::Aggregate {
            match_: OfMatch::wildcard_all(),
            table_id: 0xff,
            out_port: of_port::NONE,
        };
        let other = StatsRequest::Other {
            stats_type: 0xfff0,
            body: vec![],
        };
        for (xid, body) in [
            StatsRequest::Desc,
            aggregate,
            StatsRequest::Table,
            StatsRequest::Port { port_no: 0xffff },
            other,
        ]
        .into_iter()
        .enumerate()
        {
            let xid = 10 + xid as Xid;
            match &replies(&mut dp, OfMessage::StatsRequest { xid, body })[..] {
                [OfMessage::StatsReply { xid: x, more, body }] => {
                    assert_eq!((*x, *more), (xid, false));
                    match body {
                        StatsReply::Desc { dp_desc, .. } => assert_eq!(dp_desc, "s1"),
                        StatsReply::Aggregate { flow_count, .. } => assert_eq!(*flow_count, 2),
                        StatsReply::Table(t) => assert_eq!(t[0].active_count, 2),
                        StatsReply::Port(ports) => assert_eq!(ports.len(), 4),
                        StatsReply::Other { stats_type, .. } => assert_eq!(*stats_type, 0xfff0),
                        StatsReply::Flow(_) => panic!("not asked for"),
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        // Accepted and ignored; controller-bound messages bounce.
        assert!(replies(
            &mut dp,
            OfMessage::EchoReply {
                xid: 20,
                data: vec![]
            }
        )
        .is_empty());
        match &replies(&mut dp, OfMessage::BarrierReply { xid: 21 })[..] {
            [OfMessage::Error { xid: 21, body }] => {
                assert_eq!(body.err_type, error_type::BAD_REQUEST)
            }
            other => panic!("{other:?}"),
        }
    }

    /// The peer's Hello that answers a reattach (or re-sent) Hello is not
    /// answered again; the next unsolicited one is.
    #[test]
    fn hello_answering_our_own_is_not_answered_again() {
        let mut dp = Datapath::new(
            "s1",
            DatapathId::new(1),
            2,
            SwitchModel::faithful(),
            FaultPlan::seeded(1).with_restart_after(1),
        );
        let h = header(1);
        let fm = FlowMod::add(OfMatch::ipv4_pair(h.nw_src, h.nw_dst), 1, vec![]);
        let mut out = Vec::new();
        dp.on_control(
            Duration::ZERO,
            OfMessage::FlowMod { xid: 1, body: fm },
            &mut out,
        );
        assert!(
            matches!(out.last(), Some(BehaviorAction::Restarted { .. })),
            "the first mod trips the restart fault"
        );
        out.clear();
        dp.reattach(Duration::from_secs(1), &mut out);
        assert!(matches!(
            out[..],
            [BehaviorAction::Reply {
                message: OfMessage::Hello { .. },
                ..
            }]
        ));
        assert!(replies(&mut dp, OfMessage::Hello { xid: 9 }).is_empty());
        assert_eq!(replies(&mut dp, OfMessage::Hello { xid: 10 }).len(), 1);
        out.clear();
        dp.rehello(Duration::from_secs(2), &mut out);
        assert_eq!(out.len(), 1);
        assert!(replies(&mut dp, OfMessage::Hello { xid: 11 }).is_empty());
    }

    #[test]
    fn packet_out_injects_into_data_plane() {
        let mut dp = switch();
        let h = header(1);
        // Directly out of a physical port, and through the flow table.
        for po in [
            PacketOut::single_port(2, h.to_bytes()),
            PacketOut::via_table(h.to_bytes()),
        ] {
            assert_eq!(
                packet_out(&mut dp, po),
                [BehaviorAction::Output { port: 2, header: h }]
            );
        }
        // To the controller: the PacketIn reports the in_port as sent (NONE),
        // while a table lookup sees the normalised port 0.
        let out = packet_out(
            &mut dp,
            PacketOut::single_port(of_port::CONTROLLER, h.to_bytes()),
        );
        let body = packet_in_of(&out[0]);
        assert_eq!(
            (body.in_port, body.reason),
            (of_port::NONE, packet_in_reason::ACTION)
        );
        assert_eq!(PacketHeader::from_bytes(&body.data).unwrap(), h);
        // Unparsable data executes nothing.
        assert!(packet_out(&mut dp, PacketOut::single_port(2, vec![1, 2, 3])).is_empty());
    }

    /// A PacketOut to `IN_PORT`, `FLOOD` or `ALL` is reflected / flooded like
    /// a table-forwarded packet, not sent to port 0xfff8/0xfffb/0xfffc.
    #[test]
    fn packet_out_to_special_ports_floods_and_reflects() {
        let mut dp = switch();
        let h = header(9);
        let po = |in_port, out_port| PacketOut {
            in_port,
            ..PacketOut::single_port(out_port, h.to_bytes())
        };
        for port in [of_port::FLOOD, of_port::ALL] {
            assert_eq!(
                packet_out(&mut dp, po(3, port)),
                [BehaviorAction::Flood {
                    except: 3,
                    header: h
                }]
            );
        }
        assert_eq!(
            packet_out(&mut dp, po(of_port::NONE, of_port::FLOOD)),
            [BehaviorAction::Flood {
                except: 0,
                header: h
            }]
        );
        assert_eq!(
            packet_out(&mut dp, po(3, of_port::IN_PORT)),
            [BehaviorAction::Output { port: 3, header: h }]
        );
        // NORMAL and LOCAL lead nowhere on this switch.
        assert!(packet_out(&mut dp, po(3, of_port::NORMAL)).is_empty());
    }

    #[test]
    fn unmatched_packets_are_dropped_and_counted() {
        let mut dp = switch();
        let (now, miss) = (Duration::from_millis(1), header(7));
        let mut out = Vec::new();
        dp.on_packet(now, miss, 1, 64, &mut out);
        // miss_send_len defaults to 128: the miss is reported.
        assert_eq!(out[0], BehaviorAction::Dropped);
        let body = packet_in_of(&out[1]);
        assert_eq!((body.in_port, body.reason), (1, packet_in_reason::NO_MATCH));
        assert_eq!(out.len(), 2);
        // With miss_send_len 0 it is dropped silently.
        let config = SwitchConfig {
            flags: 0,
            miss_send_len: 0,
        };
        assert!(replies(&mut dp, OfMessage::SetConfig { xid: 1, config }).is_empty());
        out.clear();
        dp.on_packet(now, miss, 1, 64, &mut out);
        assert_eq!(out, [BehaviorAction::Dropped]);
        assert_eq!(dp.behavior().data_table().lookup_count, 2);
        assert_eq!(dp.behavior().data_table().matched_count, 0);
    }

    #[test]
    fn drop_rule_drops_without_packet_in() {
        let mut dp = switch();
        let mut out = Vec::new();
        dp.on_packet(Duration::from_millis(1), header(3), 1, 64, &mut out);
        assert_eq!(out, [BehaviorAction::Dropped]);
        assert_eq!(dp.behavior().data_table().matched_count, 1);
    }

    /// Forwarded packets count into the port stats; a rule's special ports
    /// resolve against the packet's ingress port.
    #[test]
    fn table_forwarding_resolves_special_ports_and_counts() {
        let mut dp = switch();
        let h = header(4);
        let actions = vec![
            Action::output(of_port::IN_PORT),
            Action::output(of_port::FLOOD),
            Action::to_controller(),
        ];
        let fm = FlowMod::add(OfMatch::ipv4_pair(h.nw_src, h.nw_dst), 10, actions);
        dp.behavior_mut().preinstall(&fm.with_cookie(9));
        let mut out = Vec::new();
        dp.on_packet(Duration::from_millis(1), h, 3, 64, &mut out);
        assert_eq!(out[0], BehaviorAction::Output { port: 3, header: h });
        assert_eq!(
            out[1],
            BehaviorAction::Flood {
                except: 3,
                header: h
            }
        );
        assert_eq!(packet_in_of(&out[2]).in_port, 3);
        let port_stats = StatsRequest::Port { port_no: 0xffff };
        let msg = OfMessage::StatsRequest {
            xid: 1,
            body: port_stats,
        };
        match &replies(&mut dp, msg)[..] {
            [OfMessage::StatsReply {
                body: StatsReply::Port(ports),
                ..
            }] => assert!(ports.iter().all(|p| p.tx_packets == 1)),
            other => panic!("{other:?}"),
        }
    }
}
