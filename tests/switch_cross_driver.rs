//! Cross-driver equivalence for the switch machine.
//!
//! `ofswitch::Datapath` decides everything a switch says on its control
//! channel; `simnet::OpenFlowSwitch` and `rum_tcp::switch_host` only move
//! bytes and time.  This test locks that in: one scripted conversation with
//! a two-switch chain (s1 port 2 ↔ s2 port 1, s2 punting everything to the
//! controller so packets that leave s1 become visible) must produce the same
//! control-channel messages — type, xid and body, times excluded — from
//! both switches on the bare machine, on the simulator and over TCP.

use ofswitch::{BehaviorAction, Datapath, FaultPlan, SwitchModel};
use openflow::constants::port as of_port;
use openflow::messages::{FlowMod, PacketOut, StatsRequest, SwitchConfig};
use openflow::{Action, DatapathId, MacAddr, OfCodec, OfMatch, OfMessage, PacketHeader, PortNo};
use rum_tcp::{spawn_switch_with, Fabric, SwitchHostOptions};
use simnet::{Context, EventPayload, Node, NodeId, OpenFlowSwitch, SimTime, Simulator};
use std::any::Any;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// What each switch said on its control channel, in order: `[s1, s2]`.
type Heard = [Vec<OfMessage>; 2];

/// (switch, port) pairs of the one cable.
const CABLE: [(usize, PortNo); 2] = [(0, 2), (1, 1)];
/// Ports each switch reports (s1's port 1 stays uncabled).
const N_PORTS: [u16; 2] = [2, 1];

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

fn rule(i: u8, actions: Vec<Action>) -> FlowMod {
    let h = header(i);
    FlowMod::add(OfMatch::ipv4_pair(h.nw_src, h.nw_dst), 10, actions).with_cookie(u64::from(i))
}

/// s2 punts every packet to the controller.
fn punt_all() -> FlowMod {
    FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::to_controller()]).with_cookie(99)
}

/// One step of the conversation: `message` goes to switch `to`, after which
/// s1 and s2 have said `says[0]` and `says[1]` more messages.
struct Step {
    to: usize,
    message: OfMessage,
    says: [usize; 2],
}

fn script() -> Vec<Step> {
    let step = |to, message, says| Step { to, message, says };
    let packet_out = |xid, out_port, h: PacketHeader| OfMessage::PacketOut {
        xid,
        body: PacketOut::single_port(out_port, h.to_bytes()),
    };
    let stats = |xid, body| OfMessage::StatsRequest { xid, body };
    let config = SwitchConfig {
        flags: 0,
        miss_send_len: 64,
    };
    let fm = |xid, body| OfMessage::FlowMod { xid, body };
    let (flow, dropped, stray, probe) = (header(1), header(3), header(7), header(9));
    let aggregate = StatsRequest::Aggregate {
        match_: OfMatch::wildcard_all(),
        table_id: 0xff,
        out_port: of_port::NONE,
    };
    vec![
        // The handshake an unmodified controller opens with.
        step(0, OfMessage::Hello { xid: 1 }, [1, 0]),
        step(0, OfMessage::FeaturesRequest { xid: 2 }, [1, 0]),
        step(0, OfMessage::SetConfig { xid: 3, config }, [0, 0]),
        step(0, OfMessage::GetConfigRequest { xid: 4 }, [1, 0]),
        // A forwarding rule, a drop rule, and a (faithful) barrier.
        step(0, fm(5, rule(1, vec![Action::output(2)])), [0, 0]),
        step(0, fm(6, rule(3, vec![])), [0, 0]),
        step(0, OfMessage::BarrierRequest { xid: 7 }, [1, 0]),
        // PacketOut through the table, to a physical port, to the
        // controller and flooded: three reach s2, one comes straight back.
        step(0, packet_out(8, of_port::TABLE, flow), [0, 1]),
        step(0, packet_out(9, 2, probe), [0, 1]),
        step(0, packet_out(10, of_port::CONTROLLER, probe), [1, 0]),
        step(0, packet_out(11, of_port::FLOOD, probe), [0, 1]),
        // Data-plane arrivals at s1 (injected at s2, over the cable): a
        // drop-rule hit is silent, a table miss is reported.  The cable is
        // FIFO, so the miss's PacketIn also proves the drop was processed.
        step(1, packet_out(12, 1, dropped), [0, 0]),
        step(1, packet_out(13, 1, stray), [1, 0]),
        step(
            0,
            OfMessage::EchoRequest {
                xid: 14,
                data: vec![4, 2],
            },
            [1, 0],
        ),
        // A controller-bound message bounces.
        step(0, OfMessage::BarrierReply { xid: 15 }, [1, 0]),
        // Identity and counters as the machine derived them.
        step(0, stats(16, aggregate), [1, 0]),
        step(0, stats(17, StatsRequest::Desc), [1, 0]),
        step(
            0,
            stats(
                18,
                StatsRequest::Port {
                    port_no: of_port::NONE,
                },
            ),
            [1, 0],
        ),
    ]
}

// ---------------------------------------------------------------------
// Driver 1: the bare machines and a cable
// ---------------------------------------------------------------------

enum Arrival {
    Control(OfMessage),
    Packet(PacketHeader, PortNo),
}

fn bare_machine() -> Heard {
    let mut switches: Vec<Datapath> = (0..2)
        .map(|i| {
            let dpid = DatapathId::new(i as u64 + 1);
            let (model, faults) = (SwitchModel::faithful(), FaultPlan::none());
            Datapath::new(format!("s{}", i + 1), dpid, N_PORTS[i], model, faults)
        })
        .collect();
    switches[1].behavior_mut().preinstall(&punt_all());
    let mut heard: Heard = Default::default();
    let mut now = Duration::ZERO;
    let mut steps: VecDeque<Step> = script().into();
    // One trailing round lets a withheld reply (the faithful barrier) out.
    while now < Duration::from_secs(3) {
        now += Duration::from_millis(100);
        let mut work = VecDeque::new();
        if let Some(step) = steps.pop_front() {
            work.push_back((step.to, Arrival::Control(step.message)));
        }
        for (sw, dp) in switches.iter_mut().enumerate() {
            run(dp, sw, &mut heard, &mut work, |dp, out| {
                dp.advance(now, out)
            });
        }
        while let Some((sw, arrival)) = work.pop_front() {
            run(
                &mut switches[sw],
                sw,
                &mut heard,
                &mut work,
                |dp, out| match arrival {
                    Arrival::Control(msg) => dp.on_control(now, msg, out),
                    Arrival::Packet(h, in_port) => dp.on_packet(now, h, in_port, 64, out),
                },
            );
        }
    }
    heard
}

/// One machine call, executed the way a driver would: control-channel
/// messages are heard, packets cross the cable.
fn run(
    dp: &mut Datapath,
    sw: usize,
    heard: &mut Heard,
    work: &mut VecDeque<(usize, Arrival)>,
    call: impl FnOnce(&mut Datapath, &mut Vec<BehaviorAction>),
) {
    let mut out = Vec::new();
    call(dp, &mut out);
    let (local, peer) = (CABLE[sw], CABLE[1 - sw]);
    for action in out {
        match action {
            BehaviorAction::Reply { message, .. } | BehaviorAction::PacketIn { message } => {
                heard[sw].push(message)
            }
            BehaviorAction::Output { port, header } if port == local.1 => {
                work.push_back((peer.0, Arrival::Packet(header, peer.1)))
            }
            BehaviorAction::Flood { except, header } if except != local.1 => {
                work.push_back((peer.0, Arrival::Packet(header, peer.1)))
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Driver 2: the simulator
// ---------------------------------------------------------------------

/// Sends the script at fixed virtual times and records what comes back.
struct Scripted {
    switches: [NodeId; 2],
    heard: Heard,
}

impl Node for Scripted {
    fn name(&self) -> String {
        "scripted-controller".into()
    }
    fn start(&mut self, ctx: &mut Context<'_>) {
        for (i, step) in script().into_iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            ctx.send_control(self.switches[step.to], step.message, at);
        }
    }
    fn handle(&mut self, event: EventPayload, _ctx: &mut Context<'_>) {
        if let EventPayload::Control { from, message } = event {
            let sw = self.switches.iter().position(|s| *s == from).unwrap();
            self.heard[sw].push(message);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn simulator() -> Heard {
    let mut sim = Simulator::new(1);
    let switches = [NodeId(1), NodeId(2)];
    let ctrl = sim.add_node(Scripted {
        switches,
        heard: Default::default(),
    });
    for (i, id) in switches.into_iter().enumerate() {
        let dpid = DatapathId::new(i as u64 + 1);
        let mut sw = OpenFlowSwitch::new(
            format!("s{}", i + 1),
            dpid,
            N_PORTS[i],
            SwitchModel::faithful(),
        );
        if i == 1 {
            sw.preinstall(&punt_all());
        }
        sw.connect_controller(ctrl);
        assert_eq!(sim.add_node(sw), id);
    }
    let ((a, port_a), (b, port_b)) = (CABLE[0], CABLE[1]);
    sim.topology_mut().add_link(
        switches[a],
        port_a,
        switches[b],
        port_b,
        SimTime::from_micros(50),
    );
    sim.run_until(SimTime::from_secs(3));
    std::mem::take(&mut sim.node_mut::<Scripted>(ctrl).unwrap().heard)
}

// ---------------------------------------------------------------------
// Driver 3: socket-hosted switches on a fabric
// ---------------------------------------------------------------------

struct Peer {
    stream: TcpStream,
    codec: OfCodec,
}

impl Peer {
    /// Reads whatever has arrived, without blocking.
    fn pump(&mut self, heard: &mut Vec<OfMessage>) {
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = self.stream.read(&mut buf) {
            self.codec.feed(&buf[..n]);
            while let Ok(Some(msg)) = self.codec.next_message() {
                heard.push(msg);
            }
        }
    }
}

fn tcp_hosts() -> Heard {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fabric = Fabric::new();
    let ((a, port_a), (b, port_b)) = (CABLE[0], CABLE[1]);
    fabric.link(a, port_a, b, port_b);
    let epoch = Instant::now();
    let (mut hosts, mut peers) = (Vec::new(), Vec::new());
    for i in 0..2 {
        let options = SwitchHostOptions {
            fabric: Some((fabric.clone(), i)),
            epoch: Some(epoch),
            preinstall: if i == 1 { vec![punt_all()] } else { vec![] },
            ..Default::default()
        };
        hosts.push(spawn_switch_with(addr, SwitchModel::faithful(), options).unwrap());
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        peers.push(Peer {
            stream,
            codec: OfCodec::new(),
        });
    }
    let mut heard: Heard = Default::default();
    let mut expected = [0usize; 2];
    for step in script() {
        let mut wire = Vec::new();
        step.message.encode_into(&mut wire).unwrap();
        peers[step.to].stream.write_all(&wire).unwrap();
        // Wait for what this step makes the switches say, so the next step
        // cannot overtake it; a switch that stays silent shows up in the
        // final comparison rather than here.
        expected[0] += step.says[0];
        expected[1] += step.says[1];
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            for (peer, heard) in peers.iter_mut().zip(&mut heard) {
                peer.pump(heard);
            }
            if heard[0].len() >= expected[0] && heard[1].len() >= expected[1] {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(peers);
    for host in hosts {
        host.join();
    }
    heard
}

#[test]
fn all_three_drivers_say_the_same_on_the_control_channel() {
    let bare = bare_machine();
    let says: [usize; 2] = [0, 1].map(|sw| script().iter().map(|s| s.says[sw]).sum());
    assert_eq!(
        [bare[0].len(), bare[1].len()],
        says,
        "the script's own expectations: {bare:#?}"
    );
    // Spot checks, so "the same" cannot mean "the same nonsense".
    assert!(matches!(
        bare[0][1],
        OfMessage::FeaturesReply { xid: 2, .. }
    ));
    assert!(matches!(bare[0][3], OfMessage::BarrierReply { xid: 7 }));
    assert_eq!(
        bare[1].len(),
        3,
        "table, physical-port and flooded PacketOut"
    );

    let sim = simulator();
    assert_eq!(sim, bare, "simulator vs bare machine");
    let tcp = tcp_hosts();
    assert_eq!(tcp, bare, "TCP hosts vs bare machine");
}
