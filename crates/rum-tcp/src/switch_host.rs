//! A socket-hosted OpenFlow switch: the shared `ofswitch::Datapath` machine
//! served over a real TCP connection.
//!
//! This is the second driver of the same switch machine the simulator node
//! (`simnet::OpenFlowSwitch`) runs.  Every decision — handshake and stats
//! replies, `PacketOut` execution, lookup in the lagging data plane,
//! table-miss and drop policy, barrier modes, the seedable [`FaultPlan`] —
//! lives in the machine; this module only moves bytes.  What stays here is
//! transport:
//!
//! * the wall clock against a shared epoch, and the `ppoll(2)` loop that
//!   wakes for socket bytes, a fabric packet or the machine's
//!   `next_deadline`, so activations happen at model time, not read time.
//!   The `conn` module's workers own the deadlines their transports arm;
//!   this one is the *machine's*, asked for anew before every sleep, so the
//!   host keeps a loop of its own — but it reads through that module's
//!   `FrameReader` and writes through its `Outbox`, on a nonblocking
//!   socket, like every other connection in the crate;
//! * delivering a reply no earlier than its `at` (control-plane busy time,
//!   faithful-barrier horizon) from a small deadline queue instead of
//!   sleeping on the socket;
//! * cabling: the in-process [`Fabric`], a registry of (switch, port) →
//!   (switch, port) links emulating the physical cables of the paper's
//!   testbed.  A RUM probe then takes the real path — `PacketOut` to a
//!   neighbour, data-plane lookup at each hop (against the *lagging*
//!   table), and a `PacketIn` from whichever switch's catch rule fires —
//!   all over genuine sockets on the control side;
//! * the socket's life: restart tear-down, reboot sleep, re-dialing.
//!
//! Pacing stays with the simulator: this loop rounds every sleep up to a
//! whole millisecond, so honouring the model's 30–40 µs `PacketOut` /
//! `PacketIn` spacing would add ~0.5–1 ms to every probe round trip.  Only
//! the `packet_out_time` CPU charge is applied, on arrival.

use crate::conn::{FrameReader, Outbox};
use crate::reactor::{poll_fds, PollFd, Waker};
use ofswitch::{BehaviorAction, Datapath, FaultPlan, GroundTruth, SwitchModel};
use openflow::messages::FlowMod;
use openflow::{DatapathId, OfCodec, OfMessage, PacketHeader, PortNo};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Final state of a hosted switch after its connection closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchReport {
    /// Rules in the control-plane table at disconnect.
    pub control_rules: usize,
    /// Rules visible in the (emulated) data-plane table at disconnect.
    pub data_rules: usize,
    /// The full control-plane table at disconnect, in installation order —
    /// lets a harness check table *contents* (not just counts) against a
    /// desired state, e.g. after a resync.
    pub control_entries: Vec<ofswitch::FlowEntry>,
    /// The data-plane timeline (activations, removals, wedged rules) — the
    /// ground truth confirmations are classified against.
    pub truth: GroundTruth,
}

/// A handle to a switch served on a background thread.
pub struct SocketSwitchHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<SwitchReport>,
}

impl SocketSwitchHandle {
    /// Asks the serve loop to exit at its next poll (≤ one poll interval);
    /// [`SocketSwitchHandle::join`] then returns promptly even though the
    /// peer still holds the connection open.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the connection to close and returns the final tables and
    /// ground truth.
    pub fn join(self) -> SwitchReport {
        self.thread.join().expect("switch thread panicked")
    }
}

// ---------------------------------------------------------------------
// The data-plane fabric
// ---------------------------------------------------------------------

/// An in-process emulation of the physical links between socket-hosted
/// switches: `(switch index, port) → (switch index, port)`.  Packets put on
/// a link appear in the peer switch's inbox and go through its (lagging)
/// data-plane table, exactly like the simulator topology — this is what
/// lets RUM's probe packets travel switch-to-switch in the TCP deployment.
#[derive(Clone, Default)]
pub struct Fabric {
    inner: Arc<Mutex<FabricInner>>,
}

#[derive(Default)]
struct FabricInner {
    links: HashMap<(usize, PortNo), (usize, PortNo)>,
    /// Per attached switch: its inbox, and the waker that interrupts its
    /// serve loop's `poll` the instant a packet lands there — probe hops
    /// are event-driven instead of bounded below by a poll quantum.
    attached: HashMap<usize, (Sender<Arrival>, Arc<Waker>)>,
}

/// A packet at the end of a cable: its header and the port it arrives on.
type Arrival = (PacketHeader, PortNo);
/// A switch's end of its attachment: the inbox and the waker to poll.
type FabricPort = (Receiver<Arrival>, Arc<Waker>);

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FabricInner> {
        self.inner.lock().expect("no fabric user panics mid-update")
    }

    /// Adds a bidirectional link between `(a, port_a)` and `(b, port_b)`.
    pub fn link(&self, a: usize, port_a: PortNo, b: usize, port_b: PortNo) {
        let mut inner = self.lock();
        inner.links.insert((a, port_a), (b, port_b));
        inner.links.insert((b, port_b), (a, port_a));
    }

    /// The linked ports of switch `idx` (for FLOOD handling).
    pub fn ports_of(&self, idx: usize) -> Vec<PortNo> {
        let inner = self.lock();
        let mut ports: Vec<PortNo> = (inner.links.keys())
            .filter(|(sw, _)| *sw == idx)
            .map(|(_, p)| *p)
            .collect();
        ports.sort_unstable();
        ports
    }

    fn attach(&self, idx: usize) -> std::io::Result<FabricPort> {
        let (tx, rx) = channel();
        let waker = Arc::new(Waker::new()?);
        self.lock().attached.insert(idx, (tx, Arc::clone(&waker)));
        Ok((rx, waker))
    }

    /// Puts `header` on switch `from`'s `out_port`; it arrives at the peer
    /// (if the port is linked and the peer is attached) and wakes the
    /// peer's serve loop immediately.
    fn send(&self, from: usize, out_port: PortNo, header: PacketHeader) {
        let inner = self.lock();
        let Some(&(peer, peer_port)) = inner.links.get(&(from, out_port)) else {
            return;
        };
        if let Some((tx, waker)) = inner.attached.get(&peer) {
            let _ = tx.send((header, peer_port));
            waker.wake();
        }
    }
}

/// Configuration of one socket-hosted switch beyond its timing model.
#[derive(Clone, Default)]
pub struct SwitchHostOptions {
    /// Fault plan driven by the shared switch machine.
    pub faults: FaultPlan,
    /// Epoch all behaviour times are measured against.  Share one `Instant`
    /// across the controller and every switch of an experiment so
    /// confirmation times and data-plane activation times are comparable.
    pub epoch: Option<Instant>,
    /// Data-plane wiring: the fabric and this switch's index in it.  The
    /// switch reports datapath id `index + 1` (1 when unwired) and ports up
    /// to its highest linked one.
    pub fabric: Option<(Fabric, usize)>,
    /// Rules installed in both tables before serving (the paper pre-installs
    /// drop-all and initial-path rules the same way).
    pub preinstall: Vec<FlowMod>,
    /// After the restart fault tears the connection down, how long the
    /// switch stays down before it re-dials the same address, reattaches
    /// the machine and replays the OpenFlow handshake.  `None` (the
    /// default) leaves it down forever.
    pub reconnect_delay: Option<Duration>,
}

/// Connects to `addr` (the RUM proxy or a controller) and serves a
/// fault-free OpenFlow switch with the given behaviour model until the peer
/// closes the connection.
pub fn spawn_switch(addr: SocketAddr, model: SwitchModel) -> std::io::Result<SocketSwitchHandle> {
    spawn_switch_with(addr, model, SwitchHostOptions::default())
}

/// Connects to `addr` and serves a switch with explicit options (fault
/// plan, shared epoch, data-plane fabric, pre-installed rules).
pub fn spawn_switch_with(
    addr: SocketAddr,
    model: SwitchModel,
    options: SwitchHostOptions,
) -> std::io::Result<SocketSwitchHandle> {
    let stream = TcpStream::connect(addr)?;
    let stop = Arc::new(AtomicBool::new(false));
    // Attach to the fabric before returning: a neighbour spawned earlier may
    // forward a packet to this switch the moment the caller gets its handle,
    // and a packet sent to an unattached switch is dropped.
    let port = match &options.fabric {
        Some((fabric, idx)) => Some(fabric.attach(*idx)?),
        None => None,
    };
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run(stream, addr, model, options, port, &stop))
    };
    Ok(SocketSwitchHandle { stop, thread })
}

struct Host {
    datapath: Datapath,
    epoch: Instant,
    fabric: Option<(Fabric, usize)>,
    /// Replies the machine scheduled for the future, by (due time, order).
    deferred: BTreeMap<(Duration, u64), OfMessage>,
    next_defer_seq: u64,
    actions: Vec<BehaviorAction>,
    reply_buf: Vec<u8>,
    disconnect: bool,
}

impl Host {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Runs one machine call and executes what it returned: replies into
    /// the deferred queue, PacketIns onto the wire, packets onto the fabric.
    fn run(&mut self, call: impl FnOnce(&mut Datapath, Duration, &mut Vec<BehaviorAction>)) {
        let (now, mut actions) = (self.now(), std::mem::take(&mut self.actions));
        call(&mut self.datapath, now, &mut actions);
        for action in actions.drain(..) {
            match action {
                BehaviorAction::Reply { at, message } => {
                    self.deferred.insert((at, self.next_defer_seq), message);
                    self.next_defer_seq += 1;
                }
                BehaviorAction::PacketIn { message } => {
                    let _ = message.encode_into(&mut self.reply_buf);
                }
                BehaviorAction::Output { port, header } => {
                    if let Some((fabric, idx)) = &self.fabric {
                        fabric.send(*idx, port, header);
                    }
                }
                BehaviorAction::Flood { except, header } => {
                    if let Some((fabric, idx)) = &self.fabric {
                        for port in fabric.ports_of(*idx) {
                            if port != except {
                                fabric.send(*idx, port, header);
                            }
                        }
                    }
                }
                // Recorded in the machine's ground truth / nothing to send.
                BehaviorAction::Activated { .. }
                | BehaviorAction::Deactivated { .. }
                | BehaviorAction::Dropped => {}
                BehaviorAction::Restarted { at } => {
                    // Replies the serial control plane emitted *before* the
                    // reboot instant logically left the switch already —
                    // they sit in the deferred queue only because wall time
                    // lags model time.  Flush them ahead of the close (the
                    // simulator delivers them the same way); anything later
                    // dies with the reboot.
                    self.flush_replies_due(at);
                    self.deferred.clear();
                    self.disconnect = true;
                }
            }
        }
        self.actions = actions;
    }

    /// Encodes every deferred reply due by `now` into `reply_buf`, in
    /// schedule order.
    fn flush_replies_due(&mut self, now: Duration) {
        while let Some(first) = self.deferred.first_entry() {
            if first.key().0 > now {
                break;
            }
            let _ = first.remove().encode_into(&mut self.reply_buf);
        }
    }

    /// How long the serve loop may sleep before something needs attention:
    /// the machine's next deadline or the next deferred reply (fabric
    /// packets arrive through the waker).
    fn poll_timeout(&self) -> Duration {
        let reply_due = self.deferred.first_key_value().map(|(k, _)| k.0);
        let horizon = match (self.datapath.next_deadline(), reply_due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let cap = Duration::from_millis(50);
        match horizon {
            Some(at) => at
                .saturating_sub(self.now())
                .clamp(Duration::from_micros(500), cap),
            None => cap,
        }
    }
}

/// Sleeps for `delay` in small slices, returning early when `stop` is set.
fn interruptible_sleep(delay: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + delay;
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(2).min(deadline - Instant::now()));
    }
}

/// The switch's whole life: serve one connection until it ends; when the
/// ending was the restart fault and a reconnect delay is configured, stay
/// down for that long, reattach the machine (which replays the switch-side
/// `Hello`), re-dial the same address and keep serving — the same switch
/// identity, rebooted with empty tables.
fn run(
    first_stream: TcpStream,
    addr: SocketAddr,
    model: SwitchModel,
    options: SwitchHostOptions,
    port: Option<FabricPort>,
    stop: &AtomicBool,
) -> SwitchReport {
    let (dpid, n_ports) = match &options.fabric {
        Some((fabric, idx)) => (*idx as u64 + 1, fabric.ports_of(*idx).last().copied()),
        None => (1, None),
    };
    let mut datapath = Datapath::new(
        format!("s{dpid}"),
        DatapathId::new(dpid),
        n_ports.unwrap_or(0),
        model,
        options.faults.clone(),
    );
    for fm in &options.preinstall {
        datapath.behavior_mut().preinstall(fm);
    }
    let mut host = Host {
        datapath,
        epoch: options.epoch.unwrap_or_else(Instant::now),
        fabric: options.fabric.clone(),
        deferred: BTreeMap::new(),
        next_defer_seq: 0,
        actions: Vec::new(),
        reply_buf: Vec::new(),
        disconnect: false,
    };

    let mut stream = Some(first_stream);
    // Consecutive post-reboot connections that died before a single message
    // was exchanged: the listener accepted and immediately dropped us
    // because the old connection's slot was not freed yet.  Bounded so a
    // peer that is genuinely gone ends the loop (~3 s of attempts).
    let mut barren_redials: u32 = 0;
    while let Some(conn) = stream.take() {
        let got_any = serve_conn(conn, &mut host, port.as_ref(), stop);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let reattaches = host.datapath.behavior().counters().reattaches;
        if host.disconnect {
            // The restart fault: stay down for the reboot, reattach the
            // machine (queueing the handshake Hello for the next
            // connection), then re-dial below.
            let Some(delay) = options.reconnect_delay else {
                break;
            };
            host.disconnect = false;
            barren_redials = 0;
            interruptible_sleep(delay, stop);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            host.run(|dp, now, out| dp.reattach(now, out));
        } else if reattaches > 0 && !got_any && barren_redials < 300 {
            // A freshly re-dialed connection died silently: the peer's
            // accept loop found no free slot (the old pair's teardown had
            // not finished) and dropped us.  Queue a fresh handshake Hello
            // — the previous one went into the dead socket — and dial
            // again shortly.
            barren_redials += 1;
            interruptible_sleep(Duration::from_millis(10), stop);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            host.run(|dp, now, out| dp.rehello(now, out));
        } else {
            break;
        }
        while !stop.load(Ordering::SeqCst) {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => interruptible_sleep(Duration::from_millis(10), stop),
            }
        }
    }
    // Settle the data plane so the report reflects everything the control
    // plane accepted (minus wedged rules, which never apply by design) —
    // including batches whose synchronisation was burst-delayed far beyond
    // the nominal worst case.
    let now = host.now();
    let behavior = host.datapath.behavior_mut();
    if !host.disconnect {
        behavior.settle(now, &mut Vec::new());
    }
    SwitchReport {
        control_rules: behavior.control_table().len(),
        data_rules: behavior.data_table().len(),
        control_entries: behavior.control_table().entries().cloned().collect(),
        truth: behavior.ground_truth().clone(),
    }
}

/// Serves one TCP connection of the switch's life; returns when the peer
/// hangs up, `stop` is set, or the restart fault fires (`host.disconnect`).
/// The return value is true when at least one OpenFlow message arrived on
/// this connection — false distinguishes an accepted-then-dropped dial
/// (peer had no free slot yet) from a served connection that later died.
fn serve_conn(
    stream: TcpStream,
    host: &mut Host,
    port: Option<&FabricPort>,
    stop: &AtomicBool,
) -> bool {
    let _ = stream.set_nodelay(true);
    // Nonblocking both ways: a peer that stops reading leaves residue in
    // the outbox instead of parking this loop — and with it the machine's
    // deadlines, the fabric inbox and `stop` — inside a write.
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let stream = Arc::new(stream);
    let mut outbox = Outbox::new(Vec::new());
    outbox.attach(Arc::clone(&stream));
    let mut codec = OfCodec::new();
    let mut reader = FrameReader::new();
    let mut pfds: Vec<PollFd> = Vec::with_capacity(2);
    let mut got_any = false;

    while !stop.load(Ordering::SeqCst) {
        // 1. Let the machine catch up (syncs, TCAM batches, barrier horizons).
        host.run(|dp, now, out| dp.advance(now, out));

        // 2. Drain the data-plane inbox (probe packets hopping the fabric).
        while let Some(Ok((header, in_port))) = port.map(|(rx, _)| rx.try_recv()) {
            host.run(|dp, now, out| dp.on_packet(now, header, in_port, 64, out));
        }

        // 3. Ship every reply whose schedule time has come, as one chunk.
        host.flush_replies_due(host.now());
        outbox.push(std::mem::take(&mut host.reply_buf));
        let residue = outbox.flush();
        if host.disconnect {
            // The restart fault: tear the control channel down (what the
            // kernel did not take just now dies with the reboot).  The
            // caller decides whether the switch comes back.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            break;
        }

        // 4. Sleep until socket bytes arrive (or outbox residue can move),
        //    a fabric packet wakes us, or the next machine deadline passes
        //    — whichever comes first.
        let whole_ms = host.poll_timeout().as_micros().div_ceil(1000) as u64;
        pfds.clear();
        pfds.push(PollFd::new(stream.as_raw_fd(), true, residue));
        if let Some((_, waker)) = port {
            pfds.push(PollFd::new(waker.fd(), true, false));
        }
        poll_fds(&mut pfds, Duration::from_millis(whole_ms));
        if let (Some(pfd), Some((_, waker))) = (pfds.get(1), port) {
            if pfd.readable() {
                waker.drain();
            }
        }
        if !pfds[0].readable() {
            // Deadline, writability or fabric wake-up: the loop top drains
            // the inbox and flushes due replies and residue.
            continue;
        }
        let alive = reader.drain(&stream, &mut codec, |msgs| {
            got_any = true;
            for msg in msgs.drain(..) {
                host.run(|dp, now, out| {
                    if matches!(msg, OfMessage::PacketOut { .. }) {
                        // Pacing's CPU charge, on arrival (see module docs).
                        let cost = dp.behavior().model().packet_out_time;
                        dp.behavior_mut().consume_cpu(now, cost);
                    }
                    dp.on_control(now, msg, out)
                });
            }
        });
        if !alive {
            break;
        }
    }
    got_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::PacketOut;
    use openflow::{Action, OfMatch};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A buggy-model switch answers a barrier long before its emulated data
    /// plane would have activated the preceding modification.
    #[test]
    fn early_reply_switch_answers_barriers_instantly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = spawn_switch(addr, SwitchModel::hp5406zl()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(3))).unwrap();

        let fm = OfMessage::FlowMod {
            xid: 1,
            body: FlowMod::add(OfMatch::wildcard_all(), 10, vec![Action::output(1)])
                .with_cookie(77),
        };
        let started = Instant::now();
        // The flow-mod and the barrier go out as one batched write, the way
        // the proxy's writer coalesces a drain burst.
        let mut wire = Vec::new();
        fm.encode_into(&mut wire).unwrap();
        OfMessage::BarrierRequest { xid: 2 }
            .encode_into(&mut wire)
            .unwrap();
        peer.write_all(&wire).unwrap();

        let mut codec = OfCodec::new();
        let mut buf = [0u8; 512];
        let reply_at = loop {
            let n = peer.read(&mut buf).unwrap();
            codec.feed(&buf[..n]);
            if let Ok(Some(OfMessage::BarrierReply { xid: 2 })) = codec.next_message() {
                break started.elapsed();
            }
        };
        // The HP model's data plane lags by >= 100 ms; the buggy barrier
        // reply must arrive way earlier.
        assert!(
            reply_at < Duration::from_millis(90),
            "buggy switch replied after {reply_at:?}"
        );
        drop(peer);
        let report = handle.join();
        assert_eq!(report.control_rules, 1);
        // The ground truth shows the rule activating after the early reply.
        let act = report.truth.first_activation(77).expect("rule activated");
        assert!(act > reply_at, "activation {act:?} vs barrier {reply_at:?}");
    }

    /// Two fabric-linked switches forward a PacketOut-injected packet from
    /// one data plane to the other, where a to-controller rule punts it back
    /// over TCP — the probe path of the probing techniques.
    #[test]
    fn fabric_carries_packets_between_switch_hosts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fabric = Fabric::new();
        fabric.link(0, 2, 1, 1);

        let epoch = Instant::now();
        // Switch 0 forwards everything out port 2; switch 1 punts everything
        // to the controller.
        let a = spawn_switch_with(
            addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                fabric: Some((fabric.clone(), 0)),
                epoch: Some(epoch),
                preinstall: vec![
                    FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(2)])
                        .with_cookie(1),
                ],
                ..Default::default()
            },
        )
        .unwrap();
        let (mut peer_a, _) = listener.accept().unwrap();
        let b = spawn_switch_with(
            addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                fabric: Some((fabric.clone(), 1)),
                epoch: Some(epoch),
                preinstall: vec![FlowMod::add(
                    OfMatch::wildcard_all(),
                    1,
                    vec![Action::to_controller()],
                )
                .with_cookie(2)],
                ..Default::default()
            },
        )
        .unwrap();
        let (mut peer_b, _) = listener.accept().unwrap();
        peer_b
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // Inject a packet at switch 0 via OFPP_TABLE: its table sends it out
        // port 2, the fabric carries it to switch 1 port 1, whose rule punts
        // it to the controller — i.e. back to us on switch 1's socket.
        let header = PacketHeader::ipv4_udp(
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            7,
            8,
        );
        let po = OfMessage::PacketOut {
            xid: 5,
            body: PacketOut::via_table(header.to_bytes()),
        };
        let mut wire = Vec::new();
        po.encode_into(&mut wire).unwrap();
        peer_a.write_all(&wire).unwrap();

        let mut codec = OfCodec::new();
        let mut buf = [0u8; 2048];
        let mut got = None;
        while got.is_none() {
            let n = match peer_b.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            codec.feed(&buf[..n]);
            while let Ok(Some(msg)) = codec.next_message() {
                if let OfMessage::PacketIn { body, .. } = msg {
                    got = Some(body);
                }
            }
        }
        let packet_in = got.expect("PacketIn from switch 1");
        assert_eq!(packet_in.in_port, 1, "arrived on switch 1's port 1");
        let punted = PacketHeader::from_bytes(&packet_in.data).unwrap();
        assert_eq!(punted.nw_src, header.nw_src);

        drop(peer_a);
        drop(peer_b);
        let _ = a.join();
        let _ = b.join();
    }

    /// Three fabric-linked hosts in a chain — switches 0 and 1 forward
    /// everything out port 2, switch 2 punts to the controller — and the
    /// peers' ends of their control channels, in switch order.
    fn chain_of_three() -> (Vec<SocketSwitchHandle>, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fabric = Fabric::new();
        fabric.link(0, 2, 1, 1);
        fabric.link(1, 2, 2, 1);
        let epoch = Instant::now();
        let actions = [
            Action::output(2),
            Action::output(2),
            Action::to_controller(),
        ];
        (actions.into_iter().enumerate())
            .map(|(idx, action)| {
                let options = SwitchHostOptions {
                    fabric: Some((fabric.clone(), idx)),
                    epoch: Some(epoch),
                    preinstall: vec![FlowMod::add(OfMatch::wildcard_all(), 1, vec![action])],
                    ..Default::default()
                };
                let host = spawn_switch_with(addr, SwitchModel::faithful(), options).unwrap();
                let (peer, _) = listener.accept().unwrap();
                peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                (host, peer)
            })
            .unzip()
    }

    /// Injects one packet at the head of the chain through `peer_a` and
    /// reads `peer_c` until the tail's `PacketIn` shows up; `false` if the
    /// tail's channel times out or closes first.
    fn crosses_the_chain(xid: u32, peer_a: &mut TcpStream, peer_c: &mut TcpStream) -> bool {
        let header = PacketHeader::ipv4_udp(
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            7,
            8,
        );
        let po = OfMessage::PacketOut {
            xid,
            body: PacketOut::via_table(header.to_bytes()),
        };
        let mut wire = Vec::new();
        po.encode_into(&mut wire).unwrap();
        peer_a.write_all(&wire).unwrap();
        let mut codec = OfCodec::new();
        let mut buf = [0u8; 2048];
        loop {
            let n = match peer_c.read(&mut buf) {
                Ok(0) | Err(_) => return false,
                Ok(n) => n,
            };
            codec.feed(&buf[..n]);
            while let Ok(Some(msg)) = codec.next_message() {
                if matches!(msg, OfMessage::PacketIn { .. }) {
                    return true;
                }
            }
        }
    }

    /// Fabric hop delivery is wake-driven: the median latency of a packet
    /// crossing a two-hop chain (inject at switch 0, forward through
    /// switch 1, punt to the controller from switch 2) sits below the old
    /// 2 ms-per-hop poll quantum.  Before the fabric waker, every hop
    /// waited out a slice of the peer's fixed 2 ms read timeout, putting a
    /// ~2 ms floor under the p50 of this chain.
    #[test]
    fn fabric_hops_are_event_driven_not_poll_quantised() {
        let (hosts, mut peers) = chain_of_three();
        let mut peer_c = peers.pop().unwrap();
        let mut samples: Vec<Duration> = Vec::new();
        for round in 0..21 {
            let injected = Instant::now();
            assert!(
                crosses_the_chain(round, &mut peers[0], &mut peer_c),
                "switch 2 went away mid-measurement"
            );
            samples.push(injected.elapsed());
        }
        samples.sort_unstable();
        let p50 = samples[samples.len() / 2];
        assert!(
            p50 < Duration::from_millis(2),
            "two fabric hops took {p50:?} at p50 — hop delivery is being poll-quantised"
        );

        drop((peers, peer_c));
        for host in hosts {
            let _ = host.join();
        }
    }

    /// A peer that floods the control channel and never reads a reply must
    /// cost the switch only that channel: replies pile up as outbox residue
    /// while the host keeps forwarding fabric packets and still honours
    /// `stop()`.  (Written blocking, the host parked in `write_all` once
    /// the kernel buffers filled, for as long as the peer cared to stall.)
    #[test]
    fn peer_that_never_reads_cannot_park_the_host() {
        let (mut hosts, mut peers) = chain_of_three();
        let mut peer_c = peers.pop().unwrap();
        let mut flooder = peers.pop().unwrap();
        // Up to 48 MiB of echoes, several times what the four kernel
        // buffers between the two ends hold; a host that stops reading
        // shows up as a stalled write, which ends the flood early.
        flooder
            .set_write_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut echo = Vec::new();
        OfMessage::EchoRequest {
            xid: 1,
            data: vec![0u8; 32 * 1024],
        }
        .encode_into(&mut echo)
        .unwrap();
        let _ = (0..1536).try_for_each(|_| flooder.write_all(&echo));

        // The middle switch's data plane is unaffected, and it still stops
        // on request with the flooder's socket wide open.
        let forwards = crosses_the_chain(1, &mut peers[0], &mut peer_c);
        let middle = hosts.remove(1);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            middle.stop();
            let _ = tx.send(middle.join());
        });
        let stops = rx.recv_timeout(Duration::from_secs(2)).is_ok();
        assert!(
            forwards && stops,
            "flooded by a peer that never reads: forwards = {forwards}, stop() + join() = {stops}"
        );

        drop((peers, peer_c, flooder));
        for host in hosts {
            let _ = host.join();
        }
    }

    /// The restart fault closes the connection from the switch side and the
    /// report shows wiped tables.
    #[test]
    fn restart_fault_disconnects_and_wipes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = spawn_switch_with(
            addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                faults: FaultPlan::seeded(1).with_restart_after(2),
                ..Default::default()
            },
        )
        .unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let mut wire = Vec::new();
        for i in 0..3u32 {
            OfMessage::FlowMod {
                xid: i,
                body: FlowMod::add(
                    OfMatch::ipv4_pair(
                        std::net::Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                        std::net::Ipv4Addr::new(10, 1, 0, 1),
                    ),
                    100,
                    vec![Action::output(2)],
                )
                .with_cookie(u64::from(i)),
            }
            .encode_into(&mut wire)
            .unwrap();
        }
        peer.write_all(&wire).unwrap();
        // The switch restarts after the 2nd mod: it hangs up on us.
        let mut buf = [0u8; 256];
        let eof = loop {
            match peer.read(&mut buf) {
                Ok(0) => break true,
                Ok(_) => continue,
                Err(_) => break false,
            }
        };
        assert!(eof, "switch must close the connection on restart");
        let report = handle.join();
        assert_eq!(report.control_rules, 0, "tables wiped");
        assert_eq!(report.data_rules, 0);
    }
}
