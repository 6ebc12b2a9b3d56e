//! A socket-hosted OpenFlow switch: the shared `ofswitch::Behavior` engine
//! served over a real TCP connection.
//!
//! This is the second driver of the same behaviour state machine the
//! simulator node (`simnet::OpenFlowSwitch`) runs: flow-table semantics,
//! the lagging data plane, barrier modes and the seedable [`FaultPlan`] all
//! live in the engine; this module only moves bytes.  The serve loop:
//!
//! * decodes OpenFlow frames and feeds flow-mods/barriers into the engine;
//! * executes [`BehaviorAction`]s — replies carry an earliest-send time
//!   (control-plane busy time, faithful-barrier data-plane horizon), so the
//!   loop holds them in a small deadline heap instead of sleeping on the
//!   socket;
//! * wakes for the engine's `next_deadline` (data-plane syncs, in-flight
//!   TCAM batches) so activations happen at model time, not read time.
//!
//! For the probing techniques, switch hosts can additionally be wired into
//! an in-process [`Fabric`]: a registry of (switch, port) → (switch, port)
//! links emulating the physical cables of the paper's testbed.  A RUM probe
//! then takes the real path — `PacketOut` to a neighbour, data-plane lookup
//! at each hop (against the *lagging* table), and a `PacketIn` from
//! whichever switch's catch rule fires — all over genuine sockets on the
//! control side.

use crate::reactor::{poll_fds, PollFd, Waker};
use ofswitch::{Behavior, BehaviorAction, FaultPlan, GroundTruth, SwitchModel};
use openflow::constants::{packet_in_reason, port as of_port};
use openflow::messages::{FlowMod, PacketIn, PacketOut, StatsRequest};
use openflow::{Action, OfCodec, OfMessage, PacketHeader, PortNo};
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live message counters of a hosted switch.
#[derive(Debug, Default)]
pub struct SwitchCounters {
    /// Flow modifications accepted by the control plane.
    pub flow_mods: AtomicU64,
    /// Barrier requests answered.
    pub barriers: AtomicU64,
    /// Echo requests answered.
    pub echos: AtomicU64,
    /// Modifications rejected with an error.
    pub errors: AtomicU64,
}

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
    counters: Arc<SwitchCounters>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<SwitchReport>,
}

impl SocketSwitchHandle {
    /// Live counters (updated by the serving thread).
    pub fn counters(&self) -> &SwitchCounters {
        &self.counters
    }

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
    inner: Arc<FabricInner>,
}

#[derive(Default)]
struct FabricInner {
    links: Mutex<HashMap<(usize, PortNo), (usize, PortNo)>>,
    inboxes: Mutex<HashMap<usize, Sender<(PacketHeader, PortNo)>>>,
    /// Per-switch wake-ups: a serve loop blocked in `poll` on its socket is
    /// interrupted the instant a packet lands in its inbox, so probe hops
    /// are event-driven instead of bounded below by a poll quantum.
    wakers: Mutex<HashMap<usize, Arc<Waker>>>,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// Adds a bidirectional link between `(a, port_a)` and `(b, port_b)`.
    pub fn link(&self, a: usize, port_a: PortNo, b: usize, port_b: PortNo) {
        let mut links = self.inner.links.lock().unwrap();
        links.insert((a, port_a), (b, port_b));
        links.insert((b, port_b), (a, port_a));
    }

    /// The linked ports of switch `idx` (for FLOOD handling).
    pub fn ports_of(&self, idx: usize) -> Vec<PortNo> {
        let links = self.inner.links.lock().unwrap();
        let mut ports: Vec<PortNo> = links
            .keys()
            .filter(|(sw, _)| *sw == idx)
            .map(|(_, p)| *p)
            .collect();
        ports.sort_unstable();
        ports
    }

    fn attach(&self, idx: usize) -> Receiver<(PacketHeader, PortNo)> {
        let (tx, rx) = channel();
        self.inner.inboxes.lock().unwrap().insert(idx, tx);
        rx
    }

    /// Registers the waker a serve loop polls alongside its socket, so
    /// [`Fabric::send`] can interrupt the peer's sleep the moment a packet
    /// arrives.
    fn register_waker(&self, idx: usize, waker: Arc<Waker>) {
        self.inner.wakers.lock().unwrap().insert(idx, waker);
    }

    /// Puts `header` on switch `from`'s `out_port`; it arrives at the peer
    /// (if the port is linked and the peer is attached) and wakes the
    /// peer's serve loop immediately.
    fn send(&self, from: usize, out_port: PortNo, header: PacketHeader) {
        let Some(&(peer, peer_port)) = self.inner.links.lock().unwrap().get(&(from, out_port))
        else {
            return;
        };
        if let Some(tx) = self.inner.inboxes.lock().unwrap().get(&peer) {
            let _ = tx.send((header, peer_port));
        }
        if let Some(waker) = self.inner.wakers.lock().unwrap().get(&peer) {
            waker.wake();
        }
    }
}

/// A switch's attachment to the fabric: its inbox and the waker that
/// interrupts its serve loop when a packet lands there.
type FabricPort = (Option<Receiver<(PacketHeader, PortNo)>>, Option<Arc<Waker>>);

/// Configuration of one socket-hosted switch beyond its timing model.
#[derive(Clone)]
pub struct SwitchHostOptions {
    /// Fault plan driven by the shared behaviour engine.
    pub faults: FaultPlan,
    /// Epoch all behaviour times are measured against.  Share one `Instant`
    /// across the controller and every switch of an experiment so
    /// confirmation times and data-plane activation times are comparable.
    pub epoch: Option<Instant>,
    /// Data-plane wiring: the fabric and this switch's index in it.
    pub fabric: Option<(Fabric, usize)>,
    /// Rules installed in both tables before serving (the paper pre-installs
    /// drop-all and initial-path rules the same way).
    pub preinstall: Vec<FlowMod>,
    /// After the restart fault tears the connection down, how long the
    /// switch stays down before it re-dials the same address, reattaches
    /// the behaviour engine and replays the OpenFlow handshake.  `None`
    /// (the default) leaves it down forever — the pre-reconnect behaviour.
    pub reconnect_delay: Option<Duration>,
}

impl Default for SwitchHostOptions {
    fn default() -> Self {
        SwitchHostOptions {
            faults: FaultPlan::none(),
            epoch: None,
            fabric: None,
            preinstall: Vec::new(),
            reconnect_delay: None,
        }
    }
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
    let counters = Arc::new(SwitchCounters::default());
    let stop = Arc::new(AtomicBool::new(false));
    // Attach to the fabric before returning: a neighbour spawned earlier may
    // forward a packet to this switch the moment the caller gets its handle,
    // and a packet sent to an unattached switch is dropped.
    let fabric_rx = options
        .fabric
        .as_ref()
        .map(|(fabric, idx)| fabric.attach(*idx));
    let fabric_waker = options.fabric.as_ref().and_then(|(fabric, idx)| {
        let waker = Arc::new(Waker::new().ok()?);
        fabric.register_waker(*idx, Arc::clone(&waker));
        Some(waker)
    });
    let thread = {
        let counters = Arc::clone(&counters);
        let stop = Arc::clone(&stop);
        let fabric_port = (fabric_rx, fabric_waker);
        std::thread::spawn(move || run(stream, addr, model, options, fabric_port, &counters, &stop))
    };
    Ok(SocketSwitchHandle {
        counters,
        stop,
        thread,
    })
}

/// A reply the behaviour engine scheduled for the future.
struct DeferredReply {
    at: Duration,
    seq: u64,
    message: OfMessage,
}

impl PartialEq for DeferredReply {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DeferredReply {}
impl PartialOrd for DeferredReply {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeferredReply {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (at, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Host {
    behavior: Behavior,
    epoch: Instant,
    fabric: Option<(Fabric, usize)>,
    fabric_rx: Option<Receiver<(PacketHeader, PortNo)>>,
    /// Polled alongside the socket when a fabric is wired: `Fabric::send`
    /// into this switch's inbox interrupts the serve loop's sleep, so hop
    /// delivery latency is wake-driven, not quantised by a poll interval.
    fabric_waker: Option<Arc<Waker>>,
    deferred: BinaryHeap<DeferredReply>,
    next_defer_seq: u64,
    actions: Vec<BehaviorAction>,
    reply_buf: Vec<u8>,
    disconnect: bool,
    /// True between our reattach `Hello` going out and the peer's `Hello`
    /// coming back; that reply completes the handshake and must not be
    /// answered with yet another `Hello` (the two sides would ping-pong).
    hello_pending: bool,
}

impl Host {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Queues a fresh switch-side handshake `Hello` for the next
    /// connection (used when a re-dial attempt died before delivering the
    /// one the reattach queued).
    fn queue_hello(&mut self) {
        let seq = self.next_defer_seq;
        self.next_defer_seq += 1;
        self.deferred.push(DeferredReply {
            at: self.now(),
            seq,
            message: OfMessage::Hello { xid: 0 },
        });
    }

    /// Drains engine actions into the deferred-reply heap.
    fn absorb_actions(&mut self) {
        for action in std::mem::take(&mut self.actions) {
            match action {
                BehaviorAction::Reply { at, message } => {
                    let seq = self.next_defer_seq;
                    self.next_defer_seq += 1;
                    self.deferred.push(DeferredReply { at, seq, message });
                }
                BehaviorAction::Activated { .. } | BehaviorAction::Deactivated { .. } => {
                    // Recorded in the engine's ground truth; nothing to send.
                }
                BehaviorAction::Restarted { at } => {
                    // Replies the serial control plane emitted *before* the
                    // reboot instant logically left the switch already —
                    // they sit in the deferred heap only because wall time
                    // lags model time.  Flush them ahead of the close (the
                    // simulator delivers them the same way); anything later
                    // dies with the reboot.
                    while self.deferred.peek().is_some_and(|r| r.at <= at) {
                        let r = self.deferred.pop().expect("peeked");
                        let _ = r.message.encode_into(&mut self.reply_buf);
                    }
                    self.deferred.clear();
                    self.disconnect = true;
                }
            }
        }
    }

    fn advance(&mut self) {
        let now = self.now();
        let mut actions = std::mem::take(&mut self.actions);
        self.behavior.advance(now, &mut actions);
        self.actions = actions;
        self.absorb_actions();
    }

    /// Encodes every due deferred reply into `reply_buf`, in schedule order.
    fn flush_due_replies(&mut self) {
        let now = self.now();
        while self.deferred.peek().is_some_and(|r| r.at <= now) {
            let r = self.deferred.pop().expect("peeked");
            let _ = r.message.encode_into(&mut self.reply_buf);
        }
    }

    /// How long the serve loop may sleep before something needs attention.
    /// Fabric packets no longer bound this: they arrive through the waker,
    /// so the only deadlines are the engine's and the deferred replies'.
    fn poll_timeout(&self) -> Duration {
        let mut horizon: Option<Duration> = self.behavior.next_deadline();
        if let Some(r) = self.deferred.peek() {
            horizon = Some(horizon.map_or(r.at, |h| h.min(r.at)));
        }
        let cap = Duration::from_millis(50);
        match horizon {
            Some(at) => at
                .saturating_sub(self.now())
                .clamp(Duration::from_micros(500), cap),
            None => cap,
        }
    }

    fn emit_packet_in(&mut self, header: &PacketHeader, in_port: PortNo, reason: u8) {
        let data = header.to_bytes();
        let body = PacketIn {
            buffer_id: openflow::constants::NO_BUFFER,
            total_len: data.len() as u16,
            in_port,
            reason,
            data,
        };
        let _ = OfMessage::PacketIn { xid: 0, body }.encode_into(&mut self.reply_buf);
    }

    /// Sends `header` out of `port`, interpreting OpenFlow special ports.
    fn output(&mut self, header: &PacketHeader, in_port: PortNo, port: PortNo) {
        match port {
            of_port::CONTROLLER => {
                self.emit_packet_in(header, in_port, packet_in_reason::ACTION);
            }
            of_port::IN_PORT => {
                if let Some((fabric, idx)) = &self.fabric {
                    fabric.send(*idx, in_port, *header);
                }
            }
            of_port::FLOOD | of_port::ALL => {
                if let Some((fabric, idx)) = self.fabric.clone() {
                    for p in fabric.ports_of(idx) {
                        if p != in_port {
                            fabric.send(idx, p, *header);
                        }
                    }
                }
            }
            of_port::TABLE | of_port::NORMAL | of_port::LOCAL | of_port::NONE => {}
            physical => {
                if let Some((fabric, idx)) = &self.fabric {
                    fabric.send(*idx, physical, *header);
                }
            }
        }
    }

    /// A packet arriving on the data plane (from the fabric or OFPP_TABLE):
    /// look it up in the lagging data-plane table and forward.
    fn forward_via_table(&mut self, header: PacketHeader, in_port: PortNo) {
        let now = self.now();
        let verdict = self.behavior.classify_packet(now, &header, in_port, 64);
        if !verdict.matched {
            return; // no miss_send_len plumbing on the TCP host
        }
        let rewritten = verdict.rewritten;
        for port in verdict.outputs {
            self.output(&rewritten, in_port, port);
        }
    }

    /// Executes a `PacketOut` from the controller/proxy (probe injection).
    fn execute_packet_out(&mut self, po: PacketOut) {
        let Ok(header) = PacketHeader::from_bytes(&po.data) else {
            return;
        };
        let now = self.now();
        let cost = self.behavior.model().packet_out_time;
        self.behavior.consume_cpu(now, cost);
        let (rewritten, outputs) = Action::apply_list(&po.actions, &header);
        let in_port = if po.in_port == of_port::NONE {
            0
        } else {
            po.in_port
        };
        for port in outputs {
            if port == of_port::TABLE {
                self.forward_via_table(rewritten, in_port);
            } else {
                self.output(&rewritten, in_port, port);
            }
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
/// down for that long, reattach the behaviour engine (which replays the
/// switch-side `Hello`), re-dial the same address and keep serving — the
/// same switch identity, rebooted with empty tables.
fn run(
    first_stream: TcpStream,
    addr: SocketAddr,
    model: SwitchModel,
    options: SwitchHostOptions,
    (fabric_rx, fabric_waker): FabricPort,
    counters: &SwitchCounters,
    stop: &AtomicBool,
) -> SwitchReport {
    let epoch = options.epoch.unwrap_or_else(Instant::now);
    let mut behavior = Behavior::new(model, options.faults.clone());
    for fm in &options.preinstall {
        behavior.preinstall(fm);
    }
    let mut host = Host {
        behavior,
        epoch,
        fabric: options.fabric.clone(),
        fabric_rx,
        fabric_waker,
        deferred: BinaryHeap::new(),
        next_defer_seq: 0,
        actions: Vec::new(),
        reply_buf: Vec::new(),
        disconnect: false,
        hello_pending: false,
    };

    let mut stream = Some(first_stream);
    // Consecutive post-reboot connections that died before a single message
    // was exchanged: the listener accepted and immediately dropped us
    // because the old connection's slot was not freed yet.  Bounded so a
    // peer that is genuinely gone ends the loop (~3 s of attempts).
    let mut barren_redials: u32 = 0;
    while let Some(conn) = stream.take() {
        let got_any = serve_conn(conn, &mut host, counters, stop);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if host.disconnect {
            // The restart fault: stay down for the reboot, reattach the
            // engine (queueing the handshake Hello for the next
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
            let mut actions = std::mem::take(&mut host.actions);
            host.behavior.reattach(host.now(), &mut actions);
            host.actions = actions;
            host.absorb_actions();
        } else if host.behavior.counters().reattaches > 0 && !got_any && barren_redials < 300 {
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
            host.queue_hello();
        } else {
            break;
        }
        host.hello_pending = true;
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
    if !host.disconnect {
        let mut actions = Vec::new();
        host.behavior.settle(host.now(), &mut actions);
    }
    SwitchReport {
        control_rules: host.behavior.control_table().len(),
        data_rules: host.behavior.data_table().len(),
        control_entries: host.behavior.control_table().entries().cloned().collect(),
        truth: host.behavior.ground_truth().clone(),
    }
}

/// Serves one TCP connection of the switch's life; returns when the peer
/// hangs up, `stop` is set, or the restart fault fires (`host.disconnect`).
/// The return value is true when at least one OpenFlow message arrived on
/// this connection — false distinguishes an accepted-then-dropped dial
/// (peer had no free slot yet) from a served connection that later died.
fn serve_conn(
    mut stream: TcpStream,
    host: &mut Host,
    counters: &SwitchCounters,
    stop: &AtomicBool,
) -> bool {
    let _ = stream.set_nodelay(true);
    // Safety net only: the readiness gating below means reads should not
    // block, but a spurious wakeup must never stall the engine's deadlines.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut codec = OfCodec::new();
    let mut buf = [0u8; 4096];
    let mut msgs: Vec<OfMessage> = Vec::new();
    let mut pfds: Vec<PollFd> = Vec::with_capacity(2);
    let mut got_any = false;

    'serve: loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // 1. Let the engine catch up (syncs, TCAM batches, barrier horizons).
        host.advance();

        // 2. Drain the data-plane inbox (probe packets hopping the fabric).
        if let Some(rx) = host.fabric_rx.take() {
            while let Ok((header, in_port)) = rx.try_recv() {
                host.forward_via_table(header, in_port);
            }
            host.fabric_rx = Some(rx);
        }

        // 3. Ship every reply whose schedule time has come, as one write.
        host.flush_due_replies();
        if !host.reply_buf.is_empty() {
            let flushed = stream.write_all(&host.reply_buf).is_ok();
            host.reply_buf.clear();
            if !flushed {
                break 'serve;
            }
        }
        if host.disconnect {
            // The restart fault: tear the control channel down.  The caller
            // decides whether the switch comes back.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            break 'serve;
        }

        // 4. Sleep until socket bytes arrive, a fabric packet wakes us, or
        //    the next engine deadline passes — whichever comes first.
        let timeout = host.poll_timeout();
        let timeout_ms = timeout.as_micros().div_ceil(1000) as i32;
        pfds.clear();
        pfds.push(PollFd::new(stream.as_raw_fd(), true, false));
        if let Some(waker) = &host.fabric_waker {
            pfds.push(PollFd::new(waker.fd(), true, false));
        }
        poll_fds(&mut pfds, timeout_ms);
        if pfds.len() > 1 && pfds[1].readable() {
            if let Some(waker) = &host.fabric_waker {
                waker.drain();
            }
        }
        if !pfds[0].readable() {
            // Deadline or fabric wake-up: the loop top drains the inbox
            // and flushes due replies.
            continue;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        codec.feed(&buf[..n]);
        msgs.clear();
        let framing_ok = codec.drain_messages_into(&mut msgs).is_ok();
        got_any |= !msgs.is_empty();
        for msg in msgs.drain(..) {
            let now = host.now();
            match msg {
                OfMessage::FlowMod { xid, body } => {
                    let mut actions = std::mem::take(&mut host.actions);
                    host.behavior.on_flow_mod(now, xid, body, &mut actions);
                    host.actions = actions;
                    host.absorb_actions();
                }
                OfMessage::BarrierRequest { xid } => {
                    let mut actions = std::mem::take(&mut host.actions);
                    host.behavior.on_barrier(now, xid, &mut actions);
                    host.actions = actions;
                    host.absorb_actions();
                }
                OfMessage::StatsRequest {
                    xid,
                    body: StatsRequest::Flow { ref match_, .. },
                } => {
                    let mut actions = std::mem::take(&mut host.actions);
                    host.behavior.on_flow_stats(now, xid, match_, &mut actions);
                    host.actions = actions;
                    host.absorb_actions();
                }
                OfMessage::EchoRequest { xid, data } => {
                    counters.echos.fetch_add(1, Ordering::SeqCst);
                    let _ = OfMessage::EchoReply { xid, data }.encode_into(&mut host.reply_buf);
                }
                OfMessage::Hello { xid } => {
                    // A Hello answering our reattach Hello completes the
                    // handshake; answering it again would ping-pong forever.
                    if host.hello_pending {
                        host.hello_pending = false;
                    } else {
                        let _ = OfMessage::Hello { xid }.encode_into(&mut host.reply_buf);
                    }
                }
                OfMessage::PacketOut { body, .. } => host.execute_packet_out(body),
                _ => {}
            }
        }
        counters
            .flow_mods
            .store(host.behavior.counters().flow_mods, Ordering::SeqCst);
        counters
            .barriers
            .store(host.behavior.counters().barriers, Ordering::SeqCst);
        counters
            .errors
            .store(host.behavior.counters().errors, Ordering::SeqCst);
        if !framing_ok {
            break;
        }
    }
    got_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
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
        assert_eq!(handle.counters().flow_mods.load(Ordering::SeqCst), 1);
        assert_eq!(handle.counters().barriers.load(Ordering::SeqCst), 1);
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

    /// Fabric hop delivery is wake-driven: the median latency of a packet
    /// crossing a two-hop chain (inject at switch 0, forward through
    /// switch 1, punt to the controller from switch 2) sits below the old
    /// 2 ms-per-hop poll quantum.  Before the fabric waker, every hop
    /// waited out a slice of the peer's fixed 2 ms read timeout, putting a
    /// ~2 ms floor under the p50 of this chain.
    #[test]
    fn fabric_hops_are_event_driven_not_poll_quantised() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fabric = Fabric::new();
        fabric.link(0, 2, 1, 1);
        fabric.link(1, 2, 2, 1);
        let epoch = Instant::now();
        let forward_out = |port| {
            vec![
                FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(port)]).with_cookie(1),
            ]
        };
        let a = spawn_switch_with(
            addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                fabric: Some((fabric.clone(), 0)),
                epoch: Some(epoch),
                preinstall: forward_out(2),
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
                preinstall: forward_out(2),
                ..Default::default()
            },
        )
        .unwrap();
        let (_peer_b, _) = listener.accept().unwrap();
        let c = spawn_switch_with(
            addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                fabric: Some((fabric.clone(), 2)),
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
        let (mut peer_c, _) = listener.accept().unwrap();
        peer_c
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        let header = PacketHeader::ipv4_udp(
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            7,
            8,
        );
        let mut codec = OfCodec::new();
        let mut buf = [0u8; 2048];
        let mut samples: Vec<Duration> = Vec::new();
        for round in 0..21 {
            let po = OfMessage::PacketOut {
                xid: round,
                body: PacketOut::via_table(header.to_bytes()),
            };
            let mut wire = Vec::new();
            po.encode_into(&mut wire).unwrap();
            let injected = Instant::now();
            peer_a.write_all(&wire).unwrap();
            'wait: loop {
                let n = match peer_c.read(&mut buf) {
                    Ok(0) | Err(_) => panic!("switch 2 went away mid-measurement"),
                    Ok(n) => n,
                };
                codec.feed(&buf[..n]);
                while let Ok(Some(msg)) = codec.next_message() {
                    if matches!(msg, OfMessage::PacketIn { .. }) {
                        samples.push(injected.elapsed());
                        break 'wait;
                    }
                }
            }
        }
        samples.sort_unstable();
        let p50 = samples[samples.len() / 2];
        assert!(
            p50 < Duration::from_millis(2),
            "two fabric hops took {p50:?} at p50 — hop delivery is being poll-quantised"
        );

        drop(peer_a);
        drop(_peer_b);
        drop(peer_c);
        let _ = a.join();
        let _ = b.join();
        let _ = c.join();
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
