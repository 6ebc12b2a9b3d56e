//! The crate's one connection layer: everything between a listening socket
//! and a sans-IO machine that is transport rather than decision.
//!
//! * [`SlotTable`] — which slots have a live connection, under which attach
//!   generation;
//! * [`Outbox`] — the write half of one socket: queued encoded chunks with
//!   partial-write offset resume, queue-while-down / flush-on-attach /
//!   drop-on-detach;
//! * [`FrameReader`] — nonblocking read → `OfCodec` → one batch per socket
//!   read, bounded per wakeup;
//! * [`Conns`] + [`Transport`] — the accept-claim-attach-or-unclaim loop and
//!   the `ppoll(2)` workers that own every attached socket and every timer.
//!
//! The proxy (two sockets per slot, input routed to shard locks) and the
//! controller driver (one socket per slot, input fed to the machine lock)
//! are the two [`Transport`]s; the switch host runs its own loop, sleeping
//! towards the switch machine's deadlines, but reads and writes through the
//! same [`FrameReader`] and [`Outbox`].  The one lock order is
//! machine/shard → slot table → slot.
//!
//! Deadlines: each worker owns one queue of timer tokens, sleeps in `ppoll`
//! no longer than until its head, and on every pass hands the due tokens to
//! [`Transport::timer`] before it serves sockets — a fired timer's writes
//! need no second thread and no wake-up.  Any thread may [`Conns::arm`]
//! once it has dropped the machine/shard lock (the queue's lock is a leaf).
//! An arm made while the worker is awake — by its own callbacks: effects of
//! a batch it just read, a re-arm from `timer` — only files the entry,
//! since the worker reads the head before it sleeps; an arm that finds it
//! asleep past the new deadline (start-up effects, the accept thread, a
//! handle's `drive`, a neighbour worker) writes its waker.  A due timer
//! waits for at most the pass in progress: one read of ≤ [`READ_BUDGET`]
//! bytes and one flush per socket of the poll set.

use crate::reactor::{poll_fds, PollFd, Waker};
use openflow::{OfCodec, OfMessage};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Gauge;

/// Which slots currently have a live connection.
///
/// The mapping is positional, not authenticated: with several switches down
/// at once, whoever re-dials first gets the lowest freed slot.  Deployments
/// that restart more than one switch concurrently need datapath-id
/// re-identification from a features handshake, which this prototype (like
/// the paper's) does not perform.
pub(crate) struct SlotTable {
    attached: Vec<bool>,
    /// Per-slot attach generation, so a worker entry outliving its
    /// connection cannot tear down the slot's newer connection.
    generation: Vec<u64>,
    /// Total connections ever attached (reconnects included).
    accepted: usize,
}

impl SlotTable {
    pub(crate) fn new(n: usize) -> Self {
        SlotTable {
            attached: vec![false; n],
            generation: vec![0; n],
            accepted: 0,
        }
    }

    /// Claims the lowest free slot, so a single restarted switch reattaches
    /// under its original slot.  `None` for a surplus connection.
    pub(crate) fn claim(&mut self) -> Option<(usize, u64)> {
        let slot = self.attached.iter().position(|&a| !a)?;
        self.attached[slot] = true;
        self.generation[slot] += 1;
        self.accepted += 1;
        Some((slot, self.generation[slot]))
    }

    /// Undoes a claim that never became an attach: the slot is free again
    /// under the generation it had before — a generation > 1 on the next
    /// successful attach would be misread as a restart reconnect.
    pub(crate) fn unclaim(&mut self, slot: usize) {
        self.attached[slot] = false;
        self.generation[slot] -= 1;
        self.accepted -= 1;
    }

    /// Frees `slot` if `generation` is still its current attach; an entry
    /// from an earlier attach reporting its death late is a no-op.
    pub(crate) fn detach(&mut self, slot: usize, generation: u64) -> bool {
        let current = self.attached[slot] && self.generation[slot] == generation;
        if current {
            self.attached[slot] = false;
        }
        current
    }

    fn all_attached(&self) -> bool {
        self.attached.iter().all(|&a| a)
    }
}

/// The write half of one socket: queued encoded chunks, the partial-write
/// offset into the front chunk, and the stream to flush into (absent while
/// the connection is down — bytes then queue and flush on attach).
pub(crate) struct Outbox {
    stream: Option<Arc<TcpStream>>,
    queue: VecDeque<Vec<u8>>,
    /// How much of `queue.front()` has already been written.
    offset: usize,
    /// Gauges tracking chunks queued on a live connection but not yet fully
    /// written (the proxy's per-switch and per-shard depths).
    depth: Vec<Arc<Gauge>>,
}

impl Outbox {
    pub(crate) fn new(depth: Vec<Arc<Gauge>>) -> Self {
        Outbox {
            stream: None,
            queue: VecDeque::new(),
            offset: 0,
            depth,
        }
    }

    fn count(&self, n: i64) {
        for gauge in &self.depth {
            gauge.add(n);
        }
    }

    pub(crate) fn push(&mut self, chunk: Vec<u8>) {
        if chunk.is_empty() {
            return;
        }
        self.queue.push_back(chunk);
        if self.stream.is_some() {
            self.count(1);
        }
    }

    /// Goes live on `stream` (which must be nonblocking); chunks queued
    /// while down start counting as outbox depth.
    pub(crate) fn attach(&mut self, stream: Arc<TcpStream>) {
        self.stream = Some(stream);
        self.count(self.queue.len() as i64);
    }

    /// Drops the stream and every queued chunk (the machines re-issue what
    /// was unconfirmed on reconnect).
    fn detach(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
            self.count(-(self.queue.len() as i64));
        }
        self.queue.clear();
        self.offset = 0;
    }

    /// True when residue needs `POLLOUT` interest.
    fn wants_write(&self) -> bool {
        self.stream.is_some() && !self.queue.is_empty()
    }

    /// Writes as much queued data as the socket accepts right now,
    /// resuming mid-chunk at the recorded offset.  Returns `true` when
    /// unflushed residue remains (register write interest).  A dead socket
    /// is shut down so the read path observes it and tears down.
    pub(crate) fn flush(&mut self) -> bool {
        let Some(mut stream) = self.stream.as_deref() else {
            return false;
        };
        while let Some(front) = self.queue.front() {
            match stream.write(&front[self.offset..]) {
                Ok(n) if n > 0 => {
                    self.offset += n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                        self.count(-1);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Ok(_) | Err(_) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return false;
                }
            }
        }
        false
    }
}

/// Per-connection read budget per wakeup: a firehosing peer yields the
/// loop back to its poll set after this many bytes (level-triggered
/// readiness re-fires immediately, so nothing is lost — only interleaved).
const READ_BUDGET: usize = 256 * 1024;

/// A poll loop's reusable read and decode buffers; framing state lives in
/// each connection's own `OfCodec`.
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    msgs: Vec<OfMessage>,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader {
            buf: vec![0u8; 64 * 1024],
            msgs: Vec::new(),
        }
    }

    /// Drains one nonblocking socket (bounded by [`READ_BUDGET`]), handing
    /// every batch of frames decoded from one socket read to `sink` at
    /// once, so the receiver drains it under a single lock and emits a
    /// single chunk per destination.  Returns `false` when the connection
    /// is dead (EOF, error, bad framing).
    pub(crate) fn drain(
        &mut self,
        mut stream: &TcpStream,
        codec: &mut OfCodec,
        mut sink: impl FnMut(&mut Vec<OfMessage>),
    ) -> bool {
        let mut total = 0usize;
        loop {
            let n = match stream.read(&mut self.buf) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            codec.feed(&self.buf[..n]);
            self.msgs.clear();
            let framing_ok = codec.drain_messages_into(&mut self.msgs).is_ok();
            if !self.msgs.is_empty() {
                sink(&mut self.msgs);
            }
            if !framing_ok {
                return false;
            }
            total += n;
            if total >= READ_BUDGET || n < self.buf.len() {
                return true; // budget spent, or the socket is drained
            }
        }
    }
}

/// What a user of the connection layer supplies: how an accepted socket
/// becomes a slot's sockets, and where decoded input and fired timers go.
pub(crate) trait Transport: Send + Sync + 'static {
    /// The layer instance this transport sends through.
    fn conns(&self) -> &Conns;
    /// Completes a freshly accepted connection into the slot's sockets, in
    /// side order (the proxy dials the controller here).  An error frees
    /// the claimed slot and drops the connection so the peer retries.
    fn open(&self, accepted: TcpStream) -> std::io::Result<Vec<TcpStream>>;
    /// `slot` is attached under `generation` (> 1: a reconnect) and its
    /// sockets are with their worker.
    fn attached(&self, slot: usize, generation: u64);
    /// One socket read's worth of frames from `slot`'s socket `side`.
    fn received(&self, slot: usize, side: usize, msgs: &mut Vec<OfMessage>);
    /// Every token [`Conns::arm`]ed with this worker that came due since
    /// its last pass, in (deadline, arm) order.
    fn timer(&self, tokens: &mut Vec<u64>);
}

/// One attached slot as its worker owns it: the sockets to poll and read.
struct Conn {
    slot: usize,
    generation: u64,
    sides: Vec<(Arc<TcpStream>, OfCodec)>,
}

/// A worker's cross-thread surface: its waker, adoption inbox and timers.
struct Worker {
    waker: Waker,
    inbox: Mutex<Vec<Conn>>,
    timers: Mutex<Timers>,
}

/// One worker's pending timer tokens.
struct Timers {
    /// Tokens by (deadline, arm order).
    pending: BTreeMap<(Instant, u64), u64>,
    armed: u64,
    /// While the worker sleeps in `ppoll`: when that sleep times out.  An
    /// arm due before it must write the waker; any other arm is seen when
    /// the worker next reads the head, which it does before every sleep.
    asleep_until: Option<Instant>,
}

/// The listener, the slot table, every slot's outboxes and the worker
/// threads serving them.  Slot `i` of `N` belongs to worker
/// `i * workers / N`: contiguous runs of slots, the rule
/// `rum::ShardRouter::shard_of` applies to shards, so when the worker count
/// divides the shard count each worker serves whole shards.
pub(crate) struct Conns {
    listener: TcpListener,
    pub(crate) local_addr: SocketAddr,
    table: Mutex<SlotTable>,
    /// Per slot, one outbox per socket.  Never held across a machine or
    /// shard lock acquisition.
    slots: Vec<Mutex<Vec<Outbox>>>,
    workers: Vec<Worker>,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Conns {
    /// Binds the listener for `slots.len()` slots with the given outboxes
    /// (one per socket of the slot), to be served by `n_workers` threads.
    pub(crate) fn bind(
        listen_addr: SocketAddr,
        slots: Vec<Vec<Outbox>>,
        n_workers: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen_addr)?;
        let workers = (0..n_workers)
            .map(|_| {
                Ok(Worker {
                    waker: Waker::new()?,
                    inbox: Mutex::new(Vec::new()),
                    timers: Mutex::new(Timers {
                        pending: BTreeMap::new(),
                        armed: 0,
                        asleep_until: None,
                    }),
                })
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Conns {
            local_addr: listener.local_addr()?,
            listener,
            table: Mutex::new(SlotTable::new(slots.len())),
            slots: slots.into_iter().map(Mutex::new).collect(),
            workers,
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Starts the accept thread and the workers on behalf of `owner`.
    pub(crate) fn start<T: Transport>(owner: &Arc<T>) {
        let conns = owner.conns();
        let mut threads = conns.threads.lock().unwrap();
        for w in 0..conns.workers.len() {
            let owner = Arc::clone(owner);
            threads.push(std::thread::spawn(move || worker_loop(&*owner, w)));
        }
        let owner = Arc::clone(owner);
        threads.push(std::thread::spawn(move || accept_loop(&*owner)));
    }

    /// Stops and joins the accept thread and the workers.  Workers shut
    /// their sockets down on exit, so attached peers see EOF promptly;
    /// timers still pending never fire.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.waker.wake();
        }
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.local_addr);
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
    }

    /// Connections ever attached (reconnects included).
    pub(crate) fn accepted(&self) -> usize {
        self.table.lock().unwrap().accepted
    }

    /// True while every slot has a live connection.
    pub(crate) fn all_attached(&self) -> bool {
        self.table.lock().unwrap().all_attached()
    }

    /// Queues one encoded chunk for `slot`'s socket `side`.  Call it under
    /// the machine/shard lock that produced the bytes, so two batches can
    /// never interleave on a socket out of machine order, and
    /// [`Conns::flush`] after dropping that lock.
    pub(crate) fn push(&self, slot: usize, side: usize, chunk: Vec<u8>) {
        self.slots[slot].lock().unwrap()[side].push(chunk);
    }

    /// Nonblocking flush of every outbox of one slot; residue stays queued
    /// and wakes the owning worker so it registers `POLLOUT`.
    pub(crate) fn flush(&self, slot: usize) {
        let mut residue = false;
        for outbox in self.slots[slot].lock().unwrap().iter_mut() {
            residue |= outbox.flush();
        }
        if residue {
            self.workers[self.worker_of(slot)].waker.wake();
        }
    }

    /// The worker serving `slot` (see [`Conns`]).
    fn worker_of(&self, slot: usize) -> usize {
        slot * self.workers.len() / self.slots.len()
    }

    /// Files `token` with `slot`'s worker, to reach [`Transport::timer`]
    /// no earlier than `delay` after `now`.  A delay that overflows the
    /// clock means "never": nothing is filed.  Call it after dropping the
    /// machine/shard lock.
    pub(crate) fn arm(&self, slot: usize, now: Instant, delay: Duration, token: u64) {
        let Some(deadline) = now.checked_add(delay) else {
            return;
        };
        let worker = &self.workers[self.worker_of(slot)];
        let asleep_past_it = {
            let timers = &mut *worker.timers.lock().unwrap();
            timers.pending.insert((deadline, timers.armed), token);
            timers.armed += 1;
            timers.asleep_until.is_some_and(|until| deadline < until)
        };
        if asleep_past_it {
            worker.waker.wake();
        }
    }

    /// Wires a claimed slot's sockets in: outboxes go live and flush what
    /// queued while the slot was down, the owning worker adopts the read
    /// halves.
    fn attach(&self, slot: usize, generation: u64, streams: Vec<TcpStream>) -> std::io::Result<()> {
        let mut sides = Vec::with_capacity(streams.len());
        for stream in streams {
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            sides.push((Arc::new(stream), OfCodec::new()));
        }
        for (outbox, (stream, _)) in self.slots[slot].lock().unwrap().iter_mut().zip(&sides) {
            outbox.attach(Arc::clone(stream));
        }
        self.flush(slot);
        let worker = &self.workers[self.worker_of(slot)];
        worker.inbox.lock().unwrap().push(Conn {
            slot,
            generation,
            sides,
        });
        worker.waker.wake();
        Ok(())
    }

    /// Frees a slot after its connection died.  Generation-guarded and
    /// idempotent; the table lock is held across the outbox teardown so a
    /// re-dial cannot claim the slot before its old stream is gone.
    pub(crate) fn detach(&self, slot: usize, generation: u64) {
        let mut table = self.table.lock().unwrap();
        if table.detach(slot, generation) {
            for outbox in self.slots[slot].lock().unwrap().iter_mut() {
                outbox.detach();
            }
        }
    }
}

/// Accepts connections, claims the lowest free slot for each (surplus
/// connections are dropped) and attaches it — or gives the slot back.  Only
/// this thread claims, so a claim cannot race another.
fn accept_loop<T: Transport>(owner: &T) {
    let conns = owner.conns();
    for incoming in conns.listener.incoming() {
        if conns.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(accepted) = incoming else {
            continue;
        };
        let Some((slot, generation)) = conns.table.lock().unwrap().claim() else {
            continue;
        };
        let attach = owner
            .open(accepted)
            .and_then(|streams| conns.attach(slot, generation, streams));
        match attach {
            Ok(()) => owner.attached(slot, generation),
            // E.g. fd exhaustion at fleet scale, or the proxy's controller
            // being away: the dropped connection makes the peer retry.
            Err(_) => conns.table.lock().unwrap().unclaim(slot),
        }
    }
}

/// One worker's event loop: poll its waker plus every socket of every slot
/// it owns, for no longer than until its next timer is due; hand due timers
/// and then readable sockets to the transport, flush writable outbox
/// residue, detach dead slots.
fn worker_loop<T: Transport>(owner: &T, w: usize) {
    let conns = owner.conns();
    let me = &conns.workers[w];
    let mut live: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // fds[1 + j] belongs to fd_of[j] = (index into `live`, side).
    let mut fd_of: Vec<(usize, usize)> = Vec::new();
    let mut reader = FrameReader::new();
    let mut dead: Vec<usize> = Vec::new();
    let mut due: Vec<u64> = Vec::new();

    while !conns.stop.load(Ordering::SeqCst) {
        live.append(&mut me.inbox.lock().unwrap());

        // Build the poll set: waker first, then each socket, with write
        // interest only where outbox residue exists.
        fds.clear();
        fd_of.clear();
        fds.push(PollFd::new(me.waker.fd(), true, false));
        for (ci, conn) in live.iter().enumerate() {
            let outboxes = conns.slots[conn.slot].lock().unwrap();
            for (side, ((stream, _), outbox)) in conn.sides.iter().zip(outboxes.iter()).enumerate()
            {
                fds.push(PollFd::new(stream.as_raw_fd(), true, outbox.wants_write()));
                fd_of.push((ci, side));
            }
        }

        let timeout = {
            let mut timers = me.timers.lock().unwrap();
            let now = Instant::now();
            // A finite sleep keeps the stop flag honoured even if a wake is
            // lost; all real work arrives through readiness or the waker.
            let cap = now + Duration::from_millis(500);
            let head = timers.pending.first_key_value();
            let until = head.map_or(cap, |(&(due, _), _)| due.min(cap));
            timers.asleep_until = Some(until);
            until.saturating_duration_since(now)
        };
        poll_fds(&mut fds, timeout);
        if fds[0].readable() {
            me.waker.drain();
        }

        {
            let mut timers = me.timers.lock().unwrap();
            timers.asleep_until = None;
            let now = Instant::now();
            while let Some(head) = timers.pending.first_entry() {
                if head.key().0 > now {
                    break;
                }
                due.push(head.remove());
            }
        }
        if !due.is_empty() {
            owner.timer(&mut due);
            due.clear();
        }

        dead.clear();
        for (pfd, &(ci, side)) in fds[1..].iter().zip(&fd_of) {
            let conn = &mut live[ci];
            if pfd.writable() {
                conns.flush(conn.slot);
            }
            if pfd.readable() || pfd.hangup() {
                let (slot, (stream, codec)) = (conn.slot, &mut conn.sides[side]);
                if !reader.drain(stream, codec, |msgs| owner.received(slot, side, msgs)) {
                    dead.push(ci);
                }
            }
        }
        // Highest index first so earlier removals don't shift later ones;
        // swap_remove is safe because the moved element's index is > ci.
        dead.sort_unstable();
        dead.dedup();
        for &ci in dead.iter().rev() {
            let conn = live.swap_remove(ci);
            for (stream, _) in &conn.sides {
                let _ = stream.shutdown(Shutdown::Both);
            }
            conns.detach(conn.slot, conn.generation);
        }
    }
    for (stream, _) in live.iter().flat_map(|conn| &conn.sides) {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
impl Conns {
    /// `(attached, generation, first outbox live)` of one slot.
    pub(crate) fn slot_state(&self, slot: usize) -> (bool, u64, bool) {
        let table = self.table.lock().unwrap();
        let live = self.slots[slot].lock().unwrap()[0].stream.is_some();
        (table.attached[slot], table.generation[slot], live)
    }

    /// Chunks queued in each slot's first outbox.
    pub(crate) fn queued(&self) -> Vec<usize> {
        (self.slots.iter())
            .map(|slot| slot.lock().unwrap()[0].queue.len())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn wait(what: &str, cond: &dyn Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(3);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn failed_attach_restores_the_slot_and_its_generation() {
        let mut slots = SlotTable::new(2);
        assert_eq!(slots.claim(), Some((0, 1)));
        slots.unclaim(0);
        assert_eq!(slots.accepted, 0);
        assert!(!slots.all_attached());
        // The next dial claims the same slot as a first attach, not as a
        // reconnect.
        assert_eq!(slots.claim(), Some((0, 1)));
        assert_eq!(slots.accepted, 1);
    }

    #[test]
    fn stale_generation_detach_is_a_no_op() {
        let mut slots = SlotTable::new(1);
        let (slot, first) = slots.claim().unwrap();
        assert!(slots.detach(slot, first));
        assert!(!slots.detach(slot, first), "detach is idempotent");
        let (_, second) = slots.claim().unwrap();
        assert_eq!(second, first + 1, "reconnects bump the generation");
        // An entry from the first attach reports its death only now.
        assert!(!slots.detach(slot, first));
        assert!(slots.all_attached(), "the newer connection survives");
        assert!(slots.detach(slot, second));
        assert_eq!(slots.accepted, 2);
    }

    #[test]
    fn surplus_connection_is_refused_and_lowest_free_slot_is_reused() {
        let mut slots = SlotTable::new(2);
        assert_eq!(slots.claim(), Some((0, 1)));
        assert_eq!(slots.claim(), Some((1, 1)));
        assert!(slots.all_attached());
        assert_eq!(slots.claim(), None);
        assert_eq!(slots.accepted, 2, "a refused connection is not counted");
        assert!(slots.detach(0, 1));
        assert_eq!(slots.claim(), Some((0, 2)));
    }

    /// Workers own contiguous runs of slots, as shards do: whenever the
    /// worker count divides the shard count, a worker serves whole shards.
    /// On an 8-ring with 8 shards and 2 workers, a probe sent by switch `i`
    /// comes back through switch `i + 1`, and only the returns of switches
    /// 3 and 7 are read by the worker that does not serve their sender.
    #[test]
    fn workers_serve_whole_shards() {
        let addr = "127.0.0.1:0".parse().unwrap();
        let bind = |n: usize, workers| {
            let slots = (0..n).map(|_| vec![Outbox::new(Vec::new())]).collect();
            Conns::bind(addr, slots, workers).unwrap()
        };
        for n in [8, 12, 64, 1000] {
            let config = rum::RumBuilder::new(n).build_config();
            for shards in 1..=8 {
                let router = rum::ShardRouter::new(&config, shards);
                for workers in (1..=shards).filter(|w| shards % w == 0) {
                    let conns = bind(n, workers);
                    for slot in 0..n {
                        let shard = router.shard_of(rum::SwitchId::new(slot));
                        assert_eq!(
                            conns.worker_of(slot),
                            shard / (shards / workers),
                            "{n} slots, {shards} shards, {workers} workers: slot {slot}"
                        );
                    }
                }
            }
        }
        let conns = bind(8, 2);
        let crossing: Vec<usize> = (0..8)
            .filter(|&sender| conns.worker_of(sender) != conns.worker_of((sender + 1) % 8))
            .collect();
        assert_eq!(crossing, [3, 7]);
    }

    /// A transport whose `open` fails the first time it is asked, the way
    /// the proxy's controller dial does while the controller is away.
    struct FlakyOpen {
        conns: Conns,
        opens: AtomicUsize,
        attached: Mutex<Vec<(usize, u64)>>,
    }

    impl Transport for FlakyOpen {
        fn conns(&self) -> &Conns {
            &self.conns
        }
        fn open(&self, accepted: TcpStream) -> std::io::Result<Vec<TcpStream>> {
            if self.opens.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(std::io::ErrorKind::ConnectionRefused.into());
            }
            Ok(vec![accepted])
        }
        fn attached(&self, slot: usize, generation: u64) {
            self.attached.lock().unwrap().push((slot, generation));
        }
        fn received(&self, _: usize, _: usize, _: &mut Vec<OfMessage>) {}
        fn timer(&self, _: &mut Vec<u64>) {}
    }

    /// A failed attach must neither kill the accept thread nor leave the
    /// slot claimed: the next dial lands in slot 0 at generation 1, a first
    /// attach — not generation 2, which users read as a restart reconnect.
    #[test]
    fn failed_attach_unclaims_and_the_accept_loop_keeps_running() {
        let addr = "127.0.0.1:0".parse().unwrap();
        let owner = Arc::new(FlakyOpen {
            conns: Conns::bind(addr, vec![vec![Outbox::new(Vec::new())]], 1).unwrap(),
            opens: AtomicUsize::new(0),
            attached: Mutex::new(Vec::new()),
        });
        Conns::start(&owner);

        let mut refused = TcpStream::connect(owner.conns.local_addr).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        assert!(
            matches!(refused.read(&mut [0u8; 1]), Ok(0) | Err(_)),
            "the connection whose attach failed is dropped"
        );
        // `open` has failed once its count is up; the unclaim follows it.
        wait("the unclaim", &|| {
            owner.opens.load(Ordering::SeqCst) == 1 && owner.conns.accepted() == 0
        });
        assert_eq!(owner.conns.slot_state(0), (false, 0, false));

        let _second = TcpStream::connect(owner.conns.local_addr).unwrap();
        wait("the second dial's attach", &|| {
            !owner.attached.lock().unwrap().is_empty()
        });
        assert_eq!(*owner.attached.lock().unwrap(), vec![(0, 1)]);
        assert_eq!(owner.conns.slot_state(0), (true, 1, true));
        owner.conns.shutdown();
    }

    /// A transport that only keeps time: it records when each token fires
    /// and, on its worker, arms the next token of a chain one `period`
    /// later — from `received` (token 0) and from `timer` (token + 1).
    struct Clock {
        conns: Conns,
        fired: Mutex<Vec<(u64, Instant)>>,
        chain: u64,
        period: Duration,
        /// The worker's waker was pending right after one of its own arms.
        woke_itself: AtomicBool,
    }

    impl Clock {
        fn start(chain: u64, period: Duration) -> Arc<Clock> {
            let addr = "127.0.0.1:0".parse().unwrap();
            let clock = Arc::new(Clock {
                conns: Conns::bind(addr, vec![vec![Outbox::new(Vec::new())]], 1).unwrap(),
                fired: Mutex::new(Vec::new()),
                chain,
                period,
                woke_itself: AtomicBool::new(false),
            });
            Conns::start(&clock);
            clock
        }

        fn arm_on_worker(&self, token: u64) {
            self.conns.arm(0, Instant::now(), self.period, token);
            if self.conns.workers[0].waker.is_pending() {
                self.woke_itself.store(true, Ordering::SeqCst);
            }
        }

        fn wait_asleep(&self) {
            let timers = &self.conns.workers[0].timers;
            wait("the worker to sleep", &|| {
                timers.lock().unwrap().asleep_until.is_some()
            });
        }

        fn wait_fired(&self, n: usize) -> Vec<(u64, Instant)> {
            wait("the timers", &|| self.fired.lock().unwrap().len() >= n);
            self.fired.lock().unwrap().clone()
        }

        /// Intervals between consecutive firings of a chain.
        fn gaps(&self) -> Vec<Duration> {
            let fired = self.wait_fired(self.chain as usize);
            assert!(fired.iter().map(|&(token, _)| token).eq(0..self.chain));
            fired.windows(2).map(|w| w[1].1 - w[0].1).collect()
        }
    }

    impl Transport for Clock {
        fn conns(&self) -> &Conns {
            &self.conns
        }
        fn open(&self, accepted: TcpStream) -> std::io::Result<Vec<TcpStream>> {
            Ok(vec![accepted])
        }
        fn attached(&self, _: usize, _: u64) {}
        fn received(&self, _: usize, _: usize, msgs: &mut Vec<OfMessage>) {
            msgs.clear();
            self.arm_on_worker(0);
        }
        fn timer(&self, tokens: &mut Vec<u64>) {
            let now = Instant::now();
            for token in tokens.drain(..) {
                self.fired.lock().unwrap().push((token, now));
                if token + 1 < self.chain {
                    self.arm_on_worker(token + 1);
                }
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn timers_fire_in_deadline_then_arm_order_and_never_early() {
        let clock = Clock::start(0, MS);
        let now = Instant::now();
        let armed = [(2, 30 * MS), (1, 10 * MS), (3, 20 * MS), (4, 20 * MS)];
        for (token, delay) in armed {
            clock.conns.arm(0, now, delay, token);
        }
        let fired = clock.wait_fired(4);
        clock.conns.shutdown();
        let order: Vec<u64> = fired.iter().map(|&(token, _)| token).collect();
        assert_eq!(order, [1, 3, 4, 2]);
        for (token, at) in fired {
            let delay = armed.iter().find(|a| a.0 == token).unwrap().1;
            assert!(at >= now + delay, "token {token} fired early");
        }
    }

    /// The wake in `arm`: without it this timer fires when the 500 ms sleep
    /// the worker is already in runs out.
    #[test]
    fn arm_from_a_foreign_thread_interrupts_the_capped_sleep() {
        let clock = Clock::start(0, MS);
        clock.wait_asleep();
        let now = Instant::now();
        clock.conns.arm(0, now, 20 * MS, 7);
        let (_, at) = clock.wait_fired(1)[0];
        clock.conns.shutdown();
        let late = at.duration_since(now + 20 * MS);
        assert!(late < 50 * MS, "fired {late:?} after its deadline");
    }

    /// Arms made by the worker's own callbacks — `received` starts the
    /// chain, `timer` continues it — file the entry and nothing else: the
    /// worker reads the queue head before it sleeps again.
    #[test]
    fn arm_from_the_workers_own_callbacks_writes_no_wake() {
        let clock = Clock::start(4, 2 * MS);
        let mut peer = TcpStream::connect(clock.conns.local_addr).unwrap();
        let mut hello = Vec::new();
        OfMessage::Hello { xid: 1 }.encode_into(&mut hello).unwrap();
        peer.write_all(&hello).unwrap();
        let gaps = clock.gaps();
        clock.conns.shutdown();
        assert!(!clock.woke_itself.load(Ordering::SeqCst));
        // Unwoken, yet none of them waited out the 500 ms sleep cap.
        assert!(gaps.iter().all(|&gap| gap < 250 * MS), "{gaps:?}");
    }

    #[test]
    fn token_rearmed_from_timer_keeps_a_steady_period() {
        let clock = Clock::start(20, 5 * MS);
        clock.conns.arm(0, Instant::now(), clock.period, 0);
        let mut gaps = clock.gaps();
        clock.conns.shutdown();
        gaps.sort_unstable();
        assert!(gaps[0] >= clock.period, "early: {gaps:?}");
        assert!(gaps[gaps.len() / 2] < 2 * clock.period, "slow: {gaps:?}");
        // A re-arm the worker did not see before sleeping would wait out
        // its 500 ms cap; a busy box delays one by far less.
        assert!(gaps[gaps.len() - 1] < 250 * MS, "stalled: {gaps:?}");
    }

    /// A loop sleeping in whole milliseconds is at least 700 µs late for a
    /// 300 µs timer; `ppoll` is late by timer slack and a context switch
    /// (~100 µs here).
    #[test]
    fn sub_millisecond_timers_are_honoured() {
        let clock = Clock::start(51, Duration::from_micros(300));
        clock.conns.arm(0, Instant::now(), clock.period, 0);
        let gaps = clock.gaps();
        let mut late: Vec<_> = gaps
            .iter()
            .map(|gap| gap.saturating_sub(clock.period))
            .collect();
        clock.conns.shutdown();
        late.sort_unstable();
        assert!(
            late[late.len() / 2] < MS - clock.period,
            "lateness {late:?}"
        );
    }

    /// `Duration::MAX` is how a technique says "never": the arm must
    /// neither panic on the clock overflow nor fire.
    #[test]
    fn unreachable_deadline_is_never_filed() {
        let clock = Clock::start(0, MS);
        let now = Instant::now();
        clock.conns.arm(0, now, Duration::MAX, 9);
        clock.conns.arm(0, now, 2 * MS, 1);
        let fired = clock.wait_fired(1);
        assert_eq!(fired[0].0, 1);
        let timers = clock.conns.workers[0].timers.lock().unwrap();
        assert!(timers.pending.is_empty(), "nothing else is pending");
        drop(timers);
        clock.conns.shutdown();
    }

    #[test]
    fn shutdown_with_pending_timers_is_prompt_and_final() {
        let clock = Clock::start(0, MS);
        let now = Instant::now();
        for token in 0..10_000 {
            clock.conns.arm(0, now, 200 * MS, token);
        }
        clock.conns.shutdown();
        assert!(now.elapsed() < Duration::from_secs(1));
        std::thread::sleep((now + 250 * MS).saturating_duration_since(Instant::now()));
        assert!(clock.fired.lock().unwrap().is_empty());
    }
}
