//! The socket half of the TCP deployment: a readiness-driven event loop
//! over nonblocking sockets, feeding per-shard sans-IO engines.
//!
//! Wiring (mirroring the paper's proxy chain, scaled to 1,000 switches):
//!
//! ```text
//!            ┌── worker 0: poll([waker, conns…]) ──▶ ShardRouter ─▶ shard k
//! switches ──┤                                              │ (EngineRelay
//!            └── worker W: poll([waker, conns…])            │  under its
//!                    ▲                                      ▼  own mutex)
//!                 wakers ◀── timer thread / other workers  outboxes
//! ```
//!
//! Instead of four threads and one global engine mutex per accepted
//! switch, this implementation:
//!
//! * splits the engine by [`SwitchId`] into shards (see
//!   [`rum::ShardedEngine`]), each behind its *own* mutex, so concurrent
//!   reader input for different switches never contends on one lock;
//! * replaces every reader/writer thread pair with a handful of workers,
//!   each running `poll(2)` over its connections' nonblocking sockets (see
//!   `crate::reactor`) — 1,000 switches cost 2,000 registered fds, not
//!   4,000 threads;
//! * writes through per-connection outboxes with partial-write offset
//!   resume: a stalled or slow switch leaves residue behind `POLLOUT`
//!   interest and cannot head-of-line-block any other connection's drain;
//! * bounds per-connection reads per wakeup, so one chatty switch cannot
//!   starve the rest of a worker's poll set.
//!
//! Routing follows the [`rum::ShardRouter`]: controller traffic and timer
//! fires go to the owning shard, a probe `PacketIn` to the shards owning the
//! switches upstream of its sender (and the sender's own), so per-switch
//! confirmation order is byte-identical to the single-engine proxy for the
//! same scenario.

use crate::reactor::{poll_fds, PollFd, Waker};
use crate::relay::{Endpoint, EngineRelay, RelayEffects};
use crate::timer::TimerQueue;
use openflow::{OfCodec, OfMessage};
use rum::{Input, ProxyStats, RumBuilder, ShardRouter, SwitchId, TimerToken};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{Counter, Gauge, Registry};

/// Configuration of a [`RumTcpProxy`].
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Address the proxy listens on for switch connections.
    pub listen_addr: SocketAddr,
    /// Address of the real controller the proxy connects onward to.
    pub controller_addr: SocketAddr,
}

/// Transport-level counters shared across all connections of one proxy
/// instance, backed by the proxy's telemetry [`Registry`] under `proxy.*`
/// metric names.  Message-level statistics live in the engine — see
/// [`ProxyHandle::stats`].
#[derive(Debug)]
pub struct ProxyCounters {
    pub(crate) connections: Arc<Counter>,
    pub(crate) to_switch: Arc<Counter>,
    pub(crate) to_controller: Arc<Counter>,
    pub(crate) to_switch_bytes: Arc<Counter>,
    pub(crate) to_controller_bytes: Arc<Counter>,
    pub(crate) drains: Arc<Counter>,
    pub(crate) timers_fired: Arc<Counter>,
}

impl ProxyCounters {
    pub(crate) fn new(registry: &Registry) -> Self {
        ProxyCounters {
            connections: registry.counter("proxy.connections"),
            to_switch: registry.counter("proxy.to_switch_msgs"),
            to_controller: registry.counter("proxy.to_controller_msgs"),
            to_switch_bytes: registry.counter("proxy.to_switch_bytes"),
            to_controller_bytes: registry.counter("proxy.to_controller_bytes"),
            drains: registry.counter("proxy.drains"),
            timers_fired: registry.counter("proxy.timers_fired"),
        }
    }

    /// Switch connections accepted (and mapped to a [`SwitchId`]).
    pub fn connections(&self) -> u64 {
        self.connections.get()
    }

    /// Messages written towards switches.
    pub fn to_switch(&self) -> u64 {
        self.to_switch.get()
    }

    /// Messages written towards the controller.
    pub fn to_controller(&self) -> u64 {
        self.to_controller.get()
    }

    /// Encoded bytes shipped towards switches.
    pub fn to_switch_bytes(&self) -> u64 {
        self.to_switch_bytes.get()
    }

    /// Encoded bytes shipped towards the controller.
    pub fn to_controller_bytes(&self) -> u64 {
        self.to_controller_bytes.get()
    }

    /// Engine drains executed (shard-lock acquisitions that fed a relay).
    pub fn drains(&self) -> u64 {
        self.drains.get()
    }

    /// Engine timers fired.
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired.get()
    }
}

/// Per-connection read budget per wakeup: a firehosing peer yields the
/// worker back to its poll set after this many bytes (level-triggered
/// readiness re-fires immediately, so nothing is lost — only interleaved).
const READ_BUDGET: usize = 256 * 1024;

/// One shard's engine relay plus its reusable effect buffers, all behind
/// one mutex.  Different shards' locks are independent — that is the point.
struct ShardState {
    relay: EngineRelay,
    fx: RelayEffects,
    /// Reusable per-endpoint encode buffers for one drain; indexed
    /// `2 * switch + {0: switch-bound, 1: controller-bound}`.  Only the
    /// entries a drain touches are visited (tracked in `dirty`).
    encode_bufs: Vec<Vec<u8>>,
    dirty: Vec<usize>,
    /// Drains of this shard (`proxy.shard{k}.drains`).
    drains: Arc<Counter>,
    /// Messages this shard emitted (`proxy.shard{k}.msgs`).
    msgs: Arc<Counter>,
}

/// The write half of one proxied connection endpoint: queued encoded
/// chunks, the partial-write offset into the front chunk, and the stream
/// to flush into (absent while the connection is down — bytes then queue
/// and flush on attach).
struct EndpointState {
    stream: Option<TcpStream>,
    queue: VecDeque<Vec<u8>>,
    /// How much of `queue.front()` has already been written.
    offset: usize,
    /// Chunks queued on a live connection but not yet fully written
    /// (`proxy.sw{i}.*_outbox_depth`).
    depth: Arc<Gauge>,
    /// Aggregate of the owning shard (`proxy.shard{k}.outbox_depth`).
    shard_depth: Arc<Gauge>,
}

impl EndpointState {
    fn new(depth: Arc<Gauge>, shard_depth: Arc<Gauge>) -> Self {
        EndpointState {
            stream: None,
            queue: VecDeque::new(),
            offset: 0,
            depth,
            shard_depth,
        }
    }

    fn push_chunk(&mut self, chunk: Vec<u8>) {
        if chunk.is_empty() {
            return;
        }
        self.queue.push_back(chunk);
        if self.stream.is_some() {
            self.depth.inc();
            self.shard_depth.inc();
        }
    }

    /// Marks queued-while-down chunks as live outbox depth on attach.
    fn on_attach(&mut self, stream: TcpStream) {
        self.stream = Some(stream);
        let n = self.queue.len() as i64;
        self.depth.add(n);
        self.shard_depth.add(n);
    }

    /// Drops the stream and every queued chunk (the engine re-issues
    /// unconfirmed modifications on reconnect).
    fn on_detach(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let n = self.queue.len() as i64;
        self.depth.add(-n);
        self.shard_depth.add(-n);
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
    /// is shut down so the read path observes it and detaches.
    fn try_flush(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        while let Some(front) = self.queue.front() {
            match stream.write(&front[self.offset..]) {
                Ok(0) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return false;
                }
                Ok(n) => {
                    self.offset += n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                        self.depth.add(-1);
                        self.shard_depth.add(-1);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Peer went away mid-write: surface it to the poll loop
                    // (read side reports the hangup) and let detach clean up.
                    let _ = stream.shutdown(Shutdown::Both);
                    return false;
                }
            }
        }
        false
    }
}

/// One switch slot's connection state: both write halves plus the attach
/// bookkeeping, behind a per-slot mutex (never held across a shard lock
/// acquisition; shard → slot is the global lock order).
struct SlotState {
    attached: bool,
    /// Per-slot attach generation; a worker detaching with a stale
    /// generation (its connection lingered past a reconnect) is a no-op.
    generation: u64,
    to_switch: EndpointState,
    to_controller: EndpointState,
}

struct Slot {
    state: Mutex<SlotState>,
}

/// A freshly accepted connection pair in transit to its worker.
struct NewConn {
    slot: usize,
    generation: u64,
    switch_stream: TcpStream,
    controller_stream: TcpStream,
}

/// A worker's cross-thread surface: its waker and adoption inbox.
struct WorkerShared {
    waker: Waker,
    inbox: Mutex<Vec<NewConn>>,
}

struct Inner {
    shards: Vec<Mutex<ShardState>>,
    router: ShardRouter,
    n_switches: usize,
    slots: Vec<Slot>,
    workers: Vec<WorkerShared>,
    timers: TimerQueue,
    counters: ProxyCounters,
    /// Telemetry registry shared with the engine shards: `rum.sw*.*`
    /// (engine), `proxy.*` (transport) and `proxy.shard*.*` (per-shard)
    /// metrics all land here.
    registry: Arc<Registry>,
    stop: AtomicBool,
}

impl Inner {
    fn worker_of(&self, slot: usize) -> usize {
        slot % self.workers.len()
    }

    /// Routes a batch of inputs (one socket read's worth) shard by shard:
    /// consecutive same-shard inputs are drained under a single shard-lock
    /// acquisition and their output coalesces into one chunk per endpoint.
    fn dispatch_batch(self: &Arc<Self>, inputs: &mut Vec<Input>) {
        let mut run: Vec<Input> = Vec::new();
        let mut run_shard: Option<usize> = None;
        for input in inputs.drain(..) {
            self.router.deliver(input, |k, input| {
                if run_shard != Some(k) {
                    if let Some(prev) = run_shard.replace(k) {
                        self.feed_shard(prev, &mut run);
                    }
                }
                run.push(input);
            });
        }
        if let Some(k) = run_shard {
            self.feed_shard(k, &mut run);
        }
    }

    /// Convenience for single pre-routed inputs (timers, reconnects).
    fn dispatch(self: &Arc<Self>, input: Input) {
        let mut one = vec![input];
        self.dispatch_batch(&mut one);
    }

    /// Drains `inputs` into shard `k` under its lock, encodes every
    /// resulting message into its endpoint's chunk and pushes the chunks
    /// onto the destination slots' outboxes — still under the shard lock,
    /// so two batches fed to one shard can never interleave their bytes on
    /// a socket out of engine order.  Timer arming and the nonblocking
    /// flush of touched endpoints happen after the lock drops.
    fn feed_shard(self: &Arc<Self>, k: usize, inputs: &mut Vec<Input>) {
        let mut timers: Vec<(Duration, TimerToken)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        {
            let mut st = self.shards[k].lock().unwrap();
            let st = &mut *st;
            st.drains.inc();
            self.counters.drains.inc();
            st.fx.clear();
            for input in inputs.drain(..) {
                st.relay.handle_into(input, &mut st.fx);
            }
            for (endpoint, message) in st.fx.messages.drain(..) {
                let (buf_idx, counter, bytes_counter) = match endpoint {
                    Endpoint::Switch(sw) => (
                        2 * sw.index(),
                        &self.counters.to_switch,
                        &self.counters.to_switch_bytes,
                    ),
                    Endpoint::Controller(sw) => (
                        2 * sw.index() + 1,
                        &self.counters.to_controller,
                        &self.counters.to_controller_bytes,
                    ),
                };
                let buf = &mut st.encode_bufs[buf_idx];
                if buf.is_empty() {
                    st.dirty.push(buf_idx);
                }
                let len_before = buf.len();
                if message.encode_into(buf).is_ok() {
                    counter.inc();
                    st.msgs.inc();
                    bytes_counter.add((buf.len() - len_before) as u64);
                } else {
                    buf.truncate(len_before);
                }
            }
            for buf_idx in st.dirty.drain(..) {
                let chunk = std::mem::take(&mut st.encode_bufs[buf_idx]);
                if chunk.is_empty() {
                    continue;
                }
                let slot_idx = buf_idx / 2;
                let mut slot = self.slots[slot_idx].state.lock().unwrap();
                let ep = if buf_idx % 2 == 0 {
                    &mut slot.to_switch
                } else {
                    &mut slot.to_controller
                };
                ep.push_chunk(chunk);
                touched.push(slot_idx);
            }
            timers.append(&mut st.fx.timers);
        }
        if !timers.is_empty() {
            let now = Instant::now();
            for (delay, token) in timers {
                self.timers.arm(now + delay, token.raw());
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for slot_idx in touched {
            self.flush_slot(slot_idx);
        }
    }

    /// Nonblocking flush of both endpoints of one slot; residue leaves the
    /// bytes queued and wakes the owning worker so it registers `POLLOUT`.
    fn flush_slot(&self, slot_idx: usize) {
        let residue = {
            let mut slot = self.slots[slot_idx].state.lock().unwrap();
            let a = slot.to_switch.try_flush();
            let b = slot.to_controller.try_flush();
            a || b
        };
        if residue {
            self.workers[self.worker_of(slot_idx)].waker.wake();
        }
    }

    /// Frees a slot after its connection died.  Generation-guarded and
    /// idempotent: a stale worker entry (from before a reconnect) cannot
    /// tear down the slot's newer connection.
    fn detach(&self, slot_idx: usize, generation: u64) {
        let mut slot = self.slots[slot_idx].state.lock().unwrap();
        if !slot.attached || slot.generation != generation {
            return;
        }
        slot.attached = false;
        slot.to_switch.on_detach();
        slot.to_controller.on_detach();
    }

    fn timer_loop(self: Arc<Self>) {
        self.timers.run(&self.stop, |token| {
            self.counters.timers_fired.inc();
            self.dispatch(Input::TimerFired {
                token: TimerToken::from_raw(token),
            });
        });
    }
}

/// A handle to a running proxy; dropping it does not stop the proxy, call
/// [`ProxyHandle::shutdown`] for a clean stop.
pub struct ProxyHandle {
    /// The address the proxy actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    timer_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ProxyHandle {
    /// Transport-level counters.
    pub fn counters(&self) -> &ProxyCounters {
        &self.inner.counters
    }

    /// Engine statistics for one monitored switch, read from its owner
    /// shard — the same unified [`ProxyStats`] surface the simulator
    /// deployment reports.
    pub fn stats(&self, switch: SwitchId) -> ProxyStats {
        let owner = self.inner.router.shard_of(switch);
        self.inner.shards[owner]
            .lock()
            .unwrap()
            .relay
            .engine()
            .stats(switch)
    }

    /// Number of switch slots the proxy was built for.
    pub fn n_switches(&self) -> usize {
        self.inner.n_switches
    }

    /// Number of engine shards serving those slots.
    pub fn n_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Aggregated engine statistics across every switch, each read from
    /// its owner shard.
    pub fn total_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for i in 0..self.inner.n_switches {
            total += self.stats(SwitchId::new(i));
        }
        total
    }

    /// Per-switch confirmation cookie order recorded by the owner shard
    /// (empty unless [`rum::RumBuilder::record_confirmations`] is on) —
    /// the sequence the cross-driver conformance tests compare.
    pub fn confirmed_order_for(&self, switch: SwitchId) -> Vec<u64> {
        let owner = self.inner.router.shard_of(switch);
        self.inner.shards[owner]
            .lock()
            .unwrap()
            .relay
            .engine()
            .confirmations()
            .iter()
            .filter(|r| r.switch == switch)
            .map(|r| r.cookie)
            .collect()
    }

    /// The telemetry registry backing this proxy: engine metrics
    /// (`rum.sw*.*`), transport metrics (`proxy.*`) and per-shard metrics
    /// (`proxy.shard*.*`) in one place — hand it to [`telemetry::serve`]
    /// to expose live snapshots.
    pub fn metrics(&self) -> Arc<Registry> {
        self.inner.registry.clone()
    }

    /// Asks the accept, timer and worker loops to stop and waits for them.
    /// Workers shut their connections down on exit, so attached peers see
    /// EOF promptly.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.timers.wake();
        for w in &self.inner.workers {
            w.waker.wake();
        }
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.timer_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The RUM TCP proxy: accepts switch connections, connects onward to the
/// real controller impersonating each switch, and drives every byte
/// through the sharded sans-IO [`rum::ShardedEngine`] from a readiness
/// event loop.
///
/// Accepted connections are assigned [`SwitchId`]s in accept order; the
/// engine must be built for the number of switches expected to connect,
/// and surplus connections are refused.  Shard count comes from
/// [`rum::RumBuilder::shards`] (default 1 — single-engine behaviour).
pub struct RumTcpProxy {
    config: ProxyConfig,
    builder: RumBuilder,
}

impl RumTcpProxy {
    /// Creates a proxy running the engine described by `builder`.
    pub fn new(config: ProxyConfig, builder: RumBuilder) -> Self {
        RumTcpProxy { config, builder }
    }

    /// Binds the listener, starts the engine shards and begins accepting
    /// connections on background threads.
    pub fn start(self) -> std::io::Result<ProxyHandle> {
        let listener = TcpListener::bind(self.config.listen_addr)?;
        let local_addr = listener.local_addr()?;
        let sharded = self.builder.build_sharded();
        let registry = sharded.metrics().clone();
        let n_switches = sharded.n_switches();
        let (engines, router) = sharded.into_parts();
        let n_shards = engines.len();

        // All shard relays share one epoch: one wall clock, many engines.
        let epoch = Instant::now();
        let shards: Vec<Mutex<ShardState>> = engines
            .into_iter()
            .enumerate()
            .map(|(k, engine)| {
                Mutex::new(ShardState {
                    relay: EngineRelay::with_epoch(engine, epoch),
                    fx: RelayEffects::default(),
                    encode_bufs: vec![Vec::new(); 2 * n_switches],
                    dirty: Vec::new(),
                    drains: registry.counter(&format!("proxy.shard{k}.drains")),
                    msgs: registry.counter(&format!("proxy.shard{k}.msgs")),
                })
            })
            .collect();

        let slots: Vec<Slot> = (0..n_switches)
            .map(|i| {
                let shard_depth =
                    registry.gauge(&format!("proxy.shard{}.outbox_depth", i % n_shards));
                Slot {
                    state: Mutex::new(SlotState {
                        attached: false,
                        generation: 0,
                        to_switch: EndpointState::new(
                            registry.gauge(&format!("proxy.sw{i}.switch_outbox_depth")),
                            shard_depth.clone(),
                        ),
                        to_controller: EndpointState::new(
                            registry.gauge(&format!("proxy.sw{i}.controller_outbox_depth")),
                            shard_depth,
                        ),
                    }),
                }
            })
            .collect();

        let n_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8);
        let workers: Vec<WorkerShared> = (0..n_workers)
            .map(|_| {
                Ok(WorkerShared {
                    waker: Waker::new()?,
                    inbox: Mutex::new(Vec::new()),
                })
            })
            .collect::<std::io::Result<_>>()?;

        let inner = Arc::new(Inner {
            shards,
            router,
            n_switches,
            slots,
            workers,
            timers: TimerQueue::new(),
            counters: ProxyCounters::new(&registry),
            registry,
            stop: AtomicBool::new(false),
        });

        // Start-up effects (probe-catch rules, initial technique timers)
        // queue per endpoint and flush when that switch connects.  Feed
        // every shard its start through the relay.
        {
            let mut timers: Vec<(Duration, TimerToken)> = Vec::new();
            for k in 0..inner.shards.len() {
                let msgs: Vec<(Endpoint, OfMessage)> = {
                    let mut guard = inner.shards[k].lock().unwrap();
                    let st = &mut *guard;
                    st.fx.clear();
                    st.relay.start_into(&mut st.fx);
                    timers.append(&mut st.fx.timers);
                    st.fx.messages.drain(..).collect()
                };
                // Encode outside the drain path helper: start-up is once,
                // clarity beats reuse here.
                for (endpoint, message) in msgs {
                    let (slot_idx, is_switch) = match endpoint {
                        Endpoint::Switch(sw) => (sw.index(), true),
                        Endpoint::Controller(sw) => (sw.index(), false),
                    };
                    let mut chunk = Vec::new();
                    if message.encode_into(&mut chunk).is_err() {
                        continue;
                    }
                    if is_switch {
                        inner.counters.to_switch.inc();
                        inner.counters.to_switch_bytes.add(chunk.len() as u64);
                    } else {
                        inner.counters.to_controller.inc();
                        inner.counters.to_controller_bytes.add(chunk.len() as u64);
                    }
                    let mut slot = inner.slots[slot_idx].state.lock().unwrap();
                    let ep = if is_switch {
                        &mut slot.to_switch
                    } else {
                        &mut slot.to_controller
                    };
                    ep.push_chunk(chunk);
                }
            }
            let now = Instant::now();
            for (delay, token) in timers {
                inner.timers.arm(now + delay, token.raw());
            }
        }

        let timer_thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.timer_loop())
        };

        let worker_threads: Vec<JoinHandle<()>> = (0..n_workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, w))
            })
            .collect();

        let accept_inner = Arc::clone(&inner);
        let controller_addr = self.config.controller_addr;
        let accept_thread = std::thread::spawn(move || {
            for incoming in listener.incoming() {
                if accept_inner.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(switch_stream) = incoming else {
                    continue;
                };
                // Claim the lowest free switch slot; a switch that
                // disconnected frees its slot for the reconnect.  Only this
                // thread claims, so the scan is race-free.
                let claimed = (0..accept_inner.n_switches).find(|&i| {
                    let mut slot = accept_inner.slots[i].state.lock().unwrap();
                    if slot.attached {
                        return false;
                    }
                    slot.attached = true;
                    slot.generation += 1;
                    true
                });
                let Some(slot_idx) = claimed else {
                    // More switches than the engine was built for.
                    continue;
                };
                let Ok(controller_stream) = TcpStream::connect(controller_addr) else {
                    // Controller unavailable: free the slot and drop the
                    // switch connection so it retries.  Roll the generation
                    // back too — this claim never became an attach, and a
                    // generation > 1 on the next successful attach would be
                    // misread as a restart reconnect.
                    let mut slot = accept_inner.slots[slot_idx].state.lock().unwrap();
                    slot.attached = false;
                    slot.generation -= 1;
                    continue;
                };
                accept_inner.counters.connections.inc();
                let generation = attach(&accept_inner, slot_idx, switch_stream, controller_stream);
                if generation > 1 {
                    // The slot was attached before: this is a restarted
                    // switch reattaching.  Tell the engine so it re-installs
                    // its catch/probe rules and re-issues every unconfirmed
                    // controller modification on the fresh channel.
                    accept_inner.dispatch(Input::SwitchReconnected {
                        switch: SwitchId::new(slot_idx),
                    });
                }
            }
        });

        Ok(ProxyHandle {
            local_addr,
            inner,
            accept_thread: Some(accept_thread),
            timer_thread: Some(timer_thread),
            worker_threads,
        })
    }
}

/// Wires one accepted switch/controller pair into its slot and hands the
/// read halves to the owning worker.  Returns the attach generation.
fn attach(
    inner: &Arc<Inner>,
    slot_idx: usize,
    switch_stream: TcpStream,
    controller_stream: TcpStream,
) -> u64 {
    let _ = switch_stream.set_nodelay(true);
    let _ = controller_stream.set_nodelay(true);
    // O_NONBLOCK lives on the file description, so the write clones below
    // share it: every read and write on this pair is nonblocking.
    let _ = switch_stream.set_nonblocking(true);
    let _ = controller_stream.set_nonblocking(true);
    let switch_writer = switch_stream.try_clone().expect("clone switch stream");
    let controller_writer = controller_stream
        .try_clone()
        .expect("clone controller stream");

    let generation = {
        let mut slot = inner.slots[slot_idx].state.lock().unwrap();
        slot.to_switch.on_attach(switch_writer);
        slot.to_controller.on_attach(controller_writer);
        slot.generation
    };
    // Flush whatever queued while the slot was down (catch rules from
    // start-up, messages engines emitted between detach and reattach).
    inner.flush_slot(slot_idx);

    let w = inner.worker_of(slot_idx);
    inner.workers[w].inbox.lock().unwrap().push(NewConn {
        slot: slot_idx,
        generation,
        switch_stream,
        controller_stream,
    });
    inner.workers[w].waker.wake();
    generation
}

/// The read half of one endpoint owned by a worker: the nonblocking stream
/// plus its framing state.
struct IoHalf {
    stream: TcpStream,
    codec: OfCodec,
}

struct ConnIo {
    slot: usize,
    generation: u64,
    switch: IoHalf,
    controller: IoHalf,
}

/// One worker's event loop: poll its waker plus both sockets of every
/// connection it owns; drain readable sockets into the shard router,
/// flush writable outbox residue, detach dead pairs.
fn worker_loop(inner: &Arc<Inner>, w: usize) {
    let mut conns: Vec<ConnIo> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // fds[1 + j] belongs to fd_of[j] = (conn index, is_switch_side).
    let mut fd_of: Vec<(usize, bool)> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut msgs: Vec<OfMessage> = Vec::new();
    let mut inputs: Vec<Input> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();

    loop {
        if inner.stop.load(Ordering::SeqCst) {
            for conn in &conns {
                let _ = conn.switch.stream.shutdown(Shutdown::Both);
                let _ = conn.controller.stream.shutdown(Shutdown::Both);
            }
            return;
        }
        // Adopt connections the accept thread handed over.
        {
            let mut inbox = inner.workers[w].inbox.lock().unwrap();
            for nc in inbox.drain(..) {
                conns.push(ConnIo {
                    slot: nc.slot,
                    generation: nc.generation,
                    switch: IoHalf {
                        stream: nc.switch_stream,
                        codec: OfCodec::new(),
                    },
                    controller: IoHalf {
                        stream: nc.controller_stream,
                        codec: OfCodec::new(),
                    },
                });
            }
        }

        // Build the poll set: waker first, then each connection's sockets
        // with write interest only where outbox residue exists.
        fds.clear();
        fd_of.clear();
        fds.push(PollFd::new(inner.workers[w].waker.fd(), true, false));
        for (ci, conn) in conns.iter().enumerate() {
            let (sw_w, ct_w) = {
                let slot = inner.slots[conn.slot].state.lock().unwrap();
                (
                    slot.to_switch.wants_write(),
                    slot.to_controller.wants_write(),
                )
            };
            fds.push(PollFd::new(conn.switch.stream.as_raw_fd(), true, sw_w));
            fd_of.push((ci, true));
            fds.push(PollFd::new(conn.controller.stream.as_raw_fd(), true, ct_w));
            fd_of.push((ci, false));
        }

        // A finite timeout keeps the stop flag honoured even if a wake is
        // lost; all real work arrives through readiness or the waker.
        poll_fds(&mut fds, 500);
        if fds[0].readable() {
            inner.workers[w].waker.drain();
        }

        dead.clear();
        for (j, &(ci, is_switch)) in fd_of.iter().enumerate() {
            let pfd = fds[1 + j];
            if pfd.writable() {
                inner.flush_slot(conns[ci].slot);
            }
            if pfd.readable() || pfd.hangup() {
                let alive = service_read(
                    inner,
                    &mut conns[ci],
                    is_switch,
                    &mut read_buf,
                    &mut msgs,
                    &mut inputs,
                );
                if !alive {
                    dead.push(ci);
                }
            }
        }
        if !dead.is_empty() {
            dead.sort_unstable();
            dead.dedup();
            // Highest index first so earlier removals don't shift later ones;
            // swap_remove is safe because the moved element's index is > ci.
            for &ci in dead.iter().rev() {
                let conn = conns.swap_remove(ci);
                let _ = conn.switch.stream.shutdown(Shutdown::Both);
                let _ = conn.controller.stream.shutdown(Shutdown::Both);
                inner.detach(conn.slot, conn.generation);
            }
        }
    }
}

/// Drains one endpoint's socket (bounded per wakeup for fairness across
/// the poll set), decodes frames and routes the batch into the shards.
/// Returns `false` when the connection is dead (EOF, error, bad framing).
fn service_read(
    inner: &Arc<Inner>,
    conn: &mut ConnIo,
    is_switch: bool,
    buf: &mut [u8],
    msgs: &mut Vec<OfMessage>,
    inputs: &mut Vec<Input>,
) -> bool {
    let switch = SwitchId::new(conn.slot);
    let half = if is_switch {
        &mut conn.switch
    } else {
        &mut conn.controller
    };
    let mut total = 0usize;
    loop {
        let n = match half.stream.read(buf) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        half.codec.feed(&buf[..n]);
        msgs.clear();
        let framing_ok = half.codec.drain_messages_into(msgs).is_ok();
        if !msgs.is_empty() {
            inputs.clear();
            inputs.extend(msgs.drain(..).map(|message| {
                if is_switch {
                    Input::FromSwitch { switch, message }
                } else {
                    Input::FromController { switch, message }
                }
            }));
            inner.dispatch_batch(inputs);
        }
        if !framing_ok {
            return false; // framing error: give up on this connection
        }
        total += n;
        if total >= READ_BUDGET {
            // Yield to the rest of the poll set; level-triggered readiness
            // brings us straight back if more is pending.
            return true;
        }
        if n < buf.len() {
            return true; // drained the socket
        }
    }
}

/// Convenience: waits until `predicate` becomes true or `timeout` elapses.
pub fn wait_for(mut predicate: impl FnMut() -> bool, timeout: Duration) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < timeout {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    predicate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::OfMatch;
    use rum::TechniqueConfig;
    use std::time::Instant;

    /// A minimal in-process "switch": connects to the proxy, answers every
    /// barrier request immediately (the buggy behaviour) and every echo.
    fn spawn_fake_switch(proxy_addr: SocketAddr) -> JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(proxy_addr).expect("connect to proxy");
            let mut codec = OfCodec::new();
            let mut buf = [0u8; 2048];
            let mut replies = Vec::new();
            let mut handled = 0u64;
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            'conn: loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                codec.feed(&buf[..n]);
                replies.clear();
                while let Ok(Some(msg)) = codec.next_message() {
                    handled += 1;
                    let reply = match msg {
                        OfMessage::BarrierRequest { xid } => Some(OfMessage::BarrierReply { xid }),
                        OfMessage::EchoRequest { xid, data } => {
                            Some(OfMessage::EchoReply { xid, data })
                        }
                        OfMessage::Hello { xid } => Some(OfMessage::Hello { xid }),
                        _ => None,
                    };
                    if let Some(r) = reply {
                        r.encode_into(&mut replies).expect("encodable reply");
                    }
                }
                // One write per read batch; a failed write means the proxy
                // hung up — stop serving instead of panicking.
                if !replies.is_empty() && stream.write_all(&replies).is_err() {
                    break 'conn;
                }
            }
            handled
        })
    }

    /// The engine-driven proxy makes barriers honest over real sockets: the
    /// controller's barrier reply is withheld until the hold-down timer has
    /// confirmed the preceding flow-mod, even though the fake switch answers
    /// barriers instantly.
    #[test]
    fn proxy_holds_barrier_reply_until_engine_confirms() {
        // "Controller": a plain listener the proxy connects to.
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller_addr = controller_listener.local_addr().unwrap();

        let delay = Duration::from_millis(120);
        let proxy = RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr,
            },
            RumBuilder::new(1)
                .technique(TechniqueConfig::StaticTimeout { delay })
                .fine_grained_acks(false),
        );
        let handle = proxy.start().expect("proxy starts");
        assert_eq!(handle.n_switches(), 1);

        // The "switch" connects to the proxy; the proxy then connects to us.
        let switch = spawn_fake_switch(handle.local_addr);
        let (mut ctrl_stream, _) = controller_listener.accept().expect("proxy dialled us");
        ctrl_stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();

        // Controller sends hello + flow-mod + barrier request.
        let messages = vec![
            OfMessage::Hello { xid: 1 },
            OfMessage::FlowMod {
                xid: 2,
                body: FlowMod::add(
                    OfMatch::wildcard_all(),
                    1,
                    vec![openflow::Action::output(1)],
                ),
            },
            OfMessage::BarrierRequest { xid: 3 },
        ];
        let start = Instant::now();
        let mut wire = Vec::new();
        for m in &messages {
            m.encode_into(&mut wire).unwrap();
        }
        ctrl_stream.write_all(&wire).unwrap();

        // Read until the barrier reply arrives.
        let mut codec = OfCodec::new();
        let mut buf = [0u8; 2048];
        let mut got_barrier_at = None;
        while got_barrier_at.is_none() {
            let n = match ctrl_stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            codec.feed(&buf[..n]);
            while let Ok(Some(msg)) = codec.next_message() {
                if matches!(msg, OfMessage::BarrierReply { xid: 3 }) {
                    got_barrier_at = Some(start.elapsed());
                }
            }
        }
        let elapsed = got_barrier_at.expect("barrier reply must arrive");
        assert!(
            elapsed >= delay,
            "barrier reply arrived after {elapsed:?}, before the configured {delay:?} hold-down"
        );

        // The unified stats surface reports the same run.
        let sw = SwitchId::new(0);
        let stats = handle.stats(sw);
        assert_eq!(stats.controller_flow_mods, 1);
        assert_eq!(stats.controller_barriers, 1);
        assert_eq!(stats.barrier_replies_released, 1);
        assert_eq!(stats.unconfirmed, 0);
        assert!(handle.counters().to_switch() >= 3);
        assert!(handle.counters().to_controller() >= 1);
        assert!(handle.counters().timers_fired() >= 1);
        assert_eq!(handle.counters().connections(), 1);

        drop(ctrl_stream);
        handle.shutdown();
        let _ = switch.join();
    }

    /// The same hold-down flow with the engine split across 2 shards and 3
    /// switches: per-switch behaviour is identical, and shard metrics show
    /// both shards did work.
    #[test]
    fn sharded_proxy_serves_multiple_switches() {
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller_addr = controller_listener.local_addr().unwrap();

        let delay = Duration::from_millis(60);
        let proxy = RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr,
            },
            RumBuilder::new(3)
                .shards(2)
                .technique(TechniqueConfig::StaticTimeout { delay })
                .fine_grained_acks(false),
        );
        let handle = proxy.start().expect("proxy starts");
        assert_eq!(handle.n_switches(), 3);
        assert_eq!(handle.n_shards(), 2);

        let mut switches = Vec::new();
        let mut ctrl_streams = Vec::new();
        for i in 1..=3u64 {
            switches.push(spawn_fake_switch(handle.local_addr));
            let (ctrl, _) = controller_listener.accept().expect("proxy dialled us");
            ctrl.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            ctrl_streams.push(ctrl);
            assert!(wait_for(
                || handle.counters().connections() == i,
                Duration::from_secs(2),
            ));
        }

        // Push a flow-mod + barrier through every switch's channel.
        for ctrl in ctrl_streams.iter_mut() {
            let mut wire = Vec::new();
            OfMessage::FlowMod {
                xid: 2,
                body: FlowMod::add(
                    OfMatch::wildcard_all(),
                    1,
                    vec![openflow::Action::output(1)],
                ),
            }
            .encode_into(&mut wire)
            .unwrap();
            OfMessage::BarrierRequest { xid: 3 }
                .encode_into(&mut wire)
                .unwrap();
            ctrl.write_all(&wire).unwrap();
        }
        for ctrl in ctrl_streams.iter_mut() {
            let mut codec = OfCodec::new();
            let mut buf = [0u8; 2048];
            let mut got = false;
            while !got {
                let n = match ctrl.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                codec.feed(&buf[..n]);
                while let Ok(Some(msg)) = codec.next_message() {
                    if matches!(msg, OfMessage::BarrierReply { xid: 3 }) {
                        got = true;
                    }
                }
            }
            assert!(got, "each controller channel gets its barrier reply");
        }
        for i in 0..3 {
            let stats = handle.stats(SwitchId::new(i));
            assert_eq!(stats.controller_flow_mods, 1, "switch {i}");
            assert_eq!(stats.barrier_replies_released, 1, "switch {i}");
        }
        let totals = handle.total_stats();
        assert_eq!(totals.controller_flow_mods, 3);
        // Both shards drained inputs (slots 0,2 → shard 0; slot 1 → shard 1).
        let snapshot = handle.metrics().snapshot();
        for k in 0..2 {
            let name = format!("proxy.shard{k}.drains");
            let drains = snapshot.counters.get(&name).copied().unwrap_or(0);
            assert!(drains > 0, "shard {k} must have drained");
        }
        drop(ctrl_streams);
        handle.shutdown();
        for s in switches {
            let _ = s.join();
        }
    }

    #[test]
    fn surplus_connections_are_refused() {
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller_addr = controller_listener.local_addr().unwrap();
        let proxy = RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr,
            },
            RumBuilder::new(1).technique(TechniqueConfig::BarrierBaseline),
        );
        let handle = proxy.start().unwrap();
        let _first = TcpStream::connect(handle.local_addr).unwrap();
        assert!(wait_for(
            || handle.counters().connections() == 1,
            Duration::from_secs(2),
        ));
        // A second switch has no engine slot: accepted at TCP level but
        // never attached.
        let _second = TcpStream::connect(handle.local_addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(handle.counters().connections(), 1);
        handle.shutdown();
    }

    /// A switch that loses its TCP connection frees its slot, and every
    /// re-dial is attached to the same [`SwitchId`] instead of being refused:
    /// each reattach (generation > 1) feeds the engine one
    /// `SwitchReconnected`, and a detach reported late by a *previous*
    /// attach cannot tear down the slot's live connection.
    #[test]
    fn reconnect_reuses_the_freed_slot() {
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller_addr = controller_listener.local_addr().unwrap();
        let proxy = RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr,
            },
            RumBuilder::new(1).technique(TechniqueConfig::BarrierBaseline),
        );
        let handle = proxy.start().unwrap();
        let sw = SwitchId::new(0);
        let slot = || handle.inner.slots[sw.index()].state.lock().unwrap();

        let mut conn = Some(TcpStream::connect(handle.local_addr).unwrap());
        assert!(wait_for(
            || handle.counters().connections() == 1,
            Duration::from_secs(2),
        ));
        for round in 2..=3u64 {
            drop(conn.take());
            // Detachment is asynchronous (the worker must observe EOF); dial
            // only once the slot is free, so the dial deterministically
            // claims it.
            assert!(
                wait_for(|| !slot().attached, Duration::from_secs(3)),
                "round {round}: the dead connection must free its slot"
            );
            conn = Some(TcpStream::connect(handle.local_addr).unwrap());
            assert!(
                wait_for(
                    || handle.counters().connections() == round,
                    Duration::from_secs(3),
                ),
                "reconnect {round} must be accepted"
            );
            assert!(wait_for(
                || handle.stats(sw).reconnects == round - 1,
                Duration::from_secs(2),
            ));
        }
        assert_eq!(handle.counters().connections(), 3);
        assert_eq!(handle.stats(sw).reconnects, 2);
        // All three attaches used the single engine slot.
        assert_eq!(slot().generation, 3);

        // A worker entry from the first attach (generation 1) reports its
        // death only now: the newer connection must survive.
        handle.inner.detach(sw.index(), 1);
        {
            let st = slot();
            assert!(st.attached, "stale detach must be a no-op");
            assert!(
                st.to_switch.stream.is_some(),
                "the reconnected endpoint must stay live"
            );
        }
        // The *current* generation still detaches normally.
        handle.inner.detach(sw.index(), 3);
        assert!(!slot().attached);
        handle.shutdown();
    }

    #[test]
    fn wait_for_times_out() {
        assert!(!wait_for(|| false, Duration::from_millis(30)));
        assert!(wait_for(|| true, Duration::from_millis(30)));
    }
}
