//! The RUM proxy over TCP: per-shard sans-IO engines behind the crate's
//! connection layer.
//!
//! Wiring (mirroring the paper's proxy chain, scaled to 1,000 switches):
//!
//! ```text
//!            ┌── worker 0: ppoll([waker, conns…], next timer) ─▶ ShardRouter
//! switches ──┤                                                     │
//!            └── worker W: ppoll([waker, conns…], next timer)      ▼
//!                    ▲                             shard k (EngineRelay under
//!                 wakers ◀── other workers         its own mutex) ─▶ outboxes
//! ```
//!
//! The private `conn` module owns every socket and every deadline: the
//! accept loop and slot table, the `ppoll(2)` workers (1,000 switches cost
//! 2,000 registered fds, not 4,000 threads) that also fire the engine
//! timers of the switches they serve, as one more input batch, the
//! per-socket outboxes whose `POLLOUT`-gated residue keeps a stalled switch
//! from head-of-line-blocking anyone else, and the per-wakeup read budget
//! that keeps a chatty one from starving its worker's poll set.  This
//! module is that layer's two-sockets-per-slot user.  It owns what is the
//! proxy's alone: dialling the controller for each accepted switch, telling
//! the engine about a reconnect, the engine split by [`SwitchId`] into
//! shards (see [`rum::ShardedEngine`]), each behind its *own* mutex so
//! input for different switches never contends on one lock, the
//! encode-under-the-shard-lock step that keeps socket order equal to engine
//! order, and the `proxy.*` counters.
//!
//! Routing follows the [`rum::ShardRouter`]: controller traffic and timer
//! fires go to the owning shard, a probe `PacketIn` to the shards owning the
//! switches upstream of its sender (and the sender's own), so per-switch
//! confirmation order is byte-identical to the single-engine proxy for the
//! same scenario.  Shards own contiguous runs of slots and so do workers, so
//! with a worker count that divides the shard count a worker serves whole
//! shards and a probe's sender and catch switch share a worker except at a
//! run boundary.

use crate::conn::{Conns, Outbox, Transport};
use crate::relay::{Endpoint, EngineRelay, RelayEffects};
use openflow::OfMessage;
use rum::{Input, ProxyStats, RumBuilder, ShardRouter, SwitchId, TimerToken};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{Counter, Registry};

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

/// Socket sides of a proxy slot, in [`Transport::open`] order.
const SWITCH: usize = 0;
const CONTROLLER: usize = 1;

/// One shard's engine relay plus its reusable effect buffers, all behind
/// one mutex.  Different shards' locks are independent — that is the point.
struct ShardState {
    relay: EngineRelay,
    fx: RelayEffects,
    /// Reusable per-endpoint encode buffers for one drain; indexed
    /// `2 * switch + side`.  Only the entries a drain touches are visited
    /// (tracked in `dirty`).
    encode_bufs: Vec<Vec<u8>>,
    dirty: Vec<usize>,
    /// Drains of this shard (`proxy.shard{k}.drains`).
    drains: Arc<Counter>,
    /// Messages this shard emitted (`proxy.shard{k}.msgs`).
    msgs: Arc<Counter>,
}

struct Inner {
    shards: Vec<Mutex<ShardState>>,
    router: ShardRouter,
    n_switches: usize,
    conns: Conns,
    controller_addr: SocketAddr,
    counters: ProxyCounters,
    /// Telemetry registry shared with the engine shards: `rum.sw*.*`
    /// (engine), `proxy.*` (transport) and `proxy.shard*.*` (per-shard)
    /// metrics all land here.
    registry: Arc<Registry>,
}

impl Inner {
    /// Routes a batch of inputs (one socket read's worth) shard by shard:
    /// consecutive same-shard inputs are drained under a single shard-lock
    /// acquisition and their output coalesces into one chunk per endpoint.
    fn dispatch_batch(&self, inputs: impl Iterator<Item = Input>) {
        let mut run: Vec<Input> = Vec::new();
        let mut run_shard: Option<usize> = None;
        for input in inputs {
            self.router.deliver(input, |k, input| {
                if run_shard != Some(k) {
                    if let Some(prev) = run_shard.replace(k) {
                        self.drain_into_shard(prev, &mut run);
                    }
                }
                run.push(input);
            });
        }
        if let Some(k) = run_shard {
            self.drain_into_shard(k, &mut run);
        }
    }

    fn drain_into_shard(&self, k: usize, inputs: &mut Vec<Input>) {
        self.with_shard(k, |st| {
            st.drains.inc();
            self.counters.drains.inc();
            for input in inputs.drain(..) {
                st.relay.handle_into(input, &mut st.fx);
            }
        });
    }

    /// Runs `feed` against shard `k` under its lock, encodes every
    /// resulting message into its endpoint's chunk and pushes the chunks
    /// onto the destination outboxes — still under the shard lock, so two
    /// batches fed to one shard can never interleave their bytes on a
    /// socket out of engine order.  Timer arming and the nonblocking flush
    /// of touched slots happen after the lock drops.
    fn with_shard(&self, k: usize, feed: impl FnOnce(&mut ShardState)) {
        let mut timers: Vec<(Duration, TimerToken)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        {
            let mut st = self.shards[k].lock().unwrap();
            let st = &mut *st;
            st.fx.clear();
            feed(st);
            for (endpoint, message) in st.fx.messages.drain(..) {
                let (buf_idx, counter, bytes_counter) = match endpoint {
                    Endpoint::Switch(sw) => (
                        2 * sw.index() + SWITCH,
                        &self.counters.to_switch,
                        &self.counters.to_switch_bytes,
                    ),
                    Endpoint::Controller(sw) => (
                        2 * sw.index() + CONTROLLER,
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
                self.conns.push(buf_idx / 2, buf_idx % 2, chunk);
                touched.push(buf_idx / 2);
            }
            timers.append(&mut st.fx.timers);
        }
        if !timers.is_empty() {
            let now = Instant::now();
            for (delay, token) in timers {
                // The arming switch's slot's worker fires it.
                self.conns
                    .arm(token.switch().index(), now, delay, token.raw());
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            self.conns.flush(slot);
        }
    }
}

impl Transport for Inner {
    fn conns(&self) -> &Conns {
        &self.conns
    }

    /// Dials the real controller, impersonating the accepted switch.
    fn open(&self, switch: TcpStream) -> std::io::Result<Vec<TcpStream>> {
        Ok(vec![switch, TcpStream::connect(self.controller_addr)?])
    }

    fn attached(&self, slot: usize, generation: u64) {
        self.counters.connections.inc();
        if generation > 1 {
            // The slot was attached before: this is a restarted switch
            // reattaching.  Tell the engine so it re-installs its
            // catch/probe rules and re-issues every unconfirmed controller
            // modification on the fresh channel.
            self.dispatch_batch(std::iter::once(Input::SwitchReconnected {
                switch: SwitchId::new(slot),
            }));
        }
    }

    fn received(&self, slot: usize, side: usize, msgs: &mut Vec<OfMessage>) {
        let switch = SwitchId::new(slot);
        self.dispatch_batch(msgs.drain(..).map(|message| match side {
            SWITCH => Input::FromSwitch { switch, message },
            _ => Input::FromController { switch, message },
        }));
    }

    fn timer(&self, tokens: &mut Vec<u64>) {
        self.counters.timers_fired.add(tokens.len() as u64);
        self.dispatch_batch(tokens.drain(..).map(|token| Input::TimerFired {
            token: TimerToken::from_raw(token),
        }));
    }
}

/// A handle to a running proxy; dropping it does not stop the proxy, call
/// [`ProxyHandle::shutdown`] for a clean stop.
pub struct ProxyHandle {
    /// The address the proxy actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    inner: Arc<Inner>,
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

    /// Aggregated engine statistics across every switch: each shard's
    /// totals, one lock per shard.
    pub fn total_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for shard in &self.inner.shards {
            let shard = shard.lock().expect("a worker panicked holding a shard");
            total += shard.relay.engine().total_stats();
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

    /// Asks the accept and worker loops to stop and waits for them.
    /// Workers shut their connections down on exit, so attached peers see
    /// EOF promptly.
    pub fn shutdown(self) {
        self.inner.conns.shutdown();
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

        // Per slot: the switch-facing and the controller-facing outbox,
        // each counted on its own gauge and on the owning shard's.
        let outboxes = (0..n_switches)
            .map(|i| {
                let k = router.shard_of(SwitchId::new(i));
                let shard = registry.gauge(&format!("proxy.shard{k}.outbox_depth"));
                ["switch", "controller"]
                    .map(|side| registry.gauge(&format!("proxy.sw{i}.{side}_outbox_depth")))
                    .map(|own| Outbox::new(vec![own, shard.clone()]))
                    .into()
            })
            .collect();
        let n_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8);

        let inner = Arc::new(Inner {
            shards,
            router,
            n_switches,
            conns: Conns::bind(self.config.listen_addr, outboxes, n_workers)?,
            controller_addr: self.config.controller_addr,
            counters: ProxyCounters::new(&registry),
            registry,
        });

        // Start-up effects (probe-catch rules, initial technique timers)
        // queue per endpoint and flush when that switch connects.
        for k in 0..n_shards {
            inner.with_shard(k, |st| st.relay.start_into(&mut st.fx));
        }

        Conns::start(&inner);

        Ok(ProxyHandle {
            local_addr: inner.conns.local_addr,
            inner,
        })
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
    use openflow::OfCodec;
    use openflow::OfMatch;
    use rum::TechniqueConfig;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

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
        // Both shards drained inputs (slots 0,1 → shard 0; slot 2 → shard 1).
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
        // (attached, generation, switch-side outbox live)
        let slot = || handle.inner.conns.slot_state(sw.index());

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
                wait_for(|| !slot().0, Duration::from_secs(3)),
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
        assert_eq!(slot().1, 3);

        // A worker entry from the first attach (generation 1) reports its
        // death only now: the newer connection must survive.
        handle.inner.conns.detach(sw.index(), 1);
        assert!(slot().0, "stale detach must be a no-op");
        assert!(slot().2, "the reconnected endpoint must stay live");
        // The *current* generation still detaches normally.
        handle.inner.conns.detach(sw.index(), 3);
        assert!(!slot().0);
        handle.shutdown();
    }

    #[test]
    fn wait_for_times_out() {
        assert!(!wait_for(|| false, Duration::from_millis(30)));
        assert!(wait_for(|| true, Duration::from_millis(30)));
    }
}
