//! The pre-shard, thread-per-connection TCP proxy — retained verbatim as
//! the conformance oracle and the honest in-run baseline for the sharded
//! event-loop proxy in [`crate::proxy`].
//!
//! Wiring (per accepted switch, mirroring the paper's proxy chain):
//!
//! ```text
//! switch ──reader──▶ EngineRelay ──▶ outbox ──writer──▶ controller
//! switch ◀──writer── (one shared   ◀── outbox ◀──reader── controller
//!                     RumEngine)
//!            timer thread ──▶ TimerFired inputs
//! ```
//!
//! Every accepted switch costs four threads (two readers, two writers) and
//! every engine drain funnels through one global mutex — the architecture
//! the sharded proxy replaces.  It is kept because:
//!
//! * cross-driver conformance tests replay identical scenarios through this
//!   proxy and the sharded one and require byte-identical per-switch
//!   confirmation orders (`tests/shard_cross_driver.rs`);
//! * the end-to-end `wire_e2e` throughput benchmark measures its speedup
//!   against this implementation *in the same run*, so the committed
//!   baseline is honest, not a stale number.
//!
//! The per-connection plumbing it shares with the controller-side driver
//! (`Route`, `writer_loop`, `reader_loop`) lives in the `conn` module.

use crate::conn::{reader_loop, writer_loop, Route};
use crate::proxy::{ProxyConfig, ProxyCounters};
use crate::relay::{Endpoint, EngineRelay, RelayEffects};
use crate::timer::TimerQueue;
use rum::{ProxyStats, RumBuilder, SwitchId};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{Gauge, Registry};

struct SwitchRoutes {
    to_switch: Route,
    to_controller: Route,
    /// Reusable encode buffers: one drain's messages for each endpoint are
    /// laid out back-to-back and shipped as a single chunk.
    switch_buf: Vec<u8>,
    controller_buf: Vec<u8>,
    /// Chunks queued on each writer's outbox but not yet written.
    switch_outbox_depth: Arc<Gauge>,
    controller_outbox_depth: Arc<Gauge>,
}

impl SwitchRoutes {
    fn new(registry: &Registry, index: usize) -> Self {
        SwitchRoutes {
            to_switch: Route::Pending(Vec::new()),
            to_controller: Route::Pending(Vec::new()),
            switch_buf: Vec::new(),
            controller_buf: Vec::new(),
            switch_outbox_depth: registry.gauge(&format!("proxy.sw{index}.switch_outbox_depth")),
            controller_outbox_depth: registry
                .gauge(&format!("proxy.sw{index}.controller_outbox_depth")),
        }
    }
}

struct RelayState {
    relay: EngineRelay,
    routes: Vec<SwitchRoutes>,
    /// Which switch slots currently have a live connection pair.
    attached: Vec<bool>,
    /// Per-slot attach generation.  Each of a connection pair's four
    /// threads detaches with the generation it was attached under, so a
    /// thread outliving its connection (e.g. a writer waking up after the
    /// switch already reconnected) cannot tear down the slot's *new*
    /// connection.
    generation: Vec<u64>,
    /// Reusable effects buffer for [`Inner::apply`] drains.
    fx: RelayEffects,
}

struct Inner {
    state: Mutex<RelayState>,
    timers: TimerQueue,
    counters: ProxyCounters,
    /// Telemetry registry shared with the engine: `rum.sw*.*` (engine) and
    /// `proxy.*` (transport) metrics all land here.
    registry: Arc<Registry>,
    stop: AtomicBool,
}

impl Inner {
    /// Feeds the relay under the lock and executes the resulting effects:
    /// every message of the drain is encoded into its endpoint's batch
    /// buffer, and each non-empty batch is handed to its writer as one
    /// chunk → one socket write.
    fn apply(self: &Arc<Self>, f: impl FnOnce(&mut EngineRelay, &mut RelayEffects)) {
        let mut timers: Vec<(Duration, rum::TimerToken)> = Vec::new();
        self.counters.drains.inc();
        {
            let mut st = self.state.lock().unwrap();
            let st = &mut *st;
            st.fx.clear();
            f(&mut st.relay, &mut st.fx);
            for (endpoint, message) in st.fx.messages.drain(..) {
                let (counter, bytes_counter, buf) = match endpoint {
                    Endpoint::Switch(sw) => (
                        &self.counters.to_switch,
                        &self.counters.to_switch_bytes,
                        &mut st.routes[sw.index()].switch_buf,
                    ),
                    Endpoint::Controller(sw) => (
                        &self.counters.to_controller,
                        &self.counters.to_controller_bytes,
                        &mut st.routes[sw.index()].controller_buf,
                    ),
                };
                let len_before = buf.len();
                if message.encode_into(buf).is_ok() {
                    counter.inc();
                    bytes_counter.add((buf.len() - len_before) as u64);
                } else {
                    buf.truncate(len_before);
                }
            }
            for routes in st.routes.iter_mut() {
                if !routes.switch_buf.is_empty() {
                    let chunk = std::mem::take(&mut routes.switch_buf);
                    if routes.to_switch.send_bytes(chunk) {
                        routes.switch_outbox_depth.inc();
                    }
                }
                if !routes.controller_buf.is_empty() {
                    let chunk = std::mem::take(&mut routes.controller_buf);
                    if routes.to_controller.send_bytes(chunk) {
                        routes.controller_outbox_depth.inc();
                    }
                }
            }
            timers.append(&mut st.fx.timers);
        }
        if !timers.is_empty() {
            let now = Instant::now();
            for (delay, token) in timers {
                self.timers.arm(now + delay, token.raw());
            }
        }
    }

    fn timer_loop(self: Arc<Self>) {
        self.timers.run(&self.stop, |token| {
            self.counters.timers_fired.inc();
            self.apply(|r, fx| r.on_timer_into(rum::TimerToken::from_raw(token), fx));
        });
    }
}

/// A handle to a running legacy proxy; dropping it does not stop the proxy,
/// call [`LegacyProxyHandle::shutdown`] for a clean stop.
pub struct LegacyProxyHandle {
    /// The address the proxy actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    timer_thread: Option<JoinHandle<()>>,
}

impl LegacyProxyHandle {
    /// Transport-level counters.
    pub fn counters(&self) -> &ProxyCounters {
        &self.inner.counters
    }

    /// Engine statistics for one monitored switch — the same unified
    /// [`ProxyStats`] surface the simulator deployment reports.
    pub fn stats(&self, switch: SwitchId) -> ProxyStats {
        self.inner
            .state
            .lock()
            .unwrap()
            .relay
            .engine()
            .stats(switch)
    }

    /// Number of switch slots the proxy was built for.
    pub fn n_switches(&self) -> usize {
        self.inner.state.lock().unwrap().relay.engine().n_switches()
    }

    /// Aggregated engine statistics across every switch.
    pub fn total_stats(&self) -> ProxyStats {
        self.inner
            .state
            .lock()
            .unwrap()
            .relay
            .engine()
            .total_stats()
    }

    /// Per-switch confirmation order recorded by the engine (empty unless
    /// [`rum::RumBuilder::record_confirmations`] is on) — the conformance
    /// oracle the sharded proxy is checked against.
    pub fn confirmed_order_for(&self, switch: SwitchId) -> Vec<u64> {
        self.inner
            .state
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

    /// The telemetry registry backing this proxy.
    pub fn metrics(&self) -> Arc<Registry> {
        self.inner.registry.clone()
    }

    /// Asks the accept and timer loops to stop and waits for them.
    /// Established relay threads terminate when their sockets close.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.timers.wake();
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.timer_thread.take() {
            let _ = t.join();
        }
    }
}

/// The pre-shard RUM TCP proxy: accepts switch connections, connects onward
/// to the real controller impersonating each switch, and drives every byte
/// through one shared, globally-locked sans-IO [`rum::RumEngine`] with a
/// reader/writer thread pair per connection.
///
/// Accepted connections are assigned [`SwitchId`]s in accept order; the
/// engine must be built for the number of switches expected to connect, and
/// surplus connections are refused.
pub struct LegacyRumTcpProxy {
    config: ProxyConfig,
    builder: RumBuilder,
}

impl LegacyRumTcpProxy {
    /// Creates a proxy running the engine described by `builder`.
    pub fn new(config: ProxyConfig, builder: RumBuilder) -> Self {
        LegacyRumTcpProxy { config, builder }
    }

    /// Binds the listener, starts the engine and begins accepting
    /// connections on background threads.
    pub fn start(self) -> std::io::Result<LegacyProxyHandle> {
        let listener = TcpListener::bind(self.config.listen_addr)?;
        let local_addr = listener.local_addr()?;
        let engine = self.builder.build();
        let registry = engine.metrics().clone();
        let n_switches = engine.n_switches();
        let routes = (0..n_switches)
            .map(|i| SwitchRoutes::new(&registry, i))
            .collect();
        let inner = Arc::new(Inner {
            state: Mutex::new(RelayState {
                relay: EngineRelay::new(engine),
                routes,
                attached: vec![false; n_switches],
                generation: vec![0; n_switches],
                fx: RelayEffects::default(),
            }),
            timers: TimerQueue::new(),
            counters: ProxyCounters::new(&registry),
            registry,
            stop: AtomicBool::new(false),
        });

        // Start-up effects (probe-catch rules, initial technique timers) are
        // buffered per switch and flushed when that switch connects.
        inner.apply(|r, fx| r.start_into(fx));

        let timer_thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.timer_loop())
        };

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
                // disconnected frees its slot for the reconnect.
                let (slot, generation) = {
                    let mut st = accept_inner.state.lock().unwrap();
                    match st.attached.iter().position(|a| !a) {
                        Some(i) => {
                            st.attached[i] = true;
                            st.generation[i] += 1;
                            (i, st.generation[i])
                        }
                        // More switches than the engine was built for.
                        None => continue,
                    }
                };
                let Ok(controller_stream) = TcpStream::connect(controller_addr) else {
                    // Controller unavailable: free the slot and drop the
                    // switch connection so it retries, like any proxy would.
                    // Roll the generation back too — this claim never became
                    // an attach, and a generation > 1 on the next successful
                    // attach would be misread as a restart reconnect.
                    let mut st = accept_inner.state.lock().unwrap();
                    st.attached[slot] = false;
                    st.generation[slot] -= 1;
                    continue;
                };
                accept_inner.counters.connections.inc();
                attach_connection(
                    &accept_inner,
                    SwitchId::new(slot),
                    generation,
                    switch_stream,
                    controller_stream,
                );
                if generation > 1 {
                    // The slot was attached before: this is a restarted
                    // switch reattaching.  Tell the engine so it re-installs
                    // its catch/probe rules and re-issues every unconfirmed
                    // controller modification on the fresh channel.
                    let switch = SwitchId::new(slot);
                    accept_inner.apply(|r, fx| r.on_switch_reconnected_into(switch, fx));
                }
            }
        });

        Ok(LegacyProxyHandle {
            local_addr,
            inner,
            accept_thread: Some(accept_thread),
            timer_thread: Some(timer_thread),
        })
    }
}

/// Wires one switch/controller connection pair into the relay: two writer
/// threads draining outboxes, two reader threads feeding the engine.
fn attach_connection(
    inner: &Arc<Inner>,
    switch: SwitchId,
    generation: u64,
    switch_stream: TcpStream,
    controller_stream: TcpStream,
) {
    let _ = switch_stream.set_nodelay(true);
    let _ = controller_stream.set_nodelay(true);
    let switch_reader = switch_stream.try_clone().expect("clone switch stream");
    let controller_reader = controller_stream
        .try_clone()
        .expect("clone controller stream");

    let (switch_tx, switch_rx) = channel::<Vec<u8>>();
    let (controller_tx, controller_rx) = channel::<Vec<u8>>();
    let (switch_depth, controller_depth) = {
        let mut st = inner.state.lock().unwrap();
        let routes = &mut st.routes[switch.index()];
        if routes.to_switch.connect(switch_tx) {
            routes.switch_outbox_depth.inc();
        }
        if routes.to_controller.connect(controller_tx) {
            routes.controller_outbox_depth.inc();
        }
        (
            routes.switch_outbox_depth.clone(),
            routes.controller_outbox_depth.clone(),
        )
    };

    // Writer failures (peer hung up mid-write) detach the connection pair
    // just like reader EOFs do, freeing the slot for a reconnect and
    // re-routing queued messages into the pending buffer.
    {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            writer_loop(switch_rx, switch_stream, Some(switch_depth));
            detach_connection(&inner, switch, generation);
        });
    }
    {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            writer_loop(controller_rx, controller_stream, Some(controller_depth));
            detach_connection(&inner, switch, generation);
        });
    }
    {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            reader_loop(switch_reader, |msgs| {
                inner.apply(|r, fx| {
                    for msg in msgs.drain(..) {
                        r.on_switch_message_into(switch, msg, fx);
                    }
                });
            });
            detach_connection(&inner, switch, generation);
        });
    }
    {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            reader_loop(controller_reader, |msgs| {
                inner.apply(|r, fx| {
                    for msg in msgs.drain(..) {
                        r.on_controller_message_into(switch, msg, fx);
                    }
                });
            });
            detach_connection(&inner, switch, generation);
        });
    }
}

/// Tears down one switch's connection pair: resets the routes — dropping
/// the writer channels, which lets each writer thread drain what was
/// already routed, shut its socket down (unblocking the peers' readers)
/// and exit — and frees the slot so the switch can reconnect.  Idempotent —
/// whichever of the pair's four threads exits first wins, and a thread from
/// a previous attach (stale `generation`) is a no-op so it can never tear
/// down a newer connection on the same slot.  Engine state (pending
/// barriers, unconfirmed rules) survives the reconnect.
fn detach_connection(inner: &Arc<Inner>, switch: SwitchId, generation: u64) {
    let mut st = inner.state.lock().unwrap();
    if !st.attached[switch.index()] || st.generation[switch.index()] != generation {
        return;
    }
    st.attached[switch.index()] = false;
    st.routes[switch.index()].to_switch = Route::Pending(Vec::new());
    st.routes[switch.index()].to_controller = Route::Pending(Vec::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::wait_for;
    use rum::TechniqueConfig;

    /// A writer/reader thread from a *previous* attach that dies late (its
    /// socket lingered past the reconnect) must not tear down the slot's
    /// new connection: `detach_connection` is generation-guarded.
    #[test]
    fn stale_thread_death_cannot_detach_a_reconnected_slot() {
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller_addr = controller_listener.local_addr().unwrap();
        let proxy = LegacyRumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr,
            },
            RumBuilder::new(1).technique(TechniqueConfig::BarrierBaseline),
        );
        let handle = proxy.start().unwrap();
        let sw = SwitchId::new(0);

        let first = TcpStream::connect(handle.local_addr).unwrap();
        assert!(wait_for(
            || handle.counters().connections() == 1,
            Duration::from_secs(2),
        ));
        drop(first);
        let mut second = None;
        assert!(wait_for(
            || {
                if handle.counters().connections() >= 2 {
                    return true;
                }
                second = TcpStream::connect(handle.local_addr).ok();
                false
            },
            Duration::from_secs(3),
        ));
        assert!(wait_for(
            || handle.inner.state.lock().unwrap().attached[sw.index()],
            Duration::from_secs(2),
        ));
        let gen_now = handle.inner.state.lock().unwrap().generation[sw.index()];
        assert!(gen_now >= 2, "reconnect bumped the generation");

        // A thread from the first attach (generation 1) reports its death
        // only now: the newer connection must survive.
        detach_connection(&handle.inner, sw, 1);
        {
            let st = handle.inner.state.lock().unwrap();
            assert!(st.attached[sw.index()], "stale detach must be a no-op");
            assert!(
                matches!(st.routes[sw.index()].to_switch, Route::Connected(_)),
                "the reconnected route must stay live"
            );
        }
        // The *current* generation still detaches normally.
        detach_connection(&handle.inner, sw, gen_now);
        assert!(!handle.inner.state.lock().unwrap().attached[sw.index()]);
        handle.shutdown();
    }

    /// A switch that restarts repeatedly reattaches to the same SwitchId
    /// every time, and every reattach (generation > 1) re-feeds the engine —
    /// visible as one SwitchReconnected per reconnect in the stats.
    #[test]
    fn duplicate_reconnects_from_the_same_switch_id() {
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller_addr = controller_listener.local_addr().unwrap();
        let proxy = LegacyRumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr,
            },
            RumBuilder::new(1).technique(TechniqueConfig::BarrierBaseline),
        );
        let handle = proxy.start().unwrap();
        let sw = SwitchId::new(0);

        let mut conn = Some(TcpStream::connect(handle.local_addr).unwrap());
        assert!(wait_for(
            || handle.counters().connections() == 1,
            Duration::from_secs(2),
        ));
        for round in 2..=3u64 {
            drop(conn.take());
            // Wait until the proxy noticed the death and freed the slot, so
            // the next dial deterministically claims it.
            assert!(
                wait_for(
                    || !handle.inner.state.lock().unwrap().attached[sw.index()],
                    Duration::from_secs(3),
                ),
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
        assert_eq!(handle.inner.state.lock().unwrap().generation[sw.index()], 3);
        handle.shutdown();
    }
}
