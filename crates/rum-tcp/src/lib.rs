//! TCP proxy deployment of RUM — the paper's prototype form (§4).
//!
//! *"We implement a RUM prototype that works as a TCP proxy between the
//! switches and the controller.  The switches connect to the proxy as if it
//! was a controller, and the proxy then connects to a real controller using
//! multiple connections, impersonating the switches."*
//!
//! This crate holds the **TCP transports** for the workspace's sans-IO
//! machines; every decision lives in the machines, which the simulator
//! drives byte for byte the same.
//!
//! Proxy side (the RUM layer between switches and controller):
//!
//! * [`relay::EngineRelay`] — the sans-IO adapter around
//!   [`rum::RumEngine`]: takes decoded OpenFlow messages plus wall-clock
//!   time, returns endpoint-tagged messages, timer requests and
//!   confirmations.  Fully unit-testable without sockets.
//! * [`proxy::RumTcpProxy`] — the sharded proxy: per-shard engines behind
//!   their own locks, two sockets per switch slot (the switch's, and the
//!   onward connection impersonating it to the controller).
//!
//! Controller side (the paper's update controller, completing the chain):
//!
//! * [`driver::TcpDriver`] — the one transport for any
//!   `controller::Machine`: one socket per slot, the machine lock, and a
//!   handle to inspect, wait on and shut down the running machine.
//! * [`controller::TcpUpdateController`] and
//!   [`mux_controller::TcpMuxController`] — that driver typed for
//!   `controller::SessionMachine` (one update session, optionally with
//!   declarative resync) and `sessiond::SessionMux` (many tenant sessions):
//!   constructors and typed accessors, nothing else.
//! * [`switch_host`] — the `ofswitch::Datapath` machine hosted behind a TCP
//!   client, emulating buggy (early barrier reply) or faithful switches.
//!   Every switch decision is the machine's; the host owns the wall clock,
//!   the deferred-reply queue, the [`Fabric`] cables and re-dialing.  A
//!   hosted switch publishes nothing while it runs: its tables and ground
//!   truth come back once, as the [`SwitchReport`] of
//!   [`SocketSwitchHandle::join`].
//!   Pacing stays with the simulator driver: this loop rounds its sleeps
//!   up to whole milliseconds, so a 30–40 µs spacing would cost every probe
//!   round trip ~0.5–1 ms.
//!
//! Under all three sits one connection layer, the private `conn` module:
//! the slot table (which slot is attached, under which generation), the
//! per-socket outbox (queued chunks, partial-write resume, queue-while-down),
//! the frame reader (nonblocking read → codec → one batch per socket read)
//! and — for the proxy and the driver — the accept-claim-attach-or-unclaim
//! loop and the `ppoll(2)` workers (`reactor`, the only module allowed to
//! touch FFI) that own every attached socket and every deadline: a timer
//! the engine or the machine arms waits in the queue of the worker serving
//! that slot and fires there, between two socket passes.  1,000 switches
//! are served without a thread per connection, and their timers without a
//! thread at all.  The proxy and the driver only say how an accepted socket
//! becomes a slot's sockets and which lock decoded input and fired timers
//! go to; the lock order is machine/shard → slot everywhere.  The switch
//! host keeps a loop of its own because the deadline it sleeps towards is
//! the switch machine's, but reads, writes and defers replies through the
//! same reader, outbox and deadline queue.
//!
//! Every acknowledgment technique the engine supports (barriers, static
//! timeout, adaptive delay, sequential and general probing) is available
//! over TCP by construction — select one with
//! [`rum::RumBuilder::technique`].  The probing techniques additionally need
//! port maps describing the physical testbed (see
//! [`rum::RumBuilder::port_maps`]).  The crate is self-contained and
//! synchronous: std networking only.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conn;
pub mod controller;
pub mod driver;
pub mod mux_controller;
pub mod proxy;
pub(crate) mod reactor;
pub mod relay;
pub mod switch_host;

pub use controller::{TcpControllerHandle, TcpUpdateController};
pub use driver::{TcpDriver, TcpDriverHandle};
pub use mux_controller::{TcpMuxController, TcpMuxHandle};
pub use proxy::{wait_for, ProxyConfig, ProxyCounters, ProxyHandle, RumTcpProxy};
pub use relay::{Endpoint, EngineRelay, RelayEffects};
pub use switch_host::{
    spawn_switch, spawn_switch_with, Fabric, SocketSwitchHandle, SwitchHostOptions, SwitchReport,
};
