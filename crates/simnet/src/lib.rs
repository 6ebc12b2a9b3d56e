//! Deterministic discrete-event network simulator.
//!
//! The paper evaluates RUM on a physical testbed (an HP 5406zl hardware
//! switch, two software switches and two traffic hosts).  This crate is the
//! substitute substrate: a deterministic discrete-event simulation (DES)
//! engine with a topology of nodes connected by latency links, traffic
//! generators, and a measurement layer that records exactly the observables
//! the paper plots — when each flow's packets stop being delivered over the
//! old path, when they start arriving over the new one, when rules become
//! active in a switch's data plane, and when the controller believes they
//! are active.
//!
//! Everything is single-threaded and seeded, so every experiment is exactly
//! reproducible.  The ordering contract: events are delivered by delivery
//! time first, then in the order they were scheduled.  Each pending payload
//! is stored once in a slab, and the queue orders slab slots with one FIFO
//! per distinct delivery time (see [`event::EventQueue`]).
//!
//! Module map:
//! * [`time`] — nanosecond-resolution simulation clock.
//! * [`event`] — the event queue: time-then-scheduling order over a payload
//!   slab.
//! * [`node`] — the [`node::Node`] trait implemented by hosts, switches, the
//!   RUM proxy and controllers.
//! * [`ofnode`] — the simulated OpenFlow switch: a thin driver of the
//!   deployment-agnostic `ofswitch::Behavior` engine.
//! * [`engine`] — the simulator main loop and the [`engine::Context`] handed
//!   to nodes.
//! * [`topology`] — data-plane links between (node, port) pairs, looked up
//!   through each node's sorted port list.
//! * [`packet`] — the simulated packet (header + bookkeeping metadata).
//! * [`traffic`] — per-flow constant-rate traffic generators (hosts).
//! * [`measure`] — trace events and the analyses that turn them into the
//!   paper's figures (broken time, activation delay, drop counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod measure;
pub mod node;
pub mod ofnode;
pub mod packet;
pub mod time;
pub mod topology;
pub mod traffic;

pub use engine::{Context, Simulator};
pub use event::EventPayload;
pub use measure::{FlowId, TraceEvent, TraceSink};
pub use node::{Node, NodeId};
pub use ofnode::OpenFlowSwitch;
pub use packet::SimPacket;
pub use time::SimTime;
pub use topology::Topology;
