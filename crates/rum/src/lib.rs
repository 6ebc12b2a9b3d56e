//! RUM — Rule Update Monitoring.
//!
//! This crate is the reproduction of the paper's contribution: a transparent
//! layer between an SDN controller and its OpenFlow switches that only
//! acknowledges a rule modification once the rule is demonstrably active in
//! the switch's *data plane*.  The controller can keep using standard
//! OpenFlow barriers (RUM makes them honest) or opt into fine-grained
//! per-rule acknowledgments (an error message with a reserved code, as in the
//! paper's prototype).
//!
//! # Architecture: one sans-IO core, many drivers
//!
//! All message-level logic lives in the [`engine::RumEngine`], a pure state
//! machine with no I/O: drivers feed it typed [`engine::Input`]s and execute
//! the typed [`engine::Effect`]s it returns.  Deployments are thin drivers:
//!
//! * [`proxy::RumProxy`] / [`proxy::deploy`] — nodes for the discrete-event
//!   simulator (all experiments run this way).
//! * the `rum-tcp` crate — a real TCP proxy chain on std sockets, mirroring
//!   the paper's POX prototype, driving the *same* engine.
//!
//! Engines are configured through the fluent [`RumBuilder`]; switches are
//! identified by the deployment-agnostic [`SwitchId`] newtype.
//!
//! # Techniques
//!
//! The acknowledgment techniques of Section 3 are all implemented:
//!
//! | Technique | Module | Paper section |
//! |---|---|---|
//! | Barriers (baseline)        | [`technique::StaticTimeout`], zero hold-down | §3.1 |
//! | Static timeout             | [`technique::StaticTimeout`]     | §3.1 |
//! | Adaptive delay             | [`technique::AdaptiveDelay`]     | §3.1 |
//! | Sequential probing         | [`sequential::SequentialProbing`]| §3.2.1 |
//! | General probing            | [`general::GeneralProbing`], probes on evidence (canary on an idle switch or tick, round per return) | §3.2.2 |
//!
//! plus the reliable-barrier layer of Section 2 (inside the engine),
//! probe-packet synthesis with overlap analysis ([`probe`]), and the
//! Welsh–Powell vertex colouring used to assign per-switch probe values
//! ([`coloring`]).
//!
//! The [`technique::AckTechnique`] trait is the internal extension point for
//! new techniques; deployments never interact with it directly — they only
//! see the engine's input/effect interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod config;
pub mod engine;
pub mod general;
pub mod probe;
pub mod proxy;
pub mod sequential;
pub mod shard;
pub mod technique;

pub use config::{RumBuilder, RumConfig, SwitchPortMap, TechniqueConfig};
pub use engine::{
    ConfirmRecord, Effect, Input, ProxyStats, RumEngine, SwitchId, TimerToken, PROXY_XID_BASE,
};
pub use proxy::{deploy, RumHandle, RumProxy};
pub use shard::{Routing, ShardRouter, ShardedEngine};
