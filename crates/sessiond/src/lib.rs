//! The multi-tenant session plane: many concurrent [`controller::UpdateSession`]s
//! multiplexed over one shared switch fleet.
//!
//! The paper (and every experiment up to this crate) runs *one* update plan
//! at a time.  The "millions of users" regime the ROADMAP aims at is
//! different: hundreds of independent tenants each pushing their own plan
//! through the same RUM proxy, with overlapping matches, a contended
//! confirmation window and sustained churn.  [`SessionMux`] is the sans-IO
//! core of that regime:
//!
//! * **Disjoint namespaces** — tenant *i* owns the cookie/xid block
//!   `(i+1) << namespace_bits`; every flow-mod xid and cookie is rewritten
//!   into the tenant's block on the way out and decoded back on the way in,
//!   so two plans can never collide on an acknowledgment.  Plans whose local
//!   ids do not fit the block are rejected with a typed
//!   [`AdmitError::IdOutOfNamespace`] — misattribution is unrepresentable,
//!   not merely checked.
//! * **Conflict detection** — two in-flight plans touching the same
//!   `(switch, match, priority)` cell would race on the rule itself.  The
//!   configurable [`ConflictPolicy`] either **serializes** the later plan
//!   (FIFO, no overtaking) or **rejects** it with
//!   [`AdmitError::Conflict`].
//! * **Fair scheduling** — a shared outstanding-window budget is divided by
//!   deficit round-robin over each tenant's staged modifications, so one
//!   4000-rule plan cannot starve a 3-rule tenant.
//!
//! Like every core in this workspace, the mux performs no I/O: drivers feed
//! [`MuxInput`]s and execute [`MuxEffect`]s.  It implements
//! `controller::Machine`, so the workspace's two controller transports serve
//! it unchanged: [`MuxController`] in the deterministic simulator and
//! `rum_tcp::TcpMuxController` over real sockets — the cross-driver equality
//! tests hold per session, exactly as they do for the single-session plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mux;
pub mod sim_driver;

pub use mux::{
    AdmitError, ConflictPolicy, MuxConfig, MuxEffect, MuxInput, MuxTimerToken, SessionId,
    SessionMux, SessionState, DEFAULT_NAMESPACE_BITS,
};
pub use sim_driver::MuxController;
