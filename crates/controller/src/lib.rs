//! A consistent-update SDN controller for the RUM reproduction.
//!
//! The paper assumes a controller in the style of Reitblatt et al.'s
//! "Abstractions for Network Update": the new network state is decomposed
//! into individual rule modifications with explicit ordering dependencies
//! ("install X only after Y and Z are in place"), and the controller only
//! releases a modification once the rules it depends on have been
//! *acknowledged*.  The whole point of RUM is that those acknowledgments are
//! worthless on real switches unless something (RUM) ties them to the data
//! plane.
//!
//! * [`plan`] — dependency-ordered update plans.
//! * [`session`] — the sans-IO [`session::UpdateSession`] plan-execution
//!   engine: acknowledgment modes (no-wait, barrier-based, RUM fine-grained
//!   acks), the outstanding window, dependency gating and the failure policy,
//!   all behind a pure input → effects interface.
//! * [`machine`] — the [`machine::Machine`] boundary every controller
//!   transport drives, and [`machine::SessionMachine`]: the session plus the
//!   optional [`resync`] reconciler, with the arbitration between the two.
//! * [`controller`] — [`controller::MachineNode`], the one simulator
//!   transport for machines, and [`controller::Controller`], the node driving
//!   a `SessionMachine` (`rum_tcp::TcpDriver` is the socket transport).
//! * [`scenarios`] — builders for the paper's experimental setups: the
//!   triangle path-migration testbed (Figures 1b, 6, 7) and the single-switch
//!   bulk-update workload (Figure 8 and Table 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod controller;
pub mod machine;
pub mod plan;
pub mod resync;
pub mod scenarios;
pub mod session;

pub use backoff::BackoffPolicy;
pub use controller::{Controller, MachineNode};
pub use machine::{Machine, MachineEffect, MachineInput, SessionMachine};
pub use plan::{PlanError, PlannedMod, UpdatePlan};
pub use resync::{
    DesiredStore, Reconciler, ResyncConfig, ResyncEffect, ResyncInput, ResyncRound, ResyncStatus,
};
pub use scenarios::{BulkUpdateScenario, TriangleScenario};
pub use session::{
    AbortReport, AckMode, ConnId, FailurePolicy, SessionEffect, SessionInput, SessionOutcome,
    SessionTimerToken, UpdateSession,
};
