//! Driver-agnostic OpenFlow 1.0 switch semantics.
//!
//! The paper's central observation is that real switches (their HP 5406zl in
//! particular) acknowledge rule modifications on the control plane long
//! before the rules are actually active in the data plane, and that some
//! switches additionally reorder modifications across barriers.  This crate
//! is the one place that misbehaviour is modelled — as a pure library with
//! no simulator or socket dependencies, so the discrete-event simulator
//! (`simnet::OpenFlowSwitch`) and the real-socket host
//! (`rum_tcp::switch_host`) drive the *same* state machine:
//!
//! * [`flow_table`] — OpenFlow 1.0 flow-table semantics (priorities, strict
//!   vs. loose modify/delete, overlap checking, counters), indexed so
//!   lookups, strict operations and bulk installs are sub-linear.
//! * [`oracle`] — the original linear-scan table, kept as the reference
//!   implementation for property tests and throughput baselines.
//! * [`model`] — the timing model: control-plane processing rate (occupancy
//!   dependent), periodic data-plane synchronisation, barrier modes
//!   (faithful, early-reply, reordering), and PacketIn/PacketOut rate
//!   limits — all calibrated to the characteristics published for the
//!   HP 5406zl in the paper and its companion technical report.
//! * [`behavior`] — the sans-IO behaviour engine combining tables + model
//!   with a deterministic, seedable [`FaultPlan`] (silent rule drops,
//!   delayed sync bursts, ack loss/duplication, restart with table wipe),
//!   and the [`GroundTruth`] timeline used to classify acknowledgments as
//!   true or false.
//! * [`datapath`] — the whole switch as one sans-IO machine: a
//!   [`Behavior`] plus the handshake and stats surface, `PacketOut`
//!   execution, data-plane forwarding and table-miss policy.  This is what
//!   the two drivers run.
//!
//! Time throughout is [`std::time::Duration`] since an arbitrary driver
//! epoch — simulation start or wall-clock process start, the engine only
//! compares and adds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod datapath;
pub mod flow_table;
pub mod model;
pub mod oracle;

pub use behavior::{
    Behavior, BehaviorAction, BehaviorCounters, ConfirmVerdict, FaultPlan, GroundTruth,
    PacketVerdict, TruthEvent,
};
pub use datapath::Datapath;
pub use flow_table::{FlowEntry, FlowModOutcome, FlowTable};
pub use model::{BarrierMode, SwitchModel};
pub use oracle::LinearFlowTable;
