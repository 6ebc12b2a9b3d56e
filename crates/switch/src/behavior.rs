//! The driver-agnostic switch behaviour engine.
//!
//! [`Behavior`] is the one place where "how does a (buggy) switch actually
//! behave" lives: the serial control plane, the periodically-synchronised
//! data plane, the three barrier modes, and a seedable [`FaultPlan`]
//! covering the paper's adversary space — silent rule drops, delayed
//! data-plane sync bursts, acknowledgment loss/duplication, and
//! control-channel disconnect with a table wipe (switch restart) — plus the
//! flow-stats reply loss the reconciler's readback must survive.
//!
//! It is a sans-IO state machine in the same style as `rum::RumEngine` and
//! `controller::UpdateSession`: drivers feed it decoded OpenFlow messages
//! plus the current time (a [`Duration`] since an arbitrary driver epoch)
//! and execute the [`BehaviorAction`]s it returns.  Two drivers share it,
//! through [`crate::Datapath`], which adds the rest of the switch:
//!
//! * `simnet::OpenFlowSwitch` — the discrete-event simulator node;
//! * `rum_tcp::switch_host` — the same switch served over a real TCP socket.
//!
//! Because every fault decision is a **pure hash of `(seed, cookie)`** — not
//! a draw from a sequential RNG — the same [`FaultPlan`] produces the same
//! set of silently-dropped rules and the same lost/duplicated barrier
//! replies on both drivers, regardless of their (different) message timing.
//! That is what makes cross-driver false-acknowledgment experiments
//! comparable: the adversary is identical, only the transport differs.
//!
//! The engine also keeps the **ground truth** ([`GroundTruth`]): a timeline
//! of every data-plane activation and removal.  An experiment classifies
//! each controller-side confirmation against it — a confirmation at time `t`
//! for a rule that was not active at `t` is a *false acknowledgment*, the
//! paper's headline failure mode.

use crate::flow_table::{FlowTable, FlowTableError};
use crate::model::{BarrierMode, SwitchModel};
use openflow::constants::error_type;
use openflow::messages::{
    FlowMod, FlowRemoved, FlowStatsEntry, StatsReply, StatsRequest, MAX_STATS_BODY,
};
use openflow::{Action, OfMatch, OfMessage, PacketHeader, PortNo, Xid};
use std::collections::VecDeque;
use std::time::Duration;

// ---------------------------------------------------------------------
// Deterministic fault decisions
// ---------------------------------------------------------------------

/// SplitMix64: the finaliser is used as a keyed hash for every per-cookie
/// fault decision (order-independent), including the reordering adversary's
/// per-cookie deferrals and its application-order keys — no sequential RNG
/// remains, so the same seed misbehaves identically on both drivers
/// regardless of message timing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salts separating the fault decision domains.
const SALT_SILENT_DROP: u64 = 0x5D;
const SALT_ACK_LOSS: u64 = 0xAC;
const SALT_ACK_DUP: u64 = 0xD0;
const SALT_REORDER_DEFER: u64 = 0xDE;
const SALT_REORDER_KEY: u64 = 0x0D;
const SALT_STATS_DROP: u64 = 0x5A;

/// A deterministic, seedable description of how a switch misbehaves beyond
/// its timing model.  [`FaultPlan::none`] is a fault-free switch; every
/// field composes independently with the [`SwitchModel`]'s barrier mode.
/// Each field is one that a test, gate or benchmark turns on; flow-stats
/// replies are either answered whole from the control-plane table or lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every fault decision.  The same seed reproduces the same
    /// faults on any driver.
    pub seed: u64,
    /// Silently drop roughly one in this many accepted modifications before
    /// the data plane (0 = never).  The decision is a pure hash of
    /// `(seed, cookie)`.  Because the data-plane update queue is FIFO, the
    /// wedged modification also blocks everything accepted after it — the
    /// control plane keeps accepting and acknowledging, but nothing more
    /// reaches the TCAM until the switch restarts.  (This is the
    /// wedged-update-queue failure observed on real hardware; the control
    /// plane is none the wiser.)
    pub silent_drop_one_in: u32,
    /// Delay every n-th data-plane synchronisation by
    /// [`FaultPlan::sync_burst_extra`] (0 = never): the "delayed sync burst"
    /// where rules pile up and activate much later than any heuristic
    /// expects.
    pub sync_burst_every: u32,
    /// Extra latency applied to burst-delayed synchronisations.
    pub sync_burst_extra: Duration,
    /// Silently drop roughly one in this many barrier replies on the control
    /// channel (0 = never); hash of `(seed, xid)`.
    pub ack_loss_one_in: u32,
    /// Duplicate roughly one in this many barrier replies (0 = never); hash
    /// of `(seed, xid)`.
    pub ack_duplicate_one_in: u32,
    /// After accepting this many flow modifications, disconnect the control
    /// channel and wipe both tables — a switch restart.  `None` = never.
    pub restart_after_mods: Option<u64>,
    /// Silently swallow roughly one in this many flow-stats replies (0 =
    /// never); hash of `(seed, xid)`.  The reconciler's readback must
    /// re-request under backoff to make progress.
    pub stats_drop_one_in: u32,
}

impl FaultPlan {
    /// A fault-free plan (timing model only).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            silent_drop_one_in: 0,
            sync_burst_every: 0,
            sync_burst_extra: Duration::ZERO,
            ack_loss_one_in: 0,
            ack_duplicate_one_in: 0,
            restart_after_mods: None,
            stats_drop_one_in: 0,
        }
    }

    /// A fault-free plan carrying a seed (the seed still feeds the
    /// reordering shuffle of [`BarrierMode::EarlyReplyReordering`]).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Fluent: silent drops, one in `one_in`.
    pub fn with_silent_drops(mut self, one_in: u32) -> Self {
        self.silent_drop_one_in = one_in;
        self
    }

    /// Fluent: every `every`-th sync delayed by `extra`.
    pub fn with_sync_bursts(mut self, every: u32, extra: Duration) -> Self {
        self.sync_burst_every = every;
        self.sync_burst_extra = extra;
        self
    }

    /// Fluent: barrier-reply loss, one in `one_in`.
    pub fn with_ack_loss(mut self, one_in: u32) -> Self {
        self.ack_loss_one_in = one_in;
        self
    }

    /// Fluent: barrier-reply duplication, one in `one_in`.
    pub fn with_ack_duplication(mut self, one_in: u32) -> Self {
        self.ack_duplicate_one_in = one_in;
        self
    }

    /// Fluent: restart (disconnect + table wipe) after `mods` modifications.
    pub fn with_restart_after(mut self, mods: u64) -> Self {
        self.restart_after_mods = Some(mods);
        self
    }

    /// Fluent: flow-stats-reply loss, one in `one_in`.
    pub fn with_stats_reply_loss(mut self, one_in: u32) -> Self {
        self.stats_drop_one_in = one_in;
        self
    }

    /// Keyed per-value decision: true roughly one time in `one_in`.
    fn decide(&self, salt: u64, value: u64) -> bool {
        let one_in = match salt {
            SALT_SILENT_DROP => self.silent_drop_one_in,
            SALT_ACK_LOSS => self.ack_loss_one_in,
            SALT_ACK_DUP => self.ack_duplicate_one_in,
            SALT_STATS_DROP => self.stats_drop_one_in,
            _ => 0,
        };
        if one_in == 0 {
            return false;
        }
        splitmix64(self.seed ^ salt.wrapping_mul(0x517C_C1B7_2722_0A95) ^ value)
            .is_multiple_of(u64::from(one_in))
    }

    /// True when the modification carrying `cookie` is silently dropped.
    pub fn drops_cookie(&self, cookie: u64) -> bool {
        self.decide(SALT_SILENT_DROP, cookie)
    }

    /// Reordering adversary: true when a ready modification is deferred to a
    /// later data-plane synchronisation on its `attempt`-th consideration
    /// (roughly one time in ten).  A pure hash of `(seed, cookie, attempt)`,
    /// so the deferral pattern — and with it the verdict grid — is identical
    /// on every driver.
    pub fn defers_cookie(&self, cookie: u64, attempt: u32) -> bool {
        splitmix64(
            self.seed
                ^ SALT_REORDER_DEFER.wrapping_mul(0x517C_C1B7_2722_0A95)
                ^ cookie
                ^ (u64::from(attempt) << 40),
        )
        .is_multiple_of(10)
    }

    /// Reordering adversary: the deterministic application-order key of a
    /// cookie within one synchronisation batch (lower key applies first).
    fn reorder_key(&self, cookie: u64) -> u64 {
        splitmix64(self.seed ^ SALT_REORDER_KEY.wrapping_mul(0x517C_C1B7_2722_0A95) ^ cookie)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

// ---------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------

/// One data-plane state change, as the behaviour engine recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthEvent {
    /// When it happened (driver epoch).
    pub at: Duration,
    /// The rule's cookie.
    pub cookie: u64,
    /// True = the rule became active, false = it was removed.
    pub activated: bool,
}

/// How a single confirmation compares against the data-plane ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmVerdict {
    /// The rule was active in the data plane when the confirmation was
    /// issued.
    TrueAck,
    /// The rule was **not** active at confirmation time (it activated later,
    /// or never) — the unreliable acknowledgment the paper is about.
    FalseAck,
}

/// The data-plane timeline of one switch: every activation and removal, in
/// order, plus the modifications the fault plan silently discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    /// Every activation/removal, in time order.
    pub events: Vec<TruthEvent>,
    /// Cookies accepted by the control plane that will never reach the data
    /// plane (the hash-selected wedge point, plus everything queued behind
    /// it when the run ended).
    pub wedged: Vec<u64>,
}

impl GroundTruth {
    /// True if `cookie` was active in the data plane at time `t`.
    pub fn active_at(&self, cookie: u64, t: Duration) -> bool {
        let mut active = false;
        for e in &self.events {
            if e.at > t {
                break;
            }
            if e.cookie == cookie {
                active = e.activated;
            }
        }
        active
    }

    /// First activation time of `cookie`, if it ever activated.
    pub fn first_activation(&self, cookie: u64) -> Option<Duration> {
        self.events
            .iter()
            .find(|e| e.cookie == cookie && e.activated)
            .map(|e| e.at)
    }

    /// Classifies a confirmation issued at `t` for `cookie`.
    pub fn classify(&self, cookie: u64, t: Duration) -> ConfirmVerdict {
        if self.active_at(cookie, t) {
            ConfirmVerdict::TrueAck
        } else {
            ConfirmVerdict::FalseAck
        }
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// What the engine asks its driver to do.  Actions are returned in
/// non-decreasing `at` order per call; `at` may lie in the future (control
/// plane busy time, data-plane sync latency) and the driver delivers or
/// records the action no earlier than that instant.
#[derive(Debug, Clone, PartialEq)]
pub enum BehaviorAction {
    /// Send `message` on the control channel, no earlier than `at`.
    Reply {
        /// Earliest send time (driver epoch).
        at: Duration,
        /// The message.
        message: OfMessage,
    },
    /// The rule with `cookie` became active in the data plane at `at`
    /// (observational: also recorded in [`GroundTruth`]).
    Activated {
        /// Activation time.
        at: Duration,
        /// The rule's cookie.
        cookie: u64,
    },
    /// The rule with `cookie` left the data plane at `at`.
    Deactivated {
        /// Removal time.
        at: Duration,
        /// The rule's cookie.
        cookie: u64,
    },
    /// The switch restarted: both tables were wiped, all pending work was
    /// discarded, and the control channel must be torn down by the driver.
    /// Drivers that model reconnection call [`Behavior::reattach`] later,
    /// which replays the OpenFlow handshake (the switch-side `Hello`).
    Restarted {
        /// When the restart happened.
        at: Duration,
    },
    /// A `PacketIn` for the control channel, due now.  Not a `Reply`: a
    /// driver may pace or suppress it (`Datapath` emits these; see there).
    PacketIn {
        /// The complete `OfMessage::PacketIn`.
        message: OfMessage,
    },
    /// `header` leaves the switch on physical `port`.
    Output {
        /// The port.
        port: PortNo,
        /// The header after rewrites.
        header: PacketHeader,
    },
    /// `header` leaves on every cabled port but `except` (`FLOOD`/`ALL`).
    Flood {
        /// The ingress port.
        except: PortNo,
        /// The header after rewrites.
        header: PacketHeader,
    },
    /// The data plane dropped the packet: table miss, drop rule, or only
    /// outputs that lead nowhere.
    Dropped,
}

/// What the data plane decided about one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketVerdict {
    /// The header after the matched rule's rewrites (unchanged on a miss).
    pub rewritten: PacketHeader,
    /// Output ports, in action order.  May contain OpenFlow special ports
    /// (`CONTROLLER`, `FLOOD`, ...) that the driver interprets.
    pub outputs: Vec<PortNo>,
    /// False = table miss.
    pub matched: bool,
}

/// Message counters of one behaviour instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BehaviorCounters {
    /// Flow modifications accepted by the control plane.
    pub flow_mods: u64,
    /// Modifications rejected with an error.
    pub errors: u64,
    /// Barrier requests processed.
    pub barriers: u64,
    /// Barrier replies suppressed by the ack-loss fault.
    pub replies_lost: u64,
    /// Barrier replies duplicated by the ack-duplication fault.
    pub replies_duplicated: u64,
    /// Modifications silently wedged (never to reach the data plane).
    pub silently_dropped: u64,
    /// Data-plane synchronisations delayed by a burst.
    pub sync_bursts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Reattachments after a restart ([`Behavior::reattach`]).
    pub reattaches: u64,
    /// Rules removed by an idle or hard timeout.
    pub rules_expired: u64,
    /// Flow-stats requests answered by the engine.
    pub flow_stats: u64,
    /// Flow-stats replies suppressed by the stats-loss fault.
    pub stats_replies_lost: u64,
    /// `FlowRemoved` notifications sent for expired `SEND_FLOW_REM` rules.
    pub flow_removed_sent: u64,
}

/// A modification accepted by the control plane, waiting for the data plane.
#[derive(Debug, Clone)]
struct PendingOp {
    seq: u64,
    ready_at: Duration,
    flow_mod: FlowMod,
    /// How many synchronisations have already considered (and deferred) this
    /// op — the reordering adversary's per-cookie deferral counter.
    defer_count: u32,
}

/// A barrier whose reply is withheld until the data plane catches up
/// (faithful mode only).
#[derive(Debug, Clone, Copy)]
struct PendingBarrier {
    xid: Xid,
    threshold_seq: u64,
    earliest_reply: Duration,
}

/// The shared switch-behaviour state machine (see module docs).
#[derive(Debug)]
pub struct Behavior {
    model: SwitchModel,
    faults: FaultPlan,
    control: FlowTable,
    data: FlowTable,

    pending: Vec<PendingOp>,
    in_flight: VecDeque<(Duration, Vec<PendingOp>)>,
    pending_barriers: Vec<PendingBarrier>,

    busy_until: Duration,
    next_sync_at: Duration,
    sync_count: u64,
    next_op_seq: u64,
    /// Set when a silent drop wedged the data-plane queue: ops at or past
    /// this sequence never sync.
    wedged_at_seq: Option<u64>,
    mods_accepted: u64,
    disconnected: bool,
    /// Reusable buffer for table-expiry sweeps.
    expiry_buf: Vec<u64>,

    truth: GroundTruth,
    counters: BehaviorCounters,
}

impl Behavior {
    /// Creates a behaviour instance from a timing model and a fault plan.
    pub fn new(model: SwitchModel, faults: FaultPlan) -> Self {
        let capacity = model.table_capacity;
        let next_sync_at = model.dataplane_sync_period;
        Behavior {
            model,
            faults,
            control: FlowTable::new(capacity),
            data: FlowTable::new(capacity),
            pending: Vec::new(),
            in_flight: VecDeque::new(),
            pending_barriers: Vec::new(),
            busy_until: Duration::ZERO,
            next_sync_at,
            sync_count: 0,
            next_op_seq: 0,
            wedged_at_seq: None,
            mods_accepted: 0,
            disconnected: false,
            expiry_buf: Vec::new(),
            truth: GroundTruth::default(),
            counters: BehaviorCounters::default(),
        }
    }

    /// The timing model.
    pub fn model(&self) -> &SwitchModel {
        &self.model
    }

    /// The fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The control-plane view of the flow table.
    pub fn control_table(&self) -> &FlowTable {
        &self.control
    }

    /// The data-plane view of the flow table.
    pub fn data_table(&self) -> &FlowTable {
        &self.data
    }

    /// Message counters.
    pub fn counters(&self) -> &BehaviorCounters {
        &self.counters
    }

    /// The recorded data-plane timeline.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Accepted modifications not yet visible in the data plane.
    pub fn dataplane_backlog(&self) -> usize {
        self.pending.len() + self.in_flight.iter().map(|(_, v)| v.len()).sum::<usize>()
    }

    /// When the control-plane CPU becomes free.
    pub fn busy_until(&self) -> Duration {
        self.busy_until
    }

    /// True once the restart fault tore the control channel down.
    pub fn disconnected(&self) -> bool {
        self.disconnected
    }

    /// Installs a rule directly into both tables, bypassing the control
    /// channel and all timing/fault models.  Used to pre-install state
    /// before an experiment starts, like the paper pre-installs the initial
    /// paths.
    pub fn preinstall(&mut self, fm: &FlowMod) {
        let _ = self.control.apply(fm, Duration::ZERO);
        let _ = self.data.apply(fm, Duration::ZERO);
    }

    /// Reserves control-plane CPU time and returns the completion instant.
    /// Public so drivers can account driver-level work (PacketOut/PacketIn
    /// processing) against the same serial CPU.
    pub fn consume_cpu(&mut self, now: Duration, cost: Duration) -> Duration {
        let start = self.busy_until.max(now);
        self.busy_until = start + cost;
        self.busy_until
    }

    /// The next instant at which [`Behavior::advance`] has work to do, if
    /// any: a data-plane sync, an in-flight batch application, a rule
    /// timeout, or a withheld barrier becoming answerable.
    pub fn next_deadline(&self) -> Option<Duration> {
        let mut deadline: Option<Duration> = None;
        let mut consider = |d: Duration| {
            deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
        };
        if !self.pending.is_empty() || !self.pending_barriers.is_empty() {
            consider(self.next_sync_at);
        }
        if let Some(&(apply_at, _)) = self.in_flight.front() {
            consider(apply_at);
        }
        if let Some(expiry) = self.data.next_expiry() {
            consider(expiry);
        }
        if let Some(expiry) = self.control.next_expiry() {
            consider(expiry);
        }
        deadline
    }

    /// Processes everything scheduled up to `now`: data-plane sync ticks,
    /// in-flight batch applications, and faithful-barrier releases.
    /// Idempotent; drivers call it before handling any input and whenever
    /// [`Behavior::next_deadline`] passes.
    pub fn advance(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) {
        // Idle fast path: with nothing pending, sync ticks are pure clock
        // advancement — jump over them arithmetically instead of looping
        // (drivers may call advance after long idle gaps).
        if self.pending.is_empty()
            && self.in_flight.is_empty()
            && self.pending_barriers.is_empty()
            && self.next_sync_at <= now
        {
            let period = self
                .model
                .dataplane_sync_period
                .max(Duration::from_nanos(1));
            let steps = ((now - self.next_sync_at).as_nanos() / period.as_nanos()) as u64 + 1;
            self.sync_count += steps;
            self.next_sync_at += period * steps.min(u64::from(u32::MAX)) as u32;
        }
        loop {
            // Apply any in-flight batch due before the next sync tick, and
            // interleave rule-timeout sweeps at their exact deadlines.
            let apply_due = self
                .in_flight
                .front()
                .map(|&(at, _)| at)
                .filter(|&at| at <= now);
            let sync_due = (self.next_sync_at <= now).then_some(self.next_sync_at);
            let expiry_due = match (self.data.next_expiry(), self.control.next_expiry()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
            .filter(|&at| at <= now);
            // Ties resolve apply → sync → expiry, preserving the original
            // apply/sync ordering.
            if let Some(at) = apply_due.filter(|&at| {
                sync_due.is_none_or(|t| at <= t) && expiry_due.is_none_or(|t| at <= t)
            }) {
                self.apply_front(at, out);
            } else if let Some(tick) = sync_due.filter(|&t| expiry_due.is_none_or(|e| t <= e)) {
                self.sync_tick(tick, out);
            } else if let Some(at) = expiry_due {
                self.expire_step(at, out);
            } else {
                break;
            }
        }
    }

    /// One rule-timeout sweep at absolute time `at`: the control plane drops
    /// its expired entries silently, the data plane's expirations are
    /// visible deactivations recorded in the ground truth.  The sweep time
    /// comes from the tables' own deadline bounds, so truth events carry the
    /// exact expiry instant even when the driver advances in large steps.
    fn expire_step(&mut self, at: Duration, out: &mut Vec<BehaviorAction>) {
        let mut buf = std::mem::take(&mut self.expiry_buf);
        // Control-plane expiry drives the controller-facing `FlowRemoved`
        // notification for rules installed with `OFPFF_SEND_FLOW_REM` (the
        // model lets each table age independently; their deadlines differ
        // only by the sync lag, far below the seconds-granularity timeouts).
        // Only *data-plane* expirations below are visible deactivations.
        let disconnected = self.disconnected;
        let counters = &mut self.counters;
        let removed: &mut Vec<BehaviorAction> = out;
        self.control.expire_with(at, |e| {
            if !e.send_flow_removed || disconnected {
                return;
            }
            counters.flow_removed_sent += 1;
            let alive = at.saturating_sub(e.installed_at);
            removed.push(BehaviorAction::Reply {
                at,
                message: OfMessage::FlowRemoved {
                    xid: 0,
                    body: FlowRemoved {
                        match_: e.match_,
                        cookie: e.cookie,
                        priority: e.priority,
                        reason: e.expiry_reason(at),
                        duration_sec: alive.as_secs() as u32,
                        duration_nsec: alive.subsec_nanos(),
                        idle_timeout: e.idle_timeout,
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                    },
                },
            });
        });
        self.data.expire_into(at, &mut buf);
        for &cookie in &buf {
            self.counters.rules_expired += 1;
            self.truth.events.push(TruthEvent {
                at,
                cookie,
                activated: false,
            });
            out.push(BehaviorAction::Deactivated { at, cookie });
        }
        self.expiry_buf = buf;
    }

    /// Fast-forwards model time until every applicable (non-wedged)
    /// accepted modification has reached the data plane, and returns the
    /// instant the engine settled at.  Used by drivers at teardown so the
    /// final report reflects everything the control plane accepted — even
    /// work whose sync was burst-delayed far into the future.
    pub fn settle(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) -> Duration {
        self.advance(now, out);
        let mut settled_at = now;
        loop {
            let wedge = self.wedged_at_seq.unwrap_or(u64::MAX);
            let live_pending = self.pending.iter().any(|op| op.seq < wedge);
            if self.in_flight.is_empty() && !live_pending {
                return settled_at;
            }
            let Some(deadline) = self.next_deadline() else {
                return settled_at;
            };
            settled_at = settled_at.max(deadline);
            self.advance(settled_at, out);
        }
    }

    /// One data-plane synchronisation at absolute time `tick`.
    fn sync_tick(&mut self, tick: Duration, out: &mut Vec<BehaviorAction>) {
        self.sync_count += 1;
        self.next_sync_at = tick + self.model.dataplane_sync_period;

        // Select accepted operations the control plane has digested and the
        // wedge has not swallowed.
        let wedge = self.wedged_at_seq.unwrap_or(u64::MAX);
        let mut ready: Vec<PendingOp> = Vec::new();
        let mut remaining: Vec<PendingOp> = Vec::new();
        for op in self.pending.drain(..) {
            if op.ready_at <= tick && op.seq < wedge {
                ready.push(op);
            } else {
                remaining.push(op);
            }
        }
        self.pending = remaining;

        if self.model.barrier_mode == BarrierMode::EarlyReplyReordering {
            // The reordering switch may defer a subset of ready operations
            // to a later synchronisation and applies the rest in an
            // arbitrary order — modifications can overtake each other across
            // barriers.  Both decisions are pure `(seed, cookie)` hashes
            // (the deferral additionally keyed by how often the op was
            // already considered), so the adversary — like every other fault
            // — misbehaves identically on both drivers.
            let mut kept = Vec::new();
            let mut deferred = Vec::new();
            for mut op in ready {
                if self
                    .faults
                    .defers_cookie(op.flow_mod.cookie, op.defer_count)
                {
                    op.defer_count += 1;
                    deferred.push(op);
                } else {
                    kept.push(op);
                }
            }
            kept.sort_by_key(|op| self.faults.reorder_key(op.flow_mod.cookie));
            self.pending.extend(deferred);
            ready = kept;
        } else {
            ready.sort_by_key(|op| op.seq);
        }

        if !ready.is_empty() {
            let mut latency = self.model.dataplane_sync_latency;
            if self.faults.sync_burst_every != 0
                && self
                    .sync_count
                    .is_multiple_of(u64::from(self.faults.sync_burst_every))
            {
                // A delayed sync burst: this batch reaches the TCAM much
                // later than the model's nominal latency.
                latency += self.faults.sync_burst_extra;
                self.counters.sync_bursts += 1;
            }
            let apply_at = tick + latency;
            // Keep the in-flight queue ordered by application time (a burst
            // can overtake a later, non-burst sync otherwise — real TCAM
            // write queues do not reorder, so neither do we).
            let pos = self
                .in_flight
                .iter()
                .position(|&(at, _)| at > apply_at)
                .unwrap_or(self.in_flight.len());
            self.in_flight.insert(pos, (apply_at, ready));
        }
        // Barriers may become answerable when the backlog empties.
        self.flush_satisfied_barriers(tick, out);
    }

    /// Applies the front in-flight batch (due at `at`) to the data plane.
    fn apply_front(&mut self, at: Duration, out: &mut Vec<BehaviorAction>) {
        let Some((_, ops)) = self.in_flight.pop_front() else {
            return;
        };
        for op in ops {
            match self.data.apply(&op.flow_mod, at) {
                Ok(outcome) => {
                    for cookie in outcome.activated {
                        self.truth.events.push(TruthEvent {
                            at,
                            cookie,
                            activated: true,
                        });
                        out.push(BehaviorAction::Activated { at, cookie });
                    }
                    for cookie in outcome.removed {
                        self.truth.events.push(TruthEvent {
                            at,
                            cookie,
                            activated: false,
                        });
                        out.push(BehaviorAction::Deactivated { at, cookie });
                    }
                }
                Err(_) => {
                    // The control plane already accepted the mod; a data
                    // plane failure here would be a capacity mismatch.
                    // Nothing sensible to report beyond dropping it.
                }
            }
        }
        self.flush_satisfied_barriers(at, out);
    }

    /// Handles one control-plane message.  Returns true when the engine
    /// consumed it; everything else (echo, other stats, PacketOut, ...)
    /// returns false and is [`crate::Datapath`]'s to answer.
    pub fn handle_message(
        &mut self,
        now: Duration,
        msg: &OfMessage,
        out: &mut Vec<BehaviorAction>,
    ) -> bool {
        match msg {
            OfMessage::FlowMod { xid, body } => {
                self.on_flow_mod(now, *xid, body.clone(), out);
                true
            }
            OfMessage::BarrierRequest { xid } => {
                self.on_barrier(now, *xid, out);
                true
            }
            OfMessage::StatsRequest {
                xid,
                body: StatsRequest::Flow { match_, .. },
            } => {
                self.on_flow_stats(now, *xid, match_, out);
                true
            }
            _ => false,
        }
    }

    /// Answers a flow-stats request from the control-plane table,
    /// fragmenting the reply when it overflows one message; the stats-loss
    /// fault may swallow the whole reply.
    pub fn on_flow_stats(
        &mut self,
        now: Duration,
        xid: Xid,
        match_: &OfMatch,
        out: &mut Vec<BehaviorAction>,
    ) {
        if self.disconnected {
            return;
        }
        self.counters.flow_stats += 1;
        let done_at = self.consume_cpu(now, Duration::from_micros(100));
        if self.faults.decide(SALT_STATS_DROP, u64::from(xid)) {
            self.counters.stats_replies_lost += 1;
            return;
        }
        let entries: Vec<FlowStatsEntry> = self
            .control
            .entries()
            .filter(|e| match_.covers(&e.match_))
            .map(|e| FlowStatsEntry {
                table_id: 0,
                match_: e.match_,
                duration_sec: now.saturating_sub(e.installed_at).as_secs() as u32,
                duration_nsec: now.saturating_sub(e.installed_at).subsec_nanos(),
                priority: e.priority,
                idle_timeout: e.idle_timeout,
                hard_timeout: e.hard_timeout,
                cookie: e.cookie,
                packet_count: e.packet_count,
                byte_count: e.byte_count,
                actions: e.actions.clone(),
            })
            .collect();
        for message in StatsReply::flow_fragments(xid, entries, MAX_STATS_BODY) {
            out.push(BehaviorAction::Reply {
                at: done_at,
                message,
            });
        }
    }

    /// Handles a flow modification arriving at `now`.
    pub fn on_flow_mod(
        &mut self,
        now: Duration,
        xid: Xid,
        fm: FlowMod,
        out: &mut Vec<BehaviorAction>,
    ) {
        if self.disconnected {
            return;
        }
        let occupancy = self.control.len();
        let done_at = self.consume_cpu(now, self.model.mod_processing_time(occupancy));

        match self.control.apply(&fm, now) {
            Ok(_) => {
                self.counters.flow_mods += 1;
                let seq = self.next_op_seq;
                self.next_op_seq += 1;
                let cookie = fm.cookie;
                if self.wedged_at_seq.is_none() && self.faults.drops_cookie(cookie) {
                    // The wedge: this op and everything behind it never
                    // reaches the data plane (FIFO update queue).
                    self.wedged_at_seq = Some(seq);
                    self.counters.silently_dropped += 1;
                    self.truth.wedged.push(cookie);
                } else if self.wedged_at_seq.is_some() {
                    self.truth.wedged.push(cookie);
                }
                self.pending.push(PendingOp {
                    seq,
                    ready_at: done_at,
                    flow_mod: fm,
                    defer_count: 0,
                });
                self.mods_accepted += 1;
                if self.faults.restart_after_mods == Some(self.mods_accepted) {
                    self.restart(done_at, out);
                }
            }
            Err(err) => {
                self.counters.errors += 1;
                let request = OfMessage::FlowMod { xid, body: fm };
                let code = flow_table_error_code(err);
                out.push(BehaviorAction::Reply {
                    at: done_at,
                    message: request.error_reply(error_type::FLOW_MOD_FAILED, code),
                });
            }
        }
    }

    /// Handles a barrier request arriving at `now`.
    pub fn on_barrier(&mut self, now: Duration, xid: Xid, out: &mut Vec<BehaviorAction>) {
        if self.disconnected {
            return;
        }
        self.counters.barriers += 1;
        // Processing the barrier itself is cheap but still serialised behind
        // earlier control-plane work.
        let control_done = self.consume_cpu(now, Duration::from_micros(50));
        match self.model.barrier_mode {
            BarrierMode::EarlyReply | BarrierMode::EarlyReplyReordering => {
                // The buggy behaviour: reply once the *control plane* has
                // digested earlier commands, regardless of the data plane.
                self.emit_barrier_reply(control_done, xid, out);
            }
            BarrierMode::Faithful => {
                self.pending_barriers.push(PendingBarrier {
                    xid,
                    threshold_seq: self.next_op_seq,
                    earliest_reply: control_done,
                });
                // If nothing is outstanding the reply can go out right away.
                self.flush_satisfied_barriers(now, out);
            }
        }
    }

    /// Emits a barrier reply through the ack-loss / ack-duplication faults.
    fn emit_barrier_reply(&mut self, at: Duration, xid: Xid, out: &mut Vec<BehaviorAction>) {
        if self.faults.decide(SALT_ACK_LOSS, u64::from(xid)) {
            self.counters.replies_lost += 1;
            return;
        }
        out.push(BehaviorAction::Reply {
            at,
            message: OfMessage::BarrierReply { xid },
        });
        if self.faults.decide(SALT_ACK_DUP, u64::from(xid)) {
            self.counters.replies_duplicated += 1;
            out.push(BehaviorAction::Reply {
                at,
                message: OfMessage::BarrierReply { xid },
            });
        }
    }

    fn flush_satisfied_barriers(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) {
        if self.pending_barriers.is_empty() {
            return;
        }
        let min_outstanding = self
            .pending
            .iter()
            .map(|op| op.seq)
            .chain(
                self.in_flight
                    .iter()
                    .flat_map(|(_, ops)| ops.iter().map(|op| op.seq)),
            )
            .min();
        let barriers = std::mem::take(&mut self.pending_barriers);
        for b in barriers {
            let satisfied = match min_outstanding {
                None => true,
                Some(min_seq) => min_seq >= b.threshold_seq,
            };
            if satisfied {
                self.emit_barrier_reply(b.earliest_reply.max(now), b.xid, out);
            } else {
                self.pending_barriers.push(b);
            }
        }
    }

    /// The restart fault: wipe both tables, discard pending work, and ask
    /// the driver to tear the control channel down (the explicit
    /// [`BehaviorAction::Restarted`] event).
    fn restart(&mut self, at: Duration, out: &mut Vec<BehaviorAction>) {
        self.counters.restarts += 1;
        for cookie in self.wipe_tables() {
            self.truth.events.push(TruthEvent {
                at,
                cookie,
                activated: false,
            });
            out.push(BehaviorAction::Deactivated { at, cookie });
        }
        self.pending.clear();
        self.in_flight.clear();
        self.pending_barriers.clear();
        self.wedged_at_seq = None;
        self.disconnected = true;
        out.push(BehaviorAction::Restarted { at });
    }

    /// Reattaches a restarted switch at `now`: the control plane accepts
    /// messages again, the data-plane synchronisation clock restarts from
    /// the reboot instant, and the switch replays the OpenFlow handshake by
    /// emitting its side's `Hello` (drivers deliver it on the fresh control
    /// channel; the peer answers with its own `Hello`).  A no-op unless the
    /// engine is disconnected.
    pub fn reattach(&mut self, now: Duration, out: &mut Vec<BehaviorAction>) {
        if !self.disconnected {
            return;
        }
        self.disconnected = false;
        self.counters.reattaches += 1;
        self.busy_until = self.busy_until.max(now);
        self.next_sync_at = now + self.model.dataplane_sync_period;
        out.push(BehaviorAction::Reply {
            at: now,
            message: OfMessage::Hello { xid: 0 },
        });
    }

    fn wipe_tables(&mut self) -> Vec<u64> {
        let cookies: Vec<u64> = self.data.entries().map(|e| e.cookie).collect();
        let capacity = self.model.table_capacity;
        self.control = FlowTable::new(capacity);
        self.data = FlowTable::new(capacity);
        cookies
    }

    /// Data-plane lookup for one packet at time `now`: finds the matching
    /// rule (lagging data-plane view), accounts the hit — counters plus the
    /// per-rule last-hit time that drives idle timeouts — and returns the
    /// rewritten header plus output ports for the driver to interpret.
    pub fn classify_packet(
        &mut self,
        now: Duration,
        header: &PacketHeader,
        in_port: PortNo,
        size: usize,
    ) -> PacketVerdict {
        let hit = self
            .data
            .lookup(header, in_port)
            .map(|e| (e.match_, e.priority, e.actions.clone()));
        match hit {
            None => PacketVerdict {
                rewritten: *header,
                outputs: Vec::new(),
                matched: false,
            },
            Some((match_, priority, actions)) => {
                self.data.account(&match_, priority, size, now);
                // Keep the control-plane view's counters and idle clock in
                // step: flow-stats replies read the control table, and a rule
                // the data plane keeps hitting must not idle out of the
                // control plane.
                self.control.account(&match_, priority, size, now);
                let (rewritten, outputs) = Action::apply_list(&actions, header);
                PacketVerdict {
                    rewritten,
                    outputs,
                    matched: true,
                }
            }
        }
    }
}

fn flow_table_error_code(err: FlowTableError) -> u16 {
    err.error_code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::OfMatch;
    use std::net::Ipv4Addr;

    fn fm(i: u8, cookie: u64) -> FlowMod {
        FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
            100,
            vec![Action::output(2)],
        )
        .with_cookie(cookie)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Runs `b.advance` far enough in the future that everything settles.
    fn settle(b: &mut Behavior, out: &mut Vec<BehaviorAction>) {
        b.advance(Duration::from_secs(600), out);
    }

    #[test]
    fn early_reply_answers_before_data_plane_activation() {
        let mut b = Behavior::new(SwitchModel::hp5406zl(), FaultPlan::none());
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 11), &mut out);
        b.on_barrier(ms(1), 99, &mut out);
        let reply_at = out
            .iter()
            .find_map(|a| match a {
                BehaviorAction::Reply {
                    at,
                    message: OfMessage::BarrierReply { xid: 99 },
                } => Some(*at),
                _ => None,
            })
            .expect("early barrier reply");
        settle(&mut b, &mut out);
        let act_at = b.ground_truth().first_activation(11).expect("activated");
        assert!(
            reply_at < act_at,
            "buggy barrier ({reply_at:?}) must precede activation ({act_at:?})"
        );
        // The published 100-300 ms band.
        assert!(act_at - reply_at >= ms(50));
        assert!(act_at - reply_at <= ms(310));
        // And the confirmation classifier calls it out.
        assert_eq!(
            b.ground_truth().classify(11, reply_at),
            ConfirmVerdict::FalseAck
        );
        assert_eq!(
            b.ground_truth().classify(11, act_at),
            ConfirmVerdict::TrueAck
        );
    }

    #[test]
    fn faithful_barrier_waits_for_data_plane() {
        let mut b = Behavior::new(SwitchModel::faithful(), FaultPlan::none());
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 11), &mut out);
        b.on_barrier(ms(1), 99, &mut out);
        settle(&mut b, &mut out);
        let reply_at = out
            .iter()
            .find_map(|a| match a {
                BehaviorAction::Reply {
                    at,
                    message: OfMessage::BarrierReply { xid: 99 },
                } => Some(*at),
                _ => None,
            })
            .expect("faithful barrier reply");
        let act_at = b.ground_truth().first_activation(11).unwrap();
        assert!(reply_at >= act_at, "{reply_at:?} vs {act_at:?}");
        assert_eq!(
            b.ground_truth().classify(11, reply_at),
            ConfirmVerdict::TrueAck
        );
    }

    #[test]
    fn data_plane_lags_then_converges() {
        let mut b = Behavior::new(SwitchModel::hp5406zl(), FaultPlan::none());
        let mut out = Vec::new();
        for i in 0..50u64 {
            b.on_flow_mod(ms(1), i as Xid, fm(i as u8, 100 + i), &mut out);
        }
        b.advance(ms(150), &mut out);
        assert_eq!(b.control_table().len(), 50);
        assert!(b.data_table().len() < 50, "data plane must lag");
        settle(&mut b, &mut out);
        assert_eq!(b.data_table().len(), 50);
        assert_eq!(b.dataplane_backlog(), 0);
        assert_eq!(b.counters().flow_mods, 50);
    }

    #[test]
    fn silent_drop_wedges_the_update_queue_deterministically() {
        let faults = FaultPlan::seeded(7).with_silent_drops(4);
        // Find the first wedging cookie for this seed.
        let wedge = (0..64u64).find(|&c| faults.drops_cookie(c)).unwrap();
        let mut b = Behavior::new(SwitchModel::hp5406zl(), faults.clone());
        let mut out = Vec::new();
        for c in 0..=wedge + 3 {
            b.on_flow_mod(ms(1), c as Xid, fm(c as u8, c), &mut out);
        }
        settle(&mut b, &mut out);
        // Everything before the wedge activated, nothing at or after it.
        for c in 0..wedge {
            assert!(
                b.ground_truth().first_activation(c).is_some(),
                "cookie {c} (before the wedge at {wedge}) must activate"
            );
        }
        for c in wedge..=wedge + 3 {
            assert!(b.ground_truth().first_activation(c).is_none());
            assert!(b.ground_truth().wedged.contains(&c));
        }
        // Control plane is none the wiser.
        assert_eq!(b.control_table().len() as u64, wedge + 4);
        assert_eq!(b.counters().silently_dropped, 1);

        // A second instance with the same plan wedges identically.
        let mut b2 = Behavior::new(SwitchModel::hp5406zl(), faults);
        let mut out2 = Vec::new();
        // Different arrival timing, same verdicts.
        for c in 0..=wedge + 3 {
            b2.on_flow_mod(ms(5 + c), c as Xid, fm(c as u8, c), &mut out2);
        }
        settle(&mut b2, &mut out2);
        assert_eq!(b.ground_truth().wedged, b2.ground_truth().wedged);
    }

    #[test]
    fn sync_bursts_delay_activation_beyond_the_nominal_worst_case() {
        let model = SwitchModel::hp5406zl();
        let nominal = model.worst_case_dataplane_lag();
        let faults = FaultPlan::seeded(3).with_sync_bursts(1, ms(800));
        let mut b = Behavior::new(model, faults);
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 42), &mut out);
        settle(&mut b, &mut out);
        let act = b.ground_truth().first_activation(42).unwrap();
        assert!(
            act > ms(1) + nominal,
            "burst-delayed activation ({act:?}) must exceed the nominal bound ({nominal:?})"
        );
        assert!(b.counters().sync_bursts >= 1);
    }

    #[test]
    fn ack_loss_and_duplication_are_per_xid_deterministic() {
        let faults = FaultPlan::seeded(11)
            .with_ack_loss(3)
            .with_ack_duplication(3);
        let mut b = Behavior::new(SwitchModel::hp5406zl(), faults.clone());
        let mut out = Vec::new();
        for xid in 0..60u32 {
            b.on_barrier(ms(1), xid, &mut out);
        }
        let replies: Vec<Xid> = out
            .iter()
            .filter_map(|a| match a {
                BehaviorAction::Reply {
                    message: OfMessage::BarrierReply { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert!(b.counters().replies_lost > 0, "some replies must be lost");
        assert!(
            b.counters().replies_duplicated > 0,
            "some replies must be duplicated"
        );
        assert_eq!(
            replies.len() as u64,
            60 - b.counters().replies_lost + b.counters().replies_duplicated
        );
        // Decisions depend only on (seed, xid): a fresh instance agrees.
        let mut b2 = Behavior::new(SwitchModel::hp5406zl(), faults);
        let mut out2 = Vec::new();
        for xid in (0..60u32).rev() {
            b2.on_barrier(ms(2), xid, &mut out2);
        }
        assert_eq!(b.counters().replies_lost, b2.counters().replies_lost);
        assert_eq!(
            b.counters().replies_duplicated,
            b2.counters().replies_duplicated
        );
    }

    /// `settle` must drain burst-delayed batches too: the apply time can
    /// exceed any fixed multiple of the nominal worst-case lag.
    #[test]
    fn settle_drains_burst_delayed_batches() {
        let model = SwitchModel::hp5406zl();
        let faults = FaultPlan::seeded(9).with_sync_bursts(1, Duration::from_secs(5));
        let mut b = Behavior::new(model, faults);
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 7), &mut out);
        let settled_at = b.settle(ms(2), &mut out);
        assert_eq!(b.data_table().len(), 1, "burst batch applied");
        assert_eq!(b.dataplane_backlog(), 0);
        assert!(settled_at >= Duration::from_secs(5));
        assert!(b.ground_truth().first_activation(7).is_some());

        // Wedged work does not keep settle spinning.
        let faults = FaultPlan::seeded(7).with_silent_drops(1); // wedge everything
        let mut b = Behavior::new(SwitchModel::hp5406zl(), faults);
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 8), &mut out);
        b.settle(ms(2), &mut out);
        assert_eq!(b.data_table().len(), 0);
        assert!(b.ground_truth().wedged.contains(&8));
    }

    #[test]
    fn restart_wipes_tables_and_disconnects() {
        let faults = FaultPlan::seeded(1).with_restart_after(3);
        let mut b = Behavior::new(SwitchModel::faithful(), faults);
        let mut out = Vec::new();
        for c in 0..2u64 {
            b.on_flow_mod(ms(1), c as Xid, fm(c as u8, c), &mut out);
        }
        b.advance(ms(500), &mut out);
        assert_eq!(b.data_table().len(), 2);
        b.on_flow_mod(ms(501), 2, fm(2, 2), &mut out);
        assert!(b.disconnected());
        assert!(out
            .iter()
            .any(|a| matches!(a, BehaviorAction::Restarted { .. })));
        assert_eq!(b.control_table().len(), 0);
        assert_eq!(b.data_table().len(), 0);
        assert_eq!(b.counters().restarts, 1);
        // The wipe is visible in the ground truth as deactivations.
        assert!(!b.ground_truth().active_at(0, ms(600)));
        // Further messages are ignored.
        let before = out.len();
        b.on_flow_mod(ms(700), 9, fm(9, 9), &mut out);
        b.on_barrier(ms(700), 10, &mut out);
        assert_eq!(out.len(), before);
    }

    /// Reattach replays the handshake (switch-side Hello), re-opens the
    /// control plane and restarts the sync clock; work accepted after the
    /// reattach converges into the data plane like on a fresh switch.
    #[test]
    fn reattach_replays_handshake_and_reconverges() {
        let faults = FaultPlan::seeded(1).with_restart_after(1);
        let mut b = Behavior::new(SwitchModel::faithful(), faults);
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 1), &mut out);
        assert!(b.disconnected());

        // Reattach is idempotent on a connected engine.
        out.clear();
        b.reattach(ms(900), &mut out);
        let hello = out
            .iter()
            .find_map(|a| match a {
                BehaviorAction::Reply {
                    at,
                    message: OfMessage::Hello { .. },
                } => Some(*at),
                _ => None,
            })
            .expect("reattach must replay the switch-side Hello");
        assert_eq!(hello, ms(900));
        assert!(!b.disconnected());
        assert_eq!(b.counters().reattaches, 1);
        let before = out.len();
        b.reattach(ms(901), &mut out);
        assert_eq!(
            out.len(),
            before,
            "reattach on a connected engine is a no-op"
        );
        assert_eq!(b.counters().reattaches, 1);

        // The control plane accepts modifications again and they reach the
        // data plane on the restarted sync clock.
        b.on_flow_mod(ms(910), 2, fm(2, 2), &mut out);
        b.settle(ms(911), &mut out);
        assert_eq!(b.control_table().len(), 1);
        assert_eq!(b.data_table().len(), 1);
        let act = b.ground_truth().first_activation(2).expect("reconverged");
        assert!(act >= ms(900), "activation must postdate the reattach");
        // Only one restart fires even though the mod counter keeps running.
        assert_eq!(b.counters().restarts, 1);
        assert!(!b.disconnected());
    }

    /// Idle timeouts fire from the last data-plane hit; hard timeouts from
    /// installation — whichever comes first wins, and the expiry is visible
    /// as a ground-truth deactivation at the exact deadline.
    #[test]
    fn idle_timeout_expires_unhit_rules_through_the_engine() {
        let mut b = Behavior::new(SwitchModel::faithful(), FaultPlan::none());
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 7).with_idle_timeout(2), &mut out);
        b.advance(ms(100), &mut out);
        assert_eq!(b.data_table().len(), 1);
        let deadline = b.next_deadline().expect("idle deadline armed");
        assert!(deadline >= Duration::from_secs(2));

        // A hit at t = 1.5 s pushes the idle deadline out.
        let header = PacketHeader::ipv4_udp(
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 1, 0, 1),
            1,
            2,
        );
        let verdict = b.classify_packet(Duration::from_millis(1500), &header, 1, 64);
        assert!(verdict.matched);
        b.advance(Duration::from_millis(3400), &mut out);
        assert_eq!(b.data_table().len(), 1, "hit must postpone the idle expiry");
        b.advance(Duration::from_secs(4), &mut out);
        assert_eq!(b.data_table().len(), 0);
        assert_eq!(b.control_table().len(), 0, "control view ages too");
        assert!(b.counters().rules_expired >= 1);
        let removal = out
            .iter()
            .find_map(|a| match a {
                BehaviorAction::Deactivated { at, cookie: 7 } => Some(*at),
                _ => None,
            })
            .expect("expiry is a visible deactivation");
        assert_eq!(removal, Duration::from_millis(3500), "last hit + 2 s");
        assert!(!b.ground_truth().active_at(7, Duration::from_secs(4)));

        // Idle-vs-hard precedence inside the engine: hard 1 s beats idle 5 s.
        let mut b = Behavior::new(SwitchModel::faithful(), FaultPlan::none());
        let mut out = Vec::new();
        b.on_flow_mod(
            ms(1),
            1,
            fm(2, 8).with_idle_timeout(5).with_hard_timeout(1),
            &mut out,
        );
        b.advance(Duration::from_secs(3), &mut out);
        let removal = out
            .iter()
            .find_map(|a| match a {
                BehaviorAction::Deactivated { at, cookie: 8 } => Some(*at),
                _ => None,
            })
            .expect("hard expiry fires");
        assert!(
            removal <= Duration::from_millis(1005),
            "hard wins: {removal:?}"
        );
    }

    #[test]
    fn reordering_applies_out_of_order_but_deterministically_per_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let mut b = Behavior::new(SwitchModel::reordering(), FaultPlan::seeded(seed));
            let mut out = Vec::new();
            for c in 0..20u64 {
                b.on_flow_mod(ms(1), c as Xid, fm(c as u8, c), &mut out);
            }
            settle(&mut b, &mut out);
            out.iter()
                .filter_map(|a| match a {
                    BehaviorAction::Activated { cookie, .. } => Some(*cookie),
                    _ => None,
                })
                .collect()
        };
        let a = run(5);
        let b = run(5);
        let c = run(6);
        assert_eq!(a, b, "same seed, same order");
        assert_eq!(a.len(), 20);
        assert!(
            a != (0..20).collect::<Vec<_>>() || c != (0..20).collect::<Vec<_>>(),
            "at least one seed must visibly reorder"
        );
    }

    #[test]
    fn classify_packet_matches_and_rewrites() {
        let mut b = Behavior::new(SwitchModel::faithful(), FaultPlan::none());
        b.preinstall(&fm(1, 5));
        let header = PacketHeader::ipv4_udp(
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 1, 0, 1),
            1,
            2,
        );
        let verdict = b.classify_packet(Duration::ZERO, &header, 1, 64);
        assert!(verdict.matched);
        assert_eq!(verdict.outputs, vec![2]);
        let miss = b.classify_packet(
            Duration::ZERO,
            &PacketHeader::ipv4_udp(
                openflow::MacAddr::from_id(1),
                openflow::MacAddr::from_id(2),
                Ipv4Addr::new(9, 9, 9, 9),
                Ipv4Addr::new(9, 9, 9, 8),
                1,
                2,
            ),
            1,
            64,
        );
        assert!(!miss.matched);
        assert!(miss.outputs.is_empty());
    }

    #[test]
    fn table_full_produces_error_reply() {
        let mut model = SwitchModel::faithful();
        model.table_capacity = 1;
        let mut b = Behavior::new(model, FaultPlan::none());
        let mut out = Vec::new();
        b.on_flow_mod(ms(1), 1, fm(1, 1), &mut out);
        b.on_flow_mod(ms(2), 2, fm(2, 2), &mut out);
        let errors: Vec<&[u8]> = (out.iter())
            .filter_map(|a| match a {
                BehaviorAction::Reply {
                    message: OfMessage::Error { xid: 2, body },
                    ..
                } => Some(&body.data[..]),
                _ => None,
            })
            .collect();
        // The error echoes the refused request's first 64 bytes.
        let request = OfMessage::FlowMod {
            xid: 2,
            body: fm(2, 2),
        };
        assert_eq!(errors, [&request.encode_to_vec().unwrap()[..64]]);
        assert_eq!(b.counters().errors, 1);
    }
}
