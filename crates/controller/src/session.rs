//! The sans-IO consistent-update engine: one plan-execution core, any driver.
//!
//! [`UpdateSession`] is a pure state machine, the controller-side sibling of
//! `rum::RumEngine`.  It owns everything that makes a network update
//! *consistent* — dependency gating, the outstanding window K, the three
//! acknowledgment modes, barrier-cover bookkeeping, per-modification send and
//! confirm timestamps, and the failure policy (per-modification timeout →
//! bounded retries → abort with rollback) — but performs no I/O and names no
//! simulator or socket types in its signatures.  A *driver* feeds it typed
//! [`SessionInput`]s together with the current time and executes the typed
//! [`SessionEffect`]s it returns.
//!
//! The workspace's transports reach it through [`crate::SessionMachine`]
//! (the session behind the shared [`crate::Machine`] boundary) and run the
//! **same** session:
//!
//! * [`crate::Controller`] — a node for the deterministic discrete-event
//!   simulator (`simnet`); all paper experiments run this way.
//! * `rum_tcp::TcpUpdateController` — a socket listener that speaks OpenFlow
//!   1.0 over real TCP connections, completing the paper's prototype chain
//!   (controller → RUM proxy → switches) end to end.
//!
//! Switch connections are identified by the deployment-agnostic [`ConnId`]
//! newtype (whose index equals the plan's `SwitchRef`), and time is plain
//! [`std::time::Duration`] since an arbitrary driver epoch.
//!
//! ```
//! use controller::{AckMode, SessionEffect, SessionInput, UpdatePlan, UpdateSession};
//! use std::time::Duration;
//!
//! let session = UpdateSession::new(UpdatePlan::new(), AckMode::NoWait, 8);
//! let mut session = session;
//! let effects = session.handle(Duration::ZERO, SessionInput::Started);
//! // An empty plan completes the moment it starts.
//! assert!(matches!(effects.last(), Some(SessionEffect::Completed { .. })));
//! ```

use crate::backoff::BackoffPolicy;
use crate::plan::UpdatePlan;
use openflow::messages::FlowModCommand;
use openflow::types::{take_xid_in, CONTROLLER_BARRIER_XID_BASE, RESYNC_READBACK_XID_BASE};
use openflow::{OfMessage, Xid};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{AtomicHistogram, Counter, Gauge, Registry};

/// Telemetry handles the session publishes into when metrics are attached
/// (all under `session.*`).  `None` costs nothing on the hot path.
#[derive(Debug)]
struct SessionMetrics {
    mods_sent: Arc<Counter>,
    mods_confirmed: Arc<Counter>,
    mods_failed: Arc<Counter>,
    retries: Arc<Counter>,
    rollbacks_sent: Arc<Counter>,
    packet_ins: Arc<Counter>,
    stray_acks: Arc<Counter>,
    in_flight: Arc<Gauge>,
    confirm_latency_us: Arc<AtomicHistogram>,
}

impl SessionMetrics {
    fn new(registry: &Registry) -> Self {
        SessionMetrics {
            mods_sent: registry.counter("session.mods_sent"),
            mods_confirmed: registry.counter("session.mods_confirmed"),
            mods_failed: registry.counter("session.mods_failed"),
            retries: registry.counter("session.retries"),
            rollbacks_sent: registry.counter("session.rollbacks_sent"),
            packet_ins: registry.counter("session.packet_ins"),
            stray_acks: registry.counter("session.stray_acks"),
            in_flight: registry.gauge("session.in_flight"),
            confirm_latency_us: registry.histogram("session.confirm_latency_us"),
        }
    }
}

/// How the session decides that a modification has been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Fire-and-forget: every modification is considered confirmed the
    /// moment it is sent.  No consistency guarantee — this is the "no wait"
    /// lower bound of Figure 7.
    NoWait,
    /// Send an OpenFlow barrier after every `batch` modifications (or when
    /// nothing else can be sent) and treat the corresponding reply as the
    /// confirmation for everything sent before it.  This is what every
    /// consistent-update system in the literature does; it is only correct
    /// if barriers are honest (or made honest by RUM).
    Barriers {
        /// Modifications per barrier.
        batch: usize,
    },
    /// Wait for RUM's fine-grained positive acknowledgment (an error message
    /// with the reserved RUM code echoing the modification's xid).  This is
    /// the "RUM-aware controller" mode from Section 2 of the paper.
    RumAcks,
}

/// Identifies one switch connection from the session's point of view.
///
/// The index equals the plan's [`crate::plan::SwitchRef`]; drivers map it to
/// whatever carries the connection (a simulator node, a TCP socket, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(usize);

impl ConnId {
    /// Stands in for a sender that is not one of the deployment's switch
    /// connections (the simulator delivers control messages from any node).
    /// Acknowledgments correlate by cookie, so such traffic still reaches
    /// the session; no driver resolves this id, so replies to it are dropped.
    pub const UNMAPPED: ConnId = ConnId(usize::MAX);

    /// The `index`-th switch connection.
    pub const fn new(index: usize) -> Self {
        ConnId(index)
    }

    /// The dense index within the deployment (equals the plan target).
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// An opaque handle to a timer the session asked its driver to arm.
///
/// Drivers must hand the token back unmodified in
/// [`SessionInput::TimerFired`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionTimerToken(u64);

impl SessionTimerToken {
    /// The raw value, for drivers that serialise tokens (e.g. into a
    /// simulator timer slot).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a token from [`SessionTimerToken::raw`].
    pub const fn from_raw(raw: u64) -> Self {
        SessionTimerToken(raw)
    }
}

/// Everything a driver can feed into the session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionInput {
    /// The update should begin (all switch connections are up).
    Started,
    /// The switch behind `conn` sent `message`.
    FromSwitch {
        /// The connection that carried the message.
        conn: ConnId,
        /// The decoded message.
        message: OfMessage,
    },
    /// A timer previously requested via [`SessionEffect::ArmTimer`] expired.
    TimerFired {
        /// The token from the arming effect.
        token: SessionTimerToken,
    },
    /// The clock advanced with nothing else to report.  Drivers without
    /// fine-grained timer callbacks may tick periodically; the session uses
    /// ticks to re-examine deferred dispatch work.
    Tick,
}

/// Why an update was aborted, and what the session did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortReport {
    /// The modification whose retries were exhausted.
    pub failed: u64,
    /// Modifications that were never sent because they (transitively)
    /// depend on the failed one.
    pub cancelled: Vec<u64>,
    /// Already-sent modifications the session rolled back by issuing the
    /// inverse flow-mod (the failed modification itself plus its sent
    /// dependency ancestors — only `Add` commands have a derivable inverse).
    pub rolled_back: Vec<u64>,
}

/// Everything the session can ask a driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEffect {
    /// Send `message` on switch connection `conn`.
    Send {
        /// The destination connection.
        conn: ConnId,
        /// The message to send.
        message: OfMessage,
    },
    /// Arm a timer: feed [`SessionInput::TimerFired`] with `token` back
    /// after `delay`.
    ArmTimer {
        /// How long to wait.
        delay: Duration,
        /// Token identifying the timer.
        token: SessionTimerToken,
    },
    /// The modification with this id is now confirmed.  Purely
    /// observational — drivers use it for tracing; no reply is required.
    Confirmed {
        /// The confirmed modification's id.
        id: u64,
    },
    /// The switch rejected the modification with an OpenFlow error.  Purely
    /// observational — the id is also recorded in
    /// [`UpdateSession::failed`].
    Rejected {
        /// The rejected modification's id.
        id: u64,
        /// The OpenFlow error type.
        err_type: u16,
        /// The OpenFlow error code.
        code: u16,
    },
    /// Every modification in the plan is confirmed; the update is done.
    Completed {
        /// Time (driver epoch) of the final confirmation.
        at: Duration,
    },
    /// The failure policy gave up on a modification; the update is over.
    Aborted {
        /// What failed, what was cancelled, what was rolled back.
        report: AbortReport,
    },
}

/// What the session does when a sent modification is not confirmed in time.
///
/// The policy is disabled by default (no timeout is armed), which preserves
/// the classic semantics: a lost acknowledgment stalls the update forever.
/// Enabling it arms a timer per sent modification; on expiry the
/// modification is re-sent up to `max_retries` times, after which the whole
/// update is aborted — dependents of the failed modification are cancelled
/// and already-applied ancestors are rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePolicy {
    /// Retry schedule: attempt 0 waits exactly `backoff.base`, later attempts
    /// grow exponentially with deterministic per-mod jitter, clamped to
    /// `backoff.cap`.  `None` disables the policy.
    pub backoff: Option<BackoffPolicy>,
    /// How many times a timed-out modification is re-sent before the update
    /// is aborted.
    pub max_retries: u32,
}

impl FailurePolicy {
    /// How far past the base timeout the exponential schedule is allowed to
    /// grow: [`FailurePolicy::retry`] caps at `timeout * RETRY_CAP_FACTOR`.
    pub const RETRY_CAP_FACTOR: u32 = 8;

    /// The default: never time out (identical to the pre-policy behaviour).
    pub const fn disabled() -> Self {
        FailurePolicy {
            backoff: None,
            max_retries: 0,
        }
    }

    /// Retry with bounded exponential backoff starting at `timeout` (the
    /// first retry fires after exactly `timeout`; later retries decay apart
    /// with per-mod jitter, never exceeding `timeout * `
    /// [`FailurePolicy::RETRY_CAP_FACTOR`]), at most `max_retries` times,
    /// then abort.
    pub fn retry(timeout: Duration, max_retries: u32) -> Self {
        FailurePolicy {
            backoff: Some(BackoffPolicy::new(
                timeout,
                timeout.saturating_mul(Self::RETRY_CAP_FACTOR),
            )),
            max_retries,
        }
    }
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy::disabled()
    }
}

/// The terminal state of a finished session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// Every modification confirmed.
    Completed {
        /// Time (driver epoch) of the final confirmation.
        at: Duration,
    },
    /// The failure policy aborted the update.
    Aborted {
        /// What failed, what was cancelled, what was rolled back.
        report: AbortReport,
    },
}

/// The deployment-agnostic consistent-update core: dependency ordering, the
/// outstanding window, acknowledgment modes, barrier covers, timestamps and
/// the failure policy behind a pure input → effects interface.
#[derive(Debug)]
pub struct UpdateSession {
    plan: UpdatePlan,
    ack_mode: AckMode,
    /// Maximum number of sent-but-unconfirmed modifications (the paper's K).
    window: usize,
    failure_policy: FailurePolicy,
    /// Whether an abort sends inverse mods for what was already applied.
    /// Repair (resync delta) sessions disable this: their mods restore the
    /// declared desired state, so the inverse of a repair is itself damage —
    /// a late-landing repair is corrected by the next readback instead.
    rollback_on_abort: bool,

    started: bool,
    sent: HashSet<u64>,
    confirmed: HashSet<u64>,
    cancelled: HashSet<u64>,
    /// Ids whose dependencies are all confirmed and which have not been
    /// sent or cancelled, in id order (the dispatch order).  Maintained
    /// incrementally by confirmations, so dispatch never rescans the plan.
    ready: BTreeSet<u64>,
    /// Unconfirmed (distinct) dependency count per not-yet-ready id.
    remaining_deps: HashMap<u64, usize>,
    /// Dependency id → ids waiting on it.
    dependents: HashMap<u64, Vec<u64>>,
    send_times: HashMap<u64, Duration>,
    confirmation_times: HashMap<u64, Duration>,
    attempts: HashMap<u64, u32>,
    failed: Vec<u64>,
    confirm_log: Vec<u64>,
    /// Armed per-modification timeouts: token -> (mod id, attempt).  Ids are
    /// arbitrary u64 cookies and retries are unbounded, so tokens are plain
    /// sequence numbers rather than bit-packed encodings.
    armed_timeouts: HashMap<u64, (u64, u32)>,
    next_timer_token: u64,
    /// Outstanding barriers: barrier xid -> ids it will confirm.
    barrier_covers: HashMap<Xid, Vec<u64>>,
    /// Ids sent since the last barrier (barrier mode only).
    since_last_barrier: Vec<u64>,
    next_barrier_xid: Xid,
    packet_ins_received: u64,
    /// Acknowledgments that matched nothing this session sent: RUM acks for
    /// unsent ids, barrier replies for unknown xids.  Rejected rather than
    /// misattributed — a nonzero count while live means another session's
    /// traffic (or a confused switch) is leaking onto this connection.
    stray_acks: u64,
    outcome: Option<SessionOutcome>,
    metrics: Option<SessionMetrics>,
}

impl UpdateSession {
    /// Creates a session executing `plan` with the given acknowledgment mode
    /// and window.  The failure policy starts [`FailurePolicy::disabled`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — nothing could ever be sent.
    pub fn new(plan: UpdatePlan, ack_mode: AckMode, window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        // Seed the incremental dispatch queue: dependency counts (distinct
        // deps only) and the reverse edges confirmations walk.
        let mut ready = BTreeSet::new();
        let mut remaining_deps = HashMap::new();
        let mut dependents: HashMap<u64, Vec<u64>> = HashMap::new();
        for m in plan.mods() {
            let distinct: HashSet<u64> = m.deps.iter().copied().collect();
            if distinct.is_empty() {
                ready.insert(m.id);
            } else {
                remaining_deps.insert(m.id, distinct.len());
                for d in distinct {
                    dependents.entry(d).or_default().push(m.id);
                }
            }
        }
        UpdateSession {
            plan,
            ack_mode,
            window,
            failure_policy: FailurePolicy::disabled(),
            rollback_on_abort: true,
            started: false,
            sent: HashSet::new(),
            confirmed: HashSet::new(),
            cancelled: HashSet::new(),
            ready,
            remaining_deps,
            dependents,
            send_times: HashMap::new(),
            confirmation_times: HashMap::new(),
            attempts: HashMap::new(),
            failed: Vec::new(),
            confirm_log: Vec::new(),
            armed_timeouts: HashMap::new(),
            next_timer_token: 0,
            barrier_covers: HashMap::new(),
            since_last_barrier: Vec::new(),
            next_barrier_xid: CONTROLLER_BARRIER_XID_BASE,
            packet_ins_received: 0,
            stray_acks: 0,
            outcome: None,
            metrics: None,
        }
    }

    /// Sets the failure policy (timeout → retries → abort).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure_policy = policy;
    }

    /// Controls whether an abort sends inverse modifications
    /// for the failed mod and its sent ancestors (the default).  Disable for
    /// repair sessions whose mods *are* the desired state: rolling back a
    /// repair re-creates the damage it fixed, while an over-applied repair is
    /// harmless — the next reconciliation readback observes and corrects it.
    pub fn set_rollback_on_abort(&mut self, enabled: bool) {
        self.rollback_on_abort = enabled;
    }

    /// Publishes session progress into `registry` under `session.*`:
    /// mods sent/confirmed/failed, retries, rollbacks, PacketIns, the
    /// in-flight gauge and the send-to-confirm latency histogram.  Attach
    /// before the session starts so no event is missed.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(SessionMetrics::new(registry));
    }

    /// Mirrors the in-flight window into the gauge, when metrics are on.
    fn record_in_flight(&self) {
        if let Some(m) = &self.metrics {
            m.in_flight.set(self.in_flight() as i64);
        }
    }

    /// The update plan.
    pub fn plan(&self) -> &UpdatePlan {
        &self.plan
    }

    /// The acknowledgment mode in use.
    pub fn ack_mode(&self) -> AckMode {
        self.ack_mode
    }

    /// The outstanding window K.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of confirmed modifications.
    pub fn confirmed_count(&self) -> usize {
        self.confirmed.len()
    }

    /// Number of sent modifications.
    pub fn sent_count(&self) -> usize {
        self.sent.len()
    }

    /// Sent-but-unconfirmed modifications currently in flight.
    pub fn in_flight(&self) -> usize {
        // Every confirmed id was sent first (confirmation is gated on
        // `sent` at every call site), so the difference of the counts is the
        // intersection-free O(1) form of |sent \ confirmed|.
        debug_assert!(self.confirmed.iter().all(|id| self.sent.contains(id)));
        self.sent.len() - self.confirmed.len()
    }

    /// Modifications that failed: rejected by the switch, or timed out with
    /// retries exhausted.
    pub fn failed(&self) -> &[u64] {
        &self.failed
    }

    /// True once every modification in the plan is confirmed.
    pub fn is_complete(&self) -> bool {
        self.confirmed.len() == self.plan.len()
    }

    /// When the last modification was confirmed, if the update finished.
    pub fn completed_at(&self) -> Option<Duration> {
        match self.outcome {
            Some(SessionOutcome::Completed { at }) => Some(at),
            _ => None,
        }
    }

    /// The terminal outcome, once the session has one.
    pub fn outcome(&self) -> Option<&SessionOutcome> {
        self.outcome.as_ref()
    }

    /// Confirmation time per modification id (driver-epoch durations).
    pub fn confirmation_times(&self) -> &HashMap<u64, Duration> {
        &self.confirmation_times
    }

    /// Send time per modification id (driver-epoch durations).
    pub fn send_times(&self) -> &HashMap<u64, Duration> {
        &self.send_times
    }

    /// Every confirmation the session has recorded, in order.
    pub fn confirmed_order(&self) -> &[u64] {
        &self.confirm_log
    }

    /// PacketIn messages received (e.g. probes leaking to a non-RUM
    /// controller, or data packets punted by a switch).
    pub fn packet_ins_received(&self) -> u64 {
        self.packet_ins_received
    }

    /// Acknowledgments that matched nothing this session sent (RUM acks for
    /// unsent ids, barrier replies for unknown xids).  Always zero when the
    /// session has its connections to itself; nonzero under a misconfigured
    /// multiplexer, which is exactly when it must not silently confirm.
    pub fn stray_acks(&self) -> u64 {
        self.stray_acks
    }

    fn count_stray_ack(&mut self) {
        self.stray_acks += 1;
        if let Some(m) = &self.metrics {
            m.stray_acks.inc();
        }
    }

    /// Feeds one input into the session and returns the effects the driver
    /// must execute, in order.  Allocates a fresh effects vector per call;
    /// hot-path drivers should prefer [`UpdateSession::handle_into`].
    pub fn handle(&mut self, now: Duration, input: SessionInput) -> Vec<SessionEffect> {
        let mut effects = Vec::new();
        self.handle_into(now, input, &mut effects);
        effects
    }

    /// Feeds one input into the session, *appending* the effects the driver
    /// must execute (in order) to a caller-owned buffer.
    ///
    /// The buffer is not cleared: a driver drains several inputs into one
    /// buffer, executes everything in a single batch (one socket write per
    /// connection), then clears and reuses the buffer — no per-input
    /// allocation.
    pub fn handle_into(
        &mut self,
        now: Duration,
        input: SessionInput,
        effects: &mut Vec<SessionEffect>,
    ) {
        match input {
            SessionInput::Started => {
                if !self.started {
                    self.started = true;
                    self.dispatch_ready(now, effects);
                    self.check_complete(now, effects);
                }
            }
            SessionInput::FromSwitch { conn, message } => {
                self.on_switch_msg(conn, message, now, effects);
            }
            SessionInput::TimerFired { token } => {
                self.on_timer(token, now, effects);
            }
            SessionInput::Tick => {
                if self.started && self.outcome.is_none() {
                    self.dispatch_ready(now, effects);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch_ready(&mut self, now: Duration, effects: &mut Vec<SessionEffect>) {
        if !self.started || self.outcome.is_some() {
            return;
        }
        // The ready queue is maintained incrementally (confirmations feed
        // it, sends drain it), so dispatch is O(sent) rather than a plan
        // rescan per call.  Sends in NoWait mode confirm immediately and can
        // push fresh ids into the queue mid-loop; the loop picks them up.
        while self.in_flight() < self.window {
            let Some(&id) = self.ready.iter().next() else {
                break;
            };
            self.ready.remove(&id);
            self.send_mod(id, now, effects);
            // In barrier mode, punctuate every `batch` modifications.
            if let AckMode::Barriers { .. } = self.ack_mode {
                self.maybe_send_barrier(effects, false);
            }
        }
        // If we are in barrier mode and there are loose (uncovered) mods but
        // nothing more to send, close them out with a barrier.
        if let AckMode::Barriers { .. } = self.ack_mode {
            if !self.since_last_barrier.is_empty() && self.ready.is_empty() {
                self.maybe_send_barrier(effects, true);
            }
        }
    }

    fn send_mod(&mut self, id: u64, now: Duration, effects: &mut Vec<SessionEffect>) {
        let m = self.plan.get(id).expect("ready id exists");
        let conn = ConnId::new(m.target);
        let message = OfMessage::FlowMod {
            xid: id as Xid,
            body: m.flow_mod.clone(),
        };
        effects.push(SessionEffect::Send { conn, message });
        self.send_times.insert(id, now);
        self.sent.insert(id);
        if let Some(m) = &self.metrics {
            m.mods_sent.inc();
        }
        match self.ack_mode {
            AckMode::NoWait => self.mark_confirmed(id, now, effects),
            AckMode::Barriers { .. } => {
                self.since_last_barrier.push(id);
                self.arm_mod_timeout(id, effects);
            }
            AckMode::RumAcks => self.arm_mod_timeout(id, effects),
        }
        self.record_in_flight();
    }

    fn arm_mod_timeout(&mut self, id: u64, effects: &mut Vec<SessionEffect>) {
        let Some(backoff) = self.failure_policy.backoff else {
            return;
        };
        let attempt = *self.attempts.entry(id).or_insert(0);
        let token = self.next_timer_token;
        self.next_timer_token += 1;
        self.armed_timeouts.insert(token, (id, attempt));
        effects.push(SessionEffect::ArmTimer {
            // Keyed by the mod id, so a burst of retries after a reconnect
            // spreads out deterministically instead of re-firing in lockstep.
            delay: backoff.delay(id, attempt),
            token: SessionTimerToken::from_raw(token),
        });
    }

    fn maybe_send_barrier(&mut self, effects: &mut Vec<SessionEffect>, force: bool) {
        let AckMode::Barriers { batch } = self.ack_mode else {
            return;
        };
        if self.since_last_barrier.is_empty() {
            return;
        }
        if !force && self.since_last_barrier.len() < batch {
            return;
        }
        // One barrier per target that has uncovered modifications, so a
        // multi-switch plan gets per-switch confirmation.
        let mut per_target: HashMap<usize, Vec<u64>> = HashMap::new();
        for id in std::mem::take(&mut self.since_last_barrier) {
            let target = self.plan.get(id).expect("sent id exists").target;
            per_target.entry(target).or_default().push(id);
        }
        let mut targets: Vec<usize> = per_target.keys().copied().collect();
        targets.sort_unstable();
        for target in targets {
            let ids = per_target.remove(&target).expect("key exists");
            self.send_barrier(ConnId::new(target), ids, effects);
        }
    }

    /// Sends a barrier confirming `ids` on the next controller-barrier xid
    /// that awaits no reply: the allocator wraps inside its row of the xid
    /// layout, and a reused xid would let an old reply confirm new ids.
    fn send_barrier(&mut self, conn: ConnId, ids: Vec<u64>, effects: &mut Vec<SessionEffect>) {
        let xid = loop {
            let xid = take_xid_in(
                &mut self.next_barrier_xid,
                CONTROLLER_BARRIER_XID_BASE..RESYNC_READBACK_XID_BASE,
            );
            if let Entry::Vacant(slot) = self.barrier_covers.entry(xid) {
                slot.insert(ids);
                break xid;
            }
        };
        effects.push(SessionEffect::Send {
            conn,
            message: OfMessage::BarrierRequest { xid },
        });
    }

    // ------------------------------------------------------------------
    // Confirmation & completion
    // ------------------------------------------------------------------

    fn mark_confirmed(&mut self, id: u64, now: Duration, effects: &mut Vec<SessionEffect>) {
        if !self.confirmed.insert(id) {
            return;
        }
        self.confirmation_times.insert(id, now);
        self.confirm_log.push(id);
        if let Some(m) = &self.metrics {
            m.mods_confirmed.inc();
            if let Some(&sent_at) = self.send_times.get(&id) {
                m.confirm_latency_us
                    .record(now.saturating_sub(sent_at).as_micros() as u64);
            }
        }
        self.record_in_flight();
        // Release dependents whose last unconfirmed dependency this was.
        if let Some(dependents) = self.dependents.get(&id) {
            for &dep in dependents {
                let remaining = self
                    .remaining_deps
                    .get_mut(&dep)
                    .expect("dependent has a count");
                *remaining -= 1;
                if *remaining == 0 && !self.sent.contains(&dep) && !self.cancelled.contains(&dep) {
                    self.ready.insert(dep);
                }
            }
        }
        effects.push(SessionEffect::Confirmed { id });
        self.check_complete(now, effects);
    }

    fn check_complete(&mut self, now: Duration, effects: &mut Vec<SessionEffect>) {
        if self.started && self.is_complete() && self.outcome.is_none() {
            self.outcome = Some(SessionOutcome::Completed { at: now });
            effects.push(SessionEffect::Completed { at: now });
        }
    }

    // ------------------------------------------------------------------
    // Switch-side messages
    // ------------------------------------------------------------------

    fn on_switch_msg(
        &mut self,
        conn: ConnId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<SessionEffect>,
    ) {
        // A finished session accepts no further confirmations: a stray
        // acknowledgment arriving after an abort (e.g. a switch applying a
        // rolled-back modification arbitrarily late) must not resurrect
        // confirmation state.  Liveness traffic and rejection bookkeeping
        // stay live.
        let finished = self.outcome.is_some();
        match msg {
            OfMessage::BarrierReply { xid } if !finished => {
                if let Some(ids) = self.barrier_covers.remove(&xid) {
                    for id in ids {
                        self.mark_confirmed(id, now, effects);
                    }
                    self.dispatch_ready(now, effects);
                } else {
                    // A reply to a barrier this session never issued (or
                    // already consumed) confirms nothing; misattributing it
                    // to pending modifications is exactly the false-ack
                    // failure mode, so it is counted instead of guessed at.
                    self.count_stray_ack();
                }
            }
            OfMessage::Error { xid, ref body } => {
                if let Some(acked) = msg.as_rum_ack() {
                    let id = u64::from(acked);
                    // Gated on `sent` (an ack for an unsent id is a protocol
                    // violation) and idempotent: `mark_confirmed` ignores a
                    // cookie delivered twice, so a duplicated ack — e.g. from
                    // a switch that duplicates replies — confirms once.
                    if !finished && self.sent.contains(&id) {
                        self.mark_confirmed(id, now, effects);
                        self.dispatch_ready(now, effects);
                    } else if !finished {
                        // An ack for an id this session never sent — e.g. a
                        // cookie from another tenant's namespace leaking onto
                        // this connection.  Rejected, never misattributed.
                        self.count_stray_ack();
                    }
                } else {
                    // Rejections are recorded even after the session
                    // finished — NoWait completes on send, and the report
                    // must still show what the switch refused.
                    let id = u64::from(xid);
                    if self.sent.contains(&id) && !self.failed.contains(&id) {
                        self.failed.push(id);
                        if let Some(m) = &self.metrics {
                            m.mods_failed.inc();
                        }
                        effects.push(SessionEffect::Rejected {
                            id,
                            err_type: body.err_type,
                            code: body.code,
                        });
                    }
                }
            }
            OfMessage::PacketIn { .. } => {
                self.packet_ins_received += 1;
                if let Some(m) = &self.metrics {
                    m.packet_ins.inc();
                }
            }
            OfMessage::EchoRequest { xid, data } => {
                effects.push(SessionEffect::Send {
                    conn,
                    message: OfMessage::EchoReply { xid, data },
                });
            }
            OfMessage::Hello { xid } => {
                effects.push(SessionEffect::Send {
                    conn,
                    message: OfMessage::Hello { xid },
                });
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Failure policy: timeout → retry → abort with rollback
    // ------------------------------------------------------------------

    fn on_timer(
        &mut self,
        token: SessionTimerToken,
        now: Duration,
        effects: &mut Vec<SessionEffect>,
    ) {
        if self.outcome.is_some() {
            return;
        }
        let Some((id, attempt)) = self.armed_timeouts.remove(&token.raw()) else {
            return; // unknown or replayed token
        };
        // Stale or irrelevant timers: the mod confirmed meanwhile, was never
        // sent, already failed, or a newer attempt superseded this timer.
        if !self.sent.contains(&id)
            || self.confirmed.contains(&id)
            || self.failed.contains(&id)
            || *self.attempts.get(&id).unwrap_or(&0) != attempt
        {
            return;
        }
        if attempt < self.failure_policy.max_retries {
            self.retry_mod(id, attempt + 1, effects);
        } else {
            self.abort(id, now, effects);
        }
    }

    fn retry_mod(&mut self, id: u64, attempt: u32, effects: &mut Vec<SessionEffect>) {
        self.attempts.insert(id, attempt);
        if let Some(m) = &self.metrics {
            m.retries.inc();
        }
        let m = self.plan.get(id).expect("sent id exists");
        let conn = ConnId::new(m.target);
        effects.push(SessionEffect::Send {
            conn,
            message: OfMessage::FlowMod {
                xid: id as Xid,
                body: m.flow_mod.clone(),
            },
        });
        // In barrier mode the original covering barrier may have been lost
        // with the mod; issue a dedicated one so the retry can confirm.
        if let AckMode::Barriers { .. } = self.ack_mode {
            self.send_barrier(conn, vec![id], effects);
        }
        self.arm_mod_timeout(id, effects);
    }

    /// Ids transitively depending on `roots` (excluding the roots).
    fn dependents_of(&self, roots: &[u64]) -> Vec<u64> {
        let mut closure: HashSet<u64> = roots.iter().copied().collect();
        // The plan is a DAG; iterate until no new dependents appear.
        loop {
            let mut grew = false;
            for m in self.plan.mods() {
                if !closure.contains(&m.id) && m.deps.iter().any(|d| closure.contains(d)) {
                    closure.insert(m.id);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let mut out: Vec<u64> = closure
            .into_iter()
            .filter(|id| !roots.contains(id))
            .collect();
        out.sort_unstable();
        out
    }

    /// Transitive dependencies of `id` (excluding `id`).
    fn ancestors_of(&self, id: u64) -> Vec<u64> {
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(m) = self.plan.get(cur) {
                for &d in &m.deps {
                    if seen.insert(d) {
                        stack.push(d);
                    }
                }
            }
        }
        let mut out: Vec<u64> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Gives up on `failed_id`: cancels everything depending on it, rolls
    /// back what was already applied on its behalf, and ends the session.
    fn abort(&mut self, failed_id: u64, _now: Duration, effects: &mut Vec<SessionEffect>) {
        self.failed.push(failed_id);
        let cancelled = self.dependents_of(&[failed_id]);
        for &id in &cancelled {
            self.cancelled.insert(id);
            self.ready.remove(&id);
        }
        // Roll back the failed modification itself (the switch may apply it
        // arbitrarily late) plus every sent ancestor it was building on.
        // Repair sessions opt out: their mods are the desired state.
        let mut rollback_candidates = Vec::new();
        if self.rollback_on_abort {
            rollback_candidates.push(failed_id);
            rollback_candidates.extend(
                self.ancestors_of(failed_id)
                    .into_iter()
                    .filter(|id| self.sent.contains(id)),
            );
        }
        let mut rolled_back = Vec::new();
        for id in rollback_candidates {
            if let Some(message) = self.rollback_message(id) {
                let target = self.plan.get(id).expect("plan id exists").target;
                effects.push(SessionEffect::Send {
                    conn: ConnId::new(target),
                    message,
                });
                rolled_back.push(id);
            }
        }
        rolled_back.sort_unstable();
        if let Some(m) = &self.metrics {
            m.mods_failed.inc();
            m.rollbacks_sent.add(rolled_back.len() as u64);
        }
        let report = AbortReport {
            failed: failed_id,
            cancelled,
            rolled_back,
        };
        self.outcome = Some(SessionOutcome::Aborted {
            report: report.clone(),
        });
        effects.push(SessionEffect::Aborted { report });
    }

    /// The inverse of a planned modification, if one can be derived: an
    /// `Add` is undone by a strict delete of the same match and priority.
    /// `Modify` cannot be inverted (the pre-update actions are unknown) and
    /// deletes are not resurrected.
    fn rollback_message(&self, id: u64) -> Option<OfMessage> {
        let m = self.plan.get(id)?;
        match m.flow_mod.command {
            FlowModCommand::Add => {
                let fm = openflow::messages::FlowMod::delete_strict(
                    m.flow_mod.match_,
                    m.flow_mod.priority,
                )
                .with_cookie(id);
                Some(OfMessage::FlowMod {
                    xid: id as Xid,
                    body: fm,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use std::net::Ipv4Addr;

    fn fm(i: u8) -> FlowMod {
        FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
            100,
            vec![Action::output(2)],
        )
    }

    fn chain_plan(n: u64) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            let deps = if i == 0 { vec![] } else { vec![i] };
            plan.add_with_deps(i + 1, 0, fm(i as u8 + 1), deps).unwrap();
        }
        plan
    }

    fn flat_plan(n: u64) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(i + 1, 0, fm(i as u8 + 1)).unwrap();
        }
        plan
    }

    fn sent_flow_mod_ids(effects: &[SessionEffect]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                SessionEffect::Send {
                    message: OfMessage::FlowMod { xid, body },
                    ..
                } if matches!(body.command, FlowModCommand::Add) => Some(u64::from(*xid)),
                _ => None,
            })
            .collect()
    }

    fn rum_ack(id: u64) -> OfMessage {
        OfMessage::rum_ack(id as Xid)
    }

    #[test]
    fn no_wait_confirms_on_send_and_completes() {
        let mut s = UpdateSession::new(flat_plan(5), AckMode::NoWait, usize::MAX >> 1);
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        assert_eq!(sent_flow_mod_ids(&fx), vec![1, 2, 3, 4, 5]);
        assert!(matches!(
            fx.last(),
            Some(SessionEffect::Completed { at }) if *at == Duration::ZERO
        ));
        assert!(s.is_complete());
        assert_eq!(s.confirmed_order(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn window_limits_in_flight_mods() {
        let mut s = UpdateSession::new(flat_plan(10), AckMode::RumAcks, 3);
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        assert_eq!(sent_flow_mod_ids(&fx).len(), 3);
        assert_eq!(s.in_flight(), 3);
        // One ack frees one slot.
        let fx = s.handle(
            Duration::from_millis(1),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(2),
            },
        );
        assert_eq!(sent_flow_mod_ids(&fx), vec![4]);
        assert_eq!(s.in_flight(), 3);
        assert_eq!(s.confirmed_count(), 1);
    }

    #[test]
    fn dependencies_gate_dispatch() {
        let mut s = UpdateSession::new(chain_plan(3), AckMode::RumAcks, 10);
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        assert_eq!(sent_flow_mod_ids(&fx), vec![1], "only the root is ready");
        let fx = s.handle(
            Duration::from_millis(1),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        assert_eq!(sent_flow_mod_ids(&fx), vec![2]);
        assert!(s.send_times()[&2] >= s.confirmation_times()[&1]);
    }

    #[test]
    fn barrier_mode_confirms_through_covers() {
        let mut s = UpdateSession::new(flat_plan(4), AckMode::Barriers { batch: 2 }, 10);
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        let barriers: Vec<Xid> = fx
            .iter()
            .filter_map(|e| match e {
                SessionEffect::Send {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert_eq!(barriers.len(), 2, "4 mods / batch 2");
        let fx = s.handle(
            Duration::from_millis(2),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply { xid: barriers[0] },
            },
        );
        assert_eq!(s.confirmed_count(), 2);
        assert!(fx
            .iter()
            .any(|e| matches!(e, SessionEffect::Confirmed { id: 1 })));
        s.handle(
            Duration::from_millis(3),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply { xid: barriers[1] },
            },
        );
        assert!(s.is_complete());
        assert_eq!(s.completed_at(), Some(Duration::from_millis(3)));
    }

    fn sent_barrier_xids(effects: &[SessionEffect]) -> Vec<Xid> {
        effects
            .iter()
            .filter_map(|e| match e {
                SessionEffect::Send {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect()
    }

    /// Past the last controller-barrier xid the allocator starts over at the
    /// first, short of the reconciler's readback xids.
    #[test]
    fn barrier_xids_wrap_inside_their_range() {
        let mut s = UpdateSession::new(flat_plan(2), AckMode::Barriers { batch: 1 }, 10);
        s.next_barrier_xid = RESYNC_READBACK_XID_BASE - 1;
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        assert_eq!(
            sent_barrier_xids(&fx),
            [RESYNC_READBACK_XID_BASE - 1, CONTROLLER_BARRIER_XID_BASE]
        );
    }

    /// A wrapped allocator skips an xid whose barrier still awaits its
    /// reply: that reply must confirm only what the old barrier covered.
    #[test]
    fn barrier_xid_awaiting_its_reply_is_skipped() {
        let mut s = UpdateSession::new(flat_plan(2), AckMode::Barriers { batch: 1 }, 10);
        s.next_barrier_xid = RESYNC_READBACK_XID_BASE - 1;
        s.barrier_covers
            .insert(CONTROLLER_BARRIER_XID_BASE, Vec::new());
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        assert_eq!(
            sent_barrier_xids(&fx),
            [
                RESYNC_READBACK_XID_BASE - 1,
                CONTROLLER_BARRIER_XID_BASE + 1
            ]
        );
    }

    #[test]
    fn switch_rejection_is_recorded_as_failed() {
        let mut s = UpdateSession::new(flat_plan(2), AckMode::RumAcks, 10);
        s.handle(Duration::ZERO, SessionInput::Started);
        s.handle(
            Duration::from_millis(1),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::Error {
                    xid: 1,
                    body: openflow::messages::ErrorMsg {
                        err_type: openflow::constants::error_type::FLOW_MOD_FAILED,
                        code: 0,
                        data: vec![],
                    },
                },
            },
        );
        assert_eq!(s.failed(), &[1]);
        assert!(!s.is_complete());
    }

    #[test]
    fn echo_and_hello_are_answered_on_the_same_conn() {
        let mut s = UpdateSession::new(flat_plan(1), AckMode::RumAcks, 1);
        s.handle(Duration::ZERO, SessionInput::Started);
        let fx = s.handle(
            Duration::from_millis(1),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::EchoRequest {
                    xid: 7,
                    data: vec![1, 2],
                },
            },
        );
        assert_eq!(
            fx,
            vec![SessionEffect::Send {
                conn: ConnId::new(0),
                message: OfMessage::EchoReply {
                    xid: 7,
                    data: vec![1, 2]
                },
            }]
        );
        let fx = s.handle(
            Duration::from_millis(2),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::Hello { xid: 9 },
            },
        );
        assert!(matches!(
            fx.as_slice(),
            [SessionEffect::Send {
                message: OfMessage::Hello { xid: 9 },
                ..
            }]
        ));
    }

    fn armed_token(effects: &[SessionEffect]) -> SessionTimerToken {
        effects
            .iter()
            .find_map(|e| match e {
                SessionEffect::ArmTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("a timeout must be armed")
    }

    #[test]
    fn timeout_retries_then_aborts_with_rollback() {
        // Plan: 1 -> 2 -> 3 (2 depends on 1, 3 on 2). Mod 1 confirms, mod 2
        // never does; the policy retries twice, then aborts: 3 is cancelled,
        // 2 and its applied ancestor 1 are rolled back.
        let mut s = UpdateSession::new(chain_plan(3), AckMode::RumAcks, 10);
        s.set_failure_policy(FailurePolicy::retry(Duration::from_millis(100), 2));
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        let timer = fx
            .iter()
            .find_map(|e| match e {
                SessionEffect::ArmTimer { delay, token } => Some((*delay, *token)),
                _ => None,
            })
            .expect("timeout armed for mod 1");
        assert_eq!(timer.0, Duration::from_millis(100));

        let fx = s.handle(
            Duration::from_millis(10),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        // Mod 2 is in flight now; its timer fires -> retry 1.
        let fx = s.handle(
            Duration::from_millis(110),
            SessionInput::TimerFired {
                token: armed_token(&fx),
            },
        );
        assert_eq!(sent_flow_mod_ids(&fx), vec![2], "first retry re-sends");
        // Retry 2.
        let fx = s.handle(
            Duration::from_millis(210),
            SessionInput::TimerFired {
                token: armed_token(&fx),
            },
        );
        assert_eq!(sent_flow_mod_ids(&fx), vec![2], "second retry re-sends");
        // Retries exhausted -> abort.
        let fx = s.handle(
            Duration::from_millis(310),
            SessionInput::TimerFired {
                token: armed_token(&fx),
            },
        );
        let report = fx
            .iter()
            .find_map(|e| match e {
                SessionEffect::Aborted { report } => Some(report.clone()),
                _ => None,
            })
            .expect("abort effect");
        assert_eq!(report.failed, 2);
        assert_eq!(report.cancelled, vec![3]);
        assert_eq!(report.rolled_back, vec![1, 2]);
        // Rollbacks are strict deletes of the added rules.
        let deletes = fx
            .iter()
            .filter(|e| {
                matches!(e, SessionEffect::Send {
                    message: OfMessage::FlowMod { body, .. },
                    ..
                } if matches!(body.command, FlowModCommand::DeleteStrict))
            })
            .count();
        assert_eq!(deletes, 2);
        assert!(matches!(s.outcome(), Some(SessionOutcome::Aborted { .. })));
        assert_eq!(s.failed(), &[2]);
        // The session is inert after the abort.
        assert!(s
            .handle(Duration::from_millis(320), SessionInput::Tick)
            .is_empty());
    }

    #[test]
    fn abort_without_rollback_sends_no_inverse_mods() {
        // Same shape as the rollback test, but with rollback disabled (the
        // repair-session configuration): the abort still fails mod 2 and
        // cancels 3, but no strict deletes go out and nothing is reported
        // rolled back — applied repairs must stay applied.
        let mut s = UpdateSession::new(chain_plan(3), AckMode::RumAcks, 10);
        s.set_failure_policy(FailurePolicy::retry(Duration::from_millis(100), 0));
        s.set_rollback_on_abort(false);
        s.handle(Duration::ZERO, SessionInput::Started);
        // Mod 1 confirms; mod 2 goes out and arms its timeout.
        let fx = s.handle(
            Duration::from_millis(10),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        let token = armed_token(&fx);
        // Mod 2's timeout fires with zero retries -> immediate abort.
        let fx = s.handle(
            Duration::from_millis(120),
            SessionInput::TimerFired { token },
        );
        let report = fx
            .iter()
            .find_map(|e| match e {
                SessionEffect::Aborted { report } => Some(report.clone()),
                _ => None,
            })
            .expect("abort effect");
        assert_eq!(report.failed, 2);
        assert_eq!(report.cancelled, vec![3]);
        assert!(report.rolled_back.is_empty(), "no rollback when disabled");
        assert!(
            !fx.iter().any(|e| matches!(e, SessionEffect::Send { .. })),
            "abort must not emit any messages with rollback disabled"
        );
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut s = UpdateSession::new(flat_plan(1), AckMode::RumAcks, 1);
        s.set_failure_policy(FailurePolicy::retry(Duration::from_millis(50), 1));
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        let token = armed_token(&fx);
        // The mod confirms before the timer fires.
        s.handle(
            Duration::from_millis(10),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        let fx = s.handle(
            Duration::from_millis(60),
            SessionInput::TimerFired { token },
        );
        assert!(fx.is_empty(), "timer for a confirmed mod is a no-op");
        // A replayed or never-armed token is also ignored.
        let fx = s.handle(
            Duration::from_millis(70),
            SessionInput::TimerFired { token },
        );
        assert!(fx.is_empty());
        let fx = s.handle(
            Duration::from_millis(80),
            SessionInput::TimerFired {
                token: SessionTimerToken::from_raw(999),
            },
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn tick_redispatches_but_is_otherwise_harmless() {
        let mut s = UpdateSession::new(flat_plan(2), AckMode::RumAcks, 1);
        assert!(s.handle(Duration::ZERO, SessionInput::Tick).is_empty());
        s.handle(Duration::ZERO, SessionInput::Started);
        assert!(s
            .handle(Duration::from_millis(1), SessionInput::Tick)
            .is_empty());
        // A second Started is a no-op too.
        assert!(s
            .handle(Duration::from_millis(2), SessionInput::Started)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_is_rejected() {
        UpdateSession::new(UpdatePlan::new(), AckMode::NoWait, 0);
    }

    /// The same cookie acknowledged twice confirms exactly once: the second
    /// delivery is a no-op (no duplicate Confirmed effect, no double-count,
    /// no extra dispatch) — switches that duplicate replies must not skew
    /// the window or the completion accounting.
    #[test]
    fn duplicate_ack_confirms_once() {
        let mut s = UpdateSession::new(flat_plan(3), AckMode::RumAcks, 1);
        s.handle(Duration::ZERO, SessionInput::Started);
        let fx = s.handle(
            Duration::from_millis(1),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, SessionEffect::Confirmed { id: 1 })));
        assert_eq!(s.confirmed_count(), 1);
        let first_time = s.confirmation_times()[&1];

        // The duplicate: no effects beyond (at most) nothing, state frozen.
        let fx = s.handle(
            Duration::from_millis(9),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        assert!(
            !fx.iter()
                .any(|e| matches!(e, SessionEffect::Confirmed { id: 1 })),
            "duplicate ack must not re-confirm"
        );
        assert!(
            sent_flow_mod_ids(&fx).is_empty(),
            "duplicate ack must not free a window slot twice"
        );
        assert_eq!(s.confirmed_count(), 1);
        assert_eq!(s.confirmation_times()[&1], first_time);
        assert_eq!(s.confirmed_order(), &[1]);
        assert_eq!(s.in_flight(), 1, "mod 2 is in flight exactly once");
    }

    /// An acknowledgment for an id this session never sent is rejected and
    /// counted, never misattributed to a pending modification — the session
    /// side of the multi-tenant namespace guarantee.
    #[test]
    fn ack_for_unsent_id_is_counted_stray_not_confirmed() {
        let registry = Registry::new();
        let mut s = UpdateSession::new(chain_plan(2), AckMode::RumAcks, 1);
        s.attach_metrics(&registry);
        s.handle(Duration::ZERO, SessionInput::Started);
        assert_eq!(s.stray_acks(), 0);

        // A cookie from some other tenant's namespace leaks in.
        let fx = s.handle(
            Duration::from_millis(1),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(0x0010_0001),
            },
        );
        assert!(fx.is_empty(), "a stray ack must confirm nothing");
        assert_eq!(s.confirmed_count(), 0);
        // So does a barrier reply this session never issued.
        let fx = s.handle(
            Duration::from_millis(2),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply { xid: 0x4000_0123 },
            },
        );
        assert!(fx.is_empty());
        assert_eq!(s.stray_acks(), 2);
        assert_eq!(registry.snapshot().counters["session.stray_acks"], 2);

        // The real acknowledgment still lands normally afterwards.
        let fx = s.handle(
            Duration::from_millis(3),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, SessionEffect::Confirmed { id: 1 })));
        assert_eq!(s.stray_acks(), 2, "a valid ack is not stray");
    }

    /// Acknowledgments arriving after the session aborted are ignored: the
    /// rolled-back update must not be partially "resurrected" by a switch
    /// that applies (and acks) a modification arbitrarily late.
    #[test]
    fn stray_ack_after_abort_is_ignored() {
        let mut s = UpdateSession::new(chain_plan(2), AckMode::RumAcks, 1);
        s.set_failure_policy(FailurePolicy::retry(Duration::from_millis(10), 0));
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        // Mod 1 times out with zero retries -> abort.
        let fx = s.handle(
            Duration::from_millis(20),
            SessionInput::TimerFired {
                token: armed_token(&fx),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, SessionEffect::Aborted { .. })));
        let confirmed_before = s.confirmed_count();

        // The switch acks mod 1 long after the rollback went out.
        let fx = s.handle(
            Duration::from_millis(30),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: rum_ack(1),
            },
        );
        assert!(fx.is_empty(), "post-abort ack must produce no effects");
        assert_eq!(s.confirmed_count(), confirmed_before);
        assert!(s.confirmation_times().get(&1).is_none());
        // A stray barrier reply is equally inert...
        let fx = s.handle(
            Duration::from_millis(31),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply { xid: 0x4000_0000 },
            },
        );
        assert!(fx.is_empty());
        // ...but liveness traffic is still answered.
        let fx = s.handle(
            Duration::from_millis(32),
            SessionInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::EchoRequest {
                    xid: 5,
                    data: vec![],
                },
            },
        );
        assert!(matches!(
            fx.as_slice(),
            [SessionEffect::Send {
                message: OfMessage::EchoReply { xid: 5, .. },
                ..
            }]
        ));
    }

    /// The incrementally-maintained ready queue must stay equivalent to the
    /// reference definition ([`UpdatePlan::ready_ids`] minus cancelled ids)
    /// after every input.  This is the drift guard for the two parallel
    /// notions of readiness.
    #[test]
    fn incremental_ready_queue_matches_plan_rescan() {
        fn assert_equivalent(s: &UpdateSession, when: &str) {
            let mut reference = s.plan.ready_ids(&s.confirmed, &s.sent);
            reference.retain(|id| !s.cancelled.contains(id));
            reference.sort_unstable();
            let queue: Vec<u64> = s.ready.iter().copied().collect();
            assert_eq!(queue, reference, "ready queue diverged {when}");
        }

        // Diamond (1 -> 2,3 -> 4) plus an independent mod 5.
        let mut plan = UpdatePlan::new();
        plan.add(1, 0, fm(1)).unwrap();
        plan.add_with_deps(2, 0, fm(2), vec![1]).unwrap();
        plan.add_with_deps(3, 0, fm(3), vec![1]).unwrap();
        plan.add_with_deps(4, 0, fm(4), vec![2, 3]).unwrap();
        plan.add(5, 0, fm(5)).unwrap();

        let mut s = UpdateSession::new(plan, AckMode::RumAcks, 2);
        assert_equivalent(&s, "after construction");
        s.handle(Duration::ZERO, SessionInput::Started);
        assert_equivalent(&s, "after start");
        for (step, ack) in [1u64, 5, 2, 3, 4].into_iter().enumerate() {
            s.handle(
                Duration::from_millis(step as u64 + 1),
                SessionInput::FromSwitch {
                    conn: ConnId::new(0),
                    message: rum_ack(ack),
                },
            );
            assert_equivalent(&s, &format!("after ack {ack}"));
        }
        assert!(s.is_complete());

        // And through the abort path: the cancelled dependents must leave
        // the queue exactly as the reference (minus cancelled) says.
        let mut plan = UpdatePlan::new();
        plan.add(1, 0, fm(1)).unwrap();
        plan.add_with_deps(2, 0, fm(2), vec![1]).unwrap();
        plan.add_with_deps(3, 0, fm(3), vec![2]).unwrap();
        let mut s = UpdateSession::new(plan, AckMode::RumAcks, 1);
        s.set_failure_policy(FailurePolicy::retry(Duration::from_millis(10), 0));
        let fx = s.handle(Duration::ZERO, SessionInput::Started);
        s.handle(
            Duration::from_millis(20),
            SessionInput::TimerFired {
                token: armed_token(&fx),
            },
        );
        assert!(matches!(s.outcome(), Some(SessionOutcome::Aborted { .. })));
        assert_equivalent(&s, "after abort");
    }
}
