//! [`SessionMux`]: the sans-IO session multiplexer.
//!
//! One mux owns many [`UpdateSession`]s (tenants).  Each tenant keeps its own
//! dependency gating, acknowledgment mode and per-session window; the mux
//! adds the three cross-tenant concerns — namespace isolation, conflict
//! admission and fair scheduling of the shared outstanding-window budget —
//! and translates between each session's local id space and the wire.
//!
//! # Namespace layout
//!
//! Tenant `i` owns the block `base_i = (i + 1) << namespace_bits` of the
//! shared u64 cookie space (and, truncated, of the u32 xid space):
//!
//! ```text
//! 0 ............ local ids (< 2^bits, per tenant, rejected otherwise)
//! base_i + id .. tenant i's flow-mod cookies AND xids on the wire
//! 0x4000_0000 .. mux-allocated barrier xids (translated per tenant)
//! 0x8000_0000 .. reserved by the RUM proxy (never generated here)
//! ```
//!
//! Flow-mod xids stay below `0x4000_0000`, which caps the tenant count at
//! `2^(30 - bits) - 1` ([`AdmitError::NamespaceExhausted`] beyond that —
//! 1023 tenants at the default 20 bits, plenty for a soak of hundreds).
//! Barrier xids cannot use a static per-tenant offset (every session starts
//! its barrier counter at the same `0x4000_0000`), so the mux allocates
//! globally-unique barrier xids and keeps a translation table.

use controller::{
    AbortReport, AckMode, ConnId, FailurePolicy, Machine, MachineEffect, MachineInput,
    SessionEffect, SessionInput, SessionOutcome, SessionTimerToken, UpdatePlan, UpdateSession,
};
use openflow::types::{take_xid_in, CONTROLLER_BARRIER_XID_BASE, RESYNC_READBACK_XID_BASE};
use openflow::{OfMatch, OfMessage, Xid};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{AtomicHistogram, Counter, Gauge, Registry};

/// Default width of each tenant's cookie/xid block (2^20 local ids).
pub const DEFAULT_NAMESPACE_BITS: u32 = 20;

/// How many tenants get their own `sessiond.t{i}.*` metric series (the rest
/// still feed every shared `sessiond.*` aggregate); bounds snapshot
/// cardinality when soaking hundreds of sessions.
const PER_TENANT_METRICS: usize = 32;

/// Identifies one tenant session owned by a [`SessionMux`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(usize);

impl SessionId {
    /// The dense tenant index (submission order).
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What to do when a submitted plan's `(switch, match, priority)` cells
/// overlap a plan already in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Queue the later plan; it starts when every conflicting predecessor
    /// (running or queued earlier) has finished.  FIFO — a queued plan is
    /// never overtaken by a later conflicting one.
    Serialize,
    /// Refuse admission with [`AdmitError::Conflict`]; the caller retries or
    /// repartitions its rule space.
    Reject,
}

/// Why a plan was not admitted.  These are typed errors, not assertions:
/// colliding cookie/xid namespaces and contested rule cells are expected
/// tenant behaviour, and the mux's job is to make them unrepresentable on
/// the wire rather than to crash on them.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The plan touches a `(switch, match, priority)` cell owned by another
    /// in-flight session and the policy is [`ConflictPolicy::Reject`].
    Conflict {
        /// The session owning the contested cell.
        with: SessionId,
        /// The contested switch (plan `SwitchRef`).
        target: usize,
        /// The contested match.
        match_: OfMatch,
        /// The contested priority.
        priority: u16,
    },
    /// A modification id does not fit the tenant's namespace block; ids must
    /// be `< 2^namespace_bits`.
    IdOutOfNamespace {
        /// The offending plan id.
        id: u64,
        /// The exclusive id bound (`2^namespace_bits`).
        capacity: u64,
    },
    /// Every namespace block is in use; no further session can be isolated.
    NamespaceExhausted {
        /// The maximum number of sessions this mux can ever hold.
        max_sessions: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Conflict {
                with,
                target,
                match_,
                priority,
            } => write!(
                f,
                "plan conflicts with session {with} on switch {target} \
                 ({match_:?}, priority {priority})"
            ),
            AdmitError::IdOutOfNamespace { id, capacity } => write!(
                f,
                "modification id {id} does not fit the per-session namespace \
                 (ids must be < {capacity})"
            ),
            AdmitError::NamespaceExhausted { max_sessions } => {
                write!(f, "all {max_sessions} session namespaces are in use")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Where a submitted session currently stands.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionState {
    /// Admitted under [`ConflictPolicy::Serialize`] and waiting for a
    /// conflicting predecessor to finish.
    Queued,
    /// Executing.
    Running,
    /// Finished (completed or aborted); see the session's outcome.
    Done,
}

/// Mux-wide configuration.  Every tenant session is created with the same
/// acknowledgment mode, per-session window and failure policy; the
/// cross-tenant knobs (global window, quantum, policy, namespace width) are
/// the mux's own.  Per-tenant metric series are not configurable: the first
/// 32 tenants get them (see [`SessionMux::attach_metrics`]).
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Acknowledgment mode for every tenant session.
    pub ack_mode: AckMode,
    /// Per-session outstanding window (the paper's K, per tenant).
    pub session_window: usize,
    /// Shared outstanding-window budget: released-but-unconfirmed flow-mods
    /// across *all* tenants never exceed this.
    pub global_window: usize,
    /// Deficit round-robin quantum: flow-mods a tenant may release per
    /// scheduling visit (before yielding to the next tenant).
    pub quantum: u64,
    /// What to do with plans whose rule cells overlap an in-flight plan.
    pub conflict_policy: ConflictPolicy,
    /// Width of each tenant's cookie/xid block (local ids must be
    /// `< 2^namespace_bits`).
    pub namespace_bits: u32,
    /// Failure policy for every tenant session.  Note that a session's
    /// per-modification clock starts when the session *stages* the send; a
    /// mux that holds a staged modification past the timeout will trigger
    /// spurious retries, so pair an enabled policy with a generous timeout.
    pub failure_policy: FailurePolicy,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            ack_mode: AckMode::RumAcks,
            session_window: 1,
            global_window: 32,
            quantum: 2,
            conflict_policy: ConflictPolicy::Serialize,
            namespace_bits: DEFAULT_NAMESPACE_BITS,
            failure_policy: FailurePolicy::disabled(),
        }
    }
}

/// An opaque handle to a timer the mux asked its driver to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MuxTimerToken(u64);

impl MuxTimerToken {
    /// The raw value, for drivers that serialise tokens.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a token from [`MuxTimerToken::raw`].
    pub const fn from_raw(raw: u64) -> Self {
        MuxTimerToken(raw)
    }
}

/// Everything a driver can feed into the mux.
#[derive(Debug, Clone, PartialEq)]
pub enum MuxInput {
    /// The switch behind `conn` sent `message`.
    FromSwitch {
        /// The connection that carried the message.
        conn: ConnId,
        /// The decoded message.
        message: OfMessage,
    },
    /// A timer previously requested via [`MuxEffect::ArmTimer`] expired.
    TimerFired {
        /// The token from the arming effect.
        token: MuxTimerToken,
    },
    /// The clock advanced with nothing else to report.
    Tick,
}

/// Everything the mux can ask a driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum MuxEffect {
    /// Send `message` (already rewritten into wire namespaces) on `conn`.
    Send {
        /// The destination connection.
        conn: ConnId,
        /// The message to send.
        message: OfMessage,
    },
    /// Arm a timer: feed [`MuxInput::TimerFired`] with `token` back after
    /// `delay`.
    ArmTimer {
        /// How long to wait.
        delay: Duration,
        /// Token identifying the timer.
        token: MuxTimerToken,
    },
    /// A queued (serialized) session's conflicts cleared and it started.
    SessionStarted {
        /// The session that started.
        session: SessionId,
    },
    /// One modification of one session confirmed (local plan id).
    Confirmed {
        /// The owning session.
        session: SessionId,
        /// The confirmed modification's local id.
        id: u64,
    },
    /// A switch rejected one modification of one session (local plan id).
    Rejected {
        /// The owning session.
        session: SessionId,
        /// The rejected modification's local id.
        id: u64,
        /// The OpenFlow error type.
        err_type: u16,
        /// The OpenFlow error code.
        code: u16,
    },
    /// A session confirmed its whole plan.
    SessionCompleted {
        /// The completed session.
        session: SessionId,
        /// Time (driver epoch) of the final confirmation.
        at: Duration,
    },
    /// A session's failure policy gave up.
    SessionAborted {
        /// The aborted session.
        session: SessionId,
        /// What failed, what was cancelled, what was rolled back.
        report: AbortReport,
    },
}

/// One rule cell two plans could collide on.
type ConflictKey = (usize, OfMatch, u16);

/// Telemetry handles published under `sessiond.*` when metrics are attached.
struct MuxMetrics {
    registry: Arc<Registry>,
    active: Arc<Gauge>,
    queued: Arc<Gauge>,
    admitted: Arc<Counter>,
    rejected_conflict: Arc<Counter>,
    serialized_conflict: Arc<Counter>,
    completed: Arc<Counter>,
    aborted: Arc<Counter>,
    stray_acks: Arc<Counter>,
    in_flight: Arc<Gauge>,
    confirm_latency_us: Arc<AtomicHistogram>,
}

impl MuxMetrics {
    fn new(registry: &Arc<Registry>) -> Self {
        MuxMetrics {
            registry: Arc::clone(registry),
            active: registry.gauge("sessiond.active"),
            queued: registry.gauge("sessiond.queued"),
            admitted: registry.counter("sessiond.admitted"),
            rejected_conflict: registry.counter("sessiond.rejected_conflict"),
            serialized_conflict: registry.counter("sessiond.serialized_conflict"),
            completed: registry.counter("sessiond.completed"),
            aborted: registry.counter("sessiond.aborted"),
            stray_acks: registry.counter("sessiond.stray_acks"),
            in_flight: registry.gauge("sessiond.in_flight"),
            confirm_latency_us: registry.histogram("sessiond.confirm_latency_us"),
        }
    }
}

/// Per-tenant bookkeeping around one owned [`UpdateSession`].
struct Tenant {
    session: UpdateSession,
    /// First wire cookie/xid of this tenant's namespace block.
    base: u64,
    /// The plan's rule cells (deduplicated), for conflict admission.
    keys: Vec<ConflictKey>,
    /// Rewritten sends awaiting release by the scheduler, FIFO.
    staged: VecDeque<(ConnId, OfMessage)>,
    /// Deficit round-robin credit (flow-mods this tenant may release).
    deficit: u64,
    /// Wire cookies released to the driver and not yet confirmed or
    /// rejected — this set (summed over tenants) is the global window.
    released_unconfirmed: HashSet<u64>,
    state: SessionState,
    /// Per-tenant metric handles, for the first 32 tenants.
    m_in_flight: Option<Arc<Gauge>>,
    m_confirmed: Option<Arc<Counter>>,
}

impl Tenant {
    fn record_in_flight(&self) {
        if let Some(g) = &self.m_in_flight {
            g.set(self.released_unconfirmed.len() as i64);
        }
    }
}

/// The session multiplexer: admission (namespaces + conflicts), fair
/// scheduling of the shared window, and wire-namespace translation for many
/// concurrent [`UpdateSession`]s.  Pure state machine; see the crate docs.
pub struct SessionMux {
    config: MuxConfig,
    tenants: Vec<Tenant>,
    /// Sessions queued by [`ConflictPolicy::Serialize`], FIFO.
    waiters: VecDeque<SessionId>,
    /// Rule cells of running sessions → owner.
    active_keys: HashMap<ConflictKey, SessionId>,
    /// Mux barrier xid → (tenant, the tenant's local barrier xid).
    barrier_map: HashMap<Xid, (SessionId, Xid)>,
    next_barrier_xid: Xid,
    /// Mux timer token → (tenant, the tenant's local token).
    timer_map: HashMap<u64, (SessionId, SessionTimerToken)>,
    next_timer_token: u64,
    /// Released-but-unconfirmed flow-mods across all tenants.
    global_in_flight: usize,
    /// Round-robin scan start, persisted across pumps so service rotates.
    rr_cursor: usize,
    /// Acknowledgments (or barrier replies) that decoded to no tenant.
    stray_acks: u64,
    /// PacketIns absorbed at the mux (probes leaking past RUM, punts).
    packet_ins: u64,
    metrics: Option<MuxMetrics>,
}

impl SessionMux {
    /// Creates an empty mux.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate: a zero global window or
    /// `namespace_bits` outside `1..=29` (flow-mod xids must stay below the
    /// mux barrier range at `0x4000_0000`).
    pub fn new(config: MuxConfig) -> Self {
        assert!(config.global_window > 0, "global window must be at least 1");
        assert!(
            (1..=29).contains(&config.namespace_bits),
            "namespace_bits must be in 1..=29"
        );
        SessionMux {
            config,
            tenants: Vec::new(),
            waiters: VecDeque::new(),
            active_keys: HashMap::new(),
            barrier_map: HashMap::new(),
            next_barrier_xid: CONTROLLER_BARRIER_XID_BASE,
            timer_map: HashMap::new(),
            next_timer_token: 0,
            global_in_flight: 0,
            rr_cursor: 0,
            stray_acks: 0,
            packet_ins: 0,
            metrics: None,
        }
    }

    /// Publishes mux progress into `registry` under `sessiond.*`; the first
    /// 32 tenants additionally get `sessiond.t{i}.*` series.  Attach before
    /// the first submission.
    pub fn attach_metrics(&mut self, registry: &Arc<Registry>) {
        self.metrics = Some(MuxMetrics::new(registry));
    }

    /// The mux configuration.
    pub fn config(&self) -> &MuxConfig {
        &self.config
    }

    /// How many sessions this mux can ever isolate: flow-mod xids must stay
    /// below the barrier range, so `2^(30 - bits) - 1` blocks exist.
    pub fn max_sessions(&self) -> usize {
        ((u64::from(CONTROLLER_BARRIER_XID_BASE) >> self.config.namespace_bits) - 1) as usize
    }

    /// Exclusive upper bound on local plan ids (`2^namespace_bits`).
    pub fn id_capacity(&self) -> u64 {
        1u64 << self.config.namespace_bits
    }

    /// Total sessions ever submitted (running, queued and finished).
    pub fn session_count(&self) -> usize {
        self.tenants.len()
    }

    /// Sessions currently executing.
    pub fn running_sessions(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.state == SessionState::Running)
            .count()
    }

    /// Sessions queued behind a conflict.
    pub fn queued_sessions(&self) -> usize {
        self.waiters.len()
    }

    /// True once no session is running or queued.
    pub fn all_done(&self) -> bool {
        self.tenants.iter().all(|t| t.state == SessionState::Done)
    }

    /// Where `session` currently stands.
    pub fn state(&self, session: SessionId) -> Option<&SessionState> {
        self.tenants.get(session.0).map(|t| &t.state)
    }

    /// Read access to one tenant's session (local-id view: confirmed order,
    /// timestamps, outcome).
    pub fn session(&self, session: SessionId) -> Option<&UpdateSession> {
        self.tenants.get(session.0).map(|t| &t.session)
    }

    /// One tenant's terminal outcome, once it has one.
    pub fn outcome(&self, session: SessionId) -> Option<&SessionOutcome> {
        self.session(session).and_then(|s| s.outcome())
    }

    /// Released-but-unconfirmed flow-mods across all tenants (never exceeds
    /// [`MuxConfig::global_window`]).
    pub fn global_in_flight(&self) -> usize {
        self.global_in_flight
    }

    /// Acknowledgments and barrier replies that decoded to no tenant.
    pub fn stray_acks(&self) -> u64 {
        self.stray_acks
    }

    /// PacketIns absorbed at the mux.
    pub fn packet_ins(&self) -> u64 {
        self.packet_ins
    }

    /// First wire cookie of `session`'s namespace block; wire cookie =
    /// `base + local id` for every modification of the session.
    pub fn base(&self, session: SessionId) -> Option<u64> {
        self.tenants.get(session.0).map(|t| t.base)
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    /// Submits one plan as a new tenant session.  On admission the session
    /// starts immediately (effects appended); under
    /// [`ConflictPolicy::Serialize`] a conflicting plan is queued instead
    /// and starts — with a [`MuxEffect::SessionStarted`] — once its
    /// conflicts clear.
    pub fn submit(
        &mut self,
        plan: UpdatePlan,
        now: Duration,
        effects: &mut Vec<MuxEffect>,
    ) -> Result<SessionId, AdmitError> {
        if self.tenants.len() >= self.max_sessions() {
            return Err(AdmitError::NamespaceExhausted {
                max_sessions: self.max_sessions(),
            });
        }
        let capacity = self.id_capacity();
        for m in plan.mods() {
            if m.id >= capacity {
                return Err(AdmitError::IdOutOfNamespace { id: m.id, capacity });
            }
        }
        let mut keys: Vec<ConflictKey> = plan
            .mods()
            .iter()
            .map(|m| (m.target, m.flow_mod.match_, m.flow_mod.priority))
            .collect();
        keys.sort_unstable_by_key(|k| (k.0, k.2, format!("{:?}", k.1)));
        keys.dedup();

        let conflict = self.first_conflict(&keys);
        if let Some(err) = conflict {
            match self.config.conflict_policy {
                ConflictPolicy::Reject => {
                    if let Some(m) = &self.metrics {
                        m.rejected_conflict.inc();
                    }
                    return Err(err);
                }
                ConflictPolicy::Serialize => {
                    let sid = self.new_tenant(plan, keys, SessionState::Queued);
                    self.waiters.push_back(sid);
                    if let Some(m) = &self.metrics {
                        m.serialized_conflict.inc();
                        m.admitted.inc();
                        m.queued.set(self.waiters.len() as i64);
                    }
                    return Ok(sid);
                }
            }
        }

        let sid = self.new_tenant(plan, keys, SessionState::Running);
        self.activate(sid);
        if let Some(m) = &self.metrics {
            m.admitted.inc();
        }
        self.drive(sid, SessionInput::Started, now, effects);
        self.pump(effects);
        Ok(sid)
    }

    /// The first rule cell of `keys` contested by a running session or an
    /// earlier-queued waiter, as the typed error a rejection would carry.
    fn first_conflict(&self, keys: &[ConflictKey]) -> Option<AdmitError> {
        for &key in keys {
            if let Some(&with) = self.active_keys.get(&key) {
                return Some(AdmitError::Conflict {
                    with,
                    target: key.0,
                    match_: key.1,
                    priority: key.2,
                });
            }
        }
        // Under Serialize, queued predecessors also own their cells: a later
        // conflicting plan must not overtake them.
        for &waiter in &self.waiters {
            let t = &self.tenants[waiter.0];
            for key in keys {
                if t.keys.contains(key) {
                    return Some(AdmitError::Conflict {
                        with: waiter,
                        target: key.0,
                        match_: key.1,
                        priority: key.2,
                    });
                }
            }
        }
        None
    }

    fn new_tenant(
        &mut self,
        plan: UpdatePlan,
        keys: Vec<ConflictKey>,
        state: SessionState,
    ) -> SessionId {
        let index = self.tenants.len();
        let base = (index as u64 + 1) << self.config.namespace_bits;
        let mut session =
            UpdateSession::new(plan, self.config.ack_mode, self.config.session_window);
        session.set_failure_policy(self.config.failure_policy);
        let (m_in_flight, m_confirmed) = match &self.metrics {
            Some(m) if index < PER_TENANT_METRICS => (
                Some(m.registry.gauge(&format!("sessiond.t{index}.in_flight"))),
                Some(m.registry.counter(&format!("sessiond.t{index}.confirmed"))),
            ),
            _ => (None, None),
        };
        self.tenants.push(Tenant {
            session,
            base,
            keys,
            staged: VecDeque::new(),
            deficit: 0,
            released_unconfirmed: HashSet::new(),
            state,
            m_in_flight,
            m_confirmed,
        });
        SessionId(index)
    }

    /// Marks `sid` running and claims its rule cells.
    fn activate(&mut self, sid: SessionId) {
        for &key in &self.tenants[sid.0].keys {
            self.active_keys.insert(key, sid);
        }
        self.tenants[sid.0].state = SessionState::Running;
        if let Some(m) = &self.metrics {
            m.active.set(self.running_sessions() as i64);
        }
    }

    // ------------------------------------------------------------------
    // Input handling
    // ------------------------------------------------------------------

    /// Feeds one input into the mux, appending the effects the driver must
    /// execute (in order).
    pub fn handle(&mut self, now: Duration, input: MuxInput, effects: &mut Vec<MuxEffect>) {
        match input {
            MuxInput::FromSwitch { conn, message } => {
                self.on_switch_msg(conn, message, now, effects)
            }
            MuxInput::TimerFired { token } => {
                if let Some((sid, local)) = self.timer_map.remove(&token.raw()) {
                    self.drive(sid, SessionInput::TimerFired { token: local }, now, effects);
                }
            }
            MuxInput::Tick => {
                for i in 0..self.tenants.len() {
                    if self.tenants[i].state == SessionState::Running {
                        self.drive(SessionId(i), SessionInput::Tick, now, effects);
                    }
                }
            }
        }
        self.pump(effects);
    }

    /// Decodes a wire cookie/xid back to its owning tenant and local id.
    fn decode(&self, global: u64) -> Option<(SessionId, u64)> {
        let block = (global >> self.config.namespace_bits) as usize;
        if block == 0 || block > self.tenants.len() {
            return None;
        }
        let local = global & (self.id_capacity() - 1);
        Some((SessionId(block - 1), local))
    }

    fn on_switch_msg(
        &mut self,
        conn: ConnId,
        message: OfMessage,
        now: Duration,
        effects: &mut Vec<MuxEffect>,
    ) {
        match message {
            OfMessage::BarrierReply { xid } => match self.barrier_map.remove(&xid) {
                Some((sid, local)) => self.drive(
                    sid,
                    SessionInput::FromSwitch {
                        conn,
                        message: OfMessage::BarrierReply { xid: local },
                    },
                    now,
                    effects,
                ),
                None => self.count_stray(),
            },
            OfMessage::Error { xid, ref body } => {
                let is_ack = message.as_rum_ack().is_some();
                let global = match message.as_rum_ack() {
                    Some(acked) => u64::from(acked),
                    None => u64::from(xid),
                };
                match self.decode(global) {
                    Some((sid, local)) => {
                        let local_msg = if is_ack {
                            OfMessage::rum_ack(local as Xid)
                        } else {
                            OfMessage::Error {
                                xid: local as Xid,
                                body: body.clone(),
                            }
                        };
                        self.drive(
                            sid,
                            SessionInput::FromSwitch {
                                conn,
                                message: local_msg,
                            },
                            now,
                            effects,
                        );
                    }
                    None => self.count_stray(),
                }
            }
            OfMessage::EchoRequest { xid, data } => effects.push(MuxEffect::Send {
                conn,
                message: OfMessage::EchoReply { xid, data },
            }),
            OfMessage::Hello { xid } => effects.push(MuxEffect::Send {
                conn,
                message: OfMessage::Hello { xid },
            }),
            OfMessage::PacketIn { .. } => self.packet_ins += 1,
            _ => {}
        }
    }

    fn count_stray(&mut self) {
        self.stray_acks += 1;
        if let Some(m) = &self.metrics {
            m.stray_acks.inc();
        }
    }

    // ------------------------------------------------------------------
    // Session effect translation
    // ------------------------------------------------------------------

    /// Feeds one input into tenant `sid`'s session and translates every
    /// returned effect into the mux's wire namespaces.
    fn drive(
        &mut self,
        sid: SessionId,
        input: SessionInput,
        now: Duration,
        effects: &mut Vec<MuxEffect>,
    ) {
        let fx = self.tenants[sid.0].session.handle(now, input);
        for effect in fx {
            self.apply_effect(sid, effect, now, effects);
        }
    }

    /// The wire xid of tenant `sid`'s barrier `local`: the next
    /// controller-barrier xid that awaits no reply (the allocator wraps
    /// inside its row of the xid layout; a reused xid would route an old
    /// reply to the wrong tenant barrier).
    fn global_barrier_xid(&mut self, sid: SessionId, local: Xid) -> Xid {
        loop {
            let global = take_xid_in(
                &mut self.next_barrier_xid,
                CONTROLLER_BARRIER_XID_BASE..RESYNC_READBACK_XID_BASE,
            );
            if let Entry::Vacant(slot) = self.barrier_map.entry(global) {
                slot.insert((sid, local));
                return global;
            }
        }
    }

    fn apply_effect(
        &mut self,
        sid: SessionId,
        effect: SessionEffect,
        now: Duration,
        effects: &mut Vec<MuxEffect>,
    ) {
        let base = self.tenants[sid.0].base;
        match effect {
            SessionEffect::Send { conn, message } => {
                let rewritten = match message {
                    OfMessage::FlowMod { xid, mut body } => {
                        body.cookie += base;
                        OfMessage::FlowMod {
                            xid: (base + u64::from(xid)) as Xid,
                            body,
                        }
                    }
                    OfMessage::BarrierRequest { xid } => OfMessage::BarrierRequest {
                        xid: self.global_barrier_xid(sid, xid),
                    },
                    other => other,
                };
                self.tenants[sid.0].staged.push_back((conn, rewritten));
            }
            SessionEffect::ArmTimer { delay, token } => {
                let global = self.next_timer_token;
                self.next_timer_token += 1;
                self.timer_map.insert(global, (sid, token));
                effects.push(MuxEffect::ArmTimer {
                    delay,
                    token: MuxTimerToken(global),
                });
            }
            SessionEffect::Confirmed { id } => {
                self.settle(sid, base + id);
                let t = &self.tenants[sid.0];
                if let Some(c) = &t.m_confirmed {
                    c.inc();
                }
                if let Some(m) = &self.metrics {
                    if let Some(&sent_at) = t.session.send_times().get(&id) {
                        m.confirm_latency_us
                            .record(now.saturating_sub(sent_at).as_micros() as u64);
                    }
                }
                effects.push(MuxEffect::Confirmed { session: sid, id });
            }
            SessionEffect::Rejected { id, err_type, code } => {
                self.settle(sid, base + id);
                effects.push(MuxEffect::Rejected {
                    session: sid,
                    id,
                    err_type,
                    code,
                });
            }
            SessionEffect::Completed { at } => {
                effects.push(MuxEffect::SessionCompleted { session: sid, at });
                self.finish(sid, true, now, effects);
            }
            SessionEffect::Aborted { report } => {
                effects.push(MuxEffect::SessionAborted {
                    session: sid,
                    report,
                });
                self.finish(sid, false, now, effects);
            }
        }
    }

    /// A wire cookie was confirmed or rejected: release its budget slot.
    fn settle(&mut self, sid: SessionId, global: u64) {
        if self.tenants[sid.0].released_unconfirmed.remove(&global) {
            self.global_in_flight -= 1;
            self.tenants[sid.0].record_in_flight();
            if let Some(m) = &self.metrics {
                m.in_flight.set(self.global_in_flight as i64);
            }
        }
    }

    /// A session reached its terminal outcome: free its rule cells and
    /// budget, then admit any waiters whose conflicts cleared.
    fn finish(
        &mut self,
        sid: SessionId,
        completed: bool,
        now: Duration,
        effects: &mut Vec<MuxEffect>,
    ) {
        let freed = self.tenants[sid.0].released_unconfirmed.len();
        self.global_in_flight -= freed;
        self.tenants[sid.0].released_unconfirmed.clear();
        self.tenants[sid.0].record_in_flight();
        self.tenants[sid.0].state = SessionState::Done;
        self.active_keys.retain(|_, owner| *owner != sid);
        if let Some(m) = &self.metrics {
            if completed {
                m.completed.inc();
            } else {
                m.aborted.inc();
            }
            m.active.set(self.running_sessions() as i64);
            m.in_flight.set(self.global_in_flight as i64);
        }
        self.admit_waiters(now, effects);
    }

    /// Starts every queued session whose cells are now free, in FIFO order;
    /// a still-blocked waiter keeps blocking later conflicting waiters.
    fn admit_waiters(&mut self, now: Duration, effects: &mut Vec<MuxEffect>) {
        let mut blocked_cells: HashSet<ConflictKey> = HashSet::new();
        let mut admitted = Vec::new();
        let mut still_waiting = VecDeque::new();
        for &sid in &self.waiters {
            let t = &self.tenants[sid.0];
            let free = t
                .keys
                .iter()
                .all(|k| !self.active_keys.contains_key(k) && !blocked_cells.contains(k));
            if free {
                // Claim eagerly so later waiters see the cells as taken.
                for &key in &t.keys {
                    blocked_cells.insert(key);
                }
                admitted.push(sid);
            } else {
                for &key in &t.keys {
                    blocked_cells.insert(key);
                }
                still_waiting.push_back(sid);
            }
        }
        self.waiters = still_waiting;
        if let Some(m) = &self.metrics {
            m.queued.set(self.waiters.len() as i64);
        }
        for sid in admitted {
            self.activate(sid);
            effects.push(MuxEffect::SessionStarted { session: sid });
            self.drive(sid, SessionInput::Started, now, effects);
        }
    }

    // ------------------------------------------------------------------
    // Fair scheduling
    // ------------------------------------------------------------------

    /// Releases staged sends under deficit round-robin: each visit grants a
    /// tenant `quantum` flow-mod credits; flow-mods additionally need a free
    /// slot in the global window; everything else (barriers, echo replies)
    /// rides along at zero cost in FIFO order.  Loops until a full cycle
    /// makes no progress.
    fn pump(&mut self, effects: &mut Vec<MuxEffect>) {
        let n = self.tenants.len();
        if n == 0 {
            return;
        }
        let mut since_progress = 0;
        let mut i = self.rr_cursor % n;
        while since_progress < n {
            if self.service(i, effects) {
                since_progress = 0;
            } else {
                since_progress += 1;
            }
            i = (i + 1) % n;
        }
        self.rr_cursor = i;
    }

    /// One scheduling visit to tenant `idx`; true if anything was released.
    fn service(&mut self, idx: usize, effects: &mut Vec<MuxEffect>) -> bool {
        if self.tenants[idx].staged.is_empty() {
            self.tenants[idx].deficit = 0;
            return false;
        }
        let quantum = self.config.quantum.max(1);
        // Accrue one quantum per visit, capped so a long stall behind the
        // global window cannot bank an unbounded burst.
        self.tenants[idx].deficit =
            (self.tenants[idx].deficit + quantum).min(quantum.saturating_mul(4));
        let mut progressed = false;
        while let Some((_, front)) = self.tenants[idx].staged.front() {
            let is_mod = matches!(front, OfMessage::FlowMod { .. });
            if is_mod
                && (self.tenants[idx].deficit == 0
                    || self.global_in_flight >= self.config.global_window)
            {
                break;
            }
            let (conn, message) = self.tenants[idx].staged.pop_front().expect("front exists");
            if is_mod {
                self.tenants[idx].deficit -= 1;
                if let OfMessage::FlowMod { xid, .. } = &message {
                    let global = u64::from(*xid);
                    let local = global - self.tenants[idx].base;
                    // Only cookies still awaiting a confirmation occupy a
                    // budget slot: NoWait mods confirm at stage time, and
                    // rollback deletes reuse the id of an already-settled
                    // modification.
                    let awaiting = self.tenants[idx]
                        .session
                        .confirmation_times()
                        .get(&local)
                        .is_none()
                        && !self.tenants[idx].session.failed().contains(&local);
                    if awaiting && self.tenants[idx].released_unconfirmed.insert(global) {
                        self.global_in_flight += 1;
                        self.tenants[idx].record_in_flight();
                        if let Some(m) = &self.metrics {
                            m.in_flight.set(self.global_in_flight as i64);
                        }
                    }
                }
            }
            effects.push(MuxEffect::Send { conn, message });
            progressed = true;
        }
        if self.tenants[idx].staged.is_empty() {
            self.tenants[idx].deficit = 0;
        }
        progressed
    }
}

/// The mux behind the transport boundary.  Plans arrive through
/// [`SessionMux::submit`], so [`MachineInput::Started`] means nothing here.
impl Machine for SessionMux {
    type Effect = MuxEffect;

    fn handle(&mut self, now: Duration, input: MachineInput, effects: &mut Vec<MuxEffect>) {
        let input = match input {
            MachineInput::Started => return,
            MachineInput::FromSwitch { conn, message } => MuxInput::FromSwitch { conn, message },
            MachineInput::TimerFired { raw } => MuxInput::TimerFired {
                token: MuxTimerToken::from_raw(raw),
            },
        };
        SessionMux::handle(self, now, input, effects)
    }

    fn lower(&self, effect: MuxEffect) -> MachineEffect {
        match effect {
            MuxEffect::Send { conn, message } => MachineEffect::Send { conn, message },
            MuxEffect::ArmTimer { delay, token } => MachineEffect::ArmTimer {
                delay,
                raw: token.raw(),
            },
            // The wire cookie, so data-plane activation joins (which see
            // wire cookies) line up.
            MuxEffect::Confirmed { session, id } => MachineEffect::Confirmed {
                cookie: self.base(session).unwrap_or(0) + id,
            },
            // Session milestones, rendered for the trace.
            other => MachineEffect::Note {
                terminal: matches!(
                    other,
                    MuxEffect::SessionCompleted { .. } | MuxEffect::SessionAborted { .. }
                ),
                text: format!("{other:?}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use std::net::Ipv4Addr;

    fn m(tenant: u8, i: u8) -> OfMatch {
        OfMatch::ipv4_pair(
            Ipv4Addr::new(10, tenant, 0, i),
            Ipv4Addr::new(10, 200, 0, 1),
        )
    }

    fn plan_of(tenant: u8, n: u8) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(
                u64::from(i) + 1,
                0,
                FlowMod::add(m(tenant, i + 1), 100, vec![Action::output(2)]),
            )
            .unwrap();
        }
        plan
    }

    fn sent_mod_xids(effects: &[MuxEffect]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                MuxEffect::Send {
                    message: OfMessage::FlowMod { xid, .. },
                    ..
                } => Some(u64::from(*xid)),
                _ => None,
            })
            .collect()
    }

    fn ack(mux: &mut SessionMux, global: u64, at_ms: u64) -> Vec<MuxEffect> {
        let mut fx = Vec::new();
        mux.handle(
            Duration::from_millis(at_ms),
            MuxInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::rum_ack(global as Xid),
            },
            &mut fx,
        );
        fx
    }

    fn config() -> MuxConfig {
        MuxConfig {
            session_window: 2,
            global_window: 3,
            quantum: 1,
            ..MuxConfig::default()
        }
    }

    #[test]
    fn namespaces_are_disjoint_and_decoded_back() {
        let mut mux = SessionMux::new(config());
        let mut fx = Vec::new();
        let a = mux.submit(plan_of(1, 2), Duration::ZERO, &mut fx).unwrap();
        let b = mux.submit(plan_of(2, 2), Duration::ZERO, &mut fx).unwrap();
        let base_a = mux.base(a).unwrap();
        let base_b = mux.base(b).unwrap();
        assert_eq!(base_a, 1 << DEFAULT_NAMESPACE_BITS);
        assert_eq!(base_b, 2 << DEFAULT_NAMESPACE_BITS);
        let xids = sent_mod_xids(&fx);
        assert!(xids.contains(&(base_a + 1)), "{xids:?}");
        assert!(xids.contains(&(base_b + 1)), "{xids:?}");
        // Acks route back to the right tenant by namespace alone.
        let fx = ack(&mut mux, base_b + 1, 1);
        assert!(fx
            .iter()
            .any(|e| matches!(e, MuxEffect::Confirmed { session, id: 1 } if *session == b)));
        assert_eq!(mux.session(a).unwrap().confirmed_count(), 0);
        assert_eq!(mux.session(b).unwrap().confirmed_count(), 1);
    }

    #[test]
    fn oversized_plan_ids_are_rejected_typed() {
        let mut mux = SessionMux::new(config());
        let mut plan = UpdatePlan::new();
        let capacity = mux.id_capacity();
        plan.add(capacity, 0, FlowMod::add(m(1, 1), 100, vec![]))
            .unwrap();
        let err = mux
            .submit(plan, Duration::ZERO, &mut Vec::new())
            .unwrap_err();
        assert_eq!(
            err,
            AdmitError::IdOutOfNamespace {
                id: capacity,
                capacity
            }
        );
        assert_eq!(mux.session_count(), 0, "nothing was admitted");
    }

    #[test]
    fn namespace_exhaustion_is_a_typed_error() {
        // 4 bits above the barrier base leave (0x4000_0000 >> 26) - 1 = 15
        // blocks; the 16th submission must fail crisply.
        let mut mux = SessionMux::new(MuxConfig {
            namespace_bits: 26,
            ..config()
        });
        assert_eq!(mux.max_sessions(), 15);
        let mut fx = Vec::new();
        for t in 0..15 {
            mux.submit(plan_of(t, 1), Duration::ZERO, &mut fx).unwrap();
        }
        let err = mux
            .submit(plan_of(101, 1), Duration::ZERO, &mut fx)
            .unwrap_err();
        assert_eq!(err, AdmitError::NamespaceExhausted { max_sessions: 15 });
    }

    #[test]
    fn reject_policy_surfaces_the_conflicting_session() {
        let mut mux = SessionMux::new(MuxConfig {
            conflict_policy: ConflictPolicy::Reject,
            ..config()
        });
        let mut fx = Vec::new();
        let a = mux.submit(plan_of(1, 3), Duration::ZERO, &mut fx).unwrap();
        // Same tenant-1 matches → same (switch, match, priority) cells.
        let err = mux
            .submit(plan_of(1, 2), Duration::ZERO, &mut fx)
            .unwrap_err();
        match err {
            AdmitError::Conflict {
                with,
                target,
                priority,
                ..
            } => {
                assert_eq!(with, a);
                assert_eq!(target, 0);
                assert_eq!(priority, 100);
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
        // Disjoint matches are admitted just fine.
        mux.submit(plan_of(2, 2), Duration::ZERO, &mut fx).unwrap();
    }

    #[test]
    fn serialize_policy_queues_then_starts_in_fifo_order() {
        let mut mux = SessionMux::new(config());
        let mut fx = Vec::new();
        let a = mux.submit(plan_of(1, 2), Duration::ZERO, &mut fx).unwrap();
        let b = mux.submit(plan_of(1, 2), Duration::ZERO, &mut fx).unwrap();
        let c = mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        assert_eq!(mux.state(b), Some(&SessionState::Queued));
        assert_eq!(mux.state(c), Some(&SessionState::Queued));
        assert_eq!(mux.queued_sessions(), 2);
        let base_a = mux.base(a).unwrap();

        // Finish A: B (not C — FIFO, same cells) starts.
        ack(&mut mux, base_a + 1, 1);
        let fx = ack(&mut mux, base_a + 2, 2);
        assert!(fx
            .iter()
            .any(|e| matches!(e, MuxEffect::SessionCompleted { session, .. } if *session == a)));
        assert!(fx
            .iter()
            .any(|e| matches!(e, MuxEffect::SessionStarted { session } if *session == b)));
        assert!(
            !fx.iter()
                .any(|e| matches!(e, MuxEffect::SessionStarted { session } if *session == c)),
            "C must not overtake B"
        );
        assert_eq!(mux.state(b), Some(&SessionState::Running));
        assert_eq!(mux.state(c), Some(&SessionState::Queued));

        // Finish B: C starts.
        let base_b = mux.base(b).unwrap();
        ack(&mut mux, base_b + 1, 3);
        let fx = ack(&mut mux, base_b + 2, 4);
        assert!(fx
            .iter()
            .any(|e| matches!(e, MuxEffect::SessionStarted { session } if *session == c)));
        let base_c = mux.base(c).unwrap();
        ack(&mut mux, base_c + 1, 5);
        assert!(mux.all_done());
    }

    #[test]
    fn global_window_caps_released_mods_across_tenants() {
        // 4 tenants × window 2 = 8 staged mods, but only 3 budget slots.
        let mut mux = SessionMux::new(config());
        let mut fx = Vec::new();
        for t in 0..4 {
            mux.submit(plan_of(t, 4), Duration::ZERO, &mut fx).unwrap();
        }
        assert_eq!(sent_mod_xids(&fx).len(), 3);
        assert_eq!(mux.global_in_flight(), 3);
        // Each confirmation frees exactly one slot.
        let released = sent_mod_xids(&fx);
        let fx = ack(&mut mux, released[0], 1);
        assert_eq!(sent_mod_xids(&fx).len(), 1);
        assert_eq!(mux.global_in_flight(), 3);
    }

    #[test]
    fn round_robin_interleaves_a_large_and_a_small_tenant() {
        // One 8-mod plan and one 2-mod plan, global window 2, quantum 1.
        // The scheduler is work-conserving (the big plan, alone at first,
        // takes both slots), but once both tenants contend, freed slots
        // must rotate: the small tenant finishes well before the big one,
        // instead of waiting for its whole backlog.
        let mut mux = SessionMux::new(MuxConfig {
            session_window: 8,
            global_window: 2,
            quantum: 1,
            ..MuxConfig::default()
        });
        let mut fx = Vec::new();
        let big = mux.submit(plan_of(1, 8), Duration::ZERO, &mut fx).unwrap();
        let small = mux.submit(plan_of(2, 2), Duration::ZERO, &mut fx).unwrap();
        let base_small = mux.base(small).unwrap();
        // Ack strictly in release order and record the release sequence.
        let mut release_order: Vec<u64> = sent_mod_xids(&fx);
        let mut next = 0;
        let mut at = 1;
        while next < release_order.len() {
            let x = release_order[next];
            next += 1;
            let fx = ack(&mut mux, x, at);
            release_order.extend(sent_mod_xids(&fx));
            at += 1;
        }
        assert!(mux.all_done());
        assert!(mux.session(big).unwrap().is_complete());
        assert!(mux.session(small).unwrap().is_complete());
        // Both of small's mods were released before big's last three: the
        // rotation granted small a freed slot while big still had backlog.
        let last_small = release_order
            .iter()
            .rposition(|&x| x >= base_small)
            .expect("small tenant released something");
        assert!(
            release_order.len() - last_small > 3,
            "small tenant starved behind the big plan: {release_order:?}"
        );
    }

    #[test]
    fn barrier_xids_are_translated_per_tenant() {
        let mut mux = SessionMux::new(MuxConfig {
            ack_mode: AckMode::Barriers { batch: 1 },
            session_window: 2,
            global_window: 8,
            ..MuxConfig::default()
        });
        let mut fx = Vec::new();
        let a = mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        let b = mux.submit(plan_of(2, 1), Duration::ZERO, &mut fx).unwrap();
        let barriers: Vec<Xid> = fx
            .iter()
            .filter_map(|e| match e {
                MuxEffect::Send {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert_eq!(barriers.len(), 2);
        assert_ne!(barriers[0], barriers[1], "wire barrier xids must differ");
        // Replying to B's barrier confirms B's mod, not A's.
        let mut fx = Vec::new();
        mux.handle(
            Duration::from_millis(1),
            MuxInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply { xid: barriers[1] },
            },
            &mut fx,
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, MuxEffect::Confirmed { session, id: 1 } if *session == b)));
        assert_eq!(mux.session(a).unwrap().confirmed_count(), 0);
    }

    fn barrier_xids(effects: &[MuxEffect]) -> Vec<Xid> {
        effects
            .iter()
            .filter_map(|e| match e {
                MuxEffect::Send {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect()
    }

    fn barrier_mux() -> SessionMux {
        SessionMux::new(MuxConfig {
            ack_mode: AckMode::Barriers { batch: 1 },
            session_window: 2,
            global_window: 8,
            ..MuxConfig::default()
        })
    }

    /// Past the last controller-barrier xid the mux starts over at the
    /// first, short of the reconciler's readback xids.
    #[test]
    fn wire_barrier_xids_wrap_inside_their_range() {
        let mut mux = barrier_mux();
        mux.next_barrier_xid = RESYNC_READBACK_XID_BASE - 1;
        let mut fx = Vec::new();
        mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        mux.submit(plan_of(2, 1), Duration::ZERO, &mut fx).unwrap();
        assert_eq!(
            barrier_xids(&fx),
            [RESYNC_READBACK_XID_BASE - 1, CONTROLLER_BARRIER_XID_BASE]
        );
    }

    /// After the wrap, the xid of a barrier still awaiting its reply is
    /// skipped, and that reply still confirms the tenant that sent it.
    #[test]
    fn wire_barrier_xid_awaiting_its_reply_is_skipped() {
        let mut mux = barrier_mux();
        let mut fx = Vec::new();
        let a = mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        assert_eq!(barrier_xids(&fx), [CONTROLLER_BARRIER_XID_BASE]);
        mux.next_barrier_xid = RESYNC_READBACK_XID_BASE - 1;
        let mut fx = Vec::new();
        mux.submit(plan_of(2, 1), Duration::ZERO, &mut fx).unwrap();
        mux.submit(plan_of(3, 1), Duration::ZERO, &mut fx).unwrap();
        assert_eq!(
            barrier_xids(&fx),
            [
                RESYNC_READBACK_XID_BASE - 1,
                CONTROLLER_BARRIER_XID_BASE + 1
            ]
        );
        let mut fx = Vec::new();
        mux.handle(
            Duration::from_millis(1),
            MuxInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply {
                    xid: CONTROLLER_BARRIER_XID_BASE,
                },
            },
            &mut fx,
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, MuxEffect::Confirmed { session, id: 1 } if *session == a)));
    }

    #[test]
    fn stray_acks_are_counted_not_misattributed() {
        let mut mux = SessionMux::new(config());
        let mut fx = Vec::new();
        mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        // An ack below every tenant base, and one beyond the last tenant.
        ack(&mut mux, 7, 1);
        ack(&mut mux, 5 << DEFAULT_NAMESPACE_BITS, 2);
        // A barrier reply nobody asked for.
        let mut fx = Vec::new();
        mux.handle(
            Duration::from_millis(3),
            MuxInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::BarrierReply { xid: 0x4000_0007 },
            },
            &mut fx,
        );
        assert_eq!(mux.stray_acks(), 3);
        assert_eq!(mux.session(SessionId(0)).unwrap().confirmed_count(), 0);
    }

    #[test]
    fn metrics_track_admission_and_completion() {
        let registry = Arc::new(Registry::new());
        let mut mux = SessionMux::new(MuxConfig {
            conflict_policy: ConflictPolicy::Serialize,
            ..config()
        });
        mux.attach_metrics(&registry);
        let mut fx = Vec::new();
        let a = mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        mux.submit(plan_of(1, 1), Duration::ZERO, &mut fx).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sessiond.admitted"], 2);
        assert_eq!(snap.counters["sessiond.serialized_conflict"], 1);
        assert_eq!(snap.gauges["sessiond.active"], 1);
        assert_eq!(snap.gauges["sessiond.queued"], 1);
        let base_a = mux.base(a).unwrap();
        ack(&mut mux, base_a + 1, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sessiond.completed"], 1);
        assert_eq!(snap.gauges["sessiond.queued"], 0);
        assert_eq!(snap.counters["sessiond.t0.confirmed"], 1);
        assert!(snap.histograms["sessiond.confirm_latency_us"].count >= 1);
    }

    #[test]
    fn echo_and_hello_are_answered_at_the_mux() {
        let mut mux = SessionMux::new(config());
        let mut fx = Vec::new();
        mux.handle(
            Duration::ZERO,
            MuxInput::FromSwitch {
                conn: ConnId::new(2),
                message: OfMessage::EchoRequest {
                    xid: 9,
                    data: vec![1],
                },
            },
            &mut fx,
        );
        assert!(matches!(
            fx.as_slice(),
            [MuxEffect::Send {
                conn,
                message: OfMessage::EchoReply { xid: 9, .. },
            }] if conn.index() == 2
        ));
    }
}
