//! Declarative resynchronisation: restore wiped switch state after restart.
//!
//! Section 4 of the paper shows that a switch restart silently erases every
//! installed rule while the control channel simply reconnects — the
//! controller's view and the switch's flow table diverge with no error on
//! the wire.  RUM re-issues *unconfirmed* modifications, but rules confirmed
//! *before* the restart are gone for good unless someone remembers them.
//!
//! [`Reconciler`] is that memory plus the repair loop, sans-IO like
//! [`crate::UpdateSession`]:
//!
//! * A [`DesiredStore`] records every rule the controller has confirmed
//!   (plus preinstalled state), keyed by strict OpenFlow identity
//!   `(match, priority)`.  Deletes leave the store; a `FlowRemoved` from an
//!   idle/hard timeout evicts the aged-out rule so resync never resurrects
//!   it.
//! * On [`ResyncInput::SwitchReconnected`] — once the main update session
//!   has settled ([`ResyncInput::SessionSettled`]) so the two never race —
//!   the reconciler reads the switch's flow table back with a wildcard
//!   flow-stats request (reassembling multipart fragments via
//!   [`FlowStatsAccumulator`]), diffs actual against desired, and re-issues
//!   the delta through a normal acknowledged [`crate::UpdateSession`]:
//!   missing or mismatched rules become adds under their original cookies
//!   (so the RUM proxy re-probes and re-acks them), stray rules become
//!   strict deletes verified by the *next* readback rather than by an ack.
//! * It re-reads until a readback shows zero difference (convergence) or
//!   [`ResyncConfig::max_rounds`] is exhausted.  Lost stats replies are
//!   re-requested and successive rounds are paced by the shared
//!   [`BackoffPolicy`] — bounded exponential with deterministic jitter, so
//!   both drivers replay the identical schedule for a given seed.
//!
//! Everything observable is deterministic: the per-round [`ResyncRound`]
//! trace is compared cell-for-cell across the simulator and TCP drivers in
//! the `restart_resync` scenario.

use crate::backoff::BackoffPolicy;
use crate::plan::{SwitchRef, UpdatePlan};
use crate::session::{
    AckMode, ConnId, FailurePolicy, SessionEffect, SessionInput, SessionTimerToken, UpdateSession,
};
use openflow::messages::{
    FlowMod, FlowModCommand, FlowRemoved, FlowStatsAccumulator, FlowStatsEntry, StatsReply,
    StatsRequest,
};
use openflow::types::{
    take_xid_in, PROXY_XID_BASE, RESYNC_DELETE_XID_BASE, RESYNC_READBACK_XID_BASE,
};
use openflow::{constants::port, OfMatch, OfMessage, Xid};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{AtomicHistogram, Counter, Gauge, Registry};

/// All reconciler timer tokens are `>= RESYNC_TIMER_BASE`; session timer
/// tokens are small sequence numbers, so [`crate::SessionMachine`] routes a
/// fired timer by magnitude alone.
pub const RESYNC_TIMER_BASE: u64 = 1 << 32;

/// Backoff key salt for readback re-requests (mixed with the switch ref).
const READBACK_BACKOFF_KEY: u64 = 0x5EAD_BACC;

/// Backoff key salt for inter-round pacing (mixed with the switch ref).
const ROUND_BACKOFF_KEY: u64 = 0x0F01_10D5;

/// Readback re-requests per round before the switch is declared lost.
const MAX_READBACK_ATTEMPTS: u32 = 32;

/// Everything the reconciler wants observed, under `resync.*`.
#[derive(Debug)]
struct ResyncMetrics {
    rounds: Arc<Counter>,
    delta_mods: Arc<Counter>,
    re_requests: Arc<Counter>,
    converged: Arc<Gauge>,
    final_diff: Arc<Gauge>,
    time_to_convergence_us: Arc<AtomicHistogram>,
}

impl ResyncMetrics {
    fn new(registry: &Registry) -> Self {
        ResyncMetrics {
            rounds: registry.counter("resync.rounds"),
            delta_mods: registry.counter("resync.delta_mods"),
            re_requests: registry.counter("resync.re_requests"),
            converged: registry.gauge("resync.converged"),
            final_diff: registry.gauge("resync.final_diff"),
            time_to_convergence_us: registry.histogram("resync.time_to_convergence_us"),
        }
    }
}

/// The controller's declarative view of what each switch's flow table
/// should contain, keyed by strict OpenFlow identity `(match, priority)`.
///
/// Confirmed adds join the store, confirmed deletes leave it, and a
/// `FlowRemoved` (idle or hard timeout) evicts the aged-out rule so a later
/// resync never resurrects state the network already retired.
#[derive(Debug, Clone, Default)]
pub struct DesiredStore {
    rules: HashMap<SwitchRef, HashMap<(OfMatch, u16), FlowMod>>,
}

impl DesiredStore {
    /// An empty store.
    pub fn new() -> Self {
        DesiredStore::default()
    }

    /// Records a *confirmed* flow modification against `switch`, applying
    /// the command's own semantics: adds and modifies upsert the strict
    /// `(match, priority)` slot (stored normalised to an `Add` so it can be
    /// re-issued verbatim), a strict delete clears that slot, and a loose
    /// delete clears every slot whose match it covers (priority ignored,
    /// per OpenFlow 1.0 loose-delete semantics).
    pub fn note_confirmed(&mut self, switch: SwitchRef, flow_mod: &FlowMod) {
        let table = self.rules.entry(switch).or_default();
        match flow_mod.command {
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let mut stored = flow_mod.clone();
                stored.command = FlowModCommand::Add;
                stored.buffer_id = openflow::constants::NO_BUFFER;
                table.insert((flow_mod.match_, flow_mod.priority), stored);
            }
            FlowModCommand::DeleteStrict => {
                table.remove(&(flow_mod.match_, flow_mod.priority));
            }
            FlowModCommand::Delete => {
                table.retain(|(m, _), _| !flow_mod.match_.covers(m));
            }
        }
    }

    /// Evicts the rule a `FlowRemoved` message names (strict identity).
    /// Called for idle/hard-timeout expiries so resync chases the switch's
    /// view of time, not a stale snapshot.
    pub fn note_flow_removed(&mut self, switch: SwitchRef, body: &FlowRemoved) {
        if let Some(table) = self.rules.get_mut(&switch) {
            table.remove(&(body.match_, body.priority));
        }
    }

    /// Number of desired rules for `switch`.
    pub fn len(&self, switch: SwitchRef) -> usize {
        self.rules.get(&switch).map_or(0, HashMap::len)
    }

    /// True if no switch has any desired rule.
    pub fn is_empty(&self) -> bool {
        self.rules.values().all(HashMap::is_empty)
    }

    /// Desired rules for `switch`, in unspecified order.
    pub fn rules(&self, switch: SwitchRef) -> impl Iterator<Item = &FlowMod> {
        self.rules
            .get(&switch)
            .into_iter()
            .flat_map(HashMap::values)
    }

    /// The desired rule at strict identity `(match, priority)`, if any.
    pub fn get(&self, switch: SwitchRef, match_: &OfMatch, priority: u16) -> Option<&FlowMod> {
        self.rules.get(&switch)?.get(&(*match_, priority))
    }

    fn table(&self, switch: SwitchRef) -> Option<&HashMap<(OfMatch, u16), FlowMod>> {
        self.rules.get(&switch)
    }
}

/// Per-round observation, recorded after every completed readback.  These
/// traces must be cell-for-cell identical across drivers for a given seed —
/// that equality is the `restart_resync` scenario's cross-driver proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncRound {
    /// 1-based round number.
    pub round: u32,
    /// Rules read back from the switch (RUM-owned rules filtered out).
    pub actual: usize,
    /// Desired rules absent from the readback.
    pub missing: usize,
    /// Rules present under the right `(match, priority)` but with the wrong
    /// cookie or actions.
    pub mismatched: usize,
    /// Read-back rules the desired store does not contain.
    pub stray: usize,
    /// Stats re-requests this round (readback replies lost to faults).
    pub re_requests: u32,
}

impl ResyncRound {
    /// Total difference between actual and desired this round.
    pub fn diff(&self) -> usize {
        self.missing + self.mismatched + self.stray
    }
}

/// Terminal-and-progress summary for one switch's resync.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResyncStatus {
    /// Completed readback rounds.
    pub rounds: u32,
    /// True once a readback matched the desired store exactly.
    pub converged: bool,
    /// Difference observed by the most recent readback (0 when converged).
    pub final_diff: usize,
    /// Total readback re-requests across all rounds.
    pub re_requests: u32,
    /// Total delta modifications issued (re-adds plus stray deletes).
    pub delta_mods: u64,
    /// When the resync started (driver epoch).
    pub started_at: Option<Duration>,
    /// When convergence was observed (driver epoch).
    pub converged_at: Option<Duration>,
}

/// Tunables for the reconciliation loop.
#[derive(Debug, Clone, Copy)]
pub struct ResyncConfig {
    /// Schedule shared by readback re-requests and inter-round pacing:
    /// attempt/round `n` waits `backoff.delay(key, n)`, bounded by the cap.
    pub backoff: BackoffPolicy,
    /// Readback rounds before giving up on a switch.
    pub max_rounds: u32,
    /// Acknowledgment mode for delta update sessions.
    pub ack_mode: AckMode,
    /// Outstanding-modification window for delta update sessions.
    pub window: usize,
    /// Failure policy for delta update sessions.
    pub failure_policy: FailurePolicy,
}

impl Default for ResyncConfig {
    fn default() -> Self {
        ResyncConfig {
            backoff: BackoffPolicy::new(Duration::from_millis(100), Duration::from_millis(1600)),
            max_rounds: 8,
            ack_mode: AckMode::RumAcks,
            window: 16,
            failure_policy: FailurePolicy::retry(Duration::from_millis(100), 3),
        }
    }
}

/// Everything a driver can feed into the reconciler.
#[derive(Debug, Clone, PartialEq)]
pub enum ResyncInput {
    /// The switch behind `conn` reconnected — its table may be wiped.
    /// Resync starts once the main session has also settled.
    SwitchReconnected {
        /// The connection that reconnected (index == plan `SwitchRef`).
        conn: ConnId,
    },
    /// The main update session reached its outcome (completed or aborted);
    /// pending reconnects may now be reconciled without racing it.
    SessionSettled,
    /// The switch behind `conn` sent `message`.  Drivers forward every
    /// switch message; the reconciler picks out what concerns it (stats
    /// replies, flow-removed notifications, delta-session acknowledgments)
    /// and ignores the rest.
    FromSwitch {
        /// The connection that carried the message.
        conn: ConnId,
        /// The decoded message.
        message: OfMessage,
    },
    /// A timer previously requested via [`ResyncEffect::ArmTimer`] expired.
    TimerFired {
        /// The token from the arming effect (always `>= RESYNC_TIMER_BASE`).
        token: u64,
    },
}

/// Everything the reconciler can ask a driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum ResyncEffect {
    /// Send `message` on switch connection `conn`.
    Send {
        /// The destination connection.
        conn: ConnId,
        /// The message to send.
        message: OfMessage,
    },
    /// Arm a timer: feed [`ResyncInput::TimerFired`] with `token` back
    /// after `delay`.
    ArmTimer {
        /// How long to wait.
        delay: Duration,
        /// Token identifying the timer (always `>= RESYNC_TIMER_BASE`).
        token: u64,
    },
    /// A readback matched the desired store exactly; this switch is done.
    Converged {
        /// The reconciled switch's connection.
        conn: ConnId,
        /// Rounds it took.
        rounds: u32,
        /// Time (driver epoch) of the converging readback.
        at: Duration,
    },
    /// `max_rounds` (or the readback re-request bound) was exhausted with a
    /// nonzero difference remaining.
    GaveUp {
        /// The unreconciled switch's connection.
        conn: ConnId,
        /// Rounds completed before giving up.
        rounds: u32,
        /// Difference observed by the last completed readback.
        final_diff: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Nothing to do (no reconnect observed, or resync finished).
    #[default]
    Idle,
    /// A flow-stats readback is outstanding.
    Readback,
    /// A delta update session is executing.
    Delta,
    /// Waiting out the inter-round backoff before the next readback.
    Waiting,
    /// Converged or gave up; terminal until the next reconnect.
    Done,
}

#[derive(Debug, Clone, Copy)]
enum TimerPurpose {
    /// The readback with this xid was not answered in time.
    ReadbackTimeout { switch: SwitchRef, xid: Xid },
    /// The inter-round pause elapsed; start the next readback.
    NextRound { switch: SwitchRef },
    /// A delta-session timer, wrapped so its token lands in the resync
    /// namespace; `inner` is the session's own token.
    Delta { switch: SwitchRef, inner: u64 },
}

#[derive(Debug, Default)]
struct SwitchState {
    /// Reconnect seen but resync not yet started (gate not open).
    reconnect_pending: bool,
    phase: Phase,
    /// 1-based current round (incremented when its readback is issued).
    round: u32,
    readback_attempt: u32,
    round_re_requests: u32,
    current_xid: Option<Xid>,
    acc: FlowStatsAccumulator,
    delta: Option<UpdateSession>,
    status: ResyncStatus,
    trace: Vec<ResyncRound>,
}

/// The sans-IO reconciliation engine.  Drivers feed [`ResyncInput`]s with
/// the current time and execute the returned [`ResyncEffect`]s; both the
/// simulator and the TCP prototype drive this same state machine.
#[derive(Debug)]
pub struct Reconciler {
    config: ResyncConfig,
    store: DesiredStore,
    switches: HashMap<SwitchRef, SwitchState>,
    session_settled: bool,
    next_xid: Xid,
    next_delete_xid: Xid,
    next_token: u64,
    timers: HashMap<u64, TimerPurpose>,
    metrics: Option<ResyncMetrics>,
}

impl Reconciler {
    /// Creates a reconciler with an empty desired store.
    pub fn new(config: ResyncConfig) -> Self {
        Reconciler {
            config,
            store: DesiredStore::new(),
            switches: HashMap::new(),
            session_settled: false,
            next_xid: RESYNC_READBACK_XID_BASE,
            next_delete_xid: RESYNC_DELETE_XID_BASE,
            next_token: RESYNC_TIMER_BASE,
            timers: HashMap::new(),
            metrics: None,
        }
    }

    /// Publishes progress into `registry` under `resync.*`: rounds, delta
    /// modifications, stats re-requests, the converged-switch and
    /// total-final-diff gauges and the time-to-convergence histogram.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(ResyncMetrics::new(registry));
    }

    /// The desired store (read side).
    pub fn store(&self) -> &DesiredStore {
        &self.store
    }

    /// The desired store (write side) — drivers upsert confirmed rules and
    /// preinstalled state here.
    pub fn store_mut(&mut self) -> &mut DesiredStore {
        &mut self.store
    }

    /// Resync progress for `switch`, if one was ever observed.
    pub fn status(&self, switch: SwitchRef) -> Option<&ResyncStatus> {
        self.switches.get(&switch).map(|s| &s.status)
    }

    /// Per-round trace for `switch` (the cross-driver comparison artifact).
    pub fn trace(&self, switch: SwitchRef) -> &[ResyncRound] {
        self.switches.get(&switch).map_or(&[], |s| &s.trace)
    }

    /// True while any switch's resync is between start and terminal state.
    pub fn active(&self) -> bool {
        self.switches
            .values()
            .any(|s| matches!(s.phase, Phase::Readback | Phase::Delta | Phase::Waiting))
    }

    /// Number of switches whose latest resync converged.
    pub fn converged_count(&self) -> usize {
        self.switches
            .values()
            .filter(|s| s.status.converged)
            .count()
    }

    /// Number of switches whose latest resync reached a terminal state
    /// (converged or gave up) — what a driver waits on.
    pub fn terminal_count(&self) -> usize {
        self.switches
            .values()
            .filter(|s| s.phase == Phase::Done)
            .count()
    }

    /// Feeds one input, returns the effects the driver must execute.
    pub fn handle(&mut self, now: Duration, input: ResyncInput) -> Vec<ResyncEffect> {
        let mut effects = Vec::new();
        match input {
            ResyncInput::SwitchReconnected { conn } => {
                let switch = conn.index();
                let state = self.switches.entry(switch).or_default();
                match state.phase {
                    // Already mid-resync: the loop re-reads until the table
                    // matches, so a second wipe is caught by construction.
                    Phase::Readback | Phase::Delta | Phase::Waiting => {}
                    Phase::Idle | Phase::Done => {
                        state.reconnect_pending = true;
                        if self.session_settled {
                            self.start(now, switch, &mut effects);
                        }
                    }
                }
            }
            ResyncInput::SessionSettled => {
                self.session_settled = true;
                let pending: Vec<SwitchRef> = self
                    .switches
                    .iter()
                    .filter(|(_, s)| s.reconnect_pending)
                    .map(|(&r, _)| r)
                    .collect();
                for switch in pending {
                    self.start(now, switch, &mut effects);
                }
            }
            ResyncInput::FromSwitch { conn, message } => {
                self.on_from_switch(now, conn, message, &mut effects);
            }
            ResyncInput::TimerFired { token } => {
                if let Some(purpose) = self.timers.remove(&token) {
                    self.on_timer(now, purpose, &mut effects);
                }
            }
        }
        effects
    }

    /// Opens a fresh resync for `switch` (gate already checked).
    fn start(&mut self, now: Duration, switch: SwitchRef, effects: &mut Vec<ResyncEffect>) {
        let state = self.switches.get_mut(&switch).expect("state exists");
        state.reconnect_pending = false;
        state.round = 0;
        state.trace.clear();
        state.delta = None;
        state.status = ResyncStatus {
            started_at: Some(now),
            ..ResyncStatus::default()
        };
        self.publish_gauges();
        self.begin_readback(now, switch, effects);
    }

    /// Starts round `round + 1`: a fresh wildcard flow-stats readback.
    fn begin_readback(
        &mut self,
        now: Duration,
        switch: SwitchRef,
        effects: &mut Vec<ResyncEffect>,
    ) {
        let max_rounds = self.config.max_rounds;
        let state = self.switches.get_mut(&switch).expect("state exists");
        if state.round >= max_rounds {
            let rounds = state.round;
            let final_diff = state.status.final_diff;
            state.phase = Phase::Done;
            self.publish_gauges();
            effects.push(ResyncEffect::GaveUp {
                conn: ConnId::new(switch),
                rounds,
                final_diff,
            });
            return;
        }
        state.round += 1;
        state.phase = Phase::Readback;
        state.readback_attempt = 0;
        state.round_re_requests = 0;
        self.send_readback(now, switch, effects);
    }

    /// Issues the flow-stats request for the current round/attempt and arms
    /// its backed-off timeout.
    fn send_readback(
        &mut self,
        _now: Duration,
        switch: SwitchRef,
        effects: &mut Vec<ResyncEffect>,
    ) {
        // A fresh xid per (re-)request, so a straggler reply to a superseded
        // request is never mistaken for the current one.  A switch awaits
        // only its current xid and replies match per connection, so the
        // wrap needs no skip.
        let xid = take_xid_in(
            &mut self.next_xid,
            RESYNC_READBACK_XID_BASE..RESYNC_DELETE_XID_BASE,
        );
        let state = self.switches.get_mut(&switch).expect("state exists");
        state.current_xid = Some(xid);
        state.acc.reset();
        let attempt = state.readback_attempt;
        effects.push(ResyncEffect::Send {
            conn: ConnId::new(switch),
            message: OfMessage::StatsRequest {
                xid,
                body: StatsRequest::Flow {
                    match_: OfMatch::wildcard_all(),
                    table_id: 0xff,
                    out_port: port::NONE,
                },
            },
        });
        let delay = self
            .config
            .backoff
            .delay(switch as u64 ^ READBACK_BACKOFF_KEY, attempt);
        let token = self.alloc_timer(TimerPurpose::ReadbackTimeout { switch, xid });
        effects.push(ResyncEffect::ArmTimer { delay, token });
    }

    fn alloc_timer(&mut self, purpose: TimerPurpose) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, purpose);
        token
    }

    fn on_timer(&mut self, now: Duration, purpose: TimerPurpose, effects: &mut Vec<ResyncEffect>) {
        match purpose {
            TimerPurpose::ReadbackTimeout { switch, xid } => {
                let Some(state) = self.switches.get_mut(&switch) else {
                    return;
                };
                // Only the timeout of the *current* readback matters; a
                // reply (or a newer re-request) orphans older timers.
                if state.phase != Phase::Readback || state.current_xid != Some(xid) {
                    return;
                }
                state.readback_attempt += 1;
                if state.readback_attempt >= MAX_READBACK_ATTEMPTS {
                    let rounds = state.round;
                    let final_diff = state.status.final_diff;
                    state.phase = Phase::Done;
                    self.publish_gauges();
                    effects.push(ResyncEffect::GaveUp {
                        conn: ConnId::new(switch),
                        rounds,
                        final_diff,
                    });
                    return;
                }
                state.round_re_requests += 1;
                state.status.re_requests += 1;
                if let Some(m) = &self.metrics {
                    m.re_requests.inc();
                }
                self.send_readback(now, switch, effects);
            }
            TimerPurpose::NextRound { switch } => {
                let Some(state) = self.switches.get_mut(&switch) else {
                    return;
                };
                if state.phase != Phase::Waiting {
                    return;
                }
                self.begin_readback(now, switch, effects);
            }
            TimerPurpose::Delta { switch, inner } => {
                self.route_delta(
                    now,
                    switch,
                    SessionInput::TimerFired {
                        token: SessionTimerToken::from_raw(inner),
                    },
                    effects,
                );
            }
        }
    }

    fn on_from_switch(
        &mut self,
        now: Duration,
        conn: ConnId,
        message: OfMessage,
        effects: &mut Vec<ResyncEffect>,
    ) {
        let switch = conn.index();
        // Aging applies whether or not a resync is running: an expired rule
        // must never be resurrected by a later reconciliation.
        if let OfMessage::FlowRemoved { ref body, .. } = message {
            self.store.note_flow_removed(switch, body);
            return;
        }
        let Some(state) = self.switches.get_mut(&switch) else {
            return;
        };
        match (state.phase, &message) {
            (Phase::Readback, OfMessage::StatsReply { xid, more, body }) => {
                if state.current_xid != Some(*xid) {
                    return; // straggler from a superseded request
                }
                let StatsReply::Flow(entries) = body else {
                    return;
                };
                if let Some(complete) = state.acc.push(*xid, *more, entries.clone()) {
                    state.current_xid = None;
                    self.finish_readback(now, switch, complete, effects);
                }
            }
            (Phase::Delta, _) => {
                self.route_delta(
                    now,
                    switch,
                    SessionInput::FromSwitch { conn, message },
                    effects,
                );
            }
            _ => {}
        }
    }

    /// A complete (defragmented) readback arrived: diff it against the
    /// desired store and either converge or issue the repair delta.
    fn finish_readback(
        &mut self,
        now: Duration,
        switch: SwitchRef,
        entries: Vec<FlowStatsEntry>,
        effects: &mut Vec<ResyncEffect>,
    ) {
        // The switch's controller-owned table view, strict identity keyed.
        let mut actual: HashMap<(OfMatch, u16), &FlowStatsEntry> = HashMap::new();
        for entry in &entries {
            if entry.cookie >= u64::from(PROXY_XID_BASE) {
                continue; // RUM probe/catch rules belong to the proxy
            }
            actual.insert((entry.match_, entry.priority), entry);
        }

        let empty = HashMap::new();
        let desired = self.store.table(switch).unwrap_or(&empty);

        let mut missing: Vec<&FlowMod> = Vec::new();
        let mut mismatched: Vec<&FlowMod> = Vec::new();
        for (key, want) in desired {
            match actual.get(key) {
                None => missing.push(want),
                Some(have) => {
                    if have.cookie != want.cookie || have.actions != want.actions {
                        mismatched.push(want);
                    }
                }
            }
        }
        let stray: Vec<(OfMatch, u16)> = actual
            .keys()
            .filter(|key| !desired.contains_key(*key))
            .copied()
            .collect();

        let state = self.switches.get_mut(&switch).expect("state exists");
        let round = ResyncRound {
            round: state.round,
            actual: actual.len(),
            missing: missing.len(),
            mismatched: mismatched.len(),
            stray: stray.len(),
            re_requests: state.round_re_requests,
        };
        let diff = round.diff();
        state.trace.push(round);
        state.status.rounds = state.round;
        state.status.final_diff = diff;
        if let Some(m) = &self.metrics {
            m.rounds.inc();
        }

        if diff == 0 {
            state.phase = Phase::Done;
            state.status.converged = true;
            state.status.converged_at = Some(now);
            let rounds = state.round;
            let elapsed = state
                .status
                .started_at
                .map_or(Duration::ZERO, |t0| now.saturating_sub(t0));
            if let Some(m) = &self.metrics {
                m.time_to_convergence_us.record(elapsed.as_micros() as u64);
            }
            self.publish_gauges();
            effects.push(ResyncEffect::Converged {
                conn: ConnId::new(switch),
                rounds,
                at: now,
            });
            return;
        }

        // Build the repair delta.  Re-adds go through a normal acknowledged
        // update session under their original cookies, so the RUM proxy
        // re-probes each rule and the controller gets a genuine positive
        // acknowledgment.  Stray deletes have no probe-able effect, so they
        // are sent directly and verified by the next readback instead.
        let repairs: Vec<FlowMod> = missing.into_iter().chain(mismatched).cloned().collect();
        let delete_count = stray.len() as u64;
        for (match_, priority) in stray {
            let xid = take_xid_in(
                &mut self.next_delete_xid,
                RESYNC_DELETE_XID_BASE..PROXY_XID_BASE,
            );
            effects.push(ResyncEffect::Send {
                conn: ConnId::new(switch),
                message: OfMessage::FlowMod {
                    xid,
                    body: FlowMod::delete_strict(match_, priority),
                },
            });
        }

        let mut plan = UpdatePlan::new();
        for fm in repairs {
            // Session ids double as cookies, so two desired rules sharing a
            // cookie cannot ride one plan.  Installing under a substitute
            // cookie would just read back as mismatched, so defer the
            // duplicate instead: the next round rediscovers it as missing
            // and repairs it cookie-faithfully on its own.
            let _ = plan.add(fm.cookie, switch, fm);
        }

        let state = self.switches.get_mut(&switch).expect("state exists");
        let delta_len = plan.len() as u64 + delete_count;
        state.status.delta_mods += delta_len;
        if let Some(m) = &self.metrics {
            m.delta_mods.add(delta_len);
        }
        self.publish_gauges();

        if plan.is_empty() {
            self.wait_next_round(switch, effects);
        } else {
            let mut session = UpdateSession::new(plan, self.config.ack_mode, self.config.window);
            session.set_failure_policy(self.config.failure_policy);
            // A repair's inverse is damage: rolling back a timed-out re-add
            // would delete the very rule this round just restored, and the
            // next readback corrects any over-application anyway.
            session.set_rollback_on_abort(false);
            let state = self.switches.get_mut(&switch).expect("state exists");
            state.phase = Phase::Delta;
            state.delta = Some(session);
            self.route_delta(now, switch, SessionInput::Started, effects);
        }
    }

    /// Arms the backed-off pause before the next readback round.
    fn wait_next_round(&mut self, switch: SwitchRef, effects: &mut Vec<ResyncEffect>) {
        let state = self.switches.get_mut(&switch).expect("state exists");
        state.phase = Phase::Waiting;
        let delay = self
            .config
            .backoff
            .delay(switch as u64 ^ ROUND_BACKOFF_KEY, state.round);
        let token = self.alloc_timer(TimerPurpose::NextRound { switch });
        effects.push(ResyncEffect::ArmTimer { delay, token });
    }

    /// Feeds `input` to the delta session and translates its effects.
    fn route_delta(
        &mut self,
        now: Duration,
        switch: SwitchRef,
        input: SessionInput,
        effects: &mut Vec<ResyncEffect>,
    ) {
        let Some(state) = self.switches.get_mut(&switch) else {
            return;
        };
        let Some(session) = state.delta.as_mut() else {
            return;
        };
        let session_effects = session.handle(now, input);
        let mut settled = false;
        for effect in session_effects {
            match effect {
                SessionEffect::Send { conn, message } => {
                    effects.push(ResyncEffect::Send { conn, message });
                }
                SessionEffect::ArmTimer { delay, token } => {
                    let outer = self.alloc_timer(TimerPurpose::Delta {
                        switch,
                        inner: token.raw(),
                    });
                    effects.push(ResyncEffect::ArmTimer {
                        delay,
                        token: outer,
                    });
                }
                // A re-add confirmation changes nothing in the store (the
                // rule is already desired); rejections and per-mod details
                // are visible through the session until it is dropped.
                SessionEffect::Confirmed { .. } | SessionEffect::Rejected { .. } => {}
                // Either way the round is over; the next readback decides
                // whether the repair took.
                SessionEffect::Completed { .. } | SessionEffect::Aborted { .. } => {
                    settled = true;
                }
            }
        }
        if settled {
            let state = self.switches.get_mut(&switch).expect("state exists");
            state.delta = None;
            self.wait_next_round(switch, effects);
        }
    }

    /// Mirrors converged/final-diff into their gauges, when metrics are on.
    fn publish_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.converged.set(self.converged_count() as i64);
            let total_diff: usize = self
                .switches
                .values()
                .map(|s| {
                    if s.status.converged {
                        0
                    } else {
                        s.status.final_diff
                    }
                })
                .sum();
            m.final_diff.set(total_diff as i64);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::machine::is_resync_token;
    use openflow::actions::Action;

    pub(crate) fn rule(priority: u16, cookie: u64) -> FlowMod {
        let mut fm = FlowMod::add(
            OfMatch::wildcard_all(),
            priority,
            vec![Action::Output {
                port: 1,
                max_len: 0,
            }],
        );
        fm.cookie = cookie;
        fm
    }

    pub(crate) fn stats_entry(fm: &FlowMod) -> FlowStatsEntry {
        FlowStatsEntry {
            table_id: 0,
            match_: fm.match_,
            duration_sec: 0,
            duration_nsec: 0,
            priority: fm.priority,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            cookie: fm.cookie,
            packet_count: 0,
            byte_count: 0,
            actions: fm.actions.clone(),
        }
    }

    pub(crate) fn flow_reply(xid: Xid, more: bool, entries: Vec<FlowStatsEntry>) -> OfMessage {
        OfMessage::StatsReply {
            xid,
            more,
            body: StatsReply::Flow(entries),
        }
    }

    fn config() -> ResyncConfig {
        ResyncConfig {
            backoff: BackoffPolicy::new(Duration::from_millis(100), Duration::from_millis(800)),
            max_rounds: 4,
            ack_mode: AckMode::RumAcks,
            window: 16,
            failure_policy: FailurePolicy::disabled(),
        }
    }

    fn sent_stats_xid(effects: &[ResyncEffect]) -> Option<Xid> {
        effects.iter().find_map(|e| match e {
            ResyncEffect::Send {
                message: OfMessage::StatsRequest { xid, .. },
                ..
            } => Some(*xid),
            _ => None,
        })
    }

    fn armed_timers(effects: &[ResyncEffect]) -> Vec<(Duration, u64)> {
        effects
            .iter()
            .filter_map(|e| match e {
                ResyncEffect::ArmTimer { delay, token } => Some((*delay, *token)),
                _ => None,
            })
            .collect()
    }

    fn sent_flow_mod_ids(effects: &[ResyncEffect]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                ResyncEffect::Send {
                    message: OfMessage::FlowMod { body, .. },
                    ..
                } => Some(body.cookie),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn desired_store_tracks_rule_lifecycle() {
        let mut store = DesiredStore::new();
        store.note_confirmed(0, &rule(100, 1));
        store.note_confirmed(0, &rule(200, 2));
        assert_eq!(store.len(0), 2);

        // Strict delete removes exactly one identity.
        store.note_confirmed(0, &FlowMod::delete_strict(OfMatch::wildcard_all(), 100));
        assert_eq!(store.len(0), 1);
        assert!(store.get(0, &OfMatch::wildcard_all(), 200).is_some());

        // A FlowRemoved (aged-out rule) evicts its identity too.
        let removed = FlowRemoved {
            match_: OfMatch::wildcard_all(),
            cookie: 2,
            priority: 200,
            reason: openflow::constants::flow_removed_reason::IDLE_TIMEOUT,
            duration_sec: 1,
            duration_nsec: 0,
            idle_timeout: 1,
            packet_count: 0,
            byte_count: 0,
        };
        store.note_flow_removed(0, &removed);
        assert!(store.is_empty());
    }

    #[test]
    fn desired_store_loose_delete_covers() {
        let mut store = DesiredStore::new();
        store.note_confirmed(0, &rule(100, 1));
        store.note_confirmed(0, &rule(200, 2));
        // A wildcard-all loose delete covers everything regardless of
        // priority.
        store.note_confirmed(0, &FlowMod::delete(OfMatch::wildcard_all()));
        assert!(store.is_empty());
    }

    #[test]
    fn gate_requires_both_reconnect_and_settled_session() {
        let mut r = Reconciler::new(config());
        r.store_mut().note_confirmed(0, &rule(100, 1));

        // Reconnect alone: nothing (main session still running).
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        assert!(fx.is_empty());

        // Session settles: readback starts.
        let fx = r.handle(Duration::from_millis(1), ResyncInput::SessionSettled);
        assert_eq!(sent_stats_xid(&fx), Some(RESYNC_READBACK_XID_BASE));
        assert_eq!(armed_timers(&fx).len(), 1);
    }

    #[test]
    fn gate_is_order_independent() {
        let mut r = Reconciler::new(config());
        r.store_mut().note_confirmed(0, &rule(100, 1));
        assert!(r
            .handle(Duration::ZERO, ResyncInput::SessionSettled)
            .is_empty());
        let fx = r.handle(
            Duration::from_millis(1),
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        assert_eq!(sent_stats_xid(&fx), Some(RESYNC_READBACK_XID_BASE));
    }

    #[test]
    fn converges_in_two_rounds_after_wipe() {
        let mut r = Reconciler::new(config());
        let a = rule(100, 1);
        let b = rule(200, 2);
        r.store_mut().note_confirmed(0, &a);
        r.store_mut().note_confirmed(0, &b);
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid = sent_stats_xid(&fx).expect("readback sent");

        // Round 1: the wiped switch reports an empty table → both rules
        // are re-issued through the delta session.
        let fx = r.handle(
            Duration::from_millis(5),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, false, Vec::new()),
            },
        );
        let mut ids = sent_flow_mod_ids(&fx);
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);

        // Acknowledge both (RUM acks echo the modification id).
        let fx1 = r.handle(
            Duration::from_millis(6),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::rum_ack(1),
            },
        );
        assert!(armed_timers(&fx1).is_empty());
        let fx2 = r.handle(
            Duration::from_millis(7),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::rum_ack(2),
            },
        );
        // Delta complete → inter-round pause armed.
        let timers = armed_timers(&fx2);
        assert_eq!(timers.len(), 1);

        // Round 2: pause elapses, second readback goes out.
        let fx = r.handle(
            Duration::from_millis(200),
            ResyncInput::TimerFired { token: timers[0].1 },
        );
        let xid2 = sent_stats_xid(&fx).expect("second readback");
        assert!(xid2 > xid);

        // The table now matches → converged.
        let fx = r.handle(
            Duration::from_millis(210),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid2, false, vec![stats_entry(&a), stats_entry(&b)]),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ResyncEffect::Converged { rounds: 2, .. })));

        let status = r.status(0).unwrap();
        assert!(status.converged);
        assert_eq!(status.rounds, 2);
        assert_eq!(status.final_diff, 0);
        assert_eq!(status.delta_mods, 2);
        let trace = r.trace(0);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].missing, 2);
        assert_eq!(trace[0].actual, 0);
        assert_eq!(trace[1].diff(), 0);
    }

    /// Regression (satellite): a stats reply lost to a fault triggers
    /// exactly one backed-off re-request — a fresh xid, armed with the
    /// attempt-1 delay, and the stale reply is ignored if it shows up late.
    #[test]
    fn lost_stats_reply_triggers_one_backed_off_re_request() {
        let cfg = config();
        let mut r = Reconciler::new(cfg);
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid0 = sent_stats_xid(&fx).expect("first readback");
        let timers = armed_timers(&fx);
        assert_eq!(timers.len(), 1);
        assert_eq!(timers[0].0, cfg.backoff.delay(READBACK_BACKOFF_KEY, 0));

        // The reply was dropped; the timeout fires.
        let fx = r.handle(
            Duration::from_millis(100),
            ResyncInput::TimerFired { token: timers[0].1 },
        );
        let xid1 = sent_stats_xid(&fx).expect("re-request");
        assert_eq!(xid1, xid0 + 1);
        let re_timers = armed_timers(&fx);
        assert_eq!(re_timers.len(), 1, "exactly one re-request armed");
        assert_eq!(
            re_timers[0].0,
            cfg.backoff.delay(READBACK_BACKOFF_KEY, 1),
            "second attempt waits the backed-off (attempt 1) delay"
        );
        assert_eq!(r.status(0).unwrap().re_requests, 1);

        // A straggler reply to the superseded xid is ignored.
        let fx = r.handle(
            Duration::from_millis(101),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid0, false, Vec::new()),
            },
        );
        assert!(fx.is_empty());

        // The re-requested readback succeeds; empty store + empty table
        // converges immediately.
        let fx = r.handle(
            Duration::from_millis(102),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid1, false, Vec::new()),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ResyncEffect::Converged { rounds: 1, .. })));

        // The now-orphaned attempt-1 timeout is a no-op when it fires.
        let fx = r.handle(
            Duration::from_millis(400),
            ResyncInput::TimerFired {
                token: re_timers[0].1,
            },
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn multipart_readback_reassembles_before_diffing() {
        let mut r = Reconciler::new(config());
        let a = rule(100, 1);
        let b = rule(200, 2);
        r.store_mut().note_confirmed(0, &a);
        r.store_mut().note_confirmed(0, &b);
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid = sent_stats_xid(&fx).unwrap();

        // First fragment (more=true): no decision yet.
        let fx = r.handle(
            Duration::from_millis(1),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, true, vec![stats_entry(&a)]),
            },
        );
        assert!(fx.is_empty());

        // Final fragment completes the reassembly → full table → converged.
        let fx = r.handle(
            Duration::from_millis(2),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, false, vec![stats_entry(&b)]),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ResyncEffect::Converged { rounds: 1, .. })));
    }

    #[test]
    fn rum_owned_rules_are_invisible_to_the_diff() {
        let mut r = Reconciler::new(config());
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid = sent_stats_xid(&fx).unwrap();

        // The proxy's catch rule (reserved cookie) is in the table but the
        // desired store is empty — it must not read as a stray.
        let mut catch = rule(0, u64::from(PROXY_XID_BASE) + 7);
        catch.priority = 0;
        let fx = r.handle(
            Duration::from_millis(1),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, false, vec![stats_entry(&catch)]),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ResyncEffect::Converged { rounds: 1, .. })));
    }

    /// Readback and stray-delete xids wrap inside their own rows of the xid
    /// layout, short of the next row.
    #[test]
    fn readback_and_delete_xids_wrap_inside_their_ranges() {
        let mut r = Reconciler::new(config());
        r.next_xid = RESYNC_DELETE_XID_BASE - 1;
        r.next_delete_xid = PROXY_XID_BASE - 1;
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let readbacks: Vec<Xid> = (0..2)
            .map(|switch| {
                let conn = ConnId::new(switch);
                let fx = r.handle(Duration::ZERO, ResyncInput::SwitchReconnected { conn });
                sent_stats_xid(&fx).expect("readback sent")
            })
            .collect();
        assert_eq!(
            readbacks,
            [RESYNC_DELETE_XID_BASE - 1, RESYNC_READBACK_XID_BASE]
        );
        let strays = vec![stats_entry(&rule(300, 42)), stats_entry(&rule(400, 43))];
        let fx = r.handle(
            Duration::from_millis(1),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(readbacks[0], false, strays),
            },
        );
        let deletes: Vec<Xid> = fx
            .iter()
            .filter_map(|e| match e {
                ResyncEffect::Send {
                    message: OfMessage::FlowMod { xid, .. },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert_eq!(deletes, [PROXY_XID_BASE - 1, RESYNC_DELETE_XID_BASE]);
    }

    #[test]
    fn stray_rules_are_deleted_and_verified_by_re_read() {
        let mut r = Reconciler::new(config());
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid = sent_stats_xid(&fx).unwrap();

        // A leftover rule the controller never wanted.
        let stray = rule(300, 42);
        let fx = r.handle(
            Duration::from_millis(1),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, false, vec![stats_entry(&stray)]),
            },
        );
        let deletes: Vec<&FlowMod> = fx
            .iter()
            .filter_map(|e| match e {
                ResyncEffect::Send {
                    message: OfMessage::FlowMod { body, .. },
                    ..
                } => Some(body),
                _ => None,
            })
            .collect();
        assert_eq!(deletes.len(), 1);
        assert_eq!(deletes[0].command, FlowModCommand::DeleteStrict);
        assert_eq!(deletes[0].priority, 300);
        // No probe-able delta → straight to the inter-round pause.
        let timers = armed_timers(&fx);
        assert_eq!(timers.len(), 1);

        // Next round: the delete took, table is empty → converged.
        let fx = r.handle(
            Duration::from_millis(300),
            ResyncInput::TimerFired { token: timers[0].1 },
        );
        let xid2 = sent_stats_xid(&fx).unwrap();
        let fx = r.handle(
            Duration::from_millis(301),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid2, false, Vec::new()),
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ResyncEffect::Converged { rounds: 2, .. })));
        assert_eq!(r.status(0).unwrap().delta_mods, 1);
        assert_eq!(r.trace(0)[0].stray, 1);
    }

    #[test]
    fn mismatched_cookie_is_repaired() {
        let mut r = Reconciler::new(config());
        let want = rule(100, 1);
        r.store_mut().note_confirmed(0, &want);
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid = sent_stats_xid(&fx).unwrap();

        // Same identity, wrong cookie (e.g. an older generation survived).
        let have = rule(100, 9);
        let fx = r.handle(
            Duration::from_millis(1),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, false, vec![stats_entry(&have)]),
            },
        );
        assert_eq!(sent_flow_mod_ids(&fx), vec![1]);
        assert_eq!(r.trace(0)[0].mismatched, 1);
    }

    #[test]
    fn gives_up_after_max_rounds_with_persistent_diff() {
        let mut cfg = config();
        cfg.max_rounds = 2;
        let mut r = Reconciler::new(cfg);
        let want = rule(100, 1);
        r.store_mut().note_confirmed(0, &want);
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let mut fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );

        // Every readback reports an empty table, every repair "succeeds"
        // (acked) yet never takes: a pathological switch.
        for _ in 0..2 {
            let xid = sent_stats_xid(&fx).unwrap();
            let reply_fx = r.handle(
                Duration::from_millis(1),
                ResyncInput::FromSwitch {
                    conn: ConnId::new(0),
                    message: flow_reply(xid, false, Vec::new()),
                },
            );
            let ack_fx = r.handle(
                Duration::from_millis(2),
                ResyncInput::FromSwitch {
                    conn: ConnId::new(0),
                    message: OfMessage::rum_ack(1),
                },
            );
            let timers: Vec<_> = armed_timers(&reply_fx)
                .into_iter()
                .chain(armed_timers(&ack_fx))
                .collect();
            let next_round = timers.last().expect("pause armed").1;
            fx = r.handle(
                Duration::from_millis(500),
                ResyncInput::TimerFired { token: next_round },
            );
        }
        assert!(fx.iter().any(|e| matches!(
            e,
            ResyncEffect::GaveUp {
                rounds: 2,
                final_diff: 1,
                ..
            }
        )));
        let status = r.status(0).unwrap();
        assert!(!status.converged);
        assert_eq!(status.final_diff, 1);
    }

    #[test]
    fn resync_metrics_are_published() {
        let registry = Registry::new();
        let mut r = Reconciler::new(config());
        r.attach_metrics(&registry);
        let a = rule(100, 1);
        r.store_mut().note_confirmed(0, &a);
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        let xid = sent_stats_xid(&fx).unwrap();
        r.handle(
            Duration::from_millis(1),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid, false, Vec::new()),
            },
        );
        let fx = r.handle(
            Duration::from_millis(2),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: OfMessage::rum_ack(1),
            },
        );
        let token = armed_timers(&fx)[0].1;
        let fx = r.handle(
            Duration::from_millis(300),
            ResyncInput::TimerFired { token },
        );
        let xid2 = sent_stats_xid(&fx).unwrap();
        r.handle(
            Duration::from_millis(301),
            ResyncInput::FromSwitch {
                conn: ConnId::new(0),
                message: flow_reply(xid2, false, vec![stats_entry(&a)]),
            },
        );
        assert_eq!(registry.counter("resync.rounds").get(), 2);
        assert_eq!(registry.counter("resync.delta_mods").get(), 1);
        assert_eq!(registry.gauge("resync.converged").get(), 1);
        assert_eq!(registry.gauge("resync.final_diff").get(), 0);
    }

    #[test]
    fn timer_tokens_live_in_the_resync_namespace() {
        let mut r = Reconciler::new(config());
        r.handle(Duration::ZERO, ResyncInput::SessionSettled);
        let fx = r.handle(
            Duration::ZERO,
            ResyncInput::SwitchReconnected {
                conn: ConnId::new(0),
            },
        );
        for (_, token) in armed_timers(&fx) {
            assert!(is_resync_token(token));
        }
    }
}
