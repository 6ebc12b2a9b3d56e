//! The sans-IO RUM engine: one deployment-agnostic acknowledgment core.
//!
//! [`RumEngine`] is a pure state machine.  It performs no I/O, owns no
//! sockets, simulator handles or clocks; a *driver* feeds it typed [`Input`]s
//! (decoded OpenFlow messages from either side, timer expiries, switch
//! reconnects) together with the current time, and executes the typed
//! [`Effect`]s it returns (messages to send, timers to arm, confirmations
//! to observe).
//!
//! Two drivers ship with the workspace and run the **same** engine:
//!
//! * [`crate::proxy::RumProxy`] — a node for the deterministic discrete-event
//!   simulator (`simnet`); all paper experiments run this way.
//! * `rum-tcp` — a real TCP proxy chain on std sockets, mirroring the paper's
//!   POX prototype.
//!
//! Time is expressed as [`core::time::Duration`] since an arbitrary driver
//! epoch (simulation start, proxy start-up, ...).  The engine only compares
//! and adds times, so any monotonic origin works.
//!
//! Each switch's open controller flow-mods sit in one ledger, under the
//! [`ModId`] the engine gives every new mod; techniques name mods by it, and
//! the xid is one attribute of the mod.  A flow-mod with the xid and the
//! body of the newest open mod with that xid re-sends it: it is forwarded,
//! but it is not a new mod.  Any other flow-mod is new, with its own ack
//! (carrying its xid), barrier coverage and restart re-issue.  A switch
//! `Error` closes the oldest open mod with its xid, unless the request it
//! echoes is not a flow-mod.
//!
//! ```
//! use rum::{Effect, Input, RumBuilder, TechniqueConfig};
//! use std::time::Duration;
//!
//! let mut engine = RumBuilder::new(1)
//!     .technique(TechniqueConfig::BarrierBaseline)
//!     .build();
//! let effects = engine.start(Duration::ZERO);
//! assert!(effects.is_empty()); // the baseline installs nothing up front
//! ```

use crate::config::{RumConfig, TechniqueConfig};
use crate::general::GeneralProbing;
use crate::probe::catch_rule;
use crate::sequential::SequentialProbing;
use crate::technique::{AckTechnique, ModId, TechniqueOutput};
use crate::technique::{AdaptiveDelay, StaticTimeout};
use openflow::constants::msg_type;
use openflow::messages::{FlowMod, PacketIn};
use openflow::types::{CATCH_XID_BASE, TECHNIQUE_XID_BAND};
use openflow::{OfMessage, PacketHeader, Xid};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{AtomicHistogram, Counter, Gauge, Registry};

/// Transaction ids at or above this value belong to RUM, not the controller
/// (the xid layout is `openflow::types`'s).  Controller messages carrying
/// such an xid are rejected (see [`ProxyStats::rejected_xids`]) instead of
/// being silently misattributed to RUM's own machinery.
pub use openflow::types::PROXY_XID_BASE;

/// Identifies one monitored switch within a RUM deployment.
///
/// Deployments are free to map these to whatever they like (simulator node
/// ids, TCP connections, datapath ids); inside the engine a `SwitchId` is
/// just a dense index `0..n_switches`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(usize);

impl SwitchId {
    /// The `index`-th monitored switch.
    pub const fn new(index: usize) -> Self {
        SwitchId(index)
    }

    /// The dense index within the deployment.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// An opaque handle to a timer the engine asked its driver to arm.
///
/// Drivers must hand the token back unmodified in [`Input::TimerFired`].
/// The top bits name the switch whose technique armed it
/// ([`TimerToken::switch`]), the rest are the technique's own token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(u64);

impl TimerToken {
    /// Where the arming switch's index starts.
    const SWITCH_SHIFT: u32 = 48;

    /// The technique token `token` (below bit 48), armed for `switch`.
    pub(crate) const fn for_switch(switch: SwitchId, token: u64) -> Self {
        TimerToken(((switch.index() as u64) << Self::SWITCH_SHIFT) | token)
    }

    /// The switch whose technique armed this timer: its owner shard fires
    /// it, and a socket driver files it with that switch's worker.
    pub const fn switch(self) -> SwitchId {
        SwitchId::new((self.0 >> Self::SWITCH_SHIFT) as usize)
    }

    /// The technique's own token, as it asked for it.
    const fn technique_token(self) -> u64 {
        self.0 & ((1 << Self::SWITCH_SHIFT) - 1)
    }

    /// The raw value, for drivers that need to serialise tokens (e.g. into a
    /// simulator timer slot).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a token from [`TimerToken::raw`].
    pub const fn from_raw(raw: u64) -> Self {
        TimerToken(raw)
    }
}

/// Everything a driver can feed into the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// The controller sent `message` on the connection impersonating
    /// `switch`.
    FromController {
        /// The switch whose connection carried the message.
        switch: SwitchId,
        /// The decoded message.
        message: OfMessage,
    },
    /// Switch `switch` sent `message` towards the controller.
    FromSwitch {
        /// The switch that sent the message.
        switch: SwitchId,
        /// The decoded message.
        message: OfMessage,
    },
    /// A timer previously requested via [`Effect::ArmTimer`] expired.
    TimerFired {
        /// The token from the arming effect.
        token: TimerToken,
    },
    /// Switch `switch` re-established its control channel after a restart
    /// (table wiped, connection dropped).  The engine re-installs its own
    /// rules (probe-catch), re-issues every unconfirmed controller
    /// modification so in-flight update plans converge instead of timing
    /// out, and lets the technique re-arm its confirmation machinery.
    SwitchReconnected {
        /// The switch that reattached.
        switch: SwitchId,
    },
}

/// Everything the engine can ask a driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send `message` to the controller on the connection impersonating
    /// `via`.
    ToController {
        /// The switch identity whose connection carries the message.
        via: SwitchId,
        /// The message to send.
        message: OfMessage,
    },
    /// Send `message` to switch `switch`.
    ToSwitch {
        /// The destination switch.
        switch: SwitchId,
        /// The message to send.
        message: OfMessage,
    },
    /// Send a probe-carrying message (a `PacketOut`) to neighbour `switch`
    /// so the probe enters the data plane there.
    InjectVia {
        /// The neighbouring switch used as injection point.
        switch: SwitchId,
        /// The message to send (on `switch`'s connection).
        message: OfMessage,
    },
    /// Arm a timer: feed [`Input::TimerFired`] with `token` back after
    /// `delay`.
    ArmTimer {
        /// How long to wait.
        delay: Duration,
        /// Token identifying the timer.
        token: TimerToken,
    },
    /// The modification with this cookie (its xid) on `switch` is now
    /// confirmed active in the data plane.  Purely observational — the matching
    /// acknowledgment messages (fine-grained ack, barrier release) are
    /// emitted as separate [`Effect::ToController`] effects.
    Confirmed {
        /// The switch the rule was installed on.
        switch: SwitchId,
        /// The confirmed modification's cookie: its xid.
        cookie: u64,
    },
}

/// Per-switch statistics exposed by the engine — the unified report surface
/// for every deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Flow modifications received from the controller and forwarded.
    pub controller_flow_mods: u64,
    /// Barrier requests received from the controller.
    pub controller_barriers: u64,
    /// Flow modifications RUM originated itself (probe rules).
    pub proxy_flow_mods: u64,
    /// Probe packets injected (PacketOut messages).
    pub probes_injected: u64,
    /// Probe packets captured and consumed.
    pub probes_consumed: u64,
    /// Fine-grained acknowledgments sent to the controller.
    pub acks_sent: u64,
    /// Barrier replies released to the controller.
    pub barrier_replies_released: u64,
    /// Modifications currently awaiting confirmation.
    pub unconfirmed: u64,
    /// Controller messages rejected because their xid collided with RUM's
    /// reserved range (≥ [`PROXY_XID_BASE`]).
    pub rejected_xids: u64,
    /// Switch reconnects the engine re-converged after
    /// ([`Input::SwitchReconnected`]).
    pub reconnects: u64,
    /// Unconfirmed controller modifications re-issued on reconnects.
    pub reissued_flow_mods: u64,
}

impl std::ops::AddAssign for ProxyStats {
    fn add_assign(&mut self, rhs: ProxyStats) {
        self.controller_flow_mods += rhs.controller_flow_mods;
        self.controller_barriers += rhs.controller_barriers;
        self.proxy_flow_mods += rhs.proxy_flow_mods;
        self.probes_injected += rhs.probes_injected;
        self.probes_consumed += rhs.probes_consumed;
        self.acks_sent += rhs.acks_sent;
        self.barrier_replies_released += rhs.barrier_replies_released;
        self.unconfirmed += rhs.unconfirmed;
        self.rejected_xids += rhs.rejected_xids;
        self.reconnects += rhs.reconnects;
        self.reissued_flow_mods += rhs.reissued_flow_mods;
    }
}

/// The telemetry handles behind one switch's [`ProxyStats`].
///
/// Every statistic the engine reports lives in the telemetry [`Registry`]
/// under `rum.sw{i}.*` — [`RumEngine::stats`] *derives* `ProxyStats` from
/// these handles, so a live scrape of the registry and a post-run stats
/// report can never disagree, regardless of which driver runs the engine.
struct SwitchMetrics {
    controller_flow_mods: Arc<Counter>,
    controller_barriers: Arc<Counter>,
    proxy_flow_mods: Arc<Counter>,
    probes_injected: Arc<Counter>,
    probes_consumed: Arc<Counter>,
    acks_sent: Arc<Counter>,
    barrier_replies_released: Arc<Counter>,
    rejected_xids: Arc<Counter>,
    reconnects: Arc<Counter>,
    reissued_flow_mods: Arc<Counter>,
    /// Modifications currently awaiting confirmation (mirrors the ledger
    /// for live observers).
    unconfirmed: Arc<Gauge>,
    /// Received-to-confirmed latency per modification, in microseconds.
    confirm_latency_us: Arc<AtomicHistogram>,
}

impl SwitchMetrics {
    fn new(registry: &Registry, switch: SwitchId) -> Self {
        let name = |field: &str| format!("rum.{switch}.{field}");
        SwitchMetrics {
            controller_flow_mods: registry.counter(&name("controller_flow_mods")),
            controller_barriers: registry.counter(&name("controller_barriers")),
            proxy_flow_mods: registry.counter(&name("proxy_flow_mods")),
            probes_injected: registry.counter(&name("probes_injected")),
            probes_consumed: registry.counter(&name("probes_consumed")),
            acks_sent: registry.counter(&name("acks_sent")),
            barrier_replies_released: registry.counter(&name("barrier_replies_released")),
            rejected_xids: registry.counter(&name("rejected_xids")),
            reconnects: registry.counter(&name("reconnects")),
            reissued_flow_mods: registry.counter(&name("reissued_flow_mods")),
            unconfirmed: registry.gauge(&name("unconfirmed")),
            confirm_latency_us: registry.histogram(&name("confirm_latency_us")),
        }
    }

    /// Assembles the stats report from the registry counters — the single
    /// place `ProxyStats` is put together for every driver.
    fn to_stats(&self, unconfirmed: u64) -> ProxyStats {
        ProxyStats {
            controller_flow_mods: self.controller_flow_mods.get(),
            controller_barriers: self.controller_barriers.get(),
            proxy_flow_mods: self.proxy_flow_mods.get(),
            probes_injected: self.probes_injected.get(),
            probes_consumed: self.probes_consumed.get(),
            acks_sent: self.acks_sent.get(),
            barrier_replies_released: self.barrier_replies_released.get(),
            unconfirmed,
            rejected_xids: self.rejected_xids.get(),
            reconnects: self.reconnects.get(),
            reissued_flow_mods: self.reissued_flow_mods.get(),
        }
    }
}

/// One confirmation the engine emitted, with the time it happened — the
/// ground-truth accounting hook: an experiment joins these against the
/// switch behaviour's data-plane timeline (`ofswitch::GroundTruth`) to
/// classify each acknowledgment as true or false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmRecord {
    /// The switch the rule was confirmed on.
    pub switch: SwitchId,
    /// The confirmed modification's cookie: its xid.
    pub cookie: u64,
    /// When the engine emitted the confirmation (driver epoch).
    pub at: Duration,
}

/// A controller barrier whose reply is being withheld.  It covers every
/// mod numbered below `covers`, the ledger's next id when it arrived, and
/// is released once the switch has replied and none of those is open.
struct PendingBarrier {
    xid: Xid,
    covers: ModId,
    switch_replied: bool,
}

/// One open controller modification: its id and xid, its arrival (for the
/// confirm-latency histogram) and its body (for a restart's re-issue).
struct OpenMod {
    id: ModId,
    xid: Xid,
    received_at: Duration,
    flow_mod: FlowMod,
}

/// A switch's open controller modifications by [`ModId`], until each is
/// confirmed or refused: memory is bounded by the open mods.
#[derive(Default)]
struct Ledger {
    next: ModId,
    /// The open mods in id order (ids are handed out increasing): a close
    /// in confirm order pops the front, any other shifts the shorter side.
    open: VecDeque<OpenMod>,
    /// Per xid: the newest open mod carrying it, and how many open mods do.
    by_xid: HashMap<Xid, (ModId, u32)>,
}

impl Ledger {
    /// Records a controller flow-mod and returns its new id, or `None` when
    /// it re-sends the newest open mod with its xid (an identical body).
    fn open(&mut self, xid: Xid, flow_mod: &FlowMod, now: Duration) -> Option<ModId> {
        let id = self.next;
        let (newest, count) = self.by_xid.entry(xid).or_insert((id, 0));
        let newest_at = (*count > 0).then(|| self.open.binary_search_by_key(newest, |m| m.id));
        if newest_at.is_some_and(|at| self.open[at.expect("indexed")].flow_mod == *flow_mod) {
            return None;
        }
        (*newest, *count) = (id, *count + 1);
        self.next += 1;
        let flow_mod = flow_mod.clone();
        self.open.push_back(OpenMod {
            id,
            xid,
            received_at: now,
            flow_mod,
        });
        Some(id)
    }

    /// Closes mod `id`; `None` when it is not open.
    fn close(&mut self, id: ModId) -> Option<OpenMod> {
        let at = match self.open.front() {
            Some(oldest) if oldest.id == id => 0,
            _ => self.open.binary_search_by_key(&id, |m| m.id).ok()?,
        };
        let m = self.open.remove(at)?;
        let (_, count) = self.by_xid.remove(&m.xid).expect("indexed");
        if count > 1 {
            let newest = self.with_xid(m.xid).next_back().expect("counted");
            self.by_xid.insert(m.xid, (newest, count - 1));
        }
        Some(m)
    }

    /// The open mods carrying `xid`, oldest first.
    fn with_xid(&self, xid: Xid) -> impl DoubleEndedIterator<Item = ModId> + '_ {
        (self.open.iter()).filter_map(move |m| (m.xid == xid).then_some(m.id))
    }
}

/// Per-monitored-switch engine state, bounded by its outstanding work.
struct SwitchState {
    technique: Box<dyn AckTechnique>,
    ledger: Ledger,
    /// How many catch rules were installed on this switch so far (one at
    /// start, one per reconnect) — makes catch-rule xids a pure function of
    /// (switch, generation) so sharded and unsharded engines emit identical
    /// bytes.
    catch_generation: u64,
    pending_barriers: VecDeque<PendingBarrier>,
    buffered: VecDeque<OfMessage>,
    metrics: SwitchMetrics,
}

impl SwitchState {
    /// Mirrors the ledger's size into the live gauge.
    fn sync_unconfirmed_gauge(&self) {
        self.metrics.unconfirmed.set(self.ledger.open.len() as i64);
    }
}

/// The deployment-agnostic RUM core: techniques, reliable barriers,
/// fine-grained acks and probe bookkeeping behind a pure
/// input → effects interface.
///
/// Construct one through [`crate::RumBuilder`].
pub struct RumEngine {
    config: Arc<RumConfig>,
    /// The switch indices this instance owns and acts for: all of them for
    /// a standalone engine, its shard's run for a shard.
    owned: Range<usize>,
    /// State of the owned switches, in index order.
    switches: Vec<SwitchState>,
    /// The telemetry registry every statistic lives in — the one configured
    /// through [`crate::RumBuilder::metrics`], or a private registry so the
    /// stats surface works identically with telemetry off.
    registry: Arc<Registry>,
    started: bool,
    confirm_log: Vec<ConfirmRecord>,
    /// Reusable buffer for technique outputs, so the per-message hot path
    /// does not allocate.  Taken with `mem::take` around each technique
    /// call; re-entrant calls (buffered-command replay during a barrier
    /// release) fall back to a fresh vector.
    tech_out: Vec<TechniqueOutput>,
}

impl RumEngine {
    /// Creates an engine from a finished configuration.  Prefer
    /// [`crate::RumBuilder`].
    ///
    /// # Panics
    ///
    /// Sequential probing requires every switch's
    /// [`crate::SwitchPortMap`] to name at least one monitored neighbour;
    /// constructing an engine without one panics here (the simulator
    /// [`crate::deploy`] derives the maps from its topology, other
    /// deployments must set them via [`crate::RumBuilder::port_maps`]).
    pub fn new(config: RumConfig) -> Self {
        let owned = 0..config.n_switches();
        RumEngine::acting_for(Arc::new(config), owned)
    }

    /// An engine acting for the switches in `owned` only — the shards of one
    /// deployment share its configuration.
    pub(crate) fn acting_for(config: Arc<RumConfig>, owned: Range<usize>) -> Self {
        let registry = config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let switches = owned
            .clone()
            .map(|i| SwitchState {
                technique: build_technique(&config, SwitchId::new(i)),
                ledger: Ledger::default(),
                catch_generation: 0,
                pending_barriers: VecDeque::new(),
                buffered: VecDeque::new(),
                metrics: SwitchMetrics::new(&registry, SwitchId::new(i)),
            })
            .collect();
        RumEngine {
            config,
            owned,
            switches,
            registry,
            started: false,
            confirm_log: Vec::new(),
            tech_out: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RumConfig {
        &self.config
    }

    /// Number of monitored switches in the deployment.
    pub fn n_switches(&self) -> usize {
        self.config.n_switches()
    }

    /// True when `switch` is one this instance holds state and acts for.
    fn acts_for(&self, switch: SwitchId) -> bool {
        self.owned.contains(&switch.index())
    }

    /// Where an owned switch's state sits in `switches`.
    fn slot(&self, switch: SwitchId) -> usize {
        debug_assert!(self.acts_for(switch), "{switch} belongs to another shard");
        switch.index() - self.owned.start
    }

    /// Statistics for one monitored switch this instance owns, derived from
    /// the telemetry registry (see [`RumEngine::metrics`]).
    pub fn stats(&self, switch: SwitchId) -> ProxyStats {
        let s = &self.switches[self.slot(switch)];
        s.metrics.to_stats(s.ledger.open.len() as u64)
    }

    /// Total statistics summed over the switches this instance owns — the
    /// one assembly point every driver reports through.
    pub fn total_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for s in &self.switches {
            total += s.metrics.to_stats(s.ledger.open.len() as u64);
        }
        total
    }

    /// The telemetry registry the engine's statistics live in: the one
    /// passed to [`crate::RumBuilder::metrics`], or a private registry
    /// created at construction.  Serve it with `telemetry::serve` to watch
    /// a running deployment.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Every confirmation the engine has emitted, in order.  Empty when
    /// recording is disabled ([`crate::RumBuilder::record_confirmations`]).
    pub fn confirmed_order(&self) -> Vec<(SwitchId, u64)> {
        self.confirm_log
            .iter()
            .map(|r| (r.switch, r.cookie))
            .collect()
    }

    /// Every confirmation with its emission time — the ground-truth
    /// accounting hook (see [`ConfirmRecord`]).
    pub fn confirmations(&self) -> &[ConfirmRecord] {
        &self.confirm_log
    }

    /// Starts the engine: installs probe-catch rules (for probing
    /// techniques) and lets every technique arm its initial timers.
    /// Idempotent — a second call returns no effects.
    pub fn start(&mut self, now: Duration) -> Vec<Effect> {
        let mut effects = Vec::new();
        if self.started {
            return effects;
        }
        self.started = true;
        // A sharded instance acts only for the switches it owns; its peers
        // install the catch rules of theirs.
        for switch in self.owned.clone().map(SwitchId::new) {
            // Install the probe-catch rule on every switch when any probing
            // technique is active (general probing needs catch rules on
            // neighbours of the probed switch, so install everywhere).
            if self.config.technique.is_probing() {
                self.install_catch_rule(switch, &mut effects);
            }
            self.tell_technique(switch, now, &mut effects, |t, out| t.start(now, out));
        }
        effects
    }

    /// Feeds one input into the engine and returns the effects the driver
    /// must execute, in order.  Allocates a fresh effects vector per call;
    /// hot-path drivers should prefer [`RumEngine::handle_into`].
    pub fn handle(&mut self, now: Duration, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.handle_into(now, input, &mut effects);
        effects
    }

    /// Feeds one input into the engine, *appending* the effects the driver
    /// must execute (in order) to a caller-owned buffer.
    ///
    /// The buffer is not cleared: a driver drains several inputs into one
    /// buffer, executes everything in a single batch (one socket write per
    /// destination), then clears and reuses the buffer — no per-input
    /// allocation.
    pub fn handle_into(&mut self, now: Duration, input: Input, effects: &mut Vec<Effect>) {
        match input {
            Input::FromController { switch, message } if self.acts_for(switch) => {
                self.on_controller_msg(switch, message, now, effects);
            }
            Input::FromSwitch { switch, message } => {
                self.on_switch_msg(switch, message, now, effects);
            }
            Input::TimerFired { token } if self.acts_for(token.switch()) => {
                let own = token.technique_token();
                self.tell_technique(token.switch(), now, effects, |t, out| {
                    t.on_timer(own, now, out)
                });
            }
            Input::SwitchReconnected { switch } if self.acts_for(switch) => {
                self.on_switch_reconnected(switch, now, effects);
            }
            // Another shard's switch.
            _ => {}
        }
    }

    /// Installs the probe-catch rule on `switch`.  The xid (and thus the
    /// rule's cookie, hashed by fault plans) is a pure function of the
    /// switch and its catch generation — not of a shared counter — so a
    /// sharded deployment emits byte-identical catch rules to the unsharded
    /// oracle regardless of which shard owns the switch.
    fn install_catch_rule(&mut self, switch: SwitchId, effects: &mut Vec<Effect>) {
        let i = self.slot(switch);
        let state = &mut self.switches[i];
        let generation = state.catch_generation;
        state.catch_generation += 1;
        state.metrics.proxy_flow_mods.inc();
        let xid = CATCH_XID_BASE | ((switch.index() as Xid) << 8) | (generation as Xid & 0xFF);
        let fm = catch_rule(self.config.topology.catch_tos(switch), u64::from(xid));
        effects.push(Effect::ToSwitch {
            switch,
            message: OfMessage::FlowMod { xid, body: fm },
        });
    }

    // ------------------------------------------------------------------
    // Controller-side messages
    // ------------------------------------------------------------------

    fn on_controller_msg(
        &mut self,
        switch: SwitchId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        // xids at or above PROXY_XID_BASE are reserved for RUM's own
        // messages; a controller using them would have its replies swallowed
        // or misattributed.  Reject loudly instead.
        let i = self.slot(switch);
        if msg.xid() >= PROXY_XID_BASE {
            self.switches[i].metrics.rejected_xids.inc();
            effects.push(Effect::ToController {
                via: switch,
                message: OfMessage::Error {
                    xid: msg.xid(),
                    body: openflow::messages::ErrorMsg {
                        err_type: openflow::constants::error_type::BAD_REQUEST,
                        code: 0,
                        data: b"RUM: xid >= 0x80000000 is reserved by the proxy".to_vec(),
                    },
                },
            });
            return;
        }
        if self.config.buffer_across_barriers
            && !self.switches[i].pending_barriers.is_empty()
            && !is_liveness_msg(&msg)
        {
            // Ordered commands after an unconfirmed barrier are held back so
            // a reordering switch cannot let later commands overtake it.
            // Liveness traffic (hello, echo) has no ordering relationship
            // with rule modifications and passes straight through — holding
            // an echo behind a slow barrier would trip keepalive timers on
            // real switches.
            self.switches[i].buffered.push_back(msg);
            return;
        }
        self.process_controller_msg(switch, msg, now, effects);
    }

    fn process_controller_msg(
        &mut self,
        switch: SwitchId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = self.slot(switch);
        match msg {
            OfMessage::FlowMod { xid, ref body } => {
                let state = &mut self.switches[i];
                state.metrics.controller_flow_mods.inc();
                // A re-send of an open mod is forwarded, but it keeps its id
                // and barrier coverage and the technique does not see it.
                let id = state.ledger.open(xid, body, now);
                state.sync_unconfirmed_gauge();
                // Run the technique on the borrowed body first, then move
                // the message into the forwarding effect — no clone.
                let mut out = std::mem::take(&mut self.tech_out);
                if let Some(id) = id {
                    (self.switches[i].technique).on_flow_mod(id, body, now, &mut out);
                }
                effects.push(Effect::ToSwitch {
                    switch,
                    message: msg,
                });
                self.apply_outputs(switch, &mut out, now, effects);
                self.tech_out = out;
            }
            OfMessage::BarrierRequest { xid } => {
                let state = &mut self.switches[i];
                state.metrics.controller_barriers.inc();
                state.pending_barriers.push_back(PendingBarrier {
                    xid,
                    covers: state.ledger.next,
                    switch_replied: false,
                });
                // Still forward the barrier so the switch's own ordering
                // machinery (such as it is) stays engaged.
                effects.push(Effect::ToSwitch {
                    switch,
                    message: OfMessage::BarrierRequest { xid },
                });
                self.try_release_barriers(switch, now, effects);
            }
            other => {
                effects.push(Effect::ToSwitch {
                    switch,
                    message: other,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Switch-side messages
    // ------------------------------------------------------------------

    fn on_switch_msg(
        &mut self,
        switch: SwitchId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        // A returning probe concerns the techniques of the switches upstream
        // of the sender, so it is the one switch-side input that also
        // reaches instances which do not own the sender; everything else is
        // the owner's alone.
        if let OfMessage::PacketIn { body, .. } = &msg {
            if let Some(header) = self.probe_header(body) {
                self.on_probe_return(switch, body, &header, now, effects);
                return;
            }
        }
        if !self.acts_for(switch) {
            return;
        }
        let i = self.slot(switch);
        match msg {
            OfMessage::BarrierReply { xid } => {
                if xid >= PROXY_XID_BASE {
                    self.tell_technique(switch, now, effects, |t, out| {
                        t.on_switch_barrier_reply(xid, now, out)
                    });
                } else {
                    if let Some(b) = self.switches[i]
                        .pending_barriers
                        .iter_mut()
                        .find(|b| b.xid == xid)
                    {
                        b.switch_replied = true;
                    }
                    self.try_release_barriers(switch, now, effects);
                }
            }
            OfMessage::Error { xid, ref body } if xid < PROXY_XID_BASE => {
                // A controller modification failed: the rule will never
                // appear in the data plane, so the oldest open mod with that
                // xid is closed (for barriers and the technique) and the
                // error passes through.  An error echoing a request other
                // than a flow-mod answers that request; one echoing nothing
                // is taken to answer the mod.
                let state = &mut self.switches[i];
                let echoed = body.data.get(1).is_none_or(|&t| t == msg_type::FLOW_MOD);
                // A scan of the open mods; errors are rare.
                if let Some(id) = echoed.then(|| state.ledger.with_xid(xid).next()).flatten() {
                    state.ledger.close(id);
                    state.sync_unconfirmed_gauge();
                    state.technique.on_rejected(id);
                }
                effects.push(Effect::ToController {
                    via: switch,
                    message: msg,
                });
                self.try_release_barriers(switch, now, effects);
            }
            OfMessage::Error { .. } => {
                // One of RUM's own rules failed; nothing sensible to tell the
                // controller, and no technique hears of it.  A rule with a
                // probe never falls back to a timer, so if a neighbour
                // refuses its catch rule, every probed rule upstream of it
                // stays pending.
            }
            other => effects.push(Effect::ToController {
                via: switch,
                message: other,
            }),
        }
    }

    /// The parsed header of a PacketIn carrying one of RUM's own probe
    /// packets (reserved ToS), `None` for everything else.  Traffic that is
    /// merely passing through — every PacketIn but the probes — is told
    /// apart by its ToS byte and never parsed.
    fn probe_header(&self, body: &PacketIn) -> Option<PacketHeader> {
        if !self.config.topology.marks(&body.data) {
            return None;
        }
        PacketHeader::from_bytes(&body.data).ok()
    }

    /// A probe packet came back through `catch`'s catch rule.  Either way
    /// the packet is RUM's own and never reaches the controller.
    fn on_probe_return(
        &mut self,
        catch: SwitchId,
        body: &PacketIn,
        header: &PacketHeader,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        // Only a punt performed by a rule's explicit to-controller action
        // can vouch for the data plane: a probe-marked packet punted for a
        // *table miss* (e.g. a restarted switch whose wiped table no longer
        // holds even the drop-all rule) proves nothing and must not be
        // mistaken for a probe return.
        if body.reason != openflow::constants::packet_in_reason::ACTION {
            return;
        }
        // A sharded driver delivers the probe to several instances; the
        // arrival switch's owner alone accounts for the consumption.
        if self.acts_for(catch) {
            let i = self.slot(catch);
            self.switches[i].metrics.probes_consumed.inc();
        }
        // The probe vouches for a rule of the switch that forwarded it to
        // `catch`, so only the techniques upstream of `catch` are asked
        // (each ignores probes that are not its own), and of those only the
        // ones this instance runs.
        let topology = Arc::clone(&self.config.topology);
        for &sender in topology.candidates(catch, body.in_port) {
            if self.acts_for(sender) {
                self.tell_technique(sender, now, effects, |t, out| {
                    t.on_probe_packet(header, now, out)
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Reconnect re-convergence
    // ------------------------------------------------------------------

    /// A restarted switch reattached: the restart wiped its tables (the
    /// catch rule, probe rules, and every not-yet-synced controller rule),
    /// so the engine rebuilds its side of the world on the fresh channel:
    ///
    /// 1. re-install the probe-catch rule (probing techniques);
    /// 2. re-issue every unconfirmed controller modification, oldest first
    ///    — confirmed rules were acknowledged while demonstrably in the
    ///    data plane and are the controller's to re-plan, but unconfirmed
    ///    ones are still RUM's promise to resolve;
    /// 3. re-forward every withheld controller barrier the switch never
    ///    answered — the original requests died with the channel, and a
    ///    reliable barrier releases only once the switch's own reply has
    ///    arrived *and* its covered modifications confirmed;
    /// 4. let the technique re-arm (fresh barriers, re-versioned probe
    ///    rule) so the re-issued modifications actually confirm.
    fn on_switch_reconnected(
        &mut self,
        switch: SwitchId,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = self.slot(switch);
        self.switches[i].metrics.reconnects.inc();
        if self.config.technique.is_probing() {
            self.install_catch_rule(switch, effects);
        }
        let state = &self.switches[i];
        for m in &state.ledger.open {
            state.metrics.reissued_flow_mods.inc();
            effects.push(Effect::ToSwitch {
                switch,
                message: OfMessage::FlowMod {
                    xid: m.xid,
                    body: m.flow_mod.clone(),
                },
            });
        }
        for b in state.pending_barriers.iter().filter(|b| !b.switch_replied) {
            effects.push(Effect::ToSwitch {
                switch,
                message: OfMessage::BarrierRequest { xid: b.xid },
            });
        }
        self.tell_technique(switch, now, effects, |t, out| {
            t.on_switch_reconnected(now, out)
        });
    }

    // ------------------------------------------------------------------
    // Technique output handling
    // ------------------------------------------------------------------

    /// Runs `event` on `switch`'s technique and carries out its outputs.
    fn tell_technique(
        &mut self,
        switch: SwitchId,
        now: Duration,
        effects: &mut Vec<Effect>,
        event: impl FnOnce(&mut dyn AckTechnique, &mut Vec<TechniqueOutput>),
    ) {
        let i = self.slot(switch);
        let mut out = std::mem::take(&mut self.tech_out);
        event(self.switches[i].technique.as_mut(), &mut out);
        self.apply_outputs(switch, &mut out, now, effects);
        self.tech_out = out;
    }

    fn apply_outputs(
        &mut self,
        switch: SwitchId,
        outputs: &mut Vec<TechniqueOutput>,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = self.slot(switch);
        for output in outputs.drain(..) {
            match output {
                TechniqueOutput::Confirm(id) => self.confirm(switch, id, now, effects),
                TechniqueOutput::ToSwitch(message) => {
                    if matches!(message, OfMessage::FlowMod { .. }) {
                        self.switches[i].metrics.proxy_flow_mods.inc();
                    }
                    effects.push(Effect::ToSwitch { switch, message });
                }
                TechniqueOutput::InjectVia { switch: via, msg } => {
                    self.switches[i].metrics.probes_injected.inc();
                    effects.push(Effect::InjectVia {
                        switch: via,
                        message: msg,
                    });
                }
                TechniqueOutput::SetTimer { delay, token } => {
                    effects.push(Effect::ArmTimer {
                        delay,
                        token: TimerToken::for_switch(switch, token),
                    });
                }
            }
        }
    }

    /// Closes mod `id` as confirmed and acknowledges it by its xid; a mod
    /// no longer open confirms nothing.
    fn confirm(&mut self, switch: SwitchId, id: ModId, now: Duration, effects: &mut Vec<Effect>) {
        let i = self.slot(switch);
        let state = &mut self.switches[i];
        let Some(m) = state.ledger.close(id) else {
            return;
        };
        state.sync_unconfirmed_gauge();
        let cookie = u64::from(m.xid);
        state
            .metrics
            .confirm_latency_us
            .record(now.saturating_sub(m.received_at).as_micros() as u64);
        if self.config.record_confirmations {
            self.confirm_log.push(ConfirmRecord {
                switch,
                cookie,
                at: now,
            });
        }
        effects.push(Effect::Confirmed { switch, cookie });
        if self.config.fine_grained_acks {
            let state = &mut self.switches[i];
            state.metrics.acks_sent.inc();
            effects.push(Effect::ToController {
                via: switch,
                message: OfMessage::rum_ack(m.xid),
            });
        }
        self.try_release_barriers(switch, now, effects);
    }

    fn try_release_barriers(&mut self, switch: SwitchId, now: Duration, effects: &mut Vec<Effect>) {
        let i = self.slot(switch);
        loop {
            let state = &mut self.switches[i];
            let Some(front) = state.pending_barriers.front() else {
                break;
            };
            let oldest_open = state.ledger.open.front().map(|m| m.id);
            if !front.switch_replied || oldest_open.is_some_and(|id| id < front.covers) {
                break;
            }
            let barrier = state.pending_barriers.pop_front().expect("front exists");
            state.metrics.barrier_replies_released.inc();
            effects.push(Effect::ToController {
                via: switch,
                message: OfMessage::BarrierReply { xid: barrier.xid },
            });
            // Release buffered commands until the next barrier becomes
            // pending (or the buffer drains).
            if self.config.buffer_across_barriers {
                while self.switches[i].pending_barriers.is_empty() {
                    let Some(msg) = self.switches[i].buffered.pop_front() else {
                        break;
                    };
                    self.process_controller_msg(switch, msg, now, effects);
                }
            }
        }
    }
}

impl fmt::Debug for RumEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RumEngine")
            .field("technique", &self.config.technique.label())
            .field("n_switches", &self.switches.len())
            .field("started", &self.started)
            .field("confirmed", &self.confirm_log.len())
            .finish()
    }
}

/// Messages with no ordering relationship to rule modifications; they are
/// never held back by the cross-barrier buffer.
fn is_liveness_msg(msg: &OfMessage) -> bool {
    matches!(
        msg,
        OfMessage::Hello { .. } | OfMessage::EchoRequest { .. } | OfMessage::EchoReply { .. }
    )
}

fn build_technique(config: &RumConfig, switch: SwitchId) -> Box<dyn AckTechnique> {
    let xid_base = PROXY_XID_BASE + (switch.index() as u32 + 1) * TECHNIQUE_XID_BAND;
    match &config.technique {
        // The baseline is the proxy barrier with a zero hold-down (§3.1).
        TechniqueConfig::BarrierBaseline => Box::new(StaticTimeout::new(Duration::ZERO, xid_base)),
        TechniqueConfig::StaticTimeout { delay } => Box::new(StaticTimeout::new(*delay, xid_base)),
        TechniqueConfig::AdaptiveDelay {
            assumed_rate,
            assumed_sync_lag,
        } => Box::new(AdaptiveDelay::new(*assumed_rate, *assumed_sync_lag)),
        TechniqueConfig::SequentialProbing {
            batch_size,
            probe_interval,
        } => Box::new(SequentialProbing::new(
            switch,
            *batch_size,
            *probe_interval,
            &config.topology,
            xid_base,
        )),
        TechniqueConfig::GeneralProbing {
            probe_interval,
            max_outstanding,
            fallback_delay,
        } => {
            let mut t = GeneralProbing::new(
                switch,
                *probe_interval,
                *max_outstanding,
                *fallback_delay,
                Arc::clone(&config.topology),
                xid_base,
            );
            // Every experiment pre-installs a low-priority drop-all rule;
            // seed the table model so probe synthesis sees it.
            t.seed_rule(&FlowMod::add(openflow::OfMatch::wildcard_all(), 0, vec![]));
            Box::new(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RumBuilder;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    fn engine(technique: TechniqueConfig) -> RumEngine {
        RumBuilder::new(1).technique(technique).build()
    }

    /// An engine, every effect it emitted, and its armed timers by
    /// (deadline, position in the log).
    struct Run {
        engine: RumEngine,
        log: Vec<Effect>,
        timers: BTreeMap<(Duration, usize), TimerToken>,
    }

    impl Run {
        /// A started engine on a 3-switch ring (or on one switch).
        fn on_ring(technique: TechniqueConfig) -> Self {
            Run::started(RumEngine::new(crate::shard::tests::ring(3, technique)))
        }

        fn started(mut engine: RumEngine) -> Self {
            let effects = engine.start(Duration::ZERO);
            let mut run = Run {
                engine,
                log: Vec::new(),
                timers: BTreeMap::new(),
            };
            run.record(Duration::ZERO, effects);
            run
        }

        fn record(&mut self, now: Duration, effects: Vec<Effect>) {
            for effect in effects {
                if let Effect::ArmTimer { delay, token } = effect {
                    self.timers.insert((now + delay, self.log.len()), token);
                }
                self.log.push(effect);
            }
        }

        fn feed(&mut self, now: Duration, input: Input) {
            let effects = self.engine.handle(now, input);
            self.record(now, effects);
        }

        /// Feeds controller message `message` for switch 0 at `ms`.
        fn send(&mut self, ms: u64, message: OfMessage) {
            let switch = SwitchId::new(0);
            self.feed(
                Duration::from_millis(ms),
                Input::FromController { switch, message },
            );
        }

        /// Feeds switch 0's message `message` at `ms`.
        fn reply(&mut self, ms: u64, message: OfMessage) {
            let switch = SwitchId::new(0);
            self.feed(
                Duration::from_millis(ms),
                Input::FromSwitch { switch, message },
            );
        }

        /// Fires every timer due by `until`, in deadline order.
        fn fire_until(&mut self, until: Duration) {
            while let Some(entry) = self.timers.first_entry() {
                let (at, _) = *entry.key();
                if at > until {
                    break;
                }
                let token = entry.remove();
                self.feed(at, Input::TimerFired { token });
            }
        }

        /// Switch 0's rules whose probes were injected from log entry
        /// `from` on, by the rule number `rule` gives them.
        fn probed(&self, from: usize) -> Vec<(u8, Vec<u8>)> {
            (self.log[from..].iter())
                .filter_map(|effect| match effect {
                    Effect::InjectVia {
                        message: OfMessage::PacketOut { body, .. },
                        ..
                    } => {
                        let header = PacketHeader::from_bytes(&body.data).unwrap();
                        Some((header.nw_src.octets()[3], body.data.clone()))
                    }
                    _ => None,
                })
                .collect()
        }

        /// The xids of the acks and barrier replies sent to the controller,
        /// and of the mods confirmed, in order.
        fn answered(&self) -> (Vec<Xid>, Vec<Xid>, Vec<u64>) {
            let (mut acks, mut barriers, mut confirmed) = (vec![], vec![], vec![]);
            for effect in &self.log {
                match effect {
                    Effect::ToController {
                        message: OfMessage::BarrierReply { xid },
                        ..
                    } => barriers.push(*xid),
                    Effect::ToController { message, .. } => acks.extend(message.as_rum_ack()),
                    Effect::Confirmed { cookie, .. } => confirmed.push(*cookie),
                    _ => {}
                }
            }
            (acks, barriers, confirmed)
        }
    }

    /// Controller flow-mod `xid` adding `10.0.0.i → 10.1.0.i`, out port 2.
    fn rule(i: u8, xid: Xid) -> OfMessage {
        let m = OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i));
        OfMessage::FlowMod {
            xid,
            body: FlowMod::add(m, 100, vec![Action::output(2)]),
        }
    }

    /// The switch's `FLOW_MOD_FAILED` answering `request`.
    fn refused(request: &OfMessage) -> OfMessage {
        request.error_reply(openflow::constants::error_type::FLOW_MOD_FAILED, 0)
    }

    /// A controller retry re-sends an open mod unchanged: it is forwarded
    /// but is the same mod, so the technique, whose model already holds
    /// the rule, is not asked again and cannot settle for a fallback timer.
    /// Only the probe's return confirms it, once.
    #[test]
    fn a_resent_open_mod_is_confirmed_only_by_its_probe() {
        let mut run = Run::on_ring(TechniqueConfig::default_general());
        run.send(0, rule(1, 7));
        run.send(50, rule(1, 7));
        let forwarded = (run.log.iter())
            .filter(|e| {
                matches!(
                    e,
                    Effect::ToSwitch {
                        message: OfMessage::FlowMod { xid: 7, .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(forwarded, 2, "the re-send is forwarded");
        run.fire_until(Duration::from_secs(2));
        assert_eq!(
            run.answered().2,
            Vec::<u64>::new(),
            "confirmed without a probe"
        );
        assert_eq!(run.engine.stats(SwitchId::new(0)).unconfirmed, 1);

        let (_, probe) = run.probed(0).pop().expect("rule 1 is probed");
        run.feed(
            Duration::from_millis(2_001),
            crate::shard::tests::punted(1, 1, probe.clone()),
        );
        run.feed(
            Duration::from_millis(2_002),
            crate::shard::tests::punted(1, 1, probe),
        );
        assert_eq!(run.answered(), (vec![7], vec![], vec![7]));
    }

    /// The switch refuses the first 30 of 31 rules: each leaves the probe
    /// window at its error, so rule 31 is probed and confirmed instead of
    /// waiting behind 30 rules that can never come back.
    #[test]
    fn refused_rules_leave_the_probe_window() {
        let mut run = Run::on_ring(TechniqueConfig::default_general());
        for i in 1..=31 {
            run.send(0, rule(i, Xid::from(i)));
        }
        for i in 1..=30 {
            run.reply(1, refused(&rule(i, Xid::from(i))));
        }
        let refused_at = run.log.len();
        assert_eq!(run.engine.stats(SwitchId::new(0)).unconfirmed, 1);
        run.fire_until(Duration::from_secs(2));
        let probed = run.probed(refused_at);
        assert!(!probed.is_empty());
        assert!(
            probed.iter().all(|(i, _)| *i == 31),
            "a refused rule was probed"
        );
        let (_, probe) = probed[0].clone();
        run.feed(
            Duration::from_millis(2_001),
            crate::shard::tests::punted(1, 1, probe),
        );
        assert_eq!(run.answered().2, vec![31]);
        assert_eq!(run.engine.stats(SwitchId::new(0)).unconfirmed, 0);
    }

    /// Two different mods under xid 7 are two mods: barrier 8 covers both
    /// and is held until the second confirms, and each gets its own ack.
    #[test]
    fn a_reused_xid_names_a_new_mod() {
        let mut run = Run::on_ring(TechniqueConfig::default_general());
        run.send(0, rule(1, 7));
        run.send(1, rule(2, 7));
        run.send(2, OfMessage::BarrierRequest { xid: 8 });
        run.reply(3, OfMessage::BarrierReply { xid: 8 });
        let (_, first) = run.probed(0).pop().expect("A is probed on arrival");
        run.feed(
            Duration::from_millis(4),
            crate::shard::tests::punted(1, 1, first),
        );
        assert_eq!(
            run.answered(),
            (vec![7], vec![], vec![7]),
            "B is still open"
        );
        let mark = run.log.len();
        run.fire_until(Duration::from_millis(50));
        let (i, second) = run.probed(mark).pop().expect("B is probed at a tick");
        assert_eq!(i, 2);
        run.feed(
            Duration::from_millis(51),
            crate::shard::tests::punted(1, 1, second),
        );
        assert_eq!(run.answered(), (vec![7, 7], vec![8], vec![7, 7]));
    }

    /// A restart re-issues both open mods under a reused xid, in order.
    #[test]
    fn a_restart_reissues_every_mod_of_a_reused_xid() {
        let mut run = Run::started(engine(TechniqueConfig::BarrierBaseline));
        run.send(0, rule(1, 7));
        run.send(1, rule(2, 7));
        let mark = run.log.len();
        run.feed(
            Duration::from_millis(5),
            Input::SwitchReconnected {
                switch: SwitchId::new(0),
            },
        );
        let reissued: Vec<&OfMessage> = (run.log[mark..].iter())
            .filter_map(|effect| match effect {
                Effect::ToSwitch { message, .. }
                    if matches!(message, OfMessage::FlowMod { .. }) =>
                {
                    Some(message)
                }
                _ => None,
            })
            .collect();
        assert_eq!(reissued, [&rule(1, 7), &rule(2, 7)]);
        assert_eq!(run.engine.stats(SwitchId::new(0)).reissued_flow_mods, 2);
    }

    /// An `Error` whose echoed request is an echo, not a flow-mod, closes
    /// no mod: barrier 9 is still held until mod 5's hold-down ends.
    #[test]
    fn an_error_answering_another_request_closes_no_mod() {
        let mut run = Run::started(engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(300),
        }));
        run.send(0, flow_mod(5));
        let echo = OfMessage::EchoRequest {
            xid: 5,
            data: vec![],
        };
        run.send(0, echo.clone());
        run.send(0, OfMessage::BarrierRequest { xid: 9 });
        let barriers: Vec<Xid> = (run.log.iter())
            .filter_map(|effect| match effect {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        for xid in barriers {
            run.reply(1, OfMessage::BarrierReply { xid });
        }
        run.reply(
            4,
            echo.error_reply(openflow::constants::error_type::BAD_REQUEST, 0),
        );
        assert_eq!(
            run.answered(),
            (vec![], vec![], vec![]),
            "barrier 9 released"
        );
        run.fire_until(Duration::from_secs(1));
        assert_eq!(run.answered(), (vec![5], vec![9], vec![5]));
    }

    /// A mod confirms once, however often its technique claims it.
    #[test]
    fn a_mod_confirms_once() {
        let mut run = Run::started(engine(TechniqueConfig::AdaptiveDelay {
            assumed_rate: 100.0,
            assumed_sync_lag: Duration::ZERO,
        }));
        run.send(0, flow_mod(5));
        let token = TimerToken::from_raw(0);
        for ms in [10, 20] {
            run.feed(Duration::from_millis(ms), Input::TimerFired { token });
        }
        assert_eq!(run.answered(), (vec![5], vec![], vec![5]));
    }

    fn flow_mod(xid: Xid) -> OfMessage {
        OfMessage::FlowMod {
            xid,
            body: FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
                100,
                vec![Action::output(2)],
            ),
        }
    }

    #[test]
    fn baseline_flow_mod_round_trip_confirms() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        let sw = SwitchId::new(0);
        assert!(e.start(Duration::ZERO).is_empty());

        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(42),
            },
        );
        // Forwarded flow-mod + a proxy barrier.
        let barrier_xid = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .expect("proxy barrier injected");
        assert!(barrier_xid >= PROXY_XID_BASE);
        assert!(matches!(
            effects[0],
            Effect::ToSwitch {
                message: OfMessage::FlowMod { xid: 42, .. },
                ..
            }
        ));
        assert_eq!(e.stats(sw).unconfirmed, 1);

        let effects = e.handle(
            Duration::from_millis(1),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: barrier_xid },
            },
        );
        assert!(effects.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 42
        }));
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController { message, .. } if message.as_rum_ack() == Some(42)
        )));
        assert_eq!(e.stats(sw).unconfirmed, 0);
        assert_eq!(e.stats(sw).acks_sent, 1);
        assert_eq!(e.confirmed_order(), vec![(sw, 42)]);
        assert_eq!(e.confirmations()[0].cookie, 42);
        assert_eq!(e.confirmations()[0].at, Duration::from_millis(1));
    }

    #[test]
    fn static_timeout_defers_until_timer() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(300),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(7),
            },
        );
        let barrier_xid = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .unwrap();
        let effects = e.handle(
            Duration::from_millis(5),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: barrier_xid },
            },
        );
        let (delay, token) = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ArmTimer { delay, token } => Some((*delay, *token)),
                _ => None,
            })
            .expect("timer armed");
        assert_eq!(delay, Duration::from_millis(300));
        assert!(!effects
            .iter()
            .any(|eff| matches!(eff, Effect::Confirmed { .. })));

        let effects = e.handle(Duration::from_millis(305), Input::TimerFired { token });
        assert!(effects.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 7
        }));
    }

    #[test]
    fn reserved_xid_from_controller_is_rejected() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(PROXY_XID_BASE + 5),
            },
        );
        // Not forwarded, answered with an error instead.
        assert!(!effects
            .iter()
            .any(|eff| matches!(eff, Effect::ToSwitch { .. })));
        let err = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToController {
                    message: OfMessage::Error { xid, body },
                    ..
                } => Some((*xid, body.err_type)),
                _ => None,
            })
            .expect("rejection error sent");
        assert_eq!(err.0, PROXY_XID_BASE + 5);
        assert_eq!(err.1, openflow::constants::error_type::BAD_REQUEST);
        assert_eq!(e.stats(sw).rejected_xids, 1);
        assert_eq!(e.stats(sw).controller_flow_mods, 0);
        assert_eq!(e.stats(sw).unconfirmed, 0);
    }

    #[test]
    fn reliable_barrier_is_held_until_confirmation() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(100),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(9),
            },
        );
        let proxy_barrier = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .unwrap();
        // Controller barrier arrives; reply must be withheld.
        let effects = e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 77 },
            },
        );
        assert!(!effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { .. },
                ..
            }
        )));
        // Switch replies to both barriers; still no release (timer pending).
        e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: proxy_barrier },
            },
        );
        let effects = e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 77 },
            },
        );
        assert!(!effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { .. },
                ..
            }
        )));
        // The timeout fires -> cookie 9 confirms -> barrier 77 releases.
        let token = TimerToken::from_raw(0); // switch 0, technique token 0
        let effects = e.handle(Duration::from_millis(102), Input::TimerFired { token });
        assert!(effects.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 9
        }));
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { xid: 77 },
                ..
            }
        )));
        assert_eq!(e.stats(sw).barrier_replies_released, 1);
    }

    #[test]
    fn buffered_commands_replay_with_current_time_not_zero() {
        // Adaptive delay is the time-sensitive technique: if a buffered
        // flow-mod were replayed with now = 0 after a barrier release, its
        // confirmation timer would stretch to the absolute elapsed time.
        let mut e = RumBuilder::new(1)
            .technique(TechniqueConfig::AdaptiveDelay {
                assumed_rate: 100.0, // 10 ms per modification
                assumed_sync_lag: Duration::ZERO,
            })
            .buffer_across_barriers(true)
            .build();
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(5),
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 50 },
            },
        );
        // Arrives behind the pending barrier: buffered.
        let fx = e.handle(
            Duration::from_millis(2),
            Input::FromController {
                switch: sw,
                message: flow_mod(6),
            },
        );
        assert!(fx.is_empty(), "flow-mod behind a barrier must be buffered");
        e.handle(
            Duration::from_millis(3),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 50 },
            },
        );
        // Cookie 5's adaptive timer fires at t = 10 ms; the barrier releases
        // and the buffered flow-mod 6 replays *at t = 10 ms*: its adaptive
        // estimate is 10 ms out (virtual clock 20 ms minus now), not 20 ms
        // (which would mean it was replayed with now = 0).
        let fx = e.handle(
            Duration::from_millis(10),
            Input::TimerFired {
                token: TimerToken::from_raw(0),
            },
        );
        assert!(fx.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 5
        }));
        let replay_delay = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ArmTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("replayed flow-mod arms its adaptive timer");
        assert_eq!(replay_delay, Duration::from_millis(10));
    }

    #[test]
    fn liveness_traffic_bypasses_the_barrier_buffer() {
        let mut e = RumBuilder::new(1)
            .technique(TechniqueConfig::StaticTimeout {
                delay: Duration::from_secs(1),
            })
            .buffer_across_barriers(true)
            .build();
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(1),
            },
        );
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 9 },
            },
        );
        // An echo behind the pending barrier must pass straight through —
        // holding it would trip the switch's keepalive.
        let fx = e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::EchoRequest {
                    xid: 2,
                    data: vec![1],
                },
            },
        );
        assert_eq!(
            fx,
            vec![Effect::ToSwitch {
                switch: sw,
                message: OfMessage::EchoRequest {
                    xid: 2,
                    data: vec![1],
                },
            }]
        );
        // A flow-mod is still buffered.
        let fx = e.handle(
            Duration::from_millis(2),
            Input::FromController {
                switch: sw,
                message: flow_mod(3),
            },
        );
        assert!(fx.is_empty());
    }

    /// A reconnect re-issues exactly the unconfirmed modifications (oldest
    /// first) and re-arms the technique; confirmed ones stay resolved, and
    /// the re-issued ones confirm through the fresh barrier.
    #[test]
    fn reconnect_reissues_unconfirmed_and_rearms() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let fx = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(1),
            },
        );
        let first_barrier = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .unwrap();
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: flow_mod(2),
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: flow_mod(3),
            },
        );
        // Cookie 1 confirms pre-restart; 2 and 3 stay unconfirmed.
        e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: first_barrier },
            },
        );
        assert_eq!(e.stats(sw).unconfirmed, 2);

        let fx = e.handle(
            Duration::from_millis(500),
            Input::SwitchReconnected { switch: sw },
        );
        let reissued: Vec<Xid> = fx
            .iter()
            .filter_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::FlowMod { xid, .. },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert_eq!(reissued, vec![2, 3], "unconfirmed mods re-issued in order");
        let rearm_barrier = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .expect("technique re-arms a fresh barrier behind the re-issue");
        assert_eq!(e.stats(sw).reconnects, 1);
        assert_eq!(e.stats(sw).reissued_flow_mods, 2);
        // The baseline is not probing: no catch rule re-install.
        assert_eq!(e.stats(sw).proxy_flow_mods, 0);

        // The fresh barrier's reply confirms both re-issued cookies.
        let fx = e.handle(
            Duration::from_millis(501),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: rearm_barrier },
            },
        );
        let confirmed: Vec<u64> = fx
            .iter()
            .filter_map(|eff| match eff {
                Effect::Confirmed { cookie, .. } => Some(*cookie),
                _ => None,
            })
            .collect();
        assert_eq!(confirmed, vec![2, 3]);
        assert_eq!(e.stats(sw).unconfirmed, 0);

        // A reconnect with nothing outstanding is quiet.
        let fx = e.handle(
            Duration::from_millis(600),
            Input::SwitchReconnected { switch: sw },
        );
        assert!(fx.is_empty());
        assert_eq!(e.stats(sw).reconnects, 2);
    }

    /// A controller barrier withheld across the restart is re-forwarded on
    /// reconnect (the original request died with the channel) and releases
    /// once the reattached switch replies and the covered modification
    /// confirms — the update does not stall on a pre-restart barrier.
    #[test]
    fn reconnect_reforwards_unanswered_reliable_barriers() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(100),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(9),
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 77 },
            },
        );
        // The switch restarts before replying to anything; the reconnect
        // must re-forward barrier 77 alongside the re-issued flow-mod.
        let fx = e.handle(
            Duration::from_millis(400),
            Input::SwitchReconnected { switch: sw },
        );
        let barriers: Vec<Xid> = fx
            .iter()
            .filter_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert!(
            barriers.contains(&77),
            "the withheld controller barrier must be re-forwarded: {barriers:?}"
        );
        let proxy_barrier = barriers
            .iter()
            .copied()
            .find(|&x| x >= PROXY_XID_BASE)
            .expect("the technique re-arms its own barrier too");

        // The reattached switch answers both; the hold-down timer then
        // confirms cookie 9 and barrier 77 finally releases.
        let fx = e.handle(
            Duration::from_millis(401),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: proxy_barrier },
            },
        );
        let token = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ArmTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("hold-down timer armed after the re-armed barrier reply");
        let fx = e.handle(
            Duration::from_millis(401),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 77 },
            },
        );
        assert!(!fx.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { .. },
                ..
            }
        )));
        let fx = e.handle(Duration::from_millis(502), Input::TimerFired { token });
        assert!(fx.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 9
        }));
        assert!(
            fx.iter().any(|eff| matches!(
                eff,
                Effect::ToController {
                    message: OfMessage::BarrierReply { xid: 77 },
                    ..
                }
            )),
            "{fx:?}"
        );
        assert_eq!(e.stats(sw).barrier_replies_released, 1);
    }

    /// Probing deployments additionally re-install the probe-catch rule on
    /// the reattached switch.
    #[test]
    fn reconnect_reinstalls_catch_rule_for_probing() {
        let mut e = RumBuilder::new(1)
            .technique(TechniqueConfig::default_general())
            .build();
        let sw = SwitchId::new(0);
        let start_mods = e
            .start(Duration::ZERO)
            .iter()
            .filter(|eff| {
                matches!(
                    eff,
                    Effect::ToSwitch {
                        message: OfMessage::FlowMod { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(start_mods, 1, "catch rule installed at start");
        let fx = e.handle(
            Duration::from_millis(5),
            Input::SwitchReconnected { switch: sw },
        );
        let catch_reinstalls = fx
            .iter()
            .filter(|eff| {
                matches!(
                    eff,
                    Effect::ToSwitch {
                        message: OfMessage::FlowMod { xid, .. },
                        ..
                    } if *xid >= PROXY_XID_BASE
                )
            })
            .count();
        assert_eq!(catch_reinstalls, 1, "catch rule re-installed on reconnect");
        assert_eq!(e.stats(sw).proxy_flow_mods, 2);
    }

    /// Switches 0 and 30 of a 100-switch ring share a catch colour and a
    /// probe-id band, so identical rules make them expect identical probes;
    /// a probe punted by switch 1 can only have come through switch 0.
    #[test]
    fn probe_return_is_offered_only_upstream_of_the_catching_switch() {
        use crate::shard::tests::{punted, ring};
        let mut e = RumEngine::new(ring(100, TechniqueConfig::default_general()));
        e.start(Duration::ZERO);
        let mut probes = [0, 30].map(|switch| {
            e.handle(
                Duration::ZERO,
                Input::FromController {
                    switch: SwitchId::new(switch),
                    message: flow_mod(7),
                },
            )
            .into_iter()
            .find_map(|eff| match eff {
                Effect::InjectVia {
                    message: OfMessage::PacketOut { body, .. },
                    ..
                } => Some(body.data),
                _ => None,
            })
            .expect("probe injected")
        });
        assert_eq!(probes[0], probes[1], "both expect the very same probe");
        let data = std::mem::take(&mut probes[0]);
        let effects = e.handle(Duration::from_millis(1), punted(1, 1, data));
        let confirmed: Vec<SwitchId> = effects
            .iter()
            .filter_map(|eff| match eff {
                Effect::Confirmed { switch, .. } => Some(*switch),
                _ => None,
            })
            .collect();
        assert_eq!(confirmed, vec![SwitchId::new(0)]);
        assert_eq!(e.stats(SwitchId::new(1)).probes_consumed, 1);
        assert_eq!(e.stats(SwitchId::new(30)).unconfirmed, 1);
    }

    /// One fixed script per technique on a 3-switch ring, pinned by the
    /// FNV-64 of every effect's `Debug` text: confirms, xids, probes and the
    /// point at which each timer is armed must not move.  The script (an
    /// ADD, a drop-rule ADD and a DELETE_STRICT on switch 0 plus one
    /// controller barrier; a reply to every barrier; the first injected
    /// probe punted back; every timer due within a second fired in deadline
    /// order; one reconnect) reuses no cookie.
    #[test]
    fn effect_stream_is_pinned() {
        use crate::shard::tests::punted;

        let sw = SwitchId::new(0);
        let m = |i| OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i));
        let script = [
            OfMessage::FlowMod {
                xid: 1,
                body: FlowMod::add(m(1), 100, vec![Action::output(2)]),
            },
            OfMessage::FlowMod {
                xid: 2,
                body: FlowMod::add(m(2), 100, vec![]),
            },
            OfMessage::FlowMod {
                xid: 3,
                body: FlowMod::delete_strict(m(1), 100),
            },
            OfMessage::BarrierRequest { xid: 4 },
        ];
        for (technique, expected) in [
            (TechniqueConfig::BarrierBaseline, 0xb8aa_830f_1614_4fe4),
            (
                TechniqueConfig::StaticTimeout {
                    delay: Duration::from_millis(50),
                },
                0xe405_4afc_52c2_1526,
            ),
            (
                TechniqueConfig::AdaptiveDelay {
                    assumed_rate: 100.0,
                    assumed_sync_lag: Duration::from_millis(20),
                },
                0xc72b_07c0_6359_bbfd,
            ),
            (TechniqueConfig::default_sequential(), 0x0f58_a1cc_4623_4bf7),
            (TechniqueConfig::default_general(), 0x2120_012d_c66e_66a3),
        ] {
            let label = technique.label();
            let mut run = Run::on_ring(technique);
            for (t, message) in (1..).zip(script.clone()) {
                run.feed(
                    Duration::from_millis(t),
                    Input::FromController {
                        switch: sw,
                        message,
                    },
                );
            }
            let barriers: Vec<(SwitchId, Xid)> = (run.log.iter())
                .filter_map(|effect| match effect {
                    Effect::ToSwitch {
                        switch,
                        message: OfMessage::BarrierRequest { xid },
                    } => Some((*switch, *xid)),
                    _ => None,
                })
                .collect();
            for (switch, xid) in barriers {
                run.feed(
                    Duration::from_millis(5),
                    Input::FromSwitch {
                        switch,
                        message: OfMessage::BarrierReply { xid },
                    },
                );
            }
            // Switch 0's rule forwards to switch 1, which punts the probe
            // after it arrives on its port 1.
            let probe = run.log.iter().find_map(|effect| match effect {
                Effect::InjectVia {
                    message: OfMessage::PacketOut { body, .. },
                    ..
                } => Some(body.data.clone()),
                _ => None,
            });
            if let Some(data) = probe {
                run.feed(Duration::from_millis(6), punted(1, 1, data));
            }
            run.fire_until(Duration::from_secs(1));
            run.feed(
                Duration::from_secs(2),
                Input::SwitchReconnected { switch: sw },
            );

            let log = run.log;
            let hash = log.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, effect| {
                format!("{effect:?}\n").bytes().fold(h, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
            });
            assert_eq!(
                hash,
                expected,
                "{label}: {} effects hash to {hash:#018x}",
                log.len()
            );
        }
    }

    #[test]
    fn tick_and_double_start_are_harmless() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        e.start(Duration::ZERO);
        assert!(e.start(Duration::from_millis(1)).is_empty());
        assert_eq!(e.config().technique.label(), "barriers");
        assert_eq!(e.n_switches(), 1);
        assert_eq!(format!("{}", SwitchId::new(3)), "sw3");
    }

    #[test]
    fn switch_error_resolves_barrier_and_passes_through() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_secs(10),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(13),
            },
        );
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 50 },
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 50 },
            },
        );
        // The switch reports the flow-mod failed: error passes through and
        // the held barrier releases without waiting for the (hopeless)
        // confirmation.
        let effects = e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::Error {
                    xid: 13,
                    body: openflow::messages::ErrorMsg {
                        err_type: openflow::constants::error_type::FLOW_MOD_FAILED,
                        code: 0,
                        data: vec![],
                    },
                },
            },
        );
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::Error { xid: 13, .. },
                ..
            }
        )));
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { xid: 50 },
                ..
            }
        )));
        assert!(!effects
            .iter()
            .any(|eff| matches!(eff, Effect::Confirmed { .. })));
    }
}
