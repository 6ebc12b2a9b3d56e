//! The sans-IO chain, replayed single-threaded on a virtual clock with a
//! span around every call into a layer:
//!
//! ```text
//! SessionMux / UpdateSession ─▶ OfCodec ─▶ ShardedEngine::handle_into ─▶ OfCodec
//!        ▲                                                                 │
//!        └──────────── OfCodec ◀── ofswitch::Behavior (+ FlowTable) ◀──────┘
//! ```
//!
//! It mirrors what `rum_tcp`'s controller drivers, proxy and switch hosts do
//! with sockets, threads and sleeps, minus the sockets, threads and sleeps:
//! every message crosses a hop as encode-then-decode, switch replies leave
//! at the instant the behaviour engine schedules them, probe packets hop the
//! ring instantly, and the clock steps to the next deadline.  What the
//! replay costs is what the layers cost; what the real run costs on top is
//! `rum_tcp.wire_residual_us_per_kop`.

use crate::ring::{drop_all, RING_IN_PORT, RING_OUT_PORT};
use crate::trace::Tracer;
use controller::{
    AckMode, ConnId, SessionEffect, SessionInput, SessionTimerToken, UpdatePlan, UpdateSession,
};
use ofswitch::{Behavior, BehaviorAction, FaultPlan, SwitchModel};
use openflow::constants::{packet_in_reason, port as of_port};
use openflow::messages::{PacketIn, PacketOut};
use openflow::{Action, OfCodec, OfMessage, PacketHeader, PortNo};
use rum::{Effect, Input, ProxyStats, RumBuilder, ShardedEngine, SwitchId, TimerToken};
use sessiond::{MuxConfig, MuxEffect, MuxInput, MuxTimerToken, SessionMux};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

/// Span names that make up the chain; their self times sum to what the
/// replay cost.
const CHAIN_LAYERS: [&str; 10] = [
    "controller.session",
    "sessiond.submit",
    "sessiond.handle",
    "openflow.encode",
    "openflow.decode",
    "rum.handle.flowmod",
    "rum.handle.probe_return",
    "rum.handle.timer",
    "rum.handle.other",
    "ofswitch.behavior",
];

/// Virtual-time horizon: a replay that has not completed by then reports
/// the missing confirmations instead of spinning.
const HORIZON: Duration = Duration::from_secs(600);

/// The controller end of the chain.  One lives per replay, so the size
/// difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Driver {
    Single(UpdateSession),
    Mux {
        mux: SessionMux,
        plans: Vec<UpdatePlan>,
    },
}

impl Driver {
    pub fn single(plan: UpdatePlan, window: usize) -> Self {
        Driver::Single(UpdateSession::new(plan, AckMode::RumAcks, window))
    }

    pub fn mux(config: MuxConfig, plans: Vec<UpdatePlan>) -> Self {
        Driver::Mux {
            mux: SessionMux::new(config),
            plans,
        }
    }

    fn done(&self) -> bool {
        match self {
            Driver::Single(s) => s.outcome().is_some(),
            Driver::Mux { mux, plans } => plans.is_empty() && mux.all_done(),
        }
    }
}

/// What a replay leaves behind besides its spans.
#[derive(Default)]
pub struct Replayed {
    /// Confirmations the controller end saw.
    pub confirmed: u64,
    /// Virtual time of the last one.
    pub completion: Duration,
    /// Bytes that crossed a hop.
    pub wire_bytes: u64,
    pub decode_errors: u64,
    /// Wire cookie → flow-mods the engine had already taken for that switch.
    pub occupancy_at: HashMap<u64, u32>,
    /// Most sessions the mux held queued at once.
    pub queued_max: usize,
    pub stats: ProxyStats,
    /// Events the virtual clock stepped through.
    pub events: u64,
}

impl Replayed {
    /// Self time of every chain layer, summed.
    pub fn layer_self_ns(&self, tracer: &Tracer) -> u64 {
        let times = tracer.self_times();
        CHAIN_LAYERS
            .iter()
            .filter_map(|n| times.get(n))
            .map(|t| t.self_ns)
            .sum()
    }
}

enum Event {
    EngineTimer(TimerToken),
    ControllerTimer(u64),
    /// A reply the switch's serial control plane scheduled leaves the switch.
    SwitchReply {
        sw: usize,
        message: OfMessage,
    },
    /// A data-plane packet arrives on a switch port.
    Packet {
        sw: usize,
        header: PacketHeader,
        in_port: PortNo,
    },
    /// The switch's behaviour engine has work due (sync, batch, barrier).
    Wake {
        sw: usize,
    },
}

struct Scheduled {
    at: Duration,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (at, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A message in flight between two layers within one instant.
enum Work {
    /// Controller → proxy on connection `conn`.
    FromController {
        conn: usize,
        message: OfMessage,
    },
    /// Proxy → controller on connection `conn`.
    ToController {
        conn: usize,
        message: OfMessage,
    },
    /// Proxy → switch.
    ToSwitch {
        sw: usize,
        message: OfMessage,
    },
    /// Switch → proxy.
    FromSwitch {
        sw: usize,
        message: OfMessage,
    },
    Engine(Input),
}

struct Chain<'t> {
    tracer: &'t mut Tracer,
    now: Duration,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    work: VecDeque<Work>,
    driver: Driver,
    engine: ShardedEngine,
    switches: Vec<Behavior>,
    /// Earliest `Wake` already scheduled per switch.
    wake_at: Vec<Option<Duration>>,
    mods_seen: Vec<u32>,
    probe_seq: u64,
    codec: OfCodec,
    wire: Vec<u8>,
    effects: Vec<Effect>,
    actions: Vec<BehaviorAction>,
    out: Replayed,
}

impl Chain<'_> {
    fn schedule(&mut self, at: Duration, event: Event) {
        self.seq += 1;
        self.heap.push(Scheduled {
            at: at.max(self.now),
            seq: self.seq,
            event,
        });
    }

    /// One hop: the sender encodes, the receiver decodes.
    fn hop(&mut self, message: &OfMessage) -> Option<OfMessage> {
        let request = u64::from(message.xid());
        self.tracer.enter("openflow.encode", request);
        self.wire.clear();
        let encoded = message.encode_into(&mut self.wire).is_ok();
        self.tracer.exit();
        if !encoded {
            return None;
        }
        self.out.wire_bytes += self.wire.len() as u64;
        self.tracer.enter("openflow.decode", request);
        self.codec.feed(&self.wire);
        let decoded = self.codec.next_message();
        self.tracer.exit();
        match decoded {
            Ok(m) => m,
            Err(_) => {
                self.out.decode_errors += 1;
                None
            }
        }
    }

    // -- controller end ------------------------------------------------

    fn session_effects(&mut self, effects: Vec<SessionEffect>) {
        for effect in effects {
            match effect {
                SessionEffect::Send { conn, message } => {
                    self.work.push_back(Work::FromController {
                        conn: conn.index(),
                        message,
                    })
                }
                SessionEffect::ArmTimer { delay, token } => {
                    self.schedule(self.now + delay, Event::ControllerTimer(token.raw()));
                }
                SessionEffect::Confirmed { .. } => {
                    self.out.confirmed += 1;
                    self.out.completion = self.now;
                }
                _ => {}
            }
        }
    }

    fn mux_effects(&mut self, effects: Vec<MuxEffect>) {
        for effect in effects {
            match effect {
                MuxEffect::Send { conn, message } => self.work.push_back(Work::FromController {
                    conn: conn.index(),
                    message,
                }),
                MuxEffect::ArmTimer { delay, token } => {
                    self.schedule(self.now + delay, Event::ControllerTimer(token.raw()));
                }
                MuxEffect::Confirmed { .. } => {
                    self.out.confirmed += 1;
                    self.out.completion = self.now;
                }
                _ => {}
            }
        }
    }

    /// Releases the update: `Started` for the single session, every tenant
    /// plan submitted up front for the mux.
    fn release(&mut self) {
        match &mut self.driver {
            Driver::Single(session) => {
                let mut fx = Vec::new();
                self.tracer.enter("controller.session", 0);
                session.handle_into(self.now, SessionInput::Started, &mut fx);
                self.tracer.exit();
                self.session_effects(fx);
            }
            Driver::Mux { mux, plans } => {
                let mut fx = Vec::new();
                for (t, plan) in std::mem::take(plans).into_iter().enumerate() {
                    self.tracer.enter("sessiond.submit", t as u64);
                    let admitted = mux.submit(plan, self.now, &mut fx);
                    self.tracer.exit();
                    admitted.expect("disjoint tenant plans admit");
                    self.out.queued_max = self.out.queued_max.max(mux.queued_sessions());
                }
                self.mux_effects(fx);
            }
        }
    }

    fn controller_input(&mut self, conn: usize, message: OfMessage) {
        let request = u64::from(message.xid());
        let conn = ConnId::new(conn);
        match &mut self.driver {
            Driver::Single(session) => {
                let mut fx = Vec::new();
                self.tracer.enter("controller.session", request);
                session.handle_into(
                    self.now,
                    SessionInput::FromSwitch { conn, message },
                    &mut fx,
                );
                self.tracer.exit();
                self.session_effects(fx);
            }
            Driver::Mux { mux, .. } => {
                let mut fx = Vec::new();
                self.tracer.enter("sessiond.handle", request);
                mux.handle(self.now, MuxInput::FromSwitch { conn, message }, &mut fx);
                self.tracer.exit();
                self.mux_effects(fx);
            }
        }
    }

    fn controller_timer(&mut self, raw: u64) {
        match &mut self.driver {
            Driver::Single(session) => {
                let mut fx = Vec::new();
                self.tracer.enter("controller.session", raw);
                session.handle_into(
                    self.now,
                    SessionInput::TimerFired {
                        token: SessionTimerToken::from_raw(raw),
                    },
                    &mut fx,
                );
                self.tracer.exit();
                self.session_effects(fx);
            }
            Driver::Mux { mux, .. } => {
                let mut fx = Vec::new();
                self.tracer.enter("sessiond.handle", raw);
                mux.handle(
                    self.now,
                    MuxInput::TimerFired {
                        token: MuxTimerToken::from_raw(raw),
                    },
                    &mut fx,
                );
                self.tracer.exit();
                self.mux_effects(fx);
            }
        }
    }

    // -- the engine ----------------------------------------------------

    fn engine_input(&mut self, input: Input) {
        let (name, request) = match &input {
            Input::FromController {
                switch,
                message: OfMessage::FlowMod { xid, .. },
            } => {
                let seen = &mut self.mods_seen[switch.index()];
                self.out.occupancy_at.insert(u64::from(*xid), *seen);
                *seen += 1;
                ("rum.handle.flowmod", u64::from(*xid))
            }
            Input::FromSwitch {
                message: OfMessage::PacketIn { .. },
                ..
            } => {
                self.probe_seq += 1;
                ("rum.handle.probe_return", self.probe_seq)
            }
            Input::TimerFired { token } => ("rum.handle.timer", token.raw()),
            Input::FromController { message, .. } | Input::FromSwitch { message, .. } => {
                ("rum.handle.other", u64::from(message.xid()))
            }
            _ => ("rum.handle.other", 0),
        };
        self.effects.clear();
        self.tracer.enter(name, request);
        self.engine.handle_into(self.now, input, &mut self.effects);
        self.tracer.exit();
        self.engine_effects();
    }

    fn engine_effects(&mut self) {
        for effect in std::mem::take(&mut self.effects) {
            match effect {
                Effect::ToSwitch { switch, message } | Effect::InjectVia { switch, message } => {
                    self.work.push_back(Work::ToSwitch {
                        sw: switch.index(),
                        message,
                    });
                }
                Effect::ToController { via, message } => self.work.push_back(Work::ToController {
                    conn: via.index(),
                    message,
                }),
                Effect::ArmTimer { delay, token } => {
                    self.schedule(self.now + delay, Event::EngineTimer(token));
                }
                Effect::Confirmed { .. } => {}
            }
        }
    }

    // -- the switches --------------------------------------------------

    /// Sends `header` out of `port` of switch `sw`: the controller port is a
    /// PacketIn, a ring port is the neighbour's inbox.
    fn output(&mut self, sw: usize, header: &PacketHeader, in_port: PortNo, port: PortNo) {
        let n = self.switches.len();
        match port {
            of_port::CONTROLLER => {
                let body =
                    PacketIn::unbuffered(in_port, packet_in_reason::ACTION, header.to_bytes());
                self.schedule(
                    self.now,
                    Event::SwitchReply {
                        sw,
                        message: OfMessage::PacketIn { xid: 0, body },
                    },
                );
            }
            RING_OUT_PORT => self.schedule(
                self.now,
                Event::Packet {
                    sw: (sw + 1) % n,
                    header: *header,
                    in_port: RING_IN_PORT,
                },
            ),
            RING_IN_PORT => self.schedule(
                self.now,
                Event::Packet {
                    sw: (sw + n - 1) % n,
                    header: *header,
                    in_port: RING_OUT_PORT,
                },
            ),
            _ => {}
        }
    }

    fn forward_via_table(&mut self, sw: usize, header: PacketHeader, in_port: PortNo) {
        let verdict = self.switches[sw].classify_packet(self.now, &header, in_port, 64);
        if verdict.matched {
            for port in verdict.outputs {
                self.output(sw, &verdict.rewritten, in_port, port);
            }
        }
    }

    fn packet_out(&mut self, sw: usize, po: PacketOut) {
        let Ok(header) = PacketHeader::from_bytes(&po.data) else {
            return;
        };
        let cost = self.switches[sw].model().packet_out_time;
        self.switches[sw].consume_cpu(self.now, cost);
        let (rewritten, outputs) = Action::apply_list(&po.actions, &header);
        let in_port = if po.in_port == of_port::NONE {
            0
        } else {
            po.in_port
        };
        for port in outputs {
            if port == of_port::TABLE {
                self.forward_via_table(sw, rewritten, in_port);
            } else {
                self.output(sw, &rewritten, in_port, port);
            }
        }
    }

    /// Runs `f` on switch `sw` under one `ofswitch.behavior` span, after
    /// letting the behaviour engine catch up to `now`; then schedules what
    /// it asked for.
    fn on_switch(&mut self, sw: usize, request: u64, f: impl FnOnce(&mut Self)) {
        self.tracer.enter("ofswitch.behavior", request);
        let mut actions = std::mem::take(&mut self.actions);
        self.switches[sw].advance(self.now, &mut actions);
        self.actions = actions;
        f(self);
        self.tracer.exit();
        for action in std::mem::take(&mut self.actions) {
            if let BehaviorAction::Reply { at, message } = action {
                self.schedule(at, Event::SwitchReply { sw, message });
            }
        }
        if let Some(deadline) = self.switches[sw].next_deadline() {
            if self.wake_at[sw].is_none_or(|w| deadline < w) {
                self.wake_at[sw] = Some(deadline);
                self.schedule(deadline, Event::Wake { sw });
            }
        }
    }

    fn switch_message(&mut self, sw: usize, message: OfMessage) {
        let request = u64::from(message.xid());
        self.on_switch(sw, request, |chain| match message {
            OfMessage::PacketOut { body, .. } => chain.packet_out(sw, body),
            other => {
                let mut actions = std::mem::take(&mut chain.actions);
                chain.switches[sw].handle_message(chain.now, &other, &mut actions);
                chain.actions = actions;
            }
        });
    }

    // -- the loop ------------------------------------------------------

    /// Drains everything the current instant set in motion.
    fn settle(&mut self) {
        while let Some(work) = self.work.pop_front() {
            match work {
                Work::FromController { conn, message } => {
                    if let Some(message) = self.hop(&message) {
                        self.work.push_back(Work::Engine(Input::FromController {
                            switch: SwitchId::new(conn),
                            message,
                        }));
                    }
                }
                Work::FromSwitch { sw, message } => {
                    if let Some(message) = self.hop(&message) {
                        self.work.push_back(Work::Engine(Input::FromSwitch {
                            switch: SwitchId::new(sw),
                            message,
                        }));
                    }
                }
                Work::ToSwitch { sw, message } => {
                    if let Some(message) = self.hop(&message) {
                        self.switch_message(sw, message);
                    }
                }
                Work::ToController { conn, message } => {
                    if let Some(message) = self.hop(&message) {
                        self.controller_input(conn, message);
                    }
                }
                Work::Engine(input) => self.engine_input(input),
            }
        }
    }

    fn run(&mut self) {
        self.effects = self.engine.start(self.now);
        self.engine_effects();
        self.settle();
        self.release();
        self.settle();
        while !self.driver.done() {
            let Some(Scheduled { at, event, .. }) = self.heap.pop() else {
                break;
            };
            if at > HORIZON {
                break;
            }
            self.now = at;
            self.out.events += 1;
            match event {
                Event::EngineTimer(token) => {
                    self.work
                        .push_back(Work::Engine(Input::TimerFired { token }));
                }
                Event::ControllerTimer(raw) => self.controller_timer(raw),
                Event::SwitchReply { sw, message } => {
                    self.work.push_back(Work::FromSwitch { sw, message });
                }
                Event::Packet {
                    sw,
                    header,
                    in_port,
                } => {
                    self.probe_seq += 1;
                    self.on_switch(sw, self.probe_seq, |chain| {
                        chain.forward_via_table(sw, header, in_port);
                    });
                }
                Event::Wake { sw } => {
                    if self.wake_at[sw] == Some(at) {
                        self.wake_at[sw] = None;
                    }
                    self.on_switch(sw, 0, |_| {});
                }
            }
            self.settle();
        }
        self.out.stats = self.engine.total_stats();
    }
}

/// Replays `driver`'s update over a ring of `n_switches` switches of the
/// given model behind the engine `builder` describes.
pub fn replay(
    tracer: &mut Tracer,
    driver: Driver,
    n_switches: usize,
    model: &SwitchModel,
    builder: RumBuilder,
) -> Replayed {
    let switches = (0..n_switches)
        .map(|_| {
            let mut b = Behavior::new(model.clone(), FaultPlan::none());
            b.preinstall(&drop_all());
            b
        })
        .collect();
    let mut chain = Chain {
        tracer,
        now: Duration::ZERO,
        seq: 0,
        heap: BinaryHeap::new(),
        work: VecDeque::new(),
        driver,
        engine: builder.build_sharded(),
        switches,
        wake_at: vec![None; n_switches],
        mods_seen: vec![0; n_switches],
        probe_seq: 0,
        codec: OfCodec::new(),
        wire: Vec::new(),
        effects: Vec::new(),
        actions: Vec::new(),
        out: Replayed::default(),
    };
    chain.run();
    chain.out
}
