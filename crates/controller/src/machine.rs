//! The controller-side sans-IO boundary.
//!
//! A [`Machine`] is anything a controller transport can drive: it takes
//! [`MachineInput`]s (start, switch messages, fired timers) with the current
//! time and appends effects; [`Machine::lower`] turns each effect into the
//! four things a transport can do ([`MachineEffect`]).  There is one driver
//! per transport — [`crate::controller::MachineNode`] in the simulator,
//! `rum_tcp::TcpDriver` over sockets — and two machines: [`SessionMachine`]
//! here (one plan, optionally with declarative resync) and
//! `sessiond::SessionMux` (many tenants).
//!
//! [`SessionMachine`] is also the only place that decides which engine owns
//! a switch message or timer once resync is enabled, so the two transports
//! agree by construction.

use crate::resync::{Reconciler, ResyncConfig, ResyncEffect, ResyncInput, RESYNC_TIMER_BASE};
use crate::session::{ConnId, SessionEffect, SessionInput, SessionTimerToken, UpdateSession};
use openflow::OfMessage;
use std::time::Duration;

/// Everything a transport can feed into a [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub enum MachineInput {
    /// Every expected switch connection is up (fed once).
    Started,
    /// The switch behind `conn` sent `message`.
    FromSwitch {
        /// The connection that carried the message.
        conn: ConnId,
        /// The decoded message.
        message: OfMessage,
    },
    /// A timer requested via [`MachineEffect::ArmTimer`] expired.
    TimerFired {
        /// The raw token from the arming effect.
        raw: u64,
    },
}

/// Everything a [`Machine`] can ask of a transport.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineEffect {
    /// Send `message` on `conn`; dropped if the transport has no such
    /// connection.
    Send {
        /// The destination connection.
        conn: ConnId,
        /// The message to send.
        message: OfMessage,
    },
    /// Feed [`MachineInput::TimerFired`] with `raw` back after `delay`.
    ArmTimer {
        /// How long to wait.
        delay: Duration,
        /// Token identifying the timer.
        raw: u64,
    },
    /// Observational: the modification with this wire cookie is confirmed.
    Confirmed {
        /// The cookie the data plane sees.
        cookie: u64,
    },
    /// Observational: a milestone worth a trace marker.
    Note {
        /// What happened (the native effect, `Debug`-rendered).
        text: String,
        /// Whether something reached a terminal state (a session outcome,
        /// a finished resync), so blocked waiters should look again.
        terminal: bool,
    },
}

/// A sans-IO controller state machine, drivable by any transport.
pub trait Machine {
    /// The machine's native effect; buffered by the driver between
    /// [`Machine::handle`] and [`Machine::lower`], never inspected.
    type Effect;

    /// Feeds one input, appending the resulting effects in order.
    fn handle(&mut self, now: Duration, input: MachineInput, effects: &mut Vec<Self::Effect>);

    /// Translates one native effect into what the transport must do.
    fn lower(&self, effect: Self::Effect) -> MachineEffect;
}

/// True if `token` is in the reconciler's timer namespace (session tokens
/// are small sequence numbers, so magnitude alone tells the two apart).
pub const fn is_resync_token(token: u64) -> bool {
    token >= RESYNC_TIMER_BASE
}

/// Capacity the reusable session-effects buffer keeps between inputs.
const RETAINED_EFFECTS: usize = 1024;

/// One [`UpdateSession`] plus, once [`SessionMachine::enable_resync`] is
/// called, the [`Reconciler`] that repairs switches which restart after
/// their rules were confirmed.
#[derive(Debug)]
pub struct SessionMachine {
    session: UpdateSession,
    resync: Option<Reconciler>,
    /// Reusable buffer for the session's own effects.
    scratch: Vec<SessionEffect>,
}

impl SessionMachine {
    /// Wraps `session`; resync is off.
    pub fn new(session: UpdateSession) -> Self {
        SessionMachine {
            session,
            resync: None,
            scratch: Vec::new(),
        }
    }

    /// Enables declarative resync: every confirmed modification joins the
    /// desired store, and once the session has settled any switch that
    /// replays its handshake (it restarted and reconnected) is read back
    /// and repaired until its table matches.  Returns the reconciler so the
    /// caller can seed preinstalled state or attach metrics.
    pub fn enable_resync(&mut self, config: ResyncConfig) -> &mut Reconciler {
        self.resync.insert(Reconciler::new(config))
    }

    /// The update session (plan, timestamps, outcome).
    pub fn session(&self) -> &UpdateSession {
        &self.session
    }

    /// Mutable access to the session, e.g. to set a failure policy before
    /// the run starts.
    pub fn session_mut(&mut self) -> &mut UpdateSession {
        &mut self.session
    }

    /// The reconciler, if resync is enabled.
    pub fn reconciler(&self) -> Option<&Reconciler> {
        self.resync.as_ref()
    }

    /// Mutable access to the reconciler, if resync is enabled.
    pub fn reconciler_mut(&mut self) -> Option<&mut Reconciler> {
        self.resync.as_mut()
    }

    fn feed_session(&mut self, now: Duration, input: SessionInput, out: &mut Vec<MachineEffect>) {
        let mut effects = std::mem::take(&mut self.scratch);
        self.session.handle_into(now, input, &mut effects);
        let mut settled = false;
        out.reserve(effects.len());
        for effect in effects.drain(..) {
            out.push(match effect {
                SessionEffect::Send { conn, message } => MachineEffect::Send { conn, message },
                SessionEffect::ArmTimer { delay, token } => MachineEffect::ArmTimer {
                    delay,
                    raw: token.raw(),
                },
                SessionEffect::Confirmed { id } => {
                    // A confirmed rule is now desired state: remember it so
                    // a later restart can be repaired declaratively.
                    if let (Some(resync), Some(m)) = (&mut self.resync, self.session.plan().get(id))
                    {
                        resync.store_mut().note_confirmed(m.target, &m.flow_mod);
                    }
                    MachineEffect::Confirmed { cookie: id }
                }
                // Rejections and the outcome, rendered for the trace.
                other => {
                    let terminal = matches!(
                        other,
                        SessionEffect::Completed { .. } | SessionEffect::Aborted { .. }
                    );
                    settled |= terminal;
                    let text = format!("{other:?}");
                    MachineEffect::Note { text, terminal }
                }
            });
        }
        // A burst (a whole plan released at once) must not pin its peak
        // buffer for the rest of the run.
        effects.shrink_to(RETAINED_EFFECTS);
        self.scratch = effects;
        // The outcome opens the reconciliation gate within the same input,
        // so no switch message can slip in between the two.
        if settled {
            self.feed_resync(now, ResyncInput::SessionSettled, out);
        }
    }

    fn feed_resync(&mut self, now: Duration, input: ResyncInput, out: &mut Vec<MachineEffect>) {
        let Some(resync) = self.resync.as_mut() else {
            return;
        };
        out.extend(resync.handle(now, input).into_iter().map(|e| match e {
            ResyncEffect::Send { conn, message } => MachineEffect::Send { conn, message },
            ResyncEffect::ArmTimer { delay, token } => {
                MachineEffect::ArmTimer { delay, raw: token }
            }
            // Converged or gave up: either way this switch's resync is over.
            other => MachineEffect::Note {
                text: format!("{other:?}"),
                terminal: true,
            },
        }));
    }
}

impl Machine for SessionMachine {
    type Effect = MachineEffect;

    fn handle(&mut self, now: Duration, input: MachineInput, out: &mut Vec<MachineEffect>) {
        match input {
            MachineInput::Started => self.feed_session(now, SessionInput::Started, out),
            // Session and resync timers share the transport's one queue.
            MachineInput::TimerFired { raw } if is_resync_token(raw) => {
                self.feed_resync(now, ResyncInput::TimerFired { token: raw }, out)
            }
            MachineInput::TimerFired { raw } => {
                let token = SessionTimerToken::from_raw(raw);
                self.feed_session(now, SessionInput::TimerFired { token }, out)
            }
            MachineInput::FromSwitch { conn, message } => {
                // The reconciler correlates by connection, so traffic from
                // an unmapped sender can only concern the session.
                let resync = self.resync.is_some() && conn != ConnId::UNMAPPED;
                match message {
                    // A switch only sends Hello mid-run when it reattaches
                    // after a restart: complete the handshake and flag the
                    // reconnect.
                    OfMessage::Hello { xid } if resync => {
                        let message = OfMessage::Hello { xid };
                        out.push(MachineEffect::Send { conn, message });
                        self.feed_resync(now, ResyncInput::SwitchReconnected { conn }, out)
                    }
                    // Aged-out rules leave the desired store whichever
                    // engine is live; every other reply belongs to the
                    // session until it settles and to the reconciler
                    // (readbacks, delta acks) afterwards.
                    message
                        if resync
                            && (matches!(message, OfMessage::FlowRemoved { .. })
                                || self.session.outcome().is_some()) =>
                    {
                        self.feed_resync(now, ResyncInput::FromSwitch { conn, message }, out)
                    }
                    message => {
                        self.feed_session(now, SessionInput::FromSwitch { conn, message }, out)
                    }
                }
            }
        }
    }

    fn lower(&self, effect: MachineEffect) -> MachineEffect {
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resync::tests::{flow_reply, rule, stats_entry};
    use crate::{AckMode, BackoffPolicy, FailurePolicy, UpdatePlan};
    use openflow::messages::{FlowMod, FlowRemoved};
    use openflow::types::RESYNC_READBACK_XID_BASE;
    use MachineEffect::{ArmTimer, Confirmed, Note, Send};

    const CONN: ConnId = ConnId::new(0);

    fn body(id: u32) -> FlowMod {
        rule(100 + id as u16, u64::from(id))
    }

    fn flow_mod(id: u32) -> OfMessage {
        let body = body(id);
        OfMessage::FlowMod { xid: id, body }
    }

    fn aged_out(id: u32) -> OfMessage {
        let fm = body(id);
        let body = FlowRemoved {
            match_: fm.match_,
            cookie: fm.cookie,
            priority: fm.priority,
            reason: openflow::constants::flow_removed_reason::IDLE_TIMEOUT,
            duration_sec: 1,
            duration_nsec: 0,
            idle_timeout: 1,
            packet_count: 0,
            byte_count: 0,
        };
        OfMessage::FlowRemoved { xid: 0, body }
    }

    /// The whole session/reconciler arbitration, effect by effect, with no
    /// simulator and no sockets: who owns a Hello, a FlowRemoved, a reply
    /// and a timer before and after the session settles.
    #[test]
    fn arbitrates_between_session_and_reconciler() {
        let mut plan = UpdatePlan::new();
        for id in 1..=2u32 {
            plan.add(u64::from(id), 0, body(id)).unwrap();
        }
        let mut session = UpdateSession::new(plan, AckMode::RumAcks, 1);
        let retry = Duration::from_millis(50);
        session.set_failure_policy(FailurePolicy::retry(retry, 3));
        let mut machine = SessionMachine::new(session);
        let pace = Duration::from_millis(100);
        machine.enable_resync(ResyncConfig {
            backoff: BackoffPolicy::fixed(pace),
            ..ResyncConfig::default()
        });
        let desired = |m: &SessionMachine| m.reconciler().unwrap().store().len(0);
        let mut now = Duration::ZERO;
        let mut step = |m: &mut SessionMachine, input| {
            now += Duration::from_millis(1);
            let mut out = Vec::new();
            m.handle(now, input, &mut out);
            out
        };
        let from_switch = |message| MachineInput::FromSwitch {
            conn: CONN,
            message,
        };
        let send = |message| Send {
            conn: CONN,
            message,
        };

        // Start: the window admits one mod; its retry timer is a session
        // token.
        let out = step(&mut machine, MachineInput::Started);
        let [first, ArmTimer { delay, raw: t1 }] = &out[..] else {
            panic!("{out:?}")
        };
        assert_eq!((first, *delay), (&send(flow_mod(1)), retry));
        assert!(!is_resync_token(*t1));

        // A mid-run Hello completes the handshake and flags the reconnect;
        // the resync itself waits for the session to settle.
        let out = step(&mut machine, from_switch(OfMessage::Hello { xid: 7 }));
        assert_eq!(out, [send(OfMessage::Hello { xid: 7 })]);

        // The ack confirms mod 1 into the desired store and releases mod 2.
        let out = step(&mut machine, from_switch(OfMessage::rum_ack(1)));
        let [Confirmed { cookie: 1 }, second, ArmTimer { raw: t2, .. }] = &out[..] else {
            panic!("{out:?}")
        };
        assert_eq!(second, &send(flow_mod(2)));
        assert_eq!(desired(&machine), 1);

        // FlowRemoved reaches the store although the session is live.
        assert_eq!(step(&mut machine, from_switch(aged_out(1))), []);
        assert_eq!(desired(&machine), 0);

        // A session timer token reaches the session: mod 2 is re-sent.
        let out = step(&mut machine, MachineInput::TimerFired { raw: *t2 });
        assert!(
            matches!(&out[..], [resent, ArmTimer { .. }] if *resent == send(flow_mod(2))),
            "{out:?}"
        );

        // The last ack settles the session, which opens the gate in the
        // same input: the pending reconnect's readback goes out at once.
        let out = step(&mut machine, from_switch(OfMessage::rum_ack(2)));
        let [Confirmed { cookie: 2 }, Note { terminal: true, .. }, Send {
            conn: CONN,
            message: OfMessage::StatsRequest { xid, .. },
        }, ArmTimer { delay, raw: t3 }] = &out[..]
        else {
            panic!("{out:?}")
        };
        assert_eq!((*xid, *delay), (RESYNC_READBACK_XID_BASE, pace));
        assert!(is_resync_token(*t3));

        // A resync timer token reaches the reconciler: the unanswered
        // readback is re-requested under a fresh xid.
        let out = step(&mut machine, MachineInput::TimerFired { raw: *t3 });
        assert!(
            matches!(
                &out[..],
                [Send { message: OfMessage::StatsRequest { xid, .. }, .. }, ArmTimer { .. }]
                    if *xid == RESYNC_READBACK_XID_BASE + 1
            ),
            "{out:?}"
        );

        // After the session settled, replies belong to the reconciler: the
        // readback matches the store (mod 1 aged out, mod 2 installed).
        let reply = flow_reply(
            RESYNC_READBACK_XID_BASE + 1,
            false,
            vec![stats_entry(&body(2))],
        );
        let out = step(&mut machine, from_switch(reply));
        assert!(matches!(&out[..], [Note { terminal: true, .. }]), "{out:?}");
        assert!(machine.reconciler().unwrap().status(0).unwrap().converged);

        // FlowRemoved still reaches the store after the session settled.
        assert_eq!(step(&mut machine, from_switch(aged_out(2))), []);
        assert_eq!(desired(&machine), 0);

        // An unmapped sender never concerns the reconciler: its Hello is
        // the session's to answer, not a reconnect.
        let stray = MachineInput::FromSwitch {
            conn: ConnId::UNMAPPED,
            message: OfMessage::Hello { xid: 9 },
        };
        let out = step(&mut machine, stray);
        assert!(
            matches!(
                &out[..],
                [Send {
                    conn: ConnId::UNMAPPED,
                    message: OfMessage::Hello { xid: 9 }
                }]
            ),
            "{out:?}"
        );
        assert_eq!(machine.reconciler().unwrap().terminal_count(), 1);
    }
}
