//! The sans-IO half of the TCP deployment: [`EngineRelay`] adapts the
//! deployment-agnostic [`RumEngine`] to the shape a socket proxy needs.
//!
//! The relay owns the engine and a wall-clock epoch.  Socket threads hand it
//! decoded messages; it returns [`RelayEffects`] — plain data describing
//! which endpoint each outgoing message belongs to, which timers to schedule
//! and which rules were confirmed.  No sockets or threads appear here, which
//! is what makes the whole message-level policy of the TCP proxy unit
//! testable without opening a single connection (see the tests below).

use openflow::OfMessage;
use rum::{Effect, Input, RumEngine, SwitchId, TimerToken};
use std::time::{Duration, Instant};

/// One side of one proxied connection pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The controller-facing connection impersonating this switch.
    Controller(SwitchId),
    /// The connection to this switch.
    Switch(SwitchId),
}

/// What the socket layer must do after feeding the relay one event.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RelayEffects {
    /// Messages to write, in order, each tagged with its destination.
    pub messages: Vec<(Endpoint, OfMessage)>,
    /// Timers to schedule: feed [`Input::TimerFired`] after each delay.
    pub timers: Vec<(Duration, TimerToken)>,
    /// Rules confirmed active in the data plane (observational).
    pub confirmed: Vec<(SwitchId, u64)>,
}

impl RelayEffects {
    /// Empties the effect lists, keeping their allocations for reuse.
    pub fn clear(&mut self) {
        self.messages.clear();
        self.timers.clear();
        self.confirmed.clear();
    }
}

/// Drives a [`RumEngine`] from wall-clock time and decoded socket messages.
///
/// Both entry points *append* into a caller-owned [`RelayEffects`], so a
/// driver can drain every message decoded from one socket read into a single
/// effects batch (and a single write per destination socket) with no
/// per-message allocation.
pub struct EngineRelay {
    engine: RumEngine,
    epoch: Instant,
    /// Reusable buffer for raw engine effects between dispatch and
    /// translation.
    scratch: Vec<Effect>,
}

impl EngineRelay {
    /// Wraps an engine; `now` is measured from this call.
    pub fn new(engine: RumEngine) -> Self {
        EngineRelay::with_epoch(engine, Instant::now())
    }

    /// Wraps an engine measuring `now` from an explicit epoch.  The sharded
    /// proxy wraps each shard's engine in its own relay; sharing one epoch
    /// across them keeps every shard's notion of model time identical, so
    /// cross-shard timer deadlines and confirmation timestamps compare.
    pub fn with_epoch(engine: RumEngine, epoch: Instant) -> Self {
        EngineRelay {
            engine,
            epoch,
            scratch: Vec::new(),
        }
    }

    /// Read access to the engine (stats, configuration).
    pub fn engine(&self) -> &RumEngine {
        &self.engine
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Feeds one pre-routed [`Input`] to the engine, appending the effects
    /// to `out`.  The sharded proxy routes inputs with a [`rum::ShardRouter`]
    /// first and then drives whichever shard relay owns them through this
    /// single entry point.
    pub fn handle_into(&mut self, input: Input, out: &mut RelayEffects) {
        let now = self.now();
        self.scratch.clear();
        self.engine.handle_into(now, input, &mut self.scratch);
        translate_into(&mut self.scratch, out);
    }

    /// Starts the engine (catch rules, initial timers), appending the
    /// start-up effects to `out`.  Idempotent.
    pub fn start_into(&mut self, out: &mut RelayEffects) {
        let now = self.now();
        let mut effects = self.engine.start(now);
        translate_into(&mut effects, out);
    }
}

fn translate_into(effects: &mut Vec<Effect>, out: &mut RelayEffects) {
    for effect in effects.drain(..) {
        match effect {
            Effect::ToController { via, message } => {
                out.messages.push((Endpoint::Controller(via), message));
            }
            Effect::ToSwitch { switch, message } | Effect::InjectVia { switch, message } => {
                out.messages.push((Endpoint::Switch(switch), message));
            }
            Effect::ArmTimer { delay, token } => out.timers.push((delay, token)),
            Effect::Confirmed { switch, cookie } => out.confirmed.push((switch, cookie)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use rum::{RumBuilder, TechniqueConfig};
    use std::net::Ipv4Addr;

    fn relay(delay_ms: u64) -> EngineRelay {
        EngineRelay::new(
            RumBuilder::new(1)
                .technique(TechniqueConfig::StaticTimeout {
                    delay: Duration::from_millis(delay_ms),
                })
                .fine_grained_acks(false)
                .build(),
        )
    }

    fn flow_mod(xid: u32) -> OfMessage {
        OfMessage::FlowMod {
            xid,
            body: FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
                100,
                vec![Action::output(2)],
            ),
        }
    }

    /// One input in, its effects out — the shape every test step takes.
    fn feed(r: &mut EngineRelay, input: Input) -> RelayEffects {
        let mut fx = RelayEffects::default();
        r.handle_into(input, &mut fx);
        fx
    }

    fn from_controller(message: OfMessage) -> Input {
        let switch = SwitchId::new(0);
        Input::FromController { switch, message }
    }

    fn from_switch(message: OfMessage) -> Input {
        let switch = SwitchId::new(0);
        Input::FromSwitch { switch, message }
    }

    /// The full "delayed barrier acknowledgment" flow of the old bespoke TCP
    /// relay, now expressed purely through the shared engine — no sockets.
    #[test]
    fn delayed_barrier_flow_without_sockets() {
        let sw = SwitchId::new(0);
        let mut r = relay(300);
        let mut fx = RelayEffects::default();
        r.start_into(&mut fx);
        assert_eq!(fx, RelayEffects::default());

        // Controller: flow-mod. Forwarded + proxy barrier appended.
        let fx = feed(&mut r, from_controller(flow_mod(5)));
        assert!(fx
            .messages
            .iter()
            .all(|(ep, _)| *ep == Endpoint::Switch(sw)));
        let proxy_barrier = fx
            .messages
            .iter()
            .find_map(|(_, m)| match m {
                OfMessage::BarrierRequest { xid } => Some(*xid),
                _ => None,
            })
            .expect("proxy barrier");

        // Controller: its own barrier. Forwarded to the switch, reply held.
        let fx = feed(
            &mut r,
            from_controller(OfMessage::BarrierRequest { xid: 9 }),
        );
        assert_eq!(fx.messages.len(), 1);
        assert!(fx.confirmed.is_empty());

        // Switch answers both barriers immediately (the buggy behaviour);
        // the engine arms the hold-down timer instead of confirming.
        let fx = feed(
            &mut r,
            from_switch(OfMessage::BarrierReply { xid: proxy_barrier }),
        );
        let (delay, token) = fx.timers[0];
        assert_eq!(delay, Duration::from_millis(300));
        let fx = feed(&mut r, from_switch(OfMessage::BarrierReply { xid: 9 }));
        assert_eq!(
            fx,
            RelayEffects::default(),
            "controller barrier must still be held"
        );

        // Timer expiry confirms the rule and releases the held barrier.
        let fx = feed(&mut r, Input::TimerFired { token });
        assert_eq!(fx.confirmed, vec![(sw, 5)]);
        assert!(fx
            .messages
            .contains(&(Endpoint::Controller(sw), OfMessage::BarrierReply { xid: 9 })));
        assert_eq!(r.engine().stats(sw).barrier_replies_released, 1);
    }

    #[test]
    fn non_barrier_traffic_passes_straight_through() {
        let sw = SwitchId::new(0);
        let mut r = relay(300);
        r.start_into(&mut RelayEffects::default());
        let fx = feed(
            &mut r,
            from_switch(OfMessage::EchoReply {
                xid: 1,
                data: vec![],
            }),
        );
        assert_eq!(fx.messages.len(), 1);
        assert_eq!(fx.messages[0].0, Endpoint::Controller(sw));
        let fx = feed(&mut r, from_controller(OfMessage::Hello { xid: 2 }));
        assert_eq!(
            fx.messages,
            vec![(Endpoint::Switch(sw), OfMessage::Hello { xid: 2 })]
        );
    }
}
