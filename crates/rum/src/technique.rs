//! The acknowledgment-technique abstraction and the control-plane-only
//! techniques of paper §3.1.
//!
//! A technique is instantiated per monitored switch.  It receives the events
//! the RUM proxy observes (flow modifications from the controller, barrier
//! replies from the switch, probe packets coming back, timers it armed) and
//! emits [`TechniqueOutput`]s: most importantly `Confirm(id)`, the claim
//! that the modification with that [`ModId`] is now active in the data
//! plane.  The engine reads nothing else from a technique.
//!
//! The engine alone records which mods are open (its ledger, see
//! [`crate::engine`]): a technique sees each new mod once, by [`ModId`],
//! hears of one the switch refused by [`AckTechnique::on_rejected`], and a
//! `Confirm` of a mod no longer open is ignored.
//!
//! The barrier baseline and "delaying barrier acknowledgments" are one proxy
//! barrier, [`StaticTimeout`]: the baseline is its zero hold-down.  The two
//! probing techniques share one periodic probe tick.

use crate::engine::SwitchId;
use openflow::messages::FlowMod;
use openflow::types::TECHNIQUE_XID_BAND;
use openflow::{OfMessage, PacketHeader, Xid};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Duration;

/// A controller flow-mod's number on its switch.  The engine gives each new
/// mod the next one, so ids order a switch's mods by arrival and are never
/// reused, whatever xids the controller picks.
pub type ModId = u64;

/// Something a technique wants the RUM proxy to do.
#[derive(Debug, Clone, PartialEq)]
pub enum TechniqueOutput {
    /// The controller flow-mod with this id is now (believed to be) active
    /// in the data plane.
    Confirm(ModId),
    /// Send a proxy-originated message to the monitored switch.
    ToSwitch(OfMessage),
    /// Send a proxy-originated message (typically a probe `PacketOut`) on the
    /// connection of another monitored switch.
    InjectVia {
        /// The switch whose connection carries the message.
        switch: SwitchId,
        /// The message.
        msg: OfMessage,
    },
    /// Arm a timer; the proxy will call [`AckTechnique::on_timer`] with the
    /// same token after `delay`.
    SetTimer {
        /// Delay until the timer fires.
        delay: Duration,
        /// Token passed back on expiry.
        token: u64,
    },
}

/// A data-plane acknowledgment technique for one monitored switch.
pub trait AckTechnique: Send {
    /// Called once when the proxy starts; setup rules (probe-catch, probe
    /// rules) are emitted here.
    fn start(&mut self, _now: Duration, _out: &mut Vec<TechniqueOutput>) {}

    /// The controller sent a new flow modification, numbered `id` (already
    /// forwarded to the switch by the proxy).
    fn on_flow_mod(
        &mut self,
        id: ModId,
        fm: &FlowMod,
        now: Duration,
        out: &mut Vec<TechniqueOutput>,
    );

    /// The switch replied to a proxy-originated barrier.
    fn on_switch_barrier_reply(
        &mut self,
        _xid: Xid,
        _now: Duration,
        _out: &mut Vec<TechniqueOutput>,
    ) {
    }

    /// A probe packet was captured (on any monitored switch's connection).
    /// The technique must ignore probes it does not own.
    fn on_probe_packet(
        &mut self,
        _header: &PacketHeader,
        _now: Duration,
        _out: &mut Vec<TechniqueOutput>,
    ) {
    }

    /// The switch refused mod `id` (an `Error` answering it): it will never
    /// be active, and the engine has closed it.
    fn on_rejected(&mut self, _id: ModId) {}

    /// A timer armed by this technique fired.
    fn on_timer(&mut self, _token: u64, _now: Duration, _out: &mut Vec<TechniqueOutput>) {}

    /// The monitored switch restarted (tables wiped) and reattached.  The
    /// proxy has already re-issued the unconfirmed controller modifications
    /// on the fresh channel; the technique re-arms whatever confirmation
    /// machinery the restart invalidated (in-flight barriers, the probe
    /// rule).  Techniques whose pending state survives a restart (pure
    /// timers) keep the default no-op.
    fn on_switch_reconnected(&mut self, _now: Duration, _out: &mut Vec<TechniqueOutput>) {}
}

/// Takes the next xid of a technique's band, wrapping inside the band: a
/// technique never steps into the next switch's band or, past `u32::MAX`,
/// below `PROXY_XID_BASE` into the controller's xids.
pub(crate) fn fresh_xid(next: &mut Xid) -> Xid {
    let xid = *next;
    *next = (xid & !(TECHNIQUE_XID_BAND - 1)) | (xid.wrapping_add(1) & (TECHNIQUE_XID_BAND - 1));
    xid
}

/// Timer token of the probing techniques' periodic tick.
pub(crate) const TOKEN_TICK: u64 = 1;

/// The periodic tick of a probing technique: armed when work arrives, then
/// re-armed from each firing for as long as the technique is busy.
#[derive(Debug)]
pub(crate) struct ProbeTick {
    interval: Duration,
    armed: bool,
}

impl ProbeTick {
    pub(crate) fn new(interval: Duration) -> Self {
        ProbeTick {
            interval,
            armed: false,
        }
    }

    /// Arms the tick unless it is already running.
    pub(crate) fn ensure(&mut self, out: &mut Vec<TechniqueOutput>) {
        if !self.armed {
            self.armed = true;
            self.push(out);
        }
    }

    /// The tick fired: re-arms it while `busy`, otherwise lets it lapse
    /// until [`ProbeTick::ensure`] is called again.
    pub(crate) fn fired(&mut self, busy: bool, out: &mut Vec<TechniqueOutput>) {
        if busy {
            self.push(out);
        } else {
            self.armed = false;
        }
    }

    fn push(&self, out: &mut Vec<TechniqueOutput>) {
        out.push(TechniqueOutput::SetTimer {
            delay: self.interval,
            token: TOKEN_TICK,
        });
    }
}

/// §3.1's proxy barrier: after every controller flow-mod the proxy sends its
/// own `BarrierRequest` and confirms the modification a fixed hold-down
/// after the switch's reply.
///
/// A zero hold-down is "using OpenFlow barrier commands", the unreliable
/// baseline: the reply is taken at face value and confirms at once, no timer
/// armed.  On a buggy switch that confirms rules hundreds of milliseconds
/// too early — the baseline exists to reproduce the problem.  A non-zero
/// hold-down is "delaying barrier acknowledgments" by a pre-measured bound.
#[derive(Debug)]
pub struct StaticTimeout {
    delay: Duration,
    next_xid: Xid,
    barrier_covers: HashMap<Xid, Vec<ModId>>,
    /// Mods whose barrier waits for an xid: every xid of the band awaits
    /// a reply.
    waiting: Vec<ModId>,
    timer_covers: HashMap<u64, Vec<ModId>>,
}

impl StaticTimeout {
    /// Creates the technique with the given post-barrier delay; `xid_base`
    /// namespaces the xids of the barriers it injects.
    pub fn new(delay: Duration, xid_base: Xid) -> Self {
        StaticTimeout {
            delay,
            next_xid: xid_base,
            barrier_covers: HashMap::new(),
            waiting: Vec::new(),
            timer_covers: HashMap::new(),
        }
    }

    /// Sends a fresh proxy barrier covering `ids` on an xid of the band
    /// that awaits no reply, so that a reply names one barrier (a reused xid
    /// would let an older barrier's reply confirm newer mods).
    fn barrier(&mut self, ids: Vec<ModId>, out: &mut Vec<TechniqueOutput>) {
        let xid = fresh_xid(&mut self.next_xid);
        match self.barrier_covers.entry(xid) {
            Entry::Vacant(slot) => {
                slot.insert(ids);
                out.push(TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }));
            }
            Entry::Occupied(_) => self.barrier_past_used_xids(ids, out),
        }
    }

    /// The band's next xid still awaits its reply: the barrier takes the
    /// first xid after it that does not or, while every xid of the band
    /// awaits one, its ids wait for the next reply.
    #[cold]
    fn barrier_past_used_xids(&mut self, mut ids: Vec<ModId>, out: &mut Vec<TechniqueOutput>) {
        if self.barrier_covers.len() >= TECHNIQUE_XID_BAND as usize {
            self.waiting.append(&mut ids);
            return;
        }
        while self.barrier_covers.contains_key(&self.next_xid) {
            fresh_xid(&mut self.next_xid);
        }
        self.barrier(ids, out);
    }
}

impl AckTechnique for StaticTimeout {
    fn on_flow_mod(
        &mut self,
        id: ModId,
        _fm: &FlowMod,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        self.barrier(vec![id], out);
    }

    fn on_switch_barrier_reply(
        &mut self,
        xid: Xid,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        let Some(ids) = self.barrier_covers.remove(&xid) else {
            return;
        };
        if !self.waiting.is_empty() {
            let waiting = std::mem::take(&mut self.waiting);
            self.barrier(waiting, out);
        }
        if self.delay.is_zero() {
            out.extend(ids.into_iter().map(TechniqueOutput::Confirm));
            return;
        }
        // A mod is in one cover at a time, so its first id names the timer.
        let token = ids[0];
        self.timer_covers.insert(token, ids);
        out.push(TechniqueOutput::SetTimer {
            delay: self.delay,
            token,
        });
    }

    fn on_timer(&mut self, token: u64, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        if let Some(ids) = self.timer_covers.remove(&token) {
            out.extend(ids.into_iter().map(TechniqueOutput::Confirm));
        }
    }

    fn on_switch_reconnected(&mut self, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        // Covers whose barrier reply never came died with the old channel;
        // fold them, and the ids waiting for an xid, into one fresh
        // barrier behind the re-issued modifications (covers whose hold-down
        // timer is already running confirm on their own).
        if self.barrier_covers.is_empty() && self.waiting.is_empty() {
            return;
        }
        let mut ids: Vec<ModId> = (self.barrier_covers.drain())
            .flat_map(|(_, v)| v)
            .chain(self.waiting.drain(..))
            .collect();
        ids.sort_unstable();
        self.barrier(ids, out);
    }
}

/// §3.1 "Adaptive delay" — predict when the switch will have applied each
/// modification from an assumed modification rate and synchronisation lag,
/// and confirm at the predicted time.  Accurate models give near-optimal
/// latency; optimistic models (assumed rate higher than reality) confirm too
/// early, which is exactly what Figure 6/8 show for "adaptive 250".
#[derive(Debug)]
pub struct AdaptiveDelay {
    assumed_per_mod: Duration,
    assumed_sync_lag: Duration,
    virtual_done: Duration,
}

impl AdaptiveDelay {
    /// Creates the technique assuming the switch applies `assumed_rate`
    /// modifications per second and lags the control plane by
    /// `assumed_sync_lag`.
    pub fn new(assumed_rate: f64, assumed_sync_lag: Duration) -> Self {
        assert!(assumed_rate > 0.0, "assumed rate must be positive");
        AdaptiveDelay {
            assumed_per_mod: Duration::from_secs_f64(1.0 / assumed_rate),
            assumed_sync_lag,
            virtual_done: Duration::ZERO,
        }
    }
}

impl AckTechnique for AdaptiveDelay {
    fn on_flow_mod(
        &mut self,
        id: ModId,
        _fm: &FlowMod,
        now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        // The switch works through modifications serially at the assumed
        // rate; our estimate of when this one lands is the running virtual
        // completion time plus the assumed data-plane lag.  The timer's
        // token is the mod it confirms.
        self.virtual_done = self.virtual_done.max(now) + self.assumed_per_mod;
        let confirm_at = self.virtual_done + self.assumed_sync_lag;
        out.push(TechniqueOutput::SetTimer {
            delay: confirm_at.saturating_sub(now),
            token: id,
        });
    }

    fn on_timer(&mut self, token: u64, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        out.push(TechniqueOutput::Confirm(token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::{Action, OfMatch};
    use std::net::Ipv4Addr;

    fn fm(i: u8) -> FlowMod {
        FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
            100,
            vec![Action::output(2)],
        )
    }

    fn confirms(out: &[TechniqueOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::Confirm(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    fn barrier_xids(out: &[TechniqueOutput]) -> Vec<Xid> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }) => Some(*xid),
                _ => None,
            })
            .collect()
    }

    /// A technique's proxy xids wrap inside its switch's 65,536-wide band:
    /// the last switch's band ends at `u32::MAX`, past which a plain
    /// increment would land on 0, among the controller's xids.
    #[test]
    fn barrier_xids_wrap_inside_their_band() {
        for band in [0xFFFF_0000, crate::PROXY_XID_BASE + TECHNIQUE_XID_BAND] {
            let mut t = StaticTimeout::new(Duration::ZERO, band);
            let mut xids = Vec::new();
            for cookie in 0..=u64::from(TECHNIQUE_XID_BAND) {
                let mut out = Vec::new();
                t.on_flow_mod(cookie, &fm(1), Duration::ZERO, &mut out);
                let xid = barrier_xids(&out)[0];
                t.on_switch_barrier_reply(xid, Duration::ZERO, &mut out);
                assert_eq!(confirms(&out), vec![cookie]);
                xids.push(xid);
            }
            assert!(xids
                .iter()
                .all(|&x| (band..=band + (TECHNIQUE_XID_BAND - 1)).contains(&x)));
            assert_eq!(
                xids[TECHNIQUE_XID_BAND as usize - 1],
                band + (TECHNIQUE_XID_BAND - 1)
            );
            assert_eq!(xids[TECHNIQUE_XID_BAND as usize], band, "{band:#x}");
        }
    }

    /// With every xid of the band awaiting a reply, a new mod's barrier
    /// waits for one to come back; an xid whose reply is lost is skipped.
    #[test]
    fn a_full_band_reuses_no_xid_awaiting_a_reply() {
        let band = 0xFFFF_0000;
        let mut t = StaticTimeout::new(Duration::ZERO, band);
        let mut out = Vec::new();
        for cookie in 0..=u64::from(TECHNIQUE_XID_BAND) {
            t.on_flow_mod(cookie, &fm(1), Duration::ZERO, &mut out);
        }
        let xids = barrier_xids(&out);
        assert_eq!(
            xids.len(),
            TECHNIQUE_XID_BAND as usize,
            "the last barrier waits"
        );
        // The first barrier's reply confirms its own mod only, and frees its
        // xid for the waiting one.
        let mut out = Vec::new();
        t.on_switch_barrier_reply(band, Duration::ZERO, &mut out);
        assert_eq!(confirms(&out), vec![0]);
        assert_eq!(barrier_xids(&out), vec![band]);
        // Barrier `band + 1` is never answered: the next mods skip its xid.
        t.on_switch_barrier_reply(band + 2, Duration::ZERO, &mut out);
        t.on_switch_barrier_reply(band, Duration::ZERO, &mut out);
        let mut out = Vec::new();
        t.on_flow_mod(7, &fm(1), Duration::ZERO, &mut out);
        assert_eq!(barrier_xids(&out), vec![band + 2]);
    }

    /// The baseline is the proxy barrier with a zero hold-down: the reply
    /// confirms at once and no timer is ever armed.
    #[test]
    fn baseline_confirms_on_barrier_reply() {
        let mut t = StaticTimeout::new(Duration::ZERO, 0x9000_0000);
        let mut out = Vec::new();
        t.on_flow_mod(42, &fm(1), Duration::ZERO, &mut out);
        let xids = barrier_xids(&out);
        assert_eq!(xids, vec![0x9000_0000]);
        assert!(confirms(&out).is_empty());

        let mut out = Vec::new();
        t.on_switch_barrier_reply(xids[0], Duration::from_millis(1), &mut out);
        assert_eq!(out, vec![TechniqueOutput::Confirm(42)]);

        // A reply to an unknown barrier does nothing.
        let mut out = Vec::new();
        t.on_switch_barrier_reply(12345, Duration::from_millis(2), &mut out);
        assert!(out.is_empty());

        // A reconnect folds every unanswered cover into one fresh barrier,
        // whose reply confirms them all in cookie order.
        let mut out = Vec::new();
        for cookie in [9, 7, 8] {
            t.on_flow_mod(cookie, &fm(2), Duration::from_millis(3), &mut out);
        }
        let mut out = Vec::new();
        t.on_switch_reconnected(Duration::from_millis(4), &mut out);
        let xids = barrier_xids(&out);
        assert_eq!(xids, vec![0x9000_0004]);
        assert_eq!(out.len(), 1);
        let mut out = Vec::new();
        t.on_switch_barrier_reply(xids[0], Duration::from_millis(5), &mut out);
        assert_eq!(confirms(&out), vec![7, 8, 9]);
        assert!(!out
            .iter()
            .any(|o| matches!(o, TechniqueOutput::SetTimer { .. })));
        // Nothing is left to fold.
        let mut out = Vec::new();
        t.on_switch_reconnected(Duration::from_millis(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn static_timeout_defers_confirmation() {
        let mut t = StaticTimeout::new(Duration::from_millis(300), 0x9100_0000);
        let mut out = Vec::new();
        t.on_flow_mod(7, &fm(1), Duration::ZERO, &mut out);
        let xids = barrier_xids(&out);

        let mut out = Vec::new();
        t.on_switch_barrier_reply(xids[0], Duration::from_millis(10), &mut out);
        assert!(
            confirms(&out).is_empty(),
            "confirmation must wait for the timer"
        );
        let timer = out.iter().find_map(|o| match o {
            TechniqueOutput::SetTimer { delay, token } => Some((*delay, *token)),
            _ => None,
        });
        let (delay, token) = timer.expect("a timer must be armed");
        assert_eq!(delay, Duration::from_millis(300));

        let mut out = Vec::new();
        t.on_timer(token, Duration::from_millis(310), &mut out);
        assert_eq!(confirms(&out), vec![7]);
        // The timer confirms once.
        let mut out = Vec::new();
        t.on_timer(token, Duration::from_millis(320), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn adaptive_accumulates_virtual_time() {
        // 200 mods/s assumed -> 5 ms per mod; lag 100 ms.
        let mut t = AdaptiveDelay::new(200.0, Duration::from_millis(100));
        let mut delays = Vec::new();
        for i in 0..3u64 {
            let mut out = Vec::new();
            // All issued at t = 0 (burst).
            t.on_flow_mod(i, &fm(i as u8), Duration::ZERO, &mut out);
            let d = out
                .iter()
                .find_map(|o| match o {
                    TechniqueOutput::SetTimer { delay, .. } => Some(*delay),
                    _ => None,
                })
                .unwrap();
            delays.push(d);
        }
        // Confirmation estimates must be 5 ms apart: 105, 110, 115 ms.
        assert_eq!(delays[0], Duration::from_millis(105));
        assert_eq!(delays[1], Duration::from_millis(110));
        assert_eq!(delays[2], Duration::from_millis(115));

        // Each timer's token is the mod it confirms; that a mod confirms
        // once is the engine ledger's to ensure.
        for id in [0, 2] {
            let mut out = Vec::new();
            t.on_timer(id, Duration::from_millis(105), &mut out);
            assert_eq!(confirms(&out), vec![id]);
        }
    }

    #[test]
    fn adaptive_virtual_time_tracks_idle_gaps() {
        let mut t = AdaptiveDelay::new(100.0, Duration::ZERO);
        let mut out = Vec::new();
        t.on_flow_mod(1, &fm(1), Duration::ZERO, &mut out);
        // Long idle gap: the next mod's estimate restarts from `now`, not
        // from the stale virtual clock.
        let mut out = Vec::new();
        t.on_flow_mod(2, &fm(2), Duration::from_secs(10), &mut out);
        let d = out
            .iter()
            .find_map(|o| match o {
                TechniqueOutput::SetTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .unwrap();
        assert_eq!(d, Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "assumed rate must be positive")]
    fn adaptive_rejects_zero_rate() {
        AdaptiveDelay::new(0.0, Duration::ZERO);
    }
}
