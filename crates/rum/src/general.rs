//! General probing (paper §3.2.2).
//!
//! Confirms every rule modification individually by crafting a probe packet
//! that matches exactly that rule, injecting it through a neighbour, and
//! waiting for the next-hop switch's probe-catch rule to punt it back to RUM.
//! Because each rule is confirmed on its own, this works even on switches
//! that reorder modifications across barriers.  A probe is chosen on RUM's
//! model of the switch, an [`ofswitch::FlowTable`] fed every mod: the table
//! must handle it differently before and after the mod.  Rules for which no
//! such probe exists (drop rules, rules fully covered by higher-priority
//! entries, rules the table handles alike before and after) are confirmed
//! by a control-plane fallback timeout, exactly as the paper prescribes.
//!
//! A probe can only come back once its rule is live, so probes are spent on
//! evidence rather than on a fixed cadence:
//!
//! * a rule arriving on an idle switch (nothing pending) is the *canary*
//!   and is probed at once.  A rule arriving behind a pending rule waits:
//!   its probe needs one PacketOut and one link, while the rule still has
//!   to cross the control channel, install and sync;
//! * each tick probes the oldest pending rule (the canary) plus every
//!   pending rule whose age has reached the switch's predicted lag — the
//!   shortest arrival → confirm time observed so far, `fallback_delay`
//!   before the first confirmation;
//! * a confirming return starts a *round*: every pending rule (within
//!   `max_outstanding`) that arrived before the confirmed rule's last
//!   injection and was not probed since is re-probed once.  Rules carry the
//!   number of the round that last probed them (until then, of the last
//!   round opened before they arrived), so the returns of a round start no
//!   further round over it, and a rule newer than the returning probe,
//!   which the batch that probe proved live cannot hold, waits for the
//!   next tick.  (When a returning probe is older than its rule's latest
//!   injection, the rules probed in between are re-probed too: extra
//!   probes, never an ack.)
//!
//! On an order-preserving switch a dead canary means nothing newer is live
//! either; on a reordering or partly dropping switch every rule is still
//! probed on each tick once older than the lag bound, so liveness is bounded
//! by `fallback_delay`.  Only a returned probe confirms.

use crate::config::ProbeTopology;
use crate::engine::SwitchId;
use crate::probe::{
    first_physical_output, synthesize_general_probe, GeneralProbe, ProbeSynthesisError,
};
use crate::technique::{fresh_xid, AckTechnique, ModId, ProbeTick, TechniqueOutput, TOKEN_TICK};
use ofswitch::FlowTable;
use openflow::messages::{FlowMod, PacketOut};
use openflow::{Action, OfMessage, PacketHeader, Xid};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Timer tokens >= this value are fallback confirmations (token - base =
/// the mod's id, so a late timer can only confirm the mod it was armed for).
const TOKEN_FALLBACK_BASE: u64 = 1 << 32;

/// State of one rule modification awaiting confirmation.
#[derive(Debug)]
struct PendingRule {
    id: ModId,
    probe: GeneralProbe,
    /// When the controller's modification arrived.
    arrived: Duration,
    /// The round that last injected this rule's probe or, before the first
    /// injection, the latest round opened before the rule arrived: a probe
    /// injected in that round left before the rule existed.
    round: u64,
}

/// The general-probing acknowledgment technique for one monitored switch.
#[derive(Debug)]
pub struct GeneralProbing {
    tick: ProbeTick,
    max_outstanding: usize,
    fallback_delay: Duration,
    /// The monitored switch, and where its probes go.
    switch: SwitchId,
    topology: Arc<ProbeTopology>,

    /// RUM's model of the switch's flow table: the seeded drop-all rule plus
    /// every controller mod on its way to the switch, applied with the
    /// switch's own table semantics.  Nothing expires here: RUM learns of a
    /// rule before the switch installs it, and idle timers depend on
    /// traffic.
    table: FlowTable,
    /// Pending probe-confirmable rules, oldest first.
    pending: Vec<PendingRule>,
    /// Number of the latest injection round (arrival, tick or return).
    round: u64,
    /// Predicted control → data plane lag: the shortest arrival → confirm
    /// time observed, never above `fallback_delay`.
    lag: Duration,
    /// Pending fallback confirmations: mod -> why no probe exists.
    fallback_pending: HashMap<ModId, ProbeSynthesisError>,
    /// First probe id of this instance's id range (ids are partitioned per
    /// monitored switch so probes can never be attributed to the wrong
    /// switch's technique).
    probe_id_base: u16,
    next_probe_id: u16,
    next_xid: Xid,
}

impl GeneralProbing {
    /// Creates the technique for `switch` of `topology`.
    pub(crate) fn new(
        switch: SwitchId,
        probe_interval: Duration,
        max_outstanding: usize,
        fallback_delay: Duration,
        topology: Arc<ProbeTopology>,
        xid_base: Xid,
    ) -> Self {
        assert!(max_outstanding > 0, "max_outstanding must be at least 1");
        // Each monitored switch gets its own 4096-wide band of probe ids.
        let probe_id_base = 1 + (switch.index() as u16 % 15) * 4096;
        GeneralProbing {
            tick: ProbeTick::new(probe_interval),
            max_outstanding,
            fallback_delay,
            switch,
            topology,
            table: FlowTable::new(0),
            pending: Vec::new(),
            round: 0,
            lag: fallback_delay,
            fallback_pending: HashMap::new(),
            probe_id_base,
            next_probe_id: probe_id_base,
            next_xid: xid_base,
        }
    }

    /// Seeds RUM's model of the switch table with a rule known to be
    /// installed before the update starts (e.g. the pre-installed drop-all
    /// rule).
    pub fn seed_rule(&mut self, fm: &FlowMod) {
        let _ = self.table.apply(fm, Duration::ZERO);
    }

    fn fresh_probe_id(&mut self) -> u16 {
        let id = self.next_probe_id;
        self.next_probe_id = if self.next_probe_id >= self.probe_id_base + 4000 {
            self.probe_id_base
        } else {
            self.next_probe_id + 1
        };
        id
    }

    fn arm_fallback(
        &mut self,
        id: ModId,
        reason: ProbeSynthesisError,
        out: &mut Vec<TechniqueOutput>,
    ) {
        self.fallback_pending.insert(id, reason);
        out.push(TechniqueOutput::SetTimer {
            delay: self.fallback_delay,
            token: TOKEN_FALLBACK_BASE + id,
        });
    }

    /// Opens a new injection round and returns its number.
    fn next_round(&mut self) -> u64 {
        self.round += 1;
        self.round
    }

    fn inject_probe_for(&mut self, idx: usize, round: u64, out: &mut Vec<TechniqueOutput>) {
        let Some((via_switch, via_port)) = self.topology.inject_via(self.switch) else {
            return;
        };
        self.pending[idx].round = round;
        let po = PacketOut::inject(
            vec![Action::output(via_port)],
            self.pending[idx].probe.packet.to_bytes(),
        );
        let xid = fresh_xid(&mut self.next_xid);
        out.push(TechniqueOutput::InjectVia {
            switch: via_switch,
            msg: OfMessage::PacketOut { xid, body: po },
        });
    }
}

impl AckTechnique for GeneralProbing {
    fn start(&mut self, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        self.tick.ensure(out);
    }

    fn on_flow_mod(
        &mut self,
        id: ModId,
        fm: &FlowMod,
        now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        self.tick.ensure(out);

        // Deletions cannot be confirmed by a positive probe; fall back.
        if fm.command.is_delete() {
            let _ = self.table.apply(fm, now);
            self.arm_fallback(id, ProbeSynthesisError::NoForwardingOutput, out);
            return;
        }

        let probe_id = self.fresh_probe_id();
        // Determine which neighbour will catch the probe: the switch behind
        // the rule's output port.  The mod enters the table model either way.
        let catch_switch = (first_physical_output(&fm.actions))
            .and_then(|p| self.topology.next_hop(self.switch, p));
        let result = match catch_switch {
            Some(next) => synthesize_general_probe(
                &mut self.table,
                fm,
                self.topology.catch_tos(next),
                probe_id,
                now,
            ),
            None => {
                let _ = self.table.apply(fm, now);
                Err(ProbeSynthesisError::NoForwardingOutput)
            }
        };
        // A return names one rule: a probe that would come back looking like
        // a pending rule's cannot tell the two apart.
        let result = result.and_then(|probe| {
            let expected = &probe.expected_at_catch;
            let mut pending = self.pending.iter().map(|p| &p.probe.expected_at_catch);
            if pending.any(|other| same_return(other, expected)) {
                return Err(ProbeSynthesisError::SameReturnAsPending);
            }
            Ok(probe)
        });
        match result {
            Ok(probe) => {
                let idle = self.pending.is_empty();
                self.pending.push(PendingRule {
                    id,
                    probe,
                    arrived: now,
                    round: self.round,
                });
                // On an idle switch the rule is the canary and is probed at
                // once; behind a pending rule its probe would outrun it, so
                // it waits for a tick or a return round.
                if idle {
                    let round = self.next_round();
                    self.inject_probe_for(0, round, out);
                }
            }
            Err(reason) => self.arm_fallback(id, reason, out),
        }
    }

    fn on_probe_packet(
        &mut self,
        header: &PacketHeader,
        now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        // Attribute the probe to the pending rule whose rewritten header it
        // carries, field for field.  The ToS must carry the expected
        // neighbour's catch value: a probe surfacing with a different marker
        // was not punted by the catch rule it was aimed at, and one that
        // differs elsewhere (VLAN, MACs, protocol, ports) left the switch
        // through some other rule; neither proves anything about the rule.
        let position =
            (self.pending.iter()).position(|p| same_return(&p.probe.expected_at_catch, header));
        let Some(idx) = position else {
            return;
        };
        let confirmed = self.pending.remove(idx);
        out.push(TechniqueOutput::Confirm(confirmed.id));
        self.lag = self.lag.min(now.saturating_sub(confirmed.arrived));
        // The rule went live: re-probe, once, every rule that arrived before
        // the confirmed rule's last injection and was not probed since.  A
        // rule that arrived later cannot be in the batch that probe proved
        // live.
        let round = self.next_round();
        let n = self.pending.len().min(self.max_outstanding);
        for idx in 0..n {
            if self.pending[idx].round < confirmed.round {
                self.inject_probe_for(idx, round, out);
            }
        }
    }

    fn on_rejected(&mut self, id: ModId) {
        // A refused rule never returns; its model entry stays.
        self.pending.retain(|p| p.id != id);
        self.fallback_pending.remove(&id);
    }

    fn on_timer(&mut self, token: u64, now: Duration, out: &mut Vec<TechniqueOutput>) {
        if token >= TOKEN_FALLBACK_BASE {
            let id = token - TOKEN_FALLBACK_BASE;
            if self.fallback_pending.remove(&id).is_some() {
                out.push(TechniqueOutput::Confirm(id));
            }
            return;
        }
        if token != TOKEN_TICK {
            return;
        }
        // Re-probe the canary and every rule older than the predicted lag,
        // up to the configured cap.
        let round = self.next_round();
        let n = self.pending.len().min(self.max_outstanding);
        for idx in 0..n {
            if idx == 0 || now.saturating_sub(self.pending[idx].arrived) >= self.lag {
                self.inject_probe_for(idx, round, out);
            }
        }
        let busy = !self.pending.is_empty() || !self.fallback_pending.is_empty();
        self.tick.fired(busy, out);
    }
}

/// True when a probe returning with `header` is the one `expected`
/// predicts: every field equal, the ToS compared without its ECN bits.
fn same_return(expected: &PacketHeader, header: &PacketHeader) -> bool {
    expected.nw_tos & 0xfc == header.nw_tos & 0xfc
        && *expected
            == PacketHeader {
                nw_tos: expected.nw_tos,
                ..*header
            }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::probed_switch_one;
    use openflow::{MacAddr, OfMatch, Wildcards};
    use std::net::Ipv4Addr;

    fn new_technique() -> GeneralProbing {
        let mut t = GeneralProbing::new(
            SwitchId::new(1),
            Duration::from_millis(10),
            30,
            Duration::from_millis(300),
            probed_switch_one(),
            0xB000_0000,
        );
        // Mirror the pre-installed drop-all rule.
        t.seed_rule(&FlowMod::add(OfMatch::wildcard_all(), 0, vec![]));
        t
    }

    fn forwarding_mod(i: u8) -> FlowMod {
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

    /// The mods whose fallback timer `out` arms.
    fn fallbacks(out: &[TechniqueOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::SetTimer { token, .. } if *token >= TOKEN_FALLBACK_BASE => {
                    Some(token - TOKEN_FALLBACK_BASE)
                }
                _ => None,
            })
            .collect()
    }

    fn injections(out: &[TechniqueOutput]) -> usize {
        out.iter()
            .filter(|o| matches!(o, TechniqueOutput::InjectVia { .. }))
            .count()
    }

    #[test]
    fn forwarding_rule_gets_probed_and_confirmed() {
        let mut t = new_technique();
        let mut out = Vec::new();
        t.on_flow_mod(42, &forwarding_mod(1), Duration::ZERO, &mut out);
        // A probe is injected immediately via the configured neighbour.
        let probe_msg = out.iter().find_map(|o| match o {
            TechniqueOutput::InjectVia { switch, msg } => Some((*switch, msg.clone())),
            _ => None,
        });
        let (via, msg) = probe_msg.expect("probe injected");
        assert_eq!(via, SwitchId::new(0));
        let OfMessage::PacketOut { body, .. } = msg else {
            panic!("expected a PacketOut")
        };
        let probe_header = PacketHeader::from_bytes(&body.data).unwrap();
        assert_eq!(probe_header.nw_src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(
            probe_header.nw_tos & 0xfc,
            probed_switch_one().catch_tos(SwitchId::new(2)) & 0xfc
        );
        assert!(confirms(&out).is_empty());

        // The probe comes back (as rewritten by the rule — here unchanged).
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header, Duration::from_millis(2), &mut out);
        assert_eq!(confirms(&out), vec![42]);
        // A duplicate of the probe confirms nothing more.
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header, Duration::from_millis(3), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unrelated_probe_is_ignored() {
        let mut t = new_technique();
        let mut out = Vec::new();
        t.on_flow_mod(42, &forwarding_mod(1), Duration::ZERO, &mut out);
        let foreign = PacketHeader {
            nw_tos: probed_switch_one().catch_tos(SwitchId::new(2)),
            tp_src: 9999,
            ..Default::default()
        };
        let mut out = Vec::new();
        t.on_probe_packet(&foreign, Duration::ZERO, &mut out);
        assert!(out.is_empty());
        // The rule is still pending: the next tick re-probes it.
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        assert_eq!(injections(&out), 1);
    }

    #[test]
    fn drop_rule_falls_back_to_timeout() {
        let mut t = new_technique();
        let drop_rule = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 1, 0, 9)),
            100,
            vec![],
        );
        let mut out = Vec::new();
        t.on_flow_mod(7, &drop_rule, Duration::ZERO, &mut out);
        assert_eq!(fallbacks(&out), vec![7]);
        let token = out
            .iter()
            .find_map(|o| match o {
                TechniqueOutput::SetTimer { token, delay } if *token >= TOKEN_FALLBACK_BASE => {
                    assert_eq!(*delay, Duration::from_millis(300));
                    Some(*token)
                }
                _ => None,
            })
            .expect("fallback timer armed");
        let mut out = Vec::new();
        t.on_timer(token, Duration::from_millis(300), &mut out);
        assert_eq!(confirms(&out), vec![7]);
        // Nothing is pending any more: the tick lapses.
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(310), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn deletion_falls_back_and_updates_table_model() {
        let mut t = new_technique();
        let first = arrive(&mut t, 1..2, Duration::ZERO);
        let mut out = Vec::new();
        t.on_probe_packet(&first[0], Duration::from_millis(2), &mut out);
        assert_eq!(confirms(&out), vec![1]);
        let del = FlowMod::delete_strict(forwarding_mod(1).match_, 100);
        let mut out = Vec::new();
        t.on_flow_mod(2, &del, Duration::from_millis(3), &mut out);
        assert_eq!(fallbacks(&out), vec![2]);
        // The deleted rule is gone from the model, so re-adding it later
        // synthesises a probe without tripping the "identical fallback" check
        // (the switch is idle again, so that probe goes out at once).
        let mut out = Vec::new();
        t.on_flow_mod(3, &forwarding_mod(1), Duration::from_millis(4), &mut out);
        assert!(fallbacks(&out).is_empty());
        assert_eq!(injections(&out), 1);
    }

    /// Two unprobeable DELETEs under one id arm two fallback timers;
    /// once both have fired nothing is pending, so the next tick lets the
    /// cadence lapse instead of re-arming it forever.
    #[test]
    fn duplicate_cookie_fallbacks_let_the_tick_lapse() {
        let mut t = new_technique();
        let del = FlowMod::delete_strict(forwarding_mod(1).match_, 100);
        let mut out = Vec::new();
        t.on_flow_mod(5, &del, Duration::ZERO, &mut out);
        t.on_flow_mod(5, &del, Duration::ZERO, &mut out);
        for _ in 0..2 {
            t.on_timer(
                TOKEN_FALLBACK_BASE + 5,
                Duration::from_millis(300),
                &mut out,
            );
        }
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(310), &mut out);
        assert!(
            !out.iter()
                .any(|o| matches!(o, TechniqueOutput::SetTimer { .. })),
            "an idle technique must stop ticking"
        );
    }

    /// Before any confirmation a tick probes only the oldest rule (and, when
    /// rules have aged past `fallback_delay`, those), capped at
    /// `max_outstanding`.
    #[test]
    fn tick_reprobes_oldest_rules_up_to_cap() {
        let mut t = GeneralProbing::new(
            SwitchId::new(1),
            Duration::from_millis(10),
            2, // cap at 2 outstanding probes per round
            Duration::from_millis(300),
            probed_switch_one(),
            0xB000_0000,
        );
        t.seed_rule(&FlowMod::add(OfMatch::wildcard_all(), 0, vec![]));
        let mut out = Vec::new();
        for i in 0..5u8 {
            t.on_flow_mod(u64::from(i), &forwarding_mod(i), Duration::ZERO, &mut out);
        }
        assert_eq!(injections(&out), 1, "arrivals behind the canary wait");
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        assert_eq!(injections(&out), 1, "a young round probes the canary");
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(300), &mut out);
        assert_eq!(
            injections(&out),
            2,
            "re-probing is capped at max_outstanding"
        );
    }

    /// The headers of the probes `out` injects, as the catch switch punts
    /// them back (the test rules rewrite nothing).
    fn probes(out: &[TechniqueOutput]) -> Vec<PacketHeader> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::InjectVia {
                    msg: OfMessage::PacketOut { body, .. },
                    ..
                } => Some(PacketHeader::from_bytes(&body.data).unwrap()),
                _ => None,
            })
            .collect()
    }

    /// The test rule (`forwarding_mod(i)`) a probe header was made for.
    fn rule_of(h: &PacketHeader) -> u8 {
        h.nw_src.octets()[3]
    }

    /// Forwarding rules `rules` arrive at `at`; returns their arrival probes.
    fn arrive(
        t: &mut GeneralProbing,
        rules: std::ops::Range<u8>,
        at: Duration,
    ) -> Vec<PacketHeader> {
        let mut out = Vec::new();
        for i in rules {
            t.on_flow_mod(u64::from(i), &forwarding_mod(i), at, &mut out);
        }
        probes(&out)
    }

    #[test]
    fn young_ticks_probe_one_canary_until_fallback_delay() {
        let mut t = new_technique();
        let arrival = arrive(&mut t, 0..20, Duration::ZERO);
        assert_eq!(arrival.len(), 1, "only the canary is probed on arrival");
        assert_eq!(rule_of(&arrival[0]), 0);
        for ms in (10..300).step_by(10) {
            let mut out = Vec::new();
            t.on_timer(TOKEN_TICK, Duration::from_millis(ms), &mut out);
            let sent = probes(&out);
            assert_eq!(sent.len(), 1, "tick at {ms} ms");
            assert_eq!(rule_of(&sent[0]), 0, "the canary is the oldest rule");
        }
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(300), &mut out);
        assert_eq!(injections(&out), 20, "every rule aged past fallback_delay");
    }

    #[test]
    fn confirming_return_reprobes_each_stale_rule_once() {
        let mut t = new_technique();
        arrive(&mut t, 0..5, Duration::ZERO);
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        let canary = probes(&out);
        assert_eq!(canary.len(), 1);

        // The canary's return re-probes the four rules not probed since.
        let mut out = Vec::new();
        t.on_probe_packet(&canary[0], Duration::from_millis(12), &mut out);
        assert_eq!(confirms(&out), vec![0]);
        let round = probes(&out);
        assert_eq!(
            round.iter().map(rule_of).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );

        // The returns of that round start no further round.
        for (k, h) in round.iter().enumerate() {
            let mut out = Vec::new();
            t.on_probe_packet(h, Duration::from_millis(14), &mut out);
            assert_eq!(confirms(&out), vec![k as u64 + 1]);
            assert_eq!(injections(&out), 0);
        }
    }

    #[test]
    fn tick_after_confirmation_probes_rules_older_than_observed_lag() {
        let mut t = new_technique();
        let first = arrive(&mut t, 0..1, Duration::ZERO);
        let mut out = Vec::new();
        t.on_probe_packet(&first[0], Duration::from_millis(50), &mut out);
        assert_eq!(confirms(&out), vec![0]);

        // Observed lag: 50 ms.  Rules 1–4 arrive at 100 ms, rule 5 at 140 ms.
        arrive(&mut t, 1..5, Duration::from_millis(100));
        arrive(&mut t, 5..6, Duration::from_millis(140));
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(160), &mut out);
        assert_eq!(
            probes(&out).iter().map(rule_of).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(190), &mut out);
        assert_eq!(injections(&out), 5);
    }

    #[test]
    fn idle_switch_probes_its_first_rule_at_once() {
        let mut t = new_technique();
        let sent = arrive(&mut t, 0..1, Duration::ZERO);
        assert_eq!(sent.iter().map(rule_of).collect::<Vec<_>>(), vec![0]);
        let mut out = Vec::new();
        t.on_probe_packet(&sent[0], Duration::from_millis(2), &mut out);
        assert_eq!(confirms(&out), vec![0]);
        // Idle again: the next rule is the new canary.
        let sent = arrive(&mut t, 1..2, Duration::from_millis(5));
        assert_eq!(sent.iter().map(rule_of).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn rules_behind_a_pending_canary_wait_for_its_return_round() {
        let mut t = new_technique();
        assert_eq!(arrive(&mut t, 0..1, Duration::ZERO).len(), 1);
        assert!(arrive(&mut t, 1..5, Duration::from_millis(1)).is_empty());
        let mut canary = Vec::new();
        for ms in [10, 20] {
            let mut out = Vec::new();
            t.on_timer(TOKEN_TICK, Duration::from_millis(ms), &mut out);
            canary = probes(&out);
            assert_eq!(canary.iter().map(rule_of).collect::<Vec<_>>(), vec![0]);
        }
        let mut out = Vec::new();
        t.on_probe_packet(&canary[0], Duration::from_millis(22), &mut out);
        assert_eq!(confirms(&out), vec![0]);
        assert_eq!(
            probes(&out).iter().map(rule_of).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn return_round_skips_rules_newer_than_its_probe() {
        let mut t = new_technique();
        arrive(&mut t, 0..2, Duration::from_millis(5));
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        let canary = probes(&out);
        assert_eq!(canary.iter().map(rule_of).collect::<Vec<_>>(), vec![0]);
        // Rules 2 and 3 arrive after the canary's probe left.
        assert!(arrive(&mut t, 2..4, Duration::from_millis(10)).is_empty());
        let mut out = Vec::new();
        t.on_probe_packet(&canary[0], Duration::from_millis(11), &mut out);
        assert_eq!(confirms(&out), vec![0]);
        assert_eq!(
            probes(&out).iter().map(rule_of).collect::<Vec<_>>(),
            vec![1],
            "the batch the canary proved live holds only rule 1"
        );
        // Observed lag 6 ms: the next tick probes the new canary and both
        // rules the round skipped.
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(20), &mut out);
        assert_eq!(
            probes(&out).iter().map(rule_of).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    /// The switch and the timer wheel around one technique: rules install
    /// in any order and some never, probes return after a random delay.
    struct Harness {
        /// Per rule: arrival, install time (`None`: dropped), first probe.
        rules: Vec<(Duration, Option<Duration>, Option<Duration>)>,
        tick_at: Option<Duration>,
        in_flight: Vec<(Duration, PacketHeader)>,
        rng: u64,
    }

    impl Harness {
        fn draw(&mut self, n: u64) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng % n
        }

        /// Arms the tick and sends the probes of outputs issued at `now`; a
        /// probe returns only if its rule is installed when it is sent.
        fn apply(&mut self, out: Vec<TechniqueOutput>, now: Duration) {
            for o in &out {
                if let TechniqueOutput::SetTimer { delay, token } = o {
                    if *token == TOKEN_TICK {
                        self.tick_at = Some(now + *delay);
                    }
                }
            }
            for h in probes(&out) {
                let back = now + Duration::from_micros(500 + self.draw(3_000));
                let rule = &mut self.rules[usize::from(rule_of(&h))];
                rule.2.get_or_insert(now);
                if rule.1.is_some_and(|live| live <= now) {
                    self.in_flight.push((back, h));
                }
            }
        }

        /// Feeds the technique its next input due by `now` — the earliest
        /// return, or the tick when that is due first; false when none is.
        fn step(&mut self, t: &mut GeneralProbing, now: Duration) -> bool {
            let ret = (0..self.in_flight.len())
                .filter(|&k| self.in_flight[k].0 <= now)
                .min_by_key(|&k| self.in_flight[k].0);
            let tick = self.tick_at.filter(|at| *at <= now);
            let mut out = Vec::new();
            let at = match (ret, tick) {
                (Some(k), tick) if tick.is_none_or(|at| self.in_flight[k].0 < at) => {
                    let (at, h) = self.in_flight.swap_remove(k);
                    t.on_probe_packet(&h, at, &mut out);
                    at
                }
                (_, Some(at)) => {
                    self.tick_at = None;
                    t.on_timer(TOKEN_TICK, at, &mut out);
                    at
                }
                _ => return false,
            };
            self.apply(out, at);
            true
        }
    }

    /// Random interleavings of arrivals, ticks and returns against a switch
    /// that reorders and drops rules: with at most `max_outstanding` rules
    /// pending, every pending rule is probed within `fallback_delay +
    /// probe_interval` of its arrival.
    #[test]
    fn every_pending_rule_is_probed_within_the_lag_bound() {
        const INTERVAL: Duration = Duration::from_millis(10);
        const FALLBACK: Duration = Duration::from_millis(300);
        const CAP: usize = 8;
        for seed in 1..=40u64 {
            let mut w = Harness {
                rules: Vec::new(),
                tick_at: None,
                in_flight: Vec::new(),
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let mut t = GeneralProbing::new(
                SwitchId::new(1),
                INTERVAL,
                CAP,
                FALLBACK,
                probed_switch_one(),
                0xB000_0000,
            );
            t.seed_rule(&FlowMod::add(OfMatch::wildcard_all(), 0, vec![]));
            let mut now = Duration::ZERO;
            for _ in 0..600 {
                now += Duration::from_micros(w.draw(4_000));
                while w.step(&mut t, now) {}
                if t.pending.len() < CAP && w.rules.len() < 250 && w.draw(3) == 0 {
                    let i = w.rules.len() as u8;
                    let live = (w.draw(16) != 0).then(|| now + Duration::from_millis(w.draw(200)));
                    w.rules.push((now, live, None));
                    let mut out = Vec::new();
                    t.on_flow_mod(u64::from(i), &forwarding_mod(i), now, &mut out);
                    w.apply(out, now);
                }
                for p in &t.pending {
                    let (arrived, _, first) = w.rules[p.id as usize];
                    let deadline = arrived + FALLBACK + INTERVAL;
                    assert!(
                        first.is_some_and(|f| f <= deadline) || now <= deadline,
                        "seed {seed}: rule {} arrived at {arrived:?}, unprobed at {now:?}",
                        p.id
                    );
                }
            }
            assert!(w.rules.len() > 20, "seed {seed}: {} rules", w.rules.len());
        }
    }

    /// After any interleaving of ADD, MODIFY and DELETE mods on one switch,
    /// which applies them in order at random times while ticks fire and
    /// probes return in any order, a return confirms only a rule whose own
    /// probe the oracle table (`LinearFlowTable`, holding the mods applied
    /// so far) sends to the catch switch with exactly the returned header.
    #[test]
    fn a_return_confirms_only_a_rule_the_oracle_returns_it_for() {
        use openflow::messages::FlowModCommand;
        let mut confirmed = 0;
        for seed in 1..=20u64 {
            let mut w = Harness {
                rules: Vec::new(),
                tick_at: None,
                in_flight: Vec::new(),
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let mut t = new_technique();
            let mut oracle = ofswitch::LinearFlowTable::new(0);
            let drop_all = FlowMod::add(OfMatch::wildcard_all(), 0, vec![]);
            oracle.apply(&drop_all, Duration::ZERO).unwrap();
            // Where the oracle sends `packet`: the header it carries on the
            // port towards the catch switch, if it leaves there.
            let returns = |oracle: &ofswitch::LinearFlowTable, packet: &PacketHeader| {
                let entry = oracle.peek_lookup(packet, 1)?;
                let (header, ports) = Action::apply_list(&entry.actions, packet);
                ports.contains(&2).then_some(header)
            };
            let (mut mods, mut applied, mut probes) = (Vec::new(), 0, Vec::new());
            let mut probe_of = HashMap::new();
            for step in 0..1_500 {
                let (now, mut out) = (Duration::from_millis(step), Vec::new());
                match w.draw(6) {
                    0 => {
                        let (a, b) = (w.draw(8) as u8 + 1, w.draw(8) as u8 + 1);
                        let match_ = match w.draw(8) {
                            0 => OfMatch::wildcard_all().with_nw_dst_prefix(
                                Ipv4Addr::new(10, 1, 0, b),
                                [16, 24, 32][w.draw(3) as usize],
                            ),
                            // No room for a probe id: the VLAN tells them apart.
                            1 | 2 => port_pinned_mod(1)
                                .match_
                                .with_dl_vlan([10, 20][w.draw(2) as usize]),
                            _ => OfMatch::ipv4_pair(
                                Ipv4Addr::new(10, 0, 0, a),
                                Ipv4Addr::new(10, 1, 0, b),
                            ),
                        };
                        let actions = match w.draw(5) {
                            0 => vec![],
                            1 => vec![Action::output(3)],
                            2 => vec![
                                Action::SetDlDst(MacAddr::from_id(0xBEEF)),
                                Action::output(2),
                            ],
                            3 => vec![Action::SetVlanVid(10), Action::output(2)],
                            _ => vec![Action::output(2)],
                        };
                        let mut fm = FlowMod::add(match_, [50, 100][w.draw(2) as usize], actions);
                        fm.command = match w.draw(8) {
                            0 => FlowModCommand::Modify,
                            1 => FlowModCommand::ModifyStrict,
                            2 => FlowModCommand::Delete,
                            3 => FlowModCommand::DeleteStrict,
                            _ => FlowModCommand::Add,
                        };
                        let id = mods.len() as ModId;
                        t.on_flow_mod(id, &fm, now, &mut out);
                        mods.push(fm);
                        if let Some(p) = t.pending.iter().find(|p| p.id == id) {
                            probe_of.insert(id, p.probe.packet);
                        }
                    }
                    1 | 2 if applied < mods.len() => {
                        let _ = oracle.apply(&mods[applied], now);
                        applied += 1;
                    }
                    3 => t.on_timer(TOKEN_TICK, now, &mut out),
                    _ if !probes.is_empty() => {
                        let packet = probes.swap_remove(w.draw(probes.len() as u64) as usize);
                        let Some(header) = returns(&oracle, &packet) else {
                            continue;
                        };
                        t.on_probe_packet(&header, now, &mut out);
                        for id in confirms(&out) {
                            confirmed += 1;
                            assert_eq!(
                                returns(&oracle, &probe_of[&id]),
                                Some(header),
                                "seed {seed}: mod {id} {:?} confirmed by {header:?}",
                                mods[id as usize]
                            );
                        }
                    }
                    _ => {}
                }
                probes.extend(self::probes(&out));
            }
        }
        assert!(confirmed > 200, "a thin run: {confirmed} confirms");
    }

    /// A silently dropped rule is the canary for good; every rule behind it
    /// is still confirmed once older than the lag bound (`fallback_delay`
    /// before any confirmation), plus one tick and the probe round trip.
    #[test]
    fn dropped_canary_does_not_block_the_rules_behind_it() {
        let mut t = new_technique();
        let live_at = Duration::from_millis(100);
        let rtt = Duration::from_millis(1);
        // A switch that never installs rule 0 and installs the rest at 100 ms.
        let returns = |sent: Vec<PacketHeader>, at: Duration| -> Vec<(Duration, PacketHeader)> {
            sent.into_iter()
                .filter(|h| rule_of(h) != 0 && at >= live_at)
                .map(|h| (at + rtt, h))
                .collect()
        };
        let mut in_flight = returns(arrive(&mut t, 0..4, Duration::ZERO), Duration::ZERO);
        let mut confirmed = Vec::new();
        for ms in (10..=400).step_by(10) {
            let now = Duration::from_millis(ms);
            let mut out = Vec::new();
            t.on_timer(TOKEN_TICK, now, &mut out);
            in_flight.extend(returns(probes(&out), now));
            while let Some((at, h)) = in_flight.pop() {
                let mut out = Vec::new();
                t.on_probe_packet(&h, at, &mut out);
                confirmed.extend(confirms(&out).into_iter().map(|c| (c, at)));
                in_flight.extend(returns(probes(&out), at));
            }
        }
        confirmed.sort();
        assert_eq!(
            confirmed.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let bound = Duration::from_millis(300) + Duration::from_millis(10) + rtt;
        assert!(
            confirmed.iter().all(|(_, at)| *at <= bound),
            "{confirmed:?}"
        );
    }

    #[test]
    fn rule_forwarding_to_unmonitored_port_uses_fallback() {
        let mut t = new_technique();
        // Port 7 leads to a host, not to a monitored switch.
        let fm = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 1, 0, 3)),
            100,
            vec![Action::output(7)],
        );
        let mut out = Vec::new();
        t.on_flow_mod(9, &fm, Duration::ZERO, &mut out);
        assert_eq!(fallbacks(&out), vec![9]);
        assert_eq!(injections(&out), 0);
    }

    #[test]
    fn identical_lower_priority_rule_forces_fallback() {
        let mut t = new_technique();
        t.seed_rule(&FlowMod::add(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            50,
            vec![Action::output(2)],
        ));
        let mut out = Vec::new();
        t.on_flow_mod(4, &forwarding_mod(4), Duration::ZERO, &mut out);
        assert_eq!(
            fallbacks(&out),
            vec![4],
            "indistinguishable rules cannot be probed"
        );
        assert_eq!(injections(&out), 0);
    }

    /// `10.1.0.0/16 -> [output port]` at `priority`: the lower rule the
    /// table-semantics tests stand the probed pair under.
    fn prefix_mod(priority: u16, port: u16) -> FlowMod {
        FlowMod::add(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            priority,
            vec![Action::output(port)],
        )
    }

    /// A loose DELETE filtered by `out_port = 3` leaves L (output 2) in
    /// place, as on the switch, so a later R that forwards like L cannot
    /// be told apart from it and waits for the fallback timer.
    #[test]
    fn out_port_filtered_delete_keeps_the_lower_rule() {
        let mut t = new_technique();
        let mut out = Vec::new();
        t.on_flow_mod(1, &prefix_mod(50, 2), Duration::ZERO, &mut out);
        let mut del = FlowMod::delete(prefix_mod(50, 2).match_);
        del.out_port = 3;
        t.on_flow_mod(2, &del, Duration::ZERO, &mut out);
        let mut out = Vec::new();
        t.on_flow_mod(3, &forwarding_mod(4), Duration::ZERO, &mut out);
        assert_eq!(fallbacks(&out), vec![3]);
        assert_eq!(injections(&out), 0);
    }

    /// At equal priority the earlier of two overlapping rules handles the
    /// packet, so R's probe would leave through the older rule's port 3.
    #[test]
    fn older_equal_priority_overlap_keeps_the_candidate() {
        let mut t = new_technique();
        let mut out = Vec::new();
        t.on_flow_mod(1, &prefix_mod(100, 3), Duration::ZERO, &mut out);
        let mut out = Vec::new();
        t.on_flow_mod(2, &forwarding_mod(4), Duration::ZERO, &mut out);
        assert_eq!(fallbacks(&out), vec![2]);
        assert_eq!(injections(&out), 0);
    }

    /// A MODIFY_STRICT of L from port 3 to port 2 is proved against the
    /// version it replaces, not against M below, which already outputs to 2.
    #[test]
    fn modify_strict_is_probed_against_the_version_it_replaces() {
        let mut t = new_technique();
        let mut out = Vec::new();
        t.on_flow_mod(1, &prefix_mod(10, 2), Duration::ZERO, &mut out);
        // Confirm M so the switch is idle and the MODIFY_STRICT's probe goes
        // out at once.
        let m = probes(&out);
        let mut out = Vec::new();
        t.on_probe_packet(&m[0], Duration::from_millis(1), &mut out);
        assert_eq!(confirms(&out), vec![1]);
        let mut out = Vec::new();
        let l = forwarding_mod(4);
        let mut old = l.clone();
        old.actions = vec![Action::output(3)];
        t.on_flow_mod(2, &old, Duration::ZERO, &mut out);
        let mut out = Vec::new();
        let modify = FlowMod::modify_strict(l.match_, l.priority, l.actions);
        t.on_flow_mod(3, &modify, Duration::ZERO, &mut out);
        assert!(fallbacks(&out).is_empty());
        let sent = probes(&out);
        assert_eq!(sent.len(), 1);
        assert_eq!(rule_of(&sent[0]), 4);
        let mut out = Vec::new();
        t.on_probe_packet(&sent[0], Duration::from_millis(2), &mut out);
        assert_eq!(confirms(&out), vec![3]);
    }

    /// `forwarding_mod(1)` narrowed to both L4 ports, so its probe carries
    /// no probe id, and to `in_port`.
    fn port_pinned_mod(in_port: u16) -> FlowMod {
        let mut fm = forwarding_mod(1);
        fm.match_ = fm.match_.with_tp_dst(80).with_in_port(in_port);
        fm.match_.wildcards = fm.match_.wildcards.with(Wildcards::TP_SRC, false);
        fm.match_.tp_src = 1234;
        fm
    }

    /// Two rules that differ only in their VLAN: the probe of the second
    /// returns tagged 20 and confirms the second, not the older first.
    #[test]
    fn a_return_confirms_the_rule_whose_vlan_it_carries() {
        let mut t = new_technique();
        let mut out = Vec::new();
        for (cookie, vlan) in [(1, 10), (2, 20)] {
            let mut fm = port_pinned_mod(1);
            fm.match_ = fm.match_.with_dl_vlan(vlan);
            t.on_flow_mod(cookie, &fm, Duration::ZERO, &mut out);
        }
        assert!(fallbacks(&out).is_empty());
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(300), &mut out);
        let sent = probes(&out);
        let second = sent.iter().find(|h| h.dl_vlan == 20).expect("R2 probed");
        let mut out = Vec::new();
        t.on_probe_packet(second, Duration::from_millis(301), &mut out);
        assert_eq!(confirms(&out), vec![2]);
    }

    /// Two rules whose probes would return alike (they differ only in the
    /// in-port, which the returned header does not show): the second waits
    /// for its fallback timer instead of sharing the first one's returns.
    #[test]
    fn a_probe_returning_like_a_pending_one_falls_back() {
        let mut t = new_technique();
        let mut out = Vec::new();
        t.on_flow_mod(1, &port_pinned_mod(1), Duration::ZERO, &mut out);
        assert_eq!(injections(&out), 1);
        let mut out = Vec::new();
        t.on_flow_mod(2, &port_pinned_mod(3), Duration::ZERO, &mut out);
        assert_eq!(fallbacks(&out), vec![2]);
        assert_eq!(
            t.fallback_pending.get(&2),
            Some(&ProbeSynthesisError::SameReturnAsPending)
        );
    }

    /// A rewriting rule is confirmed only by a return that carries the
    /// rewritten header (ECN bits aside); the probe as injected proves
    /// nothing about it.
    #[test]
    fn a_return_must_carry_the_rules_rewrites() {
        let mut t = new_technique();
        let new_dst = MacAddr::from_id(0xBEEF);
        let mut fm = forwarding_mod(1);
        fm.actions = vec![Action::SetDlDst(new_dst), Action::output(2)];
        let mut out = Vec::new();
        t.on_flow_mod(6, &fm, Duration::ZERO, &mut out);
        let sent = probes(&out);
        assert_eq!(sent.len(), 1);
        assert_ne!(sent[0].dl_dst, new_dst);
        let mut out = Vec::new();
        t.on_probe_packet(&sent[0], Duration::from_millis(1), &mut out);
        assert!(confirms(&out).is_empty(), "the unrewritten probe");
        let rewritten = PacketHeader {
            dl_dst: new_dst,
            nw_tos: sent[0].nw_tos | 0x01,
            ..sent[0]
        };
        t.on_probe_packet(&rewritten, Duration::from_millis(2), &mut out);
        assert_eq!(confirms(&out), vec![6]);
    }
}
