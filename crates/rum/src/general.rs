//! General probing (paper §3.2.2).
//!
//! Confirms every rule modification individually by crafting a probe packet
//! that matches exactly that rule, injecting it through a neighbour, and
//! waiting for the next-hop switch's probe-catch rule to punt it back to RUM.
//! Because each rule is confirmed on its own, this works even on switches
//! that reorder modifications across barriers.  Rules for which no
//! distinguishing probe exists (drop rules, rules fully covered by
//! higher-priority entries, rules whose pre-install fallback behaves
//! identically) are confirmed by a control-plane fallback timeout, exactly as
//! the paper prescribes.

use crate::config::{ProbeFieldPlan, SwitchPortMap};
use crate::engine::SwitchId;
use crate::probe::{GeneralProbe, KnownRule, KnownRules, ProbeSynthesisError};
use crate::technique::{AckTechnique, ProbeTick, TechniqueOutput, TOKEN_TICK};
use openflow::messages::{FlowMod, PacketOut};
use openflow::{Action, OfMessage, PacketHeader, Xid};
use std::collections::HashMap;
use std::time::Duration;

/// Timer tokens >= this value are fallback confirmations (token - base = cookie).
const TOKEN_FALLBACK_BASE: u64 = 1 << 32;

/// State of one rule modification awaiting confirmation.
#[derive(Debug)]
struct PendingRule {
    cookie: u64,
    probe: GeneralProbe,
    probe_id: u16,
}

/// The general-probing acknowledgment technique for one monitored switch.
#[derive(Debug)]
pub struct GeneralProbing {
    tick: ProbeTick,
    max_outstanding: usize,
    fallback_delay: Duration,
    plan: ProbeFieldPlan,
    ports: SwitchPortMap,

    /// RUM's model of the switch's flow table (controller rules + RUM rules).
    known_rules: KnownRules,
    /// Pending probe-confirmable rules, oldest first.
    pending: Vec<PendingRule>,
    /// Pending fallback confirmations: cookie -> why no probe exists.
    fallback_pending: HashMap<u64, ProbeSynthesisError>,
    /// First probe id of this instance's id range (ids are partitioned per
    /// monitored switch so probes can never be attributed to the wrong
    /// switch's technique).
    probe_id_base: u16,
    next_probe_id: u16,
    next_xid: Xid,
}

impl GeneralProbing {
    /// Creates the technique.
    pub fn new(
        switch_index: SwitchId,
        probe_interval: Duration,
        max_outstanding: usize,
        fallback_delay: Duration,
        plan: ProbeFieldPlan,
        ports: SwitchPortMap,
        xid_base: Xid,
    ) -> Self {
        assert!(max_outstanding > 0, "max_outstanding must be at least 1");
        // Each monitored switch gets its own 4096-wide band of probe ids.
        let probe_id_base = 1 + (switch_index.index() as u16 % 15) * 4096;
        GeneralProbing {
            tick: ProbeTick::new(probe_interval),
            max_outstanding,
            fallback_delay,
            plan,
            ports,
            known_rules: KnownRules::new(),
            pending: Vec::new(),
            fallback_pending: HashMap::new(),
            probe_id_base,
            next_probe_id: probe_id_base,
            next_xid: xid_base,
        }
    }

    /// Seeds RUM's model of the switch table with rules known to be installed
    /// before the update starts (e.g. the pre-installed drop-all rule and
    /// RUM's own catch rules).
    pub fn seed_known_rule(
        &mut self,
        match_: openflow::OfMatch,
        priority: u16,
        actions: Vec<Action>,
    ) {
        self.known_rules.push(KnownRule {
            match_,
            priority,
            actions,
        });
    }

    fn fresh_xid(&mut self) -> Xid {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
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
        cookie: u64,
        reason: ProbeSynthesisError,
        out: &mut Vec<TechniqueOutput>,
    ) {
        self.fallback_pending.insert(cookie, reason);
        out.push(TechniqueOutput::SetTimer {
            delay: self.fallback_delay,
            token: TOKEN_FALLBACK_BASE + cookie,
        });
    }

    fn inject_probe_for(&mut self, idx: usize, out: &mut Vec<TechniqueOutput>) {
        let Some((via_switch, via_port)) = self.ports.inject_via else {
            return;
        };
        let po = PacketOut::inject(
            vec![Action::output(via_port)],
            self.pending[idx].probe.packet.to_bytes(),
        );
        let xid = self.fresh_xid();
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
        cookie: u64,
        fm: &FlowMod,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        self.tick.ensure(out);

        // Deletions cannot be confirmed by a positive probe; fall back.
        if fm.command.is_delete() {
            self.known_rules.apply(fm);
            self.arm_fallback(cookie, ProbeSynthesisError::NoForwardingOutput, out);
            return;
        }

        let probe_id = self.fresh_probe_id();
        let rule = KnownRule {
            match_: fm.match_,
            priority: fm.priority,
            actions: fm.actions.clone(),
        };
        // Determine which neighbour will catch the probe: the switch behind
        // the rule's output port.
        let catch_switch =
            crate::probe::first_physical_output(&fm.actions).and_then(|p| self.ports.next_hop(p));
        let result = match catch_switch {
            Some(next) => {
                self.known_rules
                    .synthesize_probe(&rule, self.plan.catch_tos(next), probe_id)
            }
            None => Err(ProbeSynthesisError::NoForwardingOutput),
        };
        // The rule is now part of RUM's table model either way.
        self.known_rules.apply(fm);
        match result {
            Ok(probe) => {
                self.pending.push(PendingRule {
                    cookie,
                    probe,
                    probe_id,
                });
                // Probe immediately rather than waiting for the next tick: the
                // paper's general probing is limited by probe round-trips, not
                // by extra rule installations.
                let idx = self.pending.len() - 1;
                if idx < self.max_outstanding {
                    self.inject_probe_for(idx, out);
                }
            }
            Err(reason) => self.arm_fallback(cookie, reason, out),
        }
    }

    fn on_probe_packet(
        &mut self,
        header: &PacketHeader,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        // Attribute the probe to a pending rule by probe id (or full header
        // comparison when the id field was constrained by the rule).  The
        // ToS byte must carry the expected neighbour's catch value — a probe
        // surfacing with a different marker was not punted by the catch rule
        // this probe was aimed at and proves nothing about the rule.
        let position = self.pending.iter().position(|p| {
            let expected = &p.probe.expected_at_catch;
            let tos_match = expected.nw_tos & 0xfc == header.nw_tos & 0xfc;
            let addresses_match =
                expected.nw_src == header.nw_src && expected.nw_dst == header.nw_dst;
            let id_match = header.tp_src == p.probe_id || header.tp_dst == p.probe_id;
            let ports_match = expected.tp_src == header.tp_src && expected.tp_dst == header.tp_dst;
            tos_match && addresses_match && (id_match || ports_match)
        });
        let Some(idx) = position else {
            return;
        };
        let pending = self.pending.remove(idx);
        out.push(TechniqueOutput::Confirm(pending.cookie));
    }

    fn on_timer(&mut self, token: u64, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        if token >= TOKEN_FALLBACK_BASE {
            let cookie = token - TOKEN_FALLBACK_BASE;
            if self.fallback_pending.remove(&cookie).is_some() {
                out.push(TechniqueOutput::Confirm(cookie));
            }
            return;
        }
        if token != TOKEN_TICK {
            return;
        }
        // Re-probe the oldest outstanding rules, up to the configured cap.
        let n = self.pending.len().min(self.max_outstanding);
        for idx in 0..n {
            self.inject_probe_for(idx, out);
        }
        let busy = !self.pending.is_empty() || !self.fallback_pending.is_empty();
        self.tick.fired(busy, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::OfMatch;
    use std::net::Ipv4Addr;

    fn ports() -> SwitchPortMap {
        let mut m = SwitchPortMap {
            port_to_switch: Default::default(),
            inject_via: Some((SwitchId::new(0), 2)),
        };
        m.port_to_switch.insert(2, SwitchId::new(2));
        m
    }

    fn plan() -> ProbeFieldPlan {
        ProbeFieldPlan::unique_per_switch(3)
    }

    fn new_technique() -> GeneralProbing {
        let mut t = GeneralProbing::new(
            SwitchId::new(1),
            Duration::from_millis(10),
            30,
            Duration::from_millis(300),
            plan(),
            ports(),
            0xB000_0000,
        );
        // Mirror the pre-installed drop-all rule.
        t.seed_known_rule(OfMatch::wildcard_all(), 0, vec![]);
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

    /// The cookies whose fallback timer `out` arms.
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
            plan().catch_tos(SwitchId::new(2)) & 0xfc
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
            nw_tos: plan().catch_tos(SwitchId::new(2)),
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
        let mut out = Vec::new();
        t.on_flow_mod(1, &forwarding_mod(1), Duration::ZERO, &mut out);
        let del = FlowMod::delete_strict(forwarding_mod(1).match_, 100);
        let mut out = Vec::new();
        t.on_flow_mod(2, &del, Duration::ZERO, &mut out);
        assert_eq!(fallbacks(&out), vec![2]);
        // The deleted rule is gone from the model, so re-adding it later
        // synthesises a probe without tripping the "identical fallback" check.
        let mut out = Vec::new();
        t.on_flow_mod(3, &forwarding_mod(1), Duration::ZERO, &mut out);
        assert_eq!(injections(&out), 1);
    }

    /// Two unprobeable DELETEs under one cookie arm two fallback timers;
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

    #[test]
    fn tick_reprobes_oldest_rules_up_to_cap() {
        let mut t = GeneralProbing::new(
            SwitchId::new(1),
            Duration::from_millis(10),
            2, // cap at 2 outstanding probes per round
            Duration::from_millis(300),
            plan(),
            ports(),
            0xB000_0000,
        );
        t.seed_known_rule(OfMatch::wildcard_all(), 0, vec![]);
        let mut out = Vec::new();
        for i in 0..5u8 {
            t.on_flow_mod(u64::from(i), &forwarding_mod(i), Duration::ZERO, &mut out);
        }
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        assert_eq!(
            injections(&out),
            2,
            "re-probing is capped at max_outstanding"
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
        t.seed_known_rule(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            50,
            vec![Action::output(2)],
        );
        let mut out = Vec::new();
        t.on_flow_mod(4, &forwarding_mod(4), Duration::ZERO, &mut out);
        assert_eq!(
            fallbacks(&out),
            vec![4],
            "indistinguishable rules cannot be probed"
        );
        assert_eq!(injections(&out), 0);
    }
}
