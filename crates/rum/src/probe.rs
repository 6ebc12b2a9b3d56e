//! Probe-packet and probe-rule synthesis (paper §3.2).
//!
//! Sequential probing needs two kinds of rules — a high-priority *probe-catch*
//! rule on every switch that punts marked packets to the controller, and a
//! versioned *probe rule* on the monitored switch that stamps a version number
//! into passing probes.  General probing additionally needs, per probed rule,
//! a concrete packet that (a) matches exactly that rule, (b) is not hijacked
//! by a higher-priority rule, (c) is observably handled differently by
//! whatever lower-priority rule would match it before the probed rule is
//! installed, and (d) will be caught by the next-hop switch's catch rule.

use openflow::messages::{FlowMod, FlowModCommand};
use openflow::{Action, MacAddr, OfMatch, PacketHeader, PacketKey, PortNo, TupleSpace, Wildcards};
use std::net::Ipv4Addr;

use crate::config::{CATCH_RULE_PRIORITY, PROBE_RULE_PRIORITY};

/// The IP addresses probe packets use by default (TEST-NET-2, never assigned
/// to real traffic).
pub const PROBE_SRC_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
/// Default destination of probe packets (TEST-NET-2).
pub const PROBE_DST_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);

/// Builds the probe-catch rule RUM installs on a switch: every IP packet
/// whose ToS equals the switch's catch value is punted to the controller.
pub fn catch_rule(catch_tos: u8, cookie: u64) -> FlowMod {
    FlowMod::add(
        OfMatch::wildcard_all().with_nw_tos(catch_tos),
        CATCH_RULE_PRIORITY,
        vec![Action::to_controller()],
    )
    .with_cookie(cookie)
}

/// Builds (or re-versions) the sequential probing rule at a monitored switch:
/// pre-probe packets are stamped with the current version (VLAN id), have
/// their ToS rewritten to the *next-hop* switch's catch value, and are
/// forwarded towards that neighbour.
pub fn sequential_probe_rule(
    preprobe_tos: u8,
    next_hop_catch_tos: u8,
    out_port: PortNo,
    version: u16,
    cookie: u64,
    first_install: bool,
) -> FlowMod {
    let match_ = OfMatch::wildcard_all().with_nw_tos(preprobe_tos);
    let actions = vec![
        Action::SetVlanVid(version),
        Action::SetNwTos(next_hop_catch_tos),
        Action::output(out_port),
    ];
    let fm = if first_install {
        FlowMod::add(match_, PROBE_RULE_PRIORITY, actions)
    } else {
        FlowMod::modify_strict(match_, PROBE_RULE_PRIORITY, actions)
    };
    fm.with_cookie(cookie)
}

/// The packet RUM repeatedly injects for sequential probing.
pub fn sequential_probe_packet(preprobe_tos: u8) -> PacketHeader {
    let mut h = PacketHeader::ipv4_udp(
        MacAddr::from_id(0x52_55_4d_01),
        MacAddr::from_id(0x52_55_4d_02),
        PROBE_SRC_IP,
        PROBE_DST_IP,
        40_000,
        40_001,
    );
    h.nw_tos = preprobe_tos;
    h
}

/// Why no distinguishing probe packet could be synthesised for a rule; RUM
/// falls back to a control-plane technique in these cases (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSynthesisError {
    /// The rule drops packets (or outputs to the controller/local port), so a
    /// probe matching it would never reach a neighbouring switch.
    NoForwardingOutput,
    /// The rule matches on the ToS field RUM needs for probe identification.
    MatchesOnProbeField,
    /// The rule rewrites the ToS field, so the catch value would be destroyed
    /// before the probe reaches the next hop.
    RewritesProbeField,
    /// Every candidate probe packet is covered by a higher-priority rule.
    CoveredByHigherPriority,
    /// The rule that would match the probe before installation behaves
    /// identically, so the probe cannot distinguish "installed" from "not
    /// installed yet".
    IndistinguishableFromFallback,
}

impl std::fmt::Display for ProbeSynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProbeSynthesisError::NoForwardingOutput => "rule has no forwarding output",
            ProbeSynthesisError::MatchesOnProbeField => "rule matches on the probe header field",
            ProbeSynthesisError::RewritesProbeField => "rule rewrites the probe header field",
            ProbeSynthesisError::CoveredByHigherPriority => {
                "all candidate probes are covered by higher-priority rules"
            }
            ProbeSynthesisError::IndistinguishableFromFallback => {
                "lower-priority rules behave identically to the probed rule"
            }
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProbeSynthesisError {}

/// A rule RUM knows to be (or to soon be) present at a switch, used for the
/// overlap analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownRule {
    /// The rule's match.
    pub match_: OfMatch,
    /// The rule's priority.
    pub priority: u16,
    /// The rule's actions.
    pub actions: Vec<Action>,
}

/// The two questions probe synthesis asks of a table model, answered by a
/// scan over a rule slice (the reference) or by [`KnownRules`]' index.
trait TableModel {
    /// Would a rule of strictly higher priority than `rule` take `packet`
    /// away from it?
    fn hijacks(&self, rule: &KnownRule, packet: &PacketHeader, in_port: PortNo) -> bool;

    /// The rule that handles `packet` while `rule` is not installed: the
    /// highest-priority match at or below `rule`'s priority other than
    /// `rule` itself, the most recently added among equals.
    fn fallback(
        &self,
        rule: &KnownRule,
        packet: &PacketHeader,
        in_port: PortNo,
    ) -> Option<&KnownRule>;
}

impl KnownRule {
    /// True for `other` being the same table entry: identical match and
    /// priority (OpenFlow's strict comparison).
    fn same_entry(&self, other: &KnownRule) -> bool {
        self.match_ == other.match_ && self.priority == other.priority
    }
}

impl TableModel for [KnownRule] {
    fn hijacks(&self, rule: &KnownRule, packet: &PacketHeader, in_port: PortNo) -> bool {
        self.iter().any(|k| {
            k.priority > rule.priority && !k.same_entry(rule) && k.match_.matches(packet, in_port)
        })
    }

    fn fallback(
        &self,
        rule: &KnownRule,
        packet: &PacketHeader,
        in_port: PortNo,
    ) -> Option<&KnownRule> {
        self.iter()
            .filter(|k| !k.same_entry(rule))
            .filter(|k| k.priority <= rule.priority && k.match_.matches(packet, in_port))
            .max_by_key(|k| k.priority)
    }
}

/// RUM's model of one switch's flow table: every rule it believes is or
/// will be installed there, in the order it learnt of them, behind a
/// priority-bucketed tuple-space index — so synthesising a probe costs the
/// same against 1,400 known rules as against 100.
#[derive(Debug, Default)]
pub struct KnownRules {
    /// `(arrival number, rule)` in arrival order, so ascending by number.
    rules: Vec<(u64, KnownRule)>,
    /// Which arrival numbers may match a packet.
    index: TupleSpace,
    next_seq: u64,
}

impl KnownRules {
    /// An empty table model.
    pub fn new() -> Self {
        KnownRules::default()
    }

    /// Number of known rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rule is known.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The known rules, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &KnownRule> {
        self.rules.iter().map(|(_, k)| k)
    }

    /// Adds `rule` behind every rule already known.
    pub fn push(&mut self, rule: KnownRule) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.index.insert(&rule.match_, rule.priority, seq);
        self.rules.push((seq, rule));
    }

    /// The rule the index knows by arrival number `seq`.
    fn by_seq(&self, seq: u64) -> &KnownRule {
        let at = self
            .rules
            .binary_search_by_key(&seq, |(s, _)| *s)
            .expect("indexed rule exists");
        &self.rules[at].1
    }

    /// Updates the model with a flow modification on its way to the switch:
    /// OpenFlow 1.0's strict and loose selection for modifies and deletes;
    /// an ADD (or a modify selecting nothing) is appended.
    pub fn apply(&mut self, fm: &FlowMod) {
        let strict = matches!(
            fm.command,
            FlowModCommand::ModifyStrict | FlowModCommand::DeleteStrict
        );
        let selects = |k: &KnownRule| {
            if strict {
                k.match_ == fm.match_ && k.priority == fm.priority
            } else {
                fm.match_.covers(&k.match_)
            }
        };
        let learnt = || KnownRule {
            match_: fm.match_,
            priority: fm.priority,
            actions: fm.actions.clone(),
        };
        match fm.command {
            FlowModCommand::Add => self.push(learnt()),
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let mut any = false;
                for (_, k) in self.rules.iter_mut().filter(|(_, k)| selects(k)) {
                    k.actions = fm.actions.clone();
                    any = true;
                }
                if !any {
                    self.push(learnt());
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let index = &mut self.index;
                self.rules.retain(|(seq, k)| {
                    let doomed = selects(k);
                    if doomed {
                        index.remove(&k.match_, k.priority, *seq);
                    }
                    !doomed
                });
            }
        }
    }

    /// [`synthesize_general_probe`] against this table model.
    pub fn synthesize_probe(
        &self,
        rule: &KnownRule,
        catch_tos: u8,
        probe_id: u16,
    ) -> Result<GeneralProbe, ProbeSynthesisError> {
        synthesize(rule, self, catch_tos, probe_id)
    }
}

impl TableModel for KnownRules {
    fn hijacks(&self, rule: &KnownRule, packet: &PacketHeader, in_port: PortNo) -> bool {
        let Some(above) = rule.priority.checked_add(1) else {
            return false;
        };
        let key = PacketKey::new(packet, in_port);
        self.index.descending(above..).any(|bucket| {
            let mut hit = false;
            bucket.candidates(&key, |seq| {
                hit = hit || self.by_seq(seq).match_.matches(packet, in_port);
            });
            hit
        })
    }

    fn fallback(
        &self,
        rule: &KnownRule,
        packet: &PacketHeader,
        in_port: PortNo,
    ) -> Option<&KnownRule> {
        let key = PacketKey::new(packet, in_port);
        self.index.descending(..=rule.priority).find_map(|bucket| {
            let mut latest: Option<u64> = None;
            bucket.candidates(&key, |seq| {
                let k = self.by_seq(seq);
                if latest.is_none_or(|l| seq > l)
                    && !k.same_entry(rule)
                    && k.match_.matches(packet, in_port)
                {
                    latest = Some(seq);
                }
            });
            latest.map(|seq| self.by_seq(seq))
        })
    }
}

/// A synthesised probe for one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralProbe {
    /// The packet to inject (before any rewriting by the probed rule).
    pub packet: PacketHeader,
    /// The header the packet will carry *after* the probed rule's rewrites —
    /// this is what the catch rule at the next hop will punt to RUM.
    pub expected_at_catch: PacketHeader,
    /// The output port of the probed rule the probe will leave through.
    pub out_port: PortNo,
}

/// The first physical output port of an action list, if any.
pub fn first_physical_output(actions: &[Action]) -> Option<PortNo> {
    Action::output_ports(actions)
        .into_iter()
        .find(|p| *p < openflow::constants::port::MAX)
}

/// Synthesises a probe packet for `rule` (paper §3.2.2, including the
/// "Overlapping rules" refinements).
///
/// * `rule` — the rule being probed (as sent by the controller).
/// * `known_rules` — every rule RUM believes is or will be installed at the
///   switch, *including* RUM's own catch/probe rules and the probed rule
///   itself.
/// * `catch_tos` — the catch value of the next-hop switch (the probe's ToS is
///   set to this so the neighbour punts it to RUM).
/// * `probe_id` — a unique id embedded in an unconstrained L4 port field so
///   returning probes can be attributed without ambiguity.
pub fn synthesize_general_probe(
    rule: &KnownRule,
    known_rules: &[KnownRule],
    catch_tos: u8,
    probe_id: u16,
) -> Result<GeneralProbe, ProbeSynthesisError> {
    synthesize(rule, known_rules, catch_tos, probe_id)
}

fn synthesize(
    rule: &KnownRule,
    table: &(impl TableModel + ?Sized),
    catch_tos: u8,
    probe_id: u16,
) -> Result<GeneralProbe, ProbeSynthesisError> {
    let out_port =
        first_physical_output(&rule.actions).ok_or(ProbeSynthesisError::NoForwardingOutput)?;

    // The probe is identified downstream by its ToS value; a rule that
    // constrains or rewrites ToS cannot be probed this way.
    if !rule.match_.wildcards.is_wildcarded(Wildcards::NW_TOS) {
        return Err(ProbeSynthesisError::MatchesOnProbeField);
    }
    if rule
        .actions
        .iter()
        .any(|a| matches!(a, Action::SetNwTos(t) if t & 0xfc != catch_tos & 0xfc))
    {
        return Err(ProbeSynthesisError::RewritesProbeField);
    }

    // Build candidate packets: the rule's example packet, then variations of
    // the unconstrained fields in case the first candidate is hijacked by a
    // higher-priority rule.  Finding an exact witness is NP-hard in general
    // (the paper cites header-space analysis); a handful of candidates is
    // enough for realistic forwarding tables.
    let mut template = PacketHeader::ipv4_udp(
        MacAddr::from_id(0x52_55_4d_01),
        MacAddr::from_id(0x52_55_4d_02),
        PROBE_SRC_IP,
        PROBE_DST_IP,
        40_000,
        40_001,
    );
    template.nw_tos = catch_tos;
    // Embed the probe id in an L4 port the rule does not constrain.
    let id_in_src = rule.match_.wildcards.is_wildcarded(Wildcards::TP_SRC);
    let id_in_dst = rule.match_.wildcards.is_wildcarded(Wildcards::TP_DST);
    if id_in_src {
        template.tp_src = probe_id;
    } else if id_in_dst {
        template.tp_dst = probe_id;
    }

    let mut candidates: Vec<PacketHeader> = Vec::new();
    let (base, _) = rule.match_.example_packet(&template);
    candidates.push(base);
    // Vary whatever is unconstrained to dodge higher-priority overlaps.
    for salt in 1..=4u16 {
        let mut alt = template;
        if id_in_dst && id_in_src {
            alt.tp_dst = 50_000 + salt;
        }
        if rule.match_.wildcards.nw_src_bits() >= 8 {
            let base_ip = u32::from_be_bytes(alt.nw_src.octets());
            alt.nw_src = Ipv4Addr::from((base_ip + u32::from(salt)).to_be_bytes());
        }
        let (candidate, _) = rule.match_.example_packet(&alt);
        candidates.push(candidate);
    }

    let in_port = if rule
        .match_
        .wildcards
        .is_wildcarded(openflow::Wildcards::IN_PORT)
    {
        0
    } else {
        rule.match_.in_port
    };

    for candidate in candidates {
        if !rule.match_.matches(&candidate, in_port) {
            continue;
        }
        // (a) No strictly higher-priority rule may match the candidate.
        if table.hijacks(rule, &candidate, in_port) {
            continue;
        }
        // (b) The best lower-or-equal-priority rule (excluding the probed one)
        // must treat the candidate observably differently.
        if let Some(fb) = table.fallback(rule, &candidate, in_port) {
            if !Action::observably_differs(&rule.actions, &fb.actions, &candidate) {
                return Err(ProbeSynthesisError::IndistinguishableFromFallback);
            }
        }
        let (expected_at_catch, _) = Action::apply_list(&rule.actions, &candidate);
        return Ok(GeneralProbe {
            packet: candidate,
            expected_at_catch,
            out_port,
        });
    }
    Err(ProbeSynthesisError::CoveredByHigherPriority)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProbeFieldPlan, PREPROBE_TOS};
    use crate::engine::SwitchId;

    fn known(match_: OfMatch, priority: u16, actions: Vec<Action>) -> KnownRule {
        KnownRule {
            match_,
            priority,
            actions,
        }
    }

    fn base_table(catch_tos: u8) -> Vec<KnownRule> {
        vec![
            // Drop-all default.
            known(OfMatch::wildcard_all(), 0, vec![]),
            // RUM's own catch rule.
            known(
                OfMatch::wildcard_all().with_nw_tos(catch_tos),
                CATCH_RULE_PRIORITY,
                vec![Action::to_controller()],
            ),
        ]
    }

    #[test]
    fn catch_rule_matches_only_its_tos() {
        let plan = ProbeFieldPlan::unique_per_switch(2);
        let rule = catch_rule(plan.catch_tos(SwitchId::new(0)), 1);
        assert_eq!(rule.priority, CATCH_RULE_PRIORITY);
        let mut pkt = PacketHeader {
            nw_tos: plan.catch_tos(SwitchId::new(0)),
            ..Default::default()
        };
        assert!(rule.match_.matches(&pkt, 1));
        pkt.nw_tos = 0;
        assert!(!rule.match_.matches(&pkt, 1));
    }

    #[test]
    fn sequential_rule_rewrites_and_forwards() {
        let fm = sequential_probe_rule(PREPROBE_TOS, 0xF8, 3, 7, 99, true);
        assert_eq!(fm.priority, PROBE_RULE_PRIORITY);
        let probe = sequential_probe_packet(PREPROBE_TOS);
        assert!(fm.match_.matches(&probe, 1));
        let (rewritten, ports) = Action::apply_list(&fm.actions, &probe);
        assert_eq!(rewritten.nw_tos, 0xF8);
        assert_eq!(rewritten.dl_vlan, 7);
        assert_eq!(ports, vec![3]);
        // Version bumps reuse modify-strict so the rule is updated in place.
        let bump = sequential_probe_rule(PREPROBE_TOS, 0xF8, 3, 8, 99, false);
        assert_eq!(bump.match_, fm.match_);
        assert!(matches!(
            bump.command,
            openflow::messages::FlowModCommand::ModifyStrict
        ));
    }

    #[test]
    fn general_probe_for_simple_forwarding_rule() {
        let plan = ProbeFieldPlan::unique_per_switch(3);
        let catch = plan.catch_tos(SwitchId::new(2));
        let rule = known(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        let mut table = base_table(plan.catch_tos(SwitchId::new(1)));
        table.push(rule.clone());
        let probe = synthesize_general_probe(&rule, &table, catch, 777).unwrap();
        assert_eq!(probe.out_port, 2);
        assert_eq!(probe.packet.nw_src, Ipv4Addr::new(10, 0, 0, 5));
        assert_eq!(probe.packet.nw_tos & 0xfc, catch & 0xfc);
        assert_eq!(probe.packet.tp_src, 777, "probe id rides in tp_src");
        // The probe must match the probed rule and not the drop-all rule at
        // higher priority (there is none higher here).
        assert!(rule.match_.matches(&probe.packet, 0));
        assert_eq!(probe.expected_at_catch.nw_tos & 0xfc, catch & 0xfc);
    }

    #[test]
    fn general_probe_rejects_drop_rules() {
        let rule = known(OfMatch::wildcard_all(), 10, vec![]);
        let err =
            synthesize_general_probe(&rule, std::slice::from_ref(&rule), 0xf8, 1).unwrap_err();
        assert_eq!(err, ProbeSynthesisError::NoForwardingOutput);
        assert!(err.to_string().contains("no forwarding output"));
    }

    #[test]
    fn general_probe_rejects_tos_matching_rules() {
        let rule = known(
            OfMatch::wildcard_all().with_nw_tos(0x20),
            10,
            vec![Action::output(1)],
        );
        assert_eq!(
            synthesize_general_probe(&rule, std::slice::from_ref(&rule), 0xf8, 1),
            Err(ProbeSynthesisError::MatchesOnProbeField)
        );
    }

    #[test]
    fn general_probe_rejects_tos_rewriting_rules() {
        let rule = known(
            OfMatch::ipv4_pair(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2)),
            10,
            vec![Action::SetNwTos(0x04), Action::output(1)],
        );
        assert_eq!(
            synthesize_general_probe(&rule, std::slice::from_ref(&rule), 0xf8, 1),
            Err(ProbeSynthesisError::RewritesProbeField)
        );
    }

    #[test]
    fn general_probe_detects_indistinguishable_fallback() {
        // A lower-priority rule already forwards the same traffic to the same
        // port: the probe cannot tell whether the new rule is installed.
        let plan = ProbeFieldPlan::unique_per_switch(2);
        let rule = known(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        let lower = known(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            50,
            vec![Action::output(2)],
        );
        let table = vec![rule.clone(), lower];
        assert_eq!(
            synthesize_general_probe(&rule, &table, plan.catch_tos(SwitchId::new(1)), 1),
            Err(ProbeSynthesisError::IndistinguishableFromFallback)
        );
    }

    #[test]
    fn general_probe_distinguishes_different_fallback_port() {
        // Same as above but the lower-priority rule forwards elsewhere, so the
        // probe is valid (paper: common ACL + forwarding combination).
        let plan = ProbeFieldPlan::unique_per_switch(2);
        let rule = known(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        let lower = known(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            50,
            vec![Action::output(3)],
        );
        let table = vec![rule.clone(), lower];
        let probe =
            synthesize_general_probe(&rule, &table, plan.catch_tos(SwitchId::new(1)), 1).unwrap();
        assert_eq!(probe.out_port, 2);
    }

    #[test]
    fn general_probe_avoids_higher_priority_overlap_when_possible() {
        let plan = ProbeFieldPlan::unique_per_switch(2);
        // Probed rule: everything to 10.1/16 -> port 2.
        let rule = known(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            100,
            vec![Action::output(2)],
        );
        // Higher-priority rule hijacks the rule's canonical example packet
        // (src 198.51.100.1) but not other sources.
        let hijacker = known(
            OfMatch::wildcard_all().with_nw_src_prefix(PROBE_SRC_IP, 32),
            200,
            vec![Action::output(9)],
        );
        let table = vec![
            rule.clone(),
            hijacker,
            known(OfMatch::wildcard_all(), 0, vec![]),
        ];
        let probe =
            synthesize_general_probe(&rule, &table, plan.catch_tos(SwitchId::new(1)), 5).unwrap();
        // The chosen probe must not be the hijacked source address.
        assert_ne!(probe.packet.nw_src, PROBE_SRC_IP);
        assert!(rule.match_.matches(&probe.packet, 0));
    }

    #[test]
    fn general_probe_fully_covered_fails() {
        let plan = ProbeFieldPlan::unique_per_switch(2);
        let rule = known(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        // A higher-priority rule covering the probed rule completely.
        let cover = known(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            200,
            vec![Action::output(9)],
        );
        let table = vec![rule.clone(), cover];
        assert_eq!(
            synthesize_general_probe(&rule, &table, plan.catch_tos(SwitchId::new(1)), 5),
            Err(ProbeSynthesisError::CoveredByHigherPriority)
        );
    }
}
