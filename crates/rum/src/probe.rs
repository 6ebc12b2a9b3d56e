//! Probe-packet and probe-rule synthesis (paper §3.2).
//!
//! Sequential probing needs two kinds of rules — a high-priority *probe-catch*
//! rule on every switch that punts marked packets to the controller, and a
//! versioned *probe rule* on the monitored switch that stamps a version number
//! into passing probes.  General probing additionally needs, per probed rule,
//! a concrete packet that (a) matches exactly that rule, (b) is not hijacked
//! by a higher-priority rule, (c) is handled differently by RUM's model of
//! the switch's table (an [`ofswitch::FlowTable`]) before vs after the mod,
//! and (d) will be caught by the next-hop switch's catch rule.

use ofswitch::{FlowEntry, FlowTable};
use openflow::messages::FlowMod;
use openflow::{Action, MacAddr, OfMatch, PacketHeader, PortNo, Wildcards};
use std::net::Ipv4Addr;
use std::time::Duration;

use crate::config::{CATCH_RULE_PRIORITY, PREPROBE_TOS, PROBE_RULE_PRIORITY};

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
/// pre-probe packets ([`PREPROBE_TOS`]) are stamped with the current version
/// (VLAN id), have their ToS rewritten to the *next-hop* switch's catch
/// value, and are forwarded towards that neighbour.
pub fn sequential_probe_rule(
    next_hop_catch_tos: u8,
    out_port: PortNo,
    version: u16,
    cookie: u64,
    first_install: bool,
) -> FlowMod {
    let match_ = OfMatch::wildcard_all().with_nw_tos(PREPROBE_TOS);
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

/// The pre-probe packet RUM repeatedly injects for sequential probing.
pub fn sequential_probe_packet() -> PacketHeader {
    let mut h = PacketHeader::ipv4_udp(
        MacAddr::from_id(0x52_55_4d_01),
        MacAddr::from_id(0x52_55_4d_02),
        PROBE_SRC_IP,
        PROBE_DST_IP,
        40_000,
        40_001,
    );
    h.nw_tos = PREPROBE_TOS;
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
    /// The table handles the probe alike before and after the mod, so the
    /// probe cannot distinguish "installed" from "not installed yet".
    IndistinguishableFromFallback,
    /// The probe would return with the same header as the probe of a rule
    /// still pending on the same switch, so its return could not name one
    /// rule.
    SameReturnAsPending,
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
                "the table handles the probe alike before and after the mod"
            }
            ProbeSynthesisError::SameReturnAsPending => {
                "the probe would return like a pending rule's probe"
            }
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProbeSynthesisError {}

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

/// Synthesises a probe packet for the flow-mod `fm` (paper §3.2.2, including
/// the "Overlapping rules" refinements) and applies `fm` to `table`.
///
/// * `table` — RUM's model of the switch's flow table *before* `fm`: it must
///   not contain the probed rule yet.  `fm` goes through the switch's own
///   [`FlowTable::apply`] exactly once, whatever the result.
/// * `catch_tos` — the catch value of the next-hop switch (the probe's ToS is
///   set to this so the neighbour punts it to RUM).
/// * `probe_id` — a unique id embedded in an unconstrained L4 port field so
///   returning probes can be attributed without ambiguity.
/// * `now` — when the model installs `fm`.
///
/// A candidate is a probe only if the table handles it differently before
/// and after the mod (Monocle's differential check).  Looked up before, a
/// candidate held by a rule of strictly higher priority than `fm` is
/// skipped; the first one that is not decides.  It must not already be
/// handled the way `fm`'s actions handle it, and looked up after, it must
/// be.
pub fn synthesize_general_probe(
    table: &mut FlowTable,
    fm: &FlowMod,
    catch_tos: u8,
    probe_id: u16,
    now: Duration,
) -> Result<GeneralProbe, ProbeSynthesisError> {
    let tried = candidate_before(table, fm, catch_tos, probe_id);
    // A mod the switch refuses leaves the table as it was, and the check
    // below then finds nothing to tell apart.
    let _ = table.apply(fm, now);
    let (packet, in_port, out_port) = tried?;
    if !handles_like(table.peek_lookup(&packet, in_port), &fm.actions, &packet) {
        return Err(ProbeSynthesisError::IndistinguishableFromFallback);
    }
    let (expected_at_catch, _) = Action::apply_list(&fm.actions, &packet);
    Ok(GeneralProbe {
        packet,
        expected_at_catch,
        out_port,
    })
}

/// True when `entry`, a lookup's result, handles `packet` the way `actions`
/// do.
fn handles_like(entry: Option<&FlowEntry>, actions: &[Action], packet: &PacketHeader) -> bool {
    entry.is_some_and(|e| {
        e.actions == actions || !Action::observably_differs(&e.actions, actions, packet)
    })
}

/// The candidate packet to probe `fm` with, its in-port and `fm`'s output
/// port, decided on the table before `fm`.
fn candidate_before(
    table: &FlowTable,
    fm: &FlowMod,
    catch_tos: u8,
    probe_id: u16,
) -> Result<(PacketHeader, PortNo, PortNo), ProbeSynthesisError> {
    let out_port =
        first_physical_output(&fm.actions).ok_or(ProbeSynthesisError::NoForwardingOutput)?;

    // The probe is identified downstream by its ToS value; a rule that
    // constrains or rewrites ToS cannot be probed this way.
    if !fm.match_.wildcards.is_wildcarded(Wildcards::NW_TOS) {
        return Err(ProbeSynthesisError::MatchesOnProbeField);
    }
    if fm
        .actions
        .iter()
        .any(|a| matches!(a, Action::SetNwTos(t) if t & 0xfc != catch_tos & 0xfc))
    {
        return Err(ProbeSynthesisError::RewritesProbeField);
    }

    // Candidate packets: the rule's example packet, then variations of the
    // unconstrained fields in case the first candidate is hijacked by a
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
    let id_in_src = fm.match_.wildcards.is_wildcarded(Wildcards::TP_SRC);
    let id_in_dst = fm.match_.wildcards.is_wildcarded(Wildcards::TP_DST);
    if id_in_src {
        template.tp_src = probe_id;
    } else if id_in_dst {
        template.tp_dst = probe_id;
    }
    let in_port = if fm.match_.wildcards.is_wildcarded(Wildcards::IN_PORT) {
        0
    } else {
        fm.match_.in_port
    };

    for salt in 0..=4u16 {
        // Vary whatever is unconstrained to dodge higher-priority overlaps.
        let mut alt = template;
        if salt > 0 && id_in_dst && id_in_src {
            alt.tp_dst = 50_000 + salt;
        }
        if salt > 0 && fm.match_.wildcards.nw_src_bits() >= 8 {
            let base_ip = u32::from_be_bytes(alt.nw_src.octets());
            alt.nw_src = Ipv4Addr::from((base_ip + u32::from(salt)).to_be_bytes());
        }
        let (candidate, _) = fm.match_.example_packet(&alt);
        if !fm.match_.matches(&candidate, in_port) {
            continue;
        }
        let before = table.peek_lookup(&candidate, in_port);
        if before.is_some_and(|e| e.priority > fm.priority) {
            continue;
        }
        if handles_like(before, &fm.actions, &candidate) {
            return Err(ProbeSynthesisError::IndistinguishableFromFallback);
        }
        return Ok((candidate, in_port, out_port));
    }
    Err(ProbeSynthesisError::CoveredByHigherPriority)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CATCH_TOS_BASE;

    /// Switch `i`'s catch value in a small fleet, one value per switch.
    fn catch_of(i: u8) -> u8 {
        CATCH_TOS_BASE - 4 * i
    }

    /// A table model holding `rules`.
    fn table(rules: &[FlowMod]) -> FlowTable {
        let mut table = FlowTable::new(0);
        for fm in rules {
            table.apply(fm, Duration::ZERO).unwrap();
        }
        table
    }

    fn base_table(catch_tos: u8) -> FlowTable {
        table(&[
            // Drop-all default.
            FlowMod::add(OfMatch::wildcard_all(), 0, vec![]),
            // RUM's own catch rule.
            catch_rule(catch_tos, 0),
        ])
    }

    fn synthesize(
        table: &mut FlowTable,
        rule: &FlowMod,
        catch_tos: u8,
        probe_id: u16,
    ) -> Result<GeneralProbe, ProbeSynthesisError> {
        synthesize_general_probe(table, rule, catch_tos, probe_id, Duration::ZERO)
    }

    #[test]
    fn catch_rule_matches_only_its_tos() {
        let rule = catch_rule(catch_of(0), 1);
        assert_eq!(rule.priority, CATCH_RULE_PRIORITY);
        let mut pkt = PacketHeader {
            nw_tos: catch_of(0),
            ..Default::default()
        };
        assert!(rule.match_.matches(&pkt, 1));
        pkt.nw_tos = 0;
        assert!(!rule.match_.matches(&pkt, 1));
    }

    #[test]
    fn sequential_rule_rewrites_and_forwards() {
        let fm = sequential_probe_rule(0xF8, 3, 7, 99, true);
        assert_eq!(fm.priority, PROBE_RULE_PRIORITY);
        let probe = sequential_probe_packet();
        assert!(fm.match_.matches(&probe, 1));
        let (rewritten, ports) = Action::apply_list(&fm.actions, &probe);
        assert_eq!(rewritten.nw_tos, 0xF8);
        assert_eq!(rewritten.dl_vlan, 7);
        assert_eq!(ports, vec![3]);
        // Version bumps reuse modify-strict so the rule is updated in place.
        let bump = sequential_probe_rule(0xF8, 3, 8, 99, false);
        assert_eq!(bump.match_, fm.match_);
        assert!(matches!(
            bump.command,
            openflow::messages::FlowModCommand::ModifyStrict
        ));
    }

    #[test]
    fn general_probe_for_simple_forwarding_rule() {
        let catch = catch_of(2);
        let rule = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        let mut table = base_table(catch_of(1));
        let probe = synthesize(&mut table, &rule, catch, 777).unwrap();
        assert_eq!(probe.out_port, 2);
        assert_eq!(probe.packet.nw_src, Ipv4Addr::new(10, 0, 0, 5));
        assert_eq!(probe.packet.nw_tos & 0xfc, catch & 0xfc);
        assert_eq!(probe.packet.tp_src, 777, "probe id rides in tp_src");
        // The probe must match the probed rule, which the table now holds.
        assert!(rule.match_.matches(&probe.packet, 0));
        assert!(table.find_strict(&rule.match_, rule.priority).is_some());
        assert_eq!(probe.expected_at_catch.nw_tos & 0xfc, catch & 0xfc);
    }

    #[test]
    fn general_probe_rejects_drop_rules() {
        let rule = FlowMod::add(OfMatch::wildcard_all(), 10, vec![]);
        let err = synthesize(&mut table(&[]), &rule, 0xf8, 1).unwrap_err();
        assert_eq!(err, ProbeSynthesisError::NoForwardingOutput);
        assert!(err.to_string().contains("no forwarding output"));
    }

    #[test]
    fn general_probe_rejects_tos_matching_rules() {
        let rule = FlowMod::add(
            OfMatch::wildcard_all().with_nw_tos(0x20),
            10,
            vec![Action::output(1)],
        );
        assert_eq!(
            synthesize(&mut table(&[]), &rule, 0xf8, 1),
            Err(ProbeSynthesisError::MatchesOnProbeField)
        );
    }

    #[test]
    fn general_probe_rejects_tos_rewriting_rules() {
        let rule = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2)),
            10,
            vec![Action::SetNwTos(0x04), Action::output(1)],
        );
        assert_eq!(
            synthesize(&mut table(&[]), &rule, 0xf8, 1),
            Err(ProbeSynthesisError::RewritesProbeField)
        );
    }

    #[test]
    fn general_probe_detects_indistinguishable_fallback() {
        // A lower-priority rule already forwards the same traffic to the same
        // port: the probe cannot tell whether the new rule is installed.
        let rule = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        let lower = FlowMod::add(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            50,
            vec![Action::output(2)],
        );
        assert_eq!(
            synthesize(&mut table(&[lower]), &rule, catch_of(1), 1),
            Err(ProbeSynthesisError::IndistinguishableFromFallback)
        );
    }

    #[test]
    fn general_probe_distinguishes_different_fallback_port() {
        // Same as above but the lower-priority rule forwards elsewhere, so the
        // probe is valid (paper: common ACL + forwarding combination).
        let rule = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        let lower = FlowMod::add(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            50,
            vec![Action::output(3)],
        );
        let probe = synthesize(&mut table(&[lower]), &rule, catch_of(1), 1).unwrap();
        assert_eq!(probe.out_port, 2);
    }

    #[test]
    fn general_probe_avoids_higher_priority_overlap_when_possible() {
        // Probed rule: everything to 10.1/16 -> port 2.
        let rule = FlowMod::add(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            100,
            vec![Action::output(2)],
        );
        // Higher-priority rule hijacks the rule's canonical example packet
        // (src 198.51.100.1) but not other sources.
        let hijacker = FlowMod::add(
            OfMatch::wildcard_all().with_nw_src_prefix(PROBE_SRC_IP, 32),
            200,
            vec![Action::output(9)],
        );
        let mut table = table(&[hijacker, FlowMod::add(OfMatch::wildcard_all(), 0, vec![])]);
        let probe = synthesize(&mut table, &rule, catch_of(1), 5).unwrap();
        // The chosen probe must not be the hijacked source address.
        assert_ne!(probe.packet.nw_src, PROBE_SRC_IP);
        assert!(rule.match_.matches(&probe.packet, 0));
    }

    #[test]
    fn general_probe_fully_covered_fails() {
        let rule = FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 1, 0, 5)),
            100,
            vec![Action::output(2)],
        );
        // A higher-priority rule covering the probed rule completely.
        let cover = FlowMod::add(
            OfMatch::wildcard_all().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            200,
            vec![Action::output(9)],
        );
        assert_eq!(
            synthesize(&mut table(&[cover]), &rule, catch_of(1), 5),
            Err(ProbeSynthesisError::CoveredByHigherPriority)
        );
    }
}
