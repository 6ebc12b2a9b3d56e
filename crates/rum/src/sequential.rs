//! Sequential probing (paper §3.2.1).
//!
//! Works on switches that answer barriers too early but do **not** reorder
//! modifications: if the versioned probe rule installed *after* a batch of
//! real modifications is observed to be active (a probe packet comes back
//! stamped with its version), every modification in the batch must be active
//! as well.
//!
//! Implementation notes, following the paper's refinements:
//! * one probe rule per switch, re-versioned in place (`modify_strict`)
//!   instead of installing and deleting a rule per batch;
//! * the version rides in the VLAN id of the probe packet, the probe marker
//!   in the ToS byte, so a single probe rule serves the whole experiment;
//! * versions are recycled modulo 4094 (the prototype's ToS-only variant had
//!   to recycle after 64 — VLAN ids push that out but the wrap-around logic
//!   is the same);
//! * probes are injected through a neighbouring switch (`PacketOut` on the
//!   neighbour's connection) so the probing rule is exercised by the
//!   *hardware* path, not the switch-local software path.

use crate::config::ProbeTopology;
use crate::engine::SwitchId;
use crate::probe::{sequential_probe_packet, sequential_probe_rule};
use crate::technique::{fresh_xid, AckTechnique, ProbeTick, TechniqueOutput, TOKEN_TICK};
use openflow::messages::{FlowMod, PacketOut};
use openflow::{Action, OfMessage, PacketHeader, PortNo, Xid};
use std::collections::VecDeque;
use std::time::Duration;

/// Largest VLAN id usable as a probe version before wrapping.
const MAX_VERSION: u16 = 4094;

/// A batch of real modifications covered by one probe-rule version.
#[derive(Debug, Clone)]
struct Batch {
    version: u16,
    cookies: Vec<u64>,
}

/// The sequential-probing acknowledgment technique for one monitored switch.
#[derive(Debug)]
pub struct SequentialProbing {
    /// Real modifications per probe-rule version bump.
    batch_size: usize,
    /// The probe tick, injecting while confirmations are pending.
    tick: ProbeTick,
    /// Port of this switch leading to the neighbour that will catch probes.
    catch_port: PortNo,
    /// The catch value of that neighbour.
    catch_tos: u8,
    /// The neighbour probes are injected through, and its port towards
    /// this switch.
    inject_via: Option<(SwitchId, PortNo)>,

    /// Modifications not yet covered by a probe-rule version.
    unversioned: Vec<u64>,
    /// Batches whose probe has not yet come back, oldest first.
    outstanding: VecDeque<Batch>,
    current_version: u16,
    probe_rule_installed: bool,
    next_xid: Xid,
}

impl SequentialProbing {
    /// Creates the technique for `switch` of `topology`.  Probes leave
    /// through the switch's lowest port leading to a monitored neighbour,
    /// whose probe-catch rule punts them (RUM installs those at start-up on
    /// every switch).
    pub(crate) fn new(
        switch: SwitchId,
        batch_size: usize,
        probe_interval: Duration,
        topology: &ProbeTopology,
        xid_base: Xid,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        let &(catch_port, catch_switch) = (topology.ports(switch).first())
            .expect("sequential probing needs at least one monitored neighbour");
        SequentialProbing {
            batch_size,
            tick: ProbeTick::new(probe_interval),
            catch_port,
            catch_tos: topology.catch_tos(catch_switch),
            inject_via: topology.inject_via(switch),
            unversioned: Vec::new(),
            outstanding: VecDeque::new(),
            current_version: 0,
            probe_rule_installed: false,
            next_xid: xid_base,
        }
    }

    fn bump_version(&mut self, out: &mut Vec<TechniqueOutput>) {
        if self.unversioned.is_empty() {
            return;
        }
        self.current_version = if self.current_version >= MAX_VERSION {
            1
        } else {
            self.current_version + 1
        };
        let cookies = std::mem::take(&mut self.unversioned);
        self.outstanding.push_back(Batch {
            version: self.current_version,
            cookies,
        });
        let xid = fresh_xid(&mut self.next_xid);
        let mut fm = sequential_probe_rule(
            self.catch_tos,
            self.catch_port,
            self.current_version,
            u64::from(xid),
            !self.probe_rule_installed,
        );
        fm.cookie = u64::from(xid);
        self.probe_rule_installed = true;
        out.push(TechniqueOutput::ToSwitch(OfMessage::FlowMod {
            xid,
            body: fm,
        }));
    }

    fn inject_probe(&mut self, out: &mut Vec<TechniqueOutput>) {
        let Some((via_switch, via_port)) = self.inject_via else {
            return;
        };
        let packet = sequential_probe_packet();
        let po = PacketOut::inject(vec![Action::output(via_port)], packet.to_bytes());
        let xid = fresh_xid(&mut self.next_xid);
        out.push(TechniqueOutput::InjectVia {
            switch: via_switch,
            msg: OfMessage::PacketOut { xid, body: po },
        });
    }
}

impl AckTechnique for SequentialProbing {
    fn start(&mut self, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        // The probe-catch rules on every switch are installed by the RUM
        // layer itself (they are shared across techniques); nothing to do
        // here until the first modification arrives.
        self.tick.ensure(out);
    }

    fn on_flow_mod(
        &mut self,
        cookie: u64,
        _fm: &FlowMod,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        self.unversioned.push(cookie);
        if self.unversioned.len() >= self.batch_size {
            self.bump_version(out);
        }
        self.tick.ensure(out);
    }

    fn on_probe_packet(
        &mut self,
        header: &PacketHeader,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        // Ownership check: the probe must carry the catch value of the switch
        // we forward probes to, and a version we actually issued.
        if header.nw_tos & 0xfc != self.catch_tos & 0xfc {
            return;
        }
        let version = header.dl_vlan;
        if !self.outstanding.iter().any(|b| b.version == version) {
            return;
        }
        // The probe rule with `version` is active, therefore every batch up
        // to and including that version is active as well (the switch does
        // not reorder).
        while let Some(front) = self.outstanding.front() {
            let done = front.version;
            if version_is_at_least(version, done) {
                let batch = self.outstanding.pop_front().expect("front exists");
                out.extend(batch.cookies.into_iter().map(TechniqueOutput::Confirm));
                if done == version {
                    break;
                }
            } else {
                break;
            }
        }
    }

    fn on_switch_reconnected(&mut self, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        // The restart wiped the probe rule together with every version it
        // encoded, so no outstanding batch can ever be confirmed by a probe
        // again.  Fold all outstanding batches (plus the unversioned tail)
        // into one fresh batch and re-install the probe rule from scratch
        // *behind* the re-issued modifications — order preservation then
        // makes the new version vouch for everything re-sent, exactly like
        // on a fresh switch.
        let mut cookies: Vec<u64> = Vec::new();
        for batch in self.outstanding.drain(..) {
            cookies.extend(batch.cookies);
        }
        cookies.append(&mut self.unversioned);
        self.unversioned = cookies;
        self.probe_rule_installed = false;
        if !self.unversioned.is_empty() {
            self.bump_version(out);
        }
        self.tick.ensure(out);
    }

    fn on_timer(&mut self, token: u64, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        if token != TOKEN_TICK {
            return;
        }
        // Flush a partial batch if nothing else is outstanding, so the tail
        // of an update is not stranded.
        if !self.unversioned.is_empty() && self.outstanding.is_empty() {
            self.bump_version(out);
        }
        if !self.outstanding.is_empty() {
            self.inject_probe(out);
        }
        // Keep ticking while there is anything to confirm.
        let busy = !self.unversioned.is_empty() || !self.outstanding.is_empty();
        self.tick.fired(busy, out);
    }
}

/// Version comparison tolerant of the wrap-around at [`MAX_VERSION`].
fn version_is_at_least(observed: u16, candidate: u16) -> bool {
    if observed >= candidate {
        observed - candidate < MAX_VERSION / 2
    } else {
        // Wrapped: e.g. observed = 3, candidate = 4090.
        candidate - observed > MAX_VERSION / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::probed_switch_one;
    use openflow::OfMatch;
    use std::net::Ipv4Addr;

    fn fm(i: u8) -> FlowMod {
        FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
            100,
            vec![Action::output(2)],
        )
    }

    fn new_technique(batch: usize) -> SequentialProbing {
        SequentialProbing::new(
            SwitchId::new(1),
            batch,
            Duration::from_millis(10),
            &probed_switch_one(),
            0xA000_0000,
        )
    }

    fn probe_header(version: u16) -> PacketHeader {
        let mut h = sequential_probe_packet();
        h.nw_tos = probed_switch_one().catch_tos(SwitchId::new(2));
        h.dl_vlan = version;
        h
    }

    fn confirms(out: &[TechniqueOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::Confirm(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// How many probe-rule versions `out` installs.
    fn bumps(out: &[TechniqueOutput]) -> usize {
        out.iter()
            .filter(|o| matches!(o, TechniqueOutput::ToSwitch(OfMessage::FlowMod { .. })))
            .count()
    }

    #[test]
    fn batch_completion_triggers_version_bump() {
        let mut t = new_technique(3);
        let mut out = Vec::new();
        t.start(Duration::ZERO, &mut out);
        for i in 0..2u64 {
            let mut out = Vec::new();
            t.on_flow_mod(i, &fm(i as u8), Duration::ZERO, &mut out);
            assert!(
                !out.iter()
                    .any(|o| matches!(o, TechniqueOutput::ToSwitch(_))),
                "no version bump before the batch is full"
            );
        }
        let mut out = Vec::new();
        t.on_flow_mod(2, &fm(2), Duration::ZERO, &mut out);
        assert_eq!(bumps(&out), 1, "batch of 3 triggers one probe-rule update");
        // Version 1 covers the whole batch.
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(1), Duration::from_millis(5), &mut out);
        assert_eq!(confirms(&out), vec![0, 1, 2]);
    }

    #[test]
    fn probe_return_confirms_whole_batch() {
        let mut t = new_technique(2);
        let mut out = Vec::new();
        t.on_flow_mod(10, &fm(1), Duration::ZERO, &mut out);
        t.on_flow_mod(11, &fm(2), Duration::ZERO, &mut out);
        assert_eq!(bumps(&out), 1);

        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(1), Duration::from_millis(5), &mut out);
        assert_eq!(confirms(&out), vec![10, 11]);
        // A second copy of the probe confirms nothing more.
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(1), Duration::from_millis(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn later_version_confirms_earlier_batches_too() {
        let mut t = new_technique(1);
        let mut out = Vec::new();
        t.on_flow_mod(1, &fm(1), Duration::ZERO, &mut out);
        t.on_flow_mod(2, &fm(2), Duration::ZERO, &mut out);
        t.on_flow_mod(3, &fm(3), Duration::ZERO, &mut out);
        assert_eq!(bumps(&out), 3);

        // Only the probe for version 3 comes back (earlier probes lost).
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(3), Duration::from_millis(5), &mut out);
        assert_eq!(confirms(&out), vec![1, 2, 3]);
        // No batch is left: the probes for versions 1 and 2 prove nothing.
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(1), Duration::from_millis(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn foreign_probes_are_ignored() {
        let mut t = new_technique(1);
        let mut out = Vec::new();
        t.on_flow_mod(1, &fm(1), Duration::ZERO, &mut out);
        // Wrong ToS (someone else's catch value).
        let mut h = probe_header(1);
        h.nw_tos = probed_switch_one().catch_tos(SwitchId::new(0));
        let mut out = Vec::new();
        t.on_probe_packet(&h, Duration::ZERO, &mut out);
        assert!(out.is_empty());
        // Right ToS but unknown version.
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(99), Duration::ZERO, &mut out);
        assert!(out.is_empty());
        // The batch is still waiting for its own probe.
        t.on_probe_packet(&probe_header(1), Duration::ZERO, &mut out);
        assert_eq!(confirms(&out), vec![1]);
    }

    #[test]
    fn tick_flushes_partial_batch_and_injects_probe() {
        let mut t = new_technique(10);
        let mut out = Vec::new();
        t.start(Duration::ZERO, &mut out);
        let mut out = Vec::new();
        t.on_flow_mod(5, &fm(5), Duration::ZERO, &mut out);
        assert_eq!(bumps(&out), 0, "partial batch not yet versioned");

        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        assert_eq!(bumps(&out), 1, "tick flushes the partial batch");
        let injected: Vec<SwitchId> = out
            .iter()
            .filter_map(|o| match o {
                TechniqueOutput::InjectVia { switch, .. } => Some(*switch),
                _ => None,
            })
            .collect();
        assert_eq!(
            injected,
            vec![SwitchId::new(0)],
            "one probe is injected via the configured neighbour"
        );
        assert!(
            out.iter()
                .any(|o| matches!(o, TechniqueOutput::SetTimer { .. })),
            "ticking continues while work is pending"
        );
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(1), Duration::from_millis(11), &mut out);
        assert_eq!(confirms(&out), vec![5]);
    }

    #[test]
    fn ticking_stops_when_everything_is_confirmed() {
        let mut t = new_technique(1);
        let mut out = Vec::new();
        t.on_flow_mod(1, &fm(1), Duration::ZERO, &mut out);
        let mut out = Vec::new();
        t.on_probe_packet(&probe_header(1), Duration::ZERO, &mut out);
        let mut out = Vec::new();
        t.on_timer(TOKEN_TICK, Duration::from_millis(10), &mut out);
        assert!(
            !out.iter()
                .any(|o| matches!(o, TechniqueOutput::SetTimer { .. })),
            "no more timers once everything is confirmed"
        );
    }

    #[test]
    fn version_wraparound_comparison() {
        assert!(version_is_at_least(5, 3));
        assert!(version_is_at_least(3, 3));
        assert!(!version_is_at_least(3, 5));
        // Wrapped cases.
        assert!(version_is_at_least(2, 4090));
        assert!(!version_is_at_least(4090, 2));
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_size_rejected() {
        new_technique(0);
    }
}
