//! OpenFlow 1.0 flow-table semantics, indexed for scale.
//!
//! The table keeps two structures in sync so every hot operation is
//! sub-linear in the number of installed rules:
//!
//! * a **tuple-space index** ([`openflow::TupleSpace`]): rules are bucketed
//!   by priority and, inside a bucket, hashed per distinct wildcard mask, so
//!   packet lookup walks priorities from highest to lowest, probes one hash
//!   map per mask in use and stops at the first priority with a match —
//!   O(distinct masks), however many rules share them.  Exact rules are
//!   simply the tuple with the empty mask.  The same slot answers the
//!   *strict* `(match, priority)` questions — `find_strict`, strict
//!   modify/delete, counter accounting, the ADD replace check — in O(1)
//!   expected, and `CHECK_OVERLAP` only examines the colliding priority's
//!   bucket;
//! * the entries themselves, in a `BTreeMap` keyed by a monotonically
//!   increasing installation sequence number, which preserves the
//!   observable iteration and tie-break order of the original linear-scan
//!   table (first installed wins; replaced entries move to the end).
//!
//! That original implementation survives as
//! [`crate::oracle::LinearFlowTable`], the reference oracle the property
//! tests and benchmarks compare against.

use openflow::constants::{
    flow_mod_failed_code, flow_mod_flags, flow_removed_reason, port as of_port,
};
use openflow::messages::{FlowMod, FlowModCommand};
use openflow::{Action, OfMatch, PacketHeader, PacketKey, PortNo, TupleSpace};
use std::collections::BTreeMap;
use std::time::Duration;

/// A single installed flow entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// Fields to match.
    pub match_: OfMatch,
    /// Priority (higher wins; only meaningful for wildcarded entries).
    pub priority: u16,
    /// Actions applied to matching packets (empty list = drop).
    pub actions: Vec<Action>,
    /// Controller-assigned cookie.
    pub cookie: u64,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// When the entry was installed.
    pub installed_at: Duration,
    /// When the entry last matched a packet (= `installed_at` until the
    /// first hit).  Drives the idle timeout.
    pub last_hit: Duration,
    /// Packets matched so far.
    pub packet_count: u64,
    /// Bytes matched so far.
    pub byte_count: u64,
    /// `OFPFF_SEND_FLOW_REM` was set on the installing flow-mod: the switch
    /// must notify the controller when this entry expires.
    pub send_flow_removed: bool,
}

impl FlowEntry {
    /// Builds an entry from a flow-mod ADD.
    pub fn from_flow_mod(fm: &FlowMod, now: Duration) -> Self {
        FlowEntry {
            match_: fm.match_,
            priority: fm.priority,
            actions: fm.actions.clone(),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            installed_at: now,
            last_hit: now,
            packet_count: 0,
            byte_count: 0,
            send_flow_removed: fm.flags & flow_mod_flags::SEND_FLOW_REM != 0,
        }
    }

    /// True if the entry's action list forwards to `port` (used by the
    /// `out_port` filter of DELETE commands).
    pub fn outputs_to(&self, port: PortNo) -> bool {
        Action::output_ports(&self.actions).contains(&port)
    }

    fn hard_deadline(&self) -> Option<Duration> {
        if self.hard_timeout == 0 {
            None
        } else {
            Some(self.installed_at + Duration::from_secs(u64::from(self.hard_timeout)))
        }
    }

    fn idle_deadline(&self) -> Option<Duration> {
        if self.idle_timeout == 0 {
            None
        } else {
            Some(self.last_hit + Duration::from_secs(u64::from(self.idle_timeout)))
        }
    }

    /// The earliest instant this entry may expire: whichever of the idle and
    /// hard deadline comes first (hard wins ties — once both are due the
    /// distinction is unobservable).
    pub fn expiry_deadline(&self) -> Option<Duration> {
        match (self.hard_deadline(), self.idle_deadline()) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (h, i) => h.or(i),
        }
    }

    /// The `flow_removed_reason` an expiry observed at `now` reports: the
    /// hard deadline wins when both are due (mirrors
    /// [`FlowEntry::expiry_deadline`]'s tie-break).
    pub fn expiry_reason(&self, now: Duration) -> u8 {
        match self.hard_deadline() {
            Some(h) if h <= now => flow_removed_reason::HARD_TIMEOUT,
            _ => flow_removed_reason::IDLE_TIMEOUT,
        }
    }
}

/// What a flow-mod did to the table — the switch uses this to know which
/// cookies became active or inactive, and what to report to the trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowModOutcome {
    /// Cookies of entries that were added or whose actions changed.
    pub activated: Vec<u64>,
    /// Cookies of entries that were removed.
    pub removed: Vec<u64>,
}

/// Errors returned when a flow-mod cannot be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTableError {
    /// The table is full.
    TableFull,
    /// CHECK_OVERLAP was set and an overlapping entry of the same priority
    /// exists.
    Overlap,
}

impl FlowTableError {
    /// The OpenFlow error code for this failure.
    pub fn error_code(&self) -> u16 {
        match self {
            FlowTableError::TableFull => flow_mod_failed_code::ALL_TABLES_FULL,
            FlowTableError::Overlap => flow_mod_failed_code::OVERLAP,
        }
    }
}

/// An OpenFlow 1.0 flow table with hash/priority indexes on the hot paths.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Entries keyed by installation sequence number; ascending iteration is
    /// installation order.
    entries: BTreeMap<u64, FlowEntry>,
    /// Which entries may match a packet (or equal a match), by priority and
    /// wildcard mask.
    index: TupleSpace,
    next_seq: u64,
    max_entries: usize,
    /// Lower bound on the earliest hard-timeout deadline of any installed
    /// entry; `None` means no entry has a hard timeout.  [`FlowTable::expire`]
    /// returns without scanning while `now` is below this bound.
    next_expiry: Option<Duration>,
    /// Lookups performed (for table stats).
    pub lookup_count: u64,
    /// Lookups that matched (for table stats).
    pub matched_count: u64,
}

impl FlowTable {
    /// Creates a table bounded at `max_entries` rules (0 = unbounded).
    pub fn new(max_entries: usize) -> Self {
        FlowTable {
            max_entries,
            ..FlowTable::default()
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of entries (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// Iterates over the installed entries in installation order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.values()
    }

    /// Finds the entry exactly matching `match_` and `priority` (strict
    /// semantics).
    pub fn find_strict(&self, match_: &OfMatch, priority: u16) -> Option<&FlowEntry> {
        self.strict_seq(match_, priority)
            .map(|seq| &self.entries[&seq])
    }

    /// The sequence number of the entry whose match is bit-for-bit `match_`
    /// at `priority`; an ADD replaces such an entry, so there is at most one.
    fn strict_seq(&self, match_: &OfMatch, priority: u16) -> Option<u64> {
        let mut found = None;
        self.index
            .bucket(priority)?
            .strict_candidates(match_, |seq| {
                if self.entries[&seq].match_ == *match_ {
                    found = Some(seq);
                }
            });
        found
    }

    /// Looks up the highest-priority entry matching a packet.  Ties are
    /// broken by installation order (first installed wins), which mirrors
    /// what the paper's hardware switch does ("takes the rule installation
    /// order to define the rule importance").
    pub fn lookup(&mut self, pkt: &PacketHeader, in_port: PortNo) -> Option<&FlowEntry> {
        self.lookup_count += 1;
        let hit = self.lookup_seq(pkt, in_port);
        if hit.is_some() {
            self.matched_count += 1;
        }
        hit.map(|seq| &self.entries[&seq])
    }

    /// Same as [`FlowTable::lookup`] but does not update statistics and does
    /// not require `&mut self` — used for read-only probing/analysis.
    pub fn peek_lookup(&self, pkt: &PacketHeader, in_port: PortNo) -> Option<&FlowEntry> {
        self.lookup_seq(pkt, in_port).map(|seq| &self.entries[&seq])
    }

    /// The matching entry's sequence number: walk priorities from highest to
    /// lowest; within a priority the earliest-installed match wins, whichever
    /// mask's hash probe (or the residual list) produced it.
    fn lookup_seq(&self, pkt: &PacketHeader, in_port: PortNo) -> Option<u64> {
        let key = PacketKey::new(pkt, in_port);
        for bucket in self.index.descending(..) {
            let mut best: Option<u64> = None;
            bucket.candidates(&key, |seq| {
                if best.is_none_or(|b| seq < b) && self.entries[&seq].match_.matches(pkt, in_port) {
                    best = Some(seq);
                }
            });
            if best.is_some() {
                return best;
            }
        }
        None
    }

    /// Credits a matched packet to an entry (counters + idle-timeout clock).
    pub fn account(&mut self, match_: &OfMatch, priority: u16, bytes: usize, now: Duration) {
        if let Some(seq) = self.strict_seq(match_, priority) {
            let e = self.entries.get_mut(&seq).expect("indexed entry exists");
            e.packet_count += 1;
            e.byte_count += bytes as u64;
            // A hit pushes the idle deadline out; `next_expiry` stays a
            // (possibly stale) lower bound, which is always safe.
            e.last_hit = e.last_hit.max(now);
        }
    }

    /// Applies a flow-mod, returning which cookies were activated/removed.
    pub fn apply(&mut self, fm: &FlowMod, now: Duration) -> Result<FlowModOutcome, FlowTableError> {
        match fm.command {
            FlowModCommand::Add => self.apply_add(fm, now),
            FlowModCommand::Modify => self.apply_modify(fm, now, false),
            FlowModCommand::ModifyStrict => self.apply_modify(fm, now, true),
            FlowModCommand::Delete => Ok(self.apply_delete(fm, false)),
            FlowModCommand::DeleteStrict => Ok(self.apply_delete(fm, true)),
        }
    }

    fn apply_add(&mut self, fm: &FlowMod, now: Duration) -> Result<FlowModOutcome, FlowTableError> {
        if fm.flags & flow_mod_flags::CHECK_OVERLAP != 0 && self.overlaps_same_priority(fm) {
            return Err(FlowTableError::Overlap);
        }
        // Per the spec, an ADD with an identical match and priority replaces
        // the existing entry (counters reset).
        let mut outcome = FlowModOutcome::default();
        if let Some(seq) = self.strict_seq(&fm.match_, fm.priority) {
            let old = self.remove_seq(seq);
            if old.cookie != fm.cookie {
                outcome.removed.push(old.cookie);
            }
        } else if self.max_entries != 0 && self.entries.len() >= self.max_entries {
            return Err(FlowTableError::TableFull);
        }
        outcome.activated.push(fm.cookie);
        self.insert_entry(FlowEntry::from_flow_mod(fm, now));
        Ok(outcome)
    }

    /// CHECK_OVERLAP only concerns entries of the same priority, so only the
    /// matching bucket is examined.
    fn overlaps_same_priority(&self, fm: &FlowMod) -> bool {
        self.index.bucket(fm.priority).is_some_and(|bucket| {
            bucket
                .ids()
                .any(|seq| self.entries[&seq].match_.overlaps(&fm.match_))
        })
    }

    fn apply_modify(
        &mut self,
        fm: &FlowMod,
        now: Duration,
        strict: bool,
    ) -> Result<FlowModOutcome, FlowTableError> {
        let mut outcome = FlowModOutcome::default();
        let mut any = false;
        if strict {
            if let Some(seq) = self.strict_seq(&fm.match_, fm.priority) {
                let e = self.entries.get_mut(&seq).expect("indexed entry exists");
                e.actions = fm.actions.clone();
                // MODIFY does not reset counters or timeouts, per spec.
                outcome.activated.push(fm.cookie);
                any = true;
            }
        } else {
            for e in self.entries.values_mut() {
                if fm.match_.covers(&e.match_) {
                    e.actions = fm.actions.clone();
                    outcome.activated.push(fm.cookie);
                    any = true;
                }
            }
        }
        if !any {
            // A modify that matches nothing behaves like an ADD.
            return self.apply_add(fm, now);
        }
        Ok(outcome)
    }

    fn apply_delete(&mut self, fm: &FlowMod, strict: bool) -> FlowModOutcome {
        let mut outcome = FlowModOutcome::default();
        let out_port_filter = fm.out_port;
        if strict {
            let Some(seq) = self.strict_seq(&fm.match_, fm.priority) else {
                return outcome;
            };
            let port_ok =
                out_port_filter == of_port::NONE || self.entries[&seq].outputs_to(out_port_filter);
            if port_ok {
                outcome.removed.push(self.remove_seq(seq).cookie);
            }
        } else {
            let doomed: Vec<u64> = self
                .entries
                .iter()
                .filter(|(_, e)| {
                    fm.match_.covers(&e.match_)
                        && (out_port_filter == of_port::NONE || e.outputs_to(out_port_filter))
                })
                .map(|(&seq, _)| seq)
                .collect();
            for seq in doomed {
                outcome.removed.push(self.remove_seq(seq).cookie);
            }
        }
        outcome
    }

    /// Removes entries whose idle or hard timeout expired; returns their
    /// cookies.  An idle timeout fires `idle_timeout` seconds after the last
    /// packet hit ([`FlowTable::account`]); the hard deadline is absolute.
    /// Whichever comes first wins.
    ///
    /// When no installed entry's deadline can have been reached this returns
    /// an (allocation-free) empty vector without scanning the table.
    pub fn expire(&mut self, now: Duration) -> Vec<u64> {
        let mut expired = Vec::new();
        self.expire_into(now, &mut expired);
        expired
    }

    /// Like [`FlowTable::expire`] but reuses a caller-owned buffer, which is
    /// cleared first.  This is the allocation-free form drivers should call
    /// from periodic ticks.
    pub fn expire_into(&mut self, now: Duration, expired: &mut Vec<u64>) {
        expired.clear();
        self.expire_with(now, |e| expired.push(e.cookie));
    }

    /// Like [`FlowTable::expire_into`] but hands each expired entry (not just
    /// its cookie) to `on_expired` — switches use this to build the
    /// `FlowRemoved` notification for entries installed with
    /// `OFPFF_SEND_FLOW_REM`.
    pub fn expire_with<F: FnMut(&FlowEntry)>(&mut self, now: Duration, mut on_expired: F) {
        // Fast path: nothing can have expired yet.
        match self.next_expiry {
            None => return,
            Some(deadline) if now < deadline => return,
            Some(_) => {}
        }
        let mut doomed = Vec::new();
        let mut next: Option<Duration> = None;
        for (&seq, e) in &self.entries {
            let Some(deadline) = e.expiry_deadline() else {
                continue;
            };
            if now >= deadline {
                doomed.push(seq);
            } else {
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            }
        }
        for seq in doomed {
            let entry = self.remove_seq(seq);
            on_expired(&entry);
        }
        self.next_expiry = next;
    }

    /// Lower bound on the earliest instant any installed entry may expire
    /// (`None` = no entry carries a timeout).  Drivers use this to wake up
    /// for expiry instead of polling.
    pub fn next_expiry(&self) -> Option<Duration> {
        self.next_expiry
    }

    // ------------------------------------------------------------------
    // Index maintenance
    // ------------------------------------------------------------------

    fn insert_entry(&mut self, entry: FlowEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(deadline) = entry.expiry_deadline() {
            self.next_expiry = Some(self.next_expiry.map_or(deadline, |n| n.min(deadline)));
        }
        self.index.insert(&entry.match_, entry.priority, seq);
        self.entries.insert(seq, entry);
    }

    fn remove_seq(&mut self, seq: u64) -> FlowEntry {
        let entry = self.entries.remove(&seq).expect("entry exists");
        self.index.remove(&entry.match_, entry.priority, seq);
        // `next_expiry` stays a (possibly stale) lower bound: removals never
        // make it invalid, and the next real expiry scan recomputes it.
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn pair(a: u8, b: u8) -> OfMatch {
        OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, a), Ipv4Addr::new(10, 0, 0, b))
    }

    fn pkt(a: u8, b: u8) -> PacketHeader {
        PacketHeader::ipv4_udp(
            openflow::MacAddr::from_id(1),
            openflow::MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, a),
            Ipv4Addr::new(10, 0, 0, b),
            1,
            2,
        )
    }

    fn add(m: OfMatch, prio: u16, port: PortNo, cookie: u64) -> FlowMod {
        FlowMod::add(m, prio, vec![Action::output(port)]).with_cookie(cookie)
    }

    #[test]
    fn add_and_lookup_by_priority() {
        let mut t = FlowTable::new(0);
        t.apply(&add(OfMatch::wildcard_all(), 1, 9, 100), Duration::ZERO)
            .unwrap();
        t.apply(&add(pair(1, 2), 10, 3, 200), Duration::ZERO)
            .unwrap();
        let hit = t.lookup(&pkt(1, 2), 1).unwrap();
        assert_eq!(hit.cookie, 200);
        let miss_to_default = t.lookup(&pkt(3, 4), 1).unwrap();
        assert_eq!(miss_to_default.cookie, 100);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup_count, 2);
        assert_eq!(t.matched_count, 2);
    }

    #[test]
    fn lookup_miss_returns_none() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 10, 3, 1), Duration::ZERO).unwrap();
        assert!(t.lookup(&pkt(9, 9), 1).is_none());
        assert_eq!(t.matched_count, 0);
    }

    #[test]
    fn tie_break_by_installation_order() {
        let mut t = FlowTable::new(0);
        // Two rules with the same priority both matching the packet; the
        // first installed must win (installation order defines importance).
        t.apply(&add(pair(1, 2), 5, 1, 111), Duration::ZERO)
            .unwrap();
        t.apply(
            &add(OfMatch::wildcard_all().with_tp_dst(2), 5, 2, 222),
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(t.lookup(&pkt(1, 2), 1).unwrap().cookie, 111);
    }

    #[test]
    fn exact_and_wildcard_tie_break_in_both_orders() {
        // A fully-exact rule and a wildcard rule of the same priority both
        // match; whichever was installed first must win, regardless of which
        // index (hash probe vs. scan) finds it.
        let header = pkt(1, 2);
        let exact = OfMatch::exact_from_packet(&header, 1);
        let wild = OfMatch::wildcard_all().with_tp_dst(2);

        let mut t = FlowTable::new(0);
        t.apply(&add(exact, 5, 1, 10), Duration::ZERO).unwrap();
        t.apply(&add(wild, 5, 2, 20), Duration::ZERO).unwrap();
        assert_eq!(t.lookup(&header, 1).unwrap().cookie, 10);

        let mut t = FlowTable::new(0);
        t.apply(&add(wild, 5, 2, 20), Duration::ZERO).unwrap();
        t.apply(&add(exact, 5, 1, 10), Duration::ZERO).unwrap();
        assert_eq!(t.lookup(&header, 1).unwrap().cookie, 20);
    }

    #[test]
    fn exact_lookup_ignores_ecn_bits_and_untagged_pcp() {
        // The exact index canonicalises the ToS ECN bits away, mirroring
        // the masked comparison `matches` performs.
        let mut header = pkt(1, 2);
        header.nw_tos = 0xb8;
        let rule = OfMatch::exact_from_packet(&header, 1);
        let mut t = FlowTable::new(0);
        t.apply(&add(rule, 5, 1, 7), Duration::ZERO).unwrap();
        let mut probe = header;
        probe.nw_tos = 0xbb; // same DSCP, different ECN
        assert_eq!(t.lookup(&probe, 1).unwrap().cookie, 7);
        probe.nw_tos = 0x00;
        assert!(t.lookup(&probe, 1).is_none());
    }

    #[test]
    fn add_identical_match_replaces() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        let outcome = t
            .apply(&add(pair(1, 2), 5, 2, 2), Duration::from_millis(1))
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(outcome.activated, vec![2]);
        assert_eq!(outcome.removed, vec![1]);
        assert_eq!(t.lookup(&pkt(1, 2), 1).unwrap().cookie, 2);
    }

    #[test]
    fn check_overlap_rejects_same_priority_overlap() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        let overlapping = FlowMod::add(
            OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 24),
            5,
            vec![Action::output(4)],
        )
        .with_check_overlap();
        assert_eq!(
            t.apply(&overlapping, Duration::ZERO),
            Err(FlowTableError::Overlap)
        );
        // Different priority is fine even with CHECK_OVERLAP.
        let different_prio = FlowMod::add(
            OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 24),
            6,
            vec![Action::output(4)],
        )
        .with_check_overlap();
        assert!(t.apply(&different_prio, Duration::ZERO).is_ok());
    }

    #[test]
    fn table_full_error() {
        let mut t = FlowTable::new(2);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.apply(&add(pair(1, 3), 5, 1, 2), Duration::ZERO).unwrap();
        assert_eq!(
            t.apply(&add(pair(1, 4), 5, 1, 3), Duration::ZERO),
            Err(FlowTableError::TableFull)
        );
        assert_eq!(FlowTableError::TableFull.error_code(), 0);
        assert_eq!(FlowTableError::Overlap.error_code(), 1);
    }

    #[test]
    fn strict_modify_changes_only_exact_entry() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.apply(&add(pair(1, 3), 5, 1, 2), Duration::ZERO).unwrap();
        let m = FlowMod::modify_strict(pair(1, 2), 5, vec![Action::output(7)]).with_cookie(99);
        let outcome = t.apply(&m, Duration::ZERO).unwrap();
        assert_eq!(outcome.activated, vec![99]);
        assert_eq!(
            t.lookup(&pkt(1, 2), 1).unwrap().actions,
            vec![Action::output(7)]
        );
        assert_eq!(
            t.lookup(&pkt(1, 3), 1).unwrap().actions,
            vec![Action::output(1)]
        );
    }

    #[test]
    fn loose_modify_uses_covers_semantics() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.apply(&add(pair(3, 4), 5, 1, 2), Duration::ZERO).unwrap();
        // A fully wildcarded modify covers every entry.
        let m = FlowMod {
            command: FlowModCommand::Modify,
            ..FlowMod::add(OfMatch::wildcard_all(), 0, vec![Action::output(9)])
        }
        .with_cookie(50);
        let outcome = t.apply(&m, Duration::ZERO).unwrap();
        assert_eq!(outcome.activated.len(), 2);
        assert!(t.entries().all(|e| e.actions == vec![Action::output(9)]));
    }

    #[test]
    fn modify_with_no_match_behaves_like_add() {
        let mut t = FlowTable::new(0);
        let m = FlowMod::modify_strict(pair(8, 9), 5, vec![Action::output(2)]).with_cookie(7);
        let outcome = t.apply(&m, Duration::ZERO).unwrap();
        assert_eq!(outcome.activated, vec![7]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn strict_delete_removes_exact_entry_only() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.apply(&add(pair(1, 2), 6, 1, 2), Duration::ZERO).unwrap();
        let outcome = t
            .apply(&FlowMod::delete_strict(pair(1, 2), 5), Duration::ZERO)
            .unwrap();
        assert_eq!(outcome.removed, vec![1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn loose_delete_removes_covered_entries() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.apply(&add(pair(1, 3), 7, 1, 2), Duration::ZERO).unwrap();
        t.apply(&add(pair(2, 3), 7, 1, 3), Duration::ZERO).unwrap();
        let del = FlowMod::delete(
            OfMatch::wildcard_all().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 1), 32),
        );
        let outcome = t.apply(&del, Duration::ZERO).unwrap();
        assert_eq!(outcome.removed, vec![1, 2]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_with_out_port_filter() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.apply(&add(pair(1, 3), 5, 2, 2), Duration::ZERO).unwrap();
        let mut del = FlowMod::delete(OfMatch::wildcard_all());
        del.out_port = 2;
        let outcome = t.apply(&del, Duration::ZERO).unwrap();
        assert_eq!(outcome.removed, vec![2]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn strict_delete_respects_out_port_filter() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        let mut del = FlowMod::delete_strict(pair(1, 2), 5);
        del.out_port = 9; // entry outputs to port 1, not 9
        let outcome = t.apply(&del, Duration::ZERO).unwrap();
        assert!(outcome.removed.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn counters_account_packets() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        t.account(&pair(1, 2), 5, 100, Duration::from_secs(1));
        t.account(&pair(1, 2), 5, 50, Duration::from_secs(2));
        let e = t.find_strict(&pair(1, 2), 5).unwrap();
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 150);
    }

    #[test]
    fn hard_timeout_expiry() {
        let mut t = FlowTable::new(0);
        let fm = add(pair(1, 2), 5, 1, 1).with_hard_timeout(1);
        t.apply(&fm, Duration::from_secs(10)).unwrap();
        assert!(t.expire(Duration::from_secs(10)).is_empty());
        let expired = t.expire(Duration::from_secs(11));
        assert_eq!(expired, vec![1]);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_fires_from_last_hit_not_install() {
        let mut t = FlowTable::new(0);
        let fm = add(pair(1, 2), 5, 1, 1).with_idle_timeout(2);
        t.apply(&fm, Duration::ZERO).unwrap();
        assert_eq!(t.next_expiry(), Some(Duration::from_secs(2)));
        // A hit at t = 1.5 s pushes the idle deadline to 3.5 s.
        t.account(&pair(1, 2), 5, 64, Duration::from_millis(1500));
        assert!(t.expire(Duration::from_secs(2)).is_empty());
        assert!(t.expire(Duration::from_millis(3499)).is_empty());
        assert_eq!(t.expire(Duration::from_millis(3500)), vec![1]);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_vs_hard_precedence_is_earliest_deadline() {
        // Idle (2 s, never hit) beats hard (10 s).
        let mut t = FlowTable::new(0);
        t.apply(
            &add(pair(1, 2), 5, 1, 1)
                .with_idle_timeout(2)
                .with_hard_timeout(10),
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(t.next_expiry(), Some(Duration::from_secs(2)));
        assert_eq!(t.expire(Duration::from_secs(2)), vec![1]);

        // Hard (3 s) beats idle (5 s) even when hits keep the rule warm.
        let mut t = FlowTable::new(0);
        t.apply(
            &add(pair(1, 2), 5, 1, 2)
                .with_idle_timeout(5)
                .with_hard_timeout(3),
            Duration::ZERO,
        )
        .unwrap();
        t.account(&pair(1, 2), 5, 64, Duration::from_millis(2900));
        assert!(t.expire(Duration::from_millis(2999)).is_empty());
        assert_eq!(t.expire(Duration::from_secs(3)), vec![2]);
    }

    #[test]
    fn expire_fast_path_skips_scan_and_reuses_buffer() {
        let mut t = FlowTable::new(0);
        // No timed entry: the bound is None and expiry is a no-op.
        t.apply(&add(pair(1, 2), 5, 1, 1), Duration::ZERO).unwrap();
        assert_eq!(t.next_expiry, None);
        let mut scratch = vec![99u64]; // stale content must be cleared
        t.expire_into(Duration::from_secs(100), &mut scratch);
        assert!(scratch.is_empty());

        // A timed entry arms the bound; before it, expiry returns early.
        t.apply(
            &add(pair(1, 3), 5, 1, 2).with_hard_timeout(5),
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(t.next_expiry, Some(Duration::from_secs(5)));
        t.expire_into(Duration::from_secs(4), &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(t.len(), 2);

        // Past the bound the entry goes and the bound clears.
        t.expire_into(Duration::from_secs(5), &mut scratch);
        assert_eq!(scratch, vec![2]);
        assert_eq!(t.next_expiry, None);

        // The buffer is reused, not reallocated, on the next call.
        let ptr = scratch.as_ptr();
        t.expire_into(Duration::from_secs(6), &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(scratch.as_ptr(), ptr);
    }

    #[test]
    fn expire_recomputes_bound_from_surviving_entries() {
        let mut t = FlowTable::new(0);
        t.apply(
            &add(pair(1, 2), 5, 1, 1).with_hard_timeout(1),
            Duration::ZERO,
        )
        .unwrap();
        t.apply(
            &add(pair(1, 3), 5, 1, 2).with_hard_timeout(10),
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(t.expire(Duration::from_secs(2)), vec![1]);
        assert_eq!(t.next_expiry, Some(Duration::from_secs(10)));
        assert_eq!(t.expire(Duration::from_secs(10)), vec![2]);
        assert!(t.is_empty());
    }

    #[test]
    fn peek_lookup_matches_lookup_without_counting() {
        let mut t = FlowTable::new(0);
        t.apply(&add(pair(1, 2), 5, 1, 42), Duration::ZERO).unwrap();
        assert_eq!(t.peek_lookup(&pkt(1, 2), 1).unwrap().cookie, 42);
        assert_eq!(t.lookup_count, 0);
    }
}
