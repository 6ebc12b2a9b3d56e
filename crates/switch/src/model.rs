//! Switch behaviour models.
//!
//! The model captures the timing characteristics the paper (and its
//! companion technical report \[7\]) measured on real hardware:
//!
//! * the control plane accepts flow modifications serially, at a rate that
//!   *decreases as the flow table fills* (roughly 250 mods/s when nearly
//!   empty, closer to 200 mods/s at 300 installed rules);
//! * the data plane (TCAM) is synchronised from the control plane
//!   *periodically*, so a rule accepted by the control plane becomes visible
//!   to traffic only at the next synchronisation point — typically 100 to
//!   300 ms later (the "three visible steps" of Figure 6 and the up-to-290 ms
//!   early barrier replies of Figure 1b);
//! * barrier replies may be sent as soon as the control plane has processed
//!   preceding messages (the buggy behaviour), only after the data plane has
//!   caught up (the faithful behaviour), or the switch may even reorder rule
//!   modifications across barriers;
//! * PacketIn and PacketOut processing is rate-limited (≈5 531/s and
//!   ≈7 006/s respectively) and steals a small amount of control-plane time
//!   from rule processing (≤13 % at a 5:1 PacketOut-to-FlowMod ratio).
//!
//! Time is plain [`std::time::Duration`]: the model is driver-agnostic and is
//! consumed both by the discrete-event simulator (`simnet` converts its
//! `SimTime` at the boundary) and by the real-socket switch host in
//! `rum-tcp`, which measures wall-clock time against its own epoch.

use std::time::Duration;

/// How the switch answers `BarrierRequest`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMode {
    /// The specification-compliant behaviour: the reply is sent only after
    /// every preceding modification is active in the data plane.
    Faithful,
    /// The buggy-but-common behaviour: the reply is sent as soon as the
    /// control plane has processed preceding messages, even though the data
    /// plane may lag by hundreds of milliseconds.  Ordering across barriers
    /// is still respected.
    EarlyReply,
    /// The worst case: replies are early *and* the data plane may apply
    /// modifications in a different order than they were issued, even across
    /// barriers.
    EarlyReplyReordering,
}

impl BarrierMode {
    /// True if the mode honours ordering across barriers.
    pub fn preserves_order(&self) -> bool {
        !matches!(self, BarrierMode::EarlyReplyReordering)
    }

    /// True if barrier replies may precede data-plane visibility.
    pub fn replies_early(&self) -> bool {
        !matches!(self, BarrierMode::Faithful)
    }
}

/// The timing/behaviour model of an emulated switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchModel {
    /// Barrier behaviour.
    pub barrier_mode: BarrierMode,
    /// Control-plane processing time per flow modification when the table is
    /// empty.
    pub base_mod_time: Duration,
    /// Additional processing time per already-installed rule (models the
    /// occupancy-dependent slowdown).
    pub per_rule_slowdown: Duration,
    /// Interval between data-plane synchronisation points.  Each point
    /// pushes every modification the control plane has digested by then;
    /// there is no per-synchronisation cap.
    pub dataplane_sync_period: Duration,
    /// Extra latency between a synchronisation point and the rules actually
    /// forwarding traffic (TCAM write + pipeline flush).
    pub dataplane_sync_latency: Duration,
    /// Control-plane processing time per `PacketOut`.
    pub packet_out_time: Duration,
    /// Control-plane processing time per generated `PacketIn`.
    pub packet_in_time: Duration,
    /// Minimum spacing between consecutive `PacketOut` executions
    /// (reciprocal of the maximum PacketOut rate).
    pub packet_out_interval: Duration,
    /// Minimum spacing between consecutive `PacketIn` emissions
    /// (reciprocal of the maximum PacketIn rate).
    pub packet_in_interval: Duration,
    /// One-way latency of the control channel between this switch and
    /// whatever terminates its OpenFlow connection (controller or proxy).
    pub control_latency: Duration,
    /// Flow-table capacity (0 = unbounded).
    pub table_capacity: usize,
}

impl SwitchModel {
    /// A specification-compliant switch: barriers are honest and the data
    /// plane is synchronised almost immediately.  This is the model used for
    /// the two software switches (S1, S3) in the paper's triangle testbed.
    pub fn faithful() -> Self {
        SwitchModel {
            barrier_mode: BarrierMode::Faithful,
            base_mod_time: Duration::from_micros(300),
            per_rule_slowdown: Duration::ZERO,
            dataplane_sync_period: Duration::from_micros(500),
            dataplane_sync_latency: Duration::from_micros(100),
            packet_out_time: Duration::from_micros(20),
            packet_in_time: Duration::from_micros(20),
            packet_out_interval: Duration::from_micros(30),
            packet_in_interval: Duration::from_micros(30),
            control_latency: Duration::from_micros(200),
            table_capacity: 0,
        }
    }

    /// The paper's hardware switch (HP 5406zl): early barrier replies, a
    /// ~250→200 mods/s occupancy-dependent modification rate, and a data
    /// plane that synchronises in coarse periodic steps so rules become
    /// visible 100–300 ms after the control plane accepted them.
    pub fn hp5406zl() -> Self {
        SwitchModel {
            barrier_mode: BarrierMode::EarlyReply,
            // 4 ms per modification at an empty table = 250 mods/s.
            base_mod_time: Duration::from_millis(4),
            // +1 ms at 300 rules -> 5 ms per mod = 200 mods/s, matching the
            // "adaptive 200 vs adaptive 250" behaviour of Figure 6.
            per_rule_slowdown: Duration::from_nanos(3_333),
            // Periodic data-plane sync: the source of the "steps" in Figure 6
            // and the 100–300 ms control/data-plane gap.
            dataplane_sync_period: Duration::from_millis(200),
            dataplane_sync_latency: Duration::from_millis(90),
            // 1/7006 s and 1/5531 s.
            packet_out_time: Duration::from_micros(100),
            packet_in_time: Duration::from_micros(30),
            packet_out_interval: Duration::from_nanos(142_735),
            packet_in_interval: Duration::from_nanos(180_800),
            control_latency: Duration::from_micros(500),
            table_capacity: 1500,
        }
    }

    /// A switch that reorders rule modifications across barriers in addition
    /// to replying early — the adversary the general-probing technique is
    /// designed for.
    pub fn reordering() -> Self {
        SwitchModel {
            barrier_mode: BarrierMode::EarlyReplyReordering,
            ..SwitchModel::hp5406zl()
        }
    }

    /// An HP-shaped model with every timing scaled down roughly 5x, so
    /// real-socket experiments (which run in wall-clock time) keep the same
    /// qualitative control/data-plane gap without taking minutes.  The gap
    /// (~50 ms) still dwarfs loopback socket latency by orders of magnitude.
    pub fn fast_buggy() -> Self {
        SwitchModel {
            barrier_mode: BarrierMode::EarlyReply,
            base_mod_time: Duration::from_micros(800),
            per_rule_slowdown: Duration::ZERO,
            dataplane_sync_period: Duration::from_millis(40),
            dataplane_sync_latency: Duration::from_millis(12),
            packet_out_time: Duration::from_micros(20),
            packet_in_time: Duration::from_micros(10),
            packet_out_interval: Duration::from_micros(30),
            packet_in_interval: Duration::from_micros(40),
            control_latency: Duration::from_micros(100),
            table_capacity: 1500,
        }
    }

    /// Control-plane processing time for one flow modification when
    /// `occupancy` rules are already installed.
    pub fn mod_processing_time(&self, occupancy: usize) -> Duration {
        self.base_mod_time + self.per_rule_slowdown * occupancy.min(u32::MAX as usize) as u32
    }

    /// The effective modification rate (mods/s) at a given occupancy.
    pub fn mod_rate(&self, occupancy: usize) -> f64 {
        1.0 / self.mod_processing_time(occupancy).as_secs_f64()
    }

    /// The maximum PacketOut rate implied by the model (messages/s).
    pub fn packet_out_rate(&self) -> f64 {
        1.0 / self.packet_out_interval.as_secs_f64()
    }

    /// The maximum PacketIn rate implied by the model (messages/s).
    pub fn packet_in_rate(&self) -> f64 {
        1.0 / self.packet_in_interval.as_secs_f64()
    }

    /// The worst-case lag between control-plane acceptance of a modification
    /// and its data-plane visibility (one full sync period plus the sync
    /// latency).  This is the bound the "delayed barrier acknowledgment"
    /// technique has to assume.
    pub fn worst_case_dataplane_lag(&self) -> Duration {
        self.dataplane_sync_period + self.dataplane_sync_latency
    }
}

impl Default for SwitchModel {
    fn default() -> Self {
        SwitchModel::faithful()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_mode_predicates() {
        assert!(!BarrierMode::Faithful.replies_early());
        assert!(BarrierMode::Faithful.preserves_order());
        assert!(BarrierMode::EarlyReply.replies_early());
        assert!(BarrierMode::EarlyReply.preserves_order());
        assert!(BarrierMode::EarlyReplyReordering.replies_early());
        assert!(!BarrierMode::EarlyReplyReordering.preserves_order());
    }

    #[test]
    fn hp_model_matches_published_rates() {
        let m = SwitchModel::hp5406zl();
        // ~250 mods/s on an empty table.
        assert!((m.mod_rate(0) - 250.0).abs() < 1.0);
        // ~200 mods/s once 300 rules are installed.
        let rate_at_300 = m.mod_rate(300);
        assert!(
            (195.0..=205.0).contains(&rate_at_300),
            "rate at 300 rules was {rate_at_300}"
        );
        // PacketOut/PacketIn ceilings close to the measured 7006/s and 5531/s.
        assert!((m.packet_out_rate() - 7006.0).abs() < 10.0);
        assert!((m.packet_in_rate() - 5531.0).abs() < 10.0);
        // Worst-case data-plane lag is in the observed 100–300 ms band.
        let lag = m.worst_case_dataplane_lag();
        assert!(lag >= Duration::from_millis(100) && lag <= Duration::from_millis(300));
    }

    #[test]
    fn faithful_model_is_fast_and_honest() {
        let m = SwitchModel::faithful();
        assert_eq!(m.barrier_mode, BarrierMode::Faithful);
        assert!(m.worst_case_dataplane_lag() < Duration::from_millis(1));
        assert!(m.mod_rate(0) > 1000.0);
        assert_eq!(SwitchModel::default(), m);
    }

    #[test]
    fn reordering_model_only_changes_barrier_mode() {
        let r = SwitchModel::reordering();
        let hp = SwitchModel::hp5406zl();
        assert_eq!(r.barrier_mode, BarrierMode::EarlyReplyReordering);
        assert_eq!(r.base_mod_time, hp.base_mod_time);
    }

    #[test]
    fn mod_time_grows_with_occupancy() {
        let m = SwitchModel::hp5406zl();
        assert!(m.mod_processing_time(1000) > m.mod_processing_time(0));
        assert_eq!(m.mod_processing_time(0), Duration::from_millis(4));
    }

    #[test]
    fn fast_buggy_keeps_the_qualitative_gap() {
        let m = SwitchModel::fast_buggy();
        assert!(m.barrier_mode.replies_early());
        // The control/data-plane gap must still dwarf loopback latency.
        assert!(m.worst_case_dataplane_lag() >= Duration::from_millis(20));
        assert!(m.worst_case_dataplane_lag() < SwitchModel::hp5406zl().worst_case_dataplane_lag());
    }
}
