//! Experiment runners: one function per paper figure/table.

use controller::scenarios::{BulkUpdateScenario, TriangleScenario};
use controller::{AckMode, Controller};
use ofswitch::SwitchModel;
use openflow::messages::{FlowMod, PacketOut};
use openflow::{Action, DatapathId, OfMatch, OfMessage};
use rum::{deploy, RumBuilder, TechniqueConfig};
use simnet::OpenFlowSwitch;
use simnet::{Context, EventPayload, FlowId, Node, NodeId, SimTime, Simulator};
use std::any::Any;
use std::net::Ipv4Addr;

/// When the controller starts pushing the update in end-to-end experiments.
pub const UPDATE_START: SimTime = SimTime::from_millis(500);

/// Per-flow packet rate of the end-to-end experiments: the paper's.
pub const PACKETS_PER_SEC: u64 = 250;

/// Nothing in these experiments draws from the simulator's RNG, so every run
/// seeds it with this one value.
const SEED: u64 = 0;

/// How far every bulk-update run is simulated: §5.1's horizon, the longest
/// any of them had.  Simulating past an update's completion changes nothing
/// the runners read.
const BULK_HORIZON: SimTime = SimTime::from_secs(180);

/// The acknowledgment strategies compared in the end-to-end experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EndToEndTechnique {
    /// Issue every modification immediately (no consistency, lower bound).
    NoWait,
    /// Trust the switch's barrier replies (baseline, unreliable).
    Barriers,
    /// Wait a fixed delay after each barrier reply.
    Timeout(SimTime),
    /// Predict activation from an assumed modification rate (rules/s).
    Adaptive(f64),
    /// Sequential probing (versioned probe rule per batch).
    Sequential,
    /// General probing (per-rule probe packets).
    General,
}

impl EndToEndTechnique {
    /// A short label used in reports (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            EndToEndTechnique::NoWait => "no wait".into(),
            EndToEndTechnique::Barriers => "barriers (baseline)".into(),
            EndToEndTechnique::Timeout(d) => format!("timeout {}ms", d.as_millis()),
            EndToEndTechnique::Adaptive(rate) => format!("adaptive {rate:.0}"),
            EndToEndTechnique::Sequential => "sequential".into(),
            EndToEndTechnique::General => "general".into(),
        }
    }

    /// The controller's acknowledgment mode and, unless it waits for
    /// nothing, RUM running the technique in front of the experiment's three
    /// switches.
    fn control(&self) -> (AckMode, Option<RumBuilder>) {
        let technique = match self {
            EndToEndTechnique::NoWait => return (AckMode::NoWait, None),
            EndToEndTechnique::Barriers => TechniqueConfig::BarrierBaseline,
            EndToEndTechnique::Timeout(d) => TechniqueConfig::StaticTimeout { delay: (*d).into() },
            EndToEndTechnique::Adaptive(rate) => TechniqueConfig::AdaptiveDelay {
                assumed_rate: *rate,
                assumed_sync_lag: SwitchModel::hp5406zl().worst_case_dataplane_lag(),
            },
            EndToEndTechnique::Sequential => TechniqueConfig::default_sequential(),
            EndToEndTechnique::General => TechniqueConfig::default_general(),
        };
        let rum = RumBuilder::new(3).technique(technique);
        (AckMode::RumAcks, Some(rum))
    }

    /// The full set of techniques plotted across Figures 6 (the first four)
    /// and 7 (the last three); Figure 8 plots all but no-wait.
    pub fn all() -> Vec<EndToEndTechnique> {
        vec![
            EndToEndTechnique::Barriers,
            EndToEndTechnique::Timeout(SimTime::from_millis(300)),
            EndToEndTechnique::Adaptive(200.0),
            EndToEndTechnique::Adaptive(250.0),
            EndToEndTechnique::Sequential,
            EndToEndTechnique::General,
            EndToEndTechnique::NoWait,
        ]
    }
}

/// One row per flow in an end-to-end experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRow {
    /// Flow index.
    pub flow: u64,
    /// Time (ms, relative to the update start) when the last packet over the
    /// old path arrived.
    pub last_old_ms: f64,
    /// Time (ms, relative to the update start) when the first packet over the
    /// new path arrived — the "flow update time" of Figures 6/7.
    pub update_time_ms: f64,
    /// How long the flow was broken (ms) — Figure 1b.
    pub broken_ms: f64,
}

/// Result of an end-to-end (triangle path migration) run.
#[derive(Debug, Clone)]
pub struct EndToEndResult {
    /// Technique label.
    pub technique: String,
    /// Per-flow rows, sorted by update time.
    pub flows: Vec<FlowRow>,
    /// Total packets dropped anywhere in the network.
    pub total_drops: usize,
    /// Number of flows whose path actually changed.
    pub migrated_flows: usize,
    /// Modifications the controller's session confirmed.
    pub confirmed_mods: usize,
    /// When the controller considered the update complete (ms after start).
    pub controller_completion_ms: Option<f64>,
    /// Mean flow update time (ms after the update started).
    pub mean_update_ms: f64,
}

impl EndToEndResult {
    /// Fraction of flows broken for longer than `threshold_ms` (the CDF of
    /// Figure 1b read at a given x).
    pub fn fraction_broken_longer_than(&self, threshold_ms: f64) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        let n = self
            .flows
            .iter()
            .filter(|f| f.broken_ms > threshold_ms)
            .count();
        n as f64 / self.flows.len() as f64
    }

    /// The largest per-flow broken time (ms).
    pub fn max_broken_ms(&self) -> f64 {
        self.flows.iter().map(|f| f.broken_ms).fold(0.0, f64::max)
    }
}

/// Wires a controller + (optionally) RUM into an already-built scenario and
/// returns the controller node.  Without RUM the controller talks straight
/// to the switches.
fn wire_control_plane(
    sim: &mut Simulator,
    plan: controller::UpdatePlan,
    switches: &[NodeId],
    plan_targets: &[usize],
    rum: Option<RumBuilder>,
    ack_mode: AckMode,
    window: usize,
) -> NodeId {
    let controller = Controller::new("ctrl", plan, ack_mode, window, UPDATE_START);
    let ctrl = sim.add_node(controller);
    let proxies = rum.map(|builder| deploy(sim, builder, ctrl, switches).0);
    let peers = proxies.as_deref().unwrap_or(switches);
    let connections = plan_targets.iter().map(|&t| peers[t]).collect();
    sim.node_mut::<Controller>(ctrl)
        .unwrap()
        .set_connections(connections);
    for (i, &sw) in switches.iter().enumerate() {
        let upstream = proxies.as_ref().map_or(ctrl, |p| p[i]);
        sim.node_mut::<OpenFlowSwitch>(sw)
            .unwrap()
            .connect_controller(upstream);
    }
    ctrl
}

/// Runs the triangle path-migration experiment (Figures 1b, 6 and 7).
pub fn run_end_to_end(technique: EndToEndTechnique, n_flows: u32) -> EndToEndResult {
    let mut sim = Simulator::new(SEED);
    let traffic_stop = SimTime::from_secs(6);
    let scenario = TriangleScenario {
        n_flows,
        packets_per_sec: PACKETS_PER_SEC,
        traffic_stop,
        ..Default::default()
    };
    let net = scenario.build(&mut sim);
    let (ack_mode, rum) = technique.control();
    let ctrl_id = wire_control_plane(
        &mut sim,
        net.plan.clone(),
        &[net.s1, net.s2, net.s3],
        &[0, 1, 2],
        rum,
        ack_mode,
        usize::MAX >> 1,
    );
    sim.run_until(traffic_stop + SimTime::from_secs(1));

    let start_ms = UPDATE_START.as_millis_f64();
    let summaries = sim.trace().flow_update_summaries();
    let mut flows: Vec<FlowRow> = summaries
        .values()
        .map(|s| {
            let last_old = s
                .last_old_path
                .map(|t| t.as_millis_f64() - start_ms)
                .unwrap_or(0.0);
            let update = s
                .first_new_path
                .map(|t| t.as_millis_f64() - start_ms)
                .unwrap_or(f64::NAN);
            FlowRow {
                flow: s.flow.raw(),
                last_old_ms: last_old,
                update_time_ms: update,
                broken_ms: s.broken_time().as_millis_f64(),
            }
        })
        .collect();
    flows.sort_by(|a, b| a.update_time_ms.partial_cmp(&b.update_time_ms).unwrap());
    let migrated = summaries.values().filter(|s| s.path_changed).count();
    let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
    let confirmed_mods = ctrl.confirmed_count();
    let controller_completion_ms = ctrl.completed_at().map(|t| t.as_millis_f64() - start_ms);
    let mean_update_ms = if flows.is_empty() {
        0.0
    } else {
        flows.iter().map(|f| f.update_time_ms).sum::<f64>() / flows.len() as f64
    };
    EndToEndResult {
        technique: technique.label(),
        flows,
        total_drops: sim.trace().dropped_packets(None),
        migrated_flows: migrated,
        confirmed_mods,
        controller_completion_ms,
        mean_update_ms,
    }
}

/// One activation-delay sample (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationSample {
    /// The rule's cookie.
    pub cookie: u64,
    /// Control-plane confirmation minus data-plane activation, in ms
    /// (negative = the acknowledgment lied).
    pub delay_ms: f64,
}

/// Stands up the single-switch bulk-update chain (Section 5.2) — `n_rules`
/// installs at the device under test, no traffic — behind a controller in
/// `ack_mode` and, when given, RUM; runs it to [`BULK_HORIZON`] and returns
/// the simulator and the controller's node.
fn run_bulk(
    model: SwitchModel,
    rum: Option<RumBuilder>,
    ack_mode: AckMode,
    window: usize,
    n_rules: usize,
) -> (Simulator, NodeId) {
    let mut sim = Simulator::new(SEED);
    let scenario = BulkUpdateScenario {
        n_rules,
        packets_per_sec: 0,
        model,
        ..Default::default()
    };
    let net = scenario.build(&mut sim);
    let ctrl = wire_control_plane(
        &mut sim,
        net.plan.clone(),
        &[net.sw_a, net.sw_b, net.sw_c],
        &[1],
        rum,
        ack_mode,
        window,
    );
    sim.run_until(BULK_HORIZON);
    (sim, ctrl)
}

/// How long after [`UPDATE_START`] a [`run_bulk`] update completed; panics
/// if it did not.
fn bulk_completion(sim: &Simulator, ctrl: NodeId, n_rules: usize) -> SimTime {
    let ctrl = sim.node_ref::<Controller>(ctrl).unwrap();
    let completed = ctrl.completed_at().unwrap_or_else(|| {
        panic!(
            "update did not finish: {}/{}",
            ctrl.confirmed_count(),
            n_rules
        )
    });
    completed - UPDATE_START
}

/// Runs the single-switch bulk-update experiment and returns the per-rule
/// delay between data-plane and control-plane activation (Figure 8).
pub fn run_activation_delay(
    technique: EndToEndTechnique,
    n_rules: usize,
    window: usize,
) -> Vec<ActivationSample> {
    let (ack_mode, rum) = technique.control();
    let (sim, _) = run_bulk(SwitchModel::hp5406zl(), rum, ack_mode, window, n_rules);
    let first_cookie = BulkUpdateScenario::rule_cookie(0);
    let last_cookie = BulkUpdateScenario::rule_cookie(n_rules);
    sim.trace()
        .activation_delays()
        .into_iter()
        .filter(|d| d.cookie >= first_cookie && d.cookie < last_cookie)
        .map(|d| ActivationSample {
            cookie: d.cookie,
            delay_ms: d.delay_millis(),
        })
        .collect()
}

/// Result of a Table-1 cell: the usable (real) modification rate achieved
/// with sequential probing, and the barrier-baseline rate it is normalised to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRateResult {
    /// Real modifications per second achieved with probing.
    pub probing_rate: f64,
    /// Modifications per second achieved by the barrier baseline.
    pub baseline_rate: f64,
}

impl UpdateRateResult {
    /// The normalised usable rate reported in Table 1.
    pub fn normalized(&self) -> f64 {
        if self.baseline_rate <= 0.0 {
            0.0
        } else {
            self.probing_rate / self.baseline_rate
        }
    }
}

/// Runs one cell of Table 1: sequential probing with a probe-rule update
/// every `probe_every` real modifications and at most `window` unconfirmed
/// modifications, normalised to the barrier baseline at the same window.
pub fn run_update_rate(probe_every: usize, window: usize, n_rules: usize) -> UpdateRateResult {
    let rate = |technique| {
        let rum = RumBuilder::new(3).technique(technique);
        let model = SwitchModel::hp5406zl();
        let (sim, ctrl) = run_bulk(model, Some(rum), AckMode::RumAcks, window, n_rules);
        n_rules as f64 / bulk_completion(&sim, ctrl, n_rules).as_secs_f64()
    };
    UpdateRateResult {
        probing_rate: rate(TechniqueConfig::SequentialProbing {
            batch_size: probe_every,
            probe_interval: std::time::Duration::from_millis(10),
        }),
        baseline_rate: rate(TechniqueConfig::BarrierBaseline),
    }
}

/// Result of the §5.1 barrier-layer overhead experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierLayerResult {
    /// Total update time (ms) with the reliable barrier layer.
    pub with_barrier_layer_ms: f64,
    /// Total update time (ms) with fine-grained acks only (no barriers).
    pub probing_only_ms: f64,
}

impl BarrierLayerResult {
    /// Overhead factor of the barrier layer relative to plain probing.
    pub fn overhead_factor(&self) -> f64 {
        self.with_barrier_layer_ms / self.probing_only_ms
    }
}

/// Runs the §5.1 barrier-layer experiment: the controller relies on barriers
/// (one every `barrier_every` modifications); RUM holds barrier replies until
/// every covered modification is confirmed and — when the switch reorders —
/// buffers subsequent commands.
pub fn run_barrier_layer(
    barrier_every: usize,
    reordering_switch: bool,
    n_rules: usize,
) -> BarrierLayerResult {
    let (model, technique) = if reordering_switch {
        (
            SwitchModel::reordering(),
            TechniqueConfig::default_general(),
        )
    } else {
        (
            SwitchModel::hp5406zl(),
            TechniqueConfig::default_sequential(),
        )
    };
    let run = |ack_mode, buffering, fine_acks| {
        let rum = RumBuilder::new(3)
            .technique(technique.clone())
            .buffer_across_barriers(buffering)
            .fine_grained_acks(fine_acks);
        let window = n_rules.max(1);
        let (sim, ctrl) = run_bulk(model.clone(), Some(rum), ack_mode, window, n_rules);
        bulk_completion(&sim, ctrl, n_rules).as_millis_f64()
    };
    let barriers = AckMode::Barriers {
        batch: barrier_every,
    };
    BarrierLayerResult {
        with_barrier_layer_ms: run(barriers, reordering_switch, false),
        probing_only_ms: run(AckMode::RumAcks, false, true),
    }
}

// ---------------------------------------------------------------------
// §5.2 PacketIn / PacketOut microbenchmarks
// ---------------------------------------------------------------------

/// Results of the PacketIn/PacketOut microbenchmarks (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PktIoResult {
    /// Sustained PacketOut rate (messages/s).
    pub packet_out_per_sec: f64,
    /// Sustained PacketIn rate (messages/s).
    pub packet_in_per_sec: f64,
    /// Rule modification rate with no other load (rules/s).
    pub mod_rate_alone: f64,
    /// Modification rate while PacketIns are processed, as a fraction of the
    /// unloaded rate.
    pub mod_rate_with_packet_ins: f64,
    /// Modification rate while PacketOuts are processed at a 5:1 ratio, as a
    /// fraction of the unloaded rate.
    pub mod_rate_with_packet_outs: f64,
}

/// A minimal controller used by the microbenchmarks: sends a scripted list of
/// messages at given times and records everything it gets back.
struct BlastController {
    script: Vec<(SimTime, NodeId, OfMessage)>,
    received: Vec<(SimTime, OfMessage)>,
}

impl BlastController {
    fn new(script: Vec<(SimTime, NodeId, OfMessage)>) -> Self {
        BlastController {
            script,
            received: Vec::new(),
        }
    }
    /// When each received message that `kind` accepts arrived.
    fn times(&self, kind: fn(&OfMessage) -> bool) -> Vec<SimTime> {
        let received = self.received.iter().filter(|(_, m)| kind(m));
        received.map(|(t, _)| *t).collect()
    }
}

impl Node for BlastController {
    fn name(&self) -> String {
        "blast-controller".into()
    }
    fn start(&mut self, ctx: &mut Context<'_>) {
        for (t, to, msg) in self.script.drain(..) {
            ctx.send_control(to, msg, t);
        }
    }
    fn handle(&mut self, event: EventPayload, ctx: &mut Context<'_>) {
        if let EventPayload::Control { message, .. } = event {
            self.received.push((ctx.now(), message));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn rate_from_times(times: &[SimTime]) -> f64 {
    match (times.iter().min(), times.iter().max()) {
        (Some(&first), Some(&last)) if last > first => {
            (times.len() - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    }
}

fn flow_mod_msg(i: u32, out_port: u16) -> OfMessage {
    OfMessage::FlowMod {
        xid: i,
        body: FlowMod::add(
            OfMatch::ipv4_pair(
                Ipv4Addr::new(10, 2, (i >> 8) as u8, (i & 0xff) as u8),
                Ipv4Addr::new(10, 3, (i >> 8) as u8, (i & 0xff) as u8),
            ),
            100,
            vec![Action::output(out_port)],
        )
        .with_cookie(u64::from(i)),
    }
}

/// Measures how long a switch takes to process `n_mods` flow modifications
/// (control plane), optionally interleaved with other messages, using a
/// trailing barrier per modification to timestamp completion.
fn measure_mod_rate(n_mods: u32, extra: impl Fn(u32) -> Vec<OfMessage>) -> f64 {
    let mut sim = Simulator::new(SEED);
    let sw_id = NodeId(1);
    let mut script: Vec<(SimTime, NodeId, OfMessage)> = Vec::new();
    for i in 0..n_mods {
        script.push((SimTime::from_millis(1), sw_id, flow_mod_msg(i, 2)));
        for msg in extra(i) {
            script.push((SimTime::from_millis(1), sw_id, msg));
        }
        script.push((
            SimTime::from_millis(1),
            sw_id,
            OfMessage::BarrierRequest { xid: 1_000_001 + i },
        ));
    }
    let ctrl_id = sim.add_node(BlastController::new(script));
    let mut sw = OpenFlowSwitch::new("dut", DatapathId::new(0xb), 4, SwitchModel::hp5406zl());
    sw.connect_controller(ctrl_id);
    sim.add_node(sw);
    sim.run_until(SimTime::from_secs(60));
    let ctrl = sim.node_ref::<BlastController>(ctrl_id).unwrap();
    rate_from_times(&ctrl.times(|m| matches!(m, OfMessage::BarrierReply { .. })))
}

/// Runs the §5.2 microbenchmarks on the HP-like switch model.
pub fn run_pktio_rates() -> PktIoResult {
    // --- PacketOut rate: blast PacketOuts, count arrivals at the host. ---
    let packet_out_per_sec = {
        let mut sim = Simulator::new(SEED);
        let mut host = simnet::traffic::Host::new("sink");
        let header = simnet::traffic::flow_header(
            1,
            openflow::MacAddr::from_id(9),
            openflow::MacAddr::from_id(10),
        );
        host.expect_flow(&header, FlowId(1));
        let host_id = sim.add_node(host);
        let sw_id = NodeId(2);
        let n = 2_000u32;
        let script: Vec<(SimTime, NodeId, OfMessage)> = (0..n)
            .map(|i| {
                (
                    SimTime::from_millis(1),
                    sw_id,
                    OfMessage::PacketOut {
                        xid: i,
                        body: PacketOut::single_port(2, header.to_bytes()),
                    },
                )
            })
            .collect();
        let ctrl_id = sim.add_node(BlastController::new(script));
        let mut sw = OpenFlowSwitch::new("dut", DatapathId::new(0xb), 4, SwitchModel::hp5406zl());
        sw.connect_controller(ctrl_id);
        let added = sim.add_node(sw);
        assert_eq!(added, sw_id);
        sim.topology_mut()
            .add_link(sw_id, 2, host_id, 1, SimTime::from_micros(50));
        sim.run_until(SimTime::from_secs(10));
        let deliveries: Vec<SimTime> = sim
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                simnet::TraceEvent::PacketDelivered { time, .. } => Some(*time),
                _ => None,
            })
            .collect();
        rate_from_times(&deliveries)
    };

    // --- PacketIn rate: a send-to-controller rule + offered load. ---
    let packet_in_per_sec = {
        let mut sim = Simulator::new(SEED);
        let mut host = simnet::traffic::Host::new("src");
        let header = simnet::traffic::flow_header(
            2,
            openflow::MacAddr::from_id(9),
            openflow::MacAddr::from_id(10),
        );
        host.add_tx_flow(simnet::traffic::FlowSpec::constant_rate(
            FlowId(2),
            header,
            1,
            20_000,
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        let host_id = sim.add_node(host);
        let ctrl_id_expected = NodeId(1);
        let ctrl_id = sim.add_node(BlastController::new(Vec::new()));
        assert_eq!(ctrl_id, ctrl_id_expected);
        let mut sw = OpenFlowSwitch::new("dut", DatapathId::new(0xb), 4, SwitchModel::hp5406zl());
        sw.preinstall(
            &FlowMod::add(OfMatch::wildcard_all(), 10, vec![Action::to_controller()])
                .with_cookie(1),
        );
        sw.connect_controller(ctrl_id);
        let sw_id = sim.add_node(sw);
        sim.topology_mut()
            .add_link(host_id, 1, sw_id, 1, SimTime::from_micros(50));
        sim.run_until(SimTime::from_secs(3));
        let ctrl = sim.node_ref::<BlastController>(ctrl_id).unwrap();
        rate_from_times(&ctrl.times(|m| matches!(m, OfMessage::PacketIn { .. })))
    };

    // --- Modification-rate interaction experiments. ---
    let mod_rate_alone = measure_mod_rate(300, |_| Vec::new());
    let header = simnet::traffic::flow_header(
        3,
        openflow::MacAddr::from_id(9),
        openflow::MacAddr::from_id(10),
    );
    // One PacketOut per five modifications would be 0.2; the paper uses up to
    // a 5:1 PacketOut-to-modification ratio, i.e. five PacketOuts per mod.
    let mod_rate_with_packet_outs = measure_mod_rate(300, |i| {
        (0..5)
            .map(|k| OfMessage::PacketOut {
                xid: 2_000_000 + i * 5 + k,
                body: PacketOut::single_port(2, header.to_bytes()),
            })
            .collect()
    }) / mod_rate_alone;
    // PacketIns are generated by the switch, not sent by the controller; the
    // interaction is exercised by echo requests of similar control-plane cost.
    let mod_rate_with_packet_ins = measure_mod_rate(300, |i| {
        vec![OfMessage::EchoRequest {
            xid: 3_000_000 + i,
            data: vec![0; 8],
        }]
    }) / mod_rate_alone;

    PktIoResult {
        packet_out_per_sec,
        packet_in_per_sec,
        mod_rate_alone,
        mod_rate_with_packet_ins,
        mod_rate_with_packet_outs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barriers_baseline_breaks_flows_probing_does_not() {
        // Scaled-down Figure 1b: 30 flows instead of 300.
        let broken = run_end_to_end(EndToEndTechnique::Barriers, 30);
        assert_eq!(broken.flows.len(), 30);
        assert!(broken.total_drops > 0, "the baseline must drop packets");
        assert!(broken.max_broken_ms() > 50.0);

        let fixed = run_end_to_end(EndToEndTechnique::General, 30);
        assert_eq!(
            fixed.total_drops, 0,
            "general probing must not drop packets"
        );
        assert_eq!(fixed.migrated_flows, 30);
        assert!(
            fixed.max_broken_ms() <= 8.0,
            "max broken {}",
            fixed.max_broken_ms()
        );
    }

    #[test]
    fn timeout_is_safe_but_slower_than_no_wait() {
        let timeout = run_end_to_end(EndToEndTechnique::Timeout(SimTime::from_millis(300)), 20);
        assert_eq!(timeout.total_drops, 0);
        let nowait = run_end_to_end(EndToEndTechnique::NoWait, 20);
        assert!(
            timeout.mean_update_ms > nowait.mean_update_ms,
            "timeout ({}) must be slower than the no-wait lower bound ({})",
            timeout.mean_update_ms,
            nowait.mean_update_ms
        );
    }

    #[test]
    fn activation_delays_match_figure8_shape() {
        let barriers = run_activation_delay(EndToEndTechnique::Barriers, 30, 30);
        assert_eq!(barriers.len(), 30);
        let negative = barriers.iter().filter(|s| s.delay_ms < 0.0).count();
        assert!(
            negative > 15,
            "baseline should be mostly premature, got {negative}"
        );

        let general = run_activation_delay(EndToEndTechnique::General, 30, 30);
        assert_eq!(general.len(), 30);
        assert!(general.iter().all(|s| s.delay_ms >= 0.0));
    }

    #[test]
    fn update_rate_grows_with_batch_size() {
        let small_batch = run_update_rate(1, 20, 120);
        let large_batch = run_update_rate(10, 20, 120);
        assert!(small_batch.normalized() > 0.2);
        assert!(large_batch.normalized() <= 1.05);
        assert!(
            large_batch.normalized() > small_batch.normalized(),
            "probing after every mod ({:.2}) must cost more than batching ({:.2})",
            small_batch.normalized(),
            large_batch.normalized()
        );
    }

    #[test]
    fn pktio_rates_are_near_model_limits() {
        let r = run_pktio_rates();
        assert!(
            (r.packet_out_per_sec - 7006.0).abs() < 500.0,
            "{}",
            r.packet_out_per_sec
        );
        assert!(
            (r.packet_in_per_sec - 5531.0).abs() < 500.0,
            "{}",
            r.packet_in_per_sec
        );
        assert!(r.mod_rate_alone > 100.0);
        assert!(r.mod_rate_with_packet_ins > 0.9);
        assert!(r.mod_rate_with_packet_outs > 0.75 && r.mod_rate_with_packet_outs <= 1.0);
    }
}
