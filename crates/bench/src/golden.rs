//! Golden pins of the simulator-driver gate output and of the paper
//! figures.
//!
//! The simnet rows are virtual time and a pure function of the seed, so a
//! refactor of the harness underneath them must not move a single digit.
//! The gate text was captured at the commit before the three gate modules
//! moved onto `fleet`; the test only calls public entry points, so it runs
//! unchanged on either side of that change.  The figure text was captured
//! from the seven per-figure binaries `figures` replaced, run at the same
//! scale one after another.

use crate::scale::run_simnet_scale_cell_with;
use crate::scenario_matrix::{run_simnet_matrix, MatrixCell};
use crate::session_soak::{early_reply_fault, run_simnet_soak, SoakConfig};
use ofswitch::SwitchModel;
use std::sync::Arc;
use telemetry::Registry;

fn cell_line(c: &MatrixCell) -> String {
    format!(
        "{} {} sw={} {}/{}/{} {:?} {:?}",
        c.fault,
        c.technique,
        c.switches,
        c.false_acks,
        c.missed_acks,
        c.confirmed,
        c.completion_ms,
        c.resync.map(|r| (r.rounds, r.delta_mods, r.is_clean()))
    )
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv64(orders: &[Vec<u64>]) -> u64 {
    fnv1a(orders.iter().enumerate().flat_map(|(sw, order)| {
        std::iter::once(sw as u64)
            .chain(order.iter().copied())
            .flat_map(u64::to_le_bytes)
    }))
}

const MATRIX_6_42: &str = "\
early_reply barrier-only sw=3 6/0/6 Some(25.069993) None\n\
early_reply rum-barriers sw=3 6/0/6 Some(25.269993) None\n\
early_reply rum-timeout sw=3 0/0/6 Some(387.769993) None\n\
early_reply rum-adaptive sw=3 0/0/6 Some(314.3) None\n\
early_reply rum-sequential sw=3 0/0/6 Some(280.7) None\n\
early_reply rum-general sw=3 0/0/6 Some(281.22) None\n\
silent_drop barrier-only sw=3 6/0/6 Some(25.069993) None\n\
silent_drop rum-barriers sw=3 6/0/6 Some(25.269993) None\n\
silent_drop rum-timeout sw=3 6/0/6 Some(387.769993) None\n\
silent_drop rum-adaptive sw=3 6/0/6 Some(314.3) None\n\
silent_drop rum-sequential sw=3 0/6/0 None None\n\
silent_drop rum-general sw=3 0/6/0 None None\n\
sync_burst barrier-only sw=3 6/0/6 Some(25.069993) None\n\
sync_burst rum-barriers sw=3 6/0/6 Some(25.269993) None\n\
sync_burst rum-timeout sw=3 6/0/6 Some(387.769993) None\n\
sync_burst rum-adaptive sw=3 6/0/6 Some(314.3) None\n\
sync_burst rum-sequential sw=3 0/0/6 Some(860.7) None\n\
sync_burst rum-general sw=3 0/0/6 Some(860.85) None\n\
ack_lossdup barrier-only sw=3 5/1/5 None None\n\
ack_lossdup rum-barriers sw=3 5/1/5 None None\n\
ack_lossdup rum-timeout sw=3 0/1/5 None None\n\
ack_lossdup rum-adaptive sw=3 0/0/6 Some(314.3) None\n\
ack_lossdup rum-sequential sw=3 0/0/6 Some(280.7) None\n\
ack_lossdup rum-general sw=3 0/0/6 Some(281.22) None\n\
restart barrier-only sw=3 2/4/2 None None\n\
restart rum-barriers sw=3 6/0/6 Some(609.689996) None\n\
restart rum-timeout sw=3 2/0/6 Some(972.189996) None\n\
restart rum-adaptive sw=3 6/0/6 Some(314.3) None\n\
restart rum-sequential sw=3 0/0/6 Some(880.7) None\n\
restart rum-general sw=3 0/0/6 Some(880.85) None\n\
restart_resync barrier-only sw=3 6/0/6 Some(886.919998) Some((2, 3, true))\n\
restart_resync rum-barriers sw=3 6/0/6 Some(609.689996) Some((2, 3, true))\n\
restart_resync rum-timeout sw=3 2/0/6 Some(972.189996) Some((2, 3, true))\n\
restart_resync rum-adaptive sw=3 6/0/6 Some(314.3) Some((2, 7, true))\n\
restart_resync rum-sequential sw=3 0/0/6 Some(880.7) Some((2, 1, true))\n\
restart_resync rum-general sw=3 0/0/6 Some(880.85) Some((2, 1, true))\n\
early_reply_reordering barrier-only sw=3 6/0/6 Some(25.069993) None\n\
early_reply_reordering rum-barriers sw=3 6/0/6 Some(25.269993) None\n\
early_reply_reordering rum-timeout sw=3 0/0/6 Some(387.769993) None\n\
early_reply_reordering rum-adaptive sw=3 0/0/6 Some(314.3) None\n\
early_reply_reordering rum-sequential sw=3 0/0/0 None None\n\
early_reply_reordering rum-general sw=3 0/0/6 Some(281.22) None";

const SCALE_64_2_42: &str = "\
shards=8 early_reply rum-general sw=64 0/0/128 Some(281.7) None orders=4392bee36e3467f5\n\
shards=1 early_reply rum-general sw=64 0/0/128 Some(281.7) None orders=4392bee36e3467f5";

const SOAK_24: &str = "SessionSoakRecord { driver: \"simnet\", fault: \"early_reply\", \
    switches: 3, sessions: 24, completed: 24, aborted: 0, planned_mods: 72, confirmed_mods: 72, \
    false_acks: 0, missed_acks: 0, stray_acks: 0, p50_confirm_ms: 200.0, p99_confirm_ms: 281.72999999999996, \
    p999_confirm_ms: 281.76, wall_ms: 681.76 }";

#[test]
fn simnet_gate_output_is_pinned() {
    let matrix: Vec<String> = run_simnet_matrix(6, 42).iter().map(cell_line).collect();
    assert_eq!(matrix.join("\n"), MATRIX_6_42);

    let scale: Vec<String> = [8, 1]
        .iter()
        .map(|&shards| {
            let out = run_simnet_scale_cell_with(64, 2, 42, shards, &Registry::new());
            format!(
                "shards={shards} {} orders={:016x}",
                cell_line(&out.cell),
                fnv64(&out.per_switch_orders)
            )
        })
        .collect();
    assert_eq!(scale.join("\n"), SCALE_64_2_42);

    let cfg = SoakConfig {
        sessions: 24,
        ..SoakConfig::default()
    };
    let fault = early_reply_fault(&SwitchModel::hp5406zl(), cfg.seed);
    let record = run_simnet_soak(&cfg, &fault, &Arc::new(Registry::new())).record;
    assert_eq!(format!("{record:?}"), SOAK_24);
}

/// Headline lines of `figures all 10`: every figure's summary rows.
const FIGURES_ALL_10: &[&str] = &[
    "barriers (baseline)    flows=10   migrated=10   drops=415    mean_update=   192.2 ms  max_broken=  188.1 ms  completion=42.9 ms",
    "general                flows=10   migrated=10   drops=0      mean_update=   195.8 ms  max_broken=    4.0 ms  completion=203.8 ms",
    "sequential             flows=10   migrated=10   drops=0      mean_update=   195.8 ms  max_broken=    4.0 ms  completion=201.4 ms",
    "timeout 300ms          flows=10   migrated=10   drops=0      mean_update=   326.2 ms  max_broken=    4.0 ms  completion=642.9 ms",
    "adaptive 200           flows=10   migrated=10   drops=0      mean_update=   321.4 ms  max_broken=    4.0 ms  completion=635.6 ms",
    "adaptive 250           flows=10   migrated=10   drops=0      mean_update=   314.2 ms  max_broken=    4.0 ms  completion=624.6 ms",
    "no wait                flows=10   migrated=10   drops=470    mean_update=   192.2 ms  max_broken=  192.1 ms  completion=0.0 ms",
    "barriers (baseline)    samples=10   negative(incorrect)=10   p10=  -181.0 ms  median=  -164.7 ms  p90=  -152.5 ms",
    "general                samples=10   negative(incorrect)=0    p10=     1.1 ms  median=     1.2 ms  p90=     1.3 ms",
    "after 1   update(s)       22%       22%       22%    ",
    "reordering switch            barrier every  1 mods: with barrier layer    2190.7 ms, probing only     390.7 ms, overhead x5.61",
    "PacketOut rate:                7006 messages/s   (paper: 7006/s)",
    "PacketIn rate:                 5531 messages/s   (paper: 5531/s)",
];

#[test]
fn figure_output_is_pinned() {
    let mut out = Vec::new();
    for draw in crate::figures::select("all") {
        draw(Some(10), &mut out).unwrap();
    }
    let text = String::from_utf8(out).unwrap();
    for line in FIGURES_ALL_10 {
        assert!(text.lines().any(|l| l == *line), "missing: {line}");
    }
    // All 8,668 bytes: the per-flow and per-rule CSVs and the CDFs too.
    assert_eq!(
        (text.len(), fnv1a(text.bytes())),
        (8668, 0x4c66_e9e4_01b6_cc7d)
    );
}
