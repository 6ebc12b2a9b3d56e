//! Golden pin of the simulator-driver gate output.
//!
//! The simnet rows are virtual time and a pure function of the seed, so a
//! refactor of the harness underneath them must not move a single digit.
//! The expected text was captured at the commit before the three gate
//! modules moved onto `fleet`; the test only calls public entry points, so
//! it runs unchanged on either side of that change.

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

fn fnv64(orders: &[Vec<u64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (sw, order) in orders.iter().enumerate() {
        for word in std::iter::once(sw as u64).chain(order.iter().copied()) {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

const MATRIX_6_42: &str = "\
early_reply barrier-only sw=3 6/0/6 Some(25.069993) None\n\
early_reply rum-barriers sw=3 6/0/6 Some(25.269993) None\n\
early_reply rum-timeout sw=3 0/0/6 Some(387.769993) None\n\
early_reply rum-adaptive sw=3 0/0/6 Some(314.3) None\n\
early_reply rum-sequential sw=3 0/0/6 Some(280.7) None\n\
early_reply rum-general sw=3 0/0/6 Some(280.85) None\n\
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
ack_lossdup rum-general sw=3 0/0/6 Some(280.85) None\n\
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
early_reply_reordering rum-general sw=3 0/0/6 Some(280.85) None";

const SCALE_64_2_42: &str = "\
shards=8 early_reply rum-general sw=64 0/0/128 Some(281.1808) None orders=4392bee36e3467f5\n\
shards=1 early_reply rum-general sw=64 0/0/128 Some(281.1808) None orders=4392bee36e3467f5";

const SOAK_24: &str = "SessionSoakRecord { driver: \"simnet\", fault: \"early_reply\", \
    switches: 3, sessions: 24, completed: 24, aborted: 0, planned_mods: 72, confirmed_mods: 72, \
    false_acks: 0, missed_acks: 0, stray_acks: 0, p50_confirm_ms: 200.0, p99_confirm_ms: 281.36, \
    p999_confirm_ms: 281.39, wall_ms: 681.3900000000001 }";

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
