//! Fleet-scale cross-driver conformance for the sharded engine.
//!
//! The sharding tentpole is only sound if the sans-IO boundary survives it:
//! the simulator driver and the TCP driver must drive the *identical*
//! sharded engine, and the sharded engine must behave byte-identically to
//! the single-engine (pre-shard) oracle.  These property tests check both,
//! over multiple seeds, at a 64-switch fleet:
//!
//! * **cross-engine**: per-switch confirm orders and verdicts are identical
//!   between the 8-shard engine and the unsharded oracle on simnet, where
//!   both sides run against virtual time and order is well-defined;
//! * **cross-driver**: matrix verdicts and per-switch confirm *sets* are
//!   identical between the simnet run and the TCP run of the same seed.
//!   Exact order is not compared across this boundary: on the wall-clock
//!   side a re-probe tick can straddle a data-plane activation and swap two
//!   confirms of one switch without either run being wrong;
//! * **soundness**: every run has zero false acks and zero missed acks.
//!
//! The same invariants at 1,000 switches are covered twice: by the ignored
//! [`full_fleet_cross_driver_soundness`] run below (too slow for the
//! default suite; run it with `--ignored`), and continuously by the
//! committed `BENCH_results.json`, whose 1,000-switch rows CI gates through
//! `validate_results`' switch-count floor.

use rum_bench::scale::{
    run_simnet_scale_cell, run_simnet_scale_cell_with, run_tcp_scale_cell, ScaleCellOutcome,
    SCALE_SHARDS,
};
use rum_bench::scenario_matrix::MatrixCell;
use telemetry::Registry;

/// Fleet width of the default-suite runs; big enough that every shard owns
/// eight switches and the DSCP probe plan must reuse catch codepoints.
const FLEET: usize = 64;
const RULES_PER_SWITCH: usize = 2;
const SEEDS: [u64; 2] = [7, 42];

/// The verdict fields two conforming runs must agree on (completion time is
/// timing, not behaviour, so it is excluded).
fn verdict(cell: &MatrixCell) -> (usize, usize, usize, usize, usize) {
    (
        cell.switches,
        cell.planned,
        cell.confirmed,
        cell.false_acks,
        cell.missed_acks,
    )
}

fn assert_sound(out: &ScaleCellOutcome, label: &str) {
    assert_eq!(
        out.cell.false_acks, 0,
        "{label}: false acks\n{:?}",
        out.cell
    );
    assert_eq!(
        out.cell.missed_acks, 0,
        "{label}: missed acks\n{:?}",
        out.cell
    );
    assert_eq!(
        out.per_switch_orders.iter().map(Vec::len).sum::<usize>(),
        out.cell.planned,
        "{label}: every planned rule confirms on exactly one switch"
    );
}

/// Each switch's confirmed cookies as a set (sorted): what two runs must
/// agree on when at least one of them is timed by the wall clock.
fn per_switch_sets(out: &ScaleCellOutcome) -> Vec<Vec<u64>> {
    let mut sets = out.per_switch_orders.clone();
    sets.iter_mut().for_each(|order| order.sort_unstable());
    sets
}

/// Runs the same seed on both drivers and checks soundness on each side,
/// verdict identity, and per-switch confirm-set identity.
fn assert_drivers_agree(fleet: usize, seed: u64) {
    let registry = Registry::new();
    let sim = run_simnet_scale_cell(fleet, RULES_PER_SWITCH, seed, &registry);
    let tcp = run_tcp_scale_cell(fleet, RULES_PER_SWITCH, seed, &registry);
    assert_sound(&sim, &format!("simnet {fleet} seed {seed}"));
    assert_sound(&tcp, &format!("tcp {fleet} seed {seed}"));
    assert_eq!(
        verdict(&sim.cell),
        verdict(&tcp.cell),
        "{fleet} switches, seed {seed}: matrix verdicts diverged between drivers"
    );
    assert_eq!(
        per_switch_sets(&sim),
        per_switch_sets(&tcp),
        "{fleet} switches, seed {seed}: a switch confirmed different rules on the two drivers"
    );
}

/// (a) simnet vs TCP: the same seed produces the same matrix verdict and
/// the same per-switch confirm sets on both drivers, because every
/// confirmation decision lives in the shared sharded engine, not the
/// drivers.
#[test]
fn drivers_agree_on_per_switch_confirm_orders_at_fleet_scale() {
    for seed in SEEDS {
        assert_drivers_agree(FLEET, seed);
    }
}

/// (b) sharded vs the single-engine oracle: on the simulator driver, the
/// 8-shard engine and the unsharded (`shards = 1`) engine confirm every
/// switch's rules in the same order with the same verdict.
#[test]
fn sharded_engine_matches_the_single_engine_oracle_on_simnet() {
    for seed in SEEDS {
        let registry = Registry::new();
        let sharded =
            run_simnet_scale_cell_with(FLEET, RULES_PER_SWITCH, seed, SCALE_SHARDS, &registry);
        let oracle = run_simnet_scale_cell_with(FLEET, RULES_PER_SWITCH, seed, 1, &registry);
        assert_sound(&sharded, &format!("sharded seed {seed}"));
        assert_sound(&oracle, &format!("oracle seed {seed}"));
        assert_eq!(verdict(&sharded.cell), verdict(&oracle.cell));
        assert_eq!(
            sharded.per_switch_orders, oracle.per_switch_orders,
            "seed {seed}: sharding changed a per-switch confirm order"
        );
    }
}

/// The full 1,000-switch conformance run — seconds of wall clock but a
/// thousand switch-host threads and two thousand sockets, so it is ignored
/// by default; CI covers the same scale through the committed BENCH gate.
/// `cargo test --release -- --ignored full_fleet_cross_driver_soundness`
/// runs it directly.
#[test]
#[ignore]
fn full_fleet_cross_driver_soundness() {
    assert_drivers_agree(1_000, 42);
}
