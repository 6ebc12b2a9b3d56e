//! Runs the end-to-end experiment once for every acknowledgment technique
//! (virtual time: one run is the result), the two gated install workloads
//! (indexed vs. linear-scan bulk install, and the telemetry-instrumented
//! install for the metric-cost row), the technique × fault scenario matrix
//! and the multi-tenant session soak on both drivers, and the fleet-scale
//! layer, and writes machine-readable aggregates to `BENCH_results.json` (see
//! `rum_bench::report::results_json` for the shape), so the reliability
//! verdicts are tracked across PRs instead of only being pretty-printed.
//! Wall-clock throughput of the proxy chain is the repository benchmark's
//! job (`benchmark/README.md`), not this file's.
//!
//! Usage: `bench_results [n_flows] [output_path] [install_n] [matrix_rules]
//! [soak_sessions] [scale_switches]` (defaults: 40 flows,
//! `BENCH_results.json` in the current directory, a 100 000-entry bulk
//! install, a 10-rule scenario matrix, a 200-tenant session soak on both
//! drivers, and a 1,000-switch scale layer; pass `matrix_rules = 0` to
//! skip the matrix, `soak_sessions = 0` to skip the soaks,
//! `scale_switches = 0` to skip the scale layer).  CI's smoke job passes
//! small values so the quadratic linear-scan baseline, the wall-clock TCP
//! matrix and the soak stay fast there; the committed `BENCH_results.json`
//! is produced with the defaults.
//!
//! The scale layer runs the sharded proxy against a `scale_switches`-switch
//! early-reply ring on both drivers (zero false-ack matrix rows at fleet
//! size) and re-runs the multi-tenant TCP soak with its tenants spread
//! across the whole fleet.

use ofswitch::SwitchModel;
use rum_bench::experiments::{run_end_to_end, EndToEndTechnique};
use rum_bench::report::{end_to_end_summary, results_json, MatrixRecord, ThroughputRecord};
use rum_bench::scale::{run_simnet_scale_cell, run_tcp_scale_cell, run_tcp_scale_soak};
use rum_bench::scenario_matrix::{render_grid, run_simnet_matrix, run_tcp_matrix};
use rum_bench::session_soak::{early_reply_fault, run_simnet_soak, run_tcp_soak, SoakConfig};
use rum_bench::throughput;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repetitions of the two indexed install variants.  The telemetry row is
/// the difference of two nearly identical measurements, and single-core
/// boxes swing individual runs by several percent, so the best-of
/// comparison needs a deep pool to draw from.
const INSTALL_RUNS: usize = 9;

fn throughput_records(install_n: usize) -> Vec<ThroughputRecord> {
    let mut records = Vec::new();

    // Bulk flow-mod install: indexed table vs. the linear-scan oracle on the
    // identical workload.  This is the acceptance measurement for the
    // indexed-table redesign (target: >= 10x at 100k entries).  The
    // instrumented variant is interleaved with the plain one (after warming
    // both) so clock/cache drift hits both sides of the overhead comparison
    // equally instead of masquerading as instrumentation cost.
    let mods = throughput::bulk_flow_mods(install_n);
    throughput::install_indexed(&mods);
    throughput::install_indexed_instrumented(&mods, &telemetry::Registry::new());
    let mut indexed = Vec::new();
    let mut instrumented = Vec::new();
    for _ in 0..INSTALL_RUNS {
        indexed.push(ms(throughput::install_indexed(&mods)));
        instrumented.push(ms(throughput::install_indexed_instrumented(
            &mods,
            &telemetry::Registry::new(),
        )));
    }
    let linear = ms(throughput::install_linear(&mods));
    let baseline_ops_per_sec = install_n as f64 / (linear / 1e3);
    records.push(
        ThroughputRecord::from_runs(
            format!("flow_mod_install/indexed_{install_n}"),
            install_n as u64,
            &indexed,
        )
        .with_baseline(baseline_ops_per_sec),
    );
    records.push(ThroughputRecord::from_runs(
        format!("flow_mod_install/linear_{install_n}"),
        install_n as u64,
        &[linear],
    ));

    // Telemetry cost: the identical indexed install with the hot-path
    // metric operations active (sharded counter, per-thread recorder, one
    // gauge publish), measured above.  The cost is the gap between the best
    // run of each variant (so scheduler noise does not masquerade as a
    // regression) spread over the applies: ns per operation, which — unlike
    // a percentage of the install — does not move when the table gets
    // faster.  `validate_results` holds it under its bar.
    let best = |runs: &[f64]| runs.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_ns_per_op = (best(&instrumented) - best(&indexed)) * 1e6 / install_n as f64;
    records.push(
        ThroughputRecord::from_runs(
            format!("telemetry_overhead/indexed_{install_n}"),
            install_n as u64,
            &instrumented,
        )
        .with_overhead(overhead_ns_per_op),
    );

    records
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_flows: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    let path: PathBuf = args
        .get(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_results.json"));
    let install_n: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let matrix_rules: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(10);
    let soak_sessions: usize = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(200);
    let scale_switches: usize = args.get(6).and_then(|s| s.parse().ok()).unwrap_or(1_000);

    let mut end_to_end = Vec::new();
    for technique in EndToEndTechnique::all() {
        end_to_end.push(run_end_to_end(technique, n_flows));
        println!("{}", end_to_end_summary(end_to_end.last().unwrap()));
    }

    let throughput = throughput_records(install_n);
    for r in &throughput {
        let annotation = match (r.speedup(), r.overhead_ns_per_op) {
            (Some(speedup), _) => format!("  ({speedup:.0}x linear baseline)"),
            (None, Some(overhead)) => format!("  ({overhead:+.1} ns/op vs uninstrumented)"),
            (None, None) => String::new(),
        };
        println!(
            "{:<40} median {:>10.1} ms  {:>12.0} ops/s{annotation}",
            r.experiment, r.median_elapsed_ms, r.ops_per_sec
        );
    }

    let mut matrix = Vec::new();
    if matrix_rules > 0 {
        let mut cells = run_simnet_matrix(matrix_rules, 42);
        cells.extend(run_tcp_matrix(matrix_rules, 42));
        println!("\n{}", render_grid(&cells));
        matrix = cells.iter().map(MatrixRecord::from).collect();
    }
    if scale_switches > 0 {
        // The fleet-scale rows: the sharded proxy against a
        // `scale_switches`-switch early-reply ring on both drivers.
        let registry = telemetry::Registry::new();
        let cells = [
            run_simnet_scale_cell(scale_switches, 2, 42, &registry).cell,
            run_tcp_scale_cell(scale_switches, 2, 42, &registry).cell,
        ];
        for cell in &cells {
            println!(
                "scale/{}/{:<12} switches {:>5}  planned {:>5}  false {} missed {}  completion {}",
                cell.driver,
                cell.technique,
                cell.switches,
                cell.planned,
                cell.false_acks,
                cell.missed_acks,
                cell.completion_ms
                    .map(|ms| format!("{ms:.0} ms"))
                    .unwrap_or_else(|| "stalled".into()),
            );
            matrix.push(MatrixRecord::from(cell));
        }
    }

    let mut soak = Vec::new();
    if soak_sessions > 0 {
        let cfg = SoakConfig {
            sessions: soak_sessions,
            ..SoakConfig::default()
        };
        let registry = Arc::new(telemetry::Registry::new());
        for outcome in [
            run_simnet_soak(
                &cfg,
                &early_reply_fault(&SwitchModel::hp5406zl(), cfg.seed),
                &registry,
            ),
            run_tcp_soak(
                &cfg,
                &early_reply_fault(&SwitchModel::fast_buggy(), cfg.seed),
                &registry,
            ),
        ] {
            let r = outcome.record;
            println!(
                "session_soak/{}/{:<14} sessions {:>4} done {:>4}  false {} missed {} stray {}  p50 {:>8.1} ms  p99 {:>8.1} ms  p99.9 {:>8.1} ms",
                r.driver, r.fault, r.sessions, r.completed, r.false_acks, r.missed_acks,
                r.stray_acks, r.p50_confirm_ms, r.p99_confirm_ms, r.p999_confirm_ms
            );
            soak.push(r);
        }
        if scale_switches > 0 {
            // The same tenant population spread across the whole sharded
            // fleet: the scale soak row.
            let scale_cfg = SoakConfig {
                sessions: soak_sessions,
                budget: Duration::from_secs(45)
                    + Duration::from_millis(100) * scale_switches as u32,
                ..SoakConfig::default()
            };
            let r = run_tcp_scale_soak(&scale_cfg, scale_switches, &registry).record;
            println!(
                "session_soak/{}/{:<14} switches {:>5} sessions {:>4} done {:>4}  false {} missed {} stray {}  p50 {:>8.1} ms  p99 {:>8.1} ms  p99.9 {:>8.1} ms",
                r.driver, r.fault, r.switches, r.sessions, r.completed, r.false_acks,
                r.missed_acks, r.stray_acks, r.p50_confirm_ms, r.p99_confirm_ms, r.p999_confirm_ms
            );
            soak.push(r);
        }
    }

    let json = results_json(&end_to_end, &throughput, &matrix, &soak);
    std::fs::write(&path, json).expect("write BENCH_results.json");
    println!(
        "\nwrote {} end-to-end + {} throughput + {} matrix + {} soak records to {}",
        end_to_end.len(),
        throughput.len(),
        matrix.len(),
        soak.len(),
        path.display()
    );
}
