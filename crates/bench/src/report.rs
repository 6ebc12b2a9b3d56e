//! Plain-text / CSV report formatting shared by the experiment binaries.

use crate::experiments::{ActivationSample, EndToEndResult, FlowRow};
use crate::scenario_matrix::{MatrixCell, ResyncVerdict};

/// Formats the per-flow rows of an end-to-end run as CSV
/// (`flow,last_old_ms,update_time_ms,broken_ms`).
pub fn end_to_end_csv(result: &EndToEndResult) -> String {
    let mut out = String::from("flow,last_old_ms,update_time_ms,broken_ms\n");
    for FlowRow {
        flow,
        last_old_ms,
        update_time_ms,
        broken_ms,
    } in &result.flows
    {
        out.push_str(&format!(
            "{flow},{last_old_ms:.3},{update_time_ms:.3},{broken_ms:.3}\n"
        ));
    }
    out
}

/// Formats the Figure 1b CDF: fraction of flows broken for longer than x ms.
pub fn broken_time_cdf(result: &EndToEndResult, max_ms: f64, step_ms: f64) -> String {
    let mut out = String::from("broken_ms,fraction_of_flows_broken_longer\n");
    let mut x = 0.0;
    while x <= max_ms + 1e-9 {
        out.push_str(&format!(
            "{x:.1},{:.4}\n",
            result.fraction_broken_longer_than(x)
        ));
        x += step_ms;
    }
    out
}

/// Formats a one-line summary of an end-to-end run.
pub fn end_to_end_summary(result: &EndToEndResult) -> String {
    format!(
        "{:<22} flows={:<4} migrated={:<4} drops={:<6} mean_update={:>8.1} ms  max_broken={:>7.1} ms  completion={}",
        result.technique,
        result.flows.len(),
        result.migrated_flows,
        result.total_drops,
        result.mean_update_ms,
        result.max_broken_ms(),
        result
            .controller_completion_ms
            .map(|v| format!("{v:.1} ms"))
            .unwrap_or_else(|| "incomplete".into()),
    )
}

/// Formats activation-delay samples as CSV ordered by delay (the "flow rank"
/// axis of Figure 8).
pub fn activation_csv(label: &str, samples: &[ActivationSample]) -> String {
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.delay_ms).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut out = format!("# technique: {label}\nrank,delay_ms\n");
    for (rank, delay) in sorted.iter().enumerate() {
        out.push_str(&format!("{rank},{delay:.3}\n"));
    }
    out
}

/// One throughput experiment's aggregate result, persisted alongside the
/// latency records in `BENCH_results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRecord {
    /// Experiment name (e.g. `flow_mod_install/indexed_100k`).
    pub experiment: String,
    /// Operations per run (flow-mods installed).
    pub ops: u64,
    /// Median elapsed wall time across runs, in milliseconds.
    pub median_elapsed_ms: f64,
    /// Throughput derived from the median run.
    pub ops_per_sec: f64,
    /// Number of runs aggregated.
    pub runs: usize,
    /// Ops/sec of the linear-scan reference on the same workload, when the
    /// baseline was measured; the JSON row then carries a `speedup` field.
    pub baseline_ops_per_sec: Option<f64>,
    /// Extra nanoseconds per operation over the uninstrumented variant of
    /// the same workload, when one was measured (the `telemetry_overhead`
    /// rows).  An absolute cost, not a ratio, so it does not move when the
    /// workload underneath gets faster.  May be slightly negative: it is a
    /// difference of two noisy measurements.
    pub overhead_ns_per_op: Option<f64>,
}

impl ThroughputRecord {
    /// Aggregates per-run elapsed times (ms) for `ops` operations per run.
    pub fn from_runs(experiment: impl Into<String>, ops: u64, elapsed_ms: &[f64]) -> Self {
        let median = percentile(elapsed_ms, 0.5).unwrap_or(f64::NAN);
        ThroughputRecord {
            experiment: experiment.into(),
            ops,
            median_elapsed_ms: median,
            ops_per_sec: ops as f64 / (median / 1000.0),
            runs: elapsed_ms.len(),
            baseline_ops_per_sec: None,
            overhead_ns_per_op: None,
        }
    }

    /// Attaches the linear-scan baseline measured on the same workload.
    pub fn with_baseline(mut self, baseline_ops_per_sec: f64) -> Self {
        self.baseline_ops_per_sec = Some(baseline_ops_per_sec);
        self
    }

    /// Attaches the measured per-operation cost (ns) over the
    /// uninstrumented variant of the same workload.
    pub fn with_overhead(mut self, overhead_ns_per_op: f64) -> Self {
        self.overhead_ns_per_op = Some(overhead_ns_per_op);
        self
    }

    /// Speedup over the baseline, when one was measured.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ops_per_sec
            .map(|base| self.ops_per_sec / base)
    }
}

/// One scenario-matrix cell as persisted to `BENCH_results.json`: the
/// reliability measurement of one (driver, fault model, technique)
/// combination.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRecord {
    /// `simnet` or `tcp`.
    pub driver: String,
    /// Fault-model name (e.g. `early_reply`, `silent_drop`).
    pub fault: String,
    /// Technique label (e.g. `barrier-only`, `rum-general`).
    pub technique: String,
    /// Monitored switches in the run's topology: 3 for the classic bulk
    /// chain, 64/1,000 for the sharded scale rows.
    pub switches: u64,
    /// Rules in the plan.
    pub planned: u64,
    /// Rules confirmed by the horizon.
    pub confirmed: u64,
    /// Confirmations contradicted by the data-plane ground truth.
    pub false_acks: u64,
    /// Planned rules never confirmed.
    pub missed_acks: u64,
    /// `false_acks / planned`.
    pub false_ack_rate: f64,
    /// `missed_acks / planned`.
    pub missed_ack_rate: f64,
    /// Update completion time in ms, when the update completed.
    pub completion_ms: Option<f64>,
    /// False when the technique's soundness claim does not apply under this
    /// fault model (the cell was recorded with zero counts, not run).
    pub applicable: bool,
    /// Reconciliation verdict — present only on `restart_resync` cells: did
    /// the declarative resync restore the wiped table?
    pub resync: Option<ResyncVerdict>,
}

impl From<&MatrixCell> for MatrixRecord {
    fn from(c: &MatrixCell) -> Self {
        MatrixRecord {
            driver: c.driver.to_string(),
            fault: c.fault.clone(),
            technique: c.technique.clone(),
            switches: c.switches as u64,
            planned: c.planned as u64,
            confirmed: c.confirmed as u64,
            false_acks: c.false_acks as u64,
            missed_acks: c.missed_acks as u64,
            false_ack_rate: c.false_ack_rate(),
            missed_ack_rate: c.missed_ack_rate(),
            completion_ms: c.completion_ms,
            applicable: c.applicable,
            resync: c.resync,
        }
    }
}

/// One session-soak run as persisted to `BENCH_results.json`:
/// hundreds of concurrent tenant sessions multiplexed through `sessiond`
/// on one driver under one fault model, with ground-truth verdicts and
/// confirm-latency tail percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSoakRecord {
    /// `simnet` or `tcp`.
    pub driver: String,
    /// Fault-model name of the device under test (e.g. `early_reply`).
    pub fault: String,
    /// Monitored switches behind the proxy: 3 for the classic chain, 1,000
    /// for the sharded scale soak.
    pub switches: u64,
    /// Concurrently admitted tenant sessions.
    pub sessions: u64,
    /// Sessions that confirmed their whole plan inside the budget.
    pub completed: u64,
    /// Sessions aborted by their failure policy.
    pub aborted: u64,
    /// Modifications planned across all tenants.
    pub planned_mods: u64,
    /// Modifications confirmed across all tenants.
    pub confirmed_mods: u64,
    /// Confirmations contradicted by the data-plane ground truth.
    pub false_acks: u64,
    /// Planned modifications never confirmed inside the budget.
    pub missed_acks: u64,
    /// Acknowledgments the mux could not attribute to any tenant.
    pub stray_acks: u64,
    /// Median per-modification confirm latency (send → confirm), ms.
    pub p50_confirm_ms: f64,
    /// 99th-percentile confirm latency, ms.
    pub p99_confirm_ms: f64,
    /// 99.9th-percentile confirm latency, ms.
    pub p999_confirm_ms: f64,
    /// Span of the whole soak (submission → last confirmation), ms.
    pub wall_ms: f64,
}

/// `s` as a JSON string literal, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::new();
    telemetry::json::write_string(&mut out, s);
    out
}

fn json_num(v: f64) -> String {
    // JSON has no NaN/Infinity; represent missing data as null.
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// Renders the records as the `BENCH_results.json` document, schema 10
/// (handwritten JSON — the build environment has no serde).  A `results`
/// row is one end-to-end run: how long the technique took and whether the
/// update broke any flow, the paper's claim (`completion_ms` is null for an
/// update that never completed):
///
/// ```json
/// {
///   "schema": 10,
///   "results": [
///     {"experiment": "end_to_end/<technique>", "completion_ms": f|null,
///      "confirms": n, "drops": n, "max_broken_ms": f, "mean_update_ms": f}
///   ],
///   "throughput": [
///     {"experiment": "...", "ops": n, "median_elapsed_ms": f,
///      "ops_per_sec": f, "runs": n,
///      "baseline_ops_per_sec": f, "speedup": f,   // flow_mod_install/indexed_*
///      "overhead_ns_per_op": f}                   // telemetry_overhead/*
///   ],
///   "scenario_matrix": [
///     {"experiment": "scenario_matrix/<driver>/<fault>/<technique>",
///      "driver": "...", "fault": "...", "technique": "...",
///      "switches": n,
///      "planned": n, "confirmed": n, "false_acks": n, "missed_acks": n,
///      "false_ack_rate": f, "missed_ack_rate": f, "completion_ms": f|null,
///      "applicable": true|false,
///      "resync_converged": b, "resync_rounds": n,        // restart_resync
///      "resync_final_diff": n, "resync_delta_mods": n,   // rows only
///      "resync_table_matches": b}
///   ],
///   "session_soak": [
///     {"experiment": "session_soak/<driver>/<fault>",
///      "driver": "...", "fault": "...", "switches": n,
///      "sessions": n, "completed": n,
///      "aborted": n, "planned_mods": n, "confirmed_mods": n,
///      "false_acks": n, "missed_acks": n, "stray_acks": n,
///      "p50_confirm_ms": f, "p99_confirm_ms": f, "p999_confirm_ms": f,
///      "wall_ms": f}
///   ]
/// }
/// ```
pub fn results_json(
    end_to_end: &[EndToEndResult],
    throughput: &[ThroughputRecord],
    matrix: &[MatrixRecord],
    soak: &[SessionSoakRecord],
) -> String {
    let mut out = String::from("{\n  \"schema\": 10,\n  \"results\": [\n");
    for (i, r) in end_to_end.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"experiment\": {}, \"completion_ms\": {}, \
             \"confirms\": {}, \"drops\": {}, \"max_broken_ms\": {}, \"mean_update_ms\": {}}}{}\n",
            json_str(&format!("end_to_end/{}", r.technique)),
            json_num(r.controller_completion_ms.unwrap_or(f64::NAN)),
            r.confirmed_mods,
            r.total_drops,
            json_num(r.max_broken_ms()),
            json_num(r.mean_update_ms),
            if i + 1 < end_to_end.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"throughput\": [\n");
    for (i, r) in throughput.iter().enumerate() {
        let mut row = format!(
            "    {{\"experiment\": {}, \"ops\": {}, \"median_elapsed_ms\": {}, \
             \"ops_per_sec\": {}, \"runs\": {}",
            json_str(&r.experiment),
            r.ops,
            json_num(r.median_elapsed_ms),
            json_num(r.ops_per_sec),
            r.runs,
        );
        if let (Some(base), Some(speedup)) = (r.baseline_ops_per_sec, r.speedup()) {
            row.push_str(&format!(
                ", \"baseline_ops_per_sec\": {}, \"speedup\": {}",
                json_num(base),
                json_num(speedup)
            ));
        }
        if let Some(overhead) = r.overhead_ns_per_op {
            row.push_str(&format!(", \"overhead_ns_per_op\": {}", json_num(overhead)));
        }
        row.push_str(&format!(
            "}}{}\n",
            if i + 1 < throughput.len() { "," } else { "" }
        ));
        out.push_str(&row);
    }
    out.push_str("  ],\n  \"scenario_matrix\": [\n");
    for (i, r) in matrix.iter().enumerate() {
        let completion = match r.completion_ms {
            Some(v) => json_num(v),
            None => "null".into(),
        };
        let mut row = format!(
            "    {{\"experiment\": {}, \"driver\": {}, \"fault\": {}, \"technique\": {}, \
             \"switches\": {}, \"planned\": {}, \"confirmed\": {}, \"false_acks\": {}, \
             \"missed_acks\": {}, \"false_ack_rate\": {}, \"missed_ack_rate\": {}, \
             \"completion_ms\": {}, \"applicable\": {}",
            json_str(&format!(
                "scenario_matrix/{}/{}/{}",
                r.driver, r.fault, r.technique
            )),
            json_str(&r.driver),
            json_str(&r.fault),
            json_str(&r.technique),
            r.switches,
            r.planned,
            r.confirmed,
            r.false_acks,
            r.missed_acks,
            json_num(r.false_ack_rate),
            json_num(r.missed_ack_rate),
            completion,
            r.applicable,
        );
        if let Some(v) = &r.resync {
            row.push_str(&format!(
                ", \"resync_converged\": {}, \"resync_rounds\": {}, \"resync_final_diff\": {}, \
                 \"resync_delta_mods\": {}, \"resync_table_matches\": {}",
                v.converged, v.rounds, v.final_diff, v.delta_mods, v.table_matches,
            ));
        }
        row.push_str(&format!(
            "}}{}\n",
            if i + 1 < matrix.len() { "," } else { "" }
        ));
        out.push_str(&row);
    }
    out.push_str("  ],\n  \"session_soak\": [\n");
    for (i, r) in soak.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"experiment\": {}, \"driver\": {}, \"fault\": {}, \"switches\": {}, \
             \"sessions\": {}, \"completed\": {}, \"aborted\": {}, \"planned_mods\": {}, \
             \"confirmed_mods\": {}, \"false_acks\": {}, \"missed_acks\": {}, \
             \"stray_acks\": {}, \"p50_confirm_ms\": {}, \"p99_confirm_ms\": {}, \
             \"p999_confirm_ms\": {}, \"wall_ms\": {}}}{}\n",
            json_str(&format!("session_soak/{}/{}", r.driver, r.fault)),
            json_str(&r.driver),
            json_str(&r.fault),
            r.switches,
            r.sessions,
            r.completed,
            r.aborted,
            r.planned_mods,
            r.confirmed_mods,
            r.false_acks,
            r.missed_acks,
            r.stray_acks,
            json_num(r.p50_confirm_ms),
            json_num(r.p99_confirm_ms),
            json_num(r.p999_confirm_ms),
            json_num(r.wall_ms),
            if i + 1 < soak.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Percentile (0.0..=1.0) of a list of samples; returns `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[idx])
}

/// Renders a Table-1-style grid: rows = probing frequency, columns = window.
pub fn table1_grid(probe_batches: &[usize], windows: &[usize], normalized: &[Vec<f64>]) -> String {
    let mut out = String::from("probing frequency      ");
    for k in windows {
        out.push_str(&format!("K = {k:<7}"));
    }
    out.push('\n');
    for (row, batch) in probe_batches.iter().enumerate() {
        out.push_str(&format!("after {batch:<3} update(s)    "));
        for value in normalized[row].iter().take(windows.len()) {
            out.push_str(&format!("{:>5.0}%    ", value * 100.0));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::EndToEndResult;

    fn sample_result() -> EndToEndResult {
        EndToEndResult {
            technique: "test".into(),
            flows: vec![
                FlowRow {
                    flow: 0,
                    last_old_ms: 10.0,
                    update_time_ms: 20.0,
                    broken_ms: 10.0,
                },
                FlowRow {
                    flow: 1,
                    last_old_ms: 15.0,
                    update_time_ms: 300.0,
                    broken_ms: 285.0,
                },
            ],
            total_drops: 42,
            migrated_flows: 2,
            confirmed_mods: 4,
            controller_completion_ms: Some(400.0),
            mean_update_ms: 160.0,
        }
    }

    #[test]
    fn csv_contains_every_flow() {
        let csv = end_to_end_csv(&sample_result());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,"));
    }

    #[test]
    fn cdf_is_monotonically_non_increasing() {
        let cdf = broken_time_cdf(&sample_result(), 300.0, 50.0);
        let values: Vec<f64> = cdf
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(values.windows(2).all(|w| w[0] >= w[1]));
        assert!(
            (values[0] - 1.0).abs() < 1e-9,
            "all flows broken longer than 0 ms"
        );
    }

    #[test]
    fn summary_mentions_drops_and_technique() {
        let s = end_to_end_summary(&sample_result());
        assert!(s.contains("test"));
        assert!(s.contains("drops=42"));
    }

    #[test]
    fn activation_csv_is_sorted() {
        let samples = vec![
            ActivationSample {
                cookie: 1,
                delay_ms: 5.0,
            },
            ActivationSample {
                cookie: 2,
                delay_ms: -200.0,
            },
        ];
        let csv = activation_csv("barriers", &samples);
        let first_value: f64 = csv
            .lines()
            .nth(2)
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(first_value < 0.0);
    }

    #[test]
    fn results_json_is_well_formed() {
        let mut quoted = sample_result();
        quoted.technique = "barriers \"x\"".into();
        let mut stalled = sample_result();
        stalled.controller_completion_ms = None;
        let end_to_end = vec![quoted, stalled];
        let throughput = vec![
            ThroughputRecord::from_runs("flow_mod_install/indexed_1k", 1000, &[2.0, 4.0, 3.0])
                .with_baseline(1000.0),
            ThroughputRecord::from_runs("flow_mod_install/linear_1k", 1000, &[400.0]),
            ThroughputRecord::from_runs("telemetry_overhead/indexed_1k", 1000, &[3.1])
                .with_overhead(1.25),
        ];
        let matrix = vec![
            MatrixRecord {
                driver: "simnet".into(),
                fault: "early_reply".into(),
                technique: "barrier-only".into(),
                switches: 3,
                planned: 10,
                confirmed: 10,
                false_acks: 9,
                missed_acks: 0,
                false_ack_rate: 0.9,
                missed_ack_rate: 0.0,
                completion_ms: Some(812.5),
                applicable: true,
                resync: None,
            },
            MatrixRecord {
                driver: "tcp".into(),
                fault: "silent_drop".into(),
                technique: "rum-general".into(),
                switches: 1000,
                planned: 10,
                confirmed: 7,
                false_acks: 0,
                missed_acks: 3,
                false_ack_rate: 0.0,
                missed_ack_rate: 0.3,
                completion_ms: None,
                applicable: true,
                resync: None,
            },
            MatrixRecord {
                driver: "simnet".into(),
                fault: "restart_resync".into(),
                technique: "barrier-only".into(),
                switches: 3,
                planned: 10,
                confirmed: 10,
                false_acks: 4,
                missed_acks: 0,
                false_ack_rate: 0.4,
                missed_ack_rate: 0.0,
                completion_ms: Some(900.0),
                applicable: true,
                resync: Some(ResyncVerdict {
                    converged: true,
                    rounds: 2,
                    final_diff: 0,
                    delta_mods: 4,
                    table_matches: true,
                }),
            },
        ];
        let soak = vec![
            SessionSoakRecord {
                driver: "simnet".into(),
                fault: "early_reply".into(),
                switches: 3,
                sessions: 200,
                completed: 200,
                aborted: 0,
                planned_mods: 600,
                confirmed_mods: 600,
                false_acks: 0,
                missed_acks: 0,
                stray_acks: 0,
                p50_confirm_ms: 120.5,
                p99_confirm_ms: 410.25,
                p999_confirm_ms: 523.0,
                wall_ms: 9000.0,
            },
            SessionSoakRecord {
                driver: "tcp".into(),
                fault: "early_reply".into(),
                switches: 1000,
                sessions: 200,
                completed: 199,
                aborted: 0,
                planned_mods: 600,
                confirmed_mods: 597,
                false_acks: 0,
                missed_acks: 3,
                stray_acks: 0,
                p50_confirm_ms: 30.0,
                p99_confirm_ms: 95.0,
                p999_confirm_ms: f64::NAN,
                wall_ms: 4000.0,
            },
        ];
        let json = results_json(&end_to_end, &throughput, &matrix, &soak);
        assert!(json.contains("\"schema\": 10"));
        assert!(
            json.contains("\"switches\": 1000"),
            "rows carry the fleet size"
        );
        // A results row carries the paper's claim beside the completion time;
        // a run that never completed serialises its completion as null.
        let results: Vec<&str> = json.lines().filter(|l| l.contains("end_to_end/")).collect();
        assert!(
            results[0].contains("end_to_end/barriers \\\"x\\\""),
            "quotes must be escaped"
        );
        assert!(results[0].contains(
            "\"completion_ms\": 400.000, \"confirms\": 4, \"drops\": 42, \
             \"max_broken_ms\": 285.000, \"mean_update_ms\": 160.000}"
        ));
        assert!(results[1].contains("\"completion_ms\": null"));
        // 1000 ops over a 3 ms median = ~333,333 ops/sec, 333x the baseline.
        assert!(json.contains("\"ops\": 1000"));
        assert!(json.contains("\"median_elapsed_ms\": 3.000"));
        assert!(json.contains("\"ops_per_sec\": 333333.333"));
        assert!(json.contains("\"baseline_ops_per_sec\": 1000.000"));
        assert!(json.contains("\"speedup\": 333.333"));
        // The record without a baseline omits the speedup fields.
        let linear_row = json.lines().find(|l| l.contains("/linear_1k")).unwrap();
        assert!(!linear_row.contains("speedup"));
        assert!(!linear_row.contains("overhead_ns_per_op"));
        // The overhead row carries its measured per-op cost.
        let overhead_row = json
            .lines()
            .find(|l| l.contains("telemetry_overhead/"))
            .unwrap();
        assert!(overhead_row.contains("\"overhead_ns_per_op\": 1.250"));
        assert!(!overhead_row.contains("speedup"));
        // The matrix section carries rates, counts and the composed name.
        assert!(json.contains("scenario_matrix/simnet/early_reply/barrier-only"));
        assert!(json.contains("\"false_ack_rate\": 0.900"));
        assert!(json.contains("\"missed_ack_rate\": 0.300"));
        assert!(json.contains("\"completion_ms\": 812.500"));
        assert!(json.contains("\"completion_ms\": null"));
        assert!(json.contains("\"applicable\": true"));
        // Resync fields appear only on the restart_resync row.
        let resync_row = json.lines().find(|l| l.contains("restart_resync")).unwrap();
        assert!(resync_row.contains("\"resync_converged\": true"));
        assert!(resync_row.contains("\"resync_rounds\": 2"));
        assert!(resync_row.contains("\"resync_final_diff\": 0"));
        assert!(resync_row.contains("\"resync_delta_mods\": 4"));
        assert!(resync_row.contains("\"resync_table_matches\": true"));
        let plain_row = json.lines().find(|l| l.contains("early_reply/")).unwrap();
        assert!(!plain_row.contains("resync_"));
        // The soak section carries the composed name, the verdicts and the
        // tail percentiles (NaN serialises as null).
        assert!(json.contains("session_soak/simnet/early_reply"));
        assert!(json.contains("\"sessions\": 200"));
        assert!(json.contains("\"p999_confirm_ms\": 523.000"));
        assert!(json.contains("\"p999_confirm_ms\": null"));
        assert!(json.contains("\"stray_acks\": 0"));
        // One trailing comma-less record per section.
        assert_eq!(json.matches("},\n").count(), 6);
        // Every line is one record: no run of spaces after its indentation.
        for line in json.lines() {
            assert!(
                !line.trim_start().contains("  "),
                "stray spaces in {line:?}"
            );
        }
    }

    #[test]
    fn throughput_record_math() {
        let r = ThroughputRecord::from_runs("x", 500, &[5.0]);
        assert_eq!(r.median_elapsed_ms, 5.0);
        assert_eq!(r.ops_per_sec, 100_000.0);
        assert_eq!(r.speedup(), None);
        assert_eq!(r.overhead_ns_per_op, None);
        assert_eq!(r.clone().with_overhead(1.5).overhead_ns_per_op, Some(1.5));
        assert_eq!(r.with_baseline(10_000.0).speedup(), Some(10.0));
    }

    #[test]
    fn percentile_bounds() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn table_grid_has_all_cells() {
        let grid = table1_grid(&[1, 10], &[20, 100], &[vec![0.51, 0.51], vec![0.76, 0.94]]);
        assert!(grid.contains("after 1"));
        assert!(grid.contains("after 10"));
        assert!(grid.contains("94%"));
    }
}
