//! Validates a `BENCH_results.json` document against the one shape
//! `bench_results` writes — schema 10, described at
//! `rum_bench::report::results_json` — so CI catches a broken harness before
//! a stale or malformed results file lands.  Any other schema number is
//! rejected.
//!
//! Usage: `validate_results [path] [min_speedup] [max_overhead_ns]
//! [min_soak_sessions] [min_matrix_switches]` (defaults:
//! `BENCH_results.json`, no speedup floor, 35 ns per operation, ≥ 1 soak
//! session, no switch-count floor).
//!
//! * **End-to-end results.**  The paper's claim: the barrier baseline drops
//!   packets during the consistent update, and sequential probing, general
//!   probing and the 300 ms timeout drop none — all four rows must be there.
//!   Every row confirms the same, non-zero number of modifications (the
//!   whole plan), so no technique's row comes from a stalled run.
//! * **Throughput.**  Every `flow_mod_install/indexed_*` row carries a
//!   `speedup` over the linear-scan baseline, at least `min_speedup` when
//!   given.  Every `telemetry_overhead/*` row carries a finite
//!   `overhead_ns_per_op` below `max_overhead_ns`, and at least one such row
//!   exists — instrumentation that slows the hot path down (or silently
//!   stops being measured) fails the gate.  The default bar is 3% of the
//!   ~1.26 µs the proxy spends per relayed message on the repository
//!   benchmark's `wire_blast` workload, the path these metric operations sit
//!   on.
//! * **Scenario matrix.**  Rows carry their fleet size (`switches`), finite
//!   false-ack/missed-ack rates inside `[0, 1]`, internally consistent
//!   counts and a boolean `applicable`; not-applicable rows are all-zero
//!   placeholders.  **Both** drivers must carry an applicable `restart` row,
//!   and an applicable `restart_resync` row whose verdict proves the wiped
//!   table was restored (`resync_converged`, `resync_final_diff == 0`,
//!   `resync_table_matches`); the verdict fields are rejected anywhere else.
//!   When `min_matrix_switches` is given, both drivers must carry an
//!   applicable probing (`rum-*`) row with zero false acks at at least that
//!   many switches — the 1,000-switch regression gate.
//! * **Session soak.**  Both drivers must be present; every row carries
//!   **zero false acks**, zero stray acks, a complete tenant population
//!   (`completed == sessions`, zero missed acks), finite tail percentiles
//!   (p50 ≤ p99 ≤ p99.9) and at least `min_soak_sessions` concurrent
//!   sessions; with `min_matrix_switches`, a TCP row at that fleet size.
//!
//! The build environment has no serde; the document is read with the
//! workspace's one hand-rolled parser, `telemetry::json`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use telemetry::json::{self, Value as Json};

/// The one schema `bench_results` writes and this validator accepts.
const SCHEMA: i64 = 10;

/// The `results` rows the paper's claim rests on, and whether each drops
/// packets: trusting barriers breaks flows; waiting for a probe, or long
/// enough, does not.
const CLAIM: [(&str, bool); 4] = [
    ("end_to_end/barriers (baseline)", true),
    ("end_to_end/sequential", false),
    ("end_to_end/general", false),
    ("end_to_end/timeout 300ms", false),
];

const DRIVERS: [&str; 2] = ["simnet", "tcp"];

type Obj = BTreeMap<String, Json>;

fn get<'a>(obj: &'a Obj, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key \"{key}\""))
}

fn num(obj: &Obj, key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::Null => Ok(f64::NAN), // latency of an incomplete run
        other => other
            .as_f64()
            .ok_or_else(|| format!("\"{key}\" is not a number: {other:?}")),
    }
}

fn string<'a>(obj: &'a Obj, key: &str) -> Result<&'a str, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("\"{key}\" is not a string: {other:?}")),
    }
}

fn boolean(obj: &Obj, key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("\"{key}\" is not a boolean: {other:?}")),
    }
}

/// A count: a finite, non-negative integer-valued number.
fn count(obj: &Obj, key: &str) -> Result<u64, String> {
    let v = num(obj, key)?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 {
        return Err(format!("\"{key}\" is not a non-negative count: {v}"));
    }
    Ok(v as u64)
}

/// A rate: finite and inside `[0, 1]` — NaN (serialised as null) and
/// negative values are rejected.
fn rate(obj: &Obj, key: &str) -> Result<f64, String> {
    let v = num(obj, key)?;
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(format!("\"{key}\" is not a rate in [0, 1]: {v}"));
    }
    Ok(v)
}

/// The `driver` of a matrix or soak row: one of [`DRIVERS`].
fn driver(row: &Obj) -> Result<&str, String> {
    let driver = string(row, "driver")?;
    if !DRIVERS.contains(&driver) {
        return Err(format!("unknown driver \"{driver}\""));
    }
    Ok(driver)
}

/// The fleet size a matrix or soak row ran against.
fn switches(row: &Obj) -> Result<u64, String> {
    match count(row, "switches")? {
        0 => Err("\"switches\" must be at least 1".into()),
        n => Ok(n),
    }
}

/// Runs `check` over every row of the top-level array `key`, prefixing its
/// errors with the row's position; returns the row count.
fn each_row<'a>(
    root: &'a Obj,
    key: &str,
    mut check: impl FnMut(&'a Obj) -> Result<(), String>,
) -> Result<usize, String> {
    let Json::Arr(rows) = get(root, key)? else {
        return Err(format!("\"{key}\" is not an array"));
    };
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(row) = row else {
            return Err(format!("{key}[{i}] is not an object"));
        };
        check(row).map_err(|e| format!("{key}[{i}]: {e}"))?;
    }
    Ok(rows.len())
}

/// Fails unless `seen` covers both drivers; `what` names the missing rows.
fn require_both_drivers(seen: &[&str], what: &str) -> Result<(), String> {
    match DRIVERS.iter().find(|d| !seen.contains(d)) {
        Some(missing) => Err(format!("no {what} on driver \"{missing}\"")),
        None => Ok(()),
    }
}

/// Which drivers' rows proved each load-bearing matrix claim.
#[derive(Default)]
struct MatrixCoverage<'a> {
    restart: Vec<&'a str>,
    resync: Vec<&'a str>,
    /// A zero-false-ack probing run at the required fleet size.
    scale: Vec<&'a str>,
}

fn validate_matrix_row<'a>(
    row: &'a Obj,
    min_switches: u64,
    cover: &mut MatrixCoverage<'a>,
) -> Result<(), String> {
    let driver = driver(row)?;
    let fault = string(row, "fault")?;
    let technique = string(row, "technique")?;
    string(row, "experiment")?;
    let switches = switches(row)?;
    let planned = count(row, "planned")?;
    let confirmed = count(row, "confirmed")?;
    let false_acks = count(row, "false_acks")?;
    let missed_acks = count(row, "missed_acks")?;
    let false_rate = rate(row, "false_ack_rate")?;
    let missed_rate = rate(row, "missed_ack_rate")?;
    if confirmed > planned || false_acks > planned || missed_acks > planned {
        return Err(format!("counts exceed the plan size {planned}"));
    }
    if confirmed + missed_acks != planned {
        return Err(format!(
            "confirmed ({confirmed}) + missed ({missed_acks}) != planned ({planned})"
        ));
    }
    // A false ack is by definition a confirmation.
    if false_acks > confirmed {
        return Err(format!(
            "false_acks ({false_acks}) exceed confirmed ({confirmed})"
        ));
    }
    // completion_ms is optional-null but must be a finite number if set.
    let completion_is_null = match get(row, "completion_ms")? {
        Json::Null => true,
        v if v.as_f64().is_some_and(|v| v.is_finite() && v >= 0.0) => false,
        other => return Err(format!("bad completion_ms {other:?}")),
    };
    // A not-applicable cell was never run and must be an all-zero
    // placeholder.
    let applicable = boolean(row, "applicable")?;
    if !applicable
        && (planned != 0 || false_rate != 0.0 || missed_rate != 0.0 || !completion_is_null)
    {
        return Err(format!(
            "not-applicable cell carries measurements (planned {planned}, \
             rates {false_rate}/{missed_rate}, completion null: {completion_is_null})"
        ));
    }
    if applicable && fault == "restart" {
        cover.restart.push(driver);
    }
    // The declarative-resync verdict.  Applicable restart_resync rows must
    // prove the wiped table was restored; the fields are rejected anywhere
    // else (other faults, never-run cells).
    if row.keys().any(|k| k.starts_with("resync_")) {
        if fault != "restart_resync" {
            return Err("resync fields are only valid on restart_resync rows".into());
        }
        if !applicable {
            return Err("not-applicable cell carries resync fields".into());
        }
        let converged = boolean(row, "resync_converged")?;
        let rounds = count(row, "resync_rounds")?;
        let final_diff = count(row, "resync_final_diff")?;
        count(row, "resync_delta_mods")?;
        let table_matches = boolean(row, "resync_table_matches")?;
        if !converged || rounds == 0 || final_diff != 0 || !table_matches {
            return Err(format!(
                "resync failed to restore the table (converged {converged}, \
                 rounds {rounds}, final_diff {final_diff}, table_matches {table_matches})"
            ));
        }
        cover.resync.push(driver);
    } else if fault == "restart_resync" && applicable {
        return Err("applicable restart_resync row is missing its resync verdict".into());
    }
    if applicable && technique.starts_with("rum-") && false_acks == 0 && switches >= min_switches {
        cover.scale.push(driver);
    }
    Ok(())
}

fn validate_matrix(root: &Obj, min_switches: u64) -> Result<usize, String> {
    let mut cover = MatrixCoverage::default();
    let rows = each_row(root, "scenario_matrix", |row| {
        validate_matrix_row(row, min_switches, &mut cover)
    })?;
    // Restart survival and resync-after-restart are load-bearing claims: a
    // results file that silently dropped either column on either driver is
    // stale or produced by a broken harness.
    require_both_drivers(&cover.restart, "applicable restart row")?;
    require_both_drivers(&cover.resync, "converged restart_resync row")?;
    // The scale gate: when a switch-count floor is demanded, both drivers
    // must have proved a zero-false-ack probing run at (at least) that fleet
    // size, or the sharded proxy's headline claim is stale.
    if min_switches > 0 {
        require_both_drivers(
            &cover.scale,
            &format!("applicable zero-false-ack probing row with switches >= {min_switches}"),
        )?;
    }
    Ok(rows)
}

/// One `session_soak` row; returns its driver and fleet size.
fn validate_soak_row(row: &Obj, min_sessions: u64) -> Result<(&str, u64), String> {
    let driver = driver(row)?;
    string(row, "fault")?;
    string(row, "experiment")?;
    let switches = switches(row)?;
    let sessions = count(row, "sessions")?;
    let completed = count(row, "completed")?;
    let aborted = count(row, "aborted")?;
    let planned = count(row, "planned_mods")?;
    let confirmed = count(row, "confirmed_mods")?;
    let false_acks = count(row, "false_acks")?;
    let missed_acks = count(row, "missed_acks")?;
    let stray_acks = count(row, "stray_acks")?;
    if sessions < min_sessions {
        return Err(format!(
            "only {sessions} concurrent sessions, required >= {min_sessions}"
        ));
    }
    if completed + aborted > sessions || confirmed > planned {
        return Err("counts exceed the population".into());
    }
    if confirmed + missed_acks != planned {
        return Err(format!(
            "confirmed ({confirmed}) + missed ({missed_acks}) != planned ({planned})"
        ));
    }
    // The soak's load-bearing claims: probing never lies, and the whole
    // tenant population finishes inside the budget.
    if false_acks > 0 {
        return Err(format!("{false_acks} false acks (must be 0)"));
    }
    if completed != sessions || missed_acks > 0 {
        return Err(format!(
            "incomplete soak ({completed}/{sessions} sessions, {missed_acks} missed acks)"
        ));
    }
    if stray_acks > 0 {
        return Err(format!("{stray_acks} stray acks (must be 0)"));
    }
    let p50 = num(row, "p50_confirm_ms")?;
    let p99 = num(row, "p99_confirm_ms")?;
    let p999 = num(row, "p999_confirm_ms")?;
    let wall = num(row, "wall_ms")?;
    for (name, v) in [("p50", p50), ("p99", p99), ("p99.9", p999), ("wall", wall)] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("non-finite {name}_confirm_ms {v}"));
        }
    }
    if !(p50 <= p99 && p99 <= p999) {
        return Err(format!(
            "percentiles not monotone (p50 {p50}, p99 {p99}, p99.9 {p999})"
        ));
    }
    Ok((driver, switches))
}

/// The `session_soak` section: the multi-tenant soak's verdicts must hold on
/// both drivers or the gate fails.
fn validate_soak(root: &Obj, min_sessions: u64, min_switches: u64) -> Result<usize, String> {
    let mut drivers: Vec<&str> = Vec::new();
    // The largest fleet a clean TCP soak ran against.
    let mut tcp_scale: u64 = 0;
    let rows = each_row(root, "session_soak", |row| {
        let (driver, switches) = validate_soak_row(row, min_sessions)?;
        drivers.push(driver);
        if driver == "tcp" {
            tcp_scale = tcp_scale.max(switches);
        }
        Ok(())
    })?;
    require_both_drivers(&drivers, "session_soak row")?;
    // The scale gate: the soak must have run over the sharded proxy at (at
    // least) the demanded fleet size on the real-socket driver.  Every row
    // already passed the zero-false/missed/stray gates above, so reaching
    // the floor is the only remaining claim.
    if tcp_scale < min_switches {
        return Err(format!(
            "no tcp session_soak row with switches >= {min_switches} (largest: {tcp_scale})"
        ));
    }
    Ok(rows)
}

/// The `results` section: one end-to-end run per technique.
fn validate_end_to_end(root: &Obj) -> Result<usize, String> {
    let mut confirms = None;
    let mut seen = Vec::new();
    let rows = each_row(root, "results", |row| {
        let name = string(row, "experiment")?;
        num(row, "completion_ms")?;
        num(row, "max_broken_ms")?;
        num(row, "mean_update_ms")?;
        let drops = count(row, "drops")?;
        let confirmed = count(row, "confirms")?;
        let first = *confirms.get_or_insert(confirmed);
        if confirmed == 0 || confirmed != first {
            return Err(format!(
                "{name} confirms {confirmed} (first row: {first}): every technique \
                 must confirm the whole plan"
            ));
        }
        if let Some(&(_, lossy)) = CLAIM.iter().find(|(claimed, _)| *claimed == name) {
            if lossy != (drops > 0) {
                let claim = if lossy { "some" } else { "none" };
                return Err(format!(
                    "{name} dropped {drops} packets, the claim: {claim}"
                ));
            }
        }
        seen.push(name);
        Ok(())
    })?;
    match CLAIM.iter().find(|(name, _)| !seen.contains(name)) {
        Some((missing, _)) => Err(format!("no results row \"{missing}\"")),
        None => Ok(rows),
    }
}

fn validate_throughput(
    root: &Obj,
    min_speedup: f64,
    max_overhead_ns: f64,
) -> Result<usize, String> {
    let mut install_rows = 0usize;
    let mut overhead_rows = 0usize;
    let rows = each_row(root, "throughput", |row| {
        let name = string(row, "experiment")?;
        num(row, "ops")?;
        num(row, "runs")?;
        let elapsed = num(row, "median_elapsed_ms")?;
        let ops_per_sec = num(row, "ops_per_sec")?;
        if !elapsed.is_finite() || !ops_per_sec.is_finite() || ops_per_sec <= 0.0 {
            return Err(format!("{name} has non-finite measurements"));
        }
        if name.starts_with("flow_mod_install/indexed") {
            install_rows += 1;
            let speedup = num(row, "speedup")?;
            if !speedup.is_finite() || speedup <= 0.0 {
                return Err(format!("{name}: bad speedup {speedup}"));
            }
            if speedup < min_speedup {
                return Err(format!(
                    "{name}: speedup {speedup:.1}x below the required {min_speedup}x"
                ));
            }
        }
        // Telemetry rows carry the measured per-operation cost of the
        // instrumented hot path and must stay under the bar.
        if name.starts_with("telemetry_overhead/") {
            overhead_rows += 1;
            let overhead = num(row, "overhead_ns_per_op")?;
            if !overhead.is_finite() {
                return Err(format!("{name}: bad overhead_ns_per_op {overhead}"));
            }
            if overhead >= max_overhead_ns {
                return Err(format!(
                    "{name}: telemetry overhead {overhead:.1} ns/op is at or above the \
                     allowed {max_overhead_ns} ns/op"
                ));
            }
        } else if row.contains_key("overhead_ns_per_op") {
            return Err(format!("{name}: unexpected overhead_ns_per_op field"));
        }
        Ok(())
    })?;
    if install_rows == 0 {
        return Err("no flow_mod_install/indexed_* throughput row".into());
    }
    if overhead_rows == 0 {
        return Err("no telemetry_overhead/* throughput row".into());
    }
    Ok(rows)
}

fn validate(
    doc: &Json,
    min_speedup: f64,
    max_overhead_ns: f64,
    min_soak_sessions: u64,
    min_matrix_switches: u64,
) -> Result<(usize, usize, usize, usize), String> {
    let Json::Obj(root) = doc else {
        return Err("document root is not an object".into());
    };
    match get(root, "schema")? {
        Json::Int(SCHEMA) => {}
        other => return Err(format!("schema must be {SCHEMA}, got {other:?}")),
    }
    let end_to_end_rows = validate_end_to_end(root)?;
    let throughput_rows = validate_throughput(root, min_speedup, max_overhead_ns)?;
    let matrix_rows = validate_matrix(root, min_matrix_switches)?;
    let soak_rows = validate_soak(root, min_soak_sessions, min_matrix_switches)?;
    Ok((end_to_end_rows, throughput_rows, matrix_rows, soak_rows))
}

/// Validates the file named by `args`; returns the summary to print.
fn run(args: &[String]) -> Result<String, String> {
    let path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_results.json");
    let min_speedup: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let max_overhead_ns: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(35.0);
    let min_soak_sessions: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(1);
    let min_matrix_switches: u64 = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(0);

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let (end_to_end, throughput, matrix, soak) = validate(
        &doc,
        min_speedup,
        max_overhead_ns,
        min_soak_sessions,
        min_matrix_switches,
    )
    .map_err(|e| format!("{path} failed validation: {e}"))?;
    Ok(format!(
        "{path} OK ({end_to_end} end-to-end rows, {throughput} throughput rows, \
         {matrix} scenario-matrix rows, {soak} session-soak rows)"
    ))
}

fn main() -> ExitCode {
    match run(&std::env::args().collect::<Vec<_>>()) {
        Ok(summary) => {
            println!("validate_results: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_results: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    //! Every test edits one well-formed schema-10 document.  Test names that
    //! carry a schema number name the schema that introduced the gate, or —
    //! `only_schema_9_is_accepted`, `well_formed_schema_9_document_is_accepted`
    //! — the one accepted when they were written; they are unchanged because
    //! the repository's test floor tracks tests by name.

    use super::*;

    /// A well-formed document, one row per line as `results_json` writes it,
    /// so a test can address a row by any text unique to its line.  The
    /// `silent_drop` row is a stalled cell: missed acks, null completion.
    const GOOD: &str = r#"{
      "schema": 10,
      "results": [
        {"experiment": "end_to_end/barriers (baseline)", "completion_ms": 166.9, "confirms": 80, "drops": 2343, "max_broken_ms": 288.0, "mean_update_ms": 330.5},
        {"experiment": "end_to_end/timeout 300ms", "completion_ms": 766.9, "confirms": 80, "drops": 0, "max_broken_ms": 4.0, "mean_update_ms": 470.2},
        {"experiment": "end_to_end/sequential", "completion_ms": 401.4, "confirms": 80, "drops": 0, "max_broken_ms": 4.0, "mean_update_ms": 333.1},
        {"experiment": "end_to_end/general", "completion_ms": 404.4, "confirms": 80, "drops": 0, "max_broken_ms": 4.0, "mean_update_ms": 333.9}
      ],
      "throughput": [
        {"experiment": "telemetry_overhead/indexed_10", "ops": 10, "median_elapsed_ms": 1.02, "ops_per_sec": 9800.0, "runs": 9, "overhead_ns_per_op": 11.0},
        {"experiment": "flow_mod_install/indexed_10", "ops": 10, "median_elapsed_ms": 1.0, "ops_per_sec": 10000.0, "runs": 9, "baseline_ops_per_sec": 100.0, "speedup": 100.0}
      ],
      "scenario_matrix": [
        {"experiment": "scenario_matrix/simnet/early_reply/barrier-only", "driver": "simnet", "fault": "early_reply", "technique": "barrier-only", "switches": 3, "planned": 8, "confirmed": 8, "false_acks": 8, "missed_acks": 0, "false_ack_rate": 1.0, "missed_ack_rate": 0.0, "completion_ms": 812.5, "applicable": true},
        {"experiment": "scenario_matrix/tcp/silent_drop/rum-general", "driver": "tcp", "fault": "silent_drop", "technique": "rum-general", "switches": 3, "planned": 8, "confirmed": 5, "false_acks": 0, "missed_acks": 3, "false_ack_rate": 0.0, "missed_ack_rate": 0.375, "completion_ms": null, "applicable": true},
        {"experiment": "scenario_matrix/simnet/restart/rum-general", "driver": "simnet", "fault": "restart", "technique": "rum-general", "switches": 3, "planned": 8, "confirmed": 8, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": 900.0, "applicable": true},
        {"experiment": "scenario_matrix/tcp/restart/rum-general", "driver": "tcp", "fault": "restart", "technique": "rum-general", "switches": 3, "planned": 8, "confirmed": 8, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": 900.0, "applicable": true},
        {"experiment": "scenario_matrix/simnet/restart_resync/rum-general", "driver": "simnet", "fault": "restart_resync", "technique": "rum-general", "switches": 3, "planned": 8, "confirmed": 8, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": 950.0, "applicable": true, "resync_converged": true, "resync_rounds": 2, "resync_final_diff": 0, "resync_delta_mods": 4, "resync_table_matches": true},
        {"experiment": "scenario_matrix/tcp/restart_resync/rum-general", "driver": "tcp", "fault": "restart_resync", "technique": "rum-general", "switches": 3, "planned": 8, "confirmed": 8, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": 950.0, "applicable": true, "resync_converged": true, "resync_rounds": 2, "resync_final_diff": 0, "resync_delta_mods": 4, "resync_table_matches": true},
        {"experiment": "scenario_matrix/simnet/early_reply/rum-general", "driver": "simnet", "fault": "early_reply", "technique": "rum-general", "switches": 1000, "planned": 2000, "confirmed": 2000, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": 281.0, "applicable": true},
        {"experiment": "scenario_matrix/tcp/early_reply/rum-general", "driver": "tcp", "fault": "early_reply", "technique": "rum-general", "switches": 1000, "planned": 2000, "confirmed": 2000, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": 342.0, "applicable": true},
        {"experiment": "scenario_matrix/simnet/early_reply_reordering/rum-sequential", "driver": "simnet", "fault": "early_reply_reordering", "technique": "rum-sequential", "switches": 3, "planned": 0, "confirmed": 0, "false_acks": 0, "missed_acks": 0, "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "completion_ms": null, "applicable": false}
      ],
      "session_soak": [
        {"experiment": "session_soak/tcp/early_reply", "driver": "tcp", "fault": "early_reply", "switches": 3, "sessions": 200, "completed": 200, "aborted": 0, "planned_mods": 600, "confirmed_mods": 600, "false_acks": 0, "missed_acks": 0, "stray_acks": 0, "p50_confirm_ms": 40.0, "p99_confirm_ms": 180.0, "p999_confirm_ms": 910.0, "wall_ms": 2500.0},
        {"experiment": "session_soak/tcp/early_reply", "driver": "tcp", "fault": "early_reply", "switches": 1000, "sessions": 200, "completed": 200, "aborted": 0, "planned_mods": 600, "confirmed_mods": 600, "false_acks": 0, "missed_acks": 0, "stray_acks": 0, "p50_confirm_ms": 40.0, "p99_confirm_ms": 180.0, "p999_confirm_ms": 910.0, "wall_ms": 2500.0},
        {"experiment": "session_soak/simnet/early_reply", "driver": "simnet", "fault": "early_reply", "switches": 3, "sessions": 200, "completed": 200, "aborted": 0, "planned_mods": 600, "confirmed_mods": 600, "false_acks": 0, "missed_acks": 0, "stray_acks": 0, "p50_confirm_ms": 40.0, "p99_confirm_ms": 180.0, "p999_confirm_ms": 523.0, "wall_ms": 2500.0}
      ]
    }"#;

    // Text unique to one fixture row each.
    const BARRIERS_ROW: &str = "barriers (baseline)";
    const GENERAL_ROW: &str = "end_to_end/general";
    const BARRIER_ROW: &str = "early_reply/barrier-only";
    const NA_ROW: &str = "early_reply_reordering/rum-sequential";
    const RESTART_TCP: &str = "tcp/restart/";
    const RESYNC_SIMNET: &str = "simnet/restart_resync/";
    const RESYNC_TCP: &str = "tcp/restart_resync/";
    const SCALE_TCP: &str = "tcp/early_reply/rum-general";
    const SOAK_SIMNET: &str = "session_soak/simnet/";
    const SOAK_TCP_FLEET: &str = "\"switches\": 1000, \"sessions\"";
    const INSTALL_ROW: &str = "flow_mod_install/indexed_10";
    const OVERHEAD_ROW: &str = "telemetry_overhead/indexed_10";

    /// `text` with `from` replaced by `to` on the one line containing `row`.
    fn replace(text: &str, row: &str, from: &str, to: &str) -> String {
        let mut hits = 0;
        let lines: Vec<String> = text
            .lines()
            .map(|l| match l.contains(row) && l.contains(from) {
                true => {
                    hits += 1;
                    l.replace(from, to)
                }
                false => l.to_string(),
            })
            .collect();
        assert_eq!(hits, 1, "{row:?} with {from:?} is not one fixture line");
        lines.join("\n")
    }

    /// `text` with each `(key, old, new)` applied to the line containing
    /// `row`: the field `"key": old` becomes `"key": new`.
    fn set(text: &str, row: &str, fields: &[(&str, &str, &str)]) -> String {
        fields
            .iter()
            .fold(text.to_string(), |text, (key, old, new)| {
                let (from, to) = (format!("\"{key}\": {old}"), format!("\"{key}\": {new}"));
                replace(&text, row, &from, &to)
            })
    }

    /// `text` without the one line containing `row` (never a section's last
    /// row, whose predecessor would be left with a dangling comma).
    fn without(text: &str, row: &str) -> String {
        let kept: Vec<&str> = text.lines().filter(|l| !l.contains(row)).collect();
        assert_eq!(kept.len() + 1, text.lines().count(), "{row:?} not unique");
        kept.join("\n")
    }

    type Verdict = Result<(usize, usize, usize, usize), String>;

    fn gate(text: &str, speedup: f64, max_ns: f64, sessions: u64, fleet: u64) -> Verdict {
        let doc = json::parse(text).expect("valid JSON");
        validate(&doc, speedup, max_ns, sessions, fleet)
    }

    /// Validates with the defaults: no speedup floor, the 35 ns bar, one
    /// session, no fleet floor.
    fn check(text: &str) -> Verdict {
        gate(text, 0.0, 35.0, 1, 0)
    }

    /// Asserts the verdict is an error mentioning every one of `needles`.
    fn assert_rejected(verdict: Verdict, needles: &[&str]) {
        let err = verdict.expect_err("must be rejected");
        for needle in needles {
            assert!(err.contains(needle), "{needle:?} not in: {err}");
        }
    }

    #[test]
    fn well_formed_schema_9_document_is_accepted() {
        assert_eq!(check(GOOD), Ok((4, 2, 9, 3)));
        // With every floor the committed file is held to.
        assert_eq!(gate(GOOD, 10.0, 35.0, 200, 1000), Ok((4, 2, 9, 3)));
    }

    #[test]
    fn only_schema_9_is_accepted() {
        for other in ["9", "11", "\"10\""] {
            let text = GOOD.replace("\"schema\": 10", &format!("\"schema\": {other}"));
            assert_rejected(check(&text), &["schema must be 10"]);
        }
        let unversioned = GOOD.replace("\"schema\": 10,", "");
        assert_rejected(check(&unversioned), &["missing key \"schema\""]);
    }

    #[test]
    fn barrier_baseline_that_drops_nothing_is_rejected() {
        let lossless = set(GOOD, BARRIERS_ROW, &[("drops", "2343", "0")]);
        assert_rejected(check(&lossless), &["results[0]", "dropped 0 packets"]);
    }

    #[test]
    fn probing_or_timeout_rows_that_drop_packets_are_rejected() {
        for row in ["timeout 300ms", "end_to_end/sequential", GENERAL_ROW] {
            let lossy = set(GOOD, row, &[("drops", "0", "7")]);
            assert_rejected(check(&lossy), &[row, "dropped 7 packets"]);
        }
    }

    #[test]
    fn results_rows_must_agree_on_a_nonzero_confirm_count() {
        let stalled = set(GOOD, GENERAL_ROW, &[("confirms", "80", "79")]);
        assert_rejected(check(&stalled), &["results[3]", "confirms 79"]);
        let nothing = GOOD.replace("\"confirms\": 80", "\"confirms\": 0");
        assert_rejected(check(&nothing), &["results[0]", "confirms 0"]);
    }

    #[test]
    fn results_rows_the_claim_rests_on_must_be_present() {
        for row in [BARRIERS_ROW, "end_to_end/sequential"] {
            assert_rejected(check(&without(GOOD, row)), &["no results row", row]);
        }
    }

    #[test]
    fn nan_and_out_of_range_rates_are_rejected() {
        // NaN serialises as null; num() maps it back to NaN -> rejected.
        for field in [
            ("false_ack_rate", "1.0", "null"),
            ("false_ack_rate", "1.0", "-0.2"),
            ("missed_ack_rate", "0.0", "1.5"),
        ] {
            assert_rejected(check(&set(GOOD, BARRIER_ROW, &[field])), &[field.0]);
        }
    }

    #[test]
    fn inconsistent_counts_are_rejected() {
        let too_many = set(GOOD, BARRIER_ROW, &[("false_acks", "8", "9")]);
        assert_rejected(check(&too_many), &["exceed the plan size"]);
        let mismatch = set(GOOD, BARRIER_ROW, &[("confirmed", "8", "7")]);
        assert_rejected(check(&mismatch), &["!= planned"]);
        // More false acks than confirmations is nonsensical: a false ack is
        // a (mis)issued confirmation.
        let phantom = set(
            GOOD,
            BARRIER_ROW,
            &[("confirmed", "8", "5"), ("missed_acks", "0", "3")],
        );
        assert_rejected(check(&phantom), &["exceed confirmed"]);
    }

    #[test]
    fn schema_4_rows_must_carry_the_applicable_flag() {
        let missing = replace(GOOD, BARRIER_ROW, ", \"applicable\": true", "");
        assert_rejected(check(&missing), &["missing key \"applicable\""]);
        let mistyped = set(GOOD, BARRIER_ROW, &[("applicable", "true", "1")]);
        assert_rejected(check(&mistyped), &["\"applicable\" is not a boolean"]);
    }

    #[test]
    fn not_applicable_rows_must_be_zero_placeholders() {
        let loaded = set(GOOD, BARRIER_ROW, &[("applicable", "true", "false")]);
        assert_rejected(check(&loaded), &["not-applicable"]);
        // Zero counts are not enough: a smuggled rate or completion time on
        // a never-run cell is rejected too.
        for field in [
            ("false_ack_rate", "0.0", "0.9"),
            ("missed_ack_rate", "0.0", "0.5"),
            ("completion_ms", "null", "50.0"),
        ] {
            assert_rejected(check(&set(GOOD, NA_ROW, &[field])), &["not-applicable"]);
        }
    }

    #[test]
    fn schema_4_missing_a_restart_driver_is_rejected() {
        let simnet_only = without(GOOD, RESTART_TCP);
        assert_rejected(check(&simnet_only), &["restart row", "tcp"]);
        // A not-applicable restart row does not count as coverage.
        let na_restart = set(
            &simnet_only,
            NA_ROW,
            &[
                ("driver", "\"simnet\"", "\"tcp\""),
                ("fault", "\"early_reply_reordering\"", "\"restart\""),
            ],
        );
        assert_rejected(check(&na_restart), &["restart row", "tcp"]);
    }

    #[test]
    fn schema_7_missing_a_resync_driver_is_rejected() {
        let simnet_only = without(GOOD, RESYNC_TCP);
        assert_rejected(check(&simnet_only), &["restart_resync row", "tcp"]);
    }

    #[test]
    fn unconverged_resync_is_rejected() {
        for field in [
            ("resync_converged", "true", "false"),
            ("resync_final_diff", "0", "2"),
            ("resync_table_matches", "true", "false"),
            ("resync_rounds", "2", "0"),
        ] {
            let text = set(GOOD, RESYNC_SIMNET, &[field]);
            assert_rejected(check(&text), &["failed to restore"]);
        }
    }

    /// The verdict fields of a fixture `restart_resync` row.
    const RESYNC_VERDICT: &str = ", \"resync_converged\": true, \"resync_rounds\": 2, \
        \"resync_final_diff\": 0, \"resync_delta_mods\": 4, \"resync_table_matches\": true";

    #[test]
    fn schema_7_resync_row_without_verdict_is_rejected() {
        // An applicable restart_resync row that dropped its verdict fields
        // is a broken harness, not a passing gate.
        let bare = replace(GOOD, RESYNC_SIMNET, RESYNC_VERDICT, "");
        assert_rejected(check(&bare), &["missing its resync verdict"]);
    }

    #[test]
    fn resync_fields_are_only_valid_on_restart_resync_rows() {
        let on_restart = replace(GOOD, RESTART_TCP, "}", &format!("{RESYNC_VERDICT}}}"));
        assert_rejected(check(&on_restart), &["only valid on restart_resync"]);
        let never_run = set(
            GOOD,
            RESYNC_SIMNET,
            &[
                ("planned", "8", "0"),
                ("confirmed", "8", "0"),
                ("completion_ms", "950.0", "null"),
                ("applicable", "true", "false"),
            ],
        );
        assert_rejected(check(&never_run), &["carries resync fields"]);
    }

    #[test]
    fn schema_8_rows_must_carry_switches() {
        // A matrix row, then a soak row, that lost its fleet size.
        for row in [BARRIER_ROW, SOAK_SIMNET] {
            let missing = replace(GOOD, row, "\"switches\": 3, ", "");
            assert_rejected(check(&missing), &["missing key \"switches\""]);
            let zero = set(GOOD, row, &[("switches", "3", "0")]);
            assert_rejected(check(&zero), &["at least 1"]);
        }
    }

    #[test]
    fn matrix_switch_floor_demands_both_drivers_at_scale() {
        // Only the simnet scale row clears the floor: the tcp gate trips.
        let small = set(GOOD, SCALE_TCP, &[("switches", "1000", "64")]);
        assert_rejected(
            gate(&small, 0.0, 35.0, 1, 1000),
            &["switches >= 1000", "tcp"],
        );
        // A scale row with a false ack does not count as coverage.
        let lying = set(
            GOOD,
            SCALE_TCP,
            &[
                ("false_acks", "0", "1"),
                ("false_ack_rate", "0.0", "0.0005"),
            ],
        );
        assert_rejected(
            gate(&lying, 0.0, 35.0, 1, 1000),
            &["switches >= 1000", "tcp"],
        );
    }

    #[test]
    fn soak_switch_floor_demands_a_tcp_fleet_run() {
        // Scale matrix rows present but the soak stayed at 3 switches.
        let chain_only = without(GOOD, SOAK_TCP_FLEET);
        assert_rejected(
            gate(&chain_only, 0.0, 35.0, 1, 1000),
            &["no tcp session_soak row"],
        );
    }

    #[test]
    fn soak_false_acks_are_rejected() {
        let lying = set(GOOD, SOAK_SIMNET, &[("false_acks", "0", "2")]);
        assert_rejected(check(&lying), &["2 false acks"]);
        let stray = set(GOOD, SOAK_SIMNET, &[("stray_acks", "0", "1")]);
        assert_rejected(check(&stray), &["1 stray acks"]);
    }

    #[test]
    fn incomplete_soak_is_rejected() {
        // A missed ack must show up as both a shortfall in confirmed_mods
        // and a non-zero missed count; the gate rejects it.
        let stalled = set(
            GOOD,
            SOAK_SIMNET,
            &[
                ("completed", "200", "199"),
                ("confirmed_mods", "600", "597"),
                ("missed_acks", "0", "3"),
            ],
        );
        assert_rejected(check(&stalled), &["incomplete soak"]);
        // Inconsistent books (confirmed + missed != planned) are caught
        // before the verdict gates.
        let fudged = set(GOOD, SOAK_SIMNET, &[("confirmed_mods", "600", "599")]);
        assert_rejected(check(&fudged), &["!= planned"]);
    }

    #[test]
    fn soak_missing_a_driver_is_rejected() {
        let simnet_only = without(&without(GOOD, SOAK_TCP_FLEET), "session_soak/tcp/");
        assert_rejected(check(&simnet_only), &["session_soak row", "tcp"]);
    }

    #[test]
    fn soak_tail_percentiles_must_be_finite_and_monotone() {
        // NaN serialises as null; a soak whose p99.9 could not be measured
        // has not demonstrated its tail.
        let nan = set(GOOD, SOAK_SIMNET, &[("p999_confirm_ms", "523.0", "null")]);
        assert_rejected(check(&nan), &["p99.9"]);
        let inverted = set(GOOD, SOAK_SIMNET, &[("p999_confirm_ms", "523.0", "90.0")]);
        assert_rejected(check(&inverted), &["not monotone"]);
    }

    #[test]
    fn soak_below_the_session_floor_is_rejected() {
        assert_rejected(gate(GOOD, 0.0, 35.0, 500, 0), &["required >= 500"]);
    }

    #[test]
    fn install_speedup_below_the_floor_is_rejected() {
        assert_rejected(gate(GOOD, 150.0, 35.0, 1, 0), &["below the required 150"]);
        // An install row without its baseline cannot prove any speedup.
        let baseline = ", \"baseline_ops_per_sec\": 100.0, \"speedup\": 100.0";
        let bare = replace(GOOD, INSTALL_ROW, baseline, "");
        assert_rejected(check(&bare), &["missing key \"speedup\""]);
    }

    #[test]
    fn schema_5_requires_an_overhead_row() {
        let dropped = without(GOOD, OVERHEAD_ROW);
        assert_rejected(check(&dropped), &["no telemetry_overhead"]);
        // A telemetry row that lost its measurement is not a measurement.
        let bare = replace(GOOD, OVERHEAD_ROW, ", \"overhead_ns_per_op\": 11.0", "");
        assert_rejected(check(&bare), &["missing key \"overhead_ns_per_op\""]);
    }

    #[test]
    fn overhead_at_or_above_the_cap_is_rejected() {
        let overhead = |ns| set(GOOD, OVERHEAD_ROW, &[("overhead_ns_per_op", "11.0", ns)]);
        assert_rejected(check(&overhead("35.0")), &["at or above"]);
        // A looser explicit bar (CI's reduced run) admits the same row.
        assert!(gate(&overhead("35.0"), 0.0, 175.0, 1, 0).is_ok());
        // Slightly negative is measurement noise, not an error.
        assert!(check(&overhead("-0.3")).is_ok());
        // A null (NaN) overhead is rejected regardless of the bar.
        assert_rejected(
            gate(&overhead("null"), 0.0, 1e9, 1, 0),
            &["bad overhead_ns_per_op"],
        );
    }

    #[test]
    fn overhead_field_on_other_rows_is_rejected() {
        let tainted = replace(GOOD, INSTALL_ROW, "}", ", \"overhead_ns_per_op\": 0.5}");
        assert_rejected(check(&tainted), &["unexpected overhead_ns_per_op"]);
    }

    #[test]
    fn missing_matrix_section_in_schema_3_is_rejected() {
        let renamed = GOOD.replace("\"scenario_matrix\":", "\"matrix\":");
        assert_rejected(check(&renamed), &["missing key \"scenario_matrix\""]);
    }

    #[test]
    fn missing_soak_section_in_schema_6_is_rejected() {
        let renamed = GOOD.replace("\"session_soak\":", "\"soak\":");
        assert_rejected(check(&renamed), &["missing key \"session_soak\""]);
    }
}
