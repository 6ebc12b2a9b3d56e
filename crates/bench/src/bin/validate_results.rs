//! Validates a `BENCH_results.json` document against the shapes
//! `bench_results` writes (see `rum_bench::report::results_json`), so CI
//! catches a broken harness before a stale or malformed results file lands.
//! Schema 5 (throughput gains the `telemetry_overhead/*` rows measuring the
//! metric hot path against the uninstrumented workload), schema 4 (matrix
//! rows carry per-technique `applicable` flags and must cover the `restart`
//! fault on both drivers), schema 3 (latency + throughput +
//! scenario-matrix sections) and the older schema 2 (no matrix) are all
//! accepted; matrix rows must carry finite false-ack/missed-ack rates
//! inside `[0, 1]` and internally consistent counts, and not-applicable
//! rows must be all-zero placeholders.
//!
//! Usage: `validate_results [path] [min_speedup] [max_overhead]
//! [min_soak_sessions] [min_wire_speedup] [min_matrix_switches]`
//! (defaults: `BENCH_results.json`, no speedup floor, 3% overhead cap,
//! ≥ 1 soak session, no wire-speedup floor, no switch-count floor).  When
//! `min_speedup` is given, every `flow_mod_install/indexed_*` row must
//! carry a `speedup` field of at least that factor over the linear-scan
//! baseline.  In a schema-5+ file,
//! every `telemetry_overhead/*` row must carry a finite `overhead_pct`
//! below `max_overhead`, and at least one such row must exist —
//! instrumentation that slows the hot path down (or silently stops being
//! measured) fails the gate.  Schema 6 adds the `session_soak` section
//! (the multi-tenant `sessiond` soak): both drivers must be present, every
//! row must carry **zero false acks**, a complete tenant population
//! (`completed == sessions`, zero missed acks), finite tail percentiles
//! (p50 ≤ p99 ≤ p99.9), and at least `min_soak_sessions` concurrent
//! sessions — the "millions of users" regression gate.  Schema 7 adds the
//! declarative-resync verdict to the scenario matrix: applicable
//! `restart_resync` rows must exist on **both** drivers and prove the wiped
//! table was restored (`resync_converged`, `resync_final_diff == 0`,
//! `resync_table_matches`); the fields are rejected anywhere else.
//! Schema 8 is the sharded-proxy scale layer: every scenario-matrix and
//! session-soak row carries its fleet size (`switches`), the throughput
//! section must include a `wire_e2e/*` row (flow-mods/s through a real TCP
//! proxy, with the pre-shard thread-per-connection proxy as its in-run
//! baseline, so `speedup` is the sharding win) gated by
//! `min_wire_speedup`, and when `min_matrix_switches` is given, **both**
//! drivers must carry an applicable probing (`rum-*`) matrix row with zero
//! false acks at at least that many switches, plus a TCP soak row at the
//! same fleet size — the 1,000-switch regression gate.
//!
//! The build environment has no serde; the document is read with the
//! workspace's one hand-rolled parser, `telemetry::json`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use telemetry::json::{self, Value as Json};

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key \"{key}\""))
}

fn num(obj: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::Null => Ok(f64::NAN), // latency of an incomplete run
        other => other
            .as_f64()
            .ok_or_else(|| format!("\"{key}\" is not a number: {other:?}")),
    }
}

/// A string field of a matrix row.
fn string<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a str, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("\"{key}\" is not a string: {other:?}")),
    }
}

/// A boolean field.
fn boolean(obj: &BTreeMap<String, Json>, key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("\"{key}\" is not a boolean: {other:?}")),
    }
}

/// A count: a finite, non-negative integer-valued number.
fn count(obj: &BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    let v = num(obj, key)?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 {
        return Err(format!("\"{key}\" is not a non-negative count: {v}"));
    }
    Ok(v as u64)
}

/// A rate: finite and inside `[0, 1]` — NaN (serialised as null) and
/// negative values are rejected.
fn rate(obj: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    let v = num(obj, key)?;
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(format!("\"{key}\" is not a rate in [0, 1]: {v}"));
    }
    Ok(v)
}

fn validate_matrix(
    root: &BTreeMap<String, Json>,
    schema: u32,
    min_switches: u64,
) -> Result<usize, String> {
    let Json::Arr(matrix) = get(root, "scenario_matrix")? else {
        return Err("\"scenario_matrix\" is not an array".into());
    };
    let mut restart_drivers: Vec<&str> = Vec::new();
    let mut resync_drivers: Vec<&str> = Vec::new();
    // Schema 8: drivers that proved a zero-false-ack probing run at the
    // required fleet size.
    let mut scale_drivers: Vec<&str> = Vec::new();
    for (i, row) in matrix.iter().enumerate() {
        let Json::Obj(row) = row else {
            return Err(format!("scenario_matrix[{i}] is not an object"));
        };
        let context = format!("scenario_matrix[{i}]");
        let driver = string(row, "driver").map_err(|e| format!("{context}: {e}"))?;
        if driver != "simnet" && driver != "tcp" {
            return Err(format!("{context}: unknown driver \"{driver}\""));
        }
        let fault = string(row, "fault").map_err(|e| format!("{context}: {e}"))?;
        let technique = string(row, "technique").map_err(|e| format!("{context}: {e}"))?;
        string(row, "experiment").map_err(|e| format!("{context}: {e}"))?;
        // Schema 8: every row states the fleet size it ran against; older
        // schemas predate the field.
        let switches = match (schema >= 8, row.contains_key("switches")) {
            (true, true) => {
                let v = count(row, "switches").map_err(|e| format!("{context}: {e}"))?;
                if v == 0 {
                    return Err(format!("{context}: \"switches\" must be at least 1"));
                }
                v
            }
            (true, false) => {
                return Err(format!("{context}: schema 8 needs a \"switches\" count"));
            }
            (false, true) => {
                return Err(format!("{context}: \"switches\" requires schema 8"));
            }
            (false, false) => 0,
        };
        let planned = count(row, "planned").map_err(|e| format!("{context}: {e}"))?;
        let confirmed = count(row, "confirmed").map_err(|e| format!("{context}: {e}"))?;
        let false_acks = count(row, "false_acks").map_err(|e| format!("{context}: {e}"))?;
        let missed_acks = count(row, "missed_acks").map_err(|e| format!("{context}: {e}"))?;
        let false_rate = rate(row, "false_ack_rate").map_err(|e| format!("{context}: {e}"))?;
        let missed_rate = rate(row, "missed_ack_rate").map_err(|e| format!("{context}: {e}"))?;
        if confirmed > planned || false_acks > planned || missed_acks > planned {
            return Err(format!("{context}: counts exceed the plan size {planned}"));
        }
        if confirmed + missed_acks != planned {
            return Err(format!(
                "{context}: confirmed ({confirmed}) + missed ({missed_acks}) != planned ({planned})"
            ));
        }
        // A false ack is by definition a confirmation.
        if false_acks > confirmed {
            return Err(format!(
                "{context}: false_acks ({false_acks}) exceed confirmed ({confirmed})"
            ));
        }
        // completion_ms is optional-null but must be a finite number if set.
        let completion_is_null =
            match get(row, "completion_ms").map_err(|e| format!("{context}: {e}"))? {
                Json::Null => true,
                v if v.as_f64().is_some_and(|v| v.is_finite() && v >= 0.0) => false,
                other => return Err(format!("{context}: bad completion_ms {other:?}")),
            };
        // Schema 4: per-technique applicability.  A not-applicable cell was
        // never run and must be an all-zero placeholder; a schema-3 file
        // predates the flag and must not carry one.
        let mut is_applicable = true;
        match (schema >= 4, row.get("applicable")) {
            (true, Some(Json::Bool(applicable))) => {
                is_applicable = *applicable;
                if !*applicable
                    && (planned != 0
                        || false_rate != 0.0
                        || missed_rate != 0.0
                        || !completion_is_null)
                {
                    return Err(format!(
                        "{context}: not-applicable cell carries measurements \
                         (planned {planned}, rates {false_rate}/{missed_rate}, \
                         completion null: {completion_is_null})"
                    ));
                }
                if *applicable && fault == "restart" && !restart_drivers.contains(&driver) {
                    restart_drivers.push(driver);
                }
            }
            (true, other) => {
                return Err(format!(
                    "{context}: schema 4 needs a boolean \"applicable\", got {other:?}"
                ));
            }
            (false, Some(_)) => {
                return Err(format!("{context}: \"applicable\" requires schema 4"));
            }
            (false, None) => {
                if fault == "restart" && !restart_drivers.contains(&driver) {
                    restart_drivers.push(driver);
                }
            }
        }
        // Schema 7: the declarative-resync verdict.  Applicable
        // restart_resync rows must prove the wiped table was restored; the
        // fields are rejected anywhere else (older schemas, other faults,
        // never-run cells).
        if row.keys().any(|k| k.starts_with("resync_")) {
            if schema < 7 {
                return Err(format!("{context}: resync fields require schema 7"));
            }
            if fault != "restart_resync" {
                return Err(format!(
                    "{context}: resync fields are only valid on restart_resync rows"
                ));
            }
            if !is_applicable {
                return Err(format!(
                    "{context}: not-applicable cell carries resync fields"
                ));
            }
            let converged =
                boolean(row, "resync_converged").map_err(|e| format!("{context}: {e}"))?;
            let rounds = count(row, "resync_rounds").map_err(|e| format!("{context}: {e}"))?;
            let final_diff =
                count(row, "resync_final_diff").map_err(|e| format!("{context}: {e}"))?;
            count(row, "resync_delta_mods").map_err(|e| format!("{context}: {e}"))?;
            let table_matches =
                boolean(row, "resync_table_matches").map_err(|e| format!("{context}: {e}"))?;
            if !converged || rounds == 0 || final_diff != 0 || !table_matches {
                return Err(format!(
                    "{context}: resync failed to restore the table (converged {converged}, \
                     rounds {rounds}, final_diff {final_diff}, table_matches {table_matches})"
                ));
            }
            if !resync_drivers.contains(&driver) {
                resync_drivers.push(driver);
            }
        } else if schema >= 7 && fault == "restart_resync" && is_applicable {
            return Err(format!(
                "{context}: applicable restart_resync row is missing its resync verdict"
            ));
        }
        // Schema 8: an applicable probing row with a clean verdict at the
        // required fleet size counts towards the scale gate.
        if is_applicable
            && technique.starts_with("rum-")
            && false_acks == 0
            && min_switches > 0
            && switches >= min_switches
            && !scale_drivers.contains(&driver)
        {
            scale_drivers.push(driver);
        }
    }
    // Schema 4 turned restart survival into a load-bearing claim: a results
    // file that silently dropped the restart column on either driver is
    // stale or produced by a broken harness.
    if schema >= 4 {
        for required in ["simnet", "tcp"] {
            if !restart_drivers.contains(&required) {
                return Err(format!(
                    "schema 4 requires restart rows for both drivers; \"{required}\" is missing"
                ));
            }
        }
    }
    // Schema 7 turned resync-after-restart into a load-bearing claim: a
    // results file without a converged restart_resync row on each driver is
    // stale or produced by a harness whose reconciler no longer converges.
    if schema >= 7 {
        for required in ["simnet", "tcp"] {
            if !resync_drivers.contains(&required) {
                return Err(format!(
                    "schema 7 requires converged restart_resync rows for both drivers; \
                     \"{required}\" is missing"
                ));
            }
        }
    }
    // The schema-8 scale gate: when a switch-count floor is demanded, both
    // drivers must have proved a zero-false-ack probing run at (at least)
    // that fleet size, or the sharded proxy's headline claim is stale.
    if min_switches > 0 {
        if schema < 8 {
            return Err(format!(
                "a {min_switches}-switch floor needs schema 8 rows carrying \"switches\""
            ));
        }
        for required in ["simnet", "tcp"] {
            if !scale_drivers.contains(&required) {
                return Err(format!(
                    "no applicable zero-false-ack probing row with switches >= {min_switches} \
                     on driver \"{required}\""
                ));
            }
        }
    }
    Ok(matrix.len())
}

/// Validates the schema-6 `session_soak` section: the multi-tenant soak's
/// verdicts must hold on both drivers or the gate fails.
fn validate_soak(
    root: &BTreeMap<String, Json>,
    min_sessions: u64,
    schema: u32,
    min_switches: u64,
) -> Result<usize, String> {
    let Json::Arr(soak) = get(root, "session_soak")? else {
        return Err("\"session_soak\" is not an array".into());
    };
    let mut drivers: Vec<&str> = Vec::new();
    // Schema 8: the largest fleet a clean TCP soak ran against.
    let mut tcp_scale: u64 = 0;
    for (i, row) in soak.iter().enumerate() {
        let Json::Obj(row) = row else {
            return Err(format!("session_soak[{i}] is not an object"));
        };
        let context = format!("session_soak[{i}]");
        let driver = string(row, "driver").map_err(|e| format!("{context}: {e}"))?;
        if driver != "simnet" && driver != "tcp" {
            return Err(format!("{context}: unknown driver \"{driver}\""));
        }
        string(row, "fault").map_err(|e| format!("{context}: {e}"))?;
        string(row, "experiment").map_err(|e| format!("{context}: {e}"))?;
        // Schema 8: every soak row states the fleet size it ran against.
        let switches = match (schema >= 8, row.contains_key("switches")) {
            (true, true) => {
                let v = count(row, "switches").map_err(|e| format!("{context}: {e}"))?;
                if v == 0 {
                    return Err(format!("{context}: \"switches\" must be at least 1"));
                }
                v
            }
            (true, false) => {
                return Err(format!("{context}: schema 8 needs a \"switches\" count"));
            }
            (false, true) => {
                return Err(format!("{context}: \"switches\" requires schema 8"));
            }
            (false, false) => 0,
        };
        let sessions = count(row, "sessions").map_err(|e| format!("{context}: {e}"))?;
        let completed = count(row, "completed").map_err(|e| format!("{context}: {e}"))?;
        let aborted = count(row, "aborted").map_err(|e| format!("{context}: {e}"))?;
        let planned = count(row, "planned_mods").map_err(|e| format!("{context}: {e}"))?;
        let confirmed = count(row, "confirmed_mods").map_err(|e| format!("{context}: {e}"))?;
        let false_acks = count(row, "false_acks").map_err(|e| format!("{context}: {e}"))?;
        let missed_acks = count(row, "missed_acks").map_err(|e| format!("{context}: {e}"))?;
        let stray_acks = count(row, "stray_acks").map_err(|e| format!("{context}: {e}"))?;
        if sessions < min_sessions {
            return Err(format!(
                "{context}: only {sessions} concurrent sessions, required >= {min_sessions}"
            ));
        }
        if completed + aborted > sessions || confirmed > planned {
            return Err(format!("{context}: counts exceed the population"));
        }
        if confirmed + missed_acks != planned {
            return Err(format!(
                "{context}: confirmed ({confirmed}) + missed ({missed_acks}) != planned ({planned})"
            ));
        }
        // The soak's load-bearing claims: probing never lies, and the whole
        // tenant population finishes inside the budget.
        if false_acks > 0 {
            return Err(format!("{context}: {false_acks} false acks (must be 0)"));
        }
        if completed != sessions || missed_acks > 0 {
            return Err(format!(
                "{context}: incomplete soak ({completed}/{sessions} sessions, \
                 {missed_acks} missed acks)"
            ));
        }
        if stray_acks > 0 {
            return Err(format!("{context}: {stray_acks} stray acks (must be 0)"));
        }
        let p50 = num(row, "p50_confirm_ms").map_err(|e| format!("{context}: {e}"))?;
        let p99 = num(row, "p99_confirm_ms").map_err(|e| format!("{context}: {e}"))?;
        let p999 = num(row, "p999_confirm_ms").map_err(|e| format!("{context}: {e}"))?;
        let wall = num(row, "wall_ms").map_err(|e| format!("{context}: {e}"))?;
        for (name, v) in [("p50", p50), ("p99", p99), ("p99.9", p999), ("wall", wall)] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{context}: non-finite {name}_confirm_ms {v}"));
            }
        }
        if !(p50 <= p99 && p99 <= p999) {
            return Err(format!(
                "{context}: percentiles not monotone (p50 {p50}, p99 {p99}, p99.9 {p999})"
            ));
        }
        if !drivers.contains(&driver) {
            drivers.push(driver);
        }
        if driver == "tcp" {
            tcp_scale = tcp_scale.max(switches);
        }
    }
    for required in ["simnet", "tcp"] {
        if !drivers.contains(&required) {
            return Err(format!(
                "schema 6 requires session_soak rows for both drivers; \"{required}\" is missing"
            ));
        }
    }
    // The schema-8 scale gate: the soak must have run over the sharded
    // proxy at (at least) the demanded fleet size on the real-socket
    // driver.  Every row already passed the zero-false/missed/stray gates
    // above, so reaching the floor is the only remaining claim.
    if min_switches > 0 && tcp_scale < min_switches {
        return Err(format!(
            "no tcp session_soak row with switches >= {min_switches} (largest: {tcp_scale})"
        ));
    }
    Ok(soak.len())
}

fn validate(
    doc: &Json,
    min_speedup: Option<f64>,
    max_overhead: f64,
    min_soak_sessions: u64,
    min_wire_speedup: Option<f64>,
    min_matrix_switches: u64,
) -> Result<(usize, usize, usize, usize), String> {
    let Json::Obj(root) = doc else {
        return Err("document root is not an object".into());
    };
    let schema = match get(root, "schema")? {
        Json::Int(v @ 2..=8) => *v as u32,
        other => {
            return Err(format!(
                "schema must be 2, 3, 4, 5, 6, 7 or 8, got {other:?}"
            ))
        }
    };
    let Json::Arr(results) = get(root, "results")? else {
        return Err("\"results\" is not an array".into());
    };
    for (i, row) in results.iter().enumerate() {
        let Json::Obj(row) = row else {
            return Err(format!("results[{i}] is not an object"));
        };
        match get(row, "experiment")? {
            Json::Str(_) => {}
            other => return Err(format!("results[{i}].experiment: {other:?}")),
        }
        num(row, "median_completion_ms")?;
        num(row, "p95_completion_ms")?;
        num(row, "confirms")?;
        num(row, "runs")?;
    }
    let Json::Arr(throughput) = get(root, "throughput")? else {
        return Err("\"throughput\" is not an array".into());
    };
    if throughput.is_empty() {
        return Err("no throughput rows".into());
    }
    let mut install_rows = 0usize;
    let mut overhead_rows = 0usize;
    let mut wire_rows = 0usize;
    for (i, row) in throughput.iter().enumerate() {
        let Json::Obj(row) = row else {
            return Err(format!("throughput[{i}] is not an object"));
        };
        let Json::Str(name) = get(row, "experiment")? else {
            return Err(format!("throughput[{i}].experiment is not a string"));
        };
        num(row, "ops")?;
        num(row, "runs")?;
        let elapsed = num(row, "median_elapsed_ms")?;
        let ops_per_sec = num(row, "ops_per_sec")?;
        if !elapsed.is_finite() || !ops_per_sec.is_finite() || ops_per_sec <= 0.0 {
            return Err(format!("throughput[{i}] has non-finite measurements"));
        }
        if name.starts_with("flow_mod_install/indexed") {
            install_rows += 1;
            let speedup = num(row, "speedup")?;
            if !speedup.is_finite() || speedup <= 0.0 {
                return Err(format!("{name}: bad speedup {speedup}"));
            }
            if let Some(floor) = min_speedup {
                if speedup < floor {
                    return Err(format!(
                        "{name}: speedup {speedup:.1}x below the required {floor}x"
                    ));
                }
            }
        }
        // Schema 5: telemetry-overhead rows carry the measured slowdown of
        // the instrumented hot path and must stay under the cap.  Older
        // schemas predate the field.
        if name.starts_with("telemetry_overhead/") {
            if schema < 5 {
                return Err(format!("{name}: telemetry_overhead rows require schema 5"));
            }
            overhead_rows += 1;
            let overhead = num(row, "overhead_pct")?;
            if !overhead.is_finite() {
                return Err(format!("{name}: bad overhead_pct {overhead}"));
            }
            if overhead >= max_overhead {
                return Err(format!(
                    "{name}: telemetry overhead {overhead:.2}% is at or above the \
                     allowed {max_overhead}%"
                ));
            }
        } else if row.contains_key("overhead_pct") {
            return Err(format!("{name}: unexpected overhead_pct field"));
        }
        // Schema 8: end-to-end wire throughput through a real TCP proxy,
        // with the pre-shard thread-per-connection proxy as its in-run
        // baseline — `speedup` is the sharding win and must clear the floor.
        if name.starts_with("wire_e2e/") {
            if schema < 8 {
                return Err(format!("{name}: wire_e2e rows require schema 8"));
            }
            wire_rows += 1;
            let speedup = num(row, "speedup")?;
            if !speedup.is_finite() || speedup <= 0.0 {
                return Err(format!("{name}: bad speedup {speedup}"));
            }
            if let Some(floor) = min_wire_speedup {
                if speedup < floor {
                    return Err(format!(
                        "{name}: sharding speedup {speedup:.1}x below the required {floor}x"
                    ));
                }
            }
        }
    }
    if install_rows == 0 {
        return Err("no flow_mod_install/indexed_* throughput row".into());
    }
    if schema >= 5 && overhead_rows == 0 {
        return Err("schema 5 requires a telemetry_overhead/* throughput row".into());
    }
    if schema >= 8 && wire_rows == 0 {
        return Err("schema 8 requires a wire_e2e/* throughput row".into());
    }
    if min_wire_speedup.is_some() && schema < 8 {
        return Err("a wire-speedup floor needs schema 8 wire_e2e rows".into());
    }
    // Schema 3 adds the scenario-matrix section; schema 2 predates it (and
    // is rejected if it smuggles one in anyway).
    let matrix_rows = if schema >= 3 {
        validate_matrix(root, schema, min_matrix_switches)?
    } else {
        if min_matrix_switches > 0 {
            return Err(format!(
                "a {min_matrix_switches}-switch floor needs schema 8 matrix rows"
            ));
        }
        if root.contains_key("scenario_matrix") {
            return Err("schema 2 must not carry a scenario_matrix section".into());
        }
        0
    };
    // Schema 6 adds the session_soak section; older schemas predate it.
    let soak_rows = if schema >= 6 {
        validate_soak(root, min_soak_sessions, schema, min_matrix_switches)?
    } else {
        if root.contains_key("session_soak") {
            return Err(format!(
                "schema {schema} must not carry a session_soak section"
            ));
        }
        0
    };
    Ok((results.len(), throughput.len(), matrix_rows, soak_rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_results.json");
    let min_speedup: Option<f64> = args.get(2).and_then(|s| s.parse().ok());
    let max_overhead: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(3.0);
    let min_soak_sessions: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(1);
    let min_wire_speedup: Option<f64> = args.get(5).and_then(|s| s.parse().ok());
    let min_matrix_switches: u64 = args.get(6).and_then(|s| s.parse().ok()).unwrap_or(0);

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_results: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate_results: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(
        &doc,
        min_speedup,
        max_overhead,
        min_soak_sessions,
        min_wire_speedup,
        min_matrix_switches,
    ) {
        Ok((latency, throughput, matrix, soak)) => {
            println!(
                "validate_results: {path} OK ({latency} latency rows, {throughput} throughput rows, {matrix} scenario-matrix rows, {soak} session-soak rows)"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_results: {path} failed validation: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        json::parse(text).expect("valid JSON")
    }

    const SCHEMA2: &str = r#"{
      "schema": 2,
      "results": [{"experiment": "e", "median_completion_ms": 1.0,
                   "p95_completion_ms": 2.0, "confirms": 3, "runs": 4}],
      "throughput": [{"experiment": "flow_mod_install/indexed_10", "ops": 10,
                      "median_elapsed_ms": 1.0, "ops_per_sec": 10000.0,
                      "runs": 1, "baseline_ops_per_sec": 100.0, "speedup": 100.0}]
    }"#;

    fn schema3(matrix_row: &str) -> String {
        SCHEMA2.replace("\"schema\": 2", "\"schema\": 3").replace(
            "}]\n    }",
            &format!("}}],\n      \"scenario_matrix\": [{matrix_row}]\n    }}"),
        )
    }

    const GOOD_ROW: &str = r#"{"experiment": "scenario_matrix/simnet/early_reply/barrier-only",
        "driver": "simnet", "fault": "early_reply", "technique": "barrier-only",
        "planned": 8, "confirmed": 8, "false_acks": 8, "missed_acks": 0,
        "false_ack_rate": 1.0, "missed_ack_rate": 0.0, "completion_ms": 812.5}"#;

    #[test]
    fn schema_2_still_accepted() {
        assert_eq!(
            validate(&doc(SCHEMA2), None, 3.0, 1, None, 0),
            Ok((1, 1, 0, 0))
        );
    }

    #[test]
    fn schema_3_with_matrix_accepted() {
        assert_eq!(
            validate(&doc(&schema3(GOOD_ROW)), None, 3.0, 1, None, 0),
            Ok((1, 1, 1, 0))
        );
        // A stalled cell: null completion, missed acks.
        let stalled = GOOD_ROW
            .replace("\"confirmed\": 8", "\"confirmed\": 5")
            .replace("\"false_acks\": 8", "\"false_acks\": 0")
            .replace("\"false_ack_rate\": 1.0", "\"false_ack_rate\": 0.0")
            .replace("\"missed_acks\": 0", "\"missed_acks\": 3")
            .replace("\"missed_ack_rate\": 0.0", "\"missed_ack_rate\": 0.375")
            .replace("\"completion_ms\": 812.5", "\"completion_ms\": null");
        assert_eq!(
            validate(&doc(&schema3(&stalled)), None, 3.0, 1, None, 0),
            Ok((1, 1, 1, 0))
        );
    }

    #[test]
    fn nan_and_out_of_range_rates_are_rejected() {
        // NaN serialises as null; num() maps it back to NaN -> rejected.
        let nan = GOOD_ROW.replace("\"false_ack_rate\": 1.0", "\"false_ack_rate\": null");
        assert!(validate(&doc(&schema3(&nan)), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("false_ack_rate"));
        let negative = GOOD_ROW.replace("\"false_ack_rate\": 1.0", "\"false_ack_rate\": -0.2");
        assert!(validate(&doc(&schema3(&negative)), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("false_ack_rate"));
        let above_one = GOOD_ROW.replace("\"missed_ack_rate\": 0.0", "\"missed_ack_rate\": 1.5");
        assert!(validate(&doc(&schema3(&above_one)), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("missed_ack_rate"));
    }

    #[test]
    fn inconsistent_counts_are_rejected() {
        let too_many = GOOD_ROW.replace("\"false_acks\": 8", "\"false_acks\": 9");
        assert!(validate(&doc(&schema3(&too_many)), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("exceed the plan size"));
        let mismatch = GOOD_ROW.replace("\"confirmed\": 8", "\"confirmed\": 7");
        assert!(validate(&doc(&schema3(&mismatch)), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("!= planned"));
        // More false acks than confirmations is nonsensical: a false ack is
        // a (mis)issued confirmation.
        let phantom = GOOD_ROW
            .replace("\"confirmed\": 8", "\"confirmed\": 5")
            .replace("\"missed_acks\": 0", "\"missed_acks\": 3");
        assert!(validate(&doc(&schema3(&phantom)), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("exceed confirmed"));
    }

    /// Builds a schema-4 document with the given matrix rows (joined by
    /// commas by the caller).
    fn schema4(matrix_rows: &str) -> String {
        schema3(matrix_rows).replace("\"schema\": 3", "\"schema\": 4")
    }

    fn with_applicable(row: &str, applicable: bool) -> String {
        row.replace(
            "\"completion_ms\":",
            &format!("\"applicable\": {applicable}, \"completion_ms\":"),
        )
    }

    fn restart_row(driver: &str) -> String {
        with_applicable(
            &GOOD_ROW.replace("early_reply", "restart").replace(
                "\"driver\": \"simnet\"",
                &format!("\"driver\": \"{driver}\""),
            ),
            true,
        )
    }

    const NA_ROW: &str = r#"{"experiment": "scenario_matrix/simnet/early_reply_reordering/rum-sequential",
        "driver": "simnet", "fault": "early_reply_reordering", "technique": "rum-sequential",
        "planned": 0, "confirmed": 0, "false_acks": 0, "missed_acks": 0,
        "false_ack_rate": 0.0, "missed_ack_rate": 0.0, "applicable": false, "completion_ms": null}"#;

    #[test]
    fn schema_4_with_restart_rows_on_both_drivers_accepted() {
        let rows = format!(
            "{}, {}, {}, {}",
            with_applicable(GOOD_ROW, true),
            restart_row("simnet"),
            restart_row("tcp"),
            NA_ROW
        );
        assert_eq!(
            validate(&doc(&schema4(&rows)), None, 3.0, 1, None, 0),
            Ok((1, 1, 4, 0))
        );
    }

    #[test]
    fn schema_4_missing_a_restart_driver_is_rejected() {
        let rows = format!(
            "{}, {}",
            with_applicable(GOOD_ROW, true),
            restart_row("simnet")
        );
        let err = validate(&doc(&schema4(&rows)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("restart rows"), "{err}");
        assert!(err.contains("tcp"), "{err}");
        // A not-applicable restart row does not count as coverage.
        let na_restart = NA_ROW
            .replace("early_reply_reordering", "restart")
            .replace("rum-sequential", "rum-general");
        let rows = format!(
            "{}, {}, {}",
            with_applicable(GOOD_ROW, true),
            restart_row("simnet"),
            na_restart
        );
        let err = validate(&doc(&schema4(&rows)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("restart rows"), "{err}");
    }

    #[test]
    fn schema_4_rows_must_carry_the_applicable_flag() {
        let rows = format!(
            "{GOOD_ROW}, {}, {}",
            restart_row("simnet"),
            restart_row("tcp")
        );
        let err = validate(&doc(&schema4(&rows)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("applicable"), "{err}");
    }

    #[test]
    fn not_applicable_rows_must_be_zero_placeholders() {
        let loaded = with_applicable(GOOD_ROW, false);
        let rows = format!(
            "{loaded}, {}, {}",
            restart_row("simnet"),
            restart_row("tcp")
        );
        let err = validate(&doc(&schema4(&rows)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("not-applicable"), "{err}");
        // Zero counts are not enough: a smuggled rate or completion time on
        // a never-run cell is rejected too.
        for tainted in [
            NA_ROW.replace("\"false_ack_rate\": 0.0", "\"false_ack_rate\": 0.9"),
            NA_ROW.replace("\"missed_ack_rate\": 0.0", "\"missed_ack_rate\": 0.5"),
            NA_ROW.replace("\"completion_ms\": null", "\"completion_ms\": 50.0"),
        ] {
            let rows = format!(
                "{tainted}, {}, {}",
                restart_row("simnet"),
                restart_row("tcp")
            );
            let err = validate(&doc(&schema4(&rows)), None, 3.0, 1, None, 0).unwrap_err();
            assert!(err.contains("not-applicable"), "{err}");
        }
    }

    #[test]
    fn schema_3_must_not_carry_applicable() {
        let row = with_applicable(GOOD_ROW, true);
        let err = validate(&doc(&schema3(&row)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("requires schema 4"), "{err}");
    }

    /// A well-formed telemetry-overhead throughput row (schema 5).
    const OVERHEAD_ROW: &str = r#"{"experiment": "telemetry_overhead/indexed_10", "ops": 10,
        "median_elapsed_ms": 1.02, "ops_per_sec": 9800.0, "runs": 3, "overhead_pct": 1.2}"#;

    /// Builds a schema-5 document: schema 4 with full restart coverage plus
    /// the given telemetry-overhead throughput row.
    fn schema5(overhead_row: &str) -> String {
        let rows = format!(
            "{}, {}, {}",
            with_applicable(GOOD_ROW, true),
            restart_row("simnet"),
            restart_row("tcp")
        );
        schema4(&rows)
            .replace("\"schema\": 4", "\"schema\": 5")
            .replace(
                "\"speedup\": 100.0}]",
                &format!("\"speedup\": 100.0}}, {overhead_row}]"),
            )
    }

    #[test]
    fn schema_5_with_overhead_row_accepted() {
        assert_eq!(
            validate(&doc(&schema5(OVERHEAD_ROW)), None, 3.0, 1, None, 0),
            Ok((1, 2, 3, 0))
        );
        // Slightly-negative overhead is measurement noise, not an error.
        let lucky = OVERHEAD_ROW.replace("\"overhead_pct\": 1.2", "\"overhead_pct\": -0.3");
        assert_eq!(
            validate(&doc(&schema5(&lucky)), None, 3.0, 1, None, 0),
            Ok((1, 2, 3, 0))
        );
    }

    #[test]
    fn schema_5_requires_an_overhead_row() {
        let missing =
            schema5(OVERHEAD_ROW).replace("telemetry_overhead/indexed_10", "codec/encode_10");
        let err = validate(&doc(&missing), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("overhead_pct"), "{err}");
        let dropped = schema4(&format!(
            "{}, {}, {}",
            with_applicable(GOOD_ROW, true),
            restart_row("simnet"),
            restart_row("tcp")
        ))
        .replace("\"schema\": 4", "\"schema\": 5");
        let err = validate(&doc(&dropped), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("telemetry_overhead"), "{err}");
    }

    #[test]
    fn overhead_at_or_above_the_cap_is_rejected() {
        let slow = OVERHEAD_ROW.replace("\"overhead_pct\": 1.2", "\"overhead_pct\": 3.0");
        let err = validate(&doc(&schema5(&slow)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("at or above"), "{err}");
        // A looser explicit cap admits the same row.
        assert_eq!(
            validate(&doc(&schema5(&slow)), None, 10.0, 1, None, 0),
            Ok((1, 2, 3, 0))
        );
        // A null (NaN) overhead is rejected regardless of cap.
        let nan = OVERHEAD_ROW.replace("\"overhead_pct\": 1.2", "\"overhead_pct\": null");
        assert!(validate(&doc(&schema5(&nan)), None, 100.0, 1, None, 0)
            .unwrap_err()
            .contains("overhead_pct"));
    }

    #[test]
    fn overhead_rows_require_schema_5() {
        let smuggled = schema5(OVERHEAD_ROW).replace("\"schema\": 5", "\"schema\": 4");
        let err = validate(&doc(&smuggled), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("require schema 5"), "{err}");
    }

    #[test]
    fn overhead_pct_on_other_rows_is_rejected() {
        let tainted = schema5(OVERHEAD_ROW).replace(
            "\"speedup\": 100.0}",
            "\"speedup\": 100.0, \"overhead_pct\": 0.5}",
        );
        let err = validate(&doc(&tainted), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("unexpected overhead_pct"), "{err}");
    }

    #[test]
    fn schema_2_with_matrix_section_is_rejected() {
        let sneaky = schema3(GOOD_ROW).replace("\"schema\": 3", "\"schema\": 2");
        assert!(validate(&doc(&sneaky), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("schema 2 must not carry"));
    }

    #[test]
    fn missing_matrix_section_in_schema_3_is_rejected() {
        let missing = SCHEMA2.replace("\"schema\": 2", "\"schema\": 3");
        assert!(validate(&doc(&missing), None, 3.0, 1, None, 0)
            .unwrap_err()
            .contains("scenario_matrix"));
    }

    /// A clean simnet soak row (schema 6).
    const SOAK_SIMNET_ROW: &str = r#"{"experiment": "session_soak/simnet/early_reply",
        "driver": "simnet", "fault": "early_reply", "sessions": 200, "completed": 200,
        "aborted": 0, "planned_mods": 600, "confirmed_mods": 600, "false_acks": 0,
        "missed_acks": 0, "stray_acks": 0, "p50_confirm_ms": 40.0,
        "p99_confirm_ms": 180.0, "p999_confirm_ms": 523.0, "wall_ms": 2500.0}"#;

    fn soak_tcp_row() -> String {
        SOAK_SIMNET_ROW
            .replace("simnet", "tcp")
            .replace("\"p999_confirm_ms\": 523.0", "\"p999_confirm_ms\": 910.0")
    }

    /// Builds a schema-6 document: schema 5 plus the given session-soak rows
    /// (joined by commas by the caller).
    fn schema6(soak_rows: &str) -> String {
        schema5(OVERHEAD_ROW)
            .replace("\"schema\": 5", "\"schema\": 6")
            .replace(
                "]\n    }",
                &format!("],\n      \"session_soak\": [{soak_rows}]\n    }}"),
            )
    }

    fn both_drivers() -> String {
        format!("{SOAK_SIMNET_ROW}, {}", soak_tcp_row())
    }

    #[test]
    fn schema_6_with_clean_soak_rows_accepted() {
        assert_eq!(
            validate(&doc(&schema6(&both_drivers())), None, 3.0, 1, None, 0),
            Ok((1, 2, 3, 2))
        );
        // A demanding session floor that the rows meet is fine too.
        assert_eq!(
            validate(&doc(&schema6(&both_drivers())), None, 3.0, 200, None, 0),
            Ok((1, 2, 3, 2))
        );
    }

    #[test]
    fn soak_false_acks_are_rejected() {
        let lying = both_drivers().replacen("\"false_acks\": 0", "\"false_acks\": 2", 1);
        let err = validate(&doc(&schema6(&lying)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("false acks"), "{err}");
    }

    #[test]
    fn incomplete_soak_is_rejected() {
        // A missed ack must show up as both a shortfall in confirmed_mods
        // and a non-zero missed count; the gate rejects it.
        let stalled = both_drivers()
            .replacen("\"completed\": 200", "\"completed\": 199", 1)
            .replacen("\"confirmed_mods\": 600", "\"confirmed_mods\": 597", 1)
            .replacen("\"missed_acks\": 0", "\"missed_acks\": 3", 1);
        let err = validate(&doc(&schema6(&stalled)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("incomplete soak"), "{err}");
        // Inconsistent books (confirmed + missed != planned) are caught
        // before the verdict gates.
        let fudged =
            both_drivers().replacen("\"confirmed_mods\": 600", "\"confirmed_mods\": 599", 1);
        let err = validate(&doc(&schema6(&fudged)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("!= planned"), "{err}");
    }

    #[test]
    fn soak_missing_a_driver_is_rejected() {
        let err = validate(&doc(&schema6(SOAK_SIMNET_ROW)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("both drivers"), "{err}");
        assert!(err.contains("tcp"), "{err}");
    }

    #[test]
    fn soak_tail_percentiles_must_be_finite_and_monotone() {
        // NaN serialises as null; a soak whose p99.9 could not be measured
        // has not demonstrated its tail.
        let nan =
            both_drivers().replacen("\"p999_confirm_ms\": 523.0", "\"p999_confirm_ms\": null", 1);
        let err = validate(&doc(&schema6(&nan)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("p99.9"), "{err}");
        let inverted =
            both_drivers().replacen("\"p999_confirm_ms\": 523.0", "\"p999_confirm_ms\": 90.0", 1);
        let err = validate(&doc(&schema6(&inverted)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn soak_below_the_session_floor_is_rejected() {
        let err = validate(&doc(&schema6(&both_drivers())), None, 3.0, 500, None, 0).unwrap_err();
        assert!(err.contains("required >= 500"), "{err}");
    }

    #[test]
    fn soak_section_requires_schema_6() {
        let smuggled = schema6(&both_drivers()).replace("\"schema\": 6", "\"schema\": 5");
        let err = validate(&doc(&smuggled), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("must not carry a session_soak"), "{err}");
    }

    #[test]
    fn missing_soak_section_in_schema_6_is_rejected() {
        let missing = schema5(OVERHEAD_ROW).replace("\"schema\": 5", "\"schema\": 6");
        let err = validate(&doc(&missing), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("session_soak"), "{err}");
    }

    /// An applicable restart_resync row with a clean resync verdict
    /// (schema 7).
    fn resync_row(driver: &str) -> String {
        restart_row(driver)
            .replace("restart", "restart_resync")
            .replace(
                "\"completion_ms\": 812.5",
                "\"completion_ms\": 812.5, \"resync_converged\": true, \"resync_rounds\": 2, \
             \"resync_final_diff\": 0, \"resync_delta_mods\": 4, \"resync_table_matches\": true",
            )
    }

    /// Builds a schema-7 document: schema 6 with the given extra matrix rows
    /// appended to the scenario-matrix section.
    fn schema7(resync_rows: &str) -> String {
        schema6(&both_drivers())
            .replace("\"schema\": 6", "\"schema\": 7")
            .replace(
                "],\n      \"session_soak\"",
                &format!(", {resync_rows}],\n      \"session_soak\""),
            )
    }

    #[test]
    fn schema_7_with_converged_resync_rows_accepted() {
        let rows = format!("{}, {}", resync_row("simnet"), resync_row("tcp"));
        assert_eq!(
            validate(&doc(&schema7(&rows)), None, 3.0, 1, None, 0),
            Ok((1, 2, 5, 2))
        );
    }

    #[test]
    fn schema_7_missing_a_resync_driver_is_rejected() {
        let err =
            validate(&doc(&schema7(&resync_row("simnet"))), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("restart_resync rows"), "{err}");
        assert!(err.contains("tcp"), "{err}");
        // A schema-7 file with no resync rows at all fails the same gate.
        let bare = schema6(&both_drivers()).replace("\"schema\": 6", "\"schema\": 7");
        let err = validate(&doc(&bare), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("restart_resync rows"), "{err}");
    }

    #[test]
    fn unconverged_resync_is_rejected() {
        for (from, to) in [
            ("\"resync_converged\": true", "\"resync_converged\": false"),
            ("\"resync_final_diff\": 0", "\"resync_final_diff\": 2"),
            (
                "\"resync_table_matches\": true",
                "\"resync_table_matches\": false",
            ),
            ("\"resync_rounds\": 2", "\"resync_rounds\": 0"),
        ] {
            let rows = format!(
                "{}, {}",
                resync_row("simnet").replace(from, to),
                resync_row("tcp")
            );
            let err = validate(&doc(&schema7(&rows)), None, 3.0, 1, None, 0).unwrap_err();
            assert!(err.contains("failed to restore"), "{from} -> {to}: {err}");
        }
    }

    #[test]
    fn schema_7_resync_row_without_verdict_is_rejected() {
        // An applicable restart_resync row that dropped its verdict fields
        // is a broken harness, not a passing gate.
        let bare = restart_row("simnet").replace("restart", "restart_resync");
        let rows = format!("{bare}, {}", resync_row("tcp"));
        let err = validate(&doc(&schema7(&rows)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("missing its resync verdict"), "{err}");
    }

    #[test]
    fn resync_fields_require_schema_7_and_the_resync_fault() {
        // Smuggled into a schema-6 file: rejected.
        let rows = format!("{}, {}", resync_row("simnet"), resync_row("tcp"));
        let smuggled = schema7(&rows).replace("\"schema\": 7", "\"schema\": 6");
        let err = validate(&doc(&smuggled), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("require schema 7"), "{err}");
        // Attached to a plain restart row: rejected.
        let tainted = restart_row("simnet").replace(
            "\"completion_ms\": 812.5",
            "\"completion_ms\": 812.5, \"resync_converged\": true",
        );
        let rows = format!("{tainted}, {}, {}", resync_row("simnet"), resync_row("tcp"));
        let err = validate(&doc(&schema7(&rows)), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("only valid on restart_resync"), "{err}");
    }

    /// A well-formed end-to-end wire-throughput row (schema 8): sharded
    /// proxy throughput with the legacy proxy as the in-run baseline.
    const WIRE_ROW: &str = r#"{"experiment": "wire_e2e/flow_mods_64sw", "ops": 128000,
        "median_elapsed_ms": 120.0, "ops_per_sec": 1066666.0, "runs": 1,
        "baseline_ops_per_sec": 150000.0, "speedup": 7.1}"#;

    /// Builds a schema-8 document: the full schema-7 document with
    /// `switches` stamped onto every matrix and soak row, the wire row
    /// appended to the throughput section, and the given scale rows (which
    /// carry their own `switches` counts) appended to their sections.
    fn schema8(scale_matrix_rows: &str, scale_soak_rows: &str) -> String {
        let resync = format!("{}, {}", resync_row("simnet"), resync_row("tcp"));
        let mut text = schema7(&resync)
            .replace("\"schema\": 7", "\"schema\": 8")
            .replace("\"planned\":", "\"switches\": 3, \"planned\":")
            .replace("\"sessions\":", "\"switches\": 3, \"sessions\":")
            .replace(
                "\"overhead_pct\": 1.2}",
                &format!("\"overhead_pct\": 1.2}}, {WIRE_ROW}"),
            );
        if !scale_matrix_rows.is_empty() {
            text = text.replace(
                "],\n      \"session_soak\"",
                &format!(", {scale_matrix_rows}],\n      \"session_soak\""),
            );
        }
        if !scale_soak_rows.is_empty() {
            text = text.replace("]\n    }", &format!(", {scale_soak_rows}]\n    }}"));
        }
        text
    }

    /// An applicable probing matrix row at 1,000 switches with a clean
    /// verdict — what the scale gate demands on each driver.
    fn scale_row(driver: &str) -> String {
        with_applicable(GOOD_ROW, true)
            .replace(
                "\"driver\": \"simnet\"",
                &format!("\"driver\": \"{driver}\""),
            )
            .replace("barrier-only", "rum-general")
            .replace("\"false_acks\": 8", "\"false_acks\": 0")
            .replace("\"false_ack_rate\": 1.0", "\"false_ack_rate\": 0.0")
            .replace("\"planned\":", "\"switches\": 1000, \"planned\":")
    }

    /// A clean TCP soak row at 1,000 switches.
    fn scale_soak_row() -> String {
        soak_tcp_row().replace("\"sessions\":", "\"switches\": 1000, \"sessions\":")
    }

    fn full_schema8() -> String {
        schema8(
            &format!("{}, {}", scale_row("simnet"), scale_row("tcp")),
            &scale_soak_row(),
        )
    }

    #[test]
    fn schema_8_with_scale_and_wire_rows_accepted() {
        // No floors: the shape alone validates.
        assert_eq!(
            validate(&doc(&full_schema8()), None, 3.0, 1, None, 0),
            Ok((1, 3, 7, 3))
        );
        // With every scale gate armed: wire speedup floor, 1,000-switch
        // matrix + soak floors.
        assert_eq!(
            validate(&doc(&full_schema8()), None, 3.0, 1, Some(5.0), 1000),
            Ok((1, 3, 7, 3))
        );
    }

    #[test]
    fn schema_8_rows_must_carry_switches() {
        // A matrix row that lost its fleet size.
        let missing = full_schema8().replacen("\"switches\": 3, \"planned\":", "\"planned\":", 1);
        let err = validate(&doc(&missing), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("switches"), "{err}");
        // A soak row that lost its fleet size.
        let missing = full_schema8().replacen("\"switches\": 3, \"sessions\":", "\"sessions\":", 1);
        let err = validate(&doc(&missing), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("switches"), "{err}");
    }

    #[test]
    fn switches_fields_require_schema_8() {
        // Drop the wire row too, so the first schema-8 artefact the
        // validator trips over is the smuggled switches field itself.
        let smuggled = full_schema8()
            .replace("\"schema\": 8", "\"schema\": 7")
            .replace(&format!(", {WIRE_ROW}"), "");
        let err = validate(&doc(&smuggled), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("\"switches\" requires schema 8"), "{err}");
    }

    #[test]
    fn schema_8_requires_a_wire_row() {
        let missing = full_schema8().replace("wire_e2e/flow_mods_64sw", "codec/encode_64");
        let err = validate(&doc(&missing), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("wire_e2e"), "{err}");
        // And wire rows cannot be smuggled into older schemas.
        let old = schema7(&format!("{}, {}", resync_row("simnet"), resync_row("tcp"))).replace(
            "\"overhead_pct\": 1.2}",
            &format!("\"overhead_pct\": 1.2}}, {WIRE_ROW}"),
        );
        let err = validate(&doc(&old), None, 3.0, 1, None, 0).unwrap_err();
        assert!(err.contains("require schema 8"), "{err}");
    }

    #[test]
    fn wire_speedup_below_the_floor_is_rejected() {
        let err = validate(&doc(&full_schema8()), None, 3.0, 1, Some(10.0), 0).unwrap_err();
        assert!(err.contains("below the required 10"), "{err}");
        // A floor against a pre-wire schema is unprovable, not vacuously
        // satisfied.
        let old = format!("{}, {}", resync_row("simnet"), resync_row("tcp"));
        let err = validate(&doc(&schema7(&old)), None, 3.0, 1, Some(5.0), 0).unwrap_err();
        assert!(err.contains("needs schema 8"), "{err}");
    }

    #[test]
    fn matrix_switch_floor_demands_both_drivers_at_scale() {
        // Only the simnet scale row present: the tcp gate trips.
        let partial = schema8(&scale_row("simnet"), &scale_soak_row());
        let err = validate(&doc(&partial), None, 3.0, 1, None, 1000).unwrap_err();
        assert!(err.contains("switches >= 1000"), "{err}");
        assert!(err.contains("tcp"), "{err}");
        // A scale row with a false ack does not count as coverage.
        let lying = full_schema8().replacen(
            "\"switches\": 1000, \"planned\": 8, \"confirmed\": 8, \"false_acks\": 0",
            "\"switches\": 1000, \"planned\": 8, \"confirmed\": 8, \"false_acks\": 1",
            1,
        );
        let err = validate(&doc(&lying), None, 3.0, 1, None, 1000).unwrap_err();
        assert!(err.contains("switches >= 1000"), "{err}");
        // A floor against a pre-scale schema is unprovable.
        let old = format!("{}, {}", resync_row("simnet"), resync_row("tcp"));
        let err = validate(&doc(&schema7(&old)), None, 3.0, 1, None, 1000).unwrap_err();
        assert!(err.contains("needs schema 8"), "{err}");
    }

    #[test]
    fn soak_switch_floor_demands_a_tcp_fleet_run() {
        // Scale matrix rows present but the soak stayed at 3 switches.
        let no_scale_soak = schema8(
            &format!("{}, {}", scale_row("simnet"), scale_row("tcp")),
            "",
        );
        let err = validate(&doc(&no_scale_soak), None, 3.0, 1, None, 1000).unwrap_err();
        assert!(err.contains("no tcp session_soak row"), "{err}");
    }
}
