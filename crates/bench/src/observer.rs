//! Rendering for `rumtop`, the live terminal observer of a running RUM
//! deployment.
//!
//! Pure functions from a [`telemetry::Snapshot`] to text, so the dashboard
//! layout is unit-testable without sockets; the `rumtop` binary adds the
//! scrape loop and the ANSI screen refresh around [`render`].
//!
//! The layout groups the shared metrics vocabulary by origin:
//!
//! * `rum.sw{i}.*` — one row per monitored switch (engine counters, the
//!   in-flight gauge and confirm-latency quantiles);
//! * `session.*` — the consistent-update session, one line;
//! * `sessiond.*` — the multi-tenant session multiplexer: one global line
//!   (admission, scheduling and stray-ack counters plus confirm-latency
//!   quantiles) and one row per instrumented tenant (`sessiond.t{i}.*`),
//!   shown only when a mux is attached;
//! * `resync.*` — the declarative reconciler: readback rounds, delta
//!   mods, re-requests, the convergence verdict and time-to-convergence
//!   quantiles, shown only when a reconciler is attached;
//! * `proxy.*` — transport counters of the TCP proxy, one line;
//! * `proxy.shard{k}.*` — one row per engine shard of the sharded proxy
//!   (drain batches, messages emitted, live outbox depth), shown only when
//!   the event-loop proxy is attached;
//! * `matrix.*` — scenario-matrix verdict counters, one line per cell,
//!   shown only when present (live sweeps).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::Snapshot;

/// Per-switch view assembled from `rum.sw{i}.*` metrics.
#[derive(Debug, Default, Clone)]
struct SwitchRow {
    unconfirmed: i64,
    controller_flow_mods: u64,
    proxy_flow_mods: u64,
    probes_injected: u64,
    probes_consumed: u64,
    acks_sent: u64,
    barriers_released: u64,
    reconnects: u64,
    p50_us: Option<u64>,
    p99_us: Option<u64>,
    p999_us: Option<u64>,
}

/// Splits a `rum.sw{i}.{field}` metric name into its switch index and
/// field; `None` for names outside the per-switch namespace.
fn switch_field(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("rum.sw")?;
    let dot = rest.find('.')?;
    let index: usize = rest[..dot].parse().ok()?;
    Some((index, &rest[dot + 1..]))
}

fn switch_rows(snapshot: &Snapshot) -> BTreeMap<usize, SwitchRow> {
    let mut rows: BTreeMap<usize, SwitchRow> = BTreeMap::new();
    for (name, &value) in &snapshot.counters {
        let Some((index, field)) = switch_field(name) else {
            continue;
        };
        let row = rows.entry(index).or_default();
        match field {
            "controller_flow_mods" => row.controller_flow_mods = value,
            "proxy_flow_mods" => row.proxy_flow_mods = value,
            "probes_injected" => row.probes_injected = value,
            "probes_consumed" => row.probes_consumed = value,
            "acks_sent" => row.acks_sent = value,
            "barrier_replies_released" => row.barriers_released = value,
            "reconnects" => row.reconnects = value,
            _ => {}
        }
    }
    for (name, &value) in &snapshot.gauges {
        if let Some((index, "unconfirmed")) = switch_field(name) {
            rows.entry(index).or_default().unconfirmed = value;
        }
    }
    for (name, summary) in &snapshot.histograms {
        if let Some((index, "confirm_latency_us")) = switch_field(name) {
            let row = rows.entry(index).or_default();
            if summary.count > 0 {
                row.p50_us = Some(summary.p50);
                row.p99_us = Some(summary.p99);
                row.p999_us = Some(summary.p999);
            }
        }
    }
    rows
}

fn fmt_quantile(q: Option<u64>) -> String {
    match q {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

/// Renders one snapshot as the `rumtop` dashboard body (no ANSI control
/// codes — the binary owns the screen refresh).
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let rows = switch_rows(snapshot);
    let _ = writeln!(
        out,
        "RUM live telemetry — {} switch{}",
        rows.len(),
        if rows.len() == 1 { "" } else { "es" }
    );
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "{:<6}{:>9}{:>10}{:>10}{:>8}{:>8}{:>7}{:>9}{:>7}{:>9}{:>9}{:>10}",
            "switch",
            "inflight",
            "ctrl-mods",
            "rum-mods",
            "probes",
            "caught",
            "acks",
            "barriers",
            "reconn",
            "p50(us)",
            "p99(us)",
            "p99.9(us)",
        );
        for (index, row) in &rows {
            let _ = writeln!(
                out,
                "{:<6}{:>9}{:>10}{:>10}{:>8}{:>8}{:>7}{:>9}{:>7}{:>9}{:>9}{:>10}",
                format!("sw{index}"),
                row.unconfirmed,
                row.controller_flow_mods,
                row.proxy_flow_mods,
                row.probes_injected,
                row.probes_consumed,
                row.acks_sent,
                row.barriers_released,
                row.reconnects,
                fmt_quantile(row.p50_us),
                fmt_quantile(row.p99_us),
                fmt_quantile(row.p999_us),
            );
        }
    }

    let session_counter = |field: &str| {
        snapshot
            .counters
            .get(&format!("session.{field}"))
            .copied()
            .unwrap_or(0)
    };
    if snapshot.counters.keys().any(|k| k.starts_with("session.")) {
        let mut line = format!(
            "session: sent {}  confirmed {}  failed {}  retries {}  rollbacks {}  in-flight {}",
            session_counter("mods_sent"),
            session_counter("mods_confirmed"),
            session_counter("mods_failed"),
            session_counter("retries"),
            session_counter("rollbacks_sent"),
            snapshot
                .gauges
                .get("session.in_flight")
                .copied()
                .unwrap_or(0),
        );
        if let Some(h) = snapshot.histograms.get("session.confirm_latency_us") {
            if h.count > 0 {
                let _ = write!(line, "  confirm p50 {}us p99 {}us", h.p50, h.p99);
            }
        }
        let _ = writeln!(out, "{line}");
    }

    render_sessiond(snapshot, &mut out);
    render_resync(snapshot, &mut out);

    let proxy_counter = |field: &str| {
        snapshot
            .counters
            .get(&format!("proxy.{field}"))
            .copied()
            .unwrap_or(0)
    };
    if snapshot.counters.keys().any(|k| k.starts_with("proxy.")) {
        let _ = writeln!(
            out,
            "proxy: conns {}  msgs sw {} ctrl {}  bytes sw {} ctrl {}  drains {}  timers {}",
            proxy_counter("connections"),
            proxy_counter("to_switch_msgs"),
            proxy_counter("to_controller_msgs"),
            proxy_counter("to_switch_bytes"),
            proxy_counter("to_controller_bytes"),
            proxy_counter("drains"),
            proxy_counter("timers_fired"),
        );
    }

    render_shards(snapshot, &mut out);

    let matrix: Vec<(&String, &u64)> = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("matrix."))
        .collect();
    if !matrix.is_empty() {
        let _ = writeln!(out, "matrix verdicts:");
        for (name, value) in matrix {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    out
}

/// Splits a `proxy.shard{k}.{field}` metric name into its shard index and
/// field; `None` for names outside the per-shard namespace (including the
/// per-slot `proxy.sw{i}.*` depth gauges).
fn shard_field(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("proxy.shard")?;
    let dot = rest.find('.')?;
    let index: usize = rest[..dot].parse().ok()?;
    Some((index, &rest[dot + 1..]))
}

/// The sharded-proxy section: one row per engine shard with its drain
/// batches, messages emitted and live outbox depth.  Silent when the
/// snapshot carries no shard metrics (a registry no proxy is attached to).
fn render_shards(snapshot: &Snapshot, out: &mut String) {
    #[derive(Default)]
    struct ShardRow {
        drains: u64,
        msgs: u64,
        outbox_depth: i64,
    }
    let mut shards: BTreeMap<usize, ShardRow> = BTreeMap::new();
    for (name, &value) in &snapshot.counters {
        match shard_field(name) {
            Some((index, "drains")) => shards.entry(index).or_default().drains = value,
            Some((index, "msgs")) => shards.entry(index).or_default().msgs = value,
            _ => {}
        }
    }
    for (name, &value) in &snapshot.gauges {
        if let Some((index, "outbox_depth")) = shard_field(name) {
            shards.entry(index).or_default().outbox_depth = value;
        }
    }
    if shards.is_empty() {
        return;
    }
    let _ = writeln!(out, "shards ({}):", shards.len());
    for (index, row) in &shards {
        let _ = writeln!(
            out,
            "  {:<8} drains {:<8} msgs {:<10} outbox {}",
            format!("shard{index}"),
            row.drains,
            row.msgs,
            row.outbox_depth,
        );
    }
}

/// The declarative-reconciler section: one line with the readback loop's
/// counters and the convergence verdict.  Silent when no reconciler is
/// attached.
fn render_resync(snapshot: &Snapshot, out: &mut String) {
    if !snapshot.counters.keys().any(|k| k.starts_with("resync."))
        && !snapshot.gauges.keys().any(|k| k.starts_with("resync."))
    {
        return;
    }
    let counter = |field: &str| {
        snapshot
            .counters
            .get(&format!("resync.{field}"))
            .copied()
            .unwrap_or(0)
    };
    let gauge = |field: &str| {
        snapshot
            .gauges
            .get(&format!("resync.{field}"))
            .copied()
            .unwrap_or(0)
    };
    let verdict = if gauge("converged") > 0 {
        "converged"
    } else {
        "diverged"
    };
    let mut line = format!(
        "resync: rounds {}  delta-mods {}  re-requests {}  final-diff {}  {}",
        counter("rounds"),
        counter("delta_mods"),
        counter("re_requests"),
        gauge("final_diff"),
        verdict,
    );
    if let Some(h) = snapshot.histograms.get("resync.time_to_convergence_us") {
        if h.count > 0 {
            let _ = write!(line, "  t-conv p50 {}us p99 {}us", h.p50, h.p99);
        }
    }
    let _ = writeln!(out, "{line}");
}

/// Splits a `sessiond.t{i}.{field}` metric name into its tenant index and
/// field; `None` for names outside the per-tenant namespace (including the
/// mux-global `sessiond.*` metrics).
fn tenant_field(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("sessiond.t")?;
    let dot = rest.find('.')?;
    let index: usize = rest[..dot].parse().ok()?;
    Some((index, &rest[dot + 1..]))
}

/// The multi-tenant mux section: one global line plus a row per
/// instrumented tenant.  Silent when no `SessionMux` is attached.
fn render_sessiond(snapshot: &Snapshot, out: &mut String) {
    if !snapshot.counters.keys().any(|k| k.starts_with("sessiond."))
        && !snapshot.gauges.keys().any(|k| k.starts_with("sessiond."))
    {
        return;
    }
    let counter = |field: &str| {
        snapshot
            .counters
            .get(&format!("sessiond.{field}"))
            .copied()
            .unwrap_or(0)
    };
    let gauge = |field: &str| {
        snapshot
            .gauges
            .get(&format!("sessiond.{field}"))
            .copied()
            .unwrap_or(0)
    };
    let mut line = format!(
        "sessiond: active {}  queued {}  in-flight {}  admitted {}  completed {}  \
         aborted {}  conflicts {} serialized / {} rejected  strays {}",
        gauge("active"),
        gauge("queued"),
        gauge("in_flight"),
        counter("admitted"),
        counter("completed"),
        counter("aborted"),
        counter("serialized_conflict"),
        counter("rejected_conflict"),
        counter("stray_acks"),
    );
    if let Some(h) = snapshot.histograms.get("sessiond.confirm_latency_us") {
        if h.count > 0 {
            let _ = write!(line, "  confirm p50 {}us p99 {}us", h.p50, h.p99);
        }
    }
    let _ = writeln!(out, "{line}");

    // Per-tenant rows (the mux instruments only its first 32 tenants; the
    // rest fold into the globals above).
    #[derive(Default)]
    struct TenantRow {
        in_flight: i64,
        confirmed: u64,
    }
    let mut tenants: BTreeMap<usize, TenantRow> = BTreeMap::new();
    for (name, &value) in &snapshot.counters {
        if let Some((index, "confirmed")) = tenant_field(name) {
            tenants.entry(index).or_default().confirmed = value;
        }
    }
    for (name, &value) in &snapshot.gauges {
        if let Some((index, "in_flight")) = tenant_field(name) {
            tenants.entry(index).or_default().in_flight = value;
        }
    }
    for (index, row) in &tenants {
        let _ = writeln!(
            out,
            "  {:<5} in-flight {:<6} confirmed {}",
            format!("t{index}"),
            row.in_flight,
            row.confirmed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Registry;

    fn populated_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("rum.sw0.controller_flow_mods").add(10);
        registry.counter("rum.sw0.proxy_flow_mods").add(12);
        registry.counter("rum.sw0.acks_sent").add(10);
        registry.counter("rum.sw1.reconnects").add(2);
        registry.gauge("rum.sw0.unconfirmed").set(3);
        let h = registry.histogram("rum.sw0.confirm_latency_us");
        for v in [100, 200, 300] {
            h.record(v);
        }
        registry.counter("session.mods_sent").add(20);
        registry.counter("session.mods_confirmed").add(18);
        registry.gauge("session.in_flight").set(2);
        registry.counter("proxy.connections").add(3);
        registry
            .counter("matrix.simnet.early_reply.barrier-only.false_acks")
            .add(4);
        registry
    }

    #[test]
    fn render_groups_switches_session_proxy_and_matrix() {
        let text = render(&populated_registry().snapshot());
        assert!(text.contains("2 switches"), "{text}");
        assert!(text.contains("sw0"), "{text}");
        assert!(text.contains("sw1"), "{text}");
        assert!(text.contains("session: sent 20  confirmed 18"), "{text}");
        assert!(text.contains("proxy: conns 3"), "{text}");
        assert!(
            text.contains("matrix.simnet.early_reply.barrier-only.false_acks = 4"),
            "{text}"
        );
    }

    #[test]
    fn switch_rows_pick_up_counters_gauges_and_quantiles() {
        let rows = switch_rows(&populated_registry().snapshot());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[&0].controller_flow_mods, 10);
        assert_eq!(rows[&0].unconfirmed, 3);
        assert_eq!(rows[&1].reconnects, 2);
        assert!(rows[&0].p50_us.is_some());
        assert!(rows[&1].p50_us.is_none(), "no latency data for sw1");
    }

    #[test]
    fn empty_snapshots_render_without_panicking() {
        let text = render(&Registry::new().snapshot());
        assert!(text.contains("0 switch"), "{text}");
        assert!(!text.contains("session:"), "{text}");
    }

    #[test]
    fn unrelated_names_are_not_misparsed_as_switches() {
        assert_eq!(switch_field("rum.swx.acks_sent"), None);
        assert_eq!(switch_field("proxy.sw0.depth"), None);
        assert_eq!(switch_field("rum.sw12"), None);
        assert_eq!(switch_field("rum.sw12.acks_sent"), Some((12, "acks_sent")));
    }

    #[test]
    fn sessiond_section_renders_globals_and_tenant_rows() {
        let registry = Registry::new();
        registry.counter("sessiond.admitted").add(3);
        registry.counter("sessiond.completed").add(1);
        registry.counter("sessiond.serialized_conflict").add(1);
        registry.gauge("sessiond.active").set(2);
        registry.gauge("sessiond.queued").set(1);
        registry.gauge("sessiond.in_flight").set(4);
        let h = registry.histogram("sessiond.confirm_latency_us");
        h.record(500);
        registry.gauge("sessiond.t0.in_flight").set(1);
        registry.counter("sessiond.t0.confirmed").add(5);
        registry.counter("sessiond.t17.confirmed").add(2);
        let text = render(&registry.snapshot());
        assert!(
            text.contains("sessiond: active 2  queued 1  in-flight 4  admitted 3"),
            "{text}"
        );
        assert!(
            text.contains("conflicts 1 serialized / 0 rejected"),
            "{text}"
        );
        assert!(text.contains("confirm p50"), "{text}");
        assert!(
            text.contains("t0    in-flight 1      confirmed 5"),
            "{text}"
        );
        assert!(text.contains("t17"), "{text}");
    }

    #[test]
    fn sessiond_section_is_silent_without_a_mux() {
        let text = render(&populated_registry().snapshot());
        assert!(!text.contains("sessiond:"), "{text}");
    }

    #[test]
    fn resync_section_renders_counters_verdict_and_quantiles() {
        let registry = Registry::new();
        registry.counter("resync.rounds").add(3);
        registry.counter("resync.delta_mods").add(5);
        registry.counter("resync.re_requests").add(1);
        registry.gauge("resync.converged").set(1);
        registry.gauge("resync.final_diff").set(0);
        registry
            .histogram("resync.time_to_convergence_us")
            .record(42_000);
        let text = render(&registry.snapshot());
        assert!(
            text.contains("resync: rounds 3  delta-mods 5  re-requests 1  final-diff 0  converged"),
            "{text}"
        );
        assert!(text.contains("t-conv p50"), "{text}");
        // A wiped table the reconciler never repaired reads as diverged.
        registry.gauge("resync.converged").set(0);
        registry.gauge("resync.final_diff").set(4);
        let text = render(&registry.snapshot());
        assert!(text.contains("final-diff 4  diverged"), "{text}");
    }

    #[test]
    fn resync_section_is_silent_without_a_reconciler() {
        let text = render(&populated_registry().snapshot());
        assert!(!text.contains("resync:"), "{text}");
    }

    #[test]
    fn shard_section_renders_one_row_per_shard() {
        let registry = populated_registry();
        registry.counter("proxy.shard0.drains").add(40);
        registry.counter("proxy.shard0.msgs").add(120);
        registry.counter("proxy.shard1.drains").add(38);
        registry.gauge("proxy.shard1.outbox_depth").set(7);
        let text = render(&registry.snapshot());
        assert!(text.contains("shards (2):"), "{text}");
        assert!(text.contains("shard0"), "{text}");
        assert!(text.contains("drains 40"), "{text}");
        assert!(text.contains("outbox 7"), "{text}");
    }

    #[test]
    fn shard_section_is_silent_without_shard_metrics() {
        let text = render(&populated_registry().snapshot());
        assert!(!text.contains("shards ("), "{text}");
    }

    #[test]
    fn shard_names_are_parsed_strictly() {
        assert_eq!(shard_field("proxy.shard2.drains"), Some((2, "drains")));
        assert_eq!(shard_field("proxy.shard2.msgs"), Some((2, "msgs")));
        assert_eq!(shard_field("proxy.sw0.switch_outbox_depth"), None);
        assert_eq!(shard_field("proxy.shard2"), None);
        assert_eq!(shard_field("rum.shard2.drains"), None);
    }

    #[test]
    fn tenant_names_are_parsed_strictly() {
        assert_eq!(
            tenant_field("sessiond.t3.confirmed"),
            Some((3, "confirmed"))
        );
        assert_eq!(
            tenant_field("sessiond.t3.in_flight"),
            Some((3, "in_flight"))
        );
        assert_eq!(tenant_field("sessiond.total.confirmed"), None);
        assert_eq!(tenant_field("sessiond.t3"), None);
        assert_eq!(tenant_field("session.t3.confirmed"), None);
    }
}
