//! The workloads of `crates/bench`'s two wall-clock gates, run by the
//! `bench_results` binary: bulk flow-mod install into the indexed and the
//! linear-scan flow table, and the same indexed install with the telemetry
//! hot-path operations active.  Each workload
//! returns the elapsed wall time for a known number of operations so callers
//! derive ops/sec however they aggregate.

use ofswitch::{FlowTable, LinearFlowTable};
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use telemetry::{Recorder, Registry};

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// `n` flow-mod ADDs with pairwise-distinct matches at one priority — the
/// bulk-install shape of the paper's experiments (and the worst case for the
/// linear table's replace scan).
pub fn bulk_flow_mods(n: usize) -> Vec<FlowMod> {
    (0..n as u32)
        .map(|i| {
            FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
                    Ipv4Addr::new(172, 16, 0, 1),
                ),
                100,
                vec![Action::output(2)],
            )
            .with_cookie(u64::from(i))
        })
        .collect()
}

/// Installs every flow-mod into a fresh indexed [`FlowTable`]; returns the
/// elapsed time for the `mods.len()` applies.
pub fn install_indexed(mods: &[FlowMod]) -> Duration {
    let mut table = FlowTable::new(0);
    let start = Instant::now();
    for fm in mods {
        table
            .apply(fm, std::time::Duration::ZERO)
            .expect("install succeeds");
    }
    let elapsed = start.elapsed();
    assert_eq!(table.len(), mods.len());
    elapsed
}

/// The identical indexed install with the telemetry hot-path operations
/// active: one sharded-counter increment and one per-thread recorder
/// observation per apply — exactly the shape of the instrumentation on the
/// proxy's message path — plus one gauge publish per run.  No clocks are
/// read per operation; every recorded value is already available from the
/// workload.  Comparing this against [`install_indexed`] on the same `mods`
/// isolates the pure cost of the metric operations (the
/// `telemetry_overhead` rows of `BENCH_results.json`).
pub fn install_indexed_instrumented(mods: &[FlowMod], registry: &Registry) -> Duration {
    let mut table = FlowTable::new(0);
    let ops = registry.counter("bench.install.ops");
    let table_len = registry.gauge("bench.install.table_len");
    let mut sizes = Recorder::new(registry.histogram("bench.install.table_len_dist"));
    let start = Instant::now();
    for fm in mods {
        table
            .apply(fm, std::time::Duration::ZERO)
            .expect("install succeeds");
        ops.inc();
        sizes.record(table.len() as u64);
    }
    sizes.flush();
    table_len.set(table.len() as i64);
    let elapsed = start.elapsed();
    assert_eq!(table.len(), mods.len());
    elapsed
}

/// Installs every flow-mod into a fresh [`LinearFlowTable`] — the
/// linear-scan baseline the speedup is measured against.
pub fn install_linear(mods: &[FlowMod]) -> Duration {
    let mut table = LinearFlowTable::new(0);
    let start = Instant::now();
    for fm in mods {
        table
            .apply(fm, std::time::Duration::ZERO)
            .expect("install succeeds");
    }
    let elapsed = start.elapsed();
    assert_eq!(table.len(), mods.len());
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_at_small_scale() {
        let mods = bulk_flow_mods(64);
        assert!(install_indexed(&mods) > Duration::ZERO);
        assert!(install_linear(&mods) > Duration::ZERO);
    }

    #[test]
    fn instrumented_install_does_the_same_work_and_reports_it() {
        let mods = bulk_flow_mods(128);
        let registry = Registry::new();
        assert!(install_indexed_instrumented(&mods, &registry) > Duration::ZERO);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["bench.install.ops"], 128);
        assert_eq!(snap.gauges["bench.install.table_len"], 128);
        let sizes = &snap.histograms["bench.install.table_len_dist"];
        assert_eq!(sizes.count, 128);
        // min/max track exact values, not bucket bounds.
        assert_eq!(sizes.min, 1, "first apply sees a one-entry table");
        assert_eq!(sizes.max, 128);
    }

    #[test]
    fn indexed_and_linear_agree_on_the_workload() {
        let mods = bulk_flow_mods(200);
        let mut a = FlowTable::new(0);
        let mut b = LinearFlowTable::new(0);
        for fm in &mods {
            assert_eq!(
                a.apply(fm, std::time::Duration::ZERO),
                b.apply(fm, std::time::Duration::ZERO)
            );
        }
        assert_eq!(a.len(), b.len());
        assert!(a.entries().eq(b.entries()));
    }
}
