//! Criterion bench isolating the cost of the telemetry hot-path operations:
//! the bulk indexed flow-mod install with and without the per-apply metric
//! updates (sharded counter increment + per-thread recorder observation).
//! The two curves should be near-indistinguishable — `bench_results` records
//! the same comparison as the `telemetry_overhead/*` rows of
//! `BENCH_results.json`, whose per-apply difference in ns `validate_results`
//! gates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rum_bench::throughput::{bulk_flow_mods, install_indexed, install_indexed_instrumented};
use telemetry::Registry;

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let mods = bulk_flow_mods(n);
        group.bench_function(format!("uninstrumented_{n}"), |b| {
            b.iter(|| install_indexed(black_box(&mods)))
        });
        group.bench_function(format!("instrumented_{n}"), |b| {
            b.iter(|| install_indexed_instrumented(black_box(&mods), &Registry::new()))
        });
    }
    group.finish();
}

criterion_group!(benches, telemetry_overhead);
criterion_main!(benches);
