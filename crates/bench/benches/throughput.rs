//! Criterion-registered bulk flow-mod install into the indexed
//! [`ofswitch::FlowTable`] (10k–1M entries), with the linear-scan oracle as
//! baseline at the size where its quadratic cost is still tolerable.
//!
//! `cargo bench --bench throughput` prints comparable wall times; the same
//! workloads feed the `flow_mod_install/*` rows `bench_results` writes to
//! `BENCH_results.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rum_bench::throughput::{bulk_flow_mods, install_indexed, install_linear};

fn flow_mod_install(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_mod_install");
    group.sample_size(3);
    for n in [10_000usize, 100_000, 1_000_000] {
        let mods = bulk_flow_mods(n);
        group.bench_function(format!("indexed_{n}"), |b| {
            b.iter(|| install_indexed(black_box(&mods)))
        });
    }
    // The linear baseline is quadratic; 10k (~hundreds of ms per run) is the
    // largest size worth spinning here.  `bench_results` measures it once at
    // 100k for the recorded speedup.
    let mods = bulk_flow_mods(10_000);
    group.bench_function("linear_10000", |b| {
        b.iter(|| install_linear(black_box(&mods)))
    });
    group.finish();
}

criterion_group!(benches, flow_mod_install);
criterion_main!(benches);
