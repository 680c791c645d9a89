//! Criterion experiment E10: the pool's batched message fabric on the echo
//! flood, plus a small sweep over the drain-batch knob. The echo flood's
//! message count is schedule-independent (see `mdst_bench::fabric`), so
//! every configuration pays for the same load and the timing differences
//! are pure send-path cost. The harness sibling (with
//! the 50k workload and the `BENCH_fabric.json` artifact) is
//! `mdst_bench::experiments::e10_message_fabric`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst_bench::fabric;
use std::hint::black_box;

const N: usize = 2_000;

fn bench_fabric_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_fabric_flood_2k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let graph = fabric::workload(N);
    group.bench_with_input(BenchmarkId::new("batched", N), &N, |b, _| {
        b.iter(|| black_box(fabric::flood_on_pool(&graph, 0).messages))
    });
    group.finish();
}

fn bench_batch_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_fabric_batch_sweep_2k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let graph = fabric::workload(N);
    for batch in [1usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter(|| black_box(fabric::flood_on_pool(&graph, batch).messages))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fabric_flood, bench_batch_sweep);
criterion_main!(benches);
