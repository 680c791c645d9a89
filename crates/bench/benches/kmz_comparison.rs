//! Criterion counterpart of experiment E6: the full run on complete graphs,
//! whose message cost §5 compares against the Korach–Moran–Zaks Ω(n²/k) bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::prelude::*;
use std::sync::Arc;

fn bench_kmz(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_kmz_complete_graphs");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[8usize, 16, 32] {
        let graph = Arc::new(generators::complete(n).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&graph, &initial);
                std::hint::black_box(kmz_ratio(
                    run.improvement_metrics.messages_total,
                    n,
                    run.tree().max_degree(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kmz);
criterion_main!(benches);
