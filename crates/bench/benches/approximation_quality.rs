//! Criterion counterpart of experiment E5: cost of the quality oracles — the
//! exact branch-and-bound solver and the sequential baselines — on small
//! instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::prelude::*;
use std::sync::Arc;

fn bench_approximation_quality(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_approximation_quality");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[8usize, 10, 12] {
        let graph = Arc::new(generators::gnp_connected(n, 0.3, 4).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(exact_min_degree(&graph).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("paper_rule_seq", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    paper_local_search(&graph, &initial)
                        .unwrap()
                        .tree
                        .max_degree(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("furer_raghavachari", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    furer_raghavachari(&graph, &initial, true)
                        .unwrap()
                        .tree
                        .max_degree(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("distributed", n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&graph, &initial);
                std::hint::black_box(run.tree().max_degree())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_approximation_quality);
criterion_main!(benches);
