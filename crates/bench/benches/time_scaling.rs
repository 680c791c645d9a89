//! Criterion counterpart of experiment E2: the O((k − k*)·n) time claim,
//! measured as the simulated causal time of the improvement run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::prelude::*;
use std::sync::Arc;

fn bench_time_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_time_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[16usize, 32, 64] {
        let graph = Arc::new(generators::star_with_leaf_edges(n).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&graph, &initial);
                std::hint::black_box(run.improvement_metrics.quiescence_time)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_time_scaling);
criterion_main!(benches);
