//! Criterion counterpart of experiment E1: wall-clock and message cost of the
//! full improvement run as n grows (the O((k − k*)·m) claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::prelude::*;
use std::sync::Arc;

fn bench_messages_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_messages_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[16usize, 32, 64] {
        let graph = Arc::new(generators::star_with_leaf_edges(n).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        group.bench_with_input(BenchmarkId::new("star_plus_path", n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&graph, &initial);
                std::hint::black_box(run.improvement_metrics.messages_total)
            })
        });
        let gnp = Arc::new(generators::gnp_connected(n, 0.1, 7).unwrap());
        let gnp_initial = algorithms::greedy_high_degree_tree(&gnp, NodeId(0)).unwrap();
        group.bench_with_input(BenchmarkId::new("gnp_0.1", n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&gnp, &gnp_initial);
                std::hint::black_box(run.improvement_metrics.messages_total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_messages_scaling);
criterion_main!(benches);
