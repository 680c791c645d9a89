//! Criterion counterpart of ablation A4: the discrete-event simulator vs the
//! threaded crossbeam runtime executing the same protocol on the same
//! instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::core::distributed::MdstNode;
use mdst::prelude::*;
use std::sync::Arc;

fn bench_runtime_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("a4_runtime_comparison");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[16usize, 32] {
        let graph = Arc::new(generators::gnp_connected(n, 0.15, 3).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        group.bench_with_input(BenchmarkId::new("simulator", n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&graph, &initial);
                std::hint::black_box(run.tree().max_degree())
            })
        });
        group.bench_with_input(BenchmarkId::new("threaded", n), &n, |b, _| {
            b.iter(|| {
                let nodes = MdstNode::from_tree(&initial);
                let run = ThreadedRuntime::run(&graph, |id, _| nodes[id.index()].clone());
                std::hint::black_box(run.metrics.messages_total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_comparison);
criterion_main!(benches);
