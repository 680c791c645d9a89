//! Criterion experiment E8: the executor backends on a 1,000-node random
//! graph. The flooding broadcast compares raw substrate throughput on the
//! same deterministic message load (2m + n − 1 messages whatever the
//! schedule); the MDegST improvement compares the simulator against the pool
//! on the full protocol, the regime the pool was built for. Thread-per-node
//! gets its own small group at n = 128: 1,000 OS threads is exactly the
//! cost the pool exists to avoid, and on a small host the context-switch
//! storm would dominate the whole suite (one data point says enough).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::core::distributed::MdstNode;
use mdst::prelude::*;
use mdst::spanning::flooding::FloodingSt;
use std::sync::Arc;

const N: usize = 1_000;

fn bench_flood_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_executor_flood_1k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let graph = Arc::new(generators::random_connected(N, N / 2, 11).unwrap());
    group.bench_with_input(BenchmarkId::new("sim", N), &N, |b, _| {
        b.iter(|| {
            let mut sim = Simulator::new(&graph, SimConfig::default(), |id, _| {
                FloodingSt::new(id, NodeId(0))
            })
            .unwrap();
            sim.run().unwrap();
            std::hint::black_box(sim.metrics().messages_total)
        })
    });
    for workers in [8usize, 32] {
        group.bench_with_input(BenchmarkId::new(format!("pool{workers}"), N), &N, |b, _| {
            b.iter(|| {
                let run = PoolRuntime::run(
                    &graph,
                    |id, _| FloodingSt::new(id, NodeId(0)),
                    &PoolConfig {
                        workers,
                        ..Default::default()
                    },
                )
                .unwrap();
                std::hint::black_box(run.metrics.messages_total)
            })
        });
    }
    group.finish();
}

fn bench_thread_per_node_small(c: &mut Criterion) {
    // One OS thread per node stops scaling long before the pool does; this
    // group pins the comparison at a size every host can still schedule.
    const SMALL: usize = 128;
    let mut group = c.benchmark_group("e8_executor_flood_threaded_128");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let graph = Arc::new(generators::random_connected(SMALL, SMALL / 2, 11).unwrap());
    group.bench_with_input(BenchmarkId::new("threaded", SMALL), &SMALL, |b, _| {
        b.iter(|| {
            let run = ThreadedRuntime::run(&graph, |id, _| FloodingSt::new(id, NodeId(0)));
            std::hint::black_box(run.metrics.messages_total)
        })
    });
    group.bench_with_input(BenchmarkId::new("pool8", SMALL), &SMALL, |b, _| {
        b.iter(|| {
            let run = PoolRuntime::run(
                &graph,
                |id, _| FloodingSt::new(id, NodeId(0)),
                &PoolConfig {
                    workers: 8,
                    ..Default::default()
                },
            )
            .unwrap();
            std::hint::black_box(run.metrics.messages_total)
        })
    });
    group.finish();
}

fn bench_mdst_improvement(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_executor_mdst_1k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(2000));
    let graph = Arc::new(generators::random_connected(N, N / 4, 11).unwrap());
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    group.bench_with_input(BenchmarkId::new("sim", N), &N, |b, _| {
        b.iter(|| {
            let run = mdst_bench::improve(&graph, &initial);
            std::hint::black_box(run.tree().max_degree())
        })
    });
    for workers in [8usize, 32] {
        group.bench_with_input(BenchmarkId::new(format!("pool{workers}"), N), &N, |b, _| {
            b.iter(|| {
                let nodes = MdstNode::from_tree(&initial);
                let run = PoolRuntime::run(
                    &graph,
                    |id, _| nodes[id.index()].clone(),
                    &PoolConfig {
                        workers,
                        ..Default::default()
                    },
                )
                .unwrap();
                std::hint::black_box(run.metrics.messages_total)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flood_broadcast,
    bench_thread_per_node_small,
    bench_mdst_improvement
);
criterion_main!(benches);
