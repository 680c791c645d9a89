//! Criterion counterpart of experiment E3: cost of a single round (one
//! SearchDegree + Cut/BFS/Choose cycle), isolated by running the protocol on a
//! tree that admits exactly one improvement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::prelude::*;
use std::sync::Arc;

/// A graph and tree where only one exchange is possible: the hub's degree can
/// drop exactly once, so a run is "one working round plus one closing round".
fn one_improvement_instance(branches: usize) -> (Arc<Graph>, RootedTree) {
    let graph = Arc::new(generators::high_optimum(branches, 2).unwrap());
    // Add one extra edge between the tips of the first two branches so exactly
    // one exchange becomes available when the initial tree hangs both branch
    // interiors off the hub... the simplest such instance is the wheel.
    let graph = {
        let _ = graph;
        Arc::new(generators::wheel(branches + 1).unwrap())
    };
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    (graph, initial)
}

fn bench_round_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_round_cost");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[16usize, 32, 64] {
        let (graph, initial) = one_improvement_instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let run = mdst_bench::improve(&graph, &initial);
                std::hint::black_box((run.rounds, run.improvement_metrics.messages_total))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round_cost);
criterion_main!(benches);
