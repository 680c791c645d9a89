//! Criterion counterpart of experiment E7: full pipeline cost per initial
//! spanning-tree construction on the same graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdst::prelude::*;
use std::sync::Arc;

fn bench_initial_tree_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_initial_tree_sensitivity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let graph = Arc::new(generators::gnp_connected(48, 0.1, 77).unwrap());
    for kind in InitialTreeKind::all(9) {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let run = Pipeline::on(&graph).initial(kind).run().unwrap();
                    std::hint::black_box((run.rounds, run.tree().max_degree()))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_initial_tree_sensitivity);
criterion_main!(benches);
