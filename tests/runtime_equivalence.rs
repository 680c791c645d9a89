//! The discrete-event simulator and the sharded pool must agree: the
//! protocol's outcome depends only on the tree structure, never on message
//! timing, so running it under real OS scheduling is an end-to-end check
//! that no hidden synchrony assumption crept in. Pool runs pin at least four
//! workers so they interleave on real threads even on a one-CPU host; the
//! one-worker-per-node tests give every node its own OS thread.

use mdst::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn edge_set(tree: &RootedTree) -> BTreeSet<(NodeId, NodeId)> {
    tree.edges()
        .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
        .collect()
}

/// Runs the improvement protocol from the greedy hub tree on the simulator
/// and on the pool with `workers` workers.
fn sim_and_pool_runs(graph: &Arc<Graph>, workers: usize) -> (RunReport, RunReport) {
    let initial = algorithms::greedy_high_degree_tree(graph, NodeId(0)).unwrap();
    let sim_run = Pipeline::on(graph)
        .initial_tree(initial.clone())
        .run()
        .unwrap();
    let pool_run = Pipeline::on(graph)
        .initial_tree(initial)
        .executor(ExecutorKind::Pool)
        .workers(workers)
        .run()
        .unwrap();
    assert_eq!(pool_run.executor, ExecutorKind::Pool);
    (sim_run, pool_run)
}

#[test]
fn pool_and_simulated_runs_produce_the_same_tree() {
    for seed in 0..5u64 {
        let graph = Arc::new(generators::gnp_connected(24, 0.2, seed).unwrap());
        let (sim_run, pool_run) = sim_and_pool_runs(&graph, 4);
        assert_eq!(
            edge_set(sim_run.tree()),
            edge_set(pool_run.tree()),
            "seed {seed}"
        );
        assert!(pool_run.tree().is_spanning_tree_of(&graph), "seed {seed}");
        let (sim, pool) = (&sim_run.improvement_metrics, &pool_run.improvement_metrics);
        assert_eq!(sim.messages_by_kind, pool.messages_by_kind, "seed {seed}");
        assert_eq!(sim.messages_total, pool.messages_total, "seed {seed}");
        assert_eq!(sim.bits_total, pool.bits_total, "seed {seed}");
    }
}

#[test]
fn one_worker_per_node_pool_and_simulated_runs_produce_the_same_tree() {
    for seed in 0..5u64 {
        let graph = Arc::new(generators::gnp_connected(20, 0.2, seed).unwrap());
        let (sim_run, pool_run) = sim_and_pool_runs(&graph, graph.node_count());
        assert_eq!(
            edge_set(sim_run.tree()),
            edge_set(pool_run.tree()),
            "seed {seed}"
        );
        assert!(pool_run.tree().is_spanning_tree_of(&graph), "seed {seed}");
    }
}

#[test]
fn pool_and_simulated_runs_exchange_the_same_messages() {
    // The protocol is message-deterministic: the same messages flow on both
    // backends, only their interleaving differs.
    let graph = Arc::new(generators::star_with_leaf_edges(14).unwrap());
    let (sim_run, pool_run) = sim_and_pool_runs(&graph, 4);
    let (sim, pool) = (&sim_run.improvement_metrics, &pool_run.improvement_metrics);
    assert_eq!(sim.messages_total, pool.messages_total);
    assert_eq!(sim.messages_by_kind, pool.messages_by_kind);
    assert_eq!(sim.bits_total, pool.bits_total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded fabric must agree with the simulator for *every* graph
    /// seed, drain-batch size and worker count, not just the defaults: the
    /// batch knob only reshapes scheduling quanta, never the message flow.
    /// Small batch sizes are the adversarial end — a batch of 1 maximises
    /// requeues and cross-shard hand-overs.
    #[test]
    fn batched_pool_matches_the_simulator_for_any_seed_and_batch(
        seed in any::<u64>(),
        batch in 1usize..96,
        workers in 1usize..6,
    ) {
        let graph = Arc::new(generators::gnp_connected(18, 0.25, seed).expect("valid"));
        let initial =
            algorithms::greedy_high_degree_tree(&graph, NodeId(0)).expect("connected");
        let sim_run = Pipeline::on(&graph)
            .initial_tree(initial.clone())
            .run()
            .expect("sim");
        let pool_run = Pipeline::on(&graph)
            .initial_tree(initial)
            .executor(ExecutorKind::Pool)
            .workers(workers)
            .batch(batch)
            .run()
            .expect("pool");
        prop_assert_eq!(edge_set(sim_run.tree()), edge_set(pool_run.tree()));
        let (sim, pool) = (&sim_run.improvement_metrics, &pool_run.improvement_metrics);
        prop_assert_eq!(&sim.messages_by_kind, &pool.messages_by_kind);
        prop_assert_eq!(sim.bits_total, pool.bits_total);
        prop_assert_eq!(sim.messages_total, pool.messages_total);
    }
}

#[test]
fn spanning_tree_constructions_also_run_on_the_pool() {
    use mdst::spanning::flooding::FloodingSt;
    let graph = Arc::new(generators::grid(8, 8).unwrap());
    let run = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &ExecConfig {
                workers: 4,
                ..Default::default()
            },
            &CancelToken::new(),
        )
        .unwrap();
    let tree = collect_tree(&run.nodes).unwrap();
    assert!(tree.is_spanning_tree_of(&graph));
    assert_eq!(tree.root(), NodeId(0));
    let m = graph.edge_count() as u64;
    let n = graph.node_count() as u64;
    assert_eq!(run.metrics.messages_total, 2 * m + (n - 1));
}

#[test]
fn spanning_tree_constructions_run_with_one_worker_per_node() {
    use mdst::spanning::flooding::FloodingSt;
    let graph = Arc::new(generators::grid(5, 5).unwrap());
    let run = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &ExecConfig {
                workers: graph.node_count(),
                ..Default::default()
            },
            &CancelToken::new(),
        )
        .unwrap();
    assert_eq!(run.workers, graph.node_count());
    let tree = collect_tree(&run.nodes).unwrap();
    assert!(tree.is_spanning_tree_of(&graph));
    assert_eq!(tree.root(), NodeId(0));
    let m = graph.edge_count() as u64;
    let n = graph.node_count() as u64;
    assert_eq!(run.metrics.messages_total, 2 * m + (n - 1));
}
