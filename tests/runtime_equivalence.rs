//! The discrete-event simulator, the threaded crossbeam runtime and the
//! work-stealing pool must agree: the protocol's outcome depends only on the
//! tree structure, never on message timing, so running it under real OS
//! scheduling (thread-per-node or multiplexed) is an end-to-end check that
//! no hidden synchrony assumption crept in.

use mdst::core::distributed::MdstNode;
use mdst::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn run_both(
    graph: &Arc<Graph>,
    initial: &RootedTree,
) -> (RootedTree, RootedTree, Metrics, Metrics) {
    let sim_run = Pipeline::on(graph)
        .initial_tree(initial.clone())
        .run()
        .unwrap();
    let nodes = MdstNode::from_tree(initial);
    let threaded = ThreadedRuntime::run(graph, |id, _| nodes[id.index()].clone());
    let threaded_tree = collect_tree(&threaded.nodes).unwrap();
    (
        sim_run.tree().clone(),
        threaded_tree,
        sim_run.improvement_metrics,
        threaded.metrics,
    )
}

#[test]
fn threaded_and_simulated_runs_produce_the_same_tree() {
    for seed in 0..5u64 {
        let graph = Arc::new(generators::gnp_connected(20, 0.2, seed).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let (sim_tree, thr_tree, _, _) = run_both(&graph, &initial);
        let a: std::collections::BTreeSet<_> = sim_tree
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let b: std::collections::BTreeSet<_> = thr_tree
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        assert_eq!(a, b, "seed {seed}");
        assert!(thr_tree.is_spanning_tree_of(&graph), "seed {seed}");
    }
}

#[test]
fn threaded_and_simulated_runs_exchange_the_same_messages() {
    // The protocol is message-deterministic: the same messages flow in both
    // runtimes, only their interleaving differs.
    let graph = Arc::new(generators::star_with_leaf_edges(14).unwrap());
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    let (_, _, sim_metrics, thr_metrics) = run_both(&graph, &initial);
    assert_eq!(sim_metrics.messages_total, thr_metrics.messages_total);
    assert_eq!(sim_metrics.messages_by_kind, thr_metrics.messages_by_kind);
    assert_eq!(sim_metrics.bits_total, thr_metrics.bits_total);
}

#[test]
fn pool_and_simulated_runs_produce_the_same_tree() {
    for seed in 0..5u64 {
        let graph = Arc::new(generators::gnp_connected(24, 0.2, seed).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let sim_run = Pipeline::on(&graph)
            .initial_tree(initial.clone())
            .run()
            .unwrap();
        let pool_run = Pipeline::on(&graph)
            .initial_tree(initial)
            .executor(ExecutorKind::Pool)
            .workers(4)
            .run()
            .unwrap();
        assert_eq!(pool_run.executor, ExecutorKind::Pool);
        let a: std::collections::BTreeSet<_> = sim_run
            .tree()
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let b: std::collections::BTreeSet<_> = pool_run
            .tree()
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(
            sim_run.improvement_metrics.messages_by_kind,
            pool_run.improvement_metrics.messages_by_kind,
            "seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The batched fabric must agree with the simulator for *every* graph
    /// seed and every drain-batch size, not just the default: the batch knob
    /// only reshapes scheduling quanta, never the message flow. Small batch
    /// sizes are the adversarial end — a batch of 1 maximises flush count
    /// and continuation churn.
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
        let a: std::collections::BTreeSet<_> = sim_run
            .tree()
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let b: std::collections::BTreeSet<_> = pool_run
            .tree()
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        prop_assert_eq!(a, b);
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
    let run = PoolRuntime::run(
        &graph,
        |id, _| FloodingSt::new(id, NodeId(0)),
        &PoolConfig::default(),
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
fn spanning_tree_constructions_also_run_on_threads() {
    use mdst::spanning::flooding::FloodingSt;
    let graph = Arc::new(generators::grid(5, 5).unwrap());
    let run = ThreadedRuntime::run(&graph, |id, _| FloodingSt::new(id, NodeId(0)));
    let tree = collect_tree(&run.nodes).unwrap();
    assert!(tree.is_spanning_tree_of(&graph));
    assert_eq!(tree.root(), NodeId(0));
    let m = graph.edge_count() as u64;
    let n = graph.node_count() as u64;
    assert_eq!(run.metrics.messages_total, 2 * m + (n - 1));
}
