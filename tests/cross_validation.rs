//! Cross-validation of the distributed protocol against the sequential
//! baselines and the exact optimum.

use mdst::prelude::*;
use std::sync::Arc;

/// Runs the improvement protocol from `initial` on the simulator.
fn improve(graph: &Arc<Graph>, initial: &RootedTree) -> RunReport {
    Pipeline::on(graph)
        .initial_tree(initial.clone())
        .run()
        .unwrap()
}

#[test]
fn distributed_run_matches_the_sequential_mirror_exactly() {
    // The protocol's decisions are a deterministic function of the tree, so
    // the distributed execution and the centralized mirror of the paper rule
    // must produce the same tree, the same number of exchanges and the same
    // number of rounds.
    for seed in 0..10u64 {
        let graph = Arc::new(generators::gnp_connected(24, 0.18, seed).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let distributed = improve(&graph, &initial);
        let mirror = paper_local_search(&graph, &initial).unwrap();
        assert_eq!(
            distributed.tree().max_degree(),
            mirror.tree.max_degree(),
            "seed {seed}"
        );
        assert_eq!(
            distributed.improvements as usize, mirror.improvements,
            "seed {seed}"
        );
        assert_eq!(distributed.rounds as usize, mirror.rounds, "seed {seed}");
        // Not just the degree: the edge sets coincide.
        let dist_edges: std::collections::BTreeSet<(NodeId, NodeId)> = distributed
            .tree()
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let mirror_edges: std::collections::BTreeSet<(NodeId, NodeId)> = mirror
            .tree
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        assert_eq!(dist_edges, mirror_edges, "seed {seed}");
    }
}

#[test]
fn furer_raghavachari_never_does_worse_than_the_paper_rule() {
    for seed in 0..10u64 {
        let graph = Arc::new(generators::gnp_connected(22, 0.15, seed).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let paper = paper_local_search(&graph, &initial).unwrap();
        let fr = furer_raghavachari(&graph, &initial, true).unwrap();
        assert!(
            fr.tree.max_degree() <= paper.tree.max_degree(),
            "seed {seed}: FR {} vs paper {}",
            fr.tree.max_degree(),
            paper.tree.max_degree()
        );
    }
}

#[test]
fn distributed_result_is_sandwiched_between_optimum_and_initial_degree() {
    for seed in 0..8u64 {
        let graph = Arc::new(generators::gnp_connected(12, 0.3, seed).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        let optimum = exact_min_degree(&graph).unwrap();
        let result = run.tree().max_degree();
        assert!(result >= optimum, "seed {seed}");
        assert!(result <= initial.max_degree(), "seed {seed}");
    }
}

#[test]
fn exact_solver_confirms_structured_optima_reached_by_the_protocol() {
    // On complete graphs and on the star-plus-path worst case, the protocol
    // reaches a tree within one of the optimum degree 2.
    for graph in [
        Arc::new(generators::complete(10).unwrap()),
        Arc::new(generators::star_with_leaf_edges(12).unwrap()),
        Arc::new(generators::wheel(10).unwrap()),
    ] {
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        let optimum = exact_min_degree(&graph).unwrap();
        assert_eq!(optimum, 2);
        assert!(run.tree().max_degree() <= optimum + 1);
    }
}

#[test]
fn forced_hub_instances_are_recognised_as_unimprovable() {
    // Every spanning tree of the broom keeps the centre at degree `branches`,
    // so the protocol must stop immediately with zero exchanges.
    let graph = Arc::new(generators::high_optimum(5, 2).unwrap());
    let initial = algorithms::bfs_tree(&graph, NodeId(0)).unwrap();
    let run = improve(&graph, &initial);
    assert_eq!(run.improvements, 0);
    assert_eq!(run.tree().max_degree(), 5);
    assert_eq!(exact_min_degree(&graph).unwrap(), 5);
}
