//! End-to-end pipeline tests across topology families and configurations.

use mdst::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn families(seed: u64) -> Vec<(&'static str, Arc<Graph>)> {
    vec![
        ("complete", Arc::new(generators::complete(12).unwrap())),
        (
            "star_with_leaf_edges",
            Arc::new(generators::star_with_leaf_edges(14).unwrap()),
        ),
        ("wheel", Arc::new(generators::wheel(12).unwrap())),
        ("grid", Arc::new(generators::grid(4, 5).unwrap())),
        ("hypercube", Arc::new(generators::hypercube(4).unwrap())),
        ("petersen", Arc::new(generators::petersen().unwrap())),
        (
            "complete_bipartite",
            Arc::new(generators::complete_bipartite(3, 9).unwrap()),
        ),
        ("lollipop", Arc::new(generators::lollipop(6, 6).unwrap())),
        ("barbell", Arc::new(generators::barbell(5, 3).unwrap())),
        (
            "caterpillar",
            Arc::new(generators::caterpillar(5, 2).unwrap()),
        ),
        ("broom", Arc::new(generators::high_optimum(4, 3).unwrap())),
        (
            "gnp",
            Arc::new(generators::gnp_connected(30, 0.15, seed).unwrap()),
        ),
        (
            "geometric",
            Arc::new(generators::random_geometric_connected(25, 0.3, seed).unwrap()),
        ),
    ]
}

#[test]
fn every_family_yields_a_certified_locally_optimal_tree() {
    for (name, graph) in families(3) {
        let report = Pipeline::on(&graph)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.outcome, Outcome::Optimal, "{name}");
        assert!(report.tree().is_spanning_tree_of(&graph), "{name}");
        assert!(report.final_degree <= report.initial_degree, "{name}");
        assert!(report.final_degree >= degree_lower_bound(&graph), "{name}");
        assert!(
            verify_termination_certificate(&graph, report.tree()),
            "{name}: final tree must be blocked at its max-degree node"
        );
    }
}

#[test]
fn all_initial_constructions_agree_on_reachability_of_low_degree() {
    // Regardless of how bad the initial tree is, the improvement must land at
    // a degree no worse than what the paper-rule sequential mirror reaches
    // from the same start.
    let graph = Arc::new(generators::gnp_connected(28, 0.2, 9).unwrap());
    for kind in InitialTreeKind::all(5) {
        let report = Pipeline::on(&graph)
            .initial(kind)
            .root(NodeId(0))
            .run()
            .unwrap();
        let mirror = paper_local_search(&graph, &report.initial_tree).unwrap();
        assert_eq!(
            report.final_degree,
            mirror.tree.max_degree(),
            "{}: distributed and sequential mirror disagree",
            kind.label()
        );
    }
}

#[test]
fn pipeline_works_under_every_delay_and_start_model() {
    let graph = Arc::new(generators::gnp_connected(24, 0.18, 4).unwrap());
    let delays = [
        DelayModel::Unit,
        DelayModel::UniformRandom {
            min: 1,
            max: 11,
            seed: 2,
        },
        DelayModel::PerLinkFixed {
            min: 1,
            max: 29,
            seed: 7,
        },
    ];
    let starts = [
        StartModel::Simultaneous,
        StartModel::Staggered {
            max_offset: 40,
            seed: 13,
        },
    ];
    let mut final_degrees = std::collections::BTreeSet::new();
    for delay in &delays {
        for start in &starts {
            let report = Pipeline::on(&graph)
                .initial(InitialTreeKind::GreedyHub)
                .root(NodeId(0))
                .sim(SimConfig {
                    delay: delay.clone(),
                    start: start.clone(),
                    ..Default::default()
                })
                .run()
                .unwrap();
            assert!(report.tree().is_spanning_tree_of(&graph));
            final_degrees.insert(report.final_degree);
        }
    }
    assert_eq!(
        final_degrees.len(),
        1,
        "the protocol's outcome is schedule independent"
    );
}

#[test]
fn message_kinds_match_the_papers_inventory() {
    let graph = Arc::new(generators::star_with_leaf_edges(16).unwrap());
    let report = Pipeline::on(&graph).run().unwrap();
    let metrics = &report.improvement_metrics;
    // Every round performs SearchDegree, MoveRoot (possibly zero hops), Cut,
    // BFS, BFSBack, Update/Child and the run ends with Stop.
    for kind in [
        "SearchInit",
        "DegreeReport",
        "Cut",
        "BFS",
        "BFSBack",
        "Update",
        "Child",
        "ChildAck",
        "UpdateDone",
        "Stop",
    ] {
        assert!(metrics.count_of(kind) > 0, "missing message kind {kind}");
    }
    // Exactly one Stop per non-root node.
    assert_eq!(metrics.count_of("Stop"), graph.node_count() as u64 - 1);
    // One Child and one ChildAck per exchange.
    assert_eq!(metrics.count_of("Child"), report.improvements as u64);
    assert_eq!(metrics.count_of("ChildAck"), report.improvements as u64);
}

#[test]
fn large_sparse_network_completes_with_reasonable_cost() {
    let graph = Arc::new(generators::gnp_connected(150, 0.03, 17).unwrap());
    let report = Pipeline::on(&graph).run().unwrap();
    assert!(report.tree().is_spanning_tree_of(&graph));
    // Per-round cost is linear in m + n (§4.2); the serialised implementation
    // runs one round per exchange, so the total budget is rounds · O(m + n)
    // and, because every exchange lowers some node's degree, the number of
    // rounds is at most n — which recovers the paper's O(n·m) worst case.
    assert!(report.rounds as usize <= report.n);
    let per_round_budget = 4 * (report.m as u64 + report.n as u64);
    assert!(
        report.improvement_metrics.messages_total <= report.rounds as u64 * per_round_budget,
        "messages {} exceed {} rounds x {}",
        report.improvement_metrics.messages_total,
        report.rounds,
        per_round_budget
    );
}

/// An `Observer` registered through the builder receives at least one
/// on-round and exactly one on-finish event on **every** executor backend.
#[test]
fn observers_fire_on_every_executor_backend() {
    let graph = Arc::new(generators::star_with_leaf_edges(16).unwrap());
    for kind in ExecutorKind::all() {
        let mut counts = CountingObserver::default();
        let report = Pipeline::on(&graph)
            .executor(kind)
            .observer(&mut counts)
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::Optimal, "{kind}");
        assert_eq!(counts.constructions, 1, "{kind}");
        assert!(counts.rounds >= 1, "{kind}: no on-round event");
        assert_eq!(counts.rounds as u32, report.rounds, "{kind}");
        assert_eq!(counts.exchanges as u32, report.improvements, "{kind}");
        assert_eq!(counts.finishes, 1, "{kind}: on-finish must fire once");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Benign fault plans (omitted, or spelled out with a seed) on a
    /// reliable network end optimal on every backend and construction, with
    /// the simulator's message counts, rounds and improvements.
    #[test]
    fn benign_fault_plans_end_optimal_on_every_backend(
        (n, extra, seed) in (4usize..24, 0usize..30, any::<u64>()),
        (exec, init, spelled_benign) in (0usize..3, 0usize..3, any::<bool>()),
    ) {
        let graph =
            Arc::new(generators::random_connected(n, extra, seed).expect("valid parameters"));
        let initial = match init {
            0 => InitialTreeKind::GreedyHub,
            1 => InitialTreeKind::Bfs,
            _ => InitialTreeKind::Random(seed ^ 0xABCD),
        };
        let faults = if spelled_benign {
            // A benign plan with a seed set is still benign: the loss coin
            // stream is never consulted.
            FaultPlan { loss: 0.0, seed: seed ^ 0x5EED, ..Default::default() }
        } else {
            FaultPlan::none()
        };
        let reference = Pipeline::on(&graph).initial(initial).run().unwrap();
        let report = Pipeline::on(&graph)
            .initial(initial)
            .executor(ExecutorKind::all()[exec])
            .workers(2)
            .faults(faults)
            .run()
            .unwrap();
        prop_assert_eq!(report.outcome, Outcome::Optimal);
        prop_assert!(report.tree().is_spanning_tree_of(&graph));
        prop_assert_eq!(report.final_degree, report.tree().max_degree());
        prop_assert_eq!(report.survivor.component_size(), n);
        prop_assert_eq!(&report.initial_tree, &reference.initial_tree);
        prop_assert_eq!(report.final_degree, reference.final_degree);
        // Message counts are deterministic on every backend; the causal
        // clocks also depend on thread scheduling, so they are not compared.
        let (got, want) = (&report.improvement_metrics, &reference.improvement_metrics);
        prop_assert_eq!(got.messages_total, want.messages_total);
        prop_assert_eq!(&got.messages_by_kind, &want.messages_by_kind);
        prop_assert_eq!(got.bits_total, want.bits_total);
        prop_assert_eq!(report.rounds, reference.rounds);
        prop_assert_eq!(report.improvements, reference.improvements);
    }

    /// Lossy and crashing simulator runs are graded, never errored: an
    /// optimal outcome implies a terminated, spanning survivor snapshot, and
    /// the reported degree is the survivor grading's.
    #[test]
    fn faulty_sim_runs_are_graded_not_errored(
        (n, extra, seed, loss_tenths, crash) in
            (5usize..20, 0usize..24, any::<u64>(), 1u32..8, any::<bool>())
    ) {
        let graph =
            Arc::new(generators::random_connected(n, extra, seed).expect("valid parameters"));
        let mut faults = FaultPlan {
            loss: f64::from(loss_tenths) / 10.0,
            seed: seed ^ 0xF00D,
            ..Default::default()
        };
        if crash {
            faults.crashes.push(CrashAt {
                node: NodeId::new((seed % n as u64) as usize),
                at: 3,
            });
        }
        let report = Pipeline::on(&graph).faults(faults).run().unwrap();
        prop_assert_eq!(report.final_degree, report.survivor.max_degree);
        if report.outcome.is_optimal() {
            prop_assert!(report.all_live_terminated);
            prop_assert!(report.survivor.spans_component);
        }
    }
}

/// The reference semantics of `RunReport::final_tree`, written out as a
/// test-side oracle: build, validate, run, require quiescence and
/// termination everywhere, collect, validate. A node that crashed *after*
/// receiving `Stop` still lets this path collect and return the tree.
fn historical_strict_run(
    graph: &Arc<Graph>,
    config: &PipelineConfig,
) -> Result<(RootedTree, Metrics, u32, u32), GraphError> {
    let (initial_tree, _construction) = build_initial_tree(graph, config.root, config.initial)?;
    initial_tree.validate_against(graph)?;
    let nodes = MdstNode::from_tree(&initial_tree);
    let run = config
        .executor
        .run(
            graph,
            |id, _| nodes[id.index()].clone(),
            &config.exec_config(),
        )
        .map_err(|e| GraphError::InvalidParameter(e.to_string()))?;
    if run.status != ExecStatus::Quiesced {
        return Err(GraphError::NotASpanningTree(format!(
            "protocol did not quiesce: event limit of {} exceeded",
            config.sim.max_events
        )));
    }
    if !run.all_terminated() {
        return Err(GraphError::NotASpanningTree(
            "a node never received Stop".to_string(),
        ));
    }
    let final_tree = collect_tree(&run.nodes)?;
    final_tree.validate_against(graph)?;
    let rounds = run.nodes.iter().map(|p| p.round()).max().unwrap_or(0);
    let improvements = run.nodes.iter().map(|p| p.improvements_made()).sum();
    Ok((final_tree, run.metrics, rounds, improvements))
}

fn crash_config(node: NodeId, at: u64) -> PipelineConfig {
    PipelineConfig {
        sim: SimConfig {
            faults: FaultPlan {
                crashes: vec![CrashAt { node, at }],
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The session carries a tree exactly when the reference path collects
    /// one, and then agrees with it on the tree, metrics, rounds and
    /// improvements.
    #[test]
    fn final_tree_matches_the_reference_path_under_crash_plans(
        (n, extra, seed, crash_node, crash_at) in
            (5usize..18, 0usize..20, any::<u64>(), 0u64..18, 0u64..80)
    ) {
        let graph =
            Arc::new(generators::random_connected(n, extra, seed).expect("valid parameters"));
        let config = crash_config(NodeId::new((crash_node % n as u64) as usize), crash_at);
        let oracle = historical_strict_run(&graph, &config);
        let report = Pipeline::on(&graph)
            .config(config)
            .run()
            .expect("crash plans degrade runs, they never fail the session");
        match (oracle, &report.final_tree) {
            (Ok((tree, metrics, rounds, improvements)), Some(final_tree)) => {
                prop_assert_eq!(&tree, final_tree);
                prop_assert_eq!(&metrics, &report.improvement_metrics);
                prop_assert_eq!(rounds, report.rounds);
                prop_assert_eq!(improvements, report.improvements);
            }
            (Err(_), None) => {}
            (oracle, final_tree) => prop_assert!(
                false,
                "tree divergence: oracle {oracle:?}, session {final_tree:?}"
            ),
        }
    }
}

/// A crash that fires *after* the node received `Stop` still lets the
/// session collect and return the tree (regression pin for the case the
/// proptest above may or may not sample).
#[test]
fn post_termination_crashes_still_yield_the_collected_tree() {
    let graph = Arc::new(generators::random_connected(8, 4, 0).unwrap());
    let config = crash_config(NodeId(0), 29);
    let report = Pipeline::on(&graph).config(config.clone()).run().unwrap();
    assert_eq!(report.improvement_metrics.crashed_nodes, 1);
    assert!(report.all_terminated, "crash must land after Stop here");
    let tree = report
        .final_tree
        .as_ref()
        .expect("a fully terminated snapshot collects even after a late crash");
    assert!(tree.is_spanning_tree_of(&graph));
    let (oracle_tree, ..) = historical_strict_run(&graph, &config).unwrap();
    assert_eq!(&oracle_tree, tree);
}
