//! The experiments of DESIGN.md §6, one function per table.
//!
//! Every function is deterministic (fixed seeds) and returns a [`Table`] so
//! the harness binary, the tests and EXPERIMENTS.md all see the same numbers.

use crate::table::Table;
use mdst::core::distributed::MdstNode;
use mdst::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn fmt_f(x: f64) -> String {
    format!("{x:.2}")
}

/// Runs the improvement protocol from `initial` on the simulator: the
/// session every experiment and bench that builds its own initial tree
/// measures. Panics unless the run ends with a validated spanning tree.
pub fn improve(graph: &Arc<Graph>, initial: &RootedTree) -> RunReport {
    Pipeline::on(graph)
        .initial_tree(initial.clone())
        .run()
        .unwrap()
}

/// E1 — messages vs the paper's `O((k − k*)·m)` budget on G(n, p) sweeps and
/// on the star-plus-path worst case.
pub fn e1_message_scaling() -> Table {
    let mut table = Table::new(
        "E1: message complexity vs (k - k* + 1) * m",
        &[
            "workload", "n", "m", "k", "k*", "rounds", "messages", "budget", "ratio",
        ],
    );
    let mut workloads: Vec<(String, Arc<Graph>)> = Vec::new();
    for &n in &[32usize, 64, 128] {
        for &p in &[0.05f64, 0.15] {
            workloads.push((
                format!("gnp({n},{p})"),
                Arc::new(generators::gnp_connected(n, p, 1000 + n as u64).unwrap()),
            ));
        }
        workloads.push((
            format!("star+path({n})"),
            Arc::new(generators::star_with_leaf_edges(n).unwrap()),
        ));
    }
    for (name, graph) in workloads {
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        let k = initial.max_degree();
        let k_star = run.tree().max_degree();
        let budget = ((k - k_star + 1) * graph.edge_count()) as u64;
        table.add_row(vec![
            name,
            graph.node_count().to_string(),
            graph.edge_count().to_string(),
            k.to_string(),
            k_star.to_string(),
            run.rounds.to_string(),
            run.improvement_metrics.messages_total.to_string(),
            budget.to_string(),
            fmt_f(run.improvement_metrics.messages_total as f64 / budget as f64),
        ]);
    }
    table
}

/// E2 — time (causal/quiescence under unit delays) vs the paper's
/// `O((k − k*)·n)` budget.
pub fn e2_time_scaling() -> Table {
    let mut table = Table::new(
        "E2: time complexity vs (k - k* + 1) * n",
        &["workload", "n", "k", "k*", "time", "budget", "ratio"],
    );
    for &n in &[16usize, 32, 64, 128] {
        let graph = Arc::new(generators::star_with_leaf_edges(n).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        let k = initial.max_degree();
        let k_star = run.tree().max_degree();
        let budget = ((k - k_star + 1) * n) as u64;
        table.add_row(vec![
            format!("star+path({n})"),
            n.to_string(),
            k.to_string(),
            k_star.to_string(),
            run.improvement_metrics.quiescence_time.to_string(),
            budget.to_string(),
            fmt_f(run.improvement_metrics.quiescence_time as f64 / budget as f64),
        ]);
    }
    table
}

/// E3 — per-round message breakdown by kind (the per-step cost table of §4.2).
pub fn e3_round_breakdown() -> Table {
    let mut table = Table::new(
        "E3: messages by kind, total and per round (star+path(32), greedy-hub seed)",
        &["kind", "total", "per round", "paper per-round bound"],
    );
    let graph = Arc::new(generators::star_with_leaf_edges(32).unwrap());
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    let run = improve(&graph, &initial);
    let rounds = run.rounds as f64;
    let n = graph.node_count();
    let m = graph.edge_count();
    let bound = |kind: &str| -> String {
        match kind {
            "SearchInit" | "DegreeReport" | "MoveRoot" | "Update" | "UpdateDone" | "Stop" => {
                format!("n-1 = {}", n - 1)
            }
            "BFS" | "BFSReply" | "Cut" | "BFSBack" => format!("2m = {}", 2 * m),
            "Child" | "ChildAck" => "1".to_string(),
            _ => String::new(),
        }
    };
    for (kind, count) in &run.improvement_metrics.messages_by_kind {
        table.add_row(vec![
            kind.clone(),
            count.to_string(),
            fmt_f(*count as f64 / rounds),
            bound(kind),
        ]);
    }
    table.add_row(vec![
        "TOTAL".to_string(),
        run.improvement_metrics.messages_total.to_string(),
        fmt_f(run.improvement_metrics.messages_total as f64 / rounds),
        format!("O(m + n), m = {m}, n = {n}"),
    ]);
    table
}

/// E4 — message size (bits) vs n: the `O(log n)` claim.
pub fn e4_message_size() -> Table {
    let mut table = Table::new(
        "E4: message size vs n (bits; paper: O(log n), at most ~4 identities)",
        &["n", "log2(n)", "max bits", "mean bits"],
    );
    for &n in &[8usize, 16, 32, 64, 128, 256] {
        let graph = Arc::new(generators::star_with_leaf_edges(n).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        table.add_row(vec![
            n.to_string(),
            ((n as f64).log2().ceil() as usize).to_string(),
            run.improvement_metrics.bits_max.to_string(),
            fmt_f(run.improvement_metrics.bits_mean()),
        ]);
    }
    table
}

/// E5 — approximation quality: distributed result vs exact optimum (small
/// instances) and vs the combinatorial lower bound (larger ones).
pub fn e5_approximation_quality() -> Table {
    let mut table = Table::new(
        "E5: approximation quality (final degree vs optimum / lower bound)",
        &[
            "workload",
            "n",
            "initial k",
            "final",
            "optimum",
            "LB",
            "gap to opt",
        ],
    );
    let small: Vec<(String, Arc<Graph>)> = vec![
        (
            "complete(10)".into(),
            Arc::new(generators::complete(10).unwrap()),
        ),
        (
            "star+path(12)".into(),
            Arc::new(generators::star_with_leaf_edges(12).unwrap()),
        ),
        ("wheel(10)".into(), Arc::new(generators::wheel(10).unwrap())),
        (
            "K(3,7)".into(),
            Arc::new(generators::complete_bipartite(3, 7).unwrap()),
        ),
        ("petersen".into(), Arc::new(generators::petersen().unwrap())),
        (
            "broom(4,2)".into(),
            Arc::new(generators::high_optimum(4, 2).unwrap()),
        ),
        (
            "gnp(12,0.25)#1".into(),
            Arc::new(generators::gnp_connected(12, 0.25, 1).unwrap()),
        ),
        (
            "gnp(12,0.25)#2".into(),
            Arc::new(generators::gnp_connected(12, 0.25, 2).unwrap()),
        ),
        (
            "gnp(12,0.25)#3".into(),
            Arc::new(generators::gnp_connected(12, 0.25, 3).unwrap()),
        ),
    ];
    for (name, graph) in small {
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        let optimum = exact_min_degree(&graph).unwrap();
        let final_degree = run.tree().max_degree();
        table.add_row(vec![
            name,
            graph.node_count().to_string(),
            initial.max_degree().to_string(),
            final_degree.to_string(),
            optimum.to_string(),
            degree_lower_bound(&graph).to_string(),
            (final_degree - optimum).to_string(),
        ]);
    }
    // Larger instances: exact is out of reach, report against the lower bound.
    for &n in &[64usize, 128] {
        let graph = Arc::new(generators::gnp_connected(n, 0.08, 5).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        table.add_row(vec![
            format!("gnp({n},0.08)"),
            n.to_string(),
            initial.max_degree().to_string(),
            run.tree().max_degree().to_string(),
            "-".to_string(),
            degree_lower_bound(&graph).to_string(),
            "-".to_string(),
        ]);
    }
    table
}

/// E6 — messages on complete graphs vs the Korach–Moran–Zaks Ω(n²/k) bound.
pub fn e6_kmz_comparison() -> Table {
    let mut table = Table::new(
        "E6: complete graphs, messages vs the KMZ lower bound n^2/k",
        &["n", "m", "k*", "messages", "n^2/k*", "ratio"],
    );
    for &n in &[8usize, 16, 32, 64] {
        let graph = Arc::new(generators::complete(n).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let run = improve(&graph, &initial);
        let k_star = run.tree().max_degree();
        let bound = kmz_message_lower_bound(n, k_star);
        table.add_row(vec![
            n.to_string(),
            graph.edge_count().to_string(),
            k_star.to_string(),
            run.improvement_metrics.messages_total.to_string(),
            fmt_f(bound),
            fmt_f(kmz_ratio(run.improvement_metrics.messages_total, n, k_star)),
        ]);
    }
    table
}

/// E7 — sensitivity to the initial spanning tree: rounds and messages per
/// construction on the same graph.
///
/// Rebased on the `mdst-scenario` campaign engine: the sweep is a declarative
/// matrix (one graph, the `initial` axis carrying every construction) executed
/// by the parallel runner, and the table rows are its per-run records. New
/// experiments should follow this pattern instead of hand-rolled loops.
pub fn e7_initial_tree_sensitivity() -> Table {
    use mdst_scenario::prelude::*;

    let mut table = Table::new(
        "E7: initial-tree sensitivity (gnp(48, 0.1), same graph, every construction)",
        &[
            "initial tree",
            "k",
            "k*",
            "rounds",
            "improve msgs",
            "construct msgs",
        ],
    );
    let spec = r#"
        [campaign]
        name = "e7-initial-tree-sensitivity"

        [[scenario]]
        name = "initial-axis"
        graph = { family = "gnp_connected", n = 48, p = 0.1, seed = 77 }
        initial = ["greedy_hub", "bfs", "dfs", "random", "flooding", "token"]
        seeds = [0]
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).expect("embedded spec is valid");
    let report = run_campaign(&matrix, &RunnerConfig::default()).expect("campaign runs");
    assert_eq!(report.total.failures, 0, "E7 campaign must not fail");
    for run in &report.runs {
        table.add_row(vec![
            run.initial.clone(),
            run.initial_degree.to_string(),
            run.final_degree.to_string(),
            run.rounds.to_string(),
            run.messages.to_string(),
            if run.construction_messages == 0 {
                "0 (centralized)".to_string()
            } else {
                run.construction_messages.to_string()
            },
        ]);
    }
    table
}

/// A1 — distributed protocol vs the sequential baselines on shared instances.
pub fn a1_algorithm_comparison() -> Table {
    let mut table = Table::new(
        "A1: distributed vs sequential baselines (final degree)",
        &[
            "workload",
            "initial k",
            "distributed",
            "paper rule (seq)",
            "FR (seq)",
            "LB",
        ],
    );
    let workloads: Vec<(String, Arc<Graph>)> = vec![
        (
            "complete(24)".into(),
            Arc::new(generators::complete(24).unwrap()),
        ),
        (
            "star+path(24)".into(),
            Arc::new(generators::star_with_leaf_edges(24).unwrap()),
        ),
        (
            "grid(5x5)".into(),
            Arc::new(generators::grid(5, 5).unwrap()),
        ),
        (
            "hypercube(5)".into(),
            Arc::new(generators::hypercube(5).unwrap()),
        ),
        (
            "gnp(40,0.1)".into(),
            Arc::new(generators::gnp_connected(40, 0.1, 13).unwrap()),
        ),
        (
            "geometric(40)".into(),
            Arc::new(generators::random_geometric_connected(40, 0.25, 13).unwrap()),
        ),
    ];
    for (name, graph) in workloads {
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let dist = improve(&graph, &initial);
        let paper = paper_local_search(&graph, &initial).unwrap();
        let fr = furer_raghavachari(&graph, &initial, true).unwrap();
        table.add_row(vec![
            name,
            initial.max_degree().to_string(),
            dist.tree().max_degree().to_string(),
            paper.tree.max_degree().to_string(),
            fr.tree.max_degree().to_string(),
            degree_lower_bound(&graph).to_string(),
        ]);
    }
    table
}

/// A2 — delay-model sensitivity: the outcome is identical, only the
/// (simulated) completion clock changes.
pub fn a2_delay_sensitivity() -> Table {
    let mut table = Table::new(
        "A2: delay-model sensitivity (gnp(32, 0.12), greedy-hub seed)",
        &[
            "delay model",
            "final degree",
            "messages",
            "quiescence clock",
        ],
    );
    let graph = Arc::new(generators::gnp_connected(32, 0.12, 8).unwrap());
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    let models: Vec<(String, DelayModel)> = vec![
        ("unit".into(), DelayModel::Unit),
        (
            "uniform[1,10] seed 1".into(),
            DelayModel::UniformRandom {
                min: 1,
                max: 10,
                seed: 1,
            },
        ),
        (
            "uniform[1,10] seed 2".into(),
            DelayModel::UniformRandom {
                min: 1,
                max: 10,
                seed: 2,
            },
        ),
        (
            "per-link[1,25] seed 1".into(),
            DelayModel::PerLinkFixed {
                min: 1,
                max: 25,
                seed: 1,
            },
        ),
    ];
    for (name, delay) in models {
        let config = SimConfig {
            delay,
            ..Default::default()
        };
        let run = Pipeline::on(&graph)
            .initial_tree(initial.clone())
            .sim(config)
            .run()
            .unwrap();
        table.add_row(vec![
            name,
            run.tree().max_degree().to_string(),
            run.improvement_metrics.messages_total.to_string(),
            run.improvement_metrics.quiescence_time.to_string(),
        ]);
    }
    table
}

/// A3 — the strict paper rule vs the Fürer–Raghavachari extension that also
/// improves blocking degree-(k−1) vertices.
pub fn a3_improvement_policy() -> Table {
    let mut table = Table::new(
        "A3: strict paper rule vs FR blocking-set extension (sequential)",
        &[
            "workload",
            "initial k",
            "strict",
            "with blocking",
            "optimum",
        ],
    );
    let workloads: Vec<(String, Arc<Graph>)> = (0..6u64)
        .map(|seed| {
            (
                format!("gnp(14,0.2)#{seed}"),
                Arc::new(generators::gnp_connected(14, 0.2, seed).unwrap()),
            )
        })
        .collect();
    for (name, graph) in workloads {
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let strict = furer_raghavachari(&graph, &initial, false).unwrap();
        let blocking = furer_raghavachari(&graph, &initial, true).unwrap();
        let optimum = exact_min_degree(&graph).unwrap();
        table.add_row(vec![
            name,
            initial.max_degree().to_string(),
            strict.tree.max_degree().to_string(),
            blocking.tree.max_degree().to_string(),
            optimum.to_string(),
        ]);
    }
    table
}

/// A4 — the discrete-event simulator vs the threaded crossbeam runtime: same
/// messages, different wall time.
pub fn a4_runtime_comparison() -> Table {
    let mut table = Table::new(
        "A4: simulator vs threaded runtime (same protocol, same seeds)",
        &[
            "n",
            "sim messages",
            "thread messages",
            "same tree",
            "sim wall ms",
            "thread wall ms",
        ],
    );
    for &n in &[16usize, 32, 64] {
        let graph = Arc::new(generators::gnp_connected(n, 0.12, 3).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let sim = improve(&graph, &initial);
        let nodes = MdstNode::from_tree(&initial);
        let threaded = ThreadedRuntime::run(&graph, |id, _| nodes[id.index()].clone());
        let thr_tree = collect_tree(&threaded.nodes).unwrap();
        let same = thr_tree
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect::<std::collections::BTreeSet<_>>()
            == sim
                .tree()
                .edges()
                .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
                .collect::<std::collections::BTreeSet<_>>();
        table.add_row(vec![
            n.to_string(),
            sim.improvement_metrics.messages_total.to_string(),
            threaded.metrics.messages_total.to_string(),
            same.to_string(),
            fmt_f(sim.wall_ms),
            fmt_f(threaded.wall_time.as_secs_f64() * 1e3),
        ]);
    }
    table
}

/// F1 — Figure 1 as a table: the exchange performed on the figure's instance.
pub fn f1_figure1() -> Table {
    let mut table = Table::new(
        "F1: Figure 1 (single exchange on the figure's 6-node instance)",
        &["quantity", "value"],
    );
    let mut builder = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (3, 5)] {
        builder.add_edge(NodeId(u), NodeId(v)).unwrap();
    }
    let graph = Arc::new(builder.build());
    let parents = vec![
        None,
        Some(NodeId(0)),
        Some(NodeId(0)),
        Some(NodeId(0)),
        Some(NodeId(0)),
        Some(NodeId(1)),
    ];
    let initial = RootedTree::from_parents(NodeId(0), parents).unwrap();
    let run = improve(&graph, &initial);
    table.add_row(vec![
        "initial max degree".into(),
        initial.max_degree().to_string(),
    ]);
    table.add_row(vec![
        "final max degree".into(),
        run.tree().max_degree().to_string(),
    ]);
    table.add_row(vec![
        "added edge (the figure's Add)".into(),
        format!(
            "(v3, v5) in tree: {}",
            run.tree().has_edge(NodeId(3), NodeId(5))
        ),
    ]);
    table.add_row(vec![
        "deleted edge (the figure's Delete)".into(),
        format!(
            "(v0, v1) in tree: {}",
            run.tree().has_edge(NodeId(0), NodeId(1))
        ),
    ]);
    table.add_row(vec!["exchanges".into(), run.improvements.to_string()]);
    table
}

/// F2 — Figure 2 as a table: the BFS wave statistics of one round.
pub fn f2_figure2() -> Table {
    let mut table = Table::new(
        "F2: Figure 2 (BFS wave and cousin-edge discovery on a 10-node instance)",
        &["quantity", "value"],
    );
    let mut builder = GraphBuilder::new(10);
    let tree_edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 4),
        (4, 7),
        (2, 5),
        (5, 8),
        (3, 6),
        (6, 9),
    ];
    for (u, v) in tree_edges {
        builder.add_edge(NodeId(u), NodeId(v)).unwrap();
    }
    builder.add_edge(NodeId(7), NodeId(8)).unwrap();
    builder.add_edge(NodeId(8), NodeId(9)).unwrap();
    let graph = Arc::new(builder.build());
    let initial = RootedTree::from_edges(
        10,
        NodeId(0),
        &tree_edges.map(|(u, v)| (NodeId(u), NodeId(v))),
    )
    .unwrap();
    let run = improve(&graph, &initial);
    table.add_row(vec![
        "initial max degree".into(),
        initial.max_degree().to_string(),
    ]);
    table.add_row(vec![
        "final max degree".into(),
        run.tree().max_degree().to_string(),
    ]);
    table.add_row(vec![
        "BFS wave messages".into(),
        run.improvement_metrics.count_of("BFS").to_string(),
    ]);
    table.add_row(vec![
        "cousin replies (outgoing edges seen)".into(),
        run.improvement_metrics.count_of("BFSReply").to_string(),
    ]);
    table.add_row(vec![
        "BFSBack convergecast".into(),
        run.improvement_metrics.count_of("BFSBack").to_string(),
    ]);
    table
}

/// E9 — the CSR graph substrate against the former nested-vector adjacency,
/// timed on the operations a campaign pays per run: building the topology,
/// sweeping every neighbour list, and preparing a run's topology view (the
/// `Arc::clone` that replaced the per-run adjacency re-materialisation).
/// The criterion sibling lives in `benches/graph_substrate.rs`; this table
/// records the same comparison in the harness output.
pub fn e9_graph_substrate() -> Table {
    use crate::substrate;
    let mut table = Table::new(
        "E9: CSR substrate vs Vec<Vec> adjacency baseline (random_connected(5000, 15000))",
        &["operation", "csr (µs)", "baseline (µs)", "speedup"],
    );
    let (n, edges) = substrate::e9_workload_edges();
    let build_baseline = || substrate::build_baseline_adjacency(n, &edges);
    let build_csr = || substrate::build_csr(n, &edges);
    const REPS: u32 = 5;
    let time_us = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..REPS {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / REPS as f64
    };

    let csr_build = time_us(&|| {
        std::hint::black_box(build_csr());
    });
    let base_build = time_us(&|| {
        std::hint::black_box(build_baseline());
    });
    table.add_row(vec![
        "construction".into(),
        fmt_f(csr_build),
        fmt_f(base_build),
        fmt_f(base_build / csr_build),
    ]);

    let graph = build_csr();
    let baseline = build_baseline();
    let csr_sweep = time_us(&|| {
        let mut acc = 0usize;
        for u in graph.nodes() {
            for &v in graph.neighbor_slice(u) {
                acc = acc.wrapping_add(v.index());
            }
        }
        std::hint::black_box(acc);
    });
    let base_sweep = time_us(&|| {
        let mut acc = 0usize;
        for row in &baseline {
            for &(v, _) in row {
                acc = acc.wrapping_add(v.index());
            }
        }
        std::hint::black_box(acc);
    });
    table.add_row(vec![
        "full neighbour sweep".into(),
        fmt_f(csr_sweep),
        fmt_f(base_sweep),
        fmt_f(base_sweep / csr_sweep),
    ]);

    let shared = Arc::new(graph);
    let arc_view = time_us(&|| {
        std::hint::black_box(Arc::clone(&shared));
    });
    let remat = time_us(&|| {
        let neighbors: Vec<Vec<NodeId>> = (0..n)
            .map(|u| shared.neighbors(NodeId::new(u)).collect())
            .collect();
        std::hint::black_box(neighbors);
    });
    table.add_row(vec![
        "per-run topology view".into(),
        fmt_f(arc_view),
        fmt_f(remat),
        fmt_f(remat / arc_view.max(1e-3)),
    ]);
    table
}

/// E10 — throughput of the pool's batched message fabric on the
/// deterministic echo-flood workload at two scales. The flood's message
/// count is schedule-independent (see [`crate::fabric`]), so every run moves
/// exactly the same load and the throughput isolates the send path:
/// bucketed per-destination flushes with one relaxed in-flight bump per
/// quantum.
///
/// Besides the table, the experiment writes `BENCH_fabric.json` (machine
/// readable, one record per workload) to the working directory so CI can
/// archive the numbers. `BENCH_SMOKE=1` shrinks the workloads to CI-smoke
/// size; the criterion sibling lives in `benches/message_fabric.rs`.
pub fn e10_message_fabric() -> Table {
    use crate::fabric;
    let mut table = Table::new(
        "E10: batched message fabric throughput (pool flood)",
        &["workload", "messages", "wall ms", "msgs/sec"],
    );
    let reps = if fabric::smoke() { 2 } else { 3 };
    let mut records: Vec<serde::Value> = Vec::new();
    for n in fabric::e10_nodes() {
        let graph = fabric::workload(n);
        let sample = fabric::best_of(&graph, 0, reps);
        let wall_ms = sample.wall.as_secs_f64() * 1e3;
        table.add_row(vec![
            format!("flood random_connected({n})"),
            sample.messages.to_string(),
            fmt_f(wall_ms),
            fmt_f(sample.msgs_per_sec()),
        ]);
        records.push(serde::Value::Object(vec![
            ("n".into(), serde::Value::UInt(n as u64)),
            ("m".into(), serde::Value::UInt(graph.edge_count() as u64)),
            ("messages".into(), serde::Value::UInt(sample.messages)),
            ("wall_ms".into(), serde::Value::Float(wall_ms)),
            (
                "msgs_per_sec".into(),
                serde::Value::Float(sample.msgs_per_sec()),
            ),
        ]));
    }
    let doc = serde::Value::Object(vec![
        (
            "experiment".into(),
            serde::Value::String("e10_message_fabric".into()),
        ),
        ("smoke".into(), serde::Value::Bool(fabric::smoke())),
        ("runs".into(), serde::Value::Array(records)),
    ]);
    // Best effort: the table is the primary artifact; a read-only working
    // directory must not fail the harness.
    if let Err(e) = std::fs::write("BENCH_fabric.json", doc.to_json_pretty() + "\n") {
        eprintln!("e10: could not write BENCH_fabric.json: {e}");
    }
    table
}

/// E11 — streaming two-pass CSR ingestion against the legacy whole-file
/// parse, at three scales, on a serialised `random_connected` workload. Wall
/// time and an accounted peak-bytes model per path (see [`crate::ingest`]
/// for the model and why a counting allocator is off the table), plus the
/// gzip twin through the chunked decoder with its buffering high-water mark
/// *asserted* under [`crate::ingest::DECODER_HIGH_WATER_CAP`] — the machine-checked
/// form of "streaming gzip ingestion never materialises the edge stream".
///
/// Besides the table, the experiment writes `BENCH_ingest.json` (one record
/// per measured run) for CI to archive. `BENCH_SMOKE=1` shrinks the sweep.
pub fn e11_graph_ingest() -> Table {
    use crate::ingest;
    let mut table = Table::new(
        "E11: streaming CSR ingestion vs legacy whole-file parse (edge list)",
        &[
            "workload",
            "path",
            "edges",
            "wall ms",
            "peak bytes",
            "peak vs legacy",
        ],
    );
    let dir = std::env::temp_dir().join(format!("mdst_e11_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e11: could not create {}: {e}", dir.display());
        return table;
    }
    let mut records: Vec<serde::Value> = Vec::new();
    for n in ingest::e11_nodes() {
        let (plain, gz, file_bytes) = ingest::write_workload(n, &dir).unwrap();
        let (legacy_graph, legacy) = ingest::legacy_ingest(&plain).unwrap();
        let (stream_graph, streaming) = ingest::streaming_ingest(&plain).unwrap();
        let (gz_graph, gz_sample) = ingest::streaming_gz_ingest(&gz).unwrap();
        // All three paths must agree on the graph before any timing counts.
        assert_eq!(legacy.edges, streaming.edges, "paths disagree at n={n}");
        assert_eq!(
            legacy.edges, gz_sample.edges,
            "gzip path disagrees at n={n}"
        );
        assert_eq!(legacy_graph.max_degree(), stream_graph.max_degree());
        assert_eq!(stream_graph.memory_bytes(), gz_graph.memory_bytes());
        // The memory-diet regression gates: the streaming path must undercut
        // the legacy peak, and the decoder's buffering must stay bounded no
        // matter how many edges flow through it.
        assert!(
            streaming.peak_bytes < legacy.peak_bytes,
            "streaming peak {} must undercut legacy {} at n={n}",
            streaming.peak_bytes,
            legacy.peak_bytes
        );
        let high_water = gz_sample.decoder_high_water.unwrap_or(usize::MAX);
        assert!(
            high_water <= ingest::DECODER_HIGH_WATER_CAP,
            "gzip decoder buffered {high_water} bytes at n={n} (cap {}): \
             the chunked inflate must never materialise the stream",
            ingest::DECODER_HIGH_WATER_CAP
        );
        for (name, sample) in [
            ("legacy", &legacy),
            ("streaming", &streaming),
            ("streaming .gz", &gz_sample),
        ] {
            let wall_ms = sample.wall.as_secs_f64() * 1e3;
            let ratio = sample.peak_bytes as f64 / legacy.peak_bytes as f64;
            table.add_row(vec![
                format!("random_connected({n}), {file_bytes} B file"),
                name.to_string(),
                sample.edges.to_string(),
                fmt_f(wall_ms),
                sample.peak_bytes.to_string(),
                fmt_f(ratio),
            ]);
            records.push(serde::Value::Object(vec![
                ("n".into(), serde::Value::UInt(n as u64)),
                ("m".into(), serde::Value::UInt(sample.edges as u64)),
                ("file_bytes".into(), serde::Value::UInt(file_bytes as u64)),
                ("path".into(), serde::Value::String(name.to_string())),
                ("wall_ms".into(), serde::Value::Float(wall_ms)),
                (
                    "peak_bytes".into(),
                    serde::Value::UInt(sample.peak_bytes as u64),
                ),
                (
                    "decoder_high_water".into(),
                    match sample.decoder_high_water {
                        Some(hw) => serde::Value::UInt(hw as u64),
                        None => serde::Value::Null,
                    },
                ),
                ("peak_vs_legacy".into(), serde::Value::Float(ratio)),
            ]));
        }
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&gz);
    }
    let _ = std::fs::remove_dir(&dir);
    let doc = serde::Value::Object(vec![
        (
            "experiment".into(),
            serde::Value::String("e11_graph_ingest".into()),
        ),
        ("smoke".into(), serde::Value::Bool(crate::fabric::smoke())),
        ("runs".into(), serde::Value::Array(records)),
    ]);
    // Best effort, same policy as E10: the table is the primary artifact.
    if let Err(e) = std::fs::write("BENCH_ingest.json", doc.to_json_pretty() + "\n") {
        eprintln!("e11: could not write BENCH_ingest.json: {e}");
    }
    table
}

/// An experiment: a nullary function producing its table.
pub type ExperimentFn = fn() -> Table;

/// All experiments in DESIGN.md order.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("f1", f1_figure1 as ExperimentFn),
        ("f2", f2_figure2),
        ("e1", e1_message_scaling),
        ("e2", e2_time_scaling),
        ("e3", e3_round_breakdown),
        ("e4", e4_message_size),
        ("e5", e5_approximation_quality),
        ("e6", e6_kmz_comparison),
        ("e7", e7_initial_tree_sensitivity),
        ("e9", e9_graph_substrate),
        ("e10", e10_message_fabric),
        ("e11", e11_graph_ingest),
        ("a1", a1_algorithm_comparison),
        ("a2", a2_delay_sensitivity),
        ("a3", a3_improvement_policy),
        ("a4", a4_runtime_comparison),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_a_non_empty_table() {
        // Run only the cheap ones exhaustively here; the expensive sweeps are
        // covered by the harness smoke test in CI-style runs.
        for (id, run) in [
            ("f1", f1_figure1 as ExperimentFn),
            ("f2", f2_figure2),
            ("e4", e4_message_size),
            ("e6", e6_kmz_comparison),
            ("e7", e7_initial_tree_sensitivity),
            ("a2", a2_delay_sensitivity),
            ("a3", a3_improvement_policy),
        ] {
            let table = run();
            assert!(!table.is_empty(), "{id}");
            assert!(table.render().contains('|'), "{id}");
        }
    }

    #[test]
    fn experiment_registry_is_complete_and_unique() {
        let all = all_experiments();
        assert_eq!(all.len(), 16);
        let ids: std::collections::BTreeSet<&str> = all.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), all.len());
    }
}
