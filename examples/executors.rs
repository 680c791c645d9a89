//! Runs the same MDegST improvement on both executor backends, each reached
//! through `ExecutorKind::run` by way of the `Pipeline` session, and compares
//! their verdicts and wall times: the discrete-event simulator and the
//! sharded pool of OS threads, whose per-worker counters it prints.
//!
//! ```text
//! cargo run --release --example executors
//! ```

use mdst::prelude::*;

fn main() {
    let graph = Arc::new(generators::star_with_leaf_edges(200).expect("valid parameters"));
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).expect("connected");
    println!(
        "n = {}, m = {}, initial tree degree = {}",
        graph.node_count(),
        graph.edge_count(),
        initial.max_degree()
    );
    println!(
        "{:<9} {:>7} {:>9} {:>7} {:>8} {:>11}",
        "executor", "degree", "messages", "rounds", "workers", "wall"
    );

    let mut degrees = Vec::new();
    for kind in ExecutorKind::all() {
        let report = Pipeline::on(&graph)
            .initial_tree(initial.clone())
            .executor(kind)
            .workers(8) // pool only; the simulator ignores it
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::Optimal);
        println!(
            "{:<9} {:>7} {:>9} {:>7} {:>8} {:>9.2}ms",
            kind.label(),
            report.final_degree,
            report.improvement_metrics.messages_total,
            report.rounds,
            report.workers,
            report.wall_ms
        );
        for (w, stats) in report.worker_stats.iter().enumerate() {
            println!(
                "  worker {w}: {} quanta, {} chains, {} sessions ({} foreign), \
                 {} hand-overs carrying {} messages, {:.2}ms idle",
                stats.quanta,
                stats.chains,
                stats.sessions,
                stats.foreign_sessions,
                stats.handovers,
                stats.handed,
                stats.idle_ns as f64 / 1e6
            );
        }
        assert!(report.tree().is_spanning_tree_of(&graph));
        assert!(verify_termination_certificate(&graph, report.tree()));
        degrees.push(report.final_degree);
    }

    assert!(
        degrees.windows(2).all(|w| w[0] == w[1]),
        "the protocol's decisions are schedule independent"
    );
    println!("both executors agree on the locally optimal tree");
}
