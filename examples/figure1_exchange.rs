//! Reproduction of Figure 1 of the paper: a single improvement round — the
//! maximum-degree node `p` cuts its subtrees into fragments, the BFS wave
//! finds an outgoing edge between two fragments, and the exchange ("Delete"
//! the tree edge at `p`, "Add" the outgoing edge) lowers the maximum degree.
//!
//! ```text
//! cargo run --example figure1_exchange
//! ```

use mdst::prelude::*;

fn main() {
    // A small network in the spirit of the figure: p is a hub of degree 4; two
    // of its fragments are joined by a spare edge between two low-degree
    // nodes. Nodes: p = 0; fragment roots x = 1, C = 3, D = 4; E = 5 hangs
    // below x; the outgoing edge is (C, E) = (3, 5).
    let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (3, 5)];
    let graph = Arc::new(graph_from_edges(6, &edges).unwrap());

    // Initial spanning tree: the star around p plus node 5 under node 1.
    let parents = vec![
        None,            // p
        Some(NodeId(0)), // x
        Some(NodeId(0)), // x'
        Some(NodeId(0)), // C
        Some(NodeId(0)), // D
        Some(NodeId(1)), // E, below x
    ];
    let initial = RootedTree::from_parents(NodeId(0), parents).unwrap();
    println!("initial tree (degree {}):", initial.max_degree());
    println!("{}", dot::overlay_to_dot(&graph, &initial, &[]));

    // Stream the improvement through an observer: every round and every
    // Delete/Add exchange of the figure arrives as a typed event.
    struct Narrator;
    impl Observer for Narrator {
        fn on_round(&mut self, event: &RoundEvent) {
            println!(
                "round {}: {}",
                event.round,
                if event.improved == Some(true) {
                    "found an outgoing edge, exchanging"
                } else {
                    "locally optimal, stopping"
                }
            );
        }
        fn on_exchange(&mut self, event: &ExchangeEvent) {
            println!(
                "exchange #{}: Delete at p, Add the cousin edge",
                event.index
            );
        }
    }
    let mut narrator = Narrator;
    let report = Pipeline::on(&graph)
        .initial_tree(initial.clone())
        .observer(&mut narrator)
        .run()
        .unwrap();
    assert_eq!(report.outcome, Outcome::Optimal);
    let final_tree = report.tree();
    println!("final tree (degree {}):", final_tree.max_degree());
    println!(
        "{}",
        dot::overlay_to_dot(&graph, final_tree, &[(NodeId(3), NodeId(5))])
    );

    println!(
        "rounds: {}, exchanges: {}",
        report.rounds, report.improvements
    );
    println!("messages by kind:");
    for (kind, count) in &report.improvement_metrics.messages_by_kind {
        println!("  {kind:<14} {count}");
    }

    // The figure's claim: the maximum degree drops through delete/add pairs,
    // and the spare leaf-to-leaf edge enters the tree.
    assert_eq!(initial.max_degree(), 4);
    assert!(final_tree.max_degree() < initial.max_degree());
    assert!(
        final_tree.has_edge(NodeId(3), NodeId(5)),
        "the Add edge of the figure enters the tree"
    );
    println!(
        "\nFigure 1 reproduced: degree {} -> {}",
        initial.max_degree(),
        final_tree.max_degree()
    );
}
