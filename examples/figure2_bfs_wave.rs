//! Reproduction of Figure 2 of the paper: the BFS wave. After the Cut, each
//! fragment floods a wave; when two waves meet across a non-tree edge the
//! "cousin" message reveals an outgoing edge. This example records the full
//! message trace of one round and prints the wave front and the discovered
//! cousin edges.
//!
//! ```text
//! cargo run --example figure2_bfs_wave
//! ```

use mdst::prelude::*;

fn main() {
    // Hub of degree 3 whose three branches are paths, with two spare edges
    // joining different branches deep down — the situation Figure 2 sketches.
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
    // Outgoing (cousin) edges between branches.
    let cousin_edges = [(7, 8), (8, 9)];
    let graph = Arc::new(graph_from_edges(10, &[&tree_edges[..], &cousin_edges].concat()).unwrap());

    let initial = RootedTree::from_edges(
        10,
        NodeId(0),
        &tree_edges.map(|(u, v)| (NodeId::new(u), NodeId::new(v))),
    )
    .unwrap();
    println!("initial tree (degree {}):", initial.max_degree());
    println!("{}", dot::overlay_to_dot(&graph, &initial, &[]));

    // One full pipeline session with tracing enabled: the recorded trace
    // comes back on the unified report.
    let report = Pipeline::on(&graph)
        .initial_tree(initial.clone())
        .sim(SimConfig {
            record_trace: true,
            ..Default::default()
        })
        .run()
        .expect("protocol quiesces");
    assert_eq!(report.outcome, Outcome::Optimal);

    println!("BFS wave (sends), in causal order:");
    for event in report.trace.events_of_kind("BFS") {
        if matches!(event.kind, mdst::netsim::TraceEventKind::Send) {
            println!("  t={:<3} {} -> {}", event.time, event.from, event.to);
        }
    }
    println!("\ncousin replies (outgoing-edge discoveries):");
    for event in report.trace.events_of_kind("BFSReply") {
        if matches!(event.kind, mdst::netsim::TraceEventKind::Send) {
            println!(
                "  t={:<3} {} -> {}  (edge {} -- {})",
                event.time, event.from, event.to, event.to, event.from
            );
        }
    }

    let final_tree = report.tree();
    println!("\nfinal tree (degree {}):", final_tree.max_degree());
    println!("{}", dot::overlay_to_dot(&graph, final_tree, &[]));

    assert!(final_tree.is_spanning_tree_of(&graph));
    assert!(final_tree.max_degree() <= initial.max_degree());
    assert!(
        report.trace.events_of_kind("BFSReply").count() > 0,
        "the wave must discover at least one cousin edge"
    );
}
