//! Property tests for the graph I/O formats: writing and re-reading a graph
//! must preserve node count, edge set and connectivity, in all four
//! encodings (edge list, DIMACS, METIS and MatrixMarket).

use mdst_graph::{algorithms, generators, Graph};
use mdst_scenario::io::{
    parse_dimacs, parse_edge_list, parse_graph, parse_matrix_market, parse_metis, render_graph,
    to_dimacs, to_edge_list, to_matrix_market, to_metis, GraphFormat,
};
use proptest::prelude::*;

fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0usize..60, any::<u64>()).prop_map(|(n, extra, seed)| {
        generators::random_connected(n, extra, seed).expect("valid parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_list_round_trip_preserves_the_graph(graph in connected_graph()) {
        let text = to_edge_list(&graph);
        let back = parse_edge_list(&text).expect("canonical output parses");
        prop_assert_eq!(back.node_count(), graph.node_count());
        prop_assert_eq!(back.edge_count(), graph.edge_count());
        let a: Vec<_> = graph.edges().collect();
        let b: Vec<_> = back.edges().collect();
        prop_assert_eq!(a, b);
        prop_assert!(algorithms::is_connected(&back));
        prop_assert_eq!(&back, &graph);
    }

    #[test]
    fn dimacs_round_trip_preserves_the_graph(graph in connected_graph()) {
        let text = to_dimacs(&graph);
        let back = parse_dimacs(&text).expect("canonical output parses");
        prop_assert_eq!(back.node_count(), graph.node_count());
        prop_assert_eq!(back.edge_count(), graph.edge_count());
        let a: Vec<_> = graph.edges().collect();
        let b: Vec<_> = back.edges().collect();
        prop_assert_eq!(a, b);
        prop_assert!(algorithms::is_connected(&back));
        prop_assert_eq!(&back, &graph);
    }

    #[test]
    fn metis_round_trip_preserves_the_graph(graph in connected_graph()) {
        let text = to_metis(&graph);
        let back = parse_metis(&text).expect("canonical output parses");
        prop_assert_eq!(&back, &graph);
        prop_assert!(algorithms::is_connected(&back));
    }

    #[test]
    fn matrix_market_round_trip_preserves_the_graph(graph in connected_graph()) {
        let text = to_matrix_market(&graph);
        let back = parse_matrix_market(&text).expect("canonical output parses");
        prop_assert_eq!(&back, &graph);
        prop_assert!(algorithms::is_connected(&back));
    }

    #[test]
    fn cross_format_conversion_is_lossless(graph in connected_graph()) {
        // Chaining every renderer/parser pair must reproduce the graph: the
        // four formats are different encodings of one structure.
        let mut current = graph.clone();
        for format in [
            GraphFormat::EdgeList,
            GraphFormat::Metis,
            GraphFormat::MatrixMarket,
            GraphFormat::Dimacs,
        ] {
            current = parse_graph(&render_graph(&current, format), format).unwrap();
        }
        prop_assert_eq!(&current, &graph);
    }

    #[test]
    fn truncated_metis_bodies_are_rejected(graph in connected_graph()) {
        // Dropping the last vertex line must trip the vertex-count check.
        let text = to_metis(&graph);
        let lines: Vec<&str> = text.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        prop_assert!(parse_metis(&truncated).is_err());
    }

    #[test]
    fn truncated_matrix_market_bodies_are_rejected(graph in connected_graph()) {
        let text = to_matrix_market(&graph);
        let lines: Vec<&str> = text.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        prop_assert!(parse_matrix_market(&truncated).is_err());
    }

    #[test]
    fn truncated_dimacs_is_rejected(graph in connected_graph(), cut in 1usize..8) {
        // Dropping edge lines must be caught by the declared-count check.
        let text = to_dimacs(&graph);
        let lines: Vec<&str> = text.lines().collect();
        if graph.edge_count() >= cut {
            let truncated = lines[..lines.len() - cut].join("\n");
            prop_assert!(parse_dimacs(&truncated).is_err());
        }
    }
}

#[test]
fn malformed_files_produce_line_numbered_errors() {
    let err = parse_edge_list("0 1\nnot numbers\n").unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    let err = parse_dimacs("p edge 4 2\ne 1 2\ne 9 1\n").unwrap_err();
    assert!(
        err.to_string().contains("line 3") || err.to_string().contains("out of range"),
        "{err}"
    );
}

#[test]
fn checked_in_samples_load_to_one_graph_in_every_format() {
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let load = |name: &str| {
        mdst_scenario::io::load_graph(data.join(name), None)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let reference = load("sample.el.gz");
    assert_eq!((reference.node_count(), reference.edge_count()), (32, 53));
    for name in ["sample.col.gz", "sample.graph", "sample.mtx.gz"] {
        assert_eq!(load(name), reference, "{name}");
    }
}

#[test]
fn format_labels_are_stable() {
    assert_eq!(GraphFormat::EdgeList.label(), "edge-list");
    assert_eq!(GraphFormat::Dimacs.label(), "dimacs");
    assert_eq!(GraphFormat::Metis.label(), "metis");
    assert_eq!(GraphFormat::MatrixMarket.label(), "matrix-market");
}
