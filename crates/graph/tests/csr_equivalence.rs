//! Property tests pinning the CSR [`Graph`] to the observational semantics of
//! the original `Vec<Vec<(NodeId, EdgeId)>>` adjacency representation: for
//! any edge set [`graph_from_edges`] accepts, the CSR structure must present
//! sorted neighbour rows, a symmetric relation, stable lexicographic
//! [`EdgeId`]s and self-consistent degrees — the exact contract every
//! executor and protocol was written against.

use mdst_graph::graph::graph_from_edges;
use mdst_graph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A random simple-graph edge set over up to 40 nodes (not necessarily
/// connected — the representation contract has nothing to do with
/// connectivity), plus the node count. Described by `(n, attempts, seed)`
/// and expanded reproducibly, matching the shimmed proptest surface.
fn edge_sets() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..40, 0usize..80, any::<u64>()).prop_map(|(n, attempts, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = BTreeSet::new();
        let mut edges = Vec::new();
        for _ in 0..attempts {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && seen.insert((u.min(v), u.max(v))) {
                // Keep the *unnormalised* orientation: the builder must accept
                // either spelling and normalise internally.
                edges.push((u, v));
            }
        }
        (n, edges)
    })
}

/// The reference model: plain per-node adjacency lists built exactly the way
/// the pre-CSR `Graph` built them.
fn reference_adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<(NodeId, EdgeId)>> {
    // Edge ids are the lexicographic rank of the normalised (u, v) pair —
    // the documented stability contract of `EdgeId`.
    let mut normalised: Vec<(usize, usize)> =
        edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    normalised.sort_unstable();
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    for (i, &(u, v)) in normalised.iter().enumerate() {
        adj[u].push((NodeId::new(v), EdgeId::new(i)));
        adj[v].push((NodeId::new(u), EdgeId::new(i)));
    }
    for row in &mut adj {
        row.sort_unstable_by_key(|&(v, _)| v);
    }
    adj
}

fn build(n: usize, edges: &[(usize, usize)]) -> Graph {
    graph_from_edges(n, edges).expect("unique simple edges")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matches_the_reference_adjacency((n, edges) in edge_sets()) {
        let graph = build(n, &edges);
        let reference = reference_adjacency(n, &edges);
        prop_assert_eq!(graph.node_count(), n);
        prop_assert_eq!(graph.edge_count(), edges.len());
        for (u, expected) in reference.iter().enumerate() {
            let row: Vec<(NodeId, EdgeId)> = graph.neighbors_with_edges(NodeId::new(u)).collect();
            prop_assert_eq!(&row, expected, "row of node {}", u);
            let slice: Vec<NodeId> = graph.neighbor_slice(NodeId::new(u)).to_vec();
            let iter: Vec<NodeId> = graph.neighbors(NodeId::new(u)).collect();
            prop_assert_eq!(&slice, &iter);
            prop_assert_eq!(graph.degree(NodeId::new(u)), reference[u].len());
        }
    }

    #[test]
    fn neighbours_are_sorted_and_symmetric((n, edges) in edge_sets()) {
        let graph = build(n, &edges);
        for u in graph.nodes() {
            let row = graph.neighbor_slice(u);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
            for &v in row {
                prop_assert!(graph.neighbor_slice(v).binary_search(&u).is_ok(),
                    "edge {}-{} must appear in both rows", u, v);
            }
        }
        prop_assert_eq!(graph.degree_sum(), 2 * graph.edge_count());
    }

    #[test]
    fn edge_ids_are_lexicographic_and_stable((n, edges) in edge_sets()) {
        let graph = build(n, &edges);
        let listed: Vec<(EdgeId, NodeId, NodeId)> = graph.edges_with_ids().collect();
        // Ids are dense 0..m in lexicographic endpoint order, u < v.
        for (i, &(id, u, v)) in listed.iter().enumerate() {
            prop_assert_eq!(id, EdgeId::new(i));
            prop_assert!(u < v);
            prop_assert_eq!(graph.endpoints(id), (u, v));
            prop_assert_eq!(graph.edge_id(u, v), Some(id));
            prop_assert_eq!(graph.edge_id(v, u), Some(id));
        }
        for window in listed.windows(2) {
            prop_assert!((window[0].1, window[0].2) < (window[1].1, window[1].2));
        }
        // Ids reachable through rows agree with the edge table.
        for u in graph.nodes() {
            for (v, id) in graph.neighbors_with_edges(u) {
                let (a, b) = graph.endpoints(id);
                prop_assert!((a, b) == (u, v) || (a, b) == (v, u));
            }
        }
    }

    #[test]
    fn insertion_order_never_changes_the_graph((n, edges) in edge_sets()) {
        let forward = build(n, &edges);
        let mut reversed: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        reversed.reverse();
        let backward = build(n, &reversed);
        prop_assert_eq!(forward, backward);
    }
}
