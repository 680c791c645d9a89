//! Exhaustive enumeration of the small topologies the checker sweeps.
//!
//! For n ≤ 6 every connected graph can be enumerated outright: there are
//! `C(n, 2)` potential edges, so at most 2^15 labelled graphs, and the
//! isomorphism classes are found by canonicalising each edge set under all
//! `n!` vertex permutations. The classical counts (OEIS A001349) are
//! 1, 1, 2, 6, 21, 112 connected graphs on n = 1..6 vertices — small enough
//! that "every topology" is a literal claim, not a sampling one.
//!
//! [`named_suite`] complements the enumeration with the repo's own generator
//! topologies at a given size, so sweeps can also exercise exactly the shapes
//! used elsewhere in the experiments (cycles, stars, wheels, complete
//! graphs, …).

use mdst_graph::graph::graph_from_edges;
use mdst_graph::{generators, Graph};

/// All `C(n, 2)` vertex pairs in lexicographic order — the bit positions of
/// the edge-mask encoding.
fn edge_slots(n: usize) -> Vec<(usize, usize)> {
    let mut slots = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            slots.push((u, v));
        }
    }
    slots
}

/// Whether the labelled graph encoded by `mask` over `slots` is connected on
/// `n` vertices (an isolated vertex counts as disconnected for n > 1).
fn mask_is_connected(n: usize, slots: &[(usize, usize)], mask: u32) -> bool {
    if n <= 1 {
        return true;
    }
    let mut adj = vec![Vec::new(); n];
    for (bit, &(u, v)) in slots.iter().enumerate() {
        if mask & (1 << bit) != 0 {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

/// Generates every permutation of `0..n` (Heap's algorithm).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut items, &mut out);
    out
}

/// The minimum edge-mask over all vertex relabellings — a canonical
/// representative of the isomorphism class.
fn canonical_mask(
    slots: &[(usize, usize)],
    slot_index: &[Vec<usize>],
    mask: u32,
    perms: &[Vec<usize>],
) -> u32 {
    let mut best = u32::MAX;
    for perm in perms {
        let mut relabelled = 0u32;
        for (bit, &(u, v)) in slots.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                let (a, b) = (perm[u], perm[v]);
                let (a, b) = if a < b { (a, b) } else { (b, a) };
                relabelled |= 1 << slot_index[a][b];
            }
        }
        best = best.min(relabelled);
    }
    best
}

/// Every connected graph on exactly `n` vertices, one representative per
/// isomorphism class, in a deterministic order (ascending canonical edge
/// mask — sparsest first). Supports `1 ≤ n ≤ 6`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 6` (the edge mask is 32 bits and the
/// permutation sweep is factorial; beyond 6 vertices exhaustive-by-
/// construction stops being honest).
pub fn connected_graphs(n: usize) -> Vec<Graph> {
    assert!(
        (1..=6).contains(&n),
        "exhaustive enumeration supports 1..=6 vertices"
    );
    let slots = edge_slots(n);
    let mut slot_index = vec![vec![0usize; n]; n];
    for (bit, &(u, v)) in slots.iter().enumerate() {
        slot_index[u][v] = bit;
    }
    let perms = permutations(n);
    let mut canon: Vec<u32> = Vec::new();
    for mask in 0..(1u32 << slots.len()) {
        if !mask_is_connected(n, &slots, mask) {
            continue;
        }
        let c = canonical_mask(&slots, &slot_index, mask, &perms);
        if c == mask {
            canon.push(mask);
        }
    }
    canon.sort_unstable();
    canon
        .into_iter()
        .map(|mask| {
            let edges: Vec<(usize, usize)> = slots
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &edge)| edge)
                .collect();
            graph_from_edges(n, &edges).expect("enumerated edges are simple")
        })
        .collect()
}

/// The generator-built topologies of size `n` the rest of the repo
/// experiments on, as `(name, graph)` pairs. Shapes that need more vertices
/// than `n` provides are skipped.
pub fn named_suite(n: usize) -> Vec<(String, Graph)> {
    let mut suite: Vec<(String, Graph)> = Vec::new();
    let mut push = |name: &str, g: Result<Graph, mdst_graph::GraphError>| {
        if let Ok(g) = g {
            suite.push((name.to_string(), g));
        }
    };
    push("path", generators::path(n));
    if n >= 3 {
        push("cycle", generators::cycle(n));
        push("star", generators::star(n));
    }
    if n >= 4 {
        push("wheel", generators::wheel(n));
    }
    if n >= 2 {
        push("complete", generators::complete(n));
    }
    if n >= 4 && n.is_multiple_of(2) {
        push(
            "complete-bipartite",
            generators::complete_bipartite(n / 2, n / 2),
        );
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_graph_counts_match_oeis_a001349() {
        // 1, 1, 2, 6, 21, 112 connected graphs on 1..=6 vertices.
        assert_eq!(connected_graphs(1).len(), 1);
        assert_eq!(connected_graphs(2).len(), 1);
        assert_eq!(connected_graphs(3).len(), 2);
        assert_eq!(connected_graphs(4).len(), 6);
        assert_eq!(connected_graphs(5).len(), 21);
        assert_eq!(connected_graphs(6).len(), 112);
    }

    #[test]
    fn enumerated_graphs_are_connected_and_span_the_size() {
        for g in connected_graphs(5) {
            assert_eq!(g.node_count(), 5);
            assert!(mdst_graph::algorithms::is_connected(&g));
        }
    }

    #[test]
    fn enumeration_brackets_tree_and_clique() {
        // The sparsest class on 4 vertices has 3 edges (a tree); the densest
        // is K4 with 6.
        let graphs = connected_graphs(4);
        assert_eq!(graphs.first().unwrap().edge_count(), 3);
        assert_eq!(graphs.last().unwrap().edge_count(), 6);
    }

    #[test]
    fn named_suite_scales_with_n() {
        let names: Vec<String> = named_suite(4).into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"cycle".to_string()));
        assert!(names.contains(&"wheel".to_string()));
        assert!(names.contains(&"complete-bipartite".to_string()));
        assert!(!named_suite(2).iter().any(|(n, _)| n == "star"));
        for (_, g) in named_suite(5) {
            assert_eq!(g.node_count(), 5);
        }
    }
}
