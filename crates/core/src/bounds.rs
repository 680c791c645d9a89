//! Lower bounds used by the experiment tables.
//!
//! Two kinds of bounds appear in the paper's discussion:
//!
//! * the Korach–Moran–Zaks message lower bound `Ω(n²/k)` for constructing a
//!   degree-restricted spanning tree in a complete network (\[2\] in the paper),
//!   against which §5 claims the algorithm "is not far from the optimal";
//! * implicit degree lower bounds on `Δ*` (the optimum), needed to interpret
//!   the approximation quality on instances too large for the exact solver.

use mdst_graph::algorithms::connected_components;
use mdst_graph::{Graph, NodeId};
use std::collections::BTreeSet;

/// The Korach–Moran–Zaks lower bound on the number of messages any algorithm
/// needs, in the worst case, to build a spanning tree of maximum degree at
/// most `k` in a complete network of `n` processors: `n² / k`.
pub fn kmz_message_lower_bound(n: usize, k: usize) -> f64 {
    if k == 0 {
        return f64::INFINITY;
    }
    (n as f64) * (n as f64) / (k as f64)
}

/// A combinatorial lower bound on `Δ*`, the minimum possible maximum degree of
/// a spanning tree of `graph`:
///
/// * removing any vertex `v` splits the graph into `c(v)` components, and any
///   spanning tree must connect all of them through `v`, so `Δ* ≥ c(v)`;
/// * any spanning tree on `n ≥ 3` vertices has a vertex of degree ≥ 2.
pub fn degree_lower_bound(graph: &Graph) -> usize {
    let n = graph.node_count();
    if n <= 1 {
        return 0;
    }
    if n == 2 {
        return 1;
    }
    let mut bound = 2;
    for v in graph.nodes() {
        let keep: BTreeSet<NodeId> = graph.nodes().filter(|&u| u != v).collect();
        let (without_v, _) = graph.induced_subgraph(&keep);
        let components = connected_components(&without_v).len();
        bound = bound.max(components);
    }
    bound
}

/// `⌈log₂ n⌉` (0 for `n ≤ 1`), the additive slack of the local-search degree
/// guarantee.
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// The `O(Δ* + log n)` degree guarantee a locally optimal tree satisfies
/// (Fürer–Raghavachari's analysis of local optimality, which the paper's
/// Locally Optimal Tree inherits): `2·Δ* + ⌈log₂ n⌉`.
///
/// `Δ*` itself is NP-hard to compute, so the combinatorial
/// [`degree_lower_bound`] stands in for it; the resulting check is
/// *conservative* (never more permissive than the theorem) and is the bound
/// the scenario harness applies to every campaign run.
pub fn paper_degree_upper_bound(graph: &Graph) -> usize {
    2 * degree_lower_bound(graph) + ceil_log2(graph.node_count())
}

/// Whether a final tree degree satisfies [`paper_degree_upper_bound`].
pub fn within_paper_degree_bound(graph: &Graph, final_degree: usize) -> bool {
    final_degree <= paper_degree_upper_bound(graph)
}

/// Ratio between a measured message count and the KMZ lower bound — the
/// quantity experiment E6 tabulates on complete graphs.
pub fn kmz_ratio(measured_messages: u64, n: usize, k: usize) -> f64 {
    let lb = kmz_message_lower_bound(n, k);
    if lb == 0.0 || !lb.is_finite() {
        return f64::NAN;
    }
    measured_messages as f64 / lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_graph::generators;

    #[test]
    fn kmz_bound_shrinks_with_larger_degree_budget() {
        assert_eq!(kmz_message_lower_bound(10, 2), 50.0);
        assert_eq!(kmz_message_lower_bound(10, 5), 20.0);
        assert!(kmz_message_lower_bound(10, 0).is_infinite());
    }

    #[test]
    fn kmz_ratio_is_measured_over_bound() {
        assert!((kmz_ratio(100, 10, 2) - 2.0).abs() < 1e-12);
        assert!(kmz_ratio(100, 0, 2).is_nan());
    }

    #[test]
    fn degree_lower_bound_on_structured_graphs() {
        assert_eq!(degree_lower_bound(&generators::path(6).unwrap()), 2);
        assert_eq!(degree_lower_bound(&generators::complete(6).unwrap()), 2);
        assert_eq!(degree_lower_bound(&generators::star(7).unwrap()), 6);
        assert_eq!(
            degree_lower_bound(&generators::high_optimum(5, 2).unwrap()),
            5
        );
        assert_eq!(degree_lower_bound(&generators::path(2).unwrap()), 1);
        assert_eq!(degree_lower_bound(&mdst_graph::Graph::empty(1)), 0);
    }

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1024), 10);
    }

    #[test]
    fn paper_degree_bound_admits_the_local_search_result() {
        for seed in 0..4u64 {
            let g = std::sync::Arc::new(generators::gnp_connected(24, 0.2, seed).unwrap());
            let initial = mdst_graph::algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
            let report = crate::driver::Pipeline::on(&g)
                .initial_tree(initial)
                .run()
                .unwrap();
            let degree = report.tree().max_degree();
            assert!(
                within_paper_degree_bound(&g, degree),
                "seed {seed}: degree {degree} above bound {}",
                paper_degree_upper_bound(&g)
            );
        }
    }

    #[test]
    fn lower_bound_never_exceeds_the_exact_optimum() {
        for seed in 0..6u64 {
            let g = generators::gnp_connected(11, 0.25, seed).unwrap();
            let lb = degree_lower_bound(&g);
            let opt = crate::sequential::exact_min_degree(&g).unwrap();
            assert!(lb <= opt, "seed {seed}: lb {lb} > opt {opt}");
        }
    }
}
