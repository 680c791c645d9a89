//! Graph families used by the experiments.
//!
//! The paper evaluates nothing empirically, so the experiment harness needs
//! its own workloads. The families below cover the cases the paper reasons
//! about analytically:
//!
//! * [`complete`] graphs — the Korach–Moran–Zaks lower-bound comparison (E6);
//! * [`gnp`] Erdős–Rényi graphs — the message/time scaling sweeps (E1/E2);
//! * [`star_with_leaf_edges`] — the worst case the complexity analysis cites
//!   (initial spanning tree of degree `n − 1` that can be improved down to a
//!   small degree);
//! * structured topologies (grid, hypercube, wheel, cycle, caterpillar,
//!   barbell, lollipop, complete bipartite, Petersen) — the topology sweep of
//!   example `topology_sweep` and experiment E7;
//! * [`random_connected`] — property tests on arbitrary connected graphs.
//!
//! Every random generator takes an explicit seed so experiment tables are
//! reproducible run to run.

use crate::error::GraphError;
use crate::graph::{check_node_count, graph_from_edges, Graph};
use crate::Result;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Result<Graph> {
    require(n >= 1, "complete graph needs at least one node")?;
    build(n, |edges| {
        for u in 0..n {
            edges.extend(((u + 1)..n).map(|v| (u, v)));
        }
    })
}

/// The path `P_n` (`0 – 1 – … – n−1`).
pub fn path(n: usize) -> Result<Graph> {
    require(n >= 1, "path needs at least one node")?;
    build(n, |edges| edges.extend((1..n).map(|u| (u - 1, u))))
}

/// The cycle `C_n` (requires `n ≥ 3`).
pub fn cycle(n: usize) -> Result<Graph> {
    require(n >= 3, "cycle needs at least three nodes")?;
    build(n, |edges| edges.extend((0..n).map(|u| (u, (u + 1) % n))))
}

/// The star `S_{n−1}`: node 0 linked to every other node.
pub fn star(n: usize) -> Result<Graph> {
    require(n >= 2, "star needs at least two nodes")?;
    build(n, |edges| edges.extend((1..n).map(|u| (0, u))))
}

/// The wheel `W_n`: a cycle on nodes `1..n` plus a hub (node 0) linked to all.
pub fn wheel(n: usize) -> Result<Graph> {
    require(n >= 4, "wheel needs at least four nodes")?;
    let rim = n - 1;
    build(n, |edges| {
        for i in 0..rim {
            edges.push((1 + i, 1 + (i + 1) % rim));
            edges.push((0, 1 + i));
        }
    })
}

/// The star on `n` nodes augmented with a cycle through the leaves.
///
/// This is the canonical worst case for the algorithm's round count: any
/// spanning-tree construction that picks the star (degree `n − 1`) forces the
/// improvement loop to run roughly `n` rounds before reaching the
/// Hamiltonian-path-like optimum of degree 2.
pub fn star_with_leaf_edges(n: usize) -> Result<Graph> {
    require(n >= 4, "star with leaf edges needs at least four nodes")?;
    build(n, |edges| {
        edges.extend((1..n).map(|u| (0, u)));
        edges.extend((1..n - 1).map(|u| (u, u + 1)));
    })
}

/// The `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Result<Graph> {
    require(rows >= 1 && cols >= 1, "grid needs positive dimensions")?;
    let idx = |r: usize, c: usize| r * cols + c;
    build(rows.saturating_mul(cols), |edges| {
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
    })
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: usize) -> Result<Graph> {
    require(
        (1..=20).contains(&d),
        "hypercube dimension must be in 1..=20",
    )?;
    let n = 1usize << d;
    build(n, |edges| {
        for u in 0..n {
            for bit in 0..d {
                let v = u ^ (1 << bit);
                if u < v {
                    edges.push((u, v));
                }
            }
        }
    })
}

/// The complete bipartite graph `K_{a,b}`.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph> {
    require(a >= 1 && b >= 1, "both sides of K_{a,b} must be non-empty")?;
    build(a.saturating_add(b), |edges| {
        for u in 0..a {
            edges.extend((0..b).map(|v| (u, a + v)));
        }
    })
}

/// The Petersen graph (10 nodes, 15 edges, 3-regular).
pub fn petersen() -> Result<Graph> {
    build(10, |edges| {
        for u in 0..5 {
            // Outer pentagon, spoke, inner pentagram.
            edges.push((u, (u + 1) % 5));
            edges.push((u, u + 5));
            edges.push((5 + u, 5 + (u + 2) % 5));
        }
    })
}

/// A complete binary tree on `n` nodes (heap indexing) with `extra` additional
/// random non-tree edges, seeded.
pub fn binary_tree_plus(n: usize, extra: usize, seed: u64) -> Result<Graph> {
    require(n >= 1, "binary tree needs at least one node")?;
    build_set(n, |edges| {
        edges.extend((1..n).map(|u| key(u, (u - 1) / 2)));
        add_random_extra_edges(edges, n, extra, seed);
    })
}

/// A caterpillar: a spine path of `spine` nodes, each spine node carrying
/// `legs` pendant leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph> {
    require(spine >= 1, "caterpillar needs a non-empty spine")?;
    let n = spine.saturating_mul(legs).saturating_add(spine);
    build(n, |edges| {
        edges.extend((1..spine).map(|s| (s - 1, s)));
        for s in 0..spine {
            edges.extend((0..legs).map(|l| (s, spine + s * legs + l)));
        }
    })
}

/// A barbell: two cliques of size `k` joined by a path of `bridge` nodes.
pub fn barbell(k: usize, bridge: usize) -> Result<Graph> {
    require(k >= 2, "barbell cliques need at least two nodes")?;
    let n = k.saturating_mul(2).saturating_add(bridge);
    build(n, |edges| {
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((u, v));
                edges.push((k + bridge + u, k + bridge + v));
            }
        }
        // Path through the bridge nodes, attached to one node of each clique.
        edges.extend((k - 1..k + bridge).map(|u| (u, u + 1)));
    })
}

/// A lollipop: a clique of size `k` with a path of `tail` nodes hanging off it.
pub fn lollipop(k: usize, tail: usize) -> Result<Graph> {
    require(k >= 2, "lollipop clique needs at least two nodes")?;
    build(k.saturating_add(tail), |edges| {
        for u in 0..k {
            edges.extend(((u + 1)..k).map(|v| (u, v)));
        }
        edges.extend((k - 1..k - 1 + tail).map(|u| (u, u + 1)));
    })
}

/// Erdős–Rényi `G(n, p)`: every pair is linked independently with probability
/// `p`. The result may be disconnected; use [`gnp_connected`] when the
/// experiment needs a connected network.
pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Graph> {
    require(n >= 1, "G(n,p) needs at least one node")?;
    require(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1]",
    )?;
    let mut rng = SmallRng::seed_from_u64(seed);
    build(n, |edges| {
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < p {
                    edges.push((u, v));
                }
            }
        }
    })
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: a uniform random
/// spanning tree (random Prüfer-like attachment) is inserted first and the
/// remaining pairs are sampled with probability `p`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Result<Graph> {
    require(n >= 1, "G(n,p) needs at least one node")?;
    require(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1]",
    )?;
    let mut rng = SmallRng::seed_from_u64(seed);
    build_set(n, |edges| {
        insert_random_spanning_tree(edges, n, &mut rng);
        for u in 0..n {
            for v in (u + 1)..n {
                // Tree edges draw no coin: the RNG stream depends on it.
                if !edges.contains(&(u, v)) && rng.gen::<f64>() < p {
                    edges.insert((u, v));
                }
            }
        }
    })
}

/// A random geometric graph: `n` points in the unit square, linked when their
/// Euclidean distance is below `radius`, made connected by adding a random
/// spanning tree of the points in left-to-right order.
pub fn random_geometric_connected(n: usize, radius: f64, seed: u64) -> Result<Graph> {
    require(n >= 1, "geometric graph needs at least one node")?;
    require(radius > 0.0, "radius must be positive")?;
    // The points are drawn before the build, so `n` is checked before them.
    check_node_count(n)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    build_set(n, |edges| {
        for u in 0..n {
            for v in (u + 1)..n {
                let dx = points[u].0 - points[v].0;
                let dy = points[u].1 - points[v].1;
                if (dx * dx + dy * dy).sqrt() <= radius {
                    edges.insert((u, v));
                }
            }
        }
        // Connect by chaining points in x order (a plausible backbone).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &c| points[a].0.total_cmp(&points[c].0));
        edges.extend(order.windows(2).map(|w| key(w[0], w[1])));
    })
}

/// A random connected graph: a random spanning tree plus `extra` additional
/// random edges (deduplicated, so the result has at most `n − 1 + extra`
/// edges).
pub fn random_connected(n: usize, extra: usize, seed: u64) -> Result<Graph> {
    require(n >= 1, "random connected graph needs at least one node")?;
    let mut rng = SmallRng::seed_from_u64(seed);
    build_set(n, |edges| {
        insert_random_spanning_tree(edges, n, &mut rng);
        add_random_extra_edges(edges, n, extra, rng.gen());
    })
}

/// A random graph whose *every* spanning tree has high degree: a "broom"
/// family where one cut vertex must carry many subtrees. Used by the
/// approximation-quality experiment to exercise instances with Δ* well above 2.
pub fn high_optimum(branches: usize, branch_len: usize) -> Result<Graph> {
    require(branches >= 2, "high_optimum needs at least two branches")?;
    require(branch_len >= 1, "branches must be non-empty")?;
    let n = branches.saturating_mul(branch_len).saturating_add(1);
    build(n, |edges| {
        for br in 0..branches {
            let base = 1 + br * branch_len;
            edges.push((0, base));
            edges.extend((1..branch_len).map(|i| (base + i - 1, base + i)));
        }
    })
}

fn require(cond: bool, msg: &str) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(GraphError::InvalidParameter(msg.to_string()))
    }
}

/// Builds the graph on `n` nodes whose distinct edges `emit` pushes. `n` is
/// checked against the identity space before any edge is generated, so an
/// oversized request fails at once instead of looping.
fn build(n: usize, emit: impl FnOnce(&mut Vec<(usize, usize)>)) -> Result<Graph> {
    check_node_count(n)?;
    let mut edges = Vec::new();
    emit(&mut edges);
    graph_from_edges(n, &edges)
}

/// [`build`] for the rejection-sampling families, whose RNG draws depend on
/// whether an edge is already present: `emit` fills a set of `(min, max)`
/// pairs.
fn build_set(n: usize, emit: impl FnOnce(&mut BTreeSet<(usize, usize)>)) -> Result<Graph> {
    check_node_count(n)?;
    let mut edges = BTreeSet::new();
    emit(&mut edges);
    graph_from_edges(n, &edges.into_iter().collect::<Vec<_>>())
}

/// The set key of the undirected edge `(u, v)`.
fn key(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

/// Inserts a uniform-ish random spanning tree into `edges`: nodes are
/// shuffled and each node (after the first) attaches to a uniformly random
/// earlier node.
fn insert_random_spanning_tree(edges: &mut BTreeSet<(usize, usize)>, n: usize, rng: &mut SmallRng) {
    if n <= 1 {
        return;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        edges.insert(key(order[i], order[j]));
    }
}

/// Adds up to `extra` random non-tree edges (sampling with rejection, bounded
/// attempts so dense graphs cannot loop forever).
fn add_random_extra_edges(edges: &mut BTreeSet<(usize, usize)>, n: usize, extra: usize, seed: u64) {
    if n < 2 {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_edges = n * (n - 1) / 2;
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && edges.len() < max_edges && attempts < 20 * extra + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && edges.insert(key(u, v)) {
            added += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use crate::node::NodeId;

    #[test]
    fn complete_graph_counts() {
        let g = complete(6).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(g.min_degree(), 5);
    }

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5).unwrap();
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.max_degree(), 2);
        assert_eq!(p.min_degree(), 1);
        let c = cycle(5).unwrap();
        assert_eq!(c.edge_count(), 5);
        assert_eq!(c.max_degree(), 2);
        assert_eq!(c.min_degree(), 2);
    }

    #[test]
    fn star_and_wheel_shapes() {
        let s = star(7).unwrap();
        assert_eq!(s.degree(NodeId(0)), 6);
        assert_eq!(s.edge_count(), 6);
        let w = wheel(7).unwrap();
        assert_eq!(w.degree(NodeId(0)), 6);
        assert_eq!(w.edge_count(), 12);
        for u in 1..7 {
            assert_eq!(w.degree(NodeId(u)), 3);
        }
    }

    #[test]
    fn star_with_leaf_edges_is_connected_and_has_ham_path() {
        let g = star_with_leaf_edges(8).unwrap();
        assert!(algorithms::is_connected(&g));
        assert_eq!(g.degree(NodeId(0)), 7);
        // Leaves 1..6 form a path, so a spanning tree of degree 2 exists.
        assert!(g.has_edge(NodeId(3), NodeId(4)));
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(algorithms::is_connected(&g));
    }

    #[test]
    fn hypercube_is_regular() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 4);
        }
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert!(algorithms::is_connected(&g));
    }

    #[test]
    fn petersen_is_three_regular() {
        let g = petersen().unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 3);
        }
        assert!(algorithms::is_connected(&g));
    }

    #[test]
    fn caterpillar_counts() {
        let g = caterpillar(4, 3).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 15);
        assert!(algorithms::is_connected(&g));
        assert_eq!(g.degree(NodeId(1)), 2 + 3);
    }

    #[test]
    fn barbell_and_lollipop_connected() {
        let b = barbell(4, 2).unwrap();
        assert!(algorithms::is_connected(&b));
        assert_eq!(b.node_count(), 10);
        let l = lollipop(5, 3).unwrap();
        assert!(algorithms::is_connected(&l));
        assert_eq!(l.node_count(), 8);
        assert_eq!(l.degree(NodeId(7)), 1);
    }

    #[test]
    fn gnp_is_seed_deterministic() {
        let a = gnp(30, 0.2, 42).unwrap();
        let b = gnp(30, 0.2, 42).unwrap();
        let c = gnp(30, 0.2, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_extreme_probabilities() {
        assert_eq!(gnp(10, 0.0, 1).unwrap().edge_count(), 0);
        assert_eq!(gnp(10, 1.0, 1).unwrap().edge_count(), 45);
        assert!(gnp(10, 1.5, 1).is_err());
    }

    #[test]
    fn gnp_connected_is_connected_even_for_tiny_p() {
        for seed in 0..5 {
            let g = gnp_connected(40, 0.01, seed).unwrap();
            assert!(algorithms::is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn random_connected_has_requested_size() {
        let g = random_connected(25, 30, 7).unwrap();
        assert!(algorithms::is_connected(&g));
        assert!(g.edge_count() >= 24);
        assert!(g.edge_count() <= 24 + 30);
    }

    #[test]
    fn random_geometric_is_connected() {
        for seed in 0..3 {
            let g = random_geometric_connected(30, 0.2, seed).unwrap();
            assert!(algorithms::is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn binary_tree_plus_contains_tree() {
        let g = binary_tree_plus(15, 5, 3).unwrap();
        assert!(algorithms::is_connected(&g));
        assert!(g.edge_count() >= 14);
    }

    #[test]
    fn high_optimum_center_is_cut_vertex() {
        let g = high_optimum(5, 3).unwrap();
        assert_eq!(g.node_count(), 16);
        assert!(algorithms::is_connected(&g));
        assert_eq!(g.degree(NodeId(0)), 5);
        // Every spanning tree must use all five centre edges (they are bridges),
        // so the optimum degree is exactly 5.
        let arts = algorithms::articulation_points(&g);
        assert!(arts.contains(&NodeId(0)));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(cycle(2).is_err());
        assert!(star(1).is_err());
        assert!(wheel(3).is_err());
        assert!(hypercube(0).is_err());
        assert!(complete(0).is_err());
        assert!(gnp(0, 0.5, 1).is_err());
        assert!(high_optimum(1, 2).is_err());
        assert!(random_geometric_connected(5, 0.0, 1).is_err());
    }

    #[test]
    fn oversized_node_counts_are_rejected_before_any_edge() {
        // Every count here is above 2³², so the builder's node check fires
        // before a single edge (or byte of edge storage) is generated.
        let too_large =
            |g: Result<Graph>| matches!(g, Err(GraphError::TooLarge { what: "nodes", .. }));
        let past = u32::MAX as usize + 2;
        assert!(too_large(path(past)));
        assert!(too_large(complete(past)));
        assert!(too_large(gnp(past, 0.5, 1)));
        assert!(too_large(random_connected(past, 1, 1)));
        assert!(too_large(random_geometric_connected(past, 0.1, 1)));
        // Products and sums that overflow `usize` saturate into the same check.
        assert!(too_large(grid(1 << 33, 1 << 33)));
        assert!(too_large(grid(usize::MAX, 2)));
        assert!(too_large(caterpillar(1 << 33, usize::MAX)));
        assert!(too_large(barbell(usize::MAX / 2 + 1, 1)));
        assert!(too_large(lollipop(usize::MAX, 1)));
        assert!(too_large(complete_bipartite(usize::MAX, 1)));
        assert!(too_large(high_optimum(1 << 33, 1 << 33)));
    }
}
