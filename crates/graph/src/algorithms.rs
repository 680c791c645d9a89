//! Classic sequential graph algorithms.
//!
//! These are the centralized helpers the substrates and the verification layer
//! rely on: traversal, connectivity, components, diameter, articulation points
//! and spanning-tree extraction. The distributed counterparts live in
//! `mdst-spanning`; the functions here are the ground truth they are tested
//! against.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::tree::RootedTree;
use crate::Result;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// BFS distances from `source`; unreachable nodes get `None`.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    if source.index() >= g.node_count() {
        return dist;
    }
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have a distance");
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Nodes in BFS order from `source` (only the reachable ones).
pub fn bfs_order(g: &Graph, source: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut seen = vec![false; g.node_count()];
    if source.index() >= g.node_count() {
        return order;
    }
    seen[source.index()] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for v in g.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Nodes in (iterative, neighbour-sorted) DFS preorder from `source`.
pub fn dfs_order(g: &Graph, source: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut seen = vec![false; g.node_count()];
    if source.index() >= g.node_count() {
        return order;
    }
    let mut stack = vec![source];
    while let Some(u) = stack.pop() {
        if seen[u.index()] {
            continue;
        }
        seen[u.index()] = true;
        order.push(u);
        // Push neighbours in reverse so the smallest identity is visited first.
        let mut nb: Vec<NodeId> = g.neighbors(u).collect();
        nb.reverse();
        for v in nb {
            if !seen[v.index()] {
                stack.push(v);
            }
        }
    }
    order
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs_order(g, NodeId(0)).len() == g.node_count()
}

/// Connected components; each component is a sorted list of nodes and the
/// components are sorted by their smallest node.
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut comp = vec![usize::MAX; g.node_count()];
    let mut components = Vec::new();
    for start in 0..g.node_count() {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::from([NodeId::new(start)]);
        comp[start] = id;
        while let Some(u) = queue.pop_front() {
            members.push(u);
            for v in g.neighbors(u) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = id;
                    queue.push_back(v);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// Eccentricity of `source` (greatest BFS distance to any reachable node).
pub fn eccentricity(g: &Graph, source: NodeId) -> usize {
    bfs_distances(g, source)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// Diameter of a connected graph (error when disconnected).
pub fn diameter(g: &Graph) -> Result<usize> {
    if g.node_count() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if !is_connected(g) {
        return Err(GraphError::Disconnected);
    }
    Ok(g.nodes().map(|u| eccentricity(g, u)).max().unwrap_or(0))
}

/// `c(v)` for every node `v`: the number of connected components of `G − v`,
/// from one iterative Hopcroft–Tarjan DFS in `O(n + m)`.
///
/// With `C` components in `G`, `c(v) = (C − 1) + local(v)`, where `local(v)`
/// counts the DFS children `w` of `v` with `low(w) ≥ disc(v)`, plus one
/// unless `v` is a DFS root (the part of its component above `v`). An
/// isolated `v` has `local(v) = 0`: deleting it deletes its component.
/// `mdst-core::bounds` takes the maximum as its lower bound on `Δ*`.
pub fn cut_components(g: &Graph) -> Vec<usize> {
    let (components, local) = local_cut_counts(g);
    local.into_iter().map(|l| components - 1 + l).collect()
}

/// Articulation points (cut vertices) of the graph, sorted by identity: the
/// nodes whose removal disconnects their component, i.e. `c(v) > C` in the
/// terms of [`cut_components`] (equivalently `local(v) ≥ 2`).
pub fn articulation_points(g: &Graph) -> Vec<NodeId> {
    let (_, local) = local_cut_counts(g);
    (0..g.node_count())
        .filter(|&v| local[v] >= 2)
        .map(NodeId::new)
        .collect()
}

/// The DFS behind [`cut_components`]: the number of components `C` of `g` and
/// `local(v)` for every node. Iterative, so path-shaped graphs of any length
/// cannot overflow the call stack.
fn local_cut_counts(g: &Graph) -> (usize, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let n = g.node_count();
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut local = vec![0usize; n];
    let mut components = 0;
    let mut timer = 0;
    // (node, index of its next neighbour to scan)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != UNSEEN {
            continue;
        }
        components += 1;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let u = top.0;
            if let Some(&w) = g.neighbor_slice(NodeId::new(u)).get(top.1) {
                top.1 += 1;
                let w = w.index();
                if disc[w] == UNSEEN {
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    // A non-root keeps the piece of its component above it.
                    local[w] = 1;
                    stack.push((w, 0));
                } else {
                    // The tree edge back to the parent lands here too; it
                    // lowers `low(u)` only to `disc(parent)`, which leaves the
                    // `low(w) ≥ disc(v)` test unchanged.
                    low[u] = low[u].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if low[u] >= disc[p] {
                        local[p] += 1;
                    }
                }
            }
        }
    }
    (components, local)
}

/// Bridges of the graph (edges whose removal disconnects their component),
/// returned as `(u, v)` with `u < v`, sorted.
pub fn bridges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    let mut visited = vec![false; n];
    let mut tin = vec![0usize; n];
    let mut low = vec![0usize; n];
    let mut timer = 0usize;
    let mut out = Vec::new();

    #[derive(Clone, Copy)]
    struct Frame {
        node: usize,
        parent_edge: Option<(usize, usize)>,
        next_neighbor: usize,
    }

    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        tin[start] = timer;
        low[start] = timer;
        timer += 1;
        let mut stack = vec![Frame {
            node: start,
            parent_edge: None,
            next_neighbor: 0,
        }];
        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            let neighbors = g.neighbor_slice(NodeId::new(u));
            if frame.next_neighbor < neighbors.len() {
                let v = neighbors[frame.next_neighbor].index();
                frame.next_neighbor += 1;
                if frame.parent_edge.map(|(p, _)| p) == Some(v) {
                    continue;
                }
                if visited[v] {
                    low[u] = low[u].min(tin[v]);
                } else {
                    visited[v] = true;
                    tin[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push(Frame {
                        node: v,
                        parent_edge: Some((u, v)),
                        next_neighbor: 0,
                    });
                }
            } else {
                let finished = *frame;
                stack.pop();
                if let Some((p, c)) = finished.parent_edge {
                    low[p] = low[p].min(low[c]);
                    if low[c] > tin[p] {
                        let (a, b) = if p < c { (p, c) } else { (c, p) };
                        out.push((NodeId::new(a), NodeId::new(b)));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Extracts a BFS spanning tree of a connected graph rooted at `root`.
pub fn bfs_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    spanning_tree_from_order(g, root, |g, root| {
        let mut parent = vec![None; g.node_count()];
        let mut seen = vec![false; g.node_count()];
        seen[root.index()] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    parent[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    })
}

/// Extracts a DFS spanning tree of a connected graph rooted at `root`.
pub fn dfs_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    spanning_tree_from_order(g, root, |g, root| {
        let mut parent = vec![None; g.node_count()];
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(u) = stack.pop() {
            let mut nb: Vec<NodeId> = g.neighbors(u).collect();
            nb.reverse();
            for v in nb {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    parent[v.index()] = Some(u);
                    stack.push(v);
                }
            }
        }
        parent
    })
}

/// Extracts a uniformly shuffled random spanning tree of a connected graph
/// (randomised Kruskal: edges are shuffled and inserted when they join two
/// different components).
pub fn random_spanning_tree(g: &Graph, root: NodeId, seed: u64) -> Result<RootedTree> {
    g.check_node(root)?;
    if !is_connected(g) {
        return Err(GraphError::Disconnected);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    edges.shuffle(&mut rng);
    let mut dsu = DisjointSet::new(g.node_count());
    let mut tree_edges = Vec::with_capacity(g.node_count().saturating_sub(1));
    for (u, v) in edges {
        if dsu.union(u.index(), v.index()) {
            tree_edges.push((u, v));
        }
    }
    RootedTree::from_edges(g.node_count(), root, &tree_edges)
}

/// Extracts the spanning tree that greedily maximises the degree of `root`
/// (attach every neighbour of the highest-degree node first). Used to seed
/// deliberately bad initial trees for experiment E7.
pub fn greedy_high_degree_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    g.check_node(root)?;
    if !is_connected(g) {
        return Err(GraphError::Disconnected);
    }
    let mut parent = vec![None; g.node_count()];
    let mut in_tree = vec![false; g.node_count()];
    in_tree[root.index()] = true;
    // Repeatedly take the in-tree node with the most not-yet-attached
    // neighbours and attach all of them (a star-greedy construction that tends
    // to produce high-degree hubs).
    loop {
        let mut best: Option<(usize, NodeId)> = None;
        for u in g.nodes() {
            if !in_tree[u.index()] {
                continue;
            }
            let gain = g.neighbors(u).filter(|v| !in_tree[v.index()]).count();
            if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, u));
            }
        }
        let Some((_, hub)) = best else { break };
        let to_attach: Vec<NodeId> = g.neighbors(hub).filter(|v| !in_tree[v.index()]).collect();
        for v in to_attach {
            in_tree[v.index()] = true;
            parent[v.index()] = Some(hub);
        }
    }
    if in_tree.iter().any(|&b| !b) {
        return Err(GraphError::Disconnected);
    }
    RootedTree::from_parents(root, parent)
}

fn spanning_tree_from_order(
    g: &Graph,
    root: NodeId,
    builder: impl Fn(&Graph, NodeId) -> Vec<Option<NodeId>>,
) -> Result<RootedTree> {
    g.check_node(root)?;
    if g.node_count() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if !is_connected(g) {
        return Err(GraphError::Disconnected);
    }
    let parent = builder(g, root);
    RootedTree::from_parents(root, parent)
}

/// Simple union–find used by the random spanning-tree extraction.
#[derive(Debug, Clone)]
pub struct DisjointSet {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of the set containing `x` (path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` when they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::graph_from_edges;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5).unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_distances_unreachable() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn connectivity_and_components() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert!(!is_connected(&g));
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(comps[1], vec![NodeId(3), NodeId(4)]);
        assert!(is_connected(&generators::cycle(6).unwrap()));
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&Graph::empty(1)));
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(6).unwrap()).unwrap(), 5);
        assert_eq!(diameter(&generators::cycle(6).unwrap()).unwrap(), 3);
        assert_eq!(diameter(&generators::complete(6).unwrap()).unwrap(), 1);
        assert_eq!(diameter(&generators::star(6).unwrap()).unwrap(), 2);
        assert!(diameter(&Graph::empty(3)).is_err());
    }

    #[test]
    fn dfs_and_bfs_visit_everything_once() {
        let g = generators::grid(3, 3).unwrap();
        let bfs = bfs_order(&g, NodeId(0));
        let dfs = dfs_order(&g, NodeId(0));
        assert_eq!(bfs.len(), 9);
        assert_eq!(dfs.len(), 9);
        let mut b = bfs.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b.len(), 9);
    }

    #[test]
    fn articulation_points_of_path_are_interior() {
        let g = generators::path(5).unwrap();
        let arts = articulation_points(&g);
        assert_eq!(arts, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn articulation_points_of_cycle_and_clique_are_empty() {
        assert!(articulation_points(&generators::cycle(7).unwrap()).is_empty());
        assert!(articulation_points(&generators::complete(5).unwrap()).is_empty());
    }

    #[test]
    fn articulation_point_of_two_triangles() {
        // Two triangles sharing node 2.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        assert_eq!(articulation_points(&g), vec![NodeId(2)]);
    }

    #[test]
    fn cut_components_of_path_and_star() {
        assert_eq!(
            cut_components(&generators::path(5).unwrap()),
            vec![1, 2, 2, 2, 1]
        );
        // Deleting the hub isolates every leaf; deleting a leaf leaves one.
        assert_eq!(
            cut_components(&generators::star(5).unwrap()),
            vec![4, 1, 1, 1, 1]
        );
        assert_eq!(cut_components(&Graph::empty(1)), vec![0]);
        assert!(cut_components(&Graph::empty(0)).is_empty());
    }

    #[test]
    fn cut_components_of_two_triangles() {
        // Two triangles sharing node 2.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        assert_eq!(cut_components(&g), vec![1, 1, 2, 1, 1]);
    }

    #[test]
    fn cut_components_count_the_untouched_components_too() {
        // A path 0-1-2, an edge 3-4 and an isolated node 5: three components.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(cut_components(&g), vec![3, 4, 3, 3, 3, 2]);
    }

    #[test]
    fn bridges_of_path_are_all_edges() {
        let g = generators::path(4).unwrap();
        assert_eq!(
            bridges(&g),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3))
            ]
        );
        assert!(bridges(&generators::cycle(4).unwrap()).is_empty());
    }

    #[test]
    fn bfs_tree_is_shortest_path_tree() {
        let g = generators::grid(3, 3).unwrap();
        let t = bfs_tree(&g, NodeId(0)).unwrap();
        assert!(t.is_spanning_tree_of(&g));
        let dist = bfs_distances(&g, NodeId(0));
        for u in g.nodes() {
            assert_eq!(t.depth(u), dist[u.index()].unwrap());
        }
    }

    #[test]
    fn dfs_tree_spans() {
        let g = generators::hypercube(3).unwrap();
        let t = dfs_tree(&g, NodeId(0)).unwrap();
        assert!(t.is_spanning_tree_of(&g));
        assert_eq!(t.node_count(), 8);
    }

    #[test]
    fn random_spanning_tree_is_valid_and_seeded() {
        let g = generators::gnp_connected(20, 0.3, 5).unwrap();
        let a = random_spanning_tree(&g, NodeId(0), 11).unwrap();
        let b = random_spanning_tree(&g, NodeId(0), 11).unwrap();
        assert_eq!(a, b);
        assert!(a.is_spanning_tree_of(&g));
    }

    #[test]
    fn spanning_tree_extraction_rejects_disconnected() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(bfs_tree(&g, NodeId(0)).is_err());
        assert!(dfs_tree(&g, NodeId(0)).is_err());
        assert!(random_spanning_tree(&g, NodeId(0), 1).is_err());
        assert!(greedy_high_degree_tree(&g, NodeId(0)).is_err());
    }

    #[test]
    fn greedy_tree_makes_high_degree_hub_on_complete_graph() {
        let g = generators::complete(8).unwrap();
        let t = greedy_high_degree_tree(&g, NodeId(0)).unwrap();
        assert!(t.is_spanning_tree_of(&g));
        assert_eq!(t.max_degree(), 7, "greedy construction should build a star");
    }

    #[test]
    fn disjoint_set_union_find() {
        let mut dsu = DisjointSet::new(5);
        assert!(dsu.union(0, 1));
        assert!(dsu.union(1, 2));
        assert!(!dsu.union(0, 2));
        assert!(dsu.same(0, 2));
        assert!(!dsu.same(0, 4));
    }
}
