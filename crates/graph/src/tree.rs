//! Rooted spanning trees.
//!
//! The distributed algorithm maintains a rooted spanning tree: every node knows
//! its parent and its children, the root has no parent. A round of the
//! algorithm moves the root (path reversal), cuts the root's subtrees into
//! fragments and finally performs one edge exchange. [`RootedTree`] is the
//! centralized mirror of that structure; it is used to seed runs, to snapshot
//! the distributed state for verification and by the sequential baselines.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// A rooted tree over the node set `0..n`, stored as a parent array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RootedTree {
    root: NodeId,
    /// `parent[u] = Some(p)` for every non-root node, `None` for the root.
    parent: Vec<Option<NodeId>>,
    /// Children lists, kept sorted for deterministic iteration.
    children: Vec<Vec<NodeId>>,
}

impl RootedTree {
    /// Builds a rooted tree from a parent array.
    ///
    /// `parent[u]` must be `None` exactly for `root`, every other node must
    /// reach the root by following parents (no cycles, no disconnection).
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>) -> Result<Self> {
        let n = parent.len();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if root.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: root,
                node_count: n,
            });
        }
        if parent[root.index()].is_some() {
            return Err(GraphError::NotASpanningTree(format!(
                "root {root} has a parent"
            )));
        }
        let mut children = vec![Vec::new(); n];
        for (u, entry) in parent.iter().enumerate() {
            if let Some(p) = *entry {
                if p.index() >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: p,
                        node_count: n,
                    });
                }
                if p.index() == u {
                    return Err(GraphError::SelfLoop(NodeId::new(u)));
                }
                children[p.index()].push(NodeId::new(u));
            } else if u != root.index() {
                return Err(GraphError::NotASpanningTree(format!(
                    "node v{u} has no parent but is not the root"
                )));
            }
        }
        for list in &mut children {
            list.sort_unstable();
        }
        let tree = RootedTree {
            root,
            parent,
            children,
        };
        // Reject cycles / unreachable nodes: a BFS from the root must visit all.
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([root]);
        seen[root.index()] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &c in tree.children(u) {
                if seen[c.index()] {
                    return Err(GraphError::NotASpanningTree(format!(
                        "node {c} reached twice (cycle)"
                    )));
                }
                seen[c.index()] = true;
                count += 1;
                queue.push_back(c);
            }
        }
        if count != n {
            return Err(GraphError::NotASpanningTree(format!(
                "only {count} of {n} nodes reachable from the root"
            )));
        }
        Ok(tree)
    }

    /// Builds a rooted tree from an undirected edge list by orienting every
    /// edge away from `root` (BFS order). The edge list must form a tree on
    /// all `n` nodes.
    pub fn from_edges(n: usize, root: NodeId, edges: &[(NodeId, NodeId)]) -> Result<Self> {
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if edges.len() != n - 1 {
            return Err(GraphError::NotASpanningTree(format!(
                "a spanning tree on {n} nodes needs {} edges, got {}",
                n - 1,
                edges.len()
            )));
        }
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u.index() >= n || v.index() >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: if u.index() >= n { u } else { v },
                    node_count: n,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            adj[u.index()].push(v);
            adj[v.index()].push(u);
        }
        if root.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: root,
                node_count: n,
            });
        }
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        let mut queue = VecDeque::from([root]);
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u.index()] {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    parent[v.index()] = Some(u);
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        if count != n {
            return Err(GraphError::NotASpanningTree(format!(
                "edge list is disconnected: {count} of {n} nodes reachable"
            )));
        }
        Self::from_parents(root, parent)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The current root.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `u`, `None` for the root.
    #[inline]
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent[u.index()]
    }

    /// Children of `u`, sorted by identity.
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.children[u.index()]
    }

    /// Tree degree of `u`: number of tree edges incident to `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.children[u.index()].len() + usize::from(self.parent[u.index()].is_some())
    }

    /// Maximum tree degree (the quantity the algorithm minimises).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|u| self.degree(NodeId::new(u)))
            .max()
            .unwrap_or(0)
    }

    /// All nodes whose tree degree equals the maximum, sorted by identity.
    pub fn max_degree_nodes(&self) -> Vec<NodeId> {
        let k = self.max_degree();
        (0..self.node_count())
            .map(NodeId::new)
            .filter(|&u| self.degree(u) == k)
            .collect()
    }

    /// The maximum-degree node of minimum identity (the node `p` the paper
    /// moves the root to). `None` only for the empty tree.
    pub fn max_degree_min_id(&self) -> Option<NodeId> {
        self.max_degree_nodes().into_iter().next()
    }

    /// Histogram of tree degrees: `hist[d]` = number of nodes of degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for u in 0..self.node_count() {
            hist[self.degree(NodeId::new(u))] += 1;
        }
        hist
    }

    /// Iterator over the `n − 1` undirected tree edges as `(child, parent)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count()).filter_map(move |u| self.parent[u].map(|p| (NodeId::new(u), p)))
    }

    /// Whether the undirected edge `(u, v)` is a tree edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.parent(u) == Some(v) || self.parent(v) == Some(u)
    }

    /// Whether every tree edge is an edge of `g` and the tree spans `g`.
    pub fn is_spanning_tree_of(&self, g: &Graph) -> bool {
        if self.node_count() != g.node_count() {
            return false;
        }
        self.edges().all(|(u, v)| g.has_edge(u, v))
    }

    /// Validates that this tree is a spanning tree of `g`, with a descriptive
    /// error when it is not.
    pub fn validate_against(&self, g: &Graph) -> Result<()> {
        if self.node_count() != g.node_count() {
            return Err(GraphError::NotASpanningTree(format!(
                "tree has {} nodes, graph has {}",
                self.node_count(),
                g.node_count()
            )));
        }
        for (u, v) in self.edges() {
            if !g.has_edge(u, v) {
                return Err(GraphError::NotASpanningTree(format!(
                    "tree edge ({u}, {v}) is not an edge of the graph"
                )));
            }
        }
        Ok(())
    }

    /// Nodes of the subtree rooted at `u` (including `u`), in BFS order.
    pub fn subtree(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut queue = VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            out.push(x);
            queue.extend(self.children(x).iter().copied());
        }
        out
    }

    /// Depth of `u` (number of tree edges from the root).
    pub fn depth(&self, u: NodeId) -> usize {
        let mut d = 0;
        let mut x = u;
        while let Some(p) = self.parent(x) {
            d += 1;
            x = p;
        }
        d
    }

    /// Height of the tree: maximum depth over all nodes.
    pub fn height(&self) -> usize {
        (0..self.node_count())
            .map(|u| self.depth(NodeId::new(u)))
            .max()
            .unwrap_or(0)
    }

    /// The path from `u` up to the root, starting at `u` and ending at the root.
    pub fn path_to_root(&self, u: NodeId) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut x = u;
        while let Some(p) = self.parent(x) {
            path.push(p);
            x = p;
        }
        path
    }

    /// The unique tree path between `u` and `v` (inclusive of both endpoints).
    pub fn path_between(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let up = self.path_to_root(u);
        let vp = self.path_to_root(v);
        let in_up: BTreeSet<NodeId> = up.iter().copied().collect();
        // Lowest common ancestor = first node of v's root path that also lies
        // on u's root path.
        let lca = *vp
            .iter()
            .find(|x| in_up.contains(x))
            .expect("both paths end at the root, so the intersection is non-empty");
        let mut path: Vec<NodeId> = up.iter().copied().take_while(|&x| x != lca).collect();
        path.push(lca);
        let tail: Vec<NodeId> = vp.iter().copied().take_while(|&x| x != lca).collect();
        path.extend(tail.into_iter().rev());
        path
    }

    /// Re-roots the tree at `new_root` by reversing the parent pointers along
    /// the path from the old root to `new_root` (the "path reversal" of
    /// §3.2.2 MoveRoot).
    pub fn reroot(&mut self, new_root: NodeId) -> Result<()> {
        if new_root.index() >= self.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: new_root,
                node_count: self.node_count(),
            });
        }
        if new_root == self.root {
            return Ok(());
        }
        // Walk up from new_root and flip every edge on the way.
        let path = self.path_to_root(new_root);
        for pair in path.windows(2) {
            let (child, par) = (pair[0], pair[1]);
            // par loses child `child`; child gains child `par`.
            self.children[par.index()].retain(|&c| c != child);
            self.children[child.index()].push(par);
            self.children[child.index()].sort_unstable();
            self.parent[par.index()] = Some(child);
        }
        self.parent[new_root.index()] = None;
        self.root = new_root;
        Ok(())
    }

    /// Performs the paper's edge exchange: removes the tree edge between
    /// `cut_parent` and its child `cut_child`, and adds the non-tree edge
    /// `(u, v)` where `u` lies in the subtree that was cut off (the fragment
    /// rooted at `cut_child`) and `v` lies in the rest of the tree.
    ///
    /// After the exchange `cut_parent`'s degree has dropped by one and the
    /// structure is again a spanning tree rooted at the original root (which
    /// must not be inside the cut fragment unless it is re-attached through
    /// `u`; the distributed algorithm always calls this with the root at
    /// `cut_parent`, which keeps the invariant trivially).
    pub fn exchange(
        &mut self,
        cut_parent: NodeId,
        cut_child: NodeId,
        u: NodeId,
        v: NodeId,
    ) -> Result<()> {
        if self.parent(cut_child) != Some(cut_parent) {
            return Err(GraphError::MissingEdge(cut_parent, cut_child));
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let fragment: BTreeSet<NodeId> = self.subtree(cut_child).into_iter().collect();
        let (inside, outside) = if fragment.contains(&u) && !fragment.contains(&v) {
            (u, v)
        } else if fragment.contains(&v) && !fragment.contains(&u) {
            (v, u)
        } else {
            return Err(GraphError::NotASpanningTree(format!(
                "replacement edge ({u}, {v}) does not cross the cut below {cut_child}"
            )));
        };
        // Detach the fragment.
        self.children[cut_parent.index()].retain(|&c| c != cut_child);
        self.parent[cut_child.index()] = None;
        // Re-root the fragment at `inside` so it can hang off `outside`.
        // (A local re-rooting restricted to the fragment: walk from `inside`
        // up to `cut_child` and flip.)
        let mut path = vec![inside];
        let mut x = inside;
        while let Some(p) = self.parent(x) {
            path.push(p);
            x = p;
        }
        debug_assert_eq!(*path.last().unwrap(), cut_child);
        for pair in path.windows(2) {
            let (child, par) = (pair[0], pair[1]);
            self.children[par.index()].retain(|&c| c != child);
            self.children[child.index()].push(par);
            self.children[child.index()].sort_unstable();
            self.parent[par.index()] = Some(child);
        }
        self.parent[inside.index()] = Some(outside);
        self.children[outside.index()].push(inside);
        self.children[outside.index()].sort_unstable();
        Ok(())
    }

    /// Converts the tree into an undirected [`Graph`] on the same node set.
    pub fn to_graph(&self) -> Graph {
        let edges: Vec<(usize, usize)> =
            self.edges().map(|(u, v)| (u.index(), v.index())).collect();
        crate::graph::graph_from_edges(self.node_count(), &edges)
            .expect("tree edges are simple and in range")
    }

    /// The fragments obtained by removing node `p` from the tree: one set of
    /// nodes per neighbour of `p` in the tree (children subtrees plus, if `p`
    /// is not the root, the rest of the tree seen through `p`'s parent).
    ///
    /// Each fragment is keyed by the neighbour of `p` it contains.
    pub fn fragments_around(&self, p: NodeId) -> Vec<(NodeId, BTreeSet<NodeId>)> {
        let mut fragments = Vec::new();
        for &c in self.children(p) {
            fragments.push((c, self.subtree(c).into_iter().collect()));
        }
        if let Some(par) = self.parent(p) {
            let below: BTreeSet<NodeId> = self.subtree(p).into_iter().collect();
            let rest: BTreeSet<NodeId> = (0..self.node_count())
                .map(NodeId::new)
                .filter(|x| !below.contains(x))
                .collect();
            fragments.push((par, rest));
        }
        fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn chain(n: usize) -> RootedTree {
        let parents = (0..n)
            .map(|u| {
                if u == 0 {
                    None
                } else {
                    Some(NodeId::new(u - 1))
                }
            })
            .collect();
        RootedTree::from_parents(NodeId(0), parents).unwrap()
    }

    #[test]
    fn chain_degrees_and_height() {
        let t = chain(5);
        assert_eq!(t.max_degree(), 2);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert_eq!(t.height(), 4);
        assert_eq!(t.max_degree_min_id(), Some(NodeId(1)));
    }

    #[test]
    fn star_has_degree_n_minus_one() {
        let parents = (0..6)
            .map(|u| if u == 0 { None } else { Some(NodeId(0)) })
            .collect();
        let t = RootedTree::from_parents(NodeId(0), parents).unwrap();
        assert_eq!(t.max_degree(), 5);
        assert_eq!(t.max_degree_nodes(), vec![NodeId(0)]);
        assert_eq!(t.degree_histogram(), vec![0, 5, 0, 0, 0, 1]);
    }

    #[test]
    fn from_parents_rejects_cycles() {
        // 0 <- 1 <- 2 and 1 <- 0 forms a cycle away from root 2.
        let parents = vec![Some(NodeId(1)), Some(NodeId(0)), None];
        // Node 2 is the root but nodes 0 and 1 form a 2-cycle unreachable from it.
        let err = RootedTree::from_parents(NodeId(2), parents).unwrap_err();
        assert!(matches!(err, GraphError::NotASpanningTree(_)));
    }

    #[test]
    fn from_parents_rejects_multiple_roots() {
        let parents = vec![None, None, Some(NodeId(0))];
        let err = RootedTree::from_parents(NodeId(0), parents).unwrap_err();
        assert!(matches!(err, GraphError::NotASpanningTree(_)));
    }

    #[test]
    fn from_edges_orients_away_from_root() {
        let edges = [
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
            (NodeId(1), NodeId(3)),
        ];
        let t = RootedTree::from_edges(4, NodeId(2), &edges).unwrap();
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(0)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn from_edges_rejects_wrong_edge_count() {
        let err = RootedTree::from_edges(3, NodeId(0), &[(NodeId(0), NodeId(1))]).unwrap_err();
        assert!(matches!(err, GraphError::NotASpanningTree(_)));
    }

    #[test]
    fn reroot_preserves_edge_set() {
        let mut t = chain(6);
        let before: BTreeSet<(NodeId, NodeId)> = t
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        t.reroot(NodeId(4)).unwrap();
        assert_eq!(t.root(), NodeId(4));
        assert!(t.parent(NodeId(4)).is_none());
        let after: BTreeSet<(NodeId, NodeId)> = t
            .edges()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        assert_eq!(before, after);
        // Still a valid tree (constructor invariants re-checked).
        let rebuilt =
            RootedTree::from_parents(t.root(), (0..6).map(|u| t.parent(NodeId(u))).collect());
        assert!(rebuilt.is_ok());
    }

    #[test]
    fn path_between_goes_through_lca() {
        let edges = [
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(1), NodeId(3)),
            (NodeId(2), NodeId(4)),
        ];
        let t = RootedTree::from_edges(5, NodeId(0), &edges).unwrap();
        assert_eq!(
            t.path_between(NodeId(3), NodeId(4)),
            vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2), NodeId(4)]
        );
        assert_eq!(t.path_between(NodeId(3), NodeId(3)), vec![NodeId(3)]);
    }

    #[test]
    fn exchange_reduces_center_degree() {
        // Star centred at 0 over 5 nodes plus graph edge (1,2) available.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let parents = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
        ];
        let mut t = RootedTree::from_parents(NodeId(0), parents).unwrap();
        assert_eq!(t.degree(NodeId(0)), 4);
        t.exchange(NodeId(0), NodeId(2), NodeId(1), NodeId(2))
            .unwrap();
        assert_eq!(t.degree(NodeId(0)), 3);
        assert!(t.is_spanning_tree_of(&g));
        assert!(t.has_edge(NodeId(1), NodeId(2)));
        assert!(!t.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn exchange_rejects_non_crossing_edge() {
        let parents = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(1)),
        ];
        let mut t = RootedTree::from_parents(NodeId(0), parents).unwrap();
        // Edge (3,4) lies entirely inside the fragment below node 1.
        let err = t
            .exchange(NodeId(0), NodeId(1), NodeId(3), NodeId(4))
            .unwrap_err();
        assert!(matches!(err, GraphError::NotASpanningTree(_)));
    }

    #[test]
    fn fragments_around_cover_all_other_nodes() {
        let edges = [
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
            (NodeId(1), NodeId(3)),
            (NodeId(3), NodeId(4)),
        ];
        let t = RootedTree::from_edges(5, NodeId(0), &edges).unwrap();
        let frags = t.fragments_around(NodeId(1));
        assert_eq!(frags.len(), 3);
        let total: usize = frags.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 4);
        for (_, s) in &frags {
            assert!(!s.contains(&NodeId(1)));
        }
    }

    #[test]
    fn validate_against_detects_foreign_edges() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let parents = vec![None, Some(NodeId(0)), Some(NodeId(0))];
        let t = RootedTree::from_parents(NodeId(0), parents).unwrap();
        // Edge (0,2) is not in g.
        assert!(t.validate_against(&g).is_err());
    }

    #[test]
    fn to_graph_round_trips_edges() {
        let t = chain(4);
        let g = t.to_graph();
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(2), NodeId(3)));
    }
}
