//! Verification of protocol results.
//!
//! The correctness statement of the paper has two parts: the result is a
//! spanning tree, and it is a *Locally Optimal Tree* — no outgoing edge
//! between the fragments around the targeted maximum-degree node can lower the
//! maximum degree (Theorem 1's condition restricted to the node the algorithm
//! got stuck on). The functions here check both parts on the centralized
//! snapshot of the final tree; they are used by the integration tests, the
//! property tests and the experiment harness.

use mdst_graph::{Graph, GraphError, NodeId, RootedTree};
use serde::Serialize;
use std::collections::BTreeSet;

/// Checks that `tree` is a spanning tree of `graph` (right node set, every
/// tree edge a graph edge, connected and acyclic by construction of
/// [`RootedTree`]).
pub fn verify_spanning_tree(graph: &Graph, tree: &RootedTree) -> Result<(), GraphError> {
    tree.validate_against(graph)
}

/// Whether no admissible exchange can lower the degree of `w`.
///
/// `w`'s removal splits the tree into fragments (one per tree neighbour of
/// `w`); an admissible exchange needs a graph edge between two different
/// fragments whose endpoints both have tree degree at most `k − 2`, where `k`
/// is the maximum degree of the tree. Returns `true` when no such edge exists
/// — the paper's stopping condition for the improvement of `w`.
pub fn is_locally_optimal_for(graph: &Graph, tree: &RootedTree, w: NodeId) -> bool {
    let k = tree.max_degree();
    let fragments = tree.fragments_around(w);
    let n = tree.node_count();
    // fragment index per node; usize::MAX = the node w itself.
    let mut fragment_of = vec![usize::MAX; n];
    for (index, (_, members)) in fragments.iter().enumerate() {
        for node in members {
            fragment_of[node.index()] = index;
        }
    }
    for (a, b) in graph.edges() {
        if a == w || b == w {
            continue;
        }
        if fragment_of[a.index()] == fragment_of[b.index()] {
            continue;
        }
        if tree.degree(a) + 2 <= k && tree.degree(b) + 2 <= k {
            return false;
        }
    }
    true
}

/// The maximum-degree nodes of `tree` that are locally optimal (blocked).
pub fn blocked_max_degree_nodes(graph: &Graph, tree: &RootedTree) -> Vec<NodeId> {
    tree.max_degree_nodes()
        .into_iter()
        .filter(|&w| is_locally_optimal_for(graph, tree, w))
        .collect()
}

/// The termination certificate of the distributed algorithm: either the tree
/// already has the unimprovable degree 2 (or fewer nodes than that requires),
/// or the maximum-degree node of minimum identity — the node the final round
/// targeted — admits no improving exchange.
pub fn verify_termination_certificate(graph: &Graph, tree: &RootedTree) -> bool {
    let k = tree.max_degree();
    if k <= 2 {
        return true;
    }
    let p = tree
        .max_degree_min_id()
        .expect("a non-empty tree has a maximum-degree node");
    is_locally_optimal_for(graph, tree, p)
}

/// The invariant-relevant slice of one node's protocol state, as captured
/// *between* atomic event handlers (message deliveries). Produced by
/// `MdstNode::snapshot`; consumed by [`check_safety_invariants`] and the
/// `mdst-check` model checker at every explored state, not only at
/// quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Current parent pointer (`None` = this node believes it is the root).
    pub parent: Option<NodeId>,
    /// Highest round number the node has joined.
    pub round: u32,
    /// Fragment identity `(coordinator, fragment root)` the node last
    /// entered, if any (stale values from finished rounds persist until the
    /// next `SearchInit` resets them — the consistency check below is
    /// therefore scoped per round).
    pub fragment: Option<(NodeId, NodeId)>,
    /// Whether the node currently acts as the round coordinator `p`.
    pub coordinator: bool,
    /// Whether the node has received the final `Stop`.
    pub done: bool,
}

/// A violated safety invariant of the distributed protocol, with enough
/// context to point at the offending nodes. These are *global* invariants
/// that hold at every reachable state under any message schedule — including
/// mid-round transients (path reversal in progress, half-installed
/// exchanges) and crash/loss faults — so a model checker may assert them
/// after every single delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A node lists itself as its own parent.
    SelfParent {
        /// The offending node.
        node: NodeId,
    },
    /// A parent pointer refers to a node that is not a graph neighbour, so
    /// the claimed tree edge does not exist in the network.
    ParentNotNeighbor {
        /// The claiming node.
        node: NodeId,
        /// Its (non-adjacent) claimed parent.
        parent: NodeId,
    },
    /// The undirected parent edges contain a cycle. Antiparallel pairs
    /// (`u.parent = v` and `v.parent = u`, the legitimate transient of a
    /// path reversal in flight) count as a single undirected edge, so this
    /// only fires on genuine structural cycles.
    ParentCycle {
        /// The edge whose insertion closed the cycle.
        edge: (NodeId, NodeId),
    },
    /// More than one node believes it is the root (`parent = None`). The
    /// root moves by first re-pointing itself and only then handing the
    /// rootship over in a message, so at every instant there is at most one
    /// root — even while `MoveRoot` is in flight (then there are zero).
    MultipleRoots {
        /// Two distinct claimed roots.
        roots: (NodeId, NodeId),
    },
    /// More than one node acts as coordinator at the same instant.
    MultipleCoordinators {
        /// Two distinct claimed coordinators.
        coordinators: (NodeId, NodeId),
    },
    /// Two nodes that joined the same round disagree on who that round's
    /// coordinator is (fragment identities are inconsistent).
    FragmentMismatch {
        /// The round in question.
        round: u32,
        /// A node and the coordinator it recorded.
        a: (NodeId, NodeId),
        /// Another same-round node with a different coordinator.
        b: (NodeId, NodeId),
    },
}

impl InvariantViolation {
    /// Stable kebab-case identifier of the violated rule, used by report
    /// files and counterexample artifacts.
    pub fn rule(&self) -> &'static str {
        match self {
            InvariantViolation::SelfParent { .. } => "self-parent",
            InvariantViolation::ParentNotNeighbor { .. } => "parent-not-neighbor",
            InvariantViolation::ParentCycle { .. } => "parent-cycle",
            InvariantViolation::MultipleRoots { .. } => "multiple-roots",
            InvariantViolation::MultipleCoordinators { .. } => "multiple-coordinators",
            InvariantViolation::FragmentMismatch { .. } => "fragment-mismatch",
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::SelfParent { node } => {
                write!(f, "{node} lists itself as its own parent")
            }
            InvariantViolation::ParentNotNeighbor { node, parent } => {
                write!(f, "{node} claims parent {parent}, which is not a neighbour")
            }
            InvariantViolation::ParentCycle { edge: (u, v) } => {
                write!(f, "parent edge {u}-{v} closes a cycle")
            }
            InvariantViolation::MultipleRoots { roots: (a, b) } => {
                write!(f, "both {a} and {b} believe they are the root")
            }
            InvariantViolation::MultipleCoordinators {
                coordinators: (a, b),
            } => {
                write!(f, "both {a} and {b} act as coordinator")
            }
            InvariantViolation::FragmentMismatch { round, a, b } => {
                write!(
                    f,
                    "round {round}: {} records coordinator {} but {} records {}",
                    a.0, a.1, b.0, b.1
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks the protocol's global safety invariants on a mid-execution
/// snapshot of every node's state (crashed nodes included — crash-stop
/// freezes a node's state, it does not corrupt it):
///
/// 1. no node is its own parent;
/// 2. every parent pointer follows an existing graph edge;
/// 3. the undirected parent edges form a forest (an exchange deletes one
///    tree edge and adds one graph edge between two fragments, so the edge
///    set stays acyclic through every intermediate delivery);
/// 4. at most one node believes it is the root;
/// 5. at most one node acts as coordinator;
/// 6. all nodes that joined the same round agree on that round's
///    coordinator.
///
/// Unlike [`verify_spanning_tree`] this is callable at *every* reachable
/// state, not only at quiescence — it is the per-state oracle of the
/// `mdst-check` model checker.
pub fn check_safety_invariants(
    graph: &Graph,
    snapshots: &[NodeSnapshot],
) -> Result<(), InvariantViolation> {
    let n = graph.node_count();
    assert_eq!(snapshots.len(), n, "one snapshot per node");

    // 1 + 2: parent pointers are real graph edges.
    for (u, snap) in snapshots.iter().enumerate() {
        let u = NodeId::new(u);
        if let Some(p) = snap.parent {
            if p == u {
                return Err(InvariantViolation::SelfParent { node: u });
            }
            if !graph.has_edge(u, p) {
                return Err(InvariantViolation::ParentNotNeighbor { node: u, parent: p });
            }
        }
    }

    // 3: the undirected parent-edge set is a forest. Antiparallel pairs are
    // deduplicated first, so a path reversal in flight is not a 2-cycle.
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (u, snap) in snapshots.iter().enumerate() {
        if let Some(p) = snap.parent {
            edges.insert((u.min(p.index()), u.max(p.index())));
        }
    }
    let mut dsu = mdst_graph::algorithms::DisjointSet::new(n);
    for &(a, b) in &edges {
        if !dsu.union(a, b) {
            return Err(InvariantViolation::ParentCycle {
                edge: (NodeId::new(a), NodeId::new(b)),
            });
        }
    }

    // 4 + 5: at most one root, at most one coordinator.
    let mut root = None;
    let mut coordinator = None;
    for (u, snap) in snapshots.iter().enumerate() {
        let u = NodeId::new(u);
        if snap.parent.is_none() {
            if let Some(r) = root {
                return Err(InvariantViolation::MultipleRoots { roots: (r, u) });
            }
            root = Some(u);
        }
        if snap.coordinator {
            if let Some(c) = coordinator {
                return Err(InvariantViolation::MultipleCoordinators {
                    coordinators: (c, u),
                });
            }
            coordinator = Some(u);
        }
    }

    // 6: per-round fragment identities agree on the coordinator.
    let mut per_round: std::collections::BTreeMap<u32, (NodeId, NodeId)> =
        std::collections::BTreeMap::new();
    for (u, snap) in snapshots.iter().enumerate() {
        let u = NodeId::new(u);
        if let Some((coord, _)) = snap.fragment {
            match per_round.get(&snap.round) {
                None => {
                    per_round.insert(snap.round, (u, coord));
                }
                Some(&(first, recorded)) if recorded != coord => {
                    return Err(InvariantViolation::FragmentMismatch {
                        round: snap.round,
                        a: (first, recorded),
                        b: (u, coord),
                    });
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// What is left of a (possibly partial) tree snapshot on the live part of a
/// network after a faulty run. Produced by [`survivor_report`]; consumed by
/// the scenario runner's outcome taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SurvivorReport {
    /// Nodes that did not crash.
    pub live_nodes: usize,
    /// Members of the *survivor component*: the largest connected component
    /// of the graph induced on the live nodes (lowest-id component on ties),
    /// sorted by id. Equals all nodes when nothing crashed.
    pub component: Vec<NodeId>,
    /// Distinct snapshot tree edges with both endpoints in the survivor
    /// component (and actually present in the graph).
    pub tree_edges: usize,
    /// Whether those edges form a spanning tree of the survivor component.
    pub spans_component: bool,
    /// Maximum number of snapshot tree edges incident to any one node of the
    /// survivor component (`0` when the component retains no tree edge).
    pub max_degree: usize,
}

impl SurvivorReport {
    /// Size of the survivor component.
    pub fn component_size(&self) -> usize {
        self.component.len()
    }

    /// The survivor component as its own [`Graph`] (nodes renumbered in
    /// sorted-id order), for computing degree bounds on what is left of the
    /// network.
    pub fn component_subgraph(&self, graph: &Graph) -> Graph {
        if self.component.is_empty() {
            return Graph::empty(1);
        }
        graph
            .induced_subgraph(&self.component.iter().copied().collect())
            .0
    }
}

/// Checks a parent-pointer snapshot of the improved tree against the live
/// part of the network: which nodes survive, whether the surviving tree edges
/// still span the survivor component, and what degree the snapshot attains
/// there. With no crashes this degenerates to "is `parents` a spanning tree
/// of `graph`" plus its maximum degree.
///
/// `parents` is indexed by node; `parents[u] = Some(p)` is the snapshot tree
/// edge `{u, p}`. Edges touching a crashed endpoint, absent from the graph,
/// or equal to a self loop are ignored (a stale pointer must not crash the
/// verifier — classifying stale state is its whole purpose).
pub fn survivor_report(
    graph: &Graph,
    parents: &[Option<NodeId>],
    crashed: &[bool],
) -> SurvivorReport {
    let n = graph.node_count();
    assert_eq!(parents.len(), n, "one parent slot per node");
    assert_eq!(crashed.len(), n, "one crash flag per node");
    let live = |u: NodeId| u.index() < n && !crashed[u.index()];
    let live_nodes = crashed.iter().filter(|&&dead| !dead).count();

    // Survivor component: BFS over the live-induced subgraph from each
    // unvisited live node, keeping the largest component (first one on ties,
    // i.e. the one with the smallest id — deterministic).
    let mut visited = vec![false; n];
    let mut component: Vec<NodeId> = Vec::new();
    for start in 0..n {
        if visited[start] || crashed[start] {
            continue;
        }
        let mut queue = vec![NodeId::new(start)];
        visited[start] = true;
        let mut members = Vec::new();
        while let Some(u) = queue.pop() {
            members.push(u);
            for v in graph.neighbors(u) {
                if !visited[v.index()] && !crashed[v.index()] {
                    visited[v.index()] = true;
                    queue.push(v);
                }
            }
        }
        if members.len() > component.len() {
            component = members;
        }
    }
    component.sort_unstable();

    let mut in_component = vec![false; n];
    for node in &component {
        in_component[node.index()] = true;
    }

    // Distinct snapshot tree edges inside the component.
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (u, parent) in parents.iter().enumerate() {
        let Some(p) = *parent else { continue };
        let u = NodeId::new(u);
        if u == p || !live(u) || !live(p) {
            continue;
        }
        if !in_component[u.index()] || !in_component[p.index()] {
            continue;
        }
        if !graph.has_edge(u, p) {
            continue;
        }
        let (a, b) = (u.index().min(p.index()), u.index().max(p.index()));
        edges.insert((a, b));
    }

    // Spanning check: |edges| = |component| - 1 and the edges connect the
    // component (acyclicity then follows from the count).
    let mut degree = vec![0usize; n];
    let mut dsu = mdst_graph::algorithms::DisjointSet::new(n);
    let mut united = 0usize;
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
        if dsu.union(a, b) {
            united += 1;
        }
    }
    let first = component.first().copied();
    let spans_component = !component.is_empty()
        && edges.len() == component.len() - 1
        && united == edges.len()
        && component
            .iter()
            .all(|&u| dsu.same(u.index(), first.expect("non-empty").index()));
    let max_degree = component
        .iter()
        .map(|&u| degree[u.index()])
        .max()
        .unwrap_or(0);

    SurvivorReport {
        live_nodes,
        component,
        tree_edges: edges.len(),
        spans_component,
        max_degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_graph::{algorithms, generators};

    #[test]
    fn star_tree_on_star_plus_path_is_not_locally_optimal() {
        let g = generators::star_with_leaf_edges(8).unwrap();
        let star = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
        assert!(!is_locally_optimal_for(&g, &star, NodeId(0)));
        assert!(!verify_termination_certificate(&g, &star));
    }

    #[test]
    fn star_tree_on_pure_star_is_locally_optimal() {
        let g = generators::star(8).unwrap();
        let star = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        assert!(is_locally_optimal_for(&g, &star, NodeId(0)));
        assert!(verify_termination_certificate(&g, &star));
        assert_eq!(blocked_max_degree_nodes(&g, &star), vec![NodeId(0)]);
    }

    #[test]
    fn chains_are_always_certified() {
        let g = generators::cycle(10).unwrap();
        let chain = algorithms::dfs_tree(&g, NodeId(0)).unwrap();
        assert!(verify_termination_certificate(&g, &chain));
    }

    #[test]
    fn paper_local_search_results_are_certified() {
        for seed in 0..6u64 {
            let g = generators::gnp_connected(22, 0.2, seed).unwrap();
            let initial = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
            let out = crate::sequential::paper_local_search(&g, &initial).unwrap();
            assert!(
                verify_termination_certificate(&g, &out.tree),
                "seed {seed}: result of the paper rule must be blocked"
            );
        }
    }

    fn parents_of(tree: &RootedTree) -> Vec<Option<NodeId>> {
        (0..tree.node_count())
            .map(|u| tree.parent(NodeId::new(u)))
            .collect()
    }

    #[test]
    fn survivor_report_with_no_crashes_is_a_plain_spanning_check() {
        let g = generators::gnp_connected(12, 0.3, 7).unwrap();
        let tree = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        let report = survivor_report(&g, &parents_of(&tree), &[false; 12]);
        assert_eq!(report.live_nodes, 12);
        assert_eq!(report.component_size(), 12);
        assert_eq!(report.tree_edges, 11);
        assert!(report.spans_component);
        assert_eq!(report.max_degree, tree.max_degree());
        let sub = report.component_subgraph(&g);
        assert_eq!(sub.node_count(), g.node_count());
        assert_eq!(sub.edge_count(), g.edge_count());
    }

    #[test]
    fn survivor_report_restricts_to_the_largest_live_component() {
        // Path 0-1-2-3-4: crashing node 2 leaves components {0,1} and {3,4};
        // the (first) largest is {0,1}. The path tree restricted to it still
        // spans it.
        let g = generators::path(5).unwrap();
        let tree = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        let mut crashed = vec![false; 5];
        crashed[2] = true;
        let report = survivor_report(&g, &parents_of(&tree), &crashed);
        assert_eq!(report.live_nodes, 4);
        assert_eq!(report.component, vec![NodeId(0), NodeId(1)]);
        assert_eq!(report.tree_edges, 1);
        assert!(report.spans_component);
        assert_eq!(report.max_degree, 1);
        let sub = report.component_subgraph(&g);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn survivor_report_detects_partial_trees() {
        // Cycle 0-1-2-3-0 with the BFS tree rooted at 0. Drop node 1's parent
        // pointer: the snapshot no longer spans the (fully live) component.
        let g = generators::cycle(4).unwrap();
        let tree = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        let mut parents = parents_of(&tree);
        let child = (1..4).find(|&u| parents[u] == Some(NodeId(0))).unwrap();
        parents[child] = None;
        let report = survivor_report(&g, &parents, &[false; 4]);
        assert!(!report.spans_component);
        assert_eq!(report.tree_edges, 2);
    }

    #[test]
    fn survivor_report_ignores_stale_pointers() {
        // Parent pointers to crashed nodes or non-edges must be skipped, not
        // trusted or panicked on.
        let g = generators::path(4).unwrap();
        let parents = vec![None, Some(NodeId(0)), Some(NodeId(0)), Some(NodeId(2))];
        // parents[2] = 0 is not an edge of the path; ignore it.
        let report = survivor_report(&g, &parents, &[false; 4]);
        assert!(!report.spans_component);
        assert_eq!(report.tree_edges, 2, "0-1 and 2-3 survive, 0-2 is bogus");
    }

    #[test]
    fn survivor_report_on_a_single_node_graph_is_trivially_spanning() {
        // One node, no edges, no parent pointer: the snapshot spans the
        // (singleton) component with zero tree edges and degree zero.
        let g = Graph::empty(1);
        let report = survivor_report(&g, &[None], &[false]);
        assert_eq!(report.live_nodes, 1);
        assert_eq!(report.component, vec![NodeId(0)]);
        assert_eq!(report.tree_edges, 0);
        assert!(report.spans_component);
        assert_eq!(report.max_degree, 0);
        let sub = report.component_subgraph(&g);
        assert_eq!(sub.node_count(), 1);
        assert_eq!(sub.edge_count(), 0);
        // And the same singleton after the rest of the graph crashed.
        let g = generators::path(3).unwrap();
        let tree = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        let report = survivor_report(&g, &parents_of(&tree), &[false, true, true]);
        assert_eq!(report.component, vec![NodeId(0)]);
        assert!(report.spans_component);
        assert_eq!(report.max_degree, 0);
    }

    #[test]
    fn survivor_report_with_every_node_crashed_is_empty_not_a_panic() {
        let g = generators::cycle(4).unwrap();
        let tree = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        let report = survivor_report(&g, &parents_of(&tree), &[true; 4]);
        assert_eq!(report.live_nodes, 0);
        assert!(report.component.is_empty());
        assert_eq!(report.component_size(), 0);
        assert_eq!(report.tree_edges, 0);
        assert!(
            !report.spans_component,
            "an empty component spans nothing — the outcome taxonomy relies \
             on this reading as a degraded run"
        );
        assert_eq!(report.max_degree, 0);
        // The subgraph of nothing is the minimal one-node placeholder the
        // builder produces; it must not panic.
        let sub = report.component_subgraph(&g);
        assert_eq!(sub.edge_count(), 0);
    }

    #[test]
    fn survivor_component_ties_resolve_to_the_lowest_id_component() {
        // Cycle 0..5 with nodes 0 and 3 crashed leaves two live components of
        // equal size, {1,2} and {4,5}; the report must pick {1,2}
        // deterministically (first seen = lowest id).
        let g = generators::cycle(6).unwrap();
        let tree = algorithms::bfs_tree(&g, NodeId(1)).unwrap();
        let mut crashed = vec![false; 6];
        crashed[0] = true;
        crashed[3] = true;
        let report = survivor_report(&g, &parents_of(&tree), &crashed);
        assert_eq!(report.live_nodes, 4);
        assert_eq!(report.component, vec![NodeId(1), NodeId(2)]);
        // The cycle tree rooted at 1 keeps the edge 1-2, so the snapshot
        // still spans the chosen component.
        assert!(report.spans_component);
        assert_eq!(report.tree_edges, 1);
        assert_eq!(report.max_degree, 1);
    }

    fn snap(parent: Option<usize>) -> NodeSnapshot {
        NodeSnapshot {
            parent: parent.map(NodeId::new),
            round: 1,
            fragment: None,
            coordinator: false,
            done: false,
        }
    }

    #[test]
    fn safety_invariants_accept_a_plain_tree_snapshot() {
        let g = generators::cycle(4).unwrap();
        let snaps = vec![snap(None), snap(Some(0)), snap(Some(1)), snap(Some(2))];
        assert!(check_safety_invariants(&g, &snaps).is_ok());
    }

    #[test]
    fn safety_invariants_tolerate_a_path_reversal_in_flight() {
        // MoveRoot transient: 0.parent = 1 while 1.parent = 0 still. The
        // antiparallel pair is one undirected edge, not a 2-cycle; note there
        // is no root at this instant, which is also legal.
        let g = generators::path(3).unwrap();
        let snaps = vec![snap(Some(1)), snap(Some(0)), snap(Some(1))];
        assert!(check_safety_invariants(&g, &snaps).is_ok());
    }

    #[test]
    fn safety_invariants_reject_structural_defects() {
        let g = generators::cycle(4).unwrap();
        // Self parent.
        let snaps = vec![snap(Some(0)), snap(Some(0)), snap(Some(1)), snap(Some(2))];
        assert_eq!(
            check_safety_invariants(&g, &snaps).unwrap_err().rule(),
            "self-parent"
        );
        // Parent along a non-edge (0-2 is a chord the 4-cycle lacks).
        let snaps = vec![snap(None), snap(Some(0)), snap(Some(0)), snap(Some(2))];
        assert_eq!(
            check_safety_invariants(&g, &snaps).unwrap_err().rule(),
            "parent-not-neighbor"
        );
        // A genuine directed cycle through three nodes.
        let snaps = vec![snap(Some(1)), snap(Some(2)), snap(Some(3)), snap(Some(0))];
        let err = check_safety_invariants(&g, &snaps).unwrap_err();
        assert_eq!(err.rule(), "parent-cycle");
        assert!(err.to_string().contains("closes a cycle"));
        // Two roots.
        let snaps = vec![snap(None), snap(None), snap(Some(1)), snap(Some(2))];
        assert_eq!(
            check_safety_invariants(&g, &snaps).unwrap_err().rule(),
            "multiple-roots"
        );
    }

    #[test]
    fn safety_invariants_scope_fragment_agreement_per_round() {
        let g = generators::cycle(4).unwrap();
        let frag = |parent: Option<usize>, round, coord: usize| NodeSnapshot {
            parent: parent.map(NodeId::new),
            round,
            fragment: Some((NodeId::new(coord), NodeId(9))),
            coordinator: false,
            done: false,
        };
        // Same round, different coordinators: inconsistent.
        let snaps = vec![
            snap(None),
            frag(Some(0), 2, 0),
            frag(Some(1), 2, 3),
            snap(Some(2)),
        ];
        let err = check_safety_invariants(&g, &snaps).unwrap_err();
        assert_eq!(err.rule(), "fragment-mismatch");
        // Different rounds may disagree (stale identity from a finished round).
        let snaps = vec![
            snap(None),
            frag(Some(0), 1, 0),
            frag(Some(1), 2, 3),
            snap(Some(2)),
        ];
        assert!(check_safety_invariants(&g, &snaps).is_ok());
        // Two simultaneous coordinators are flagged.
        let coord = |parent: Option<usize>| NodeSnapshot {
            coordinator: true,
            ..snap(parent)
        };
        let snaps = vec![snap(None), coord(Some(0)), coord(Some(1)), snap(Some(2))];
        assert_eq!(
            check_safety_invariants(&g, &snaps).unwrap_err().rule(),
            "multiple-coordinators"
        );
    }

    #[test]
    fn mdst_node_snapshots_feed_the_safety_checker() {
        use crate::distributed::MdstNode;
        let g = generators::star_with_leaf_edges(6).unwrap();
        let tree = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
        let nodes = MdstNode::from_tree(&tree);
        let snaps: Vec<NodeSnapshot> = nodes.iter().map(|p| p.snapshot()).collect();
        assert!(check_safety_invariants(&g, &snaps).is_ok());
        assert_eq!(snaps[0].parent, None);
        assert!(!snaps[0].done);
    }

    #[test]
    fn verify_spanning_tree_rejects_foreign_trees() {
        let g = generators::path(5).unwrap();
        let other = generators::star(5).unwrap();
        let t = algorithms::bfs_tree(&other, NodeId(0)).unwrap();
        assert!(verify_spanning_tree(&g, &t).is_err());
        let ok = algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        assert!(verify_spanning_tree(&g, &ok).is_ok());
    }
}
