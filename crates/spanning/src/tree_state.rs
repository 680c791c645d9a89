//! Common view over the per-node result of a spanning-tree construction.
//!
//! The MDegST algorithm starts from the local state the construction left
//! behind: every node knows its parent, its children and the fact that the
//! construction is finished. [`TreeState`] is that local state; [`collect_tree`]
//! assembles the global [`RootedTree`] from it (a purely observational step
//! used for seeding the next protocol, validation and reporting — the nodes
//! themselves never see the global tree).

use mdst_graph::{Graph, GraphError, NodeId, RootedTree};
use mdst_netsim::{
    CancelToken, ExecConfig, ExecStatus, ExecutorKind, Metrics, Protocol, SimConfig,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Local spanning-tree knowledge of one node after a construction protocol
/// has terminated.
pub trait TreeState {
    /// Parent in the constructed tree (`None` for the root).
    fn tree_parent(&self) -> Option<NodeId>;

    /// Children in the constructed tree.
    fn tree_children(&self) -> &BTreeSet<NodeId>;

    /// Whether this node knows the construction has terminated
    /// ("termination by process", required by §3.2 of the paper).
    fn is_done(&self) -> bool;
}

/// Assembles the global rooted tree from per-node [`TreeState`]s.
///
/// Checks mutual consistency: every child's parent pointer must agree with the
/// parent's children set, exactly one root must exist, and every node must
/// report termination.
pub fn collect_tree<S: TreeState>(states: &[S]) -> Result<RootedTree, GraphError> {
    let n = states.len();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut root = None;
    let mut parents = vec![None; n];
    for (u, state) in states.iter().enumerate() {
        if !state.is_done() {
            return Err(GraphError::NotASpanningTree(format!(
                "node v{u} has not terminated"
            )));
        }
        match state.tree_parent() {
            None => {
                if let Some(r) = root {
                    return Err(GraphError::NotASpanningTree(format!(
                        "two roots: {r} and v{u}"
                    )));
                }
                root = Some(NodeId::new(u));
            }
            Some(p) => {
                if !states[p.index()].tree_children().contains(&NodeId::new(u)) {
                    return Err(GraphError::NotASpanningTree(format!(
                        "v{u} claims parent {p} but {p} does not list it as a child"
                    )));
                }
                parents[u] = Some(p);
            }
        }
        for &c in state.tree_children() {
            if states[c.index()].tree_parent() != Some(NodeId::new(u)) {
                return Err(GraphError::NotASpanningTree(format!(
                    "v{u} lists child {c} but {c} points elsewhere"
                )));
            }
        }
    }
    let root = root.ok_or_else(|| GraphError::NotASpanningTree("no root".to_string()))?;
    RootedTree::from_parents(root, parents)
}

/// Runs the construction whose node automata `node(id, root)` builds on the
/// simulator under `config`, then collects and validates the tree it leaves
/// behind. Returns the tree plus the metrics of the run.
pub(crate) fn build_tree<S>(
    graph: &Arc<Graph>,
    root: NodeId,
    config: SimConfig,
    node: impl Fn(NodeId, NodeId) -> S,
) -> Result<(RootedTree, Metrics), GraphError>
where
    S: Protocol + TreeState,
{
    graph.check_node(root)?;
    let max_events = config.max_events;
    let config = ExecConfig {
        sim: config,
        ..Default::default()
    };
    let run = ExecutorKind::Sim
        .run(graph, |id, _| node(id, root), &config, &CancelToken::new())
        .map_err(|e| GraphError::InvalidParameter(e.to_string()))?;
    // Nobody raises the token above, so only the event cap ends a run early.
    if run.status != ExecStatus::Quiesced {
        return Err(GraphError::NotASpanningTree(format!(
            "construction did not quiesce: event limit of {max_events} exceeded before quiescence"
        )));
    }
    let tree = collect_tree(&run.nodes)?;
    tree.validate_against(graph)?;
    Ok((tree, run.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        parent: Option<NodeId>,
        children: BTreeSet<NodeId>,
        done: bool,
    }

    impl TreeState for Fake {
        fn tree_parent(&self) -> Option<NodeId> {
            self.parent
        }
        fn tree_children(&self) -> &BTreeSet<NodeId> {
            &self.children
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn node(parent: Option<usize>, children: &[usize], done: bool) -> Fake {
        Fake {
            parent: parent.map(NodeId::new),
            children: children.iter().map(|&c| NodeId::new(c)).collect(),
            done,
        }
    }

    #[test]
    fn consistent_states_assemble_into_a_tree() {
        let states = vec![
            node(None, &[1, 2], true),
            node(Some(0), &[], true),
            node(Some(0), &[3], true),
            node(Some(2), &[], true),
        ];
        let t = collect_tree(&states).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
    }

    #[test]
    fn unterminated_node_is_rejected() {
        let states = vec![node(None, &[1], true), node(Some(0), &[], false)];
        assert!(collect_tree(&states).is_err());
    }

    #[test]
    fn inconsistent_parent_child_is_rejected() {
        let states = vec![
            node(None, &[], true), // root does not list 1 as a child
            node(Some(0), &[], true),
        ];
        assert!(collect_tree(&states).is_err());
    }

    #[test]
    fn two_roots_are_rejected() {
        let states = vec![node(None, &[], true), node(None, &[], true)];
        assert!(collect_tree(&states).is_err());
    }

    #[test]
    fn empty_network_is_rejected() {
        let states: Vec<Fake> = Vec::new();
        assert!(collect_tree(&states).is_err());
    }
}
