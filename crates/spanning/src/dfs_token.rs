//! Token-traversal spanning-tree construction (Tarry's algorithm).
//!
//! A single token performs a traversal of the network: a node never forwards
//! the token twice over the same link and forwards it to its parent only when
//! no other link is available. The sender of the first token a node sees
//! becomes its parent. The token traverses every link exactly once in each
//! direction (`2m` token messages) and ends at the initiator, which then
//! broadcasts "done" down the tree. An extra `Child` notification per non-root
//! node lets parents learn their children (the MDegST algorithm needs both
//! directions of the tree relation).
//!
//! The resulting tree is a traversal tree — typically deep and of low degree,
//! a useful contrast to the flooding construction (shallow, higher degree) in
//! the initial-tree-sensitivity experiment (E7).

use crate::tree_state::{build_tree, TreeState};
use mdst_graph::{Graph, GraphError, NodeId, RootedTree};
use mdst_netsim::message::bits::message_bits;
use mdst_netsim::{Context, Metrics, NetMessage, Protocol, SimConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Messages of the token construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenMsg {
    /// The traversal token.
    Token {
        /// Network size, carried only for bit accounting.
        n: usize,
    },
    /// Child notification: the sender adopted the receiver as its parent.
    Child {
        /// Network size, carried only for bit accounting.
        n: usize,
    },
    /// Termination broadcast down the finished tree.
    Done {
        /// Network size, carried only for bit accounting.
        n: usize,
    },
}

impl NetMessage for TokenMsg {
    fn kind(&self) -> &'static str {
        match self {
            TokenMsg::Token { .. } => "Token",
            TokenMsg::Child { .. } => "Child",
            TokenMsg::Done { .. } => "Done",
        }
    }
    fn encoded_bits(&self) -> usize {
        let n = match self {
            TokenMsg::Token { n } | TokenMsg::Child { n } | TokenMsg::Done { n } => *n,
        };
        message_bits(n, 0)
    }
}

/// Per-node state of the token construction.
#[derive(Debug, Clone)]
pub struct DfsTokenSt {
    id: NodeId,
    root: NodeId,
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    /// Links over which this node has already forwarded the token.
    forwarded: BTreeSet<NodeId>,
    visited: bool,
    done: bool,
}

impl DfsTokenSt {
    /// Creates the node automaton for `id` with `root` as the traversal
    /// initiator.
    pub fn new(id: NodeId, root: NodeId) -> Self {
        DfsTokenSt {
            id,
            root,
            parent: None,
            children: BTreeSet::new(),
            forwarded: BTreeSet::new(),
            visited: false,
            done: false,
        }
    }

    fn is_root(&self) -> bool {
        self.id == self.root
    }

    /// Tarry's forwarding rule: any unused link except the parent link, the
    /// parent link only as a last resort.
    fn forward_token(&mut self, ctx: &mut impl Context<TokenMsg>) {
        let n = ctx.network_size();
        let next_non_parent = ctx
            .neighbors()
            .iter()
            .copied()
            .find(|v| !self.forwarded.contains(v) && Some(*v) != self.parent);
        let next = next_non_parent.or_else(|| self.parent.filter(|p| !self.forwarded.contains(p)));
        match next {
            Some(v) => {
                self.forwarded.insert(v);
                ctx.send(v, TokenMsg::Token { n });
            }
            None => {
                // No link left. By Tarry's theorem this only happens at the
                // initiator, once the traversal is complete.
                debug_assert!(
                    self.is_root(),
                    "token stranded at non-initiator {}",
                    self.id
                );
                self.done = true;
                let children: Vec<NodeId> = self.children.iter().copied().collect();
                for c in children {
                    ctx.send(c, TokenMsg::Done { n });
                }
            }
        }
    }
}

impl Protocol for DfsTokenSt {
    type Message = TokenMsg;

    fn on_start(&mut self, ctx: &mut impl Context<TokenMsg>) {
        if self.is_root() && !self.visited {
            self.visited = true;
            if ctx.neighbors().is_empty() {
                // Degenerate single-node network.
                self.done = true;
            } else {
                self.forward_token(ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: TokenMsg, ctx: &mut impl Context<TokenMsg>) {
        match msg {
            TokenMsg::Token { n } => {
                if !self.visited {
                    self.visited = true;
                    if !self.is_root() {
                        self.parent = Some(from);
                        ctx.send(from, TokenMsg::Child { n });
                    }
                }
                self.forward_token(ctx);
            }
            TokenMsg::Child { .. } => {
                self.children.insert(from);
            }
            TokenMsg::Done { n } => {
                if !self.done {
                    self.done = true;
                    let children: Vec<NodeId> = self.children.iter().copied().collect();
                    for c in children {
                        ctx.send(c, TokenMsg::Done { n });
                    }
                }
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.done
    }
}

impl TreeState for DfsTokenSt {
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

/// Runs the token construction on `graph` under `config` and returns the
/// resulting tree plus the metrics of the run.
pub fn build_token_tree(
    graph: &Arc<Graph>,
    root: NodeId,
    config: SimConfig,
) -> Result<(RootedTree, Metrics), GraphError> {
    build_tree(graph, root, config, DfsTokenSt::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_graph::generators;
    use mdst_netsim::{CancelToken, DelayModel, ExecConfig, ExecStatus, ExecutorKind};

    fn unit(graph: &Arc<Graph>, root: NodeId) -> (RootedTree, Metrics) {
        build_token_tree(graph, root, SimConfig::default()).unwrap()
    }

    #[test]
    fn traversal_builds_a_spanning_tree() {
        let g = Arc::new(generators::gnp_connected(25, 0.2, 8).unwrap());
        let (t, _) = unit(&g, NodeId(0));
        assert!(t.is_spanning_tree_of(&g));
        assert_eq!(t.root(), NodeId(0));
    }

    #[test]
    fn token_crosses_every_link_twice() {
        let g = Arc::new(generators::gnp_connected(20, 0.25, 5).unwrap());
        let (_, metrics) = unit(&g, NodeId(2));
        let m = g.edge_count() as u64;
        let n = g.node_count() as u64;
        assert_eq!(metrics.count_of("Token"), 2 * m);
        assert_eq!(metrics.count_of("Child"), n - 1);
        assert_eq!(metrics.count_of("Done"), n - 1);
    }

    #[test]
    fn traversal_tree_on_complete_graph_has_low_degree() {
        // Tarry's traversal on K_n follows a deep path-like structure, a useful
        // low-degree seed compared to flooding.
        let g = Arc::new(generators::complete(12).unwrap());
        let (t, _) = unit(&g, NodeId(0));
        assert!(t.is_spanning_tree_of(&g));
        assert!(
            t.max_degree() < 11,
            "token traversal should not produce the star (got degree {})",
            t.max_degree()
        );
    }

    #[test]
    fn works_under_random_delays() {
        let g = Arc::new(generators::grid(5, 5).unwrap());
        for seed in 0..4u64 {
            let cfg = SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 13,
                    seed,
                },
                ..Default::default()
            };
            let (t, _) = build_token_tree(&g, NodeId(12), cfg).unwrap();
            assert!(t.is_spanning_tree_of(&g), "seed {seed}");
        }
    }

    #[test]
    fn single_node_and_single_edge_networks() {
        let g1 = Arc::new(Graph::empty(1));
        let (t1, m1) = unit(&g1, NodeId(0));
        assert_eq!(t1.node_count(), 1);
        assert_eq!(m1.messages_total, 0);

        let g2 = Arc::new(generators::path(2).unwrap());
        let (t2, m2) = unit(&g2, NodeId(1));
        assert_eq!(t2.root(), NodeId(1));
        assert_eq!(t2.parent(NodeId(0)), Some(NodeId(1)));
        assert_eq!(m2.count_of("Token"), 2);
    }

    #[test]
    fn all_nodes_terminate() {
        let g = Arc::new(generators::petersen().unwrap());
        let run = ExecutorKind::Sim
            .run(
                &g,
                |id, _| DfsTokenSt::new(id, NodeId(3)),
                &ExecConfig::default(),
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.all_terminated());
    }
}
