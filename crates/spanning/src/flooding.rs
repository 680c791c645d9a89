//! Flooding (PIF) spanning-tree construction.
//!
//! The root launches a probe wave; every node adopts the sender of the first
//! probe it sees as its parent and echoes back once all of its other links
//! have answered (with either an echo — a child — or a crossing probe — a
//! non-tree link). When the feedback reaches the root the tree is complete and
//! a final "done" broadcast gives every node the termination-by-process
//! knowledge the MDegST algorithm requires.
//!
//! Message cost: every link carries exactly two wave messages (probe/probe on
//! non-tree links, probe/echo on tree links) plus one done message per tree
//! edge — `2m + (n − 1)` in total. Under unit delays the tree is a BFS tree of
//! the root; under arbitrary delays it is some spanning tree, which is all the
//! MDegST algorithm needs.

use crate::tree_state::{build_tree, TreeState};
use mdst_graph::{Graph, GraphError, NodeId, RootedTree};
use mdst_netsim::message::bits::message_bits;
use mdst_netsim::{Context, Metrics, NetMessage, Protocol, SimConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Messages of the flooding construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloodMsg {
    /// Wave propagation.
    Probe {
        /// Network size, carried only for bit accounting.
        n: usize,
    },
    /// Feedback: the sender is a child of the receiver and its subtree is
    /// complete.
    Echo {
        /// Network size, carried only for bit accounting.
        n: usize,
    },
    /// Termination broadcast down the finished tree.
    Done {
        /// Network size, carried only for bit accounting.
        n: usize,
    },
}

impl NetMessage for FloodMsg {
    fn kind(&self) -> &'static str {
        match self {
            FloodMsg::Probe { .. } => "Probe",
            FloodMsg::Echo { .. } => "Echo",
            FloodMsg::Done { .. } => "Done",
        }
    }
    fn encoded_bits(&self) -> usize {
        // A probe/echo/done carries no payload beyond its tag; the root
        // identity is implicit in the wave.
        let n = match self {
            FloodMsg::Probe { n } | FloodMsg::Echo { n } | FloodMsg::Done { n } => *n,
        };
        message_bits(n, 0)
    }
}

/// Per-node state of the flooding construction.
#[derive(Debug, Clone)]
pub struct FloodingSt {
    id: NodeId,
    root: NodeId,
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    /// Neighbours whose wave answer (echo or crossing probe) is still missing.
    expected: BTreeSet<NodeId>,
    /// Whether this node has joined the wave (received its first probe or is
    /// the root and has started).
    in_wave: bool,
    /// Whether the feedback of this node's subtree has been sent upward.
    reported: bool,
    done: bool,
}

impl FloodingSt {
    /// Creates the node automaton for `id`, with `root` as the designated
    /// initiator of the construction.
    pub fn new(id: NodeId, root: NodeId) -> Self {
        FloodingSt {
            id,
            root,
            parent: None,
            children: BTreeSet::new(),
            expected: BTreeSet::new(),
            in_wave: false,
            reported: false,
            done: false,
        }
    }

    fn is_root(&self) -> bool {
        self.id == self.root
    }

    fn join_wave(&mut self, parent: Option<NodeId>, ctx: &mut impl Context<FloodMsg>) {
        self.in_wave = true;
        self.parent = parent;
        self.expected = ctx
            .neighbors()
            .iter()
            .copied()
            .filter(|&v| Some(v) != parent)
            .collect();
        let n = ctx.network_size();
        let targets: Vec<NodeId> = self.expected.iter().copied().collect();
        for v in targets {
            ctx.send(v, FloodMsg::Probe { n });
        }
        self.maybe_report(ctx);
    }

    fn maybe_report(&mut self, ctx: &mut impl Context<FloodMsg>) {
        if !self.in_wave || self.reported || !self.expected.is_empty() {
            return;
        }
        self.reported = true;
        let n = ctx.network_size();
        match self.parent {
            Some(p) => ctx.send(p, FloodMsg::Echo { n }),
            None => {
                // Root: the whole tree is built; tell everyone.
                self.done = true;
                let children: Vec<NodeId> = self.children.iter().copied().collect();
                for c in children {
                    ctx.send(c, FloodMsg::Done { n });
                }
            }
        }
    }
}

impl Protocol for FloodingSt {
    type Message = FloodMsg;

    fn on_start(&mut self, ctx: &mut impl Context<FloodMsg>) {
        if self.is_root() && !self.in_wave {
            self.join_wave(None, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: FloodMsg, ctx: &mut impl Context<FloodMsg>) {
        match msg {
            FloodMsg::Probe { .. } => {
                if !self.in_wave && !self.is_root() {
                    self.join_wave(Some(from), ctx);
                } else {
                    // A crossing probe on a non-tree link: counts as `from`'s
                    // answer to our own probe on that link.
                    self.expected.remove(&from);
                    self.maybe_report(ctx);
                }
            }
            FloodMsg::Echo { .. } => {
                self.children.insert(from);
                self.expected.remove(&from);
                self.maybe_report(ctx);
            }
            FloodMsg::Done { n } => {
                if !self.done {
                    self.done = true;
                    let children: Vec<NodeId> = self.children.iter().copied().collect();
                    for c in children {
                        ctx.send(c, FloodMsg::Done { n });
                    }
                }
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.done
    }
}

impl TreeState for FloodingSt {
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

/// Runs the flooding construction on `graph` under `config` and returns the
/// resulting tree plus the metrics of the run.
pub fn build_flooding_tree(
    graph: &Arc<Graph>,
    root: NodeId,
    config: SimConfig,
) -> Result<(RootedTree, Metrics), GraphError> {
    build_tree(graph, root, config, FloodingSt::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_graph::generators;
    use mdst_netsim::{CancelToken, DelayModel, ExecConfig, ExecStatus, ExecutorKind, StartModel};

    fn unit(graph: &Arc<Graph>, root: NodeId) -> (RootedTree, Metrics) {
        build_flooding_tree(graph, root, SimConfig::default()).unwrap()
    }

    #[test]
    fn builds_bfs_tree_under_unit_delays() {
        let g = Arc::new(generators::grid(4, 5).unwrap());
        let (t, _) = unit(&g, NodeId(0));
        assert!(t.is_spanning_tree_of(&g));
        assert_eq!(t.root(), NodeId(0));
        // Unit delays make the wave a BFS wave, so depths equal BFS distances.
        let dist = mdst_graph::algorithms::bfs_distances(&g, NodeId(0));
        for u in g.nodes() {
            assert_eq!(t.depth(u), dist[u.index()].unwrap());
        }
    }

    #[test]
    fn message_count_is_2m_plus_tree_edges() {
        let g = Arc::new(generators::gnp_connected(30, 0.2, 11).unwrap());
        let (t, metrics) = unit(&g, NodeId(3));
        assert!(t.is_spanning_tree_of(&g));
        let m = g.edge_count() as u64;
        let n = g.node_count() as u64;
        assert_eq!(metrics.messages_total, 2 * m + (n - 1));
        assert_eq!(metrics.count_of("Done"), n - 1);
        assert_eq!(metrics.count_of("Probe") + metrics.count_of("Echo"), 2 * m);
    }

    #[test]
    fn every_node_terminates_by_process() {
        let g = Arc::new(generators::hypercube(4).unwrap());
        let run = ExecutorKind::Sim
            .run(
                &g,
                |id, _| FloodingSt::new(id, NodeId(5)),
                &ExecConfig::default(),
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.all_terminated());
    }

    #[test]
    fn works_under_adversarial_delays_and_staggered_starts() {
        let g = Arc::new(generators::gnp_connected(40, 0.1, 2).unwrap());
        for seed in 0..5u64 {
            let cfg = SimConfig {
                delay: DelayModel::PerLinkFixed {
                    min: 1,
                    max: 17,
                    seed,
                },
                start: StartModel::Staggered {
                    max_offset: 23,
                    seed,
                },
                ..Default::default()
            };
            let (t, _) = build_flooding_tree(&g, NodeId(7), cfg).unwrap();
            assert!(t.is_spanning_tree_of(&g), "seed {seed}");
            assert_eq!(t.root(), NodeId(7));
        }
    }

    #[test]
    fn single_node_network_terminates_immediately() {
        let g = Arc::new(Graph::empty(1));
        let (t, metrics) = unit(&g, NodeId(0));
        assert_eq!(t.node_count(), 1);
        assert_eq!(metrics.messages_total, 0);
    }

    #[test]
    fn star_root_produces_degree_n_minus_one_tree() {
        let g = Arc::new(generators::star(9).unwrap());
        let (t, _) = unit(&g, NodeId(0));
        assert_eq!(t.max_degree(), 8);
    }

    #[test]
    fn message_size_is_logarithmic() {
        let g = Arc::new(generators::complete(64).unwrap());
        let (_, metrics) = unit(&g, NodeId(0));
        // Tag only: 4 bits.
        assert!(metrics.bits_max <= 8);
    }

    #[test]
    fn rejects_out_of_range_root() {
        let g = Arc::new(generators::path(4).unwrap());
        assert!(build_flooding_tree(&g, NodeId(9), SimConfig::default()).is_err());
    }
}
