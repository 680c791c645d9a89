//! The per-node automaton of the distributed MDegST protocol.
//!
//! See the module-level documentation of [`crate::distributed`] for the round
//! structure. The automaton is a plain state machine over the message alphabet
//! of [`super::messages`]; it never inspects global state, never uses timers
//! and addresses only direct neighbours, exactly as the paper's model (§2)
//! requires.

use super::messages::{Candidate, FragmentId, MdstMsg};
use mdst_graph::{NodeId, RootedTree};
use mdst_netsim::{Context, Protocol};
use mdst_spanning::TreeState;
use std::collections::BTreeSet;

/// Per-node state of the distributed MDegST improvement.
///
/// `Hash` covers the *entire* state, so two nodes hash equally exactly when
/// they behave identically on every future message — the property the
/// `mdst-check` model checker's state fingerprinting relies on for sound
/// revisit pruning.
#[derive(Debug, Clone, Hash)]
pub struct MdstNode {
    id: NodeId,
    // ----- spanning-tree structure (mutated by MoveRoot and Update) -----
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    is_initial_root: bool,
    done: bool,

    // ----- statistics -----
    improvements_made: u32,
    rounds_coordinated: u32,

    // ----- round-scoped state -----
    /// Highest round number this node has joined.
    round: u32,
    /// Maximum tree degree `k` of the current round (learnt from Cut/BFS).
    round_k: usize,

    // The three pending sets below are sorted `Vec`s, refilled in place each
    // round (`clear` + `extend` keeps their capacity) and removed from by
    // binary search.

    // SearchDegree convergecast.
    search_pending: Vec<NodeId>,
    search_best: (usize, NodeId),
    search_via: Option<NodeId>,

    // Coordinator (node `p`) state.
    coordinator: bool,
    choose_pending: Vec<NodeId>,

    // Fragment BFS state.
    fragment: Option<FragmentId>,
    bfs_expected: Vec<NodeId>,
    bfs_reported: bool,
    pending_cousins: Vec<(NodeId, FragmentId)>,

    // Best candidate of this node's subtree (or, at the coordinator, across
    // all fragments) and the child it came through (`None` = own candidate).
    best_candidate: Option<Candidate>,
    best_via_child: Option<NodeId>,

    // Update routing.
    update_sender: Option<NodeId>,
}

impl MdstNode {
    /// Creates the automaton for node `id` with its local view of the initial
    /// spanning tree (parent and children). The node whose `parent` is `None`
    /// is the initial root and will initiate the first round.
    pub fn new(id: NodeId, parent: Option<NodeId>, children: BTreeSet<NodeId>) -> Self {
        MdstNode {
            id,
            is_initial_root: parent.is_none(),
            parent,
            children,
            done: false,
            improvements_made: 0,
            rounds_coordinated: 0,
            round: 0,
            round_k: 0,
            search_pending: Vec::new(),
            search_best: (0, id),
            search_via: None,
            coordinator: false,
            choose_pending: Vec::new(),
            fragment: None,
            bfs_expected: Vec::new(),
            bfs_reported: false,
            pending_cousins: Vec::new(),
            best_candidate: None,
            best_via_child: None,
            update_sender: None,
        }
    }

    /// Builds one automaton per node from a centralized view of the initial
    /// tree (the usual way the driver seeds a run).
    pub fn from_tree(tree: &RootedTree) -> Vec<MdstNode> {
        (0..tree.node_count())
            .map(|u| {
                let id = NodeId::new(u);
                MdstNode::new(
                    id,
                    tree.parent(id),
                    tree.children(id).iter().copied().collect(),
                )
            })
            .collect()
    }

    /// Current parent in the (possibly already improved) tree.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Current children in the tree.
    pub fn children(&self) -> &BTreeSet<NodeId> {
        &self.children
    }

    /// Current tree degree of this node.
    pub fn degree(&self) -> usize {
        self.children.len() + usize::from(self.parent.is_some())
    }

    /// Number of edge exchanges this node performed while acting as the
    /// coordinator.
    pub fn improvements_made(&self) -> u32 {
        self.improvements_made
    }

    /// Number of rounds this node coordinated (was the maximum-degree target).
    pub fn rounds_coordinated(&self) -> u32 {
        self.rounds_coordinated
    }

    /// Highest round number this node has participated in.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Whether this node has received the final Stop.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The invariant-relevant slice of this node's state, consumed by
    /// [`crate::verify::check_safety_invariants`] and the `mdst-check`
    /// model checker.
    pub fn snapshot(&self) -> crate::verify::NodeSnapshot {
        crate::verify::NodeSnapshot {
            parent: self.parent,
            round: self.round,
            fragment: self.fragment,
            coordinator: self.coordinator,
            done: self.done,
        }
    }

    // ------------------------------------------------------------------
    // Round orchestration (current root / coordinator side).
    // ------------------------------------------------------------------

    fn reset_round_state(&mut self) {
        self.search_pending.clear();
        self.search_best = (self.degree(), self.id);
        self.search_via = None;
        self.coordinator = false;
        self.choose_pending.clear();
        self.fragment = None;
        self.bfs_expected.clear();
        self.bfs_reported = false;
        self.pending_cousins.clear();
        self.best_candidate = None;
        self.best_via_child = None;
        self.update_sender = None;
    }

    /// Starts a new round at the current root: SearchDegree broadcast.
    fn start_round(&mut self, ctx: &mut impl Context<MdstMsg>) {
        debug_assert!(self.parent.is_none(), "only the root starts rounds");
        self.round += 1;
        self.reset_round_state();
        self.search_pending.extend(&self.children);
        if self.search_pending.is_empty() {
            self.finalize_search(ctx);
            return;
        }
        let n = ctx.network_size();
        for &c in &self.children {
            ctx.send(
                c,
                MdstMsg::SearchInit {
                    round: self.round,
                    n,
                },
            );
        }
    }

    /// The root has the global `(k, p)`; either stop, become the coordinator,
    /// or move the root toward `p` (§3.2.2).
    fn finalize_search(&mut self, ctx: &mut impl Context<MdstMsg>) {
        let (k, p) = self.search_best;
        if k <= 2 {
            // The tree is a chain (or trivially small): optimal, stop.
            self.broadcast_stop(ctx);
            return;
        }
        if p == self.id {
            self.become_coordinator(k, ctx);
        } else {
            let via = self
                .search_via
                .expect("the maximum-degree node lies in some child subtree");
            // Path reversal, first step: the via child becomes the parent.
            self.parent = Some(via);
            self.children.remove(&via);
            let n = ctx.network_size();
            ctx.send(
                via,
                MdstMsg::MoveRoot {
                    round: self.round,
                    k,
                    target: p,
                    n,
                },
            );
        }
    }

    /// `p` starts the Cut/BFS phase of the round (§3.2.3).
    fn become_coordinator(&mut self, k: usize, ctx: &mut impl Context<MdstMsg>) {
        debug_assert!(self.parent.is_none());
        debug_assert_eq!(self.degree(), k, "the coordinator has the maximum degree");
        self.coordinator = true;
        self.rounds_coordinated += 1;
        self.round_k = k;
        self.choose_pending.clear();
        self.choose_pending.extend(&self.children);
        self.best_candidate = None;
        self.best_via_child = None;
        let n = ctx.network_size();
        for &c in &self.children {
            ctx.send(
                c,
                MdstMsg::Cut {
                    round: self.round,
                    k,
                    root: self.id,
                    n,
                },
            );
        }
    }

    /// The coordinator has every fragment's report: either exchange or stop
    /// (§3.2.5 Choose).
    fn choose(&mut self, ctx: &mut impl Context<MdstMsg>) {
        match self.best_candidate {
            None => {
                // No admissible outgoing edge anywhere: the maximum degree of
                // the tree cannot be (locally) improved — terminate.
                self.broadcast_stop(ctx);
            }
            Some(candidate) => {
                let via = self
                    .best_via_child
                    .expect("the winning candidate was reported by a child fragment");
                // "The child which sends the best outgoing edge will be
                // suppressed from the children set."
                self.children.remove(&via);
                self.improvements_made += 1;
                let n = ctx.network_size();
                ctx.send(
                    via,
                    MdstMsg::Update {
                        round: self.round,
                        u: candidate.u,
                        v: candidate.v,
                        n,
                    },
                );
            }
        }
    }

    fn broadcast_stop(&mut self, ctx: &mut impl Context<MdstMsg>) {
        self.done = true;
        self.coordinator = false;
        let n = ctx.network_size();
        for &c in &self.children {
            ctx.send(c, MdstMsg::Stop { n });
        }
    }

    // ------------------------------------------------------------------
    // SearchDegree (§3.2.1).
    // ------------------------------------------------------------------

    /// `(degree, identity)` ordering: larger degree wins, ties go to the
    /// smaller identity.
    fn search_better(candidate: (usize, NodeId), current: (usize, NodeId)) -> bool {
        candidate.0 > current.0 || (candidate.0 == current.0 && candidate.1 < current.1)
    }

    fn on_search_init(&mut self, round: u32, ctx: &mut impl Context<MdstMsg>) {
        self.round = round;
        self.reset_round_state();
        self.search_pending.extend(&self.children);
        let n = ctx.network_size();
        if self.search_pending.is_empty() {
            let parent = self.parent.expect("a non-root node received SearchInit");
            ctx.send(
                parent,
                MdstMsg::DegreeReport {
                    round,
                    best_deg: self.search_best.0,
                    best_id: self.search_best.1,
                    n,
                },
            );
            return;
        }
        for &c in &self.children {
            ctx.send(c, MdstMsg::SearchInit { round, n });
        }
    }

    fn on_degree_report(
        &mut self,
        from: NodeId,
        best_deg: usize,
        best_id: NodeId,
        ctx: &mut impl Context<MdstMsg>,
    ) {
        if Self::search_better((best_deg, best_id), self.search_best) {
            self.search_best = (best_deg, best_id);
            self.search_via = Some(from);
        }
        remove_sorted(&mut self.search_pending, from);
        if !self.search_pending.is_empty() {
            return;
        }
        match self.parent {
            Some(parent) => {
                let n = ctx.network_size();
                ctx.send(
                    parent,
                    MdstMsg::DegreeReport {
                        round: self.round,
                        best_deg: self.search_best.0,
                        best_id: self.search_best.1,
                        n,
                    },
                );
            }
            None => self.finalize_search(ctx),
        }
    }

    fn on_move_root(
        &mut self,
        from: NodeId,
        k: usize,
        target: NodeId,
        ctx: &mut impl Context<MdstMsg>,
    ) {
        // Path reversal: the old parent becomes a child.
        self.children.insert(from);
        if target == self.id {
            self.parent = None;
            self.become_coordinator(k, ctx);
            return;
        }
        let via = self
            .search_via
            .expect("the move-root path follows the stored via pointers");
        self.parent = Some(via);
        self.children.remove(&via);
        let n = ctx.network_size();
        ctx.send(
            via,
            MdstMsg::MoveRoot {
                round: self.round,
                k,
                target,
                n,
            },
        );
    }

    // ------------------------------------------------------------------
    // Fragments and the BFS wave (§3.2.3 / §3.2.4).
    // ------------------------------------------------------------------

    fn enter_fragment(&mut self, k: usize, frag: FragmentId, ctx: &mut impl Context<MdstMsg>) {
        self.round_k = k;
        self.fragment = Some(frag);
        self.bfs_reported = false;
        self.best_candidate = None;
        self.best_via_child = None;
        let parent = self.parent;
        self.bfs_expected.clear();
        self.bfs_expected.extend(
            ctx.neighbors()
                .iter()
                .copied()
                .filter(|&v| Some(v) != parent),
        );
        let n = ctx.network_size();
        for &v in &self.bfs_expected {
            ctx.send(
                v,
                MdstMsg::Bfs {
                    round: self.round,
                    k,
                    root: frag.0,
                    frag: frag.1,
                    n,
                },
            );
        }
        // Cousin waves that arrived before we knew our fragment identity
        // ("the answer has to be delayed", §3.2.4 first case).
        let queued = std::mem::take(&mut self.pending_cousins);
        for (sender, theirs) in queued {
            self.handle_cousin(sender, theirs, ctx);
        }
        self.maybe_complete_bfs(ctx);
    }

    fn handle_cousin(
        &mut self,
        sender: NodeId,
        theirs: FragmentId,
        ctx: &mut impl Context<MdstMsg>,
    ) {
        let mine = self
            .fragment
            .expect("cousin waves are only handled once the fragment is known");
        match theirs.cmp(&mine) {
            std::cmp::Ordering::Less => {
                // The sender's fragment has the smaller identity: it collects
                // the outgoing edge, we answer with our degree (§3.2.4 second
                // case) — and its wave doubles as its answer to ours.
                let n = ctx.network_size();
                ctx.send(
                    sender,
                    MdstMsg::BfsReply {
                        round: self.round,
                        responder_degree: self.degree(),
                        n,
                    },
                );
                remove_sorted(&mut self.bfs_expected, sender);
                self.maybe_complete_bfs(ctx);
            }
            std::cmp::Ordering::Equal => {
                // Internal (same-fragment) non-tree edge: nothing to report,
                // the crossing wave is the answer on both sides.
                remove_sorted(&mut self.bfs_expected, sender);
                self.maybe_complete_bfs(ctx);
            }
            std::cmp::Ordering::Greater => {
                // Our fragment is smaller: ignore; the sender will answer the
                // wave we sent (or already answered it) with a BFSReply
                // (§3.2.4 third case).
            }
        }
    }

    fn on_bfs_reply(
        &mut self,
        from: NodeId,
        responder_degree: usize,
        ctx: &mut impl Context<MdstMsg>,
    ) {
        // The responder sits in another fragment (or is the coordinator). The
        // edge is admissible only if both endpoints could absorb one more tree
        // edge without reaching degree k − 1 (§3.2.4: degree-(k−1) nodes "would
        // not improve the maximum degree").
        let my_degree = self.degree();
        if my_degree + 2 <= self.round_k && responder_degree + 2 <= self.round_k {
            let candidate = Candidate {
                u: self.id,
                v: from,
                deg_u: my_degree,
                deg_v: responder_degree,
            };
            if Candidate::merge_into(&mut self.best_candidate, candidate) {
                self.best_via_child = None;
            }
        }
        remove_sorted(&mut self.bfs_expected, from);
        self.maybe_complete_bfs(ctx);
    }

    fn on_bfs_back(
        &mut self,
        from: NodeId,
        candidate: Option<Candidate>,
        ctx: &mut impl Context<MdstMsg>,
    ) {
        if let Some(candidate) = candidate {
            if Candidate::merge_into(&mut self.best_candidate, candidate) {
                self.best_via_child = Some(from);
            }
        }
        if self.coordinator {
            remove_sorted(&mut self.choose_pending, from);
            if self.choose_pending.is_empty() {
                self.choose(ctx);
            }
        } else {
            remove_sorted(&mut self.bfs_expected, from);
            self.maybe_complete_bfs(ctx);
        }
    }

    fn maybe_complete_bfs(&mut self, ctx: &mut impl Context<MdstMsg>) {
        if self.bfs_reported || self.fragment.is_none() || !self.bfs_expected.is_empty() {
            return;
        }
        self.bfs_reported = true;
        let parent = self
            .parent
            .expect("every fragment member has a parent (the coordinator for fragment roots)");
        let n = ctx.network_size();
        ctx.send(
            parent,
            MdstMsg::BfsBack {
                round: self.round,
                candidate: self.best_candidate,
                n,
            },
        );
    }

    // ------------------------------------------------------------------
    // The exchange (§3.2.5).
    // ------------------------------------------------------------------

    fn on_update(&mut self, from: NodeId, u: NodeId, v: NodeId, ctx: &mut impl Context<MdstMsg>) {
        self.update_sender = Some(from);
        let from_coordinator = self.fragment.map(|f| f.0) == Some(from);
        if !from_coordinator {
            // The tree edge to the old parent is reversed, not deleted.
            self.children.insert(from);
        }
        let n = ctx.network_size();
        if u == self.id {
            // This node owns the chosen outgoing edge: attach across it.
            self.parent = Some(v);
            ctx.send(
                v,
                MdstMsg::Child {
                    round: self.round,
                    n,
                },
            );
        } else {
            let via = self
                .best_via_child
                .expect("the update follows the via pointers toward the owner");
            self.parent = Some(via);
            self.children.remove(&via);
            ctx.send(
                via,
                MdstMsg::Update {
                    round: self.round,
                    u,
                    v,
                    n,
                },
            );
        }
    }

    fn on_child(&mut self, from: NodeId, ctx: &mut impl Context<MdstMsg>) {
        self.children.insert(from);
        let n = ctx.network_size();
        ctx.send(
            from,
            MdstMsg::ChildAck {
                round: self.round,
                n,
            },
        );
    }

    fn on_child_ack(&mut self, ctx: &mut impl Context<MdstMsg>) {
        let back = self
            .update_sender
            .expect("ChildAck only reaches the node that sent Child");
        let n = ctx.network_size();
        ctx.send(
            back,
            MdstMsg::UpdateDone {
                round: self.round,
                n,
            },
        );
    }

    fn on_update_done(&mut self, ctx: &mut impl Context<MdstMsg>) {
        if self.coordinator {
            // The exchange is installed everywhere: run the next round.
            self.start_round(ctx);
            return;
        }
        let back = self
            .update_sender
            .expect("UpdateDone retraces the Update path");
        let n = ctx.network_size();
        ctx.send(
            back,
            MdstMsg::UpdateDone {
                round: self.round,
                n,
            },
        );
    }

    fn on_stop(&mut self, ctx: &mut impl Context<MdstMsg>) {
        if self.done {
            return;
        }
        self.done = true;
        let n = ctx.network_size();
        for &c in &self.children {
            ctx.send(c, MdstMsg::Stop { n });
        }
    }
}

/// Removes `x` from a sorted vector, if present.
fn remove_sorted(set: &mut Vec<NodeId>, x: NodeId) {
    if let Ok(i) = set.binary_search(&x) {
        set.remove(i);
    }
}

impl Protocol for MdstNode {
    type Message = MdstMsg;

    fn on_start(&mut self, ctx: &mut impl Context<MdstMsg>) {
        if self.is_initial_root && self.round == 0 && !self.done {
            self.start_round(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: MdstMsg, ctx: &mut impl Context<MdstMsg>) {
        if self.done {
            return;
        }
        if let Some(round) = msg.round() {
            if round < self.round {
                // Late message from an already finished round (e.g. an ignored
                // cousin wave still in flight): drop it.
                return;
            }
        }
        match msg {
            MdstMsg::SearchInit { round, .. } => self.on_search_init(round, ctx),
            MdstMsg::DegreeReport {
                best_deg, best_id, ..
            } => self.on_degree_report(from, best_deg, best_id, ctx),
            MdstMsg::MoveRoot { k, target, .. } => self.on_move_root(from, k, target, ctx),
            MdstMsg::Cut { k, root, .. } => self.enter_fragment(k, (root, self.id), ctx),
            MdstMsg::Bfs { k, root, frag, .. } => {
                self.round_k = k;
                if self.coordinator {
                    // The coordinator answers cousin waves with its own degree
                    // (k), which the admissibility filter then rejects.
                    let n = ctx.network_size();
                    ctx.send(
                        from,
                        MdstMsg::BfsReply {
                            round: self.round,
                            responder_degree: self.round_k,
                            n,
                        },
                    );
                } else if Some(from) == self.parent && self.fragment.is_none() {
                    self.enter_fragment(k, (root, frag), ctx);
                } else if self.fragment.is_none() {
                    self.pending_cousins.push((from, (root, frag)));
                } else {
                    self.handle_cousin(from, (root, frag), ctx);
                }
            }
            MdstMsg::BfsReply {
                responder_degree, ..
            } => self.on_bfs_reply(from, responder_degree, ctx),
            MdstMsg::BfsBack { candidate, .. } => self.on_bfs_back(from, candidate, ctx),
            MdstMsg::Update { u, v, .. } => self.on_update(from, u, v, ctx),
            MdstMsg::Child { .. } => self.on_child(from, ctx),
            MdstMsg::ChildAck { .. } => self.on_child_ack(ctx),
            MdstMsg::UpdateDone { .. } => self.on_update_done(ctx),
            MdstMsg::Stop { .. } => self.on_stop(ctx),
        }
    }

    fn is_terminated(&self) -> bool {
        self.done
    }
}

impl TreeState for MdstNode {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_graph::{algorithms, generators};
    use mdst_netsim::{CancelToken, ExecConfig, ExecRun, ExecStatus, ExecutorKind, SimConfig};
    use mdst_spanning::collect_tree;

    /// Runs the improvement protocol on the simulator under `config`,
    /// starting from `initial`, and checks that it quiesced.
    fn sim_run(
        graph: &std::sync::Arc<mdst_graph::Graph>,
        initial: &RootedTree,
        config: SimConfig,
    ) -> ExecRun<MdstNode> {
        let nodes = MdstNode::from_tree(initial);
        let config = ExecConfig {
            sim: config,
            ..Default::default()
        };
        let run = ExecutorKind::Sim
            .run(
                graph,
                |id, _| nodes[id.index()].clone(),
                &config,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(run.status, ExecStatus::Quiesced, "protocol quiesces");
        run
    }

    /// Runs the improvement protocol on `graph` starting from `initial` and
    /// returns the final tree plus the run.
    fn run(
        graph: &std::sync::Arc<mdst_graph::Graph>,
        initial: &RootedTree,
    ) -> (RootedTree, ExecRun<MdstNode>) {
        let run = sim_run(graph, initial, SimConfig::default());
        assert!(run.all_terminated(), "every node must receive Stop");
        let tree = collect_tree(&run.nodes).expect("consistent final tree");
        tree.validate_against(graph)
            .expect("final tree spans the graph");
        (tree, run)
    }

    #[test]
    fn star_seed_on_star_plus_path_reaches_degree_two() {
        // The canonical worst case: the graph is a star plus a path through the
        // leaves; the initial tree is the star (degree n − 1); the optimum is a
        // Hamiltonian path of degree 2.
        let g = std::sync::Arc::new(generators::star_with_leaf_edges(8).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
        assert_eq!(initial.max_degree(), 7);
        let (final_tree, _) = run(&g, &initial);
        assert!(final_tree.max_degree() <= 3);
        assert!(final_tree.is_spanning_tree_of(&g));
    }

    #[test]
    fn single_node_and_single_edge_terminate_immediately() {
        let g1 = std::sync::Arc::new(mdst_graph::Graph::empty(1));
        let t1 = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        let (f1, sim1) = run(&g1, &t1);
        assert_eq!(f1.node_count(), 1);
        assert_eq!(sim1.metrics.messages_total, 0);

        let g2 = std::sync::Arc::new(generators::path(2).unwrap());
        let t2 = algorithms::bfs_tree(&g2, NodeId(0)).unwrap();
        let (f2, _) = run(&g2, &t2);
        assert_eq!(f2.max_degree(), 1);
    }

    #[test]
    fn already_optimal_chain_stops_after_one_search() {
        let g = std::sync::Arc::new(generators::cycle(8).unwrap());
        let initial = algorithms::dfs_tree(&g, NodeId(0)).unwrap();
        assert_eq!(initial.max_degree(), 2);
        let (final_tree, sim) = run(&g, &initial);
        assert_eq!(final_tree.max_degree(), 2);
        // One SearchDegree convergecast plus the Stop broadcast, nothing else.
        assert_eq!(sim.metrics.count_of("Cut"), 0);
        assert_eq!(sim.metrics.count_of("Update"), 0);
        assert_eq!(sim.metrics.count_of("Stop"), 7);
    }

    #[test]
    fn degree_never_increases_and_improves_on_complete_graph() {
        let g = std::sync::Arc::new(generators::complete(10).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
        assert_eq!(initial.max_degree(), 9);
        let (final_tree, sim) = run(&g, &initial);
        assert!(final_tree.max_degree() < initial.max_degree());
        assert!(
            final_tree.max_degree() <= 3,
            "complete graphs admit a Hamiltonian path"
        );
        let improvements: u32 = sim.nodes.iter().map(|p| p.improvements_made()).sum();
        assert_eq!(
            improvements as usize,
            sim.nodes.iter().map(|p| p.round()).max().unwrap() as usize - 1,
            "every round except the last performs exactly one exchange"
        );
    }

    #[test]
    fn random_graphs_yield_valid_locally_improved_trees() {
        for seed in 0..6u64 {
            let g = std::sync::Arc::new(generators::gnp_connected(26, 0.15, seed).unwrap());
            let initial = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
            let (final_tree, _) = run(&g, &initial);
            assert!(
                final_tree.max_degree() <= initial.max_degree(),
                "seed {seed}"
            );
            assert!(final_tree.is_spanning_tree_of(&g), "seed {seed}");
        }
    }

    #[test]
    fn works_under_adversarial_delays() {
        use mdst_netsim::DelayModel;
        let g = std::sync::Arc::new(generators::gnp_connected(20, 0.2, 3).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&g, NodeId(0)).unwrap();
        let unit_final = {
            let (t, _) = run(&g, &initial);
            t
        };
        for seed in 0..4u64 {
            let cfg = SimConfig {
                delay: DelayModel::PerLinkFixed {
                    min: 1,
                    max: 23,
                    seed,
                },
                ..Default::default()
            };
            let run = sim_run(&g, &initial, cfg);
            assert!(run.all_terminated());
            let tree = collect_tree(&run.nodes).unwrap();
            tree.validate_against(&g).unwrap();
            // The protocol is deterministic in its decisions (they depend only
            // on tree structure, not timing), so the final degree matches the
            // unit-delay run.
            assert_eq!(tree.max_degree(), unit_final.max_degree(), "seed {seed}");
        }
    }
}
