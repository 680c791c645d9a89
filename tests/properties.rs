//! Property-based tests (proptest) over random connected graphs and random
//! initial trees: the invariants that must hold for *every* input, not just
//! the structured families.

use mdst::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs the improvement protocol from `initial` on the simulator.
fn improve(graph: &Arc<Graph>, initial: &RootedTree) -> RunReport {
    Pipeline::on(graph)
        .initial_tree(initial.clone())
        .run()
        .unwrap()
}

/// Strategy: a random connected graph described by (n, extra edges, seed).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..28, 0usize..40, any::<u64>()).prop_map(|(n, extra, seed)| {
        generators::random_connected(n, extra, seed).expect("valid parameters")
    })
}

/// Strategy: a graph plus a random spanning tree of it.
fn graph_with_tree() -> impl Strategy<Value = (Arc<Graph>, RootedTree)> {
    (connected_graph(), any::<u64>()).prop_map(|(graph, seed)| {
        let root = NodeId::new((seed % graph.node_count() as u64) as usize);
        let tree = algorithms::random_spanning_tree(&graph, root, seed).expect("connected");
        (Arc::new(graph), tree)
    })
}

/// One numbered token of the FIFO probe below.
#[derive(Debug, Clone)]
struct Numbered(u64);

impl NetMessage for Numbered {
    fn kind(&self) -> &'static str {
        "Numbered"
    }
    fn encoded_bits(&self) -> usize {
        64
    }
}

/// Node 0 sends a burst of numbered tokens to node 1 on a two-node path;
/// node 1 records the arrival order.
struct FifoProbe {
    id: NodeId,
    burst: u64,
    got: Vec<u64>,
}

impl Protocol for FifoProbe {
    type Message = Numbered;
    fn on_start(&mut self, ctx: &mut dyn Context<Numbered>) {
        if self.id == NodeId(0) {
            for i in 0..self.burst {
                ctx.send(NodeId(1), Numbered(i));
            }
        }
    }
    fn on_message(&mut self, _: NodeId, msg: Numbered, _: &mut dyn Context<Numbered>) {
        self.got.push(msg.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fifo_ordering_survives_random_delays_and_message_loss(
        (per_link, min, span, seed, loss_tenths)
            in (any::<bool>(), 1u64..4, 0u64..25, any::<u64>(), 0u32..10)
    ) {
        // Per-link FIFO is a stated property of the network model (§2); it
        // must hold under non-monotone random delays *and* under message
        // loss, where dropped sends must not consume FIFO slots that would
        // reorder or stall the surviving traffic.
        let delay = if per_link {
            DelayModel::PerLinkFixed { min, max: min + span, seed }
        } else {
            DelayModel::UniformRandom { min, max: min + span, seed }
        };
        let cfg = SimConfig {
            delay,
            faults: FaultPlan {
                loss: f64::from(loss_tenths) / 10.0,
                seed: seed ^ 0x5EED_F1F0,
                ..Default::default()
            },
            ..Default::default()
        };
        let burst = 60u64;
        let graph = Arc::new(generators::path(2).unwrap());
        let mut sim = Simulator::new(&graph, cfg, |id, _| FifoProbe {
            id,
            burst,
            got: Vec::new(),
        })
        .unwrap();
        sim.run().unwrap();
        let got = &sim.node(NodeId(1)).got;
        prop_assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "per-link FIFO violated: {got:?}"
        );
        // Loss accounting: every token is either delivered or counted dropped.
        prop_assert_eq!(got.len() as u64 + sim.metrics().dropped_messages, burst);
        if loss_tenths == 0 {
            prop_assert_eq!(got.len() as u64, burst);
        }
    }

    #[test]
    fn generators_produce_connected_graphs((graph, _) in graph_with_tree()) {
        prop_assert!(algorithms::is_connected(&graph));
        prop_assert!(graph.edge_count() >= graph.node_count() - 1);
        prop_assert_eq!(graph.degree_sum(), 2 * graph.edge_count());
    }

    #[test]
    fn distributed_improvement_preserves_spanning_and_never_worsens(
        (graph, initial) in graph_with_tree()
    ) {
        let run = improve(&graph, &initial);
        prop_assert!(run.tree().is_spanning_tree_of(&graph));
        prop_assert!(run.tree().max_degree() <= initial.max_degree());
        prop_assert!(run.tree().max_degree() >= degree_lower_bound(&graph));
        // Termination certificate: the targeted max-degree node is blocked.
        prop_assert!(verify_termination_certificate(&graph, run.tree()));
        // Rounds bookkeeping: one exchange per round except the last.
        prop_assert_eq!(run.improvements + 1, run.rounds);
    }

    #[test]
    fn message_and_time_complexity_match_the_papers_bounds(
        (graph, initial) in graph_with_tree()
    ) {
        let run = improve(&graph, &initial);
        let n = graph.node_count() as u64;
        let m = graph.edge_count() as u64;
        let rounds = run.rounds as u64;
        // Per §4.2 a round costs at most 2m + O(n) messages and O(n) time; the
        // constants below are generous but finite, which is what the
        // asymptotic claim needs.
        prop_assert!(run.improvement_metrics.messages_total <= rounds * (4 * m + 6 * n) + n);
        prop_assert!(run.improvement_metrics.causal_time <= rounds * 8 * n + 8);
        // O(log n) bits per message: tag + at most five identity-sized fields.
        let id_bits = (usize::BITS - (graph.node_count() - 1).max(1).leading_zeros()) as u64;
        prop_assert!(run.improvement_metrics.bits_max <= 4 + 5 * id_bits.max(1));
    }

    #[test]
    fn distributed_and_sequential_mirror_agree((graph, initial) in graph_with_tree()) {
        let run = improve(&graph, &initial);
        let mirror = paper_local_search(&graph, &initial).unwrap();
        prop_assert_eq!(run.tree().max_degree(), mirror.tree.max_degree());
        prop_assert_eq!(run.improvements as usize, mirror.improvements);
    }

    #[test]
    fn sequential_algorithms_respect_the_exact_optimum(
        (n, extra, seed) in (4usize..11, 0usize..12, any::<u64>())
    ) {
        let graph = Arc::new(generators::random_connected(n, extra, seed).unwrap());
        let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
        let optimum = exact_min_degree(&graph).unwrap();
        let paper = paper_local_search(&graph, &initial).unwrap();
        let fr = furer_raghavachari(&graph, &initial, true).unwrap();
        prop_assert!(paper.tree.max_degree() >= optimum);
        prop_assert!(fr.tree.max_degree() >= optimum);
        prop_assert!(paper.tree.max_degree() <= initial.max_degree());
        prop_assert!(fr.tree.max_degree() <= initial.max_degree());
        prop_assert!(optimum >= degree_lower_bound(&graph));
    }

    #[test]
    fn exchange_preserves_tree_invariants((graph, mut tree) in graph_with_tree()) {
        // Exercise RootedTree::exchange directly with an arbitrary admissible
        // move: pick any non-tree edge and any vertex on its tree path.
        let non_tree: Vec<(NodeId, NodeId)> = graph
            .edges()
            .filter(|&(u, v)| !tree.has_edge(u, v))
            .collect();
        if let Some(&(u, v)) = non_tree.first() {
            let path = tree.path_between(u, v);
            if path.len() >= 3 {
                let w = path[1];
                let other = path[0];
                let (cut_parent, cut_child) = if tree.parent(other) == Some(w) {
                    (w, other)
                } else {
                    (other, w)
                };
                tree.exchange(cut_parent, cut_child, u, v).unwrap();
                prop_assert!(tree.is_spanning_tree_of(&graph));
                prop_assert!(tree.has_edge(u, v));
            }
        }
    }

    #[test]
    fn spanning_constructions_are_valid_on_random_graphs(
        (graph, _) in graph_with_tree(), which in 0usize..6
    ) {
        let kind = InitialTreeKind::all(11)[which];
        let (tree, _) = build_initial_tree(&graph, NodeId(0), kind).unwrap();
        prop_assert!(tree.is_spanning_tree_of(&graph));
        prop_assert_eq!(tree.root(), NodeId(0));
    }
}
