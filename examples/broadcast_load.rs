//! The motivation from the paper's introduction: broadcasting over a spanning
//! tree loads each node proportionally to its tree degree, so a minimum-degree
//! spanning tree spreads the forwarding work. This example broadcasts one
//! token over (a) the initial high-degree tree and (b) the improved tree, and
//! compares the per-node forwarding load.
//!
//! ```text
//! cargo run --example broadcast_load
//! ```

use mdst::prelude::*;
use std::collections::BTreeSet;

/// A minimal broadcast protocol over a fixed tree: the root sends a token to
/// its children, every node forwards it to its own children.
#[derive(Debug, Clone)]
struct Token {
    n: usize,
}

impl NetMessage for Token {
    fn kind(&self) -> &'static str {
        "Broadcast"
    }
    fn encoded_bits(&self) -> usize {
        mdst::netsim::message::bits::message_bits(self.n, 1)
    }
}

struct TreeBroadcast {
    children: BTreeSet<NodeId>,
    is_root: bool,
    received: bool,
}

impl Protocol for TreeBroadcast {
    type Message = Token;
    fn on_start(&mut self, ctx: &mut impl Context<Token>) {
        if self.is_root {
            self.received = true;
            let n = ctx.network_size();
            for &c in self.children.clone().iter() {
                ctx.send(c, Token { n });
            }
        }
    }
    fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
        if !self.received {
            self.received = true;
            for &c in self.children.clone().iter() {
                ctx.send(c, msg.clone());
            }
        }
    }
    fn is_terminated(&self) -> bool {
        self.received
    }
}

fn broadcast_load(graph: &Arc<Graph>, tree: &RootedTree) -> (u64, u64) {
    let run = ExecutorKind::Sim
        .run(
            graph,
            |id, _| TreeBroadcast {
                children: tree.children(id).iter().copied().collect(),
                is_root: tree.root() == id,
                received: false,
            },
            &ExecConfig::default(),
            &CancelToken::new(),
        )
        .expect("valid config");
    assert_eq!(run.status, ExecStatus::Quiesced, "broadcast quiesces");
    let metrics = run.metrics;
    let max_sent = *metrics.sent_per_node.iter().max().unwrap_or(&0);
    (metrics.messages_total, max_sent)
}

fn main() {
    let graph = Arc::new(generators::gnp_connected(80, 0.06, 7).expect("valid parameters"));
    let report = Pipeline::on(&graph)
        .initial(InitialTreeKind::GreedyHub)
        .root(NodeId(0))
        .run()
        .expect("pipeline runs");

    let (total_before, max_before) = broadcast_load(&graph, &report.initial_tree);
    let (total_after, max_after) = broadcast_load(&graph, report.tree());

    println!(
        "broadcast over the initial tree (degree {}):",
        report.initial_degree
    );
    println!("  total messages      = {total_before}");
    println!("  busiest node sends  = {max_before}");
    println!(
        "broadcast over the MDegST (degree {}):",
        report.final_degree
    );
    println!("  total messages      = {total_after}");
    println!("  busiest node sends  = {max_after}");
    println!(
        "\nthe busiest node forwards {:.1}x less traffic on the improved tree",
        max_before as f64 / max_after.max(1) as f64
    );

    assert_eq!(
        total_before, total_after,
        "both trees span the same n nodes"
    );
    assert!(max_after <= max_before);
}
