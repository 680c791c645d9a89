//! Shared test fixtures: the classic flooding broadcast used to exercise
//! every runtime. Node 0 floods a token; each node forwards it the first
//! time it sees it. Deterministic message totals on trees, termination by
//! `seen`, `O(log n)` bits per message — the smallest protocol that still
//! exercises sends, wake-ups and causal depths.

use crate::message::bits::message_bits;
use crate::message::NetMessage;
use crate::protocol::{Context, Protocol};
use mdst_graph::NodeId;

/// The flooded token, sized like an identity-carrying message.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub n: usize,
}

impl NetMessage for Token {
    fn kind(&self) -> &'static str {
        "Token"
    }
    fn encoded_bits(&self) -> usize {
        message_bits(self.n, 1)
    }
}

/// The flooding node automaton.
pub(crate) struct Flood {
    pub id: NodeId,
    pub seen: bool,
}

impl Protocol for Flood {
    type Message = Token;
    fn on_start(&mut self, ctx: &mut impl Context<Token>) {
        if self.id == NodeId(0) {
            self.seen = true;
            let targets: Vec<NodeId> = ctx.neighbors().to_vec();
            let n = ctx.network_size();
            for t in targets {
                ctx.send(t, Token { n });
            }
        }
    }
    fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
        if !self.seen {
            self.seen = true;
            let targets: Vec<NodeId> = ctx
                .neighbors()
                .iter()
                .copied()
                .filter(|&x| x != from)
                .collect();
            for t in targets {
                ctx.send(t, msg.clone());
            }
        }
    }
    fn is_terminated(&self) -> bool {
        self.seen
    }
}

/// Factory with the `(NodeId, &[NodeId])` shape every runtime expects.
pub(crate) fn flood(id: NodeId, _neighbors: &[NodeId]) -> Flood {
    Flood { id, seen: false }
}
