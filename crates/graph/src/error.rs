//! Error type shared by the graph crate.

use crate::node::NodeId;
use std::fmt;

/// Errors produced while building or manipulating graphs and trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node identifier referenced a node outside `0..n`.
    NodeOutOfRange {
        /// The offending identifier.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An edge `(u, u)` was requested; the model forbids self loops.
    SelfLoop(NodeId),
    /// An edge was inserted twice; the model forbids parallel edges.
    DuplicateEdge(NodeId, NodeId),
    /// The referenced edge does not exist.
    MissingEdge(NodeId, NodeId),
    /// The operation requires a connected graph but the input is disconnected.
    Disconnected,
    /// The operation requires a non-empty graph.
    EmptyGraph,
    /// A structure that must be a spanning tree is not one.
    NotASpanningTree(String),
    /// A generator was asked for parameters outside its valid domain.
    InvalidParameter(String),
    /// The graph exceeds what the compact 32-bit CSR layout can address.
    TooLarge {
        /// What overflowed (`"nodes"` or `"incidence slots"`).
        what: &'static str,
        /// The offending count.
        count: u64,
        /// The layout's limit for that quantity.
        limit: u64,
    },
    /// The two passes of a streaming build disagreed (or the phase protocol
    /// was violated): the counted and placed incidences do not line up.
    StreamingMismatch(String),
    /// A directed adjacency stream mentioned `(u, v)` without the reciprocal
    /// `(v, u)`; undirected graphs require symmetric mentions.
    AsymmetricAdjacency(NodeId, NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            GraphError::SelfLoop(u) => write!(f, "self loop on {u} is not allowed"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            GraphError::MissingEdge(u, v) => write!(f, "edge ({u}, {v}) does not exist"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::EmptyGraph => write!(f, "graph has no nodes"),
            GraphError::NotASpanningTree(why) => write!(f, "not a spanning tree: {why}"),
            GraphError::InvalidParameter(why) => write!(f, "invalid parameter: {why}"),
            GraphError::TooLarge { what, count, limit } => write!(
                f,
                "graph too large for the 32-bit CSR layout: {count} {what} (limit {limit})"
            ),
            GraphError::StreamingMismatch(why) => {
                write!(f, "streaming build passes disagree: {why}")
            }
            GraphError::AsymmetricAdjacency(u, v) => write!(
                f,
                "adjacency stream mentions ({u}, {v}) but not the reciprocal ({v}, {u})"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: NodeId(9),
            node_count: 4,
        };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains('4'));
        assert!(GraphError::SelfLoop(NodeId(1))
            .to_string()
            .contains("self loop"));
        assert!(GraphError::Disconnected.to_string().contains("connected"));
    }
}
