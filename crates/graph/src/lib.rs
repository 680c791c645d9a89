//! # mdst-graph
//!
//! Graph and rooted-tree data structures used throughout the reproduction of
//! Blin & Butelle, *"The First Approximated Distributed Algorithm for the Minimum
//! Degree Spanning Tree Problem on General Graphs"*.
//!
//! The crate provides:
//!
//! * [`Graph`] — a simple undirected graph stored as adjacency lists with stable
//!   edge identifiers, the shape the paper's network model assumes
//!   (point-to-point bidirectional links, no self loops, no multi-edges).
//! * [`RootedTree`] — a rooted spanning tree represented with parent pointers and
//!   children sets, the structure the distributed algorithm maintains and
//!   rewires round after round.
//! * [`generators`] — deterministic and seeded random graph families used by the
//!   experiment harness (complete graphs for the Korach–Moran–Zaks comparison,
//!   Erdős–Rényi graphs for the complexity sweeps, crafted worst cases …).
//! * [`algorithms`] — the classic sequential graph algorithms the substrates and
//!   the verification layer need (BFS/DFS, connectivity, components, diameter,
//!   articulation points, spanning-tree extraction).
//! * [`degree`] — degree statistics helpers used when reporting experiment
//!   tables.
//! * [`dot`] — Graphviz DOT export for debugging and for rendering the paper's
//!   two illustrative figures.
//!
//! Everything in this crate is purely sequential and deterministic; the
//! distributed machinery lives in `mdst-netsim` and `mdst-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod degree;
pub mod dot;
pub mod error;
pub mod generators;
pub mod graph;
pub mod node;
pub mod tree;

pub use error::GraphError;
pub use graph::{EdgeId, Graph, StreamingBuilder};
pub use node::NodeId;
pub use tree::RootedTree;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
