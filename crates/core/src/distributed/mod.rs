//! The distributed MDegST improvement protocol (§3 of the paper).
//!
//! The protocol assumes a rooted spanning tree is already in place (every node
//! knows its parent, its children and the identity of the tree's root — the
//! "termination by process" of the startup construction). It then runs rounds
//! coordinated by a moving root:
//!
//! 1. **SearchDegree** — a broadcast/convergecast over the tree computes the
//!    maximum tree degree `k` and the maximum-degree node `p` of minimum
//!    identity; every node remembers through which child the winning value
//!    arrived (its `via` pointer).
//! 2. **MoveRoot** — the root walks to `p` along the `via` pointers, reversing
//!    the parent/child orientation on the way (path reversal). `p` becomes the
//!    coordinator of the round.
//! 3. **Cut** — `p` virtually cuts its `k` child subtrees into *fragments*,
//!    identified by the pair `(p, child)`.
//! 4. **BFS** — every fragment floods a wave; waves crossing a non-tree edge
//!    between two different fragments discover an *outgoing* edge. The side in
//!    the smaller fragment collects the candidate provided both endpoints have
//!    tree degree at most `k − 2` (nodes of degree `k − 1` "are simply
//!    ignored", §4.1). A convergecast (BFSBack) returns the best candidate of
//!    each fragment to `p`.
//! 5. **Choose** — `p` picks the outgoing edge whose endpoints' maximum degree
//!    is minimal, drops the tree edge to the child whose fragment supplied it,
//!    and routes an Update along the stored `via` pointers. The path inside
//!    the fragment is reversed, the owning node attaches across the chosen
//!    edge (Child / ChildAck), and an UpdateDone convergecast tells `p` the
//!    exchange is complete, so the next round can start.
//!
//! The algorithm stops (Stop broadcast) when `k ≤ 2` or when the selected
//! maximum-degree node has no admissible outgoing edge, i.e. the tree is a
//! Locally Optimal Tree in the sense of Fürer & Raghavachari's Theorem 1.
//!
//! Departures from the paper's prose (README § "Deviations from the paper"):
//! rounds are serialised — each round improves the single maximum-degree node
//! of minimum identity rather than all maximum-degree nodes concurrently
//! (§3.2.6), so the round count, and with it the message count, grows with
//! n. Messages carry an explicit round number so late messages from a
//! finished round are discarded rather than misinterpreted.

mod messages;
mod node;

pub use messages::{Candidate, FragmentId, MdstMsg};
pub use node::MdstNode;
