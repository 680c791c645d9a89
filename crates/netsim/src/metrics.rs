//! Complexity accounting.
//!
//! [`Metrics`] records exactly the quantities §4.2 of the paper analyses:
//!
//! * **message complexity** — total number of messages exchanged, also broken
//!   down per message kind (the paper's per-step table: SearchDegree,
//!   MoveRoot, Cut, BFS, BFSBack, Update, Child, Stop);
//! * **bit complexity** — total and maximum encoded message size, to check the
//!   `O(log n)` bits-per-message claim;
//! * **time complexity** — the length of the longest causal dependency chain
//!   (every hop counted as one unit, matching the paper's definition), *and*
//!   the simulated clock at quiescence under the configured delay model;
//! * per-node send/receive counts, used by the broadcast-load example to show
//!   why a low-degree tree matters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregated measurements of one protocol execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Total number of messages delivered.
    pub messages_total: u64,
    /// Messages delivered, per message kind.
    pub messages_by_kind: BTreeMap<String, u64>,
    /// Sum of encoded message sizes, in bits.
    pub bits_total: u64,
    /// Largest single encoded message, in bits.
    pub bits_max: u64,
    /// Length of the longest causal chain of messages (the paper's time
    /// complexity, independent of the delay model).
    pub causal_time: u64,
    /// Value of the simulated clock when the network became quiescent
    /// (depends on the delay model; equals `causal_time` under unit delays
    /// when every node starts at time zero).
    pub quiescence_time: u64,
    /// Messages sent per node.
    pub sent_per_node: Vec<u64>,
    /// Messages received per node.
    pub received_per_node: Vec<u64>,
    /// Messages lost to fault injection (random loss, cut links, and sends to
    /// crashed nodes). Always zero under a benign fault plan.
    pub dropped_messages: u64,
    /// Nodes that crash-stopped during the run.
    pub crashed_nodes: u64,
}

impl Metrics {
    /// Creates an empty metrics record for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics {
            sent_per_node: vec![0; n],
            received_per_node: vec![0; n],
            ..Default::default()
        }
    }

    /// Records the delivery of one message.
    pub fn record_delivery(
        &mut self,
        from: usize,
        to: usize,
        kind: &str,
        bits: usize,
        causal_depth: u64,
        delivery_time: u64,
    ) {
        self.messages_total += 1;
        // Allocate the kind's key only on first sight — the borrowed lookup
        // keeps the per-message hot path free of `String` allocations (a
        // protocol has a handful of kinds but sends millions of messages).
        if let Some(count) = self.messages_by_kind.get_mut(kind) {
            *count += 1;
        } else {
            self.messages_by_kind.insert(kind.to_string(), 1);
        }
        self.bits_total += bits as u64;
        self.bits_max = self.bits_max.max(bits as u64);
        self.causal_time = self.causal_time.max(causal_depth);
        self.quiescence_time = self.quiescence_time.max(delivery_time);
        if let Some(s) = self.sent_per_node.get_mut(from) {
            *s += 1;
        }
        if let Some(r) = self.received_per_node.get_mut(to) {
            *r += 1;
        }
    }

    /// Records one delivered message of a batch whose endpoint columns are
    /// counted separately: everything [`Metrics::record_delivery`] does
    /// *except* the total and the per-node send/receive counts — those come
    /// from [`Metrics::record_sent_batch`] / [`Metrics::record_received_batch`],
    /// once per scheduling quantum instead of once per message. The split
    /// keeps the batched pool's per-message hot path down to the columns
    /// that genuinely vary per message (kind, bits, causal depth). The
    /// causal depth doubles as the delivery clock, exactly as the pool
    /// passes it to [`Metrics::record_delivery`] — the pool has no
    /// simulated clock of its own.
    pub fn record_payload(&mut self, kind: &str, bits: usize, causal_depth: u64) {
        if let Some(count) = self.messages_by_kind.get_mut(kind) {
            *count += 1;
        } else {
            self.messages_by_kind.insert(kind.to_string(), 1);
        }
        self.bits_total += bits as u64;
        self.bits_max = self.bits_max.max(bits as u64);
        self.causal_time = self.causal_time.max(causal_depth);
        self.quiescence_time = self.quiescence_time.max(causal_depth);
    }

    /// Counts `count` messages leaving node `from` — the send half of the
    /// batched accounting split (see [`Metrics::record_payload`]). The
    /// *sending* worker charges its own flush in one add, so no delivering
    /// worker ever touches the sender's random-index column.
    pub fn record_sent_batch(&mut self, from: usize, count: u64) {
        if let Some(s) = self.sent_per_node.get_mut(from) {
            *s += count;
        }
    }

    /// Counts `count` messages received by node `to` and folds them into the
    /// delivered total — the receive half of the batched accounting split
    /// (see [`Metrics::record_payload`]).
    pub fn record_received_batch(&mut self, to: usize, count: u64) {
        self.messages_total += count;
        if let Some(r) = self.received_per_node.get_mut(to) {
            *r += count;
        }
    }

    /// Records the loss of one message (fault injection).
    pub fn record_drop(&mut self) {
        self.dropped_messages += 1;
    }

    /// Records the crash-stop of one node (fault injection).
    pub fn record_crash(&mut self) {
        self.crashed_nodes += 1;
    }

    /// Records that the simulated clock reached `time` while the network was
    /// still active (used for start events, which are not deliveries but do
    /// advance the quiescence clock — see `Simulator::step`).
    pub fn record_activity(&mut self, time: u64) {
        self.quiescence_time = self.quiescence_time.max(time);
    }

    /// Number of messages of the given kind.
    pub fn count_of(&self, kind: &str) -> u64 {
        self.messages_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Mean encoded message size in bits (0 when no messages were exchanged).
    pub fn bits_mean(&self) -> f64 {
        if self.messages_total == 0 {
            0.0
        } else {
            self.bits_total as f64 / self.messages_total as f64
        }
    }

    /// The heaviest receiver: `(node index, messages received)`.
    pub fn max_received(&self) -> Option<(usize, u64)> {
        self.received_per_node
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
    }

    /// Merges another metrics record into this one (used by the pool runtime
    /// to aggregate per-worker counters). Per-node vectors must have the same
    /// length.
    pub fn merge(&mut self, other: &Metrics) {
        self.messages_total += other.messages_total;
        for (k, v) in &other.messages_by_kind {
            *self.messages_by_kind.entry(k.clone()).or_insert(0) += v;
        }
        self.bits_total += other.bits_total;
        self.bits_max = self.bits_max.max(other.bits_max);
        self.causal_time = self.causal_time.max(other.causal_time);
        self.quiescence_time = self.quiescence_time.max(other.quiescence_time);
        for (a, b) in self.sent_per_node.iter_mut().zip(&other.sent_per_node) {
            *a += b;
        }
        for (a, b) in self
            .received_per_node
            .iter_mut()
            .zip(&other.received_per_node)
        {
            *a += b;
        }
        self.dropped_messages += other.dropped_messages;
        self.crashed_nodes += other.crashed_nodes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_delivery_accumulates_all_dimensions() {
        let mut m = Metrics::new(3);
        m.record_delivery(0, 1, "BFS", 20, 1, 1);
        m.record_delivery(1, 2, "BFS", 24, 2, 2);
        m.record_delivery(2, 0, "BFSBack", 16, 3, 5);
        assert_eq!(m.messages_total, 3);
        assert_eq!(m.count_of("BFS"), 2);
        assert_eq!(m.count_of("BFSBack"), 1);
        assert_eq!(m.count_of("Update"), 0);
        assert_eq!(m.bits_total, 60);
        assert_eq!(m.bits_max, 24);
        assert!((m.bits_mean() - 20.0).abs() < 1e-9);
        assert_eq!(m.causal_time, 3);
        assert_eq!(m.quiescence_time, 5);
        assert_eq!(m.sent_per_node, vec![1, 1, 1]);
        assert_eq!(m.received_per_node, vec![1, 1, 1]);
    }

    #[test]
    fn empty_metrics_have_zero_mean() {
        let m = Metrics::new(2);
        assert_eq!(m.bits_mean(), 0.0);
        assert_eq!(
            m.max_received(),
            Some((1, 0)).map(|_| (0, 0)).or(Some((0, 0)))
        );
    }

    #[test]
    fn max_received_prefers_lowest_index_on_ties() {
        let mut m = Metrics::new(3);
        m.record_delivery(0, 1, "X", 1, 1, 1);
        m.record_delivery(0, 2, "X", 1, 1, 1);
        assert_eq!(m.max_received(), Some((1, 1)));
    }

    #[test]
    fn merge_adds_counts_and_maxes() {
        let mut a = Metrics::new(2);
        a.record_delivery(0, 1, "X", 10, 2, 3);
        a.record_drop();
        let mut b = Metrics::new(2);
        b.record_delivery(1, 0, "Y", 30, 5, 4);
        b.record_drop();
        b.record_crash();
        a.merge(&b);
        assert_eq!(a.messages_total, 2);
        assert_eq!(a.count_of("Y"), 1);
        assert_eq!(a.bits_max, 30);
        assert_eq!(a.causal_time, 5);
        assert_eq!(a.quiescence_time, 4);
        assert_eq!(a.sent_per_node, vec![1, 1]);
        assert_eq!(a.dropped_messages, 2);
        assert_eq!(a.crashed_nodes, 1);
    }

    #[test]
    fn activity_advances_the_quiescence_clock_without_a_delivery() {
        let mut m = Metrics::new(2);
        m.record_delivery(0, 1, "X", 8, 1, 4);
        m.record_activity(9);
        assert_eq!(m.quiescence_time, 9);
        m.record_activity(2);
        assert_eq!(m.quiescence_time, 9, "activity never rewinds the clock");
        assert_eq!(m.messages_total, 1);
    }
}
