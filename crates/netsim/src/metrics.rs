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

    /// Records the delivery of one message. Its kind is counted separately,
    /// in a per-kind table the executor folds into
    /// [`Metrics::messages_by_kind`] before handing the metrics out.
    pub fn record_delivery(
        &mut self,
        from: usize,
        to: usize,
        bits: usize,
        causal_depth: u64,
        delivery_time: u64,
    ) {
        self.messages_total += 1;
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
    /// counted separately: the bits and the causal depth only. The total
    /// and the per-node send/receive counts come from
    /// [`Metrics::record_sent_batch`] / [`Metrics::record_received_batch`],
    /// once per scheduling quantum instead of once per message, and the kind
    /// from the executor's per-kind table. The causal depth doubles as the
    /// delivery clock: the pool has no simulated clock of its own.
    pub fn record_payload(&mut self, bits: usize, causal_depth: u64) {
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
    /// advance the quiescence clock).
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

/// Per-kind delivery counters held by an executor while it runs.
///
/// Message kinds are `&'static str` constants ([`NetMessage::kind`]), a
/// dozen per protocol, so a short vector of `(kind, count)` pairs keyed by
/// the string's *address* finds the slot in a few pointer comparisons per
/// message: no hashing, no string comparison, no allocation. A kind whose
/// text is already present at another address (the same literal emitted
/// twice by the compiler) is matched by text before a new entry is
/// inserted, so each kind has exactly one counter. The executor folds the
/// table into [`Metrics::messages_by_kind`] with [`KindCounts::fold_into`]
/// whenever it hands its metrics out.
///
/// [`NetMessage::kind`]: crate::message::NetMessage::kind
#[derive(Default)]
pub(crate) struct KindCounts {
    entries: Vec<(&'static str, u64)>,
}

impl KindCounts {
    /// Counts one delivered message of `kind`.
    #[inline]
    pub(crate) fn bump(&mut self, kind: &'static str) {
        if let Some(entry) = self.entries.iter_mut().find(|e| std::ptr::eq(e.0, kind)) {
            entry.1 += 1;
        } else {
            self.bump_slow(kind);
        }
    }

    #[cold]
    fn bump_slow(&mut self, kind: &'static str) {
        match self.entries.iter_mut().find(|e| e.0 == kind) {
            Some(entry) => entry.1 += 1,
            None => self.entries.push((kind, 1)),
        }
    }

    /// Adds every pending count to `metrics.messages_by_kind` and zeroes the
    /// table (its kinds stay, so later messages still hit by address).
    pub(crate) fn fold_into(&mut self, metrics: &mut Metrics) {
        for (kind, count) in &mut self.entries {
            if *count == 0 {
                continue;
            }
            match metrics.messages_by_kind.get_mut(*kind) {
                Some(total) => *total += *count,
                None => {
                    metrics.messages_by_kind.insert((*kind).to_string(), *count);
                }
            }
            *count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_delivery_accumulates_all_dimensions() {
        let mut m = Metrics::new(3);
        let mut kinds = KindCounts::default();
        for (from, to, kind, bits, depth, time) in [
            (0, 1, "BFS", 20, 1, 1),
            (1, 2, "BFS", 24, 2, 2),
            (2, 0, "BFSBack", 16, 3, 5),
        ] {
            kinds.bump(kind);
            m.record_delivery(from, to, bits, depth, time);
        }
        kinds.fold_into(&mut m);
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
        m.record_delivery(0, 1, 1, 1, 1);
        m.record_delivery(0, 2, 1, 1, 1);
        assert_eq!(m.max_received(), Some((1, 1)));
    }

    #[test]
    fn merge_adds_counts_and_maxes() {
        let mut kinds = KindCounts::default();
        let mut a = Metrics::new(2);
        kinds.bump("X");
        a.record_delivery(0, 1, 10, 2, 3);
        kinds.fold_into(&mut a);
        a.record_drop();
        let mut b = Metrics::new(2);
        kinds.bump("Y");
        kinds.bump("X");
        b.record_delivery(1, 0, 30, 5, 4);
        b.record_delivery(1, 0, 8, 1, 1);
        kinds.fold_into(&mut b);
        b.record_drop();
        b.record_crash();
        a.merge(&b);
        assert_eq!(a.messages_total, 3);
        assert_eq!(a.count_of("X"), 2);
        assert_eq!(a.count_of("Y"), 1);
        assert_eq!(a.bits_max, 30);
        assert_eq!(a.causal_time, 5);
        assert_eq!(a.quiescence_time, 4);
        assert_eq!(a.sent_per_node, vec![1, 2]);
        assert_eq!(a.dropped_messages, 2);
        assert_eq!(a.crashed_nodes, 1);
    }

    #[test]
    fn activity_advances_the_quiescence_clock_without_a_delivery() {
        let mut m = Metrics::new(2);
        m.record_delivery(0, 1, 8, 1, 4);
        m.record_activity(9);
        assert_eq!(m.quiescence_time, 9);
        m.record_activity(2);
        assert_eq!(m.quiescence_time, 9, "activity never rewinds the clock");
        assert_eq!(m.messages_total, 1);
    }

    #[test]
    fn record_payload_skips_the_endpoint_columns() {
        let mut m = Metrics::new(2);
        m.record_payload(12, 3);
        m.record_payload(7, 5);
        assert_eq!(m.messages_total, 0, "totals come from the batch calls");
        assert_eq!(m.sent_per_node, vec![0, 0]);
        assert_eq!((m.bits_total, m.bits_max), (19, 12));
        assert_eq!((m.causal_time, m.quiescence_time), (5, 5));
    }

    #[test]
    fn kind_counts_match_equal_text_at_another_address_and_fold_once() {
        let mut kinds = KindCounts::default();
        // The same text behind a different address (a leaked heap copy)
        // must share the counter of the literal, not open a second one.
        let copy: &'static str = Box::leak(String::from("Bfs").into_boxed_str());
        kinds.bump("Bfs");
        kinds.bump(copy);
        kinds.bump("Stop");
        assert_eq!(kinds.entries.len(), 2);
        let mut m = Metrics::new(1);
        m.messages_by_kind.insert("Stop".to_string(), 4);
        kinds.fold_into(&mut m);
        assert_eq!(m.count_of("Bfs"), 2);
        assert_eq!(m.count_of("Stop"), 5);
        // Folding empties the counts, so a second fold adds nothing.
        kinds.fold_into(&mut m);
        assert_eq!(m.count_of("Bfs"), 2);
        assert_eq!(m.messages_by_kind.len(), 2);
    }
}
