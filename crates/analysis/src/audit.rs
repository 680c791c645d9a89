//! The happens-before auditor.
//!
//! [`audit`] replays a recorded trace once, reconstructing the causal
//! partial order with per-node vector clocks ([`crate::clock`]), and
//! statically checks the delivery discipline every backend promises:
//!
//! * **`fifo-inversion`** — per directed link, delivered sequence numbers
//!   must be strictly increasing (a lost message consumes its slot, so gaps
//!   are legal; inversions never are).
//! * **`deliver-before-send`** — a delivery recorded before its own send.
//! * **`orphan-delivery`** — a delivery whose message id matches no send.
//! * **`duplicate-delivery`** — the same message id delivered twice.
//! * **`delivery-to-crashed`** — a delivery to a node after its crash.
//! * **`causal-precedes-own-send`** — the sender's snapshot knows more of
//!   the receiver's history than the receiver itself has executed: the
//!   message would causally precede its own send.
//! * **`coordinator-race`** — two `SearchInit` broadcasts whose starts are
//!   not ordered by happens-before: two coordinators drove the improvement
//!   concurrently.
//! * **`concurrent-exchange`** — two `Cut` cascades whose starts are not
//!   ordered by happens-before: two edge exchanges ran concurrently on the
//!   fragment.
//!
//! The protocol-level rules exploit the paper's single-coordinator
//! discipline: every MDegST round is serialised through the current root, so
//! in a correct run the first `SearchInit` (respectively `Cut`) send of each
//! round is causally after the previous round's — the set of
//! happens-before-minimal initiations has size ≤ 1. Forwarded copies inside
//! one broadcast are causally after the initiation and therefore never
//! minimal, so sibling forwards (which genuinely race each other) do not
//! trip the rule.
//!
//! The auditor assumes the trace is listed in recording order (simulated
//! time on the simulator, the atomic global stamp on the concurrent
//! backends); causality can then only point backwards, which is what lets
//! the minimality scan keep just the current minima.
//!
//! The replay makes two passes. The first gives every distinct message id a
//! slot (recording its first send), every directed link an index, and every
//! node the trace names a compact index. The second replays the clocks
//! without hashing the ids the backends assign: per-message and per-link
//! state live in vectors indexed by slot and link, the node clocks in one
//! row-major table over the compacted nodes, and in-flight send snapshots in
//! reusable rows. Time is O(events × nodes) and memory O(events + nodes²),
//! where nodes counts the distinct nodes the trace names — not its largest
//! node id.

use crate::clock;
use mdst_graph::NodeId;
use mdst_netsim::{TraceEvent, TraceEventKind, TraceRecorder};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The audited delivery-discipline rules. Labels are stable kebab-case
/// strings used in findings, JSON reports and CLI output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Per-link FIFO order violated: a delivery's sequence number did not
    /// exceed the link's previous delivery.
    FifoInversion,
    /// A delivery recorded before its matching send.
    DeliverBeforeSend,
    /// A delivery whose message id matches no recorded send.
    OrphanDelivery,
    /// A message id delivered more than once.
    DuplicateDelivery,
    /// A delivery to a node that had already crash-stopped.
    DeliveryToCrashed,
    /// A delivery carrying a causal snapshot ahead of its own receiver.
    CausalPrecedesOwnSend,
    /// Two causally unordered `SearchInit` broadcasts (two coordinators).
    CoordinatorRace,
    /// Two causally unordered `Cut` cascades (two concurrent exchanges).
    ConcurrentExchange,
}

impl Rule {
    /// Every rule, in severity-agnostic declaration order.
    pub const ALL: [Rule; 8] = [
        Rule::FifoInversion,
        Rule::DeliverBeforeSend,
        Rule::OrphanDelivery,
        Rule::DuplicateDelivery,
        Rule::DeliveryToCrashed,
        Rule::CausalPrecedesOwnSend,
        Rule::CoordinatorRace,
        Rule::ConcurrentExchange,
    ];

    /// The stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            Rule::FifoInversion => "fifo-inversion",
            Rule::DeliverBeforeSend => "deliver-before-send",
            Rule::OrphanDelivery => "orphan-delivery",
            Rule::DuplicateDelivery => "duplicate-delivery",
            Rule::DeliveryToCrashed => "delivery-to-crashed",
            Rule::CausalPrecedesOwnSend => "causal-precedes-own-send",
            Rule::CoordinatorRace => "coordinator-race",
            Rule::ConcurrentExchange => "concurrent-exchange",
        }
    }

    /// Parses a kebab-case label back into a rule.
    pub fn from_label(label: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.label() == label)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// Hand-written so serialized findings carry the kebab-case labels instead of
// the derive's PascalCase variant names.
impl Serialize for Rule {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for Rule {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        v.as_str()
            .and_then(Rule::from_label)
            .ok_or_else(|| serde::Error::custom("expected an audit rule label"))
    }
}

/// One rule violation, anchored to the offending trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Which rule was violated.
    pub rule: Rule,
    /// Index (into the audited event slice) of the offending event.
    pub event_index: usize,
    /// Index of the earlier event it conflicts with, when there is one
    /// (the inverted predecessor, the duplicate's first delivery, the crash,
    /// the racing initiation, …).
    pub related_index: Option<usize>,
    /// Sender side of the offending event.
    pub from: NodeId,
    /// Receiver side of the offending event.
    pub to: NodeId,
    /// Message kind label of the offending event.
    pub message_kind: String,
    /// Message id of the offending event (`0` when it carries none).
    pub msg_id: u64,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// Per-directed-link message statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStat {
    /// Sender endpoint.
    pub from: NodeId,
    /// Receiver endpoint.
    pub to: NodeId,
    /// Messages handed to the link.
    pub sends: u64,
    /// Messages delivered by the link.
    pub delivers: u64,
    /// Messages the link lost.
    pub drops: u64,
}

/// The auditor's verdict over one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Number of audited trace events.
    pub events: usize,
    /// One more than the largest node index the trace mentions (`0` for an
    /// empty trace).
    pub nodes: usize,
    /// Send events seen.
    pub sends: u64,
    /// Deliver events seen.
    pub delivers: u64,
    /// Drop events seen.
    pub drops: u64,
    /// Crash events seen.
    pub crashes: u64,
    /// Per-directed-link statistics, sorted by `(from, to)`.
    pub links: Vec<LinkStat>,
    /// Every rule violation found, in trace order.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// Whether the trace satisfies every rule.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Renders the report as a small Markdown document (the `scenario
    /// audit --markdown` output).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Trace audit\n\n");
        out.push_str(&format!(
            "- events: {} ({} sends, {} delivers, {} drops, {} crashes)\n",
            self.events, self.sends, self.delivers, self.drops, self.crashes
        ));
        out.push_str(&format!(
            "- nodes: {}, directed links used: {}\n",
            self.nodes,
            self.links.len()
        ));
        if self.is_clean() {
            out.push_str("- verdict: **clean** — every rule holds\n");
            return out;
        }
        out.push_str(&format!(
            "- verdict: **{} violation{}**\n\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" }
        ));
        out.push_str("| # | rule | event | link | kind | msg | detail |\n");
        out.push_str("|---|------|-------|------|------|-----|--------|\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "| {} | `{}` | {} | {}→{} | {} | {} | {} |\n",
                i + 1,
                f.rule,
                f.event_index,
                f.from,
                f.to,
                f.message_kind,
                f.msg_id,
                f.detail
            ));
        }
        out
    }
}

/// Message kind whose causally unordered initiations mean two coordinators.
const COORDINATOR_KIND: &str = "SearchInit";
/// Message kind whose causally unordered initiations mean two exchanges.
const EXCHANGE_KIND: &str = "Cut";

/// Marks an absent event index or pool row in the replay tables.
const NONE: usize = usize::MAX;

/// Multiplicative hash for the replay's integer keys (message ids, packed
/// links, node ids): one multiply and one shift instead of SipHash. The
/// shift folds the well-mixed high product bits into the low bits the table
/// indexes by.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type IntMap = HashMap<u64, usize, BuildHasherDefault<IntHasher>>;

/// Returns the dense index of `key`, giving it the next one on first sight.
fn dense(map: &mut IntMap, key: u64) -> usize {
    let next = map.len();
    *map.entry(key).or_insert(next)
}

/// The slot of message id `id` in a trace of `events` events. Every backend
/// numbers messages densely from 1, so an id up to the event count is its
/// own slot and needs no lookup; any other id gets a dense slot past those.
fn msg_slot(id: u64, events: usize, other_ids: &mut IntMap) -> usize {
    match usize::try_from(id) {
        Ok(id) if id <= events => id,
        _ => events + 1 + dense(other_ids, id),
    }
}

/// Replay state of one distinct message id.
#[derive(Clone, Copy)]
struct Msg {
    /// Index of the id's first `Send` (`NONE` if it has none; always for id 0).
    send: usize,
    /// Index of the id's first delivery (`NONE` until delivered).
    delivered: usize,
    /// [`RowPool`] row holding the send's snapshot while the message is in
    /// flight (`NONE` otherwise).
    in_flight: usize,
    /// Index into the early-delivery list when the message was delivered
    /// before its own send (`NONE` otherwise).
    early: usize,
}

/// One directed link: its statistics and its FIFO watermark.
struct Link {
    stat: LinkStat,
    /// Compacted sender and receiver indices.
    u: usize,
    v: usize,
    /// Highest sequence number delivered so far and the delivering event.
    watermark: Option<(u64, usize)>,
}

/// Fixed-width clock rows reused through a free list, so recording a send's
/// snapshot copies into an existing row instead of allocating a clock.
struct RowPool {
    width: usize,
    rows: Vec<u64>,
    free: Vec<usize>,
}

impl RowPool {
    fn alloc(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            let row = self.rows.len() / self.width;
            self.rows.resize(self.rows.len() + self.width, 0);
            row
        })
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.rows[r * self.width..(r + 1) * self.width]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.rows[r * self.width..(r + 1) * self.width]
    }
}

/// The happens-before-minimal initiations of one protocol rule so far: the
/// first one's event index (the one a race is reported against) and every
/// one's snapshot, one row each.
#[derive(Default)]
struct Minima {
    first: Option<usize>,
    clocks: Vec<u64>,
}

/// Audits the events of a [`TraceRecorder`] (see [`audit_events`]).
pub fn audit(trace: &TraceRecorder) -> AuditReport {
    audit_events(trace.events())
}

/// Replays `events` once and returns the full verdict. The slice must be in
/// recording order — how every backend publishes it.
pub fn audit_events(events: &[TraceEvent]) -> AuditReport {
    // Pass 1: a slot per distinct message id with its first send, a link
    // index per event, and a compact index per node the trace names.
    let absent = Msg {
        send: NONE,
        delivered: NONE,
        in_flight: NONE,
        early: NONE,
    };
    let mut msgs: Vec<Msg> = Vec::new();
    let mut other_ids = IntMap::default();
    let mut link_index = IntMap::default();
    let mut node_index = IntMap::default();
    let mut links: Vec<Link> = Vec::new();
    let mut link_at: Vec<usize> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let slot = msg_slot(e.msg_id, events.len(), &mut other_ids);
        if slot >= msgs.len() {
            msgs.resize(slot + 1, absent);
        }
        if e.kind == TraceEventKind::Send && e.msg_id != 0 && msgs[slot].send == NONE {
            msgs[slot].send = i;
        }
        let link = dense(
            &mut link_index,
            (u64::from(e.from.0) << 32) | u64::from(e.to.0),
        );
        if link == links.len() {
            links.push(Link {
                stat: LinkStat {
                    from: e.from,
                    to: e.to,
                    sends: 0,
                    delivers: 0,
                    drops: 0,
                },
                u: dense(&mut node_index, u64::from(e.from.0)),
                v: dense(&mut node_index, u64::from(e.to.0)),
                watermark: None,
            });
        }
        link_at.push(link);
    }

    // Pass 2: vector-clock replay over the compacted nodes. Components of
    // nodes the trace never names would stay zero in every clock, so leaving
    // them out changes no comparison.
    let width = node_index.len();
    // An overflowing size saturates, so the allocation fails loudly instead
    // of wrapping to a short table.
    let mut clocks = vec![0u64; width.saturating_mul(width)];
    let mut pool = RowPool {
        width,
        rows: Vec::new(),
        free: Vec::new(),
    };
    // Deliveries that preceded their own send in the trace: (delivery index,
    // receiver, the receiver's own event count at the delivery). If the
    // eventual send turns out to causally know that receiver event, the
    // message happens-before its own send — a cycle.
    let mut early_delivery: Vec<(usize, usize, u64)> = Vec::new();
    let mut crashed_at = vec![NONE; width];
    // Happens-before-minimal initiations seen so far, per protocol rule.
    let mut coordinator_minima = Minima::default();
    let mut exchange_minima = Minima::default();

    let mut findings: Vec<Finding> = Vec::new();
    let (mut sends, mut delivers, mut drops, mut crashes) = (0u64, 0u64, 0u64, 0u64);

    let finding =
        |rule: Rule, i: usize, related: Option<usize>, e: &TraceEvent, detail: String| Finding {
            rule,
            event_index: i,
            related_index: related,
            from: e.from,
            to: e.to,
            message_kind: e.message_kind.to_string(),
            msg_id: e.msg_id,
            detail,
        };

    for (i, (e, &l)) in events.iter().zip(&link_at).enumerate() {
        let link = &mut links[l];
        let (u, v) = (link.u, link.v);
        let msg = &mut msgs[msg_slot(e.msg_id, events.len(), &mut other_ids)];
        match e.kind {
            TraceEventKind::Send => {
                sends += 1;
                link.stat.sends += 1;
                let own = u * width..(u + 1) * width;
                clock::tick(&mut clocks[own.clone()], u);
                let snapshot = &clocks[own];
                // Protocol-level mutual exclusion: keep the send only if no
                // already-known minimal initiation happens-before it.
                for (kind, minima, rule) in [
                    (
                        COORDINATOR_KIND,
                        &mut coordinator_minima,
                        Rule::CoordinatorRace,
                    ),
                    (
                        EXCHANGE_KIND,
                        &mut exchange_minima,
                        Rule::ConcurrentExchange,
                    ),
                ] {
                    if e.message_kind != kind {
                        continue;
                    }
                    let dominated = minima
                        .clocks
                        .chunks_exact(width)
                        .any(|vc| clock::precedes(vc, snapshot));
                    if !dominated {
                        if let Some(first) = minima.first {
                            if clock::concurrent(&minima.clocks[..width], snapshot) {
                                let what = if rule == Rule::CoordinatorRace {
                                    "coordinator broadcasts"
                                } else {
                                    "exchange cascades"
                                };
                                findings.push(finding(
                                    rule,
                                    i,
                                    Some(first),
                                    e,
                                    format!(
                                        "{kind} initiation at node {} races the one at event {first}: \
                                         two {what} are not ordered by happens-before",
                                        e.from
                                    ),
                                ));
                            }
                        }
                        minima.first.get_or_insert(i);
                        minima.clocks.extend_from_slice(snapshot);
                    }
                }
                if let Some(&(d, receiver, count)) = early_delivery.get(msg.early) {
                    // The message was delivered before this send; if the
                    // sender's snapshot causally includes the delivery event
                    // at the receiver, the delivery fed back into its own
                    // send: a happens-before cycle.
                    if snapshot[receiver] >= count {
                        findings.push(finding(
                            Rule::CausalPrecedesOwnSend,
                            i,
                            Some(d),
                            e,
                            format!(
                                "msg {} causally precedes its own send: its delivery \
                                 (event {d}) reached back into the sender",
                                e.msg_id
                            ),
                        ));
                    }
                }
                if e.msg_id != 0 {
                    if msg.in_flight == NONE {
                        msg.in_flight = pool.alloc();
                    }
                    pool.row_mut(msg.in_flight).copy_from_slice(snapshot);
                }
            }
            TraceEventKind::Deliver => {
                delivers += 1;
                link.stat.delivers += 1;
                match msg.send {
                    NONE => findings.push(finding(
                        Rule::OrphanDelivery,
                        i,
                        None,
                        e,
                        format!("delivery of msg {} which no event sent", e.msg_id),
                    )),
                    j if j > i => findings.push(finding(
                        Rule::DeliverBeforeSend,
                        i,
                        Some(j),
                        e,
                        format!("msg {} delivered before its send at event {j}", e.msg_id),
                    )),
                    _ => {}
                }
                if msg.delivered == NONE {
                    msg.delivered = i;
                } else {
                    let first = msg.delivered;
                    findings.push(finding(
                        Rule::DuplicateDelivery,
                        i,
                        Some(first),
                        e,
                        format!("msg {} already delivered at event {first}", e.msg_id),
                    ));
                }
                if crashed_at[v] != NONE {
                    let crash = crashed_at[v];
                    findings.push(finding(
                        Rule::DeliveryToCrashed,
                        i,
                        Some(crash),
                        e,
                        format!("node {} crash-stopped at event {crash}", e.to),
                    ));
                }
                match link.watermark {
                    Some((seq, prev)) if e.seq <= seq => findings.push(finding(
                        Rule::FifoInversion,
                        i,
                        Some(prev),
                        e,
                        format!(
                            "seq {} delivered after seq {seq} (event {prev}) on link {}→{}",
                            e.seq, e.from, e.to
                        ),
                    )),
                    _ => link.watermark = Some((e.seq, i)),
                }
                let receiver = v * width..(v + 1) * width;
                if msg.in_flight != NONE {
                    clock::join(&mut clocks[receiver.clone()], pool.row(msg.in_flight));
                    pool.free.push(msg.in_flight);
                    msg.in_flight = NONE;
                } else if msg.send != NONE && msg.send > i && msg.early == NONE {
                    // Delivered before its send: remember the receiver's
                    // event count so the send can be checked for a causal
                    // cycle when (if) it appears.
                    msg.early = early_delivery.len();
                    early_delivery.push((i, v, clocks[receiver.start + v] + 1));
                }
                clock::tick(&mut clocks[receiver], v);
            }
            TraceEventKind::Drop => {
                drops += 1;
                link.stat.drops += 1;
                if msg.in_flight != NONE {
                    pool.free.push(msg.in_flight);
                    msg.in_flight = NONE;
                }
            }
            TraceEventKind::Crash => {
                crashes += 1;
                if crashed_at[u] == NONE {
                    crashed_at[u] = i;
                }
            }
        }
    }

    findings.sort_by_key(|f| (f.event_index, f.rule.label()));
    let nodes = links
        .iter()
        .map(|l| l.stat.from.index().max(l.stat.to.index()).saturating_add(1))
        .max()
        .unwrap_or(0);
    let mut links: Vec<LinkStat> = links.into_iter().map(|l| l.stat).collect();
    links.sort_unstable_by_key(|l| (l.from, l.to));
    AuditReport {
        events: events.len(),
        nodes,
        sends,
        delivers,
        drops,
        crashes,
        links,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        time: u64,
        kind: TraceEventKind,
        from: usize,
        to: usize,
        label: &str,
        msg_id: u64,
        seq: u64,
    ) -> TraceEvent {
        TraceEvent {
            time,
            kind,
            from: NodeId::new(from),
            to: NodeId::new(to),
            message_kind: label.to_string().into(),
            msg_id,
            seq,
        }
    }

    fn send(t: u64, from: usize, to: usize, label: &str, id: u64, seq: u64) -> TraceEvent {
        ev(t, TraceEventKind::Send, from, to, label, id, seq)
    }

    fn deliver(t: u64, from: usize, to: usize, label: &str, id: u64, seq: u64) -> TraceEvent {
        ev(t, TraceEventKind::Deliver, from, to, label, id, seq)
    }

    #[test]
    fn a_clean_relay_audits_clean() {
        let report = audit_events(&[
            send(0, 0, 1, "BFS", 1, 0),
            deliver(1, 0, 1, "BFS", 1, 0),
            send(2, 1, 2, "BFS", 2, 0),
            deliver(3, 1, 2, "BFS", 2, 0),
        ]);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.nodes, 3);
        assert_eq!((report.sends, report.delivers), (2, 2));
        assert_eq!(report.links.len(), 2);
    }

    #[test]
    fn swapped_deliveries_are_a_fifo_inversion() {
        let report = audit_events(&[
            send(0, 0, 1, "BFS", 1, 0),
            send(1, 0, 1, "BFS", 2, 1),
            deliver(2, 0, 1, "BFS", 2, 1),
            deliver(3, 0, 1, "BFS", 1, 0),
        ]);
        assert_eq!(report.count(Rule::FifoInversion), 1);
        let f = &report.findings[0];
        assert_eq!(f.rule, Rule::FifoInversion);
        assert_eq!(f.event_index, 3);
        assert_eq!(f.related_index, Some(2));
    }

    #[test]
    fn a_dropped_send_leaves_a_legal_gap() {
        let report = audit_events(&[
            send(0, 0, 1, "BFS", 1, 0),
            send(1, 0, 1, "BFS", 2, 1),
            ev(2, TraceEventKind::Drop, 0, 1, "BFS", 1, 0),
            deliver(3, 0, 1, "BFS", 2, 1),
        ]);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.drops, 1);
    }

    #[test]
    fn missing_send_is_an_orphan_delivery() {
        let report = audit_events(&[deliver(0, 0, 1, "BFS", 9, 0)]);
        assert_eq!(report.count(Rule::OrphanDelivery), 1);
    }

    #[test]
    fn forged_duplicate_is_flagged_once() {
        let report = audit_events(&[
            send(0, 0, 1, "BFS", 1, 0),
            deliver(1, 0, 1, "BFS", 1, 0),
            deliver(2, 0, 1, "BFS", 1, 0),
        ]);
        assert_eq!(report.count(Rule::DuplicateDelivery), 1);
        // The duplicate also collides with the FIFO watermark.
        assert_eq!(report.count(Rule::FifoInversion), 1);
    }

    #[test]
    fn delivery_after_crash_is_flagged() {
        let report = audit_events(&[
            send(0, 0, 1, "BFS", 1, 0),
            ev(1, TraceEventKind::Crash, 1, 1, "crash", 0, 0),
            deliver(2, 0, 1, "BFS", 1, 0),
        ]);
        assert_eq!(report.count(Rule::DeliveryToCrashed), 1);
    }

    #[test]
    fn deliver_recorded_before_its_send_is_flagged() {
        let report = audit_events(&[deliver(0, 0, 1, "BFS", 1, 0), send(1, 0, 1, "BFS", 1, 0)]);
        assert_eq!(report.count(Rule::DeliverBeforeSend), 1);
    }

    #[test]
    fn a_message_feeding_back_into_its_own_send_is_a_causal_cycle() {
        // Msg 2 (node 1 → node 0) is delivered first; node 0 reacts with
        // msg 1 to node 1; node 1 only then sends msg 2 — causally after
        // absorbing the consequences of its own delivery. The cycle is
        // flagged on top of the raw deliver-before-send.
        let report = audit_events(&[
            deliver(0, 1, 0, "BFS", 2, 0),
            send(1, 0, 1, "BFS", 1, 0),
            deliver(2, 0, 1, "BFS", 1, 0),
            send(3, 1, 0, "BFS", 2, 0),
        ]);
        assert_eq!(
            report.count(Rule::CausalPrecedesOwnSend),
            1,
            "{:?}",
            report.findings
        );
        assert_eq!(report.count(Rule::DeliverBeforeSend), 1);
    }

    #[test]
    fn an_independent_early_delivery_is_not_a_causal_cycle() {
        // Msg 1's delivery is recorded before its send (corrupt merge), but
        // nothing about the delivery feeds back into the sender: only the
        // ordering rule fires, not the cycle rule.
        let report = audit_events(&[deliver(0, 1, 0, "BFS", 1, 0), send(1, 1, 0, "BFS", 1, 0)]);
        assert_eq!(report.count(Rule::DeliverBeforeSend), 1);
        assert_eq!(
            report.count(Rule::CausalPrecedesOwnSend),
            0,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn two_unordered_coordinators_race() {
        // Nodes 0 and 2 both broadcast SearchInit with no causal path
        // between them.
        let report = audit_events(&[
            send(0, 0, 1, "SearchInit", 1, 0),
            send(1, 2, 1, "SearchInit", 2, 0),
            deliver(2, 0, 1, "SearchInit", 1, 0),
            deliver(3, 2, 1, "SearchInit", 2, 0),
        ]);
        assert_eq!(report.count(Rule::CoordinatorRace), 1);
    }

    #[test]
    fn serialised_rounds_do_not_race() {
        // Round 2's SearchInit (from a moved root) is causally after round
        // 1's: no race. Forwarded copies inside one broadcast do not race
        // either.
        let report = audit_events(&[
            send(0, 0, 1, "SearchInit", 1, 0),
            deliver(1, 0, 1, "SearchInit", 1, 0),
            send(2, 1, 2, "SearchInit", 2, 0), // forward, causally after
            deliver(3, 1, 2, "SearchInit", 2, 0),
            send(4, 2, 1, "MoveRoot", 3, 0),
            deliver(5, 2, 1, "MoveRoot", 3, 0),
            send(6, 1, 0, "SearchInit", 4, 1), // round 2, causally after
            deliver(7, 1, 0, "SearchInit", 4, 1),
        ]);
        assert_eq!(
            report.count(Rule::CoordinatorRace),
            0,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn concurrent_cut_cascades_race() {
        let report = audit_events(&[send(0, 0, 1, "Cut", 1, 0), send(1, 2, 3, "Cut", 2, 0)]);
        assert_eq!(report.count(Rule::ConcurrentExchange), 1);
    }

    #[test]
    fn a_huge_node_id_allocates_for_the_nodes_named_not_the_id() {
        // Two nodes are named, so the replay holds a 2×2 clock table; sizing
        // by the largest id would ask for 4·10⁹ clocks of 4·10⁹ entries.
        let far = 4_000_000_000;
        let started = std::time::Instant::now();
        let report = audit_events(&[
            send(0, 0, far, "BFS", 1, 0),
            deliver(1, 0, far, "BFS", 1, 0),
        ]);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.nodes, far + 1);
        assert_eq!(report.links.len(), 1);
    }

    #[test]
    fn report_round_trips_through_json_and_renders_markdown() {
        let report = audit_events(&[
            send(0, 0, 1, "BFS", 1, 0),
            send(1, 0, 1, "BFS", 2, 1),
            deliver(2, 0, 1, "BFS", 2, 1),
            deliver(3, 0, 1, "BFS", 1, 0),
        ]);
        let json = report.to_value().to_json_pretty();
        let back = AuditReport::from_value(&serde::from_json_str(&json).unwrap()).unwrap();
        assert_eq!(back, report);
        let md = report.to_markdown();
        assert!(md.contains("fifo-inversion"));
        assert!(md.contains("# Trace audit"));
        let clean = audit_events(&[]).to_markdown();
        assert!(clean.contains("clean"));
    }

    #[test]
    fn rule_labels_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_label(rule.label()), Some(rule));
        }
        assert_eq!(Rule::from_label("nonsense"), None);
    }
}
