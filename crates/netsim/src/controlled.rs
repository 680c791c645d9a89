//! Step-controlled execution: the runtime hook behind the `mdst-check`
//! model checker.
//!
//! The discrete-event simulator ([`crate::ExecutorKind::Sim`]) owns its
//! schedule (a time-ordered event queue); a model checker needs the
//! opposite: the network holds still and an *external* scheduler asks
//! "which events are enabled right now?" and picks exactly one to apply.
//! [`ControlledNet`] is that runtime. It keeps the same network model as
//! the simulator — bidirectional FIFO links, atomic message handlers,
//! crash-stop faults, messages to a crashed node silently lost — but
//! exposes the enabled-event set ([`ControlledNet::enabled_events`] /
//! [`ControlledNet::fault_events`]) and applies one chosen
//! [`ControlledEvent`] at a time, so a driver can branch over *every*
//! delivery interleaving rather than sample one.
//!
//! Two properties make exhaustive exploration practical:
//!
//! * the net is [`Clone`] (for `P: Clone`), so a DFS can snapshot a state
//!   before branching; and
//! * [`ControlledNet::fingerprint`] hashes the complete behavioural state
//!   (node automata, started/crashed flags, per-link FIFO queues) into a
//!   128-bit canonical fingerprint (for `P: Hash`), so revisited states can
//!   be pruned soundly.
//!
//! The event vocabulary is serializable, which is what makes recorded
//! counterexample schedules replayable artifacts.

use crate::message::NetMessage;
use crate::protocol::{Context, Protocol};
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};
use mdst_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One schedulable event of a step-controlled execution.
///
/// `Start` and `Deliver` are the normal protocol events; `Crash` and
/// `Drop` are the optional fault branches (crash-stop a node, lose the
/// head-of-queue message of one link). The enum is serializable so recorded
/// schedules (counterexamples) survive a round trip through JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ControlledEvent {
    /// Wake node up (calls `Protocol::on_start`).
    Start {
        /// The node to start.
        node: NodeId,
    },
    /// Deliver the head-of-queue message of the FIFO link `from → to`.
    Deliver {
        /// Sending endpoint of the link.
        from: NodeId,
        /// Receiving endpoint of the link.
        to: NodeId,
    },
    /// Crash-stop a node: its state freezes, queued and future messages to
    /// it are lost, messages it already sent stay in flight.
    Crash {
        /// The node to crash.
        node: NodeId,
    },
    /// Lose the head-of-queue message of the FIFO link `from → to`
    /// (single-message loss).
    Drop {
        /// Sending endpoint of the link.
        from: NodeId,
        /// Receiving endpoint of the link.
        to: NodeId,
    },
}

impl fmt::Display for ControlledEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlledEvent::Start { node } => write!(f, "start {node}"),
            ControlledEvent::Deliver { from, to } => write!(f, "deliver {from}->{to}"),
            ControlledEvent::Crash { node } => write!(f, "crash {node}"),
            ControlledEvent::Drop { from, to } => write!(f, "drop {from}->{to}"),
        }
    }
}

/// Error applying a [`ControlledEvent`] that is not enabled in the current
/// state (replaying a stale or corrupted schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotEnabled {
    /// The rejected event.
    pub event: ControlledEvent,
    /// Why it is not enabled.
    pub reason: String,
}

impl fmt::Display for NotEnabled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event `{}` is not enabled: {}", self.event, self.reason)
    }
}

impl std::error::Error for NotEnabled {}

/// How nodes wake up in a controlled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartDiscipline {
    /// Every node's `on_start` runs during construction, in id order, before
    /// any delivery. Sound whenever spontaneous wake-ups commute (e.g. the
    /// MDegST improvement, where only the initial root acts on start), and
    /// it avoids branching over 2^n no-op start orders.
    #[default]
    Eager,
    /// Starts are explicit [`ControlledEvent::Start`] events the scheduler
    /// interleaves with deliveries — the fully general (and far more
    /// expensive) discipline, for protocols whose wake-up order matters.
    /// A message arriving at a never-started node still triggers `on_start`
    /// first, matching the simulator's convention.
    Lazy,
}

struct CtlCtx<'a, M> {
    id: NodeId,
    neighbors: &'a [NodeId],
    network_size: usize,
    outbox: Vec<(NodeId, M)>,
}

impl<M: crate::message::NetMessage> Context<M> for CtlCtx<'_, M> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }
    fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "protocol bug: {} tried to send {:?} to non-neighbour {}",
            self.id,
            msg,
            to
        );
        self.outbox.push((to, msg));
    }
    fn network_size(&self) -> usize {
        self.network_size
    }
}

/// One in-flight message with its trace identity. The ids are sentinel
/// zeros when the net is not recording a trace, so untraced explorations
/// carry no extra bookkeeping beyond two dead `u64`s per message.
#[derive(Debug, Clone)]
struct Flight<M> {
    msg: M,
    msg_id: u64,
    seq: u64,
}

/// A step-controlled network execution. See the module documentation.
pub struct ControlledNet<P: Protocol> {
    graph: Arc<Graph>,
    nodes: Vec<P>,
    started: Vec<bool>,
    crashed: Vec<bool>,
    /// Per-directed-link FIFO queues; only non-empty queues are present, so
    /// the map itself is part of the canonical state.
    queues: BTreeMap<(NodeId, NodeId), VecDeque<Flight<P::Message>>>,
    discipline: StartDiscipline,
    delivered: u64,
    dropped: u64,
    trace: TraceRecorder,
    /// Logical clock for trace stamps: bumped once per recorded event, so a
    /// controlled trace is totally ordered by the order events were applied.
    clock: u64,
    next_msg_id: u64,
    link_seq: BTreeMap<(NodeId, NodeId), u64>,
}

impl<P: Protocol + Clone> Clone for ControlledNet<P>
where
    P::Message: Clone,
{
    fn clone(&self) -> Self {
        ControlledNet {
            graph: Arc::clone(&self.graph),
            nodes: self.nodes.clone(),
            started: self.started.clone(),
            crashed: self.crashed.clone(),
            queues: self.queues.clone(),
            discipline: self.discipline,
            delivered: self.delivered,
            dropped: self.dropped,
            trace: self.trace.clone(),
            clock: self.clock,
            next_msg_id: self.next_msg_id,
            link_seq: self.link_seq.clone(),
        }
    }
}

impl<P: Protocol> ControlledNet<P> {
    /// Creates a controlled execution of one protocol instance per node.
    /// Under [`StartDiscipline::Eager`] every node is started immediately
    /// (in id order); under [`StartDiscipline::Lazy`] starts become
    /// schedulable events.
    pub fn new(
        graph: &Arc<Graph>,
        discipline: StartDiscipline,
        factory: impl FnMut(NodeId, &[NodeId]) -> P,
    ) -> Self {
        Self::new_traced(graph, discipline, false, factory)
    }

    /// Like [`ControlledNet::new`], optionally recording an auditable
    /// execution trace. When `record_trace` is set every send, delivery,
    /// drop and crash applied through the net is stamped (logical clock,
    /// run-unique message id, per-directed-link sequence number) exactly
    /// like the other backends, so a scheduler-driven interleaving can be
    /// fed to the `mdst-analysis` happens-before auditor.
    pub fn new_traced(
        graph: &Arc<Graph>,
        discipline: StartDiscipline,
        record_trace: bool,
        mut factory: impl FnMut(NodeId, &[NodeId]) -> P,
    ) -> Self {
        let n = graph.node_count();
        let nodes = (0..n)
            .map(|u| factory(NodeId::new(u), graph.neighbor_slice(NodeId::new(u))))
            .collect();
        let mut net = ControlledNet {
            graph: Arc::clone(graph),
            nodes,
            started: vec![false; n],
            crashed: vec![false; n],
            queues: BTreeMap::new(),
            discipline,
            delivered: 0,
            dropped: 0,
            trace: if record_trace {
                TraceRecorder::enabled()
            } else {
                TraceRecorder::disabled()
            },
            clock: 0,
            next_msg_id: 1,
            link_seq: BTreeMap::new(),
        };
        if discipline == StartDiscipline::Eager {
            for u in 0..n {
                net.start_node(NodeId::new(u));
            }
        }
        net
    }

    /// The execution trace recorded so far (disabled unless the net was
    /// built with [`ControlledNet::new_traced`]).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Consumes the net and returns the recorded trace.
    pub fn into_trace(self) -> TraceRecorder {
        self.trace
    }

    /// Draws the next logical stamp and records one trace event (no-op when
    /// the recorder is disabled; the clock still has to advance only when
    /// recording, so gate the call on [`TraceRecorder::is_enabled`]).
    fn record(
        &mut self,
        kind: TraceEventKind,
        from: NodeId,
        to: NodeId,
        label: &'static str,
        ids: (u64, u64),
    ) {
        if !self.trace.is_enabled() {
            return;
        }
        let time = self.clock;
        self.clock += 1;
        self.trace.record(TraceEvent {
            time,
            kind,
            from,
            to,
            message_kind: label.into(),
            msg_id: ids.0,
            seq: ids.1,
        });
    }

    /// The shared topology.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The node automata (crashed nodes keep their frozen state).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Which nodes have crash-stopped.
    pub fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    /// Which nodes have started.
    pub fn started(&self) -> &[bool] {
        &self.started
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages lost so far (explicit drops, crash purges and sends to
    /// already-crashed nodes).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of in-flight messages across all links.
    pub fn in_flight(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// The protocol events enabled in this state, in a deterministic order:
    /// pending starts (lazy discipline only, by node id), then one delivery
    /// per non-empty link (head of the FIFO queue, by `(from, to)`).
    pub fn enabled_events(&self) -> Vec<ControlledEvent> {
        let mut events = Vec::new();
        if self.discipline == StartDiscipline::Lazy {
            for u in 0..self.nodes.len() {
                if !self.started[u] && !self.crashed[u] {
                    events.push(ControlledEvent::Start {
                        node: NodeId::new(u),
                    });
                }
            }
        }
        for &(from, to) in self.queues.keys() {
            events.push(ControlledEvent::Deliver { from, to });
        }
        events
    }

    /// The fault branches available in this state, in a deterministic
    /// order: crash any live node (by id), then lose any head-of-queue
    /// message (by link). The caller decides whether its fault budget
    /// admits them; the net itself never injects faults.
    pub fn fault_events(&self) -> Vec<ControlledEvent> {
        let mut events = Vec::new();
        for u in 0..self.nodes.len() {
            if !self.crashed[u] {
                events.push(ControlledEvent::Crash {
                    node: NodeId::new(u),
                });
            }
        }
        for &(from, to) in self.queues.keys() {
            events.push(ControlledEvent::Drop { from, to });
        }
        events
    }

    /// Whether no protocol event is enabled (the network is quiescent).
    pub fn is_quiescent(&self) -> bool {
        self.enabled_events().is_empty()
    }

    /// Whether every non-crashed node reports local termination.
    pub fn all_live_terminated(&self) -> bool {
        self.nodes
            .iter()
            .zip(&self.crashed)
            .all(|(p, &dead)| dead || p.is_terminated())
    }

    /// Applies one event, which must be enabled in the current state.
    pub fn apply(&mut self, event: ControlledEvent) -> Result<(), NotEnabled> {
        let fail = |reason: &str| NotEnabled {
            event,
            reason: reason.to_string(),
        };
        match event {
            ControlledEvent::Start { node } => {
                if self.discipline != StartDiscipline::Lazy {
                    return Err(fail("starts are implicit under the eager discipline"));
                }
                let u = node.index();
                if u >= self.nodes.len() {
                    return Err(fail("no such node"));
                }
                if self.started[u] {
                    return Err(fail("already started"));
                }
                if self.crashed[u] {
                    return Err(fail("node has crashed"));
                }
                self.start_node(node);
                Ok(())
            }
            ControlledEvent::Deliver { from, to } => {
                let flight = self
                    .queues
                    .get_mut(&(from, to))
                    .and_then(VecDeque::pop_front)
                    .ok_or_else(|| fail("no message in flight on this link"))?;
                if self.queues[&(from, to)].is_empty() {
                    self.queues.remove(&(from, to));
                }
                self.delivered += 1;
                let Flight { msg, msg_id, seq } = flight;
                self.record(TraceEventKind::Deliver, from, to, msg.kind(), (msg_id, seq));
                // A message reaching a never-started node wakes it first,
                // matching the simulator's convention.
                if !self.started[to.index()] {
                    self.start_node(to);
                }
                let mut ctx = CtlCtx {
                    id: to,
                    neighbors: self.graph.neighbor_slice(to),
                    network_size: self.nodes.len(),
                    outbox: Vec::new(),
                };
                self.nodes[to.index()].on_message(from, msg, &mut ctx);
                let outbox = ctx.outbox;
                self.enqueue_outbox(to, outbox);
                Ok(())
            }
            ControlledEvent::Crash { node } => {
                let u = node.index();
                if u >= self.nodes.len() {
                    return Err(fail("no such node"));
                }
                if self.crashed[u] {
                    return Err(fail("already crashed"));
                }
                self.crashed[u] = true;
                self.record(TraceEventKind::Crash, node, node, "crash", (0, 0));
                // Messages to a corpse can never be observed: purge them now
                // so they do not inflate the state space. Messages *from* the
                // node stay in flight (they were sent before the crash).
                let doomed: Vec<(NodeId, NodeId)> = self
                    .queues
                    .keys()
                    .filter(|&&(_, to)| to == node)
                    .copied()
                    .collect();
                for key in doomed {
                    if let Some(q) = self.queues.remove(&key) {
                        self.dropped += q.len() as u64;
                        for flight in q {
                            self.record(
                                TraceEventKind::Drop,
                                key.0,
                                key.1,
                                flight.msg.kind(),
                                (flight.msg_id, flight.seq),
                            );
                        }
                    }
                }
                Ok(())
            }
            ControlledEvent::Drop { from, to } => {
                let flight = self
                    .queues
                    .get_mut(&(from, to))
                    .and_then(VecDeque::pop_front)
                    .ok_or_else(|| fail("no message in flight on this link"))?;
                if self.queues[&(from, to)].is_empty() {
                    self.queues.remove(&(from, to));
                }
                self.dropped += 1;
                self.record(
                    TraceEventKind::Drop,
                    from,
                    to,
                    flight.msg.kind(),
                    (flight.msg_id, flight.seq),
                );
                Ok(())
            }
        }
    }

    fn start_node(&mut self, node: NodeId) {
        let u = node.index();
        debug_assert!(!self.started[u] && !self.crashed[u]);
        self.started[u] = true;
        let mut ctx = CtlCtx {
            id: node,
            neighbors: self.graph.neighbor_slice(node),
            network_size: self.nodes.len(),
            outbox: Vec::new(),
        };
        self.nodes[u].on_start(&mut ctx);
        let outbox = ctx.outbox;
        self.enqueue_outbox(node, outbox);
    }

    fn enqueue_outbox(&mut self, from: NodeId, outbox: Vec<(NodeId, P::Message)>) {
        for (to, msg) in outbox {
            let (msg_id, seq) = if self.trace.is_enabled() {
                let id = self.next_msg_id;
                self.next_msg_id += 1;
                let slot = self.link_seq.entry((from, to)).or_insert(0);
                let seq = *slot;
                *slot += 1;
                (id, seq)
            } else {
                (0, 0)
            };
            self.record(TraceEventKind::Send, from, to, msg.kind(), (msg_id, seq));
            if self.crashed[to.index()] {
                self.dropped += 1;
                self.record(TraceEventKind::Drop, from, to, msg.kind(), (msg_id, seq));
                continue;
            }
            self.queues
                .entry((from, to))
                .or_default()
                .push_back(Flight { msg, msg_id, seq });
        }
    }
}

impl<P: Protocol + Hash> ControlledNet<P>
where
    P::Message: Hash,
{
    /// Canonical 128-bit fingerprint of the behavioural state: node automata,
    /// started/crashed flags and the per-link in-flight queues. Two states
    /// with equal fingerprints behave identically on every future schedule
    /// (up to hash collisions, which the 128-bit width makes negligible at
    /// model-checking scale), so a checker may prune revisits on it. The
    /// delivery/drop counters are deliberately excluded — they do not affect
    /// future behaviour.
    pub fn fingerprint(&self) -> u128 {
        let mut lo = std::collections::hash_map::DefaultHasher::new();
        let mut hi = std::collections::hash_map::DefaultHasher::new();
        // Distinct prefixes decorrelate the two 64-bit halves.
        lo.write_u8(0x1d);
        hi.write_u8(0xb2);
        for h in [&mut lo, &mut hi] {
            self.started.hash(h);
            self.crashed.hash(h);
            self.nodes.len().hash(h);
            for node in &self.nodes {
                node.hash(h);
            }
            self.queues.len().hash(h);
            for ((from, to), q) in &self.queues {
                from.hash(h);
                to.hash(h);
                q.len().hash(h);
                // Only the message content is behavioural state; the trace
                // identities (msg_id/seq) differ between schedules that reach
                // the same state and must not split the fingerprint.
                for flight in q {
                    flight.msg.hash(h);
                }
            }
        }
        ((lo.finish() as u128) << 64) | hi.finish() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::bits::message_bits;
    use crate::message::NetMessage;
    use mdst_graph::generators;

    /// Token-passing toy protocol: node 0 emits a token on start; every
    /// receiver forwards it to its successor (mod n) until it has gone
    /// around once.
    #[derive(Debug, Clone, Hash, PartialEq, Eq)]
    struct Token(u32);

    impl NetMessage for Token {
        fn kind(&self) -> &'static str {
            "Token"
        }
        fn encoded_bits(&self) -> usize {
            message_bits(8, 1)
        }
    }

    #[derive(Debug, Clone, Hash)]
    struct Ring {
        id: NodeId,
        n: usize,
        seen: bool,
    }

    impl Ring {
        fn next(&self) -> NodeId {
            NodeId::new((self.id.index() + 1) % self.n)
        }
    }

    impl Protocol for Ring {
        type Message = Token;
        fn on_start(&mut self, ctx: &mut impl Context<Token>) {
            if self.id == NodeId(0) {
                let next = self.next();
                ctx.send(next, Token(0));
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
            self.seen = true;
            if self.next() != NodeId(0) || msg.0 == 0 {
                // Forward until the token returns to its origin's successor.
                if msg.0 + 1 < self.n as u32 {
                    let next = self.next();
                    ctx.send(next, Token(msg.0 + 1));
                }
            }
        }
        fn is_terminated(&self) -> bool {
            self.seen
        }
    }

    fn ring(n: usize) -> (Arc<Graph>, ControlledNet<Ring>) {
        let graph = Arc::new(generators::cycle(n).unwrap());
        let net = ControlledNet::new(&graph, StartDiscipline::Eager, |id, _| Ring {
            id,
            n,
            seen: false,
        });
        (graph, net)
    }

    #[test]
    fn eager_start_enqueues_the_initiators_messages() {
        let (_, net) = ring(4);
        assert_eq!(net.in_flight(), 1);
        let events = net.enabled_events();
        assert_eq!(
            events,
            vec![ControlledEvent::Deliver {
                from: NodeId(0),
                to: NodeId(1)
            }]
        );
        assert!(!net.is_quiescent());
    }

    #[test]
    fn token_ring_quiesces_under_the_only_schedule() {
        let (_, mut net) = ring(4);
        let mut steps = 0;
        while let Some(&event) = net.enabled_events().first() {
            net.apply(event).unwrap();
            steps += 1;
            assert!(steps < 10, "ring must quiesce");
        }
        assert!(net.is_quiescent());
        assert_eq!(net.delivered(), 3);
        assert!(net.nodes().iter().skip(1).all(|p| p.seen));
    }

    #[test]
    fn lazy_discipline_exposes_starts_as_events() {
        let graph = Arc::new(generators::cycle(3).unwrap());
        let mut net = ControlledNet::new(&graph, StartDiscipline::Lazy, |id, _| Ring {
            id,
            n: 3,
            seen: false,
        });
        let events = net.enabled_events();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], ControlledEvent::Start { node } if node == NodeId(0)));
        // Starting node 1 first is a no-op; node 0 then emits the token.
        net.apply(ControlledEvent::Start { node: NodeId(1) })
            .unwrap();
        assert_eq!(net.in_flight(), 0);
        net.apply(ControlledEvent::Start { node: NodeId(0) })
            .unwrap();
        assert_eq!(net.in_flight(), 1);
        // A delivery to the never-started node 2 wakes it implicitly... but
        // first the token must reach it; deliver 0->1 then 1->2.
        net.apply(ControlledEvent::Deliver {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        net.apply(ControlledEvent::Deliver {
            from: NodeId(1),
            to: NodeId(2),
        })
        .unwrap();
        assert!(net.started()[2], "delivery wakes a never-started node");
        // Replaying a consumed start is rejected.
        let err = net
            .apply(ControlledEvent::Start { node: NodeId(0) })
            .unwrap_err();
        assert!(err.to_string().contains("already started"));
    }

    #[test]
    fn fifo_order_is_preserved_per_link() {
        // A protocol that sends two tokens over the same link must see them
        // delivered in order.
        #[derive(Debug, Clone, Hash)]
        struct Burst {
            id: NodeId,
            got: Vec<u32>,
        }
        impl Protocol for Burst {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                if self.id == NodeId(0) {
                    ctx.send(NodeId(1), Token(1));
                    ctx.send(NodeId(1), Token(2));
                }
            }
            fn on_message(&mut self, _f: NodeId, msg: Token, _c: &mut impl Context<Token>) {
                self.got.push(msg.0);
            }
        }
        let graph = Arc::new(generators::path(2).unwrap());
        let mut net = ControlledNet::new(&graph, StartDiscipline::Eager, |id, _| Burst {
            id,
            got: Vec::new(),
        });
        assert_eq!(net.in_flight(), 2);
        // Only one delivery event is enabled for the link: its queue head.
        assert_eq!(net.enabled_events().len(), 1);
        let d = ControlledEvent::Deliver {
            from: NodeId(0),
            to: NodeId(1),
        };
        net.apply(d).unwrap();
        net.apply(d).unwrap();
        assert_eq!(net.nodes()[1].got, vec![1, 2]);
        let err = net.apply(d).unwrap_err();
        assert!(err.to_string().contains("no message in flight"));
    }

    #[test]
    fn crash_purges_incoming_queues_and_swallows_future_sends() {
        let (_, mut net) = ring(4);
        assert_eq!(net.in_flight(), 1);
        net.apply(ControlledEvent::Crash { node: NodeId(1) })
            .unwrap();
        assert_eq!(net.in_flight(), 0, "queued message to the corpse purged");
        assert_eq!(net.dropped(), 1);
        assert!(net.is_quiescent());
        assert!(!net.all_live_terminated(), "live nodes never saw the token");
        // Crashing twice is rejected.
        assert!(net
            .apply(ControlledEvent::Crash { node: NodeId(1) })
            .is_err());
    }

    #[test]
    fn drop_loses_exactly_the_head_of_one_link() {
        let (_, mut net) = ring(5);
        net.apply(ControlledEvent::Drop {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        assert_eq!(net.dropped(), 1);
        assert!(net.is_quiescent(), "the token is gone; nothing else moves");
    }

    #[test]
    fn fingerprints_agree_on_confluent_states_and_differ_otherwise() {
        // Two independent in-flight messages: delivering them in either
        // order reaches the same state, and the fingerprints agree.
        #[derive(Debug, Clone, Hash)]
        struct TwoWay {
            id: NodeId,
            got: u32,
        }
        impl Protocol for TwoWay {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                if self.id == NodeId(1) {
                    ctx.send(NodeId(0), Token(7));
                    ctx.send(NodeId(2), Token(9));
                }
            }
            fn on_message(&mut self, _f: NodeId, msg: Token, _c: &mut impl Context<Token>) {
                self.got += msg.0;
            }
        }
        let graph = Arc::new(generators::path(3).unwrap());
        let make = || {
            ControlledNet::new(&graph, StartDiscipline::Eager, |id, _| TwoWay {
                id,
                got: 0,
            })
        };
        let (a_first, b_first) = (make(), make());
        let d01 = ControlledEvent::Deliver {
            from: NodeId(1),
            to: NodeId(0),
        };
        let d12 = ControlledEvent::Deliver {
            from: NodeId(1),
            to: NodeId(2),
        };
        let mut a = a_first;
        a.apply(d01).unwrap();
        let mid_a = a.fingerprint();
        a.apply(d12).unwrap();
        let mut b = b_first;
        b.apply(d12).unwrap();
        let mid_b = b.fingerprint();
        b.apply(d01).unwrap();
        assert_ne!(mid_a, mid_b, "intermediate states differ");
        assert_eq!(a.fingerprint(), b.fingerprint(), "final states coincide");
    }

    #[test]
    fn traced_controlled_run_records_identified_events() {
        let graph = Arc::new(generators::cycle(4).unwrap());
        let mut net =
            ControlledNet::new_traced(&graph, StartDiscipline::Eager, true, |id, _| Ring {
                id,
                n: 4,
                seen: false,
            });
        while let Some(&event) = net.enabled_events().first() {
            net.apply(event).unwrap();
        }
        let trace = net.into_trace();
        assert!(trace.is_enabled());
        let sends: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Send)
            .collect();
        let delivers: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Deliver)
            .collect();
        assert_eq!(sends.len(), 3);
        assert_eq!(delivers.len(), 3);
        // Every message id is unique, nonzero, and echoed by its delivery,
        // which is stamped strictly later.
        for d in &delivers {
            let s = sends.iter().find(|s| s.msg_id == d.msg_id).unwrap();
            assert!(s.msg_id > 0);
            assert!(s.time < d.time, "send happens before its delivery");
            assert_eq!(s.seq, d.seq);
            assert_eq!((s.from, s.to), (d.from, d.to));
        }
        // Stamps are unique and increasing in recorded order.
        let times: Vec<u64> = trace.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn untraced_net_keeps_sentinel_ids_and_a_disabled_recorder() {
        let (_, mut net) = ring(3);
        assert!(!net.trace().is_enabled());
        while let Some(&event) = net.enabled_events().first() {
            net.apply(event).unwrap();
        }
        assert!(net.trace().events().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn sending_to_a_non_neighbour_panics() {
        // On the path 0 - 1 - 2, node 1 answers node 0's token, and node 0
        // answers by addressing node 2, which is not its neighbour.
        #[derive(Debug, Clone, Hash)]
        struct Bad;
        impl Protocol for Bad {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), Token(0));
                }
            }
            fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
                let to = if ctx.id() == NodeId(1) {
                    from
                } else {
                    NodeId(2)
                };
                ctx.send(to, Token(msg.0 + 1));
            }
        }
        let graph = Arc::new(generators::path(3).unwrap());
        let mut net = ControlledNet::new(&graph, StartDiscipline::Eager, |_, _| Bad);
        for from in [NodeId(0), NodeId(1)] {
            let to = NodeId::new(1 - from.index());
            net.apply(ControlledEvent::Deliver { from, to }).unwrap();
        }
    }

    #[test]
    fn clone_snapshots_are_independent() {
        let (_, mut net) = ring(4);
        let snapshot = net.clone();
        let before = snapshot.fingerprint();
        net.apply(ControlledEvent::Deliver {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        assert_eq!(snapshot.fingerprint(), before, "snapshot is unaffected");
        assert_ne!(net.fingerprint(), before);
    }
}
