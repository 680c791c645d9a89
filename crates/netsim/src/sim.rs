//! Deterministic discrete-event simulator.
//!
//! The simulator executes a [`Protocol`] on every node of a communication
//! graph under the model of §2 of the paper: asynchronous, event-driven,
//! FIFO bidirectional links, nodes started independently (possibly at
//! different times). It is completely deterministic for a given configuration,
//! which makes the experiment tables reproducible and lets property tests
//! shrink failures.
//!
//! Time is a `u64` clock that only the simulator sees; protocols never observe
//! it (they are event-driven, exactly as the paper requires). The
//! [`Metrics`] produced at quiescence contain both the delay-model-dependent
//! clock and the delay-independent causal-chain length the paper calls "time
//! complexity".

use crate::cancel::CancelToken;
use crate::delay::{DelayModel, DelaySampler};
use crate::fault::FaultPlan;
use crate::message::NetMessage;
use crate::metrics::Metrics;
use crate::protocol::{Context, Protocol};
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};
use mdst_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

/// When each node spontaneously wakes up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum StartModel {
    /// Every node wakes up at time zero.
    #[default]
    Simultaneous,
    /// Every node wakes up at an independent uniformly random time in
    /// `[0, max_offset]`, reproducibly derived from `seed`.
    Staggered {
        /// Largest possible wake-up time.
        max_offset: u64,
        /// Seed of the wake-up schedule.
        seed: u64,
    },
    /// Only the listed nodes wake up spontaneously (the rest are woken by the
    /// first message they receive — useful for single-initiator protocols).
    Selected(Vec<NodeId>),
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Link delay model.
    pub delay: DelayModel,
    /// Wake-up schedule.
    pub start: StartModel,
    /// Hard cap on processed events; exceeding it aborts the run with
    /// [`SimError::EventLimitExceeded`] (a non-termination guard for tests).
    pub max_events: u64,
    /// Whether to keep a full [`TraceRecorder`] of sends and deliveries.
    pub record_trace: bool,
    /// Faults injected into the run (message loss, node crashes, link cuts).
    /// The default plan is benign: nothing is injected and the simulator
    /// behaves exactly as it would without a fault layer.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            delay: DelayModel::Unit,
            start: StartModel::Simultaneous,
            max_events: 50_000_000,
            record_trace: false,
            faults: FaultPlan::none(),
        }
    }
}

/// Errors the simulator can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event cap was hit before the network became quiescent.
    EventLimitExceeded {
        /// The configured cap.
        limit: u64,
    },
    /// The configuration is inconsistent with the simulated graph (start list
    /// out of range or empty, degenerate delay range, bad fault plan, …).
    InvalidConfig(String),
    /// A [`CancelToken`] installed via [`Simulator::set_cancel`] was raised;
    /// the run stopped at an event boundary with its state intact.
    Cancelled,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded before quiescence")
            }
            SimError::InvalidConfig(why) => write!(f, "invalid simulator config: {why}"),
            SimError::Cancelled => write!(f, "run cancelled before quiescence"),
        }
    }
}

impl std::error::Error for SimError {}

/// What a scheduled event does when it fires.
#[derive(Debug, Clone)]
enum EventKind<M> {
    /// Spontaneous wake-up of the node.
    Start,
    /// Delivery of a message.
    Message {
        from: NodeId,
        msg: M,
        causal_depth: u64,
        /// Run-unique message identity assigned at send time (see
        /// [`crate::trace::TraceEvent::msg_id`]).
        msg_id: u64,
        /// Per-sender per-directed-link sequence number assigned at send time
        /// (see [`crate::trace::TraceEvent::seq`]).
        link_seq: u64,
    },
    /// Crash-stop of the node (fault injection).
    Crash,
}

#[derive(Debug, Clone)]
struct Event<M> {
    time: u64,
    seq: u64,
    to: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Context handed to a protocol while it processes one event: sends are
/// buffered and scheduled by the simulator after the handler returns.
struct SimCtx<'a, M> {
    id: NodeId,
    neighbors: &'a [NodeId],
    network_size: usize,
    outbox: Vec<(NodeId, M)>,
}

impl<M: NetMessage> Context<M> for SimCtx<'_, M> {
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

/// The discrete-event simulator. See the module documentation.
pub struct Simulator<P: Protocol> {
    nodes: Vec<P>,
    /// Shared, immutable topology. Neighbour lists are borrowed straight out
    /// of the graph's CSR rows — the simulator materialises no adjacency of
    /// its own, so thousands of runs can share one `Arc<Graph>`.
    graph: Arc<Graph>,
    queue: BinaryHeap<Event<P::Message>>,
    seq: u64,
    clock: u64,
    processed_events: u64,
    started: Vec<bool>,
    /// Nodes that have crash-stopped (fault injection); a crashed node
    /// processes no events and every message addressed to it is dropped.
    crashed: Vec<bool>,
    sampler: DelaySampler,
    /// Loss coin stream, present only when the fault plan has `loss > 0`
    /// (so benign runs draw no extra randomness at all).
    loss_rng: Option<SmallRng>,
    /// Cut time per directed link (both directions of every scheduled cut).
    cut_at: HashMap<(usize, usize), u64>,
    /// Last scheduled delivery time per directed link, used to keep links FIFO
    /// even under non-monotone random delays.
    link_last_delivery: HashMap<(usize, usize), u64>,
    /// Next run-unique message id (ids start at 1; 0 is the "no message"
    /// sentinel on crash trace events). Only advanced while tracing.
    next_msg_id: u64,
    /// Next per-directed-link send sequence number. Only maintained while
    /// tracing (the FIFO order itself is enforced by `link_last_delivery`).
    link_seq: HashMap<(usize, usize), u64>,
    metrics: Metrics,
    trace: TraceRecorder,
    config: SimConfig,
    /// Cooperative cancellation flag, polled between events in [`Simulator::run`]
    /// (absent on uncontrolled runs, which then pay no atomic loads at all).
    cancel: Option<CancelToken>,
}

impl<P: Protocol> Simulator<P> {
    /// Builds a simulator for `graph`, creating one protocol instance per node
    /// through `factory` (which receives the node's identity and its sorted
    /// neighbour list).
    ///
    /// The configuration is validated against the graph up front:
    /// [`StartModel::Selected`] lists must be non-empty and in range, the
    /// delay model must satisfy its documented `1 ≤ min ≤ max` contract, and
    /// the fault plan must reference existing nodes and edges. Violations
    /// return [`SimError::InvalidConfig`] instead of panicking (or silently
    /// succeeding) deep inside [`Simulator::step`].
    pub fn new(
        graph: &Arc<Graph>,
        config: SimConfig,
        mut factory: impl FnMut(NodeId, &[NodeId]) -> P,
    ) -> Result<Self, SimError> {
        Self::validate_config(graph, &config)?;
        let n = graph.node_count();
        let nodes: Vec<P> = (0..n)
            .map(|u| factory(NodeId::new(u), graph.neighbor_slice(NodeId::new(u))))
            .collect();
        let trace = if config.record_trace {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        };
        let sampler = config.delay.sampler();
        let loss_rng = if config.faults.loss > 0.0 {
            Some(SmallRng::seed_from_u64(config.faults.seed))
        } else {
            None
        };
        let mut cut_at = HashMap::new();
        for cut in &config.faults.cuts {
            let (a, b) = (cut.a.index(), cut.b.index());
            for key in [(a, b), (b, a)] {
                let entry = cut_at.entry(key).or_insert(cut.at);
                *entry = (*entry).min(cut.at);
            }
        }
        let mut sim = Simulator {
            nodes,
            graph: Arc::clone(graph),
            queue: BinaryHeap::new(),
            seq: 0,
            clock: 0,
            processed_events: 0,
            started: vec![false; n],
            crashed: vec![false; n],
            sampler,
            loss_rng,
            cut_at,
            link_last_delivery: HashMap::new(),
            next_msg_id: 1,
            link_seq: HashMap::new(),
            metrics: Metrics::new(n),
            trace,
            config,
            cancel: None,
        };
        sim.schedule_crashes();
        sim.schedule_starts();
        Ok(sim)
    }

    fn validate_config(graph: &Graph, config: &SimConfig) -> Result<(), SimError> {
        config.delay.validate().map_err(SimError::InvalidConfig)?;
        if let StartModel::Selected(list) = &config.start {
            if list.is_empty() {
                return Err(SimError::InvalidConfig(
                    "StartModel::Selected with an empty list: no node would ever \
                     wake up, the run would be a silent no-op"
                        .to_string(),
                ));
            }
            let n = graph.node_count();
            for &node in list {
                if node.index() >= n {
                    return Err(SimError::InvalidConfig(format!(
                        "StartModel::Selected references node {node} but the \
                         graph has {n} nodes"
                    )));
                }
            }
        }
        config
            .faults
            .validate(graph)
            .map_err(SimError::InvalidConfig)
    }

    /// Crash events go into the queue before the start events, so a crash and
    /// a start scheduled at the same instant resolve as crash-first.
    fn schedule_crashes(&mut self) {
        let crashes = self.config.faults.crashes.clone();
        for crash in crashes {
            let seq = self.next_seq();
            self.queue.push(Event {
                time: crash.at,
                seq,
                to: crash.node,
                kind: EventKind::Crash,
            });
        }
    }

    fn schedule_starts(&mut self) {
        let n = self.nodes.len();
        let starts: Vec<(NodeId, u64)> = match &self.config.start {
            StartModel::Simultaneous => (0..n).map(|u| (NodeId::new(u), 0)).collect(),
            StartModel::Staggered { max_offset, seed } => {
                let mut rng = SmallRng::seed_from_u64(*seed);
                (0..n)
                    .map(|u| (NodeId::new(u), rng.gen_range(0..=*max_offset)))
                    .collect()
            }
            StartModel::Selected(list) => list.iter().map(|&u| (u, 0)).collect(),
        };
        for (node, time) in starts {
            let seq = self.next_seq();
            self.queue.push(Event {
                time,
                seq,
                to: node,
                kind: EventKind::Start,
            });
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Number of nodes in the simulated network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shared topology this simulator runs on.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Immutable access to a node's protocol state (for assertions and
    /// extracting results after a run).
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// Immutable access to every node.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace recorded so far (empty unless `record_trace` was set).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// The current simulated clock.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Consumes the simulator, returning the node states and the metrics.
    pub fn into_parts(self) -> (Vec<P>, Metrics, TraceRecorder) {
        (self.nodes, self.metrics, self.trace)
    }

    /// Processes a single event. Returns `false` when the queue is empty
    /// (quiescence reached).
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.clock = self.clock.max(event.time);
        self.processed_events += 1;
        let to = event.to;
        // Crash events flip the crash flag and nothing else; they do not count
        // as protocol activity, so they leave `quiescence_time` alone.
        if matches!(event.kind, EventKind::Crash) {
            if !self.crashed[to.index()] {
                self.crashed[to.index()] = true;
                self.metrics.record_crash();
                if self.trace.is_enabled() {
                    self.trace.record(TraceEvent {
                        time: event.time,
                        kind: TraceEventKind::Crash,
                        from: to,
                        to,
                        message_kind: "Crash".into(),
                        msg_id: 0,
                        seq: 0,
                    });
                }
            }
            return true;
        }
        // A crashed node processes nothing; messages addressed to it are lost.
        if self.crashed[to.index()] {
            if let EventKind::Message {
                from,
                msg,
                msg_id,
                link_seq,
                ..
            } = &event.kind
            {
                // The network carried the message until now, so the delivery
                // attempt still advances the quiescence clock; a start event
                // of a corpse is a pure no-op and does not.
                self.metrics.record_activity(event.time);
                self.metrics.record_drop();
                if self.trace.is_enabled() {
                    self.trace.record(TraceEvent {
                        time: event.time,
                        kind: TraceEventKind::Drop,
                        from: *from,
                        to,
                        message_kind: msg.kind().into(),
                        msg_id: *msg_id,
                        seq: *link_seq,
                    });
                }
            }
            return true;
        }
        // Starts and deliveries are protocol activity: the quiescence clock
        // follows every one of them, so staggered-start and message-free runs
        // report the true final clock (not just the last delivery time).
        self.metrics.record_activity(event.time);
        let (causal_depth, sends) = {
            // Split borrows: the node is taken from `nodes`, the neighbour
            // slice straight from the shared graph; both are disjoint fields.
            let mut ctx = SimCtx {
                id: to,
                neighbors: self.graph.neighbor_slice(to),
                network_size: self.nodes.len(),
                outbox: Vec::new(),
            };
            let node = &mut self.nodes[to.index()];
            let depth = match event.kind {
                EventKind::Start => {
                    if self.started[to.index()] {
                        // A node never starts twice.
                        return true;
                    }
                    self.started[to.index()] = true;
                    node.on_start(&mut ctx);
                    0
                }
                EventKind::Message {
                    from,
                    msg,
                    causal_depth,
                    msg_id,
                    link_seq,
                } => {
                    // A message wakes up a node that has not spontaneously
                    // started yet (the standard convention for asynchronous
                    // wake-up): deliver the start first.
                    if !self.started[to.index()] {
                        self.started[to.index()] = true;
                        node.on_start(&mut ctx);
                    }
                    self.metrics.record_delivery(
                        from.index(),
                        to.index(),
                        msg.kind(),
                        msg.encoded_bits(),
                        causal_depth,
                        event.time,
                    );
                    if self.trace.is_enabled() {
                        self.trace.record(TraceEvent {
                            time: event.time,
                            kind: TraceEventKind::Deliver,
                            from,
                            to,
                            message_kind: msg.kind().into(),
                            msg_id,
                            seq: link_seq,
                        });
                    }
                    node.on_message(from, msg, &mut ctx);
                    causal_depth
                }
                EventKind::Crash => unreachable!("crash events return before the handler"),
            };
            (depth, ctx.outbox)
        };
        // Schedule the buffered sends, dropping the ones fault injection eats.
        let now = event.time;
        for (target, msg) in sends {
            let key = (to.index(), target.index());
            // Message identities only exist for auditable traces: a benign
            // untraced run allocates nothing and the ids stay at the sentinel.
            let (msg_id, link_seq) = if self.trace.is_enabled() {
                let id = self.next_msg_id;
                self.next_msg_id += 1;
                let seq_slot = self.link_seq.entry(key).or_insert(0);
                let seq = *seq_slot;
                *seq_slot += 1;
                (id, seq)
            } else {
                (0, 0)
            };
            if self.trace.is_enabled() {
                self.trace.record(TraceEvent {
                    time: now,
                    kind: TraceEventKind::Send,
                    from: to,
                    to: target,
                    message_kind: msg.kind().into(),
                    msg_id,
                    seq: link_seq,
                });
            }
            // A cut link eats every send at or after the cut time (messages
            // already in flight are still delivered).
            let cut = self
                .cut_at
                .get(&key)
                .is_some_and(|&cut_time| now >= cut_time);
            // Then the loss coin (a cut send burns no coin). Dropped sends
            // consume neither a delay sample nor a FIFO slot, so the
            // surviving traffic keeps its per-link FIFO ordering.
            let lost = cut
                || self
                    .loss_rng
                    .as_mut()
                    .is_some_and(|rng| rng.gen_bool(self.config.faults.loss));
            if lost {
                self.metrics.record_drop();
                if self.trace.is_enabled() {
                    self.trace.record(TraceEvent {
                        time: now,
                        kind: TraceEventKind::Drop,
                        from: to,
                        to: target,
                        message_kind: msg.kind().into(),
                        msg_id,
                        seq: link_seq,
                    });
                }
                continue;
            }
            let delay = self.sampler.sample(to, target);
            let earliest_fifo = self.link_last_delivery.get(&key).copied().unwrap_or(0);
            let delivery = (now + delay.max(1)).max(earliest_fifo);
            self.link_last_delivery.insert(key, delivery);
            let seq = self.next_seq();
            self.queue.push(Event {
                time: delivery,
                seq,
                to: target,
                kind: EventKind::Message {
                    from: to,
                    msg,
                    causal_depth: causal_depth + 1,
                    msg_id,
                    link_seq,
                },
            });
        }
        true
    }

    /// Installs a cooperative cancellation token: [`Simulator::run`] polls it
    /// every [`Self::CANCEL_POLL_STRIDE`] events and returns
    /// [`SimError::Cancelled`] at the next boundary once it is raised.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Events between cancellation polls in [`Simulator::run`]: frequent
    /// enough that cancellation lands within microseconds, sparse enough
    /// that uncancelled runs pay about one atomic load per thousand events.
    pub const CANCEL_POLL_STRIDE: u64 = 1024;

    /// Runs the simulation to quiescence (empty event queue).
    pub fn run(&mut self) -> Result<(), SimError> {
        while self.processed_events < self.config.max_events {
            if self
                .processed_events
                .is_multiple_of(Self::CANCEL_POLL_STRIDE)
                && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            {
                return Err(SimError::Cancelled);
            }
            if !self.step() {
                return Ok(());
            }
        }
        if self.queue.is_empty() {
            Ok(())
        } else {
            Err(SimError::EventLimitExceeded {
                limit: self.config.max_events,
            })
        }
    }

    /// Whether every node's protocol reports local termination.
    pub fn all_terminated(&self) -> bool {
        self.nodes.iter().all(|p| p.is_terminated())
    }

    /// Which nodes have crash-stopped (always all-false under a benign fault
    /// plan).
    pub fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    /// Whether every *live* (non-crashed) node reports local termination —
    /// the strongest termination a faulty run can achieve.
    pub fn all_live_terminated(&self) -> bool {
        self.nodes
            .iter()
            .zip(&self.crashed)
            .all(|(p, &dead)| dead || p.is_terminated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::bits::message_bits;
    use mdst_graph::generators;

    use crate::fault::{CrashAt, CutAt};

    /// Flood protocol: the node with identity 0 floods a token; every node
    /// forwards it the first time it sees it. Classic broadcast, n-1 .. m
    /// messages depending on topology.
    #[derive(Debug, Clone)]
    struct Token {
        hops: u64,
        n: usize,
    }

    impl NetMessage for Token {
        fn kind(&self) -> &'static str {
            "Token"
        }
        fn encoded_bits(&self) -> usize {
            message_bits(self.n, 1)
        }
    }

    struct Flood {
        id: NodeId,
        seen: bool,
        max_hops_seen: u64,
    }

    impl Protocol for Flood {
        type Message = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            if self.id == NodeId(0) && !self.seen {
                self.seen = true;
                let targets: Vec<NodeId> = ctx.neighbors().to_vec();
                let n = ctx.network_size();
                for t in targets {
                    ctx.send(t, Token { hops: 1, n });
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            self.max_hops_seen = self.max_hops_seen.max(msg.hops);
            if !self.seen {
                self.seen = true;
                let targets: Vec<NodeId> = ctx.neighbors().filter_targets(from);
                let n = ctx.network_size();
                for t in targets {
                    ctx.send(
                        t,
                        Token {
                            hops: msg.hops + 1,
                            n,
                        },
                    );
                }
            }
        }
        fn is_terminated(&self) -> bool {
            self.seen
        }
    }

    /// Small helper so the test protocol reads naturally.
    trait FilterTargets {
        fn filter_targets(&self, skip: NodeId) -> Vec<NodeId>;
    }
    impl FilterTargets for [NodeId] {
        fn filter_targets(&self, skip: NodeId) -> Vec<NodeId> {
            self.iter().copied().filter(|&x| x != skip).collect()
        }
    }

    fn flood_sim(g: &Arc<Graph>, config: SimConfig) -> Simulator<Flood> {
        Simulator::new(g, config, |id, _| Flood {
            id,
            seen: false,
            max_hops_seen: 0,
        })
        .expect("valid config")
    }

    #[test]
    fn flood_reaches_every_node_on_a_path() {
        let g = Arc::new(generators::path(6).unwrap());
        let mut sim = flood_sim(&g, SimConfig::default());
        sim.run().unwrap();
        assert!(sim.all_terminated());
        // On a path the flood sends exactly one token over each edge away from
        // node 0, plus the backward token each internal node sends to its
        // predecessor (it does not know who already has the token).
        assert!(sim.metrics().messages_total >= 5);
        assert_eq!(sim.metrics().causal_time, 5);
        assert_eq!(sim.metrics().quiescence_time, 5);
    }

    #[test]
    fn flood_message_count_on_complete_graph_is_quadratic() {
        let g = Arc::new(generators::complete(8).unwrap());
        let mut sim = flood_sim(&g, SimConfig::default());
        sim.run().unwrap();
        assert!(sim.all_terminated());
        // Every node forwards to all neighbours except the one it heard from:
        // total is at least 2m - (n - 1) under any schedule... just check the
        // broad band: between n-1 and 2m.
        let m = g.edge_count() as u64;
        assert!(sim.metrics().messages_total >= 7);
        assert!(sim.metrics().messages_total <= 2 * m);
    }

    #[test]
    fn unit_delay_runs_are_deterministic() {
        let g = Arc::new(generators::gnp_connected(24, 0.2, 3).unwrap());
        let mut a = flood_sim(&g, SimConfig::default());
        let mut b = flood_sim(&g, SimConfig::default());
        a.run().unwrap();
        b.run().unwrap();
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn random_delay_runs_are_seed_deterministic() {
        let g = Arc::new(generators::gnp_connected(20, 0.3, 9).unwrap());
        let cfg = SimConfig {
            delay: DelayModel::UniformRandom {
                min: 1,
                max: 9,
                seed: 77,
            },
            ..Default::default()
        };
        let mut a = flood_sim(&g, cfg.clone());
        let mut b = flood_sim(&g, cfg);
        a.run().unwrap();
        b.run().unwrap();
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.all_terminated());
    }

    #[test]
    fn staggered_start_still_terminates() {
        let g = Arc::new(generators::grid(4, 4).unwrap());
        let cfg = SimConfig {
            start: StartModel::Staggered {
                max_offset: 50,
                seed: 5,
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert!(sim.all_terminated());
    }

    #[test]
    fn selected_start_wakes_only_initiator_until_messages_arrive() {
        let g = Arc::new(generators::path(4).unwrap());
        let cfg = SimConfig {
            start: StartModel::Selected(vec![NodeId(0)]),
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert!(sim.all_terminated());
    }

    #[test]
    fn selected_start_rejects_out_of_range_and_empty_lists() {
        let g = Arc::new(generators::path(4).unwrap());
        let oob = SimConfig {
            start: StartModel::Selected(vec![NodeId(0), NodeId(7)]),
            ..Default::default()
        };
        let err = Simulator::new(&g, oob, |id, _| Flood {
            id,
            seen: false,
            max_hops_seen: 0,
        })
        .err()
        .expect("config must be rejected");
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("v7"), "{err}");

        let empty = SimConfig {
            start: StartModel::Selected(Vec::new()),
            ..Default::default()
        };
        let err = Simulator::new(&g, empty, |id, _| Flood {
            id,
            seen: false,
            max_hops_seen: 0,
        })
        .err()
        .expect("config must be rejected");
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn degenerate_delay_ranges_are_rejected_at_construction() {
        let g = Arc::new(generators::path(4).unwrap());
        for delay in [
            DelayModel::UniformRandom {
                min: 0,
                max: 4,
                seed: 1,
            },
            DelayModel::PerLinkFixed {
                min: 3,
                max: 2,
                seed: 1,
            },
        ] {
            let cfg = SimConfig {
                delay,
                ..Default::default()
            };
            let err = Simulator::new(&g, cfg, |id, _| Flood {
                id,
                seen: false,
                max_hops_seen: 0,
            })
            .err()
            .expect("config must be rejected");
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn quiescence_time_covers_late_starts() {
        // Node 3 of a path wakes long after the flood from node 0 has died
        // down; the quiescence clock must reflect that late start, matching
        // the final simulator clock.
        let g = Arc::new(generators::path(4).unwrap());
        let cfg = SimConfig {
            start: StartModel::Staggered {
                max_offset: 500,
                seed: 11,
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert_eq!(
            sim.metrics().quiescence_time,
            sim.now(),
            "quiescence time must equal the clock at the last start/delivery"
        );
    }

    #[test]
    fn fault_events_do_not_inflate_quiescence_time() {
        // Node 1 of a two-node path crashes at t=0; node 0 crashes long after
        // all traffic died down. The flood's one token is dropped at the
        // corpse at t=1 — the last *activity*. Neither the late crash event
        // nor anything after it may advance the quiescence clock, even though
        // the simulator clock itself runs on to the crash time.
        let g = Arc::new(generators::path(2).unwrap());
        let cfg = SimConfig {
            faults: FaultPlan {
                crashes: vec![
                    CrashAt {
                        node: NodeId(1),
                        at: 0,
                    },
                    CrashAt {
                        node: NodeId(0),
                        at: 100,
                    },
                ],
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert_eq!(sim.metrics().dropped_messages, 1);
        assert_eq!(sim.metrics().quiescence_time, 1, "drop at the corpse");
        assert_eq!(sim.now(), 100, "the clock still reaches the late crash");

        // Same principle for starts: a staggered start addressed to a node
        // that crashed at t=0 is a no-op and must not count as activity, so
        // across seeds the quiescence clock may end strictly before the
        // simulator clock (it would always equal it if corpse starts counted).
        let mut some_seed_diverges = false;
        for seed in 0..20 {
            let cfg = SimConfig {
                start: StartModel::Staggered {
                    max_offset: 300,
                    seed,
                },
                faults: FaultPlan {
                    crashes: vec![CrashAt {
                        node: NodeId(1),
                        at: 0,
                    }],
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut sim = flood_sim(&g, cfg);
            sim.run().unwrap();
            assert!(sim.metrics().quiescence_time <= sim.now());
            some_seed_diverges |= sim.metrics().quiescence_time < sim.now();
        }
        assert!(
            some_seed_diverges,
            "for some seed the corpse's start is the last event"
        );
    }

    #[test]
    fn full_loss_drops_every_message() {
        let g = Arc::new(generators::complete(6).unwrap());
        let cfg = SimConfig {
            faults: FaultPlan {
                loss: 1.0,
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        // Node 0 floods its 5 neighbours; every send is lost, nobody answers.
        assert_eq!(sim.metrics().messages_total, 0);
        assert_eq!(sim.metrics().dropped_messages, 5);
        assert!(!sim.all_terminated(), "only node 0 ever saw the token");
    }

    #[test]
    fn lossy_runs_are_seed_deterministic() {
        let g = Arc::new(generators::gnp_connected(18, 0.3, 4).unwrap());
        let cfg = SimConfig {
            faults: FaultPlan {
                loss: 0.4,
                seed: 99,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut a = flood_sim(&g, cfg.clone());
        let mut b = flood_sim(&g, cfg.clone());
        a.run().unwrap();
        b.run().unwrap();
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.metrics().dropped_messages > 0, "loss 0.4 must drop some");
        // A different loss seed changes which messages die.
        let mut c = flood_sim(
            &g,
            SimConfig {
                faults: FaultPlan {
                    loss: 0.4,
                    seed: 100,
                    ..Default::default()
                },
                ..cfg
            },
        );
        c.run().unwrap();
        assert_ne!(
            (a.metrics().messages_total, a.metrics().dropped_messages),
            (c.metrics().messages_total, c.metrics().dropped_messages),
        );
    }

    #[test]
    fn zero_loss_plan_is_bit_identical_to_no_plan() {
        let g = Arc::new(generators::gnp_connected(20, 0.25, 8).unwrap());
        let explicit = SimConfig {
            faults: FaultPlan {
                loss: 0.0,
                seed: 42, // a seed alone must not change anything
                ..Default::default()
            },
            ..Default::default()
        };
        let mut a = flood_sim(&g, SimConfig::default());
        let mut b = flood_sim(&g, explicit);
        a.run().unwrap();
        b.run().unwrap();
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn crashed_nodes_stop_processing_and_eat_messages() {
        // Crash node 0 (the initiator) at time 0: the crash event is scheduled
        // before the starts, so the flood never begins.
        let g = Arc::new(generators::path(4).unwrap());
        let cfg = SimConfig {
            faults: FaultPlan {
                crashes: vec![CrashAt {
                    node: NodeId(0),
                    at: 0,
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert_eq!(sim.metrics().messages_total, 0);
        assert_eq!(sim.metrics().crashed_nodes, 1);
        assert!(sim.crashed()[0]);
        assert!(!sim.node(NodeId(1)).seen, "the flood never started");

        // Crash node 2 mid-path instead: the flood dies at the crash site and
        // the message addressed to the corpse is counted as dropped.
        let cfg = SimConfig {
            faults: FaultPlan {
                crashes: vec![CrashAt {
                    node: NodeId(2),
                    at: 1,
                }],
                ..Default::default()
            },
            record_trace: true,
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert!(sim.node(NodeId(1)).seen);
        assert!(!sim.node(NodeId(3)).seen, "flood cannot pass the crash");
        assert!(sim.metrics().dropped_messages >= 1);
        assert!(!sim.all_live_terminated());
        let crashes = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Crash)
            .count();
        let drops = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Drop)
            .count();
        assert_eq!(crashes, 1);
        assert_eq!(drops as u64, sim.metrics().dropped_messages);
    }

    #[test]
    fn cut_links_stop_carrying_messages_in_both_directions() {
        // Cut the middle edge of a path at time 0: the flood reaches node 1
        // and no further.
        let g = Arc::new(generators::path(4).unwrap());
        let cfg = SimConfig {
            faults: FaultPlan {
                cuts: vec![CutAt {
                    a: NodeId(2),
                    b: NodeId(1),
                    at: 0,
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        assert!(sim.node(NodeId(1)).seen);
        assert!(!sim.node(NodeId(2)).seen);
        assert!(!sim.node(NodeId(3)).seen);
        assert!(sim.metrics().dropped_messages >= 1);
    }

    #[test]
    fn fault_plans_referencing_missing_nodes_or_edges_are_rejected() {
        let g = Arc::new(generators::path(4).unwrap());
        let bad_crash = SimConfig {
            faults: FaultPlan {
                crashes: vec![CrashAt {
                    node: NodeId(40),
                    at: 0,
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let err = Simulator::new(&g, bad_crash, |id, _| Flood {
            id,
            seen: false,
            max_hops_seen: 0,
        })
        .err()
        .expect("config must be rejected");
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        let bad_cut = SimConfig {
            faults: FaultPlan {
                cuts: vec![CutAt {
                    a: NodeId(0),
                    b: NodeId(3),
                    at: 0,
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let err = Simulator::new(&g, bad_cut, |id, _| Flood {
            id,
            seen: false,
            max_hops_seen: 0,
        })
        .err()
        .expect("config must be rejected");
        assert!(err.to_string().contains("not an edge"), "{err}");
    }

    #[test]
    fn event_limit_is_enforced() {
        let g = Arc::new(generators::complete(10).unwrap());
        let cfg = SimConfig {
            max_events: 5,
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 5 });
    }

    #[test]
    fn causal_time_is_delay_independent() {
        let g = Arc::new(generators::path(8).unwrap());
        let slow = SimConfig {
            delay: DelayModel::PerLinkFixed {
                min: 1,
                max: 20,
                seed: 4,
            },
            ..Default::default()
        };
        let mut fast = flood_sim(&g, SimConfig::default());
        let mut slow_sim = flood_sim(&g, slow);
        fast.run().unwrap();
        slow_sim.run().unwrap();
        // The causal chain length is a property of the protocol, not the delays.
        assert_eq!(fast.metrics().causal_time, slow_sim.metrics().causal_time);
        // But the clock at quiescence is delay dependent (strictly larger here).
        assert!(slow_sim.metrics().quiescence_time >= fast.metrics().quiescence_time);
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let g = Arc::new(generators::path(3).unwrap());
        let cfg = SimConfig {
            record_trace: true,
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg);
        sim.run().unwrap();
        let sends = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Send)
            .count();
        let delivers = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Deliver)
            .count();
        assert_eq!(sends, delivers);
        assert_eq!(delivers as u64, sim.metrics().messages_total);
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn sending_to_a_non_neighbour_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
                ctx.send(NodeId(2), Token { hops: 0, n: 3 });
            }
            fn on_message(&mut self, _: NodeId, _: Token, _: &mut dyn Context<Token>) {}
        }
        let g = Arc::new(generators::path(3).unwrap());
        let mut sim = Simulator::new(&g, SimConfig::default(), |_, _| Bad).unwrap();
        // Node 0's only neighbour is node 1, so this panics during run().
        sim.run().unwrap();
    }

    #[test]
    fn fifo_is_preserved_per_link_even_with_random_delays() {
        // A protocol where node 0 sends a burst of numbered tokens to node 1,
        // and node 1 records the order of arrival.
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
        enum Role {
            Sender,
            Receiver(Vec<u64>),
        }
        struct FifoProbe(Role);
        impl Protocol for FifoProbe {
            type Message = Numbered;
            fn on_start(&mut self, ctx: &mut dyn Context<Numbered>) {
                if let Role::Sender = self.0 {
                    if ctx.id() == NodeId(0) {
                        for i in 0..50 {
                            ctx.send(NodeId(1), Numbered(i));
                        }
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, msg: Numbered, _: &mut dyn Context<Numbered>) {
                if let Role::Receiver(got) = &mut self.0 {
                    got.push(msg.0);
                }
            }
        }
        let g = Arc::new(generators::path(2).unwrap());
        let cfg = SimConfig {
            delay: DelayModel::UniformRandom {
                min: 1,
                max: 30,
                seed: 123,
            },
            ..Default::default()
        };
        let mut sim = Simulator::new(&g, cfg, |id, _| {
            if id == NodeId(0) {
                FifoProbe(Role::Sender)
            } else {
                FifoProbe(Role::Receiver(Vec::new()))
            }
        })
        .unwrap();
        sim.run().unwrap();
        let Role::Receiver(got) = &sim.node(NodeId(1)).0 else {
            panic!("node 1 is the receiver");
        };
        let sorted: Vec<u64> = (0..50).collect();
        assert_eq!(
            got, &sorted,
            "messages on one link must arrive in FIFO order"
        );
    }
}
