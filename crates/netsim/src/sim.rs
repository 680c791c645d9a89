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
//!
//! Pending events wait in a calendar queue (`EventQueue`). Events due
//! within 64 ticks of the last popped time sit in a ring of FIFO buckets,
//! one bucket per tick; under `Unit` delay, where every send made at `t` is
//! due at `t + 1`, that is every message. Events due further ahead
//! (staggered starts, crashes, long delays) sit in a binary heap keyed by
//! `(time, seq)`. A pop takes the earlier of the first non-empty bucket's
//! head and the heap's top, which yields exactly the order of one
//! `(time, seq)` heap over all events, so the queue is a cost choice only.
//! The buckets are lists threaded through the one payload slab rather than
//! deques of their own, so the queue's memory follows the number of
//! pending events, not the busiest tick.
//!
//! Sends are scheduled the moment a handler makes them. The handler gets a
//! `SimCtx`, which borrows the node's neighbour row and `Transit`, the
//! struct holding everything a send touches: the queue, the delay sampler,
//! the loss coin, the cut, FIFO and link-sequence tables, the metrics and
//! the trace. `SimCtx::send` checks neighbourship with one binary search and
//! pushes the message straight into the queue, so nothing is buffered
//! between the handler and the queue. Handlers are generic over their
//! context, so these calls are static. When a message wakes a node that
//! has not started, its delivery is counted and traced first, then
//! `on_start` and `on_message` run; the trace of that event therefore
//! reads `Deliver`, the start's sends, then the message's sends.

use crate::cancel::CancelToken;
use crate::delay::{DelayModel, DelaySampler};
use crate::exec::{ExecError, ExecRun, ExecStatus};
use crate::fault::FaultPlan;
use crate::message::NetMessage;
use crate::metrics::{KindCounts, Metrics};
use crate::protocol::{Context, Protocol};
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};
use mdst_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

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

impl StartModel {
    /// Checks a [`StartModel::Selected`] list against an `n`-node graph: it
    /// must be non-empty (or no node would ever wake up) and name only
    /// existing nodes. Both backends call this before building a run.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let StartModel::Selected(list) = self else {
            return Ok(());
        };
        if list.is_empty() {
            return Err(
                "StartModel::Selected with an empty list: no node would ever \
                 wake up, the run would be a silent no-op"
                    .to_string(),
            );
        }
        match list.iter().find(|node| node.index() >= n) {
            Some(node) => Err(format!(
                "StartModel::Selected references node {node} but the \
                 graph has {n} nodes"
            )),
            None => Ok(()),
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Link delay model.
    pub delay: DelayModel,
    /// Wake-up schedule.
    pub start: StartModel,
    /// Hard cap on processed events; exceeding it ends the run with
    /// [`ExecStatus::EventLimitExceeded`] (a non-termination guard).
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

/// The payload of one scheduled event, parked in the queue's slab while its
/// time orders it (see [`EventQueue`]).
#[derive(Debug, Clone)]
struct Event<M> {
    to: NodeId,
    kind: EventKind<M>,
}

/// Heap entry of one far event: 24 bytes, ordered by `(time, seq)`. `seq` is
/// unique per run, so `slot` (the payload's index in the slab) never decides
/// the order. The heap is a max-heap of `Reverse<EventKey>`, so the earliest
/// `(time, seq)` pops first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: u64,
    seq: u64,
    slot: usize,
}

/// Buckets in the near ring: events due in `[cursor, cursor + RING)` wait
/// in bucket `time % RING`. A power of two no larger than 64, so the
/// non-empty buckets fit one `u64` mask.
const RING: u64 = 64;

/// The end of a slot list (a bucket's FIFO or the free list).
const NIL: usize = usize::MAX;

/// One slab slot: a pending event (`None` while the slot is free) and the
/// next slot of the list it is on, its bucket's FIFO or the free list.
struct Entry<M> {
    event: Option<Event<M>>,
    next: usize,
}

/// The pending-event queue, a calendar queue (Brown, CACM 1988) in two
/// tiers over one payload slab.
///
/// * **Near ring.** `RING` FIFO buckets hold the events due in
///   `[cursor, cursor + RING)`, where `cursor` is the time of the last pop;
///   bucket `time % RING` therefore holds events of one time only. Under
///   `Unit` delay every send is due one tick ahead, so nearly every event
///   takes this path: an O(1) append and an O(1) unlink, found through a
///   mask of the non-empty buckets.
/// * **Far heap.** Events due at or past `cursor + RING` (staggered starts,
///   crashes, long delays) go to a binary heap of `(time, seq, slot)` keys.
///   They stay there until they pop; nothing migrates into the ring.
///
/// Pop takes the earlier by `(time, seq)` of the first non-empty bucket's
/// head and the heap's top. Every push is at or after `cursor` and `seq`
/// grows with every push, so a bucket is already in `seq` order. On equal
/// times the heap wins: a far event due at `t` was pushed while the cursor
/// was at most `t - RING`, a ring event due at `t` while it was past that,
/// and the cursor never moves back, so the far event is the older one. The
/// pop order is therefore exactly that of one `(time, seq)` heap over all
/// events, which the golden digests in `tests/replay_determinism.rs` pin.
///
/// The buckets are intrusive lists threaded through the slab (head and tail
/// slots per bucket, a `next` slot per entry), and so is the free list.
/// The queue's memory is thus one slab entry per *pending* event plus the
/// far keys. Per-bucket deques would instead each grow to the peak load of
/// one tick and keep that capacity.
struct EventQueue<M> {
    heap: BinaryHeap<Reverse<EventKey>>,
    slab: Vec<Entry<M>>,
    /// Head of the free list (`NIL` when every slot is in use).
    free: usize,
    /// First and last slot of each bucket's FIFO (`NIL` when empty).
    head: [usize; RING as usize],
    tail: [usize; RING as usize],
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u64,
    /// Time of the last pop; no pending event is earlier.
    cursor: u64,
    /// Pushes so far: the next event's tie-breaking sequence number.
    seq: u64,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            head: [NIL; RING as usize],
            tail: [NIL; RING as usize],
            occupied: 0,
            cursor: 0,
            seq: 0,
        }
    }

    /// Schedules `event` at `time`, which must not precede the last pop.
    fn push(&mut self, time: u64, event: Event<M>) {
        debug_assert!(time >= self.cursor, "event scheduled in the past");
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry {
            event: Some(event),
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.slab.push(entry);
            self.slab.len() - 1
        } else {
            let slot = self.free;
            self.free = self.slab[slot].next;
            self.slab[slot] = entry;
            slot
        };
        if time.wrapping_sub(self.cursor) >= RING {
            self.heap.push(Reverse(EventKey { time, seq, slot }));
            return;
        }
        let bucket = (time % RING) as usize;
        if self.occupied & (1 << bucket) == 0 {
            self.occupied |= 1 << bucket;
            self.head[bucket] = slot;
        } else {
            self.slab[self.tail[bucket]].next = slot;
        }
        self.tail[bucket] = slot;
    }

    /// The earliest event and its scheduled time.
    fn pop(&mut self) -> Option<(u64, Event<M>)> {
        // The first non-empty bucket at or after the cursor's holds the
        // earliest near event; its distance from the cursor is its bucket's
        // distance from the cursor's bucket.
        let near = (self.occupied != 0).then(|| {
            let ahead = self.occupied.rotate_right((self.cursor % RING) as u32);
            self.cursor + u64::from(ahead.trailing_zeros())
        });
        let far_first = match (self.heap.peek(), near) {
            (Some(Reverse(key)), Some(near)) => key.time <= near,
            (far, _) => far.is_some(),
        };
        let (time, slot) = if far_first {
            let Reverse(key) = self.heap.pop()?;
            (key.time, key.slot)
        } else {
            let time = near?;
            let bucket = (time % RING) as usize;
            let slot = self.head[bucket];
            self.head[bucket] = self.slab[slot].next;
            if self.head[bucket] == NIL {
                self.occupied &= !(1 << bucket);
            }
            (time, slot)
        };
        self.cursor = time;
        let entry = &mut self.slab[slot];
        entry.next = self.free;
        self.free = slot;
        // A slot is emptied only here, once per push, so it is always filled.
        entry.event.take().map(|event| (time, event))
    }

    fn is_empty(&self) -> bool {
        self.occupied == 0 && self.heap.is_empty()
    }
}

/// Everything a send touches: the event queue, the delay sampler, the loss
/// coin, the per-link tables, the metrics and the trace. [`SimCtx`] borrows
/// it mutably while a handler runs, alongside the node and its neighbour
/// row, so each send is scheduled the moment the handler makes it.
struct Transit<M> {
    queue: EventQueue<M>,
    sampler: DelaySampler,
    /// Loss coin stream, present only when the fault plan has `loss > 0`
    /// (so benign runs draw no extra randomness at all).
    loss_rng: Option<SmallRng>,
    /// Probability that the loss coin eats a send (the fault plan's `loss`).
    loss: f64,
    /// The per-link tables below are indexed by directed link: the link
    /// `u → v` is `graph.row_start(u) + slot`, where `slot` is `v`'s position
    /// in `u`'s sorted neighbour row.
    ///
    /// Cut time per directed link (both directions of every scheduled cut;
    /// `u64::MAX` = never cut). Empty unless the fault plan has cuts.
    cut_at: Vec<u64>,
    /// Last scheduled delivery time per directed link, used to keep links FIFO
    /// even under non-monotone random delays.
    link_last_delivery: Vec<u64>,
    /// Next run-unique message id (ids start at 1; 0 is the "no message"
    /// sentinel on crash trace events). Only advanced while tracing.
    next_msg_id: u64,
    /// Next per-directed-link send sequence number. Empty unless tracing
    /// (the FIFO order itself is enforced by `link_last_delivery`).
    link_seq: Vec<u64>,
    metrics: Metrics,
    trace: TraceRecorder,
}

impl<M: NetMessage> Transit<M> {
    /// Schedules one send `from → target` made at time `now` down the
    /// directed link `link` (see the per-link tables), or drops it if a cut
    /// or the loss coin eats it.
    fn schedule_send(
        &mut self,
        now: u64,
        from: NodeId,
        target: NodeId,
        link: usize,
        causal_depth: u64,
        msg: M,
    ) {
        // Message identities only exist for auditable traces: a benign
        // untraced run allocates nothing and the ids stay at the sentinel.
        let (msg_id, link_seq) = if self.trace.is_enabled() {
            let id = self.next_msg_id;
            self.next_msg_id += 1;
            let seq = self.link_seq[link];
            self.link_seq[link] += 1;
            (id, seq)
        } else {
            (0, 0)
        };
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                time: now,
                kind: TraceEventKind::Send,
                from,
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
            .get(link)
            .is_some_and(|&cut_time| now >= cut_time);
        // Then the loss coin (a cut send burns no coin). Dropped sends
        // consume neither a delay sample nor a FIFO slot, so the
        // surviving traffic keeps its per-link FIFO ordering.
        let lost = cut
            || self
                .loss_rng
                .as_mut()
                .is_some_and(|rng| rng.gen_bool(self.loss));
        if lost {
            self.metrics.record_drop();
            if self.trace.is_enabled() {
                self.trace.record(TraceEvent {
                    time: now,
                    kind: TraceEventKind::Drop,
                    from,
                    to: target,
                    message_kind: msg.kind().into(),
                    msg_id,
                    seq: link_seq,
                });
            }
            return;
        }
        let delay = self.sampler.sample(from, target);
        let delivery = (now + delay.max(1)).max(self.link_last_delivery[link]);
        self.link_last_delivery[link] = delivery;
        self.queue.push(
            delivery,
            Event {
                to: target,
                kind: EventKind::Message {
                    from,
                    msg,
                    causal_depth: causal_depth + 1,
                    msg_id,
                    link_seq,
                },
            },
        );
    }
}

/// Context handed to a protocol while it processes one event: each send is
/// scheduled on the spot, in send order, with the event's time and causal
/// depth.
struct SimCtx<'a, M> {
    id: NodeId,
    neighbors: &'a [NodeId],
    network_size: usize,
    /// Time of the event being processed.
    now: u64,
    /// First directed link of this node's row: the link to its `slot`-th
    /// neighbour is `row + slot`.
    row: usize,
    /// Causal depth of the event being processed (0 for a start).
    causal_depth: u64,
    transit: &'a mut Transit<M>,
}

impl<M: NetMessage> Context<M> for SimCtx<'_, M> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }
    fn send(&mut self, to: NodeId, msg: M) {
        // The neighbourship check also yields the link's slot in the row.
        let slot = self.neighbors.binary_search(&to);
        assert!(
            slot.is_ok(),
            "protocol bug: {} tried to send {:?} to non-neighbour {}",
            self.id,
            msg,
            to
        );
        // The assert above makes the fallback unreachable.
        let link = self.row + slot.unwrap_or(0);
        self.transit
            .schedule_send(self.now, self.id, to, link, self.causal_depth, msg);
    }
    fn network_size(&self) -> usize {
        self.network_size
    }
}

/// The discrete-event simulator. See the module documentation; runs reach it
/// through [`crate::exec::ExecutorKind::run`].
pub(crate) struct Simulator<P: Protocol> {
    nodes: Vec<P>,
    /// Shared, immutable topology. Neighbour lists are borrowed straight out
    /// of the graph's CSR rows — the simulator materialises no adjacency of
    /// its own, so thousands of runs can share one `Arc<Graph>`.
    graph: Arc<Graph>,
    clock: u64,
    processed_events: u64,
    started: Vec<bool>,
    /// Nodes that have crash-stopped (fault injection); a crashed node
    /// processes no events and every message addressed to it is dropped.
    crashed: Vec<bool>,
    /// The queue and everything else a send touches (see [`Transit`]).
    transit: Transit<P::Message>,
    /// Deliveries per message kind not yet folded into `metrics` (folded
    /// once, when [`Simulator::run`] returns).
    kinds: KindCounts,
    config: SimConfig,
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
    /// return [`ExecError::InvalidConfig`] instead of panicking (or silently
    /// succeeding) deep inside [`Simulator::run`].
    pub(crate) fn new(
        graph: &Arc<Graph>,
        config: SimConfig,
        mut factory: impl FnMut(NodeId, &[NodeId]) -> P,
    ) -> Result<Self, ExecError> {
        Self::validate_config(graph, &config)?;
        let n = graph.node_count();
        let links = graph.degree_sum();
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
        let mut cut_at = Vec::new();
        if !config.faults.cuts.is_empty() {
            cut_at = vec![u64::MAX; links];
            for cut in &config.faults.cuts {
                for (a, b) in [(cut.a, cut.b), (cut.b, cut.a)] {
                    // Validation guarantees the cut is an edge of the graph.
                    if let Ok(slot) = graph.neighbor_slice(a).binary_search(&b) {
                        let link = &mut cut_at[graph.row_start(a) + slot];
                        *link = (*link).min(cut.at);
                    }
                }
            }
        }
        let link_seq = if config.record_trace {
            vec![0; links]
        } else {
            Vec::new()
        };
        let transit = Transit {
            queue: EventQueue::new(),
            sampler,
            loss_rng,
            loss: config.faults.loss,
            cut_at,
            link_last_delivery: vec![0; links],
            next_msg_id: 1,
            link_seq,
            metrics: Metrics::new(n),
            trace,
        };
        let mut sim = Simulator {
            nodes,
            graph: Arc::clone(graph),
            clock: 0,
            processed_events: 0,
            started: vec![false; n],
            crashed: vec![false; n],
            transit,
            kinds: KindCounts::default(),
            config,
        };
        sim.schedule_crashes();
        sim.schedule_starts();
        Ok(sim)
    }

    fn validate_config(graph: &Graph, config: &SimConfig) -> Result<(), ExecError> {
        config.delay.validate().map_err(ExecError::InvalidConfig)?;
        config
            .start
            .validate(graph.node_count())
            .map_err(ExecError::InvalidConfig)?;
        config
            .faults
            .validate(graph)
            .map_err(ExecError::InvalidConfig)
    }

    /// Crash events go into the queue before the start events, so a crash and
    /// a start scheduled at the same instant resolve as crash-first.
    fn schedule_crashes(&mut self) {
        let crashes = self.config.faults.crashes.clone();
        for crash in crashes {
            self.transit.queue.push(
                crash.at,
                Event {
                    to: crash.node,
                    kind: EventKind::Crash,
                },
            );
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
            self.transit.queue.push(
                time,
                Event {
                    to: node,
                    kind: EventKind::Start,
                },
            );
        }
    }

    /// Processes a single event without folding the per-kind counters into
    /// the metrics. Returns `false` when the queue is empty (quiescence).
    fn process_event(&mut self) -> bool {
        let transit = &mut self.transit;
        let Some((time, event)) = transit.queue.pop() else {
            return false;
        };
        self.clock = self.clock.max(time);
        self.processed_events += 1;
        let to = event.to;
        // Crash events flip the crash flag and nothing else; they do not count
        // as protocol activity, so they leave `quiescence_time` alone.
        if matches!(event.kind, EventKind::Crash) {
            if !self.crashed[to.index()] {
                self.crashed[to.index()] = true;
                transit.metrics.record_crash();
                if transit.trace.is_enabled() {
                    transit.trace.record(TraceEvent {
                        time,
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
                transit.metrics.record_activity(time);
                transit.metrics.record_drop();
                if transit.trace.is_enabled() {
                    transit.trace.record(TraceEvent {
                        time,
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
        transit.metrics.record_activity(time);
        let started = std::mem::replace(&mut self.started[to.index()], true);
        // Split borrows: the node is taken from `nodes`, the neighbour slice
        // straight from the shared graph and the scheduling state from
        // `transit`; all three are disjoint.
        let network_size = self.nodes.len();
        let node = &mut self.nodes[to.index()];
        let mut ctx = SimCtx {
            id: to,
            neighbors: self.graph.neighbor_slice(to),
            network_size,
            now: time,
            row: self.graph.row_start(to),
            causal_depth: 0,
            transit,
        };
        match event.kind {
            EventKind::Start => {
                // A node never starts twice.
                if !started {
                    node.on_start(&mut ctx);
                }
            }
            EventKind::Message {
                from,
                msg,
                causal_depth,
                msg_id,
                link_seq,
            } => {
                self.kinds.bump(msg.kind());
                ctx.transit.metrics.record_delivery(
                    from.index(),
                    to.index(),
                    msg.encoded_bits(),
                    causal_depth,
                    time,
                );
                if ctx.transit.trace.is_enabled() {
                    ctx.transit.trace.record(TraceEvent {
                        time,
                        kind: TraceEventKind::Deliver,
                        from,
                        to,
                        message_kind: msg.kind().into(),
                        msg_id,
                        seq: link_seq,
                    });
                }
                // A message wakes up a node that has not spontaneously
                // started yet (the standard convention for asynchronous
                // wake-up): the start runs first, after the delivery is
                // recorded, and its sends share the message's causal depth.
                ctx.causal_depth = causal_depth;
                if !started {
                    node.on_start(&mut ctx);
                }
                node.on_message(from, msg, &mut ctx);
            }
            EventKind::Crash => unreachable!("crash events return before the handler"),
        }
        true
    }

    /// Events between cancellation polls in [`Simulator::run`]: frequent
    /// enough that cancellation lands within microseconds, sparse enough
    /// that uncancelled runs pay about one atomic load per thousand events.
    const CANCEL_POLL_STRIDE: u64 = 1024;

    /// Runs the simulation to quiescence (empty event queue), the event cap
    /// or a raised `cancel` token, whichever comes first, and folds the
    /// per-kind counters into the metrics.
    pub(crate) fn run(&mut self, cancel: &CancelToken) -> ExecStatus {
        let status = self.run_events(cancel);
        self.kinds.fold_into(&mut self.transit.metrics);
        status
    }

    fn run_events(&mut self, cancel: &CancelToken) -> ExecStatus {
        while self.processed_events < self.config.max_events {
            if self
                .processed_events
                .is_multiple_of(Self::CANCEL_POLL_STRIDE)
                && cancel.is_cancelled()
            {
                return ExecStatus::Cancelled;
            }
            if !self.process_event() {
                return ExecStatus::Quiesced;
            }
        }
        if self.transit.queue.is_empty() {
            ExecStatus::Quiesced
        } else {
            ExecStatus::EventLimitExceeded
        }
    }

    /// Runs the simulation (see [`Simulator::run`]) and hands its final
    /// state over as the uniform [`ExecRun`].
    pub(crate) fn execute(mut self, cancel: &CancelToken) -> ExecRun<P> {
        let started = Instant::now();
        let status = self.run(cancel);
        let wall_time = started.elapsed();
        ExecRun {
            topology: self.graph,
            nodes: self.nodes,
            metrics: self.transit.metrics,
            trace: self.transit.trace,
            status,
            crashed: self.crashed,
            workers: 1,
            wall_time,
            worker_stats: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, ExecutorKind};
    use crate::fault::{CrashAt, CutAt};
    use crate::message::bits::message_bits;
    use mdst_graph::generators;
    use proptest::prelude::*;

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
            // Two kinds, so the per-kind counters hold more than one entry.
            if self.hops % 2 == 1 {
                "OddToken"
            } else {
                "EvenToken"
            }
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
        fn on_start(&mut self, ctx: &mut impl Context<Token>) {
            if self.id == NodeId(0) && !self.seen {
                self.seen = true;
                let targets: Vec<NodeId> = ctx.neighbors().to_vec();
                let n = ctx.network_size();
                for t in targets {
                    ctx.send(t, Token { hops: 1, n });
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
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

    fn flood_node(id: NodeId, _: &[NodeId]) -> Flood {
        Flood {
            id,
            seen: false,
            max_hops_seen: 0,
        }
    }

    /// Runs the flood on the simulator through the executor entry.
    fn flood_run(g: &Arc<Graph>, config: SimConfig) -> ExecRun<Flood> {
        try_flood_run(g, config).expect("valid config")
    }

    fn try_flood_run(g: &Arc<Graph>, config: SimConfig) -> Result<ExecRun<Flood>, ExecError> {
        let config = ExecConfig {
            sim: config,
            ..Default::default()
        };
        ExecutorKind::Sim.run(g, flood_node, &config, &CancelToken::new())
    }

    /// The simulator itself, for the tests that read its clock after a run.
    fn flood_sim(g: &Arc<Graph>, config: SimConfig) -> Simulator<Flood> {
        Simulator::new(g, config, flood_node).expect("valid config")
    }

    #[test]
    fn flood_reaches_every_node_on_a_path() {
        let g = Arc::new(generators::path(6).unwrap());
        let run = flood_run(&g, SimConfig::default());
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.all_terminated());
        // On a path the flood sends exactly one token over each edge away from
        // node 0, plus the backward token each internal node sends to its
        // predecessor (it does not know who already has the token).
        assert!(run.metrics.messages_total >= 5);
        assert_eq!(run.metrics.causal_time, 5);
        assert_eq!(run.metrics.quiescence_time, 5);
    }

    #[test]
    fn flood_message_count_on_complete_graph_is_quadratic() {
        let g = Arc::new(generators::complete(8).unwrap());
        let run = flood_run(&g, SimConfig::default());
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.all_terminated());
        // Every node forwards to all neighbours except the one it heard from:
        // total is at least 2m - (n - 1) under any schedule... just check the
        // broad band: between n-1 and 2m.
        let m = g.edge_count() as u64;
        assert!(run.metrics.messages_total >= 7);
        assert!(run.metrics.messages_total <= 2 * m);
    }

    #[test]
    fn unit_delay_runs_are_deterministic() {
        let g = Arc::new(generators::gnp_connected(24, 0.2, 3).unwrap());
        let a = flood_run(&g, SimConfig::default());
        let b = flood_run(&g, SimConfig::default());
        assert_eq!(a.metrics, b.metrics);
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
        let a = flood_run(&g, cfg.clone());
        let b = flood_run(&g, cfg);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.all_terminated());
    }

    #[test]
    fn every_exit_of_run_folds_the_kind_counters() {
        let g = Arc::new(generators::gnp_connected(24, 0.25, 6).unwrap());
        let cfg = SimConfig {
            delay: DelayModel::UniformRandom {
                min: 1,
                max: 6,
                seed: 8,
            },
            ..Default::default()
        };
        let mut sim = flood_sim(&g, cfg.clone());
        assert_eq!(sim.run(&CancelToken::new()), ExecStatus::Quiesced);
        let by_kind = &sim.transit.metrics.messages_by_kind;
        assert_eq!(by_kind.len(), 2, "{by_kind:?}");
        assert_eq!(
            by_kind.values().sum::<u64>(),
            sim.transit.metrics.messages_total
        );

        // A run stopped by its event cap folds the counters too: for every
        // cap, the per-kind counts of the partial run sum to its total.
        let events = sim.processed_events;
        let mut delivered_before_the_cap = false;
        for k in [10, 30, events / 2, events - 1] {
            let capped = flood_run(
                &g,
                SimConfig {
                    max_events: k,
                    ..cfg.clone()
                },
            );
            assert_eq!(capped.status, ExecStatus::EventLimitExceeded, "k = {k}");
            let total = capped.metrics.messages_total;
            let by_kind = &capped.metrics.messages_by_kind;
            assert_eq!(by_kind.values().sum::<u64>(), total, "k = {k}");
            delivered_before_the_cap |= total > 0;
        }
        assert!(
            delivered_before_the_cap,
            "some capped run delivered messages"
        );
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
        let run = flood_run(&g, cfg);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.all_terminated());
    }

    #[test]
    fn selected_start_wakes_only_initiator_until_messages_arrive() {
        let g = Arc::new(generators::path(4).unwrap());
        let cfg = SimConfig {
            start: StartModel::Selected(vec![NodeId(0)]),
            ..Default::default()
        };
        let run = flood_run(&g, cfg);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.all_terminated());
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
            let err = try_flood_run(&g, cfg)
                .err()
                .expect("config must be rejected");
            assert!(matches!(err, ExecError::InvalidConfig(_)), "{err}");
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
        assert_eq!(sim.run(&CancelToken::new()), ExecStatus::Quiesced);
        assert_eq!(
            sim.transit.metrics.quiescence_time, sim.clock,
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
        assert_eq!(sim.run(&CancelToken::new()), ExecStatus::Quiesced);
        assert_eq!(sim.transit.metrics.dropped_messages, 1);
        assert_eq!(sim.transit.metrics.quiescence_time, 1, "drop at the corpse");
        assert_eq!(sim.clock, 100, "the clock still reaches the late crash");

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
            assert_eq!(sim.run(&CancelToken::new()), ExecStatus::Quiesced);
            assert!(sim.transit.metrics.quiescence_time <= sim.clock);
            some_seed_diverges |= sim.transit.metrics.quiescence_time < sim.clock;
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
        let run = flood_run(&g, cfg);
        assert_eq!(run.status, ExecStatus::Quiesced);
        // Node 0 floods its 5 neighbours; every send is lost, nobody answers.
        assert_eq!(run.metrics.messages_total, 0);
        assert_eq!(run.metrics.dropped_messages, 5);
        assert!(!run.all_terminated(), "only node 0 ever saw the token");
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
        let a = flood_run(&g, cfg.clone());
        let b = flood_run(&g, cfg.clone());
        assert_eq!(a.metrics, b.metrics);
        assert!(a.metrics.dropped_messages > 0, "loss 0.4 must drop some");
        // A different loss seed changes which messages die.
        let c = flood_run(
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
        assert_ne!(
            (a.metrics.messages_total, a.metrics.dropped_messages),
            (c.metrics.messages_total, c.metrics.dropped_messages),
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
        assert_eq!(a.run(&CancelToken::new()), ExecStatus::Quiesced);
        assert_eq!(b.run(&CancelToken::new()), ExecStatus::Quiesced);
        assert_eq!(a.transit.metrics, b.transit.metrics);
        assert_eq!(a.clock, b.clock);
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
        let run = flood_run(&g, cfg);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert_eq!(run.metrics.messages_total, 0);
        assert_eq!(run.metrics.crashed_nodes, 1);
        assert!(run.crashed[0]);
        assert!(!run.nodes[1].seen, "the flood never started");

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
        let run = flood_run(&g, cfg);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.nodes[1].seen);
        assert!(!run.nodes[3].seen, "flood cannot pass the crash");
        assert!(run.metrics.dropped_messages >= 1);
        assert!(!run.all_live_terminated());
        let crashes = run
            .trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Crash)
            .count();
        let drops = run
            .trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Drop)
            .count();
        assert_eq!(crashes, 1);
        assert_eq!(drops as u64, run.metrics.dropped_messages);
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
        let run = flood_run(&g, cfg);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert!(run.nodes[1].seen);
        assert!(!run.nodes[2].seen);
        assert!(!run.nodes[3].seen);
        assert!(run.metrics.dropped_messages >= 1);
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
        let err = try_flood_run(&g, bad_crash)
            .err()
            .expect("config must be rejected");
        assert!(matches!(err, ExecError::InvalidConfig(_)), "{err}");
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
        let err = try_flood_run(&g, bad_cut)
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
        assert_eq!(sim.run(&CancelToken::new()), ExecStatus::EventLimitExceeded);
        assert_eq!(sim.processed_events, 5);
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
        let fast = flood_run(&g, SimConfig::default());
        let slow_run = flood_run(&g, slow);
        // The causal chain length is a property of the protocol, not the delays.
        assert_eq!(fast.metrics.causal_time, slow_run.metrics.causal_time);
        // But the clock at quiescence is delay dependent (strictly larger here).
        assert!(slow_run.metrics.quiescence_time >= fast.metrics.quiescence_time);
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let g = Arc::new(generators::path(3).unwrap());
        let cfg = SimConfig {
            record_trace: true,
            ..Default::default()
        };
        let run = flood_run(&g, cfg);
        let sends = run
            .trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Send)
            .count();
        let delivers = run
            .trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Deliver)
            .count();
        assert_eq!(sends, delivers);
        assert_eq!(delivers as u64, run.metrics.messages_total);
    }

    #[test]
    fn a_node_woken_by_a_message_traces_the_delivery_before_its_sends() {
        // Every node greets its neighbours from `on_start` and answers its
        // first message from `on_message`, so a node woken by a message
        // sends from both handlers while processing that one delivery.
        struct Greeter {
            answered: bool,
        }
        impl Protocol for Greeter {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                let n = ctx.network_size();
                for to in ctx.neighbors().to_vec() {
                    ctx.send(to, Token { hops: 0, n });
                }
            }
            fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
                if !self.answered {
                    self.answered = true;
                    let n = ctx.network_size();
                    ctx.send(
                        from,
                        Token {
                            hops: msg.hops + 1,
                            n,
                        },
                    );
                }
            }
        }
        let g = Arc::new(generators::gnp_connected(30, 0.2, 4).unwrap());
        let config = ExecConfig {
            sim: SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 5,
                    seed: 3,
                },
                start: StartModel::Selected(vec![NodeId(0)]),
                record_trace: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = ExecutorKind::Sim
            .run(
                &g,
                |_, _| Greeter { answered: false },
                &config,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(run.status, ExecStatus::Quiesced);
        let events = run.trace.events();
        for u in 1..g.node_count() {
            let node = NodeId::new(u);
            // The first delivery to `node` wakes it.
            let wake = events
                .iter()
                .position(|e| e.kind == TraceEventKind::Deliver && e.to == node)
                .expect("every node is woken by a message");
            let first_send = events
                .iter()
                .position(|e| e.kind == TraceEventKind::Send && e.from == node)
                .expect("every node greets its neighbours");
            assert!(wake < first_send, "{node} sent before its waking delivery");
            // The greetings, then the answer, right after the delivery.
            let degree = g.degree(node);
            let sends = &events[wake + 1..wake + 2 + degree];
            assert!(
                sends
                    .iter()
                    .all(|e| e.kind == TraceEventKind::Send && e.from == node),
                "{node}: {sends:?}"
            );
            let greeted: Vec<NodeId> = sends[..degree].iter().map(|e| e.to).collect();
            assert_eq!(greeted, g.neighbor_slice(node), "{node}");
            assert_eq!(sends[degree].to, events[wake].from, "{node} answers");
        }
        let ids: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Send)
            .map(|e| e.msg_id)
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "message ids rise in recording order"
        );
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn sending_to_a_non_neighbour_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                ctx.send(NodeId(2), Token { hops: 0, n: 3 });
            }
            fn on_message(&mut self, _: NodeId, _: Token, _: &mut impl Context<Token>) {}
        }
        let g = Arc::new(generators::path(3).unwrap());
        // Node 0's only neighbour is node 1, so this panics during the run.
        let _ = ExecutorKind::Sim.run(&g, |_, _| Bad, &ExecConfig::default(), &CancelToken::new());
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
            fn on_start(&mut self, ctx: &mut impl Context<Numbered>) {
                if let Role::Sender = self.0 {
                    if ctx.id() == NodeId(0) {
                        for i in 0..50 {
                            ctx.send(NodeId(1), Numbered(i));
                        }
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, msg: Numbered, _: &mut impl Context<Numbered>) {
                if let Role::Receiver(got) = &mut self.0 {
                    got.push(msg.0);
                }
            }
        }
        let g = Arc::new(generators::path(2).unwrap());
        let cfg = ExecConfig {
            sim: SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 30,
                    seed: 123,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let run = ExecutorKind::Sim
            .run(
                &g,
                |id, _| {
                    if id == NodeId(0) {
                        FifoProbe(Role::Sender)
                    } else {
                        FifoProbe(Role::Receiver(Vec::new()))
                    }
                },
                &cfg,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(run.status, ExecStatus::Quiesced);
        let Role::Receiver(got) = &run.nodes[1].0 else {
            panic!("node 1 is the receiver");
        };
        let sorted: Vec<u64> = (0..50).collect();
        assert_eq!(
            got, &sorted,
            "messages on one link must arrive in FIFO order"
        );
    }

    /// A start event whose target names its push index, so a popped event
    /// identifies the push it came from.
    fn tagged(index: u32) -> Event<()> {
        Event {
            to: NodeId(index),
            kind: EventKind::Start,
        }
    }

    #[test]
    fn equal_times_pop_the_far_event_first() {
        let mut queue = EventQueue::new();
        // Pushed at cursor 0, time 100 lies past the ring: a far event.
        queue.push(100, tagged(0));
        queue.push(40, tagged(1));
        assert_eq!(queue.pop().map(|(t, e)| (t, e.to)), Some((40, NodeId(1))));
        // At cursor 40 the same time is near; it was pushed later, so it
        // pops after the far one, as one `(time, seq)` heap would order it.
        queue.push(100, tagged(2));
        queue.push(41, tagged(3));
        let order: Vec<(u64, NodeId)> = std::iter::from_fn(|| queue.pop())
            .map(|(t, e)| (t, e.to))
            .collect();
        assert_eq!(
            order,
            vec![(41, NodeId(3)), (100, NodeId(0)), (100, NodeId(2))]
        );
        assert!(queue.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The calendar queue pops exactly what one `(time, seq)` heap over
        /// the same pushes pops, and its slab never holds more slots than
        /// the most events ever pending at once.
        #[test]
        fn calendar_queue_pops_in_heap_order(seed in any::<u64>(), pop_percent in 10u32..70) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let (mut cursor, mut pushed, mut pending, mut peak) = (0u64, 0u32, 0usize, 0usize);
            for _ in 0..1_500 {
                if pending > 0 && rng.gen_range(0..100u32) < pop_percent {
                    let (time, event) = queue.pop().expect("a pending event");
                    let Reverse((want_time, want_index)) = reference.pop().expect("same length");
                    prop_assert_eq!((time, event.to), (want_time, NodeId(want_index)));
                    cursor = time;
                    pending -= 1;
                    continue;
                }
                // Mostly single pushes; now and then a burst of up to 200
                // before the next pop.
                let burst = if rng.gen_bool(0.05) { rng.gen_range(20..200u32) } else { 1 };
                for _ in 0..burst {
                    let delay = match rng.gen_range(0..10u32) {
                        0..=2 => 0,
                        3..=5 => rng.gen_range(1..4),
                        6 => rng.gen_range(RING - 3..RING + 3),
                        7 => rng.gen_range(0..3 * RING),
                        8 => rng.gen_range(RING..1_000),
                        _ => rng.gen_range(1_000..100_000),
                    };
                    queue.push(cursor + delay, tagged(pushed));
                    reference.push(Reverse((cursor + delay, pushed)));
                    pushed += 1;
                    pending += 1;
                }
                peak = peak.max(pending);
                prop_assert!(queue.slab.len() <= peak, "{} slots for {peak} pending", queue.slab.len());
            }
            while let Some(Reverse((want_time, want_index))) = reference.pop() {
                let (time, event) = queue.pop().expect("same length");
                prop_assert_eq!((time, event.to), (want_time, NodeId(want_index)));
            }
            prop_assert!(queue.pop().is_none() && queue.is_empty());
        }
    }
}
