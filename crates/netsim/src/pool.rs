//! Sharded pool runtime: thousands of nodes on a fixed worker pool.
//!
//! Runs the protocols under genuine OS nondeterminism well into the
//! `n ≥ 10⁴` regime where the paper's `O(Δ* + log n)` degree bound becomes
//! interesting. This runtime multiplexes every node over a fixed pool of
//! workers, around a **sharded message fabric**:
//!
//! * **one owning shard per node** — the nodes are split into `workers`
//!   contiguous ranges: node `u` belongs to shard `⌊u·W/n⌋`, and shard `w`
//!   starts at node `⌈w·n/W⌉`. A shard is one mutex-guarded state (its
//!   nodes' protocol states, mailboxes and run queue), an inbox for
//!   messages from other shards, and a `ready` flag, each on its own cache
//!   line. Node cells carry no lock of their own: whoever holds the shard
//!   lock owns every node in it, so a node's handlers never run on two
//!   workers at once.
//! * **sessions** — a worker locks a shard, routes its inbox into the
//!   mailboxes, and runs the shard's run queue until it is empty, routing
//!   the inbox again whenever `ready` says more arrived. Each worker tries
//!   its home shard (shard `w` for worker `w`) first and may run another
//!   shard only while that shard's home worker is idle (yielding or
//!   asleep), and only by `try_lock` — no worker ever blocks on a shard.
//!   Without that takeover, an oversubscribed pool (more workers than
//!   CPUs) waits at every hop for the OS to schedule one particular thread.
//! * **quantum = drain batch** — a scheduled node processes its pending
//!   wake-up plus up to [`ExecConfig::batch`] mailbox messages per quantum
//!   and, if messages remain, goes to the back of the run queue, so one
//!   flooded hub cannot monopolise a session while other nodes starve.
//! * **sends** — a send to a node of the same shard goes straight into that
//!   node's mailbox (the session owns it); a send to another shard is
//!   appended to the worker's outbox for that shard. After every chain of
//!   quanta that filled an outbox, each non-empty outbox is handed over
//!   with **one** inbox lock, so cross-shard traffic costs one lock per
//!   shard pair and chain, not one per message or per destination node.
//!   A worker never releases a shard lock while its outboxes hold
//!   messages, so a link's messages enter the target inbox in send order
//!   whichever worker ran the sender, and the inbox is routed in order:
//!   every link stays FIFO.
//! * **quiescence via in-flight counters** — a shared counter tracks every
//!   queued-or-processing unit of work (initial wake-ups plus undelivered
//!   messages). A worker adds its sends and gives back its processed units
//!   in one RMW before any of those sends becomes visible to another
//!   worker, so the counter never dips below the work that exists and
//!   reaching zero really means the network is quiescent. The argument
//!   lives on [`Scratch::settle`].
//! * **bounded transit memory** — envelopes are flat (the target id rides
//!   in the padding beside the sender id), and every outbox or inbox
//!   buffer that changed hands is trimmed back to [`TRANSIT_KEEP`] entries
//!   after use, so a burst of all-to-all traffic leaves no high-water
//!   buffer behind.
//! * **per-node memory diet** — the runtime is monomorphised over a
//!   compile-time `TraceMode`: on untraced runs the per-envelope message
//!   identity and the per-cell link sequence counters are zero-sized *types*,
//!   not zeroed fields, so the no-trace hot path never stores or copies
//!   trace bookkeeping at all. Run queues hold `u32` node ids (the graph
//!   caps node ids at 2³²), and drained mailbox buffers are recycled through
//!   a worker-local `MailboxPool` bucketed by capacity class, so retained
//!   mailbox capacity scales with the active frontier instead of parking
//!   one high-water buffer in every one of a million cells.
//!
//! The runtime reports the same [`Metrics`] as the simulator (message
//! counts, bits, causal depth) in the same [`ExecRun`], plus the wall-clock
//! duration and per-worker [`WorkerStats`], and honors the `max_events` cap
//! ([`ExecStatus::EventLimitExceeded`]). It has no simulated clock, so its
//! entry, [`PoolRuntime::run`], rejects delay models, staggered starts and
//! fault plans.

use crate::cancel::CancelToken;
use crate::delay::DelayModel;
use crate::exec::{ExecConfig, ExecError, ExecRun, ExecStatus, WorkerStats};
use crate::message::NetMessage;
use crate::metrics::{KindCounts, Metrics};
use crate::protocol::{Context, Protocol};
use crate::sim::StartModel;
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};
use mdst_graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Compile-time selector for the pool's trace bookkeeping. The runtime is
/// monomorphised twice: [`Traced`] carries a `(msg_id, link_seq)` identity in
/// every envelope and a per-link sequence counter vector in every cell, while
/// [`Untraced`] replaces both with zero-sized types — the no-trace path does
/// not merely skip the bookkeeping, it never stores, copies, or branches on
/// it (every trace site tests [`TraceMode::ENABLED`], a constant, first).
trait TraceMode: Send + Sync + 'static {
    /// Per-envelope trace identity: `(msg_id, link_seq)` or nothing.
    type Meta: Copy + Default + Send;
    /// Per-cell sender-side link sequence counters, indexed by the target's
    /// slot in the sorted CSR neighbour row: a lazily-sized vector or
    /// nothing.
    type LinkSeqs: Default + Send;
    /// `true` exactly when [`Shared::trace`] is populated.
    const ENABLED: bool;
    fn meta(msg_id: u64, link_seq: u64) -> Self::Meta;
    fn msg_id(meta: Self::Meta) -> u64;
    fn link_seq(meta: Self::Meta) -> u64;
    /// Hands out the next sequence number on `slot`, lazily sizing the
    /// counter vector to `degree` on the cell's first traced send. Only
    /// called by the worker holding the sender's shard lock, so the send
    /// order on each link maps one-to-one onto consecutive sequence numbers.
    fn next_link_seq(seqs: &mut Self::LinkSeqs, slot: usize, degree: usize) -> u64;
}

/// The no-trace instantiation: all trace bookkeeping is zero-sized.
enum Untraced {}

impl TraceMode for Untraced {
    type Meta = ();
    type LinkSeqs = ();
    const ENABLED: bool = false;
    fn meta(_: u64, _: u64) -> Self::Meta {}
    fn msg_id(_: Self::Meta) -> u64 {
        0
    }
    fn link_seq(_: Self::Meta) -> u64 {
        0
    }
    fn next_link_seq(_: &mut Self::LinkSeqs, _: usize, _: usize) -> u64 {
        0
    }
}

/// The traced instantiation: envelopes carry their identity, cells their
/// per-link counters (dense by neighbour slot, no per-send entry churn).
enum Traced {}

/// Trace identity of one in-flight message (see [`TraceEvent::msg_id`]).
#[derive(Copy, Clone, Default)]
struct MsgIdentity {
    msg_id: u64,
    link_seq: u64,
}

impl TraceMode for Traced {
    type Meta = MsgIdentity;
    type LinkSeqs = Vec<u64>;
    const ENABLED: bool = true;
    fn meta(msg_id: u64, link_seq: u64) -> Self::Meta {
        MsgIdentity { msg_id, link_seq }
    }
    fn msg_id(meta: Self::Meta) -> u64 {
        meta.msg_id
    }
    fn link_seq(meta: Self::Meta) -> u64 {
        meta.link_seq
    }
    fn next_link_seq(seqs: &mut Self::LinkSeqs, slot: usize, degree: usize) -> u64 {
        if seqs.is_empty() {
            seqs.resize(degree, 0);
        }
        let seq = seqs[slot];
        seqs[slot] += 1;
        seq
    }
}

/// A message in flight between two nodes, in a mailbox, an outbox or an
/// inbox alike. The target id shares the sender id's word, so an envelope
/// bound for another shard needs no wrapper; the trace identity is a
/// zero-sized blank on untraced runs (see [`TraceMode`]).
struct Envelope<M, T: TraceMode> {
    from: u32,
    to: u32,
    causal_depth: u64,
    msg: M,
    meta: T::Meta,
}

/// The per-node state a shard keeps beside its node's protocol.
struct NodeCell<M, T: TraceMode> {
    mailbox: VecDeque<Envelope<M, T>>,
    /// Whether the node sits in its shard's run queue or is being processed;
    /// keeps it in the queue at most once.
    scheduled: bool,
    /// Whether an initial wake-up is still owed (carries one in-flight unit).
    pending_start: bool,
    /// Whether `on_start` has run (a message wakes a node that has not
    /// spontaneously started, same convention as the simulator).
    started: bool,
    /// Sender-side trace sequence counters (see [`TraceMode::next_link_seq`]);
    /// zero-sized on untraced runs.
    link_seq: T::LinkSeqs,
}

/// Everything a session owns while it holds a shard. The protocols sit
/// apart from the cells so a handler borrowing its own protocol can still
/// push into the mailboxes of its shard mates.
struct ShardState<P: Protocol, T: TraceMode> {
    protocols: Vec<P>,
    cells: Vec<NodeCell<P::Message, T>>,
    /// Runnable node ids, in FIFO order.
    queue: VecDeque<u32>,
}

/// Pads a value to its own pair of cache lines, so the flags and locks that
/// different workers write never share a line.
#[repr(align(128))]
struct Line<T>(T);

impl<T> std::ops::Deref for Line<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Messages handed over to a shard by the other shards, in hand-over order.
type Inbox<M, T> = Mutex<Vec<Envelope<M, T>>>;

/// One shard of the fabric (see the module docs).
struct Shard<P: Protocol, T: TraceMode> {
    state: Line<Mutex<ShardState<P, T>>>,
    inbox: Line<Inbox<P::Message, T>>,
    /// Set under the inbox lock by every hand-over and cleared under it by
    /// the session that takes the inbox: a hint read without the lock, so a
    /// stale `true` costs one empty inbox check and a stale `false` only
    /// delays the session until the store becomes visible.
    ready: Line<AtomicBool>,
}

/// Counters shared by every worker of one traced run: the global event stamp
/// (total recording order across workers) and the message-id allocator.
struct TraceShared {
    stamp: AtomicU64,
    next_msg_id: AtomicU64,
}

struct Shared<P: Protocol, T: TraceMode> {
    shards: Vec<Shard<P, T>>,
    /// Per worker: whether it is idle (yielding or asleep), which is what
    /// lets another worker take over its home shard.
    idle: Vec<Line<AtomicBool>>,
    /// Shared topology; workers borrow neighbour slices from its CSR rows,
    /// so the pool allocates no per-run adjacency at all.
    graph: Arc<Graph>,
    /// Queued-or-processing work units; zero means quiescent forever.
    in_flight: AtomicI64,
    processed: AtomicU64,
    aborted: AtomicBool,
    /// Cooperative cancellation flag, polled by every worker at the top of
    /// its scheduling loop and with every processed-units flush. A raised
    /// token also raises `aborted`, reusing the event-cap drain-out path;
    /// `cancelled` remembers which it was.
    cancel: CancelToken,
    cancelled: AtomicBool,
    max_events: u64,
    n: usize,
    /// Resolved drain-batch size (never zero).
    batch: usize,
    /// Present exactly when the run records a trace.
    trace: Option<TraceShared>,
}

impl<P: Protocol, T: TraceMode> Shared<P, T> {
    /// Shard owning node `u`: `⌊u·W/n⌋`.
    fn shard_of(&self, u: u32) -> usize {
        (u as u64 * self.shards.len() as u64 / self.n as u64) as usize
    }
}

/// First node of shard `w` of `shards` over `n` nodes: `⌈w·n/W⌉`, the
/// inverse of [`Shared::shard_of`].
fn shard_start(w: usize, shards: usize, n: usize) -> u32 {
    (w as u64 * n as u64).div_ceil(shards as u64) as u32
}

/// Context handed to a protocol while a session processes one of its
/// nodes: sends to shard mates land in their mailboxes at once, sends to
/// other shards in the worker's outboxes.
struct ShardCtx<'a, P: Protocol, T: TraceMode> {
    id: NodeId,
    neighbors: &'a [NodeId],
    shared: &'a Shared<P, T>,
    /// First node of the session's shard; `cells[v - base]` is node `v`.
    base: u32,
    cells: &'a mut [NodeCell<P::Message, T>],
    queue: &'a mut VecDeque<u32>,
    scratch: &'a mut Scratch<P::Message, T>,
    events: &'a mut Vec<TraceEvent>,
    current_depth: u64,
    /// Sends of the current quantum.
    sent: u64,
}

impl<P: Protocol, T: TraceMode> Context<P::Message> for ShardCtx<'_, P, T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }
    fn send(&mut self, to: NodeId, msg: P::Message) {
        let slot = self.neighbors.binary_search(&to);
        assert!(
            slot.is_ok(),
            "protocol bug: {} tried to send {:?} to non-neighbour {}",
            self.id,
            msg,
            to
        );
        self.sent += 1;
        let mut meta = T::Meta::default();
        if T::ENABLED {
            if let Some(tracing) = &self.shared.trace {
                // The sender's cell is ours while the session holds its
                // shard, so consecutive sends on a link get consecutive
                // sequence numbers.
                let msg_id = tracing.next_msg_id.fetch_add(1, Ordering::SeqCst);
                let own = &mut self.cells[(self.id.0 - self.base) as usize];
                // The assert above makes the fallback unreachable.
                let link_seq =
                    T::next_link_seq(&mut own.link_seq, slot.unwrap_or(0), self.neighbors.len());
                self.events.push(TraceEvent {
                    time: tracing.stamp.fetch_add(1, Ordering::SeqCst),
                    kind: TraceEventKind::Send,
                    from: self.id,
                    to,
                    message_kind: msg.kind().into(),
                    msg_id,
                    seq: link_seq,
                });
                meta = T::meta(msg_id, link_seq);
            }
        }
        let envelope = Envelope {
            from: self.id.0,
            to: to.0,
            causal_depth: self.current_depth + 1,
            msg,
            meta,
        };
        match to.0.checked_sub(self.base) {
            Some(local) if (local as usize) < self.cells.len() => {
                let cell = &mut self.cells[local as usize];
                deposit(cell, envelope, self.queue, &mut self.scratch.mailboxes);
            }
            _ => self.scratch.post(self.shared.shard_of(to.0), envelope),
        }
    }
    fn network_size(&self) -> usize {
        self.shared.n
    }
}

impl<P: Protocol, T: TraceMode> ShardCtx<'_, P, T> {
    /// Takes the next message out of the current node's mailbox, charges it
    /// to the worker's metrics, makes its causal depth the current one and,
    /// on traced runs, records its Deliver event. The stamp is drawn after
    /// the message left the mailbox, which happens-after its send stamp (a
    /// hand-over and the inbox routing both pass through the target's inbox
    /// lock), so a message's Deliver always outranks its Send in the merged
    /// order.
    fn receive(&mut self, metrics: &mut Metrics) -> Option<Envelope<P::Message, T>> {
        let local = (self.id.0 - self.base) as usize;
        let envelope = self.cells[local].mailbox.pop_front()?;
        self.scratch.kinds.bump(envelope.msg.kind());
        metrics.record_payload(envelope.msg.encoded_bits(), envelope.causal_depth);
        self.current_depth = envelope.causal_depth;
        if T::ENABLED {
            if let Some(tracing) = &self.shared.trace {
                self.events.push(TraceEvent {
                    time: tracing.stamp.fetch_add(1, Ordering::SeqCst),
                    kind: TraceEventKind::Deliver,
                    from: NodeId(envelope.from),
                    to: self.id,
                    message_kind: envelope.msg.kind().into(),
                    msg_id: T::msg_id(envelope.meta),
                    seq: T::link_seq(envelope.meta),
                });
            }
        }
        Some(envelope)
    }
}

/// Appends `envelope` to its target's mailbox and queues the target if it
/// was not runnable yet. A drained mailbox holds no buffer; it takes a
/// recycled one from the worker's pool instead of growing a fresh one.
fn deposit<M, T: TraceMode>(
    cell: &mut NodeCell<M, T>,
    envelope: Envelope<M, T>,
    queue: &mut VecDeque<u32>,
    mailboxes: &mut MailboxPool<Envelope<M, T>>,
) {
    if cell.mailbox.capacity() == 0 {
        cell.mailbox = mailboxes.take(1);
    }
    let to = envelope.to;
    cell.mailbox.push_back(envelope);
    if !cell.scheduled {
        cell.scheduled = true;
        queue.push_back(to);
    }
}

/// Runs protocols on a fixed sharded worker pool. See the module docs;
/// runs reach it through [`crate::exec::ExecutorKind::run`].
pub(crate) struct PoolRuntime;

impl PoolRuntime {
    /// Resolved drain-batch size: `0` means [`ExecConfig::DEFAULT_BATCH`].
    fn effective_batch(requested: usize) -> usize {
        if requested == 0 {
            ExecConfig::DEFAULT_BATCH
        } else {
            requested
        }
    }

    /// Resolved worker count for a pool over `n` nodes.
    fn effective_workers(requested: usize, n: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let w = if requested == 0 {
            hw.min(64)
        } else {
            requested
        };
        w.clamp(1, n.max(1))
    }

    /// Executes the protocol on `graph` until quiescence, the event cap or
    /// a raised `cancel` token, and returns the final node states plus
    /// metrics. The factory receives each node's identity and sorted
    /// neighbour list. Every worker polls `cancel` at the top of its
    /// scheduling loop and inside its sessions; a raised token drains the
    /// pool exactly like an event-cap abort, reported as
    /// [`ExecStatus::Cancelled`].
    ///
    /// The configuration is validated up front: everything that needs a
    /// simulated clock (a delay model other than unit, a staggered start, a
    /// non-benign fault plan) and an empty or out-of-range
    /// [`StartModel::Selected`] list return [`ExecError::InvalidConfig`]
    /// instead of being ignored or panicking inside a worker.
    pub(crate) fn run<P, F>(
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, ExecError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        if !matches!(config.sim.delay, DelayModel::Unit) {
            return Err(ExecError::InvalidConfig(
                "the `pool` executor schedules deliveries on real threads and \
                 cannot honor a simulated delay model; use executor = \"sim\""
                    .to_string(),
            ));
        }
        if !config.sim.faults.is_benign() {
            return Err(ExecError::InvalidConfig(
                "the `pool` executor cannot inject faults (loss, crashes, \
                 cuts need the simulated clock); use executor = \"sim\""
                    .to_string(),
            ));
        }
        let n = graph.node_count();
        config
            .sim
            .start
            .validate(n)
            .map_err(ExecError::InvalidConfig)?;
        let starters: Vec<usize> = match &config.sim.start {
            StartModel::Simultaneous => (0..n).collect(),
            StartModel::Selected(list) => {
                let mut ids: Vec<usize> = list.iter().map(|u| u.index()).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            StartModel::Staggered { .. } => {
                return Err(ExecError::InvalidConfig(
                    "the pool runtime has no simulated clock and cannot honor \
                     StartModel::Staggered; use the simulator"
                        .to_string(),
                ));
            }
        };
        // Monomorphise the whole runtime over the trace switch: the untraced
        // instantiation carries no trace bookkeeping in its envelopes or
        // cells (see [`TraceMode`]).
        Ok(if config.sim.record_trace {
            Self::run_mode::<P, F, Traced>(graph, factory, config, starters, cancel)
        } else {
            Self::run_mode::<P, F, Untraced>(graph, factory, config, starters, cancel)
        })
    }

    fn run_mode<P, F, T>(
        graph: &Arc<Graph>,
        mut factory: F,
        config: &ExecConfig,
        starters: Vec<usize>,
        cancel: &CancelToken,
    ) -> ExecRun<P>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
        T: TraceMode,
    {
        let n = graph.node_count();
        let workers = Self::effective_workers(config.workers, n);
        let mut starts = vec![false; n];
        for &u in &starters {
            starts[u] = true;
        }
        let shards: Vec<Shard<P, T>> = (0..workers)
            .map(|w| {
                let range = shard_start(w, workers, n)..shard_start(w + 1, workers, n);
                let protocols = range
                    .clone()
                    .map(|u| factory(NodeId(u), graph.neighbor_slice(NodeId(u))))
                    .collect();
                let cells = range
                    .clone()
                    .map(|u| NodeCell {
                        mailbox: VecDeque::new(),
                        scheduled: starts[u as usize],
                        pending_start: starts[u as usize],
                        started: false,
                        link_seq: T::LinkSeqs::default(),
                    })
                    .collect();
                let queue: VecDeque<u32> = range.filter(|&u| starts[u as usize]).collect();
                Shard {
                    ready: Line(AtomicBool::new(!queue.is_empty())),
                    state: Line(Mutex::new(ShardState {
                        protocols,
                        cells,
                        queue,
                    })),
                    inbox: Line(Mutex::new(Vec::new())),
                }
            })
            .collect();
        drop(starts);
        let shared = Shared {
            shards,
            idle: (0..workers).map(|_| Line(AtomicBool::new(false))).collect(),
            graph: Arc::clone(graph),
            in_flight: AtomicI64::new(starters.len() as i64),
            processed: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            cancel: cancel.clone(),
            cancelled: AtomicBool::new(false),
            max_events: config.sim.max_events,
            n,
            batch: Self::effective_batch(config.batch),
            trace: T::ENABLED.then(|| TraceShared {
                stamp: AtomicU64::new(0),
                next_msg_id: AtomicU64::new(1),
            }),
        };

        let started_at = Instant::now();
        let mut per_worker: Vec<(Metrics, Vec<TraceEvent>, WorkerStats)> =
            Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let shared = &shared;
                handles.push(scope.spawn(move || worker_loop(w, shared)));
            }
            for handle in handles {
                match handle.join() {
                    Ok(m) => per_worker.push(m),
                    // Re-raise a protocol panic under its original message
                    // (all siblings have already exited via the abort flag).
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let wall_time = started_at.elapsed();

        let mut metrics = Metrics::new(n);
        let mut merged_events: Vec<TraceEvent> = Vec::new();
        let mut worker_stats = Vec::with_capacity(workers);
        for (m, events, stats) in per_worker {
            metrics.merge(&m);
            merged_events.extend(events);
            worker_stats.push(stats);
        }
        let trace = if T::ENABLED {
            // The global stamp is unique per event, so sorting by it totally
            // orders the merged worker buffers by real recording order.
            merged_events.sort_unstable_by_key(|e| e.time);
            TraceRecorder::from_events(merged_events)
        } else {
            TraceRecorder::disabled()
        };
        // There is no simulated clock: the quiescence clock is reported as
        // the maximum causal depth.
        metrics.quiescence_time = metrics.causal_time;
        let status = if shared.cancelled.load(Ordering::SeqCst) {
            ExecStatus::Cancelled
        } else if shared.aborted.load(Ordering::SeqCst) {
            ExecStatus::EventLimitExceeded
        } else {
            ExecStatus::Quiesced
        };
        // Shards cover consecutive node ranges, so concatenating their
        // protocols in shard order indexes them by identity. Growing the
        // first shard's vector in place and appending the others frees each
        // shard's states as they move, instead of holding two copies of
        // every node's state at once.
        let mut protocols = shared.shards.into_iter().map(|shard| {
            shard
                .state
                .0
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .protocols
        });
        let mut nodes: Vec<P> = protocols.next().unwrap_or_default();
        nodes.reserve_exact(n - nodes.len());
        for mut rest in protocols {
            nodes.append(&mut rest);
        }
        ExecRun {
            topology: Arc::clone(graph),
            nodes,
            metrics,
            trace,
            status,
            crashed: vec![false; n],
            workers,
            wall_time,
            worker_stats,
        }
    }
}

/// Acquires a mutex, recovering the data on poisoning: when a sibling worker
/// panicked mid-quantum the pool is aborting anyway, and the recovering
/// workers only need the lock to drain out, not for consistency.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shard lock if it is free, never waiting for it (poisoning is
/// recovered as in [`lock_ignore_poison`]).
fn try_lock_shard<T>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Flips the abort flag when dropped during a panic, so a protocol panic on
/// one worker releases the siblings instead of leaving them waiting for an
/// `in_flight` count that will never reach zero.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Mailbox capacity classes `2⁰ ..= 2^(MAILBOX_CLASSES−1)`; larger drained
/// buffers go back to the allocator instead of the pool.
const MAILBOX_CLASSES: usize = 17;

/// Drained buffers kept per class per worker; beyond that, the allocator
/// takes them back.
const MAILBOX_POOL_PER_CLASS: usize = 32;

/// Capacity an outbox, inbox or transit buffer keeps after it changed hands
/// and was emptied: enough for a chain's typical hand-over, so steady
/// traffic allocates nothing, while a burst's high-water buffer goes back
/// to the allocator instead of circulating between workers.
const TRANSIT_KEEP: usize = 256;

/// Worker-local pool of drained mailbox buffers, bucketed by power-of-two
/// capacity class (≈ the receiver's degree class under flooding: a mailbox's
/// high-water mark tracks how many neighbours talk to the node per wave).
/// Settling a fully drained node donates its buffer here instead of letting
/// the capacity rot in the cell forever; waking an empty mailbox takes one
/// back. Retained mailbox capacity then scales with the active frontier,
/// not the node count — the difference between a million idle high-water
/// deques and a few dozen live ones.
struct MailboxPool<E> {
    classes: Vec<Vec<VecDeque<E>>>,
}

impl<E> MailboxPool<E> {
    fn new() -> Self {
        MailboxPool {
            classes: (0..MAILBOX_CLASSES).map(|_| Vec::new()).collect(),
        }
    }

    /// Class of a capacity: `floor(log2(cap))`, so class `c` holds buffers
    /// of capacity `2^c .. 2^(c+1)`.
    fn class_of(cap: usize) -> usize {
        (usize::BITS - 1 - cap.leading_zeros()) as usize
    }

    /// Returns a drained buffer to the pool (or to the allocator, when the
    /// class bucket is full or the buffer is outsized).
    fn donate(&mut self, deque: VecDeque<E>) {
        debug_assert!(deque.is_empty(), "only drained mailboxes are donated");
        let cap = deque.capacity();
        if cap == 0 {
            return;
        }
        if let Some(bucket) = self.classes.get_mut(Self::class_of(cap)) {
            if bucket.len() < MAILBOX_POOL_PER_CLASS {
                bucket.push(deque);
            }
        }
    }

    /// Takes a buffer of capacity ≥ `at_least` if the pool has one (scanning
    /// upward from the smallest sufficient class), else an unallocated deque
    /// that will size itself on first push.
    fn take(&mut self, at_least: usize) -> VecDeque<E> {
        // Smallest class whose *every* member has capacity ≥ `at_least`:
        // ceil(log2(at_least)).
        let from = if at_least <= 1 {
            0
        } else {
            Self::class_of(at_least - 1) + 1
        };
        for class in from.min(MAILBOX_CLASSES)..MAILBOX_CLASSES {
            if let Some(deque) = self.classes[class].pop() {
                return deque;
            }
        }
        VecDeque::new()
    }
}

/// Shrinks an emptied transit buffer back to [`TRANSIT_KEEP`] entries.
fn trim<E>(buffer: &mut Vec<E>) {
    debug_assert!(buffer.is_empty(), "only emptied buffers are trimmed");
    if buffer.capacity() > TRANSIT_KEEP {
        buffer.shrink_to(TRANSIT_KEEP);
    }
}

/// Worker-local state recycled across sessions, so the steady state of a
/// long run allocates nothing per quantum.
struct Scratch<M, T: TraceMode> {
    /// Per target shard: this chain's messages to that shard, in send order.
    outboxes: Vec<Vec<Envelope<M, T>>>,
    /// Shards whose outbox is non-empty, in first-send order.
    dirty: Vec<u32>,
    /// The inbox a session took over, being routed into mailboxes.
    transit: Vec<Envelope<M, T>>,
    /// Sends minus processed units not yet applied to the shared
    /// `in_flight` counter (see [`Scratch::settle`]).
    in_flight_delta: i64,
    /// Processed units not yet folded into the shared counter (flushed
    /// every [`PROCESSED_STRIDE`] units and at every session end).
    processed_local: u64,
    /// Recycled mailbox buffers, bucketed by capacity class (see
    /// [`MailboxPool`]).
    mailboxes: MailboxPool<Envelope<M, T>>,
    /// This worker's deliveries per message kind, folded into its metrics
    /// when the worker exits (before the per-worker merge).
    kinds: KindCounts,
}

impl<M, T: TraceMode> Scratch<M, T> {
    fn new(shards: usize) -> Self {
        Scratch {
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            dirty: Vec::new(),
            transit: Vec::new(),
            in_flight_delta: 0,
            processed_local: 0,
            mailboxes: MailboxPool::new(),
            kinds: KindCounts::default(),
        }
    }

    /// Appends a message for another shard to that shard's outbox.
    fn post(&mut self, shard: usize, envelope: Envelope<M, T>) {
        let outbox = &mut self.outboxes[shard];
        if outbox.is_empty() {
            self.dirty.push(shard as u32);
        }
        outbox.push(envelope);
    }

    /// Applies the pending sends-minus-processed delta to `in_flight` in one
    /// RMW. Called before a hand-over makes any send visible and at every
    /// session end, never later.
    ///
    /// The counter stays an over-approximation of the outstanding work at
    /// every instant: a processed unit leaves it only in the same RMW that
    /// adds every send its quantum made, and a send enters it before any
    /// other worker can see the message (shard mates' mailboxes are
    /// invisible until the session ends, which settles first; other shards
    /// see the message only after the hand-over, which settles first). So
    /// the counter reaches zero only when no undelivered message and no
    /// unfinished quantum exists, after which nothing can increment it
    /// again: new work is only created inside quanta. The Release here
    /// pairs with the idle worker's Acquire zero-test, so a worker that
    /// reads zero also sees every node state the run left behind.
    fn settle<P: Protocol<Message = M>>(&mut self, shared: &Shared<P, T>) {
        if self.in_flight_delta != 0 {
            shared
                .in_flight
                .fetch_add(self.in_flight_delta, Ordering::Release);
            self.in_flight_delta = 0;
        }
    }

    /// Hands every non-empty outbox to its shard's inbox, one lock each.
    /// An empty inbox swaps buffers with the outbox instead of copying.
    fn hand_over<P: Protocol<Message = M>>(
        &mut self,
        shared: &Shared<P, T>,
        stats: &mut WorkerStats,
    ) {
        self.settle(shared);
        for shard in self.dirty.drain(..) {
            let target = &shared.shards[shard as usize];
            let outbox = &mut self.outboxes[shard as usize];
            stats.handovers += 1;
            stats.handed += outbox.len() as u64;
            {
                let mut inbox = lock_ignore_poison(&target.inbox);
                if inbox.is_empty() {
                    std::mem::swap(&mut *inbox, outbox);
                } else {
                    inbox.append(outbox);
                }
                target.ready.store(true, Ordering::Release);
            }
            trim(outbox);
        }
    }
}

fn worker_loop<P: Protocol, T: TraceMode>(
    w: usize,
    shared: &Shared<P, T>,
) -> (Metrics, Vec<TraceEvent>, WorkerStats) {
    let _abort_guard = AbortOnPanic(&shared.aborted);
    let workers = shared.shards.len();
    let mut metrics = Metrics::new(shared.n);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut scratch = Scratch::new(workers);
    let mut stats = WorkerStats::default();
    let mut idle_since: Option<Instant> = None;
    let mut idle_spins = 0u32;
    let mut session = |s: usize, state: &mut ShardState<P, T>, stats: &mut WorkerStats| {
        run_session(
            s,
            state,
            shared,
            &mut metrics,
            &mut events,
            &mut scratch,
            stats,
        )
    };
    loop {
        if shared.cancel.is_cancelled() {
            shared.cancelled.store(true, Ordering::SeqCst);
            shared.aborted.store(true, Ordering::SeqCst);
        }
        if shared.aborted.load(Ordering::SeqCst) {
            break;
        }
        // Home first; another shard only while its home worker is idle, so
        // shards stay on their home cores whenever their workers run.
        let mut ran = false;
        if shared.shards[w].ready.load(Ordering::Acquire) {
            if let Some(mut state) = try_lock_shard(&shared.shards[w].state) {
                shared.idle[w].store(false, Ordering::Relaxed);
                session(w, &mut state, &mut stats);
                ran = true;
            }
        }
        if !ran {
            for offset in 1..workers {
                let s = (w + offset) % workers;
                if !shared.shards[s].ready.load(Ordering::Acquire)
                    || !shared.idle[s].load(Ordering::Relaxed)
                {
                    continue;
                }
                if let Some(mut state) = try_lock_shard(&shared.shards[s].state) {
                    shared.idle[w].store(false, Ordering::Relaxed);
                    stats.foreign_sessions += 1;
                    session(s, &mut state, &mut stats);
                    ran = true;
                    break;
                }
            }
        }
        if ran {
            idle_spins = 0;
            if let Some(since) = idle_since.take() {
                stats.idle_ns += since.elapsed().as_nanos() as u64;
            }
            continue;
        }
        if idle_since.is_none() {
            idle_since = Some(Instant::now());
            shared.idle[w].store(true, Ordering::Relaxed);
        }
        // Acquire pairs with the Release in `Scratch::settle`: a zero read
        // happens-after every worker's final settle, and the counter is
        // monotone at zero, so breaking here never abandons live work.
        if shared.in_flight.load(Ordering::Acquire) == 0 {
            break;
        }
        // Another worker still holds work; back off politely. The
        // yield-then-sleep ladder keeps latency low without burning a core
        // per idle worker on big pools.
        idle_spins += 1;
        if idle_spins < 64 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    if let Some(since) = idle_since {
        stats.idle_ns += since.elapsed().as_nanos() as u64;
    }
    scratch.kinds.fold_into(&mut metrics);
    (metrics, events, stats)
}

/// Moves shard `s`'s inbox into its nodes' mailboxes, in hand-over order.
/// Returns whether anything arrived.
fn route_inbox<P: Protocol, T: TraceMode>(
    s: usize,
    state: &mut ShardState<P, T>,
    shared: &Shared<P, T>,
    scratch: &mut Scratch<P::Message, T>,
) -> bool {
    let shard = &shared.shards[s];
    {
        let mut inbox = lock_ignore_poison(&shard.inbox);
        shard.ready.store(false, Ordering::Relaxed);
        if inbox.is_empty() {
            return false;
        }
        std::mem::swap(&mut *inbox, &mut scratch.transit);
    }
    let base = shard_start(s, shared.shards.len(), shared.n);
    for envelope in scratch.transit.drain(..) {
        let cell = &mut state.cells[(envelope.to - base) as usize];
        deposit(cell, envelope, &mut state.queue, &mut scratch.mailboxes);
    }
    trim(&mut scratch.transit);
    true
}

/// One session on shard `s`: runs its queue until both the queue and the
/// inbox are empty (or the run aborts), handing outboxes over after every
/// chain of quanta that filled one, and settles the worker's in-flight and
/// processed accounting before the caller unlocks the shard.
fn run_session<P: Protocol, T: TraceMode>(
    s: usize,
    state: &mut ShardState<P, T>,
    shared: &Shared<P, T>,
    metrics: &mut Metrics,
    events: &mut Vec<TraceEvent>,
    scratch: &mut Scratch<P::Message, T>,
    stats: &mut WorkerStats,
) {
    stats.sessions += 1;
    let base = shard_start(s, shared.shards.len(), shared.n);
    let shard = &shared.shards[s];
    route_inbox(s, state, shared, scratch);
    // Whether quanta ran since the last hand-over (an open chain).
    let mut chain = false;
    loop {
        if shared.aborted.load(Ordering::Relaxed) {
            break;
        }
        let Some(u) = state.queue.pop_front() else {
            // The queue ran dry: finish only if nothing arrived meanwhile.
            if shard.ready.load(Ordering::Acquire) && route_inbox(s, state, shared, scratch) {
                continue;
            }
            break;
        };
        run_quantum(u, base, state, shared, metrics, events, scratch);
        stats.quanta += 1;
        chain = true;
        if !scratch.dirty.is_empty() {
            stats.chains += 1;
            chain = false;
            scratch.hand_over(shared, stats);
        }
        if scratch.processed_local >= PROCESSED_STRIDE {
            flush_processed(shared, &mut scratch.processed_local);
        }
        // Pick up what other shards handed over while this one ran, so
        // their messages join the queue instead of waiting for it to empty.
        if shard.ready.load(Ordering::Relaxed) {
            route_inbox(s, state, shared, scratch);
        }
    }
    // A chain cut short by the end of the session.
    stats.chains += chain as u64;
    scratch.settle(shared);
    flush_processed(shared, &mut scratch.processed_local);
}

/// Processes one scheduling quantum of node `u` (of the shard starting at
/// `base`): the pending wake-up (if any) plus up to [`ExecConfig::batch`]
/// mailbox messages, then requeues the node if messages remain.
fn run_quantum<P: Protocol, T: TraceMode>(
    u: u32,
    base: u32,
    state: &mut ShardState<P, T>,
    shared: &Shared<P, T>,
    metrics: &mut Metrics,
    events: &mut Vec<TraceEvent>,
    scratch: &mut Scratch<P::Message, T>,
) {
    let local = (u - base) as usize;
    let node = u as usize;
    let ShardState {
        protocols,
        cells,
        queue,
    } = state;
    let protocol = &mut protocols[local];
    let cell = &mut cells[local];
    let start_unit = std::mem::take(&mut cell.pending_start);
    let take = cell.mailbox.len().min(shared.batch);
    let wake = !cell.started && (start_unit || take > 0);
    cell.started |= wake;
    let queued = queue.len();
    let mut ctx = ShardCtx {
        id: NodeId(u),
        neighbors: shared.graph.neighbor_slice(NodeId(u)),
        shared,
        base,
        cells,
        queue,
        scratch,
        events,
        current_depth: 0,
        sent: 0,
    };
    // A node woken by its first message delivers that message before its
    // wake-up runs (and traces it first, like the simulator), and the
    // wake-up's sends inherit its depth, so they extend the chain that
    // caused them and causal_time agrees across backends. A spontaneous
    // wake-up starts a causal chain at depth 0.
    let mut woken_by = None;
    if wake {
        if !start_unit {
            woken_by = ctx.receive(metrics);
        }
        protocol.on_start(&mut ctx);
    }
    for _ in 0..take {
        let Some(envelope) = woken_by.take().or_else(|| ctx.receive(metrics)) else {
            break;
        };
        protocol.on_message(NodeId(envelope.from), envelope.msg, &mut ctx);
    }
    let sent = ctx.sent;
    let scratch = ctx.scratch;
    // A quantum that woke exactly one shard mate is the wave pattern (one
    // message in, one message out): run that node next, so the wave stays
    // on one hot path instead of queueing behind the whole frontier. Several
    // wake-ups are the flood pattern and keep FIFO order, so their mailboxes
    // accumulate into fatter quanta.
    if ctx.queue.len() == queued + 1 {
        if let Some(next) = ctx.queue.pop_back() {
            ctx.queue.push_front(next);
        }
    }
    if take > 0 {
        metrics.record_received_batch(node, take as u64);
    }
    if sent > 0 {
        metrics.record_sent_batch(node, sent);
    }
    let cell = &mut ctx.cells[local];
    if cell.mailbox.is_empty() {
        cell.scheduled = false;
        // Donate the drained buffer to the worker-local pool instead of
        // parking its high-water capacity in the cell forever; the next
        // delivery takes one back.
        if cell.mailbox.capacity() > 0 {
            scratch.mailboxes.donate(std::mem::take(&mut cell.mailbox));
        }
    } else {
        ctx.queue.push_back(u);
    }
    let units = start_unit as i64 + take as i64;
    scratch.in_flight_delta += sent as i64 - units;
    scratch.processed_local += units as u64;
}

/// How many locally-counted processed units a worker accumulates before
/// folding them into the shared `processed` counter. The event cap must
/// still fire *inside* a session — with one worker the whole run is one
/// session, and a ping-pong pair never ends one — hence the small bound:
/// the cap overshoots by at most `PROCESSED_STRIDE` units per worker
/// instead of firing on the exact unit, which the cap (a safety valve, not
/// an accounting figure) tolerates.
const PROCESSED_STRIDE: u64 = 64;

/// Folds a worker's locally-accumulated processed units into the shared
/// counter, trips the abort flag when the event cap is crossed, and polls
/// the cancel token (a session can outlast any number of scheduling-loop
/// turns). Relaxed suffices for the counter: it is monotone and only
/// compared against a threshold, and the flags carry their own SeqCst
/// ordering.
fn flush_processed<P: Protocol, T: TraceMode>(shared: &Shared<P, T>, local: &mut u64) {
    if *local == 0 {
        return;
    }
    let processed = shared.processed.fetch_add(*local, Ordering::Relaxed) + *local;
    *local = 0;
    if processed > shared.max_events {
        shared.aborted.store(true, Ordering::SeqCst);
    }
    if shared.cancel.is_cancelled() {
        shared.cancelled.store(true, Ordering::SeqCst);
        shared.aborted.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutorKind;
    use crate::sim::SimConfig;
    use crate::testutil::{flood, Token};
    use mdst_graph::generators;

    /// Runs `factory` on `kind` through the executor entry, with a token
    /// nobody raises.
    fn run_on<P: Protocol>(
        kind: ExecutorKind,
        g: &Arc<Graph>,
        factory: impl FnMut(NodeId, &[NodeId]) -> P,
        config: &ExecConfig,
    ) -> ExecRun<P> {
        kind.run(g, factory, config, &CancelToken::new())
            .expect("valid config")
    }

    fn pool<P: Protocol>(
        g: &Arc<Graph>,
        factory: impl FnMut(NodeId, &[NodeId]) -> P,
        config: &ExecConfig,
    ) -> ExecRun<P> {
        run_on(ExecutorKind::Pool, g, factory, config)
    }

    /// An [`ExecConfig`] whose run configuration is `sim`.
    fn with_sim(sim: SimConfig) -> ExecConfig {
        ExecConfig {
            sim,
            ..Default::default()
        }
    }

    #[test]
    fn flood_terminates_and_reaches_everyone() {
        let g = Arc::new(generators::gnp_connected(60, 0.1, 4).unwrap());
        let run = pool(&g, flood, &ExecConfig::default());
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert_eq!(run.nodes.len(), 60);
        assert!(run.nodes.iter().all(|p| p.seen));
        assert!(run.metrics.messages_total >= 59);
    }

    #[test]
    fn message_totals_match_the_simulator_for_deterministic_protocols() {
        let g = Arc::new(generators::path(16).unwrap());
        let run = pool(&g, flood, &ExecConfig::default());
        let sim = run_on(ExecutorKind::Sim, &g, flood, &ExecConfig::default());
        assert_eq!(run.metrics.messages_total, sim.metrics.messages_total);
        assert_eq!(run.metrics.causal_time, sim.metrics.causal_time);
        assert_eq!(run.metrics.bits_total, sim.metrics.bits_total);
        let sent: u64 = run.metrics.sent_per_node.iter().sum();
        let received: u64 = run.metrics.received_per_node.iter().sum();
        assert_eq!(sent, run.metrics.messages_total);
        assert_eq!(received, run.metrics.messages_total);
    }

    #[test]
    fn flood_with_one_worker_per_node_reaches_everyone() {
        let g = Arc::new(generators::gnp_connected(30, 0.15, 4).unwrap());
        let config = ExecConfig {
            workers: 30,
            ..Default::default()
        };
        let run = pool(&g, flood, &config);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert_eq!(run.workers, 30);
        assert_eq!(run.nodes.len(), 30);
        assert!(run.nodes.iter().all(|p| p.seen));
        assert!(run.metrics.messages_total >= 29);
    }

    #[test]
    fn one_worker_per_node_matches_the_simulator_on_a_path() {
        // Flooding on a tree sends exactly one message per edge direction
        // away from the initiator, regardless of scheduling, so even with
        // every node on its own thread the count equals the simulated one.
        let g = Arc::new(generators::path(12).unwrap());
        let config = ExecConfig {
            workers: 12,
            ..Default::default()
        };
        let run = pool(&g, flood, &config);
        assert_eq!(run.workers, 12);
        let sim = run_on(ExecutorKind::Sim, &g, flood, &ExecConfig::default());
        assert_eq!(run.metrics.messages_total, sim.metrics.messages_total);
        assert_eq!(run.metrics.causal_time, sim.metrics.causal_time);
    }

    #[test]
    fn single_worker_pool_is_effectively_sequential_and_correct() {
        let g = Arc::new(generators::complete(9).unwrap());
        let run = pool(
            &g,
            flood,
            &ExecConfig {
                workers: 1,
                ..Default::default()
            },
        );
        assert_eq!(run.workers, 1);
        assert!(run.nodes.iter().all(|p| p.seen));
    }

    #[test]
    fn worker_count_is_clamped_to_the_node_count() {
        let g = Arc::new(generators::path(3).unwrap());
        let run = pool(
            &g,
            flood,
            &ExecConfig {
                workers: 512,
                ..Default::default()
            },
        );
        assert_eq!(run.workers, 3);
    }

    #[test]
    fn selected_start_wakes_only_the_initiators() {
        struct Counter {
            started_spontaneously: bool,
        }
        #[derive(Debug, Clone)]
        struct Ping;
        impl NetMessage for Ping {
            fn kind(&self) -> &'static str {
                "Ping"
            }
            fn encoded_bits(&self) -> usize {
                8
            }
        }
        impl Protocol for Counter {
            type Message = Ping;
            fn on_start(&mut self, _ctx: &mut impl Context<Ping>) {
                self.started_spontaneously = true;
            }
            fn on_message(&mut self, _: NodeId, _: Ping, _: &mut impl Context<Ping>) {}
        }
        let g = Arc::new(generators::path(5).unwrap());
        let run = pool(
            &g,
            |_, _| Counter {
                started_spontaneously: false,
            },
            &with_sim(SimConfig {
                start: StartModel::Selected(vec![NodeId(2)]),
                ..Default::default()
            }),
        );
        // A silent protocol: only the selected node ever runs on_start.
        let started: Vec<bool> = run.nodes.iter().map(|p| p.started_spontaneously).collect();
        assert_eq!(started, vec![false, false, true, false, false]);
        assert_eq!(run.metrics.messages_total, 0);
    }

    #[test]
    fn message_wakeups_inherit_the_waking_message_depth_like_the_simulator() {
        // Every node announces to all neighbours from on_start. Under a
        // single-initiator start the announcement wave's causal chain grows
        // one hop per node, and the pool must account it exactly like the
        // simulator: a wake-up send extends the chain that caused it.
        struct Announce;
        impl Protocol for Announce {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                let targets: Vec<NodeId> = ctx.neighbors().to_vec();
                let n = ctx.network_size();
                for t in targets {
                    ctx.send(t, Token { n });
                }
            }
            fn on_message(&mut self, _: NodeId, _: Token, _: &mut impl Context<Token>) {}
        }
        let g = Arc::new(generators::path(6).unwrap());
        let config = with_sim(SimConfig {
            start: StartModel::Selected(vec![NodeId(0)]),
            ..Default::default()
        });
        let sim = run_on(ExecutorKind::Sim, &g, |_, _| Announce, &config);
        let pool = pool(&g, |_, _| Announce, &config);
        assert_eq!(pool.metrics.messages_total, sim.metrics.messages_total);
        assert_eq!(
            pool.metrics.causal_time, sim.metrics.causal_time,
            "wake-up sends must extend the waking message's causal chain"
        );
    }

    #[test]
    fn event_cap_aborts_instead_of_hanging() {
        // A ping-pong pair that never terminates: the cap must fire.
        let g = Arc::new(generators::path(2).unwrap());
        let run = pool(
            &g,
            |_, _| PingPong,
            &with_sim(SimConfig {
                max_events: 500,
                ..Default::default()
            }),
        );
        assert_eq!(run.status, ExecStatus::EventLimitExceeded);
    }

    #[test]
    fn fifo_is_preserved_per_link() {
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
                        for i in 0..500 {
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
        let run = pool(
            &g,
            |id, _| {
                if id == NodeId(0) {
                    FifoProbe(Role::Sender)
                } else {
                    FifoProbe(Role::Receiver(Vec::new()))
                }
            },
            &ExecConfig {
                workers: 4,
                ..Default::default()
            },
        );
        let Role::Receiver(got) = &run.nodes[1].0 else {
            panic!("node 1 is the receiver");
        };
        let expected: Vec<u64> = (0..500).collect();
        assert_eq!(
            got, &expected,
            "per-link FIFO order must survive hand-overs"
        );
    }

    /// Checks a traced flood's merged trace: every send delivered, unique
    /// stamps, send-before-deliver and per-link FIFO by seq.
    fn assert_merged_trace_is_ordered(run: &ExecRun<crate::testutil::Flood>) {
        use crate::trace::TraceEventKind;
        use std::collections::{HashMap, HashSet};
        assert!(run.trace.is_enabled());
        let events = run.trace.events();
        let sends = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Send)
            .count();
        let delivers = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Deliver)
            .count();
        assert_eq!(sends, delivers, "reliable network: every send delivered");
        assert_eq!(delivers as u64, run.metrics.messages_total);
        let mut sent: HashSet<u64> = HashSet::new();
        let mut last_seq: HashMap<(usize, usize), u64> = HashMap::new();
        for pair in events.windows(2) {
            assert!(pair[0].time < pair[1].time, "stamps must be unique");
        }
        for event in events {
            match event.kind {
                TraceEventKind::Send => {
                    assert!(sent.insert(event.msg_id), "msg ids are unique");
                }
                TraceEventKind::Deliver => {
                    assert!(sent.contains(&event.msg_id), "deliver after send");
                    let link = (event.from.index(), event.to.index());
                    if let Some(&prev) = last_seq.get(&link) {
                        assert!(event.seq > prev, "per-link FIFO inversion");
                    }
                    last_seq.insert(link, event.seq);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn traced_run_merges_per_worker_buffers_in_stamp_order() {
        let g = Arc::new(generators::gnp_connected(40, 0.15, 11).unwrap());
        let run = pool(
            &g,
            flood,
            &ExecConfig {
                workers: 4,
                ..with_sim(SimConfig {
                    record_trace: true,
                    ..Default::default()
                })
            },
        );
        assert_merged_trace_is_ordered(&run);
    }

    #[test]
    fn traced_run_with_one_worker_per_node_merges_in_stamp_order() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 7).unwrap());
        let run = pool(
            &g,
            flood,
            &ExecConfig {
                workers: 20,
                ..with_sim(SimConfig {
                    record_trace: true,
                    max_events: u64::MAX,
                    ..Default::default()
                })
            },
        );
        assert_eq!(run.workers, 20);
        assert_merged_trace_is_ordered(&run);
    }

    #[test]
    fn untraced_run_returns_the_disabled_recorder() {
        let g = Arc::new(generators::path(4).unwrap());
        let run = pool(&g, flood, &ExecConfig::default());
        assert!(!run.trace.is_enabled());
        assert!(run.trace.events().is_empty());
    }

    #[test]
    fn untraced_run_with_one_worker_per_node_returns_the_disabled_recorder() {
        let g = Arc::new(generators::path(4).unwrap());
        let config = ExecConfig {
            workers: 4,
            ..Default::default()
        };
        let run = pool(&g, flood, &config);
        assert_eq!(run.workers, 4);
        assert!(!run.trace.is_enabled());
        assert!(run.trace.events().is_empty());
    }

    #[test]
    fn per_node_counters_are_consistent() {
        let g = Arc::new(generators::complete(6).unwrap());
        let config = ExecConfig {
            workers: 4,
            ..Default::default()
        };
        let run = pool(&g, flood, &config);
        let sent: u64 = run.metrics.sent_per_node.iter().sum();
        let received: u64 = run.metrics.received_per_node.iter().sum();
        assert_eq!(sent, run.metrics.messages_total);
        assert_eq!(received, run.metrics.messages_total);
    }

    #[test]
    fn empty_protocol_network_quiesces_immediately() {
        struct Silent;
        impl Protocol for Silent {
            type Message = Token;
            fn on_start(&mut self, _: &mut impl Context<Token>) {}
            fn on_message(&mut self, _: NodeId, _: Token, _: &mut impl Context<Token>) {}
        }
        let g = Arc::new(generators::cycle(5).unwrap());
        let config = ExecConfig {
            workers: 4,
            ..Default::default()
        };
        let run = pool(&g, |_, _| Silent, &config);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert_eq!(run.metrics.messages_total, 0);
    }

    /// Two nodes that bat a ball back and forth forever; node 0 serves.
    struct PingPong;

    #[derive(Debug, Clone)]
    struct Ball;

    impl NetMessage for Ball {
        fn kind(&self) -> &'static str {
            "Ball"
        }
        fn encoded_bits(&self) -> usize {
            8
        }
    }

    impl Protocol for PingPong {
        type Message = Ball;
        fn on_start(&mut self, ctx: &mut impl Context<Ball>) {
            if ctx.id() == NodeId(0) {
                ctx.send(NodeId(1), Ball);
            }
        }
        fn on_message(&mut self, from: NodeId, _msg: Ball, ctx: &mut impl Context<Ball>) {
            ctx.send(from, Ball);
        }
    }

    #[test]
    fn a_ping_pong_across_shards_hits_the_event_cap() {
        // Nodes 0 and 1 live in different shards, so every hop is a
        // hand-over and no chain ever continues locally: the cap must still
        // fire from the processed-units flush.
        let g = Arc::new(generators::path(2).unwrap());
        let run = pool(
            &g,
            |_, _| PingPong,
            &ExecConfig {
                workers: 2,
                ..with_sim(SimConfig {
                    max_events: 500,
                    ..Default::default()
                })
            },
        );
        assert_eq!(run.workers, 2);
        assert_eq!(run.status, ExecStatus::EventLimitExceeded);
        let handovers: u64 = run.worker_stats.iter().map(|s| s.handovers).sum();
        assert!(handovers > 0, "every hop crosses a shard");
    }

    #[test]
    fn a_token_walked_across_eight_shards_quiesces_with_the_exact_count() {
        // A single token walks node 0 → 63 and back. Eight shards of eight
        // nodes: a hand-over that lost or stranded the token would hang
        // this test instead of quiescing.
        struct Walker {
            visits: u32,
        }
        impl Protocol for Walker {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                if ctx.id() == NodeId(0) {
                    self.visits += 1;
                    ctx.send(NodeId(1), Token { n: 1 });
                }
            }
            fn on_message(&mut self, _: NodeId, msg: Token, ctx: &mut impl Context<Token>) {
                self.visits += 1;
                // `n` counts hops; the walk turns around at the far end.
                let last = ctx.network_size() as u32 - 1;
                let here = ctx.id().0;
                let outbound = msg.n <= last as usize;
                let next = match (outbound, here) {
                    (true, h) if h < last => Some(h + 1),
                    (_, h) if h > 0 => Some(h - 1),
                    _ => None,
                };
                if let Some(next) = next {
                    ctx.send(NodeId(next), Token { n: msg.n + 1 });
                }
            }
        }
        let g = Arc::new(generators::path(64).unwrap());
        let run = pool(
            &g,
            |_, _| Walker { visits: 0 },
            &ExecConfig {
                workers: 8,
                ..with_sim(SimConfig {
                    start: StartModel::Selected(vec![NodeId(0)]),
                    ..Default::default()
                })
            },
        );
        assert_eq!(run.workers, 8);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert_eq!(run.metrics.messages_total, 2 * 63);
        assert_eq!(run.metrics.causal_time, 2 * 63);
        // The ends are visited once each way round, the inner nodes twice.
        assert_eq!(run.nodes[0].visits, 2);
        assert_eq!(run.nodes[63].visits, 1);
        assert!(run.nodes[1..63].iter().all(|w| w.visits == 2));
        let handed: u64 = run.worker_stats.iter().map(|s| s.handed).sum();
        assert_eq!(handed, 2 * 7, "the token crosses seven shard borders twice");
    }

    #[test]
    #[should_panic(expected = "node 7 exploded")]
    fn a_panic_in_the_last_shard_is_reraised_while_the_others_idle() {
        // Eight nodes on four workers: node 7 is in the last shard, and
        // every other node stays silent, so the other workers are idle when
        // the panic aborts the pool.
        struct Fuse;
        impl Protocol for Fuse {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                if ctx.id() == NodeId(7) {
                    panic!("node 7 exploded");
                }
            }
            fn on_message(&mut self, _: NodeId, _: Token, _: &mut impl Context<Token>) {}
        }
        let g = Arc::new(generators::path(8).unwrap());
        let _ = pool(
            &g,
            |_, _| Fuse,
            &ExecConfig {
                workers: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn worker_stats_count_hand_overs_only_across_shards() {
        let g = Arc::new(generators::complete(6).unwrap());
        let handovers = |workers: usize| {
            let run = pool(
                &g,
                flood,
                &ExecConfig {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(run.worker_stats.len(), workers);
            assert!(run.nodes.iter().all(|p| p.seen));
            run.worker_stats.iter().map(|s| s.handovers).sum::<u64>()
        };
        assert!(handovers(2) >= 1, "a flood crosses between two shards");
        assert_eq!(handovers(1), 0, "one shard has no one to hand over to");
    }

    #[test]
    fn shards_cover_the_nodes_in_contiguous_ranges() {
        for (n, workers) in [(10, 3), (64, 8), (7, 7), (1000, 64), (5, 1)] {
            let starts: Vec<u32> = (0..=workers).map(|w| shard_start(w, workers, n)).collect();
            assert_eq!(starts[0], 0);
            assert_eq!(starts[workers] as usize, n);
            for u in 0..n as u32 {
                let s = (u as u64 * workers as u64 / n as u64) as usize;
                assert!(
                    starts[s] <= u && u < starts[s + 1],
                    "n={n} W={workers} u={u}"
                );
            }
            assert!(starts.windows(2).all(|w| w[0] < w[1]), "no shard is empty");
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn sending_to_a_non_neighbour_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Message = Token;
            fn on_start(&mut self, ctx: &mut impl Context<Token>) {
                ctx.send(NodeId(2), Token { n: 3 });
            }
            fn on_message(&mut self, _: NodeId, _: Token, _: &mut impl Context<Token>) {}
        }
        let g = Arc::new(generators::path(3).unwrap());
        // Node 0's only neighbour is node 1; the send panics on a worker and
        // the scope propagates it.
        let _ = pool(&g, |_, _| Bad, &ExecConfig::default());
    }
}
