//! Work-stealing pool runtime: thousands of nodes on a fixed worker pool.
//!
//! Runs the protocols under genuine OS nondeterminism well into the
//! `n ≥ 10⁴` regime where the paper's `O(Δ* + log n)` degree bound becomes
//! interesting. This runtime multiplexes every node over a fixed pool of
//! workers, around a **batched message fabric**:
//!
//! * **per-node mailboxes** — each node owns a mutex-guarded cell holding its
//!   protocol state and a FIFO mailbox of in-flight envelopes. A link `{u,v}`
//!   stays FIFO because `u`'s handler appends to `v`'s mailbox in send order
//!   and the mailbox drains in order.
//! * **quantum = drain batch** — a scheduled node processes its pending
//!   wake-up plus up to [`ExecConfig::batch`] mailbox messages per quantum,
//!   so one flooded hub cannot monopolise a worker while other nodes starve.
//!   Envelopes are consumed straight out of the mailbox's `VecDeque` (whose
//!   capacity stays with the cell), so steady-state quanta allocate nothing.
//! * **bucketed send coalescing** — every send a quantum produces is routed,
//!   at `send` time, into a worker-local bucket per neighbour slot: the
//!   binary search that validates neighbourship anyway *is* the routing
//!   step, so grouping by destination costs no sort and no extra pass. The
//!   buckets are flushed *after* the source cell unlocks (never two cell
//!   locks at once): walking the slots in order takes **one**
//!   destination-cell lock per non-empty bucket and appends the link's
//!   whole message group in handler send order — per-link FIFO for free.
//!   The quantum's sends are added to the in-flight counter with **one**
//!   atomic RMW before any message becomes visible, instead of one RMW per
//!   message, and a flush that wakes exactly one destination hands it back
//!   as the worker's immediate continuation, skipping the run queue.
//! * **striped run queues with stealing** — each worker owns a deque of
//!   runnable node ids; it pops locally from the front and, when empty,
//!   steals from the back of a sibling's queue. A node is enqueued at most
//!   once (a `scheduled` flag in its cell), so the queues stay small and a
//!   node's handlers never run on two workers at once. All of a flush's
//!   newly runnable destinations are enqueued under one queue lock.
//! * **quiescence via in-flight counters** — a shared counter tracks every
//!   queued-or-processing unit of work (initial wake-ups plus undelivered
//!   messages). Senders increment *before* any message of the flush becomes
//!   visible and the processing worker decrements only after the handler's
//!   own sends are counted, so the counter reaching zero really means the
//!   network is quiescent, never a transient gap. The counter uses
//!   relaxed/acquire-release orderings; the happens-before argument lives on
//!   the increment site in `process_node`.
//! * **per-node memory diet** — the runtime is monomorphised over a
//!   compile-time `TraceMode`: on untraced runs the per-envelope message
//!   identity and the per-cell link sequence counters are zero-sized *types*,
//!   not zeroed fields, so the no-trace hot path never stores or copies
//!   trace bookkeeping at all. Run queues and wake lists hold `u32` node ids
//!   (the graph caps node ids at 2³²), and drained mailbox buffers are
//!   recycled through a worker-local `MailboxPool` bucketed by capacity
//!   class, so retained mailbox capacity scales with the active frontier
//!   instead of parking one high-water buffer in every one of a million
//!   cells.
//!
//! The runtime reports the same [`Metrics`] as the simulator (message
//! counts, bits, causal depth) in the same [`ExecRun`], plus the wall-clock
//! duration, and honors the `max_events` cap
//! ([`ExecStatus::EventLimitExceeded`]). It has no simulated clock, so its
//! entry, [`PoolRuntime::run`], rejects delay models, staggered starts and
//! fault plans.

use crate::cancel::CancelToken;
use crate::delay::DelayModel;
use crate::exec::{ExecConfig, ExecError, ExecRun, ExecStatus};
use crate::message::NetMessage;
use crate::metrics::{KindCounts, Metrics};
use crate::protocol::{Context, Protocol};
use crate::sim::StartModel;
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};
use mdst_graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// called while the processing worker owns the cell exclusively (the
    /// `scheduled` flag), so the send order on each link maps one-to-one
    /// onto consecutive sequence numbers.
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
/// per-link counters (dense by neighbour slot, unlike the `HashMap` this
/// replaced — no per-send entry churn).
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

/// A message in flight between two nodes. The trace identity is a zero-sized
/// blank on untraced runs (see [`TraceMode`]), shrinking the envelope by 16
/// bytes exactly where a million-node flood holds millions of them.
struct Envelope<M, T: TraceMode> {
    from: NodeId,
    msg: M,
    causal_depth: u64,
    meta: T::Meta,
}

/// The mutex-guarded per-node state.
struct NodeCell<P: Protocol, T: TraceMode> {
    protocol: P,
    mailbox: VecDeque<Envelope<P::Message, T>>,
    /// Whether the node currently sits in some run queue or is being
    /// processed. Guarantees single-worker ownership of the protocol state.
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

/// Counters shared by every worker of one traced run: the global event stamp
/// (total recording order across workers) and the message-id allocator.
struct TraceShared {
    stamp: AtomicU64,
    next_msg_id: AtomicU64,
}

struct Shared<P: Protocol, T: TraceMode> {
    cells: Vec<Mutex<NodeCell<P, T>>>,
    /// Striped run queues of runnable node ids — `u32`, half the queue
    /// traffic of `usize` ids (the graph caps node ids at 2³²).
    queues: Vec<Mutex<VecDeque<u32>>>,
    /// Shared topology; workers borrow neighbour slices from its CSR rows,
    /// so the pool allocates no per-run adjacency at all.
    graph: Arc<Graph>,
    /// Queued-or-processing work units; zero means quiescent forever.
    in_flight: AtomicI64,
    processed: AtomicU64,
    aborted: AtomicBool,
    /// Cooperative cancellation flag, polled by every worker at the top of
    /// its scheduling loop. A raised token also raises `aborted`, reusing
    /// the event-cap drain-out path; `cancelled` remembers which it was.
    cancel: CancelToken,
    cancelled: AtomicBool,
    max_events: u64,
    n: usize,
    /// Resolved drain-batch size (never zero).
    batch: usize,
    /// Present exactly when the run records a trace.
    trace: Option<TraceShared>,
}

/// Context handed to a protocol while one worker processes its node: each
/// send is routed straight into the per-neighbour bucket the flush later
/// drains, reusing the slot that the neighbourship check computes anyway —
/// so grouping by destination costs nothing beyond the validation, and the
/// flush needs no sort.
struct BatchedCtx<'a, M, T: TraceMode> {
    id: NodeId,
    neighbors: &'a [NodeId],
    network_size: usize,
    buckets: &'a mut [Vec<Buffered<M, T>>],
    current_depth: u64,
}

impl<M: NetMessage, T: TraceMode> Context<M> for BatchedCtx<'_, M, T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }
    fn send(&mut self, to: NodeId, msg: M) {
        // The neighbourship check *is* the routing step: the binary search
        // that validates the destination also yields its bucket slot.
        let slot = self.neighbors.binary_search(&to);
        assert!(
            slot.is_ok(),
            "protocol bug: {} tried to send {:?} to non-neighbour {}",
            self.id,
            msg,
            to
        );
        // The assert above makes the fallback unreachable.
        self.buckets[slot.unwrap_or(0)].push(Buffered {
            msg,
            causal_depth: self.current_depth + 1,
            meta: T::Meta::default(),
        });
    }
    fn network_size(&self) -> usize {
        self.network_size
    }
}

/// Runs protocols on a fixed work-stealing worker pool. See the module docs;
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
    /// scheduling loop; a raised token drains the pool exactly like an
    /// event-cap abort, reported as [`ExecStatus::Cancelled`].
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
        let cells: Vec<Mutex<NodeCell<P, T>>> = (0..n)
            .map(|u| {
                Mutex::new(NodeCell {
                    protocol: factory(NodeId::new(u), graph.neighbor_slice(NodeId::new(u))),
                    mailbox: VecDeque::new(),
                    scheduled: false,
                    pending_start: false,
                    started: false,
                    link_seq: T::LinkSeqs::default(),
                })
            })
            .collect();
        for &u in &starters {
            let mut cell = lock_ignore_poison(&cells[u]);
            cell.pending_start = true;
            cell.scheduled = true;
        }
        let mut queues: Vec<Mutex<VecDeque<u32>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, &u) in starters.iter().enumerate() {
            queues[i % workers]
                .get_mut()
                .expect("queue poisoned")
                .push_back(u as u32);
        }
        let shared = Shared {
            cells,
            queues,
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
        let mut per_worker: Vec<(Metrics, Vec<TraceEvent>)> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let shared = &shared;
                handles.push(scope.spawn(move || worker_loop(w, workers, shared)));
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
        for (m, events) in per_worker {
            metrics.merge(&m);
            merged_events.extend(events);
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
        let nodes: Vec<P> = shared
            .cells
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .protocol
            })
            .collect();
        ExecRun {
            topology: Arc::clone(graph),
            nodes,
            metrics,
            trace,
            status,
            crashed: vec![false; n],
            workers,
            wall_time,
        }
    }
}

/// Acquires a mutex, recovering the data on poisoning: when a sibling worker
/// panicked mid-quantum the pool is aborting anyway, and the recovering
/// workers only need the lock to drain out, not for consistency.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
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

/// One buffered send sitting in a destination bucket: the payload, its
/// causal depth, and the trace identity assigned just before the flush
/// (zero-sized on untraced runs).
struct Buffered<M, T: TraceMode> {
    msg: M,
    causal_depth: u64,
    meta: T::Meta,
}

/// Mailbox capacity classes `2⁰ ..= 2^(MAILBOX_CLASSES−1)`; larger drained
/// buffers go back to the allocator instead of the pool.
const MAILBOX_CLASSES: usize = 17;

/// Drained buffers kept per class per worker; beyond that, the allocator
/// takes them back.
const MAILBOX_POOL_PER_CLASS: usize = 32;

/// Worker-local pool of drained mailbox buffers, bucketed by power-of-two
/// capacity class (≈ the receiver's degree class under flooding: a mailbox's
/// high-water mark tracks how many neighbours talk to the node per wave).
/// Settling a fully drained node donates its buffer here instead of letting
/// the capacity rot in the cell forever; waking an empty mailbox takes one
/// back, sized to the incoming burst. Retained mailbox capacity then scales
/// with the active frontier, not the node count — the difference between a
/// million idle high-water deques and a few dozen live ones.
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

/// Worker-local buffers recycled across scheduling quanta, so the steady
/// state of a long run allocates nothing per quantum: the destination
/// buckets and the wake list all reuse the capacity high-watermark of
/// earlier quanta.
struct Scratch<P: Protocol, T: TraceMode> {
    /// Per-neighbour-slot send buckets: `buckets[slot]` holds this quantum's
    /// messages down link `slot`, in handler send order. Routing happens at
    /// `send` time (the neighbourship binary search yields the slot), so the
    /// flush never sorts — it walks the slots in order, one destination lock
    /// per non-empty bucket. Grown to the widest degree seen, never shrunk;
    /// the flush drains every bucket, so they are always empty between
    /// quanta.
    buckets: Vec<Vec<Buffered<P::Message, T>>>,
    /// Destinations that became runnable during the flush.
    wake: Vec<u32>,
    /// Processed units owed to `in_flight` by the current continuation
    /// chain: one Release decrement per chain instead of one per quantum.
    /// Deferral is always safe — the counter stays an over-approximation
    /// until the flush, so the idle zero-test can only fire late, never
    /// early.
    in_flight_debt: i64,
    /// Processed units not yet folded into the shared counter (flushed
    /// every [`PROCESSED_STRIDE`] units and at every chain end).
    processed_local: u64,
    /// Recycled mailbox buffers, bucketed by capacity class (see
    /// [`MailboxPool`]).
    mailboxes: MailboxPool<Envelope<P::Message, T>>,
    /// This worker's deliveries per message kind, folded into its metrics
    /// when the worker exits (before the per-worker merge).
    kinds: KindCounts,
}

impl<P: Protocol, T: TraceMode> Scratch<P, T> {
    fn new() -> Self {
        Scratch {
            buckets: Vec::new(),
            wake: Vec::new(),
            in_flight_debt: 0,
            processed_local: 0,
            mailboxes: MailboxPool::new(),
            kinds: KindCounts::default(),
        }
    }
}

fn worker_loop<P: Protocol, T: TraceMode>(
    w: usize,
    workers: usize,
    shared: &Shared<P, T>,
) -> (Metrics, Vec<TraceEvent>) {
    let _abort_guard = AbortOnPanic(&shared.aborted);
    let mut metrics = Metrics::new(shared.n);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut scratch = Scratch::new();
    let mut idle_spins = 0u32;
    loop {
        if shared.cancel.is_cancelled() {
            shared.cancelled.store(true, Ordering::SeqCst);
            shared.aborted.store(true, Ordering::SeqCst);
        }
        if shared.aborted.load(Ordering::SeqCst) {
            break;
        }
        let next = pop_local(w, shared).or_else(|| steal(w, workers, shared));
        match next {
            Some(u) => {
                idle_spins = 0;
                // Chain continuation: a batched quantum hands back one node
                // its flush just made runnable and the worker runs it
                // immediately — the common wave pattern (one message in, one
                // message out) never round-trips through the run queue.
                let mut next = Some(u);
                while let Some(u) = next {
                    if shared.aborted.load(Ordering::SeqCst) {
                        break;
                    }
                    next = process_node(u, w, shared, &mut metrics, &mut events, &mut scratch);
                }
                // Settle the chain's deferred accounting: one Release
                // decrement for the whole chain (see `Scratch::in_flight_debt`)
                // and any processed units below the flush stride.
                if scratch.in_flight_debt != 0 {
                    shared
                        .in_flight
                        .fetch_sub(scratch.in_flight_debt, Ordering::Release);
                    scratch.in_flight_debt = 0;
                }
                flush_processed(shared, &mut scratch.processed_local);
            }
            None => {
                // Acquire pairs with the Release decrement in `process_node`:
                // a zero read happens-after every worker's final decrement,
                // and the counter is monotone at zero (see the increment
                // site), so breaking here never abandons live work.
                if shared.in_flight.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Another worker still holds work; back off politely. The
                // yield-then-sleep ladder keeps latency low without burning
                // a core per idle worker on big pools.
                idle_spins += 1;
                if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
    scratch.kinds.fold_into(&mut metrics);
    (metrics, events)
}

fn pop_local<P: Protocol, T: TraceMode>(w: usize, shared: &Shared<P, T>) -> Option<u32> {
    let mut queue = lock_ignore_poison(&shared.queues[w]);
    let popped = queue.pop_front();
    // Start pulling the *next* runnable node's cell line while the popped
    // one is processed — a whole quantum of latency to hide the miss behind
    // (node indices are effectively random, so the line is almost always
    // cold).
    if let Some(&front) = queue.front() {
        std::hint::black_box(shared.cells[front as usize].is_poisoned());
    }
    popped
}

/// Steals from the back of a sibling queue, scanning siblings round-robin
/// from the worker's own position so thieves spread out.
fn steal<P: Protocol, T: TraceMode>(
    w: usize,
    workers: usize,
    shared: &Shared<P, T>,
) -> Option<u32> {
    for offset in 1..workers {
        let victim = (w + offset) % workers;
        if let Some(u) = lock_ignore_poison(&shared.queues[victim]).pop_back() {
            return Some(u);
        }
    }
    None
}

/// Processes one scheduling quantum of node `u`: the pending wake-up (if
/// any) plus up to [`ExecConfig::batch`] mailbox messages, drained into the
/// recycled [`Scratch`]; then flushes the buffered sends per destination
/// group and settles the node's `scheduled` flag. Returns one node the flush
/// made runnable, for immediate local continuation.
fn process_node<P: Protocol, T: TraceMode>(
    u: u32,
    w: usize,
    shared: &Shared<P, T>,
    metrics: &mut Metrics,
    events: &mut Vec<TraceEvent>,
    scratch: &mut Scratch<P, T>,
) -> Option<u32> {
    let node = u as usize;
    scratch.wake.clear();
    let neighbors = shared.graph.neighbor_slice(NodeId(u));
    if scratch.buckets.len() < neighbors.len() {
        // Grow to this node's degree, never shrink: slots beyond a later
        // node's degree sit empty and cost one `is_empty` test each.
        scratch.buckets.resize_with(neighbors.len(), Vec::new);
    }
    let units = {
        let mut cell = lock_ignore_poison(&shared.cells[node]);
        let start_unit = cell.pending_start;
        cell.pending_start = false;
        let take = cell.mailbox.len().min(shared.batch);
        // Split the cell borrow so the mailbox drain and the protocol
        // handlers can overlap: envelopes are consumed straight out of the
        // mailbox in one pass — no intermediate buffer, no second copy —
        // while the `VecDeque` keeps its capacity inside the cell, so no
        // quantum reallocates anything.
        let NodeCell {
            protocol,
            mailbox,
            started,
            ..
        } = &mut *cell;
        let wake = !*started && (start_unit || take > 0);
        if wake {
            *started = true;
            // A spontaneous wake-up starts a causal chain (depth 0). A node
            // woken by its first message instead inherits that message's
            // depth, exactly like the simulator, so wake-up sends extend the
            // chain that caused them and causal_time agrees across backends.
            let wake_depth = if start_unit {
                0
            } else {
                mailbox.front().map(|e| e.causal_depth).unwrap_or(0)
            };
            let mut ctx = BatchedCtx {
                id: NodeId(u),
                neighbors,
                network_size: shared.n,
                buckets: &mut scratch.buckets,
                current_depth: wake_depth,
            };
            protocol.on_start(&mut ctx);
        }
        // Endpoint columns are charged in batch below (`record_received_batch`
        // after the drain, `record_sent_batch` at the flush); the per-message
        // loop only records what varies per message.
        for envelope in mailbox.drain(..take) {
            scratch.kinds.bump(envelope.msg.kind());
            metrics.record_payload(envelope.msg.encoded_bits(), envelope.causal_depth);
            if T::ENABLED {
                if let Some(tracing) = &shared.trace {
                    // The deliver stamp is drawn after the mailbox drain, which
                    // happens-after the sender's push, which happens-after the
                    // send stamp — so a message's Deliver always outranks its
                    // Send in the merged order. Handlers only append to the
                    // worker-local buckets (Send stamps are assigned after this
                    // loop), so every Deliver of the batch still stamps before
                    // any Send of the batch.
                    events.push(TraceEvent {
                        time: tracing.stamp.fetch_add(1, Ordering::SeqCst),
                        kind: TraceEventKind::Deliver,
                        from: envelope.from,
                        to: NodeId(u),
                        message_kind: envelope.msg.kind().into(),
                        msg_id: T::msg_id(envelope.meta),
                        seq: T::link_seq(envelope.meta),
                    });
                }
            }
            let mut ctx = BatchedCtx {
                id: NodeId(u),
                neighbors,
                network_size: shared.n,
                buckets: &mut scratch.buckets,
                current_depth: envelope.causal_depth,
            };
            protocol.on_message(envelope.from, envelope.msg, &mut ctx);
        }
        let batch_len = take;
        if batch_len > 0 {
            metrics.record_received_batch(node, batch_len as u64);
        }
        // Assign trace identities to this quantum's sends while the source
        // cell (and with it the per-link sequence counters) is still
        // exclusively owned, and before any mailbox push makes the messages
        // visible to other workers. Each bucket holds its link's messages in
        // handler send order, so walking the slots hands out per-link
        // sequence numbers that stay FIFO-faithful — no sort was ever
        // needed, `send` routed by slot already.
        if T::ENABLED {
            if let Some(tracing) = &shared.trace {
                let slots = &mut scratch.buckets[..neighbors.len()];
                for (slot, bucket) in slots.iter_mut().enumerate() {
                    for entry in bucket.iter_mut() {
                        let msg_id = tracing.next_msg_id.fetch_add(1, Ordering::SeqCst);
                        let link_seq = T::next_link_seq(&mut cell.link_seq, slot, neighbors.len());
                        events.push(TraceEvent {
                            time: tracing.stamp.fetch_add(1, Ordering::SeqCst),
                            kind: TraceEventKind::Send,
                            from: NodeId(u),
                            to: neighbors[slot],
                            message_kind: entry.msg.kind().into(),
                            msg_id,
                            seq: link_seq,
                        });
                        entry.meta = T::meta(msg_id, link_seq);
                    }
                }
            }
        }
        // Untraced runs settle here, before the flush and inside this same
        // guard: a mailbox residue keeps the node scheduled (it wakes
        // itself); otherwise `scheduled` drops now and a concurrent sender
        // re-enqueues the node the normal way — no lost wake-up, because
        // senders observe the flag under this very lock. Skipping the
        // post-flush relock is safe because nothing below touches the
        // source cell again: a sibling worker claiming `u` mid-flush only
        // interleaves whole mailbox appends elsewhere, a reordering the
        // delivery model already allows (the simulator's random delay
        // models reorder links too). Traced runs settle *after* the flush
        // instead — a concurrent quantum of `u` could otherwise push later
        // link sequence numbers ahead of this quantum's unflushed ones and
        // fail the auditor's per-link FIFO rule.
        if !T::ENABLED {
            if cell.mailbox.is_empty() {
                cell.scheduled = false;
                // Donate the drained buffer to the worker-local pool instead
                // of parking its high-water capacity in the cell forever; a
                // later sender takes one back sized to its burst.
                if cell.mailbox.capacity() > 0 {
                    scratch.mailboxes.donate(std::mem::take(&mut cell.mailbox));
                }
            } else {
                scratch.wake.push(u);
            }
        }
        start_unit as i64 + batch_len as i64
    };
    // Flush the buckets with the source cell unlocked (never two cell locks
    // at once — the lock order between two talking nodes would otherwise
    // deadlock). On traced runs the source stays exclusively ours via
    // `scheduled` until the post-flush settle below.
    {
        let slots = &mut scratch.buckets[..neighbors.len()];
        let total: usize = slots.iter().map(Vec::len).sum();
        if total > 0 {
            // Count the whole flush before any of its messages becomes
            // visible — one RMW per quantum instead of one per message.
            //
            // Relaxed suffices here: `in_flight` is only *read* for the
            // zero-test in `worker_loop`, and zero is reliable on its own
            // modification order. Every message's increment precedes its
            // consumer's decrement in that order (the increment precedes the
            // mailbox push in the sender's program order; the consumer's
            // decrement follows draining that push, which the dest-cell mutex
            // orders after it), and the final decrement of each quantum
            // (Release, below) follows the increments of every message that
            // quantum produced. So the counter's value only touches zero when
            // no undelivered message and no unfinished quantum exists — at
            // which point nothing can ever increment it again, because new
            // work is only created from inside quanta. A zero read is
            // therefore never transient, whatever its ordering.
            shared.in_flight.fetch_add(total as i64, Ordering::Relaxed);
            metrics.record_sent_batch(node, total as u64);
            // Warm every destination cell before taking any lock: the
            // indices are effectively random, so each bucket's first touch
            // would otherwise stall on a cold cache line inside the critical
            // section. The relaxed poison-flag load shares its line with the
            // cell's lock word, and issuing all of them back-to-back lets
            // the misses overlap instead of serialising one per bucket.
            for (slot, bucket) in slots.iter().enumerate() {
                if !bucket.is_empty() {
                    std::hint::black_box(shared.cells[neighbors[slot].index()].is_poisoned());
                }
            }
            for (slot, bucket) in slots.iter_mut().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let dest = neighbors[slot];
                let needs_enqueue = {
                    // One destination-cell lock per *bucket*: everything this
                    // quantum sent down the link lands under one guard.
                    let mut cell = lock_ignore_poison(&shared.cells[dest.index()]);
                    // Waking an unallocated mailbox: reuse a recycled buffer
                    // sized to this burst rather than growing a fresh one.
                    if cell.mailbox.capacity() == 0 {
                        cell.mailbox = scratch.mailboxes.take(bucket.len());
                    }
                    for entry in bucket.drain(..) {
                        cell.mailbox.push_back(Envelope {
                            from: NodeId(u),
                            msg: entry.msg,
                            causal_depth: entry.causal_depth,
                            meta: entry.meta,
                        });
                    }
                    if cell.scheduled {
                        false
                    } else {
                        cell.scheduled = true;
                        true
                    }
                };
                if needs_enqueue {
                    scratch.wake.push(dest.0);
                }
            }
        }
    }
    // Traced runs settle here, after the flush (see the pre-flush comment):
    // keep the node runnable if messages arrived meanwhile.
    if T::ENABLED {
        let mut cell = lock_ignore_poison(&shared.cells[node]);
        if cell.mailbox.is_empty() {
            cell.scheduled = false;
            if cell.mailbox.capacity() > 0 {
                scratch.mailboxes.donate(std::mem::take(&mut cell.mailbox));
            }
        } else {
            scratch.wake.push(u);
        }
    }
    // A single wake-up is the wave pattern (one message in, one message
    // out): hand it straight back as the worker's continuation — the flush
    // already owns it exclusively (`scheduled` is set and it sits in no
    // queue), skipping the queue round-trip. Several wake-ups are the flood
    // pattern instead: publish them all under one run-queue lock and let the
    // queue interleave destinations, so their mailboxes accumulate into
    // fatter quanta than chasing any one of them immediately would find.
    let next = if scratch.wake.len() == 1 {
        scratch.wake.pop()
    } else {
        None
    };
    if !scratch.wake.is_empty() {
        lock_ignore_poison(&shared.queues[w]).extend(scratch.wake.drain(..));
    }
    // Only now give the processed units back — every send above is already
    // counted (and the continuation's mailbox still holds its counted
    // messages), so the counter never dips to zero early. The give-back is
    // deferred to the chain's single Release `fetch_sub` in `worker_loop`:
    // deferral only keeps `in_flight` elevated longer, which can delay the
    // idle zero-test but never satisfy it spuriously.
    scratch.in_flight_debt += units;
    scratch.processed_local += units as u64;
    if scratch.processed_local >= PROCESSED_STRIDE {
        flush_processed(shared, &mut scratch.processed_local);
    }
    next
}

/// How many locally-counted processed units a worker accumulates before
/// folding them into the shared `processed` counter. The event cap must
/// still fire *inside* a continuation chain — a ping-pong pair is one
/// endless chain, so a chain-end-only flush would never run — hence the
/// small bound: the cap overshoots by at most `PROCESSED_STRIDE` units per
/// worker instead of firing on the exact unit, which the cap (a safety
/// valve, not an accounting figure) tolerates.
const PROCESSED_STRIDE: u64 = 64;

/// Folds a worker's locally-accumulated processed units into the shared
/// counter and trips the abort flag when the event cap is crossed. Relaxed
/// suffices for the counter: it is monotone and only compared against a
/// threshold, and the `aborted` flag carries its own SeqCst ordering.
fn flush_processed<P: Protocol, T: TraceMode>(shared: &Shared<P, T>, local: &mut u64) {
    if *local == 0 {
        return;
    }
    let processed = shared.processed.fetch_add(*local, Ordering::Relaxed) + *local;
    *local = 0;
    if processed > shared.max_events {
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
        assert_eq!(got, &expected, "per-link FIFO order must survive stealing");
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
