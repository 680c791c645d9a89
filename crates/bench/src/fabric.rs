//! Fixtures of experiment E10: throughput of the pool's batched message
//! fabric, driven by the harness table
//! ([`crate::experiments::e10_message_fabric`]).
//!
//! The workload is a hop-bounded **echo flood**: node 0 emits a token with a
//! TTL, and every delivery with TTL > 0 re-broadcasts a decremented copy to
//! all neighbours except the sender. The total message count is the number
//! of non-backtracking walks from the origin of length ≤ TTL — a purely
//! local, schedule-independent quantity — so every batch size and worker
//! count moves *exactly* the same load and the timing difference is pure
//! send-path cost. Unlike a one-shot broadcast (every destination distinct,
//! nothing to coalesce), the echo flood's quanta re-broadcast every drained
//! token to the same neighbour set, which is precisely the
//! repeated-destination traffic the coalesced flush exists for: one
//! destination lock per *group* of messages.

use mdst::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Node counts of the full E10 flood workloads.
pub const E10_NODES: [usize; 2] = [5_000, 50_000];

/// Shrunk node counts used when `BENCH_SMOKE` is set, so CI can exercise the
/// full experiment path (table, JSON artifact) in seconds.
pub const E10_SMOKE_NODES: [usize; 2] = [600, 1_500];

/// Whether smoke mode is on: the `BENCH_SMOKE` environment variable is set
/// to a non-empty value.
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| !v.is_empty())
}

/// The node counts E10 sweeps in the current mode.
pub fn e10_nodes() -> [usize; 2] {
    if smoke() {
        E10_SMOKE_NODES
    } else {
        E10_NODES
    }
}

/// The echo-flood TTL used at `n` nodes, chosen so the flood moves roughly
/// ten messages per node (the count grows geometrically with the TTL at
/// branching factor ≈ average degree − 1, so one extra hop per decade).
pub fn rounds(n: usize) -> u8 {
    if n >= 20_000 {
        6
    } else if n >= 5_000 {
        5
    } else {
        4
    }
}

/// The E10 flood workload at `n` nodes: a random connected graph with `4n`
/// extra edges (average degree ≈ 10). The density keeps the echo flood's
/// re-broadcast fan-out — and with it the per-destination send groups the
/// batched fabric coalesces — realistically wide; a near-tree graph would
/// degenerate into single-message quanta that no fabric can batch.
pub fn workload(n: usize) -> Arc<Graph> {
    Arc::new(generators::random_connected(n, 4 * n, 11).expect("workload generation"))
}

/// The echo-flood token: a hop budget, sized like a small identity-carrying
/// message on the wire.
#[derive(Debug, Clone)]
pub struct EchoToken {
    /// Remaining hops; a delivery with `ttl == 0` is absorbed silently.
    pub ttl: u8,
}

impl NetMessage for EchoToken {
    fn kind(&self) -> &'static str {
        "Echo"
    }
    fn encoded_bits(&self) -> usize {
        8
    }
}

/// The echo-flood node automaton: node 0 starts the flood, everyone relays
/// while the hop budget lasts. Stateless on purpose — every delivered token
/// with TTL > 0 re-broadcasts, so a quantum that drains `k` tokens sends `k`
/// copies down each outgoing link and the fabric sees genuine
/// per-destination batches.
pub struct EchoFloodSt {
    id: NodeId,
    ttl: u8,
}

impl EchoFloodSt {
    /// Node automaton for `id`, flooding `ttl` hops from node 0.
    pub fn new(id: NodeId, ttl: u8) -> Self {
        EchoFloodSt { id, ttl }
    }
}

impl Protocol for EchoFloodSt {
    type Message = EchoToken;

    fn on_start(&mut self, ctx: &mut impl Context<EchoToken>) {
        if self.id == NodeId(0) {
            // Index the neighbour slice per send instead of materialising a
            // `Vec`: the handler allocating per quantum would dominate the
            // very send-path cost E10 isolates.
            for i in 0..ctx.neighbors().len() {
                let to = ctx.neighbors()[i];
                ctx.send(to, EchoToken { ttl: self.ttl });
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: EchoToken, ctx: &mut impl Context<EchoToken>) {
        if msg.ttl > 0 {
            for i in 0..ctx.neighbors().len() {
                let to = ctx.neighbors()[i];
                if to != from {
                    ctx.send(to, EchoToken { ttl: msg.ttl - 1 });
                }
            }
        }
    }
}

/// One measured flood run on the pool.
pub struct FabricSample {
    /// Messages delivered (the non-backtracking-walk count of the graph —
    /// identical across batch sizes and backends).
    pub messages: u64,
    /// First wake-up to quiescence, as reported by the pool.
    pub wall: Duration,
}

impl FabricSample {
    /// Delivered messages per second of pool wall time.
    pub fn msgs_per_sec(&self) -> f64 {
        self.messages as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs the echo flood over `graph` on the pool; `batch = 0` means
/// [`ExecConfig::DEFAULT_BATCH`].
pub fn flood_on_pool(graph: &Arc<Graph>, batch: usize) -> FabricSample {
    let ttl = rounds(graph.node_count());
    let run = ExecutorKind::Pool
        .run(
            graph,
            |id, _| EchoFloodSt::new(id, ttl),
            &ExecConfig {
                batch,
                ..Default::default()
            },
            &CancelToken::new(),
        )
        .expect("flood run");
    assert_eq!(run.status, ExecStatus::Quiesced);
    FabricSample {
        messages: run.metrics.messages_total,
        wall: run.wall_time,
    }
}

/// Best (fastest) of `reps` flood runs — the standard noise guard for a
/// one-shot harness table.
pub fn best_of(graph: &Arc<Graph>, batch: usize, reps: usize) -> FabricSample {
    let mut best: Option<FabricSample> = None;
    for _ in 0..reps.max(1) {
        let sample = flood_on_pool(graph, batch);
        if best.as_ref().is_none_or(|b| sample.wall < b.wall) {
            best = Some(sample);
        }
    }
    best.expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_flood_count_matches_the_simulator() {
        // The echo flood's per-node send/receive profile is schedule
        // independent (every delivery's fan-out is a local function of the
        // arriving token), so the comparison pins down the batched fabric's
        // split accounting — `record_sent_batch` / `record_received_batch` /
        // `record_payload` and the per-worker kind counters — column by
        // column against the simulator's per-message bookkeeping, not just
        // in total.
        let graph = workload(300);
        let ttl = rounds(graph.node_count());
        let [sim, run] = [ExecutorKind::Sim, ExecutorKind::Pool].map(|kind| {
            kind.run(
                &graph,
                |id, _| EchoFloodSt::new(id, ttl),
                &ExecConfig::default(),
                &CancelToken::new(),
            )
            .expect("flood run")
        });
        assert_eq!(sim.status, ExecStatus::Quiesced);
        assert_eq!(run.status, ExecStatus::Quiesced);
        assert_eq!(run.metrics.messages_total, sim.metrics.messages_total);
        assert_eq!(run.metrics.messages_by_kind, sim.metrics.messages_by_kind);
        assert_eq!(run.metrics.bits_total, sim.metrics.bits_total);
        assert_eq!(run.metrics.sent_per_node, sim.metrics.sent_per_node);
        assert_eq!(run.metrics.received_per_node, sim.metrics.received_per_node);
    }
}
