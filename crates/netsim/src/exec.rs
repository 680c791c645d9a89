//! The [`Executor`] abstraction: one uniform way to run a [`Protocol`] on a
//! graph, regardless of which runtime drives it.
//!
//! The crate grew three interchangeable executions of the paper's §2 network
//! model, each with a different fidelity/throughput trade-off:
//!
//! | backend | scheduling | faults/delays | traces | scale |
//! |---|---|---|---|---|
//! | [`SimExecutor`] (discrete-event [`crate::sim::Simulator`]) | deterministic | full (`DelayModel`, `FaultPlan`) | yes (simulated clock) | ~10³ nodes comfortably |
//! | [`ThreadedExecutor`] ([`crate::threaded::ThreadedRuntime`]) | real OS threads, one per node | none (the OS *is* the adversary) | yes (atomic global stamp) | ~10² nodes (thread-per-node) |
//! | [`PoolExecutor`] ([`crate::pool::PoolRuntime`]) | work-stealing worker pool, batched message fabric | none | yes (atomic global stamp) | ~10⁵ nodes on a fixed pool |
//!
//! All three take the same inputs — a graph, a per-node protocol factory and
//! an [`ExecConfig`] — and produce the same [`ExecRun`]: final node states,
//! aggregated [`Metrics`], an optional trace, the wall-clock duration and a
//! quiescence [`ExecStatus`]. Code written against the trait (the
//! `mdst_core::driver` pipeline, the `mdst-scenario` campaign runner) is
//! backend-agnostic; campaigns pick a backend per run through
//! [`ExecutorKind`].
//!
//! Backends refuse configuration they cannot honor instead of silently
//! ignoring it: asking the threaded or pool backend for simulated delays or
//! fault injection is an [`SimError::InvalidConfig`], not a lie in the
//! report. `record_trace`, on the other hand, is honored by every backend:
//! the concurrent runtimes keep lock-free per-worker event buffers stamped
//! from one atomic counter and merge them at quiescence, so the
//! `mdst-analysis` happens-before auditor can check per-link FIFO and causal
//! delivery on the backends a model checker cannot reach.

use crate::cancel::CancelToken;
use crate::delay::DelayModel;
use crate::metrics::Metrics;
use crate::pool::{PoolConfig, PoolRuntime};
use crate::protocol::Protocol;
use crate::sim::{SimConfig, SimError, Simulator, StartModel};
use crate::threaded::ThreadedRuntime;
use crate::trace::TraceRecorder;
use mdst_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Which backend executes a run. The string forms (`"sim"`, `"threaded"`,
/// `"pool"`) are the spellings used by scenario specs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExecutorKind {
    /// The deterministic discrete-event simulator (full delay/fault support).
    #[default]
    Sim,
    /// One OS thread per node over FIFO channels (real nondeterminism).
    Threaded,
    /// A fixed work-stealing worker pool multiplexing all nodes.
    Pool,
}

impl ExecutorKind {
    /// Every backend, in report order.
    pub fn all() -> [ExecutorKind; 3] {
        [
            ExecutorKind::Sim,
            ExecutorKind::Threaded,
            ExecutorKind::Pool,
        ]
    }

    /// Stable lower-case label used in specs, reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            ExecutorKind::Sim => "sim",
            ExecutorKind::Threaded => "threaded",
            ExecutorKind::Pool => "pool",
        }
    }

    /// Parses a spec spelling. Accepts the labels plus a few aliases
    /// (`"simulator"`, `"threads"`, `"work_stealing"`). Shorthand for the
    /// [`std::str::FromStr`] implementation with the error stringified.
    pub fn parse(name: &str) -> Result<ExecutorKind, String> {
        name.parse().map_err(|e: UnknownExecutor| e.to_string())
    }

    /// Runs `factory`-built protocols on `graph` under the backend this kind
    /// names. Equivalent to calling [`Executor::run`] on the matching unit
    /// struct; this is the dynamic-dispatch entry the campaign runner uses.
    pub fn run<P, F>(
        self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        self.run_with_cancel(graph, factory, config, &CancelToken::new())
    }

    /// Like [`ExecutorKind::run`], observing `cancel` cooperatively: when the
    /// token is raised mid-run the backend winds down at its next safe point
    /// and the returned [`ExecRun::status`] is [`ExecStatus::Cancelled`].
    pub fn run_with_cancel<P, F>(
        self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        match self {
            ExecutorKind::Sim => SimExecutor.run_with_cancel(graph, factory, config, cancel),
            ExecutorKind::Threaded => {
                ThreadedExecutor.run_with_cancel(graph, factory, config, cancel)
            }
            ExecutorKind::Pool => PoolExecutor.run_with_cancel(graph, factory, config, cancel),
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error of parsing an [`ExecutorKind`] from an unknown spelling. Scenario
/// specs surface this as a spec error with the scenario name attached — an
/// unknown executor name is a user mistake, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExecutor(pub String);

impl std::fmt::Display for UnknownExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown executor `{}` (known: sim, threaded, pool)",
            self.0
        )
    }
}

impl std::error::Error for UnknownExecutor {}

impl std::str::FromStr for ExecutorKind {
    type Err = UnknownExecutor;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_lowercase().replace('-', "_").as_str() {
            "sim" | "simulator" | "discrete_event" => Ok(ExecutorKind::Sim),
            "threaded" | "threads" | "thread_per_node" => Ok(ExecutorKind::Threaded),
            "pool" | "work_stealing" | "worker_pool" => Ok(ExecutorKind::Pool),
            other => Err(UnknownExecutor(other.to_string())),
        }
    }
}

/// Backend-independent run configuration: the familiar [`SimConfig`] (every
/// backend honors `start = Simultaneous`, `max_events` and a benign fault
/// plan; only the simulator honors the rest) plus the pool's worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExecConfig {
    /// The shared run configuration. See the field docs of [`SimConfig`] —
    /// and the compatibility table in the [module docs](self) for which
    /// backend honors which field.
    pub sim: SimConfig,
    /// Worker threads for the pool backend (`0` = one per available CPU,
    /// capped at 64). Ignored by the simulator (single-threaded) and the
    /// threaded runtime (structurally one thread per node).
    pub workers: usize,
    /// Mailbox messages the pool backend drains per scheduling quantum
    /// (`0` = the default, [`PoolRuntime::DEFAULT_BATCH`]). Larger batches
    /// amortise per-quantum locking; smaller batches interleave nodes more
    /// fairly. Ignored by the simulator and the threaded runtime; swept as
    /// the `batch` axis in `mdst-scenario` campaigns.
    pub batch: usize,
}

/// How an execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecStatus {
    /// The network went quiescent: no message in flight, no handler running.
    Quiesced,
    /// The event cap (`ExecConfig::sim.max_events`) was hit first; the
    /// returned node states and metrics are the partial snapshot at abort.
    EventLimitExceeded,
    /// A [`CancelToken`] was raised mid-run; the backend wound down at its
    /// next safe point and the returned node states and metrics are the
    /// partial snapshot at cancellation.
    Cancelled,
}

/// The uniform result of one execution, whichever backend produced it.
pub struct ExecRun<P> {
    /// The shared topology the run executed on — the very `Arc` the caller
    /// passed in, cloned, never a rebuilt copy. Campaign runners use pointer
    /// equality on this field to assert that no backend re-materialises
    /// adjacency per run.
    pub topology: Arc<Graph>,
    /// Final protocol state of every node, indexed by identity.
    pub nodes: Vec<P>,
    /// Aggregated metrics (message counts, bits, causal depth, faults).
    pub metrics: Metrics,
    /// Recorded trace (only when `record_trace` is set; the disabled
    /// recorder otherwise). The simulator stamps events with the simulated
    /// clock; the threaded and pool backends stamp with an atomic global
    /// counter, so every backend's trace is totally ordered and auditable.
    pub trace: TraceRecorder,
    /// Whether the run quiesced or hit the event cap.
    pub status: ExecStatus,
    /// Crash flags per node (all `false` outside the simulator, which is the
    /// only backend that injects crashes).
    pub crashed: Vec<bool>,
    /// OS threads the backend used: 1 for the simulator, `n` for the
    /// thread-per-node runtime, the pool size for the pool.
    pub workers: usize,
    /// Wall-clock duration of the execution proper (excluding protocol
    /// construction).
    pub wall_time: Duration,
}

impl<P: Protocol> ExecRun<P> {
    /// Whether every node's protocol reports local termination.
    pub fn all_terminated(&self) -> bool {
        self.nodes.iter().all(|p| p.is_terminated())
    }

    /// Whether every *live* (non-crashed) node reports local termination.
    pub fn all_live_terminated(&self) -> bool {
        self.nodes
            .iter()
            .zip(&self.crashed)
            .all(|(p, &dead)| dead || p.is_terminated())
    }
}

/// A backend able to execute protocols under the uniform surface. The trait
/// is object-unsafe (the run method is generic over the protocol); dynamic
/// backend selection goes through [`ExecutorKind::run`] instead.
pub trait Executor {
    /// Which backend this is (used for labels and error messages).
    fn kind(&self) -> ExecutorKind;

    /// Executes the protocol on `graph` until quiescence (or the event cap)
    /// and returns the uniform [`ExecRun`]. `factory` receives each node's
    /// identity and sorted neighbour list, exactly as with
    /// [`Simulator::new`]. Returns [`SimError::InvalidConfig`] when the
    /// configuration asks for something the backend cannot honor.
    fn run<P, F>(
        &self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        self.run_with_cancel(graph, factory, config, &CancelToken::new())
    }

    /// Like [`Executor::run`], polling `cancel` between work units: a raised
    /// token ends the run at the backend's next safe point with
    /// [`ExecStatus::Cancelled`] and the partial snapshot accumulated so far.
    fn run_with_cancel<P, F>(
        &self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P;
}

/// The discrete-event simulator behind the [`Executor`] surface.
pub struct SimExecutor;

impl Executor for SimExecutor {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Sim
    }

    fn run_with_cancel<P, F>(
        &self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        let mut sim = Simulator::new(graph, config.sim.clone(), factory)?;
        sim.set_cancel(cancel.clone());
        let started = std::time::Instant::now();
        let status = match sim.run() {
            Ok(()) => ExecStatus::Quiesced,
            Err(SimError::EventLimitExceeded { .. }) => ExecStatus::EventLimitExceeded,
            Err(SimError::Cancelled) => ExecStatus::Cancelled,
            Err(e) => return Err(e),
        };
        let wall_time = started.elapsed();
        let crashed = sim.crashed().to_vec();
        let (nodes, metrics, trace) = sim.into_parts();
        Ok(ExecRun {
            topology: Arc::clone(graph),
            nodes,
            metrics,
            trace,
            status,
            crashed,
            workers: 1,
            wall_time,
        })
    }
}

/// Checks the parts of an [`ExecConfig`] that only the simulator can honor,
/// shared by the threaded and pool backends. `selected_ok` is whether the
/// backend supports [`StartModel::Selected`] (the pool does; the
/// thread-per-node runtime wakes everyone by construction).
fn validate_concurrent_config(
    graph: &Graph,
    config: &ExecConfig,
    kind: ExecutorKind,
    selected_ok: bool,
) -> Result<(), SimError> {
    let label = kind.label();
    if !matches!(config.sim.delay, DelayModel::Unit) {
        return Err(SimError::InvalidConfig(format!(
            "the `{label}` executor schedules deliveries on real threads and \
             cannot honor a simulated delay model; use executor = \"sim\""
        )));
    }
    if !config.sim.faults.is_benign() {
        return Err(SimError::InvalidConfig(format!(
            "the `{label}` executor cannot inject faults (loss, crashes, \
             cuts need the simulated clock); use executor = \"sim\""
        )));
    }
    match &config.sim.start {
        StartModel::Simultaneous => Ok(()),
        StartModel::Selected(list) if selected_ok => {
            if list.is_empty() {
                return Err(SimError::InvalidConfig(
                    "StartModel::Selected with an empty list: no node would ever wake up"
                        .to_string(),
                ));
            }
            let n = graph.node_count();
            for &node in list {
                if node.index() >= n {
                    return Err(SimError::InvalidConfig(format!(
                        "StartModel::Selected references node {node} but the graph has {n} nodes"
                    )));
                }
            }
            Ok(())
        }
        other => Err(SimError::InvalidConfig(format!(
            "the `{label}` executor cannot honor the start model {other:?} \
             (no simulated clock); use executor = \"sim\""
        ))),
    }
}

/// The thread-per-node runtime behind the [`Executor`] surface.
pub struct ThreadedExecutor;

impl Executor for ThreadedExecutor {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Threaded
    }

    fn run_with_cancel<P, F>(
        &self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        validate_concurrent_config(graph, config, self.kind(), false)?;
        let run = ThreadedRuntime::run_cancellable(
            graph,
            factory,
            config.sim.max_events,
            config.sim.record_trace,
            cancel,
        );
        let n = graph.node_count();
        Ok(ExecRun {
            topology: Arc::clone(graph),
            nodes: run.nodes,
            metrics: run.metrics,
            trace: run.trace,
            status: run.status,
            crashed: vec![false; n],
            workers: n,
            wall_time: run.wall_time,
        })
    }
}

/// The work-stealing pool behind the [`Executor`] surface.
pub struct PoolExecutor;

impl Executor for PoolExecutor {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Pool
    }

    fn run_with_cancel<P, F>(
        &self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        validate_concurrent_config(graph, config, self.kind(), true)?;
        let pool_config = PoolConfig {
            workers: config.workers,
            max_events: config.sim.max_events,
            start: config.sim.start.clone(),
            record_trace: config.sim.record_trace,
            batch: config.batch,
        };
        let run = PoolRuntime::run_with_cancel(graph, factory, &pool_config, cancel)?;
        let n = graph.node_count();
        Ok(ExecRun {
            topology: Arc::clone(graph),
            nodes: run.nodes,
            metrics: run.metrics,
            trace: run.trace,
            status: run.status,
            crashed: vec![false; n],
            workers: run.workers,
            wall_time: run.wall_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::testutil::flood;
    use mdst_graph::generators;

    #[test]
    fn kind_labels_round_trip_through_parse() {
        for kind in ExecutorKind::all() {
            assert_eq!(ExecutorKind::parse(kind.label()).unwrap(), kind);
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(ExecutorKind::parse("Work-Stealing"), Ok(ExecutorKind::Pool));
        assert!(ExecutorKind::parse("quantum").is_err());
    }

    #[test]
    fn display_and_from_str_round_trip() {
        for kind in ExecutorKind::all() {
            let spelled = kind.to_string();
            assert_eq!(spelled.parse::<ExecutorKind>(), Ok(kind), "{spelled}");
        }
        let err = "quantum".parse::<ExecutorKind>().unwrap_err();
        assert_eq!(err, UnknownExecutor("quantum".to_string()));
        assert!(err.to_string().contains("sim, threaded, pool"), "{err}");
    }

    #[test]
    fn all_backends_agree_on_deterministic_message_totals() {
        // Flooding on a tree is schedule-independent: every backend must
        // deliver exactly the same multiset of messages.
        let g = Arc::new(generators::path(10).unwrap());
        let config = ExecConfig::default();
        let mut totals = Vec::new();
        for kind in ExecutorKind::all() {
            let run = kind.run(&g, flood, &config).unwrap();
            assert_eq!(run.status, ExecStatus::Quiesced, "{kind}");
            assert!(run.all_terminated(), "{kind}");
            assert!(run.all_live_terminated(), "{kind}");
            assert!(run.crashed.iter().all(|&c| !c), "{kind}");
            totals.push((run.metrics.messages_total, run.metrics.bits_total));
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
    }

    #[test]
    fn concurrent_backends_reject_sim_only_configuration() {
        let g = Arc::new(generators::path(4).unwrap());
        let delayed = ExecConfig {
            sim: SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 5,
                    seed: 1,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let faulty = ExecConfig {
            sim: SimConfig {
                faults: FaultPlan {
                    loss: 0.5,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        for kind in [ExecutorKind::Threaded, ExecutorKind::Pool] {
            for config in [&delayed, &faulty] {
                let err = kind.run(&g, flood, config).err().expect("must reject");
                assert!(matches!(err, SimError::InvalidConfig(_)), "{kind}: {err}");
            }
        }
        // The simulator itself accepts both.
        for config in [&delayed, &faulty] {
            ExecutorKind::Sim.run(&g, flood, config).unwrap();
        }
    }

    #[test]
    fn every_backend_records_an_auditable_trace_on_request() {
        use crate::trace::TraceEventKind;
        let g = Arc::new(generators::gnp_connected(16, 0.25, 5).unwrap());
        let traced = ExecConfig {
            sim: SimConfig {
                record_trace: true,
                ..Default::default()
            },
            ..Default::default()
        };
        for kind in ExecutorKind::all() {
            let run = kind.run(&g, flood, &traced).unwrap();
            assert!(run.trace.is_enabled(), "{kind}");
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
            assert_eq!(sends, delivers, "{kind}: reliable network");
            assert_eq!(delivers as u64, run.metrics.messages_total, "{kind}");
            assert!(
                run.trace.events().iter().all(|e| e.msg_id > 0),
                "{kind}: every message event carries a real id"
            );
        }
    }

    #[test]
    fn selected_start_is_pool_but_not_threaded() {
        let g = Arc::new(generators::path(4).unwrap());
        let config = ExecConfig {
            sim: SimConfig {
                start: StartModel::Selected(vec![NodeId(0)]),
                ..Default::default()
            },
            ..Default::default()
        };
        let run = ExecutorKind::Pool.run(&g, flood, &config).unwrap();
        assert!(run.all_terminated());
        let err = ExecutorKind::Threaded
            .run(&g, flood, &config)
            .err()
            .expect("threaded wakes every node by construction");
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn event_limit_is_uniform_across_backends() {
        let g = Arc::new(generators::complete(8).unwrap());
        let config = ExecConfig {
            sim: SimConfig {
                max_events: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        for kind in ExecutorKind::all() {
            let run = kind.run(&g, flood, &config).unwrap();
            assert_eq!(run.status, ExecStatus::EventLimitExceeded, "{kind}");
        }
    }

    #[test]
    fn pre_raised_cancel_token_is_uniform_across_backends() {
        use crate::cancel::CancelToken;
        let g = Arc::new(generators::complete(8).unwrap());
        let config = ExecConfig::default();
        let token = CancelToken::new();
        token.cancel();
        for kind in ExecutorKind::all() {
            let run = kind.run_with_cancel(&g, flood, &config, &token).unwrap();
            assert_eq!(run.status, ExecStatus::Cancelled, "{kind}");
        }
        // An inert token changes nothing.
        for kind in ExecutorKind::all() {
            let run = kind
                .run_with_cancel(&g, flood, &config, &CancelToken::new())
                .unwrap();
            assert_eq!(run.status, ExecStatus::Quiesced, "{kind}");
        }
    }

    #[test]
    fn exec_run_reports_worker_counts() {
        let g = Arc::new(generators::cycle(6).unwrap());
        let sim = ExecutorKind::Sim
            .run(&g, flood, &ExecConfig::default())
            .unwrap();
        assert_eq!(sim.workers, 1);
        let thr = ExecutorKind::Threaded
            .run(&g, flood, &ExecConfig::default())
            .unwrap();
        assert_eq!(thr.workers, 6);
        let pool = ExecutorKind::Pool
            .run(
                &g,
                flood,
                &ExecConfig {
                    workers: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(pool.workers, 2);
    }
}
