//! One way to run a [`Protocol`] on a graph, whichever runtime drives it:
//! [`ExecutorKind::run`].
//!
//! The crate has two interchangeable executions of the paper's §2 network
//! model, each with its own fidelity/throughput trade-off:
//!
//! | backend | scheduling | faults/delays | traces | scale |
//! |---|---|---|---|---|
//! | [`ExecutorKind::Sim`] (discrete-event simulator) | deterministic | full (`DelayModel`, `FaultPlan`) | yes (simulated clock) | ~10³ nodes comfortably |
//! | [`ExecutorKind::Pool`] (work-stealing pool) | worker pool on real OS threads, batched message fabric | none (the OS scheduler is the adversary) | yes (atomic global stamp) | ~10⁶ nodes on a fixed pool |
//!
//! Both take the same inputs — a graph, a per-node protocol factory, an
//! [`ExecConfig`] and a [`CancelToken`] — and produce the same [`ExecRun`]:
//! final node states, aggregated [`Metrics`], an optional trace, the
//! wall-clock duration and a quiescence [`ExecStatus`]. Code written against
//! it (the `mdst_core::driver` pipeline, the `mdst-scenario` campaign
//! runner) is backend-agnostic; campaigns pick a backend per run through
//! [`ExecutorKind`].
//!
//! Backends refuse configuration they cannot honor instead of silently
//! ignoring it: asking the pool backend for simulated delays or fault
//! injection is an [`ExecError::InvalidConfig`], not a lie in the report.
//! `record_trace`, on the other hand, is honored by every backend: the pool
//! keeps lock-free per-worker event buffers stamped from one atomic counter
//! and merges them at quiescence, so the
//! `mdst-analysis` happens-before auditor can check per-link FIFO and causal
//! delivery on the backends a model checker cannot reach.

use crate::cancel::CancelToken;
use crate::metrics::Metrics;
use crate::pool::PoolRuntime;
use crate::protocol::Protocol;
use crate::sim::{SimConfig, Simulator};
use crate::trace::TraceRecorder;
use mdst_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Which backend executes a run. The string forms (`"sim"`, `"pool"`) are
/// the spellings used by scenario specs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExecutorKind {
    /// The deterministic discrete-event simulator (full delay/fault support).
    #[default]
    Sim,
    /// A fixed work-stealing worker pool multiplexing all nodes.
    Pool,
}

impl ExecutorKind {
    /// Every backend, in report order.
    pub fn all() -> [ExecutorKind; 2] {
        [ExecutorKind::Sim, ExecutorKind::Pool]
    }

    /// Stable lower-case label used in specs, reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            ExecutorKind::Sim => "sim",
            ExecutorKind::Pool => "pool",
        }
    }

    /// Parses a spec spelling. Accepts the labels plus a few aliases
    /// (`"simulator"`, `"work_stealing"`). Shorthand for the
    /// [`std::str::FromStr`] implementation with the error stringified.
    pub fn parse(name: &str) -> Result<ExecutorKind, String> {
        name.parse().map_err(|e: UnknownExecutor| e.to_string())
    }

    /// Runs `factory`-built protocols on `graph` under the backend this kind
    /// names, until quiescence, the event cap or a raised `cancel` token.
    /// `factory` receives each node's identity and sorted neighbour list.
    ///
    /// The token is observed cooperatively: when it is raised mid-run the
    /// backend winds down at its next safe point and the returned
    /// [`ExecRun::status`] is [`ExecStatus::Cancelled`]; pass a fresh
    /// [`CancelToken::new`] for a run nobody cancels. Returns
    /// [`ExecError::InvalidConfig`] when the configuration is inconsistent
    /// with the graph or asks for something the backend cannot honor.
    pub fn run<P, F>(
        self,
        graph: &Arc<Graph>,
        factory: F,
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<ExecRun<P>, ExecError>
    where
        P: Protocol,
        F: FnMut(NodeId, &[NodeId]) -> P,
    {
        match self {
            ExecutorKind::Sim => {
                Ok(Simulator::new(graph, config.sim.clone(), factory)?.execute(cancel))
            }
            ExecutorKind::Pool => PoolRuntime::run(graph, factory, config, cancel),
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
        write!(f, "unknown executor `{}` (known: sim, pool)", self.0)
    }
}

impl std::error::Error for UnknownExecutor {}

/// Errors of setting up a run on either backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The configuration is inconsistent with the graph or asks for
    /// something the backend cannot honor (start list out of range or
    /// empty, degenerate delay range, bad fault plan, simulated delays on
    /// the pool, …).
    InvalidConfig(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidConfig(why) => write!(f, "invalid executor config: {why}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl std::str::FromStr for ExecutorKind {
    type Err = UnknownExecutor;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_lowercase().replace('-', "_").as_str() {
            "sim" | "simulator" | "discrete_event" => Ok(ExecutorKind::Sim),
            "pool" | "work_stealing" | "worker_pool" => Ok(ExecutorKind::Pool),
            other => Err(UnknownExecutor(other.to_string())),
        }
    }
}

/// Backend-independent run configuration: the familiar [`SimConfig`] (every
/// backend honors `max_events`, `record_trace`, a simultaneous or selected
/// start and a benign fault plan; only the simulator honors delays,
/// staggered starts and faults) plus the pool's worker count and batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExecConfig {
    /// The shared run configuration. See the field docs of [`SimConfig`] —
    /// and the compatibility table in the [module docs](self) for which
    /// backend honors which field.
    pub sim: SimConfig,
    /// Worker threads for the pool backend (`0` = one per available CPU,
    /// capped at 64; an explicit count may exceed the CPU count). Ignored
    /// by the simulator (single-threaded).
    pub workers: usize,
    /// Mailbox messages the pool backend drains per scheduling quantum
    /// (`0` = the default, [`ExecConfig::DEFAULT_BATCH`]). Larger batches
    /// amortise per-quantum locking; smaller batches interleave nodes more
    /// fairly. Ignored by the simulator; swept as the `batch` axis in
    /// `mdst-scenario` campaigns.
    pub batch: usize,
}

impl ExecConfig {
    /// Default mailbox drain batch per scheduling quantum ([`ExecConfig::batch`]
    /// `== 0`). Bounded so one flooded hub cannot monopolise a worker while
    /// other nodes starve.
    pub const DEFAULT_BATCH: usize = 64;
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
    /// clock; the pool stamps with an atomic global counter, so every
    /// backend's trace is totally ordered and auditable.
    pub trace: TraceRecorder,
    /// Whether the run quiesced or hit the event cap.
    pub status: ExecStatus,
    /// Crash flags per node (all `false` outside the simulator, which is the
    /// only backend that injects crashes).
    pub crashed: Vec<bool>,
    /// OS threads the backend used: 1 for the simulator, the pool size for
    /// the pool.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::fault::FaultPlan;
    use crate::sim::StartModel;
    use crate::testutil::flood;
    use mdst_graph::generators;

    /// Runs the flood on `kind` with a token nobody raises.
    fn run_flood(
        kind: ExecutorKind,
        g: &Arc<Graph>,
        config: &ExecConfig,
    ) -> Result<ExecRun<crate::testutil::Flood>, ExecError> {
        kind.run(g, flood, config, &CancelToken::new())
    }

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
        assert!(err.to_string().contains("sim, pool"), "{err}");
    }

    #[test]
    fn all_backends_agree_on_deterministic_message_totals() {
        // Flooding on a tree is schedule-independent: every backend must
        // deliver exactly the same multiset of messages.
        let g = Arc::new(generators::path(10).unwrap());
        let config = ExecConfig::default();
        let mut totals = Vec::new();
        for kind in ExecutorKind::all() {
            let run = run_flood(kind, &g, &config).unwrap();
            assert_eq!(run.status, ExecStatus::Quiesced, "{kind}");
            assert!(run.all_terminated(), "{kind}");
            assert!(run.all_live_terminated(), "{kind}");
            assert!(run.crashed.iter().all(|&c| !c), "{kind}");
            totals.push((run.metrics.messages_total, run.metrics.bits_total));
        }
        assert_eq!(totals[0], totals[1]);
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
        let staggered = ExecConfig {
            sim: SimConfig {
                start: StartModel::Staggered {
                    max_offset: 4,
                    seed: 1,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        for config in [&delayed, &faulty, &staggered] {
            let err = run_flood(ExecutorKind::Pool, &g, config)
                .err()
                .expect("must reject");
            assert!(matches!(err, ExecError::InvalidConfig(_)), "{err}");
        }
        // The simulator itself accepts all three.
        for config in [&delayed, &faulty, &staggered] {
            run_flood(ExecutorKind::Sim, &g, config).unwrap();
        }
    }

    #[test]
    fn selected_start_rejects_out_of_range_and_empty_lists() {
        let g = Arc::new(generators::path(4).unwrap());
        let selected = |list: Vec<NodeId>| ExecConfig {
            sim: SimConfig {
                start: StartModel::Selected(list),
                ..Default::default()
            },
            ..Default::default()
        };
        for kind in ExecutorKind::all() {
            let err = run_flood(kind, &g, &selected(vec![NodeId(0), NodeId(7)]))
                .err()
                .expect("config must be rejected");
            assert!(matches!(err, ExecError::InvalidConfig(_)), "{kind}: {err}");
            assert!(err.to_string().contains("v7"), "{kind}: {err}");

            let err = run_flood(kind, &g, &selected(Vec::new()))
                .err()
                .expect("config must be rejected");
            assert!(err.to_string().contains("empty"), "{kind}: {err}");
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
            let run = run_flood(kind, &g, &traced).unwrap();
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
    fn selected_start_is_honoured_by_the_pool() {
        let g = Arc::new(generators::path(4).unwrap());
        let config = ExecConfig {
            sim: SimConfig {
                start: StartModel::Selected(vec![NodeId(0)]),
                ..Default::default()
            },
            ..Default::default()
        };
        let run = run_flood(ExecutorKind::Pool, &g, &config).unwrap();
        assert!(run.all_terminated());
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
            let run = run_flood(kind, &g, &config).unwrap();
            assert_eq!(run.status, ExecStatus::EventLimitExceeded, "{kind}");
        }
    }

    #[test]
    fn pre_raised_cancel_token_is_uniform_across_backends() {
        let g = Arc::new(generators::complete(8).unwrap());
        let config = ExecConfig::default();
        let token = CancelToken::new();
        token.cancel();
        for kind in ExecutorKind::all() {
            let run = kind.run(&g, flood, &config, &token).unwrap();
            assert_eq!(run.status, ExecStatus::Cancelled, "{kind}");
        }
        // An inert token changes nothing.
        for kind in ExecutorKind::all() {
            let run = run_flood(kind, &g, &config).unwrap();
            assert_eq!(run.status, ExecStatus::Quiesced, "{kind}");
        }
    }

    #[test]
    fn exec_run_reports_worker_counts() {
        let g = Arc::new(generators::cycle(6).unwrap());
        let sim = run_flood(ExecutorKind::Sim, &g, &ExecConfig::default()).unwrap();
        assert_eq!(sim.workers, 1);
        let pool = run_flood(
            ExecutorKind::Pool,
            &g,
            &ExecConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pool.workers, 2);
    }
}
