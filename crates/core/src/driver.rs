//! Experiment pipeline: initial tree → distributed improvement → report.
//!
//! The driver mirrors the way the paper composes its system: a spanning-tree
//! construction runs first (any of the `mdst-spanning` substrates), then the
//! improvement protocol runs on the resulting tree. The construction always
//! executes on the discrete-event simulator (its metrics are the paper's
//! construction-cost tables); the improvement phase runs on whichever
//! [`ExecutorKind`] backend the session selects — the simulator or the
//! sharded worker pool — through [`ExecutorKind::run`], the one entry both
//! backends share.
//!
//! ## One session API
//!
//! [`Pipeline`] is the single entry point: a builder over a shared
//! [`Arc<Graph>`] whose [`Pipeline::run`] returns one [`RunReport`] whatever
//! happens during the run. Faults, event-limit aborts and partial trees are
//! *outcomes* ([`Outcome`]), not errors; [`PipelineError`] is reserved for
//! runs that could not be set up or executed at all. Progress can be
//! streamed to any number of [`Observer`]s registered on the builder.
//!
//! ```
//! use mdst_core::{Outcome, Pipeline};
//! use mdst_graph::generators;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(generators::star_with_leaf_edges(10).unwrap());
//! let report = Pipeline::on(&graph).run().unwrap();
//! assert_eq!(report.outcome, Outcome::Optimal);
//! assert!(report.final_degree <= 3);
//! ```
//!
//! Callers that need the improved tree itself read [`RunReport::tree`] (or
//! match on [`RunReport::final_tree`]): it is present only for a quiesced,
//! fully terminated run whose snapshot validated as a spanning tree.

use crate::distributed::MdstNode;
use crate::observer::{ConstructionEvent, ExchangeEvent, FaultEvent, Observer, RoundEvent};
use crate::verify::{survivor_report, SurvivorReport};
use mdst_graph::Graph;
use mdst_graph::{GraphError, NodeId, RootedTree};
use mdst_netsim::{
    CancelToken, ExecConfig, ExecError, ExecStatus, ExecutorKind, FaultPlan, Metrics, SimConfig,
    TraceEventKind,
};
use mdst_spanning::{build_initial_tree, collect_tree, InitialTreeKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Error of a pipeline session that could not be set up or executed. Results
/// that merely *degrade* (faults, event-limit aborts, partial trees) are not
/// errors — they come back as [`Outcome`]s in the [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Building or validating a graph structure failed (bad initial tree,
    /// inconsistent final snapshot on a reliable network, …).
    Graph(GraphError),
    /// The executor backend rejected the configuration or failed to run
    /// (e.g. asking the pool for simulated delays or fault injection).
    Exec(ExecError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Graph(e) => write!(f, "{e}"),
            PipelineError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Graph(e) => Some(e),
            PipelineError::Exec(e) => Some(e),
        }
    }
}

impl From<GraphError> for PipelineError {
    fn from(e: GraphError) -> Self {
        PipelineError::Graph(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

/// How a pipeline session ended — the one outcome taxonomy every layer
/// (driver, campaign runner, dashboards) shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The network quiesced, every live node terminated, and the final tree
    /// spans the survivor component (the whole graph when nothing crashed):
    /// the protocol delivered its Locally Optimal Tree.
    Optimal,
    /// The network quiesced but the snapshot is stale or partial: some live
    /// node never terminated, or the surviving tree edges do not span the
    /// survivor component. Only faults can cause this.
    PartialTree,
    /// The event cap was hit before quiescence (livelock guard).
    EventLimitAborted,
    /// A [`CancelToken`] registered via [`Pipeline::cancel`] was raised
    /// mid-run (operator cancellation or a scheduler's early-abort policy);
    /// the backend wound down cooperatively and the report carries the
    /// partial snapshot. A decision, not an error.
    Aborted,
}

impl Outcome {
    /// Stable kebab-case label used in reports and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Optimal => "optimal",
            Outcome::PartialTree => "partial-tree",
            Outcome::EventLimitAborted => "event-limit-aborted",
            Outcome::Aborted => "aborted",
        }
    }

    /// Whether the run delivered a correct tree on the survivor component.
    pub fn is_optimal(self) -> bool {
        self == Outcome::Optimal
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// Hand-written so serialized reports carry the same stable kebab-case labels
// as every other artifact (CLI output, scenario JSON/CSV) instead of the
// derive's PascalCase variant names.
impl Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for Outcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("optimal") => Ok(Outcome::Optimal),
            Some("partial-tree") => Ok(Outcome::PartialTree),
            Some("event-limit-aborted") => Ok(Outcome::EventLimitAborted),
            Some("aborted") => Ok(Outcome::Aborted),
            _ => Err(serde::Error::custom("expected an outcome label")),
        }
    }
}

/// Configuration of a full pipeline run. [`Pipeline`] is the ergonomic way
/// to assemble one; the struct remains public so campaign specs can resolve
/// into it and hand it over wholesale via [`Pipeline::config`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Which initial spanning-tree construction to use.
    pub initial: InitialTreeKind,
    /// The designated root / initiator of the construction.
    pub root: NodeId,
    /// Simulator configuration (delays, start schedule, event cap, faults)
    /// used for the improvement protocol (and for the construction when it
    /// is a distributed one). Backends other than the simulator honor only
    /// the backend-agnostic parts and reject the rest (see
    /// `mdst_netsim::exec`).
    pub sim: SimConfig,
    /// Which backend executes the improvement protocol.
    pub executor: ExecutorKind,
    /// Worker threads for the pool backend (`0` = auto); ignored by the
    /// simulator.
    pub workers: usize,
    /// Mailbox messages the pool backend drains per scheduling quantum
    /// (`0` = the backend default); ignored by the other backends.
    pub batch: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            initial: InitialTreeKind::GreedyHub,
            root: NodeId(0),
            sim: SimConfig::default(),
            executor: ExecutorKind::Sim,
            workers: 0,
            batch: 0,
        }
    }
}

impl PipelineConfig {
    /// The uniform executor configuration of the improvement phase.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            sim: self.sim.clone(),
            workers: self.workers,
            batch: self.batch,
        }
    }
}

/// The unified report of one pipeline session, whatever happened during it.
///
/// A fault-free optimal run, a degraded faulty run and an event-limit abort
/// all come back through this one shape, distinguished by [`Outcome`]. The
/// survivor grading is always computed (for fault-free runs it degenerates
/// to the whole graph), so consumers never branch on which of two report
/// types they got.
#[must_use = "a RunReport carries the outcome of the session; inspect or propagate it"]
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Number of nodes of the input graph.
    pub n: usize,
    /// Number of edges of the input graph.
    pub m: usize,
    /// The initial spanning tree handed to the improvement protocol.
    pub initial_tree: RootedTree,
    /// Maximum degree `k` of the initial tree.
    pub initial_degree: usize,
    /// How the session ended.
    pub outcome: Outcome,
    /// The improved tree, present exactly when the run quiesced with every
    /// node terminated (a node that crashed *after* receiving `Stop` still
    /// counts) and the snapshot validated as a spanning tree of the whole
    /// graph — i.e. when the protocol finished everywhere before any
    /// disruption mattered. Degraded runs carry their grading in
    /// [`RunReport::survivor`] instead; note that with a post-termination
    /// crash the tree can be present while [`RunReport::outcome`] grades the
    /// survivor component as `PartialTree`.
    pub final_tree: Option<RootedTree>,
    /// Maximum degree `k*` attained on the survivor component. On a
    /// fault-free run this equals `final_tree.max_degree()`; after a
    /// post-termination crash the survivor grading excludes edges incident
    /// to the crashed node, so it can be lower than the degree of the
    /// (still present) full tree.
    pub final_degree: usize,
    /// The snapshot graded on the survivor component — always computed; on a
    /// fault-free run the component is the whole graph.
    pub survivor: SurvivorReport,
    /// Whether every node's protocol reported local termination (crashed
    /// nodes included — a node that crashed after `Stop` still counts).
    pub all_terminated: bool,
    /// Whether every *live* (non-crashed) node reported local termination.
    pub all_live_terminated: bool,
    /// Metrics of the initial construction (`None` for centralized seeds
    /// and pre-built trees).
    pub construction_metrics: Option<Metrics>,
    /// Metrics of the improvement protocol (including `dropped_messages`
    /// and `crashed_nodes`).
    pub improvement_metrics: Metrics,
    /// Rounds executed by the improvement protocol.
    pub rounds: u32,
    /// Edge exchanges performed.
    pub improvements: u32,
    /// Wall-clock milliseconds of the improvement execution, as reported by
    /// the backend that ran it.
    pub wall_ms: f64,
    /// OS threads the backend used: 1 for the simulator, the pool size for
    /// the pool.
    pub workers: usize,
    /// Per-worker scheduling counters of the improvement execution (empty
    /// for the simulator).
    pub worker_stats: Vec<mdst_netsim::WorkerStats>,
    /// Which backend executed the improvement.
    pub executor: ExecutorKind,
    /// Message trace of the improvement phase, recorded by every backend
    /// when `sim.record_trace` is set (the simulator stamps simulated time;
    /// the pool stamps an atomic global order) and the
    /// disabled (empty) recorder otherwise. Feed it to the `mdst-analysis`
    /// happens-before auditor to check causal delivery and FIFO order.
    pub trace: mdst_netsim::TraceRecorder,
}

impl RunReport {
    /// `k − k*`: the quantity the paper's complexity bounds are expressed in.
    pub fn degree_drop(&self) -> usize {
        self.initial_degree.saturating_sub(self.final_degree)
    }

    /// The paper's message budget for this run, `(k − k* + 1) · m`, against
    /// which the measured message count is compared in experiment E1.
    pub fn paper_message_budget(&self) -> u64 {
        (self.degree_drop() as u64 + 1) * self.m as u64
    }

    /// The paper's time budget for this run, `(k − k* + 1) · n` (experiment E2).
    pub fn paper_time_budget(&self) -> u64 {
        (self.degree_drop() as u64 + 1) * self.n as u64
    }

    /// The improved tree of a run that terminated everywhere with a
    /// validated full-graph spanning tree.
    ///
    /// # Panics
    ///
    /// Panics when [`RunReport::final_tree`] is `None`. Match on that field
    /// instead when faults are in play: under a crash plan even an
    /// [`Outcome::Optimal`] run (survivors quiesced, terminated and
    /// spanning) may carry no full-graph tree, so `outcome` alone is not a
    /// sufficient guard.
    pub fn tree(&self) -> &RootedTree {
        self.final_tree
            .as_ref()
            .expect("run did not produce a validated spanning tree; check RunReport::outcome")
    }
}

/// Builder for one pipeline session on a shared topology.
///
/// ```
/// use mdst_core::{Outcome, Pipeline};
/// use mdst_graph::{generators, NodeId};
/// use mdst_netsim::ExecutorKind;
/// use mdst_spanning::InitialTreeKind;
/// use std::sync::Arc;
///
/// let graph = Arc::new(generators::gnp_connected(24, 0.2, 7).unwrap());
/// let report = Pipeline::on(&graph)
///     .initial(InitialTreeKind::Bfs)
///     .root(NodeId(0))
///     .executor(ExecutorKind::Pool)
///     .workers(4)
///     .run()
///     .unwrap();
/// assert_eq!(report.outcome, Outcome::Optimal);
/// ```
///
/// The lifetime parameter ties registered [`Observer`]s to the builder; a
/// session without observers is `Pipeline<'static>`.
#[must_use = "a Pipeline session does nothing until .run() is called"]
pub struct Pipeline<'obs> {
    graph: Arc<Graph>,
    config: PipelineConfig,
    // Kept outside `config` so a later `.sim(..)` / `.config(..)` cannot
    // silently discard a registered plan; merged in `run()`.
    faults: Option<FaultPlan>,
    seed_tree: Option<RootedTree>,
    observers: Vec<&'obs mut dyn Observer>,
    cancel: Option<CancelToken>,
}

impl<'obs> Pipeline<'obs> {
    /// Starts a session on `graph` with the default configuration
    /// (greedy-hub initial tree, root 0, simulator backend, no faults).
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn on(graph: &Arc<Graph>) -> Self {
        Pipeline {
            graph: Arc::clone(graph),
            config: PipelineConfig::default(),
            faults: None,
            seed_tree: None,
            observers: Vec::new(),
            cancel: None,
        }
    }

    /// Replaces the whole configuration (the campaign runner resolves its
    /// specs into a [`PipelineConfig`] and hands it over here).
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Which initial spanning-tree construction to use.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn initial(mut self, kind: InitialTreeKind) -> Self {
        self.config.initial = kind;
        self
    }

    /// Seeds the improvement with an explicit pre-built initial tree instead
    /// of a construction; it must be a spanning tree of the session graph.
    /// Construction metrics are `None` for such runs.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn initial_tree(mut self, tree: RootedTree) -> Self {
        self.seed_tree = Some(tree);
        self
    }

    /// The designated root / initiator of the construction.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn root(mut self, root: NodeId) -> Self {
        self.config.root = root;
        self
    }

    /// Which backend executes the improvement protocol.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.config.executor = kind;
        self
    }

    /// Worker threads for the pool backend (`0` = auto).
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Mailbox messages the pool backend drains per scheduling quantum
    /// (`0` = the backend default). Larger batches spread a quantum's fixed
    /// cost over more messages; smaller batches interleave nodes more
    /// fairly. Ignored by the other backends.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn batch(mut self, batch: usize) -> Self {
        self.config.batch = batch;
        self
    }

    /// Replaces the simulator configuration (delays, start schedule, event
    /// cap, traces, faults). A plan registered via [`Pipeline::faults`]
    /// wins over the plan inside this configuration, whatever the builder
    /// call order.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.config.sim = sim;
        self
    }

    /// Injects a fault plan into the improvement phase (simulator backend
    /// only; the concurrent backends reject non-benign plans). Overrides
    /// the plan carried by [`Pipeline::sim`] / [`Pipeline::config`]
    /// regardless of call order.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Registers a streaming observer. May be called repeatedly; events are
    /// delivered to every registered observer in registration order.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn observer(mut self, observer: &'obs mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Registers a cooperative cancellation token: raising it from another
    /// thread while [`Pipeline::run`] executes winds the backend down at its
    /// next safe point and grades the run [`Outcome::Aborted`] (with the
    /// partial snapshot in the report) instead of erroring. This is how the
    /// `scenario serve` early-abort watchdog reins in over-budget runs.
    #[must_use = "builder methods return the updated session; chain or reassign it"]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the session: builds (or validates) the initial tree, executes
    /// the improvement protocol on the configured backend, grades the result
    /// and streams events to the registered observers.
    ///
    /// Degraded runs are [`Outcome`]s, not errors; `Err` means the session
    /// could not be set up or executed (invalid tree, backend rejection, or
    /// an inconsistent final snapshot on a run with no observed faults —
    /// the latter would be a protocol bug, never a legitimate result).
    #[must_use = "the session result reports how the run ended; dropping it hides failures"]
    pub fn run(self) -> Result<RunReport, PipelineError> {
        let Pipeline {
            graph,
            mut config,
            faults,
            seed_tree,
            mut observers,
            cancel,
        } = self;
        if let Some(plan) = faults {
            config.sim.faults = plan;
        }

        // Phase 1: construction (always fault-free, always simulated).
        let (initial_tree, construction_metrics) = match seed_tree {
            Some(tree) => (tree, None),
            None => build_initial_tree(&graph, config.root, config.initial)?,
        };
        initial_tree.validate_against(&graph)?;
        let construction = ConstructionEvent {
            n: graph.node_count(),
            m: graph.edge_count(),
            initial_degree: initial_tree.max_degree(),
            construction_messages: construction_metrics
                .as_ref()
                .map(|m| m.messages_total)
                .unwrap_or(0),
        };
        for obs in observers.iter_mut() {
            obs.on_construction_done(&construction);
        }

        // Phase 2: the improvement protocol on the configured backend.
        let nodes = MdstNode::from_tree(&initial_tree);
        let run = config.executor.run(
            &graph,
            |id, _| nodes[id.index()].clone(),
            &config.exec_config(),
            &cancel.unwrap_or_default(),
        )?;

        // Grading: always on the survivor component, which is the whole
        // graph whenever nothing crashed.
        let quiesced = run.status == ExecStatus::Quiesced;
        let all_terminated = run.all_terminated();
        let all_live_terminated = run.all_live_terminated();
        let parents: Vec<Option<NodeId>> = run.nodes.iter().map(|p| p.parent()).collect();
        let survivor = survivor_report(&graph, &parents, &run.crashed);
        let outcome = match run.status {
            ExecStatus::Cancelled => Outcome::Aborted,
            ExecStatus::EventLimitExceeded => Outcome::EventLimitAborted,
            ExecStatus::Quiesced if all_live_terminated && survivor.spans_component => {
                Outcome::Optimal
            }
            ExecStatus::Quiesced => Outcome::PartialTree,
        };

        let nothing_crashed = run.crashed.iter().all(|&dead| !dead);
        let final_tree = if quiesced && all_terminated {
            match collect_tree(&run.nodes).and_then(|t| t.validate_against(&graph).map(|()| t)) {
                Ok(tree) => Some(tree),
                // On a run with no observed faults the protocol guarantees a
                // collectable spanning tree; failing here is a bug, not an
                // outcome. With drops or crashes in play a stale snapshot is
                // a result.
                Err(e) if run.metrics.dropped_messages == 0 && nothing_crashed => {
                    return Err(PipelineError::Graph(e))
                }
                Err(_) => None,
            }
        } else {
            None
        };

        let rounds = run.nodes.iter().map(|p| p.round()).max().unwrap_or(0);
        let improvements = run.nodes.iter().map(|p| p.improvements_made()).sum();
        let report = RunReport {
            n: graph.node_count(),
            m: graph.edge_count(),
            initial_degree: initial_tree.max_degree(),
            initial_tree,
            outcome,
            final_tree,
            final_degree: survivor.max_degree,
            survivor,
            all_terminated,
            all_live_terminated,
            construction_metrics,
            improvement_metrics: run.metrics,
            rounds,
            improvements,
            wall_ms: run.wall_time.as_secs_f64() * 1e3,
            workers: run.workers,
            worker_stats: run.worker_stats,
            executor: config.executor,
            trace: run.trace,
        };

        // Stream the improvement-phase events, replayed in causal order from
        // the uniform executor result (identical on every backend), then the
        // fault events, then the terminal report.
        if !observers.is_empty() {
            // Per-round exchange attribution is only certain on an optimal
            // run satisfying the one-exchange-per-round invariant (every
            // round but the last improved); degraded runs get unattributed
            // rounds followed by the bare exchange ordinals.
            let exact_attribution =
                report.outcome.is_optimal() && report.improvements + 1 == report.rounds;
            for round in 1..=report.rounds {
                let improved = exact_attribution.then_some(round <= report.improvements);
                let event = RoundEvent { round, improved };
                for obs in observers.iter_mut() {
                    obs.on_round(&event);
                }
                if improved == Some(true) {
                    let exchange = ExchangeEvent { index: round };
                    for obs in observers.iter_mut() {
                        obs.on_exchange(&exchange);
                    }
                }
            }
            if !exact_attribution {
                for index in 1..=report.improvements {
                    let exchange = ExchangeEvent { index };
                    for obs in observers.iter_mut() {
                        obs.on_exchange(&exchange);
                    }
                }
            }
            if report.trace.is_enabled() {
                for e in report.trace.events() {
                    let event = match e.kind {
                        TraceEventKind::Drop => FaultEvent::MessageDropped {
                            from: e.from,
                            to: e.to,
                            time: e.time,
                            message_kind: e.message_kind.to_string(),
                        },
                        TraceEventKind::Crash => FaultEvent::NodeCrashed {
                            node: e.from,
                            time: Some(e.time),
                        },
                        _ => continue,
                    };
                    for obs in observers.iter_mut() {
                        obs.on_fault(&event);
                    }
                }
            } else {
                for (index, &dead) in run.crashed.iter().enumerate() {
                    if dead {
                        let event = FaultEvent::NodeCrashed {
                            node: NodeId::new(index),
                            time: None,
                        };
                        for obs in observers.iter_mut() {
                            obs.on_fault(&event);
                        }
                    }
                }
                if report.improvement_metrics.dropped_messages > 0 {
                    let event = FaultEvent::MessagesDropped {
                        count: report.improvement_metrics.dropped_messages,
                    };
                    for obs in observers.iter_mut() {
                        obs.on_fault(&event);
                    }
                }
            }
            for obs in observers.iter_mut() {
                obs.on_finish(&report);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingObserver;
    use mdst_graph::generators;
    use mdst_netsim::ExecutorKind;

    #[test]
    fn run_report_carries_consistent_numbers() {
        let g = Arc::new(generators::star_with_leaf_edges(12).unwrap());
        let report = Pipeline::on(&g).run().unwrap();
        assert_eq!(report.n, 12);
        assert_eq!(report.m, g.edge_count());
        assert_eq!(report.initial_degree, 11);
        assert_eq!(report.outcome, Outcome::Optimal);
        assert!(report.final_degree <= 3);
        assert_eq!(report.final_degree, report.tree().max_degree());
        assert_eq!(
            report.degree_drop(),
            report.initial_degree - report.final_degree
        );
        assert!(report.rounds as usize >= report.degree_drop());
        assert_eq!(report.improvements + 1, report.rounds);
        assert!(report.construction_metrics.is_none());
        assert!(report.improvement_metrics.messages_total > 0);
        assert!(report.all_terminated);
        assert!(report.all_live_terminated);
        assert_eq!(report.survivor.component_size(), 12);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn paper_budgets_scale_with_degree_drop() {
        let g = Arc::new(generators::complete(9).unwrap());
        let report = Pipeline::on(&g).run().unwrap();
        assert_eq!(
            report.paper_message_budget(),
            (report.degree_drop() as u64 + 1) * report.m as u64
        );
        assert_eq!(
            report.paper_time_budget(),
            (report.degree_drop() as u64 + 1) * report.n as u64
        );
    }

    #[test]
    fn distributed_initial_trees_report_construction_metrics() {
        let g = Arc::new(generators::gnp_connected(24, 0.2, 9).unwrap());
        let report = Pipeline::on(&g)
            .initial(InitialTreeKind::DistributedFlooding)
            .run()
            .unwrap();
        assert!(report.construction_metrics.unwrap().messages_total > 0);
        assert!(report.final_degree <= report.initial_degree);
    }

    #[test]
    fn heavy_loss_is_an_outcome_not_an_error() {
        // Losing 70% of all messages wrecks the improvement protocol; the
        // session must classify the wreckage instead of erroring.
        let g = Arc::new(generators::star_with_leaf_edges(12).unwrap());
        let plan = FaultPlan {
            loss: 0.7,
            seed: 5,
            ..Default::default()
        };
        let report = Pipeline::on(&g).faults(plan.clone()).run().unwrap();
        assert!(report.improvement_metrics.dropped_messages > 0);
        assert!(
            !report.outcome.is_optimal() || report.survivor.spans_component,
            "an optimal outcome implies a spanning snapshot"
        );
        // Deterministic: the same plan reproduces the same wreckage.
        let again = Pipeline::on(&g).faults(plan).run().unwrap();
        assert_eq!(
            report.improvement_metrics.dropped_messages,
            again.improvement_metrics.dropped_messages
        );
        assert_eq!(report.outcome, again.outcome);
    }

    #[test]
    fn crashes_shrink_the_survivor_component() {
        let g = Arc::new(generators::gnp_connected(16, 0.3, 9).unwrap());
        let report = Pipeline::on(&g)
            .faults(FaultPlan {
                crashes: vec![mdst_netsim::CrashAt {
                    node: NodeId(3),
                    at: 2,
                }],
                ..Default::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.improvement_metrics.crashed_nodes, 1);
        assert_eq!(report.survivor.live_nodes, 15);
        assert!(report.survivor.component_size() <= 15);
        assert!(!report.survivor.component.contains(&NodeId(3)));
        assert!(report.final_tree.is_none(), "crashed runs carry no tree");
    }

    #[test]
    fn every_executor_backend_drives_the_pipeline_to_the_same_tree() {
        // The improvement protocol is message-deterministic: whichever
        // backend schedules it, the locally optimal tree is the same.
        let g = Arc::new(generators::star_with_leaf_edges(14).unwrap());
        let reference = Pipeline::on(&g).run().unwrap();
        for executor in ExecutorKind::all() {
            let report = Pipeline::on(&g)
                .executor(executor)
                .workers(4)
                .run()
                .unwrap();
            assert_eq!(report.executor, executor);
            assert_eq!(report.outcome, Outcome::Optimal, "{executor}");
            assert_eq!(report.final_degree, reference.final_degree, "{executor}");
            assert_eq!(
                report.improvement_metrics.messages_total,
                reference.improvement_metrics.messages_total,
                "{executor}"
            );
            assert!(report.tree().is_spanning_tree_of(&g), "{executor}");
            assert!(report.wall_ms >= 0.0);
        }
    }

    #[test]
    fn concurrent_backends_reject_fault_plans_loudly() {
        let g = Arc::new(generators::path(6).unwrap());
        let err = Pipeline::on(&g)
            .executor(ExecutorKind::Pool)
            .workers(4)
            .faults(FaultPlan {
                loss: 0.2,
                ..Default::default()
            })
            .run()
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::Exec(ExecError::InvalidConfig(_))),
            "expected a typed executor rejection, got {err:?}"
        );
        assert!(
            err.to_string().contains("sim"),
            "the error must point at the sim backend, got {err}"
        );
    }

    #[test]
    fn rejects_initial_trees_that_do_not_span_the_graph() {
        let g = Arc::new(generators::path(4).unwrap());
        let other = generators::star(4).unwrap();
        let t = mdst_graph::algorithms::bfs_tree(&other, NodeId(0)).unwrap();
        let err = Pipeline::on(&g).initial_tree(t).run().unwrap_err();
        assert!(matches!(err, PipelineError::Graph(_)), "{err:?}");
    }

    #[test]
    fn every_initial_kind_runs_through_the_pipeline() {
        let g = Arc::new(generators::gnp_connected(20, 0.25, 5).unwrap());
        for kind in InitialTreeKind::all(7) {
            let report = Pipeline::on(&g).initial(kind).run().unwrap();
            assert!(
                report.final_degree <= report.initial_degree,
                "{}",
                kind.label()
            );
            assert!(report.tree().is_spanning_tree_of(&g), "{}", kind.label());
        }
    }

    #[test]
    fn event_limit_aborts_are_outcomes() {
        let g = Arc::new(generators::complete(10).unwrap());
        let report = Pipeline::on(&g)
            .sim(SimConfig {
                max_events: 3,
                ..Default::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::EventLimitAborted);
        assert!(report.final_tree.is_none());
    }

    #[test]
    fn observers_stream_construction_rounds_exchanges_and_finish() {
        let g = Arc::new(generators::star_with_leaf_edges(12).unwrap());
        let mut counts = CountingObserver::default();
        let report = Pipeline::on(&g).observer(&mut counts).run().unwrap();
        assert_eq!(counts.constructions, 1);
        assert_eq!(counts.rounds as u32, report.rounds);
        assert_eq!(counts.exchanges as u32, report.improvements);
        assert_eq!(counts.faults, 0);
        assert_eq!(counts.finishes, 1);
        assert!(counts.rounds >= 1);
    }

    #[test]
    fn observers_see_fault_events_with_and_without_a_trace() {
        let g = Arc::new(generators::gnp_connected(14, 0.3, 3).unwrap());
        let plan = FaultPlan {
            loss: 0.3,
            seed: 7,
            crashes: vec![mdst_netsim::CrashAt {
                node: NodeId(2),
                at: 4,
            }],
            ..Default::default()
        };
        // Without a trace: aggregate drops + per-node crashes.
        let mut plain = CountingObserver::default();
        let report = Pipeline::on(&g)
            .faults(plan.clone())
            .observer(&mut plain)
            .run()
            .unwrap();
        let expected_plain = report.improvement_metrics.crashed_nodes as usize
            + usize::from(report.improvement_metrics.dropped_messages > 0);
        assert_eq!(plain.faults, expected_plain);
        // With a trace: one event per dropped message plus the crashes.
        let mut traced = CountingObserver::default();
        let report = Pipeline::on(&g)
            .sim(SimConfig {
                record_trace: true,
                faults: plan,
                ..Default::default()
            })
            .observer(&mut traced)
            .run()
            .unwrap();
        assert_eq!(
            traced.faults as u64,
            report.improvement_metrics.dropped_messages + report.improvement_metrics.crashed_nodes
        );
        assert_eq!(traced.finishes, 1);
    }

    #[test]
    fn round_attribution_is_exact_on_optimal_runs_and_withheld_on_degraded_ones() {
        #[derive(Default)]
        struct Collect {
            rounds: Vec<Option<bool>>,
            exchanges: Vec<u32>,
        }
        impl Observer for Collect {
            fn on_round(&mut self, event: &RoundEvent) {
                self.rounds.push(event.improved);
            }
            fn on_exchange(&mut self, event: &ExchangeEvent) {
                self.exchanges.push(event.index);
            }
        }

        // Optimal run: every round attributed, exchanges interleaved 1..=I.
        let g = Arc::new(generators::star_with_leaf_edges(10).unwrap());
        let mut collect = Collect::default();
        let report = Pipeline::on(&g).observer(&mut collect).run().unwrap();
        assert_eq!(report.outcome, Outcome::Optimal);
        assert_eq!(report.improvements + 1, report.rounds);
        let expected: Vec<Option<bool>> = (1..=report.rounds)
            .map(|r| Some(r <= report.improvements))
            .collect();
        assert_eq!(collect.rounds, expected);
        assert_eq!(
            collect.exchanges,
            (1..=report.improvements).collect::<Vec<_>>()
        );

        // Aborted run: attribution unknown — no fabricated `improved` flags.
        let g = Arc::new(generators::complete(10).unwrap());
        let mut collect = Collect::default();
        let report = Pipeline::on(&g)
            .sim(SimConfig {
                max_events: 3,
                ..Default::default()
            })
            .observer(&mut collect)
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::EventLimitAborted);
        assert_eq!(collect.rounds.len() as u32, report.rounds);
        assert!(
            collect.rounds.iter().all(Option::is_none),
            "degraded runs must not fabricate per-round attribution: {:?}",
            collect.rounds
        );
        assert_eq!(
            collect.exchanges,
            (1..=report.improvements).collect::<Vec<_>>()
        );
    }

    #[test]
    fn raised_cancel_token_grades_the_run_aborted() {
        let g = Arc::new(generators::gnp_connected(24, 0.3, 9).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let report = Pipeline::on(&g).cancel(token).run().unwrap();
        assert_eq!(report.outcome, Outcome::Aborted);
        assert_eq!(report.outcome.label(), "aborted");
        assert!(report.final_tree.is_none(), "partial snapshot, no tree");
        // An inert token leaves the session untouched.
        let report = Pipeline::on(&g).cancel(CancelToken::new()).run().unwrap();
        assert_eq!(report.outcome, Outcome::Optimal);
    }

    #[test]
    fn multiple_observers_all_receive_the_stream() {
        let g = Arc::new(generators::wheel(10).unwrap());
        let mut a = CountingObserver::default();
        let mut b = CountingObserver::default();
        let _report = Pipeline::on(&g)
            .observer(&mut a)
            .observer(&mut b)
            .run()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.finishes, 1);
    }

    #[test]
    fn outcome_serializes_as_its_stable_label() {
        for outcome in [
            Outcome::Optimal,
            Outcome::PartialTree,
            Outcome::EventLimitAborted,
            Outcome::Aborted,
        ] {
            let v = outcome.to_value();
            assert_eq!(v.as_str(), Some(outcome.label()));
            assert_eq!(Outcome::from_value(&v).unwrap(), outcome);
        }
        let bad = serde::Value::String("quantum".to_string());
        assert!(Outcome::from_value(&bad).is_err());
    }

    #[test]
    fn fault_plans_survive_any_builder_call_order() {
        let g = Arc::new(generators::star_with_leaf_edges(12).unwrap());
        let plan = FaultPlan {
            loss: 0.7,
            seed: 5,
            ..Default::default()
        };
        // `.sim()` after `.faults()` must not discard the registered plan.
        let report = Pipeline::on(&g)
            .faults(plan.clone())
            .sim(SimConfig::default())
            .run()
            .unwrap();
        assert!(
            report.improvement_metrics.dropped_messages > 0,
            "the fault plan was silently dropped by a later .sim() call"
        );
        // Same for `.config()`.
        let report = Pipeline::on(&g)
            .faults(plan)
            .config(PipelineConfig::default())
            .run()
            .unwrap();
        assert!(report.improvement_metrics.dropped_messages > 0);
    }

    #[test]
    fn explicit_initial_trees_seed_the_session() {
        let g = Arc::new(generators::gnp_connected(18, 0.25, 11).unwrap());
        let initial = mdst_graph::algorithms::bfs_tree(&g, NodeId(0)).unwrap();
        let report = Pipeline::on(&g)
            .initial_tree(initial.clone())
            .run()
            .unwrap();
        assert_eq!(report.initial_tree, initial);
        assert!(report.construction_metrics.is_none());
        assert!(report.final_degree <= initial.max_degree());
    }
}
