//! Parallel campaign execution.
//!
//! [`run_campaign`] expands a [`ScenarioMatrix`] into its flat run list and
//! executes the runs across scoped worker threads that claim them through a
//! private [`Scheduler`] session — the same claim path `scenario serve` runs
//! its resident campaigns on — so long runs never block short ones. Each run
//! drives the full `mdst_core` pipeline — initial-tree construction followed
//! by the distributed improvement protocol — and is checked against the
//! paper's `O(Δ* + log n)` degree bound from [`mdst_core::bounds`]. Results
//! aggregate into per-scenario and campaign-wide statistics.

use crate::scheduler::Scheduler;
use crate::spec::{ResolvedGraph, RunSpec, ScenarioMatrix, SpecError};
use mdst_core::bounds;
use mdst_core::{Observer, Outcome, Pipeline, RunReport};
use mdst_graph::Graph;
use mdst_netsim::CancelToken;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How one run ended — the outcome taxonomy of the fault campaign.
///
/// A fault-free run that does not end in [`RunOutcome::QuiescedCorrect`] is
/// additionally recorded as an error (the protocol guarantees termination on
/// reliable networks); under faults the degraded outcomes are legitimate
/// results and the run is *not* a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The network quiesced, every live node terminated, and the final tree
    /// spans the survivor component (the whole graph when nothing crashed).
    QuiescedCorrect,
    /// The network quiesced but the snapshot is stale or partial: some live
    /// node never terminated, or the surviving tree edges do not span the
    /// survivor component.
    QuiescedPartial,
    /// The event cap was hit before quiescence.
    EventLimitAbort,
    /// The run was cooperatively cancelled mid-flight (an operator `cancel`
    /// or the serve scheduler's early-abort watchdog); the record keeps the
    /// partial measurements. A decision, never recorded as an error.
    Aborted,
    /// The run could not start (graph build, spec or config error); see the
    /// record's `error` field.
    Failed,
}

impl RunOutcome {
    /// Stable lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::QuiescedCorrect => "quiesced-correct",
            RunOutcome::QuiescedPartial => "quiesced-partial",
            RunOutcome::EventLimitAbort => "event-limit-abort",
            RunOutcome::Aborted => "aborted",
            RunOutcome::Failed => "failed",
        }
    }
}

// The campaign taxonomy is the driver's unified `Outcome` plus the
// runner-level `Failed` state (a run that never started has no driver
// outcome). The report labels predate the unified enum and stay stable so
// existing JSON baselines keep diffing cleanly.
impl From<Outcome> for RunOutcome {
    fn from(outcome: Outcome) -> Self {
        match outcome {
            Outcome::Optimal => RunOutcome::QuiescedCorrect,
            Outcome::PartialTree => RunOutcome::QuiescedPartial,
            Outcome::EventLimitAborted => RunOutcome::EventLimitAbort,
            Outcome::Aborted => RunOutcome::Aborted,
        }
    }
}

// Hand-written so the JSON `outcome` field carries the same kebab-case label
// as the CSV column and the per-scenario `outcomes` histogram keys.
impl Serialize for RunOutcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for RunOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("quiesced-correct") => Ok(RunOutcome::QuiescedCorrect),
            Some("quiesced-partial") => Ok(RunOutcome::QuiescedPartial),
            Some("event-limit-abort") => Ok(RunOutcome::EventLimitAbort),
            Some("aborted") => Ok(RunOutcome::Aborted),
            Some("failed") => Ok(RunOutcome::Failed),
            _ => Err(serde::Error::custom("expected a run outcome label")),
        }
    }
}

/// Drain-batch size of a run (`0` = backend default; only the pool backend
/// reads it).
///
/// A transparent wrapper over `usize` whose deserialization tolerates the
/// field being absent: reports written before the batch axis existed have no
/// `batch` key, which reaches [`Deserialize::from_value`] as `Value::Null`
/// and decodes as `0` — so pre-batch campaign reports still load and diff
/// against new ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct BatchSize(pub usize);

impl Serialize for BatchSize {
    fn to_value(&self) -> serde::Value {
        serde::Value::UInt(self.0 as u64)
    }
}

impl Deserialize for BatchSize {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(BatchSize(0)),
            other => other
                .as_u64()
                .map(|b| BatchSize(b as usize))
                .ok_or_else(|| serde::Error::custom("expected a batch size")),
        }
    }
}

impl std::fmt::Display for BatchSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Predicted wall-clock milliseconds of a run (`0.0` = no prediction: the
/// run was executed outside a cost-aware scheduler, or the cost model had
/// nothing to say yet).
///
/// Like [`BatchSize`], a transparent Null-tolerant wrapper: reports written
/// before the serve scheduler existed have no `predicted_wall_ms` key, which
/// reaches [`Deserialize::from_value`] as `Value::Null` and decodes as `0.0`
/// — so historical campaign reports still load and diff against new ones.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictedMs(pub f64);

impl PredictedMs {
    /// Whether a prediction was actually recorded.
    pub fn is_set(&self) -> bool {
        self.0 > 0.0
    }
}

impl Serialize for PredictedMs {
    fn to_value(&self) -> serde::Value {
        serde::Value::Float(self.0)
    }
}

impl Deserialize for PredictedMs {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(PredictedMs(0.0)),
            other => other
                .as_f64()
                .map(PredictedMs)
                .ok_or_else(|| serde::Error::custom("expected a predicted wall time")),
        }
    }
}

impl std::fmt::Display for PredictedMs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Runner configuration.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Worker threads; `0` means the spec's `campaign.parallelism` (when
    /// set) or one per available CPU. The CLI `--jobs` flag lands here.
    pub threads: usize,
    /// When set, runs are *claimed* in a seeded random order instead of
    /// expansion order, so the long runs of a skewed campaign start early
    /// and stop dominating the tail. Results stay in expansion order and the
    /// seed is recorded in [`CampaignReport::shuffle_seed`], so a shuffled
    /// campaign reproduces exactly.
    pub shuffle: Option<u64>,
    /// When set, every run registers a streaming [`mdst_core::Observer`]
    /// that prints one progress line to stderr as the run finishes (the CLI
    /// `--progress` flag). Records are unaffected.
    pub progress: bool,
}

/// The campaign progress tap: a per-run [`Observer`] streaming one line per
/// finished run to stderr, prefixed with the run's full configuration key
/// (see [`RunRecord::key`]) so interleaved output under `--jobs > 1` — or
/// under the serve scheduler's multiplexing — stays attributable to its run.
struct ProgressLine {
    label: String,
}

impl Observer for ProgressLine {
    fn on_finish(&mut self, report: &RunReport) {
        eprintln!(
            "  {}: {} degree {} -> {} ({} rounds, {} msgs, {:.1} ms)",
            self.label,
            report.outcome,
            report.initial_degree,
            report.final_degree,
            report.rounds,
            report.improvement_metrics.messages_total,
            report.wall_ms,
        );
    }
}

/// Campaign-wide topology cache: every distinct graph source is built exactly
/// once and shared as an `Arc<Graph>` across all runs that sweep it.
///
/// Before the CSR substrate, each of a campaign's runs re-built (or re-read)
/// its graph and every executor additionally re-materialised a
/// `Vec<Vec<NodeId>>` adjacency — an `O(m)` tax multiplied by the run count.
/// Now the expansion's repeated `(source, seed)` pairs resolve to one shared
/// CSR graph whose neighbour slices every backend borrows directly.
///
/// Keys are `(graph label, seed)`; file sources ignore the seed (the same
/// file is the same topology whatever the run seed), so a thousand-seed sweep
/// over one benchmark file parses it once.
pub struct TopologyCache {
    state: Mutex<CacheState>,
}

/// Everything behind the cache's one lock.
#[derive(Default)]
struct CacheState {
    map: BTreeMap<TopologyKey, TopologySlot>,
    /// Lookups that found the topology already built.
    hits: u64,
    /// Lookups that had to build (or re-report the build error).
    misses: u64,
}

/// Cache key: graph label plus the effective generation seed.
type TopologyKey = (String, u64);
/// Cached outcome: the shared graph, or the build error verbatim.
type TopologySlot = Result<Arc<Graph>, String>;

impl TopologyCache {
    /// An empty cache.
    pub fn new() -> Self {
        TopologyCache {
            state: Mutex::new(CacheState::default()),
        }
    }

    fn key(graph: &ResolvedGraph, seed: u64) -> (String, u64) {
        let seed = match graph {
            // Files ignore the run seed entirely; normalising the key lets
            // every seed of a sweep share one parse.
            ResolvedGraph::File { .. } => 0,
            ResolvedGraph::Family { .. } => seed,
        };
        (graph.label(), seed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().expect("cache poisoned")
    }

    /// The shared graph for `(graph, seed)`, building (or re-reporting the
    /// build error) on first use. Concurrent callers may race to build the
    /// same topology; the first insert wins so every run of a campaign
    /// observes pointer-identical topology.
    pub fn get(&self, graph: &ResolvedGraph, seed: u64) -> Result<Arc<Graph>, String> {
        let key = Self::key(graph, seed);
        {
            let mut state = self.lock();
            if let Some(hit) = state.map.get(&key).cloned() {
                state.hits += 1;
                return hit;
            }
            state.misses += 1;
        }
        // Build outside the lock so a slow parse (a big gzipped benchmark
        // file) does not serialise unrelated builds.
        let built = graph.build(seed).map(Arc::new).map_err(|e| e.to_string());
        self.lock().map.entry(key).or_insert(built).clone()
    }

    /// Number of distinct topologies built so far.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime `(hits, misses)` counters of this cache: a hit found the
    /// topology already built, a miss built it (or re-reported its build
    /// error). Surfaced by `scenario status` when one cache is shared across
    /// concurrently scheduled campaigns.
    pub fn stats(&self) -> (u64, u64) {
        let state = self.lock();
        (state.hits, state.misses)
    }
}

impl Default for TopologyCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of one run of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Scenario the run belongs to.
    pub scenario: String,
    /// Graph label, e.g. `gnp_connected(n=32,p=0.1)`.
    pub graph: String,
    /// Initial-tree construction name.
    pub initial: String,
    /// Delay model label.
    pub delay: String,
    /// Start model label.
    pub start: String,
    /// Fault plan label (`"none"` for fault-free runs).
    pub faults: String,
    /// Executor backend label (`"sim"`, `"pool"`).
    pub executor: String,
    /// Drain-batch size swept by the `batch` axis (`0` = backend default;
    /// Null-tolerant so pre-batch reports still deserialize — see
    /// [`BatchSize`]).
    pub batch: BatchSize,
    /// Whether the run recorded a trace and replayed it through the
    /// happens-before auditor (the `audit` axis).
    pub audit: bool,
    /// Seed of the run.
    pub seed: u64,
    /// Nodes of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
    /// How the run ended (see [`RunOutcome`]).
    pub outcome: RunOutcome,
    /// Maximum degree of the initial tree (`k`).
    pub initial_degree: usize,
    /// Maximum degree of the improved tree (`k*`) on the survivor component
    /// (the whole graph for fault-free runs).
    pub final_degree: usize,
    /// Combinatorial lower bound on `Δ*`, computed on the survivor component.
    pub degree_lower_bound: usize,
    /// The paper's `2·Δ* + ⌈log₂ n⌉` guarantee on the survivor component,
    /// with the lower bound standing in for `Δ*`.
    pub degree_upper_bound: usize,
    /// Whether the degree bound held on the survivor component:
    /// `final_degree ≤ degree_upper_bound` whenever the run completed
    /// (`outcome = QuiescedCorrect`); vacuously true for partial or aborted
    /// snapshots — the bound only speaks about trees the protocol finished.
    pub within_bound: bool,
    /// Messages lost to fault injection.
    pub dropped_messages: u64,
    /// Nodes that crash-stopped.
    pub crashed_nodes: u64,
    /// Size of the survivor component (`n` for fault-free runs).
    pub survivors: usize,
    /// Ratio `final_degree / max(lower bound, 1)`.
    pub approx_ratio: f64,
    /// Messages of the improvement protocol.
    pub messages: u64,
    /// Messages of the (distributed) construction, 0 for centralized seeds.
    pub construction_messages: u64,
    /// Longest causal chain of the improvement protocol.
    pub causal_time: u64,
    /// Simulated clock at quiescence.
    pub quiescence_time: u64,
    /// Improvement rounds executed.
    pub rounds: u32,
    /// Edge exchanges performed.
    pub improvements: u32,
    /// Wall-clock milliseconds of the improvement execution alone, as
    /// reported by the backend that ran it (the simulator's event loop, the
    /// pool's worker lifetime).
    pub exec_wall_ms: f64,
    /// Wall-clock milliseconds the cost-aware scheduler predicted for this
    /// run before executing it (`0` when the run was not scheduled by a cost
    /// model — direct `scenario run` campaigns — or the model was still
    /// unseeded; Null-tolerant so pre-serve reports still deserialize — see
    /// [`PredictedMs`]). Recorded next to `exec_wall_ms` so prediction
    /// accuracy is measurable from any report.
    pub predicted_wall_ms: PredictedMs,
    /// Happens-before findings flagged by the auditor; `0` when the run
    /// audited clean or was not audited.
    pub audit_findings: u64,
    /// Distinct audit rule labels that fired, comma-joined (e.g.
    /// `"duplicate-delivery,fifo-inversion"`); empty when clean or unaudited.
    pub audit_rules: String,
    /// Wall-clock milliseconds spent on this run end to end (graph build,
    /// construction, improvement, verification).
    pub wall_ms: f64,
    /// Failure description. Setup failures (`outcome = Failed`) leave the
    /// numeric fields zero; a fault-free run with a degraded outcome keeps
    /// its measured numbers and records why it still counts as a failure.
    pub error: Option<String>,
}

impl RunRecord {
    /// The record of `spec` before any measurement: the identity fields are
    /// real, every measurement is zero and the outcome is
    /// [`RunOutcome::Failed`] until a finished run fills them in.
    pub fn unstarted(spec: &RunSpec) -> RunRecord {
        RunRecord {
            scenario: spec.scenario.clone(),
            graph: spec.graph.label(),
            initial: spec.initial.clone(),
            delay: spec.delay.label(),
            start: spec.start.label(),
            faults: spec.faults.label(),
            executor: spec.executor.label().to_string(),
            batch: BatchSize(spec.batch),
            audit: spec.audit,
            seed: spec.seed,
            n: 0,
            m: 0,
            outcome: RunOutcome::Failed,
            initial_degree: 0,
            final_degree: 0,
            degree_lower_bound: 0,
            degree_upper_bound: 0,
            within_bound: false,
            dropped_messages: 0,
            crashed_nodes: 0,
            survivors: 0,
            approx_ratio: 0.0,
            messages: 0,
            construction_messages: 0,
            causal_time: 0,
            quiescence_time: 0,
            rounds: 0,
            improvements: 0,
            exec_wall_ms: 0.0,
            predicted_wall_ms: PredictedMs(0.0),
            audit_findings: 0,
            audit_rules: String::new(),
            wall_ms: 0.0,
            error: None,
        }
    }

    /// The run's full configuration key — the identity of one cell of the
    /// sweep matrix, shared by report diffing, progress lines and the serve
    /// event stream so a run carries one identity everywhere. The
    /// default-batch segment is omitted so pre-batch baselines keep
    /// producing byte-identical keys.
    pub fn key(&self) -> String {
        let batch = match self.batch.0 {
            0 => String::new(),
            b => format!(" / batch {b}"),
        };
        format!(
            "{} / {} / {} / {} / {} / {} / {}{batch} / seed {}",
            self.scenario,
            self.graph,
            self.initial,
            self.delay,
            self.start,
            self.faults,
            self.executor,
            self.seed
        )
    }
}

/// Five-number-ish summary of final tree degrees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeSummary {
    /// Smallest final degree.
    pub min: usize,
    /// Median final degree.
    pub median: usize,
    /// Largest final degree.
    pub max: usize,
    /// Mean final degree.
    pub mean: f64,
}

impl DegreeSummary {
    fn of(mut degrees: Vec<usize>) -> DegreeSummary {
        if degrees.is_empty() {
            return DegreeSummary {
                min: 0,
                median: 0,
                max: 0,
                mean: 0.0,
            };
        }
        degrees.sort_unstable();
        let sum: usize = degrees.iter().sum();
        DegreeSummary {
            min: degrees[0],
            median: degrees[degrees.len() / 2],
            max: *degrees.last().expect("non-empty"),
            mean: sum as f64 / degrees.len() as f64,
        }
    }
}

/// Aggregated statistics over a set of runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStats {
    /// Scenario name (`"TOTAL"` for the campaign-wide aggregate).
    pub scenario: String,
    /// Runs attempted.
    pub runs: usize,
    /// Runs that failed (graph build, pipeline error, …).
    pub failures: usize,
    /// Final-degree summary over successful runs.
    pub final_degree: DegreeSummary,
    /// Mean `final_degree / lower_bound` over successful runs.
    pub approx_ratio_mean: f64,
    /// Runs whose final degree exceeded the paper bound.
    pub bound_violations: usize,
    /// Total improvement messages across successful runs.
    pub messages_total: u64,
    /// Largest causal time observed.
    pub causal_time_max: u64,
    /// Runs per outcome label (the fault taxonomy: `quiesced-correct`,
    /// `quiesced-partial`, `event-limit-abort`, `failed`).
    pub outcomes: BTreeMap<String, usize>,
    /// Total messages lost to fault injection.
    pub dropped_total: u64,
    /// Total node crashes injected.
    pub crashed_total: u64,
    /// Runs that recorded and audited a trace.
    pub audited: usize,
    /// Audited runs with at least one happens-before finding.
    pub audit_violations: usize,
}

fn stats_over(name: &str, records: &[&RunRecord]) -> ScenarioStats {
    let ok: Vec<&&RunRecord> = records.iter().filter(|r| r.error.is_none()).collect();
    let degrees: Vec<usize> = ok.iter().map(|r| r.final_degree).collect();
    let ratio_sum: f64 = ok.iter().map(|r| r.approx_ratio).sum();
    let mut outcomes = BTreeMap::new();
    for r in records {
        *outcomes.entry(r.outcome.label().to_string()).or_insert(0) += 1;
    }
    ScenarioStats {
        scenario: name.to_string(),
        runs: records.len(),
        failures: records.len() - ok.len(),
        final_degree: DegreeSummary::of(degrees),
        approx_ratio_mean: if ok.is_empty() {
            0.0
        } else {
            ratio_sum / ok.len() as f64
        },
        bound_violations: ok.iter().filter(|r| !r.within_bound).count(),
        messages_total: ok.iter().map(|r| r.messages).sum(),
        causal_time_max: ok.iter().map(|r| r.causal_time).max().unwrap_or(0),
        outcomes,
        dropped_total: records.iter().map(|r| r.dropped_messages).sum(),
        crashed_total: records.iter().map(|r| r.crashed_nodes).sum(),
        audited: records.iter().filter(|r| r.audit).count(),
        audit_violations: records
            .iter()
            .filter(|r| r.audit && r.audit_findings > 0)
            .count(),
    }
}

/// A finished campaign: every run plus the aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub name: String,
    /// Worker threads used.
    pub threads: usize,
    /// Seed of the claim-order shuffle, when one was requested (`None` for
    /// expansion-order execution). Runs in [`CampaignReport::runs`] are
    /// always in expansion order either way.
    pub shuffle_seed: Option<u64>,
    /// Wall-clock milliseconds for the whole campaign.
    pub wall_ms: f64,
    /// Campaign-wide aggregate (scenario = `"TOTAL"`).
    pub total: ScenarioStats,
    /// Per-scenario aggregates, in spec order.
    pub scenarios: Vec<ScenarioStats>,
    /// Every run, in expansion order.
    pub runs: Vec<RunRecord>,
}

/// Per-run controls of [`execute_run_controlled`] — everything a scheduler
/// (or the plain campaign runner) can attach to one run beyond its spec.
#[derive(Default)]
pub struct RunControls<'a> {
    /// Stream a per-run progress line to stderr (the `--progress` flag).
    pub progress: bool,
    /// Cooperative cancellation token; raising it mid-run ends the run with
    /// [`RunOutcome::Aborted`] and the partial measurements.
    pub cancel: Option<CancelToken>,
    /// Predicted wall-clock milliseconds from a cost model (`0.0` = none);
    /// recorded verbatim in [`RunRecord::predicted_wall_ms`].
    pub predicted_wall_ms: f64,
    /// An extra streaming observer registered on the session (the serve
    /// event fabric plugs its campaign-log tap in here).
    pub observer: Option<&'a mut dyn Observer>,
}

/// Executes a single run against a shared topology cache under explicit
/// [`RunControls`] — the one run entry of both campaign front ends: a
/// `scenario run` worker sets only `progress`, a `scenario serve` worker adds
/// a cancellation token, a cost prediction to record and a streaming
/// observer.
///
/// Every run — fault-free or not — goes through the one unified
/// [`Pipeline`] session, so the outcome taxonomy is uniform. A fault-free
/// run that does not end in [`RunOutcome::QuiescedCorrect`] is also recorded
/// as an error, preserving the pre-fault contract that campaigns fail loudly
/// when the protocol misbehaves on a reliable network.
pub fn execute_run_controlled(
    spec: &RunSpec,
    topologies: &TopologyCache,
    controls: RunControls<'_>,
) -> RunRecord {
    let start = Instant::now();
    let unstarted = || RunRecord {
        predicted_wall_ms: PredictedMs(controls.predicted_wall_ms),
        ..RunRecord::unstarted(spec)
    };
    let mut record = unstarted();
    // A panicking protocol handler or observer fails this one run; it must
    // not unwind into the campaign runner or the serve worker driving it.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let graph = topologies.get(&spec.graph, spec.seed)?;
        let config = spec.pipeline_config().map_err(|e| e.to_string())?;
        if spec.root >= graph.node_count() {
            return Err(format!(
                "root {} out of range for a graph on {} nodes",
                spec.root,
                graph.node_count()
            ));
        }
        // One session whatever the fault axis says: degraded endings are
        // outcomes of the unified report, not a separate code path.
        let mut progress_line = ProgressLine { label: spec.key() };
        let mut auditor = mdst_analysis::Auditor::new();
        let mut session = Pipeline::on(&graph).config(config);
        if controls.progress {
            session = session.observer(&mut progress_line);
        }
        if spec.audit {
            session = session.observer(&mut auditor);
        }
        if let Some(observer) = controls.observer {
            session = session.observer(observer);
        }
        if let Some(token) = controls.cancel {
            session = session.cancel(token);
        }
        let report = session.run().map_err(|e| e.to_string())?;
        if let Some(verdict) = auditor.into_report() {
            record.audit_findings = verdict.findings.len() as u64;
            let mut rules: Vec<&str> = verdict.findings.iter().map(|f| f.rule.label()).collect();
            rules.sort_unstable();
            rules.dedup();
            record.audit_rules = rules.join(",");
        }
        record.n = report.n;
        record.m = report.m;
        record.outcome = RunOutcome::from(report.outcome);
        // Degree bounds are judged on the survivor component (the whole graph
        // when nothing crashed, so fault-free numbers are unchanged). Only
        // crashes can shrink the component; skip the subgraph copy whenever
        // every node survived — the common case.
        let (lb, ub) = if report.survivor.component_size() == graph.node_count() {
            bounds::degree_bounds(&graph)
        } else {
            bounds::degree_bounds(&report.survivor.component_subgraph(&graph))
        };
        record.initial_degree = report.initial_degree;
        record.final_degree = report.survivor.max_degree;
        record.degree_lower_bound = lb;
        record.degree_upper_bound = ub;
        // The paper's bound speaks about *completed* runs: judge it only when
        // the protocol finished with a correct tree on the survivor
        // component. A snapshot interrupted mid-improvement by a crash can
        // legitimately exceed the bound — that is a degraded outcome, not a
        // violation of the theorem.
        record.within_bound =
            record.outcome != RunOutcome::QuiescedCorrect || record.final_degree <= ub;
        record.dropped_messages = report.improvement_metrics.dropped_messages;
        record.crashed_nodes = report.improvement_metrics.crashed_nodes;
        record.survivors = report.survivor.component_size();
        record.approx_ratio = record.final_degree as f64 / lb.max(1) as f64;
        record.messages = report.improvement_metrics.messages_total;
        record.construction_messages = report
            .construction_metrics
            .as_ref()
            .map(|m| m.messages_total)
            .unwrap_or(0);
        record.causal_time = report.improvement_metrics.causal_time;
        record.quiescence_time = report.improvement_metrics.quiescence_time;
        record.rounds = report.rounds;
        record.improvements = report.improvements;
        record.exec_wall_ms = report.wall_ms;
        // A cancellation is an operator (or scheduler) decision, not a
        // protocol failure — only spontaneous degradations break the
        // reliable-network contract.
        if spec.faults.is_none()
            && record.outcome != RunOutcome::QuiescedCorrect
            && record.outcome != RunOutcome::Aborted
        {
            return Err(format!(
                "fault-free run ended {}: the protocol must terminate with a \
                 spanning tree on a reliable network",
                record.outcome.label()
            ));
        }
        Ok(())
    }))
    .unwrap_or_else(|payload| {
        record = unstarted();
        Err(format!("run panicked: {}", panic_message(payload.as_ref())))
    });
    if let Err(e) = outcome {
        record.error = Some(e);
    }
    record.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    record
}

/// The message of a caught panic: the `panic!` string, or a placeholder for
/// a non-string payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Expands `matrix` and executes every run in parallel. A non-zero
/// `config.threads` wins over the spec's `campaign.parallelism` default.
///
/// The campaign is a private [`Scheduler`] session: the runs are submitted
/// with their claim ranks as costs, the scheduler is shut down at once so
/// its workers exit when the queue drains, and `threads` scoped workers
/// claim, execute and complete runs until then.
pub fn run_campaign(
    matrix: &ScenarioMatrix,
    config: &RunnerConfig,
) -> Result<CampaignReport, SpecError> {
    let runs = matrix.expand()?;
    let requested = match config.threads {
        0 => matrix.parallelism.unwrap_or(0),
        t => t,
    };
    let threads = effective_threads(requested, runs.len());
    let ranks = claim_ranks(runs.len(), config.shuffle);
    let scheduler = Scheduler::new();
    let (id, _) = scheduler
        .submit(matrix, runs.into_iter().zip(ranks).collect())
        .map_err(SpecError)?;
    scheduler.shutdown();
    // One topology per distinct (source, seed) for the whole campaign: every
    // worker resolves its runs through this shared cache, so repeated sweeps
    // over the same graph borrow one CSR structure instead of re-building
    // (or re-parsing) it per run.
    let topologies = TopologyCache::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(claim) = scheduler.claim(|_| 0.0) {
                    let controls = RunControls {
                        progress: config.progress,
                        ..Default::default()
                    };
                    let record = execute_run_controlled(&claim.spec, &topologies, controls);
                    scheduler.complete(claim.campaign, claim.run, record);
                }
            });
        }
    });
    let report = scheduler
        .report(id)
        .expect("a drained campaign has its report");
    Ok(CampaignReport {
        threads,
        shuffle_seed: config.shuffle,
        ..report
    })
}

/// Claim cost of every run: its rank in expansion order, or in a seeded
/// Fisher–Yates permutation of it under `--shuffle`. Records land in
/// expansion order either way, so the report is identical up to wall times.
fn claim_ranks(runs: usize, shuffle: Option<u64>) -> Vec<f64> {
    let mut order: Vec<usize> = (0..runs).collect();
    if let Some(seed) = shuffle {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut ranks = vec![0.0; runs];
    for (rank, &run) in order.iter().enumerate() {
        ranks[run] = rank as f64;
    }
    ranks
}

impl ScenarioMatrix {
    /// Scenario names in spec order (used to order the per-scenario stats).
    pub fn scenario_order(&self) -> Vec<String> {
        self.scenarios.iter().map(|s| s.name.clone()).collect()
    }
}

/// Folds finished run records into a [`CampaignReport`] — the aggregation
/// tail of every campaign, run by the [`Scheduler`] when a campaign's last
/// run completes and exposed so callers that execute runs themselves produce
/// byte-identical reports.
pub fn aggregate_records(
    name: &str,
    scenario_order: &[String],
    records: Vec<RunRecord>,
    threads: usize,
    shuffle_seed: Option<u64>,
    wall_ms: f64,
) -> CampaignReport {
    // Per-scenario aggregates in spec order, plus any unknown names appended
    // (defensive: callers may pass arbitrary record lists).
    let mut order: Vec<String> = scenario_order.to_vec();
    for r in &records {
        if !order.contains(&r.scenario) {
            order.push(r.scenario.clone());
        }
    }
    let scenarios: Vec<ScenarioStats> = order
        .iter()
        .map(|name| {
            let subset: Vec<&RunRecord> = records.iter().filter(|r| &r.scenario == name).collect();
            stats_over(name, &subset)
        })
        .collect();
    let all: Vec<&RunRecord> = records.iter().collect();
    CampaignReport {
        name: name.to_string(),
        threads,
        shuffle_seed,
        wall_ms,
        total: stats_over("TOTAL", &all),
        scenarios,
        runs: records,
    }
}

fn effective_threads(requested: usize, runs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, runs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioMatrix;

    const SPEC: &str = r#"
        [campaign]
        name = "runner-test"

        [[scenario]]
        name = "gnp"
        graph = { family = "gnp_connected", n = [10, 14], p = 0.3 }
        initial = ["greedy_hub", "bfs"]
        seeds = [1, 2]

        [[scenario]]
        name = "worst"
        graph = { family = "star_with_leaf_edges", n = 12 }
        seeds = [5]
    "#;

    #[test]
    fn campaign_runs_and_aggregates() {
        let matrix = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
        assert_eq!(report.runs.len(), 2 * 2 * 2 + 1);
        assert_eq!(report.total.runs, 9);
        assert_eq!(report.total.failures, 0);
        assert_eq!(report.total.bound_violations, 0);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.scenarios[0].scenario, "gnp");
        for run in &report.runs {
            assert!(run.error.is_none(), "{:?}", run.error);
            assert!(run.within_bound, "{run:?}");
            assert!(run.final_degree <= run.initial_degree);
            assert!(run.final_degree >= run.degree_lower_bound);
            assert!(run.messages > 0);
        }
        let worst = report.runs.iter().find(|r| r.scenario == "worst").unwrap();
        assert_eq!(worst.initial_degree, 11);
        assert!(worst.final_degree <= 3);
    }

    #[test]
    fn parallel_and_serial_executions_agree() {
        let matrix = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        let serial = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.runs.len(), parallel.runs.len());
        for (a, b) in serial.runs.iter().zip(&parallel.runs) {
            // Wall times differ; everything measured must not.
            let mut b = b.clone();
            b.wall_ms = a.wall_ms;
            b.exec_wall_ms = a.exec_wall_ms;
            assert_eq!(a, &b);
        }
        assert_eq!(serial.total.messages_total, parallel.total.messages_total);
    }

    #[test]
    fn fault_free_campaigns_report_all_runs_correct() {
        let matrix = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
        assert_eq!(
            report.total.outcomes.get("quiesced-correct").copied(),
            Some(report.total.runs)
        );
        assert_eq!(report.total.dropped_total, 0);
        assert_eq!(report.total.crashed_total, 0);
        for run in &report.runs {
            assert_eq!(run.outcome, RunOutcome::QuiescedCorrect);
            assert_eq!(run.faults, "none");
            assert_eq!(run.survivors, run.n);
        }
    }

    #[test]
    fn faulty_campaigns_classify_every_run_deterministically() {
        let spec = r#"
            [[scenario]]
            name = "lossy"
            graph = { family = "gnp_connected", n = 14, p = 0.35 }
            faults = [ "none", { loss = 0.5 }, { crashes = [[2, 3]] } ]
            seeds = [1, 2]
        "#;
        let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
        let a = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a.total.runs, 6);
        // Every run is classified, and the classification plus the drop and
        // crash counters reproduce exactly across executions.
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.dropped_messages, y.dropped_messages);
            assert_eq!(x.crashed_nodes, y.crashed_nodes);
            assert_eq!(x.survivors, y.survivors);
        }
        // The fault-free slices of the sweep stay healthy...
        for run in a.runs.iter().filter(|r| r.faults == "none") {
            assert_eq!(run.outcome, RunOutcome::QuiescedCorrect);
            assert!(run.error.is_none());
        }
        // ...the crash runs actually crash a node, and degraded outcomes are
        // not recorded as failures.
        for run in a.runs.iter().filter(|r| r.faults.contains("crashes")) {
            assert_eq!(run.crashed_nodes, 1);
            assert!(run.survivors < run.n);
            assert!(run.error.is_none(), "{:?}", run.error);
        }
        let outcome_sum: usize = a.total.outcomes.values().sum();
        assert_eq!(outcome_sum, a.total.runs);
    }

    #[test]
    fn progress_mode_streams_without_changing_records() {
        let matrix = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        let plain = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let observed = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 1,
                progress: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.runs.len(), observed.runs.len());
        for (a, b) in plain.runs.iter().zip(&observed.runs) {
            let mut b = b.clone();
            b.wall_ms = a.wall_ms;
            b.exec_wall_ms = a.exec_wall_ms;
            assert_eq!(a, &b, "observer must not perturb measurements");
        }
    }

    #[test]
    fn failing_runs_are_recorded_not_fatal() {
        let spec = r#"
            [[scenario]]
            name = "bad-root"
            graph = { family = "path", n = 4 }
            root = 9
        "#;
        let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
        let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
        assert_eq!(report.total.runs, 1);
        assert_eq!(report.total.failures, 1);
        assert!(report.runs[0].error.as_deref().unwrap().contains("root"));
    }

    /// Both campaign front ends admit runs through the scheduler, so they
    /// share one rule for an empty expansion: `scenario serve` answers
    /// "spec expands to zero runs", and so does `run_campaign`.
    #[test]
    fn an_empty_expansion_is_the_schedulers_zero_runs_error() {
        let matrix = ScenarioMatrix {
            name: "empty".to_string(),
            parallelism: None,
            scenarios: Vec::new(),
        };
        let err = run_campaign(&matrix, &RunnerConfig::default()).unwrap_err();
        assert_eq!(err.0, "spec expands to zero runs");
    }

    #[test]
    fn a_panicking_observer_fails_its_run_instead_of_unwinding() {
        struct Boom;
        impl Observer for Boom {
            fn on_finish(&mut self, _report: &RunReport) {
                panic!("observer exploded");
            }
        }
        let runs = ScenarioMatrix::from_toml_str(SPEC)
            .unwrap()
            .expand()
            .unwrap();
        let spec = &runs[0];
        let mut boom = Boom;
        let record = execute_run_controlled(
            spec,
            &TopologyCache::new(),
            RunControls {
                predicted_wall_ms: 2.5,
                observer: Some(&mut boom),
                ..Default::default()
            },
        );
        assert_eq!(record.outcome, RunOutcome::Failed);
        assert_eq!(
            record.error.as_deref(),
            Some("run panicked: observer exploded")
        );
        assert_eq!(record.key(), spec.key());
        assert_eq!(record.predicted_wall_ms, PredictedMs(2.5));
        assert_eq!((record.n, record.messages), (0, 0));
    }
}
