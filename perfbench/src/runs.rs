//! One run, two ways: the record a public entry point produced, and a
//! layer-by-layer replay of the same spec with a span around each call.

use crate::span::Tracer;
use mdst_analysis::AuditReport;
use mdst_core::{bounds, Pipeline, RunReport};
use mdst_graph::Graph;
use mdst_scenario::runner::BatchSize;
use mdst_scenario::{PredictedMs, RunOutcome, RunRecord, RunSpec, TopologyCache};
use mdst_spanning::build_initial_tree;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The degree bounds of a run on a graph that is not graded: the trivial
/// lower bound 2 (every spanning tree on three or more nodes has a node of
/// degree 2; exact on the complete and dense graphs that skip grading) and
/// the paper's `2·Δ* + ⌈log₂ n⌉` with it standing in for `Δ*`.
pub fn ungraded_bounds(n: usize) -> (usize, usize) {
    (2, 4 + bounds::ceil_log2(n))
}

/// Builds the record the campaign runner would build for `report`.
pub fn to_record(
    spec: &RunSpec,
    report: &RunReport,
    (lb, ub): (usize, usize),
    construction_messages: u64,
    audit: Option<&AuditReport>,
    wall_ms: f64,
) -> RunRecord {
    let outcome = RunOutcome::from(report.outcome);
    let final_degree = report.survivor.max_degree;
    let mut rules: Vec<&str> = audit
        .map(|a| a.findings.iter().map(|f| f.rule.label()).collect())
        .unwrap_or_default();
    rules.sort_unstable();
    rules.dedup();
    let error = (spec.faults.is_none()
        && outcome != RunOutcome::QuiescedCorrect
        && outcome != RunOutcome::Aborted)
        .then(|| format!("fault-free run ended {}", outcome.label()));
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
        n: report.n,
        m: report.m,
        outcome,
        initial_degree: report.initial_degree,
        final_degree,
        degree_lower_bound: lb,
        degree_upper_bound: ub,
        within_bound: outcome != RunOutcome::QuiescedCorrect || final_degree <= ub,
        dropped_messages: report.improvement_metrics.dropped_messages,
        crashed_nodes: report.improvement_metrics.crashed_nodes,
        survivors: report.survivor.component_size(),
        approx_ratio: final_degree as f64 / lb.max(1) as f64,
        messages: report.improvement_metrics.messages_total,
        construction_messages,
        causal_time: report.improvement_metrics.causal_time,
        quiescence_time: report.improvement_metrics.quiescence_time,
        rounds: report.rounds,
        improvements: report.improvements,
        exec_wall_ms: report.wall_ms,
        predicted_wall_ms: PredictedMs(0.0),
        audit_findings: audit.map_or(0, |a| a.findings.len() as u64),
        audit_rules: rules.join(","),
        wall_ms,
        error,
    }
}

/// What the replay of one run measured besides its record.
pub struct Replayed {
    pub record: RunRecord,
    /// `Pipeline::run` span, whose backend part is `record.exec_wall_ms`.
    pub core_ms: f64,
    pub graph_bytes: usize,
    pub trace_events: usize,
}

/// Replays `spec` layer by layer, as the campaign runner executes it, with
/// one span per layer call under a `run` span. `grade` runs the two degree
/// bounds on the survivor component as the runner does; without it the run
/// is judged against [`ungraded_bounds`].
pub fn replay(
    spec: &RunSpec,
    cache: &TopologyCache,
    tracer: &Tracer,
    run: u64,
    grade: bool,
) -> Result<Replayed, String> {
    let started = Instant::now();
    let root = tracer.open("run", None, run);
    let at = Some(root);
    let (graph, _) = tracer.time("graph", at, run, || cache.get(&spec.graph, spec.seed));
    let graph = graph?;
    let config = spec.pipeline_config().map_err(|e| e.to_string())?;
    let (built, _) = tracer.time("spanning", at, run, || {
        build_initial_tree(&graph, config.root, config.initial)
    });
    let (tree, construction) = built.map_err(|e| e.to_string())?;
    let (report, core_ms) = tracer.time("core", at, run, || {
        Pipeline::on(&graph).config(config).initial_tree(tree).run()
    });
    let report = report.map_err(|e| e.to_string())?;
    let audit = spec.audit.then(|| {
        tracer
            .time("analysis", at, run, || mdst_analysis::audit(&report.trace))
            .0
    });
    let degree_bounds = if grade {
        let survivor_graph;
        let graded: &Graph = if report.survivor.component_size() == graph.node_count() {
            &graph
        } else {
            survivor_graph = report.survivor.component_subgraph(&graph);
            &survivor_graph
        };
        let (lb, _) = tracer.time("bounds", at, run, || bounds::degree_lower_bound(graded));
        let (ub, _) = tracer.time("bounds", at, run, || {
            bounds::paper_degree_upper_bound(graded)
        });
        (lb, ub)
    } else {
        ungraded_bounds(report.n)
    };
    tracer.close(root);
    let record = to_record(
        spec,
        &report,
        degree_bounds,
        construction.map_or(0, |m| m.messages_total),
        audit.as_ref(),
        started.elapsed().as_secs_f64() * 1e3,
    );
    Ok(Replayed {
        record,
        core_ms,
        graph_bytes: graph.memory_bytes(),
        trace_events: audit.map_or(0, |a| a.events),
    })
}

/// Replays `runs` on `threads` threads that claim them in order, as the
/// campaign runner does. Run ids are `first_run + index`.
pub fn replay_all(
    runs: &[RunSpec],
    cache: &TopologyCache,
    tracer: &Tracer,
    threads: usize,
    grade: bool,
    first_run: u64,
) -> Result<Vec<Replayed>, String> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Replayed, String>>>> =
        runs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = runs.get(idx) else {
                    break;
                };
                let replayed = replay(spec, cache, tracer, first_run + idx as u64, grade);
                *slots[idx].lock().expect("slot poisoned") = Some(replayed);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every run replayed")
        })
        .collect()
}

/// Whether a run counts against `failure_rate`: an error, a bound
/// violation, an audit finding, or a fault-free run the watchdog aborted.
pub fn is_failure(r: &RunRecord) -> bool {
    r.error.is_some()
        || !r.within_bound
        || r.audit_findings > 0
        || (r.faults == "none" && r.outcome == RunOutcome::Aborted)
}

/// The correctness gate for one run. A fault-free `aborted` run passes
/// only when `allow_abort` is set (the service watchdog's decision, counted
/// in `failure_rate` instead).
pub fn check(r: &RunRecord, allow_abort: bool) -> Result<(), String> {
    let key = r.key();
    if let Some(e) = &r.error {
        return Err(format!("{key}: {e}"));
    }
    if r.faults == "none"
        && r.outcome != RunOutcome::QuiescedCorrect
        && !(allow_abort && r.outcome == RunOutcome::Aborted)
    {
        return Err(format!("{key}: fault-free run ended {}", r.outcome.label()));
    }
    if r.outcome == RunOutcome::QuiescedCorrect && r.final_degree > r.degree_upper_bound {
        return Err(format!(
            "{key}: final degree {} above the bound {}",
            r.final_degree, r.degree_upper_bound
        ));
    }
    if r.audit_findings > 0 {
        return Err(format!(
            "{key}: {} audit findings ({})",
            r.audit_findings, r.audit_rules
        ));
    }
    Ok(())
}

/// The exact counts two executions of one run must agree on.
fn fingerprint(r: &RunRecord) -> (String, u64, u32, usize) {
    (r.key(), r.messages, r.rounds, r.final_degree)
}

/// Checks that two record lists of the same runs agree exactly, skipping
/// runs either side aborted.
pub fn same_runs(what: &str, a: &[RunRecord], b: &[RunRecord]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} runs against {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        if x.outcome == RunOutcome::Aborted || y.outcome == RunOutcome::Aborted {
            continue;
        }
        if fingerprint(x) != fingerprint(y) {
            return Err(format!(
                "{what}: {:?} differs from {:?}",
                fingerprint(x),
                fingerprint(y)
            ));
        }
    }
    Ok(())
}

/// Sums over a set of runs.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub runs: u64,
    pub failures: u64,
    pub messages: u64,
    pub msg_budget: u64,
    pub rounds: u64,
    pub round_budget: u64,
    pub improvements: u64,
    pub approx_sum: f64,
    pub exec_ms: f64,
    pub initial_degree_sum: u64,
    pub construction_messages: u64,
}

impl Totals {
    pub fn of<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> Totals {
        let mut t = Totals::default();
        for r in records {
            let drop = r.initial_degree.saturating_sub(r.final_degree) as u64 + 1;
            t.runs += 1;
            t.failures += u64::from(is_failure(r));
            t.messages += r.messages;
            t.msg_budget += drop * r.m as u64;
            t.rounds += u64::from(r.rounds);
            t.round_budget += drop;
            t.improvements += u64::from(r.improvements);
            t.approx_sum += r.approx_ratio;
            t.exec_ms += r.exec_wall_ms;
            t.initial_degree_sum += r.initial_degree as u64;
            t.construction_messages += r.construction_messages;
        }
        t
    }

    /// Add-one (Laplace) estimate of the failure probability,
    /// `(failures + 1) / (runs + 2)`: never 0, so a change that adds a
    /// failure shows as a ratio against its parent.
    pub fn failure_rate(&self) -> f64 {
        (self.failures as f64 + 1.0) / (self.runs as f64 + 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rate_is_add_one_smoothed() {
        let t = Totals {
            runs: 8,
            failures: 0,
            ..Totals::default()
        };
        assert_eq!(t.failure_rate(), 0.1);
        let t = Totals {
            runs: 8,
            failures: 3,
            ..Totals::default()
        };
        assert_eq!(t.failure_rate(), 0.4);
    }

    #[test]
    fn ungraded_bounds_follow_the_paper_formula() {
        assert_eq!(ungraded_bounds(160), (2, 4 + 8));
        assert_eq!(ungraded_bounds(300), (2, 4 + 9));
    }
}
