//! Per-layer metrics of one traced pass, from its spans and replayed runs.

use crate::metrics::{median_by_name, repeat, Metric, Outcome};
use crate::runs::{check, same_runs, Replayed, Totals};
use crate::span::{count, self_ms, total_ms, write_jsonl, Span, Tracer};
use crate::stats::{median, ratio_with_base};
use crate::Cfg;
use mdst_scenario::RunRecord;
use std::collections::BTreeMap;

/// What the service's client saw during one pass.
#[derive(Debug, Clone, Default)]
pub struct ServeObs {
    pub submit_rtt_ms: Vec<f64>,
    /// Submit → first `RunStarted` of the campaign, per small campaign.
    pub queue_wait_ms: Vec<f64>,
    pub events: u64,
    /// `|predicted − exec| / exec` of every run with a prediction.
    pub predict_error: Vec<f64>,
    pub aborted: u64,
    /// Runs whose whole-run wall exceeded the service's default watchdog
    /// budget, `max(8 × predicted, 250 ms)`. The watchdog cancels those
    /// still executing when the budget runs out.
    pub overdue: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Everything one traced pass produced.
#[derive(Default)]
pub struct TracedPass {
    pub replayed: Vec<Replayed>,
    /// The same runs as the public entry point executed them; the replay
    /// must reproduce their exact counts.
    pub reference: Vec<RunRecord>,
    /// `(hits, misses)` of the replay's topology cache.
    pub cache_stats: (u64, u64),
    /// Wall of the traced pass and of the untraced pass it replays.
    pub wall_ms: f64,
    pub untraced_wall_ms: f64,
    pub json_bytes: usize,
    pub serve: Option<ServeObs>,
}

/// Repeats `pass` for `cfg.seconds` (at least once), gates every replayed
/// run, reduces the per-layer metrics to their medians over passes and
/// writes every span to `.bench_work/spans-<workload>-<seed>.jsonl`.
pub fn run_traced(
    cfg: &Cfg,
    workload: &str,
    allow_abort: bool,
    mut pass: impl FnMut(&Tracer) -> Result<TracedPass, String>,
) -> Result<Outcome, String> {
    let (passes, _) = repeat(cfg.seconds, 1, || {
        let tracer = Tracer::new();
        let out = pass(&tracer)?;
        Ok((out, tracer.spans()))
    })?;
    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut per_pass = Vec::new();
    for (out, spans) in &passes {
        let records: Vec<RunRecord> = out.replayed.iter().map(|r| r.record.clone()).collect();
        outcome
            .problems
            .extend(records.iter().filter_map(|r| check(r, allow_abort).err()));
        if let Err(e) = same_runs("traced replay vs untraced run", &out.reference, &records) {
            outcome.problems.push(e);
        }
        let totals = Totals::of(&records);
        outcome.attempted += totals.runs;
        outcome.failed += totals.failures;
        per_pass.push(layer_metrics(out, spans));
    }
    outcome.metrics = median_by_name(per_pass);
    let spans: Vec<Vec<Span>> = passes.into_iter().map(|(_, s)| s).collect();
    let path = cfg
        .work
        .join(format!("spans-{workload}-{}.jsonl", cfg.seed));
    write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(outcome)
}

fn zero_if_nan(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass.
pub fn layer_metrics(p: &TracedPass, spans: &[Span]) -> Vec<Metric> {
    let records: Vec<_> = p.replayed.iter().map(|r| &r.record).collect();
    let totals = Totals::of(records.iter().copied());
    let runs = p.replayed.len().max(1) as f64;
    let run_ms = total_ms(spans, "run");
    let exec_ms = totals.exec_ms;
    let graph_ms = total_ms(spans, "graph");
    let graph_bytes: usize = p
        .replayed
        .iter()
        .map(|r| ((r.record.graph.clone(), r.record.seed), r.graph_bytes))
        .collect::<BTreeMap<_, _>>()
        .values()
        .sum();
    let bounds_ms = total_ms(spans, "bounds");
    let core_self_ms: f64 = p
        .replayed
        .iter()
        .map(|r| r.core_ms - r.record.exec_wall_ms)
        .sum();
    let serve = p.serve.clone().unwrap_or_default();
    let lookups = (serve.cache_hits + serve.cache_misses) as f64;
    vec![
        Metric::new("spec.expand_ms", "ms", total_ms(spans, "spec")),
        Metric::new("spec.runs", "count", p.replayed.len() as f64),
        Metric::new("graph.build_ms", "ms", graph_ms),
        Metric::new("graph.builds", "count", p.cache_stats.1 as f64),
        Metric::new("graph.cache_hits", "count", p.cache_stats.0 as f64),
        Metric::new("graph.bytes", "bytes", graph_bytes as f64),
        Metric::new(
            "graph.ingest_mb_per_s",
            "MB/s",
            zero_if_nan(graph_bytes as f64 / 1e6 / (graph_ms / 1e3)),
        ),
        Metric::new("spanning.construct_ms", "ms", total_ms(spans, "spanning")),
        Metric::new(
            "spanning.messages",
            "count",
            totals.construction_messages as f64,
        ),
        Metric::new(
            "spanning.initial_degree_mean",
            "degree",
            totals.initial_degree_sum as f64 / runs,
        ),
        Metric::new("netsim.exec_ms", "ms", exec_ms),
        Metric::new(
            "netsim.ns_per_msg",
            "ns",
            zero_if_nan(exec_ms * 1e6 / totals.messages as f64),
        ),
        Metric::new("netsim.messages", "count", totals.messages as f64),
        Metric::new("netsim.rounds", "count", totals.rounds as f64),
        Metric::new("netsim.improvements", "count", totals.improvements as f64),
        Metric::new(
            "netsim.useful_round_ratio",
            "ratio",
            zero_if_nan(totals.improvements as f64 / totals.rounds as f64),
        )
        .note(ratio_with_base(
            totals.improvements as f64,
            totals.rounds as f64,
        )),
        Metric::new("netsim.share", "ratio", zero_if_nan(exec_ms / run_ms))
            .note(ratio_with_base(exec_ms, run_ms)),
        Metric::new("core.session_self_ms", "ms", core_self_ms),
        Metric::new("bounds.ms", "ms", bounds_ms),
        Metric::new("bounds.calls", "count", count(spans, "bounds") as f64),
        Metric::new("bounds.share", "ratio", zero_if_nan(bounds_ms / run_ms))
            .note(ratio_with_base(bounds_ms, run_ms)),
        Metric::new("analysis.audit_ms", "ms", total_ms(spans, "analysis")),
        Metric::new(
            "analysis.trace_events",
            "count",
            p.replayed.iter().map(|r| r.trace_events as f64).sum(),
        ),
        Metric::new(
            "analysis.findings",
            "count",
            records.iter().map(|r| r.audit_findings as f64).sum(),
        ),
        Metric::new(
            "report.aggregate_ms",
            "ms",
            total_ms(spans, "report.aggregate"),
        ),
        Metric::new("report.json_ms", "ms", total_ms(spans, "report.json")),
        Metric::new("report.json_bytes", "bytes", p.json_bytes as f64),
        Metric::new("report.csv_ms", "ms", total_ms(spans, "report.csv")),
        Metric::new(
            "serve.submit_rtt_ms",
            "ms",
            zero_if_nan(median(&serve.submit_rtt_ms)),
        ),
        Metric::new(
            "serve.queue_wait_ms",
            "ms",
            zero_if_nan(median(&serve.queue_wait_ms)),
        ),
        Metric::new("serve.events", "count", serve.events as f64),
        Metric::new(
            "serve.predict_error",
            "ratio",
            zero_if_nan(median(&serve.predict_error)),
        )
        .note(format!(
            "median of {} predicted runs",
            serve.predict_error.len()
        )),
        Metric::new("serve.aborted", "count", serve.aborted as f64),
        Metric::new("serve.overdue", "count", serve.overdue as f64),
        Metric::new(
            "serve.cache_hit_rate",
            "ratio",
            zero_if_nan(serve.cache_hits as f64 / lookups),
        )
        .note(ratio_with_base(serve.cache_hits as f64, lookups)),
        Metric::new("untraced_ms", "ms", self_ms(spans, "run"))
            .note(format!("of {run_ms:.1} ms in run spans")),
        Metric::new("trace_overhead_ms", "ms", p.wall_ms - p.untraced_wall_ms).note(format!(
            "traced {:.1} ms - untraced {:.1} ms",
            p.wall_ms, p.untraced_wall_ms
        )),
    ]
}
