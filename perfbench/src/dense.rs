//! `dense-session`: sequential `Pipeline` sessions with a greedy-hub seed
//! on dense graphs, each run on the simulator and on the pool with two
//! workers. No campaign runner and no grading: execution dominates.

use crate::layers::{run_traced, TracedPass};
use crate::metrics::{cpu_seconds, repeat, time_setups, EndToEnd, Outcome};
use crate::runs::{check, replay_all, same_runs, to_record, ungraded_bounds, Totals};
use crate::span::Tracer;
use crate::{mix, Cfg};
use mdst_core::Pipeline;
use mdst_scenario::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const SETUPS: usize = 2001;

/// The session list: `complete(150)` and a seeded `gnp_connected(160, 0.6)`,
/// each on both backends. At this density the greedy-hub tree improves to a
/// Hamiltonian path (`k* = 2`), as on the complete graph.
fn spec(cfg: &Cfg) -> String {
    let seed = mix(cfg.seed, 0) % 1_000_000_007;
    let session = |name: &str, graph: &str| {
        format!(
            "[[scenario]]\nname = \"{name}\"\ngraph = {graph}\ninitial = \"greedy_hub\"\n\
             executor = [\"sim\", \"pool\"]\nworkers = 2\nseeds = [{seed}]\n\n"
        )
    };
    format!(
        "[campaign]\nname = \"dense-session\"\n\n{}{}",
        session("complete", "{ family = \"complete\", n = 150 }"),
        session("gnp", "{ family = \"gnp_connected\", n = 160, p = 0.6 }"),
    )
}

fn expand(spec: &str) -> Result<Vec<RunSpec>, String> {
    ScenarioMatrix::from_toml_str(spec)
        .and_then(|m| m.expand())
        .map_err(|e| e.to_string())
}

/// Every session once, through `Pipeline::run`.
fn pass(runs: &[RunSpec]) -> Result<(Vec<RunRecord>, f64, f64), String> {
    let (started, cpu) = (Instant::now(), cpu_seconds());
    let cache = TopologyCache::new();
    let mut records = Vec::new();
    for spec in runs {
        let run_started = Instant::now();
        let graph = cache.get(&spec.graph, spec.seed)?;
        let config = spec.pipeline_config().map_err(|e| e.to_string())?;
        let report = Pipeline::on(&graph)
            .config(config)
            .run()
            .map_err(|e| e.to_string())?;
        let construction = report
            .construction_metrics
            .as_ref()
            .map_or(0, |m| m.messages_total);
        let wall_ms = run_started.elapsed().as_secs_f64() * 1e3;
        records.push(to_record(
            spec,
            &report,
            ungraded_bounds(report.n),
            construction,
            None,
            wall_ms,
        ));
    }
    Ok((
        records,
        started.elapsed().as_secs_f64(),
        cpu_seconds() - cpu,
    ))
}

/// The simulator and the pool must send exactly the same messages.
fn backends_agree(records: &[RunRecord]) -> Result<(), String> {
    let mut by_graph: BTreeMap<(&str, u64), Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        by_graph.entry((&r.graph, r.seed)).or_default().push(r);
    }
    for ((graph, _), runs) in by_graph {
        if runs.windows(2).any(|w| w[0].messages != w[1].messages) {
            let counts: Vec<String> = runs
                .iter()
                .map(|r| format!("{} {}", r.executor, r.messages))
                .collect();
            return Err(format!(
                "{graph}: backends disagree on messages: {counts:?}"
            ));
        }
    }
    Ok(())
}

fn traced_pass(
    spec: &str,
    tracer: &Tracer,
    reference: &[RunRecord],
    untraced_s: f64,
) -> Result<TracedPass, String> {
    let started = Instant::now();
    let (runs, _) = tracer.time("spec", None, 0, || expand(spec));
    let cache = TopologyCache::new();
    let replayed = replay_all(&runs?, &cache, tracer, 1, false, 0)?;
    Ok(TracedPass {
        replayed,
        reference: reference.to_vec(),
        cache_stats: cache.stats(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        untraced_wall_ms: untraced_s * 1e3,
        ..TracedPass::default()
    })
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let spec = spec(cfg);
    let setup_s = time_setups(SETUPS, || expand(&spec).map(|r| drop(black_box(r))))?;
    let runs = expand(&spec)?;
    if cfg.trace {
        let (reference, untraced_s, _) = pass(&runs)?;
        return run_traced(cfg, "dense-session", false, |tracer| {
            traced_pass(&spec, tracer, &reference, untraced_s)
        });
    }
    let (passes, peak_rss_mb) = repeat(cfg.seconds, 2, || pass(&runs))?;
    // Small jobs: the simulator sessions on the sparser graph, one class of
    // run so their percentiles do not straddle two kinds of session.
    let smallest = passes[0].0.iter().map(|r| r.m).min().unwrap_or(0);
    let mut e2e = EndToEnd {
        setup_s,
        peak_rss_mb,
        ..EndToEnd::default()
    };
    let mut problems = Vec::new();
    for (records, wall, cpu) in &passes {
        problems.extend(records.iter().filter_map(|r| check(r, false).err()));
        problems.extend(backends_agree(records).err());
        if let Err(e) = same_runs("repeated session list", &passes[0].0, records) {
            problems.push(e);
        }
        e2e.pass_wall_s.push(*wall);
        e2e.pass_cpu_s.push(*cpu);
        e2e.pass_totals.push(Totals::of(records));
        e2e.run_wall_ms.extend(records.iter().map(|r| r.wall_ms));
        e2e.small_latency_ms.extend(
            records
                .iter()
                .filter(|r| r.m == smallest && r.executor == "sim")
                .map(|r| r.wall_ms),
        );
    }
    Ok(e2e.into_outcome(problems))
}
