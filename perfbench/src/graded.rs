//! `random-graded`: one `run_campaign` over sparse random graphs ingested
//! from gzipped edge lists, BFS seed, simulator, campaign parallelism 2.
//! Grading (`core::bounds`) dominates each run here.

use crate::layers::{run_traced, TracedPass};
use crate::metrics::{cpu_seconds, repeat, time_setups, EndToEnd, Outcome};
use crate::runs::{check, replay_all, same_runs, Totals};
use crate::span::Tracer;
use crate::{mix, Cfg};
use mdst_graph::generators;
use mdst_scenario::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Node counts of the campaign's twelve graphs, each with `m ≈ 2n` edges,
/// largest first so the longest runs start first. Twelve graphs keep the
/// exact counts of one seed close to those of another; two sizes keep each
/// percentile inside one size class. The [`SMALL_N`] graphs are the
/// workload's small jobs.
const SIZES: [usize; 12] = [900, 900, 900, 900, 900, 900, 900, 900, 450, 450, 450, 450];
const SMALL_N: usize = 450;
const SETUPS: usize = 2001;
const THREADS: usize = 2;

/// Writes the seed's graphs as gzipped edge lists and returns the spec.
fn inputs(cfg: &Cfg) -> Result<String, String> {
    let mut files = Vec::new();
    for (i, &n) in SIZES.iter().enumerate() {
        let graph = generators::random_connected(n, n, mix(cfg.seed, i as u64))
            .map_err(|e| e.to_string())?;
        let path = cfg.work.join(format!("graded-{}-{i}.el.gz", cfg.seed));
        save_graph(&path, &graph, None).map_err(|e| e.to_string())?;
        files.push(format!("\"{}\"", path.display()));
    }
    Ok(format!(
        "[campaign]\nname = \"random-graded\"\nparallelism = {THREADS}\n\n\
         [[scenario]]\nname = \"random\"\ngraph_files = [{}]\n\
         initial = \"bfs\"\nexecutor = \"sim\"\n",
        files.join(", ")
    ))
}

fn parse(spec: &str) -> Result<(ScenarioMatrix, Vec<RunSpec>), String> {
    let matrix = ScenarioMatrix::from_toml_str(spec).map_err(|e| e.to_string())?;
    let runs = matrix.expand().map_err(|e| e.to_string())?;
    Ok((matrix, runs))
}

/// One campaign through the public entry point, reports included.
fn pass(matrix: &ScenarioMatrix) -> Result<(CampaignReport, f64, f64), String> {
    let (started, cpu) = (Instant::now(), cpu_seconds());
    let report = run_campaign(matrix, &RunnerConfig::default()).map_err(|e| e.to_string())?;
    black_box((
        campaign_to_json(&report).len(),
        campaign_to_csv(&report).len(),
    ));
    Ok((report, started.elapsed().as_secs_f64(), cpu_seconds() - cpu))
}

/// The same campaign, layer by layer.
fn traced_pass(
    spec: &str,
    tracer: &Tracer,
    reference: &CampaignReport,
    untraced_s: f64,
) -> Result<TracedPass, String> {
    let started = Instant::now();
    let (parsed, _) = tracer.time("spec", None, 0, || parse(spec));
    let (matrix, runs) = parsed?;
    let cache = TopologyCache::new();
    let replayed = replay_all(&runs, &cache, tracer, THREADS, true, 0)?;
    let records: Vec<RunRecord> = replayed.iter().map(|r| r.record.clone()).collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (report, _) = tracer.time("report.aggregate", None, 0, || {
        aggregate_records(
            &matrix.name,
            &matrix.scenario_order(),
            records,
            THREADS,
            None,
            wall_ms,
        )
    });
    let (json, _) = tracer.time("report.json", None, 0, || campaign_to_json(&report));
    let (csv, _) = tracer.time("report.csv", None, 0, || campaign_to_csv(&report));
    black_box(csv.len());
    Ok(TracedPass {
        replayed,
        reference: reference.runs.clone(),
        cache_stats: cache.stats(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        untraced_wall_ms: untraced_s * 1e3,
        json_bytes: json.len(),
        serve: None,
    })
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let spec = inputs(cfg)?;
    let setup_s = time_setups(SETUPS, || parse(&spec).map(|p| drop(black_box(p))))?;
    let (matrix, _) = parse(&spec)?;
    if cfg.trace {
        let (reference, untraced_s, _) = pass(&matrix)?;
        return run_traced(cfg, "random-graded", false, |tracer| {
            traced_pass(&spec, tracer, &reference, untraced_s)
        });
    }
    let (passes, peak_rss_mb) = repeat(cfg.seconds, 2, || pass(&matrix))?;
    let mut e2e = EndToEnd {
        setup_s,
        peak_rss_mb,
        ..EndToEnd::default()
    };
    let mut problems = Vec::new();
    for (report, wall, cpu) in &passes {
        problems.extend(report.runs.iter().filter_map(|r| check(r, false).err()));
        if let Err(e) = same_runs("repeated campaign", &passes[0].0.runs, &report.runs) {
            problems.push(e);
        }
        e2e.pass_wall_s.push(*wall);
        e2e.pass_cpu_s.push(*cpu);
        e2e.pass_totals.push(Totals::of(&report.runs));
        e2e.run_wall_ms
            .extend(report.runs.iter().map(|r| r.wall_ms));
        e2e.small_latency_ms.extend(
            report
                .runs
                .iter()
                .filter(|r| r.n <= SMALL_N)
                .map(|r| r.wall_ms),
        );
    }
    Ok(e2e.into_outcome(problems))
}
