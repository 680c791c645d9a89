//! `serve-mix`: an in-process `serve` with two workers and sim-only runs.
//! A long background campaign of graded random graphs goes in first; then
//! one client, in a closed loop, submits small audited campaigns with
//! message loss and a crash and watches each to `CampaignFinished`. One
//! client connection is open at a time.

use crate::layers::{run_traced, ServeObs, TracedPass};
use crate::metrics::{cpu_seconds, repeat, EndToEnd, Outcome};
use crate::runs::{check, replay_all, same_runs, Totals};
use crate::span::Tracer;
use crate::{mix, Cfg};
use mdst_scenario::prelude::*;
use mdst_serve::{client, serve, Event, ServeConfig, SpecFormat};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const LONG_RUNS: u64 = 24;
const LONG_N: usize = 500;
/// Small campaigns per pass, cycling through [`SMALL_VARIANTS`] specs so
/// later campaigns hit the server's topology cache.
const SMALL_CAMPAIGNS: usize = 24;
const SMALL_VARIANTS: u64 = 8;
const SETUPS: usize = 15;
/// The service's default early-abort budget: a run is cancelled once its
/// elapsed time exceeds `max(predicted × 8, 250 ms)`.
const ABORT_MULTIPLIER: f64 = 8.0;
const ABORT_FLOOR_MS: f64 = 250.0;
/// The floor the benchmark runs the service with. Under the default budget
/// the watchdog aborts some long runs and not others, depending on which
/// runs last fed the cost model, and that makes every metric of the pass
/// noisy. With this floor it never fires; the runs that overran the default
/// budget are counted as `serve.overdue` instead.
const BENCH_ABORT_FLOOR_MS: f64 = 60_000.0;

/// Equal-size graded runs: with both workers on long runs, each small
/// campaign waits for the next long run to finish.
fn long_spec(seed: u64) -> String {
    let seeds: Vec<String> = (0..LONG_RUNS)
        .map(|i| (mix(seed, 100 + i) % 1_000_000_007).to_string())
        .collect();
    format!(
        "[campaign]\nname = \"background\"\n\n\
         [[scenario]]\nname = \"long\"\n\
         graph = {{ family = \"random_connected\", n = {LONG_N}, extra = {LONG_N} }}\n\
         initial = \"bfs\"\nseeds = [{}]\n",
        seeds.join(", ")
    )
}

fn small_spec(seed: u64, variant: u64) -> String {
    format!(
        "[campaign]\nname = \"small-{variant}\"\n\n\
         [[scenario]]\nname = \"tenant\"\n\
         graph = {{ family = \"gnp_connected\", n = [32, 64], p = 0.15 }}\n\
         initial = \"flooding\"\n\
         faults = [\"none\", {{ loss = 0.05 }}, {{ crashes = [[1, 30]] }}]\n\
         audit = true\nseeds = [{}]\n",
        mix(seed, 200 + variant) % 1_000_000_007
    )
}

/// The campaigns of one pass in submission order: the long one, then the
/// small ones.
fn campaign_specs(seed: u64) -> Vec<String> {
    let mut specs = vec![long_spec(seed)];
    specs.extend((0..SMALL_CAMPAIGNS as u64).map(|k| small_spec(seed, k % SMALL_VARIANTS)));
    specs
}

fn expand(spec: &str) -> Result<(ScenarioMatrix, Vec<RunSpec>), String> {
    let matrix = ScenarioMatrix::from_toml_str(spec).map_err(|e| e.to_string())?;
    let runs = matrix.expand().map_err(|e| e.to_string())?;
    Ok((matrix, runs))
}

fn socket_path(cfg: &Cfg) -> PathBuf {
    cfg.work.join(format!("serve-{}.sock", std::process::id()))
}

fn serve_config(socket: &Path) -> ServeConfig {
    ServeConfig {
        socket: socket.to_path_buf(),
        workers: WORKERS,
        abort_multiplier: ABORT_MULTIPLIER,
        abort_floor_ms: BENCH_ABORT_FLOOR_MS,
        quiet: true,
        ..ServeConfig::default()
    }
}

/// Polls until the server accepts connections.
fn wait_for_server(socket: &Path) -> Result<(), String> {
    let started = Instant::now();
    while std::os::unix::net::UnixStream::connect(socket).is_err() {
        if started.elapsed() > Duration::from_secs(30) {
            return Err(format!("server at {} never came up", socket.display()));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

/// Runs `session` against a fresh in-process server and shuts the server
/// down afterwards, whatever the session returned.
fn with_server<T>(socket: &Path, session: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let config = serve_config(socket);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&config));
        let result = wait_for_server(socket).and_then(|()| session());
        let stopped = client::shutdown(socket);
        let served = server
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        served?;
        let out = result?;
        stopped?;
        Ok(out)
    })
}

/// Set-up: parse and expand every spec of a pass, then bind a server and
/// wait until it accepts a connection. Shutting it down is not timed.
fn setup_samples(cfg: &Cfg, specs: &[String]) -> Result<Vec<f64>, String> {
    let socket = socket_path(cfg);
    (0..SETUPS)
        .map(|_| {
            let started = Instant::now();
            for spec in specs {
                std::hint::black_box(expand(spec)?);
            }
            with_server(&socket, || Ok(started.elapsed().as_secs_f64()))
        })
        .collect()
}

/// A `watch` sink that timestamps every event as the client reads it.
struct EventSink {
    line: Vec<u8>,
    first_started: Option<Instant>,
    obs: ServeObs,
}

impl EventSink {
    fn new() -> Self {
        EventSink {
            line: Vec::new(),
            first_started: None,
            obs: ServeObs::default(),
        }
    }

    fn event(&mut self, event: Event) {
        self.obs.events += 1;
        match event {
            Event::RunStarted { .. } => {
                self.first_started.get_or_insert_with(Instant::now);
            }
            Event::RunFinished {
                outcome,
                exec_wall_ms,
                predicted_ms,
                ..
            } => {
                if predicted_ms > 0.0 && exec_wall_ms > 0.0 {
                    let error = (predicted_ms - exec_wall_ms).abs() / exec_wall_ms;
                    self.obs.predict_error.push(error);
                }
                self.obs.aborted += u64::from(outcome == "aborted");
            }
            Event::Observer { .. } | Event::CampaignFinished { .. } => {}
        }
    }
}

impl Write for EventSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b != b'\n' {
                self.line.push(b);
                continue;
            }
            let text = String::from_utf8_lossy(&self.line).into_owned();
            self.line.clear();
            let parsed = serde::from_json_str(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| {
                    use serde::Deserialize;
                    Event::from_value(&v).map_err(|e| e.to_string())
                })
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            self.event(parsed);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one pass served.
struct ServePass {
    wall_s: f64,
    cpu_s: f64,
    /// Records per campaign, in submission order.
    campaigns: Vec<Vec<RunRecord>>,
    small_latency_ms: Vec<f64>,
    obs: ServeObs,
}

impl ServePass {
    fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.campaigns.iter().flatten()
    }
}

fn merge(into: &mut ServeObs, from: ServeObs) {
    into.events += from.events;
    into.aborted += from.aborted;
    into.predict_error.extend(from.predict_error);
}

/// Times a client call, recording a span when tracing.
fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    run: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(tracer) => tracer.time(name, None, run, f),
        None => {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed().as_secs_f64() * 1e3)
        }
    }
}

fn serve_pass(cfg: &Cfg, specs: &[String], tracer: Option<&Tracer>) -> Result<ServePass, String> {
    let socket = socket_path(cfg);
    with_server(&socket, || {
        let (started, cpu) = (Instant::now(), cpu_seconds());
        let mut obs = ServeObs::default();
        let submit = |obs: &mut ServeObs, k: usize| {
            let (sent, rtt) = timed(tracer, "serve.submit", k as u64, || {
                client::submit(&socket, specs[k].clone(), SpecFormat::Toml)
            });
            obs.submit_rtt_ms.push(rtt);
            sent.map(|(id, _)| id)
        };
        let long_id = submit(&mut obs, 0)?;
        let mut campaigns = vec![Vec::new()];
        let mut small_latency_ms = Vec::new();
        for k in 1..specs.len() {
            let submitted = Instant::now();
            let id = submit(&mut obs, k)?;
            let mut sink = EventSink::new();
            let (report, _) = timed(tracer, "serve.watch", k as u64, || {
                client::watch(&socket, id, 0, &mut sink)
            });
            let report = report?;
            let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
            let (status, _) = timed(tracer, "serve.status", k as u64, || client::status(&socket));
            // A sample counts while the long campaign can still hold both
            // workers: at least `WORKERS` of its runs unfinished.
            let contended = status?
                .campaigns
                .iter()
                .any(|c| c.id == long_id && c.total_runs >= c.finished_runs + WORKERS as u64);
            if contended {
                small_latency_ms.push(latency_ms);
            }
            if let Some(first) = sink.first_started {
                obs.queue_wait_ms
                    .push(first.duration_since(submitted).as_secs_f64() * 1e3);
            }
            merge(&mut obs, sink.obs);
            campaigns.push(report.runs);
        }
        let mut sink = EventSink::new();
        let (report, _) = timed(tracer, "serve.watch", 0, || {
            client::watch(&socket, long_id, 0, &mut sink)
        });
        campaigns[0] = report?.runs;
        merge(&mut obs, sink.obs);
        let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), cpu_seconds() - cpu);
        let status = client::status(&socket)?;
        obs.overdue = campaigns
            .iter()
            .flatten()
            .filter(|r| {
                let budget = (r.predicted_wall_ms.0 * ABORT_MULTIPLIER).max(ABORT_FLOOR_MS);
                r.predicted_wall_ms.is_set() && r.wall_ms > budget
            })
            .count() as u64;
        obs.cache_hits = status.cache_hits;
        obs.cache_misses = status.cache_misses;
        Ok(ServePass {
            wall_s,
            cpu_s,
            campaigns,
            small_latency_ms,
            obs,
        })
    })
}

/// A served pass with client spans, then every campaign replayed layer by
/// layer against one shared topology cache, as the server shares one.
fn traced_pass(
    cfg: &Cfg,
    specs: &[String],
    tracer: &Tracer,
    untraced_s: f64,
) -> Result<TracedPass, String> {
    let served = serve_pass(cfg, specs, Some(tracer))?;
    let cache = TopologyCache::new();
    let mut replayed = Vec::new();
    let mut json_bytes = 0;
    for (k, spec) in specs.iter().enumerate() {
        let run_base = 1000 * k as u64;
        let (parsed, _) = tracer.time("spec", None, run_base, || expand(spec));
        let (matrix, runs) = parsed?;
        let campaign = replay_all(&runs, &cache, tracer, WORKERS, true, run_base)?;
        let records: Vec<RunRecord> = campaign.iter().map(|r| r.record.clone()).collect();
        let (report, _) = tracer.time("report.aggregate", None, run_base, || {
            aggregate_records(
                &matrix.name,
                &matrix.scenario_order(),
                records,
                0,
                None,
                0.0,
            )
        });
        let (json, _) = tracer.time("report.json", None, run_base, || campaign_to_json(&report));
        json_bytes += json.len();
        replayed.extend(campaign);
    }
    Ok(TracedPass {
        replayed,
        reference: served.records().cloned().collect(),
        cache_stats: cache.stats(),
        wall_ms: served.wall_s * 1e3,
        untraced_wall_ms: untraced_s * 1e3,
        json_bytes,
        serve: Some(served.obs),
    })
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let specs = campaign_specs(cfg.seed);
    let setup_s = setup_samples(cfg, &specs)?;
    if cfg.trace {
        let untraced = serve_pass(cfg, &specs, None)?;
        return run_traced(cfg, "serve-mix", true, |tracer| {
            traced_pass(cfg, &specs, tracer, untraced.wall_s)
        });
    }
    let (passes, peak_rss_mb) = repeat(cfg.seconds, 2, || serve_pass(cfg, &specs, None))?;
    let mut e2e = EndToEnd {
        setup_s,
        peak_rss_mb,
        ..EndToEnd::default()
    };
    let mut problems = Vec::new();
    for pass in &passes {
        problems.extend(pass.records().filter_map(|r| check(r, true).err()));
        for (k, (a, b)) in passes[0].campaigns.iter().zip(&pass.campaigns).enumerate() {
            if let Err(e) = same_runs(&format!("repeated campaign {k}"), a, b) {
                problems.push(e);
            }
        }
        e2e.pass_wall_s.push(pass.wall_s);
        e2e.pass_cpu_s.push(pass.cpu_s);
        e2e.pass_totals.push(Totals::of(pass.records()));
        e2e.run_wall_ms.extend(pass.records().map(|r| r.wall_ms));
        e2e.small_latency_ms.extend(&pass.small_latency_ms);
    }
    Ok(e2e.into_outcome(problems))
}
