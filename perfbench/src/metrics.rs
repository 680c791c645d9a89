//! Metric assembly and the result line.

use crate::runs::Totals;
use crate::stats::{median, percentile, quartiles, ratio_with_base, tail_percentile};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, base of a ratio, or other context for the table.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            value: value + 0.0,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The result of one invocation.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any makes the result incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the table to standard error and the JSON result as the last
    /// line of standard output.
    pub fn print(&self) {
        for p in &self.problems {
            eprintln!("perfbench: CORRECTNESS GATE: {p}");
        }
        eprintln!("{:<28} {:>16}  {:<6} note", "metric", "value", "unit");
        for m in &self.metrics {
            eprintln!("{:<28} {:>16.6}  {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// Process user + system CPU seconds so far (all threads, live or joined).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measurements behind the end-to-end metrics of one invocation.
#[derive(Default)]
pub struct EndToEnd {
    /// One sample per set-up (spec parse and expand, plus server bind).
    pub setup_s: Vec<f64>,
    /// Per pass: wall and CPU seconds from submission to graded report.
    pub pass_wall_s: Vec<f64>,
    pub pass_cpu_s: Vec<f64>,
    /// Per pass: sums over its runs.
    pub pass_totals: Vec<Totals>,
    /// Wall of every run of every pass.
    pub run_wall_ms: Vec<f64>,
    /// Latency of every small job of every pass.
    pub small_latency_ms: Vec<f64>,
    /// Peak resident set through set-up and the first pass.
    pub peak_rss_mb: f64,
}

fn samples_note(xs: &[f64]) -> String {
    let tail = tail_percentile(xs.len()).map_or("none".to_string(), |p| format!("p{p}"));
    let (q1, _, q3) = quartiles(xs);
    format!(
        "{} samples, quartiles {q1:.1}..{q3:.1}, highest tail with 10 beyond: {tail}",
        xs.len()
    )
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let per_pass = |f: &dyn Fn(&Totals) -> f64| {
            median(&self.pass_totals.iter().map(f).collect::<Vec<_>>())
        };
        let passes = format!("median of {} passes", self.pass_wall_s.len());
        let runs_per_s: Vec<f64> = self
            .pass_totals
            .iter()
            .zip(&self.pass_wall_s)
            .map(|(t, w)| t.runs as f64 / w)
            .collect();
        let messages: u64 = self.pass_totals.iter().map(|t| t.messages).sum();
        let exec_s: f64 = self.pass_totals.iter().map(|t| t.exec_ms).sum::<f64>() / 1e3;
        let first = self.pass_totals.first().cloned().unwrap_or_default();
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s))
                .note(format!("median of {} set-ups", self.setup_s.len())),
            Metric::new("campaign_wall_s", "s", median(&self.pass_wall_s)).note(passes.clone()),
            Metric::new("campaign_cpu_s", "s", median(&self.pass_cpu_s)).note(passes.clone()),
            Metric::new("runs_per_s", "1/s", median(&runs_per_s)).note(passes.clone()),
            Metric::new("run_wall_ms_p50", "ms", percentile(&self.run_wall_ms, 50.0))
                .note(samples_note(&self.run_wall_ms)),
            Metric::new("run_wall_ms_p90", "ms", percentile(&self.run_wall_ms, 90.0))
                .note(samples_note(&self.run_wall_ms)),
            Metric::new("msgs_per_s", "1/s", messages as f64 / exec_s)
                .note(format!("{messages} messages / {exec_s:.3} s backend exec")),
            Metric::new("messages", "count", per_pass(&|t| t.messages as f64))
                .note(format!("per pass, {} runs", first.runs)),
            Metric::new(
                "msg_budget_ratio",
                "ratio",
                per_pass(&|t| t.messages as f64 / t.msg_budget as f64),
            )
            .note(ratio_with_base(
                first.messages as f64,
                first.msg_budget as f64,
            )),
            Metric::new(
                "round_budget_ratio",
                "ratio",
                per_pass(&|t| t.rounds as f64 / t.round_budget as f64),
            )
            .note(ratio_with_base(
                first.rounds as f64,
                first.round_budget as f64,
            )),
            Metric::new(
                "approx_ratio_mean",
                "ratio",
                per_pass(&|t| t.approx_sum / t.runs as f64),
            ),
            Metric::new("failure_rate", "ratio", per_pass(&|t| t.failure_rate())).note(format!(
                "(failures + 1) / (runs + 2); {} failures in {} runs",
                self.pass_totals.iter().map(|t| t.failures).sum::<u64>(),
                self.pass_totals.iter().map(|t| t.runs).sum::<u64>()
            )),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_mb)
                .note("through set-up and the first pass"),
            Metric::new(
                "small_latency_ms_p50",
                "ms",
                percentile(&self.small_latency_ms, 50.0),
            )
            .note(samples_note(&self.small_latency_ms)),
            Metric::new(
                "small_latency_ms_p90",
                "ms",
                percentile(&self.small_latency_ms, 90.0),
            )
            .note(samples_note(&self.small_latency_ms)),
        ]
    }

    pub fn into_outcome(self, problems: Vec<String>) -> Outcome {
        Outcome {
            metrics: self.metrics(),
            attempted: self.pass_totals.iter().map(|t| t.runs).sum(),
            failed: self.pass_totals.iter().map(|t| t.failures).sum(),
            problems,
        }
    }
}

/// Per-layer metrics of several traced passes, reduced to medians by name.
pub fn median_by_name(passes: Vec<Vec<Metric>>) -> Vec<Metric> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            Metric::new(m.name, m.unit, median(&values)).note(m.note.clone())
        })
        .collect()
}

/// Runs `pass` until `seconds` have elapsed and at least `min_passes` ran.
/// Also returns the peak resident set after the first pass: the allocator
/// keeps what later passes freed, so the peak after all passes would grow
/// with the number of passes that fit in the time.
pub fn repeat<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    let started = std::time::Instant::now();
    let mut out = Vec::new();
    let mut first_peak_mb = 0.0;
    while out.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        out.push(pass()?);
        if out.len() == 1 {
            first_peak_mb = peak_rss_mb();
        }
    }
    Ok((out, first_peak_mb))
}

/// Times `count` set-ups one by one, in seconds. Their median is the time of
/// an uninterrupted set-up; a mean over repetitions would also count every
/// interruption by other work on the machine.
pub fn time_setups(
    count: usize,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| {
            let started = std::time::Instant::now();
            setup()?;
            Ok(started.elapsed().as_secs_f64())
        })
        .collect()
}
