//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload random-graded --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three workloads (`random-graded`, `dense-session`, `serve-mix`), each
//! generated from `--seed`. `--trace 0` measures the end-to-end metrics
//! through the public entry points; `--trace 1` replays the same runs layer
//! by layer with a span around each call and reports the per-layer metrics.
//! Every run passes the correctness gate or the benchmark fails. The last
//! line of standard output is one JSON object; a table of every metric with
//! its unit goes to standard error. See `perfbench/README.md`.

mod dense;
mod graded;
mod layers;
mod metrics;
mod runs;
mod servemix;
mod span;
mod stats;

use metrics::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// Settings of one benchmark invocation.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated inputs, sockets and spans.
    pub work: PathBuf,
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Result<(String, Cfg), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok((
        workload,
        Cfg {
            seed,
            seconds,
            trace,
            work,
        },
    ))
}

fn run(workload: &str, cfg: &Cfg) -> Result<Outcome, String> {
    match workload {
        "random-graded" => graded::run(cfg),
        "dense-session" => dense::run(cfg),
        "serve-mix" => servemix::run(cfg),
        other => Err(format!(
            "unknown workload {other} (random-graded | dense-session | serve-mix)"
        )),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|(workload, cfg)| {
        eprintln!(
            "perfbench: {workload} seed {} for {} s, trace {}",
            cfg.seed, cfg.seconds, cfg.trace as u8
        );
        run(&workload, &cfg)
    });
    match outcome {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
