//! # mdst-scenario
//!
//! Declarative scenario harness for the Blin–Butelle MDST reproduction: it
//! turns the one-shot `mdst_core::Pipeline` session into a campaign engine.
//! Experiments are described in TOML (or JSON), expanded into a cartesian
//! product of runs, executed across threads, checked against the paper's
//! `O(Δ* + log n)` degree bound, and persisted as JSON/CSV.
//!
//! ## Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`spec`] | `ScenarioMatrix` / `ScenarioSpec` / `RunSpec`: the declarative spec language and its cartesian expansion |
//! | [`io`] | edge-list, DIMACS, METIS and MatrixMarket readers/writers with transparent gzip — external graph files (and whole benchmark suites) as first-class pipeline inputs |
//! | [`toml`] | self-contained TOML subset parser feeding [`spec`] (the registry `toml` crate is unavailable offline) |
//! | [`runner`] | the campaign runner: the one run entry (`execute_run_controlled`), campaign-wide [`runner::TopologyCache`] (one shared `Arc<Graph>` per distinct source), per-run records, per-scenario and campaign aggregates; `run_campaign` drives scoped workers through a private [`scheduler::Scheduler`] session |
//! | [`scheduler`] | the one campaign executor: cheapest-claim-first within a campaign, deficit fairness across campaigns, cancellation and drain-on-shutdown — `scenario run` and `scenario serve` share it |
//! | [`report`] | JSON / CSV sinks and the human-readable summary |
//! | [`diff`] | report-vs-report comparison behind `scenario diff` (regression gate for CI): outcome/bound/degree/error regressions, opt-in wall-time thresholds, text or markdown rendering |
//!
//! The `scenario` binary wires these together:
//!
//! ```text
//! scenario run examples/sweep.toml --out campaign.json --csv campaign.csv
//! scenario run examples/executors.toml --jobs 4 --shuffle 42
//! scenario run examples/suite.toml        # on-disk benchmark files (graph_files axis)
//! scenario expand examples/sweep.toml     # print the resolved run list
//! scenario validate examples/sweep.toml   # check the spec without running it
//! scenario audit trace.json               # happens-before audit of a recorded trace
//! scenario diff base.json cand.json       # regression gate between two reports
//! scenario diff base.json cand.json --wall-ms-tolerance 25 --markdown
//! ```
//!
//! `--jobs N` (alias `--threads`) caps runner parallelism; without it the
//! spec's `campaign.parallelism` key, then one thread per CPU, applies.
//! `--shuffle [SEED]` claims runs in a seeded random order so long runs
//! start early (each run's rank in the permutation is its claim cost in the
//! shared scheduler); the seed lands in the report and the records stay in
//! expansion order. `--progress` attaches a streaming `mdst_core::Observer`
//! to every run and prints one line per finished run without touching the
//! records.
//!
//! ## Spec format
//!
//! ```text
//! [campaign]
//! name = "sweep"
//!
//! [[scenario]]
//! name = "gnp"
//! graph = { family = "gnp_connected", n = [16, 32], p = [0.1, 0.2] }
//! initial = ["greedy_hub", "bfs"]          # axis: initial-tree construction
//! delay = [ "unit", { model = "uniform", min = 1, max = 5 } ]
//! start = { model = "staggered", max_offset = 10 }
//! seeds = [1, 2, 3]                        # axis: replication / graph seeds
//!
//! [[scenario]]
//! name = "external"
//! graph = { path = "data/network.col" }    # edge-list / DIMACS / METIS / MatrixMarket
//!
//! [[scenario]]
//! name = "suite"                           # a whole on-disk suite as an axis
//! graph_files = ["data/sample.mtx.gz", "data/sample.graph", "data/sample.el.gz"]
//! ```
//!
//! Every list-valued field is an axis; the run list is the cartesian product
//! of all axes (graph parameters included). File formats are inferred from
//! the extension under an optional `.gz` (gzip is decompressed
//! transparently) or forced with `graph_format`. The campaign runner builds
//! every distinct topology exactly once and shares it as an `Arc<Graph>`
//! across all runs that sweep it. Checked-in examples live at
//! `examples/sweep.toml`, `examples/faults.toml`, `examples/executors.toml`
//! and `examples/suite.toml` in the repository root.
//!
//! ## Executor axis
//!
//! The optional `executor` axis picks the `mdst_netsim` backend per run:
//!
//! ```text
//! executor = ["sim", "pool"]   # default: "sim"
//! workers = 8                  # pool worker cap (0 / omitted = auto)
//! ```
//!
//! * `sim` — the deterministic discrete-event simulator (full delay/fault
//!   support, trace recording);
//! * `pool` — a fixed work-stealing pool of OS threads multiplexing
//!   thousands of nodes (real nondeterministic scheduling, and the scale
//!   backend).
//!
//! The pool schedules on real threads, so it only combines with
//! unit delays, simultaneous starts and fault-free plans; the parser rejects
//! any other combination at load time. The backend label and its measured
//! `exec_wall_ms` appear in every run record, so cross-backend campaigns
//! double as agreement checks: the improvement protocol is
//! message-deterministic and every backend must land inside the paper's
//! degree bound on the same seed/topology.
//!
//! ## Audit axis
//!
//! The optional boolean `audit` axis records a message trace on *every*
//! backend (the simulator stamps simulated time; the pool stamps an atomic
//! global order) and replays it through the
//! `mdst-analysis` happens-before auditor when the run finishes:
//!
//! ```text
//! audit = true             # or [false, true] to sweep both
//! ```
//!
//! The run record gains `audit_findings` (violation count) and `audit_rules`
//! (the distinct rule labels that fired); per-scenario stats count `audited`
//! runs and `audit_violations`, and `scenario run` exits non-zero when any
//! audited run trips the auditor — races and ordering violations gate CI the
//! same way degree-bound violations do.
//!
//! ## Fault model
//!
//! The optional `faults` axis injects failures into the improvement phase of
//! each run (the initial-tree construction stays fault-free, so campaigns
//! isolate the robustness of the improvement protocol). Each entry is either
//! the string `"none"` or a table:
//!
//! ```text
//! faults = [
//!     "none",                                  # explicit fault-free control
//!     { loss = 0.05 },                         # drop 5% of all sends
//!     { crashes = [[3, 40], [7, 90]] },        # crash-stop node 3 at t=40, node 7 at t=90
//!     { cuts = [[0, 1, 25]] },                 # sever link {0, 1} at t=25
//! ]
//! ```
//!
//! Loss coins are drawn from a per-run seeded stream, so drop and crash
//! counts reproduce exactly for a given seed. A benign entry (`"none"` or
//! `loss = 0.0` with no crashes/cuts) produces run records *bit-identical*
//! to the same spec without a `faults` key.
//!
//! ## Outcome taxonomy
//!
//! Every run is classified by [`runner::RunOutcome`] — the driver's unified
//! `mdst_core::Outcome` (`Optimal` / `PartialTree` / `EventLimitAborted`)
//! plus the runner-level `Failed` state, under the report labels that
//! predate the unified enum:
//!
//! * **`quiesced-correct`** — the network quiesced, every live node
//!   terminated, and the final tree spans the *survivor component* (the
//!   largest connected component of the graph induced on non-crashed nodes;
//!   the whole graph when nothing crashed);
//! * **`quiesced-partial`** — the network quiesced but the snapshot is stale
//!   or partial: some live node never received `Stop`, or the surviving tree
//!   edges do not span the survivor component;
//! * **`event-limit-abort`** — the simulator's event cap was hit first;
//! * **`failed`** — the run could not start (graph build / spec / config
//!   error).
//!
//! Degree bounds in the per-run records are computed on the survivor
//! component, and `within_bound` is only judged for `quiesced-correct` runs —
//! a snapshot interrupted mid-improvement may exceed the paper's bound
//! without contradicting the theorem. Fault-free runs that end in anything
//! but `quiesced-correct` are additionally recorded as failures, preserving
//! the guarantee that campaigns fail loudly when the protocol misbehaves on
//! a reliable network.
//!
//! ## Library use
//!
//! ```
//! use mdst_scenario::prelude::*;
//!
//! let spec = r#"
//!     [[scenario]]
//!     name = "demo"
//!     graph = { family = "star_with_leaf_edges", n = [8, 10] }
//!     seeds = [1, 2]
//! "#;
//! let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
//! let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
//! assert_eq!(report.total.runs, 4);
//! assert_eq!(report.total.bound_violations, 0);
//! println!("{}", campaign_to_json(&report));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod io;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod spec;
pub mod toml;

pub use diff::{diff_reports, diff_reports_with, DiffFinding, DiffOptions, ReportDiff};
pub use io::{load_graph, save_graph, GraphFormat, IoError};
pub use report::{campaign_to_csv, campaign_to_json};
pub use runner::{
    aggregate_records, execute_run_controlled, run_campaign, CampaignReport, PredictedMs,
    RunControls, RunOutcome, RunRecord, RunnerConfig, TopologyCache,
};
pub use scheduler::{CampaignStatus, Claim, Completion, Scheduler};
pub use spec::{FaultSpec, RunSpec, ScenarioMatrix, ScenarioSpec, SpecError};

/// Everything a campaign driver typically needs in scope.
pub mod prelude {
    pub use crate::diff::{diff_reports, diff_reports_with, DiffFinding, DiffOptions, ReportDiff};
    pub use crate::io::{load_graph, parse_graph, render_graph, save_graph, GraphFormat, IoError};
    pub use crate::report::{campaign_to_csv, campaign_to_json, summarize, write_csv, write_json};
    pub use crate::runner::{
        aggregate_records, execute_run_controlled, run_campaign, CampaignReport, PredictedMs,
        RunControls, RunOutcome, RunRecord, RunnerConfig, ScenarioStats, TopologyCache,
    };
    pub use crate::spec::{
        parse_initial_kind, FaultSpec, GraphSpec, ResolvedGraph, RunSpec, ScenarioMatrix,
        ScenarioSpec, SpecError,
    };
}
