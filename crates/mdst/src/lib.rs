//! # mdst — distributed Minimum Degree Spanning Tree
//!
//! Facade crate of the reproduction of Blin & Butelle, *"The First
//! Approximated Distributed Algorithm for the Minimum Degree Spanning Tree
//! Problem on General Graphs"* (IPPS 2003 / IJFCS 2004). It re-exports the
//! public API of the implementation crates and hosts the workspace-level
//! examples and integration tests.
//!
//! ## Quick start
//!
//! One builder, one report: a [`Pipeline`](mdst_core::Pipeline) session
//! builds an initial spanning tree, runs the distributed improvement
//! protocol on the chosen executor backend, and returns a single
//! [`RunReport`](mdst_core::RunReport) whose
//! [`Outcome`](mdst_core::Outcome) says how it ended.
//!
//! ```
//! use mdst::prelude::*;
//!
//! // A network: a star whose leaves also form a path (the paper's worst case
//! // for an initial spanning tree of degree n − 1). Topologies are shared
//! // behind an `Arc` so campaigns can reuse one CSR graph across runs.
//! let graph = Arc::new(generators::star_with_leaf_edges(10).unwrap());
//!
//! // Full pipeline: build an initial spanning tree with the greedy-hub
//! // construction, then run the distributed improvement protocol.
//! let report = Pipeline::on(&graph).run().unwrap();
//!
//! assert_eq!(report.outcome, Outcome::Optimal);
//! assert_eq!(report.initial_degree, 9);
//! assert!(report.final_degree <= 3);
//! assert!(report.tree().is_spanning_tree_of(&graph));
//! println!(
//!     "degree {} -> {} in {} rounds, {} messages",
//!     report.initial_degree,
//!     report.final_degree,
//!     report.rounds,
//!     report.improvement_metrics.messages_total
//! );
//! ```
//!
//! Every knob chains off the builder, and degraded endings (faults,
//! event-limit aborts) are outcomes rather than errors:
//!
//! ```
//! use mdst::prelude::*;
//!
//! let graph = Arc::new(generators::gnp_connected(32, 0.15, 7).unwrap());
//! let report = Pipeline::on(&graph)
//!     .initial(InitialTreeKind::Bfs)        // which construction seeds the run
//!     .root(NodeId(0))                      // construction initiator
//!     .executor(ExecutorKind::Pool)         // sim | pool
//!     .workers(4)                           // pool width (0 = auto)
//!     .run()
//!     .unwrap();
//! assert!(report.outcome.is_optimal());
//! ```
//!
//! Progress streams to any [`Observer`](mdst_core::Observer) registered on
//! the builder — construction-done, per-round, per-exchange, per-fault and
//! finish events — so campaigns, benches and dashboards follow a run without
//! parsing traces:
//!
//! ```
//! use mdst::prelude::*;
//!
//! let graph = Arc::new(generators::wheel(12).unwrap());
//! let mut counts = CountingObserver::default();
//! let report = Pipeline::on(&graph).observer(&mut counts).run().unwrap();
//! assert_eq!(counts.rounds as u32, report.rounds);
//! assert_eq!(counts.finishes, 1);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`mdst_graph`] | graphs, rooted trees, generators, classic algorithms |
//! | [`mdst_netsim`] | asynchronous message-passing executors: discrete-event simulator, sharded worker pool |
//! | [`mdst_spanning`] | distributed spanning-tree constructions (the startup step) |
//! | [`mdst_core`] | the distributed MDegST protocol, the `Pipeline` session API, baselines, bounds, verification |
//! | [`mdst_check`] | exhaustive small-state model checker: every schedule on every ≤6-node topology, minimized counterexamples |
//! | [`mdst_scenario`] | declarative scenario harness: graph I/O, parallel campaigns, JSON reports, report diffing |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mdst_check as check;
pub use mdst_core as core;
pub use mdst_graph as graph;
pub use mdst_netsim as netsim;
pub use mdst_scenario as scenario;
pub use mdst_spanning as spanning;

/// Everything a typical user or experiment needs in scope.
pub mod prelude {
    pub use mdst_check::check as model_check;
    pub use mdst_check::{
        check_with_suite, sweep_connected, CheckConfig, CheckReport, Counterexample,
        InvariantSuite, MdstInvariants, QuiescentOutcome, SweepReport, Violation,
    };
    pub use mdst_core::bounds::{
        degree_bounds, degree_lower_bound, kmz_message_lower_bound, kmz_ratio,
        paper_degree_upper_bound, within_paper_degree_bound,
    };
    pub use mdst_core::distributed::{Candidate, MdstMsg, MdstNode};
    pub use mdst_core::driver::{Outcome, Pipeline, PipelineConfig, PipelineError, RunReport};
    pub use mdst_core::observer::{
        ConstructionEvent, CountingObserver, ExchangeEvent, FaultEvent, Observer, RoundEvent,
    };
    pub use mdst_core::sequential::{
        exact_min_degree, furer_raghavachari, paper_local_search, spanning_tree_with_max_degree,
    };
    pub use mdst_core::verify::{
        blocked_max_degree_nodes, is_locally_optimal_for, survivor_report, verify_spanning_tree,
        verify_termination_certificate, SurvivorReport,
    };
    pub use mdst_graph::graph::graph_from_edges;
    pub use mdst_graph::{algorithms, degree::DegreeStats, dot, generators};
    pub use mdst_graph::{Graph, GraphError, NodeId, RootedTree, StreamingBuilder};
    pub use mdst_netsim::{
        CancelToken, Context, ControlledEvent, ControlledNet, CrashAt, CutAt, DelayModel,
        ExecConfig, ExecError, ExecRun, ExecStatus, ExecutorKind, FaultPlan, Metrics, NetMessage,
        Protocol, SimConfig, StartDiscipline, StartModel, UnknownExecutor,
    };
    pub use mdst_scenario::{
        diff_reports, diff_reports_with, run_campaign, CampaignReport, DiffOptions, FaultSpec,
        GraphFormat, RunOutcome, RunRecord, RunnerConfig, ScenarioMatrix,
    };
    pub use mdst_spanning::{build_initial_tree, collect_tree, InitialTreeKind, TreeState};
    // Topologies are shared across executors and campaign runs behind an
    // `Arc<Graph>`; re-exported so every example and doc test has it in scope.
    pub use std::sync::Arc;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let graph = Arc::new(generators::complete(8).unwrap());
        let report = Pipeline::on(&graph).run().unwrap();
        assert_eq!(report.outcome, Outcome::Optimal);
        assert!(report.final_degree <= 3);
        assert!(verify_termination_certificate(&graph, report.tree()));
    }
}
