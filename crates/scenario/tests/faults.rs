//! End-to-end fault-campaign tests: the benign-faults bit-identity guarantee,
//! the outcome taxonomy under real faults, and spec validation of fault axes.

use mdst_core::bounds::ceil_log2;
use mdst_core::Pipeline;
use mdst_graph::algorithms::connected_components;
use mdst_graph::{Graph, NodeId};
use mdst_scenario::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// A scratch file that cleans up after itself.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, content: &str) -> TempFile {
        let mut path = std::env::temp_dir();
        path.push(format!("mdst-faults-{}-{name}", std::process::id()));
        std::fs::write(&path, content).expect("temp dir is writable");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `degree_lower_bound` by its definition: the most components `G − v` has
/// over all `v`, each `G − v` rebuilt from scratch (test oracle only).
fn brute_force_degree_lower_bound(graph: &Graph) -> usize {
    match graph.node_count() {
        0 | 1 => 0,
        2 => 1,
        _ => graph
            .nodes()
            .map(|v| {
                let keep: BTreeSet<NodeId> = graph.nodes().filter(|&u| u != v).collect();
                connected_components(&graph.induced_subgraph(&keep).0).len()
            })
            .fold(2, usize::max),
    }
}

const BASE: &str = r#"
    [campaign]
    name = "fault-identity"

    [[scenario]]
    name = "gnp"
    graph = { family = "gnp_connected", n = [12, 16], p = 0.3 }
    initial = ["greedy_hub", "bfs"]
    seeds = [1, 2]
"#;

#[test]
fn benign_fault_axis_is_bit_identical_to_no_fault_axis() {
    // The same campaign, once without a `faults` key and once with the
    // explicit benign axis: every run record must match bit for bit (wall
    // time aside — it is the one field that measures the host, not the run).
    let with_faults = format!("{BASE}    faults = [ \"none\" ]\n");
    let without = ScenarioMatrix::from_toml_str(BASE).unwrap();
    let with = ScenarioMatrix::from_toml_str(&with_faults).unwrap();
    let a = run_campaign(
        &without,
        &RunnerConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let b = run_campaign(
        &with,
        &RunnerConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(a.runs.len(), b.runs.len());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        let mut y = y.clone();
        y.wall_ms = x.wall_ms;
        y.exec_wall_ms = x.exec_wall_ms;
        assert_eq!(*x, y, "benign fault axis changed a run record");
    }
    // `{ loss = 0.0 }` is the same benign entry spelled differently.
    let zero_loss = format!("{BASE}    faults = [ {{ loss = 0.0 }} ]\n");
    let zero = ScenarioMatrix::from_toml_str(&zero_loss).unwrap();
    let c = run_campaign(
        &zero,
        &RunnerConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for (x, y) in a.runs.iter().zip(&c.runs) {
        let mut y = y.clone();
        y.wall_ms = x.wall_ms;
        y.exec_wall_ms = x.exec_wall_ms;
        assert_eq!(*x, y, "loss = 0.0 changed a run record");
    }
}

#[test]
fn faulty_campaign_classifies_and_reproduces() {
    let spec = r#"
        [campaign]
        name = "fault-sweep"

        [[scenario]]
        name = "lossy"
        graph = { family = "gnp_connected", n = 14, p = 0.35 }
        faults = [ "none", { loss = 0.4 }, { loss = 0.1, crashes = [[3, 5]] } ]
        seeds = [1, 2, 3]
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    assert_eq!(report.total.runs, 9);
    // Every run carries a classification and the counts add up.
    let classified: usize = report.total.outcomes.values().sum();
    assert_eq!(classified, report.total.runs);
    // Fault-free slice: healthy.
    for run in report.runs.iter().filter(|r| r.faults == "none") {
        assert_eq!(run.outcome, RunOutcome::QuiescedCorrect);
        assert_eq!(run.dropped_messages, 0);
        assert_eq!(run.survivors, run.n);
        assert!(run.error.is_none());
    }
    // Lossy slice: drops observed somewhere, runs still not failures.
    let lossy: Vec<_> = report
        .runs
        .iter()
        .filter(|r| r.faults == "loss(0.4)")
        .collect();
    assert!(lossy.iter().any(|r| r.dropped_messages > 0));
    assert!(lossy.iter().all(|r| r.error.is_none()));
    // Crash slice: exactly one crash each, survivors shrink.
    for run in report.runs.iter().filter(|r| r.faults.contains("crashes")) {
        assert_eq!(run.crashed_nodes, 1);
        assert!(run.survivors < run.n);
    }
    // Seed-reproducible: run the whole campaign again and compare the fault
    // accounting of every run.
    let again = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    for (x, y) in report.runs.iter().zip(&again.runs) {
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.dropped_messages, y.dropped_messages);
        assert_eq!(x.crashed_nodes, y.crashed_nodes);
        assert_eq!(x.final_degree, y.final_degree);
    }
    // The JSON report round-trips with the new fields.
    let json = campaign_to_json(&report);
    use serde::Deserialize;
    let value = serde::from_json_str(&json).unwrap();
    let back = CampaignReport::from_value(&value).unwrap();
    assert_eq!(back, report);
    // And the CSV carries the fault columns.
    let csv = campaign_to_csv(&report);
    let header = csv.lines().next().unwrap();
    for column in [
        "faults",
        "outcome",
        "dropped_messages",
        "crashed_nodes",
        "survivors",
    ] {
        assert!(header.contains(column), "missing CSV column {column}");
    }
}

#[test]
fn validate_rejects_malformed_fault_axes_in_spec_files() {
    // The same path the `scenario validate` CLI takes: load from disk, then
    // expand. Malformed fault axes must be rejected at load time.
    let good = TempFile::new(
        "good.toml",
        "[[scenario]]\nname = \"x\"\ngraph = { family = \"path\", n = 6 }\n\
         faults = [ \"none\", { loss = 0.2, crashes = [[1, 9]] } ]\n",
    );
    let matrix = ScenarioMatrix::from_path(&good.0).unwrap();
    assert_eq!(matrix.expand().unwrap().len(), 2);

    for (name, faults) in [
        ("loss-range.toml", "faults = { loss = 2.0 }"),
        ("loss-type.toml", "faults = { loss = \"heavy\" }"),
        ("crash-shape.toml", "faults = { crashes = [[1, 2, 3]] }"),
        ("cut-shape.toml", "faults = { cuts = [[1, 2]] }"),
        ("unknown-key.toml", "faults = { lozz = 0.1 }"),
        ("unknown-string.toml", "faults = \"mayhem\""),
    ] {
        let file = TempFile::new(
            name,
            &format!(
                "[[scenario]]\nname = \"x\"\ngraph = {{ family = \"path\", n = 6 }}\n{faults}\n"
            ),
        );
        let err = ScenarioMatrix::from_path(&file.0);
        assert!(err.is_err(), "{name}: malformed fault axis was accepted");
    }
}

#[test]
fn out_of_range_fault_targets_fail_the_run_not_the_campaign() {
    // Node 40 does not exist in a 6-node path: the simulator rejects the
    // config, the run records the error, the campaign completes.
    let spec = r#"
        [[scenario]]
        name = "bad-target"
        graph = { family = "path", n = 6 }
        faults = { crashes = [[40, 1]] }
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    assert_eq!(report.total.runs, 1);
    assert_eq!(report.total.failures, 1);
    let error = report.runs[0].error.as_deref().unwrap();
    assert!(error.contains("crash"), "{error}");
}

#[test]
fn crashed_runs_are_graded_on_the_survivor_component() {
    // Crashing hubs of sparse random graphs shrinks the survivor component,
    // so the runner grades these runs on `component_subgraph`, a path the
    // fault-free campaigns never take. Replaying each run's session gives
    // the survivor component to grade independently.
    let spec = r#"
        [[scenario]]
        name = "crash-grading"
        graph = { family = "random_connected", n = [16, 24], extra = 4 }
        faults = [ { crashes = [[0, 3]] }, { crashes = [[1, 2], [2, 40]] } ]
        seeds = [1, 2, 3]
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    let runs = matrix.expand().unwrap();
    assert_eq!(runs.len(), report.runs.len());
    let topologies = TopologyCache::new();
    let (mut shrunk, mut regraded) = (0, 0);
    for (spec, run) in runs.iter().zip(&report.runs) {
        assert_eq!(spec.key(), run.key());
        assert!(run.error.is_none(), "{}: {:?}", run.key(), run.error);
        let graph = topologies.get(&spec.graph, spec.seed).unwrap();
        let session = Pipeline::on(&graph)
            .config(spec.pipeline_config().unwrap())
            .run()
            .unwrap();
        assert_eq!(session.survivor.component_size(), run.survivors);
        let survivors = session.survivor.component_subgraph(&graph);
        let lb = brute_force_degree_lower_bound(&survivors);
        let ub = 2 * lb + ceil_log2(survivors.node_count());
        assert_eq!(run.degree_lower_bound, lb, "{}", run.key());
        assert_eq!(run.degree_upper_bound, ub, "{}", run.key());
        if run.survivors < run.n {
            shrunk += 1;
        }
        if lb != brute_force_degree_lower_bound(&graph) {
            regraded += 1;
        }
    }
    assert_eq!(
        shrunk,
        runs.len(),
        "every crash must shrink the survivor component"
    );
    assert!(
        regraded > 0,
        "no run's survivor bound differs from the whole graph's"
    );
}
