//! End-to-end tests of the `executor` sweep axis: cross-backend agreement on
//! the paper's degree-bound verdicts, the new report columns, run-order
//! shuffling and the `parallelism` campaign key.

use mdst_scenario::prelude::*;
use std::collections::BTreeMap;

const CROSS_BACKEND: &str = r#"
    [campaign]
    name = "executor-agreement"

    [[scenario]]
    name = "worst-case"
    graph = { family = "star_with_leaf_edges", n = [10, 14] }
    initial = ["greedy_hub"]
    executor = ["sim", "pool"]
    seeds = [1]

    [[scenario]]
    name = "gnp"
    graph = { family = "gnp_connected", n = 18, p = 0.25 }
    initial = ["greedy_hub", "bfs"]
    executor = ["sim", "pool"]
    seeds = [1, 2]
"#;

#[test]
fn sim_and_pool_agree_on_degree_bound_verdicts() {
    let matrix = ScenarioMatrix::from_toml_str(CROSS_BACKEND).unwrap();
    let report = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    // 2 graphs × 2 executors + 2 initials × 2 seeds × 2 executors = 12 runs.
    assert_eq!(report.total.runs, 12);
    assert_eq!(report.total.failures, 0);
    assert_eq!(report.total.bound_violations, 0);

    // Group the records by everything except the executor: each group must
    // contain one sim run and one pool run, and the two must agree on the
    // outcome and on the paper degree-bound verdict. The improvement
    // protocol is message-deterministic, so the final degrees agree too.
    let mut groups: BTreeMap<(String, String, String, u64), Vec<&RunRecord>> = BTreeMap::new();
    for run in &report.runs {
        assert_eq!(run.outcome, RunOutcome::QuiescedCorrect, "{run:?}");
        assert!(run.within_bound, "{run:?}");
        groups
            .entry((
                run.scenario.clone(),
                run.graph.clone(),
                run.initial.clone(),
                run.seed,
            ))
            .or_default()
            .push(run);
    }
    assert_eq!(groups.len(), 6);
    for (key, pair) in &groups {
        assert_eq!(pair.len(), 2, "{key:?}");
        let executors: Vec<&str> = pair.iter().map(|r| r.executor.as_str()).collect();
        assert!(executors.contains(&"sim"), "{key:?}");
        assert!(executors.contains(&"pool"), "{key:?}");
        let (a, b) = (pair[0], pair[1]);
        assert_eq!(a.within_bound, b.within_bound, "{key:?}");
        assert_eq!(a.final_degree, b.final_degree, "{key:?}");
        assert_eq!(a.degree_upper_bound, b.degree_upper_bound, "{key:?}");
        assert_eq!(a.messages, b.messages, "{key:?}");
    }
}

#[test]
fn executor_and_exec_wall_time_appear_in_reports() {
    let matrix = ScenarioMatrix::from_toml_str(CROSS_BACKEND).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    for run in &report.runs {
        assert!(run.exec_wall_ms >= 0.0);
    }
    assert!(
        report.runs.iter().any(|r| r.exec_wall_ms > 0.0),
        "at least the pool runs take measurable wall time"
    );
    // CSV carries the new columns...
    let csv = campaign_to_csv(&report);
    let header = csv.lines().next().unwrap();
    assert!(header.contains(",executor,"), "{header}");
    assert!(header.contains(",exec_wall_ms,"), "{header}");
    assert!(csv
        .lines()
        .skip(1)
        .all(|l| l.contains(",pool,") || l.contains(",sim,")));
    // ...and the JSON round-trips them.
    let json = campaign_to_json(&report);
    let value = serde::from_json_str(&json).unwrap();
    use serde::Deserialize;
    let back = CampaignReport::from_value(&value).unwrap();
    assert_eq!(back, report);
}

#[test]
fn four_worker_pool_also_sweeps() {
    let spec = r#"
        [[scenario]]
        name = "tri"
        graph = { family = "star_with_leaf_edges", n = 10 }
        executor = ["sim", "pool"]
        workers = 4
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    assert_eq!(report.total.runs, 2);
    assert_eq!(report.total.failures, 0);
    let degrees: Vec<usize> = report.runs.iter().map(|r| r.final_degree).collect();
    assert!(degrees.windows(2).all(|w| w[0] == w[1]), "{degrees:?}");
}

#[test]
fn executor_axis_rejects_sim_only_combinations() {
    let bad_delay = r#"
        [[scenario]]
        name = "x"
        graph = { family = "path", n = 6 }
        delay = { model = "uniform", min = 1, max = 5 }
        executor = ["pool"]
    "#;
    let err = ScenarioMatrix::from_toml_str(bad_delay).unwrap_err();
    assert!(err.to_string().contains("delay"), "{err}");

    let bad_faults = r#"
        [[scenario]]
        name = "x"
        graph = { family = "path", n = 6 }
        faults = [{ loss = 0.1 }]
        executor = ["sim", "pool"]
    "#;
    let err = ScenarioMatrix::from_toml_str(bad_faults).unwrap_err();
    assert!(err.to_string().contains("faults"), "{err}");

    let bad_start = r#"
        [[scenario]]
        name = "x"
        graph = { family = "path", n = 6 }
        start = { model = "staggered", max_offset = 9 }
        executor = ["pool"]
    "#;
    let err = ScenarioMatrix::from_toml_str(bad_start).unwrap_err();
    assert!(err.to_string().contains("start"), "{err}");

    let typo = r#"
        [[scenario]]
        name = "x"
        graph = { family = "path", n = 6 }
        executor = "quantum"
    "#;
    let err = ScenarioMatrix::from_toml_str(typo).unwrap_err();
    assert!(err.to_string().contains("quantum"), "{err}");

    // All of those are fine on the sim-only (default) axis.
    let fine = r#"
        [[scenario]]
        name = "x"
        graph = { family = "path", n = 6 }
        delay = { model = "uniform", min = 1, max = 5 }
        faults = [{ loss = 0.1 }]
        start = { model = "staggered", max_offset = 9 }
    "#;
    ScenarioMatrix::from_toml_str(fine).unwrap();
}

#[test]
fn shuffled_campaigns_reproduce_and_keep_expansion_order() {
    let spec = r#"
        [[scenario]]
        name = "mini"
        graph = { family = "gnp_connected", n = [10, 12, 14], p = 0.3 }
        seeds = [1, 2]
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    let plain = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let shuffled = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 2,
            shuffle: Some(7),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(plain.shuffle_seed, None);
    assert_eq!(shuffled.shuffle_seed, Some(7));
    // Shuffling only changes the claim order: the records come back in
    // expansion order with identical measurements.
    assert_eq!(plain.runs.len(), shuffled.runs.len());
    for (a, b) in plain.runs.iter().zip(&shuffled.runs) {
        let mut b = b.clone();
        b.wall_ms = a.wall_ms;
        b.exec_wall_ms = a.exec_wall_ms;
        assert_eq!(*a, b);
    }
}

#[test]
fn campaign_parallelism_key_caps_the_runner() {
    let spec = r#"
        [campaign]
        name = "capped"
        parallelism = 2

        [[scenario]]
        name = "mini"
        graph = { family = "path", n = 8 }
        seeds = [1, 2, 3, 4]
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    assert_eq!(matrix.parallelism, Some(2));
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    assert_eq!(report.threads, 2, "the spec default applies");
    // An explicit --jobs wins over the spec.
    let report = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.threads, 1);
    // parallelism = 0 is rejected at parse time.
    let zero = spec.replace("parallelism = 2", "parallelism = 0");
    assert!(ScenarioMatrix::from_toml_str(&zero).is_err());
}
