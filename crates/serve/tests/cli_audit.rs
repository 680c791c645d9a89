//! End-to-end tests of the `scenario audit` CLI subcommand, run against the
//! built binary (which lives in this crate since the CLI grew the serve
//! family).

use std::process::Command;

fn scenario_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
}
/// Repo-root path of the checked-in FIFO-violation fixture (tests run with
/// the crate directory as CWD).
const FIFO_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/traces/fifo-violation.json"
);

#[test]
fn audit_subcommand_rejects_the_fifo_violation_fixture() {
    let out = scenario_bin()
        .args(["audit", FIFO_FIXTURE])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a corrupted trace must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fifo-inversion"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("happens-before"), "{stderr}");

    // JSON mode carries the same verdict machine-readably.
    let out = scenario_bin()
        .args(["audit", FIFO_FIXTURE, "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let value = serde::from_json_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let findings = value.get("findings").unwrap().as_array().unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").unwrap().as_str(),
        Some("fifo-inversion")
    );
}

#[test]
fn audit_subcommand_passes_a_large_pool_trace() {
    use mdst_core::{Pipeline, PipelineConfig};
    use mdst_graph::generators;
    use mdst_netsim::{ExecutorKind, SimConfig};
    use serde::Serialize;
    use std::sync::Arc;

    // A 1,000-node run on the sharded pool: the merged multi-worker
    // trace must audit clean through the offline CLI path too.
    let graph = Arc::new(generators::random_connected(1000, 500, 99).unwrap());
    let config = PipelineConfig {
        sim: SimConfig {
            record_trace: true,
            ..Default::default()
        },
        executor: ExecutorKind::Pool,
        ..Default::default()
    };
    let report = Pipeline::on(&graph).config(config).run().unwrap();
    assert!(report.trace.is_enabled());
    assert!(!report.trace.events().is_empty());
    let path = std::env::temp_dir().join("mdst-audit-pool-trace.json");
    std::fs::write(&path, report.trace.to_value().to_json_pretty()).unwrap();

    let findings_path = std::env::temp_dir().join("mdst-audit-pool-findings.json");
    let out = scenario_bin()
        .args([
            "audit",
            path.to_str().unwrap(),
            "--quiet",
            "--out",
            findings_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "clean pool trace must exit zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&findings_path).unwrap();
    let value = serde::from_json_str(&doc).unwrap();
    assert_eq!(value.get("findings").unwrap().as_array().unwrap().len(), 0);
    assert!(value.get("sends").unwrap().as_u64().unwrap() > 0);
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(findings_path);
}

#[test]
fn audit_subcommand_reads_a_run_report_with_an_embedded_trace() {
    use mdst_core::{Pipeline, PipelineConfig};
    use mdst_graph::generators;
    use mdst_netsim::SimConfig;
    use serde::Serialize;
    use std::sync::Arc;

    let graph = Arc::new(generators::star_with_leaf_edges(12).unwrap());
    let config = PipelineConfig {
        sim: SimConfig {
            record_trace: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = Pipeline::on(&graph).config(config).run().unwrap();
    let path = std::env::temp_dir().join("mdst-audit-run-report.json");
    std::fs::write(&path, report.to_value().to_json_pretty()).unwrap();
    let out = scenario_bin()
        .args(["audit", path.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn audit_subcommand_errors_cleanly_on_garbage() {
    let path = std::env::temp_dir().join("mdst-audit-garbage.json");
    std::fs::write(&path, "{\"not\": \"a trace\"}").unwrap();
    let out = scenario_bin()
        .args(["audit", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no trace found"), "{stderr}");
    let _ = std::fs::remove_file(path);
}
