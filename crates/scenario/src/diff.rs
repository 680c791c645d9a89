//! Campaign report diffing: `scenario diff a.json b.json`.
//!
//! Compares two [`CampaignReport`]s produced by the *same spec* at different
//! code revisions and classifies every matched run pair, so CI can gate on
//! quality regressions the way it already gates on absolute bound violations.
//! Runs are matched on their full configuration key — scenario, graph,
//! initial tree, delay, start, faults, executor, batch (when swept) and seed
//! — which is exactly the identity of one cell of the sweep matrix.
//!
//! A **regression** (candidate worse than baseline) is any of:
//!
//! * the outcome degrades along `quiesced-correct → quiesced-partial →
//!   event-limit-abort / aborted → failed`;
//! * the paper degree-bound verdict flips from respected to violated;
//! * the final tree degree increases;
//! * a run that used to succeed now records an error.
//!
//! The mirror conditions count as **improvements**; changed message or round
//! counts with an unchanged verdict are reported as informational **drift**.
//! Run sets that do not match (runs only in one report) make the diff
//! non-comparable — a spec mismatch is an answer, not a pass.
//!
//! Wall time is ignored by default (it varies run to run), but an explicit
//! tolerance ([`DiffOptions::wall_ms_tolerance`], the CLI's
//! `--wall-ms-tolerance <pct>`) turns timing blowups beyond that percentage
//! into regressions instead of invisible drift. Findings render as plain
//! text ([`ReportDiff::render`]) or as GitHub-flavored markdown tables for
//! PR comments ([`ReportDiff::render_markdown`], the CLI's `--markdown`).

use crate::runner::{CampaignReport, RunOutcome, RunRecord};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Knobs of [`diff_reports_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffOptions {
    /// Wall-time regression threshold in percent: a matched run whose
    /// `exec_wall_ms` exceeds the baseline by more than this percentage
    /// (and by at least [`WALL_MS_FLOOR`] absolute, so micro-run jitter
    /// cannot trip it) is a regression; the mirror direction is an
    /// improvement. `None` (the default) ignores wall time entirely.
    pub wall_ms_tolerance: Option<f64>,
    /// Cost-model accuracy threshold in percent: when both matched runs
    /// carry a scheduler prediction (`predicted_wall_ms` set by `scenario
    /// serve`), a run whose relative prediction error grew by more than this
    /// many percentage points over the baseline is reported as **drift** —
    /// the cost model got worse at predicting this cell, worth a line but
    /// never an exit code. `None` (the default) ignores predictions.
    pub prediction_tolerance: Option<f64>,
}

/// Absolute wall-time slack (milliseconds) under which timing changes are
/// never flagged, whatever the percentage says — sub-millisecond runs jitter
/// by integer factors without meaning anything.
pub const WALL_MS_FLOOR: f64 = 1.0;

/// One classified difference between a matched pair of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFinding {
    /// The run's configuration key, e.g.
    /// `suite / file(data/sample.mtx.gz) / greedy_hub / sim / seed 1`.
    pub key: String,
    /// Which quantity changed.
    pub what: String,
    /// Value in the baseline report.
    pub baseline: String,
    /// Value in the candidate report.
    pub candidate: String,
}

impl DiffFinding {
    fn new(
        key: &str,
        what: impl Into<String>,
        baseline: impl ToString,
        candidate: impl ToString,
    ) -> DiffFinding {
        DiffFinding {
            key: key.to_string(),
            what: what.into(),
            baseline: baseline.to_string(),
            candidate: candidate.to_string(),
        }
    }
}

/// The classified comparison of two campaign reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Baseline campaign name.
    pub baseline_name: String,
    /// Candidate campaign name.
    pub candidate_name: String,
    /// Matched run pairs.
    pub matched: usize,
    /// Keys present only in the baseline (spec mismatch).
    pub only_in_baseline: Vec<String>,
    /// Keys present only in the candidate (spec mismatch).
    pub only_in_candidate: Vec<String>,
    /// Candidate-worse findings (outcome, bound verdict, degree, errors).
    pub regressions: Vec<DiffFinding>,
    /// Candidate-better findings.
    pub improvements: Vec<DiffFinding>,
    /// Verdict-neutral changes (message/round counts), informational only.
    pub drift: Vec<DiffFinding>,
}

impl ReportDiff {
    /// Whether the two reports cover the same run set.
    pub fn is_comparable(&self) -> bool {
        self.only_in_baseline.is_empty() && self.only_in_candidate.is_empty()
    }

    /// Whether the candidate regressed anywhere (or the run sets diverge,
    /// which makes "no regressions" unprovable).
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty() || !self.is_comparable()
    }

    /// Human-readable summary, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diff `{}` (baseline) vs `{}` (candidate): {} matched runs, \
             {} regressions, {} improvements, {} drifted",
            self.baseline_name,
            self.candidate_name,
            self.matched,
            self.regressions.len(),
            self.improvements.len(),
            self.drift.len(),
        );
        for (label, keys) in [
            ("only in baseline", &self.only_in_baseline),
            ("only in candidate", &self.only_in_candidate),
        ] {
            if !keys.is_empty() {
                let _ = writeln!(
                    out,
                    "  {label}: {} runs (spec mismatch — reports are not comparable)",
                    keys.len()
                );
                for key in keys.iter().take(5) {
                    let _ = writeln!(out, "    {key}");
                }
                if keys.len() > 5 {
                    let _ = writeln!(out, "    … and {} more", keys.len() - 5);
                }
            }
        }
        for (label, findings) in [
            ("REGRESSION", &self.regressions),
            ("improvement", &self.improvements),
            ("drift", &self.drift),
        ] {
            for f in findings {
                let _ = writeln!(
                    out,
                    "  {label}: {} — {}: {} -> {}",
                    f.key, f.what, f.baseline, f.candidate
                );
            }
        }
        out
    }

    /// GitHub-flavored markdown rendering of the same findings, one table
    /// per section, for posting as a PR comment.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let verdict = if self.has_regressions() {
            "❌ regressions"
        } else {
            "✅ clean"
        };
        let _ = writeln!(
            out,
            "### scenario diff: `{}` (baseline) vs `{}` (candidate) — {verdict}\n",
            self.baseline_name, self.candidate_name
        );
        let _ = writeln!(
            out,
            "{} matched runs · {} regressions · {} improvements · {} drifted\n",
            self.matched,
            self.regressions.len(),
            self.improvements.len(),
            self.drift.len()
        );
        for (label, keys) in [
            ("Only in baseline", &self.only_in_baseline),
            ("Only in candidate", &self.only_in_candidate),
        ] {
            if !keys.is_empty() {
                let _ = writeln!(
                    out,
                    "**{label}** ({} runs — spec mismatch, reports are not comparable):\n",
                    keys.len()
                );
                for key in keys {
                    let _ = writeln!(out, "- `{}`", md_escape(key));
                }
                let _ = writeln!(out);
            }
        }
        for (title, findings) in [
            ("Regressions", &self.regressions),
            ("Improvements", &self.improvements),
            ("Drift (informational)", &self.drift),
        ] {
            if findings.is_empty() {
                continue;
            }
            let _ = writeln!(out, "**{title}** ({})\n", findings.len());
            let _ = writeln!(out, "| run | what | baseline | candidate |");
            let _ = writeln!(out, "|---|---|---|---|");
            for f in findings {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | {} | {} |",
                    md_escape(&f.key),
                    md_escape(&f.what),
                    md_escape(&f.baseline),
                    md_escape(&f.candidate)
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Escapes the one character that breaks a GFM table cell.
fn md_escape(text: &str) -> String {
    text.replace('|', "\\|")
}

/// Severity rank of an outcome: higher is worse. An operator-cancelled run
/// ([`RunOutcome::Aborted`]) ranks with the event-limit abort — both ended
/// before quiescence by external decision, which is worse than any finished
/// tree but better than a setup failure.
fn outcome_rank(outcome: RunOutcome) -> u8 {
    match outcome {
        RunOutcome::QuiescedCorrect => 0,
        RunOutcome::QuiescedPartial => 1,
        RunOutcome::EventLimitAbort | RunOutcome::Aborted => 2,
        RunOutcome::Failed => 3,
    }
}

/// Diffs `candidate` against `baseline` with the default options (wall time
/// ignored). See the module docs for the classification rules.
pub fn diff_reports(baseline: &CampaignReport, candidate: &CampaignReport) -> ReportDiff {
    diff_reports_with(baseline, candidate, &DiffOptions::default())
}

/// Diffs `candidate` against `baseline`. See the module docs for the
/// classification rules.
///
/// Keys are matched as a multiset: a spec can legitimately expand several
/// runs with identical configuration labels (e.g. a repeated seed), and
/// those pair up in expansion order instead of collapsing onto one entry —
/// a report diffed against itself is always clean.
pub fn diff_reports_with(
    baseline: &CampaignReport,
    candidate: &CampaignReport,
    options: &DiffOptions,
) -> ReportDiff {
    let mut base_by_key: BTreeMap<String, VecDeque<&RunRecord>> = BTreeMap::new();
    for run in &baseline.runs {
        base_by_key.entry(run.key()).or_default().push_back(run);
    }
    let mut diff = ReportDiff {
        baseline_name: baseline.name.clone(),
        candidate_name: candidate.name.clone(),
        matched: 0,
        only_in_baseline: Vec::new(),
        only_in_candidate: Vec::new(),
        regressions: Vec::new(),
        improvements: Vec::new(),
        drift: Vec::new(),
    };
    for cand in &candidate.runs {
        let key = cand.key();
        let Some(base) = base_by_key.get_mut(&key).and_then(VecDeque::pop_front) else {
            diff.only_in_candidate.push(key);
            continue;
        };
        diff.matched += 1;
        compare_pair(&key, base, cand, options, &mut diff);
    }
    diff.only_in_baseline = base_by_key
        .into_iter()
        .flat_map(|(key, leftovers)| std::iter::repeat_n(key, leftovers.len()))
        .collect();
    diff
}

fn compare_pair(
    key: &str,
    base: &RunRecord,
    cand: &RunRecord,
    options: &DiffOptions,
    diff: &mut ReportDiff,
) {
    let base_rank = outcome_rank(base.outcome);
    let cand_rank = outcome_rank(cand.outcome);
    if cand_rank != base_rank {
        let finding = DiffFinding::new(key, "outcome", base.outcome.label(), cand.outcome.label());
        if cand_rank > base_rank {
            diff.regressions.push(finding);
        } else {
            diff.improvements.push(finding);
        }
    }
    if base.within_bound != cand.within_bound {
        let finding = DiffFinding::new(
            key,
            "degree-bound verdict",
            if base.within_bound {
                "within"
            } else {
                "violated"
            },
            if cand.within_bound {
                "within"
            } else {
                "violated"
            },
        );
        if base.within_bound {
            diff.regressions.push(finding);
        } else {
            diff.improvements.push(finding);
        }
    }
    if base.final_degree != cand.final_degree {
        let finding = DiffFinding::new(key, "final degree", base.final_degree, cand.final_degree);
        if cand.final_degree > base.final_degree {
            diff.regressions.push(finding);
        } else {
            diff.improvements.push(finding);
        }
    }
    match (&base.error, &cand.error) {
        (None, Some(e)) => diff
            .regressions
            .push(DiffFinding::new(key, "error", "none", e.clone())),
        (Some(e), None) => {
            diff.improvements
                .push(DiffFinding::new(key, "error", e.clone(), "none"))
        }
        _ => {}
    }
    // Verdict-neutral performance drift, worth a line but never an exit code.
    if base.messages != cand.messages {
        diff.drift.push(DiffFinding::new(
            key,
            "messages",
            base.messages,
            cand.messages,
        ));
    }
    if base.rounds != cand.rounds {
        diff.drift
            .push(DiffFinding::new(key, "rounds", base.rounds, cand.rounds));
    }
    // Wall time only speaks when the caller set a tolerance: a percentage
    // blowup past it (and past the absolute floor) is a regression, the
    // mirror a genuine improvement; within tolerance it stays silent (wall
    // times never match exactly, so reporting them as drift is pure noise).
    // And it only compares like with like — when the outcome changed or
    // either run errored, the timing of the two runs measures different
    // work (a fixed baseline failure is not a timing regression).
    let wall_comparable =
        base.outcome == cand.outcome && base.error.is_none() && cand.error.is_none();
    if let Some(pct) = options.wall_ms_tolerance.filter(|_| wall_comparable) {
        let fmt = |ms: f64| format!("{ms:.3} ms");
        let slack = pct.max(0.0) / 100.0;
        if cand.exec_wall_ms > base.exec_wall_ms * (1.0 + slack)
            && cand.exec_wall_ms - base.exec_wall_ms > WALL_MS_FLOOR
        {
            diff.regressions.push(DiffFinding::new(
                key,
                format!("exec wall time (+{pct}% tolerance)"),
                fmt(base.exec_wall_ms),
                fmt(cand.exec_wall_ms),
            ));
        } else if base.exec_wall_ms > cand.exec_wall_ms * (1.0 + slack)
            && base.exec_wall_ms - cand.exec_wall_ms > WALL_MS_FLOOR
        {
            diff.improvements.push(DiffFinding::new(
                key,
                format!("exec wall time (+{pct}% tolerance)"),
                fmt(base.exec_wall_ms),
                fmt(cand.exec_wall_ms),
            ));
        }
    }
    // Cost-model accuracy: only when both sides were scheduled under a
    // prediction and measured comparable work. A growing relative error
    // means the serve scheduler's model regressed on this cell — that is a
    // scheduling-quality signal, not a protocol verdict, so it lands in
    // drift.
    if let Some(pts) = options.prediction_tolerance.filter(|_| wall_comparable) {
        let err = |run: &RunRecord| -> Option<f64> {
            if !run.predicted_wall_ms.is_set() || run.exec_wall_ms <= WALL_MS_FLOOR {
                return None;
            }
            Some(((run.exec_wall_ms - run.predicted_wall_ms.0) / run.exec_wall_ms).abs() * 100.0)
        };
        if let (Some(base_err), Some(cand_err)) = (err(base), err(cand)) {
            if cand_err > base_err + pts.max(0.0) {
                diff.drift.push(DiffFinding::new(
                    key,
                    format!("prediction error (+{pts} pt tolerance)"),
                    format!("{base_err:.1}%"),
                    format!("{cand_err:.1}%"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunnerConfig};
    use crate::spec::ScenarioMatrix;

    fn report() -> CampaignReport {
        let spec = r#"
            [[scenario]]
            name = "mini"
            graph = { family = "star_with_leaf_edges", n = [8, 10] }
            seeds = [1, 2]
        "#;
        let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
        run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn identical_reports_diff_clean() {
        let a = report();
        let diff = diff_reports(&a, &a.clone());
        assert_eq!(diff.matched, a.runs.len());
        assert!(diff.is_comparable());
        assert!(!diff.has_regressions());
        assert!(diff.regressions.is_empty());
        assert!(diff.improvements.is_empty());
        assert!(diff.drift.is_empty());
        assert!(diff.render().contains("0 regressions"));
    }

    #[test]
    fn degraded_outcome_and_degree_are_regressions() {
        let base = report();
        let mut cand = base.clone();
        cand.runs[0].outcome = RunOutcome::QuiescedPartial;
        cand.runs[1].final_degree += 1;
        cand.runs[2].within_bound = false;
        cand.runs[3].error = Some("boom".to_string());
        let diff = diff_reports(&base, &cand);
        assert!(diff.has_regressions());
        assert_eq!(diff.regressions.len(), 4);
        assert!(diff.improvements.is_empty());
        let rendered = diff.render();
        assert!(rendered.contains("REGRESSION"), "{rendered}");
        assert!(rendered.contains("outcome"), "{rendered}");
        assert!(rendered.contains("final degree"), "{rendered}");
        assert!(rendered.contains("degree-bound verdict"), "{rendered}");
        // The mirror direction counts as improvements, not regressions.
        let mirror = diff_reports(&cand, &base);
        assert!(!mirror.has_regressions());
        assert_eq!(mirror.improvements.len(), 4);
    }

    #[test]
    fn duplicate_run_keys_match_as_a_multiset() {
        // A spec can expand several runs with identical configuration labels
        // (e.g. seeds = [1, 1]); self-diffing such a report must stay clean
        // instead of collapsing the duplicates into a phantom mismatch.
        let spec = r#"
            [[scenario]]
            name = "dup"
            graph = { family = "path", n = 6 }
            seeds = [1, 1]
        "#;
        let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
        let report = run_campaign(
            &matrix,
            &RunnerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.runs.len(), 2);
        let diff = diff_reports(&report, &report.clone());
        assert_eq!(diff.matched, 2);
        assert!(diff.is_comparable());
        assert!(!diff.has_regressions());
        // Dropping one duplicate is still detected as a mismatch.
        let mut shorter = report.clone();
        shorter.runs.pop();
        let diff = diff_reports(&report, &shorter);
        assert_eq!(diff.only_in_baseline.len(), 1);
        assert!(diff.has_regressions());
    }

    #[test]
    fn wall_time_is_ignored_without_a_tolerance_and_gated_with_one() {
        let base = report();
        let mut cand = base.clone();
        // Blow up one run's improvement wall time by 10x (and well past the
        // absolute floor).
        cand.runs[0].exec_wall_ms = base.runs[0].exec_wall_ms * 10.0 + 50.0;
        // Default: invisible.
        let diff = diff_reports(&base, &cand);
        assert!(!diff.has_regressions());
        assert!(diff.regressions.is_empty() && diff.drift.is_empty());
        // With a 20% tolerance: a regression.
        let opts = DiffOptions {
            wall_ms_tolerance: Some(20.0),
            ..Default::default()
        };
        let diff = diff_reports_with(&base, &cand, &opts);
        assert!(diff.has_regressions());
        assert_eq!(diff.regressions.len(), 1);
        assert!(diff.regressions[0].what.contains("wall time"));
        // The mirror direction is an improvement, not a regression.
        let mirror = diff_reports_with(&cand, &base, &opts);
        assert!(!mirror.has_regressions());
        assert_eq!(mirror.improvements.len(), 1);
        // Sub-floor jitter never trips, whatever the percentage.
        let mut jitter = base.clone();
        jitter.runs[0].exec_wall_ms = base.runs[0].exec_wall_ms + 0.5;
        let diff = diff_reports_with(
            &base,
            &jitter,
            &DiffOptions {
                wall_ms_tolerance: Some(0.0),
                ..Default::default()
            },
        );
        assert!(!diff.has_regressions(), "{:?}", diff.regressions);
    }

    #[test]
    fn wall_time_is_not_compared_across_different_outcomes_or_errors() {
        // A baseline run that failed (exec_wall_ms left at 0) and now
        // succeeds must count as an improvement, not a timing regression.
        let cand = report();
        let mut base = cand.clone();
        base.runs[0].outcome = RunOutcome::Failed;
        base.runs[0].error = Some("boom".to_string());
        base.runs[0].exec_wall_ms = 0.0;
        let diff = diff_reports_with(
            &base,
            &cand,
            &DiffOptions {
                wall_ms_tolerance: Some(50.0),
                ..Default::default()
            },
        );
        assert!(!diff.has_regressions(), "{:?}", diff.regressions);
        assert!(
            diff.regressions.iter().all(|f| !f.what.contains("wall")),
            "{:?}",
            diff.regressions
        );
        // Outcome improvements are still reported as such.
        assert!(diff.improvements.iter().any(|f| f.what == "outcome"));
    }

    #[test]
    fn prediction_error_drift_is_gated_by_tolerance() {
        use crate::runner::PredictedMs;
        let seed = report();
        let mut base = seed.clone();
        let mut cand = seed.clone();
        // Same execution time on both sides; the baseline predicted within
        // 10%, the candidate missed by 100%.
        base.runs[0].exec_wall_ms = 100.0;
        base.runs[0].predicted_wall_ms = PredictedMs(90.0);
        cand.runs[0].exec_wall_ms = 100.0;
        cand.runs[0].predicted_wall_ms = PredictedMs(200.0);
        // Default: the knob is off and prediction error is invisible.
        let diff = diff_reports(&base, &cand);
        assert!(diff.drift.iter().all(|f| !f.what.contains("prediction")));
        // +90 points of error against a 20-point tolerance: drift, never a
        // regression (a worse model is telemetry, not a protocol bug).
        let opts = DiffOptions {
            prediction_tolerance: Some(20.0),
            ..Default::default()
        };
        let diff = diff_reports_with(&base, &cand, &opts);
        assert!(!diff.has_regressions(), "{:?}", diff.regressions);
        assert!(
            diff.drift
                .iter()
                .any(|f| f.what.contains("prediction error")),
            "{:?}",
            diff.drift
        );
        // A tolerance wider than the delta stays quiet.
        let opts = DiffOptions {
            prediction_tolerance: Some(95.0),
            ..Default::default()
        };
        let diff = diff_reports_with(&base, &cand, &opts);
        assert!(diff.drift.iter().all(|f| !f.what.contains("prediction")));
        // Unset predictions (pre-serve baselines deserialize to 0) are
        // never compared, whatever the candidate recorded.
        let mut unset = base.clone();
        unset.runs[0].predicted_wall_ms = PredictedMs(0.0);
        let opts = DiffOptions {
            prediction_tolerance: Some(0.0),
            ..Default::default()
        };
        let diff = diff_reports_with(&unset, &cand, &opts);
        assert!(
            diff.drift.iter().all(|f| !f.what.contains("prediction")),
            "{:?}",
            diff.drift
        );
    }

    #[test]
    fn markdown_rendering_tables_the_findings() {
        let base = report();
        let mut cand = base.clone();
        cand.runs[0].outcome = RunOutcome::QuiescedPartial;
        cand.runs[1].messages += 7;
        let diff = diff_reports(&base, &cand);
        let md = diff.render_markdown();
        assert!(md.contains("### scenario diff"), "{md}");
        assert!(md.contains("❌ regressions"), "{md}");
        assert!(md.contains("| run | what | baseline | candidate |"), "{md}");
        assert!(md.contains("**Regressions** (1)"), "{md}");
        assert!(md.contains("**Drift (informational)** (1)"), "{md}");
        assert!(md.contains("quiesced-partial"), "{md}");
        // A clean diff renders a clean verdict and no tables.
        let clean = diff_reports(&base, &base.clone()).render_markdown();
        assert!(clean.contains("✅ clean"), "{clean}");
        assert!(!clean.contains("| run |"), "{clean}");
    }

    #[test]
    fn message_drift_is_informational_only() {
        let base = report();
        let mut cand = base.clone();
        cand.runs[0].messages += 100;
        cand.runs[0].rounds += 1;
        let diff = diff_reports(&base, &cand);
        assert!(!diff.has_regressions());
        assert_eq!(diff.drift.len(), 2);
    }

    #[test]
    fn mismatched_run_sets_are_not_comparable() {
        let base = report();
        let mut cand = base.clone();
        let moved = cand.runs.pop().unwrap();
        let diff = diff_reports(&base, &cand);
        assert!(!diff.is_comparable());
        assert!(
            diff.has_regressions(),
            "mismatch cannot certify no-regression"
        );
        assert_eq!(diff.only_in_baseline.len(), 1);
        assert!(diff.only_in_baseline[0].contains(&moved.scenario));
        assert!(diff.render().contains("spec mismatch"));
    }
}
