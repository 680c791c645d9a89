//! Cost-aware, campaign-fair run scheduler.
//!
//! All resident campaigns multiplex over one shared worker budget. Two
//! forces shape the claim order:
//!
//! * **Shortest predicted cost first** *within* a campaign: cheap runs
//!   complete early, so watchers see progress and the queue drains at
//!   maximum run-completion rate.
//! * **Deficit fairness** *across* campaigns: every campaign accumulates
//!   `served_cost` (the sum of predictions of runs already claimed for it),
//!   and workers always claim for the campaign with the least served cost.
//!   A huge campaign therefore cannot starve a small one submitted later —
//!   the small one's total cost is low, so it keeps winning claims until it
//!   completes.
//!
//! The scheduler is a plain `Mutex` + `Condvar` state machine with no
//! threads of its own: worker threads call [`Scheduler::claim`] (blocking)
//! and [`Scheduler::complete`], the server's watchdog calls
//! [`Scheduler::overdue_tokens`], and client handlers call the submit /
//! cancel / status entry points. Every decision is deterministic given the
//! claim interleaving, which keeps the unit tests honest.

use crate::cost::CostModel;
use mdst_netsim::CancelToken;
use mdst_scenario::prelude::{RunSpec, ScenarioMatrix};
use mdst_scenario::{aggregate_records, CampaignReport, RunOutcome, RunRecord};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Scheduling state of one expanded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Pending,
    Running,
    Done,
}

/// One resident campaign.
struct Campaign {
    id: u64,
    name: String,
    scenario_order: Vec<String>,
    specs: Vec<RunSpec>,
    states: Vec<RunState>,
    records: Vec<Option<RunRecord>>,
    /// Scheduling cost per run, frozen at submit time so the claim order is
    /// stable (the model keeps learning for *later* campaigns).
    costs: Vec<f64>,
    /// Sum of costs of runs already claimed — the fairness deficit counter.
    served_cost: f64,
    cancelled: bool,
    submitted: Instant,
    report: Option<CampaignReport>,
}

impl Campaign {
    fn pending_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == RunState::Pending)
            .map(|(i, _)| i)
    }

    /// The cheapest pending run, by (cost, index).
    fn cheapest_pending(&self) -> Option<usize> {
        self.pending_indices()
            .min_by(|&a, &b| self.costs[a].total_cmp(&self.costs[b]).then(a.cmp(&b)))
    }

    fn finished(&self) -> bool {
        self.states.iter().all(|s| *s == RunState::Done)
    }
}

/// One run a worker is currently executing, tracked for the watchdog and
/// for campaign cancellation.
struct RunningRun {
    token: CancelToken,
    started: Instant,
    predicted_ms: f64,
}

struct State {
    campaigns: BTreeMap<u64, Campaign>,
    running: BTreeMap<(u64, usize), RunningRun>,
    next_id: u64,
    shutting_down: bool,
}

/// A claimed run: everything a worker needs to execute it and report back.
pub struct Claim {
    /// Owning campaign id.
    pub campaign: u64,
    /// Index in the campaign's expansion order.
    pub run: usize,
    /// The spec to execute.
    pub spec: RunSpec,
    /// Cost-model prediction in milliseconds (0 = unseeded, no claim).
    pub predicted_ms: f64,
    /// Cancel token the watchdog / a cancel request may raise mid-run.
    pub token: CancelToken,
}

/// What [`Scheduler::complete`] tells the server about campaign progress.
pub struct Completion {
    /// The just-finished run's record (already stored), cloned for event
    /// emission.
    pub record: RunRecord,
    /// When this run was the campaign's last: the aggregated report.
    pub campaign_report: Option<CampaignReport>,
}

/// See the [module docs](self).
pub struct Scheduler {
    state: Mutex<State>,
    work: Condvar,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            state: Mutex::new(State {
                campaigns: BTreeMap::new(),
                running: BTreeMap::new(),
                next_id: 1,
                shutting_down: false,
            }),
            work: Condvar::new(),
        }
    }

    /// Admits a campaign: expands the matrix, freezes per-run scheduling
    /// costs from the current model fit, and wakes the workers. Returns
    /// `(campaign id, run count)`.
    pub fn submit(
        &self,
        matrix: &ScenarioMatrix,
        model: &CostModel,
    ) -> Result<(u64, usize), String> {
        let specs = matrix.expand().map_err(|e| e.to_string())?;
        if specs.is_empty() {
            return Err("spec expands to zero runs".to_string());
        }
        let mut state = lock(&self.state);
        if state.shutting_down {
            return Err("server is shutting down".to_string());
        }
        let id = state.next_id;
        state.next_id += 1;
        let costs = specs.iter().map(|s| model.scheduling_cost(s)).collect();
        let count = specs.len();
        let states = vec![RunState::Pending; count];
        let records = vec![None; count];
        state.campaigns.insert(
            id,
            Campaign {
                id,
                name: matrix.name.clone(),
                scenario_order: matrix.scenario_order(),
                specs,
                states,
                records,
                costs,
                served_cost: 0.0,
                cancelled: false,
                submitted: Instant::now(),
                report: None,
            },
        );
        self.work.notify_all();
        Ok((id, count))
    }

    /// Blocks until a run is claimable (returning it) or the scheduler is
    /// shutting down with nothing pending (returning `None` — the worker
    /// should exit). Claim order: the campaign with the smallest
    /// `(served_cost, cheapest pending cost, id)` wins, and surrenders its
    /// cheapest pending run.
    ///
    /// `predict` is consulted once per successful claim for the *live*
    /// cost-model estimate (the frozen ordering costs may be stale); it is
    /// a closure rather than a `&CostModel` so callers can keep the model
    /// behind its own lock without holding it across this call's blocking
    /// wait.
    pub fn claim(&self, predict: impl Fn(&RunSpec) -> f64) -> Option<Claim> {
        let mut state = lock(&self.state);
        loop {
            let choice = state
                .campaigns
                .values()
                .filter(|c| !c.cancelled)
                .filter_map(|c| c.cheapest_pending().map(|idx| (c, idx)))
                .min_by(|(a, ai), (b, bi)| {
                    a.served_cost
                        .total_cmp(&b.served_cost)
                        .then(a.costs[*ai].total_cmp(&b.costs[*bi]))
                        .then(a.id.cmp(&b.id))
                })
                .map(|(c, idx)| (c.id, idx));
            if let Some((campaign_id, run_idx)) = choice {
                let campaign = state
                    .campaigns
                    .get_mut(&campaign_id)
                    .expect("chosen campaign exists");
                campaign.states[run_idx] = RunState::Running;
                campaign.served_cost += campaign.costs[run_idx];
                let spec = campaign.specs[run_idx].clone();
                // The prediction is re-read from the *live* model (not the
                // frozen ordering costs): later campaigns sharpened it, and
                // the watchdog budget should use the best current estimate.
                let predicted_ms = predict(&spec);
                let token = CancelToken::new();
                state.running.insert(
                    (campaign_id, run_idx),
                    RunningRun {
                        token: token.clone(),
                        started: Instant::now(),
                        predicted_ms,
                    },
                );
                return Some(Claim {
                    campaign: campaign_id,
                    run: run_idx,
                    spec,
                    predicted_ms,
                    token,
                });
            }
            if state.shutting_down && state.running.is_empty() {
                return None;
            }
            state = self
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records a finished run. When it was the campaign's last, aggregates
    /// and stores the campaign report (also returned for event emission).
    pub fn complete(&self, campaign_id: u64, run_idx: usize, record: RunRecord) -> Completion {
        let mut state = lock(&self.state);
        state.running.remove(&(campaign_id, run_idx));
        let campaign = state
            .campaigns
            .get_mut(&campaign_id)
            .expect("completing a known campaign");
        campaign.states[run_idx] = RunState::Done;
        campaign.records[run_idx] = Some(record.clone());
        let campaign_report = campaign.finished().then(|| {
            let records: Vec<RunRecord> = campaign
                .records
                .iter()
                .map(|r| r.clone().expect("finished campaign has every record"))
                .collect();
            let report = aggregate_records(
                &campaign.name,
                &campaign.scenario_order,
                records,
                0,
                None,
                campaign.submitted.elapsed().as_secs_f64() * 1e3,
            );
            campaign.report = Some(report.clone());
            report
        });
        // Wake workers (a claim may have been blocked on shutdown-drain
        // accounting) and any status poller logic layered above.
        self.work.notify_all();
        Completion {
            record,
            campaign_report,
        }
    }

    /// Cancels a campaign: pending runs are recorded as aborted without
    /// executing (so the final report still covers the full expansion), and
    /// the tokens of its running runs are raised. Returns the number of
    /// pending runs skipped, or `None` for an unknown campaign.
    pub fn cancel(&self, campaign_id: u64) -> Option<(u64, Vec<Completion>)> {
        let mut state = lock(&self.state);
        let campaign = state.campaigns.get_mut(&campaign_id)?;
        campaign.cancelled = true;
        let skipped: Vec<usize> = campaign.pending_indices().collect();
        let specs: Vec<RunSpec> = skipped.iter().map(|&i| campaign.specs[i].clone()).collect();
        for (token_key, run) in state.running.iter() {
            if token_key.0 == campaign_id {
                run.token.cancel();
            }
        }
        drop(state);
        // Synthesize aborted records through the normal completion path so
        // report aggregation and event emission stay uniform.
        let completions: Vec<Completion> = skipped
            .into_iter()
            .zip(specs)
            .map(|(idx, spec)| self.complete(campaign_id, idx, aborted_record(&spec)))
            .collect();
        Some((completions.len() as u64, completions))
    }

    /// Begins a graceful shutdown: no new submissions, workers exit once
    /// everything already queued has drained.
    pub fn shutdown(&self) {
        lock(&self.state).shutting_down = true;
        self.work.notify_all();
    }

    /// Whether a shutdown is in progress.
    pub fn is_shutting_down(&self) -> bool {
        lock(&self.state).shutting_down
    }

    /// Whether every admitted run is done (used by the accept loop to know
    /// when a drain has converged).
    pub fn drained(&self) -> bool {
        let state = lock(&self.state);
        state.running.is_empty() && state.campaigns.values().all(Campaign::finished)
    }

    /// Cancel tokens of running runs whose elapsed wall time exceeds
    /// `max(predicted × multiplier, floor_ms)` — the early-abort watchdog's
    /// scan. Runs without a prediction are never killed: an unseeded model
    /// has no standing to call anything overdue.
    pub fn overdue_tokens(&self, multiplier: f64, floor_ms: f64) -> Vec<CancelToken> {
        let state = lock(&self.state);
        state
            .running
            .values()
            .filter(|run| run.predicted_ms > 0.0)
            .filter(|run| {
                let budget_ms = (run.predicted_ms * multiplier).max(floor_ms);
                run.started.elapsed().as_secs_f64() * 1e3 > budget_ms
            })
            .map(|run| run.token.clone())
            .collect()
    }

    /// The stored report of a finished campaign, if any.
    pub fn report(&self, campaign_id: u64) -> Option<CampaignReport> {
        lock(&self.state)
            .campaigns
            .get(&campaign_id)
            .and_then(|c| c.report.clone())
    }

    /// Status snapshot of every campaign, oldest first.
    pub fn campaign_statuses(&self) -> Vec<crate::proto::CampaignStatus> {
        let state = lock(&self.state);
        state
            .campaigns
            .values()
            .map(|c| {
                let finished = c.states.iter().filter(|s| **s == RunState::Done).count();
                let aborted = c
                    .records
                    .iter()
                    .flatten()
                    .filter(|r| r.outcome == RunOutcome::Aborted)
                    .count();
                let predicted_remaining_ms: f64 = c.pending_indices().map(|i| c.costs[i]).sum();
                crate::proto::CampaignStatus {
                    id: c.id,
                    name: c.name.clone(),
                    state: if c.cancelled {
                        "cancelled".to_string()
                    } else if c.finished() {
                        "done".to_string()
                    } else {
                        "running".to_string()
                    },
                    total_runs: c.specs.len() as u64,
                    finished_runs: finished as u64,
                    aborted_runs: aborted as u64,
                    predicted_remaining_ms,
                }
            })
            .collect()
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// A record for a run that was cancelled before it started: the identity
/// fields are real, every measurement is zero, the outcome is `aborted`.
fn aborted_record(spec: &RunSpec) -> RunRecord {
    RunRecord {
        outcome: RunOutcome::Aborted,
        ..RunRecord::unstarted(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(name: &str, n: u64, seeds: &str) -> ScenarioMatrix {
        ScenarioMatrix::from_toml_str(&format!(
            r#"
            [campaign]
            name = "{name}"

            [[scenario]]
            name = "{name}"
            graph = {{ family = "path", n = {n} }}
            seeds = {seeds}
            "#
        ))
        .unwrap()
    }

    #[test]
    fn deficit_fairness_interleaves_a_small_campaign_into_a_big_one() {
        let sched = Scheduler::new();
        let model = CostModel::new();
        // Big campaign first (4 runs of n=64), then a small one (1 run of
        // n=8). Work-proportional costs: big runs cost 192 each, small 24.
        let (big, _) = sched
            .submit(&matrix("big", 64, "[1, 2, 3, 4]"), &model)
            .unwrap();
        let (small, _) = sched.submit(&matrix("small", 8, "[1]"), &model).unwrap();
        // First claim: both campaigns have served 0; tie breaks to the
        // cheaper pending run, which is the small campaign's.
        let first = sched.claim(|s| model.predict(s)).unwrap();
        assert_eq!(first.campaign, small);
        // After the small campaign served 24, the big one (served 0) wins.
        let second = sched.claim(|s| model.predict(s)).unwrap();
        assert_eq!(second.campaign, big);
    }

    /// The claim order the `serve_end_to_end` integration test relies on,
    /// pinned without sockets or timing: a blocker campaign holds the only
    /// worker while a large and then a small campaign queue up; once the
    /// blocker is cancelled, the first claim goes to the small campaign.
    #[test]
    fn a_small_campaign_queued_behind_a_large_one_is_claimed_first() {
        let sched = Scheduler::new();
        let model = CostModel::new();
        let (blocker, _) = sched
            .submit(&matrix("blocker", 256, "[1, 2]"), &model)
            .unwrap();
        let running = sched.claim(|s| model.predict(s)).unwrap();
        assert_eq!(running.campaign, blocker);
        let large = ScenarioMatrix::from_toml_str(
            r#"
            [campaign]
            name = "large"

            [[scenario]]
            name = "big-star"
            graph = { family = "star_with_leaf_edges", n = 64 }
            initial = ["greedy_hub", "bfs"]
            seeds = [1, 2]
            "#,
        )
        .unwrap();
        let (large, large_runs) = sched.submit(&large, &model).unwrap();
        assert_eq!(large_runs, 4);
        let (small, _) = sched.submit(&matrix("small", 8, "[1]"), &model).unwrap();
        let (_, skipped) = sched.cancel(blocker).unwrap();
        assert_eq!(skipped.len(), 1, "the blocker's pending run is skipped");
        assert!(running.token.is_cancelled());
        sched.complete(blocker, running.run, aborted_record(&running.spec));
        let first = sched.claim(|s| model.predict(s)).unwrap();
        assert_eq!(first.campaign, small);
        let second = sched.claim(|s| model.predict(s)).unwrap();
        assert_eq!(second.campaign, large);
    }

    #[test]
    fn completion_of_the_last_run_aggregates_a_report() {
        let sched = Scheduler::new();
        let model = CostModel::new();
        let (id, runs) = sched.submit(&matrix("one", 8, "[1]"), &model).unwrap();
        assert_eq!(runs, 1);
        let claim = sched.claim(|s| model.predict(s)).unwrap();
        let done = sched.complete(id, claim.run, aborted_record(&claim.spec));
        let report = done.campaign_report.expect("last run closes the campaign");
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].outcome, RunOutcome::Aborted);
        assert_eq!(sched.report(id).unwrap().name, "one");
        assert!(sched.drained());
    }

    #[test]
    fn cancel_skips_pending_runs_and_raises_running_tokens() {
        let sched = Scheduler::new();
        let model = CostModel::new();
        let (id, _) = sched.submit(&matrix("c", 8, "[1, 2, 3]"), &model).unwrap();
        let claim = sched.claim(|s| model.predict(s)).unwrap();
        assert!(!claim.token.is_cancelled());
        let (_, completions) = sched.cancel(id).unwrap();
        // The two never-claimed runs were synthesized as aborted…
        assert_eq!(completions.len(), 2);
        // …and the in-flight run's token is up.
        assert!(claim.token.is_cancelled());
        // Completing the in-flight run closes the campaign.
        let done = sched.complete(id, claim.run, aborted_record(&claim.spec));
        let report = done.campaign_report.unwrap();
        assert_eq!(report.runs.len(), 3);
        assert!(report.runs.iter().all(|r| r.outcome == RunOutcome::Aborted));
        let status = &sched.campaign_statuses()[0];
        assert_eq!(status.state, "cancelled");
        assert_eq!(status.aborted_runs, 3);
    }

    #[test]
    fn shutdown_drains_claims_then_releases_workers() {
        let sched = Scheduler::new();
        let model = CostModel::new();
        let (id, _) = sched.submit(&matrix("d", 8, "[1]"), &model).unwrap();
        sched.shutdown();
        assert!(sched.submit(&matrix("late", 8, "[1]"), &model).is_err());
        // The already-queued run still gets claimed (drain semantics)…
        let claim = sched
            .claim(|s| model.predict(s))
            .expect("queued work drains");
        sched.complete(id, claim.run, aborted_record(&claim.spec));
        // …and with nothing left, claim returns None so workers exit.
        assert!(sched.claim(|s| model.predict(s)).is_none());
    }

    #[test]
    fn watchdog_only_flags_predicted_runs_past_their_budget() {
        let sched = Scheduler::new();
        let mut model = CostModel::new();
        let (_, _) = sched.submit(&matrix("w", 8, "[1]"), &model).unwrap();
        let _claim = sched.claim(|s| model.predict(s)).unwrap();
        // Unseeded model → predicted 0 → never overdue, even at budget 0.
        assert!(sched.overdue_tokens(0.0, 0.0).is_empty());
        // Seed the model, claim a predicted run, and shrink the budget to
        // zero: the elapsed time (however small) now exceeds it.
        let m = matrix("w2", 8, "[1]");
        let report =
            mdst_scenario::run_campaign(&m, &mdst_scenario::RunnerConfig::default()).unwrap();
        model.seed_from_report(&report);
        let (_, _) = sched.submit(&m, &model).unwrap();
        let claim = sched.claim(|s| model.predict(s)).unwrap();
        assert!(claim.predicted_ms > 0.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let overdue = sched.overdue_tokens(0.0, 0.0);
        assert_eq!(overdue.len(), 1);
        overdue[0].cancel();
        assert!(claim.token.is_cancelled());
    }
}
