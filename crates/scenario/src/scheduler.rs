//! Cost-aware, campaign-fair run scheduler: the one campaign executor.
//!
//! Both campaign front ends claim their runs here. `scenario serve` keeps
//! one `Scheduler` resident and multiplexes every submitted campaign over
//! its worker pool; [`crate::run_campaign`] (`scenario run`) is a private
//! single-campaign session that submits, shuts down at once and lets its
//! workers drain the queue. Two forces shape the claim order:
//!
//! * **Cheapest claim cost first** *within* a campaign. The submitter picks
//!   the costs: serve passes its cost model's prediction, so cheap runs
//!   complete early and watchers see progress; `scenario run` passes each
//!   run's rank (expansion order, or the `--shuffle` permutation), so runs
//!   are claimed in exactly that order. Ties break by expansion index.
//! * **Deficit fairness** *across* campaigns: every campaign accumulates
//!   `served_cost` (the sum of costs of runs already claimed for it), and
//!   workers always claim for the campaign with the least served cost. A
//!   huge campaign therefore cannot starve a small one submitted later —
//!   the small one's total cost is low, so it keeps winning claims until it
//!   completes.
//!
//! The scheduler is a plain `Mutex` + `Condvar` state machine with no
//! threads of its own: worker threads call [`Scheduler::claim`] (blocking)
//! and [`Scheduler::complete`], the server's watchdog calls
//! [`Scheduler::overdue_tokens`], and client handlers call the submit /
//! cancel / status entry points. Every decision is deterministic given the
//! claim interleaving, which keeps the unit tests honest.

use crate::runner::{aggregate_records, CampaignReport, RunOutcome, RunRecord};
use crate::spec::{RunSpec, ScenarioMatrix};
use mdst_netsim::CancelToken;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One resident campaign.
struct Campaign {
    id: u64,
    name: String,
    scenario_order: Vec<String>,
    specs: Vec<RunSpec>,
    /// One slot per run, filled when the run completes.
    records: Vec<Option<RunRecord>>,
    /// Claim cost per run, frozen at submit time so the claim order is
    /// stable (serve's cost model keeps learning for *later* campaigns).
    costs: Vec<f64>,
    /// Run indices in claim order, by (cost, index). The costs are frozen,
    /// so the order is fixed at submit and a claim is O(1) however large
    /// the campaign.
    queue: Vec<usize>,
    /// How many runs of `queue` have left it (claimed, or skipped by a
    /// cancel); the rest are pending.
    claimed: usize,
    /// Runs whose record is in.
    done: usize,
    /// Sum of costs of runs already claimed — the fairness deficit counter.
    served_cost: f64,
    cancelled: bool,
    submitted: Instant,
    report: Option<CampaignReport>,
}

impl Campaign {
    /// Pending runs, cheapest first.
    fn pending(&self) -> &[usize] {
        &self.queue[self.claimed..]
    }

    /// The cheapest pending run, by (cost, index).
    fn cheapest_pending(&self) -> Option<usize> {
        self.pending().first().copied()
    }

    fn finished(&self) -> bool {
        self.done == self.specs.len()
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
    /// Predicted milliseconds from the claim's `predict` closure (0 = no
    /// prediction).
    pub predicted_ms: f64,
    /// Cancel token the watchdog / a cancel request may raise mid-run.
    pub token: CancelToken,
}

/// What [`Scheduler::complete`] tells the worker about campaign progress.
pub struct Completion {
    /// The just-finished run's record (already stored), cloned for event
    /// emission.
    pub record: RunRecord,
    /// When this run was the campaign's last: the aggregated report.
    pub campaign_report: Option<CampaignReport>,
}

/// One campaign's scheduling state, as `scenario status` reports it (part
/// of the service's wire format).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: u64,
    /// Campaign name from the spec.
    pub name: String,
    /// `"running"`, `"done"` or `"cancelled"`.
    pub state: String,
    /// Total expanded runs.
    pub total_runs: u64,
    /// Runs finished (including aborted ones).
    pub finished_runs: u64,
    /// Runs that ended aborted (cancelled or watchdog-killed).
    pub aborted_runs: u64,
    /// Predicted milliseconds of work still pending (0 when the cost model
    /// has no prediction for the remaining runs).
    pub predicted_remaining_ms: f64,
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

    /// Admits a campaign: its expanded runs, each paired with the claim cost
    /// that orders it (see the [module docs](self)), and wakes the workers.
    /// Returns `(campaign id, run count)`.
    pub fn submit(
        &self,
        matrix: &ScenarioMatrix,
        runs: Vec<(RunSpec, f64)>,
    ) -> Result<(u64, usize), String> {
        if runs.is_empty() {
            return Err("spec expands to zero runs".to_string());
        }
        let mut state = lock(&self.state);
        if state.shutting_down {
            return Err("server is shutting down".to_string());
        }
        let id = state.next_id;
        state.next_id += 1;
        let (specs, costs): (Vec<RunSpec>, Vec<f64>) = runs.into_iter().unzip();
        let count = specs.len();
        let mut queue: Vec<usize> = (0..count).collect();
        queue.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
        let records = vec![None; count];
        state.campaigns.insert(
            id,
            Campaign {
                id,
                name: matrix.name.clone(),
                scenario_order: matrix.scenario_order(),
                specs,
                records,
                costs,
                queue,
                claimed: 0,
                done: 0,
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
    /// a closure so callers can keep their model behind its own lock without
    /// holding it across this call's blocking wait. Callers without a model
    /// pass `|_| 0.0`.
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
                campaign.claimed += 1;
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
        campaign.records[run_idx] = Some(record.clone());
        campaign.done += 1;
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
        let skipped: Vec<usize> = campaign.pending().to_vec();
        campaign.claimed = campaign.queue.len();
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
    pub fn campaign_statuses(&self) -> Vec<CampaignStatus> {
        let state = lock(&self.state);
        state
            .campaigns
            .values()
            .map(|c| {
                let aborted = c
                    .records
                    .iter()
                    .flatten()
                    .filter(|r| r.outcome == RunOutcome::Aborted)
                    .count();
                let predicted_remaining_ms: f64 = c.pending().iter().map(|&i| c.costs[i]).sum();
                CampaignStatus {
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
                    finished_runs: c.done as u64,
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

    /// Submits `matrix` with the costs an unseeded serve cost model assigns:
    /// work-proportional, three units per declared node.
    fn submit_by_work(sched: &Scheduler, matrix: &ScenarioMatrix) -> Result<(u64, usize), String> {
        let runs = matrix
            .expand()
            .unwrap()
            .into_iter()
            .map(|spec| {
                let work = spec.graph.n_hint().unwrap_or(0) as f64 * 3.0;
                (spec, work)
            })
            .collect();
        sched.submit(matrix, runs)
    }

    fn unpredicted(_: &RunSpec) -> f64 {
        0.0
    }

    #[test]
    fn deficit_fairness_interleaves_a_small_campaign_into_a_big_one() {
        let sched = Scheduler::new();
        // Big campaign first (4 runs of n=64), then a small one (1 run of
        // n=8). Work-proportional costs: big runs cost 192 each, small 24.
        let (big, _) = submit_by_work(&sched, &matrix("big", 64, "[1, 2, 3, 4]")).unwrap();
        let (small, _) = submit_by_work(&sched, &matrix("small", 8, "[1]")).unwrap();
        // First claim: both campaigns have served 0; tie breaks to the
        // cheaper pending run, which is the small campaign's.
        let first = sched.claim(unpredicted).unwrap();
        assert_eq!(first.campaign, small);
        // After the small campaign served 24, the big one (served 0) wins.
        let second = sched.claim(unpredicted).unwrap();
        assert_eq!(second.campaign, big);
    }

    /// The claim order the `serve_end_to_end` integration test relies on,
    /// pinned without sockets or timing: a blocker campaign holds the only
    /// worker while a large and then a small campaign queue up; once the
    /// blocker is cancelled, the first claim goes to the small campaign.
    #[test]
    fn a_small_campaign_queued_behind_a_large_one_is_claimed_first() {
        let sched = Scheduler::new();
        let (blocker, _) = submit_by_work(&sched, &matrix("blocker", 256, "[1, 2]")).unwrap();
        let running = sched.claim(unpredicted).unwrap();
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
        let (large, large_runs) = submit_by_work(&sched, &large).unwrap();
        assert_eq!(large_runs, 4);
        let (small, _) = submit_by_work(&sched, &matrix("small", 8, "[1]")).unwrap();
        let (_, skipped) = sched.cancel(blocker).unwrap();
        assert_eq!(skipped.len(), 1, "the blocker's pending run is skipped");
        assert!(running.token.is_cancelled());
        sched.complete(blocker, running.run, aborted_record(&running.spec));
        let first = sched.claim(unpredicted).unwrap();
        assert_eq!(first.campaign, small);
        let second = sched.claim(unpredicted).unwrap();
        assert_eq!(second.campaign, large);
    }

    #[test]
    fn completion_of_the_last_run_aggregates_a_report() {
        let sched = Scheduler::new();
        let (id, runs) = submit_by_work(&sched, &matrix("one", 8, "[1]")).unwrap();
        assert_eq!(runs, 1);
        let claim = sched.claim(unpredicted).unwrap();
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
        let (id, _) = submit_by_work(&sched, &matrix("c", 8, "[1, 2, 3]")).unwrap();
        let claim = sched.claim(unpredicted).unwrap();
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
        let (id, _) = submit_by_work(&sched, &matrix("d", 8, "[1]")).unwrap();
        sched.shutdown();
        assert!(submit_by_work(&sched, &matrix("late", 8, "[1]")).is_err());
        // The already-queued run still gets claimed (drain semantics)…
        let claim = sched.claim(unpredicted).expect("queued work drains");
        sched.complete(id, claim.run, aborted_record(&claim.spec));
        // …and with nothing left, claim returns None so workers exit.
        assert!(sched.claim(unpredicted).is_none());
    }

    #[test]
    fn watchdog_only_flags_predicted_runs_past_their_budget() {
        let sched = Scheduler::new();
        let (_, _) = submit_by_work(&sched, &matrix("w", 8, "[1]")).unwrap();
        let _claim = sched.claim(unpredicted).unwrap();
        // Unpredicted run → predicted 0 → never overdue, even at budget 0.
        assert!(sched.overdue_tokens(0.0, 0.0).is_empty());
        // Claim a predicted run and shrink the budget to zero: the elapsed
        // time (however small) now exceeds it.
        let (_, _) = submit_by_work(&sched, &matrix("w2", 8, "[1]")).unwrap();
        let claim = sched.claim(|_| 1.5).unwrap();
        assert_eq!(claim.predicted_ms, 1.5);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let overdue = sched.overdue_tokens(0.0, 0.0);
        assert_eq!(overdue.len(), 1);
        overdue[0].cancel();
        assert!(claim.token.is_cancelled());
    }

    /// `scenario run --shuffle` submits each run's rank in the seeded
    /// permutation as its claim cost: the claims must follow the ranks
    /// exactly, whatever the expansion order.
    #[test]
    fn rank_costs_are_claimed_in_rank_order() {
        let sched = Scheduler::new();
        let m = matrix("ranked", 8, "[1, 2, 3, 4, 5, 6]");
        let ranks = [3.0, 0.0, 5.0, 1.0, 4.0, 2.0];
        let runs = m.expand().unwrap().into_iter().zip(ranks).collect();
        let (id, count) = sched.submit(&m, runs).unwrap();
        assert_eq!(count, 6);
        sched.shutdown();
        let mut order = Vec::new();
        while let Some(claim) = sched.claim(unpredicted) {
            assert_eq!(claim.campaign, id);
            order.push(claim.run);
            sched.complete(id, claim.run, aborted_record(&claim.spec));
        }
        assert_eq!(order, vec![1, 3, 5, 0, 4, 2]);
        assert!(sched.drained());
    }
}
