//! The resident campaign server behind `scenario serve`.
//!
//! One process, std-only: a blocking `UnixListener` accept loop, N
//! worker threads multiplexing every resident campaign through the
//! [`mdst_scenario::Scheduler`] (the executor `scenario run` also claims
//! through), a watchdog thread enforcing the
//! cost-model early-abort budget, and one shared
//! [`mdst_scenario::TopologyCache`] so concurrent campaigns sweeping the
//! same graphs build each topology exactly once.
//!
//! Every campaign owns an append-only JSONL event log (`EventLog`): run
//! lifecycle transitions and per-run observer events (appended by the
//! worker running the run, as they fire), each stamped with one *global*
//! sequence number. `watch` connections replay the log from any sequence
//! number and then follow it live (condvar-woken, no polling, one flush per
//! batch of new lines) until the campaign's final event. The log is
//! retained after completion, so a watcher that connects late still sees
//! the whole story.
//!
//! The accept loop blocks in `accept()`, so a request is served as soon as it
//! connects. A graceful shutdown ends it with one connection to the server's
//! own socket: once the drain converges, the watchdog connects, and the loop
//! exits on the first connection it accepts after the drain.

use crate::cost::CostModel;
use crate::proto::{read_request, write_line, Event, Request, Response, ServeStatus, SpecFormat};
use mdst_core::{ConstructionEvent, ExchangeEvent, FaultEvent, Observer, RoundEvent, RunReport};
use mdst_scenario::prelude::{RunSpec, ScenarioMatrix};
use mdst_scenario::{
    execute_run_controlled, CampaignReport, Claim, Completion, RunControls, Scheduler,
    TopologyCache,
};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Tuning of one [`serve`] instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Socket path; an existing file is replaced (a previous server's
    /// leftover).
    pub socket: PathBuf,
    /// Worker threads (`0` = one per available CPU).
    pub workers: usize,
    /// Early-abort budget: a run is cancelled once its elapsed wall time
    /// exceeds `predicted × abort_multiplier` (and the floor). Generous by
    /// default — the watchdog exists to kill order-of-magnitude blowups,
    /// not jitter.
    pub abort_multiplier: f64,
    /// Absolute floor (milliseconds) under which the watchdog never kills,
    /// whatever the multiplier says: predictions on micro-runs are noise.
    pub abort_floor_ms: f64,
    /// Past campaign reports (JSON paths) folded into the cost model before
    /// the first submission.
    pub seed_reports: Vec<PathBuf>,
    /// Suppress per-event stderr narration.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: crate::proto::default_socket(),
            workers: 0,
            abort_multiplier: 8.0,
            abort_floor_ms: 250.0,
            seed_reports: Vec::new(),
            quiet: false,
        }
    }
}

/// Append-only JSONL log of one campaign's events, each line stored with
/// its event's sequence number, with a condvar so watchers block (instead of
/// polling) while the campaign is live.
struct EventLog {
    lines: Mutex<(Vec<(u64, String)>, bool)>,
    grew: Condvar,
}

impl EventLog {
    fn new() -> Self {
        EventLog {
            lines: Mutex::new((Vec::new(), false)),
            grew: Condvar::new(),
        }
    }

    fn append(&self, seq: u64, line: String, last: bool) {
        let mut state = self.lines.lock().unwrap_or_else(PoisonError::into_inner);
        state.0.push((seq, line));
        state.1 |= last;
        self.grew.notify_all();
    }

    /// Lines from index `from` onwards, blocking until at least one more
    /// exists or the log is closed. Returns `None` when closed with nothing
    /// further.
    fn wait_from(&self, from: usize) -> Option<Vec<(u64, String)>> {
        let mut state = self.lines.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.0.len() > from {
                return Some(state.0[from..].to_vec());
            }
            if state.1 {
                return None;
            }
            state = self
                .grew
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Inner {
    scheduler: Scheduler,
    cost: Mutex<CostModel>,
    topologies: TopologyCache,
    logs: Mutex<BTreeMap<u64, Arc<EventLog>>>,
    seq: AtomicU64,
    workers: usize,
    quiet: bool,
}

impl Inner {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// The campaign's event log, created on first touch: the submit
    /// handler, the first worker to claim one of its runs, and watchers all
    /// race to be that first touch, and none of them may lose events to the
    /// others.
    fn log_of(&self, campaign: u64) -> Arc<EventLog> {
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(campaign)
            .or_insert_with(|| Arc::new(EventLog::new()))
            .clone()
    }

    fn emit(&self, campaign: u64, event: &Event, last: bool) {
        use serde::Serialize;
        self.log_of(campaign)
            .append(event.seq(), event.to_value().to_json(), last);
    }

    /// One worker's life: claim, execute with cancellation + prediction +
    /// a forwarding observer, report back, repeat until drained shutdown.
    fn worker_loop(&self) {
        // The predictor closure takes the cost lock only inside a
        // successful claim — never across `claim`'s blocking wait, which
        // would deadlock submissions against the model.
        let predict = |spec: &_| {
            self.cost
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .predict(spec)
        };
        while let Some(claim) = self.scheduler.claim(predict) {
            self.execute_claim(claim);
        }
    }

    fn execute_claim(&self, claim: Claim) {
        let Claim {
            campaign,
            run,
            spec,
            predicted_ms,
            token,
        } = claim;
        let key = spec.key();
        self.emit(
            campaign,
            &Event::RunStarted {
                seq: self.next_seq(),
                campaign,
                key: key.clone(),
                predicted_ms,
            },
            false,
        );
        // Observer callbacks are appended to the campaign log by this worker
        // as they fire, so a watcher sees the construction-phase boundary
        // live, not after quiescence.
        let mut forwarder = LogObserver {
            inner: self,
            campaign,
            key: &key,
        };
        let record = execute_run_controlled(
            &spec,
            &self.topologies,
            RunControls {
                progress: false,
                cancel: Some(token),
                predicted_wall_ms: predicted_ms,
                observer: Some(&mut forwarder),
            },
        );
        {
            let mut model = self.cost.lock().unwrap_or_else(PoisonError::into_inner);
            model.observe(&record);
        }
        if !self.quiet {
            eprintln!(
                "serve: campaign {campaign} {key}: {} ({:.1} ms, predicted {:.1} ms)",
                record.outcome.label(),
                record.exec_wall_ms,
                predicted_ms,
            );
        }
        let outcome = record.outcome.label().to_string();
        let exec_wall_ms = record.exec_wall_ms;
        let completion = self.scheduler.complete(campaign, run, record);
        self.emit(
            campaign,
            &Event::RunFinished {
                seq: self.next_seq(),
                campaign,
                key,
                outcome,
                exec_wall_ms,
                predicted_ms,
            },
            false,
        );
        self.finish_campaign_if_done(campaign, completion);
    }

    fn finish_campaign_if_done(&self, campaign: u64, completion: Completion) {
        let Completion {
            campaign_report: Some(report),
            ..
        } = completion
        else {
            return;
        };
        self.emit(
            campaign,
            &Event::CampaignFinished {
                seq: self.next_seq(),
                campaign,
                report,
            },
            true,
        );
    }

    fn status(&self) -> ServeStatus {
        let (hits, misses) = self.topologies.stats();
        ServeStatus {
            workers: self.workers as u64,
            cache_hits: hits,
            cache_misses: misses,
            campaigns: self.scheduler.campaign_statuses(),
            cost_buckets: self
                .cost
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .status(),
        }
    }

    fn handle_connection(&self, stream: UnixStream) {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        });
        let mut writer = BufWriter::new(stream);
        let request = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(message) => {
                let _ = write_line(&mut writer, &Response::Error { message });
                return;
            }
        };
        match request {
            Request::Submit { spec, format } => {
                let parsed = match format {
                    SpecFormat::Toml => ScenarioMatrix::from_toml_str(&spec),
                    SpecFormat::Json => ScenarioMatrix::from_json_str(&spec),
                };
                // Price the runs under the cost lock and release it before
                // `submit`: claim takes the scheduler lock first and the cost
                // lock second, so holding cost across `submit` would invert
                // the order.
                let price = |runs: Vec<RunSpec>| -> Vec<(RunSpec, f64)> {
                    let model = self.cost.lock().unwrap_or_else(PoisonError::into_inner);
                    runs.into_iter()
                        .map(|spec| {
                            let cost = model.scheduling_cost(&spec);
                            (spec, cost)
                        })
                        .collect()
                };
                let response = match parsed
                    .and_then(|matrix| matrix.expand().map(|runs| (matrix, runs)))
                    .map_err(|e| e.to_string())
                    .and_then(|(matrix, runs)| self.scheduler.submit(&matrix, price(runs)))
                {
                    Ok((campaign, runs)) => {
                        let _ = self.log_of(campaign);
                        if !self.quiet {
                            eprintln!("serve: campaign {campaign} submitted ({runs} runs)");
                        }
                        Response::Submitted {
                            campaign,
                            runs: runs as u64,
                        }
                    }
                    Err(message) => Response::Error { message },
                };
                let _ = write_line(&mut writer, &response);
            }
            Request::Watch { campaign, from_seq } => {
                let known = self
                    .scheduler
                    .campaign_statuses()
                    .iter()
                    .any(|c| c.id == campaign);
                if !known {
                    let _ = write_line(
                        &mut writer,
                        &Response::Error {
                            message: format!("unknown campaign {campaign}"),
                        },
                    );
                    return;
                }
                let log = self.log_of(campaign);
                if write_line(&mut writer, &Response::Watching { campaign }).is_err() {
                    return;
                }
                let mut cursor = 0usize;
                // One flush per batch of new lines, not per line: a burst of
                // events reaches the watcher in one write.
                while let Some(lines) = log.wait_from(cursor) {
                    use std::io::Write;
                    cursor += lines.len();
                    let sent = lines
                        .iter()
                        .filter(|(seq, _)| *seq >= from_seq)
                        .try_for_each(|(_, line)| {
                            writer
                                .write_all(line.as_bytes())
                                .and_then(|()| writer.write_all(b"\n"))
                        })
                        .and_then(|()| writer.flush());
                    if sent.is_err() {
                        return; // watcher went away
                    }
                }
            }
            Request::Status => {
                let _ = write_line(&mut writer, &Response::Status(self.status()));
            }
            Request::Cancel { campaign } => {
                let response = match self.scheduler.cancel(campaign) {
                    Some((skipped_runs, completions)) => {
                        for completion in completions {
                            self.finish_campaign_if_done(campaign, completion);
                        }
                        Response::Cancelled {
                            campaign,
                            skipped_runs,
                        }
                    }
                    None => Response::Error {
                        message: format!("unknown campaign {campaign}"),
                    },
                };
                let _ = write_line(&mut writer, &response);
            }
            Request::Shutdown => {
                self.scheduler.shutdown();
                let _ = write_line(&mut writer, &Response::ShuttingDown);
            }
        }
    }
}

/// A run's observer tap: every callback becomes one human-readable
/// `Observer` event in the campaign's log, appended on the worker's thread.
struct LogObserver<'a> {
    inner: &'a Inner,
    campaign: u64,
    key: &'a str,
}

impl LogObserver<'_> {
    fn emit(&self, kind: &str, detail: String) {
        self.inner.emit(
            self.campaign,
            &Event::Observer {
                seq: self.inner.next_seq(),
                campaign: self.campaign,
                key: self.key.to_string(),
                kind: kind.to_string(),
                detail,
            },
            false,
        );
    }
}

impl Observer for LogObserver<'_> {
    fn on_construction_done(&mut self, c: &ConstructionEvent) {
        self.emit(
            "construction",
            format!(
                "n={} m={} initial_degree={} construction_messages={}",
                c.n, c.m, c.initial_degree, c.construction_messages
            ),
        );
    }

    fn on_round(&mut self, r: &RoundEvent) {
        self.emit(
            "round",
            format!("round={} improved={:?}", r.round, r.improved),
        );
    }

    fn on_exchange(&mut self, e: &ExchangeEvent) {
        self.emit("exchange", format!("index={}", e.index));
    }

    fn on_fault(&mut self, f: &FaultEvent) {
        self.emit("fault", format!("{f:?}"));
    }

    fn on_finish(&mut self, report: &RunReport) {
        self.emit(
            "finish",
            format!(
                "outcome={} rounds={} improvements={} final_degree={} wall_ms={:.3}",
                report.outcome.label(),
                report.rounds,
                report.improvements,
                report.final_degree,
                report.wall_ms
            ),
        );
    }
}

/// Runs the campaign service until a graceful shutdown completes. Binds the
/// socket, seeds the cost model, spawns the workers and the watchdog, then
/// accepts connections; returns once a `shutdown` request has drained every
/// queued run.
pub fn serve(config: &ServeConfig) -> Result<(), String> {
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        config.workers
    };
    let mut model = CostModel::new();
    for path in &config.seed_reports {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = serde::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        use serde::Deserialize;
        let report = CampaignReport::from_value(&value)
            .map_err(|e| format!("{}: not a campaign report: {e}", path.display()))?;
        model.seed_from_report(&report);
        if !config.quiet {
            eprintln!(
                "serve: cost model seeded from {} ({} runs)",
                path.display(),
                report.runs.len()
            );
        }
    }
    // A leftover socket file from a dead server blocks bind; replace it.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("binding {}: {e}", config.socket.display()))?;
    if !config.quiet {
        eprintln!(
            "serve: listening on {} ({workers} workers)",
            config.socket.display()
        );
    }
    let inner = Inner {
        scheduler: Scheduler::new(),
        cost: Mutex::new(model),
        topologies: TopologyCache::new(),
        logs: Mutex::new(BTreeMap::new()),
        seq: AtomicU64::new(0),
        workers,
        quiet: config.quiet,
    };
    let abort_multiplier = config.abort_multiplier;
    let abort_floor_ms = config.abort_floor_ms;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| inner.worker_loop());
        }
        // Watchdog: scan the running set for budget blowups. Exits with the
        // drain, like the workers, and on its way out wakes the accept loop,
        // which is blocked in `accept()`. The wake waits for `drained()`
        // rather than for the workers: they can exit while a cancel is still
        // recording its skipped runs.
        scope.spawn(|| loop {
            for token in inner
                .scheduler
                .overdue_tokens(abort_multiplier, abort_floor_ms)
            {
                token.cancel();
            }
            if inner.scheduler.is_shutting_down() && inner.scheduler.drained() {
                // Without the socket no client can reach the server either.
                if let Err(e) = UnixStream::connect(&config.socket) {
                    eprintln!("serve: waking the accept loop failed: {e}");
                }
                return;
            }
            std::thread::park_timeout(Duration::from_millis(20));
        });
        // Accept loop: every connection gets its own handler thread (watch
        // connections live as long as their campaign). The first connection
        // accepted after the drain (the watchdog's wake-up) ends it.
        loop {
            match listener.accept() {
                Ok(_) if inner.scheduler.is_shutting_down() && inner.scheduler.drained() => break,
                Ok((stream, _)) => {
                    scope.spawn(|| inner.handle_connection(stream));
                }
                Err(_) => break,
            }
        }
    });
    let _ = std::fs::remove_file(&config.socket);
    if !config.quiet {
        eprintln!("serve: drained, exiting");
    }
    Ok(())
}
