//! The resident campaign server behind `scenario serve`.
//!
//! One process, std-only: a nonblocking `UnixListener` accept loop, N
//! worker threads multiplexing every resident campaign through the
//! [`crate::scheduler::Scheduler`], a watchdog thread enforcing the
//! cost-model early-abort budget, and one shared
//! [`mdst_scenario::TopologyCache`] so concurrent campaigns sweeping the
//! same graphs build each topology exactly once.
//!
//! Every campaign owns an append-only JSONL event log (`EventLog`): run
//! lifecycle transitions and forwarded per-run observer events, each
//! stamped with one *global* sequence number. `watch` connections replay
//! the log from any sequence number and then follow it live (condvar-woken,
//! no polling) until the campaign's final event. The log is retained after
//! completion, so a watcher that connects late still sees the whole story.

use crate::cost::CostModel;
use crate::proto::{read_request, write_line, Event, Request, Response, ServeStatus, SpecFormat};
use crate::scheduler::{Claim, Completion, Scheduler};
use mdst_core::{ChannelObserver, SessionEvent};
use mdst_scenario::prelude::ScenarioMatrix;
use mdst_scenario::{execute_run_controlled, CampaignReport, RunControls, TopologyCache};
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

/// Append-only JSONL log of one campaign's events, with a condvar so
/// watchers block (instead of polling) while the campaign is live.
struct EventLog {
    lines: Mutex<(Vec<String>, bool)>,
    grew: Condvar,
}

impl EventLog {
    fn new() -> Self {
        EventLog {
            lines: Mutex::new((Vec::new(), false)),
            grew: Condvar::new(),
        }
    }

    fn append(&self, line: String, last: bool) {
        let mut state = self.lines.lock().unwrap_or_else(PoisonError::into_inner);
        state.0.push(line);
        state.1 |= last;
        self.grew.notify_all();
    }

    /// Lines from index `from` onwards, blocking until at least one more
    /// exists or the log is closed. Returns `None` when closed with nothing
    /// further.
    fn wait_from(&self, from: usize) -> Option<Vec<String>> {
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
            .append(event.to_value().to_json(), last);
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
        let key = mdst_scenario::run_key(
            &spec.scenario,
            &spec.graph.label(),
            &spec.initial,
            &spec.delay.label(),
            &spec.start.label(),
            &spec.faults.label(),
            spec.executor.label(),
            spec.batch,
            spec.seed,
        );
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
        // Observer events flow through an mpsc channel to a drain thread
        // that appends them to the campaign log while the run executes, so
        // a watcher sees the construction-phase boundary live, not after
        // quiescence.
        let (tx, rx) = std::sync::mpsc::channel::<SessionEvent>();
        let drain_key = key.clone();
        let record = std::thread::scope(|scope| {
            scope.spawn(move || {
                for event in rx {
                    let (kind, detail) = describe_session_event(&event);
                    self.emit(
                        campaign,
                        &Event::Observer {
                            seq: self.next_seq(),
                            campaign,
                            key: drain_key.clone(),
                            kind,
                            detail,
                        },
                        false,
                    );
                }
            });
            let mut forwarder = ChannelObserver::new(tx);
            execute_run_controlled(
                &spec,
                &self.topologies,
                RunControls {
                    progress: false,
                    cancel: Some(token),
                    predicted_wall_ms: predicted_ms,
                    observer: Some(&mut forwarder),
                },
            )
            // `forwarder` (and its channel sender) drops here, closing the
            // drain thread's iterator; the scope joins it before returning.
        });
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
                // Snapshot the model before touching the scheduler: claim
                // takes the scheduler lock first and the cost lock second,
                // so holding cost across `submit` would invert the order.
                let model = self
                    .cost
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                let response = match parsed
                    .map_err(|e| e.to_string())
                    .and_then(|matrix| self.scheduler.submit(&matrix, &model))
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
                while let Some(lines) = log.wait_from(cursor) {
                    cursor += lines.len();
                    for line in lines {
                        // Seq filtering happens on the decoded event so the
                        // stream stays plain JSONL.
                        let keep = serde::from_json_str(&line)
                            .ok()
                            .and_then(|v| {
                                use serde::Deserialize;
                                Event::from_value(&v).ok()
                            })
                            .is_none_or(|e| e.seq() >= from_seq);
                        if keep {
                            use std::io::Write;
                            if writer
                                .write_all(line.as_bytes())
                                .and_then(|()| writer.write_all(b"\n"))
                                .and_then(|()| writer.flush())
                                .is_err()
                            {
                                return; // watcher went away
                            }
                        }
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

/// Human-readable flattening of one observer callback for the event stream.
fn describe_session_event(event: &SessionEvent) -> (String, String) {
    match event {
        SessionEvent::Construction(c) => (
            "construction".to_string(),
            format!(
                "n={} m={} initial_degree={} construction_messages={}",
                c.n, c.m, c.initial_degree, c.construction_messages
            ),
        ),
        SessionEvent::Round(r) => (
            "round".to_string(),
            format!("round={} improved={:?}", r.round, r.improved),
        ),
        SessionEvent::Exchange(e) => ("exchange".to_string(), format!("index={}", e.index)),
        SessionEvent::Fault(f) => ("fault".to_string(), format!("{f:?}")),
        SessionEvent::Finish(f) => (
            "finish".to_string(),
            format!(
                "outcome={} rounds={} improvements={} final_degree={} wall_ms={:.3}",
                f.outcome, f.rounds, f.improvements, f.final_degree, f.wall_ms
            ),
        ),
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
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
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
        // drain, like the workers.
        scope.spawn(|| loop {
            for token in inner
                .scheduler
                .overdue_tokens(abort_multiplier, abort_floor_ms)
            {
                token.cancel();
            }
            if inner.scheduler.is_shutting_down() && inner.scheduler.drained() {
                return;
            }
            std::thread::park_timeout(Duration::from_millis(20));
        });
        // Accept loop: nonblocking + short sleeps so a shutdown request is
        // noticed promptly; every connection gets its own handler thread
        // (watch connections live as long as their campaign).
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    scope.spawn(|| inner.handle_connection(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if inner.scheduler.is_shutting_down() && inner.scheduler.drained() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25));
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
