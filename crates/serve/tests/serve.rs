//! End-to-end tests of the resident campaign service: a real server on a
//! temp Unix socket, driven entirely through [`mdst_serve::client`] — the
//! same calls the `scenario submit|watch|status|cancel|shutdown`
//! subcommands make.

use mdst_scenario::prelude::ScenarioMatrix;
use mdst_scenario::{run_campaign, RunnerConfig};
use mdst_serve::proto::{Event, Response, MAX_REQUEST_BYTES};
use mdst_serve::{client, serve, ServeConfig, SpecFormat};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// A socket path unique to this test (parallel tests in one process get
/// distinct names).
fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mdst-serve-test-{}-{tag}.sock", std::process::id()))
}

/// Polls `status` until the server accepts connections.
fn wait_for_server(socket: &Path) {
    for _ in 0..1000 {
        if client::status(socket).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never came up on {}", socket.display());
}

/// Decodes every captured JSONL line back into an [`Event`] — the stream
/// contract is that each line parses on its own.
fn parse_events(raw: &[u8]) -> Vec<Event> {
    use serde::Deserialize;
    let text = String::from_utf8(raw.to_vec()).expect("event stream is UTF-8");
    text.lines()
        .map(|line| {
            let value = serde::from_json_str(line)
                .unwrap_or_else(|e| panic!("line is not JSON ({e}): {line}"));
            Event::from_value(&value)
                .unwrap_or_else(|e| panic!("line is not an Event ({e}): {line}"))
        })
        .collect()
}

/// A watch sink that forwards every complete JSONL line over a channel, so a
/// test can react to events while the watch is still streaming.
struct LineSink {
    pending: Vec<u8>,
    lines: mpsc::Sender<String>,
}

impl Write for LineSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            // The receiver may have stopped listening; the watch goes on.
            let _ = self.lines.send(String::from_utf8_lossy(&line).into_owned());
        }
        Ok(bytes.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn campaign_finished_seq(events: &[Event]) -> u64 {
    events
        .iter()
        .find_map(|e| match e {
            Event::CampaignFinished { seq, .. } => Some(*seq),
            _ => None,
        })
        .expect("stream contains a CampaignFinished event")
}

const LARGE_SPEC: &str = r#"
[campaign]
name = "large"

[[scenario]]
name = "big-star"
graph = { family = "star_with_leaf_edges", n = 64 }
initial = ["greedy_hub", "bfs"]
seeds = [1, 2]
"#;

const SMALL_SPEC: &str = r#"
[campaign]
name = "small"

[[scenario]]
name = "tiny-path"
graph = { family = "path", n = 8 }
initial = "bfs"
seeds = [1]
"#;

/// Runs long enough (seconds even in release) that a run of it is still in
/// flight when the test cancels the campaign a few milliseconds after the
/// run started.
const SLOW_SPEC: &str = r#"
[campaign]
name = "slow"

[[scenario]]
name = "big-star-sweep"
graph = { family = "star_with_leaf_edges", n = 2000 }
initial = "greedy_hub"
seeds = [1, 2, 3, 4]
"#;

/// The headline lifecycle: a blocker campaign holds the only worker while
/// two more are queued behind it and is then cancelled mid-flight; the two
/// queued campaigns are multiplexed over the freed worker, the cheap one
/// finishing first under cost-aware scheduling; every streamed line parses
/// as JSONL; graceful shutdown drains the service.
#[test]
fn serve_end_to_end() {
    let socket = test_socket("e2e");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 1,
        // Effectively disable the watchdog for this test.
        abort_multiplier: 1e12,
        abort_floor_ms: 1e12,
        quiet: true,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(&config));
    wait_for_server(&socket);

    // Occupy the only worker with a run of the slow campaign, so that the
    // large and small campaigns below are both queued before either can be
    // claimed, however fast their runs are.
    let (slow_id, slow_runs) =
        client::submit(&socket, SLOW_SPEC.to_string(), SpecFormat::Toml).expect("submit slow");
    assert_eq!(slow_runs, 4);
    let (lines, slow_lines) = mpsc::channel();
    let slow_socket = socket.clone();
    let slow_watch = std::thread::spawn(move || {
        let mut sink = LineSink {
            pending: Vec::new(),
            lines,
        };
        client::watch(&slow_socket, slow_id, 0, &mut sink)
    });
    loop {
        let line = slow_lines
            .recv_timeout(Duration::from_secs(60))
            .expect("the slow campaign starts a run");
        if matches!(
            parse_events(line.as_bytes())[..],
            [Event::RunStarted { .. }]
        ) {
            break;
        }
    }

    // Submit the expensive campaign first, the cheap one second. With one
    // worker and shortest-predicted-cost-first + deficit fairness, the
    // small campaign must still finish before the large one.
    let (large_id, large_runs) =
        client::submit(&socket, LARGE_SPEC.to_string(), SpecFormat::Toml).expect("submit large");
    let (small_id, small_runs) =
        client::submit(&socket, SMALL_SPEC.to_string(), SpecFormat::Toml).expect("submit small");
    assert_eq!(large_runs, 4);
    assert_eq!(small_runs, 1);
    assert_ne!(large_id, small_id);

    // Cancel the blocker mid-flight: its running run must be killed
    // cooperatively and its three pending runs skipped, all graded
    // `aborted`. That frees the worker for the two queued campaigns.
    let skipped = client::cancel(&socket, slow_id).expect("cancel slow");
    assert_eq!(skipped, 3, "pending runs skipped");
    let slow_report = slow_watch
        .join()
        .expect("watch thread")
        .expect("watch cancelled");
    assert_eq!(slow_report.runs.len(), 4);
    assert!(
        slow_report
            .runs
            .iter()
            .all(|run| run.outcome.label() == "aborted"),
        "every run of a cancelled campaign is aborted"
    );

    // Watch both to completion. The event log is retained after a campaign
    // finishes, so sequential watches still see the full history.
    let mut large_raw = Vec::new();
    let large_report = client::watch(&socket, large_id, 0, &mut large_raw).expect("watch large");
    let mut small_raw = Vec::new();
    let small_report = client::watch(&socket, small_id, 0, &mut small_raw).expect("watch small");

    let large_events = parse_events(&large_raw);
    let small_events = parse_events(&small_raw);
    assert!(
        large_events.len() >= 2 + 4 * 2,
        "lifecycle events for 4 runs"
    );
    assert!(
        campaign_finished_seq(&small_events) < campaign_finished_seq(&large_events),
        "the cheap campaign must finish first (small seq {} vs large seq {})",
        campaign_finished_seq(&small_events),
        campaign_finished_seq(&large_events),
    );
    assert_eq!(large_report.runs.len(), 4);
    assert_eq!(small_report.runs.len(), 1);

    // The run's observer callbacks reach the stream between its
    // `RunStarted` and `RunFinished`, the construction boundary first and
    // the finish summary last, in sequence order.
    let observed: Vec<(u64, &str)> = small_events
        .iter()
        .filter_map(|e| match e {
            Event::Observer { seq, kind, .. } => Some((*seq, kind.as_str())),
            _ => None,
        })
        .collect();
    let seq_of = |pick: fn(&Event) -> bool| small_events.iter().find(|e| pick(e)).map(Event::seq);
    let started = seq_of(|e| matches!(e, Event::RunStarted { .. })).expect("run started");
    let finished = seq_of(|e| matches!(e, Event::RunFinished { .. })).expect("run finished");
    assert_eq!(observed.first().map(|o| o.1), Some("construction"));
    assert_eq!(observed.last().map(|o| o.1), Some("finish"));
    assert!(observed.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(observed
        .iter()
        .all(|&(seq, _)| started < seq && seq < finished));

    // The served report must agree with a direct in-process run of the same
    // spec on everything deterministic.
    let matrix = ScenarioMatrix::from_toml_str(SMALL_SPEC).expect("parse small spec");
    let direct = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 1,
            ..RunnerConfig::default()
        },
    )
    .expect("direct run");
    for (served, direct) in small_report.runs.iter().zip(direct.runs.iter()) {
        assert_eq!(served.key(), direct.key());
        assert_eq!(served.outcome, direct.outcome);
        assert_eq!(served.initial_degree, direct.initial_degree);
        assert_eq!(served.final_degree, direct.final_degree);
    }

    // A watch replay from a later sequence number skips the prefix.
    let mut tail_raw = Vec::new();
    let from = campaign_finished_seq(&large_events);
    client::watch(&socket, large_id, from, &mut tail_raw).expect("watch tail");
    let tail_events = parse_events(&tail_raw);
    assert!(tail_events.iter().all(|e| e.seq() >= from));
    assert_eq!(
        tail_events.len(),
        1,
        "only the final event is at or past its own seq"
    );

    // Cancelling an unknown campaign is an error, not a crash.
    assert!(client::cancel(&socket, 9999).is_err());
    assert!(client::watch(&socket, 9999, 0, &mut Vec::new()).is_err());

    // Status: all three campaigns accounted for, the shared topology cache
    // hit (the large campaign reuses each star topology across initials),
    // and the cost model fitted from finished runs.
    let status = client::status(&socket).expect("status");
    assert_eq!(status.workers, 1);
    assert_eq!(status.campaigns.len(), 3);
    let state_of = |id: u64| {
        status
            .campaigns
            .iter()
            .find(|c| c.id == id)
            .map(|c| c.state.clone())
            .expect("campaign listed")
    };
    assert_eq!(state_of(large_id), "done");
    assert_eq!(state_of(small_id), "done");
    assert_eq!(state_of(slow_id), "cancelled");
    assert!(status.cache_hits >= 1, "topology cache hits: {status:?}");
    assert!(
        status.cost_buckets.iter().any(|b| b.samples > 0),
        "cost model fitted: {status:?}"
    );
    let slow_status = status
        .campaigns
        .iter()
        .find(|c| c.id == slow_id)
        .expect("slow campaign listed");
    assert_eq!(slow_status.aborted_runs, 4);
    assert_eq!(slow_status.finished_runs, 4);

    // Graceful shutdown: the server drains and exits, removing its socket.
    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(!socket.exists(), "socket file removed on exit");
}

/// The early-abort watchdog: with a zero budget, the first (unpredicted)
/// campaign runs to completion and fits the model; an identical second
/// campaign is then predicted, instantly over budget, and killed — graded
/// `aborted`, not failed.
#[test]
fn watchdog_aborts_over_budget_runs() {
    let socket = test_socket("watchdog");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 1,
        abort_multiplier: 0.0,
        abort_floor_ms: 0.0,
        quiet: true,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(&config));
    wait_for_server(&socket);

    let spec = r#"
[campaign]
name = "budget"

[[scenario]]
name = "star"
graph = { family = "star_with_leaf_edges", n = 300 }
initial = "greedy_hub"
seeds = [1]
"#;

    // Round 1: no prediction exists, so the watchdog must leave it alone.
    let (first, _) = client::submit(&socket, spec.to_string(), SpecFormat::Toml).expect("submit");
    let first_report = client::watch(&socket, first, 0, &mut Vec::new()).expect("watch first");
    assert!(
        first_report
            .runs
            .iter()
            .all(|run| run.outcome.label() != "aborted"),
        "unpredicted runs are never watchdog-killed"
    );

    // Round 2: the model now predicts a positive cost, the zero-multiplier
    // budget is instantly blown, and the watchdog cancels the run.
    let (second, _) = client::submit(&socket, spec.to_string(), SpecFormat::Toml).expect("submit");
    let mut raw = Vec::new();
    let second_report = client::watch(&socket, second, 0, &mut raw).expect("watch second");
    assert!(
        second_report
            .runs
            .iter()
            .all(|run| run.outcome.label() == "aborted"),
        "predicted runs over budget are aborted: {:?}",
        second_report
            .runs
            .iter()
            .map(|r| r.outcome.label())
            .collect::<Vec<_>>()
    );
    let events = parse_events(&raw);
    assert!(events.iter().any(|e| matches!(
        e,
        Event::RunFinished { outcome, predicted_ms, .. }
            if outcome == "aborted" && *predicted_ms > 0.0
    )));

    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}

/// `seed_reports` primes the cost model before the first submission: a
/// report written by a direct run gives the fresh server non-empty cost
/// buckets and positive predicted cost for a matching campaign.
#[test]
fn seed_reports_prime_the_cost_model() {
    let report_path =
        std::env::temp_dir().join(format!("mdst-serve-test-{}-seed.json", std::process::id()));
    let matrix = ScenarioMatrix::from_toml_str(SMALL_SPEC).expect("parse spec");
    let report = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 1,
            ..RunnerConfig::default()
        },
    )
    .expect("direct run");
    {
        use serde::Serialize;
        std::fs::write(&report_path, report.to_value().to_json()).expect("write seed report");
    }

    let socket = test_socket("seeded");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 1,
        seed_reports: vec![report_path.clone()],
        quiet: true,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(&config));
    wait_for_server(&socket);

    let status = client::status(&socket).expect("status");
    assert!(
        status.cost_buckets.iter().any(|b| b.samples > 0),
        "seed report fitted the model: {status:?}"
    );

    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_file(&report_path);
}

/// A client that streams an over-long request and never sends `\n` gets an
/// error back once the line passes [`MAX_REQUEST_BYTES`], instead of growing
/// server memory without limit, and the service keeps answering others.
#[test]
fn oversized_request_lines_are_refused() {
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;

    let socket = test_socket("oversized");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 1,
        quiet: true,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(&config));
    wait_for_server(&socket);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    // Without the cap the server would wait for a newline forever: fail
    // instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set a read timeout");
    let flood = vec![b'x'; MAX_REQUEST_BYTES as usize + 1];
    stream.write_all(&flood).expect("send the oversized line");
    let response: Response = mdst_serve::proto::read_line(&mut BufReader::new(&stream))
        .expect("decodable response")
        .expect("the server answers before closing");
    assert!(
        matches!(&response, Response::Error { message } if message.contains("exceeds")),
        "{response:?}"
    );
    drop(stream);

    client::status(&socket).expect("the service keeps serving after the refusal");
    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}

/// The accept loop blocks in `accept()` rather than polling, so a request is
/// answered as soon as it connects: twenty sequential `status` round trips
/// take milliseconds, not twenty polling intervals.
#[test]
fn sequential_requests_are_answered_without_polling_delay() {
    let socket = test_socket("rtt");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 1,
        quiet: true,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(&config));
    wait_for_server(&socket);

    let started = std::time::Instant::now();
    for _ in 0..20 {
        client::status(&socket).expect("status");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "20 status round trips took {elapsed:?}"
    );

    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}

/// An idle server blocked in `accept()` still exits promptly once a shutdown
/// is requested: the drained shutdown wakes the accept loop.
#[test]
fn an_idle_server_exits_promptly_after_shutdown() {
    let socket = test_socket("idle-shutdown");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 2,
        quiet: true,
        ..ServeConfig::default()
    };
    let (done, exited) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(serve(&config));
    });
    wait_for_server(&socket);

    client::shutdown(&socket).expect("shutdown");
    exited
        .recv_timeout(Duration::from_secs(5))
        .expect("serve returns within five seconds of the shutdown")
        .expect("serve exits cleanly");
    assert!(!socket.exists(), "socket file removed on exit");
}
