//! Wire protocol of the campaign service: line-delimited JSON over a Unix
//! domain socket.
//!
//! Every connection carries exactly one [`Request`] line from the client,
//! answered by one [`Response`] line from the server. A
//! [`Request::Watch`] connection stays open after its
//! [`Response::Watching`] acknowledgement: the server then streams one
//! [`Event`] per line (JSONL) until the campaign's
//! [`Event::CampaignFinished`] closes the stream. Messages use the serde
//! stand-in's externally tagged enum encoding, one compact JSON document per
//! line, so any language with a JSON parser can follow along with
//! `nc -U <socket>`.

use mdst_scenario::CampaignReport;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Read, Write};

/// Longest request line the server accepts, newline included. Far above any
/// real campaign spec; a longer line is answered with [`Response::Error`]
/// as soon as the cap is passed.
pub const MAX_REQUEST_BYTES: u64 = 4 << 20;

/// Default socket path: `scenario-serve.sock` in the system temp directory,
/// overridable everywhere with `--socket`.
pub fn default_socket() -> std::path::PathBuf {
    std::env::temp_dir().join("scenario-serve.sock")
}

/// Spec text format of a [`Request::Submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecFormat {
    /// TOML campaign spec (the `scenario run` default).
    Toml,
    /// JSON campaign spec.
    Json,
}

/// One client request — the first (and usually only) line of a connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a campaign spec (full text, not a path: the server may not
    /// share a filesystem view with the client). Answered by
    /// [`Response::Submitted`].
    Submit {
        /// Complete spec document text.
        spec: String,
        /// How to parse `spec`.
        format: SpecFormat,
    },
    /// Stream a campaign's event log from sequence number `from_seq`
    /// onwards. Answered by [`Response::Watching`], then one [`Event`] per
    /// line until the campaign finishes.
    Watch {
        /// Campaign id from [`Response::Submitted`].
        campaign: u64,
        /// First global sequence number to deliver (0 = from the start).
        from_seq: u64,
    },
    /// Service-wide status snapshot. Answered by [`Response::Status`].
    Status,
    /// Cancel a campaign: running runs get their cancel tokens raised,
    /// pending runs are recorded as aborted without executing. Answered by
    /// [`Response::Cancelled`].
    Cancel {
        /// Campaign id to cancel.
        campaign: u64,
    },
    /// Graceful shutdown: stop accepting submissions, drain everything
    /// already queued, then exit. Answered by [`Response::ShuttingDown`].
    Shutdown,
}

/// The server's single response line to a [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A [`Request::Submit`] was accepted.
    Submitted {
        /// Assigned campaign id (monotonic per server).
        campaign: u64,
        /// Number of expanded runs.
        runs: u64,
    },
    /// A [`Request::Watch`] was accepted; [`Event`] lines follow.
    Watching {
        /// The watched campaign.
        campaign: u64,
    },
    /// A [`Request::Status`] snapshot.
    Status(ServeStatus),
    /// A [`Request::Cancel`] took effect.
    Cancelled {
        /// The cancelled campaign.
        campaign: u64,
        /// Pending runs recorded as aborted without executing.
        skipped_runs: u64,
    },
    /// A [`Request::Shutdown`] was accepted; the server drains and exits.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Service-wide snapshot answering [`Request::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStatus {
    /// Worker threads executing runs.
    pub workers: u64,
    /// Shared topology-cache lookups that found the graph already built.
    pub cache_hits: u64,
    /// Shared topology-cache lookups that had to build.
    pub cache_misses: u64,
    /// Every campaign the server has seen, newest last.
    pub campaigns: Vec<CampaignStatus>,
    /// Fitted cost-model buckets, one per (executor, batch) pair.
    pub cost_buckets: Vec<CostBucketStatus>,
}

/// One campaign's scheduling state inside [`ServeStatus`].
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

/// One fitted cost-model bucket inside [`ServeStatus`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBucketStatus {
    /// Bucket key, `"<executor>/batch<batch>"`.
    pub bucket: String,
    /// Fitted milliseconds per unit of work (`n + m`).
    pub ms_per_work: f64,
    /// Observations folded into the fit.
    pub samples: u64,
}

/// One line of a campaign's JSONL event stream. `seq` is a single global
/// counter across all campaigns, so interleaved streams from concurrent
/// campaigns still expose one total order (the integration tests use it to
/// prove the small campaign finished first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A worker claimed the run and is about to execute it.
    RunStarted {
        /// Global sequence number.
        seq: u64,
        /// Owning campaign.
        campaign: u64,
        /// Full run configuration key (see `mdst_scenario::run_key`).
        key: String,
        /// Cost-model prediction for this run (0 = unseeded model).
        predicted_ms: f64,
    },
    /// One observer callback forwarded from the running session.
    Observer {
        /// Global sequence number.
        seq: u64,
        /// Owning campaign.
        campaign: u64,
        /// Full run configuration key.
        key: String,
        /// Event kind: `construction`, `round`, `exchange`, `fault`,
        /// `finish`.
        kind: String,
        /// Human-readable rendering of the event payload.
        detail: String,
    },
    /// The run completed (any outcome, including `aborted`).
    RunFinished {
        /// Global sequence number.
        seq: u64,
        /// Owning campaign.
        campaign: u64,
        /// Full run configuration key.
        key: String,
        /// Stable outcome label (e.g. `quiesced-correct`, `aborted`).
        outcome: String,
        /// Measured improvement-phase wall milliseconds.
        exec_wall_ms: f64,
        /// The prediction the scheduler made (0 = none).
        predicted_ms: f64,
    },
    /// Every run of the campaign is accounted for; the aggregated report
    /// follows and the event stream ends.
    CampaignFinished {
        /// Global sequence number.
        seq: u64,
        /// Owning campaign.
        campaign: u64,
        /// The same report `scenario run` would have produced.
        report: CampaignReport,
    },
}

impl Event {
    /// The event's global sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Event::RunStarted { seq, .. }
            | Event::Observer { seq, .. }
            | Event::RunFinished { seq, .. }
            | Event::CampaignFinished { seq, .. } => *seq,
        }
    }
}

/// Serializes `msg` as one compact JSON line and flushes it.
pub fn write_line<T: Serialize>(writer: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let mut line = msg.to_value().to_json();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Reads one line and decodes it as `T`. `Ok(None)` means a clean EOF before
/// any content. Unbounded: clients read whole campaign reports this way.
pub fn read_line<T: Deserialize>(reader: &mut impl BufRead) -> Result<Option<T>, String> {
    read_line_within(reader, u64::MAX)
}

/// Reads one client [`Request`] line, capped at [`MAX_REQUEST_BYTES`] so a
/// client that never sends `\n` cannot grow server memory without limit.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, String> {
    read_line_within(reader, MAX_REQUEST_BYTES)
}

fn read_line_within<T: Deserialize>(
    reader: &mut impl BufRead,
    max_bytes: u64,
) -> Result<Option<T>, String> {
    let mut line = Vec::new();
    let n = reader
        .take(max_bytes.saturating_add(1))
        .read_until(b'\n', &mut line)
        .map_err(|e| e.to_string())?;
    if n == 0 {
        return Ok(None);
    }
    if n as u64 > max_bytes {
        return Err(format!("request line exceeds {max_bytes} bytes"));
    }
    let line = std::str::from_utf8(&line).map_err(|e| e.to_string())?;
    let value: Value = serde::from_json_str(line.trim_end()).map_err(|e| e.to_string())?;
    T::from_value(&value).map(Some).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(msg: &T) -> T
    where
        T: Serialize + Deserialize,
    {
        let json = msg.to_value().to_json();
        assert!(!json.contains('\n'), "line protocol must stay one line");
        T::from_value(&serde::from_json_str(&json).unwrap()).unwrap()
    }

    #[test]
    fn requests_round_trip_as_single_lines() {
        for req in [
            Request::Submit {
                spec: "[[scenario]]\nname = \"x\"".to_string(),
                format: SpecFormat::Toml,
            },
            Request::Watch {
                campaign: 3,
                from_seq: 17,
            },
            Request::Status,
            Request::Cancel { campaign: 3 },
            Request::Shutdown,
        ] {
            assert_eq!(round_trip(&req), req);
        }
    }

    #[test]
    fn responses_and_events_round_trip() {
        let resp = Response::Submitted {
            campaign: 1,
            runs: 12,
        };
        assert_eq!(round_trip(&resp), resp);
        let event = Event::RunFinished {
            seq: 9,
            campaign: 1,
            key: "suite / path(n=8) / bfs / uniform / sync / none / sim / seed 1".to_string(),
            outcome: "aborted".to_string(),
            exec_wall_ms: 4.25,
            predicted_ms: 3.5,
        };
        assert_eq!(round_trip(&event), event);
        assert_eq!(event.seq(), 9);
    }

    #[test]
    fn line_codec_round_trips_over_a_buffer() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Status).unwrap();
        write_line(&mut buf, &Request::Shutdown).unwrap();
        let mut reader = std::io::BufReader::new(&buf[..]);
        let first: Request = read_line(&mut reader).unwrap().unwrap();
        let second: Request = read_line(&mut reader).unwrap().unwrap();
        assert_eq!(first, Request::Status);
        assert_eq!(second, Request::Shutdown);
        assert!(read_line::<Request>(&mut reader).unwrap().is_none());
    }
}
