//! # mdst-serve
//!
//! The resident campaign service for the MDST scenario harness, and the
//! home of the `scenario` CLI binary.
//!
//! A `scenario run` process pays its whole setup cost — graph builds, cost
//! discovery, JIT-warm executors — for one campaign and then exits.
//! `scenario serve` keeps that state resident: a Unix-domain-socket server
//! accepts campaign submissions, multiplexes all of them over one shared
//! worker pool and one shared topology cache, streams per-run lifecycle and
//! observer events to watching clients as JSONL, and schedules runs
//! **cost-aware**: an online model fit from recorded `exec_wall_ms` over
//! `(n, m, executor, batch)` predicts each run's duration, shortest first,
//! with deficit fairness across campaigns and an early-abort watchdog that
//! cancels runs blowing their predicted budget (graded `aborted`, not
//! errored).
//!
//! * [`proto`] — the line-delimited JSON wire protocol (requests,
//!   responses, the JSONL event stream).
//! * [`cost`] — the per-`(executor, batch)` online cost model.
//! * [`server`] — the resident server: accept loop, workers, watchdog,
//!   per-campaign event logs. Workers claim through
//!   [`mdst_scenario::Scheduler`], the same executor `scenario run` uses:
//!   shortest-predicted-cost-first claims with per-campaign deficit
//!   fairness, cooperative cancellation, drain-on-shutdown.
//! * [`client`] — one-connection-per-command client calls backing the
//!   `scenario submit|watch|status|cancel|shutdown` subcommands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cost;
pub mod proto;
pub mod server;

pub use cost::CostModel;
pub use proto::{default_socket, Event, Request, Response, ServeStatus, SpecFormat};
pub use server::{serve, ServeConfig};
