//! # mdst-analysis
//!
//! Static happens-before analysis of execution traces.
//!
//! Every backend of `mdst-netsim` (discrete-event simulator, work-stealing
//! pool, step-controlled net) can record a
//! [`mdst_netsim::TraceRecorder`] whose events carry a run-unique message id
//! and a per-directed-link sequence number. This crate replays such a trace
//! *offline*, reconstructs the causal partial order with vector clocks
//! ([`clock`]), and checks the delivery discipline the protocol's
//! correctness argument rests on ([`audit()`](audit::audit)): per-link FIFO order, no
//! orphan/duplicate deliveries, no deliveries into crashed nodes, no
//! happens-before cycles, and the paper's single-coordinator discipline
//! (causally unordered `SearchInit` broadcasts or `Cut` cascades are races).
//!
//! Three ways in:
//!
//! * [`audit()`](audit::audit) / [`audit_events()`](audit::audit_events) — audit
//!   a recorder or raw event slice, returning an [`AuditReport`].
//! * [`Auditor`] — an [`mdst_core::Observer`] that audits a pipeline
//!   session's trace when the run finishes.
//! * `scenario audit <file>` — the CLI front-end in `mdst-scenario`, which
//!   loads a trace (or a campaign report embedding one) from JSON and exits
//!   nonzero on findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod observer;

pub use audit::{audit, audit_events, AuditReport, Finding, LinkStat, Rule};
pub use observer::Auditor;
