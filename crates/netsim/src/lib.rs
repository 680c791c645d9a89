//! # mdst-netsim
//!
//! The asynchronous point-to-point message-passing substrate of the
//! reproduction: the network model of §2 of Blin & Butelle as an executable
//! artefact.
//!
//! The paper analyses an *event-driven* asynchronous network: processors react
//! to messages only (no timeouts, no global clock), links are bidirectional and
//! FIFO, the message complexity is the total number of messages exchanged and
//! the time complexity is the length of the longest causal chain assuming every
//! hop costs at most one time unit. This crate provides two interchangeable
//! executions of that model, plus a step-controlled one for model checking:
//!
//! * [`ExecutorKind::Sim`] — a deterministic discrete-event simulator with a
//!   pluggable [`delay::DelayModel`] (unit delays for the paper's time
//!   accounting, seeded random delays and adversarial per-link delays for
//!   robustness experiments). It measures exactly the quantities the paper's
//!   analysis talks about: message count per message kind, total encoded bits,
//!   and the longest causal dependency chain.
//! * [`ExecutorKind::Pool`] — the same [`protocol::Protocol`] state machines
//!   driven by a work-stealing pool of real OS threads (per-node mailboxes,
//!   run queues with stealing, quiescence via in-flight counters),
//!   demonstrating that the protocol tolerates genuine nondeterministic
//!   scheduling, not just simulated asynchrony, on up to millions of nodes.
//! * [`controlled::ControlledNet`] — a step-controlled execution that exposes
//!   the enabled-event set and applies one externally chosen event at a time,
//!   the hook the `mdst-check` model checker uses to explore *every* delivery
//!   interleaving instead of sampling one.
//!
//! Protocols are written once against the [`protocol::Protocol`] trait and run
//! unchanged on every runtime; the `mdst-spanning` and `mdst-core` crates
//! provide the actual protocols. [`ExecutorKind::run`] is the one way to run
//! them on a backend: it takes a graph, a protocol factory, an
//! [`ExecConfig`] and a [`CancelToken`] and returns the same [`ExecRun`]
//! whichever backend ran, so drivers and campaign runners select a backend
//! per run by its [`ExecutorKind`].
//!
//! The simulator additionally supports **fault injection** through
//! [`fault::FaultPlan`]: seeded per-message loss, scheduled node crashes and
//! link cuts, with drops and crashes counted in [`metrics::Metrics`] and
//! recorded in the trace. A benign (empty) plan leaves every execution
//! bit-identical to the fault-free simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod controlled;
pub mod delay;
pub mod exec;
pub mod fault;
pub mod message;
pub mod metrics;
mod pool;
pub mod protocol;
pub mod sim;
#[cfg(test)]
pub(crate) mod testutil;
pub mod trace;

pub use cancel::CancelToken;
pub use controlled::{ControlledEvent, ControlledNet, NotEnabled, StartDiscipline};
pub use delay::DelayModel;
pub use exec::{ExecConfig, ExecError, ExecRun, ExecStatus, ExecutorKind, UnknownExecutor};
pub use fault::{CrashAt, CutAt, FaultPlan};
pub use message::NetMessage;
pub use metrics::Metrics;
pub use protocol::{Context, Protocol};
pub use sim::{SimConfig, StartModel};
pub use trace::{KindLabel, TraceEvent, TraceEventKind, TraceRecorder};
