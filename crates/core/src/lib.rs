//! # mdst-core
//!
//! The primary contribution of Blin & Butelle's paper — the first distributed
//! approximation algorithm for the Minimum Degree Spanning Tree problem on
//! general graphs — together with everything needed to evaluate it:
//!
//! * [`distributed`] — the message-driven node automaton implementing the
//!   paper's rounds (SearchDegree, MoveRoot, Cut, BFS, BFSBack, Choose,
//!   Update/Child, Stop), runnable on the `mdst-netsim` simulator or
//!   work-stealing pool.
//! * [`driver`] — the experiment pipeline behind the unified [`Pipeline`]
//!   session builder: build an initial spanning tree (any `mdst-spanning`
//!   construction), run the distributed improvement on any executor backend,
//!   and report degrees, rounds and message/time complexities through one
//!   [`RunReport`] / [`Outcome`] shape.
//! * [`observer`] — streaming [`Observer`] taps on a pipeline session
//!   (construction-done, per-round, per-exchange, per-fault, finish).
//! * [`sequential`] — centralized baselines: the paper's improvement rule as a
//!   sequential mirror (used for cross-validation of the distributed run), a
//!   Fürer–Raghavachari-style local search, and an exact branch-and-bound
//!   solver for small instances.
//! * [`verify`] — spanning-tree validity and local-optimality certificates.
//! * [`bounds`] — the Korach–Moran–Zaks message lower bound and degree lower
//!   bounds used by the experiment tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod distributed;
pub mod driver;
pub mod observer;
pub mod sequential;
pub mod verify;

pub use distributed::{Candidate, MdstMsg, MdstNode};
pub use driver::{Outcome, Pipeline, PipelineConfig, PipelineError, RunReport};
pub use observer::{
    ConstructionEvent, CountingObserver, ExchangeEvent, FaultEvent, Observer, RoundEvent,
};
pub use verify::{
    check_safety_invariants, survivor_report, InvariantViolation, NodeSnapshot, SurvivorReport,
};
