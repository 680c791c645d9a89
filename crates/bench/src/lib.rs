//! # mdst-bench
//!
//! Experiment harness of the reproduction. The paper contains no measured
//! tables (it is a theory paper), so each experiment here turns one of its
//! analytical claims or illustrative figures into a measurable series; the
//! mapping is listed in README § "Experiment tables".
//!
//! The `harness` binary prints the tables (`cargo run -p mdst-bench --release
//! --bin harness -- all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fabric;
pub mod ingest;
pub mod table;

pub use experiments::*;
pub use table::Table;
