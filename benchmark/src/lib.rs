//! # emp-benchmark — the repo benchmark
//!
//! Eight named workloads over the simulated testbed, measured on two
//! clocks — *sim* time (the paper's result) and *host* time (what the
//! simulator burns) — end to end and per layer, behind one command,
//! `benchmark/run.sh`. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod gate;
pub mod harness;
pub mod host;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod metrics;
pub mod pattern;
pub mod repeat;
pub mod report;
pub mod spans;
pub mod stats;
pub mod supervisor;
pub mod workloads;
