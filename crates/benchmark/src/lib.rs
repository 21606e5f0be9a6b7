//! # stepping-benchmark
//!
//! The repo's serving benchmark (`BENCHMARK.json`): four long workloads
//! against `stepping-serve` / `stepping-router`, end-to-end metrics that
//! repeat between runs, per-layer probes, and a traced run. Everything is
//! measured from outside, by timing calls into public functions; see
//! `README.md` in this directory for the workloads, the metrics and how
//! each layer metric is expected to move each end-to-end one.
//!
//! The library holds the harness — seeded schedules, the generator and
//! collector threads, order statistics, `/proc` readers, span buffers —
//! and the two binaries (`e2e`, `probe`) hold the measurements.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod drive;
pub mod models;
pub mod names;
pub mod procfs;
pub mod report;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod trace;
