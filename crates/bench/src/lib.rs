//! # msc-bench — experiment harness
//!
//! Workload generators and measurement helpers behind the figure/claim
//! regeneration binaries (`figures`, `claims`) and the Criterion benches.
//! EXPERIMENTS.md maps every artifact and claim of the paper to these.
//!
//! [`gate`] is the regression gate over the six committed `BENCH_*.json`
//! files: one table of gated metrics per bench, one check, one writer.
//! The measurements it drives live in [`timed`] (setops, explosion,
//! regex), [`loadbench`] (serve), [`cluster`] and [`sweep`]. They pin
//! counts, invariants and ratios taken inside one process; wall-clock
//! numbers are judged by the `perf/` package, nowhere here.

pub mod baseline;
pub mod cluster;
pub mod gate;
pub mod loadbench;
pub mod measure;
pub mod sweep;
pub mod timed;
pub mod workloads;

pub use measure::{measure_interp, measure_msc, measure_reference, Measurement};
