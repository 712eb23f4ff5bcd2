//! # msc-bench — experiment harness
//!
//! Workload generators and measurement helpers behind the figure/claim
//! regeneration binaries (`figures`, `claims`). EXPERIMENTS.md maps every
//! artifact and claim of the paper to these.
//!
//! [`gate`] is the regression gate over the three committed `BENCH_*.json`
//! files: one table of gated metrics per bench, one check, one writer.
//! The measurements it drives live in [`claims`] (the paper's numbers,
//! with [`sweep`]) and [`timed`] (explosion, regex). They pin counts,
//! invariants and ratios taken inside one process; wall-clock numbers are
//! judged by the `perf/` package, nowhere here. [`loadbench`] is the
//! daemon's endpoint smoke (`loadgen --smoke`).

pub mod claims;
pub mod gate;
pub mod loadbench;
pub mod measure;
pub mod sweep;
pub mod timed;
pub mod workloads;

pub use measure::{measure_interp, measure_msc, Measurement};
