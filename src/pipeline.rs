//! One-stop pipeline: MIMDC source → MIMD state graph → meta-state
//! automaton → SIMD program → execution.
//!
//! [`Pipeline`] builds an [`msc_engine::Job`]; [`Pipeline::build`] runs
//! the engine's one stage sequence on it and hands back the engine's
//! [`Built`] and [`EngineError`] as they are. The same job goes to an
//! [`msc_engine::Engine`] through [`Pipeline::into_job`].

use msc_codegen::GenOptions;
use msc_core::{ConvertMode, ConvertOptions, TimeSplitOptions};
use msc_engine::{compile_stages, Built, EngineError, Job};

/// Builder for the full compilation pipeline.
///
/// ```
/// use metastate::{Pipeline, ConvertMode};
///
/// let built = Pipeline::new("main() { poly int x; x = pe_id(); return(x); }")
///     .mode(ConvertMode::Base)
///     .build()
///     .unwrap();
/// let out = built.run(4).unwrap();
/// assert_eq!(out.machine.poly_at(3, built.ret_addr().unwrap()), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    job: Job,
}

impl Pipeline {
    /// Start a pipeline over MIMDC source (base-mode defaults; the
    /// optional IR passes [`optimize`](Self::optimize) and
    /// [`minimize`](Self::minimize) are off, matching the paper's
    /// unoptimized prototype).
    pub fn new(src: impl Into<String>) -> Self {
        Pipeline {
            job: Job::new("", src),
        }
    }

    /// Peephole-optimize blocks (constant folding, dead stack traffic)
    /// before conversion.
    pub fn optimize(mut self) -> Self {
        self.job.optimize = true;
        self
    }

    /// Merge bisimilar MIMD states before conversion (undoes the code
    /// duplication of per-call-site inline expansion).
    pub fn minimize(mut self) -> Self {
        self.job.minimize = true;
        self
    }

    /// Select base (§2.3) or compressed (§2.5, with subsumption)
    /// conversion, resetting conversion options to that mode's defaults.
    pub fn mode(mut self, mode: ConvertMode) -> Self {
        self.job.convert = match mode {
            ConvertMode::Base => ConvertOptions::base(),
            ConvertMode::Compressed => ConvertOptions::compressed(),
        };
        self
    }

    /// Enable §2.4 time splitting.
    pub fn time_split(mut self, ts: TimeSplitOptions) -> Self {
        self.job.convert.time_split = Some(ts);
        self
    }

    /// Replace the conversion options wholesale.
    pub fn convert_options(mut self, opts: ConvertOptions) -> Self {
        self.job.convert = opts;
        self
    }

    /// Cap the meta-state explosion guard (composes with
    /// [`mode`](Self::mode), which resets options to the mode defaults —
    /// apply this after it).
    pub fn max_meta_states(mut self, limit: usize) -> Self {
        self.job.convert.max_meta_states = limit.max(1);
        self
    }

    /// Set the conversion's resident-memory budget in bytes for the
    /// interned sets' words; past it, cold ones spill to a temp file
    /// (`None` = never spill). The per-meta-state tables stay resident
    /// (`ConvertOptions::memory_budget`). Composes with [`mode`](Self::mode)
    /// like [`max_meta_states`](Self::max_meta_states).
    pub fn memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.job.convert.memory_budget = bytes;
        self
    }

    /// Replace the code-generation options (e.g. disable CSI).
    pub fn gen_options(mut self, opts: GenOptions) -> Self {
        self.job.gen = opts;
        self
    }

    /// Price every stage with one cost model: conversion's time splitting,
    /// CSI scheduling, dispatch accounting, and the embedded simulator
    /// costs (the machine-profile path of `mscc sweep`).
    pub fn costs(mut self, costs: msc_ir::CostModel) -> Self {
        self.job.convert.costs = costs.clone();
        self.job.gen.costs = costs;
        self
    }

    /// Run every stage: [`msc_engine::compile_stages`] at one thread with
    /// no deadline, cache or coalescing.
    pub fn build(self) -> Result<Built, EngineError> {
        Ok(compile_stages(&self.job, 1, None)?.0)
    }

    /// Turn the pipeline into an [`msc_engine::Job`] with the given label,
    /// for submission to an [`msc_engine::Engine`] (parallel conversion,
    /// compile cache, batching): the engine's artifact carries
    /// [`build`](Self::build)'s program and automaton text, bit for bit.
    pub fn into_job(self, name: impl Into<String>) -> Job {
        Job {
            name: name.into(),
            ..self.job
        }
    }
}
