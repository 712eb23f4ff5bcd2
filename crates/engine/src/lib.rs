//! # msc-engine — throughput-oriented compilation service
//!
//! `msc-core` answers "how do I convert one MIMD graph"; this crate
//! answers "how do I run many conversions fast, repeatedly, without
//! recomputing what I already know". Four pieces:
//!
//! * [`parallel`] — frontier-parallel meta-state conversion: `msc-core`'s
//!   one conversion on several expansion threads; the automaton is the
//!   sequential converter's at any count;
//! * [`compile_stages`] — the one stage sequence (front end → optional IR
//!   passes → conversion → code generation) that both [`Engine`] and
//!   `metastate::Pipeline::build` run;
//! * [`CompileCache`] — `msc_cache::TieredCache` of [`Artifact`]s, keyed
//!   by the hash of (source, conversion options, codegen options, IR
//!   passes): a bounded in-memory LRU and an optional on-disk layer;
//!   the artifact's `mscache v1` format is its `msc_cache::Cacheable`
//!   impl;
//! * [`Engine`] — the service wrapper: [`Engine::compile`] for one job,
//!   [`Engine::compile_many`] for a batch over a worker pool with per-job
//!   cooperative timeouts and panic capture (one poisoned job yields one
//!   errored slot, never a sunk batch).
//!
//! ```
//! use msc_engine::{Engine, EngineOptions, Job};
//!
//! let engine = Engine::new(EngineOptions::default());
//! let job = Job::new("demo", "main() { poly int x; x = pe_id(); return(x); }");
//! let out = engine.compile(&job).unwrap();
//! assert!(out.artifact.meta_states > 0);
//! // Same job again: served from the cache without reconverting.
//! let again = engine.compile(&job).unwrap();
//! assert_eq!(again.provenance, msc_engine::Provenance::Memory);
//! ```

mod cache;
pub mod flight;
pub mod parallel;

pub use flight::{Flight, Singleflight};
pub use msc_cache::{
    cache_key, content_key, CacheKey, CacheLayer, CacheStats, MemoryTier, TierStatus,
};
pub use parallel::convert_parallel;

use msc_codegen::{generate_with_stats, GenError, GenOptions};
use msc_core::{convert_threads, ConvertError, ConvertOptions, ConvertStats, MetaAutomaton};
use msc_lang::{compile, CompileError, Program};
use msc_simd::{MachineConfig, Metrics, RunError, SimdMachine, SimdProgram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock cost of each pipeline phase of one fresh compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Front end (parse + lower + optional IR passes).
    pub compile: Duration,
    /// Meta-state conversion.
    pub convert: Duration,
    /// SIMD code generation.
    pub codegen: Duration,
}

/// The output of every pipeline stage of one [`compile_stages`] run.
#[derive(Debug, Clone)]
pub struct Built {
    /// Front-end output: normalized MIMD state graph + memory layout.
    pub compiled: Program,
    /// The meta-state automaton.
    pub automaton: MetaAutomaton,
    /// Conversion statistics (restarts, splits, subsumptions).
    pub stats: ConvertStats,
    /// The executable SIMD program.
    pub simd: SimdProgram,
}

/// A finished SIMD run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Machine state after the run (memory inspection).
    pub machine: SimdMachine,
    /// Execution metrics.
    pub metrics: Metrics,
}

impl Built {
    /// Execute on `n_pe` PEs, all live (SPMD).
    pub fn run(&self, n_pe: usize) -> Result<RunOutput, RunError> {
        self.run_with(MachineConfig::spmd(n_pe))
    }

    /// Execute under an explicit machine configuration.
    pub fn run_with(&self, config: MachineConfig) -> Result<RunOutput, RunError> {
        let mut machine = SimdMachine::new(&self.simd, &config);
        let metrics = machine.run(&self.simd, &config)?;
        Ok(RunOutput { machine, metrics })
    }

    /// Where `main`'s return value lands (per PE).
    pub fn ret_addr(&self) -> Option<msc_ir::Addr> {
        self.compiled.layout.main_ret
    }

    /// MPL-like rendering of the generated program (Listing 5 style).
    pub fn mpl(&self) -> String {
        msc_codegen::render::render_mpl(&self.simd)
    }

    /// Text rendering of the meta-state automaton.
    pub fn automaton_text(&self) -> String {
        self.automaton.text()
    }
}

/// Run every pipeline stage of `job` — front end, the optional IR passes,
/// meta-state conversion on `threads` threads (0 = all cores), code
/// generation — with no cache and no coalescing. `timeout` is the
/// cooperative deadline, checked at phase boundaries and once per round of
/// the conversion worklist. The result does not depend on `threads`; the
/// wall-clock cost of each phase comes beside it.
pub fn compile_stages(
    job: &Job,
    threads: usize,
    timeout: Option<Duration>,
) -> Result<(Built, PhaseTimings), EngineError> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let check = |now: Instant| match deadline {
        Some(d) if now > d => Err(EngineError::TimedOut {
            job: job.name.clone(),
            timeout: timeout.unwrap_or_default(),
        }),
        _ => Ok(()),
    };

    let t0 = Instant::now();
    let mut compiled = compile(&job.source)?;
    if job.optimize {
        compiled.graph.peephole();
        compiled.graph.normalize();
    }
    if job.minimize {
        compiled.graph.minimize();
        compiled.graph.normalize();
    }
    let t1 = Instant::now();
    check(t1)?;

    let threads = parallel::effective_threads(threads);
    let (automaton, stats) = convert_threads(&compiled.graph, &job.convert, threads, || {
        check(Instant::now())
    })?;
    let t2 = Instant::now();

    let (simd, effort) = generate_with_stats(
        &automaton,
        compiled.layout.poly_words,
        compiled.layout.mono_words,
        &job.gen,
    )?;
    let t3 = Instant::now();
    // How hard code generation searched, for `--metrics` and `/metrics`;
    // the artifact does not carry it.
    for (name, n) in [
        ("csi.problems", effort.csi_problems),
        ("csi.single_thread", effort.csi_single_thread),
        ("csi.candidates_tried", effort.csi_candidates_tried),
        ("csi.lower_bound_exits", effort.csi_lower_bound_exits),
        ("csi.merges_reused", effort.csi_merges_reused),
        ("csi.threads_interned", effort.csi_threads_interned),
        ("hash.searches", effort.hash_searches),
        ("hash.candidates_tested", effort.hash_candidates_tested),
        ("codegen.hash_memo_hits", effort.hash_memo_hits),
    ] {
        msc_obs::count(name, n);
    }
    check(t3)?;

    let built = Built {
        compiled,
        automaton,
        stats,
        simd,
    };
    let timings = PhaseTimings {
        compile: t1 - t0,
        convert: t2 - t1,
        codegen: t3 - t2,
    };
    Ok((built, timings))
}

/// What the cache stores of one compilation: the executable program and
/// summary data, the same value from memory or disk. The
/// in-memory IR is [`compile_stages`]' to hand out, not the cache's.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The executable SIMD program.
    pub simd: SimdProgram,
    /// Conversion statistics.
    pub stats: ConvertStats,
    /// Meta states in the final automaton.
    pub meta_states: usize,
    /// Per-phase wall-clock timings of the compile that produced this
    /// artifact (not of the cache hit that returned it).
    pub timings: PhaseTimings,
    /// Where `main`'s return value lands, if it returns one.
    pub ret_addr: Option<msc_ir::Addr>,
    /// Text rendering of the automaton.
    pub automaton_text: String,
}

/// The engine's artifact cache: memory LRU and an optional disk layer.
/// Lookups lend the request's `CostModel`, which a disk hit reparses its
/// assembly against.
pub type CompileCache = msc_cache::TieredCache<Artifact>;

/// One compilation request.
#[derive(Debug, Clone)]
pub struct Job {
    /// Label used in errors and batch reports (usually the file name).
    pub name: String,
    /// MIMDC source text.
    pub source: String,
    /// Conversion options.
    pub convert: ConvertOptions,
    /// Code-generation options.
    pub gen: GenOptions,
    /// Peephole-optimize blocks before conversion.
    pub optimize: bool,
    /// Merge bisimilar MIMD states before conversion.
    pub minimize: bool,
}

impl Job {
    /// A job with default options (base-mode conversion, CSI on).
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Job {
            name: name.into(),
            source: source.into(),
            convert: ConvertOptions::base(),
            gen: GenOptions::default(),
            optimize: false,
            minimize: false,
        }
    }
}

/// How a compilation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Compiled from scratch this call.
    Fresh,
    /// Served from the in-memory cache.
    Memory,
    /// Reloaded from the on-disk cache.
    Disk,
    /// Coalesced onto a concurrent identical compile (singleflight): this
    /// request waited for the in-flight compilation and shares its
    /// artifact.
    Coalesced,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Fresh => write!(f, "fresh compile"),
            Provenance::Memory => write!(f, "cache hit (memory)"),
            Provenance::Disk => write!(f, "cache hit (disk)"),
            Provenance::Coalesced => write!(f, "coalesced (shared in-flight compile)"),
        }
    }
}

/// A successful [`Engine::compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The artifact (shared with the cache).
    pub artifact: Arc<Artifact>,
    /// Whether it was fresh or a cache hit.
    pub provenance: Provenance,
    /// The key it was looked up (and is cached) under: [`job_key`] of
    /// the job, computed once.
    pub key: CacheKey,
}

/// Failures of [`Engine::compile`] / one slot of [`Engine::compile_many`].
#[derive(Debug)]
pub enum EngineError {
    /// Front end failed.
    Compile(CompileError),
    /// Meta-state conversion failed.
    Convert(ConvertError),
    /// SIMD code generation failed.
    Gen(GenError),
    /// The job's cooperative deadline passed.
    TimedOut {
        /// The job's label.
        job: String,
        /// The configured timeout.
        timeout: Duration,
    },
    /// The job panicked; the panic was contained to this slot.
    Panicked {
        /// The job's label.
        job: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// This request coalesced onto a concurrent identical compile, and
    /// that shared compile failed. The message is the leader's rendered
    /// error (the leader's own slot carries the structured one).
    CoalescedFailed {
        /// The job's label.
        job: String,
        /// The shared compile's failure, rendered.
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "compile: {e}"),
            EngineError::Convert(e) => write!(f, "convert: {e}"),
            EngineError::Gen(e) => write!(f, "codegen: {e}"),
            EngineError::TimedOut { job, timeout } => {
                write!(f, "job `{job}` exceeded its {timeout:?} timeout")
            }
            EngineError::Panicked { job, message } => {
                write!(f, "job `{job}` panicked: {message}")
            }
            EngineError::CoalescedFailed { job, message } => {
                write!(
                    f,
                    "job `{job}` coalesced onto a compile that failed: {message}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

impl From<ConvertError> for EngineError {
    fn from(e: ConvertError) -> Self {
        EngineError::Convert(e)
    }
}

impl From<GenError> for EngineError {
    fn from(e: GenError) -> Self {
        EngineError::Gen(e)
    }
}

/// Engine configuration. The default is all cores, no disk layer and no
/// timeout.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads for conversion and batches (0 = all available).
    pub threads: usize,
    /// On-disk cache directory (None disables the disk layer).
    pub cache_dir: Option<PathBuf>,
    /// Per-job cooperative timeout, checked at phase boundaries and
    /// once per round of the conversion worklist (None = unbounded).
    pub job_timeout: Option<Duration>,
}

/// Artifacts the engine's memory tier holds before it evicts.
const CACHE_CAPACITY: usize = 128;

/// The compilation service: parallel conversion + cache + batch driver.
pub struct Engine {
    opts: EngineOptions,
    cache: CompileCache,
    jobs_compiled: AtomicU64,
    coalesced: AtomicU64,
    /// Singleflight table: cache key → the in-flight compile to join.
    /// Outcomes cross as `Result<Arc<Artifact>, String>` because the
    /// structured error types are not `Clone`.
    flights: Singleflight<CacheKey, Arc<Artifact>>,
}

impl Engine {
    /// Build an engine from options.
    pub fn new(opts: EngineOptions) -> Self {
        let cache = CompileCache::new(CACHE_CAPACITY, opts.cache_dir.clone());
        Engine {
            opts,
            cache,
            jobs_compiled: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            flights: Singleflight::new(),
        }
    }

    /// Resolved worker-thread count.
    pub fn threads(&self) -> usize {
        parallel::effective_threads(self.opts.threads)
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs compiled from scratch (cache hits excluded).
    pub fn jobs_compiled(&self) -> u64 {
        self.jobs_compiled.load(Ordering::Relaxed)
    }

    /// Requests that coalesced onto a concurrent identical compile
    /// instead of compiling or hitting the cache themselves.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Status of every configured cache tier, fastest first (for
    /// `/healthz`).
    pub fn tier_status(&self) -> Vec<TierStatus> {
        self.cache.tier_status()
    }

    /// Compile one job, using every engine thread for the conversion.
    pub fn compile(&self, job: &Job) -> Result<Compiled, EngineError> {
        self.compile_keyed(job, job_key(job))
    }

    /// [`compile`](Self::compile) for a caller that already holds
    /// `job_key(job)` (the daemon hashes a request once, where it is
    /// decoded).
    pub fn compile_keyed(&self, job: &Job, key: CacheKey) -> Result<Compiled, EngineError> {
        debug_assert_eq!(key, job_key(job), "a job compiles under its own key");
        self.compile_with_threads(job, key, self.threads())
    }

    /// The artifact filed under `key`, if it is resident in memory:
    /// never the disk tier, the flight table or a
    /// compile, so a thread that must not wait may ask. A hit counts
    /// and touches recency like any other memory hit; `None` counts
    /// nothing and says only that [`compile`](Self::compile) has to
    /// answer instead.
    pub fn probe_resident(&self, key: CacheKey) -> Option<Compiled> {
        let artifact = self.cache.probe_memory(key)?;
        Some(Compiled {
            artifact,
            provenance: Provenance::Memory,
            key,
        })
    }

    /// Compile a batch. Jobs are distributed over a pool of up to
    /// [`threads`](Self::threads) workers (conversion threads are divided
    /// among concurrent jobs); each slot carries its own job's outcome —
    /// an error or panic in one job never affects its neighbours, it
    /// shows up as an `engine.job_failed` (and `engine.job_panicked`)
    /// count on the installed [`msc_obs`] subscriber.
    pub fn compile_many(&self, jobs: &[Job]) -> Vec<Result<Compiled, EngineError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let pool = self.threads().min(jobs.len()).max(1);
        let per_job_threads = (self.threads() / pool).max(1);
        let next = AtomicUsize::new(0);
        let results: Vec<parking_lot::Mutex<Option<Result<Compiled, EngineError>>>> =
            jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        return;
                    }
                    let job = &jobs[i];
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        self.compile_with_threads(job, job_key(job), per_job_threads)
                    }))
                    .unwrap_or_else(|payload| {
                        msc_obs::count("engine.job_panicked", 1);
                        Err(EngineError::Panicked {
                            job: job.name.clone(),
                            message: panic_message(payload.as_ref()),
                        })
                    });
                    if result.is_err() {
                        msc_obs::count("engine.job_failed", 1);
                    }
                    *results[i].lock() = Some(result);
                });
            }
        })
        .expect("batch workers contain their panics");
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every job slot filled"))
            .collect()
    }

    fn compile_with_threads(
        &self,
        job: &Job,
        key: CacheKey,
        threads: usize,
    ) -> Result<Compiled, EngineError> {
        // Deliberate panic site for the batch isolation tests: no natural
        // input panics the pipeline, so the tests opt in by job name.
        #[cfg(test)]
        if job.name == "__panic_for_test__" {
            panic!("injected test panic");
        }
        let as_hit = |(artifact, layer): (Arc<Artifact>, CacheLayer)| Compiled {
            artifact,
            key,
            provenance: match layer {
                CacheLayer::Memory => Provenance::Memory,
                CacheLayer::Disk => Provenance::Disk,
            },
        };
        if let Some(hit) = self.cache.probe(key, &job.gen.costs) {
            return Ok(as_hit(hit));
        }
        // Singleflight: elect a leader, re-probing the cache under the
        // flight-table lock. A leader inserts its artifact into the cache
        // *before* its guard retires the table entry — so every concurrent
        // identical request either joins the flight or sees the cache hit;
        // exactly one request per key ever compiles.
        let leader = match self
            .flights
            .begin(key, || self.cache.probe(key, &job.gen.costs))
        {
            Flight::Hit(hit) => return Ok(as_hit(hit)),
            Flight::Join(follower) => {
                // Follower: wait for the leader's outcome and share it.
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                msc_obs::count("engine.coalesced", 1);
                return match follower.wait() {
                    Ok(artifact) => Ok(Compiled {
                        artifact,
                        provenance: Provenance::Coalesced,
                        key,
                    }),
                    Err(message) => Err(EngineError::CoalescedFailed {
                        job: job.name.clone(),
                        message,
                    }),
                };
            }
            Flight::Lead(leader) => leader,
        };
        // Leader: this request is the one that compiles (and the one that
        // counts the miss for the whole coalesced group).
        self.cache.note_miss();
        let result = self.compile_fresh(job, key, threads);
        leader.publish(match &result {
            Ok(c) => Ok(Arc::clone(&c.artifact)),
            Err(e) => Err(e.to_string()),
        });
        drop(leader);
        result
    }

    /// [`compile_stages`] for a cache-missed job, wrapped into an
    /// [`Artifact`] and inserted into the cache on success.
    fn compile_fresh(
        &self,
        job: &Job,
        key: CacheKey,
        threads: usize,
    ) -> Result<Compiled, EngineError> {
        // Deliberate slow/panic sites for the singleflight tests:
        // overlapping identical jobs need a compile that reliably outlives
        // the followers' arrival.
        #[cfg(test)]
        if job.name.starts_with("__slow_for_test__") {
            std::thread::sleep(Duration::from_millis(150));
        }
        #[cfg(test)]
        if job.name.starts_with("__panic_in_flight_for_test__") {
            std::thread::sleep(Duration::from_millis(150));
            panic!("injected in-flight test panic");
        }
        let (s, timings) = compile_stages(job, threads, self.opts.job_timeout)?;
        let artifact = Arc::new(Artifact {
            ret_addr: s.ret_addr(),
            automaton_text: s.automaton_text(),
            meta_states: s.automaton.len(),
            simd: s.simd,
            stats: s.stats,
            timings,
        });
        self.jobs_compiled.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, Arc::clone(&artifact));
        Ok(Compiled {
            artifact,
            provenance: Provenance::Fresh,
            key,
        })
    }
}

/// The content-addressed cache key a job compiles under — the same key
/// [`Engine::compile`] uses, exposed so callers (the serve layer) can
/// name the artifact without compiling anything.
pub fn job_key(job: &Job) -> CacheKey {
    cache_key(
        &job.source,
        &job.convert,
        &job.gen,
        job.optimize,
        job.minimize,
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

    /// Held by every test whose requests can coalesce: the subscriber is
    /// process-wide, so without the exclusive install lock their
    /// `engine.coalesced` counts would land in whichever registry
    /// `concurrent_identical_jobs_compile_exactly_once` has installed.
    fn exclusive_obs() -> msc_obs::InstallGuard {
        msc_obs::install(Arc::new(msc_obs::Registry::new()))
    }

    #[test]
    fn compile_then_hit() {
        let engine = Engine::new(EngineOptions::default());
        let job = Job::new("p", PROG);
        let first = engine.compile(&job).unwrap();
        assert_eq!(first.provenance, Provenance::Fresh);
        let second = engine.compile(&job).unwrap();
        assert_eq!(second.provenance, Provenance::Memory);
        assert!(
            Arc::ptr_eq(&first.artifact, &second.artifact),
            "hit shares the artifact"
        );
        assert_eq!(engine.jobs_compiled(), 1, "the hit did not recompile");
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn option_changes_miss() {
        let engine = Engine::new(EngineOptions::default());
        let job = Job::new("p", PROG);
        engine.compile(&job).unwrap();
        let mut job2 = job.clone();
        job2.convert = ConvertOptions::compressed();
        let out = engine.compile(&job2).unwrap();
        assert_eq!(out.provenance, Provenance::Fresh);
        assert_eq!(engine.jobs_compiled(), 2);
    }

    #[test]
    fn batch_isolates_poisoned_jobs() {
        let engine = Engine::new(EngineOptions {
            threads: 4,
            ..EngineOptions::default()
        });
        let jobs = vec![
            Job::new("good-1", PROG),
            Job::new("bad-syntax", "main() { y = 1; }"),
            Job::new("good-2", "main() { poly int v; v = 3; return(v); }"),
            Job::new(
                "bad-explosion",
                "main() { poly int x; if (pe_id()) { x = 1; } else { x = 2; } return(x); }",
            )
            .tap(|j| j.convert.max_meta_states = 1),
        ];
        let results = engine.compile_many(&jobs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok(), "{:?}", results[0].as_ref().err());
        assert!(matches!(results[1], Err(EngineError::Compile(_))));
        assert!(results[2].is_ok());
        assert!(matches!(results[3], Err(EngineError::Convert(_))));
    }

    impl Job {
        fn tap(mut self, f: impl FnOnce(&mut Job)) -> Job {
            f(&mut self);
            self
        }
    }

    #[test]
    fn batch_shares_the_cache() {
        let _obs = exclusive_obs();
        let engine = Engine::new(EngineOptions {
            threads: 4,
            ..EngineOptions::default()
        });
        let jobs: Vec<Job> = (0..6).map(|_| Job::new("same", PROG)).collect();
        let results = engine.compile_many(&jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        // Identical jobs race on the first compile; at least the repeats
        // after the first insertion must hit.
        assert!(engine.cache_stats().hits >= 1);
        let a0 = results[0].as_ref().unwrap().artifact.automaton_text.clone();
        for r in &results {
            assert_eq!(r.as_ref().unwrap().artifact.automaton_text, a0);
        }
    }

    #[test]
    fn compile_stages_publishes_the_effort_of_code_generation() {
        let registry = Arc::new(msc_obs::Registry::new());
        let _guard = msc_obs::install(registry.clone());
        let job = Job::new(
            "effort",
            include_str!("../../../examples/dispatch_heavy.mimdc"),
        );
        compile_stages(&job, 1, None).unwrap();
        let snap = registry.snapshot();
        // The values `msc-codegen` pins for this program (>=: tests of this
        // process that install nothing may compile into this registry too).
        for (name, at_least) in [
            ("csi.problems", 31),
            ("csi.single_thread", 9),
            ("csi.candidates_tried", 66),
            ("csi.merges_reused", 28),
            ("csi.threads_interned", 8),
            ("hash.searches", 10),
            ("hash.candidates_tested", 1214),
            ("codegen.hash_memo_hits", 20),
        ] {
            assert!(snap.counter(name) >= at_least, "{name}: {snap:?}");
        }
    }

    #[test]
    fn batch_panic_isolated_and_emits_job_failed_metric() {
        let registry = Arc::new(msc_obs::Registry::new());
        let results = {
            let _guard = msc_obs::install(registry.clone());
            let engine = Engine::new(EngineOptions {
                threads: 4,
                ..EngineOptions::default()
            });
            let jobs = vec![
                Job::new("good-1", PROG),
                Job::new("__panic_for_test__", PROG),
                Job::new("good-2", "main() { poly int v; v = 3; return(v); }"),
            ];
            engine.compile_many(&jobs)
        };
        // The panicking job is contained to its slot.
        assert!(results[0].is_ok());
        assert!(matches!(&results[1], Err(EngineError::Panicked { job, .. })
                if job == "__panic_for_test__"));
        assert!(results[2].is_ok());
        // The installed subscriber saw the failure (>=: other tests in this
        // process may run failing batches concurrently).
        let snap = registry.snapshot();
        assert!(snap.counter("engine.job_failed") >= 1);
        assert!(snap.counter("engine.job_panicked") >= 1);
    }

    #[test]
    fn zero_timeout_times_out() {
        let engine = Engine::new(EngineOptions {
            job_timeout: Some(Duration::ZERO),
            ..EngineOptions::default()
        });
        let err = engine.compile(&Job::new("t", PROG)).unwrap_err();
        assert!(matches!(err, EngineError::TimedOut { .. }), "{err:?}");
    }

    /// Start a leader compiling `job` (whose `__slow_for_test__` /
    /// `__panic_in_flight_for_test__` name keeps it in flight for
    /// ~150ms), give it `lead_ms` of head start, then run `followers`
    /// concurrent identical requests. Returns (leader result, follower
    /// results); the head start guarantees the followers arrive while
    /// the leader's in-flight entry is registered.
    type LeaderOutcome = std::thread::Result<Result<Compiled, EngineError>>;

    fn race_identical(
        engine: &Engine,
        job: &Job,
        followers: usize,
    ) -> (LeaderOutcome, Vec<Result<Compiled, EngineError>>) {
        std::thread::scope(|s| {
            let leader = s.spawn(|| catch_unwind(AssertUnwindSafe(|| engine.compile(job))));
            std::thread::sleep(Duration::from_millis(40));
            let handles: Vec<_> = (0..followers)
                .map(|_| s.spawn(|| engine.compile(job)))
                .collect();
            let follower_results = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (leader.join().unwrap(), follower_results)
        })
    }

    #[test]
    fn concurrent_identical_jobs_compile_exactly_once() {
        let registry = Arc::new(msc_obs::Registry::new());
        let _guard = msc_obs::install(registry.clone());
        let engine = Engine::new(EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        });
        let job = Job::new("__slow_for_test__ok", PROG);
        let (leader, followers) = race_identical(&engine, &job, 3);
        let leader = leader.expect("slow leader does not panic").unwrap();
        assert_eq!(leader.provenance, Provenance::Fresh);
        for f in &followers {
            let f = f.as_ref().unwrap();
            assert_eq!(f.provenance, Provenance::Coalesced);
            assert!(
                Arc::ptr_eq(&leader.artifact, &f.artifact),
                "coalesced requests share the leader's artifact"
            );
        }
        assert_eq!(engine.jobs_compiled(), 1, "the burst compiled exactly once");
        assert_eq!(engine.coalesced(), 3);
        let s = engine.cache_stats();
        assert_eq!(
            (s.misses, s.hits, s.insertions),
            (1, 0, 1),
            "one miss for the whole group: {s:?}"
        );
        assert_eq!(registry.snapshot().counter("engine.coalesced"), 3);
        // After the flight lands, the same job is an ordinary memory hit.
        assert_eq!(engine.compile(&job).unwrap().provenance, Provenance::Memory);
    }

    #[test]
    fn coalesced_requests_share_the_leaders_failure() {
        let _obs = exclusive_obs();
        let engine = Engine::new(EngineOptions::default());
        // Slow so the follower reliably coalesces; bad source so the
        // leader's compile fails after the flight is joined.
        let job = Job::new("__slow_for_test__bad", "main() { y = 1; }");
        let (leader, followers) = race_identical(&engine, &job, 1);
        let leader_err = leader.expect("slow leader does not panic").unwrap_err();
        assert!(
            matches!(leader_err, EngineError::Compile(_)),
            "{leader_err:?}"
        );
        match &followers[0] {
            Err(EngineError::CoalescedFailed { job, message }) => {
                assert_eq!(job, "__slow_for_test__bad");
                assert!(!message.is_empty());
            }
            other => panic!("expected CoalescedFailed, got {other:?}"),
        }
        // A failed flight caches nothing and leaves nothing in flight:
        // the next identical request compiles (and fails) on its own.
        assert_eq!(engine.cache_stats().insertions, 0);
        assert!(engine.flights.is_empty());
    }

    #[test]
    fn panicking_leader_releases_its_followers() {
        let _obs = exclusive_obs();
        let engine = Engine::new(EngineOptions::default());
        let job = Job::new("__panic_in_flight_for_test__", PROG);
        let (leader, followers) = race_identical(&engine, &job, 1);
        assert!(leader.is_err(), "leader panics mid-flight");
        match &followers[0] {
            Err(EngineError::CoalescedFailed { message, .. }) => {
                assert!(
                    message.contains("panicked"),
                    "guard publishes the panic: {message}"
                );
            }
            other => panic!("expected CoalescedFailed, got {other:?}"),
        }
        assert!(
            engine.flights.is_empty(),
            "the leader's guard cleans up even on panic"
        );
        // The engine is still fully usable afterwards.
        let ok = engine.compile(&Job::new("after", PROG)).unwrap();
        assert_eq!(ok.provenance, Provenance::Fresh);
    }
}
