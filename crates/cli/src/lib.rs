//! # msc-cli — the `mscc` command-line driver
//!
//! ```text
//! mscc build prog.mimdc --emit automaton      # print the meta-state graph
//! mscc build prog.mimdc --emit mpl            # Listing-5-style SIMD code
//! mscc build prog.mimdc --emit dot            # Graphviz of the automaton
//! mscc build prog.mimdc --emit graph          # the MIMD state graph
//! mscc build prog.mimdc --emit asm            # reloadable SIMD assembly
//! mscc build prog.mimdc --stats               # conversion stats + timings
//! mscc build prog.mimdc --jobs 8              # frontier-parallel conversion
//! mscc build prog.mimdc --cache .msc-cache    # reuse artifacts across runs
//! mscc batch a.mimdc b.mimdc c.mimdc          # compile many over a pool
//! mscc run   prog.mimdc --pes 16              # execute and print results
//! mscc run   prog.mimdc --compare             # also run MIMD ref + interpreter
//! mscc sweep prog.mimdc --profiles profiles   # one row per machine profile
//! mscc serve --addr 127.0.0.1:0               # the compile-and-run daemon
//! mscc fuzz  --seed 1 --cases 50              # differential oracle matrix
//! mscc match 'ab+' input.txt                  # data-parallel regex spans
//! mscc help
//! ```
//!
//! Each command takes only its own flags (see [`USAGE`]); a flag that
//! belongs to another command is an ``unexpected argument `…` `` error.
//! The compile commands (build, run, batch, sweep) share the conversion
//! flags (`--mode`, `--time-split`, `--optimize`, `--minimize`,
//! `--no-csi`, `--max-meta-states`, `--memory-budget`) and compile
//! through [`metastate::Engine`]: `--jobs N` converts frontier-parallel
//! on N threads (the output is the same at any N; batch and sweep also
//! compile concurrently) and `--cache DIR` reloads an unchanged source +
//! options combination instead of recompiling it.
//!
//! One route per command: [`main_with_args`] parses the command line
//! ([`parse_args`]), reads the files it names (stdin for a `match` with
//! none), and hands the `(name, bytes)` pairs to [`execute`], which runs
//! the command inside the invocation's one observability session
//! (`--metrics`, `--trace-out FILE`). `main.rs` is a thin shell.

use metastate::{ConvertMode, Engine, EngineOptions, Pipeline, Provenance, TimeSplitOptions};
use msc_ir::CostModel;
use msc_simd::{MachineConfig, MachineProfile};
use std::fmt;
use std::sync::Arc;

/// What `mscc build --emit` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The meta-state automaton as text.
    Automaton,
    /// MPL-like SIMD code (Listing 5 style).
    Mpl,
    /// Graphviz of the automaton.
    Dot,
    /// The MIMD state graph as text.
    Graph,
    /// Reloadable SIMD assembly (see `msc_simd::asm`).
    Asm,
}

/// Parsed command line (the observability flags are [`Obs`]).
#[derive(Debug, Clone)]
pub enum Command {
    /// `mscc build FILE`.
    Build {
        /// Source path.
        file: String,
        /// What to print.
        emit: Emit,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc run FILE`.
    Run {
        /// Source path.
        file: String,
        /// PEs to simulate (at least 1).
        pes: usize,
        /// Live PEs at start, 1 to `pes` (None = all; Some(n) leaves a
        /// spawn pool).
        pool: Option<usize>,
        /// Also run the MIMD reference and interpreter and compare.
        compare: bool,
        /// Print the meta-state execution trace.
        trace: bool,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc batch FILE...`: compile many files over a worker pool.
    Batch {
        /// Source paths.
        files: Vec<String>,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc sweep FILE`: compile and run one workload across a machine
    /// profile matrix and emit per-profile comparison tables.
    Sweep {
        /// Source path.
        file: String,
        /// Profile files and/or directories (`--profiles`, comma
        /// separated); see [`load_profiles`].
        profiles: Vec<String>,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc serve`: run the compile-and-run daemon until SIGINT/SIGTERM.
    Serve(msc_serve::ServeOptions),
    /// `mscc fuzz`: differential fuzzing over the whole oracle matrix.
    Fuzz {
        /// The run; `--serve-addr` is its `oracle_cfg.serve_addr`.
        cfg: msc_fuzz::FuzzConfig,
        /// Start an in-process daemon and fuzz it over TCP.
        serve: bool,
        /// Replay this corpus reproducer file instead of fuzzing.
        replay: Option<String>,
    },
    /// `mscc match PATTERN [FILE]...`: data-parallel regex matching.
    Match {
        /// The regex pattern.
        pattern: String,
        /// Input files (empty = read stdin).
        files: Vec<String>,
        /// Matcher threads (0 = all cores).
        threads: usize,
    },
    /// `mscc help` / `-h` / `--help`.
    Help,
}

impl Command {
    /// The files the command reads its inputs from.
    fn files(&self) -> &[String] {
        match self {
            Command::Build { file, .. }
            | Command::Run { file, .. }
            | Command::Sweep { file, .. } => std::slice::from_ref(file),
            Command::Batch { files, .. } | Command::Match { files, .. } => files,
            Command::Help | Command::Serve(_) | Command::Fuzz { .. } => &[],
        }
    }
}

/// Options shared by the compile commands (build, run, batch, sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// Conversion mode.
    pub mode: ConvertMode,
    /// §2.4 time splitting.
    pub time_split: bool,
    /// Peephole optimization.
    pub optimize: bool,
    /// Bisimulation minimization.
    pub minimize: bool,
    /// Disable CSI in codegen.
    pub no_csi: bool,
    /// Conversion / batch worker threads (0 = all cores). The compiled
    /// output does not depend on it.
    pub jobs: usize,
    /// Artifact cache directory.
    pub cache: Option<String>,
    /// Append the stats block to build/run/batch output.
    pub stats: bool,
    /// Explosion guard override: fail conversion past this many meta
    /// states (None = the mode's default, 2²⁰).
    pub max_meta_states: Option<usize>,
    /// Conversion memory budget in bytes (`k`/`m`/`g` suffixes accepted)
    /// for the interned-set arena's words; past it cold ones spill to a
    /// temp file. It bounds nothing else: each meta state keeps at least
    /// 93 bytes of tables resident, capped by `max_meta_states`.
    /// None = the `MSC_MEMORY_BUDGET` env default (or never spill).
    pub memory_budget: Option<usize>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            mode: ConvertMode::Base,
            time_split: false,
            optimize: false,
            minimize: false,
            no_csi: false,
            jobs: 1,
            cache: None,
            stats: false,
            max_meta_states: None,
            memory_budget: None,
        }
    }
}

/// The observability flags every command but `serve` and `fuzz --serve`
/// takes: what the invocation's one [`msc_obs`] session records. Neither
/// set means no session at all (the zero-cost path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Obs {
    /// `--metrics`: append the end-of-run metrics summary table.
    pub metrics: bool,
    /// `--trace-out FILE`: stream structured events (spans, counters,
    /// samples) to this JSONL file.
    pub trace_out: Option<String>,
}

/// CLI failures (parse or execution).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
mscc — Meta-State Conversion compiler driver

USAGE:
  mscc build <FILE>    [--emit automaton|mpl|dot|graph|asm] [common flags] [engine flags]
  mscc batch <FILE>... [common flags] [engine flags]
  mscc run   <FILE>    [--pes N] [--pool N] [--compare] [--trace] [common flags] [engine flags]
  mscc sweep <FILE>    [--profiles FILES/DIRS,...] [--jobs N] [--cache DIR] [common flags]
  mscc serve           [--addr HOST:PORT] [--workers N] [--queue-depth N] [--cache DIR]
                       [--max-meta-states N]
  mscc fuzz            [--seed N] [--cases N] [--pes N] [--max-states N] [--corpus DIR]
                       [--oracles LIST] [--serve | --serve-addr HOST:PORT] [--replay FILE]
  mscc match <PATTERN> [FILE]... [--threads N]
  mscc help

A command takes only the flags listed for it.

COMMON FLAGS (build, run, batch, sweep):
  --mode base|compressed   conversion mode (default: base)
  --time-split             enable §2.4 time splitting
  --optimize               peephole-optimize blocks first
  --minimize               merge bisimilar MIMD states first
  --no-csi                 disable common subexpression induction
  --max-meta-states N      explosion guard: fail conversion past N meta
                           states (default 1048576)
  --memory-budget BYTES    keep at most BYTES of meta-state set words
                           resident, spilling cold ones to a temp file;
                           per-state tables (>= 93 bytes a state) stay
                           resident (k/m/g suffixes; default:
                           MSC_MEMORY_BUDGET env, else never spill; an
                           env value that is not a byte count is an error)

RUN FLAGS:
  --pes N                  PEs to simulate (default 8, at least 1)
  --pool N                 live PEs at start, 1 to --pes; the rest idle
                           in the spawn pool (default: all live)
  --compare                also run the MIMD reference and the §1.1
                           interpreter on the same live PEs
  --trace                  print the meta-state execution trace

ENGINE FLAGS (build, run, batch; sweep takes --jobs and --cache):
  --jobs N                 convert frontier-parallel on N threads (default 1,
                           0 = all cores; same output at any N); batch and
                           sweep also compile concurrently
  --cache DIR              content-addressed artifact cache: unchanged
                           source + options reload instead of recompiling
  --stats                  append meta-state counts, conversion counters,
                           per-phase timings, and cache hit/miss counters

SWEEP FLAGS:
  --profiles LIST          comma list of machine-profile JSON files and/or
                           directories of them (default: the profiles/
                           directory when present, else the bundled
                           paper-default/wide-simd/slow-globalor/
                           cheap-dispatch matrix); each profile compiles
                           in parallel over the engine pool (--jobs,
                           default all cores) and runs on its own machine;
                           output is an aligned per-profile comparison
                           table plus a machine-readable JSON summary line

SERVE FLAGS:
  --addr HOST:PORT         bind address (default 127.0.0.1:7643; port 0 = ephemeral)
  --workers N              connection worker threads (default: all cores)
  --queue-depth N          admission queue depth; beyond it requests are
                           shed with 503 + Retry-After (default 64)
  --cache DIR              on-disk compile cache shared across restarts
  --max-meta-states N      ceiling on every job's explosion guard; requests
                           asking for more are clamped (default 1048576)

FUZZ FLAGS:
  --seed N                 run seed; case k is reproducible from (seed, k) (default 1)
  --cases N                cases to generate and check (default 200)
  --pes N                  live PEs per case (default 5)
  --max-states N           meta-state bound; oracles skip past it (default
                           3000; --max-meta-states is accepted as an alias)
  --corpus DIR             write minimized reproducers here on mismatch
  --oracles LIST           comma list: interp,base,compressed,timesplit,nocsi,
                           engine:N,cache,serve,regex,selftest (default: all
                           in-process)
  --serve                  start an in-process daemon and fuzz it over TCP
  --serve-addr HOST:PORT   fuzz an already-running daemon instead
  --replay FILE            re-run a corpus reproducer and report whether it
                           still diverges
  exit status is nonzero when any mismatch is found; the last stdout line
  is a machine-readable JSON summary either way

MATCH FLAGS:
  --threads N              matcher threads for sharded scanning (default 0
                           = all cores); spans are identical at any count
  with no FILE, the pattern is matched against stdin; supported syntax is
  literals, classes [a-z] [^…], . * + ? |, grouping, and ^/$ anchors

OBSERVABILITY FLAGS (all commands but serve and fuzz --serve):
  --trace-out FILE         stream structured events (spans, counters,
                           samples) as JSON lines to FILE
  --metrics                append an end-of-run metrics summary table
";

/// The argument after a flag, or `missing` as the error.
fn value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    missing: &str,
) -> Result<&'a String, CliError> {
    it.next().ok_or_else(|| CliError(missing.into()))
}

/// The argument after a flag, parsed; a value that does not parse is
/// ``bad <what> `<value>` ``.
fn parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    missing: &str,
    what: &str,
) -> Result<T, CliError> {
    let v = value(it, missing)?;
    v.parse().map_err(|_| CliError(format!("bad {what} `{v}`")))
}

/// `--max-meta-states N`: the per-job guard (`what` = "meta-state limit")
/// or the daemon's ceiling on it ("meta-state cap").
fn max_meta_states<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    what: &str,
) -> Result<usize, CliError> {
    match parsed(it, "--max-meta-states needs a value", what)? {
        0 => Err(CliError("--max-meta-states must be at least 1".into())),
        n => Ok(n),
    }
}

/// `--cache DIR`.
fn cache_dir<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<String, CliError> {
    value(it, "--cache needs a directory").cloned()
}

fn unexpected(arg: &str) -> CliError {
    CliError(format!("unexpected argument `{arg}`"))
}

/// Parse an argument vector (without the program name) into the command
/// and the observability flags that bracket it. `--metrics` and
/// `--trace-out FILE` are taken out first, wherever they stand; what is
/// left must be the command's own flags.
pub fn parse_args(args: &[String]) -> Result<(Command, Obs), CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| CliError(USAGE.into()))?;
    let mut obs = Obs::default();
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics" => obs.metrics = true,
            "--trace-out" => {
                obs.trace_out = Some(value(&mut it, "--trace-out needs a file path")?.clone());
            }
            _ => flags.push(a),
        }
    }
    let command = parse_command(cmd, flags.into_iter())?;
    // The daemon installs its own registry for its lifetime, and so does
    // the in-process one of `fuzz --serve`: a CLI session on top would
    // block forever on the obs install lock. An external daemon has its
    // own process, so `--serve-addr` composes fine.
    let observed = obs.metrics || obs.trace_out.is_some();
    match &command {
        Command::Serve(_) if observed => Err(CliError(format!(
            "serve does not take {}: the daemon installs its own metrics registry and \
             serves it on GET /metrics",
            if obs.metrics {
                "--metrics"
            } else {
                "--trace-out"
            }
        ))),
        Command::Fuzz { serve: true, .. } if observed => Err(CliError(
            "--serve owns the in-process metrics registry; combine --metrics/--trace-out \
             with --serve-addr instead"
                .into(),
        )),
        _ => Ok((command, obs)),
    }
}

/// One command's own flags.
fn parse_command<'a>(
    cmd: &str,
    mut it: impl Iterator<Item = &'a String>,
) -> Result<Command, CliError> {
    match cmd {
        "help" | "-h" | "--help" => Ok(Command::Help),
        "build" | "run" | "batch" | "sweep" => {
            let mut files: Vec<String> = Vec::new();
            let mut emit = Emit::Automaton;
            let (mut pes, mut pool, mut compare, mut trace) = (8usize, None, false, false);
            let mut profiles: Vec<String> = Vec::new();
            let mut opts = CommonOpts {
                // Profile compiles are independent: sweep defaults to the
                // whole pool.
                jobs: if cmd == "sweep" { 0 } else { 1 },
                ..CommonOpts::default()
            };
            while let Some(a) = it.next() {
                match (cmd, a.as_str()) {
                    ("build", "--emit") => {
                        emit = match value(&mut it, "--emit needs a value")?.as_str() {
                            "automaton" => Emit::Automaton,
                            "mpl" => Emit::Mpl,
                            "dot" => Emit::Dot,
                            "graph" => Emit::Graph,
                            "asm" => Emit::Asm,
                            other => return Err(CliError(format!("unknown emit kind `{other}`"))),
                        };
                    }
                    ("run", "--pes") => pes = parsed(&mut it, "--pes needs a value", "PE count")?,
                    ("run", "--pool") => {
                        pool = Some(parsed(&mut it, "--pool needs a value", "pool count")?);
                    }
                    ("run", "--compare") => compare = true,
                    ("run", "--trace") => trace = true,
                    ("sweep", "--profiles") => {
                        let v = value(&mut it, "--profiles needs files/dirs")?;
                        profiles.extend(v.split(',').filter(|s| !s.is_empty()).map(String::from));
                    }
                    ("build" | "run" | "batch", "--stats") => opts.stats = true,
                    (_, "--mode") => {
                        opts.mode = match value(&mut it, "--mode needs a value")?.as_str() {
                            "base" => ConvertMode::Base,
                            "compressed" => ConvertMode::Compressed,
                            other => return Err(CliError(format!("unknown mode `{other}`"))),
                        };
                    }
                    (_, "--time-split") => opts.time_split = true,
                    (_, "--optimize") => opts.optimize = true,
                    (_, "--minimize") => opts.minimize = true,
                    (_, "--no-csi") => opts.no_csi = true,
                    (_, "--jobs") => {
                        opts.jobs = parsed(&mut it, "--jobs needs a value", "job count")?;
                    }
                    (_, "--cache") => opts.cache = Some(cache_dir(&mut it)?),
                    (_, "--max-meta-states") => {
                        opts.max_meta_states = Some(max_meta_states(&mut it, "meta-state limit")?);
                    }
                    (_, "--memory-budget") => {
                        let v = value(&mut it, "--memory-budget needs a byte size")?;
                        opts.memory_budget = Some(msc_core::parse_bytes(v).ok_or_else(|| {
                            CliError(format!("bad memory budget `{v}` (try 64m, 2g, 65536)"))
                        })?);
                    }
                    (_, other)
                        if !other.starts_with('-') && (cmd == "batch" || files.is_empty()) =>
                    {
                        files.push(other.to_string());
                    }
                    (_, other) => return Err(unexpected(other)),
                }
            }
            if files.is_empty() {
                return Err(CliError("missing input file".into()));
            }
            let file = files[0].clone();
            Ok(match cmd {
                "build" => Command::Build { file, emit, opts },
                "batch" => Command::Batch { files, opts },
                "sweep" => Command::Sweep {
                    file,
                    profiles,
                    opts,
                },
                _ => {
                    // `POST /run`'s rule: at least one PE, and at least
                    // one and at most all of them live.
                    if pes == 0 {
                        return Err(CliError("--pes must be at least 1".into()));
                    }
                    match pool {
                        Some(0) => return Err(CliError("--pool must be at least 1".into())),
                        Some(live) if live > pes => {
                            return Err(CliError(format!("--pool {live} is more than --pes {pes}")))
                        }
                        _ => {}
                    }
                    Command::Run {
                        file,
                        pes,
                        pool,
                        compare,
                        trace,
                        opts,
                    }
                }
            })
        }
        "serve" => {
            let mut o = msc_serve::ServeOptions::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => o.addr = value(&mut it, "--addr needs HOST:PORT")?.clone(),
                    "--workers" => {
                        o.workers = parsed(&mut it, "--workers needs a value", "worker count")?;
                    }
                    "--queue-depth" => {
                        o.queue_depth =
                            parsed(&mut it, "--queue-depth needs a value", "queue depth")?;
                    }
                    "--cache" => o.cache_dir = Some(cache_dir(&mut it)?.into()),
                    "--max-meta-states" => {
                        o.max_meta_states = max_meta_states(&mut it, "meta-state cap")?;
                    }
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Serve(o))
        }
        "fuzz" => {
            let mut cfg = msc_fuzz::FuzzConfig {
                cases: 200,
                ..msc_fuzz::FuzzConfig::default()
            };
            let (mut serve, mut replay) = (false, None);
            while let Some(a) = it.next() {
                let oracle_cfg = &mut cfg.oracle_cfg;
                match a.as_str() {
                    "--seed" => cfg.seed = parsed(&mut it, "--seed needs a value", "seed")?,
                    "--cases" => {
                        cfg.cases = parsed(&mut it, "--cases needs a value", "case count")?
                    }
                    "--pes" => {
                        oracle_cfg.n_pe = parsed(&mut it, "--pes needs a value", "PE count")?
                    }
                    // --max-meta-states: the same knob under the name the
                    // other commands use.
                    "--max-states" | "--max-meta-states" => {
                        let missing = format!("{a} needs a value");
                        oracle_cfg.max_meta_states = parsed(&mut it, &missing, "meta-state bound")?;
                    }
                    "--corpus" => {
                        cfg.corpus_dir = Some(value(&mut it, "--corpus needs a directory")?.into());
                    }
                    "--oracles" => {
                        let list = value(&mut it, "--oracles needs a list")?;
                        cfg.oracles = msc_fuzz::Oracle::parse_list(list).map_err(CliError)?;
                    }
                    "--serve" => serve = true,
                    "--serve-addr" => {
                        oracle_cfg.serve_addr =
                            Some(value(&mut it, "--serve-addr needs HOST:PORT")?.clone());
                    }
                    "--replay" => replay = Some(value(&mut it, "--replay needs a file")?.clone()),
                    other => return Err(unexpected(other)),
                }
            }
            if cfg.oracle_cfg.n_pe == 0 {
                return Err(CliError("--pes must be at least 1".into()));
            }
            let wants_serve = serve || cfg.oracle_cfg.serve_addr.is_some();
            if wants_serve && !cfg.oracles.contains(&msc_fuzz::Oracle::Serve) {
                cfg.oracles.push(msc_fuzz::Oracle::Serve);
            }
            Ok(Command::Fuzz { cfg, serve, replay })
        }
        "match" => {
            let mut pattern: Option<String> = None;
            let mut files: Vec<String> = Vec::new();
            let mut threads = 0usize;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--threads" => {
                        threads = parsed(&mut it, "--threads needs a value", "thread count")?;
                    }
                    // The first positional is the pattern — even when it
                    // starts with `-` inside a class or alternation the
                    // shell-friendly spelling is to quote it; a leading
                    // `-` that is not a known flag is accepted as pattern
                    // text so `mscc match '-+'` works.
                    other if pattern.is_none() => pattern = Some(other.to_string()),
                    other if !other.starts_with('-') => files.push(other.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            let pattern = pattern.ok_or_else(|| CliError("missing pattern".into()))?;
            Ok(Command::Match {
                pattern,
                files,
                threads,
            })
        }
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn build_pipeline(src: &str, opts: &CommonOpts) -> Pipeline {
    // Guard/budget overrides must come after mode(): mode() resets the
    // conversion options to that mode's defaults.
    let mut p = Pipeline::new(src).mode(opts.mode);
    if let Some(n) = opts.max_meta_states {
        p = p.max_meta_states(n);
    }
    if let Some(b) = opts.memory_budget {
        p = p.memory_budget(Some(b));
    }
    if opts.time_split {
        p = p.time_split(TimeSplitOptions::default());
    }
    if opts.optimize {
        p = p.optimize();
    }
    if opts.minimize {
        p = p.minimize();
    }
    if opts.no_csi {
        p = p.gen_options(metastate::GenOptions {
            csi: false,
            ..Default::default()
        });
    }
    p
}

/// Build an [`Engine`] from the engine-related common options.
fn engine_for(opts: &CommonOpts) -> Engine {
    Engine::new(EngineOptions {
        threads: opts.jobs,
        cache_dir: opts.cache.as_ref().map(std::path::PathBuf::from),
        ..EngineOptions::default()
    })
}

/// Average and maximum meta-state width, read off the automaton rendering
/// (`ms_3 {0,5} -> …`, one meta state per line), which is what an
/// artifact carries of the automaton.
fn widths(automaton_text: &str) -> (f64, usize) {
    let (mut states, mut total, mut max) = (0usize, 0usize, 0usize);
    for line in automaton_text.lines() {
        let members = line
            .split_once('{')
            .and_then(|(_, rest)| rest.split_once('}'))
            .map_or("", |(members, _)| members);
        let width = members.split(',').filter(|m| !m.is_empty()).count();
        states += 1;
        total += width;
        max = max.max(width);
    }
    (total as f64 / states.max(1) as f64, max)
}

/// The `--stats` block for one compiled artifact.
fn stats_block(artifact: &metastate::Artifact, provenance: Provenance, engine: &Engine) -> String {
    let s = &artifact.stats;
    let t = &artifact.timings;
    let c = engine.cache_stats();
    let mut out = String::from("\n-- stats --\n");
    out.push_str(&format!("provenance: {provenance}\n"));
    let (avg, max) = widths(&artifact.automaton_text);
    out.push_str(&format!(
        "meta states: {} (avg width {avg:.2}, max width {max})\n",
        artifact.meta_states
    ));
    out.push_str(&format!(
        "conversion: {} restarts, {} splits, {} subsumed, {} successor sets enumerated\n",
        s.restarts, s.splits, s.subsumed, s.successor_sets_enumerated
    ));
    out.push_str(&format!(
        "timings: compile {:?}, convert {:?}, codegen {:?}\n",
        t.compile, t.convert, t.codegen
    ));
    out.push_str(&format!(
        "cache: {} memory hits, {} disk hits, {} misses, {} coalesced, {} insertions, {} evictions\n",
        c.hits,
        c.disk_hits,
        c.misses,
        engine.coalesced(),
        c.insertions,
        c.evictions
    ));
    out.push_str(&format!("threads: {}\n", engine.threads()));
    out
}

/// Compile `src` under the common options on a fresh [`Engine`] — the one
/// route `build` and `run` share. The engine comes back too, for the
/// `--stats` block.
fn compile_source(
    file: &str,
    src: &str,
    opts: &CommonOpts,
) -> Result<(Engine, metastate::Compiled), CliError> {
    let engine = engine_for(opts);
    let out = engine
        .compile(&build_pipeline(src, opts).into_job(file))
        .map_err(|e| CliError(e.to_string()))?;
    Ok((engine, out))
}

/// `--emit dot|graph`: the IR, which no artifact carries, from one run of
/// [`metastate::engine::compile_stages`] on the command's `--jobs`.
fn draw_ir(emit: &Emit, file: &str, opts: &CommonOpts, src: &str) -> Result<String, CliError> {
    let job = build_pipeline(src, opts).into_job(file);
    let (s, _) = metastate::engine::compile_stages(&job, opts.jobs, None)
        .map_err(|e| CliError(e.to_string()))?;
    Ok(match emit {
        Emit::Dot => s.automaton.dot(),
        _ => msc_ir::render::text(&s.compiled.graph, &CostModel::default()),
    })
}

/// `mscc build`. What the cache stores is the program and the automaton
/// text; `--emit dot|graph` draw the IR whatever the artifact's
/// provenance, and compile for an artifact as well only when `--stats`
/// or `--cache` is there to use it.
fn execute_build(
    file: &str,
    emit: &Emit,
    opts: &CommonOpts,
    src: &str,
) -> Result<String, CliError> {
    if matches!(emit, Emit::Dot | Emit::Graph) && !opts.stats && opts.cache.is_none() {
        return draw_ir(emit, file, opts, src);
    }
    let (engine, out) = compile_source(file, src, opts)?;
    let artifact = &out.artifact;
    let mut text = match emit {
        Emit::Automaton => {
            let (avg, max) = widths(&artifact.automaton_text);
            format!(
                "{}\n{} meta states, avg width {avg:.2}, max width {max}\n",
                artifact.automaton_text, artifact.meta_states
            )
        }
        Emit::Mpl => metastate::render_mpl(&artifact.simd),
        Emit::Asm => msc_simd::serialize_asm(&artifact.simd),
        Emit::Dot | Emit::Graph => draw_ir(emit, file, opts, src)?,
    };
    if opts.stats {
        text.push_str(&stats_block(artifact, out.provenance, &engine));
    }
    Ok(text)
}

/// `mscc run`: compile, run on `pes` PEs (`pool` of them live), and
/// print the per-PE results, the machine's counters, and on request the
/// meta-state trace and the comparison against the MIMD reference and
/// the §1.1 interpreter.
fn execute_run(
    file: &str,
    src: &str,
    pes: usize,
    pool: Option<usize>,
    compare: bool,
    trace: bool,
    opts: &CommonOpts,
) -> Result<String, CliError> {
    let (engine, compiled) = compile_source(file, src, opts)?;
    let artifact = &compiled.artifact;
    let simd = &artifact.simd;
    let mut cfg = match pool {
        Some(live) => MachineConfig::with_pool(pes, live),
        None => MachineConfig::spmd(pes),
    };
    cfg.trace = trace;
    let mut machine = metastate::SimdMachine::new(simd, &cfg);
    let metrics = machine
        .run(simd, &cfg)
        .map_err(|e| CliError(e.to_string()))?;
    let mut text = String::new();
    if let Some(ret) = artifact.ret_addr {
        text.push_str("PE | result\n");
        for pe in 0..pes {
            text.push_str(&format!("{pe:2} | {}\n", machine.poly_at(pe, ret)));
        }
    }
    text.push_str(&format!(
        "\ncycles={} (body {}, guards {}, dispatch {}), issues={}, dispatches={}, utilization={:.1}%\n",
        metrics.cycles,
        metrics.body_cycles,
        metrics.guard_cycles,
        metrics.dispatch_cycles,
        metrics.issues,
        metrics.dispatches,
        metrics.utilization() * 100.0
    ));
    text.push_str(&format!(
        "automaton: {} meta states; per-PE program memory: 0 words\n",
        artifact.meta_states
    ));
    if trace {
        text.push_str("\ntrace (meta-state path):\n");
        for ev in &machine.trace {
            match ev {
                msc_simd::TraceEvent::EnterBlock {
                    block,
                    live,
                    at_cycle,
                } => {
                    text.push_str(&format!(
                        "  @{at_cycle:<6} enter {} (live PEs: {live})\n",
                        simd.block(*block).name
                    ));
                }
                msc_simd::TraceEvent::Dispatch { to: Some(t), .. } => {
                    text.push_str(&format!("          -> {}\n", simd.block(*t).name));
                }
                msc_simd::TraceEvent::Dispatch { to: None, .. } => {
                    text.push_str("          -> exit\n");
                }
            }
        }
    }
    if compare {
        // The reference and the interpreter run the same workload as
        // the machine: `cfg.active_at_start` of `pes` PEs live.
        let p = msc_lang::compile(src).map_err(|e| CliError(e.to_string()))?;
        let mcfg = msc_mimd::MimdConfig {
            active_at_start: cfg.active_at_start,
            ..msc_mimd::MimdConfig::spmd(pes)
        };
        let mut mimd =
            msc_mimd::MimdReference::new(p.layout.poly_words, p.layout.mono_words, &mcfg);
        let mm = mimd
            .run(&p.graph, &mcfg)
            .map_err(|e| CliError(e.to_string()))?;
        let image =
            msc_mimd::InterpProgram::flatten(&p.graph, p.layout.poly_words, p.layout.mono_words);
        let im = msc_mimd::InterpMachine::new(&image, pes, cfg.active_at_start)
            .run(&image, &CostModel::default(), mcfg.max_cycles)
            .map_err(|e| CliError(e.to_string()))?;
        text.push_str(&format!(
            "\ncompare: MIMD reference {} cycles; interpreter {} cycles ({:.2}x vs MSC)\n",
            mm.cycles,
            im.cycles,
            im.cycles as f64 / metrics.cycles as f64
        ));
        if let (Some(ret), Some(mret)) = (artifact.ret_addr, p.layout.main_ret) {
            let agree = (0..pes).all(|pe| machine.poly_at(pe, ret) == mimd.poly_at(pe, mret));
            text.push_str(&format!(
                "results {} the MIMD reference\n",
                if agree { "MATCH" } else { "DIVERGE FROM" }
            ));
        }
    }
    if opts.stats {
        text.push_str(&stats_block(artifact, compiled.provenance, &engine));
    }
    Ok(text)
}

fn mode_name(mode: ConvertMode) -> &'static str {
    match mode {
        ConvertMode::Base => "base",
        ConvertMode::Compressed => "compressed",
    }
}

/// Resolve `--profiles` specs (files and/or directories) into the profile
/// matrix. No specs: the `profiles/` directory of the working directory
/// when present, else the bundled matrix (same content — the tier-1 tests
/// pin the committed files bit-equal to [`MachineProfile::bundled`]). A
/// spec or `profiles/` that is unreadable, malformed or yields no profile
/// is an error, never a fallback. `mscc sweep` and the S1 gate of
/// `BENCH_claims.json` both resolve their matrix here.
pub fn load_profiles(specs: &[String]) -> Result<Vec<MachineProfile>, CliError> {
    let mut out = Vec::new();
    if specs.is_empty() {
        let dir = std::path::Path::new("profiles");
        if dir.is_dir() {
            out = MachineProfile::load_dir(dir).map_err(|e| CliError(format!("profiles/: {e}")))?;
        } else {
            out = MachineProfile::bundled();
        }
    } else {
        for spec in specs {
            let path = std::path::Path::new(spec);
            if path.is_dir() {
                out.extend(
                    MachineProfile::load_dir(path).map_err(|e| CliError(format!("{spec}: {e}")))?,
                );
            } else {
                out.push(MachineProfile::load(path).map_err(|e| CliError(format!("{spec}: {e}")))?);
            }
        }
    }
    if out.is_empty() {
        return Err(CliError("no machine profiles found".into()));
    }
    Ok(out)
}

/// One measured profile of a [`sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Profile name.
    pub name: String,
    /// PEs the profile ran on.
    pub pe_count: usize,
    /// Meta states of the program compiled under the profile's costs.
    pub meta_states: usize,
    /// Simulated MSC cycles.
    pub cycles: u64,
    /// PE utilization inside meta-state bodies.
    pub utilization: f64,
    /// The §1.1 interpreter baseline priced under the same profile.
    pub interp_cycles: u64,
    /// `interp_cycles / cycles`.
    pub speedup: f64,
}

/// Measure `src` under every profile: compile once per profile (each
/// profile's cost model is part of the [`metastate::Job`], so the engine
/// pool parallelizes the compiles and the cache keys stay distinct), run
/// each program on its profile's machine, and price the §1.1 interpreter
/// baseline under the same profile for the speedup. Returns a row per
/// profile that compiled and ran, in `profiles` order, and a line per
/// profile that did not. `mscc sweep` renders this; the S1 gate of
/// `BENCH_claims.json` pins it.
pub fn sweep(
    name: &str,
    src: &str,
    profiles: &[MachineProfile],
    opts: &CommonOpts,
) -> Result<(Vec<SweepRow>, Vec<String>), CliError> {
    msc_obs::count("sweep.profiles", profiles.len() as u64);
    let program = msc_lang::compile(src).map_err(|e| CliError(e.to_string()))?;
    let engine = engine_for(opts);
    let jobs: Vec<metastate::Job> = profiles
        .iter()
        .map(|p| {
            build_pipeline(src, opts)
                .costs(p.costs.clone())
                .into_job(format!("{name}@{}", p.name))
        })
        .collect();
    let compiled = engine.compile_many(&jobs);

    let mut rows: Vec<SweepRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (p, result) in profiles.iter().zip(compiled) {
        let measured = result
            .map_err(|e| format!("compile failed: {e}"))
            .and_then(|out| {
                let cfg = p.machine_config();
                let simd = &out.artifact.simd;
                let mut machine = metastate::SimdMachine::new(simd, &cfg);
                let metrics = machine
                    .run(simd, &cfg)
                    .map_err(|e| format!("run failed: {e}"))?;
                let (_, im) = msc_mimd::interpret_on_simd(
                    &program.graph,
                    program.layout.poly_words,
                    program.layout.mono_words,
                    p.pe_count,
                    &p.costs,
                )
                .map_err(|e| format!("interpreter baseline failed: {e}"))?;
                Ok(SweepRow {
                    name: p.name.clone(),
                    pe_count: p.pe_count,
                    meta_states: out.artifact.meta_states,
                    cycles: metrics.cycles,
                    utilization: metrics.utilization(),
                    interp_cycles: im.cycles,
                    speedup: im.cycles as f64 / metrics.cycles as f64,
                })
            });
        match measured {
            Ok(row) => {
                msc_obs::count("sweep.runs", 1);
                rows.push(row);
            }
            Err(e) => {
                msc_obs::count("sweep.errors", 1);
                failures.push(format!("{}: {e}", p.name));
            }
        }
    }
    Ok((rows, failures))
}

/// `mscc sweep`: [`sweep`] as an aligned text table plus one
/// machine-readable JSON line; any profile that failed makes the whole
/// report an error.
fn execute_sweep(
    file: &str,
    src: &str,
    profiles: &[MachineProfile],
    opts: &CommonOpts,
) -> Result<String, CliError> {
    use msc_obs::json::Json;
    let (rows, failures) = sweep(file, src, profiles, opts)?;
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(["profile".len()])
        .max()
        .expect("chain is non-empty");
    let mut text = format!(
        "sweep: {file} across {} profile(s) ({} mode)\n\n",
        profiles.len(),
        mode_name(opts.mode),
    );
    text.push_str(&format!(
        "{:<name_w$}  {:>4}  {:>6}  {:>12}  {:>6}  {:>12}  {:>8}\n",
        "profile", "PEs", "states", "cycles", "util%", "interp", "speedup"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:<name_w$}  {:>4}  {:>6}  {:>12}  {:>6.1}  {:>12}  {:>7.2}x\n",
            r.name,
            r.pe_count,
            r.meta_states,
            r.cycles,
            r.utilization * 100.0,
            r.interp_cycles,
            r.speedup
        ));
    }
    let json = Json::obj(vec![
        ("workload", Json::from(file)),
        ("mode", Json::from(mode_name(opts.mode))),
        (
            "profiles",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::from(r.name.as_str())),
                            ("pe_count", Json::from(r.pe_count)),
                            ("meta_states", Json::from(r.meta_states)),
                            ("cycles", Json::from(r.cycles)),
                            ("utilization", Json::from(r.utilization)),
                            ("interp_cycles", Json::from(r.interp_cycles)),
                            ("speedup", Json::from(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    text.push('\n');
    text.push_str(&json.render());
    text.push('\n');
    if !failures.is_empty() {
        return Err(CliError(format!(
            "{text}\nsweep failures:\n  {}",
            failures.join("\n  ")
        )));
    }
    Ok(text)
}

/// Observability wiring for one CLI invocation: installs the subscribers
/// the [`Obs`] flags ask for (a metrics [`msc_obs::Registry`] for
/// `--metrics`, a [`msc_obs::JsonlSink`] for `--trace-out`, fanned out
/// when both) for the duration of the command. [`execute`] opens exactly
/// one per invocation — nesting would deadlock on the obs install lock.
struct ObsSession {
    registry: Option<Arc<msc_obs::Registry>>,
    sink: Option<Arc<msc_obs::JsonlSink<std::fs::File>>>,
    guard: msc_obs::InstallGuard,
}

impl ObsSession {
    /// Start a session if the flags ask for one; `None` means the
    /// command runs with observability fully disabled (the zero-cost
    /// path).
    fn start(obs: &Obs) -> Result<Option<ObsSession>, CliError> {
        if !obs.metrics && obs.trace_out.is_none() {
            return Ok(None);
        }
        let registry = obs.metrics.then(|| Arc::new(msc_obs::Registry::new()));
        let sink = match &obs.trace_out {
            Some(path) => {
                Some(Arc::new(msc_obs::JsonlSink::create(path).map_err(|e| {
                    CliError(format!("cannot open trace file {path}: {e}"))
                })?))
            }
            None => None,
        };
        let mut subs: Vec<Arc<dyn msc_obs::Subscriber>> = Vec::new();
        if let Some(r) = &registry {
            subs.push(r.clone());
        }
        if let Some(s) = &sink {
            subs.push(s.clone());
        }
        let guard = if subs.len() == 1 {
            msc_obs::install(subs.pop().expect("one subscriber"))
        } else {
            msc_obs::install(Arc::new(msc_obs::Fanout::new(subs)))
        };
        Ok(Some(ObsSession {
            registry,
            sink,
            guard,
        }))
    }

    /// Uninstall the subscribers, flush the trace file, and return the
    /// rendered metrics table (empty when `--metrics` was not given).
    fn finish(self) -> Result<String, CliError> {
        drop(self.guard);
        if let Some(sink) = &self.sink {
            sink.flush()
                .map_err(|e| CliError(format!("cannot flush trace file: {e}")))?;
        }
        Ok(self
            .registry
            .map(|r| r.snapshot().render_table())
            .unwrap_or_default())
    }
}

/// `mscc serve`: announce the bound address, then serve until a signal
/// drains the daemon.
fn execute_serve(options: &msc_serve::ServeOptions) -> Result<String, CliError> {
    let handle = msc_serve::Server::start(options.clone())
        .map_err(|e| CliError(format!("cannot start daemon on {}: {e}", options.addr)))?;
    // Announce before blocking so scripts can find the port.
    println!("msc-serve listening on {}", handle.local_addr());
    msc_serve::run_until_signal(handle);
    Ok("msc-serve: drained and stopped\n".to_string())
}

/// `mscc fuzz`: run the differential fuzzer, or replay one reproducer.
///
/// The report ends with a machine-readable JSON summary line. When the
/// run finds mismatches the report comes back as `Err`, so the driver
/// exits nonzero without losing the reproducer paths; a replay always
/// returns `Ok` (its JSON says whether the bug still reproduces).
fn execute_fuzz(
    cfg: &msc_fuzz::FuzzConfig,
    serve: bool,
    replay: Option<&str>,
) -> Result<String, CliError> {
    use msc_obs::json::Json;
    let handle = if serve {
        Some(
            msc_serve::Server::start(msc_serve::ServeOptions {
                addr: "127.0.0.1:0".into(),
                workers: 4,
                ..msc_serve::ServeOptions::default()
            })
            .map_err(|e| CliError(format!("cannot start in-process daemon: {e}")))?,
        )
    } else {
        None
    };
    let mut cfg = cfg.clone();
    if let (None, Some(h)) = (&cfg.oracle_cfg.serve_addr, &handle) {
        cfg.oracle_cfg.serve_addr = Some(h.local_addr().to_string());
    }
    let mut text = String::new();
    let mut found = 0u64;
    if let Some(path) = replay {
        let repro = msc_fuzz::Reproducer::read(std::path::Path::new(path)).map_err(CliError)?;
        let result = msc_fuzz::replay(&repro, &cfg);
        for m in &result.mismatches {
            text.push_str(&format!("{}: {}\n", m.oracle, m.detail));
        }
        let reproduced = result.mismatches.iter().any(|m| m.oracle == repro.oracle);
        text.push_str(&format!(
            "{}\n",
            Json::obj(vec![
                ("replay", Json::from(path)),
                ("seed", Json::from(repro.seed)),
                ("case", Json::from(repro.case_index)),
                ("oracle", Json::from(repro.oracle.as_str())),
                ("reproduced", Json::from(reproduced)),
                ("mismatches", Json::from(result.mismatches.len())),
            ])
            .render()
        ));
    } else {
        let total = cfg.cases;
        let summary = msc_fuzz::run_fuzz_with(&cfg, |i, r| {
            if !r.clean() {
                eprintln!("mscc fuzz: mismatch in case {i}");
            } else if (i + 1) % 100 == 0 {
                eprintln!("mscc fuzz: {}/{total} cases clean", i + 1);
            }
        });
        for path in &summary.reproducers {
            text.push_str(&format!("reproducer: {path}\n"));
        }
        text.push_str(&format!("{}\n", summary.to_json().render()));
        found = summary.mismatches;
    }
    if let Some(h) = handle {
        h.shutdown();
    }
    if found > 0 {
        Err(CliError(format!("{found} mismatch(es) found\n{text}")))
    } else {
        Ok(text)
    }
}

/// Render matched bytes for terminal output: printable ASCII as-is,
/// common escapes by name, the rest as `\xNN`.
fn escape_bytes(bytes: &[u8]) -> String {
    let mut s = String::new();
    for &b in bytes {
        match b {
            b'\\' => s.push_str("\\\\"),
            b'\n' => s.push_str("\\n"),
            b'\t' => s.push_str("\\t"),
            0x20..=0x7e => s.push(b as char),
            _ => s.push_str(&format!("\\x{b:02x}")),
        }
    }
    s
}

/// Split a haystack into up to `n` contiguous shards for the sharded
/// scanner. More shards than threads keeps every worker busy even when
/// match density is uneven across the input.
fn shard_bytes(bytes: &[u8], n: usize) -> Vec<&[u8]> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let chunk = bytes.len().div_ceil(n.clamp(1, bytes.len()));
    bytes.chunks(chunk).collect()
}

/// `mscc match`: compile the pattern once, scan every input sharded.
/// Spans are byte offsets into each input and — by the stitching
/// construction — identical at every thread count.
fn execute_match(
    pattern: &str,
    inputs: &[(String, Vec<u8>)],
    threads: usize,
) -> Result<String, CliError> {
    let re = msc_regex::Regex::new(pattern).map_err(|e| CliError(e.to_string()))?;
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut text = String::new();
    let mut total = 0usize;
    for (name, bytes) in inputs {
        let shards = shard_bytes(bytes, threads * 4);
        let matches = re.find_sharded(&shards, threads);
        for m in &matches {
            text.push_str(&format!(
                "{name}:{}..{}: {}\n",
                m.start,
                m.end,
                escape_bytes(&bytes[m.start..m.end]),
            ));
        }
        total += matches.len();
    }
    text.push_str(&format!(
        "{total} match(es) across {} input(s); {} meta states, {threads} thread(s)\n",
        inputs.len(),
        re.meta_states()
    ));
    Ok(text)
}

/// An input as MIMDC source text.
fn source((name, bytes): &(String, Vec<u8>)) -> Result<(&str, &str), CliError> {
    let src =
        std::str::from_utf8(bytes).map_err(|e| CliError(format!("cannot read {name}: {e}")))?;
    Ok((name, src))
}

/// `mscc batch`: compile every input over the engine's worker pool; each
/// file reports success or its own error. Any failed file makes the
/// whole report an error, so scripts see the partial failure without
/// losing the per-file lines.
fn execute_batch(inputs: &[(String, Vec<u8>)], opts: &CommonOpts) -> Result<String, CliError> {
    let engine = engine_for(opts);
    let jobs = inputs
        .iter()
        .map(|input| {
            let (name, src) = source(input)?;
            Ok(build_pipeline(src, opts).into_job(name))
        })
        .collect::<Result<Vec<metastate::Job>, CliError>>()?;
    let results = engine.compile_many(&jobs);
    let mut text = String::new();
    let mut ok = 0usize;
    for (job, result) in jobs.iter().zip(&results) {
        match result {
            Ok(c) => {
                ok += 1;
                text.push_str(&format!(
                    "{}: ok, {} meta states, {} blocks ({})\n",
                    job.name,
                    c.artifact.meta_states,
                    c.artifact.simd.blocks.len(),
                    c.provenance
                ));
            }
            Err(e) => text.push_str(&format!("{}: error: {e}\n", job.name)),
        }
    }
    text.push_str(&format!(
        "\n{ok}/{} succeeded, {} threads",
        results.len(),
        engine.threads()
    ));
    if opts.stats {
        let c = engine.cache_stats();
        text.push_str(&format!(
            "; cache: {} memory hits, {} disk hits, {} misses, {} coalesced",
            c.hits,
            c.disk_hits,
            c.misses,
            engine.coalesced()
        ));
    }
    text.push('\n');
    match results.len() - ok {
        0 => Ok(text),
        failed => Err(CliError(format!("{failed} file(s) failed\n{text}"))),
    }
}

/// Run a parsed command on its inputs — `(name, bytes)` pairs, one per
/// file the command names (build, run, sweep: exactly one), or the one
/// haystack of a `match` that named none — and return what the CLI
/// prints. The whole command runs inside one observability session, and
/// its metrics table ends the output, `Ok` or `Err` alike (a batch with
/// a failed file, a fuzz run with mismatches).
pub fn execute(cmd: &Command, obs: &Obs, inputs: &[(String, Vec<u8>)]) -> Result<String, CliError> {
    let one_source = || {
        inputs
            .first()
            .ok_or_else(|| CliError("missing input file".into()))
            .and_then(source)
    };
    let session = ObsSession::start(obs)?;
    let out = match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Build { emit, opts, .. } => {
            one_source().and_then(|(name, src)| execute_build(name, emit, opts, src))
        }
        Command::Run {
            pes,
            pool,
            compare,
            trace,
            opts,
            ..
        } => one_source()
            .and_then(|(name, src)| execute_run(name, src, *pes, *pool, *compare, *trace, opts)),
        Command::Batch { opts, .. } => execute_batch(inputs, opts),
        Command::Sweep { profiles, opts, .. } => one_source()
            .and_then(|(name, src)| execute_sweep(name, src, &load_profiles(profiles)?, opts)),
        Command::Serve(options) => execute_serve(options),
        Command::Fuzz { cfg, serve, replay } => execute_fuzz(cfg, *serve, replay.as_deref()),
        Command::Match {
            pattern, threads, ..
        } => execute_match(pattern, inputs, *threads),
    };
    let Some(session) = session else {
        return out;
    };
    let table = session.finish()?;
    match out {
        Ok(text) => Ok(text + &table),
        Err(CliError(text)) => Err(CliError(text + &table)),
    }
}

/// Full entry point: parse the arguments, refuse an `MSC_MEMORY_BUDGET`
/// that is not a byte count, read the files the command names (stdin for
/// a `match` with none), and [`execute`].
pub fn main_with_args(args: &[String]) -> Result<String, CliError> {
    let (cmd, obs) = parse_args(args)?;
    msc_core::env_memory_budget().map_err(CliError)?;
    let read = |file: &String| {
        std::fs::read(file)
            .map(|bytes| (file.clone(), bytes))
            .map_err(|e| CliError(format!("cannot read {file}: {e}")))
    };
    let inputs = match &cmd {
        Command::Match { files, .. } if files.is_empty() => {
            use std::io::Read as _;
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| CliError(format!("cannot read stdin: {e}")))?;
            vec![("<stdin>".to_string(), buf)]
        }
        _ => cmd.files().iter().map(read).collect::<Result<_, _>>()?,
    };
    execute(&cmd, &obs, &inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> Command {
        parse_args(&args(s)).unwrap().0
    }

    /// `mscc LINE` with `src` as every file the line names (or as the
    /// haystack of a `match` that names none).
    fn exec(line: &str, src: &str) -> Result<String, CliError> {
        let (cmd, obs) = parse_args(&args(line))?;
        let names = match &cmd {
            Command::Match { files, .. } if files.is_empty() => vec!["<stdin>".to_string()],
            _ => cmd.files().to_vec(),
        };
        let inputs: Vec<(String, Vec<u8>)> = names
            .into_iter()
            .map(|n| (n, src.as_bytes().to_vec()))
            .collect();
        execute(&cmd, &obs, &inputs)
    }

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

    #[test]
    fn parse_serve_flags() {
        let Command::Serve(o) = parse(
            "serve --addr 127.0.0.1:0 --workers 2 --queue-depth 4 --cache /tmp/c --max-meta-states 512",
        ) else {
            panic!("expected serve command");
        };
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!((o.workers, o.queue_depth, o.max_meta_states), (2, 4, 512));
        assert_eq!(o.cache_dir, Some("/tmp/c".into()));
        // Unset flags keep the daemon's defaults.
        let Command::Serve(o) = parse("serve") else {
            panic!("expected serve command");
        };
        let d = msc_serve::ServeOptions::default();
        assert_eq!(
            (o.addr, o.workers, o.queue_depth, o.max_meta_states),
            (d.addr, d.workers, d.queue_depth, d.max_meta_states)
        );
        assert!(parse_args(&args("serve --max-meta-states 0")).is_err());
        assert!(parse_args(&args("serve --workers")).is_err());
        assert!(parse_args(&args("serve extra.mimdc")).is_err());
        // The daemon serves its own registry; the CLI's would block on it.
        for flag in ["--metrics", "--trace-out t.jsonl"] {
            let err = parse_args(&args(&format!("serve {flag}"))).unwrap_err();
            assert!(err.0.contains("GET /metrics"), "{err:?}");
        }
        // One build, one driver: there is no selector to pass.
        let err = parse_args(&args("serve --blocking")).unwrap_err();
        assert!(
            err.0.contains("unexpected argument `--blocking`"),
            "{err:?}"
        );
    }

    #[test]
    fn parse_build_defaults() {
        let (cmd, obs) = parse_args(&args("build foo.mimdc")).unwrap();
        let Command::Build { file, emit, opts } = cmd else {
            panic!("expected build command");
        };
        assert_eq!(file, "foo.mimdc");
        assert_eq!(emit, Emit::Automaton);
        assert_eq!(opts, CommonOpts::default());
        assert_eq!(obs, Obs::default());
    }

    #[test]
    fn parse_run_with_flags() {
        let Command::Run {
            pes,
            pool,
            compare,
            opts,
            ..
        } = parse(
            "run foo.mimdc --pes 32 --pool 4 --compare --mode compressed --time-split --optimize --minimize --no-csi",
        )
        else {
            panic!()
        };
        assert_eq!(pes, 32);
        assert_eq!(pool, Some(4));
        assert!(compare);
        assert_eq!(opts.mode, ConvertMode::Compressed);
        assert!(opts.time_split && opts.optimize && opts.minimize && opts.no_csi);
    }

    #[test]
    fn run_follows_the_daemons_pe_rule() {
        // `POST /run` answers 400 for pes 0, active 0 and active > pes;
        // so does the command line, before compiling anything.
        for (line, want) in [
            ("run f --pes 0", "--pes must be at least 1"),
            ("run f --pool 0", "--pool must be at least 1"),
            ("run f --pes 4 --pool 5", "--pool 5 is more than --pes 4"),
            ("run f --pool 9", "--pool 9 is more than --pes 8"),
        ] {
            let err = parse_args(&args(line)).unwrap_err();
            assert_eq!(err.0, want, "{line}");
        }
        let Command::Run { pes, pool, .. } = parse("run f --pes 4 --pool 4") else {
            panic!("expected run command");
        };
        assert_eq!((pes, pool), (4, Some(4)));
        assert!(exec("run x --pes 1", PROG).unwrap().contains(" 0 | 1\n"));
    }

    #[test]
    fn each_command_takes_only_its_own_flags() {
        for line in [
            "build f --pes 4",
            "build f --compare",
            "build f --pool 2",
            "build f --trace",
            "build f --profiles profiles",
            "run f --emit mpl",
            "run f --profiles profiles",
            "batch a --emit mpl",
            "batch a --pes 2",
            "batch a --compare",
            "batch a --trace",
            "sweep f --pes 3",
            "sweep f --pool 2",
            "sweep f --emit mpl",
            "sweep f --compare",
            "sweep f --trace",
            "sweep f --stats",
        ] {
            let flag = line.split_whitespace().nth(2).unwrap();
            let err = parse_args(&args(line)).unwrap_err();
            assert_eq!(err.0, format!("unexpected argument `{flag}`"), "{line}");
        }
        // What each takes, it still takes.
        for line in [
            "build f --emit mpl --stats --jobs 2 --cache c --mode compressed",
            "run f --pes 4 --pool 2 --compare --trace --stats --jobs 2 --cache c",
            "batch a b --stats --jobs 2 --cache c --time-split",
            "sweep f --profiles p --jobs 2 --cache c --no-csi",
        ] {
            assert!(parse_args(&args(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn parse_sweep_flags() {
        let Command::Sweep {
            file,
            profiles,
            opts,
        } = parse("sweep foo.mimdc --profiles a.json,b.json")
        else {
            panic!("expected sweep command");
        };
        assert_eq!(file, "foo.mimdc");
        assert_eq!(profiles, vec!["a.json", "b.json"]);
        // Sweep defaults to all cores unless --jobs was given
        // explicitly.
        assert_eq!(opts.jobs, 0);
        let Command::Sweep { profiles, opts, .. } = parse("sweep foo.mimdc --jobs 2") else {
            panic!("expected sweep command");
        };
        assert!(profiles.is_empty());
        assert_eq!(opts.jobs, 2);
        assert!(parse_args(&args("sweep foo.mimdc --profiles")).is_err());
        assert!(parse_args(&args("sweep")).is_err());
    }

    #[test]
    fn a_broken_profile_directory_is_an_error_not_a_fallback() {
        let dir = std::env::temp_dir().join(format!("mscc-profiles-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = [dir.display().to_string()];
        let err = load_profiles(&spec).unwrap_err();
        assert_eq!(err.0, "no machine profiles found");
        std::fs::write(dir.join("x.json"), r#"{"bogus":1}"#).unwrap();
        let err = load_profiles(&spec).unwrap_err();
        assert!(err.0.contains("bogus"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_guard_and_budget_flags() {
        let Command::Build { opts, .. } =
            parse("build foo.mimdc --max-meta-states 4096 --memory-budget 64m")
        else {
            panic!()
        };
        assert_eq!(opts.max_meta_states, Some(4096));
        assert_eq!(opts.memory_budget, Some(64 << 20));
        assert!(parse_args(&args("build foo.mimdc --max-meta-states 0")).is_err());
        assert!(parse_args(&args("build foo.mimdc --memory-budget banana")).is_err());
        assert!(parse_args(&args("build foo.mimdc --memory-budget 1kgb")).is_err());
    }

    #[test]
    fn parse_rejects_unknowns() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("build foo --emit nonsense")).is_err());
        assert!(parse_args(&args("run --pes banana foo")).is_err());
        assert!(parse_args(&args("build")).is_err());
    }

    #[test]
    fn help_works() {
        assert!(matches!(parse("help"), Command::Help));
        assert!(exec("help", "").unwrap().contains("USAGE"));
    }

    #[test]
    fn build_emits_each_kind() {
        for jobs in [1, 2] {
            for (emit, needle) in [
                ("automaton", "meta states"),
                ("mpl", "ms_"),
                ("dot", "digraph"),
                ("graph", "-> "),
                ("asm", ".program start=mb"),
            ] {
                let out = exec(&format!("build x --emit {emit} --jobs {jobs}"), PROG).unwrap();
                assert!(out.contains(needle), "{emit} at --jobs {jobs}: {out}");
            }
        }
    }

    #[test]
    fn build_and_run_need_their_one_input() {
        let cmd = parse("build x");
        let err = execute(&cmd, &Obs::default(), &[]).unwrap_err();
        assert_eq!(err.0, "missing input file");
        let err = execute(&cmd, &Obs::default(), &[("x".into(), vec![0xff])]).unwrap_err();
        assert!(err.0.starts_with("cannot read x: "), "{err}");
    }

    #[test]
    fn run_prints_results_and_metrics() {
        let out = exec("run x --pes 4 --compare", PROG).unwrap();
        assert!(out.contains(" 3 | 7"), "{out}");
        assert!(out.contains("cycles="), "{out}");
        assert!(out.contains("results MATCH"), "{out}");
    }

    #[test]
    fn compare_under_a_pool_runs_the_reference_on_the_same_live_pes() {
        // PEs 0 and 1 take the branch; of 6 PEs only 3 are live, so the
        // idle PEs 3..6 hold 0 on every side.
        let src = "main() { poly int x; x = pe_id(); if (x < 2) { x = x + 10; } return(x); }";
        let out = exec("run x --pes 6 --pool 3 --compare", src).unwrap();
        assert!(out.contains(" 1 | 11\n 2 | 2\n 3 | 0\n"), "{out}");
        assert!(out.contains("results MATCH"), "{out}");
    }

    #[test]
    fn run_with_optimizer_flags_matches_plain() {
        let a = exec("run x --pes 4", PROG).unwrap();
        let b = exec("run x --pes 4 --optimize --minimize", PROG).unwrap();
        let results = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(" | "))
                .map(String::from)
                .collect()
        };
        assert_eq!(results(&a), results(&b));
    }

    #[test]
    fn parse_engine_flags() {
        let Command::Build { opts, .. } = parse("build foo.mimdc --jobs 8 --cache /tmp/c --stats")
        else {
            panic!()
        };
        assert_eq!(opts.jobs, 8);
        assert_eq!(opts.cache.as_deref(), Some("/tmp/c"));
        assert!(opts.stats);
    }

    #[test]
    fn parse_batch_collects_files() {
        let Command::Batch { files, opts } = parse("batch a.mimdc b.mimdc c.mimdc --jobs 2") else {
            panic!()
        };
        assert_eq!(files, vec!["a.mimdc", "b.mimdc", "c.mimdc"]);
        assert_eq!(opts.jobs, 2);
        assert!(
            parse_args(&args("batch")).is_err(),
            "batch needs at least one file"
        );
        assert!(
            parse_args(&args("build a.mimdc b.mimdc")).is_err(),
            "build takes exactly one file"
        );
    }

    #[test]
    fn parse_match_command() {
        let match_parts = |line: &str| {
            let (cmd, obs) = parse_args(&args(line)).unwrap();
            let Command::Match {
                pattern,
                files,
                threads,
            } = cmd
            else {
                panic!("expected match command");
            };
            (pattern, files, threads, obs)
        };
        let (pattern, files, threads, _) = match_parts("match a+b in1.txt in2.txt --threads 3");
        assert_eq!(pattern, "a+b");
        assert_eq!(files, vec!["in1.txt", "in2.txt"]);
        assert_eq!(threads, 3);
        assert!(parse_args(&args("match")).is_err(), "pattern is required");
        assert!(parse_args(&args("match a --threads")).is_err());
        assert!(parse_args(&args("match a --threads zero")).is_err());
        // A leading-dash token in pattern position is pattern text.
        let (pattern, files, threads, _) = match_parts("match -+");
        assert_eq!((pattern.as_str(), files.len(), threads), ("-+", 0, 0));
        // The observability flags, on either side of the pattern, are
        // flags: not the pattern, not a file.
        let (pattern, files, _, obs) = match_parts("match --metrics ab+ f --trace-out t.jsonl");
        assert_eq!(pattern, "ab+");
        assert_eq!(files, vec!["f"]);
        assert!(obs.metrics);
        assert_eq!(obs.trace_out.as_deref(), Some("t.jsonl"));
        assert!(parse_args(&args("match ab+ --trace-out")).is_err());
    }

    #[test]
    fn match_prints_spans_and_summary() {
        let out = execute_match("ab+", &[("x".into(), b"xabbyab".to_vec())], 2).unwrap();
        assert!(out.contains("x:1..4: abb"), "{out}");
        assert!(out.contains("x:5..7: ab"), "{out}");
        assert!(out.contains("2 match(es)"), "{out}");
        let err = execute_match("a(", &[], 1).unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
        // Through execute, each input is one haystack.
        let out = exec("match b+", "abbba").unwrap();
        assert!(out.contains("<stdin>:1..4: bbb"), "{out}");
        assert!(!out.contains("-- metrics --"), "{out}");
        // --metrics appends the table of what the scan counted.
        let out = exec("match --metrics b+ h1 h2", "abbba").unwrap();
        assert!(out.contains("h1:1..4: bbb\nh2:1..4: bbb\n"), "{out}");
        assert!(out.contains("-- metrics --"), "{out}");
        assert!(out.contains("regex.bytes_stepped"), "{out}");
    }

    #[test]
    fn match_spans_are_thread_count_invariant() {
        let hay = b"abcabcxx\nabc".repeat(50);
        let spans = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(".."))
                .map(String::from)
                .collect()
        };
        let one = execute_match("ab*c", &[("h".into(), hay.clone())], 1).unwrap();
        for t in [2, 3, 8] {
            let more = execute_match("ab*c", &[("h".into(), hay.clone())], t).unwrap();
            assert_eq!(spans(&one), spans(&more), "threads={t}");
        }
    }

    #[test]
    fn build_stats_block() {
        let out = exec("build x --stats --jobs 2", PROG).unwrap();
        assert!(out.contains("-- stats --"), "{out}");
        assert!(out.contains("provenance: fresh compile"), "{out}");
        assert!(out.contains("timings: compile"), "{out}");
        assert!(out.contains("cache: 0 memory hits"), "{out}");
        assert!(out.contains("meta states"), "{out}");
    }

    /// `msc_fuzz::generate_case(&FuzzConfig::default(), 541).render()`: in
    /// compressed mode its subsumption fold leaves a numbering that a BFS
    /// from the start state would change.
    const CASE_541: &str = "main() {
    poly int v0 = 1, v1 = 2, v2 = 3, v3 = 4, t0 = 0, result = 0;
    if ((12)) {
        for (t0 = 0; t0 < 3; t0 += 1) {
            v0 = pe_id();
        }
        v0 = v1;
        if (v3) {
            v1 = (-4);
            v1 = v0;
        } else {
            v0 = (-6);
        }
    } else {
        v2 = (11);
        v3 += (v0 == v2);
        v1 = pe_id();
    }
    wait;
    result = v0 + v1 * 10 + v2 * 100 + v3 * 1000;
    return(result);
}
";

    #[test]
    fn build_output_is_the_same_at_any_jobs_and_provenance() {
        let dir = std::env::temp_dir().join(format!("mscc-identity-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (src, mode) in [(PROG, "base"), (CASE_541, "compressed")] {
            for emit in ["automaton", "asm"] {
                let build = |jobs, cache: bool| {
                    let cache = if cache {
                        format!("--cache {}", dir.display())
                    } else {
                        String::new()
                    };
                    exec(
                        &format!("build x --emit {emit} --mode {mode} --jobs {jobs} {cache}"),
                        src,
                    )
                    .unwrap()
                };
                let one = build(1, false);
                assert_eq!(build(2, false), one, "{emit} at --jobs 2");
                // Every call builds a fresh engine, so the second cached
                // build can only be a disk hit.
                assert_eq!(build(2, true), one, "{emit} cold --cache");
                assert_eq!(build(1, true), one, "{emit} warm --cache");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_cached_build_reports_disk_hit() {
        let dir = std::env::temp_dir().join(format!("mscc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let line = format!("build x --stats --cache {}", dir.display());
        // First invocation compiles and persists; each call builds a fresh
        // engine (as separate mscc processes would), so the second can only
        // be satisfied by the disk layer.
        let first = exec(&line, PROG).unwrap();
        assert!(first.contains("provenance: fresh compile"), "{first}");
        let second = exec(&line, PROG).unwrap();
        assert!(second.contains("provenance: cache hit (disk)"), "{second}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_cached_run_reports_disk_hit_and_same_results() {
        let dir = std::env::temp_dir().join(format!("mscc-run-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let line = format!("run x --pes 4 --jobs 2 --stats --cache {}", dir.display());
        let table = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(" | ") || l.starts_with("cycles="))
                .map(String::from)
                .collect()
        };
        let first = exec(&line, PROG).unwrap();
        assert!(first.contains("provenance: fresh compile"), "{first}");
        assert!(first.contains("threads: 2"), "{first}");
        assert!(first.contains(" 3 | 7"), "{first}");
        let second = exec(&line, PROG).unwrap();
        assert!(second.contains("provenance: cache hit (disk)"), "{second}");
        assert_eq!(table(&second), table(&first));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_reports_per_file_outcomes() {
        let good = b"main() { poly int x; x = pe_id(); return(x); }".to_vec();
        let bad = b"main() { y = 1; }".to_vec();
        let inputs = vec![
            ("a.mimdc".to_string(), good.clone()),
            ("broken.mimdc".to_string(), bad),
            ("c.mimdc".to_string(), good),
        ];
        // --jobs 1 keeps the pool sequential so the cache hit on the
        // repeated source is deterministic; --metrics puts the table
        // after the report the failure carries.
        let (cmd, obs) = parse_args(&args("batch a b c --jobs 1 --stats --metrics")).unwrap();
        let err = execute(&cmd, &obs, &inputs).unwrap_err().0;
        assert!(err.starts_with("1 file(s) failed\n"), "{err}");
        assert!(err.contains("a.mimdc: ok"), "{err}");
        assert!(err.contains("broken.mimdc: error: compile:"), "{err}");
        assert!(err.contains("c.mimdc: ok"), "{err}");
        assert!(err.contains("2/3 succeeded"), "{err}");
        // a and c share source + options: the second must hit the cache.
        assert!(
            err.contains("cache hit (memory)") || err.contains("1 memory hits"),
            "{err}"
        );
        let report_end = err.find("succeeded").unwrap();
        let table = err.find("-- metrics --").expect("the metrics table");
        assert!(report_end < table, "{err}");
    }

    #[test]
    fn compile_errors_surface() {
        let err = exec("build x", "main() { y = 1; }").unwrap_err();
        assert!(err.0.contains("undeclared"), "{err}");
    }

    #[test]
    fn parse_obs_flags() {
        let (_, obs) = parse_args(&args("build foo.mimdc --metrics --trace-out t.jsonl")).unwrap();
        assert!(obs.metrics);
        assert_eq!(obs.trace_out.as_deref(), Some("t.jsonl"));
        assert!(parse_args(&args("build foo.mimdc --trace-out")).is_err());
        // Every command but serve takes them, before or after its own
        // arguments.
        for line in [
            "run foo.mimdc --metrics",
            "batch --metrics a b",
            "sweep foo.mimdc --metrics",
            "fuzz --metrics --cases 1",
            "fuzz --serve-addr 127.0.0.1:1 --trace-out t.jsonl",
            "match --metrics a",
        ] {
            let (_, obs) = parse_args(&args(line)).unwrap();
            assert!(obs.metrics || obs.trace_out.is_some(), "{line}");
        }
    }

    #[test]
    fn metrics_flag_appends_table() {
        let out = exec("build foo.mimdc --metrics", PROG).unwrap();
        // Conversion is instrumented, so the summary table must show at
        // least its span.
        assert!(out.contains("-- metrics --"), "{out}");
        assert!(out.contains("convert.run"), "{out}");
        // Without the flag no table appears.
        let out = exec("build foo.mimdc", PROG).unwrap();
        assert!(!out.contains("-- metrics --"), "{out}");
    }

    #[test]
    fn batch_metrics_table_covers_cache_and_convert() {
        // --jobs 1 keeps the two identical compiles serial: concurrent
        // identical jobs may coalesce onto one flight instead of hitting
        // the cache, which made this assertion racy under --jobs 2.
        let out = exec("batch a.mimdc b.mimdc --jobs 1 --metrics", PROG).unwrap();
        assert!(out.contains("-- metrics --"), "{out}");
        // Identical sources: the first compile misses, the second hits.
        assert!(out.contains("cache.hit"), "{out}");
        assert!(out.contains("cache.miss"), "{out}");
        assert!(out.contains("convert.run"), "{out}");
    }

    #[test]
    fn parse_fuzz_flags() {
        let Command::Fuzz { cfg, serve, replay } = parse(
            "fuzz --seed 9 --cases 50 --pes 3 --max-states 500 --corpus /tmp/corp --oracles base,engine:2",
        ) else {
            panic!("expected fuzz command");
        };
        assert_eq!((cfg.seed, cfg.cases), (9, 50));
        assert_eq!(cfg.oracle_cfg.n_pe, 3);
        assert_eq!(cfg.oracle_cfg.max_meta_states, 500);
        assert_eq!(cfg.corpus_dir, Some("/tmp/corp".into()));
        assert_eq!(
            cfg.oracles,
            msc_fuzz::Oracle::parse_list("base,engine:2").unwrap()
        );
        assert_eq!(cfg.oracle_cfg.serve_addr, None);
        assert!(!serve && replay.is_none());
        // Defaults: 200 cases over the full in-process matrix.
        let Command::Fuzz { cfg, .. } = parse("fuzz --max-meta-states 7") else {
            panic!("expected fuzz command");
        };
        assert_eq!((cfg.seed, cfg.cases, cfg.oracle_cfg.n_pe), (1, 200, 5));
        assert_eq!(cfg.oracle_cfg.max_meta_states, 7);
        assert_eq!(cfg.oracles, msc_fuzz::Oracle::default_set());
        // A daemon to fuzz adds the serve oracle once.
        let Command::Fuzz { cfg, .. } = parse("fuzz --serve-addr 127.0.0.1:1 --oracles base,serve")
        else {
            panic!("expected fuzz command");
        };
        assert_eq!(cfg.oracle_cfg.serve_addr.as_deref(), Some("127.0.0.1:1"));
        assert_eq!(
            cfg.oracles,
            msc_fuzz::Oracle::parse_list("base,serve").unwrap()
        );

        assert!(parse_args(&args("fuzz --cases")).is_err());
        assert!(parse_args(&args("fuzz --pes 0")).is_err());
        let err = parse_args(&args("fuzz --seed banana")).unwrap_err();
        assert_eq!(err.0, "bad seed `banana`");
        assert!(parse_args(&args("fuzz prog.mimdc")).is_err());
        // The in-process daemon owns the obs registry for its lifetime.
        assert!(parse_args(&args("fuzz --serve --metrics")).is_err());
        assert!(parse_args(&args("fuzz --serve-addr 127.0.0.1:1 --metrics")).is_ok());
        // The oracle list resolves at parse time.
        let err = parse_args(&args("fuzz --oracles base,warp-drive")).unwrap_err();
        assert!(err.0.contains("unknown oracle"), "{err}");
    }

    #[test]
    fn fuzz_clean_run_emits_json_summary() {
        let out = exec("fuzz --seed 3 --cases 2 --oracles interp,base", "").unwrap();
        let last = out.lines().rev().find(|l| !l.is_empty()).unwrap();
        let v = msc_obs::json::parse(last).unwrap();
        assert_eq!(v.get("cases").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("mismatches").unwrap().as_u64(), Some(0));
        assert!(v.get("ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn fuzz_mismatch_exits_nonzero_with_reproducer() {
        let dir = std::env::temp_dir().join(format!("mscc-fuzz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let line = format!(
            "fuzz --seed 1 --cases 20 --oracles selftest --metrics --corpus {}",
            dir.display()
        );
        let err = exec(&line, "").unwrap_err().0;
        assert!(err.contains(" mismatch(es) found\n"), "{err}");
        assert!(err.contains("reproducer: "), "{err}");
        // The report, then the metrics table of the run.
        let summary = err.find("\"ok\":false").expect("the JSON summary");
        let table = err.find("-- metrics --").expect("the metrics table");
        assert!(summary < table, "{err}");
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert!(entries > 0, "corpus directory is empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_out_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("mscc_trace_{}.jsonl", std::process::id()));
        let out = exec(
            &format!("build foo.mimdc --trace-out {}", path.display()),
            PROG,
        )
        .unwrap();
        assert!(!out.contains("-- metrics --"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut parsed = 0usize;
        for line in text.lines() {
            assert!(
                msc_obs::jsonl::parse_line(line).is_some(),
                "unparseable trace line: {line}"
            );
            parsed += 1;
        }
        assert!(parsed > 0, "trace file is empty");
        std::fs::remove_file(&path).ok();
    }
}
