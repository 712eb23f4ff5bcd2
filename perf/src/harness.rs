//! The run shape every workload shares: repeated set-up, timed passes of
//! a fixed op list until the budget is spent (the first one warms up), an
//! oracle check after every pass — and, in traced runs, a span recorder
//! timing each layer from outside.

use msc_obs::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, in the order `BENCHMARK.json` lists them:
/// `(name, unit, lower_is_better, bound)`.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("ops_per_s", "1/s", false, 0.25),
    ("op_ms_p50", "ms", true, 0.25),
    ("op_ms_p99", "ms", true, 0.25),
    ("peak_rss_mb", "MiB", true, 0.25),
    ("setup_s", "s", true, 0.25),
];

/// Per-layer metrics `(name, unit)`. A traced run of any workload prints
/// all of them; one the workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 80] = [
    // The paper's cost structure, as exact counts (they repeat exactly).
    ("sim_cycles", "count"),
    ("code_instrs", "count"),
    ("meta_states", "count"),
    ("msc_vs_interp_speedup", "ratio"),
    // lang / ir
    ("lang.lex_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.lower_ms", "ms"),
    ("lang.tokens", "count"),
    ("ir.mimd_states", "count"),
    // core
    ("core.convert_ms", "ms"),
    ("core.successor_sets", "count"),
    ("core.convert.n10_ms", "ms"),
    ("core.convert.n11_ms", "ms"),
    ("core.convert.n12_ms", "ms"),
    ("core.convert.n13_ms", "ms"),
    ("core.convert.states_per_s", "1/s"),
    ("core.spill.n12_ms", "ms"),
    ("core.spill.slowdown", "ratio"),
    ("core.spill.bytes", "count"),
    ("core.subsume.chain4096_ms", "ms"),
    // engine::parallel
    ("engine.parallel.n12_ms", "ms"),
    ("engine.parallel.speedup", "ratio"),
    // simd::setops
    ("simd.setops.union256_ns", "ns"),
    ("simd.setops.subset_many256_ns", "ns"),
    // regex::meta
    ("regex.meta.bomb_ms", "ms"),
    ("regex.compile_us", "us"),
    ("regex.dfa_states", "count"),
    // codegen / csi / hash
    ("codegen.generate_ms", "ms"),
    ("codegen.self_ms", "ms"),
    ("csi.induce_ms", "ms"),
    ("hash.find_ms", "ms"),
    ("csi.issue_ratio", "ratio"),
    ("hash.tables", "count"),
    ("hash.load_factor", "ratio"),
    // simd::machine
    ("simd.machine.new_ms", "ms"),
    ("simd.machine.run_base_ms", "ms"),
    ("simd.machine.run_compressed_ms", "ms"),
    ("simd.machine.mcycles_per_s", "1/s"),
    ("simd.machine.issues", "count"),
    ("simd.machine.dispatches", "count"),
    ("simd.machine.utilization", "ratio"),
    ("simd.machine.verify_ms", "ms"),
    // mimd
    ("mimd.interp.run_ms", "ms"),
    ("mimd.interp.cycles", "count"),
    ("mimd.reference.run_ms", "ms"),
    ("mimd.reference.verify_ms", "ms"),
    // regex::matcher
    ("regex.find_all.dense_mbps", "MB/s"),
    ("regex.find_all.sparse_mbps", "MB/s"),
    ("regex.find_all.near_miss_mbps", "MB/s"),
    ("regex.find_sharded.dense_mbps", "MB/s"),
    ("regex.find_sharded.sparse_mbps", "MB/s"),
    ("regex.find_sharded.near_miss_mbps", "MB/s"),
    ("regex.sharded_vs_whole", "ratio"),
    ("regex.matches", "count"),
    // serve, as the client sees it
    ("serve.compile_hit.ms_p50", "ms"),
    ("serve.compile_hit.ms_p99", "ms"),
    ("serve.compile_miss.ms_p50", "ms"),
    ("serve.compile_miss.ms_p99", "ms"),
    ("serve.run.ms_p50", "ms"),
    ("serve.run.ms_p99", "ms"),
    ("serve.match.ms_p50", "ms"),
    ("serve.match.ms_p99", "ms"),
    // serve / obs / engine / cache, called directly with the same bytes
    ("serve.http.parse_us", "us"),
    ("obs.json.parse_us", "us"),
    ("obs.json.render_us", "us"),
    ("serve.api.compile_hit_us", "us"),
    ("serve.api.compile_miss_us", "us"),
    ("serve.api.run_us", "us"),
    ("serve.api.match_us", "us"),
    ("engine.compile.hit_us", "us"),
    ("cache.probe_us", "us"),
    ("cache.insert_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.transport_us", "us"),
    // serve counters, read once from GET /metrics
    ("serve.shed", "count"),
    ("cache.hit_ratio", "ratio"),
    ("engine.coalesced", "count"),
    ("serve.wakeups_per_req", "ratio"),
    // every workload: what qualifies the ledger
    ("trace.overhead_share", "ratio"),
    ("trace.dark_share", "ratio"),
];

/// Set-ups per untraced run, whose median is `setup_s`: this many back to
/// back before the first pass, then one more each time a
/// `1 / RESETUPS` share of the budget has gone by.
const UPFRONT_SETUPS: usize = 3;
const RESETUPS: u32 = 12;

/// One layer-metric sample set from one traced pass.
pub type Ledger = BTreeMap<&'static str, f64>;

/// A benchmark workload: a fixed, seed-derived op list and its oracle.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Generate inputs, prebuild what the ops consume, compute the
    /// oracle's reference answers, boot servers. Timed as `setup_s`.
    fn setup(seed: u64) -> Self;

    /// SipHash of every generated input.
    fn input_digest(&self) -> u64;

    /// Ops in one pass.
    fn ops(&self) -> usize;

    /// Execute every op once with tracing off, pushing one latency (ns)
    /// per op, keeping the outputs for [`check`](Self::check). Returns
    /// the pass wall time.
    fn pass(&mut self, latencies: &mut Vec<u64>) -> Duration;

    /// Verify the outputs of the last pass against the oracle; returns
    /// how many ops failed or mismatched. `doctor` first corrupts one
    /// output (the `selftest` negative test).
    fn check(&mut self, doctor: bool) -> usize;

    /// One pass with every layer call wrapped in a span; adds this
    /// pass's layer metrics to `ledger` and returns the wall time of
    /// the part that mirrors an untraced pass (for the overhead share).
    fn traced_pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Duration;
}

/// What the command line asked of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up, one pass (`perf run --quick`, `selftest`).
    pub quick: bool,
    pub doctor: bool,
    pub spans: Option<PathBuf>,
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub quick: bool,
    pub trace: bool,
    pub input_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Op latencies taken (untraced) or spans recorded (traced).
    pub samples: usize,
    pub setups: usize,
    /// Wall time of every timed (untraced) or traced pass, in run order.
    pub pass_s: Vec<f64>,
    /// name → (value, unit, spread across passes as a share of the value).
    pub metrics: Vec<(&'static str, f64, &'static str, f64)>,
}

impl Outcome {
    /// The metrics as a JSON object, with or without their spreads.
    fn metrics_json(&self, with_spread: bool) -> Json {
        let one = |&(name, value, unit, spread): &(&str, f64, &str, f64)| {
            let mut fields = vec![("value", Json::from(value)), ("unit", Json::from(unit))];
            if with_spread {
                fields.push(("spread", Json::from(spread)));
            }
            (name.to_string(), Json::obj(fields))
        };
        Json::Obj(self.metrics.iter().map(one).collect())
    }

    /// The last stdout line the driver reads.
    pub fn contract_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// Everything `perf run` stores per workload and mode.
    pub fn detail(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::from(self.quick)),
            ("trace", Json::from(self.trace)),
            (
                "input_digest",
                Json::from(format!("{:016x}", self.input_digest)),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("passes", Json::from(self.passes)),
            ("samples", Json::from(self.samples)),
            ("setups", Json::from(self.setups)),
            (
                "pass_s",
                Json::Arr(self.pass_s.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("metrics", self.metrics_json(true)),
        ])
    }

    /// Human-readable table, one metric per line.
    pub fn print_table(&self) {
        println!(
            "== {} seed {} ({}{}) digest {:016x}: {} ops attempted, {} failed, {} set-ups, {} passes, {} {}",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            if self.quick { ", quick" } else { "" },
            self.input_digest,
            self.attempted,
            self.failed,
            self.setups,
            self.passes,
            self.samples,
            if self.trace { "spans in the last traced pass" } else { "op latencies" },
        );
        for (name, value, unit, spread) in &self.metrics {
            if self.trace && *value == 0.0 {
                continue;
            }
            println!(
                "{name:36} {value:16.4} {unit:6} (pass spread {:.1}%)",
                spread * 100.0
            );
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range as a share of the median (0 below four values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m
    }
}

/// Indices of the passes that count: all but the slowest tenth (rounded
/// up, but never all of them) by wall time, fastest first.
pub fn kept(walls: &[f64]) -> Vec<usize> {
    let mut by_wall: Vec<usize> = (0..walls.len()).collect();
    by_wall.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    by_wall.truncate((walls.len() - walls.len().div_ceil(10)).max(1));
    by_wall
}

/// Mean of `values` without the slowest tenth (README, "Why a trimmed
/// mean"). A mean, not one of the ranks: the sandbox runs at two speeds,
/// and a rank jumps from one to the other when the share of fast samples
/// crosses it, where the mean moves with that share.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let picked = kept(values);
    picked.iter().map(|&i| values[i]).sum::<f64>() / picked.len() as f64
}

/// Nearest-rank percentile of sorted nanosecond latencies, in ms.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    assert!(!sorted_ns.is_empty());
    let rank = (p / 100.0 * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e6
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status has VmHWM on Linux")
}

/// A `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

/// The CPUs this process was started on, read before anything narrows them.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Option<&'static CpuSet> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    static ALLOWED: std::sync::OnceLock<Option<CpuSet>> = std::sync::OnceLock::new();
    ALLOWED
        .get_or_init(|| {
            let mut set: CpuSet = [0; 16];
            // SAFETY: `set` is a live, writable buffer of exactly the size
            // passed, and pid 0 names the calling thread.
            let got =
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
            (got == 0 && set.iter().any(|&w| w != 0)).then_some(set)
        })
        .as_ref()
}

#[cfg(target_os = "linux")]
fn set_cpus(set: &CpuSet) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `set` is a live buffer of exactly the size passed, only read
    // by the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Confine the calling thread, and every thread it spawns from here on,
/// to the first CPU the process was started on (README, "One CPU"). Best
/// effort: where the call is refused the workload runs unconfined and
/// says so.
pub fn confine_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        let confined = allowed_cpus().is_some_and(|all| {
            let word = all.iter().position(|&w| w != 0).expect("a CPU is allowed");
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << all[word].trailing_zeros();
            set_cpus(&one)
        });
        if !confined {
            eprintln!("perf: cannot set the CPU affinity; the workload runs unconfined");
        }
    }
}

/// Undo [`confine_to_one_cpu`] for the calling thread and the threads it
/// spawns from here on: an op that measures threads needs the CPUs.
pub fn release_cpus() {
    #[cfg(target_os = "linux")]
    if let Some(all) = allowed_cpus() {
        set_cpus(all);
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or `u32::MAX`.
    pub parent: u32,
    /// The op the span belongs to: spans of one op share it.
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one traced pass; written out at exit.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Wall time of concurrent lanes beyond the first (client threads),
    /// so the dark share compares span time with the time there was.
    lane_time: Duration,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 12),
            open: Vec::new(),
            lane_time: Duration::ZERO,
        }
    }

    /// Account for `extra` of wall time on lanes beyond the first.
    pub fn add_lane_time(&mut self, extra: Duration) {
        self.lane_time += extra;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span that may open child spans.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now();
        r
    }

    /// Time `f` as a childless span.
    pub fn leaf<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.span(name, op, |_| f())
    }

    /// Record a span measured elsewhere (a client thread's request).
    pub fn push(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: u32::MAX,
            op,
        });
    }

    /// Total duration per span name, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Σ self time (duration minus the part child spans cover) over all
    /// spans, in ns. Top-level spans may overlap only across threads, and
    /// those are pushed childless, so this never double counts.
    pub fn self_ns(&self) -> u64 {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != u32::MAX {
                own[s.parent as usize] = own[s.parent as usize].saturating_sub(s.ns());
            }
        }
        own.iter().sum()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                Json::Null
            } else {
                Json::from(s.parent as u64)
            };
            let line = Json::obj(vec![
                ("id", Json::from(id)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", parent),
                ("op", Json::from(s.op as u64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Run one workload as the command line asked and report it.
pub fn run<W: Workload>(args: &RunArgs) -> Outcome {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

fn run_untraced<W: Workload>(args: &RunArgs) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setup_s = Vec::new();
    let mut set_up = |slot: &mut Option<W>| {
        drop(slot.take()); // at most one live copy: a daemon holds a global lock
        let t = Instant::now();
        *slot = Some(W::setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    };
    let mut slot = None;
    for _ in 0..if args.quick { 1 } else { UPFRONT_SETUPS } {
        set_up(&mut slot);
    }
    let ops = slot.as_ref().expect("set up above").ops();

    let (mut attempted, mut failed) = (0u64, 0u64);

    // There is no untimed warm-up pass: the first pass is timed like the
    // rest, and the trimmed means below leave it out if it was cold.
    // Pass `i` owns `latencies[i * ops..(i + 1) * ops]`.
    let mut latencies: Vec<u64> = Vec::with_capacity(ops * 64);
    let mut pass_s = Vec::new();
    let started = Instant::now();
    let mut last_setup = started;
    let mut last_round = Duration::ZERO;
    // Another pass starts only if, by the last one, it fits the budget.
    while pass_s.is_empty() || (!args.quick && started.elapsed() + last_round <= budget) {
        let round = Instant::now();
        // Set-ups are spread over the run, so that their median sees the
        // same stretch of machine weather the passes do.
        if !args.quick && last_setup.elapsed() >= budget / RESETUPS {
            set_up(&mut slot);
            last_setup = Instant::now();
        }
        let w = slot.as_mut().expect("set up above");
        let wall = w.pass(&mut latencies);
        assert_eq!(
            latencies.len(),
            (pass_s.len() + 1) * ops,
            "one latency per op"
        );
        failed += w.check(false) as u64;
        attempted += ops as u64;
        pass_s.push(wall.as_secs_f64());
        last_round = round.elapsed();
    }
    let mut w = slot.take().expect("set up above");
    if args.doctor {
        failed += w.check(true) as u64;
    }
    let input_digest = w.input_digest();
    drop(w);

    // Trimmed means (README, "Why a trimmed mean"): of the passes for
    // throughput, and of each op's own samples for the latency percentiles.
    let passes = pass_s.len();
    let mut op_ns: Vec<u64> = (0..ops)
        .map(|op| {
            let samples: Vec<f64> = (0..passes)
                .map(|i| latencies[i * ops + op] as f64)
                .collect();
            trimmed_mean(&samples) as u64
        })
        .collect();
    op_ns.sort_unstable();
    let per_pass = |f: &dyn Fn(&[u64]) -> f64| -> Vec<f64> {
        latencies
            .chunks(ops)
            .map(|own| {
                let mut own = own.to_vec();
                own.sort_unstable();
                f(&own)
            })
            .collect()
    };
    let value = |name: &str| match name {
        "ops_per_s" => {
            let per_s: Vec<f64> = pass_s.iter().map(|s| ops as f64 / s).collect();
            (ops as f64 / trimmed_mean(&pass_s), spread(&per_s))
        }
        "op_ms_p50" => (
            percentile_ms(&op_ns, 50.0),
            spread(&per_pass(&|own| percentile_ms(own, 50.0))),
        ),
        "op_ms_p99" => (
            percentile_ms(&op_ns, 99.0),
            spread(&per_pass(&|own| percentile_ms(own, 99.0))),
        ),
        "peak_rss_mb" => (peak_rss_mb(), 0.0),
        "setup_s" => (median(&setup_s), spread(&setup_s)),
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| {
            let (v, s) = value(name);
            (name, v, unit, s)
        })
        .collect();
    Outcome {
        workload: W::NAME,
        seed: args.seed,
        quick: args.quick,
        trace: false,
        input_digest,
        attempted,
        failed,
        passes,
        samples: latencies.len(),
        setups: setup_s.len(),
        pass_s,
        metrics,
    }
}

fn run_traced<W: Workload>(args: &RunArgs) -> Outcome {
    let mut w = W::setup(args.seed);
    let ops = w.ops();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut scratch = Vec::with_capacity(ops);

    let budget = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    let (mut untraced_s, mut mirrored_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut ledgers: Vec<Ledger> = Vec::new();
    let mut last_tracer = None;
    let mut last_round = Duration::ZERO;
    // Rounds of one untraced and one traced pass, so both sides of the
    // overhead ratio see the same machine state.
    while ledgers.is_empty() || (!args.quick && epoch.elapsed() + last_round <= budget) {
        let round = Instant::now();
        // A quick run leaves the oracle to its untraced half and has no
        // overhead share.
        if !args.quick {
            scratch.clear();
            untraced_s.push(w.pass(&mut scratch).as_secs_f64());
            failed += w.check(false) as u64;
            attempted += ops as u64;
        }

        let mut tracer = Tracer::new(epoch);
        let mut ledger = Ledger::new();
        let pass_start = Instant::now();
        let mirrored = w.traced_pass(&mut tracer, &mut ledger);
        let wall = pass_start.elapsed();
        let wall_ns = (wall + tracer.lane_time).as_nanos() as f64;
        ledger.insert(
            "trace.dark_share",
            (1.0 - tracer.self_ns() as f64 / wall_ns).max(0.0),
        );
        mirrored_s.push(mirrored.as_secs_f64());
        traced_s.push(wall.as_secs_f64());
        ledgers.push(ledger);
        last_tracer = Some(tracer);
        last_round = round.elapsed();
    }
    let input_digest = w.input_digest();
    drop(w);
    if let (Some(path), Some(tracer)) = (&args.spans, &last_tracer) {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("perf: cannot write spans to {}: {e}", path.display());
        }
    }

    for ledger in &ledgers {
        for name in ledger.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{} emitted `{name}`, which BENCHMARK.json does not list",
                W::NAME
            );
        }
    }
    // Layer numbers come from the traced passes without the slowest tenth,
    // as the end-to-end ones do from the untraced passes; the overhead
    // compares the two. They are the median over those passes, so a count
    // that repeats exactly is reported exactly.
    let overhead = if untraced_s.is_empty() {
        0.0
    } else {
        trimmed_mean(&mirrored_s) / trimmed_mean(&untraced_s) - 1.0
    };
    let kept_ledgers = kept(&traced_s);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let of = |picked: &mut dyn Iterator<Item = &Ledger>| -> Vec<f64> {
                picked.filter_map(|l| l.get(name).copied()).collect()
            };
            let values = of(&mut kept_ledgers.iter().map(|&i| &ledgers[i]));
            if name == "trace.overhead_share" {
                (name, overhead, unit, 0.0)
            } else if values.is_empty() {
                (name, 0.0, unit, 0.0)
            } else {
                (
                    name,
                    median(&values),
                    unit,
                    spread(&of(&mut ledgers.iter())),
                )
            }
        })
        .collect();
    Outcome {
        workload: W::NAME,
        seed: args.seed,
        quick: args.quick,
        trace: true,
        input_digest,
        attempted,
        failed,
        passes: ledgers.len(),
        samples: last_tracer.map_or(0, |t| t.spans.len()),
        setups: 1,
        pass_s: traced_s,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).map(|x| x * 1_000_000).collect();
        assert_eq!(percentile_ms(&v, 50.0), 50.0);
        assert_eq!(percentile_ms(&v, 99.0), 99.0);
        assert_eq!(percentile_ms(&v[..8], 99.0), 8.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(spread(&[7.0, 7.0]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_slowest_tenth() {
        assert_eq!(trimmed_mean(&[5.0]), 5.0);
        assert_eq!(trimmed_mean(&[3.0, 100.0, 1.0, 2.0]), 2.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v), 9.5);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(Instant::now());
        t.span("parent", 0, |t| {
            t.leaf("child", 0, || std::thread::sleep(Duration::from_millis(2)));
        });
        let total: u64 = t.spans[0].ns();
        assert_eq!(t.self_ns(), total, "parent self + child = parent total");
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v = msc_obs::json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        for (m, (_, _, lower, bound)) in v
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            let better = m.get("better").and_then(Json::as_str).unwrap();
            assert_eq!(better == "lower", lower);
            assert_eq!(m.get("bound").and_then(Json::as_f64).unwrap(), bound);
        }
    }
}
