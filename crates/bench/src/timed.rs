//! The two in-process timing measurements with a committed baseline:
//! `BENCH_explosion.json` and `BENCH_regex.json`. Each prints its table
//! and returns the file body the [`gate`](crate::gate) tables address by
//! path.

use crate::workloads::fan_out_loops_graph;
use msc_core::{convert, ConvertOptions};
use msc_obs::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The explosion workload: enough co-reachable loop states that base-mode
/// conversion builds thousands of meta states (§2.3's 3ⁿ frontier), fixed
/// so committed and re-measured runs compare like for like.
const EXPLOSION_LOOPS: usize = 12;
/// Spill budget for the out-of-core pass — far below the workload's
/// resident set words, so the arena must page through its temp-file
/// segment store to finish.
const EXPLOSION_BUDGET: usize = 1 << 14;

/// Counts the events that reach it.
struct EventCount(AtomicU64);

impl msc_obs::Subscriber for EventCount {
    fn event(&self, _: &msc_obs::Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Nanoseconds one `msc_obs::count` costs with no subscriber installed:
/// the best of five runs of a million calls.
fn disabled_count_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    let run = |_| {
        let t = Instant::now();
        for _ in 0..CALLS {
            msc_obs::count(std::hint::black_box("bench.disabled_probe"), 1);
        }
        t.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    (0..5).map(run).fold(f64::INFINITY, f64::min)
}

/// Base-mode subset construction over the fan-out-loops workload, in RAM
/// and again under the spill budget, with the bit-identity invariant
/// checked, the successor edges the lists hold and the table stores
/// counted, and the spill and reload counters captured; and what the
/// instrumentation costs the in-RAM pass when nobody listens: every event
/// a subscriber sees on it, priced at one disabled emit (the hot loops
/// batch several emits behind one check, so this is a ceiling). The
/// overhead's `targets` ceiling ratchets with the run: 3x what it
/// measured, at most the 2 % DESIGN.md §10 allows.
pub fn measure_explosion() -> Result<Json, String> {
    let g = fan_out_loops_graph(EXPLOSION_LOOPS);
    let mut opts = ConvertOptions::base();
    opts.max_meta_states = 1 << 21;
    opts.memory_budget = None;
    let t0 = Instant::now();
    let plain = convert(&g, &opts).map_err(|e| format!("in-RAM conversion: {e}"))?;
    let in_ram_secs = t0.elapsed().as_secs_f64();

    let counter = Arc::new(EventCount(AtomicU64::new(0)));
    let guard = msc_obs::install(counter.clone());
    let counted = convert(&g, &opts);
    drop(guard);
    counted.map_err(|e| format!("counted conversion: {e}"))?;
    let events = counter.0.load(Ordering::Relaxed);
    let per_event_ns = disabled_count_ns();
    let obs_pct = events as f64 * per_event_ns / (in_ram_secs * 1e9) * 100.0;

    let registry = Arc::new(msc_obs::Registry::new());
    let guard = msc_obs::install(registry.clone());
    opts.memory_budget = Some(EXPLOSION_BUDGET);
    let t0 = Instant::now();
    let spilled = convert(&g, &opts);
    let spilled_secs = t0.elapsed().as_secs_f64();
    drop(guard);
    let spilled = spilled.map_err(|e| format!("spilled conversion: {e}"))?;
    let snap = registry.snapshot();
    let spill_bytes = snap.counter("convert.spill_bytes");
    let spill_reloads = snap.counter("engine.spill_reload");
    let cache_hits = snap.counter("engine.spill_cache_hit");
    let identical =
        plain.sets == spilled.sets && plain.succs == spilled.succs && plain.start == spilled.start;
    let edges: usize = plain.succs.iter().map(<[_]>::len).sum();
    let stored = plain.succs.stored_edges();
    let in_ram = plain.len() as f64 / in_ram_secs;
    let out_of_core = spilled.len() as f64 / spilled_secs;
    let spilled_vs_in_ram = out_of_core / in_ram;

    let workload = format!("fan_out_loops({EXPLOSION_LOOPS}), base mode");
    println!(
        "{workload}: {} meta states, {edges} successor edges, {stored} stored",
        plain.len()
    );
    println!("pass                  | states/sec");
    println!("in RAM                | {in_ram:10.0}");
    println!("{EXPLOSION_BUDGET:5}-byte budget     | {out_of_core:10.0}  ({spilled_vs_in_ram:.2} of in RAM)");
    println!("spilled {spill_bytes} bytes through segment stores; bit-identical: {identical}");
    println!("cold reads: {spill_reloads} from disk, {cache_hits} blocks from the block cache");
    println!(
        "disabled instrumentation: {events} events x {per_event_ns:.2} ns = {obs_pct:.4}% \
         of the in-RAM pass"
    );
    // The size distribution DESIGN.md §9 records, from the converter's own
    // counters (one sample per interned set), as `--metrics` prints it.
    println!("interned sets (count / mean / min / max | log2 buckets):");
    let table = snap.render_table();
    for line in table.lines().filter(|l| l.contains("convert.set_")) {
        println!("{line}");
    }
    println!("\nshape check: the spill budget is ~10x below the resident footprint, yet");
    println!("conversion completes with the exact same automaton — the guard is a memory");
    println!("budget now, not a cliff.");
    Ok(Json::obj([
        ("workload", Json::from(workload)),
        ("meta_states", Json::from(plain.len())),
        ("succ_edges", Json::from(edges)),
        ("succ_edges_stored", Json::from(stored)),
        ("in_ram_states_per_sec", Json::from(in_ram)),
        ("spill_budget_bytes", Json::from(EXPLOSION_BUDGET)),
        ("spilled_states_per_sec", Json::from(out_of_core)),
        ("spilled_vs_in_ram", Json::from(spilled_vs_in_ram)),
        ("spill_bytes", Json::from(spill_bytes)),
        ("spill_reloads", Json::from(spill_reloads)),
        ("spill_identical", Json::from(identical)),
        ("obs_events", Json::from(events)),
        ("obs_disabled_overhead_pct", Json::from(obs_pct)),
        (
            "targets",
            Json::obj([(
                "obs_disabled_overhead_pct_max",
                Json::from((3.0 * obs_pct).min(2.0)),
            )]),
        ),
    ]))
}

/// The regex workload: pattern and haystack are fixed so committed and
/// re-measured runs compare like for like.
const REGEX_PATTERN: &str = "a[bc]+x";

/// 16 MiB: one sharded scan must outlast the scheduler's thread placement
/// for the thread ratios to mean anything. At 2 MiB a 2-thread scan takes
/// under 4 ms, and whole runs read t2/t1 0.97 with one core idle.
const REGEX_HAYSTACK_BYTES: usize = 1 << 24;

/// Deterministic pseudo-text haystack (LCG over a small alphabet).
fn regex_haystack(len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abcxy abcz\n";
    let mut s = 0x243F_6A88_85A3_08D3u64;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ALPHABET[((s >> 33) as usize) % ALPHABET.len()]
        })
        .collect()
}

/// Rounds of one sample per engine in [`measure_regex`]: ~10 s.
const REGEX_ROUNDS: usize = 24;

/// One sample: `scans` passes of `scan` over `bytes`, in MB/s.
fn sample_mbps(bytes: usize, scans: u32, mut scan: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..scans {
        scan();
    }
    bytes as f64 * f64::from(scans) * 1e3 / t.elapsed().as_nanos() as f64
}

/// Meta-automaton throughput at 1/2/8 threads over the 16 MiB haystack,
/// the naive reference over a small slice (it is algorithmically far
/// slower: it memoizes per (node, position), and 4 KiB is plenty to
/// measure its per-byte cost), and the span-agreement invariant. The four
/// are sampled in turn, round after round, and each keeps its best
/// sample, because the box has modes that last seconds: after the guest
/// has run one thread for half a minute its second vCPU does no work for
/// the first ~2 s it is asked to (five rounds read t2 = t1 to the percent,
/// the sixth 1.8x), and once it does, one-thread code runs at 0.6x for
/// rounds at a time. Back-to-back samples of one engine all read one
/// mode. The `targets` ratchet with the measurement: 70% of the 1-thread
/// throughput, and 80% of each thread ratio, capped at 1.5.
pub fn measure_regex() -> Result<Json, String> {
    let re = msc_regex::Regex::new(REGEX_PATTERN).map_err(|e| format!("bench pattern: {e}"))?;
    let hay = regex_haystack(REGEX_HAYSTACK_BYTES);
    let shards: Vec<&[u8]> = hay.chunks(1 << 16).collect();
    let naive_slice = &hay[..1 << 12];
    let seq = re.find_all(&hay);
    let mut agree = true;
    let mut sharded = |threads| {
        // ~150 ms at one thread.
        sample_mbps(hay.len(), 4, || {
            agree &= re.find_sharded(&shards, threads) == seq;
        })
    };
    let mut best = [0.0f64; 4];
    for _ in 0..REGEX_ROUNDS {
        let naive = sample_mbps(naive_slice.len(), 16, || {
            std::hint::black_box(re.naive_find_all(naive_slice));
        });
        let round = [naive, sharded(1), sharded(2), sharded(8)];
        for (best, sample) in best.iter_mut().zip(round) {
            *best = best.max(sample);
        }
    }
    let [naive, t1, t2, t8] = best;
    let (speedup, t2_vs_t1, t8_vs_t1) = (t1 / naive, t2 / t1, t8 / t1);

    println!(
        "pattern {REGEX_PATTERN:?} over {} MiB, {} matches",
        REGEX_HAYSTACK_BYTES >> 20,
        seq.len()
    );
    println!("engine        | MB/s");
    println!("naive (ref)   | {naive:8.2}");
    println!("dfa 1 thread  | {t1:8.2}");
    println!("dfa 2 threads | {t2:8.2}");
    println!("dfa 8 threads | {t8:8.2}");
    println!(
        "dfa-vs-naive speedup {speedup:.1}x; t2/t1 {t2_vs_t1:.2}, t8/t1 {t8_vs_t1:.2} \
         (each engine's best of {REGEX_ROUNDS} interleaved samples); spans agree: {agree}"
    );
    let ratio_floor = |measured: f64| (0.8 * measured).min(1.5);
    println!("\nshape check: the compiled meta-automaton beats the naive reference by an");
    println!("order of magnitude, and sharded throughput does not collapse.");
    Ok(Json::obj([
        ("pattern", Json::from(REGEX_PATTERN)),
        ("haystack_bytes", Json::from(REGEX_HAYSTACK_BYTES)),
        ("matches", Json::from(seq.len())),
        ("naive_mbps", Json::from(naive)),
        ("t1_mbps", Json::from(t1)),
        ("t2_mbps", Json::from(t2)),
        ("t8_mbps", Json::from(t8)),
        ("dfa_vs_naive_speedup", Json::from(speedup)),
        ("t2_vs_t1", Json::from(t2_vs_t1)),
        ("t8_vs_t1", Json::from(t8_vs_t1)),
        ("spans_agree", Json::from(agree)),
        (
            "targets",
            Json::obj([
                ("t1_mbps_min", Json::from(0.7 * t1)),
                ("t2_vs_t1_min", Json::from(ratio_floor(t2_vs_t1))),
                ("t8_vs_t1_min", Json::from(ratio_floor(t8_vs_t1))),
            ]),
        ),
    ]))
}
