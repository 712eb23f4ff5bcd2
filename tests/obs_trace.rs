//! End-to-end observability pin: a batch run with a JSONL trace
//! subscriber installed must produce parseable lines whose cache
//! hit/miss totals equal the engine's own [`metastate::CacheStats`]
//! counters. This is the contract that makes the trace trustworthy —
//! the event stream and the stats block are two views of one run.
//!
//! This file is its own test binary (and so its own process), which is
//! what makes installing the global subscriber here safe: no other
//! test can observe or perturb it.

use metastate::{convert_parallel, ConvertOptions, Engine, EngineError, EngineOptions, Job};
use msc_core::subsume::subsume;
use msc_core::{MetaAutomaton, MetaId, StateSet};
use msc_ir::{MimdGraph, MimdState, StateId, Terminator};
use msc_obs::jsonl::{parse_line, TraceLine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;

const PROG_A: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";
const PROG_B: &str = r#"
    main() {
        poly int x, acc = 0;
        x = pe_id() % 4;
        while (x > 0) { acc += x; x -= 1; }
        return(acc);
    }
"#;

#[test]
fn jsonl_trace_totals_match_cache_stats() {
    let dir = std::env::temp_dir().join(format!("msc_obs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("batch.jsonl");

    let sink = Arc::new(msc_obs::JsonlSink::create(&trace_path).unwrap());
    let guard = msc_obs::install(sink.clone());

    let engine = Engine::new(EngineOptions {
        threads: 2,
        cache_capacity: 8,
        ..EngineOptions::default()
    });
    // a and c share a source: one miss then one memory hit; b is a
    // second distinct miss.
    let jobs = vec![
        Job::new("a.mimdc", PROG_A),
        Job::new("b.mimdc", PROG_B),
        Job::new("c.mimdc", PROG_A),
    ];
    let results = engine.compile_many(&jobs);
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    let stats = engine.cache_stats();
    // Singleflight makes the totals deterministic even with the two
    // PROG_A jobs racing: exactly one of the pair compiles (one miss),
    // and its twin either coalesces onto the in-flight compile or hits
    // the cache just after it lands.
    assert_eq!(stats.misses, 2, "{stats:?}");
    assert_eq!(
        stats.hits + stats.disk_hits + engine.coalesced(),
        1,
        "{stats:?} coalesced={}",
        engine.coalesced()
    );

    drop(guard);
    sink.flush().unwrap();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let (mut hits, mut disk_hits, mut misses, mut coalesced, mut parsed) =
        (0u64, 0u64, 0u64, 0u64, 0usize);
    for line in text.lines() {
        let ev = parse_line(line).unwrap_or_else(|| panic!("unparseable trace line: {line}"));
        parsed += 1;
        if let TraceLine::Count { name, delta } = ev {
            match name.as_str() {
                "cache.hit" => hits += delta,
                "cache.disk_hit" => disk_hits += delta,
                "cache.miss" => misses += delta,
                "engine.coalesced" => coalesced += delta,
                _ => {}
            }
        }
    }
    assert!(parsed > 0, "trace file is empty");
    assert_eq!(hits, stats.hits, "trace cache.hit total != CacheStats.hits");
    assert_eq!(
        disk_hits, stats.disk_hits,
        "trace cache.disk_hit total != CacheStats.disk_hits"
    );
    assert_eq!(
        misses, stats.misses,
        "trace cache.miss total != CacheStats.misses"
    );
    assert_eq!(
        coalesced,
        engine.coalesced(),
        "trace engine.coalesced total != Engine::coalesced"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_batch_trace_and_metrics_agree() {
    // The same pin through the CLI surface: --trace-out + --metrics on a
    // batch, then cross-check the JSONL totals against the rendered
    // stats line. (Serialized against the test above by the obs install
    // lock, so the two subscribers never interleave.)
    let dir = std::env::temp_dir().join(format!("msc_obs_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("cli.jsonl");

    let line = format!(
        "batch a.mimdc b.mimdc --jobs 2 --stats --metrics --trace-out {}",
        trace_path.display()
    );
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let (cmd, obs) = msc_cli::parse_args(&args).unwrap();
    let inputs = vec![
        ("a.mimdc".to_string(), PROG_A.as_bytes().to_vec()),
        ("b.mimdc".to_string(), PROG_A.as_bytes().to_vec()),
    ];
    let out = msc_cli::execute(&cmd, &obs, &inputs).unwrap();
    assert!(out.contains("-- metrics --"), "{out}");
    // The identical second source is either a memory hit (it started
    // after the first landed) or coalesced onto the in-flight compile.
    assert!(
        out.contains("1 memory hits") || out.contains("1 coalesced"),
        "{out}"
    );

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let (mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64);
    for line in text.lines() {
        match parse_line(line) {
            Some(TraceLine::Count { name, delta }) if name == "cache.hit" => hits += delta,
            Some(TraceLine::Count { name, delta }) if name == "cache.miss" => misses += delta,
            Some(TraceLine::Count { name, delta }) if name == "engine.coalesced" => {
                coalesced += delta
            }
            Some(_) => {}
            None => panic!("unparseable trace line: {line}"),
        }
    }
    assert_eq!(
        hits + coalesced,
        1,
        "identical second source must share the first compile"
    );
    assert_eq!(misses, 1, "first compile of the shared source must miss");

    std::fs::remove_dir_all(&dir).ok();
}

/// `n` self-loops under one multiway branch: base mode reaches every
/// non-empty subset of them, with and without the exit state.
fn fan_out_loops(n: usize) -> MimdGraph {
    let mut g = MimdGraph::new();
    let end = g.add(MimdState::new(vec![], Terminator::Halt));
    let loops: Vec<StateId> = (0..n)
        .map(|_| g.add(MimdState::new(vec![], Terminator::Halt)))
        .collect();
    for &l in &loops {
        g.state_mut(l).term = Terminator::Branch { t: l, f: end };
    }
    g.start = g.add(MimdState::new(vec![], Terminator::Multi(loops)));
    g
}

#[test]
fn memory_budget_spills_at_two_threads() {
    // The arena belongs to the interning thread, so its budget holds at
    // any thread count. The spill byte count is an obs counter, so this
    // lives with the other tests that install a subscriber and is
    // serialized against them.
    let g = fan_out_loops(8);
    let in_ram = ConvertOptions {
        memory_budget: None,
        ..ConvertOptions::base()
    };
    let budgeted = ConvertOptions {
        // 512 meta states are 4 KiB of set words.
        memory_budget: Some(1 << 10),
        ..ConvertOptions::base()
    };
    let (plain, plain_stats) = convert_parallel(&g, &in_ram, 2).unwrap();

    let registry = Arc::new(msc_obs::Registry::new());
    let guard = msc_obs::install(registry.clone());
    let (spilled, spilled_stats) = convert_parallel(&g, &budgeted, 2).unwrap();
    drop(guard);

    let snap = registry.snapshot();
    assert!(snap.counter("convert.spill_bytes") > 0, "never spilled");
    assert!(
        snap.span("convert.round").is_some(),
        "never ran a round on two threads"
    );
    // One sample per interned set: the eight loops and the exit state fit
    // one word, whatever subset of them a meta state holds.
    let members = snap.hist("convert.set_members").expect("set sizes");
    assert_eq!((members.count, members.max), (spilled.len() as u64, 9));
    let words = snap.hist("convert.set_words").expect("set widths");
    assert_eq!((words.count, words.min, words.max), (members.count, 1, 1));
    assert_eq!(plain.sets, spilled.sets);
    assert_eq!(plain.succs, spilled.succs);
    assert_eq!(plain.start, spilled.start);
    assert_eq!(plain_stats, spilled_stats);

    // Attempts beside outcomes: an expansion keeps `convert.fanout` of the
    // unions it tries — the DP's work, pinned as exact counts: 21 477
    // unions tried, 7 071 kept — and with no barrier state in the graph
    // and nothing latent, none of them runs the barrier pass.
    let fanout = snap.hist("convert.fanout").expect("fan-outs");
    assert_eq!(snap.counter("convert.candidates"), 21_477);
    assert_eq!(fanout.sum, 7_071);
    assert_eq!(snap.counter("convert.barrier_pass_skipped"), fanout.count);
    assert_eq!(snap.counter("convert.barrier_pass_run"), 0);
    // Nothing is latent, so every meta state is expanded once: by the DP,
    // or by taking the successor list of the first one with its running
    // core. A subset of the loops with the exit state beside it repeats
    // the subset without it, so 2⁸ − 1 of them run no DP.
    let reused = snap.counter("convert.expansion_reused");
    assert_eq!(reused, 255);
    assert_eq!(fanout.count + reused, spilled.len() as u64);
    // A reused list is the owner's span, not a copy: of the 13 885 edges
    // the lists hold, the 255 reused lists' 6 815 are stored nowhere. The
    // table holds the DP's 7 070: the 7 071 unions it kept, less the one
    // empty union, which is no successor.
    let edges: usize = spilled.succs.iter().map(<[_]>::len).sum();
    assert_eq!(edges, 13_885);
    assert_eq!(spilled.succs.stored_edges(), 13_885 - 6_815);
    assert_eq!(plain.succs.stored_edges(), fanout.sum as usize - 1);

    // One barrier state anywhere in the graph and every expansion runs it.
    let mut g = fan_out_loops(3);
    g.state_mut(StateId(0)).barrier = true;
    let registry = Arc::new(msc_obs::Registry::new());
    let guard = msc_obs::install(registry.clone());
    convert_parallel(&g, &in_ram, 1).unwrap();
    drop(guard);
    let snap = registry.snapshot();
    let expansions = snap.hist("convert.fanout").expect("fan-outs").count;
    assert_eq!(snap.counter("convert.barrier_pass_run"), expansions);
    assert_eq!(snap.counter("convert.barrier_pass_skipped"), 0);
}

/// `n` pairs {3i, 3i+1} ⊂ {3i, 3i+1, 3i+2} chained by successor arcs:
/// every pair folds exactly once under subsumption.
fn subset_chain(n: u32) -> MetaAutomaton {
    let mut graph = MimdGraph::new();
    for _ in 0..3 * n {
        graph.add(MimdState::new(vec![], Terminator::Halt));
    }
    graph.start = StateId(0);
    let sets: Vec<StateSet> = (0..n)
        .flat_map(|i| {
            let pair = StateSet::from_iter([StateId(3 * i), StateId(3 * i + 1)]);
            let triple = pair.union(&StateSet::singleton(StateId(3 * i + 2)));
            [pair, triple]
        })
        .collect();
    let last = sets.len() as u32 - 1;
    MetaAutomaton {
        graph,
        succs: (0..=last)
            .map(|i| (i < last).then_some(MetaId(i + 1)).into_iter().collect())
            .collect(),
        sets,
        start: MetaId(0),
    }
}

#[test]
fn subsume_work_on_the_subset_chain() {
    // A pair's rarest member is on two occurrence lists and a triple's on
    // one: three candidates scanned per pair, whatever the set encoding.
    for n in [100, 4096] {
        let mut auto = subset_chain(n);
        let registry = Arc::new(msc_obs::Registry::new());
        let guard = msc_obs::install(registry.clone());
        let folded = subsume(&mut auto);
        drop(guard);
        let snap = registry.snapshot();
        assert_eq!((folded, auto.len()), (n, n as usize));
        assert_eq!(snap.counter("subsume.folded"), u64::from(n));
        assert_eq!(snap.counter("subsume.candidate_scans"), 3 * u64::from(n));
    }
}

/// Threads that ran [`PanicOnSpawnedExpansion`]'s panic path and have not
/// exited yet: the thread-local's destructor runs as its thread exits.
static LIVE_PANICKERS: AtomicUsize = AtomicUsize::new(0);

struct Panicker;

impl Drop for Panicker {
    fn drop(&mut self) {
        LIVE_PANICKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

thread_local! {
    static PANICKER: Panicker = {
        LIVE_PANICKERS.fetch_add(1, Ordering::SeqCst);
        Panicker
    };
}

/// Panics inside the first expansion that a round's *spawned* thread
/// finishes. The round's calling thread announces itself with
/// `convert.round_entries` and is then held in its own first expansion
/// until the spawned one has arrived, so the spawned thread always gets an
/// entry.
#[derive(Default)]
struct PanicOnSpawnedExpansion {
    caller: Mutex<Option<ThreadId>>,
    arrived: Mutex<bool>,
    wake: Condvar,
}

impl msc_obs::Subscriber for PanicOnSpawnedExpansion {
    fn event(&self, event: &msc_obs::Event) {
        let me = std::thread::current().id();
        match event.name() {
            "convert.round_entries" => *self.caller.lock().unwrap() = Some(me),
            "convert.fanout" => {
                let caller = *self.caller.lock().unwrap();
                if caller == Some(me) {
                    let arrived = self.arrived.lock().unwrap();
                    let _arrived = self.wake.wait_while(arrived, |a| !*a).unwrap();
                } else if caller.is_some() {
                    *self.arrived.lock().unwrap() = true;
                    self.wake.notify_all();
                    PANICKER.with(|_| ());
                    panic!("injected expansion panic");
                }
            }
            _ => {}
        }
    }
}

#[test]
fn expansion_thread_panic_reaches_the_batch_with_its_message() {
    let guard = msc_obs::install(Arc::new(PanicOnSpawnedExpansion::default()));
    let engine = Engine::new(EngineOptions {
        threads: 2,
        ..EngineOptions::default()
    });
    // One job, so both threads go to its conversion; the loop's branch
    // gives base mode a round of three entries.
    let results = engine.compile_many(&[Job::new("b.mimdc", PROG_B)]);
    drop(guard);
    match &results[..] {
        [Err(EngineError::Panicked { message, .. })] => {
            assert!(message.contains("injected expansion panic"), "{message}")
        }
        other => panic!("expected the injected panic, got {other:?}"),
    }
    assert_eq!(
        LIVE_PANICKERS.load(Ordering::SeqCst),
        0,
        "the panicking expansion thread was not joined"
    );
}
