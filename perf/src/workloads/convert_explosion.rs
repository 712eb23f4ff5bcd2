//! `convert_explosion`: the three subset-construction loops on their
//! worst case. `core::{convert, stateset, spill, subsume}`,
//! `simd::setops`, `engine::parallel` and `regex::meta` do all the work;
//! `lang`, `codegen` and `serve` do none. The spilled and the parallel op
//! drive the same layer differently (out-of-core beside in-RAM, sharded
//! beside one interner), so a gain for one that costs the other shows.
//!
//! Seven of the eight ops are one thread's work, and that thread stays on
//! one CPU: left to the scheduler it wanders between the sandbox's two
//! virtual CPUs and the same conversions read 9–13 % slower (README, "One
//! CPU"), which a run of five or six passes cannot spare. The parallel op
//! gets every CPU back while it runs.

use crate::gen::{fan_out_loops_graph, subset_chain_automaton, Digest, SplitMix64};
use crate::harness::{confine_to_one_cpu, release_cpus, Ledger, Tracer, Workload};
use msc_core::{convert, ConvertOptions, MetaAutomaton, StateSet};
use msc_engine::convert_parallel;
use msc_ir::MimdGraph;
use msc_regex::Regex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "convert_explosion";

/// Loop counts of the four sequential base conversions, with the exact
/// meta-state count each must produce.
const WIDTHS: [(usize, usize); 4] = [(10, 2_183), (11, 4_353), (12, 8_450), (13, 16_653)];
/// Index into [`WIDTHS`] of the graph the parallel and spilled ops reuse.
const SHARED: usize = 2;
const SPILL_BUDGET: usize = 16 << 10;
const CHAIN: usize = 4096;
const BOMB_STATES: usize = 2048;

const OP_NAMES: [&str; 8] = [
    "core.convert.n10",
    "core.convert.n11",
    "core.convert.n12",
    "core.convert.n13",
    "engine.parallel.n12",
    "core.spill.n12",
    "core.subsume.chain4096",
    "regex.meta.bomb",
];

/// `(a|b)*a(a|b){10}`, spelled without counted repetition: the textbook
/// 2¹¹-state DFA.
fn bomb_pattern() -> String {
    format!("(a|b)*a{}", "(a|b)".repeat(10))
}

fn in_ram() -> ConvertOptions {
    let mut o = ConvertOptions::base();
    o.max_meta_states = 1 << 21;
    o.memory_budget = None;
    o
}

fn spilled() -> ConvertOptions {
    ConvertOptions {
        memory_budget: Some(SPILL_BUDGET),
        ..in_ram()
    }
}

/// What one pass produced, kept for the oracle.
#[derive(Default)]
struct Outputs {
    sequential: Vec<Option<MetaAutomaton>>,
    parallel: Option<MetaAutomaton>,
    spilled: Option<MetaAutomaton>,
    /// `(folded away, automaton after the fold)`.
    subsumed: Option<(u32, MetaAutomaton)>,
    bomb_states: Option<usize>,
}

pub struct ConvertExplosion {
    graphs: Vec<MimdGraph>,
    chain: MetaAutomaton,
    bomb: String,
    threads: usize,
    /// `convert_parallel(…, 1)` of the shared graph: what the parallel op
    /// must reproduce bit for bit.
    reference: MetaAutomaton,
    out: Outputs,
}

fn same(a: &MetaAutomaton, b: &MetaAutomaton) -> bool {
    a.sets == b.sets && a.succs == b.succs && a.start == b.start
}

fn sorted_sets(a: &MetaAutomaton) -> Vec<&StateSet> {
    let mut v: Vec<&StateSet> = a.sets.iter().collect();
    v.sort();
    v
}

impl ConvertExplosion {
    /// Run op `i`, leaving its output in `self.out`.
    fn op(&mut self, i: usize, chain: &mut Option<MetaAutomaton>) {
        let shared = &self.graphs[SHARED];
        match i {
            0..=3 => {
                let a = convert(black_box(&self.graphs[i]), &in_ram());
                self.out.sequential.push(a.ok());
            }
            4 => {
                release_cpus();
                let a = convert_parallel(black_box(shared), &in_ram(), self.threads);
                confine_to_one_cpu();
                self.out.parallel = a.ok().map(|(a, _)| a);
            }
            5 => self.out.spilled = convert(black_box(shared), &spilled()).ok(),
            6 => {
                let mut a = chain.take().expect("a fresh chain per pass");
                let folded = msc_core::subsume::subsume(black_box(&mut a));
                self.out.subsumed = Some((folded, a));
            }
            7 => {
                self.out.bomb_states = Regex::new(black_box(&self.bomb))
                    .ok()
                    .map(|r| r.meta_states());
            }
            _ => unreachable!("eight ops"),
        }
    }
}

impl Workload for ConvertExplosion {
    const NAME: &'static str = NAME;

    fn setup(_seed: u64) -> Self {
        // The inputs are the paper's worst case, not a sample: the seed
        // has nothing to vary here, and the digest says so by being the
        // same for every seed.
        confine_to_one_cpu();
        let graphs: Vec<MimdGraph> = WIDTHS
            .iter()
            .map(|&(n, _)| fan_out_loops_graph(n))
            .collect();
        let (reference, _) =
            convert_parallel(&graphs[SHARED], &in_ram(), 1).expect("reference conversion");
        ConvertExplosion {
            chain: subset_chain_automaton(CHAIN),
            bomb: bomb_pattern(),
            threads: crate::nproc(),
            reference,
            graphs,
            out: Outputs::default(),
        }
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for g in &self.graphs {
            d.field(format!("{g:?}").as_bytes());
        }
        d.field(self.chain.text().as_bytes());
        d.field(self.bomb.as_bytes());
        d.finish()
    }

    fn ops(&self) -> usize {
        OP_NAMES.len()
    }

    fn pass(&mut self, latencies: &mut Vec<u64>) -> Duration {
        self.out = Outputs::default();
        let mut chain = Some(self.chain.clone());
        let start = Instant::now();
        for i in 0..OP_NAMES.len() {
            let t = Instant::now();
            self.op(i, &mut chain);
            latencies.push(t.elapsed().as_nanos() as u64);
        }
        start.elapsed()
    }

    fn check(&mut self, doctor: bool) -> usize {
        let out = &mut self.out;
        if doctor {
            // Swap one automaton arc: the two successor lists of the
            // spilled automaton's first two meta states.
            if let Some(a) = out.spilled.as_mut() {
                a.succs.swap(0, 1);
            }
        }
        let in_ram = out.sequential.get(SHARED).and_then(Option::as_ref);
        let mut ok = [false; 8];
        for (i, &(_, states)) in WIDTHS.iter().enumerate() {
            ok[i] = out
                .sequential
                .get(i)
                .and_then(Option::as_ref)
                .map(MetaAutomaton::len)
                == Some(states);
        }
        ok[4] = out.parallel.as_ref().is_some_and(|p| {
            same(p, &self.reference) && in_ram.is_some_and(|s| sorted_sets(p) == sorted_sets(s))
        });
        ok[5] = out
            .spilled
            .as_ref()
            .is_some_and(|s| in_ram.is_some_and(|r| same(s, r)));
        ok[6] = out.subsumed.as_ref().is_some_and(|(folded, a)| {
            *folded as usize == CHAIN && a.len() == CHAIN && a.validate().is_ok()
        });
        ok[7] = out.bomb_states == Some(BOMB_STATES);
        ok.iter().filter(|&&o| !o).count()
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Duration {
        self.out = Outputs::default();
        let mut chain = Some(self.chain.clone());
        // The spill byte count is an `msc_obs` counter; nothing else in
        // this process installs a subscriber, so this cannot nest.
        let registry = Arc::new(msc_obs::Registry::new());
        let guard = msc_obs::install(registry.clone());
        let start = Instant::now();
        for (i, name) in OP_NAMES.iter().enumerate() {
            tr.span(name, i as u32, |_| self.op(i, &mut chain));
        }
        let mirrored = start.elapsed();
        drop(guard);

        // The two `simd::setops` kernels the conversions above sit on, at
        // the 256-member size BENCH_setops ratchets.
        let mut rng = SplitMix64::new(0x005e_7095, 0);
        let mut words = |n: usize| -> Vec<u64> {
            // 16 words with a quarter of the bits set: 256 of 1 024.
            (0..n).map(|_| rng.next_u64() & rng.next_u64()).collect()
        };
        let (a, b) = (words(16), words(16));
        let arena = words(16 * 256);
        let spans: Vec<(u32, u32)> = (0..256).map(|i| (16 * i, 16)).collect();
        const ROUNDS: usize = 100_000;
        let mut scratch = Vec::with_capacity(16);
        tr.leaf("simd.setops.union256", 8, || {
            for _ in 0..ROUNDS {
                black_box(msc_simd::setops::union_count(
                    black_box(&a),
                    black_box(&b),
                    &mut scratch,
                ));
            }
        });
        let mut hits = Vec::with_capacity(256);
        tr.leaf("simd.setops.subset_many256", 9, || {
            for _ in 0..ROUNDS / 100 {
                hits.clear();
                msc_simd::setops::subset_of_many(black_box(&a), &arena, &spans, &mut hits);
                black_box(&hits);
            }
        });

        let ms = |name: &str| tr.total_ms(name);
        for (i, &(_, states)) in WIDTHS.iter().enumerate() {
            ledger.insert(
                [
                    "core.convert.n10_ms",
                    "core.convert.n11_ms",
                    "core.convert.n12_ms",
                    "core.convert.n13_ms",
                ][i],
                ms(OP_NAMES[i]),
            );
            if i == WIDTHS.len() - 1 {
                ledger.insert(
                    "core.convert.states_per_s",
                    states as f64 * 1e3 / ms(OP_NAMES[i]),
                );
            }
        }
        ledger.insert("engine.parallel.n12_ms", ms(OP_NAMES[4]));
        ledger.insert(
            "engine.parallel.speedup",
            ms(OP_NAMES[SHARED]) / ms(OP_NAMES[4]),
        );
        ledger.insert("core.spill.n12_ms", ms(OP_NAMES[5]));
        ledger.insert(
            "core.spill.slowdown",
            ms(OP_NAMES[5]) / ms(OP_NAMES[SHARED]),
        );
        ledger.insert(
            "core.spill.bytes",
            registry.snapshot().counter("convert.spill_bytes") as f64,
        );
        ledger.insert("core.subsume.chain4096_ms", ms(OP_NAMES[6]));
        ledger.insert("regex.meta.bomb_ms", ms(OP_NAMES[7]));
        ledger.insert(
            "simd.setops.union256_ns",
            ms("simd.setops.union256") * 1e6 / ROUNDS as f64,
        );
        ledger.insert(
            "simd.setops.subset_many256_ns",
            ms("simd.setops.subset_many256") * 1e6 / (ROUNDS / 100 * 256) as f64,
        );
        let built = self
            .out
            .sequential
            .iter()
            .flatten()
            .map(MetaAutomaton::len)
            .sum::<usize>()
            + [&self.out.parallel, &self.out.spilled]
                .into_iter()
                .flatten()
                .map(MetaAutomaton::len)
                .sum::<usize>()
            + self.out.bomb_states.unwrap_or(0);
        ledger.insert("meta_states", built as f64);
        mirrored
    }
}
