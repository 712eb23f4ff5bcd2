//! Measure every quantitative claim of the paper (C1–C9 in
//! EXPERIMENTS.md) and print the paper-expectation vs the measured value.
//!
//! ```text
//! cargo run -p msc-bench --bin claims             # all claims
//! cargo run -p msc-bench --bin claims -- c3 c4    # a subset
//! ```

use metastate::{ConvertMode, Pipeline, TimeSplitOptions};
use msc_bench::workloads::*;
use msc_bench::{measure_interp, measure_msc};
use msc_core::{convert, convert_with_stats, ConvertOptions};
use msc_simd::MachineConfig;

fn c1() {
    println!("== C1 (§1.1): interpretation overhead vs meta-state conversion ==");
    println!("   paper: interpretation must fetch/decode, replicate the program per PE,");
    println!("   and pay loop overhead; MSC eliminates all three.\n");
    println!("paths | MSC cycles | interp cycles | speedup | MSC B/PE | interp B/PE");
    for n in [2usize, 3, 4, 5] {
        let src = branchy_source(n);
        let msc = measure_msc(&src, 16, ConvertMode::Base);
        let it = measure_interp(&src, 16);
        assert_eq!(msc.values, it.values, "modes must agree");
        println!(
            "{n:5} | {:10} | {:13} | {:6.2}x | {:8} | {:10}",
            msc.cycles,
            it.cycles,
            it.cycles as f64 / msc.cycles as f64,
            msc.per_pe_program_words * 8,
            it.per_pe_program_words * 8,
        );
    }
    println!("\n   shape check: MSC wins on cycles at every size; MSC per-PE program");
    println!("   memory is 0 and flat, interpreter memory grows with program size.\n");
}

fn c2() {
    println!("== C2 (§1.2/§2.5): state explosion and what compression does to it ==");
    println!("   paper: up to S!/(S-N)! meta states are possible; assuming both");
    println!("   successors are always taken gives 'a very dramatic reduction'.\n");
    println!("live loops n | base meta states | compressed | successor sets enumerated (base)");
    for n in [2usize, 4, 6, 8, 10] {
        let g = fan_out_loops_graph(n);
        let mut opts = ConvertOptions::base();
        opts.max_meta_states = 1 << 18;
        let (base, stats) = convert_with_stats(&g, &opts).unwrap();
        let comp = convert(&g, &ConvertOptions::compressed()).unwrap();
        println!(
            "{n:12} | {:16} | {:10} | {}",
            base.len(),
            comp.len(),
            stats.successor_sets_enumerated
        );
    }
    println!("\n   (contrast: a branch chain whose FALSE arcs all die at the exit state");
    println!("   stays linear even in base mode — explosion needs *co-reachable* states)");
    println!("chain n      | base meta states | compressed");
    for n in [4usize, 8, 12] {
        let g = branch_chain_graph(n);
        let base = convert(&g, &ConvertOptions::base()).unwrap();
        let comp = convert(&g, &ConvertOptions::compressed()).unwrap();
        println!("{n:12} | {:16} | {:10}", base.len(), comp.len());
    }
    println!("\n   shape check: with n co-reachable loop states, base grows");
    println!("   exponentially in n while compression collapses to O(log n) states");
    println!("   ('a very dramatic reduction in meta state space').\n");
}

fn c3() {
    println!("== C3 (§2.4): time splitting restores PE utilization ==");
    println!("   paper: 'if a block that takes 5 clock cycles is placed in the same");
    println!("   meta-state as one that takes 100 cycles, then the parallel machine may");
    println!("   spend up to 95% of its processor cycles simply waiting'.\n");
    println!("arm ratio | util (no split) | util (split) | splits");
    for long in [5usize, 25, 50, 100, 200] {
        let src = imbalanced_source(5, long);
        let plain = Pipeline::new(src.as_str())
            .mode(ConvertMode::Base)
            .build()
            .unwrap();
        let split = Pipeline::new(src.as_str())
            .mode(ConvertMode::Base)
            .time_split(TimeSplitOptions::default())
            .build()
            .unwrap();
        let up = plain.run(16).unwrap().metrics.utilization();
        let us = split.run(16).unwrap().metrics.utilization();
        println!(
            "  5:{long:<5} | {:15.1}% | {:11.1}% | {:6}",
            up * 100.0,
            us * 100.0,
            split.stats.splits
        );
    }
    println!("\n   shape check: unsplit utilization collapses toward the 5/105 ≈ 5%");
    println!("   bound as the ratio grows; splitting holds it near the balanced level.\n");
}

fn c4() {
    println!("== C4 (§2.5): compression trades automaton size for meta-state width ==");
    println!("   paper: 'the average meta-state is wider, which implies that the SIMD");
    println!("   implementation will be less efficient.'\n");
    println!("paths | base: states/width/cycles | compressed: states/width/cycles");
    for n in [2usize, 3, 4, 5, 6] {
        let src = branchy_source(n);
        let b = Pipeline::new(src.as_str())
            .mode(ConvertMode::Base)
            .build()
            .unwrap();
        let c = Pipeline::new(src.as_str())
            .mode(ConvertMode::Compressed)
            .build()
            .unwrap();
        let br = b.run(16).unwrap();
        let cr = c.run(16).unwrap();
        assert!(c.automaton.len() <= b.automaton.len());
        println!(
            "{n:5} | {:6}/{:5.2}/{:8} | {:6}/{:5.2}/{:8}",
            b.automaton.len(),
            b.automaton.avg_width(),
            br.metrics.cycles,
            c.automaton.len(),
            c.automaton.avg_width(),
            cr.metrics.cycles
        );
    }
    println!("\n   shape check: compressed has far fewer, far wider meta states and");
    println!("   more execution cycles — exactly the stated trade.\n");
}

fn c5() {
    println!("== C5 (§2.6): barriers shrink the state space WITHOUT widening ==");
    println!("   paper: barrier synchronization reduces states 'without adding to the");
    println!("   complexity of each meta state.'\n");
    println!("phases | with barriers: states/width | barriers ignored: states/width");
    for phases in [1usize, 2, 3, 4] {
        let src = barrier_phases_source(phases);
        let p = msc_lang::compile(&src).unwrap();
        let with = convert(&p.graph, &ConvertOptions::base()).unwrap();
        let without = convert(
            &p.graph,
            &ConvertOptions {
                respect_barriers: false,
                ..ConvertOptions::base()
            },
        )
        .unwrap();
        println!(
            "{phases:6} | {:12}/{:5.2} | {:14}/{:5.2}",
            with.len(),
            with.avg_width(),
            without.len(),
            without.avg_width()
        );
    }
    println!("\n   shape check: respecting barriers gives fewer meta states at equal or");
    println!("   smaller average width (contrast C4, which shrinks by widening).\n");
}

fn c6() {
    println!("== C6 (§3.1): common subexpression induction ==");
    println!("   paper: operations performed by more than one member sequence 'can be");
    println!("   executed in parallel by all processors' after factoring.\n");
    println!("threads shared/private | naive cost | CSI cost | lower bound | saved");
    for (t, s, p) in [
        (2usize, 8usize, 2usize),
        (4, 8, 2),
        (8, 8, 2),
        (4, 2, 8),
        (4, 12, 0),
    ] {
        let threads = csi_threads(t, s, p);
        let sched = msc_csi::induce(&threads).unwrap();
        sched.validate(&threads).unwrap();
        println!(
            "{t:3} × {s:2}sh/{p:2}pr        | {:10} | {:8} | {:11} | {:4.0}%",
            sched.naive_cost,
            sched.cost,
            sched.lower_bound,
            (1.0 - sched.cost as f64 / sched.naive_cost as f64) * 100.0
        );
    }
    // End-to-end: CSI on vs off through codegen.
    let src = branchy_source(4);
    let with = Pipeline::new(src.as_str())
        .mode(ConvertMode::Compressed)
        .build()
        .unwrap();
    let without = Pipeline::new(src.as_str())
        .mode(ConvertMode::Compressed)
        .gen_options(msc_codegen::GenOptions {
            csi: false,
            ..Default::default()
        })
        .build()
        .unwrap();
    let wc = with.run(16).unwrap().metrics.cycles;
    let oc = without.run(16).unwrap().metrics.cycles;
    println!("\nend-to-end (4-path workload, compressed): CSI {} cycles vs no-CSI {} cycles ({:.0}% saved)", wc, oc, (1.0 - wc as f64 / oc as f64) * 100.0);
    println!("\n   shape check: saving grows with thread count and shared fraction;");
    println!("   fully-shared threads approach the lower bound.\n");
}

fn c7() {
    println!("== C7 (§3.2.3/[Die92a]): customized hash functions for multiway branches ==");
    println!("   paper: aggregate pc values are sparse bitmasks; a customized hash makes");
    println!("   'the case values contiguous so that the compiler will use a jump table.'\n");
    println!("cases | pc bits | naive table | hashed table | hash ops | load");
    for (n, bits) in [
        (3usize, 10u32),
        (5, 10),
        (8, 16),
        (16, 24),
        (32, 32),
        (64, 48),
    ] {
        let keys = aggregate_keys(n, bits);
        let ph = msc_hash::find_hash(&keys).unwrap();
        println!(
            "{:5} | {bits:7} | 2^{bits:<9} | {:12} | {:8} | {:3.0}%",
            keys.len(),
            ph.table.len(),
            ph.expr.op_count(),
            ph.load_factor() * 100.0
        );
    }
    println!("\n   shape check: hashed tables stay near the key count while the naive");
    println!("   dense table explodes as 2^(pc bits); dispatch stays O(1) at 1–3 ALU ops.\n");
}

fn c8() {
    println!("== C8 (§3.2.5): restricted dynamic process creation ==");
    let src = r#"
        void worker(int seed) {
            poly int r, i;
            r = 0;
            for (i = 0; i < seed; i += 1) { r += seed; }
        }
        main() {
            spawn worker(pe_id() + 3);
            spawn worker(pe_id() + 7);
        }
    "#;
    let built = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    // Each live PE spawns twice and the two worker generations overlap, so
    // the pool must hold 2×live recruits at once.
    for (n_pe, live) in [(16usize, 4usize), (16, 5)] {
        let out = built
            .run_with(MachineConfig::with_pool(n_pe, live))
            .unwrap();
        let r = built.compiled.layout.var("r").unwrap().addr;
        let done = (0..n_pe)
            .filter(|&pe| out.machine.poly_at(pe, r) != 0)
            .count();
        println!(
            "{n_pe} PEs, {live} live: {} workers completed, {} PEs idle at end, {} cycles",
            done,
            out.machine.idle_count(),
            out.metrics.cycles
        );
        assert_eq!(done, live * 2, "each live PE spawns twice");
    }
    let over = built.run_with(MachineConfig::spmd(4));
    println!(
        "4 PEs, 4 live (no pool): {:?}",
        over.err().map(|e| e.to_string())
    );
    println!("\n   shape check: spawn works exactly while 'the number of processes");
    println!("   requested does not exceed the number of processors available'.\n");
}

fn c9() {
    println!("== C9 (§5): synchronization is implicit in meta-state code ==");
    println!("   paper: 'synchronization is implicit in the meta-state converted SIMD");
    println!("   code, and hence has no runtime cost.'\n");
    println!("phases | MSC sync instrs issued | interpreter Wait rounds");
    for phases in [1usize, 2, 3] {
        let src = barrier_phases_source(phases);
        let built = Pipeline::new(src.as_str())
            .mode(ConvertMode::Base)
            .build()
            .unwrap();
        // Count synchronization instructions in the generated program: by
        // construction there are none — barriers shaped the automaton.
        let sync_instrs = 0; // no Wait/sync opcode exists in SimdInstr
        let _ = built.run(8).unwrap();
        let p = msc_lang::compile(&src).unwrap();
        let image =
            msc_mimd::InterpProgram::flatten(&p.graph, p.layout.poly_words, p.layout.mono_words);
        let waits = image
            .image
            .iter()
            .filter(|i| matches!(i, msc_mimd::InterpInstr::Wait))
            .count();
        println!("{phases:6} | {sync_instrs:22} | {waits} wait instructions in the image");
    }
    println!("\n   shape check: the generated SIMD instruction set has no");
    println!("   synchronization opcode at all; the interpreter must execute explicit");
    println!("   Wait instructions and spin rounds until release.\n");
}

fn c10() {
    println!("== C10 (extension): where does compression win? ==");
    println!("   §2.5 says compressed meta states are wider (slower bodies) but need");
    println!("   no globalor dispatch. So the base/compressed choice is a cost-model");
    println!("   question: as dispatch gets more expensive relative to ALU work, the");
    println!("   compressed automaton's unconditional gotos start paying off.\n");
    let src = branchy_source(3);
    println!("dispatch cost | base cycles | compressed cycles | winner");
    for dispatch in [2u32, 8, 32, 128, 512] {
        let costs = msc_ir::CostModel {
            dispatch,
            ..Default::default()
        };
        let run = |mode: ConvertMode| {
            let mut copts = match mode {
                ConvertMode::Base => ConvertOptions::base(),
                ConvertMode::Compressed => ConvertOptions::compressed(),
            };
            copts.costs = costs.clone();
            let built = Pipeline::new(src.as_str())
                .convert_options(copts)
                .gen_options(msc_codegen::GenOptions {
                    costs: costs.clone(),
                    ..Default::default()
                })
                .build()
                .unwrap();
            built.run(16).unwrap().metrics.cycles
        };
        let b = run(ConvertMode::Base);
        let c = run(ConvertMode::Compressed);
        println!(
            "{dispatch:13} | {b:11} | {c:17} | {}",
            if b <= c { "base" } else { "compressed" }
        );
    }
    println!("\n   shape check: base wins at realistic dispatch costs; sufficiently");
    println!("   expensive aggregation flips the winner to compressed — the trade");
    println!("   §2.5 describes, made quantitative.\n");
}

fn a1() {
    println!("== A1 (ablation): superset subsumption in compression ==");
    println!("   Figure 5's two-state result needs the fold implied by 'both");
    println!("   successors can always emulate either successor'. Divergent-loop");
    println!("   shapes (the paper's own example family) build the subset chains.\n");
    println!("live loops n | compressed w/ subsumption | w/o subsumption");
    for n in [2usize, 4, 8, 12] {
        let g = fan_out_loops_graph(n);
        let with = convert(&g, &ConvertOptions::compressed()).unwrap();
        let without = convert(
            &g,
            &ConvertOptions {
                subsumption: false,
                ..ConvertOptions::compressed()
            },
        )
        .unwrap();
        println!("{n:12} | {:25} | {}", with.len(), without.len());
    }
    println!("\n   shape check: without subsumption, compression keeps one meta state");
    println!("   per fan-out level (each a strict subset of the final union); the");
    println!("   fold collapses them into the superset — the paper's 8→…→2 step.\n");
}

fn a2() {
    println!("== A2 (ablation): bisimulation minimization of the MIMD graph ==");
    println!("   The §4.2 while-normalization duplicates the loop test (pre-test +");
    println!("   in-loop test), and duplicated branch bodies are common in SPMD");
    println!("   dispatchers; merging bisimilar states shrinks the graph the");
    println!("   converter must subset-construct.\n");
    let src = r#"
        main() {
            poly int x, acc = 0;
            x = pe_id() % 4;
            /* identical bodies in two arms */
            if (x == 0) { acc += 5; acc *= 2; }
            else        { acc += 5; acc *= 2; }
            /* while after a join: pre-test block == in-loop test block */
            while (x > 0) { x -= 1; }
            while (acc > 11) { acc -= 1; }
            return(acc + x);
        }
    "#;
    let plain = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    let minimized = Pipeline::new(src)
        .mode(ConvertMode::Base)
        .minimize()
        .build()
        .unwrap();
    println!(
        "MIMD states: {} plain → {} minimized",
        plain.compiled.graph.len(),
        minimized.compiled.graph.len()
    );
    println!(
        "meta states: {} plain → {} minimized",
        plain.automaton.len(),
        minimized.automaton.len()
    );
    let a = plain.run(8).unwrap();
    let b = minimized.run(8).unwrap();
    let ret = plain.ret_addr().unwrap();
    let va: Vec<i64> = (0..8).map(|pe| a.machine.poly_at(pe, ret)).collect();
    let vb: Vec<i64> = (0..8)
        .map(|pe| b.machine.poly_at(pe, minimized.ret_addr().unwrap()))
        .collect();
    assert_eq!(va, vb, "minimization must preserve semantics");
    assert!(minimized.compiled.graph.len() < plain.compiled.graph.len());
    println!(
        "results identical; cycles {} → {}",
        a.metrics.cycles, b.metrics.cycles
    );
    println!("   (note: §2.2 inline copies do NOT merge — each call site's frame");
    println!("   addresses differ, so the duplicated code is not textually equal;");
    println!("   an address-abstracting minimizer is genuine future work.)\n");
}

fn a3() {
    println!("== A3 (ablation): peephole optimization before conversion ==");
    let src = r#"
        main() {
            poly int x;
            x = (2 * 3 + 4) * pe_id() + (10 - 2 * 5);
            if (x * 1 + 0 > 8) { x = x + 2 * 8; } else { x = x - 16 / 4; }
            return(x);
        }
    "#;
    let plain = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    let opt = Pipeline::new(src)
        .mode(ConvertMode::Base)
        .optimize()
        .build()
        .unwrap();
    let a = plain.run(8).unwrap();
    let b = opt.run(8).unwrap();
    let va: Vec<i64> = (0..8)
        .map(|pe| a.machine.poly_at(pe, plain.ret_addr().unwrap()))
        .collect();
    let vb: Vec<i64> = (0..8)
        .map(|pe| b.machine.poly_at(pe, opt.ret_addr().unwrap()))
        .collect();
    assert_eq!(va, vb);
    println!(
        "control-unit instrs: {} plain → {} optimized; cycles {} → {}",
        plain.simd.control_unit_instrs(),
        opt.simd.control_unit_instrs(),
        a.metrics.cycles,
        b.metrics.cycles
    );
    println!("   shape check: folding shrinks both program and cycle count.\n");
}

fn a4() {
    println!("== A4 (ablation): hash family restriction ==");
    println!("   Listing 5 uses shift/xor folding; how often does the search need");
    println!("   the multiplicative fallback?\n");
    println!("cases | bits | folding-only table | with mul table");
    for (n, bits) in [(5usize, 10u32), (16, 24), (32, 32), (64, 48)] {
        let keys = aggregate_keys(n, bits);
        let fold_only = msc_hash::find_hash_with(
            &keys,
            msc_hash::SearchOptions {
                max_table_bits: 16,
                allow_mul: false,
            },
        );
        let with_mul = msc_hash::find_hash(&keys).unwrap();
        println!(
            "{n:5} | {bits:4} | {:18} | {}",
            fold_only
                .map(|p| p.table.len().to_string())
                .unwrap_or_else(|_| "not found".into()),
            with_mul.table.len()
        );
    }
    println!("\n   shape check: folding families suffice for small dispatches (like");
    println!("   the paper's example); wide sparse key sets need multiplicative");
    println!("   hashing, which the generated-code cost model prices identically.\n");
}

/// Drop a re-measured snapshot next to (not over) the committed
/// baseline: `bench-remeasured/BENCH_<name>.json`. CI uploads the
/// directory as an artifact so a failing (or passing) gate run leaves
/// the numbers it actually saw on the machine that saw them.
/// Best-effort: never fails the gate over an unwritable disk.
fn write_remeasured(name: &str, json: &str) {
    let dir = std::path::Path::new("bench-remeasured");
    let path = dir.join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("note: could not write {}: {e}", path.display());
    } else {
        println!("re-measured snapshot: {}", path.display());
    }
}

/// Best-of-3 per-iteration time of `f`, auto-scaled to ~20 ms per sample.
/// The returned `usize` is folded into a sink so the work cannot be
/// optimized away.
fn time_ns(mut f: impl FnMut() -> usize) -> f64 {
    use std::time::Instant;
    let mut sink = 0usize;
    let t0 = Instant::now();
    sink ^= f();
    let one = t0.elapsed().as_nanos().max(1);
    let iters = (20_000_000u128 / one).clamp(8, 1_000_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            sink ^= f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    std::hint::black_box(sink);
    best
}

/// A set's bitset words, for driving the word-parallel kernels directly.
fn bit_words(s: &msc_core::StateSet) -> Vec<u64> {
    let mut w = Vec::new();
    s.append_bit_words(&mut w);
    w
}

fn setops() {
    use msc_bench::baseline::{vec_difference, vec_is_subset, vec_union};
    use msc_core::StateSet;
    use msc_ir::StateId;

    println!("== SETOPS: hybrid StateSet vs the seed's sorted-vec representation ==");
    println!("   (writes the committed baseline BENCH_setops.json)");
    println!("   union is the SIMD kernel the converter's candidate enumeration runs");
    println!("   on: bit-words unioned into a reusable scratch buffer, no allocation.\n");
    let to_set = |v: &[u32]| -> StateSet { StateSet::from_iter(v.iter().map(|&x| StateId(x))) };

    let mut json = String::from("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p msc-bench --bin claims -- setops\",\n",
    );
    json.push_str("  \"units\": \"ns per operation, best of 3 samples\",\n");
    json.push_str("  \"workloads\": [\n");
    println!("size | op         | sorted-vec ns | hybrid ns | speedup");
    for (wi, &n) in [64usize, 256, 1024].iter().enumerate() {
        let (va, vb) = overlapping_members(n);
        let (sa, sb) = (to_set(&va), to_set(&vb));
        let vsub: Vec<u32> = va.iter().copied().step_by(2).collect();
        let ssub = to_set(&vsub);
        let probes: Vec<u32> = (0..16).map(|i| (i * 7) % (4 * n as u32)).collect();
        let (wa, wb) = (bit_words(&sa), bit_words(&sb));
        let (long, short) = if wa.len() >= wb.len() {
            (&wa, &wb)
        } else {
            (&wb, &wa)
        };
        let mut out = Vec::with_capacity(long.len());

        let ops: [(&str, f64, f64); 4] = [
            (
                "union",
                time_ns(|| vec_union(&va, &vb).len()),
                time_ns(|| msc_simd::setops::union_count(long, short, &mut out) as usize),
            ),
            (
                "difference",
                time_ns(|| vec_difference(&va, &vb).len()),
                time_ns(|| sa.difference(&sb).len()),
            ),
            (
                "is_subset",
                time_ns(|| usize::from(vec_is_subset(&vsub, &va))),
                time_ns(|| usize::from(ssub.is_subset(&sa))),
            ),
            (
                "contains",
                time_ns(|| {
                    probes
                        .iter()
                        .filter(|&&p| va.binary_search(&p).is_ok())
                        .count()
                }),
                time_ns(|| probes.iter().filter(|&&p| sa.contains(StateId(p))).count()),
            ),
        ];
        json.push_str(&format!("    {{\"size\": {n}"));
        for (name, naive, hybrid) in ops {
            let speedup = naive / hybrid;
            println!("{n:4} | {name:10} | {naive:13.1} | {hybrid:9.1} | {speedup:6.2}x");
            json.push_str(&format!(
                ", \"{name}_baseline_ns\": {naive:.1}, \"{name}_hybrid_ns\": {hybrid:.1}, \"{name}_speedup\": {speedup:.2}"
            ));
        }
        json.push_str(if wi == 2 { "}\n" } else { "},\n" });
    }
    json.push_str("  ],\n");

    println!("\n   subsumption scaling (n subset/superset pairs, each folds once):");
    println!("   pairs | ns/pass | growth vs previous (quadratic would be ~4x)");
    let sizes = [64usize, 128, 256, 512];
    let mut times = Vec::new();
    for &n in &sizes {
        let auto = subset_chain_automaton(n);
        let ns = time_ns(|| {
            let mut a = auto.clone();
            msc_core::subsume::subsume(&mut a);
            a.len()
        });
        let growth = times
            .last()
            .map(|&p: &f64| format!("{:.2}x", ns / p))
            .unwrap_or_else(|| "-".into());
        println!("   {n:5} | {ns:11.0} | {growth}");
        times.push(ns);
    }
    json.push_str("  \"subsume\": {\n    \"pairs\": [64, 128, 256, 512],\n    \"ns\": [");
    json.push_str(
        &times
            .iter()
            .map(|t| format!("{t:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n    \"growth_ratios\": [");
    json.push_str(
        &times
            .windows(2)
            .map(|w| format!("{:.2}", w[1] / w[0]))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n    \"quadratic_growth_would_be\": 4.0\n  }\n}\n");

    std::fs::write("BENCH_setops.json", &json).expect("write BENCH_setops.json");
    println!("\n   wrote BENCH_setops.json");
    println!("   shape check: union/is_subset speedups reach >=2x from the 256-state");
    println!("   workload up, and subsume growth ratios stay near 2x per doubling\n");
}

/// `claims -- setops --check`: re-measure the union / is_subset speedups
/// and gate them against the committed `BENCH_setops.json`. Prints the
/// measurements either way; returns false (→ nonzero exit) if any speedup
/// regressed more than 30% below its committed value.
fn setops_check() -> bool {
    use msc_bench::baseline::{vec_is_subset, vec_union};
    use msc_bench::regression::{check_speedups, parse_setops_baseline};
    use msc_core::StateSet;
    use msc_ir::StateId;

    println!("== SETOPS --check: regression gate vs committed BENCH_setops.json ==\n");
    let text = match std::fs::read_to_string("BENCH_setops.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_setops.json: {e}");
            return false;
        }
    };
    let baseline = parse_setops_baseline(&text);
    if baseline.is_empty() {
        eprintln!("BENCH_setops.json contains no workload baselines");
        return false;
    }

    let to_set = |v: &[u32]| -> StateSet { StateSet::from_iter(v.iter().map(|&x| StateId(x))) };
    let mut measured = Vec::new();
    println!("size | union speedup (committed) | is_subset speedup (committed)");
    for b in &baseline {
        let n = b.size;
        let (va, vb) = overlapping_members(n);
        let (sa, sb) = (to_set(&va), to_set(&vb));
        let vsub: Vec<u32> = va.iter().copied().step_by(2).collect();
        let ssub = to_set(&vsub);
        let (wa, wb) = (bit_words(&sa), bit_words(&sb));
        let (long, short) = if wa.len() >= wb.len() {
            (&wa, &wb)
        } else {
            (&wb, &wa)
        };
        let mut out = Vec::with_capacity(long.len());
        let union_speedup = time_ns(|| vec_union(&va, &vb).len())
            / time_ns(|| msc_simd::setops::union_count(long, short, &mut out) as usize);
        let subset_speedup = time_ns(|| usize::from(vec_is_subset(&vsub, &va)))
            / time_ns(|| usize::from(ssub.is_subset(&sa)));
        println!(
            "{n:4} | {union_speedup:13.2}x ({:6.2}x) | {subset_speedup:17.2}x ({:6.2}x)",
            b.union_speedup, b.is_subset_speedup
        );
        measured.push((n, union_speedup, subset_speedup));
    }

    write_remeasured(
        "setops",
        &format!(
            "{{\n  \"generated_by\": \"claims -- setops --check\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
            measured
                .iter()
                .map(|(n, u, s)| format!(
                    "    {{\"size\": {n}, \"union_speedup\": {u:.2}, \"is_subset_speedup\": {s:.2}}}"
                ))
                .collect::<Vec<_>>()
                .join(",\n")
        ),
    );

    // Sets below ~4 bit-words finish in a handful of cycles, so their
    // speedup ratio swings 2x run to run; only the 256+ sizes time
    // stably enough to ratchet. Smaller sizes stay informational above.
    let gated: Vec<_> = baseline.iter().filter(|b| b.size >= 256).cloned().collect();
    let failures = check_speedups(&gated, &measured, 0.30);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if failures.is_empty() {
        println!("\nbench regression gate OK (30% tolerance, sizes >= 256)");
        true
    } else {
        eprintln!(
            "\nbench regression gate FAILED: {} regression(s)",
            failures.len()
        );
        false
    }
}

/// The explosion bench workload: enough co-reachable loop states that
/// base-mode conversion builds thousands of meta states (§2.3's 3ⁿ
/// frontier), fixed so committed and re-measured runs compare like for
/// like.
const EXPLOSION_LOOPS: usize = 12;
/// Spill budget for the out-of-core pass — far below the workload's
/// resident footprint, so the arena and worklist must page through the
/// temp-file segment stores to finish.
const EXPLOSION_BUDGET: usize = 1 << 14;

/// One explosion measurement pass: base-mode subset construction over the
/// fan-out-loops workload, in RAM and again under the spill budget, with
/// the bit-identity invariant checked and the spill counters captured.
fn measure_explosion() -> msc_bench::regression::ExplosionMeasurement {
    use std::time::Instant;
    let g = fan_out_loops_graph(EXPLOSION_LOOPS);
    let mut opts = ConvertOptions::base();
    opts.max_meta_states = 1 << 21;
    opts.memory_budget = None;
    let t0 = Instant::now();
    let plain = convert(&g, &opts).expect("in-RAM conversion");
    let in_ram_secs = t0.elapsed().as_secs_f64();

    let registry = std::sync::Arc::new(msc_obs::Registry::new());
    let guard = msc_obs::install(registry.clone());
    opts.memory_budget = Some(EXPLOSION_BUDGET);
    let t0 = Instant::now();
    let spilled = convert(&g, &opts).expect("spilled conversion");
    let spilled_secs = t0.elapsed().as_secs_f64();
    drop(guard);
    let spill_bytes = registry
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| *name == "convert.spill_bytes")
        .map(|(_, v)| *v)
        .unwrap_or(0);

    msc_bench::regression::ExplosionMeasurement {
        meta_states: plain.len() as u64,
        in_ram_states_per_sec: plain.len() as f64 / in_ram_secs,
        spilled_states_per_sec: spilled.len() as f64 / spilled_secs,
        spill_bytes,
        spill_identical: plain.sets == spilled.sets
            && plain.succs == spilled.succs
            && plain.start == spilled.start,
    }
}

/// `claims -- explosion`: measure out-of-core subset construction on the
/// 3ⁿ frontier and write the committed `BENCH_explosion.json` baseline.
fn explosion() {
    println!("== EXPLOSION: out-of-core subset construction on the 3^n frontier ==");
    println!("   (writes the committed baseline BENCH_explosion.json)\n");
    let m = measure_explosion();
    println!(
        "fan_out_loops({EXPLOSION_LOOPS}), base mode: {} meta states",
        m.meta_states
    );
    println!("pass                  | states/sec");
    println!("in RAM                | {:10.0}", m.in_ram_states_per_sec);
    println!(
        "{:5}-byte budget     | {:10.0}",
        EXPLOSION_BUDGET, m.spilled_states_per_sec
    );
    println!(
        "spilled {} bytes through segment stores; bit-identical: {}",
        m.spill_bytes, m.spill_identical
    );
    assert!(m.spill_identical, "spilled automaton diverged");
    assert!(m.spill_bytes > 0, "budget never spilled");
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p msc-bench --bin claims -- explosion\",\n  \
         \"workload\": \"fan_out_loops({EXPLOSION_LOOPS}), base mode\",\n  \
         \"meta_states\": {},\n  \"in_ram_states_per_sec\": {:.0},\n  \
         \"spill_budget_bytes\": {EXPLOSION_BUDGET},\n  \"spilled_states_per_sec\": {:.0},\n  \
         \"spill_bytes\": {},\n  \"spill_identical\": true\n}}\n",
        m.meta_states, m.in_ram_states_per_sec, m.spilled_states_per_sec, m.spill_bytes,
    );
    std::fs::write("BENCH_explosion.json", &json).expect("write BENCH_explosion.json");
    println!("\n   wrote BENCH_explosion.json");
    println!("   shape check: the spill budget is ~10x below the resident footprint,");
    println!("   yet conversion completes with the exact same automaton — the guard");
    println!("   is a memory budget now, not a cliff.\n");
}

/// `claims -- explosion --check`: re-measure the out-of-core conversion
/// and gate it against the committed `BENCH_explosion.json`.
fn explosion_check() -> bool {
    use msc_bench::regression::{check_explosion, parse_explosion_baseline};
    println!("== EXPLOSION --check: regression gate vs committed BENCH_explosion.json ==\n");
    let text = match std::fs::read_to_string("BENCH_explosion.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_explosion.json: {e}");
            return false;
        }
    };
    let Some(baseline) = parse_explosion_baseline(&text) else {
        eprintln!("BENCH_explosion.json is missing expected keys");
        return false;
    };
    let m = measure_explosion();
    println!(
        "{} meta states (committed {}), in-RAM {:.0} states/s (committed {:.0}), \
         spilled {:.0} states/s (committed {:.0}), {} spill bytes, identical: {}",
        m.meta_states,
        baseline.meta_states,
        m.in_ram_states_per_sec,
        baseline.in_ram_states_per_sec,
        m.spilled_states_per_sec,
        baseline.spilled_states_per_sec,
        m.spill_bytes,
        m.spill_identical
    );
    write_remeasured(
        "explosion",
        &format!(
            "{{\n  \"generated_by\": \"claims -- explosion --check\",\n  \
             \"meta_states\": {},\n  \"in_ram_states_per_sec\": {:.0},\n  \
             \"spilled_states_per_sec\": {:.0},\n  \"spill_bytes\": {},\n  \
             \"spill_identical\": {}\n}}\n",
            m.meta_states,
            m.in_ram_states_per_sec,
            m.spilled_states_per_sec,
            m.spill_bytes,
            m.spill_identical
        ),
    );
    let failures = check_explosion(&baseline, &m, 0.50);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if failures.is_empty() {
        println!("\nexplosion regression gate OK (50% throughput tolerance)");
        true
    } else {
        eprintln!(
            "\nexplosion regression gate FAILED: {} regression(s)",
            failures.len()
        );
        false
    }
}

/// The regex bench workload: pattern and haystack are fixed so committed
/// and re-measured runs compare like for like.
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

/// One regex measurement pass: meta-automaton throughput at 1/2/8
/// threads over the 16 MiB haystack, the naive reference over a small slice
/// (it is algorithmically far slower), and the span-agreement invariant.
fn measure_regex() -> msc_bench::regression::RegexMeasurement {
    use msc_regex::Regex;
    let re = Regex::new(REGEX_PATTERN).expect("bench pattern compiles");
    let hay = regex_haystack(REGEX_HAYSTACK_BYTES);
    let shards: Vec<&[u8]> = hay.chunks(1 << 16).collect();
    let seq = re.find_all(&hay);
    let mut agree = true;
    let mbps = |bytes: usize, ns: f64| bytes as f64 * 1e3 / ns;
    let mut sharded_mbps = |threads: usize| {
        let ns = time_ns(|| {
            let found = re.find_sharded(&shards, threads);
            if found != seq {
                agree = false;
            }
            found.len()
        });
        mbps(hay.len(), ns)
    };
    let t1_mbps = sharded_mbps(1);
    let t2_mbps = sharded_mbps(2);
    let t8_mbps = sharded_mbps(8);
    // The naive engine memoizes per (node, position); a small slice is
    // plenty to measure its per-byte cost.
    let naive_slice = &hay[..1 << 12];
    let naive_ns = time_ns(|| re.naive_find_all(naive_slice).len());
    msc_bench::regression::RegexMeasurement {
        naive_mbps: mbps(naive_slice.len(), naive_ns),
        t1_mbps,
        t2_mbps,
        t8_mbps,
        matches: seq.len() as u64,
        spans_agree: agree,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// `claims -- regex`: measure the regex front-end and write the
/// committed `BENCH_regex.json` baseline.
fn regex() {
    println!("== REGEX: meta-automaton matcher vs naive reference ==");
    println!("   (writes the committed baseline BENCH_regex.json)\n");
    let m = measure_regex();
    println!(
        "pattern {REGEX_PATTERN:?} over {} MiB, {} matches",
        REGEX_HAYSTACK_BYTES >> 20,
        m.matches
    );
    println!("engine        | MB/s");
    println!("naive (ref)   | {:8.2}", m.naive_mbps);
    println!("dfa 1 thread  | {:8.2}", m.t1_mbps);
    println!("dfa 2 threads | {:8.2}", m.t2_mbps);
    println!("dfa 8 threads | {:8.2}", m.t8_mbps);
    println!(
        "dfa-vs-naive speedup {:.1}x; t2/t1 {:.2}, t8/t1 {:.2}; spans agree: {}",
        m.dfa_vs_naive(),
        m.t2_mbps / m.t1_mbps,
        m.t8_mbps / m.t1_mbps,
        m.spans_agree
    );
    assert!(m.spans_agree, "sharded spans diverged from sequential");
    // The floors ratchet with the measurement: within 30% of the 1-thread
    // throughput, and 80% of the 2-thread scaling, capped at 1.5.
    let t2_vs_t1 = m.t2_mbps / m.t1_mbps;
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p msc-bench --bin claims -- regex\",\n  \
         \"pattern\": \"{REGEX_PATTERN}\",\n  \"haystack_bytes\": {},\n  \"cores\": {},\n  \
         \"matches\": {},\n  \"naive_mbps\": {:.2},\n  \"t1_mbps\": {:.2},\n  \
         \"t2_mbps\": {:.2},\n  \"t8_mbps\": {:.2},\n  \
         \"dfa_vs_naive_speedup\": {:.2},\n  \"t2_vs_t1\": {:.3},\n  \"t8_vs_t1\": {:.3},\n  \
         \"targets\": {{\n    \"t1_mbps_min\": {:.1},\n    \"t2_vs_t1_min\": {:.2},\n    \
         \"t8_vs_t1_min\": 0.5\n  }}\n}}\n",
        REGEX_HAYSTACK_BYTES,
        m.cores,
        m.matches,
        m.naive_mbps,
        m.t1_mbps,
        m.t2_mbps,
        m.t8_mbps,
        m.dfa_vs_naive(),
        t2_vs_t1,
        m.t8_mbps / m.t1_mbps,
        0.7 * m.t1_mbps,
        (0.8 * t2_vs_t1).min(1.5),
    );
    std::fs::write("BENCH_regex.json", &json).expect("write BENCH_regex.json");
    println!("\n   wrote BENCH_regex.json");
    println!("   shape check: the compiled meta-automaton beats the naive reference by");
    println!("   an order of magnitude, and sharded throughput does not collapse.\n");
}

/// `claims -- regex --check`: re-measure the regex front-end and gate it
/// against the committed `BENCH_regex.json`.
fn regex_check() -> bool {
    use msc_bench::regression::{check_regex, parse_regex_baseline};
    println!("== REGEX --check: regression gate vs committed BENCH_regex.json ==\n");
    let text = match std::fs::read_to_string("BENCH_regex.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_regex.json: {e}");
            return false;
        }
    };
    let Some(baseline) = parse_regex_baseline(&text) else {
        eprintln!("BENCH_regex.json is missing expected keys");
        return false;
    };
    let m = measure_regex();
    println!(
        "dfa-vs-naive {:.1}x (committed {:.1}x), t1 {:.0} MB/s (floor {:.0}), \
         t2/t1 {:.2} (floor {:.2}), t8/t1 {:.2} (floor {:.2}), {} core(s), spans agree: {}",
        m.dfa_vs_naive(),
        baseline.dfa_vs_naive_speedup,
        m.t1_mbps,
        baseline.t1_mbps_min,
        m.t2_mbps / m.t1_mbps,
        baseline.t2_vs_t1_min,
        m.t8_mbps / m.t1_mbps,
        baseline.t8_vs_t1_min,
        m.cores,
        m.spans_agree
    );
    if m.cores < 2 {
        println!("SKIP: t2/t1 floor not enforced on a 1-core runner");
    }
    write_remeasured(
        "regex",
        &format!(
            "{{\n  \"generated_by\": \"claims -- regex --check\",\n  \
             \"naive_mbps\": {:.2},\n  \"t1_mbps\": {:.2},\n  \"t2_mbps\": {:.2},\n  \
             \"t8_mbps\": {:.2},\n  \"dfa_vs_naive_speedup\": {:.2},\n  \
             \"matches\": {},\n  \"spans_agree\": {},\n  \"cores\": {}\n}}\n",
            m.naive_mbps,
            m.t1_mbps,
            m.t2_mbps,
            m.t8_mbps,
            m.dfa_vs_naive(),
            m.matches,
            m.spans_agree,
            m.cores
        ),
    );
    let failures = check_regex(&baseline, &m, 0.50);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if failures.is_empty() {
        println!("\nregex regression gate OK (50% speedup tolerance)");
        true
    } else {
        eprintln!(
            "\nregex regression gate FAILED: {} regression(s)",
            failures.len()
        );
        false
    }
}

/// `claims -- serve`: one load + coalesce-burst measurement against an
/// in-process daemon, printed next to the committed baseline. No gate —
/// use `--check` for that, `loadgen` to regenerate the baseline.
fn serve() {
    use msc_bench::loadbench::{measure_serve, BASELINE_CLIENTS};
    use msc_bench::regression::parse_serve_baseline;
    use std::time::Duration;

    println!("== SERVE: daemon load measurement vs committed BENCH_serve.json ==\n");
    let committed = std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|t| parse_serve_baseline(&t));
    let m = match measure_serve(BASELINE_CLIENTS, Duration::from_millis(1_000)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("serve measurement failed: {e}");
            return;
        }
    };
    println!("                | measured | committed");
    let fmt = |v: Option<f64>| {
        v.map(|v| format!("{v:9.0}"))
            .unwrap_or_else(|| "      (-)".into())
    };
    println!(
        "throughput rps  | {:8.0} | {}",
        m.throughput_rps,
        fmt(committed.as_ref().map(|b| b.throughput_rps))
    );
    println!(
        "p99 latency ms  | {:8.3} | {}",
        m.p99_ms,
        committed
            .as_ref()
            .map(|b| format!("{:9.3}", b.p99_ms))
            .unwrap_or_else(|| "      (-)".into())
    );
    println!(
        "burst compiles  | {:8} | {}",
        m.burst_compilations,
        fmt(committed.as_ref().map(|b| b.burst_compilations as f64))
    );
    println!(
        "errors          | {:8} | {}",
        m.errors,
        fmt(committed.as_ref().map(|_| 0.0))
    );
    println!("\n   shape check: one compilation per coalesced burst, zero errors;");
    println!(
        "   regenerate the committed file with `cargo run --release -p msc-bench --bin loadgen`.\n"
    );
}

/// `claims -- serve --check`: re-measure the daemon under the baseline
/// workload and gate it against the committed `BENCH_serve.json`.
/// Returns false (→ nonzero exit) on any invariant break, a p99 over the
/// absolute ceiling, or throughput >50% below the committed value.
fn serve_check() -> bool {
    use msc_bench::loadbench::{measure_serve, BASELINE_CLIENTS};
    use msc_bench::regression::{check_serve, parse_serve_baseline, ServeMeasurement};
    use std::time::Duration;

    println!("== SERVE --check: regression gate vs committed BENCH_serve.json ==\n");
    let text = match std::fs::read_to_string("BENCH_serve.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_serve.json: {e}");
            return false;
        }
    };
    let Some(baseline) = parse_serve_baseline(&text) else {
        eprintln!("BENCH_serve.json is missing expected keys");
        return false;
    };
    let run = match measure_serve(BASELINE_CLIENTS, Duration::from_millis(1_000)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve measurement failed: {e}");
            return false;
        }
    };
    let measured = ServeMeasurement {
        throughput_rps: run.throughput_rps,
        p99_ms: run.p99_ms,
        errors: run.errors,
        burst_compilations: run.burst_compilations,
    };
    println!(
        "throughput {:.0} req/s (committed {:.0}), p99 {:.3}ms (ceiling {:.0}ms), \
         burst {} compilation(s), {} error(s)",
        measured.throughput_rps,
        baseline.throughput_rps,
        measured.p99_ms,
        baseline.p99_ms_max,
        measured.burst_compilations,
        measured.errors
    );
    write_remeasured(
        "serve",
        &format!(
            "{{\n  \"generated_by\": \"claims -- serve --check\",\n  \
             \"clients\": {BASELINE_CLIENTS},\n  \"requests\": {},\n  \"errors\": {},\n  \
             \"throughput_rps\": {:.0},\n  \"p99_ms\": {:.3},\n  \
             \"burst_compilations\": {}\n}}\n",
            run.requests,
            run.errors,
            measured.throughput_rps,
            measured.p99_ms,
            measured.burst_compilations
        ),
    );

    let failures = check_serve(&baseline, &measured, 0.50);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if failures.is_empty() {
        println!("\nserve regression gate OK (50% throughput tolerance)");
        true
    } else {
        eprintln!(
            "\nserve regression gate FAILED: {} regression(s)",
            failures.len()
        );
        false
    }
}

fn cluster_json(m: &msc_bench::cluster::ClusterSummary, generated_by: &str) -> String {
    format!(
        "{{\n  \"generated_by\": \"{generated_by}\",\n  \"jobs\": {},\n  \"peer_hits\": {},\n  \
         \"node_b_compilations\": {},\n  \"peer_hit_mean_ms\": {:.2},\n  \
         \"peer_hit_max_ms\": {:.2},\n  \"single_node_cold_ms\": {:.2},\n  \
         \"dead_peer_cold_ms\": {:.2},\n  \"verify_fails\": {},\n  \"errors\": {},\n  \
         \"targets\": {{\n    \"peer_hit_ms_max\": 250.0,\n    \
         \"dead_peer_overhead_ms_max\": 4000.0\n  }}\n}}\n",
        m.jobs,
        m.peer_hits,
        m.node_b_compilations,
        m.peer_hit_mean_ms,
        m.peer_hit_max_ms,
        m.single_node_cold_ms,
        m.dead_peer_cold_ms,
        m.verify_fails,
        m.errors
    )
}

fn print_cluster(m: &msc_bench::cluster::ClusterSummary) {
    println!(
        "\n   node B: {}/{} jobs served by its peer, {} local compilation(s)",
        m.peer_hits, m.jobs, m.node_b_compilations
    );
    println!(
        "   peer hit {:.2}ms mean / {:.2}ms max vs {:.2}ms single-node cold compile",
        m.peer_hit_mean_ms, m.peer_hit_max_ms, m.single_node_cold_ms
    );
    println!(
        "   dead fleet: cold compile {:.2}ms; corrupt peer: {} verify failure(s); {} error(s)",
        m.dead_peer_cold_ms, m.verify_fails, m.errors
    );
}

/// `claims -- cluster`: boot a small daemon fleet, measure node B's
/// compiles-avoided and peer-hit latency, and write the committed
/// `BENCH_cluster.json` baseline.
fn cluster() {
    println!("== CLUSTER: peer artifact sharing across daemons ==\n");
    println!("   (writes the committed baseline BENCH_cluster.json)");
    let m = match msc_bench::cluster::measure_cluster() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cluster measurement failed: {e}");
            return;
        }
    };
    print_cluster(&m);
    std::fs::write("BENCH_cluster.json", cluster_json(&m, "claims -- cluster"))
        .expect("write BENCH_cluster.json");
    println!("\n   wrote BENCH_cluster.json");
    println!("   shape check: every node-B job is a peer hit, zero local compiles,");
    println!("   and the dead-fleet compile stays within one peer deadline of single-node\n");
}

/// `claims -- cluster --check`: re-run the fleet measurement and gate it
/// against the committed `BENCH_cluster.json`. Returns false (→ nonzero
/// exit) on any invariant break or latency-bound violation.
fn cluster_check() -> bool {
    use msc_bench::regression::{check_cluster, parse_cluster_baseline, ClusterMeasurement};

    println!("== CLUSTER --check: regression gate vs committed BENCH_cluster.json ==\n");
    let text = match std::fs::read_to_string("BENCH_cluster.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_cluster.json: {e}");
            return false;
        }
    };
    let Some(baseline) = parse_cluster_baseline(&text) else {
        eprintln!("BENCH_cluster.json is missing expected keys");
        return false;
    };
    let run = match msc_bench::cluster::measure_cluster() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cluster measurement failed: {e}");
            return false;
        }
    };
    print_cluster(&run);
    write_remeasured("cluster", &cluster_json(&run, "claims -- cluster --check"));
    let measured = ClusterMeasurement {
        jobs: run.jobs,
        peer_hits: run.peer_hits,
        node_b_compilations: run.node_b_compilations,
        peer_hit_mean_ms: run.peer_hit_mean_ms,
        single_node_cold_ms: run.single_node_cold_ms,
        dead_peer_cold_ms: run.dead_peer_cold_ms,
        verify_fails: run.verify_fails,
        errors: run.errors,
    };
    let failures = check_cluster(&baseline, &measured);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if failures.is_empty() {
        println!("\ncluster regression gate OK");
        true
    } else {
        eprintln!(
            "\ncluster regression gate FAILED: {} regression(s)",
            failures.len()
        );
        false
    }
}

/// The profile matrix the sweep gate runs: the committed `profiles/`
/// directory when present (so a doctored committed profile fails the
/// `--check` gate, not just tier-1), else the bundled matrix — tier-1
/// pins the two bit-equal either way.
fn sweep_profiles() -> Vec<msc_simd::MachineProfile> {
    let dir = std::path::Path::new("profiles");
    if dir.is_dir() {
        match msc_simd::MachineProfile::load_dir(dir) {
            Ok(p) if !p.is_empty() => return p,
            Ok(_) => {}
            Err(e) => eprintln!("note: profiles/ unreadable ({e}); using bundled matrix"),
        }
    }
    msc_simd::MachineProfile::bundled()
}

fn sweep_json(generated_by: &str, rows: &[msc_bench::sweep::SweepRow], hard: u64) -> String {
    let mut profiles = String::new();
    for (i, r) in rows.iter().enumerate() {
        profiles.push_str(&format!(
            "    {{ \"name\": \"{}\", \"pe_count\": {}, \"cycles\": {}, \
             \"utilization\": {:.4}, \"interp_cycles\": {}, \"speedup\": {:.4} }}{}\n",
            r.name,
            r.pe_count,
            r.cycles,
            r.utilization,
            r.interp_cycles,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    format!(
        "{{\n  \"generated_by\": \"{generated_by}\",\n  \
         \"workload\": \"branchy_source(3) == examples/dispatch_heavy.mimdc, base mode\",\n  \
         \"hard_coded_cycles\": {hard},\n  \"profiles\": [\n{profiles}  ]\n}}\n"
    )
}

fn print_sweep_rows(rows: &[msc_bench::sweep::SweepRow]) {
    println!("profile        | PEs | cycles | util% | interp | speedup");
    for r in rows {
        println!(
            "{:14} | {:3} | {:6} | {:5.1} | {:6} | {:6.2}x",
            r.name,
            r.pe_count,
            r.cycles,
            r.utilization * 100.0,
            r.interp_cycles,
            r.speedup
        );
    }
}

fn sweep() {
    use msc_bench::sweep::{dispatch_heavy_source, hard_coded_cycles, measure_sweep};
    println!("== SWEEP: the machine-profile landscape ==");
    println!("   One hard-coded cost model gives one point per claim; the profile");
    println!("   matrix turns §2.4 and §5 into a landscape: which machines does MSC");
    println!("   win on, and by how much? (writes the committed BENCH_sweep.json)\n");
    let src = dispatch_heavy_source();
    let rows = measure_sweep(&src, &msc_simd::MachineProfile::bundled());
    let hard = hard_coded_cycles(&src, 16);
    println!("dispatch-heavy workload (branchy_source(3), base mode):");
    print_sweep_rows(&rows);
    println!("hard-coded default path: {hard} cycles (paper-default must equal it)\n");

    // The §2.4 landscape: time splitting's utilization rescue, per profile.
    println!("§2.4 per profile — imbalanced_source(5, 100), utilization without/with");
    println!("time splitting:");
    println!("profile        | util (no split) | util (split)");
    for p in msc_simd::MachineProfile::bundled() {
        let src = imbalanced_source(5, 100);
        let run = |ts: bool| {
            let mut pipe = Pipeline::new(src.as_str())
                .mode(ConvertMode::Base)
                .costs(p.costs.clone());
            if ts {
                pipe = pipe.time_split(TimeSplitOptions::default());
            }
            pipe.build()
                .unwrap()
                .run_with(p.machine_config())
                .unwrap()
                .metrics
                .utilization()
        };
        println!(
            "{:14} | {:14.1}% | {:11.1}%",
            p.name,
            run(false) * 100.0,
            run(true) * 100.0
        );
    }
    let json = sweep_json(
        "cargo run --release -p msc-bench --bin claims -- sweep",
        &rows,
        hard,
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("\n   wrote BENCH_sweep.json");
    println!("   shape check: cheap-dispatch ≤ paper-default ≤ slow-globalor on a");
    println!("   dispatch-heavy workload; the default profile is bit-identical to the");
    println!("   hard-coded model, so every other committed BENCH_*.json stays valid.\n");
}

/// `claims -- sweep --check`: re-measure the profile matrix and gate it
/// against the committed `BENCH_sweep.json` (exact cycles — the simulator
/// is deterministic — plus the profile ordering invariants and the
/// paper-default ≡ hard-coded bit-identity).
fn sweep_check() -> bool {
    use msc_bench::regression::{check_sweep, parse_sweep_baseline};
    use msc_bench::sweep::{dispatch_heavy_source, hard_coded_cycles, measure_sweep};
    println!("== SWEEP --check: regression gate vs committed BENCH_sweep.json ==\n");
    let text = match std::fs::read_to_string("BENCH_sweep.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_sweep.json: {e}");
            return false;
        }
    };
    let Some(baseline) = parse_sweep_baseline(&text) else {
        eprintln!("BENCH_sweep.json is missing expected keys");
        return false;
    };
    let src = dispatch_heavy_source();
    let rows = measure_sweep(&src, &sweep_profiles());
    let hard = hard_coded_cycles(&src, 16);
    print_sweep_rows(&rows);
    println!("hard-coded default path: {hard} cycles");
    write_remeasured("sweep", &sweep_json("claims -- sweep --check", &rows, hard));
    let failures = check_sweep(&baseline, &rows, hard);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if failures.is_empty() {
        println!("\nsweep regression gate OK (exact-cycle + ordering invariants)");
        true
    } else {
        eprintln!(
            "\nsweep regression gate FAILED: {} regression(s)",
            failures.len()
        );
        false
    }
}

fn main() {
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    let check = which.iter().any(|w| w == "--check");
    which.retain(|w| w != "--check");
    if check {
        // --check gates the named claims (default: every claim that has
        // a committed baseline).
        if which.is_empty() {
            which = vec![
                "setops".into(),
                "serve".into(),
                "regex".into(),
                "explosion".into(),
                "sweep".into(),
            ];
        }
        let mut ok = true;
        for w in &which {
            ok &= match w.as_str() {
                "setops" => setops_check(),
                "serve" => serve_check(),
                "regex" => regex_check(),
                "explosion" => explosion_check(),
                "sweep" => sweep_check(),
                // Not in the default list: needs the mscc binary built
                // first (subprocess daemons) — `ci.sh cluster-smoke`
                // runs it as its own stage.
                "cluster" => cluster_check(),
                other => {
                    eprintln!(
                        "no --check gate for claim {other:?} \
                         (have: setops, serve, regex, explosion, sweep, cluster)"
                    );
                    false
                }
            };
        }
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    let all = which.is_empty();
    let want = |k: &str| all || which.iter().any(|w| w == k);
    let claims: [(&str, fn()); 20] = [
        ("c1", c1),
        ("c2", c2),
        ("c3", c3),
        ("c4", c4),
        ("c5", c5),
        ("c6", c6),
        ("c7", c7),
        ("c8", c8),
        ("c9", c9),
        ("c10", c10),
        ("a1", a1),
        ("a2", a2),
        ("a3", a3),
        ("a4", a4),
        ("setops", setops),
        ("serve", serve),
        ("regex", regex),
        ("explosion", explosion),
        ("sweep", sweep),
        ("cluster", cluster),
    ];
    for (k, f) in claims {
        if want(k) {
            f();
        }
    }
}
