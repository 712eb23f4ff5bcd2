//! Measure every quantitative claim of the paper (C1–C9 in
//! EXPERIMENTS.md) and print the paper-expectation vs the measured value.
//!
//! ```text
//! cargo run -p msc-bench --bin claims             # all claims
//! cargo run -p msc-bench --bin claims -- c3 c4    # a subset
//! ```
//!
//! The names in [`msc_bench::gate::BENCHES`] (`setops`, `serve`, `regex`,
//! `explosion`, `sweep`, `cluster`) measure and write the committed
//! `BENCH_<name>.json`; with `--check` they re-measure and gate against
//! it instead, exiting nonzero on any regression.

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

fn main() {
    use msc_bench::gate::{recheck, regenerate, BENCHES};
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    let check = which.iter().any(|w| w == "--check");
    which.retain(|w| w != "--check");
    let mut ok = true;
    let mut gated = |k: &str, run: Result<(), String>| {
        if let Err(e) = run {
            eprintln!("\n{k}: {e}");
            ok = false;
        }
    };
    if check {
        // --check gates the named benches (default: every bench whose
        // row says so).
        if which.is_empty() {
            let default = BENCHES.iter().filter(|b| b.in_default_check);
            which = default.map(|b| b.name.to_string()).collect();
        }
        for w in &which {
            let run = match BENCHES.iter().find(|b| b.name == w) {
                Some(b) => recheck(b),
                None => Err(format!(
                    "no --check gate (have: {})",
                    BENCHES.each_ref().map(|b| b.name).join(", ")
                )),
            };
            gated(w, run);
        }
    } else {
        let all = which.is_empty();
        let want = |k: &str| all || which.iter().any(|w| w == k);
        let claims: [(&str, fn()); 14] = [
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
        ];
        for (k, f) in claims {
            if want(k) {
                f();
            }
        }
        // The benches: measure and write the committed BENCH_<name>.json.
        for b in BENCHES.iter().filter(|b| want(b.name)) {
            gated(b.name, regenerate(b));
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
