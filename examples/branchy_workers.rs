//! Control parallelism on SIMD hardware — the paper's motivating workload.
//!
//! Each PE takes a data-dependent path through a little task dispatcher
//! (classify → three very different work loops), which is exactly the
//! "each processor can take its own path independent of all others"
//! behaviour that seems to require MIMD hardware (§1). The example runs it
//! three ways and prints the §1.1-vs-§1.2 comparison:
//!
//! * true MIMD (reference simulator) — the semantics baseline,
//! * meta-state converted SIMD (this paper's technique),
//! * MIMD-interpreter-on-SIMD (the classical emulation approach),
//!
//! showing that MSC preserves MIMD results while beating interpretation on
//! cycles and per-PE memory.
//!
//! ```text
//! cargo run --example branchy_workers
//! ```

use metastate::{ConvertMode, Pipeline};
use msc_ir::CostModel;
use msc_mimd::{InterpMachine, InterpProgram, MimdConfig, MimdReference};

const SRC: &str = r#"
    int collatz_steps(int n) {
        poly int steps = 0;
        while (n != 1) {
            if (n % 2) { n = 3 * n + 1; } else { n = n / 2; }
            steps += 1;
        }
        return steps;
    }

    int triangle(int n) {
        poly int i, acc = 0;
        for (i = 1; i <= n; i += 1) { acc += i; }
        return acc;
    }

    main() {
        poly int kind, x;
        kind = pe_id() % 3;
        if (kind == 0)      { x = collatz_steps(pe_id() + 5); }
        else { if (kind == 1) { x = triangle(pe_id() * 2); }
               else           { x = (pe_id() + 1) * (pe_id() + 1); } }
        return(x);
    }
"#;

fn main() {
    let n_pe = 12;

    // True MIMD reference.
    let compiled = msc_lang::compile(SRC).expect("compiles");
    let mcfg = MimdConfig::spmd(n_pe);
    let mut mimd = MimdReference::new(
        compiled.layout.poly_words,
        compiled.layout.mono_words,
        &mcfg,
    );
    let mimd_metrics = mimd.run(&compiled.graph, &mcfg).expect("MIMD runs");
    let ret = compiled.layout.main_ret.unwrap();

    // Meta-state conversion, both ways: base (§2.3, fast) and compressed
    // (§2.5, small automaton but wider — "the SIMD implementation will be
    // less efficient").
    let built = Pipeline::new(SRC)
        .mode(ConvertMode::Base)
        .build()
        .expect("pipeline");
    let msc = built.run(n_pe).expect("MSC runs");
    let built_c = Pipeline::new(SRC)
        .mode(ConvertMode::Compressed)
        .build()
        .expect("pipeline");
    let msc_c = built_c.run(n_pe).expect("compressed MSC runs");

    // Interpreter baseline (§1.1).
    let image = InterpProgram::flatten(
        &compiled.graph,
        compiled.layout.poly_words,
        compiled.layout.mono_words,
    );
    let mut interp = InterpMachine::new(&image, n_pe, n_pe);
    let interp_metrics = interp
        .run(&image, &CostModel::default(), 100_000_000)
        .expect("interpreter runs");

    println!("PE | kind      | MIMD | MSC  | interp");
    println!("---+-----------+------+------+-------");
    for pe in 0..n_pe {
        let kind = ["collatz ", "triangle", "square  "][pe % 3];
        let (a, b, c) = (
            mimd.poly_at(pe, ret),
            msc.machine.poly_at(pe, ret),
            interp.poly_at(pe, ret),
        );
        assert_eq!(a, b, "MSC diverged from MIMD on PE {pe}");
        assert_eq!(a, c, "interpreter diverged from MIMD on PE {pe}");
        println!("{pe:2} | {kind} | {a:4} | {b:4} | {c:5}");
    }

    println!("\n                   cycles   per-PE program   meta states");
    println!(
        "MIMD (ideal):    {:8}   n/a (real MIMD)",
        mimd_metrics.cycles
    );
    println!(
        "MSC base:        {:8}   {:3} words        {:4}",
        msc.metrics.cycles,
        built.simd.per_pe_program_words(),
        built.automaton.len()
    );
    println!(
        "MSC compressed:  {:8}   {:3} words        {:4}",
        msc_c.metrics.cycles,
        built_c.simd.per_pe_program_words(),
        built_c.automaton.len()
    );
    println!(
        "interpreter:     {:8}   {:3} words        n/a",
        interp_metrics.cycles,
        image.per_pe_program_words()
    );
    println!(
        "\nbase MSC speedup over interpretation: {:.2}x, with zero per-PE program memory",
        interp_metrics.cycles as f64 / msc.metrics.cycles as f64,
    );
    println!(
        "compression shrinks the automaton {:.0}x but widens meta states (§2.5's trade-off)",
        built.automaton.len() as f64 / built_c.automaton.len() as f64
    );
    assert!(
        msc.metrics.cycles < interp_metrics.cycles,
        "C1 shape: MSC must win"
    );
}
