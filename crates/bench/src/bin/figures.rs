//! Regenerate every figure and listing of the paper.
//!
//! ```text
//! cargo run -p msc-bench --bin figures            # all of them
//! cargo run -p msc-bench --bin figures -- fig2    # one artifact
//! ```
//!
//! Artifacts: `fig1` (MIMD state graph), `fig2` (base meta-state graph),
//! `fig34` (time splitting before/after), `fig5` (compressed graph),
//! `fig6` (barrier graph), `listing5` (generated MPL-like SIMD code).

use metastate::{ConvertMode, Pipeline, TimeSplitOptions};
use msc_ir::CostModel;

const LISTING4: &str = include_str!("../../../../examples/listing4.mimdc");
const LISTING3: &str = include_str!("../../../../examples/listing3.mimdc");

fn fig1() {
    println!("== Figure 1: MIMD state graph for Listing 1 ==\n");
    let p = msc_lang::compile(LISTING4).unwrap();
    println!("{}", msc_ir::render::text(&p.graph, &CostModel::default()));
    println!("(paper ids 0,2,6,9 = our ids 0,1,2,3; structure identical)\n");
    println!(
        "--- graphviz ---\n{}",
        msc_ir::render::dot(&p.graph, &CostModel::default())
    );
}

fn fig2() {
    println!("== Figure 2: meta-state graph (base conversion) ==\n");
    let built = Pipeline::new(LISTING4)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    println!("{}", built.automaton_text());
    println!("meta states: {} (paper: 8)\n", built.automaton.len());
    println!("--- graphviz ---\n{}", built.automaton.dot());
}

fn fig34() {
    println!("== Figures 3–4: MIMD state time splitting ==\n");
    let src = msc_bench::workloads::imbalanced_source(5, 100);
    let costs = CostModel::default();

    let before = Pipeline::new(src.as_str())
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    println!("--- before splitting ---");
    println!("{}", msc_ir::render::text(&before.compiled.graph, &costs));
    println!(
        "max imbalance within a meta state: {} cycles\n",
        before.automaton.max_imbalance(&costs)
    );

    let after = Pipeline::new(src.as_str())
        .mode(ConvertMode::Base)
        .time_split(TimeSplitOptions::default())
        .build()
        .unwrap();
    println!(
        "--- after splitting ({} splits, {} restarts) ---",
        after.stats.splits, after.stats.restarts
    );
    println!("{}", msc_ir::render::text(&after.automaton.graph, &costs));
    println!(
        "max imbalance within a meta state: {} cycles",
        after.automaton.max_imbalance(&costs)
    );
}

fn fig5() {
    println!("== Figure 5: compressed meta-state graph ==\n");
    let built = Pipeline::new(LISTING4)
        .mode(ConvertMode::Compressed)
        .build()
        .unwrap();
    println!("{}", built.automaton_text());
    println!(
        "meta states: {} (paper: 2, \"compared to eight for the uncompressed graph\")",
        built.automaton.len()
    );
    println!("subsumed during compression: {}\n", built.stats.subsumed);
    println!("--- graphviz ---\n{}", built.automaton.dot());
}

fn fig6() {
    println!("== Figure 6: meta-state graph for Listing 3 (barrier) ==\n");
    let built = Pipeline::new(LISTING3)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    println!("{}", built.automaton_text());
    println!(
        "meta states: {}; no meta state mixes the barrier state with loop states.\n",
        built.automaton.len()
    );
    println!("--- graphviz ---\n{}", built.automaton.dot());
}

fn listing2() {
    println!("== Listing 2 (§2.2): recursive function call via inline expansion ==\n");
    let src = r#"
        int g(int n) {
            if (n > 0) { return g(n - 1) + 1; }
            return 100;
        }
        main() {
            poly int r1, r2;
            r1 = g(pe_id() % 3);      /* position a; b follows */
            r2 = g(pe_id() % 2 + 1);  /* position c; d follows */
            return(r1 * 1000 + r2);
        }
    "#;
    let p = msc_lang::compile(src).unwrap();
    println!("{}", msc_ir::render::text(&p.graph, &CostModel::default()));
    let multis = p
        .graph
        .ids()
        .filter(|&i| matches!(p.graph.state(i).term, msc_ir::Terminator::Multi(_)))
        .count();
    println!("{multis} multiway return branches (two returns × two inline copies of g);");
    println!("each returns to its copy's statically-known sites, per §2.2.\n");
}

fn listing5() {
    println!("== Listing 5: meta-state converted SIMD code for Listing 4 ==\n");
    let built = Pipeline::new(LISTING4)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    println!("{}", built.mpl());
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty();
    let want = |k: &str| all || which.iter().any(|w| w == k);
    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig34") {
        fig34();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig6") {
        fig6();
    }
    if want("listing2") {
        listing2();
    }
    if want("listing5") {
        listing5();
    }
}
