//! Structure checks for every figure and listing in the paper, via the
//! public API (the `figures` binary in msc-bench renders the same
//! artifacts for human inspection; these tests pin their structure).

mod common;

use metastate::{ConvertMode, Pipeline};
use msc_core::StateSet;
use msc_ir::{StateId, Terminator};

/// The paper's Listing 1 / Listing 4 control structure.
const LISTING4: &str = include_str!("../examples/listing4.mimdc");

/// Listing 3: Listing 1 plus a barrier before F.
const LISTING3: &str = include_str!("../examples/listing3.mimdc");

fn set(v: &[u32]) -> StateSet {
    StateSet::from_iter(v.iter().map(|&x| StateId(x)))
}

/// Figure 1: the MIMD state graph of Listing 1 — four states
/// (A | B;C | D;E | F), A branching to the two do-while loops, each
/// looping to itself or falling through to F.
#[test]
fn figure1_mimd_state_graph() {
    let p = msc_lang::compile(LISTING4).unwrap();
    let g = &p.graph;
    assert_eq!(g.len(), 4);
    let Terminator::Branch { t: b, f: d } = g.state(g.start).term else {
        panic!("A must branch");
    };
    for loop_state in [b, d] {
        let Terminator::Branch { t, f } = g.state(loop_state).term else {
            panic!("loop state must branch");
        };
        assert_eq!(t, loop_state);
        assert_eq!(g.state(f).term, Terminator::Halt, "F ends the process");
    }
}

/// Figure 2: base conversion gives exactly eight meta states with the
/// paper's membership sets (our state ids: 0=A, 1=B;C, 2=D;E, 3=F where
/// the paper uses 0, 2, 6, 9).
#[test]
fn figure2_base_meta_state_graph() {
    let built = Pipeline::new(LISTING4)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    let a = &built.automaton;
    assert_eq!(a.len(), 8);
    for members in [
        set(&[0]),
        set(&[1]),
        set(&[2]),
        set(&[3]),
        set(&[1, 2]),
        set(&[1, 3]),
        set(&[2, 3]),
        set(&[1, 2, 3]),
    ] {
        assert!(
            a.find(&members).is_some(),
            "missing {members}:\n{}",
            a.text()
        );
    }
    // Start is {A}; {F} is the only terminal meta state.
    assert_eq!(a.members(a.start), &set(&[0]));
    let terminal: Vec<_> = (0..a.len())
        .filter(|&i| a.successors(msc_core::MetaId(i as u32)).is_empty())
        .collect();
    assert_eq!(terminal.len(), 1);
}

/// Figures 3–4: time splitting an (α, β) pair with t(α) ≪ t(β) produces
/// β₀ (cost = t(α)) chained to β′, and the meta state {α, β₀} is balanced.
#[test]
fn figures3_4_time_splitting() {
    use metastate::TimeSplitOptions;
    let src = r#"
        main() {
            poly int x = 0;
            if (pe_id() % 2) {
                x = 1;                     /* short α */
            } else {
                x = ((((pe_id() * 3 + 7) * 5 - 2) * 9 + 4) * 11 - 6) * 13; /* long β */
            }
            return(x);
        }
    "#;
    let built = Pipeline::new(src)
        .mode(ConvertMode::Base)
        .time_split(TimeSplitOptions {
            split_delta: 2,
            split_percent: 75,
            max_restarts: 100,
        })
        .build()
        .unwrap();
    assert!(built.stats.splits >= 1, "β must split");
    assert!(
        built.automaton.max_imbalance(&msc_ir::CostModel::default()) <= 2,
        "meta states balanced to within split_delta:\n{}",
        built.automaton.text()
    );
    // And execution still matches the MIMD reference.
    let reference = common::run_reference(src, 4);
    let out = built.run(4).unwrap();
    let ret = built.ret_addr().unwrap();
    let vals: Vec<i64> = (0..4).map(|pe| out.machine.poly_at(pe, ret)).collect();
    assert_eq!(vals, reference.values);
}

/// Figure 5: compression (with superset subsumption) reduces the automaton
/// to two meta states, and the entry to the compressed state is
/// unconditional.
#[test]
fn figure5_compressed_graph() {
    let built = Pipeline::new(LISTING4)
        .mode(ConvertMode::Compressed)
        .build()
        .unwrap();
    let a = &built.automaton;
    assert_eq!(a.len(), 2, "{}", a.text());
    assert!(a.is_deterministic());
    assert!(a.find(&set(&[1, 2, 3])).is_some());
    // §3.2.2: "all entries to compressed meta states fall into this
    // [single-exit-arc] category" — the generated dispatches are Direct.
    for b in &built.simd.blocks {
        assert!(matches!(
            b.dispatch,
            msc_simd::Dispatch::Direct(_) | msc_simd::Dispatch::End
        ));
    }
}

/// Figure 6: the barrier constrains transitions — no meta state mixes F
/// with a loop state, and the all-barrier meta state exists.
#[test]
fn figure6_barrier_graph() {
    let built = Pipeline::new(LISTING3)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    let a = &built.automaton;
    assert_eq!(a.len(), 5, "{{A}},{{B}},{{D}},{{B,D}},{{F}}:\n{}", a.text());
    assert!(a.find(&set(&[1, 3])).is_none());
    assert!(a.find(&set(&[2, 3])).is_none());
    assert!(a.find(&set(&[1, 2, 3])).is_none());
    let f = a.find(&set(&[3])).expect("the all-barrier meta state");
    assert!(a.successors(f).is_empty());
}

/// Listing 5: the full pipeline output for Listing 4 — eight labeled meta
/// states, guarded stack code, CSI-shared bodies, hashed switches.
#[test]
fn listing5_generated_code_shape() {
    let built = Pipeline::new(LISTING4)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    let text = built.mpl();
    // Eight meta-state labels.
    let labels = text
        .lines()
        .filter(|l| l.starts_with("ms_") && l.ends_with(':'))
        .count();
    assert_eq!(labels, 8, "{text}");
    // Per-member guards and shared (multi-bit) guards both present.
    assert!(text.contains("if (pc & BIT("), "{text}");
    assert!(
        text.contains("|BIT("),
        "CSI factoring shows as merged guards: {text}"
    );
    // globalor aggregate + hashed switch + goto-style dispatch + exit.
    assert!(text.contains("apc = globalor(pc);"));
    assert!(text.contains("switch ("));
    assert!(text.contains("goto ms_"));
    assert!(text.contains("exit(0);"));
    // Stack ops in the paper's style.
    assert!(text.contains("Push("));
    assert!(text.contains("JumpF("));
}

/// The §2.5 claim around Figure 5: compression makes meta states *wider*
/// (less SIMD-efficient) while shrinking the automaton.
#[test]
fn compression_width_tradeoff() {
    let base = Pipeline::new(LISTING4)
        .mode(ConvertMode::Base)
        .build()
        .unwrap();
    let comp = Pipeline::new(LISTING4)
        .mode(ConvertMode::Compressed)
        .build()
        .unwrap();
    assert!(comp.automaton.len() < base.automaton.len());
    assert!(
        comp.automaton.avg_width() > base.automaton.avg_width(),
        "compressed {} vs base {}",
        comp.automaton.avg_width(),
        base.automaton.avg_width()
    );
}

/// The terminating Listing-4 variant executes identically in all modes
/// (semantics check backing the Listing 5 reproduction).
#[test]
fn listing4_variant_executes() {
    common::assert_all_modes_agree(
        r#"
        main() {
            poly int x, n;
            x = pe_id() % 2;
            n = 0;
            if (x) { do { n += 1; x -= 1; } while (x); }
            else   { do { n += 10; } while (x); }
            return(n);
        }
        "#,
        8,
    );
}
