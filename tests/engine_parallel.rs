//! Engine-level properties:
//!
//! * **Parallel ≡ sequential ≡ spilled**: over randomly generated MIMD
//!   graphs, the one conversion driver produces the *bit-identical* raw
//!   automaton and statistics at every thread count and memory budget,
//!   and `convert_parallel` returns what `convert_with_stats` returns.
//! * **Cache hits skip conversion**: a repeated job is served from the
//!   cache without recompiling, and the artifact is shared.

use metastate::{convert_parallel, Engine, EngineOptions, Job, Pipeline, Provenance};
use msc_core::{
    convert_rounds, convert_with_stats, ConvertError, ConvertMode, ConvertOptions, ConvertStats,
    MetaAutomaton, MetaId, StateSet, SuccTable,
};
use msc_ir::{MimdGraph, MimdState, StateId, Terminator};
use proptest::prelude::*;

/// Blueprint of one MIMD state: terminator kind + raw target indices
/// (taken modulo the state count when the graph is built) + barrier flag.
#[derive(Debug, Clone)]
struct StateSpec {
    kind: u8,
    a: usize,
    b: usize,
    extra: Vec<usize>,
    barrier: bool,
}

fn arb_graph() -> impl Strategy<Value = MimdGraph> {
    let spec = (
        0u8..4,
        0usize..32,
        0usize..32,
        prop::collection::vec(0usize..32, 0..4),
        any::<bool>(),
    )
        .prop_map(|(kind, a, b, extra, barrier)| StateSpec {
            kind,
            a,
            b,
            extra,
            barrier,
        });
    (prop::collection::vec(spec, 2..14), 0usize..32).prop_map(|(specs, start)| {
        let n = specs.len();
        let mut g = MimdGraph::new();
        for spec in &specs {
            let term = match spec.kind {
                0 => Terminator::Halt,
                1 => Terminator::Jump(StateId((spec.a % n) as u32)),
                2 => Terminator::Branch {
                    t: StateId((spec.a % n) as u32),
                    f: StateId((spec.b % n) as u32),
                },
                _ => {
                    let mut targets = vec![StateId((spec.a % n) as u32)];
                    targets.extend(spec.extra.iter().map(|&i| StateId((i % n) as u32)));
                    Terminator::Multi(targets)
                }
            };
            let mut st = MimdState::new(vec![], term);
            st.barrier = spec.barrier;
            g.add(st);
        }
        g.start = StateId((start % n) as u32);
        g
    })
}

/// One conversion's outcome, reduced to what must not depend on the thread
/// count or the memory budget.
type Outcome = Result<(Vec<StateSet>, SuccTable, MetaId, ConvertStats), ConvertError>;

fn outcome(r: Result<(MetaAutomaton, ConvertStats), ConvertError>) -> Outcome {
    r.map(|(a, stats)| (a.sets, a.succs, a.start, stats))
}

fn check_graph(g: &MimdGraph, opts: &ConvertOptions) -> Result<(), TestCaseError> {
    let with_budget = |memory_budget| ConvertOptions {
        memory_budget,
        ..opts.clone()
    };
    // The driver's raw output — discovery order, no pruning, no fold —
    // and its full statistics, guard errors included: one
    // thread in RAM is the sequential converter, and every other thread
    // count and budget must reproduce it exactly.
    let raw = |threads, budget| {
        outcome(convert_rounds::<ConvertError>(
            g,
            &with_budget(budget),
            threads,
            || Ok(()),
        ))
    };
    let sequential = raw(1, None);
    if let Ok((sets, succs, start, _)) = &sequential {
        let automaton = MetaAutomaton {
            graph: g.clone(),
            sets: sets.clone(),
            succs: succs.clone(),
            start: *start,
        };
        prop_assert_eq!(automaton.validate(), Ok(()));
    }
    for threads in [1usize, 2, 4, 8] {
        for budget in [None, Some(256)] {
            prop_assert_eq!(
                &raw(threads, budget),
                &sequential,
                "driver output differs at {} threads, budget {:?}",
                threads,
                budget
            );
        }
    }
    // What callers get — pruned, and folded when subsumption is on — is
    // the sequential converter's too.
    prop_assert_eq!(
        outcome(convert_parallel(g, &with_budget(Some(256)), 8)),
        outcome(convert_with_stats(g, opts)),
        "8 threads spilled differ from convert_with_stats"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn parallel_equals_sequential_base(g in arb_graph()) {
        let opts = ConvertOptions { max_meta_states: 4096, max_successor_sets: 1 << 12, ..ConvertOptions::base() };
        check_graph(&g, &opts)?;
    }

    #[test]
    fn parallel_equals_sequential_compressed(g in arb_graph()) {
        let opts = ConvertOptions { max_meta_states: 4096, ..ConvertOptions::compressed() };
        check_graph(&g, &opts)?;
    }

    #[test]
    fn parallel_equals_sequential_no_barriers(g in arb_graph()) {
        let opts = ConvertOptions {
            respect_barriers: false,
            max_meta_states: 4096,
            max_successor_sets: 1 << 12,
            ..ConvertOptions::base()
        };
        check_graph(&g, &opts)?;
    }
}

const PROG: &str = "main() { poly int x; x = pe_id() * 3 + 1; return(x); }";

#[test]
fn cache_hit_skips_conversion() {
    let engine = Engine::new(EngineOptions::default());
    let job = Job::new("prog", PROG);
    let first = engine.compile(&job).unwrap();
    assert_eq!(first.provenance, Provenance::Fresh);
    assert_eq!(engine.jobs_compiled(), 1);
    let second = engine.compile(&job).unwrap();
    assert_eq!(
        second.provenance,
        Provenance::Memory,
        "repeat is served from cache"
    );
    assert_eq!(engine.jobs_compiled(), 1, "conversion was skipped");
    assert!(
        std::sync::Arc::ptr_eq(&first.artifact, &second.artifact),
        "both calls share one artifact"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn disk_cache_survives_engine_restart() {
    let dir = std::env::temp_dir().join(format!("msc-engine-disk-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };
    let first = Engine::new(opts.clone())
        .compile(&Job::new("p", PROG))
        .unwrap();
    // A fresh engine simulates a new `mscc` process: only the disk layer
    // can satisfy the lookup.
    let engine = Engine::new(opts);
    let second = engine.compile(&Job::new("p", PROG)).unwrap();
    assert_eq!(second.provenance, Provenance::Disk);
    assert_eq!(engine.jobs_compiled(), 0, "nothing was recompiled");
    assert_eq!(second.artifact.meta_states, first.artifact.meta_states);
    assert_eq!(
        second.artifact.automaton_text,
        first.artifact.automaton_text
    );
    // The reloaded program still runs: execute it and check per-PE results.
    let built = Pipeline::new(PROG).build().unwrap();
    let out = built.run(4).unwrap();
    let machine =
        msc_simd::SimdMachine::new(&second.artifact.simd, &msc_simd::MachineConfig::spmd(4));
    let mut machine = machine;
    machine
        .run(&second.artifact.simd, &msc_simd::MachineConfig::spmd(4))
        .unwrap();
    let ret = second.artifact.ret_addr.unwrap();
    for pe in 0..4 {
        assert_eq!(
            machine.poly_at(pe, ret),
            out.machine.poly_at(pe, built.ret_addr().unwrap())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_job_compiles_through_engine() {
    let engine = Engine::new(EngineOptions::default());
    let built = Pipeline::new(PROG).build().unwrap();
    let p = Pipeline::new(PROG).mode(ConvertMode::Base);
    let compiled = engine.compile(&p.into_job("prog")).unwrap();
    assert_eq!(compiled.provenance, Provenance::Fresh);
    assert_eq!(compiled.artifact.automaton_text, built.automaton_text());
}
