//! End-to-end tests of §3.2.5 restricted dynamic process creation: spawn
//! recruits idle PEs, overflow is an error, and on the SIMD machine halt
//! returns a PE to the pool (the reference and the interpreter never do).

use metastate::{ConvertMode, Pipeline};
use msc_simd::{MachineConfig, RunError};

#[test]
fn spawned_workers_compute() {
    let src = r#"
        void worker(int seed) {
            poly int r;
            r = seed * seed + 1;
        }
        main() {
            spawn worker(pe_id() + 2);
        }
    "#;
    let built = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    let cfg = MachineConfig::with_pool(8, 3);
    let out = built.run_with(cfg).unwrap();
    let r = built.compiled.layout.var("r").unwrap().addr;
    // Three spawners with seeds 2, 3, 4 → results 5, 10, 17 on recruits.
    let mut results: Vec<i64> = (0..8)
        .map(|pe| out.machine.poly_at(pe, r))
        .filter(|&v| v != 0)
        .collect();
    results.sort_unstable();
    assert_eq!(results, vec![5, 10, 17]);
}

#[test]
fn spawn_overflow_reports_cleanly() {
    let src = r#"
        void worker(int seed) { poly int r; r = seed; }
        main() { spawn worker(1); }
    "#;
    let built = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    // All PEs live ⇒ no idle pool ⇒ the documented §3.2.5 limit.
    let out = built.run_with(MachineConfig::spmd(4));
    assert!(
        matches!(out, Err(RunError::SpawnOverflow { .. })),
        "{out:?}"
    );
}

#[test]
fn halted_pes_return_to_pool_for_later_spawns() {
    // Half the parents spawn, halt, then remaining parents spawn again:
    // the completed workers' PEs must be recyclable.
    let src = r#"
        void quick(int v) {
            poly int r;
            r = v;
        }
        main() {
            poly int me = pe_id();
            if (me == 0) {
                spawn quick(10);
            }
            wait;
            if (me == 1) {
                spawn quick(20);
            }
        }
    "#;
    // Exactly ONE spare PE: the second spawn can only succeed if the first
    // worker's PE was recycled into the pool after `halt`.
    let built = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    let out = built.run_with(MachineConfig::with_pool(3, 2)).unwrap();
    let r = built.compiled.layout.var("r").unwrap().addr;
    // The recycled PE's memory was overwritten by the second spawn's
    // parent-copy, so only the final worker's result is visible.
    assert_eq!(out.machine.poly_at(2, r), 20);
}

#[test]
fn spawn_child_inherits_parent_poly_memory() {
    let src = r#"
        void worker(int unused) {
            poly int out, inherited;
            out = inherited + 5;
        }
        main() {
            poly int inherited_src;
            spawn worker(0);
        }
    "#;
    // `inherited` in the worker reads whatever the recruit's copied memory
    // holds at that slot; seed the parent's slot via the layout.
    let built = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
    let cfg = MachineConfig::with_pool(4, 1);
    let mut machine = msc_simd::SimdMachine::new(&built.simd, &cfg);
    let inh = built.compiled.layout.var("inherited").unwrap().addr;
    machine.set_poly(0, inh, 37);
    machine.run(&built.simd, &cfg).unwrap();
    let outv = built.compiled.layout.var("out").unwrap().addr;
    let results: Vec<i64> = (0..4)
        .map(|pe| machine.poly_at(pe, outv))
        .filter(|&v| v != 0)
        .collect();
    assert_eq!(results, vec![42], "child sees the parent's 37 and adds 5");
}
