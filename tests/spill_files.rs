//! No conversion leaves a spill file behind: not one that completes, not
//! one that fails past its meta-state limit, not one that a §2.4 time
//! split restarts. Each case spills (a budget of 0 bytes spills every
//! interned set the moment it is interned), and afterwards no
//! `msc-spill-<pid>-*` file of this process is left in the temp dir. A
//! conversion whose words fit in its budget spills nothing.
//!
//! This file is its own test binary (and so its own process, with its own
//! pid in every spill file name), which is what makes both the file check
//! and the global obs subscriber safe: no other test spills here.

use metastate::{convert, ConvertMode, ConvertOptions, Pipeline, TimeSplitOptions};
use msc_core::ConvertError;
use msc_ir::{MimdGraph, MimdState, StateId, Terminator};
use std::sync::Arc;

/// `n` self-loops forked from one start state: 2ⁿ⁺¹ meta states.
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

/// This process's spill files in the temp dir.
fn spill_files() -> Vec<String> {
    let prefix = format!("msc-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// Run `f` with a registry installed: what it returned, and the bytes it
/// spilled.
fn spilling<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let registry = Arc::new(msc_obs::Registry::new());
    let guard = msc_obs::install(registry.clone());
    let out = f();
    drop(guard);
    (out, registry.snapshot().counter("convert.spill_bytes"))
}

#[test]
fn no_conversion_leaves_a_spill_file() {
    assert_eq!(spill_files(), Vec::<String>::new(), "before any conversion");
    let budget = |max_meta_states| ConvertOptions {
        memory_budget: Some(0),
        max_meta_states,
        ..ConvertOptions::base()
    };

    // Fits: a budget its words stay within writes nothing at all.
    let roomy = ConvertOptions {
        memory_budget: Some(32 << 10),
        ..ConvertOptions::base()
    };
    let (done, spilled) = spilling(|| convert(&fan_out_loops(8), &roomy));
    assert_eq!(done.unwrap().len(), 1 << 9);
    assert_eq!(spilled, 0, "512 one-word sets fit in 32 KiB");

    // Spills and completes.
    let (done, spilled) = spilling(|| convert(&fan_out_loops(8), &budget(1 << 20)));
    assert_eq!(done.unwrap().len(), 1 << 9);
    assert!(
        spilled >= 8 * (1 << 9),
        "{spilled} bytes: every set spilled"
    );
    assert_eq!(
        spill_files(),
        Vec::<String>::new(),
        "after a completed conversion"
    );

    // Spills, then fails past its limit.
    let (failed, spilled) = spilling(|| convert(&fan_out_loops(10), &budget(300)));
    assert_eq!(
        failed.unwrap_err(),
        ConvertError::TooManyMetaStates { limit: 300 }
    );
    assert!(spilled > 0);
    assert_eq!(spill_files(), Vec::<String>::new(), "after a guard error");

    // Spills, and a time split restarts the construction with a fresh
    // arena and worklist.
    let src = r#"
        main() {
            poly int x = 0;
            if (pe_id() % 2) {
                x = 1;
            } else {
                x = ((((pe_id() * 3 + 7) * 5 - 2) * 9 + 4) * 11 - 6) * 13;
            }
            return(x);
        }
    "#;
    let (built, spilled) = spilling(|| {
        Pipeline::new(src)
            .mode(ConvertMode::Base)
            .time_split(TimeSplitOptions {
                split_delta: 2,
                split_percent: 75,
                max_restarts: 100,
            })
            .memory_budget(Some(0))
            .build()
    });
    assert!(built.unwrap().stats.restarts >= 1, "a split must restart");
    assert!(spilled > 0);
    assert_eq!(spill_files(), Vec::<String>::new(), "after a restart");
}
