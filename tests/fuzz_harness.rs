//! Acceptance pins for the differential-fuzzing subsystem (ISSUE 5):
//!
//! * an intentionally injected conversion bug is *caught* by the fuzzer
//!   and *minimized* to a reproducer of at most 15 source lines;
//! * the minimizer's output still reproduces the original mismatch;
//! * a clean run over the full in-process oracle matrix finds nothing.

use msc_fuzz::{
    minimize, replay, run_case, run_fuzz, FuzzConfig, Oracle, OracleConfig, Reproducer,
};
use std::path::Path;

fn corpus_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("msc-fuzz-harness-{tag}-{}", std::process::id()))
}

/// The injected-bug fixture: the `selftest` oracle miscompiles (nudges the
/// last PE's result) on any program whose automaton branched and whose
/// source contains an `if`. The fuzzer must catch it within a modest case
/// budget and shrink the trigger to a near-minimal branch.
#[test]
fn injected_bug_is_caught_and_minimized_to_a_tiny_reproducer() {
    let dir = corpus_dir("inject");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FuzzConfig {
        seed: 1,
        cases: 30,
        oracles: vec![Oracle::SelfTest],
        corpus_dir: Some(dir.clone()),
        spawn_permille: 0,
        ..FuzzConfig::default()
    };
    let summary = run_fuzz(&cfg);
    assert!(
        summary.mismatches > 0,
        "the injected bug went unnoticed over {} cases",
        summary.cases
    );
    assert!(!summary.reproducers.is_empty());
    for path in &summary.reproducers {
        let repro = Reproducer::read(Path::new(path)).expect("readable reproducer");
        assert!(
            repro.minimized_lines <= 15,
            "reproducer not minimal ({} lines):\n{}",
            repro.minimized_lines,
            repro.minimized_source
        );
        assert_ne!(repro.expected, repro.actual, "reproducer records no diff");
        // The minimized source must keep the bug's trigger.
        assert!(
            repro.minimized_source.contains("if ("),
            "{}",
            repro.minimized_source
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The minimizer's output still reproduces the original mismatch: replay
/// the corpus entry, then re-check the *minimized* program directly
/// against the same oracle.
#[test]
fn minimized_program_still_reproduces_the_mismatch() {
    let dir = corpus_dir("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FuzzConfig {
        seed: 7,
        cases: 30,
        oracles: vec![Oracle::SelfTest],
        corpus_dir: Some(dir.clone()),
        spawn_permille: 0,
        ..FuzzConfig::default()
    };
    let summary = run_fuzz(&cfg);
    assert!(summary.mismatches > 0, "no mismatch to replay");
    let repro = Reproducer::read(Path::new(&summary.reproducers[0])).unwrap();
    // Replay regenerates the original (unminimized) program from
    // (seed, case) and must still diverge under the same oracle.
    let replayed = replay(&repro, &cfg);
    assert!(
        replayed.mismatches.iter().any(|m| m.oracle == repro.oracle),
        "replay of case {} lost the mismatch: {:?}",
        repro.case_index,
        replayed.mismatches
    );
    assert_eq!(
        replayed.source, repro.source,
        "replay drifted from the corpus"
    );
    // And an explicit minimization pass over the regenerated program
    // converges to a program that still fails the oracle.
    let prog = msc_fuzz::generate_case(
        &FuzzConfig {
            seed: repro.seed,
            ..cfg.clone()
        },
        repro.case_index,
    );
    let ocfg = OracleConfig::default();
    let still_fails = |p: &msc_fuzz::Program| {
        run_case(p, &[Oracle::SelfTest], &ocfg)
            .mismatches
            .iter()
            .any(|m| m.oracle == "selftest")
    };
    assert!(still_fails(&prog), "fixture lost its failure");
    let min = minimize(&prog, still_fails, 400);
    assert!(
        still_fails(&min.program),
        "minimizer returned a passing program:\n{}",
        min.program.render()
    );
    assert!(min.program.line_count() <= prog.line_count());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean sweep over the full in-process oracle matrix: no mismatches,
/// and the base/engine/cache bit-identity group holds.
#[test]
fn full_matrix_sweep_is_clean() {
    let cfg = FuzzConfig {
        seed: 20260806,
        cases: 6,
        ..FuzzConfig::default()
    };
    let summary = run_fuzz(&cfg);
    assert_eq!(
        summary.mismatches, 0,
        "oracle matrix diverged: {:?}",
        summary.reproducers
    );
    assert!(summary.ok());
    // Every case ran the full default matrix (minus legitimate skips).
    assert_eq!(
        summary.oracle_runs + summary.skips,
        summary.cases * Oracle::default_set().len() as u64
    );
}
