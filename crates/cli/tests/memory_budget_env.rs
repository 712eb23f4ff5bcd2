//! `mscc` refuses an `MSC_MEMORY_BUDGET` that is not a byte count, as it
//! refuses `--memory-budget banana`, instead of converting with no budget.
//! The variable is read once per process, so every case is a child
//! process with its own value.

use std::process::{Command, Output};

/// `mscc ARGS` from the repository root under `MSC_MEMORY_BUDGET=budget`.
fn mscc(budget: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mscc"))
        .args(args)
        .env("MSC_MEMORY_BUDGET", budget)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("mscc starts")
}

const BUILD: &[&str] = &["build", "examples/dispatch_heavy.mimdc", "--metrics"];
/// A build whose own flag sets the budget: the variable is refused anyway.
const FLAGGED: &[&str] = &[
    "build",
    "examples/dispatch_heavy.mimdc",
    "--memory-budget",
    "1",
];

#[test]
fn a_memory_budget_variable_that_is_no_byte_count_is_refused() {
    for bad in ["16kk", "banana", "1kgb", ""] {
        for args in [BUILD, FLAGGED] {
            let out = mscc(bad, args);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{bad:?} {args:?}: {err}");
            assert!(out.stdout.is_empty(), "{bad:?} {args:?} printed output");
            assert_eq!(
                err,
                format!("mscc: bad MSC_MEMORY_BUDGET `{bad}` (try 64m, 2g, 65536)\n")
            );
        }
    }
}

#[test]
fn a_memory_budget_variable_that_is_a_byte_count_is_the_budget() {
    let out = mscc("1", BUILD);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = String::from_utf8_lossy(&out.stdout);
    assert!(metrics.contains("convert.spill_bytes"), "{metrics}");
    let out = mscc("64M", BUILD);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("convert.spill_bytes"));
}
