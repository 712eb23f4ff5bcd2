//! Measure and gate the committed `BENCH_*.json` baselines, one row of
//! [`msc_bench::gate::BENCHES`] each.
//!
//! ```text
//! cargo run --release -p msc-bench --bin claims -- claims           # C1–C10, A1–A4, S1
//! cargo run --release -p msc-bench --bin claims -- claims --check   # gate them
//! cargo run --release -p msc-bench --bin claims -- --check          # all three
//! ```
//!
//! A name (`claims`, `regex`, `explosion`; every one when none is given)
//! measures and writes `BENCH_<name>.json` in the current directory; with
//! `--check` it re-measures and gates against that file instead, exiting
//! nonzero on any regression.

use msc_bench::gate::{recheck, regenerate, BENCHES};

fn main() {
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    let check = which.iter().any(|w| w == "--check");
    which.retain(|w| w != "--check");
    if which.is_empty() {
        which = BENCHES.iter().map(|b| b.name.to_string()).collect();
    }
    let mut ok = true;
    for w in &which {
        let run = match BENCHES.iter().find(|b| b.name == w) {
            Some(b) if check => recheck(b),
            Some(b) => regenerate(b),
            None => Err(format!(
                "no such bench (have: {})",
                BENCHES.each_ref().map(|b| b.name).join(", ")
            )),
        };
        if let Err(e) = run {
            eprintln!("\n{w}: {e}");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
