//! Load generator for the msc-serve daemon.
//!
//! Hammers a daemon over real sockets with a mixed workload (~90%
//! cache-hit compiles from a small source pool, ~10% never-seen-before
//! sources) and reports throughput and latency percentiles, then fires
//! a burst of identical cold requests to verify that coalescing +
//! caching perform **exactly one** compilation for the whole burst.
//! Results go to `BENCH_serve.json` (committed as the baseline, gated
//! in CI by `claims -- serve --check`).
//!
//! ```text
//! cargo run --release -p msc-bench --bin loadgen               # in-process daemon
//! cargo run --release -p msc-bench --bin loadgen -- --addr 127.0.0.1:7643
//! cargo run --release -p msc-bench --bin loadgen -- --smoke --addr HOST:PORT
//! ```
//!
//! `--smoke` is the CI mode: wait for `/healthz`, touch every endpoint
//! once, exit 0/1. No load, no output file.
//!
//! The workload mix, smoke checks, and the measurement itself live in
//! [`msc_bench::loadbench`], shared with the `claims` regression gate;
//! the file goes through the one baseline writer in [`msc_bench::gate`].

use msc_bench::gate::{lookup, write_baseline, SERVE};
use msc_bench::loadbench::{attach, measure_serve, smoke, BASELINE_CLIENTS};
use msc_obs::json::Json;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut clients = BASELINE_CLIENTS;
    let mut duration_ms = 2_000u64;
    let mut smoke_mode = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().expect("--addr needs HOST:PORT").clone()),
            "--clients" => {
                clients = it
                    .next()
                    .expect("--clients N")
                    .parse()
                    .expect("client count")
            }
            "--duration-ms" => {
                duration_ms = it
                    .next()
                    .expect("--duration-ms N")
                    .parse()
                    .expect("duration")
            }
            "--smoke" => smoke_mode = true,
            "--out" => out = it.next().expect("--out FILE").clone(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    let fail = |e: String| -> ! {
        eprintln!("loadgen: {e}");
        std::process::exit(1)
    };

    if smoke_mode {
        let (addr, handle) = attach(addr.as_deref(), clients).unwrap_or_else(|e| fail(e));
        println!("== loadgen --smoke against {addr} ==");
        let ok = smoke(&addr);
        if let Some(h) = handle {
            h.shutdown();
        }
        println!("loadgen: smoke {}", if ok { "OK" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }

    println!("== loadgen ==");
    let body = measure_serve(addr.as_deref(), clients, Duration::from_millis(duration_ms))
        .unwrap_or_else(|e| fail(e));
    // Against its own numbers `SERVE` holds the invariants and the
    // absolute targets; what the committed burst cost is the one thing
    // it takes on trust, so pin that here.
    if lookup(&body, "coalesce_burst.compilations") != Some(&Json::from(1u64)) {
        fail("a burst of identical requests cost more than one compilation".into());
    }
    let by = "cargo run --release -p msc-bench --bin loadgen";
    write_baseline(&out, by, &body, SERVE).unwrap_or_else(|e| fail(e));
}
