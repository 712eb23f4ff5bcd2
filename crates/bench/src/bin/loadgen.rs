//! Endpoint smoke for the msc-serve daemon: wait for `/healthz`, touch
//! every endpoint once over real sockets, exit 0/1. No load, no output
//! file — how fast the daemon answers is measured by `perf`'s
//! `serve_mixed` workload, and the coalescing invariant by
//! `tests/serve_end_to_end.rs`.
//!
//! ```text
//! cargo run --release -p msc-bench --bin loadgen -- --smoke                  # in-process daemon
//! cargo run --release -p msc-bench --bin loadgen -- --smoke --addr HOST:PORT
//! ```
//!
//! The checks themselves live in [`msc_bench::loadbench`].

use msc_bench::loadbench::{attach, smoke};

fn main() {
    let mut addr: Option<String> = None;
    let mut smoke_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = Some(args.next().expect("--addr needs HOST:PORT")),
            "--smoke" => smoke_mode = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    let fail = |e: String| -> ! {
        eprintln!("loadgen: {e}");
        std::process::exit(1)
    };
    if !smoke_mode {
        fail("usage: loadgen --smoke [--addr HOST:PORT]".into());
    }
    let (addr, handle) = attach(addr.as_deref()).unwrap_or_else(|e| fail(e));
    println!("== loadgen --smoke against {addr} ==");
    let ok = smoke(&addr);
    if let Some(h) = handle {
        h.shutdown();
    }
    println!("loadgen: smoke {}", if ok { "OK" } else { "FAILED" });
    std::process::exit(if ok { 0 } else { 1 });
}
