//! How the scan ran, as exact counts, not timings.
//!
//! `regex.bytes_stepped` is every byte the matcher read: the search pass
//! plus every attempt. The defining loop (one attempt per position) reads
//! Θ(n²) bytes on the first input below and Θ(n·run) on the second; the
//! windowed scan must stay within `3·n` on both, whole-buffer and sharded.
//! `regex.lockstep_bytes` is the part of it the walk stepped with two
//! lanes or more, and `regex.parallel_scans` counts the scans that started
//! a thread.
//!
//! These tests live in their own binary because the counters are
//! process-wide: any other scan running while the registry is installed
//! would be counted too. `msc_obs::install` serializes the tests.

use msc_regex::Regex;
use std::sync::Arc;

const N: usize = 1 << 20;

/// `n` bytes drawn from `alphabet` by a 64-bit LCG.
fn text(alphabet: &[u8], n: usize) -> Vec<u8> {
    let mut s = 0x243F_6A88_85A3_08D3u64;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            alphabet[((s >> 33) as usize) % alphabet.len()]
        })
        .collect()
}

/// What one scan left on a registry of its own, after checking it found
/// `matches` matches.
fn counters(scan: &dyn Fn() -> usize, matches: usize) -> msc_obs::MetricsSnapshot {
    let registry = Arc::new(msc_obs::Registry::new());
    let guard = msc_obs::install(registry.clone());
    assert_eq!(scan(), matches);
    drop(guard);
    registry.snapshot()
}

/// Bytes stepped by one whole-buffer scan and one sharded scan (64 KiB
/// shards, 2 threads), after checking both find `matches` matches.
fn bytes_stepped(pattern: &str, hay: &[u8], matches: usize) -> (u64, u64) {
    let re = Regex::new(pattern).unwrap();
    let shards: Vec<&[u8]> = hay.chunks(64 << 10).collect();
    let count = |scan: &dyn Fn() -> usize| counters(scan, matches).counter("regex.bytes_stepped");
    (
        count(&|| re.find_all(hay).len()),
        count(&|| re.find_sharded(&shards, 2).len()),
    )
}

#[test]
fn dot_star_over_failing_text_is_one_pass() {
    // Newline-free and x-free: `a.*x` is alive from the first `a` to the
    // end of the input and never accepts.
    let hay = text(b"abc de", N);
    let (whole, sharded) = bytes_stepped("a.*x", &hay, 0);
    // At least n, or the counter is not counting and the bound is vacuous.
    assert!(
        (N as u64..=3 * N as u64).contains(&whole),
        "whole-buffer stepped {whole}"
    );
    // A shard's scan runs on past its end while a thread from inside it
    // is alive — here to the end of the input, so the sharded count is
    // Θ(n · shards); what it must not be is the defining loop's Θ(n²).
    assert!(sharded <= 16 * N as u64, "sharded stepped {sharded}");

    // The whole-buffer scan's four lanes all outlive their ranges here.
    // What they read past them they read side by side with the lanes still
    // running — 2.25·n of the 2.5·n in lockstep (n/4 steps each at 4, 3, 2
    // and 1 lanes) — not one after the other once the rest is done (1·n).
    let re = Regex::new("a.*x").unwrap();
    let ran = counters(&|| re.find_all(&hay).len(), 0);
    let (stepped, lockstep) = (
        ran.counter("regex.bytes_stepped"),
        ran.counter("regex.lockstep_bytes"),
    );
    assert_eq!(stepped, whole);
    assert!(
        lockstep as f64 >= 0.85 * stepped as f64,
        "{lockstep} of {stepped} bytes in lockstep"
    );
    assert!(ran.counter("regex.lane_rounds") > 0);
}

#[test]
fn near_miss_runs_are_one_pass() {
    // Runs of [a-c] a few bytes long, none followed by z: the defining
    // loop re-reads the rest of the run from each of its positions.
    let hay = text(b"aabbcc \n", N);
    let (whole, sharded) = bytes_stepped("[a-c]+z", &hay, 0);
    for stepped in [whole, sharded] {
        assert!(
            (N as u64..=3 * N as u64).contains(&stepped),
            "stepped {whole} whole-buffer, {sharded} sharded"
        );
    }
}

#[test]
fn text_without_start_bytes_is_read_once() {
    // The pure skip loop. A shard's scan must stop at the shard's end
    // when it gets there idle, not skip on through the shards after it.
    let hay = text(b"dexyz 0189\n", N);
    let (whole, sharded) = bytes_stepped("a[bc]+x", &hay, 0);
    assert_eq!((whole, sharded), (N as u64, N as u64));
}

#[test]
fn threads_are_started_for_bytes_not_for_shards() {
    let hay = text(b"aabbcc \n", N);
    let re = Regex::new("[a-c]+z").unwrap();
    let scans = |shards: &[&[u8]], threads: usize| {
        counters(&|| re.find_sharded(shards, threads).len(), 0).counter("regex.parallel_scans")
    };
    // `mscc match` cuts a small file into `threads × 4` shards.
    let tiny: Vec<&[u8]> = hay[..128].chunks(4).collect();
    assert_eq!(scans(&tiny, 8), 0);
    let eight: Vec<&[u8]> = hay[..8 * (64 << 10)].chunks(64 << 10).collect();
    assert_eq!(scans(&eight, 8), 1);
    assert_eq!(scans(&eight[..4], 8), 0, "one group to claim");
    let all: Vec<&[u8]> = hay.chunks(64 << 10).collect();
    assert_eq!(scans(&all, 2), 1);
    assert_eq!(scans(&all, 1), 0);
}
