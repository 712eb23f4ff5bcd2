//! Linearity of the scan as an exact count, not a timing.
//!
//! `regex.bytes_stepped` is every byte the matcher read: the search pass
//! plus every attempt. The defining loop (one attempt per position) reads
//! Θ(n²) bytes on the first input below and Θ(n·run) on the second; the
//! windowed scan must stay within `3·n` on both, whole-buffer and sharded.
//!
//! These tests live in their own binary because the counter is
//! process-wide: any other scan running while the registry is installed
//! would be counted too. `msc_obs::install` serializes the two tests.

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

/// Bytes stepped by one whole-buffer scan and one sharded scan (64 KiB
/// shards, 2 threads), after checking both find `matches` matches.
fn bytes_stepped(pattern: &str, hay: &[u8], matches: usize) -> (u64, u64) {
    let re = Regex::new(pattern).unwrap();
    let shards: Vec<&[u8]> = hay.chunks(64 << 10).collect();
    let count = |scan: &dyn Fn() -> usize| {
        let registry = Arc::new(msc_obs::Registry::new());
        let guard = msc_obs::install(registry.clone());
        assert_eq!(scan(), matches, "{pattern:?}");
        drop(guard);
        registry.snapshot().counter("regex.bytes_stepped")
    };
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
