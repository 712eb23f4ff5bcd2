//! Cross-commit pin of what the scan returns. `stitching.rs` and the
//! `matcher` unit tests hold every configuration of one commit to the
//! naive engine on inputs of a few dozen bytes; this holds megabyte scans
//! to the commit *before* the scan learned to run its speculative ranges
//! as lockstep lanes: per pattern × haystack one match count and one
//! [`msc_engine::content_key`] of the match list, which every way of
//! running the scan must reproduce — whole-buffer; even shards at 1, 2,
//! 3 and 8 threads; 1 000-byte shards with every seventh shard empty at
//! 2 threads; and whole-buffer, even and ragged shards again under a cap
//! the anchored table fills exactly, so the compile has no search table.
//!
//! Spans only: `regex.bytes_stepped` is not pinned here (a lane reads a
//! little past its range end by design; `linearity.rs` holds the bounds).

use msc_engine::content_key;
use msc_regex::{Match, Regex};

/// (alphabet, bytes, even shard size): the three `perf` alphabets (dense,
/// sparse, near-miss) at 1 MiB, then newline-free text on which `a.*x`
/// never dies. That last one is short because `a.*x|b` is Θ(n²) on it at
/// every commit — each `b` is found by attempts from the `a` that opened
/// the line, and the attempt at that `a` reads to the end of the input —
/// but still long enough that the whole-buffer scan cuts it into lanes,
/// and is scanned for that pattern alone: every other pattern reads it as
/// the dense alphabet minus its matches.
const HAYSTACKS: [(&[u8], usize, usize); 4] = [
    (b"abcxy abcz\n", 1 << 20, 64 << 10),
    (b"dexyz 0189\n", 1 << 20, 64 << 10),
    (b"aabbcc \n", 1 << 20, 64 << 10),
    (b"abc de", 32 << 10, 4 << 10),
];
const NEWLINE_FREE_PATTERN: &str = "a.*x|b";

const PATTERNS: [&str; 9] = [
    "a[bc]+x",
    "[a-c]+z",
    "(foo|bar|baz)[0-9]+",
    "a.*x|b",
    "ab+c|b",
    "^[a-c]+",
    "[a-c]+$",
    "(^a|b)+$",
    "a*b",
];

/// `GOLDEN[haystack][pattern]` = (matches, digest of the match list),
/// captured at commit 4d365ee (PR 21), before PR 22 touched `matcher` or
/// `meta`. The count is there so that a digest mismatch says which way.
#[rustfmt::skip]
const GOLDEN: [&[(usize, &str)]; 4] = [
    &[
        (9965, "79d37a4f025a431e2292d5e01363977a"),
        (52005, "037aef2cc1972c1f9f6534c4af6f0e61"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (159140, "678d5e05b27a80ebed4f10cdd3e3b43c"),
        (189595, "801118d9cee74c21fe2ae2adae1394ca"),
        (1, "8492ba3bfd0feb107b6bb65249797df3"),
        (1, "da296038ddff8a9ab4eee2c738defe3d"),
        (1, "432222d18e91a3293c0d5c83ff5d2612"),
        (191271, "d515783d7043f67343c0a53d66cef0b4"),
    ],
    &[
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
    ],
    &[
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (261935, "12ddbb7dd304a5c22c670a51f560a7c0"),
        (254591, "c17a69116531eab69ebdc7bb8c5d0fd6"),
        (1, "5f8ce0d1c0e4124fd8562683b8356c16"),
        (1, "432222d18e91a3293c0d5c83ff5d2612"),
        (0, "b28803561cbf47310a169e85bc9fc120"),
        (261935, "d3d3a741b4e94396bd8754fa25cad36b"),
    ],
    &[
        (5392, "bd1d559ef535e3d2d57553c1ae2a4fbd"),
    ],
];

/// `n` bytes drawn from `alphabet` by the 64-bit LCG of `linearity.rs`.
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

fn digest(matches: &[Match]) -> (usize, String) {
    let bytes: Vec<u8> = matches
        .iter()
        .flat_map(|m| [m.start as u64, m.end as u64])
        .flat_map(u64::to_le_bytes)
        .collect();
    (matches.len(), content_key("scan_golden", &[&bytes]).hex())
}

/// Every way of running `re` over `hay` (even shards at each of
/// `threads`), each asserted equal to the whole-buffer scan, whose digest
/// is returned.
fn scan_every_way(
    re: &Regex,
    hay: &[u8],
    shard_bytes: usize,
    threads: &[usize],
    what: &str,
) -> (usize, String) {
    let whole = re.find_all(hay);
    let even: Vec<&[u8]> = hay.chunks(shard_bytes).collect();
    for &threads in threads {
        assert!(
            re.find_sharded(&even, threads) == whole,
            "{what}: {shard_bytes}-byte shards at {threads} threads differ from find_all"
        );
    }
    let mut ragged: Vec<&[u8]> = Vec::new();
    for chunk in hay.chunks(1000) {
        if ragged.len() % 7 == 6 {
            ragged.push(&[]);
        }
        ragged.push(chunk);
    }
    assert!(
        re.find_sharded(&ragged, 2) == whole,
        "{what}: 1 000-byte shards with empty ones differ from find_all"
    );
    digest(&whole)
}

/// One haystack against every pattern scanned on it (a test each, so the
/// four run side by side).
fn haystack_reproduces_the_parents_spans(col: usize) {
    let (alphabet, bytes, shard_bytes) = HAYSTACKS[col];
    let hay = text(alphabet, bytes);
    let patterns: &[&str] = if alphabet.contains(&b'\n') {
        &PATTERNS
    } else {
        &[NEWLINE_FREE_PATTERN]
    };
    let mut actual = Vec::new();
    for pat in patterns {
        let full = Regex::new(pat).unwrap();
        let bare = Regex::with_limit(pat, full.meta_states()).unwrap();
        let what = format!("{pat:?} over {:?}", String::from_utf8_lossy(alphabet));
        let full_what = format!("{what}, search table");
        let got = scan_every_way(&full, &hay, shard_bytes, &[1, 2, 3, 8], &full_what);
        let bare_what = format!("{what}, no search table");
        let bare_got = scan_every_way(&bare, &hay, shard_bytes, &[2], &bare_what);
        assert_eq!(bare_got, got, "{bare_what} vs search table");
        actual.push(got);
    }
    let actual: Vec<(usize, &str)> = actual.iter().map(|(n, d)| (*n, d.as_str())).collect();
    assert_eq!(actual, GOLDEN[col], "spans moved on {patterns:?}");
}

#[test]
fn dense_haystack() {
    haystack_reproduces_the_parents_spans(0);
}

#[test]
fn sparse_haystack() {
    haystack_reproduces_the_parents_spans(1);
}

#[test]
fn near_miss_haystack() {
    haystack_reproduces_the_parents_spans(2);
}

#[test]
fn newline_free_haystack() {
    haystack_reproduces_the_parents_spans(3);
}
