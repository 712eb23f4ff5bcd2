//! `regex_scan`: 3 patterns × 3 seeded 4 MiB haystacks × {whole-buffer,
//! sharded}. `regex::{matcher, input}` do the work and nothing else runs.
//!
//! `.*` patterns are left out on purpose: `a.*x` over newline-free text
//! is quadratic in today's matcher (ROADMAP item 2) and would not finish
//! inside the run-time cap. One op scans 4 MiB, so MB/s is
//! `ops_per_s × 4.19`.

use crate::gen::{Digest, Haystack};
use crate::harness::{Ledger, Tracer, Workload};
use msc_regex::{Match, Regex};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const NAME: &str = "regex_scan";

const PATTERNS: [&str; 3] = ["a[bc]+x", "[a-c]+z", "(foo|bar|baz)[0-9]+"];
const HAYSTACK_BYTES: usize = 4 << 20;
const SHARD_BYTES: usize = 64 << 10;
/// Prefix the naive backtracker (far slower) is run on as reference.
const NAIVE_BYTES: usize = 4 << 10;

/// Span names per mode and haystack regime.
const SPAN_NAMES: [[&str; 3]; 2] = [
    [
        "regex.find_all.dense",
        "regex.find_all.sparse",
        "regex.find_all.near_miss",
    ],
    [
        "regex.find_sharded.dense",
        "regex.find_sharded.sparse",
        "regex.find_sharded.near_miss",
    ],
];
const MBPS_NAMES: [[&str; 3]; 2] = [
    [
        "regex.find_all.dense_mbps",
        "regex.find_all.sparse_mbps",
        "regex.find_all.near_miss_mbps",
    ],
    [
        "regex.find_sharded.dense_mbps",
        "regex.find_sharded.sparse_mbps",
        "regex.find_sharded.near_miss_mbps",
    ],
];

pub struct RegexScan {
    haystacks: Vec<Vec<u8>>,
    regexes: Vec<Regex>,
    threads: usize,
    /// `naive[h][p]`: reference spans over the haystack's first 4 KiB.
    naive: Vec<Vec<Vec<(usize, usize)>>>,
    /// Outputs of the last pass: op `(h * 3 + p) * 2 + mode`.
    found: Vec<Vec<Match>>,
}

/// Spans that end strictly inside the naive prefix: for those, the
/// leftmost-longest answer cannot depend on bytes past the prefix.
fn inside_prefix(spans: impl Iterator<Item = (usize, usize)>) -> Vec<(usize, usize)> {
    spans.take_while(|&(_, end)| end < NAIVE_BYTES).collect()
}

impl RegexScan {
    fn scan(&self, h: usize, p: usize, sharded: bool) -> Vec<Match> {
        let hay = black_box(self.haystacks[h].as_slice());
        if sharded {
            let shards: Vec<&[u8]> = hay.chunks(SHARD_BYTES).collect();
            self.regexes[p].find_sharded(&shards, self.threads)
        } else {
            self.regexes[p].find_all(hay)
        }
    }

    /// `(haystack, pattern, sharded)` in op order.
    fn op_list() -> impl Iterator<Item = (usize, usize, bool)> {
        (0..3).flat_map(|h| (0..3).flat_map(move |p| [false, true].map(|s| (h, p, s))))
    }
}

impl Workload for RegexScan {
    const NAME: &'static str = NAME;

    fn setup(seed: u64) -> Self {
        let haystacks: Vec<Vec<u8>> = Haystack::ALL
            .iter()
            .map(|h| h.generate(seed, HAYSTACK_BYTES))
            .collect();
        let regexes: Vec<Regex> = PATTERNS
            .iter()
            .map(|p| Regex::new(p).expect("benchmark patterns compile"))
            .collect();
        let naive = haystacks
            .iter()
            .map(|hay| {
                regexes
                    .iter()
                    .map(|re| inside_prefix(re.naive_find_all(&hay[..NAIVE_BYTES]).into_iter()))
                    .collect()
            })
            .collect();
        RegexScan {
            haystacks,
            regexes,
            threads: crate::nproc(),
            naive,
            found: Vec::with_capacity(18),
        }
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for p in PATTERNS {
            d.field(p.as_bytes());
        }
        for h in &self.haystacks {
            d.field(h);
        }
        d.finish()
    }

    fn ops(&self) -> usize {
        18
    }

    fn pass(&mut self, latencies: &mut Vec<u64>) -> Duration {
        let mut found = std::mem::take(&mut self.found);
        found.clear();
        let start = Instant::now();
        for (h, p, sharded) in Self::op_list() {
            let t = Instant::now();
            let matches = self.scan(h, p, sharded);
            latencies.push(t.elapsed().as_nanos() as u64);
            found.push(matches);
        }
        self.found = found;
        start.elapsed()
    }

    fn check(&mut self, doctor: bool) -> usize {
        if doctor {
            // Drop one span from the first whole-buffer scan.
            self.found[0].remove(0);
        }
        let mut failed = 0;
        for (op, (h, p, sharded)) in Self::op_list().enumerate() {
            let ok = if sharded {
                self.found[op] == self.found[op - 1]
            } else {
                inside_prefix(self.found[op].iter().map(|m| (m.start, m.end))) == self.naive[h][p]
            };
            failed += usize::from(!ok);
        }
        failed
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Duration {
        let mut matches = 0usize;
        let start = Instant::now();
        for (op, (h, p, sharded)) in Self::op_list().enumerate() {
            let name = SPAN_NAMES[usize::from(sharded)][h];
            let found = tr.leaf(name, op as u32, || self.scan(h, p, sharded));
            if !sharded {
                matches += found.len();
            }
        }
        let mirrored = start.elapsed();
        // Pattern compilation is microseconds here; replayed so that a
        // change to `regex::meta` has a number on this workload too.
        let states: usize = PATTERNS
            .iter()
            .enumerate()
            .map(|(i, p)| {
                tr.leaf("regex.compile", 18 + i as u32, || Regex::new(black_box(p)))
                    .map_or(0, |re| re.meta_states())
            })
            .sum();

        let mb = (3 * HAYSTACK_BYTES) as f64 / 1e6;
        for mode in 0..2 {
            for h in 0..3 {
                let ms = tr.total_ms(SPAN_NAMES[mode][h]);
                ledger.insert(MBPS_NAMES[mode][h], mb / (ms / 1e3));
            }
        }
        let total = |mode: usize| SPAN_NAMES[mode].iter().map(|n| tr.total_ms(n)).sum::<f64>();
        ledger.insert("regex.sharded_vs_whole", total(0) / total(1));
        ledger.insert("regex.matches", matches as f64);
        ledger.insert("regex.compile_us", tr.total_ms("regex.compile") * 1e3 / 3.0);
        ledger.insert("regex.dfa_states", states as f64);
        mirrored
    }
}
