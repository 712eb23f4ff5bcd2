//! Seeded input generators, private to the benchmark.
//!
//! These are copies of the few `msc_bench::workloads` generators the
//! benchmark needs, so an edit over there cannot silently change what is
//! measured here; the pinned digests in this module's tests are the
//! tripwire. The seed picks literals, jitter inside fixed strata,
//! haystack bytes and orderings — never the *shape mix*, so the work per
//! pass stays within about a percent from seed to seed and runs on
//! different seeds remain comparable.

use msc_core::{MetaAutomaton, MetaId, StateSet};
use msc_ir::{Addr, BinOp, MimdGraph, MimdState, Op, StateId, Terminator};
use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated from its siblings by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// SipHash-2-4 with a zero key: the `input_digest` of a workload.
#[derive(Debug, Clone)]
pub struct Digest {
    v: [u64; 4],
    tail: u64,
    ntail: usize,
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }
}

impl Digest {
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }

    fn word(&mut self, m: u64) {
        self.v[3] ^= m;
        Self::round(&mut self.v);
        Self::round(&mut self.v);
        self.v[0] ^= m;
    }

    pub fn bytes(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        for &b in data {
            self.tail |= (b as u64) << (8 * self.ntail);
            self.ntail += 1;
            if self.ntail == 8 {
                let m = self.tail;
                self.word(m);
                self.tail = 0;
                self.ntail = 0;
            }
        }
    }

    /// A length-prefixed field, so `("ab","c")` and `("a","bc")` differ.
    pub fn field(&mut self, data: &[u8]) {
        self.bytes(&(data.len() as u64).to_le_bytes());
        self.bytes(data);
    }

    pub fn finish(mut self) -> u64 {
        let m = self.tail | (self.len << 56);
        self.word(m);
        self.v[2] ^= 0xff;
        for _ in 0..4 {
            Self::round(&mut self.v);
        }
        self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3]
    }
}

/// Every PE classifies itself into one of `n_paths` work kinds and runs a
/// different loop (divergence breadth). `salt` changes the multiplier
/// literals only: values differ, control flow does not.
pub fn branchy_source(n_paths: usize, salt: u64) -> String {
    let mut body = String::new();
    let _ = writeln!(body, "        kind = pe_id() % {n_paths};");
    for k in 0..n_paths {
        let indent = "        ";
        if k + 1 < n_paths {
            let _ = writeln!(body, "{indent}if (kind == {k}) {{");
        } else {
            let _ = writeln!(body, "{indent}{{");
        }
        let _ = writeln!(
            body,
            "{indent}    for (i = 0; i < pe_id() % 4 + {trip}; i += 1) {{ acc += i * {mul}; }}",
            trip = k + 1,
            mul = k as u64 + 3 + salt
        );
        if k + 1 < n_paths {
            let _ = writeln!(body, "{indent}}} else");
        } else {
            let _ = writeln!(body, "{indent}}}");
        }
    }
    format!("main() {{\n    poly int kind, i, acc = 0;\n{body}    return(acc);\n}}\n")
}

/// A two-way branch whose arms cost about `short_ops` and `long_ops`
/// single-cycle operations (the §2.4 straggler case).
pub fn imbalanced_source(short_ops: usize, long_ops: usize, salt: u64) -> String {
    let arm = |n: usize| {
        let mut s = String::new();
        for i in 0..n {
            let _ = write!(s, "acc = acc + {}; ", (i as u64 + salt) % 7);
        }
        s
    };
    format!(
        "main() {{\n    poly int acc = 0;\n    if (pe_id() == 0) {{ {long} }}\n    else {{ {short} }}\n    return(acc);\n}}\n",
        short = arm(short_ops),
        long = arm(long_ops),
    )
}

/// `n_phases` barrier-separated phases of divergent work (§2.6).
pub fn barrier_phases_source(n_phases: usize, salt: u64) -> String {
    let mut body = String::new();
    for p in 0..n_phases {
        let _ = writeln!(
            body,
            "    for (i = 0; i < pe_id() % 3 + 1; i += 1) {{ acc += {}; }}\n    wait;",
            p as u64 + 1 + salt
        );
    }
    format!("main() {{\n    poly int i, acc = 0;\n{body}    return(acc);\n}}\n")
}

/// The four request shapes a compile daemon's callers send (the
/// `loadgen` hit pool), with one salted literal each.
pub fn one_liner_source(template: usize, salt: u64) -> String {
    let a = salt + 1;
    match template % 4 {
        0 => format!("main() {{ poly int x; x = pe_id() * 2 + {a}; return(x); }}"),
        1 => format!(
            "main() {{ poly int x, acc = {a}; x = pe_id() % 4; \
             while (x > 0) {{ acc += x; x -= 1; }} return(acc); }}"
        ),
        2 => format!(
            "main() {{ poly int v; v = {a}; if (pe_id() % 2) {{ v = v + 1; }} \
             else {{ v = v + 2; }} return(v); }}"
        ),
        _ => format!(
            "main() {{ mono int total = {a}; poly int x; x = pe_id(); \
             total += x; return(x + total); }}"
        ),
    }
}

/// The 64-source corpus `compile_cold` builds and `sim_run` executes.
///
/// Fixed strata, seeded contents: 25 `branchy` (five each of 2..=6 paths,
/// which carry most of the compile time), 20 `imbalanced(5, L)` with one
/// `L` drawn from each width-19 stratum of 20..=399, 10 `barrier_phases`
/// (1..=5 phases twice), 8 one-liners, and `examples/dispatch_heavy.mimdc`
/// verbatim; then a seeded shuffle.
pub fn corpus(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed, 1);
    let mut out = Vec::with_capacity(64);
    for n in 2..=6 {
        for copy in 0..5 {
            out.push(branchy_source(n, 1 + copy * 16 + rng.below(16)));
        }
    }
    for stratum in 0..20 {
        let long = 20 + 19 * stratum + rng.below(19) as usize;
        out.push(imbalanced_source(5, long, rng.below(7)));
    }
    for copy in 0..2 {
        for phases in 1..=5 {
            out.push(barrier_phases_source(phases, copy * 64 + rng.below(64)));
        }
    }
    for i in 0..8 {
        out.push(one_liner_source(i, (i as u64 / 4) * 1000 + rng.below(1000)));
    }
    out.push(branchy_source(3, 0));
    debug_assert_eq!(out.len(), 64);
    rng.shuffle(&mut out);
    out
}

/// `n` independent self-loops behind a binary fan-out tree: `n`
/// concurrently live loop states, the base conversion's 3ⁿ frontier.
pub fn fan_out_loops_graph(n: usize) -> MimdGraph {
    let mut g = MimdGraph::new();
    let end = g.add(MimdState::new(vec![], Terminator::Halt));
    let loops: Vec<StateId> = (0..n)
        .map(|i| {
            g.add(MimdState::new(
                vec![
                    Op::Ld(Addr::poly(0)),
                    Op::Push(i as i64),
                    Op::Bin(BinOp::Gt),
                ],
                Terminator::Halt,
            ))
        })
        .collect();
    for &l in &loops {
        g.state_mut(l).term = Terminator::Branch { t: l, f: end };
    }
    let mut frontier = loops;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for pair in frontier.chunks(2) {
            if pair.len() == 2 {
                next.push(g.add(MimdState::new(
                    vec![Op::Ld(Addr::poly(0))],
                    Terminator::Branch {
                        t: pair[0],
                        f: pair[1],
                    },
                )));
            } else {
                next.push(pair[0]);
            }
        }
        frontier = next;
    }
    g.start = frontier[0];
    g
}

/// `n` subset/superset pairs ({3i, 3i+1} ⊂ {3i, 3i+1, 3i+2}) chained by
/// successor arcs: every pair folds exactly once under subsumption.
pub fn subset_chain_automaton(n: usize) -> MetaAutomaton {
    let mut graph = MimdGraph::new();
    for _ in 0..3 * n {
        graph.add(MimdState::new(vec![], Terminator::Halt));
    }
    graph.start = StateId(0);
    let mut sets = Vec::with_capacity(2 * n);
    for i in 0..n as u32 {
        sets.push(StateSet::from_iter([StateId(3 * i), StateId(3 * i + 1)]));
        sets.push(StateSet::from_iter([
            StateId(3 * i),
            StateId(3 * i + 1),
            StateId(3 * i + 2),
        ]));
    }
    let last = sets.len() - 1;
    let succs = (0..sets.len())
        .map(|i| {
            if i == last {
                vec![]
            } else {
                vec![MetaId(i as u32 + 1)]
            }
        })
        .collect();
    MetaAutomaton {
        graph,
        sets,
        start: MetaId(0),
        succs,
    }
}

/// Which statistical regime of the matcher a haystack drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Haystack {
    /// Pseudo-text full of matches (~10⁵ per 4 MiB for `a[bc]+x`).
    Dense,
    /// No byte that can start any benchmark pattern: the pure skip loop.
    Sparse,
    /// Every attempt runs a few bytes and fails: restart-per-position.
    NearMiss,
}

impl Haystack {
    pub const ALL: [Haystack; 3] = [Haystack::Dense, Haystack::Sparse, Haystack::NearMiss];

    fn alphabet(self) -> &'static [u8] {
        match self {
            Haystack::Dense => b"abcxy abcz\n",
            Haystack::Sparse => b"dexyz 0189\n",
            Haystack::NearMiss => b"aabbcc \n",
        }
    }

    /// `len` bytes drawn from the regime's alphabet by a 64-bit LCG.
    pub fn generate(self, seed: u64, len: usize) -> Vec<u8> {
        let alphabet = self.alphabet();
        let mut s = SplitMix64::new(seed, 0x4859 + self as u64).next_u64();
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                alphabet[((s >> 33) as usize) % alphabet.len()]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siphash_matches_the_reference_vector() {
        // SipHash-2-4 paper, appendix A: key 00..0f, input 00..0e.
        let (k0, k1) = (0x0706_0504_0302_0100u64, 0x0f0e_0d0c_0b0a_0908u64);
        let mut d = Digest::default();
        for (v, k) in d.v.iter_mut().zip([k0, k1, k0, k1]) {
            *v ^= k;
        }
        let input: Vec<u8> = (0..15).collect();
        d.bytes(&input[..4]);
        d.bytes(&input[4..]);
        assert_eq!(d.finish(), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn dispatch_heavy_is_the_committed_example_verbatim() {
        assert_eq!(
            branchy_source(3, 0),
            include_str!("../../examples/dispatch_heavy.mimdc")
        );
    }

    #[test]
    fn corpus_is_64_distinct_sources_that_compile() {
        for seed in [1, 2] {
            let c = corpus(seed);
            assert_eq!(c.len(), 64);
            let mut sorted = c.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 64, "sources must be pairwise distinct");
            for src in &c {
                msc_lang::compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            }
        }
    }

    #[test]
    fn sparse_haystack_cannot_start_any_pattern() {
        let hay = Haystack::Sparse.generate(1, 1 << 12);
        assert!(hay.iter().all(|b| !b"abcf".contains(b)));
    }

    #[test]
    fn explosion_graphs_have_the_documented_sizes() {
        let mut opts = msc_core::ConvertOptions::base();
        opts.memory_budget = None;
        let a = msc_core::convert(&fan_out_loops_graph(10), &opts).unwrap();
        assert_eq!(a.len(), 2183);
    }
}
