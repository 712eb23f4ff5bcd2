//! DFA execution: sequential scan and data-parallel sharded scan.
//!
//! Semantics (shared with the naive reference engine): non-overlapping
//! **leftmost-longest** matches, and **empty matches are never reported**.
//! The *defining* loop is: at position `p` run one attempt — the longest
//! `e > p` such that `input[p..e]` is accepted by the anchored table,
//! honoring anchors against the whole input — record `(p, e)` and resume
//! at `e`, or advance to `p + 1` when the attempt fails. Run literally,
//! that restarts the automaton at every failing byte (O(n·m)).
//!
//! **Window.** The scan instead runs the *search* table (`meta`: every
//! earlier start position's threads in one state) forward from `p`,
//! remembering `lo`, the last position where it was *idle*. If the input
//! runs out before any state accepts, no attempt from `p` on can succeed:
//! one pass, zero attempts. At the first accept, at `q`, every thread
//! started before `lo` has died without accepting and some thread started
//! in `[lo, q)` accepts, so the defining loop's next success lies in that
//! window: attempts run from `lo` upward until one succeeds, and the scan
//! resumes at its end. Attempts are only ever made where the defining
//! loop makes them and every one it would win is made, so matches *and*
//! exit position are the defining loop's, and the work is never above
//! its work. (The earliest-ending match need not be the leftmost —
//! `ab+c|b` on `abbc` accepts first at 2 yet matches `(0, 4)` — which is
//! why the window is re-attempted rather than the accept reported.) A
//! pattern whose search table did not fit the state cap has the window
//! `[p, until)`: the same loop, degenerating to the defining one.
//!
//! **Slices.** Both tables are walked over `&[u8]` slices, one per shard
//! (`ShardedInput::slices_from`); the shard is resolved once per scan
//! and only advances. Once idle for `IDLE_RUN` bytes, a 256-entry
//! start-byte table skips bytes no match can start on without touching
//! the transition table.
//!
//! **Threads.** The parallel scan is the SFA trick made exact. An attempt
//! depends only on its start position and the input, never on scan
//! history, so each shard can be scanned *speculatively* in parallel from
//! its own start offset (reading past its end for boundary-spanning
//! matches). A sequential stitch pass then walks the true attempt
//! positions: the moment the true position lands on an attempt position
//! the speculative scan also visited, the rest of that shard's
//! speculative matches are spliced in verbatim. Only positions shadowed
//! by a match that spans into the shard are re-attempted (at most one
//! live attempt per boundary), so the result is **bit-identical** to the
//! sequential scan at every thread count, by construction rather than by
//! tolerance. (SFA proper — composing per-shard state→state mappings —
//! was weighed and not adopted: DESIGN.md §13.)

use crate::input::ShardedInput;
use crate::meta::MetaDfa;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One match as an absolute half-open span over the shard concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Absolute start offset.
    pub start: usize,
    /// Absolute end offset (exclusive); always `> start`.
    pub end: usize,
}

/// Idle bytes [`Scan::window`] steps through the search table before it
/// switches to the start-byte skip loop. Entering and leaving that loop
/// costs about two branch mispredictions — some eight table steps — so it
/// pays only on idle stretches longer than that. On text dense in start
/// bytes the idle state is therefore stepped like any other state, with no
/// data-dependent branch (2× on the benchmark's near-miss haystack); on
/// text without start bytes the scan is in the skip loop all but never.
const IDLE_RUN: u32 = 8;

/// One forward walk over the input: the automaton, the input, and the
/// two things that only ever grow along the way.
struct Scan<'a> {
    dfa: &'a MetaDfa,
    input: &'a ShardedInput<'a>,
    total: usize,
    /// Shard holding the last position a walk started from.
    shard: usize,
    /// Bytes read so far, reported once as `regex.bytes_stepped`.
    stepped: usize,
}

impl<'a> Scan<'a> {
    /// A walk whose first position lies in shard `shard` or later.
    fn new(dfa: &'a MetaDfa, input: &'a ShardedInput<'a>, shard: usize) -> Self {
        Scan {
            dfa,
            input,
            total: input.total_len(),
            shard,
            stepped: 0,
        }
    }

    /// Run one attempt at absolute position `p`: longest accepting end
    /// `e > p`, or `None`.
    fn attempt(&mut self, p: usize) -> Option<usize> {
        let dfa = self.dfa;
        let table = &dfa.anchored;
        let mut state = if p == 0 { dfa.start_bof } else { dfa.start_mid };
        let mut best = None;
        let mut q = p;
        'walk: for piece in self.input.slices_from(&mut self.shard, p) {
            for &b in piece {
                state = table.trans[state as usize + dfa.classes[b as usize] as usize];
                if state == 0 {
                    self.stepped += 1;
                    break 'walk;
                }
                q += 1;
                if table.accepts(state, dfa.shift, q == self.total) {
                    best = Some(q);
                }
            }
        }
        self.stepped += q - p;
        best
    }

    /// Where the attempts for the next match at or after `p` begin: no
    /// attempt in `[p, until)` before the returned position can succeed,
    /// and none at all when it is `until` or later.
    fn window(&mut self, p: usize, until: usize) -> usize {
        let dfa = self.dfa;
        let Some(table) = &dfa.search else {
            return p;
        };
        let mut state = 0u32;
        let mut lo = p;
        let mut idle_run = IDLE_RUN;
        // Absolute position of `piece[0]`.
        let mut base = p;
        for piece in self.input.slices_from(&mut self.shard, p) {
            let mut k = 0;
            while k < piece.len() {
                if idle_run >= IDLE_RUN {
                    let skip = piece[k..].iter().position(|&b| dfa.can_start[b as usize]);
                    k = skip.map_or(piece.len(), |n| k + n);
                    lo = base + k;
                }
                if lo >= until || k == piece.len() {
                    break;
                }
                state = table.trans[state as usize + dfa.classes[piece[k] as usize] as usize];
                k += 1;
                let idle = state == 0;
                lo = if idle { base + k } else { lo };
                idle_run = if idle { idle_run + 1 } else { 0 };
                if table.accepts(state, dfa.shift, base + k == self.total) {
                    self.stepped += base + k - p;
                    return lo;
                }
            }
            base += k;
            if lo >= until {
                break;
            }
        }
        self.stepped += base - p;
        until
    }

    /// Scan attempt positions in `[from, until)`, reading input up to the
    /// total length as matches demand. Returns the matches found plus the
    /// *exit position*: the first attempt position `>= until` (greater
    /// than `until` exactly when the final match spans past it).
    fn range(&mut self, from: usize, until: usize) -> (Vec<Match>, usize) {
        let mut out = Vec::new();
        let mut p = from;
        if p == 0 && until > 0 && self.dfa.start_bof != self.dfa.start_mid {
            // `^` makes position 0 an automaton of its own, which the
            // search table (seeded mid-input) does not carry.
            p = match self.attempt(0) {
                Some(end) => {
                    out.push(Match { start: 0, end });
                    end
                }
                None => 1,
            };
        }
        while p < until {
            let lo = self.window(p, until);
            p = until;
            for start in lo..until {
                if let Some(end) = self.attempt(start) {
                    out.push(Match { start, end });
                    p = end;
                    break;
                }
            }
        }
        (out, p)
    }

    /// Report the bytes this walk read.
    fn finish(self) {
        msc_obs::count("regex.bytes_stepped", self.stepped as u64);
    }
}

/// [`Scan::range`] as one walk of its own, starting in shard `shard`.
fn scan_range(
    dfa: &MetaDfa,
    input: &ShardedInput<'_>,
    shard: usize,
    from: usize,
    until: usize,
) -> (Vec<Match>, usize) {
    let mut scan = Scan::new(dfa, input, shard);
    let found = scan.range(from, until);
    scan.finish();
    found
}

/// Sequential reference scan over the whole input.
pub fn find_all(dfa: &MetaDfa, input: &ShardedInput<'_>) -> Vec<Match> {
    scan_range(dfa, input, 0, 0, input.total_len()).0
}

/// Data-parallel scan: speculative per-shard scans on up to `threads`
/// worker threads, then a sequential stitch. Output is identical to
/// [`find_all`] for every `threads` value.
pub fn find_sharded(dfa: &MetaDfa, input: &ShardedInput<'_>, threads: usize) -> Vec<Match> {
    let n = input.shard_count();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return find_all(dfa, input);
    }
    msc_obs::count("regex.parallel_scans", 1);

    // Phase 1: speculative scans. Workers claim shard indices from one
    // counter, so a shard dense with matches holds up one worker while the
    // others drain the rest. The counter publishes nothing (results travel
    // through the scope join), hence Relaxed.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut scanned = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return scanned;
            }
            let (s, e) = input.shard_bounds(i);
            scanned.push((i, scan_range(dfa, input, i, s, e)));
        }
    };
    let mut scanned = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut scanned = claim();
        for worker in workers {
            scanned.extend(worker.join().expect("a shard scan panicked"));
        }
        scanned
    });
    scanned.sort_unstable_by_key(|&(i, _)| i);

    // Phase 2: stitch. `t` is the true attempt position.
    let mut scan = Scan::new(dfa, input, 0);
    let mut out = Vec::new();
    let mut t = 0usize;
    for (i, (matches, exit)) in scanned {
        let (s_i, e_i) = input.shard_bounds(i);
        while t < e_i {
            // `t` is an attempt position of the defining loop run from
            // s_i — whose matches the speculative scan returned — iff it
            // is not strictly inside one of those matches (that loop
            // attempts at s_i, every match end, and every failed position
            // in between).
            let k = matches.partition_point(|m| m.start <= t);
            let inside_spec = k > 0 && matches[k - 1].end > t && matches[k - 1].start < t;
            if t >= s_i && !inside_spec {
                out.extend_from_slice(&matches[matches.partition_point(|m| m.start < t)..]);
                t = exit;
                break;
            }
            // A match spanning into this shard shadowed the speculative
            // attempt positions; re-run true attempts until we re-sync.
            msc_obs::count("regex.stitch_rescans", 1);
            match scan.attempt(t) {
                Some(e) => {
                    out.push(Match { start: t, end: e });
                    t = e;
                }
                None => t += 1,
            }
        }
    }
    scan.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{compile, compile_with_limit};
    use crate::nfa::build;
    use crate::parser::parse;

    /// Spans of `pat` over the concatenation of `shards`, after checking
    /// that every configuration agrees: with the search table and with it
    /// suppressed by a cap the anchored table fills exactly, whole-buffer
    /// and sharded at 1/2/3/8 threads, all equal to the naive engine.
    fn spans(pat: &str, shards: &[&[u8]]) -> Vec<(usize, usize)> {
        let ast = parse(pat).unwrap();
        let nfa = build(&ast).unwrap();
        let full = compile(&nfa).unwrap();
        let bare = compile_with_limit(&nfa, full.len()).unwrap();
        assert!(full.search.is_some(), "{pat:?} fits the default cap");
        // (A pattern that cannot start mid-input re-seeds nothing, and its
        // one-state search table fits even a cap with no room left.)
        assert!(bare.search.is_none() || bare.start_mid == 0, "{pat:?}");
        let naive = crate::naive::find_all(&ast, &shards.concat());
        let inp = ShardedInput::new(shards);
        for (d, table) in [(&full, "search table"), (&bare, "no search table")] {
            let seq = find_all(d, &inp);
            let got: Vec<(usize, usize)> = seq.iter().map(|m| (m.start, m.end)).collect();
            assert_eq!(got, naive, "{pat:?} with {table} vs naive");
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    find_sharded(d, &inp, threads),
                    seq,
                    "{pat:?} with {table}: threads={threads} must be bit-identical"
                );
            }
        }
        naive
    }

    #[test]
    fn simple_literals() {
        assert_eq!(spans("ab", &[b"xabyab"]), vec![(1, 3), (4, 6)]);
        assert_eq!(spans("ab", &[b"ab"]), vec![(0, 2)]);
        assert_eq!(spans("ab", &[b"ba"]), vec![]);
    }

    #[test]
    fn greedy_longest() {
        assert_eq!(spans("a+", &[b"aaabaa"]), vec![(0, 3), (4, 6)]);
        assert_eq!(spans("a|ab", &[b"ab"]), vec![(0, 2)]);
    }

    #[test]
    fn empty_matches_are_skipped() {
        assert_eq!(spans("a*", &[b"bab"]), vec![(1, 2)]);
        assert_eq!(spans("x?", &[b"yy"]), vec![]);
    }

    #[test]
    fn anchors() {
        assert_eq!(spans("^a", &[b"aba"]), vec![(0, 1)]);
        assert_eq!(spans("a$", &[b"aba"]), vec![(2, 3)]);
        assert_eq!(spans("^a+$", &[b"aaa"]), vec![(0, 3)]);
        assert_eq!(spans("^a+$", &[b"aab"]), vec![]);
    }

    #[test]
    fn matches_span_shard_boundaries() {
        // "abab" split as "ab|ab": match (0,2) is inside shard 0, match
        // (2,4) starts exactly at the boundary.
        assert_eq!(spans("ab", &[b"ab", b"ab"]), vec![(0, 2), (2, 4)]);
        // "xaby" split mid-match.
        assert_eq!(spans("ab", &[b"xa", b"by"]), vec![(1, 3)]);
        // One match covering three shards.
        assert_eq!(spans("a+", &[b"aa", b"aa", b"aa"]), vec![(0, 6)]);
        // Greedy run crossing a boundary shadows the speculative matches
        // of the next shard.
        assert_eq!(spans("a+b", &[b"aaa", b"ab"]), vec![(0, 5)]);
    }

    #[test]
    fn end_anchor_only_fires_on_final_shard() {
        assert_eq!(spans("a$", &[b"a", b"a"]), vec![(1, 2)]);
        assert_eq!(spans("ab$", &[b"a", b"b"]), vec![(0, 2)]);
    }

    #[test]
    fn empty_shards_and_empty_input() {
        assert_eq!(spans("a", &[]), vec![]);
        assert_eq!(spans("a", &[b"", b""]), vec![]);
        assert_eq!(spans("a", &[b"", b"a", b""]), vec![(0, 1)]);
    }

    #[test]
    fn dot_does_not_match_newline() {
        assert_eq!(spans("a.c", &[b"a\ncabc"]), vec![(3, 6)]);
    }

    #[test]
    fn earliest_ending_match_is_not_the_leftmost() {
        // The search table accepts first at 2 (the lone `b`), but the
        // window opens at 0 and the attempt there wins with (0, 4).
        assert_eq!(spans("ab+c|b", &[b"abbc"]), vec![(0, 4)]);
        assert_eq!(spans("ab+c|b", &[b"ab", b"bc"]), vec![(0, 4)]);
        // When the long branch fails, the window still yields the short
        // one — after a failed attempt at 0, as the defining loop has it.
        assert_eq!(spans("ab+c|b", &[b"abbx"]), vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn idle_equivalent_set_with_a_live_earlier_thread() {
        // After "aaa" the carried set equals the re-seed set, yet the
        // thread from position 0 is alive: `lo` must still be 0.
        assert_eq!(spans("a*b", &[b"aaab"]), vec![(0, 4)]);
        assert_eq!(spans("a*b", &[b"a", b"aa", b"b"]), vec![(0, 4)]);
        assert_eq!(spans("a*b", &[b"aaacab"]), vec![(4, 6)]);
    }

    #[test]
    fn idle_stretches_below_and_above_the_skip_threshold() {
        // A thread dies at 1: the 3 idle bytes after it are stepped
        // through the table, the 20 after the second death are skipped
        // once IDLE_RUN of them went by — also across a cut.
        let text = [&b"axxxaba"[..], &[b'x'; 20], b"ab"].concat();
        assert_eq!(text.len(), 29);
        for cut in [0, 3, 5, 10, 16, 28] {
            let (left, right) = text.split_at(cut);
            assert_eq!(spans("ab", &[left, right]), vec![(4, 6), (27, 29)]);
        }
    }

    #[test]
    fn pathological_alternation_keeps_the_defining_loops_answer() {
        // `a.*x` never dies on this line and never accepts, `b` accepts
        // early: every window opens far to the left of its match.
        assert_eq!(
            spans("a.*x|b", &[b"aab", b"ab\nax"]),
            vec![(2, 3), (4, 5), (6, 8)]
        );
    }

    #[test]
    fn anchors_across_shard_cuts_and_empty_shards() {
        assert_eq!(spans("^ab", &[b"", b"a", b"", b"b", b"ab"]), vec![(0, 2)]);
        assert_eq!(spans("^ab", &[b"x", b"ab"]), vec![]);
        assert_eq!(spans("^a*", &[b"", b"", b"aa", b"a"]), vec![(0, 3)]);
        assert_eq!(spans("ab$", &[b"ab", b"a", b"", b"b", b""]), vec![(2, 4)]);
        assert_eq!(spans("b$", &[b"ab", b"", b"b", b""]), vec![(2, 3)]);
        assert_eq!(spans("^a+$", &[b"a", b"", b"a", b"a"]), vec![(0, 3)]);
        assert_eq!(spans("^a+$", &[b"a", b"", b"ab"]), vec![]);
        assert_eq!(spans("(^a|b)+$", &[b"ab", b"ab", b"b"]), vec![(3, 5)]);
    }

    #[test]
    fn uneven_match_density_is_bit_identical_at_every_thread_count() {
        // All matches in the first quarter of 64 shards: workers that
        // claim shards one by one share the dense quarter, and the output
        // must not depend on who scanned what.
        let dense = b"ab".repeat(32);
        let sparse = [b'x'; 64];
        let shards: Vec<&[u8]> = (0..64)
            .map(|i| if i < 16 { &dense[..] } else { &sparse[..] })
            .collect();
        let found = spans("(ab)+", &shards);
        assert_eq!(found, vec![(0, 16 * 64)]);
        let found = spans("ab", &shards);
        assert_eq!(found.len(), 16 * 32);
        assert!(found.iter().all(|&(_, end)| end <= 16 * 64));
    }
}
