//! DFA execution: speculative range scans stepped as lockstep lanes, and
//! the exact stitch that joins them.
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
//! pattern whose search table did not fit the state cap runs the defining
//! loop itself.
//!
//! **Ranges.** An attempt depends only on its start position and the
//! input, never on scan history, so any range `[from, until)` of attempt
//! positions can be scanned *speculatively* from its own first byte
//! (reading past `until` for matches that span it), giving its matches
//! and its *exit*, the first attempt position at or past `until`. A
//! sequential stitch then walks the true attempt positions: the moment
//! the true position lands on an attempt position the speculative scan
//! also visited, the rest of that range's matches are spliced in
//! verbatim. Only positions shadowed by a match that spans into the
//! range are re-attempted (at most one live attempt per cut), so the
//! result is **bit-identical** to one sequential scan for every way of
//! cutting the input, by construction rather than by tolerance. (SFA
//! proper — composing per-range state→state mappings — was weighed and
//! not adopted: DESIGN.md §13.)
//!
//! **Lanes.** One step of the walk is `trans[state + class[b]]`, a load
//! whose address needs the previous load: a single walk runs at the
//! latency of that chain, not at the rate the core can issue loads. Range
//! scans need nothing from each other until the stitch, so one thread
//! steps up to `LANES` of them per turn of one loop (`steps`), and the
//! chains overlap. That loop does nothing else: "a lane accepts", "a lane
//! past its range went idle" and "every lane has been idle for
//! `IDLE_RUN` steps" are OR-reduced into one exit test, and what a lane
//! raised is handled outside, on that lane alone (`Scan::settle`):
//!
//! * *accept* — the attempts from `lo` upward, as above. When the winning
//!   attempt ends where the walk stands (all but always) the lane's state
//!   is reset in place and the same stretch of input goes on;
//! * *all idle* — each lane skips to its next start byte;
//! * *the end of a shard* — the lane's next slice;
//! * *the end of its range* — idle there, the lane is finished; with a
//!   thread alive it **keeps walking in lockstep** with the lanes still
//!   running, until idle or accept;
//! * `^` at position 0 and `$` at the total length stay where they were:
//!   one classic attempt up front, and the end-only accept test made where
//!   a lane stands at the total length, never in the loop.
//!
//! When a lane finishes, the walk goes on with one lane fewer; one lane is
//! the plain windowed scan, not a second copy of it. The whole-buffer scan
//! cuts its input into `LANES` equal ranges (when each gets at least
//! `MIN_LANE_BYTES`); the sharded scan's ranges are the shards, claimed
//! `LANES` at a time by as many workers as `threads`, the claims and
//! `MIN_WORKER_BYTES` allow; both end in the same stitch, so the
//! whole-buffer scan is the one-worker case. Big ranges, not small
//! interleaved blocks: a thread that outlives its range reads to its
//! death, which `LANES` ranges bound at `(LANES + 1) / 2 · n` bytes a
//! worker and blocks would not.

use crate::input::ShardedInput;
use crate::meta::{MetaDfa, Table};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One match as an absolute half-open span over the shard concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Absolute start offset.
    pub start: usize,
    /// Absolute end offset (exclusive); always `> start`.
    pub end: usize,
}

/// Range scans one thread steps per turn of the walk. The walk is bound
/// by the load-to-use latency of `trans[state + class[b]]`: over 4 MiB of
/// the benchmark's near-miss text a stand-alone loop read 2.33 ns/byte on
/// one chain and 1.21 / 1.02 / 0.91 / 1.07 on 2 / 3 / 4 / 8 (eight lanes'
/// states, last-idle steps and byte pointers no longer fit sixteen
/// registers), and the walk below 2.60 / 1.46 / 1.13 / 1.18 on 1 / 2 / 3 /
/// 4: with the range flags it carries, x86-64 spills one of four states,
/// and three and four lanes read within 2 % of each other on all eighteen
/// benchmark cells (81.4 against 83.3 ms a pass). Four it is: the spill is
/// this target's, the fourth chain is not.
const LANES: usize = 4;

/// Smallest range worth a lane of its own: below `LANES` times this the
/// whole-buffer scan is one lane. Four lanes against one, ns/byte by total
/// length: near-miss text 1.39 against 2.70 at 2 KiB and 1.24 against
/// 2.62 at 8 KiB; match-dense text 3.38 against 3.21 at 2 KiB, 2.99
/// against 3.14 at 4 KiB, 2.83 against 3.17 at 8 KiB; text without start
/// bytes 0.54 against 0.44 at 2 KiB, level from 4 KiB on. Every regime
/// gains from 4 KiB up; twice that is the cut.
const MIN_LANE_BYTES: usize = 2 << 10;

/// Bytes a sharded scan must have per worker before it starts one: a
/// scoped thread costs some 40 µs to start and join here, which is what
/// one worker needs for 32 KiB of near-miss text. Eight even shards on
/// two threads against one: 48 against 20 µs at 16 KiB in all, 104
/// against 78 at 64 KiB, 136 against 154 at 128 KiB, 683 against 1 233 at
/// 1 MiB.
const MIN_WORKER_BYTES: usize = 64 << 10;

/// Steps every lane must have been idle in a row before the walk leaves
/// its loop for the start-byte skip. Entering and leaving that loop
/// costs about two branch mispredictions — some eight table steps — so it
/// pays only on idle stretches longer than that. On text dense in start
/// bytes the idle state is therefore stepped like any other state, with no
/// data-dependent branch (2× on the benchmark's near-miss haystack); on
/// text without start bytes the scan is in the skip loop all but never.
/// The eighteen benchmark cells in one pass: 94.1 ms at 4, 89.9 at 8, 89.7
/// at 16.
const IDLE_RUN: u32 = 8;

/// Matches one [`Spec`] holds before its lane hands it on and starts the
/// next. Four lanes' `Vec`s growing side by side to a megabyte each are
/// mapped, moved and unmapped by the allocator on every scan; 64 KiB ones
/// are recycled from its heap. On the benchmark's match-dense cell
/// (208 425 matches in 4 MiB) that is 1 825 against 1 503 page faults a
/// scan (the parent: 815, its one `Vec`), and through `perf`, four
/// alternated runs a side, `op_ms_p99` 24.5 against 22.7 ms and
/// `peak_rss_mb` 30.4 against 29.1.
const SPEC_MATCHES: usize = 4096;

/// What scanning attempt positions `[from, until)` speculatively found:
/// the defining loop's matches from `from`, and its *exit* — the first
/// attempt position `>= until` (greater exactly when the last match spans
/// past `until`).
struct Spec {
    from: usize,
    until: usize,
    matches: Vec<Match>,
    exit: usize,
}

impl Spec {
    /// Nothing found yet in `[from, until)`.
    fn new(from: usize, until: usize) -> Self {
        Spec {
            from,
            until,
            matches: Vec::new(),
            exit: until,
        }
    }
}

/// One range scan in flight: a [`Spec`] being filled in and the search
/// table's walk over the input from `pos` on.
struct Lane<'a> {
    spec: Spec,
    done: bool,
    /// Where the walk stands, the shard holding that position, and the
    /// rest of that shard from there on.
    pos: usize,
    shard: usize,
    piece: &'a [u8],
    /// Search-table state at `pos`, and the last position it was idle at.
    state: u32,
    lo: usize,
}

impl<'a> Lane<'a> {
    /// Move the walk to `pos` (at or after where it stands), idle.
    fn seek(&mut self, input: &ShardedInput<'a>, pos: usize) {
        self.shard = input.shard_at(self.shard, pos);
        self.piece = input.tail(self.shard, pos);
        self.pos = pos;
        self.lo = pos;
        self.state = 0;
    }

    /// Take up position `at` steps into a stretch that began at `origin`
    /// with `piece` ahead: in `state`, last idle after step `idle_after`
    /// of the stretch (0: not during it).
    fn stand(&mut self, origin: usize, piece: &'a [u8], at: usize, state: u32, idle_after: usize) {
        self.pos = origin + at;
        self.piece = &piece[at..];
        self.state = state;
        if idle_after > 0 {
            self.lo = origin + idle_after;
        }
    }

    /// The scan of this range is over; true, for `settle` to return.
    fn finish(&mut self, exit: usize) -> bool {
        self.spec.exit = exit;
        self.done = true;
        true
    }

    /// Bytes the walk can step before something other than a byte needs
    /// looking at: the end of the shard, or of the range.
    fn reach(&self) -> usize {
        match self.spec.until.checked_sub(self.pos) {
            Some(left) if left > 0 => self.piece.len().min(left),
            _ => self.piece.len(),
        }
    }
}

/// Index of the first byte of `bytes` a match can start on, or their
/// length. Eight bytes a branch: a byte a branch, as `position` compiles
/// here, read 0.55 ns/byte on the benchmark's start-byte-free haystack.
fn first_start(can_start: &[bool; 256], bytes: &[u8]) -> usize {
    let clear = bytes
        .chunks_exact(8)
        .take_while(|chunk| {
            !chunk
                .iter()
                .fold(false, |any, &b| any | can_start[b as usize])
        })
        .count()
        * 8;
    let rest = &bytes[clear..];
    clear
        + rest
            .iter()
            .position(|&b| can_start[b as usize])
            .unwrap_or(rest.len())
}

/// What the walk carries from one turn of [`steps`] to the next, a value
/// per lane: the search-table state, and the last step of the stretch the
/// lane was idle after (counted from 1; 0 for never).
struct Chains<const K: usize> {
    state: [u32; K],
    idle_after: [usize; K],
}

/// Step the search table once per lane and byte from step `from` of a
/// stretch on, until a lane has something to say: it accepts; it is past
/// its range (`overrun[j]`) and went idle; or every lane has been idle
/// for [`IDLE_RUN`] steps. `bytes` are the stretch, equally long, and the
/// walk stops at their end at the latest. Returns the step the walk
/// stands at and whether it was the idle run that stopped it.
///
/// This is the scan's inner loop: it calls nothing, and every array is
/// indexed by the constant lane number of an unrolled loop, so the
/// states stay in registers (it is its own function so that they do:
/// inlined into its caller the same loop kept them on the stack).
/// `OVERRUN` compiles the per-lane idle test out of the walk that needs
/// none (no lane past its range, all but always): with it the
/// stand-alone loop read 1.28 ns/byte against 0.91.
#[inline(never)]
fn steps<const K: usize, const OVERRUN: bool>(
    table: &Table,
    classes: &[u8; 256],
    bytes: &[&[u8]; K],
    overrun: &[bool; K],
    from: usize,
    chains: &mut Chains<K>,
) -> (usize, bool) {
    let (trans, mid_from) = (table.trans.as_slice(), table.mid_from);
    let n = bytes[0].len();
    let bytes = bytes.map(|b| &b[..n]);
    let mut state = chains.state;
    let mut idle_after = chains.idle_after;
    let mut idle_run = 0u32;
    let mut at = n;
    let mut idle = false;
    for i in from..n {
        let mut raised = false;
        let mut live = 0u32;
        for j in 0..K {
            let next = trans[state[j] as usize + classes[bytes[j][i] as usize] as usize];
            state[j] = next;
            idle_after[j] = if next == 0 { i + 1 } else { idle_after[j] };
            raised |= next >= mid_from;
            if OVERRUN {
                raised |= (next == 0) & overrun[j];
            }
            live |= next;
        }
        idle_run = if live == 0 { idle_run + 1 } else { 0 };
        if raised || idle_run >= IDLE_RUN {
            at = i + 1;
            idle = !raised;
            break;
        }
    }
    chains.state = state;
    chains.idle_after = idle_after;
    (at, idle)
}

/// One thread's share of a scan: the automaton, the input, and what the
/// scan reports about how it ran.
struct Scan<'a> {
    dfa: &'a MetaDfa,
    input: &'a ShardedInput<'a>,
    total: usize,
    /// Bytes read (`regex.bytes_stepped`): the walk and every attempt.
    stepped: usize,
    /// Of those, bytes the walk stepped with two lanes or more.
    lockstep: usize,
    /// Times the walk left its loop.
    rounds: usize,
    /// Scans cut short at [`SPEC_MATCHES`], for `scan_group` to collect.
    full: Vec<Spec>,
}

impl<'a> Scan<'a> {
    fn new(dfa: &'a MetaDfa, input: &'a ShardedInput<'a>) -> Self {
        Scan {
            dfa,
            input,
            total: input.total_len(),
            stepped: 0,
            lockstep: 0,
            rounds: 0,
            full: Vec::new(),
        }
    }

    /// Run one attempt at absolute position `p`: longest accepting end
    /// `e > p`, or `None`. `shard` is a hint for [`ShardedInput::shard_at`]
    /// and is left at the shard holding `p`.
    fn attempt(&mut self, shard: &mut usize, p: usize) -> Option<usize> {
        let dfa = self.dfa;
        let table = &dfa.anchored;
        let trans = table.trans.as_slice();
        let mut state = if p == 0 { dfa.start_bof } else { dfa.start_mid };
        *shard = self.input.shard_at(*shard, p);
        // The longest accepting end so far; 0 (no match end: they are all
        // above `p`) for none, so that the walk keeps it without a branch.
        let mut best = 0;
        let mut q = p;
        // A plain slice per shard; the next one only when the attempt
        // reaches the end of this one alive.
        'walk: for at in *shard..self.input.shard_count() {
            for &b in self.input.tail(at, q) {
                state = trans[state as usize + dfa.classes[b as usize] as usize];
                q += 1;
                if state == 0 {
                    break 'walk;
                }
                best = if table.accepts(state, false) { q } else { best };
            }
        }
        self.stepped += q - p;
        // Alive at the total end: the one place `$` can fire.
        if q > p && table.accepts(state, true) {
            best = q;
        }
        (best > 0).then_some(best)
    }

    /// The defining loop over `[from, until)`, for a compile without a
    /// search table.
    fn defining(&mut self, from: usize, until: usize) -> Spec {
        let mut matches = Vec::new();
        let mut shard = 0;
        let mut p = from;
        while p < until {
            p = match self.attempt(&mut shard, p) {
                Some(end) => {
                    matches.push(Match { start: p, end });
                    end
                }
                None => p + 1,
            };
        }
        Spec {
            from,
            until,
            matches,
            exit: p,
        }
    }

    /// A lane at the start of `[from, until)`, not yet looked at.
    fn open(&mut self, from: usize, until: usize) -> Lane<'a> {
        let mut lane = Lane {
            spec: Spec::new(from, until),
            done: false,
            pos: from,
            shard: 0,
            piece: &[],
            state: 0,
            lo: from,
        };
        let mut p = from;
        if p == 0 && until > 0 && self.dfa.start_bof != self.dfa.start_mid {
            // `^` makes position 0 an automaton of its own, which the
            // search table (seeded mid-input) does not carry.
            p = match self.attempt(&mut lane.shard, 0) {
                Some(end) => {
                    lane.spec.matches.push(Match { start: 0, end });
                    end
                }
                None => 1,
            };
        }
        if p >= until {
            lane.finish(p);
        } else {
            lane.seek(self.input, p);
        }
        lane
    }

    /// Handle what `lane` raised and bring it to a byte the walk can
    /// step, or finish it (true). With `skip`, an idle lane moves on to
    /// the next byte a match can start on.
    fn settle(&mut self, lane: &mut Lane<'a>, skip: bool) -> bool {
        let dfa = self.dfa;
        let table = dfa.search.as_ref().expect("lanes walk the search table");
        let until = lane.spec.until;
        loop {
            if table.accepts(lane.state, lane.pos == self.total) {
                // Some thread started in `[lo, pos)` accepts here: the
                // defining loop's next match starts in that window.
                let q = lane.pos;
                let mut hint = lane.shard;
                let won = (lane.lo..until.min(q))
                    .find_map(|start| Some((start, self.attempt(&mut hint, start)?)));
                let Some((start, end)) = won else {
                    return lane.finish(until);
                };
                lane.spec.matches.push(Match { start, end });
                if end >= until {
                    return lane.finish(end);
                }
                if lane.spec.matches.len() >= SPEC_MATCHES {
                    // What was found so far is the scan of `[from, end)`;
                    // the lane goes on as the scan of the rest.
                    let mut full = std::mem::replace(&mut lane.spec, Spec::new(end, until));
                    (full.until, full.exit) = (end, end);
                    self.full.push(full);
                }
                if end == q {
                    // The match ends where the walk stands, all but
                    // always: go on from here with no thread alive.
                    lane.state = 0;
                    lane.lo = q;
                } else {
                    lane.seek(self.input, end);
                }
            }
            if lane.state == 0 {
                if lane.pos >= until {
                    return lane.finish(until);
                }
                if skip {
                    let k = first_start(&dfa.can_start, &lane.piece[..lane.reach()]);
                    self.stepped += k;
                    lane.piece = &lane.piece[k..];
                    lane.pos += k;
                    lane.lo = lane.pos;
                    if lane.pos == until {
                        return lane.finish(until);
                    }
                }
            }
            if !lane.piece.is_empty() {
                return false;
            }
            if lane.shard + 1 >= self.input.shard_count() {
                // The input ran out, and `$` had its say above.
                return lane.finish(until);
            }
            lane.shard += 1;
            lane.piece = self.input.tail(lane.shard, lane.pos);
        }
    }

    /// Walk `K` lanes in lockstep until one of them finishes.
    fn lockstep<const K: usize>(&mut self, lanes: &mut [Lane<'a>], mut skip: bool) {
        let dfa = self.dfa;
        let table = dfa.search.as_ref().expect("lanes walk the search table");
        let lanes: &mut [Lane<'a>; K] = lanes.try_into().expect("one lane per chain");
        let mut finished = false;
        loop {
            for lane in lanes.iter_mut() {
                finished |= self.settle(lane, skip);
            }
            if finished {
                return;
            }
            // A stretch: as far as every lane can step before one of them
            // is at the end of its shard or range. The lanes themselves
            // stay where the stretch began; `at` steps on, each stands at
            // `origin[j] + at` with `pieces[j][at..]` ahead.
            let n = lanes.iter().map(Lane::reach).min().unwrap_or(0);
            let origin: [usize; K] = std::array::from_fn(|j| lanes[j].pos);
            let pieces: [&[u8]; K] = std::array::from_fn(|j| lanes[j].piece);
            let bytes: [&[u8]; K] = std::array::from_fn(|j| &pieces[j][..n]);
            let overrun: [bool; K] = std::array::from_fn(|j| lanes[j].pos >= lanes[j].spec.until);
            let mut chains = Chains {
                state: std::array::from_fn(|j| lanes[j].state),
                idle_after: [0; K],
            };
            let past = overrun.contains(&true);
            let mut at = 0;
            // Bit `j`: lane `j` has left the stretch (it moved on past a
            // match, or finished) and is no longer where `at` says.
            let mut left = 0u32;
            while left == 0 && at < n {
                let (now, idle) = if past {
                    steps::<K, true>(table, &dfa.classes, &bytes, &overrun, at, &mut chains)
                } else {
                    steps::<K, false>(table, &dfa.classes, &bytes, &overrun, at, &mut chains)
                };
                self.stepped += (now - at) * K;
                if K >= 2 {
                    self.lockstep += (now - at) * K;
                }
                self.rounds += 1;
                at = now;
                skip = idle;
                if idle || at == n {
                    break;
                }
                // The lanes the walk stopped for — one, as a rule, so the
                // loop over them is one predictable turn where a test per
                // lane would be `K` coin flips.
                let mut raised = 0u32;
                for (j, (&state, &past)) in chains.state.iter().zip(&overrun).enumerate() {
                    let stopped = table.accepts(state, false) | (past & (state == 0));
                    raised |= u32::from(stopped) << j;
                }
                while raised != 0 {
                    let j = raised.trailing_zeros() as usize;
                    raised &= raised - 1;
                    let lane = &mut lanes[j];
                    lane.stand(
                        origin[j],
                        pieces[j],
                        at,
                        chains.state[j],
                        chains.idle_after[j],
                    );
                    finished |= self.settle(lane, false);
                    if lane.done || lane.pos != origin[j] + at {
                        left |= 1 << j;
                    } else {
                        // The match ended where the walk stands: the lane
                        // goes on in this stretch, idle as of this step.
                        chains.state[j] = lane.state;
                        chains.idle_after[j] = at;
                    }
                }
            }
            for (j, lane) in lanes.iter_mut().enumerate() {
                if left & (1 << j) == 0 {
                    lane.stand(
                        origin[j],
                        pieces[j],
                        at,
                        chains.state[j],
                        chains.idle_after[j],
                    );
                }
            }
            if finished {
                return;
            }
        }
    }

    /// Scan up to [`LANES`] ranges side by side.
    fn scan_group(&mut self, ranges: &[(usize, usize)]) -> Vec<Spec> {
        if self.dfa.search.is_none() {
            return ranges
                .iter()
                .map(|&(from, until)| self.defining(from, until))
                .collect();
        }
        let mut lanes: Vec<Lane<'a>> = ranges
            .iter()
            .map(|&(from, until)| self.open(from, until))
            .collect();
        // A fresh lane is idle: the first thing it does is skip to a byte
        // a match can start on.
        let mut skip = true;
        loop {
            // Running lanes first (in any order: a `Spec` knows its range).
            lanes.sort_unstable_by_key(|lane| lane.done);
            let live = lanes.partition_point(|lane| !lane.done);
            match live {
                0 => break,
                1 => self.lockstep::<1>(&mut lanes[..1], skip),
                2 => self.lockstep::<2>(&mut lanes[..2], skip),
                3 => self.lockstep::<3>(&mut lanes[..3], skip),
                LANES => self.lockstep::<LANES>(&mut lanes[..LANES], skip),
                _ => unreachable!("a group holds at most LANES ranges"),
            }
            skip = false;
        }
        let mut specs: Vec<Spec> = lanes.into_iter().map(|lane| lane.spec).collect();
        specs.append(&mut self.full);
        specs.sort_unstable_by_key(|spec| spec.from);
        specs
    }

    /// Add another thread's counts to this one's.
    fn absorb(&mut self, other: Scan<'_>) {
        self.stepped += other.stepped;
        self.lockstep += other.lockstep;
        self.rounds += other.rounds;
    }

    /// Join consecutive speculative scans (the first from position 0)
    /// into the one sequential scan's matches. `t` is the true attempt
    /// position.
    fn stitch(&mut self, specs: Vec<Spec>) -> Vec<Match> {
        // Sized once: all but every speculative match is kept.
        let mut out = Vec::with_capacity(specs.iter().map(|spec| spec.matches.len()).sum());
        let mut shard = 0;
        let mut t = 0usize;
        for spec in specs {
            while t < spec.until {
                // `t` is an attempt position of the defining loop run from
                // `from` — whose matches the speculative scan returned —
                // iff it is not strictly inside one of those matches (that
                // loop attempts at `from`, every match end, and every
                // failed position in between).
                let matches = &spec.matches;
                let k = matches.partition_point(|m| m.start <= t);
                let inside_spec = k > 0 && matches[k - 1].end > t && matches[k - 1].start < t;
                if t >= spec.from && !inside_spec {
                    out.extend_from_slice(&matches[matches.partition_point(|m| m.start < t)..]);
                    t = spec.exit;
                    break;
                }
                // A match spanning into this range shadowed the speculative
                // attempt positions; re-run true attempts until we re-sync.
                msc_obs::count("regex.stitch_rescans", 1);
                match self.attempt(&mut shard, t) {
                    Some(e) => {
                        out.push(Match { start: t, end: e });
                        t = e;
                    }
                    None => t += 1,
                }
            }
        }
        out
    }

    /// Report how the scan ran.
    fn finish(self) {
        msc_obs::count("regex.bytes_stepped", self.stepped as u64);
        msc_obs::count("regex.lockstep_bytes", self.lockstep as u64);
        msc_obs::count("regex.lane_rounds", self.rounds as u64);
    }
}

/// Scan `ranges` (consecutive, from 0 to the total length) in groups of
/// [`LANES`] on `workers` threads, the calling one among them, and stitch.
fn scan(
    dfa: &MetaDfa,
    input: &ShardedInput<'_>,
    ranges: &[(usize, usize)],
    workers: usize,
) -> Vec<Match> {
    let groups = ranges.len().div_ceil(LANES);
    let group = |g: usize| &ranges[g * LANES..ranges.len().min((g + 1) * LANES)];
    // Workers claim groups from one counter, so a group dense with matches
    // holds up one worker while the others drain the rest. The counter
    // publishes nothing (results travel through the scope join), hence
    // Relaxed.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut scan = Scan::new(dfa, input);
        let mut scanned = Vec::new();
        loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            if g >= groups {
                return (scan, scanned);
            }
            scanned.push((g, scan.scan_group(group(g))));
        }
    };
    let (mut scan, mut scanned) = if workers <= 1 {
        claim()
    } else {
        msc_obs::count("regex.parallel_scans", 1);
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
            let (mut scan, mut scanned) = claim();
            for worker in spawned {
                let (theirs, more) = worker.join().expect("a range scan panicked");
                scan.absorb(theirs);
                scanned.extend(more);
            }
            (scan, scanned)
        })
    };
    scanned.sort_unstable_by_key(|&(g, _)| g);
    let specs = scanned.into_iter().flat_map(|(_, specs)| specs).collect();
    let out = scan.stitch(specs);
    scan.finish();
    out
}

/// The whole input as [`LANES`] equal ranges, or as one when that would
/// leave a range under [`MIN_LANE_BYTES`].
fn equal_ranges(total: usize) -> Vec<(usize, usize)> {
    let lanes = if total >= LANES * MIN_LANE_BYTES {
        LANES
    } else {
        1
    };
    (0..lanes)
        .map(|j| (j * total / lanes, (j + 1) * total / lanes))
        .collect()
}

/// Ranges and worker count of a sharded scan: the shards, on as many
/// workers as `threads` allows, there are groups of [`LANES`] shards to
/// claim, and the input has [`MIN_WORKER_BYTES`] for — or, when that is one
/// worker, [`equal_ranges`] on the calling thread.
fn plan(input: &ShardedInput<'_>, threads: usize) -> (Vec<(usize, usize)>, usize) {
    let shards = input.shard_count();
    let total = input.total_len();
    let workers = threads
        .min(shards.div_ceil(LANES))
        .min(total / MIN_WORKER_BYTES);
    if workers <= 1 {
        (equal_ranges(total), 1)
    } else {
        (
            (0..shards).map(|i| input.shard_bounds(i)).collect(),
            workers,
        )
    }
}

/// Sequential scan over the whole input.
pub fn find_all(dfa: &MetaDfa, input: &ShardedInput<'_>) -> Vec<Match> {
    find_sharded(dfa, input, 1)
}

/// Data-parallel scan: speculative per-shard scans on up to `threads`
/// worker threads, then a sequential stitch. Output is identical to
/// [`find_all`] for every `threads` value.
pub fn find_sharded(dfa: &MetaDfa, input: &ShardedInput<'_>, threads: usize) -> Vec<Match> {
    if input.total_len() == 0 {
        return Vec::new();
    }
    let (ranges, workers) = plan(input, threads);
    scan(dfa, input, &ranges, workers)
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

    /// `scan` over `ranges` on one and on two workers, with what the first
    /// read (`bytes_stepped`, `lockstep_bytes`).
    fn scan_cut(
        dfa: &MetaDfa,
        inp: &ShardedInput<'_>,
        ranges: &[(usize, usize)],
    ) -> (Vec<(usize, usize)>, usize, usize) {
        let mut scan = Scan::new(dfa, inp);
        let specs: Vec<Spec> = ranges
            .chunks(LANES)
            .flat_map(|group| scan.scan_group(group))
            .collect();
        let one: Vec<Match> = scan.stitch(specs);
        assert_eq!(super::scan(dfa, inp, ranges, 2), one, "two workers");
        (
            one.iter().map(|m| (m.start, m.end)).collect(),
            scan.stepped,
            scan.lockstep,
        )
    }

    /// Consecutive ranges over `[0, total)` cut at `cuts` (sorted, kept
    /// when equal: an empty range is a range).
    fn ranges_at(total: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % (total + 1)).collect();
        points.extend([0, total]);
        points.sort_unstable();
        points.windows(2).map(|w| (w[0], w[1])).collect()
    }

    proptest::proptest! {
        /// The lane scan and the stitch on cuts `find_all` and
        /// `find_sharded` would never choose: up to twelve ranges (three
        /// groups, lanes finishing in any order, empty ranges, cuts inside
        /// matches), over an input itself cut into shards elsewhere.
        #[test]
        fn lanes_on_arbitrary_cuts_equal_naive(
            pat in crate::testing::arb_pattern(),
            input in proptest::collection::vec(0u8..6, 1..200),
            cuts in proptest::collection::vec(0usize..256, 0..12),
            shard_cuts in proptest::collection::vec(0usize..256, 0..4),
        ) {
            let input: Vec<u8> = input.into_iter().map(|b| b"abcxy\n"[b as usize]).collect();
            let ast = parse(&pat).unwrap();
            let nfa = build(&ast).unwrap();
            let Ok(full) = compile(&nfa) else {
                return Ok(());
            };
            let bare = compile_with_limit(&nfa, full.len()).unwrap();
            let naive = crate::naive::find_all(&ast, &input);
            let shards: Vec<&[u8]> = ranges_at(input.len(), &shard_cuts)
                .into_iter()
                .map(|(from, until)| &input[from..until])
                .collect();
            let inp = ShardedInput::new(&shards);
            let ranges = ranges_at(input.len(), &cuts);
            for d in [&full, &bare] {
                let (found, ..) = scan_cut(d, &inp, &ranges);
                proptest::prop_assert_eq!(
                    &found, &naive,
                    "{:?} (search table: {}) cut at {:?}", &pat, d.search.is_some(), &ranges
                );
            }
        }
    }

    #[test]
    fn whole_buffer_lanes_at_the_cut_threshold() {
        // Three bytes over the shortest input `find_all` cuts: four lanes
        // of 2 048, 2 049, 2 049 and 2 049 bytes.
        let n = LANES * MIN_LANE_BYTES + 3;
        let ranges = equal_ranges(n);
        assert_eq!(ranges.len(), LANES);
        assert_eq!(equal_ranges(n - 4).len(), 1, "one byte less a lane: no cut");
        let cut = |j: usize| ranges[j].0;
        let check = |pat: &str, text: &[u8], expect: &[(usize, usize)]| {
            assert_eq!(text.len(), n);
            assert_eq!(spans(pat, &[text]), expect, "{pat:?}");
        };

        // A match straddling every lane cut.
        let mut text = vec![b'x'; n];
        for j in 1..LANES {
            text[cut(j) - 2..cut(j) + 2].copy_from_slice(b"abbc");
        }
        let straddling: Vec<_> = (1..LANES).map(|j| (cut(j) - 2, cut(j) + 2)).collect();
        check("ab+c", &text, &straddling);

        // One match covering lanes 1 and 2 whole, from inside lane 0 to
        // inside lane 3: their speculative matches are all shadowed.
        let mut text = vec![b'x'; n];
        text[cut(1) - 5..cut(3) + 5].fill(b'a');
        text[cut(3) + 5] = b'b';
        check("a+b", &text, &[(cut(1) - 5, cut(3) + 6)]);
        check("a+", &text, &[(cut(1) - 5, cut(3) + 5)]);

        // `$` fires at the total length, in the last lane only.
        let mut text = vec![b'x'; n];
        for j in 1..LANES {
            text[cut(j) - 1] = b'a';
        }
        text[n - 1] = b'a';
        check("a$", &text, &[(n - 1, n)]);
        check("xa$", &text, &[(n - 2, n)]);

        // Every match in lane 0: the other lanes finish first, and lane 0
        // goes on alone.
        let mut text = vec![b'x'; n];
        let dense = b"ab".repeat(cut(1) / 2);
        text[..dense.len()].copy_from_slice(&dense);
        let found = spans("ab", &[&text]);
        assert_eq!(found.len(), cut(1) / 2);
        assert_eq!(found.last(), Some(&(dense.len() - 2, dense.len())));

        // Text no match can start on is read once, by skipping, however
        // it is cut; text every lane is live on is read in lockstep.
        let nfa = build(&parse("a[bc]+x").unwrap()).unwrap();
        let dfa = compile(&nfa).unwrap();
        let text = vec![b'y'; n];
        let shards = [&text[..]];
        let inp = ShardedInput::new(&shards);
        assert_eq!(scan_cut(&dfa, &inp, &ranges), (vec![], n, 0));
        // (A lane that is mid-word at its range end steps on to the space.)
        let text = b"abb ".repeat(n / 4 + 1);
        let shards = [&text[..n]];
        let inp = ShardedInput::new(&shards);
        let (found, stepped, lockstep) = scan_cut(&dfa, &inp, &ranges);
        assert!(found.is_empty());
        assert!(n <= stepped && stepped <= n + 4 * LANES, "{stepped}");
        assert!(lockstep + 8 * LANES >= stepped, "{lockstep} of {stepped}");
    }

    #[test]
    fn workers_go_by_bytes_and_claim_groups() {
        let workers = |shards: usize, shard_bytes: usize, threads: usize| {
            let text = vec![b'x'; shard_bytes];
            let shards: Vec<&[u8]> = vec![&text; shards];
            plan(&ShardedInput::new(&shards), threads)
        };
        // `mscc match` on a 100-byte file at 8 threads: nothing to spawn
        // for, and one range, not 32.
        assert_eq!(workers(32, 4, 8), (vec![(0, 128)], 1));
        // Eight 64 KiB shards are two groups to claim: two workers,
        // however many were offered.
        let (ranges, w) = workers(8, 64 << 10, 8);
        assert_eq!((ranges.len(), w), (8, 2));
        assert_eq!(ranges[3], (3 * (64 << 10), 4 * (64 << 10)));
        assert_eq!(workers(64, 64 << 10, 2).1, 2);
        assert_eq!(workers(64, 64 << 10, 1).1, 1);
        // Many shards, few bytes: one worker a `MIN_WORKER_BYTES`.
        assert_eq!(workers(64, 4 << 10, 8).1, 4);
        assert_eq!(workers(64, 1 << 10, 8), (equal_ranges(64 << 10), 1));
        // One claim group never spawns, whatever its size.
        assert_eq!(workers(4, 1 << 20, 8), (equal_ranges(4 << 20), 1));
    }
}
