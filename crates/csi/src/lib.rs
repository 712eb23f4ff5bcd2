//! # msc-csi — Common Subexpression Induction
//!
//! §3.1 of the paper: "Any meta state that merged two or more MIMD states
//! effectively contains multiple instruction sequences that are supposed to
//! execute simultaneously. … it is quite possible and practical that any
//! operations that would be performed by more than one sequence can be
//! executed in parallel by all processors. Common subexpression induction
//! (CSI) \[Die92\] is an optimization technique that identifies these
//! operations and 'factors' them out."
//!
//! For the stack code of this pipeline, CSI is an *instruction-alignment*
//! problem: each member MIMD state of a meta state contributes one thread
//! (an op sequence); the SIMD control unit must issue a single instruction
//! stream such that, for every thread, the subsequence of instructions
//! issued while that thread is enabled equals the thread's own sequence.
//! Identical instructions at aligned positions are issued **once** under
//! the union of the threads' enable guards — PEs execute the same
//! instruction on their own stack data, which is exactly the sharing
//! visible in the paper's Listing 5 (`ms_2_6` factors
//! `Push(0) LdL Push(12) StL Pop(2)` across threads 2 and 6).
//!
//! Minimizing issue cost is a weighted shortest-common-supersequence
//! problem (NP-hard for many threads), so — following the \[Die92\] summary
//! quoted in §3.1 — the implementation:
//!
//! 1. computes a **theoretical lower bound** on execution time from the
//!    ops' prices (\[Die92\] also used operation classes; this does not);
//! 2. creates a **linear schedule** three ways: a greedy list schedule over
//!    all threads, hierarchical pairwise merging by an optimal two-sequence
//!    dynamic program, and plain serialization;
//! 3. passes each over a **cheap approximate search** (fusing adjacent
//!    identical slots) and a **permutation-in-range search** (slots move
//!    past neighbours they share no thread with, to coalesce guard regions,
//!    since every enable-mask change costs cycles), and keeps the first of
//!    the cheapest. On compiled MIMDC the two searches almost never find
//!    anything: step 2 decides the schedule.
//!
//! The schedulers run on the problem's ops interned to dense ids with a
//! price table ([`Inducer`]); only the winning schedule is mapped back.

use msc_ir::util::FxHashMap;
use msc_ir::{CostModel, Op};
use std::fmt;

/// Maximum number of threads (member MIMD states) in one CSI problem; the
/// guard is a `u64` bitmask.
pub const MAX_THREADS: usize = 64;

/// One issued SIMD instruction: the op and the set of threads (as a
/// bitmask) enabled while it executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// The instruction.
    pub op: Op,
    /// Bitmask of enabled threads.
    pub active: u64,
}

/// The result of CSI on one meta state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The issued instruction stream with guards.
    pub slots: Vec<Slot>,
    /// Total cost: Σ op costs + guard-switch cost × (#guard regions − 1).
    pub cost: u64,
    /// Theoretical lower bound (see [`lower_bound`]).
    pub lower_bound: u64,
    /// Cost of naive full serialization (no sharing): the baseline a SIMD
    /// machine pays without CSI.
    pub naive_cost: u64,
}

impl Schedule {
    /// Check that, for every thread, the slots it is active in reproduce
    /// exactly its input op sequence — the correctness invariant of CSI.
    pub fn validate(&self, threads: &[Vec<Op>]) -> Result<(), String> {
        for (t, seq) in threads.iter().enumerate() {
            let bit = 1u64 << t;
            let got: Vec<&Op> = self
                .slots
                .iter()
                .filter(|s| s.active & bit != 0)
                .map(|s| &s.op)
                .collect();
            if got.len() != seq.len() || got.iter().zip(seq).any(|(a, b)| **a != *b) {
                return Err(format!(
                    "thread {t}: scheduled subsequence {:?} != input {:?}",
                    got, seq
                ));
            }
        }
        // No slot may have an empty guard.
        if let Some(i) = self.slots.iter().position(|s| s.active == 0) {
            return Err(format!("slot {i} has an empty guard"));
        }
        Ok(())
    }

    /// Number of contiguous same-guard regions.
    pub fn guard_regions(&self) -> usize {
        guard_regions(self.slots.iter().map(|s| s.active)) as usize
    }

    /// Issue count (number of slots) — what sharing reduces.
    pub fn issues(&self) -> usize {
        self.slots.len()
    }
}

/// Errors from [`induce`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsiError {
    /// More threads than [`MAX_THREADS`].
    TooManyThreads(usize),
}

impl fmt::Display for CsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsiError::TooManyThreads(n) => {
                write!(
                    f,
                    "{n} threads exceed the CSI guard-word limit of {MAX_THREADS}"
                )
            }
        }
    }
}

impl std::error::Error for CsiError {}

/// Tuning for [`induce_with`].
#[derive(Debug, Clone)]
pub struct CsiOptions {
    /// Cycle cost model (also prices the guard switches).
    pub costs: CostModel,
    /// Maximum passes of the permutation-in-range improvement search.
    pub max_improve_passes: u32,
}

impl Default for CsiOptions {
    fn default() -> Self {
        CsiOptions {
            costs: CostModel::default(),
            max_improve_passes: 64,
        }
    }
}

/// Run CSI with default options.
pub fn induce(threads: &[Vec<Op>]) -> Result<Schedule, CsiError> {
    induce_with(threads, &CsiOptions::default())
}

/// Run CSI on the given thread op sequences (thread *t* guards bit *t*).
pub fn induce_with(threads: &[Vec<Op>], opts: &CsiOptions) -> Result<Schedule, CsiError> {
    Inducer::default().induce(&as_slices(threads), opts)
}

fn as_slices(threads: &[Vec<Op>]) -> Vec<&[Op]> {
    threads.iter().map(Vec::as_slice).collect()
}

/// The CSI scheduler with its scratch and its counters. One value can serve
/// any number of problems (code generation keeps one per program), the
/// counters running over all of them; [`induce_with`] poses one to a fresh one.
#[derive(Debug, Default)]
pub struct Inducer {
    /// Problems posed.
    pub problems: u64,
    /// Problems with exactly one non-empty thread: nothing to share, the
    /// thread is its own schedule.
    pub single_thread: u64,
    /// Candidate linear schedules built, improved and priced.
    pub candidates_tried: u64,
    /// Problems that skipped their remaining candidates because one met the
    /// §3.1 lower bound, which no later candidate can beat.
    pub lower_bound_exits: u64,
    problem: Problem,
    /// The flat two-sequence DP table, reused by every pairwise merge.
    dp: Vec<u64>,
}

impl Inducer {
    /// [`induce_with`] over borrowed threads.
    pub fn induce(&mut self, threads: &[&[Op]], opts: &CsiOptions) -> Result<Schedule, CsiError> {
        if threads.len() > MAX_THREADS {
            return Err(CsiError::TooManyThreads(threads.len()));
        }
        self.problems += 1;
        let mut busy = threads.iter().enumerate().filter(|(_, t)| !t.is_empty());
        let (t, only) = match (busy.next(), busy.next()) {
            (None, _) => return Ok(Schedule::default()),
            (Some(one), None) => one,
            _ => return Ok(self.search(threads, opts)),
        };
        // One non-empty thread is its own schedule: every candidate of the
        // search would reproduce it, at the lower bound.
        self.single_thread += 1;
        let active = 1u64 << t;
        let body = opts.costs.block_cost(only);
        let cost = body + opts.costs.guard_switch as u64;
        Ok(Schedule {
            slots: only.iter().cloned().map(|op| Slot { op, active }).collect(),
            cost,
            lower_bound: if body == 0 { 0 } else { cost },
            naive_cost: cost,
        })
    }

    /// Three linear schedules: greedy list schedule, hierarchical pairwise
    /// DP merge, and plain serialization (sharing can lose to serialization
    /// once guard-switch costs are accounted, so serialization stays in the
    /// race). Each is improved, then the first of the cheapest wins.
    fn search(&mut self, threads: &[&[Op]], opts: &CsiOptions) -> Schedule {
        let guard_switch = opts.costs.guard_switch as u64;
        let p = &mut self.problem;
        p.intern(threads, &opts.costs);
        let lower_bound = p.lower_bound(guard_switch);
        let mut best: Option<(u64, Vec<IdSlot>)> = None;
        for candidate in 0..3 {
            let mut slots = match candidate {
                0 => p.greedy_schedule(),
                1 => p.pairwise_merge_schedule(&mut self.dp),
                _ => p.serial_schedule(),
            };
            self.candidates_tried += 1;
            // Cheap approximate search: fuse adjacent identical ops with
            // disjoint guards (missed sharing), then the permutation-in-range
            // search. Both usually find nothing and return after one pass.
            for _ in 0..opts.max_improve_passes {
                let fused = fuse_adjacent(&mut slots);
                let moved = coalesce_guards(&mut slots);
                if !fused && !moved {
                    break;
                }
            }
            let cost = p.schedule_cost(&slots, guard_switch);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, slots));
            }
            // Only a strictly cheaper candidate replaces the best, and no
            // valid schedule is cheaper than the bound.
            if candidate < 2 && best.as_ref().is_some_and(|(b, _)| *b == lower_bound) {
                self.lower_bound_exits += 1;
                break;
            }
        }
        let (cost, slots) = best.expect("the loop ran at least once");
        let slot = |s: IdSlot| Slot {
            op: p.ops[s.id as usize].clone(),
            active: s.active,
        };
        let busy = p.threads().filter(|t| !t.is_empty());
        Schedule {
            slots: slots.into_iter().map(slot).collect(),
            cost,
            lower_bound,
            naive_cost: busy.map(|t| p.cost(t) + guard_switch).sum(),
        }
    }
}

/// The cost the SIMD machine pays to execute `slots`: op issue costs plus
/// one guard switch per change of enable mask (the first region's mask
/// set-up is charged too).
pub fn schedule_cost(slots: &[Slot], costs: &CostModel) -> u64 {
    let issue: u64 = slots.iter().map(|s| costs.op_cost(&s.op) as u64).sum();
    issue + costs.guard_switch as u64 * guard_regions(slots.iter().map(|s| s.active))
}

/// Number of maximal runs of equal guards.
fn guard_regions(guards: impl Iterator<Item = u64>) -> u64 {
    let mut last = None;
    guards.filter(|&g| last.replace(g) != Some(g)).count() as u64
}

/// Theoretical lower bound on any valid schedule's cost:
///
/// * any schedule must contain every thread's ops in order, so it costs at
///   least the most expensive single thread; and
/// * a shared slot issues one op for several threads, but each *distinct*
///   op must be issued at least `max_t count(op, t)` times (the classic
///   supersequence bound), so the per-op bound sums those.
///
/// The returned bound is the max of the two plus one guard set-up.
pub fn lower_bound(threads: &[Vec<Op>], costs: &CostModel) -> u64 {
    let mut p = Problem::default();
    p.intern(&as_slices(threads), costs);
    p.lower_bound(costs.guard_switch as u64)
}

/// Cost of running the threads fully serialized with no sharing — one
/// guard region per non-empty thread.
pub fn naive_cost(threads: &[Vec<Op>], costs: &CostModel) -> u64 {
    threads
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| costs.block_cost(t) + costs.guard_switch as u64)
        .sum()
}

/// One issued instruction of an interned [`Problem`]: the op's dense id and
/// the bitmask of enabled threads. `Copy`, so the schedulers move and
/// compare words where [`Slot`] would clone and compare `Op`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdSlot {
    id: u32,
    active: u64,
}

/// One problem with its ops interned once: the schedulers work on dense ids
/// and a price table, and only the winning schedule is mapped back to `Op`s.
#[derive(Debug, Default)]
struct Problem {
    ids: FxHashMap<Op, u32>,
    /// Per id: the op and its issue cost.
    ops: Vec<Op>,
    price: Vec<u64>,
    /// Thread `t` (guard bit `t`) is `seq[bounds[t]..bounds[t + 1]]`.
    seq: Vec<u32>,
    bounds: Vec<usize>,
}

impl Problem {
    fn intern(&mut self, threads: &[&[Op]], costs: &CostModel) {
        self.ids.clear();
        self.ops.clear();
        self.price.clear();
        self.seq.clear();
        self.bounds.clear();
        self.bounds.push(0);
        for thread in threads {
            for op in *thread {
                let next = self.ops.len() as u32;
                let id = *self.ids.entry(op.clone()).or_insert(next);
                if id == next {
                    self.ops.push(op.clone());
                    self.price.push(costs.op_cost(op) as u64);
                }
                self.seq.push(id);
            }
            self.bounds.push(self.seq.len());
        }
    }

    fn threads(&self) -> impl Iterator<Item = &[u32]> {
        self.bounds.windows(2).map(|w| &self.seq[w[0]..w[1]])
    }

    fn cost(&self, ids: &[u32]) -> u64 {
        ids.iter().map(|&id| self.price[id as usize]).sum()
    }

    fn schedule_cost(&self, slots: &[IdSlot], guard_switch: u64) -> u64 {
        let issue: u64 = slots.iter().map(|s| self.price[s.id as usize]).sum();
        issue + guard_switch * guard_regions(slots.iter().map(|s| s.active))
    }

    /// [`lower_bound`], with the per-thread occurrence counts in dense
    /// arrays indexed by op id.
    fn lower_bound(&self, guard_switch: u64) -> u64 {
        let per_thread = self.threads().map(|t| self.cost(t)).max().unwrap_or(0);
        let mut count = vec![0u64; self.ops.len()];
        let mut max_count = vec![0u64; self.ops.len()];
        for t in self.threads() {
            t.iter().for_each(|&id| count[id as usize] += 1);
            for &id in t {
                let c = std::mem::take(&mut count[id as usize]);
                max_count[id as usize] = max_count[id as usize].max(c);
            }
        }
        let per_op: u64 = max_count.iter().zip(&self.price).map(|(c, p)| c * p).sum();
        match per_thread.max(per_op) {
            0 => 0,
            body => body + guard_switch,
        }
    }

    /// Thread-by-thread serialization (the no-CSI baseline, kept as a
    /// candidate because it minimizes guard switches).
    fn serial_schedule(&self) -> Vec<IdSlot> {
        let guarded = self.threads().enumerate().flat_map(|(t, seq)| {
            let active = 1u64 << t;
            seq.iter().map(move |&id| IdSlot { id, active })
        });
        guarded.collect()
    }

    /// Greedy list schedule: at each step, among the candidate "next op of
    /// some thread", pick the one shared by the most remaining cost, breaking
    /// ties toward the guard used by the previous slot (to minimize mask
    /// switches).
    fn greedy_schedule(&self) -> Vec<IdSlot> {
        let mut pos = self.bounds[..self.bounds.len() - 1].to_vec();
        let mut slots = Vec::with_capacity(self.seq.len());
        // Candidate next ops in order of first appearance, and which threads
        // are waiting on each.
        let mut cands: Vec<u32> = Vec::new();
        let mut waiting = vec![0u64; self.ops.len()];
        let mut prev_guard = 0u64;
        loop {
            for (t, &at) in pos.iter().enumerate() {
                if at < self.bounds[t + 1] {
                    let id = self.seq[at];
                    if waiting[id as usize] == 0 {
                        cands.push(id);
                    }
                    waiting[id as usize] |= 1 << t;
                }
            }
            // Score: shared issue saving, then guard affinity, then op cost
            // (prefer retiring expensive ops when shared widely).
            let pick = cands
                .drain(..)
                .map(|id| (id, std::mem::take(&mut waiting[id as usize])))
                .max_by_key(|&(id, mask)| {
                    let price = self.price[id as usize];
                    let saving = (mask.count_ones() as u64 - 1) * price;
                    (saving, mask == prev_guard, std::cmp::Reverse(price))
                });
            let Some((id, active)) = pick else {
                return slots;
            };
            for (t, p) in pos.iter_mut().enumerate() {
                *p += (active >> t & 1) as usize;
            }
            prev_guard = active;
            slots.push(IdSlot { id, active });
        }
    }

    /// Hierarchical pairwise merging: threads, sorted by descending cost,
    /// are merged one by one into the accumulated schedule with an optimal
    /// two-sequence dynamic program (inter-thread CSE on aligned ops).
    fn pairwise_merge_schedule(&self, dp: &mut Vec<u64>) -> Vec<IdSlot> {
        let mut order: Vec<(usize, &[u32])> = self.threads().enumerate().collect();
        order.retain(|(_, seq)| !seq.is_empty());
        order.sort_by_key(|(_, seq)| std::cmp::Reverse(self.cost(seq)));
        let mut acc: Vec<IdSlot> = Vec::new();
        for (t, seq) in order {
            acc = self.merge_two(&acc, seq, 1u64 << t, dp);
        }
        acc
    }

    /// Optimal merge of a guarded sequence with thread `b` (guard `bit`) by
    /// dynamic programming: classic edit-path DP where aligning two slots
    /// with equal ops issues one shared slot (cost charged once).
    /// Guard-switch effects are handled afterwards by the improvement passes.
    fn merge_two(&self, a: &[IdSlot], b: &[u32], bit: u64, dp: &mut Vec<u64>) -> Vec<IdSlot> {
        let price = |id: u32| self.price[id as usize];
        let (la, lb, w) = (a.len(), b.len(), b.len() + 1);
        // dp[i * w + j]: min cost to schedule a[i..] and b[j..]. Every cell
        // is written before it is read, so stale contents do not matter.
        if dp.len() < (la + 1) * w {
            dp.resize((la + 1) * w, 0);
        }
        dp[la * w + lb] = 0;
        for j in (0..lb).rev() {
            dp[la * w + j] = dp[la * w + j + 1] + price(b[j]);
        }
        for i in (0..la).rev() {
            let (ai, pa) = (a[i].id, price(a[i].id));
            let (row, below) = dp[i * w..(i + 2) * w].split_at_mut(w);
            row[lb] = below[lb] + pa;
            for j in (0..lb).rev() {
                let mut best = (below[j] + pa).min(row[j + 1] + price(b[j]));
                if ai == b[j] {
                    best = best.min(below[j + 1] + pa);
                }
                row[j] = best;
            }
        }
        // Reconstruct, preferring a shared slot, then `a`, then `b`.
        let mut out = Vec::with_capacity(la + lb);
        let (mut i, mut j) = (0, 0);
        while i < la || j < lb {
            let here = dp[i * w + j];
            if i < la && j < lb && a[i].id == b[j] && here == dp[(i + 1) * w + j + 1] + price(b[j])
            {
                let active = a[i].active | bit;
                out.push(IdSlot { id: b[j], active });
                (i, j) = (i + 1, j + 1);
            } else if i < la && here == dp[(i + 1) * w + j] + price(a[i].id) {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(IdSlot {
                    id: b[j],
                    active: bit,
                });
                j += 1;
            }
        }
        out
    }
}

/// Cheap approximate search: adjacent slots with the same op and disjoint
/// guards can be fused into one shared issue. Returns true if anything
/// changed.
fn fuse_adjacent(slots: &mut Vec<IdSlot>) -> bool {
    let before = slots.len();
    slots.dedup_by(|next, kept| {
        let fuse = kept.id == next.id && kept.active & next.active == 0;
        if fuse {
            kept.active |= next.active;
        }
        fuse
    });
    slots.len() != before
}

/// Permutation-in-range search: a slot may move past a neighbour when no
/// thread is active in both (their thread-order dependency ranges overlap
/// freely), so swapping preserves every thread's subsequence. Swaps are
/// made when they reduce the number of guard regions (and therefore the
/// enable-mask switching cost). Returns true if anything moved.
fn coalesce_guards(slots: &mut [IdSlot]) -> bool {
    let mut changed = false;
    for i in 1..slots.len() {
        // Try to sink slot i earlier toward a same-guard neighbour.
        let mut j = i;
        while j > 0 && slots[j - 1].active & slots[j].active == 0 && swap_improves(slots, j - 1) {
            slots.swap(j - 1, j);
            changed = true;
            j -= 1;
        }
    }
    changed
}

/// Would swapping `slots[k]` and `slots[k+1]` reduce guard transitions?
fn swap_improves(slots: &[IdSlot], k: usize) -> bool {
    let prev = k.checked_sub(1).map(|p| slots[p].active);
    let next = slots.get(k + 2).map(|s| s.active);
    let (x, y) = (slots[k].active, slots[k + 1].active);
    // Transitions around the pair, before and after the swap (the pair's own
    // transition is the same either way).
    let around = |first: u64, second: u64| {
        (prev != Some(first)) as u32 + next.is_some_and(|n| n != second) as u32
    };
    around(y, x) < around(x, y)
}

/// CSI as it stood before the interned-slot schedulers: every slot owns a
/// cloned `Op`, every DP cell re-prices its ops, the bound counts in hash
/// maps, and all three candidates always run. Kept only as the oracle the
/// shipped schedulers are compared against.
#[cfg(test)]
mod reference {
    use super::{
        naive_cost, CostModel, CsiError, CsiOptions, FxHashMap, Op, Schedule, Slot, MAX_THREADS,
    };

    /// What the search did, for the tests that need a mechanism to have
    /// demonstrably fired: which candidate was kept (0 greedy, 1 pairwise,
    /// 2 serial) and whether either improvement ever changed a candidate.
    #[derive(Debug, Default, PartialEq, Eq)]
    pub struct Trace {
        pub winner: usize,
        pub fused: bool,
        pub moved: bool,
    }

    /// Run CSI on the given thread op sequences (thread *t* guards bit *t*).
    pub fn induce_with(
        threads: &[Vec<Op>],
        opts: &CsiOptions,
    ) -> Result<(Schedule, Trace), CsiError> {
        if threads.len() > MAX_THREADS {
            return Err(CsiError::TooManyThreads(threads.len()));
        }
        let costs = &opts.costs;
        let lb = lower_bound(threads, costs);
        let naive = naive_cost(threads, costs);
        let mut trace = Trace::default();

        if threads.iter().all(|t| t.is_empty()) {
            let empty = Schedule {
                slots: vec![],
                cost: 0,
                lower_bound: 0,
                naive_cost: naive,
            };
            return Ok((empty, trace));
        }

        // Three linear schedules: greedy list schedule, hierarchical pairwise
        // DP merge, and plain serialization (sharing can lose to serialization
        // once guard-switch costs are accounted, so serialization stays in the
        // race). Each is improved, then the cheapest wins.
        let candidates = [
            greedy_schedule(threads, costs),
            pairwise_merge_schedule(threads, costs),
            serial_schedule(threads),
        ];
        let mut best: Option<Vec<Slot>> = None;
        for (candidate, mut slots) in candidates.into_iter().enumerate() {
            // Cheap approximate search: fuse adjacent identical ops with
            // disjoint guards (missed sharing), then the permutation-in-range
            // search.
            for _ in 0..opts.max_improve_passes {
                let fused = fuse_adjacent(&mut slots);
                let moved = coalesce_guards(&mut slots);
                trace.fused |= fused;
                trace.moved |= moved;
                if !fused && !moved {
                    break;
                }
            }
            if best
                .as_ref()
                .map(|b| schedule_cost(&slots, costs) < schedule_cost(b, costs))
                .unwrap_or(true)
            {
                best = Some(slots);
                trace.winner = candidate;
            }
        }
        let slots = best.unwrap_or_default();

        let cost = schedule_cost(&slots, costs);
        let schedule = Schedule {
            slots,
            cost,
            lower_bound: lb,
            naive_cost: naive,
        };
        Ok((schedule, trace))
    }

    /// The cost the SIMD machine pays to execute `slots`: op issue costs plus
    /// one guard switch per change of enable mask (the first region's mask
    /// set-up is charged too).
    fn schedule_cost(slots: &[Slot], costs: &CostModel) -> u64 {
        let mut total = 0u64;
        let mut last: Option<u64> = None;
        for s in slots {
            total += costs.op_cost(&s.op) as u64;
            if last != Some(s.active) {
                total += costs.guard_switch as u64;
                last = Some(s.active);
            }
        }
        total
    }

    /// Theoretical lower bound on any valid schedule's cost:
    ///
    /// * any schedule must contain every thread's ops in order, so it costs at
    ///   least the most expensive single thread; and
    /// * a shared slot issues one op for several threads, but each *distinct*
    ///   op must be issued at least `max_t count(op, t)` times (the classic
    ///   supersequence bound), so the per-op bound sums those.
    ///
    /// The returned bound is the max of the two plus one guard set-up.
    fn lower_bound(threads: &[Vec<Op>], costs: &CostModel) -> u64 {
        let per_thread = threads
            .iter()
            .map(|t| costs.block_cost(t))
            .max()
            .unwrap_or(0);
        let mut max_counts: FxHashMap<&Op, u64> = FxHashMap::default();
        for t in threads {
            let mut counts: FxHashMap<&Op, u64> = FxHashMap::default();
            for op in t {
                *counts.entry(op).or_insert(0) += 1;
            }
            for (op, c) in counts {
                let e = max_counts.entry(op).or_insert(0);
                *e = (*e).max(c);
            }
        }
        let per_op: u64 = max_counts
            .iter()
            .map(|(op, c)| *c * costs.op_cost(op) as u64)
            .sum();
        let body = per_thread.max(per_op);
        if body == 0 {
            0
        } else {
            body + costs.guard_switch as u64
        }
    }

    /// Thread-by-thread serialization (the no-CSI baseline, kept as a candidate
    /// because it minimizes guard switches).
    fn serial_schedule(threads: &[Vec<Op>]) -> Vec<Slot> {
        let mut slots = Vec::new();
        for (t, seq) in threads.iter().enumerate() {
            for op in seq {
                slots.push(Slot {
                    op: op.clone(),
                    active: 1u64 << t,
                });
            }
        }
        slots
    }

    /// Greedy list schedule: at each step, among the candidate "next op of some
    /// thread", pick the one shared by the most remaining cost, breaking ties
    /// toward the guard used by the previous slot (to minimize mask switches).
    fn greedy_schedule(threads: &[Vec<Op>], costs: &CostModel) -> Vec<Slot> {
        let n = threads.len();
        let mut pos = vec![0usize; n];
        let mut slots: Vec<Slot> = Vec::new();
        let mut prev_guard = 0u64;
        loop {
            // Candidate next ops.
            let mut cands: Vec<(&Op, u64)> = Vec::new();
            for t in 0..n {
                if pos[t] < threads[t].len() {
                    let op = &threads[t][pos[t]];
                    if let Some(entry) = cands.iter_mut().find(|(o, _)| *o == op) {
                        entry.1 |= 1 << t;
                    } else {
                        cands.push((op, 1 << t));
                    }
                }
            }
            if cands.is_empty() {
                break;
            }
            // Score: shared issue saving, then guard affinity, then op cost
            // (prefer retiring expensive ops when shared widely).
            let (op, active) = cands
                .iter()
                .max_by_key(|(op, mask)| {
                    let width = mask.count_ones() as u64;
                    let saving = (width - 1) * costs.op_cost(op) as u64;
                    let affinity = (*mask == prev_guard) as u64;
                    (saving, affinity, std::cmp::Reverse(costs.op_cost(op)))
                })
                .map(|(op, mask)| ((*op).clone(), *mask))
                .unwrap();
            for (t, p) in pos.iter_mut().enumerate() {
                if active & (1 << t) != 0 {
                    *p += 1;
                }
            }
            prev_guard = active;
            slots.push(Slot { op, active });
        }
        slots
    }

    /// Hierarchical pairwise merging: threads become guarded sequences, sorted
    /// by descending cost; each is merged into the accumulated schedule with an
    /// optimal two-sequence dynamic program (inter-thread CSE on aligned ops).
    fn pairwise_merge_schedule(threads: &[Vec<Op>], costs: &CostModel) -> Vec<Slot> {
        let mut seqs: Vec<Vec<Slot>> = threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, t)| {
                t.iter()
                    .map(|op| Slot {
                        op: op.clone(),
                        active: 1u64 << i,
                    })
                    .collect()
            })
            .collect();
        seqs.sort_by_key(|s| {
            std::cmp::Reverse(s.iter().map(|sl| costs.op_cost(&sl.op) as u64).sum::<u64>())
        });
        let mut acc: Vec<Slot> = Vec::new();
        for seq in seqs {
            acc = merge_two(&acc, &seq, costs);
        }
        acc
    }

    /// Optimal merge of two guarded sequences by dynamic programming: classic
    /// edit-path DP where aligning two slots with equal ops issues one shared
    /// slot (cost charged once). Guard-switch effects are handled afterwards by
    /// the improvement passes.
    fn merge_two(a: &[Slot], b: &[Slot], costs: &CostModel) -> Vec<Slot> {
        if a.is_empty() {
            return b.to_vec();
        }
        if b.is_empty() {
            return a.to_vec();
        }
        let (la, lb) = (a.len(), b.len());
        // dp[i][j]: min cost to schedule a[i..] and b[j..].
        let mut dp = vec![vec![0u64; lb + 1]; la + 1];
        for i in (0..la).rev() {
            dp[i][lb] = dp[i + 1][lb] + costs.op_cost(&a[i].op) as u64;
        }
        for j in (0..lb).rev() {
            dp[la][j] = dp[la][j + 1] + costs.op_cost(&b[j].op) as u64;
        }
        for i in (0..la).rev() {
            for j in (0..lb).rev() {
                let take_a = dp[i + 1][j] + costs.op_cost(&a[i].op) as u64;
                let take_b = dp[i][j + 1] + costs.op_cost(&b[j].op) as u64;
                let mut best = take_a.min(take_b);
                if a[i].op == b[j].op {
                    best = best.min(dp[i + 1][j + 1] + costs.op_cost(&a[i].op) as u64);
                }
                dp[i][j] = best;
            }
        }
        // Reconstruct.
        let mut out = Vec::with_capacity(la + lb);
        let (mut i, mut j) = (0, 0);
        while i < la || j < lb {
            if i < la && j < lb && a[i].op == b[j].op {
                let shared = dp[i + 1][j + 1] + costs.op_cost(&a[i].op) as u64;
                if dp[i][j] == shared {
                    out.push(Slot {
                        op: a[i].op.clone(),
                        active: a[i].active | b[j].active,
                    });
                    i += 1;
                    j += 1;
                    continue;
                }
            }
            if i < la && dp[i][j] == dp[i + 1][j] + costs.op_cost(&a[i].op) as u64 {
                out.push(a[i].clone());
                i += 1;
            } else {
                out.push(b[j].clone());
                j += 1;
            }
        }
        out
    }

    /// Cheap approximate search: adjacent slots with the same op and disjoint
    /// guards can be fused into one shared issue. Returns true if anything
    /// changed.
    fn fuse_adjacent(slots: &mut Vec<Slot>) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i + 1 < slots.len() {
            if slots[i].op == slots[i + 1].op && slots[i].active & slots[i + 1].active == 0 {
                let merged_active = slots[i].active | slots[i + 1].active;
                slots[i].active = merged_active;
                slots.remove(i + 1);
                changed = true;
            } else {
                i += 1;
            }
        }
        changed
    }

    /// Permutation-in-range search: a slot may move past a neighbour when no
    /// thread is active in both (their thread-order dependency ranges overlap
    /// freely), so swapping preserves every thread's subsequence. Swaps are
    /// made when they reduce the number of guard regions (and therefore the
    /// enable-mask switching cost). Returns true if anything moved.
    fn coalesce_guards(slots: &mut [Slot]) -> bool {
        let mut changed = false;
        let n = slots.len();
        // Bidirectional bubble passes.
        for i in 1..n {
            // Try to sink slot i earlier toward a same-guard neighbour.
            let mut j = i;
            while j > 0 && slots[j - 1].active & slots[j].active == 0 && swap_improves(slots, j - 1)
            {
                slots.swap(j - 1, j);
                changed = true;
                j -= 1;
            }
        }
        changed
    }

    /// Would swapping `slots[k]` and `slots[k+1]` reduce guard transitions?
    fn swap_improves(slots: &[Slot], k: usize) -> bool {
        let before = |a: Option<u64>, b: u64| (a != Some(b)) as i32;
        let prev = if k > 0 {
            Some(slots[k - 1].active)
        } else {
            None
        };
        let next = slots.get(k + 2).map(|s| s.active);
        let (x, y) = (slots[k].active, slots[k + 1].active);
        // Transitions around the pair, before and after the swap.
        let cur = before(prev, x) + (x != y) as i32 + next.map(|n| (y != n) as i32).unwrap_or(0);
        let new = before(prev, y) + (y != x) as i32 + next.map(|n| (x != n) as i32).unwrap_or(0);
        new < cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{Addr, BinOp};

    fn c() -> CostModel {
        CostModel::default()
    }

    /// The ms_2_6 factoring from Listing 5: thread 0 = `Push(1); <store x;
    /// load x>`, thread 1 = `Push(2); <same suffix>`. CSI must share the
    /// suffix.
    #[test]
    fn listing5_ms_2_6_factoring() {
        let suffix = vec![Op::Push(0), Op::St(Addr::poly(12)), Op::Ld(Addr::poly(4))];
        let mut t0 = vec![Op::Push(1)];
        t0.extend(suffix.clone());
        let mut t1 = vec![Op::Push(2)];
        t1.extend(suffix.clone());
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        // 2 private prefixes + 3 shared suffix ops = 5 issues (not 8).
        assert_eq!(s.issues(), 5, "{:?}", s.slots);
        let shared = s.slots.iter().filter(|s| s.active == 0b11).count();
        assert_eq!(shared, 3);
        assert!(s.cost < s.naive_cost);
    }

    #[test]
    fn identical_threads_collapse_entirely() {
        let t = vec![Op::Push(7), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let threads = vec![t.clone(), t.clone(), t.clone()];
        let s = induce(&threads).unwrap();
        s.validate(&threads).unwrap();
        assert_eq!(s.issues(), 3);
        assert!(s.slots.iter().all(|sl| sl.active == 0b111));
        assert_eq!(s.guard_regions(), 1);
        assert_eq!(s.cost, s.lower_bound, "identical threads achieve the bound");
    }

    #[test]
    fn disjoint_threads_serialize() {
        let t0 = vec![Op::Push(1), Op::Push(2)];
        let t1 = vec![Op::Bin(BinOp::Mul), Op::Bin(BinOp::Div)];
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        assert_eq!(s.issues(), 4, "nothing shareable");
        assert_eq!(s.cost, s.naive_cost);
    }

    #[test]
    fn single_thread_passthrough() {
        let t = vec![Op::Push(1), Op::Ld(Addr::poly(0)), Op::Bin(BinOp::Add)];
        let s = induce(std::slice::from_ref(&t)).unwrap();
        s.validate(std::slice::from_ref(&t)).unwrap();
        assert_eq!(s.issues(), t.len());
        assert_eq!(s.guard_regions(), 1);
    }

    #[test]
    fn empty_input() {
        let s = induce(&[]).unwrap();
        assert_eq!(s.issues(), 0);
        assert_eq!(s.cost, 0);
        let s = induce(&[vec![], vec![]]).unwrap();
        assert_eq!(s.issues(), 0);
    }

    #[test]
    fn too_many_threads_error() {
        let threads: Vec<Vec<Op>> = (0..65).map(|_| vec![Op::Push(0)]).collect();
        assert_eq!(induce(&threads), Err(CsiError::TooManyThreads(65)));
    }

    #[test]
    fn cost_between_bounds() {
        let t0 = vec![Op::Push(1), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let t1 = vec![Op::Push(2), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let t2 = vec![Op::Push(1), Op::Bin(BinOp::Mul)];
        let threads = vec![t0, t1, t2];
        let s = induce(&threads).unwrap();
        s.validate(&threads).unwrap();
        assert!(
            s.lower_bound <= s.cost,
            "lb {} > cost {}",
            s.lower_bound,
            s.cost
        );
        assert!(
            s.cost <= s.naive_cost,
            "cost {} > naive {}",
            s.cost,
            s.naive_cost
        );
    }

    #[test]
    fn repeated_ops_within_thread_respect_multiplicity() {
        // Thread 0 needs Push(1) twice; thread 1 once. Supersequence must
        // issue Push(1) at least twice.
        let t0 = vec![Op::Push(1), Op::Push(1)];
        let t1 = vec![Op::Push(1)];
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        assert_eq!(s.issues(), 2);
    }

    #[test]
    fn guard_coalescing_reduces_regions() {
        // Threads with interleavable private ops: a good schedule groups
        // each thread's private ops contiguously.
        let t0 = vec![Op::Push(1), Op::Push(2), Op::Push(3)];
        let t1 = vec![
            Op::Bin(BinOp::Mul),
            Op::Bin(BinOp::Div),
            Op::Bin(BinOp::Rem),
        ];
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        assert_eq!(s.guard_regions(), 2, "{:?}", s.slots);
    }

    #[test]
    fn lower_bound_accounts_for_heavier_thread() {
        let t0 = vec![Op::Bin(BinOp::Div); 4]; // 64 cycles
        let t1 = vec![Op::Push(0)];
        let lb = lower_bound(&[t0, t1], &c());
        assert!(lb >= 64);
    }

    /// The shipped schedule, checked equal to the reference's, with the
    /// reference's account of how it got there.
    fn differential(threads: &[Vec<Op>], opts: &CsiOptions) -> (Schedule, reference::Trace) {
        let (want, trace) = reference::induce_with(threads, opts).unwrap();
        let got = induce_with(threads, opts).unwrap();
        got.validate(threads).unwrap();
        assert_eq!(got, want);
        (got, trace)
    }

    fn passes(costs: CostModel, max_improve_passes: u32) -> CsiOptions {
        CsiOptions {
            costs,
            max_improve_passes,
        }
    }

    /// Serialization puts thread 0's trailing `Ld` next to thread 1's
    /// leading one; fusing them is what makes the serial schedule the
    /// strictly cheapest. Without the improvement passes nothing fuses and
    /// the greedy schedule is kept.
    #[test]
    fn fuse_adjacent_fires_and_serialization_wins() {
        let x = Addr::poly(0);
        let t0 = vec![
            Op::Push(0),
            Op::Ld(x),
            Op::St(x),
            Op::Bin(BinOp::Add),
            Op::Ld(x),
        ];
        let threads = [t0, vec![Op::Ld(x), Op::Push(1)]];
        let (improved, trace) = differential(&threads, &passes(c(), 64));
        assert!(
            trace.fused && !trace.moved && trace.winner == 2,
            "{trace:?}"
        );
        assert_eq!((improved.cost, improved.issues()), (12, 6));
        let (plain, trace) = differential(&threads, &passes(c(), 0));
        assert!(!trace.fused && trace.winner == 0, "{trace:?}");
        assert_eq!(plain.cost, 13);

        let mut inducer = Inducer::default();
        let slices: Vec<&[Op]> = threads.iter().map(Vec::as_slice).collect();
        inducer.induce(&slices, &passes(c(), 64)).unwrap();
        assert_eq!(
            (inducer.candidates_tried, inducer.lower_bound_exits),
            (3, 0)
        );
    }

    /// With a dear guard switch, the permutation-in-range search regroups
    /// the greedy schedule into fewer guard regions, and that is the
    /// schedule kept.
    #[test]
    fn coalesce_guards_fires_and_changes_the_winner() {
        let x = Addr::poly(0);
        let threads = [
            vec![Op::St(x)],
            vec![Op::Ld(x), Op::Bin(BinOp::Add), Op::Push(0)],
            vec![Op::Ld(x), Op::Bin(BinOp::Add)],
            vec![Op::St(x), Op::Ld(x), Op::Dup],
        ];
        let dear = CostModel {
            guard_switch: 4,
            ..c()
        };
        let (improved, trace) = differential(&threads, &passes(dear.clone(), 64));
        assert!(
            trace.moved && !trace.fused && trace.winner == 0,
            "{trace:?}"
        );
        let (plain, trace) = differential(&threads, &passes(dear, 0));
        assert!(!trace.moved, "{trace:?}");
        assert_eq!((plain.cost, improved.cost), (27, 25));
        assert!(improved.guard_regions() < plain.guard_regions());
    }

    #[test]
    fn stats_count_problems_not_slots() {
        let t = vec![Op::Push(7), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let other = vec![Op::Bin(BinOp::Mul), Op::Bin(BinOp::Div)];
        let opts = CsiOptions::default();
        let mut inducer = Inducer::default();
        // Identical threads: greedy meets the bound, the other two are skipped.
        inducer.induce(&[&t, &t, &t], &opts).unwrap();
        // One busy thread: no search. No busy thread: no schedule.
        let alone = inducer.induce(&[&[], &t], &opts).unwrap();
        assert_eq!(
            alone,
            reference::induce_with(&[vec![], t.clone()], &opts)
                .unwrap()
                .0
        );
        inducer.induce(&[&[], &[]], &opts).unwrap();
        // Nothing shareable: no candidate meets the bound, all three run.
        inducer.induce(&[&t, &other], &opts).unwrap();
        assert_eq!((inducer.problems, inducer.single_thread), (4, 1));
        assert_eq!(
            (inducer.candidates_tried, inducer.lower_bound_exits),
            (1 + 3, 1)
        );
    }

    #[test]
    fn shared_prefix_and_suffix_with_divergent_middle() {
        let pre = vec![Op::Ld(Addr::poly(0)), Op::Push(10)];
        let post = vec![Op::St(Addr::poly(1))];
        let mut t0 = pre.clone();
        t0.push(Op::Bin(BinOp::Add));
        t0.extend(post.clone());
        let mut t1 = pre.clone();
        t1.push(Op::Bin(BinOp::Sub));
        t1.extend(post.clone());
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        // 2 shared prefix + 2 divergent + 1 shared suffix = 5.
        assert_eq!(s.issues(), 5, "{:?}", s.slots);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use msc_ir::{Addr, BinOp};
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0i64..4).prop_map(Op::Push),
            (0u32..4).prop_map(|i| Op::Ld(Addr::poly(i))),
            (0u32..4).prop_map(|i| Op::St(Addr::poly(i))),
            Just(Op::Bin(BinOp::Add)),
            Just(Op::Bin(BinOp::Mul)),
            Just(Op::Dup),
        ]
    }

    fn arb_threads() -> impl Strategy<Value = Vec<Vec<Op>>> {
        prop::collection::vec(prop::collection::vec(arb_op(), 0..12), 1..6)
    }

    proptest! {
        /// The fundamental CSI invariant: every thread's enabled
        /// subsequence equals its input, and cost sits between the
        /// theoretical lower bound and naive serialization.
        #[test]
        fn schedule_is_valid_and_bounded(threads in arb_threads()) {
            let s = induce(&threads).unwrap();
            prop_assert!(s.validate(&threads).is_ok());
            prop_assert!(s.cost <= s.naive_cost);
            prop_assert!(s.lower_bound <= s.cost);
        }

        /// Scheduling is deterministic.
        #[test]
        fn deterministic(threads in arb_threads()) {
            let a = induce(&threads).unwrap();
            let b = induce(&threads).unwrap();
            prop_assert_eq!(a, b);
        }

        /// Two identical threads share every instruction: the schedule has
        /// exactly one issue per op, all under the joint guard.
        #[test]
        fn identical_pair_shares_fully(thread in prop::collection::vec(arb_op(), 1..12)) {
            let threads = vec![thread.clone(), thread.clone()];
            let s = induce(&threads).unwrap();
            prop_assert!(s.validate(&threads).is_ok());
            prop_assert_eq!(s.issues(), thread.len());
            prop_assert!(s.slots.iter().all(|sl| sl.active == 0b11));
        }
    }

    /// A second machine: non-unit, mutually different costs, and a guard
    /// switch dear enough for serialization to compete.
    fn dear_guards() -> CostModel {
        CostModel {
            stack: 2,
            int_simple: 3,
            int_mul: 7,
            mem_local: 5,
            guard_switch: 4,
            ..CostModel::default()
        }
    }

    proptest! {
        /// New ≡ old: the interned schedulers return the `Schedule` (slots,
        /// cost, lower bound, naive cost) the `Op`-cloning ones return, on
        /// either machine and at any number of improvement passes.
        #[test]
        fn differential_against_reference(
            threads in prop::collection::vec(prop::collection::vec(arb_op(), 0..24), 0..8),
            max_improve_passes in prop_oneof![Just(0u32), Just(1), Just(64)],
        ) {
            for costs in [CostModel::default(), dear_guards()] {
                let opts = CsiOptions { costs, max_improve_passes };
                let (want, _) = reference::induce_with(&threads, &opts).unwrap();
                prop_assert_eq!(induce_with(&threads, &opts).unwrap(), want);
                prop_assert_eq!(lower_bound(&threads, &opts.costs), want.lower_bound);
            }
        }
    }
}
