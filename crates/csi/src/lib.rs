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
//! An [`Inducer`] schedules the meta states of one program: it interns each
//! member's ops to dense ids with a price table once, and memoises the
//! pairwise merges by ordered member prefix; only the winning schedule is
//! mapped back to ops.

use msc_ir::util::FxHashMap;
use msc_ir::{CostModel, Op, StateId};
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
    Inducer::default().induce(&numbered(threads), |m| &threads[m.idx()], opts)
}

/// Member ids `0..n` for `n` anonymous threads.
fn numbered(threads: &[Vec<Op>]) -> Vec<StateId> {
    (0..threads.len() as u32).map(StateId).collect()
}

/// Most slots the pairwise-merge memo of one [`Inducer`] holds. Past it a
/// merge is still made, just not stored; the output does not depend on
/// what the memo holds.
const MEMO_SLOTS: usize = 1 << 15;

/// The CSI scheduler of one program, with its scratch and its counters.
///
/// A problem is posed by member id: thread *t* is the op list of
/// `members[t]`, and an id must name the same op list for the life of the
/// value (code generation keeps one per program and poses each meta state
/// by its member `StateId`s; [`induce_with`] poses one problem to a fresh
/// one). Each member's ops are interned to program-wide ids once, and the
/// pairwise merge chain is memoised by its ordered member prefix, so a meta
/// state pays only for the merges no earlier one made. No id value decides
/// a tie, so every schedule is the one a fresh value builds.
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
    /// Pairwise merges served from the memo instead of a DP.
    pub merges_reused: u64,
    /// Member threads interned (each once while the cost model holds).
    pub threads_interned: u64,
    /// The cost model the prices and the memo were built under: a problem
    /// posed under another one starts both afresh.
    costs: Option<CostModel>,
    interned: Interned,
    memo: Memo,
    scratch: Scratch,
}

/// Every op and member thread the [`Inducer`] has seen, on dense ids.
#[derive(Debug, Default)]
struct Interned {
    ids: FxHashMap<Op, u32>,
    /// Per id: the op and its issue cost.
    ops: Vec<Op>,
    price: Vec<u64>,
    /// Per member id: its thread, once interned.
    members: Vec<Option<Thread>>,
    /// Every interned thread's op ids, back to back.
    seq: Vec<u32>,
}

/// One member's op ids (`Interned::seq[start..end]`) and their cost.
#[derive(Debug, Clone, Copy)]
struct Thread {
    start: u32,
    end: u32,
    cost: u64,
}

impl Thread {
    fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// Pairwise merge results by ordered member prefix: a trie whose node for
/// `m0 … mk` holds the merge of those threads in that order, guard bit `j`
/// standing for the `j`-th thread merged. A problem remaps the bits to its
/// own thread numbers, so any problem whose chain starts with `m0 … mk`
/// can reuse the node.
#[derive(Debug, Default)]
struct Memo {
    /// Every stored merge result, back to back; at most [`MEMO_SLOTS`].
    slots: Vec<IdSlot>,
    /// Per node: its result's `slots` range.
    nodes: Vec<(u32, u32)>,
    /// (parent node, member merged next) → child node.
    children: FxHashMap<(u32, StateId), u32>,
}

/// The parent of every chain's first merge: the empty schedule.
const ROOT: u32 = u32::MAX;

impl Memo {
    fn result(&self, node: u32) -> &[IdSlot] {
        match node {
            ROOT => &[],
            n => {
                let (start, end) = self.nodes[n as usize];
                &self.slots[start as usize..end as usize]
            }
        }
    }

    /// Store `slots` as the child of `parent` by `member`, if they fit.
    fn insert(&mut self, parent: u32, member: StateId, slots: &[IdSlot]) -> Option<u32> {
        if self.slots.len() + slots.len() > MEMO_SLOTS {
            return None;
        }
        let start = self.slots.len() as u32;
        self.slots.extend_from_slice(slots);
        let node = self.nodes.len() as u32;
        self.nodes.push((start, self.slots.len() as u32));
        self.children.insert((parent, member), node);
        Some(node)
    }
}

/// Buffers reused by every problem: `count` and `max_count` are left
/// zeroed, the others are written before they are read.
#[derive(Debug, Default)]
struct Scratch {
    /// The problem's threads, thread *t* at index *t*.
    threads: Vec<Thread>,
    /// Per op id: occurrences (lower bound) or waiting threads (greedy).
    count: Vec<u64>,
    max_count: Vec<u64>,
    /// The flat two-sequence DP table, reused by every pairwise merge.
    dp: Vec<u64>,
    /// The merge chain when it has left the memo, and the next merge.
    acc: Vec<IdSlot>,
    next: Vec<IdSlot>,
}

impl Inducer {
    /// Schedule the meta state whose members are `members`, thread *t*
    /// (guard bit *t*) being `thread(members[t])`. `thread` is asked which
    /// members are busy, and for the ops of a member not seen before: only
    /// those are interned.
    pub fn induce<'a>(
        &mut self,
        members: &[StateId],
        thread: impl Fn(StateId) -> &'a [Op],
        opts: &CsiOptions,
    ) -> Result<Schedule, CsiError> {
        if members.len() > MAX_THREADS {
            return Err(CsiError::TooManyThreads(members.len()));
        }
        self.problems += 1;
        let mut busy = members
            .iter()
            .enumerate()
            .filter(|(_, &m)| !thread(m).is_empty());
        let (t, &only) = match (busy.next(), busy.next()) {
            (None, _) => return Ok(Schedule::default()),
            (Some(one), None) => one,
            _ => return Ok(self.search(members, thread, opts)),
        };
        // One non-empty thread is its own schedule: every candidate of the
        // search would reproduce it, at the lower bound.
        self.single_thread += 1;
        let only = thread(only);
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

    /// Intern the members not seen before (under `costs`) and set the
    /// problem's threads in `scratch.threads`.
    fn pose<'a>(
        &mut self,
        members: &[StateId],
        thread: impl Fn(StateId) -> &'a [Op],
        costs: &CostModel,
    ) {
        if self.costs.as_ref() != Some(costs) {
            self.costs = Some(costs.clone());
            self.interned = Interned::default();
            self.memo = Memo::default();
        }
        let problem = &mut self.scratch.threads;
        problem.clear();
        for &m in members {
            let known = self.interned.members.get(m.idx()).copied().flatten();
            let interned = known.unwrap_or_else(|| {
                self.threads_interned += 1;
                self.interned.intern(m, thread(m), costs)
            });
            problem.push(interned);
        }
        let ops = self.interned.ops.len();
        self.scratch.count.resize(ops, 0);
        self.scratch.max_count.resize(ops, 0);
    }

    /// Three linear schedules: greedy list schedule, hierarchical pairwise
    /// DP merge, and plain serialization (sharing can lose to serialization
    /// once guard-switch costs are accounted, so serialization stays in the
    /// race). Each is improved, then the first of the cheapest wins.
    fn search<'a>(
        &mut self,
        members: &[StateId],
        thread: impl Fn(StateId) -> &'a [Op],
        opts: &CsiOptions,
    ) -> Schedule {
        let guard_switch = opts.costs.guard_switch as u64;
        self.pose(members, thread, &opts.costs);
        let lower_bound = self.lower_bound(guard_switch);
        let mut best: Option<(u64, Vec<IdSlot>)> = None;
        for candidate in 0..3 {
            let mut slots = match candidate {
                0 => self.greedy_schedule(),
                1 => self.pairwise_merge_schedule(members),
                _ => self.serial_schedule(),
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
            let cost = self.interned.schedule_cost(&slots, guard_switch);
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
        let ops = &self.interned.ops;
        let slot = |s: IdSlot| Slot {
            op: ops[s.id as usize].clone(),
            active: s.active,
        };
        let busy = self.scratch.threads.iter().filter(|t| !t.is_empty());
        Schedule {
            slots: slots.into_iter().map(slot).collect(),
            cost,
            lower_bound,
            naive_cost: busy.map(|t| t.cost + guard_switch).sum(),
        }
    }

    /// [`lower_bound`], with the per-thread occurrence counts in dense
    /// arrays indexed by op id, left zeroed for the next problem.
    fn lower_bound(&mut self, guard_switch: u64) -> u64 {
        let Scratch {
            threads,
            count,
            max_count,
            ..
        } = &mut self.scratch;
        let interned = &self.interned;
        let per_thread = threads.iter().map(|t| t.cost).max().unwrap_or(0);
        for &t in threads.iter() {
            let ids = interned.ids_of(t);
            ids.iter().for_each(|&id| count[id as usize] += 1);
            for &id in ids {
                let c = std::mem::take(&mut count[id as usize]);
                max_count[id as usize] = max_count[id as usize].max(c);
            }
        }
        let mut per_op = 0;
        for &t in threads.iter() {
            for &id in interned.ids_of(t) {
                per_op += std::mem::take(&mut max_count[id as usize]) * interned.price[id as usize];
            }
        }
        match per_thread.max(per_op) {
            0 => 0,
            body => body + guard_switch,
        }
    }

    /// Thread-by-thread serialization (the no-CSI baseline, kept as a
    /// candidate because it minimizes guard switches).
    fn serial_schedule(&self) -> Vec<IdSlot> {
        let threads = self.scratch.threads.iter().enumerate();
        let guarded = threads.flat_map(|(t, &thread)| {
            let active = 1u64 << t;
            let ids = self.interned.ids_of(thread);
            ids.iter().map(move |&id| IdSlot { id, active })
        });
        guarded.collect()
    }

    /// Greedy list schedule: at each step, among the candidate "next op of
    /// some thread", pick the one shared by the most remaining cost, breaking
    /// ties toward the guard used by the previous slot (to minimize mask
    /// switches).
    fn greedy_schedule(&mut self) -> Vec<IdSlot> {
        let Scratch { threads, count, .. } = &mut self.scratch;
        let (seq, price) = (&self.interned.seq, &self.interned.price);
        let waiting = count;
        let mut pos: Vec<u32> = threads.iter().map(|t| t.start).collect();
        let mut slots =
            Vec::with_capacity(threads.iter().map(|t| (t.end - t.start) as usize).sum());
        // Candidate next ops in order of first appearance, and which threads
        // are waiting on each.
        let mut cands: Vec<u32> = Vec::new();
        let mut prev_guard = 0u64;
        loop {
            for (t, &at) in pos.iter().enumerate() {
                if at < threads[t].end {
                    let id = seq[at as usize];
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
                    let price = price[id as usize];
                    let saving = (mask.count_ones() as u64 - 1) * price;
                    (saving, mask == prev_guard, std::cmp::Reverse(price))
                });
            let Some((id, active)) = pick else {
                return slots;
            };
            for (t, p) in pos.iter_mut().enumerate() {
                *p += (active >> t & 1) as u32;
            }
            prev_guard = active;
            slots.push(IdSlot { id, active });
        }
    }

    /// Hierarchical pairwise merging: threads, sorted by descending cost,
    /// are merged one by one into the accumulated schedule with an optimal
    /// two-sequence dynamic program (inter-thread CSE on aligned ops).
    ///
    /// The chain runs on merge positions (the `j`-th thread merged guards
    /// bit `j`) and walks the memo while its prefix is there; the result is
    /// remapped to thread bits at the end.
    fn pairwise_merge_schedule(&mut self, members: &[StateId]) -> Vec<IdSlot> {
        let Scratch {
            threads,
            dp,
            acc,
            next,
            ..
        } = &mut self.scratch;
        let (interned, memo) = (&self.interned, &mut self.memo);
        let mut order: Vec<usize> = (0..threads.len())
            .filter(|&t| !threads[t].is_empty())
            .collect();
        order.sort_by_key(|&t| std::cmp::Reverse(threads[t].cost));
        // The memo node holding the chain so far; `None` once the chain
        // has outgrown the memo and lives in `acc`.
        let mut at = Some(ROOT);
        acc.clear();
        for (j, &t) in order.iter().enumerate() {
            let m = members[t];
            if let Some(&child) = at.and_then(|node| memo.children.get(&(node, m))) {
                self.merges_reused += 1;
                at = Some(child);
                continue;
            }
            let merged = at.map_or(acc.as_slice(), |node| memo.result(node));
            let b = interned.ids_of(threads[t]);
            merge_two(&interned.price, merged, b, 1u64 << j, dp, next);
            at = at.and_then(|node| memo.insert(node, m, next));
            if at.is_none() {
                std::mem::swap(acc, next);
            }
        }
        let chain = at.map_or(acc.as_slice(), |node| memo.result(node));
        let slots = chain.iter().map(|s| {
            let mut active = 0;
            let mut rest = s.active;
            while rest != 0 {
                active |= 1u64 << order[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            IdSlot { id: s.id, active }
        });
        slots.collect()
    }
}

impl Interned {
    /// Intern `member`'s ops and record its thread.
    fn intern(&mut self, member: StateId, ops: &[Op], costs: &CostModel) -> Thread {
        let start = self.seq.len() as u32;
        let mut cost = 0;
        for op in ops {
            let next = self.ops.len() as u32;
            let id = *self.ids.entry(op.clone()).or_insert(next);
            if id == next {
                self.ops.push(op.clone());
                self.price.push(costs.op_cost(op) as u64);
            }
            cost += self.price[id as usize];
            self.seq.push(id);
        }
        let thread = Thread {
            start,
            end: self.seq.len() as u32,
            cost,
        };
        if self.members.len() <= member.idx() {
            self.members.resize(member.idx() + 1, None);
        }
        self.members[member.idx()] = Some(thread);
        thread
    }

    fn ids_of(&self, t: Thread) -> &[u32] {
        &self.seq[t.start as usize..t.end as usize]
    }

    fn schedule_cost(&self, slots: &[IdSlot], guard_switch: u64) -> u64 {
        let issue: u64 = slots.iter().map(|s| self.price[s.id as usize]).sum();
        issue + guard_switch * guard_regions(slots.iter().map(|s| s.active))
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
    let mut inducer = Inducer::default();
    inducer.pose(&numbered(threads), |m| &threads[m.idx()], costs);
    inducer.lower_bound(costs.guard_switch as u64)
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

/// One issued instruction of an interned problem: the op's dense id and
/// the bitmask of enabled threads. `Copy`, so the schedulers move and
/// compare words where [`Slot`] would clone and compare `Op`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdSlot {
    id: u32,
    active: u64,
}

/// Optimal merge of a guarded sequence `a` with thread `b` (guard `bit`)
/// into `out`, by dynamic programming: classic edit-path DP where aligning
/// two slots with equal ops issues one shared slot (cost charged once).
/// Guard-switch effects are handled afterwards by the improvement passes.
fn merge_two(
    price: &[u64],
    a: &[IdSlot],
    b: &[u32],
    bit: u64,
    dp: &mut Vec<u64>,
    out: &mut Vec<IdSlot>,
) {
    let price = |id: u32| price[id as usize];
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
    out.clear();
    out.reserve(la + lb);
    let (mut i, mut j) = (0, 0);
    while i < la || j < lb {
        let here = dp[i * w + j];
        if i < la && j < lb && a[i].id == b[j] && here == dp[(i + 1) * w + j + 1] + price(b[j]) {
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
        let members = numbered(&threads);
        inducer
            .induce(&members, |m| &threads[m.idx()], &passes(c(), 64))
            .unwrap();
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
        let pool = [t.clone(), t.clone(), t.clone(), other, vec![], vec![]];
        let ops = |m: StateId| pool[m.idx()].as_slice();
        let ids = |ids: &[u32]| ids.iter().map(|&i| StateId(i)).collect::<Vec<_>>();
        let mut inducer = Inducer::default();
        // Identical threads: greedy meets the bound, the other two are skipped.
        inducer.induce(&ids(&[0, 1, 2]), ops, &opts).unwrap();
        // One busy thread: no search. No busy thread: no schedule.
        let alone = inducer.induce(&ids(&[4, 0]), ops, &opts).unwrap();
        assert_eq!(
            alone,
            reference::induce_with(&[vec![], t.clone()], &opts)
                .unwrap()
                .0
        );
        inducer.induce(&ids(&[4, 5]), ops, &opts).unwrap();
        // Nothing shareable: no candidate meets the bound, all three run.
        inducer.induce(&ids(&[0, 3]), ops, &opts).unwrap();
        assert_eq!((inducer.problems, inducer.single_thread), (4, 1));
        assert_eq!(
            (inducer.candidates_tried, inducer.lower_bound_exits),
            (1 + 3, 1)
        );
        // Only searched problems intern, each member once; the one pairwise
        // chain had nothing to reuse.
        assert_eq!((inducer.threads_interned, inducer.merges_reused), (4, 0));
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

    /// A small deterministic generator (64-bit LCG, high bits out).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }

        fn op(&mut self) -> Op {
            let x = Addr::poly(self.below(3) as u32);
            match self.below(6) {
                0 => Op::Push(self.below(3) as i64),
                1 => Op::Ld(x),
                2 => Op::St(x),
                3 => Op::Bin(BinOp::Add),
                4 => Op::Bin(BinOp::Mul),
                _ => Op::Dup,
            }
        }

        /// `n` distinct members drawn from `0..pool`, in drawn order. A
        /// meta state lists its members sorted, but the scheduler must not
        /// rely on that, and unsorted lists break cost ties between two
        /// members one way in one problem and the other way in the next.
        fn members(&mut self, pool: usize, n: usize) -> Vec<StateId> {
            let mut ids: Vec<u32> = (0..pool as u32).collect();
            for i in 0..n {
                let j = i + self.below((pool - i) as u64) as usize;
                ids.swap(i, j);
            }
            ids[..n].iter().map(|&i| StateId(i)).collect()
        }
    }

    /// Member threads that meet every case the memo must get right:
    /// identical op lists under different ids, equal-cost threads (a list
    /// and its reverse), empty threads, and repeated ops.
    fn member_pool(rng: &mut Lcg) -> Vec<Vec<Op>> {
        let mut pool: Vec<Vec<Op>> = (0..10)
            .map(|_| (0..1 + rng.below(10)).map(|_| rng.op()).collect())
            .collect();
        pool.push(pool[0].clone());
        pool.push(pool[1].iter().rev().cloned().collect());
        pool.push(pool[2].iter().rev().cloned().collect());
        pool.push(vec![]);
        pool.push(vec![]);
        pool.push(vec![Op::Dup; 4]);
        pool
    }

    fn cost_models() -> [CostModel; 3] {
        let dear = CostModel {
            stack: 2,
            int_simple: 3,
            int_mul: 7,
            mem_local: 5,
            guard_switch: 4,
            ..c()
        };
        let flat = CostModel {
            mem_local: 1,
            int_mul: 1,
            guard_switch: 0,
            ..c()
        };
        [c(), dear, flat]
    }

    /// One `Inducer` posed a stream of meta states drawn from one member
    /// pool returns, problem by problem, the reference's schedule: what it
    /// interned and memoised for earlier problems changes nothing. A
    /// second `Inducer` sees every problem under all three cost models in
    /// turn, so its prices and memo start over at each change of model.
    #[test]
    fn one_long_lived_inducer_matches_the_reference() {
        let mut rng = Lcg(7);
        let pool = member_pool(&mut rng);
        let problems: Vec<Vec<StateId>> = (0..240)
            .map(|_| {
                let n = 2 + rng.below(5) as usize;
                rng.members(pool.len(), n)
            })
            .collect();
        let ops = |m: StateId| pool[m.idx()].as_slice();
        let mut mixed = Inducer::default();
        for costs in cost_models() {
            let opts = passes(costs, 64);
            let mut inducer = Inducer::default();
            for members in &problems {
                let threads: Vec<Vec<Op>> = members.iter().map(|&m| ops(m).to_vec()).collect();
                let (want, _) = reference::induce_with(&threads, &opts).unwrap();
                assert_eq!(inducer.induce(members, ops, &opts).unwrap(), want);
                let mixed_opts = passes(cost_models()[members.len() % 3].clone(), 64);
                let (want, _) = reference::induce_with(&threads, &mixed_opts).unwrap();
                assert_eq!(mixed.induce(members, ops, &mixed_opts).unwrap(), want);
            }
            assert_eq!(inducer.threads_interned, pool.len() as u64);
            assert!(inducer.merges_reused > 100, "{inducer:?}");
        }
    }

    /// The memo never holds more than `MEMO_SLOTS` slots, and a stream that
    /// outgrows it gets the schedules a fresh scheduler builds, both while
    /// it fills and once it is full.
    #[test]
    fn the_merge_memo_stays_under_its_cap_and_the_cap_changes_no_schedule() {
        let mut rng = Lcg(11);
        let pool: Vec<Vec<Op>> = (0..48)
            .map(|_| (0..40 + rng.below(40)).map(|_| rng.op()).collect())
            .collect();
        let ops = |m: StateId| pool[m.idx()].as_slice();
        let opts = CsiOptions::default();
        let mut inducer = Inducer::default();
        let mut full = 0;
        for _ in 0..40 {
            let members = rng.members(pool.len(), 12);
            let nodes = inducer.memo.nodes.len();
            let reused = inducer.merges_reused;
            let got = inducer.induce(&members, ops, &opts).unwrap();
            let threads: Vec<Vec<Op>> = members.iter().map(|&m| ops(m).to_vec()).collect();
            assert_eq!(got, induce_with(&threads, &opts).unwrap());
            assert!(inducer.memo.slots.len() <= MEMO_SLOTS);
            // Every merge of the chain was either reused or stored, or the
            // memo had no room for it.
            let stored = inducer.memo.nodes.len() - nodes;
            let reused = (inducer.merges_reused - reused) as usize;
            full += (stored + reused < members.len()) as usize;
        }
        assert!(full > 10, "the stream hit the cap only {full} times");
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
