//! The meta-state conversion algorithm (§2 of the paper).
//!
//! "The process of converting a set of MIMD states that exist at a
//! particular point in time into a single meta state is strikingly similar
//! to the process of converting an NFA into a DFA."
//!
//! [`convert`] implements:
//!
//! * the **base algorithm** (§2.3): subset construction where each member
//!   MIMD state with a conditional branch contributes three successor
//!   choices — TRUE, FALSE, or both — so *n* branching members yield up to
//!   3ⁿ successor meta states (generalized here to 2ᵏ−1 choices for the
//!   k-ary multiway branches produced by inline-expanded returns, §2.2);
//! * **meta-state compression** (§2.5): "a very dramatic reduction in meta
//!   state space can be obtained by simply assuming that both successors
//!   are always taken", plus the subset-subsumption fold implied by "the
//!   case of both successors can always emulate either successor";
//! * **MIMD state time splitting** (§2.4): invoked on each meta state as
//!   it is created; any split restarts the construction "to ensure that
//!   the final meta-state automaton is consistent";
//! * the **barrier synchronization algorithm** (§2.6): barrier-wait members
//!   are removed from a meta state unless every member has reached the
//!   barrier.

use crate::automaton::{MetaAutomaton, MetaId, SuccTable};
use crate::stateset::{fx_hash, SetArena, SetId, SetList, StateSet, Window};
use msc_ir::graph::GraphError;
use msc_ir::util::{FxHashMap, FxHashSet};
use msc_ir::{CostModel, MimdGraph, StateId, Terminator};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Which successor-choice rule the subset construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvertMode {
    /// §2.3: every branching member contributes TRUE / FALSE / both.
    Base,
    /// §2.5: every branching member contributes *both* successors, always.
    Compressed,
}

/// Parameters of the §2.4 time-splitting heuristic. Field names follow the
/// paper's pseudocode (`split_delta`, `split_percent`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSplitOptions {
    /// Noise level: no split when `min + split_delta > max` within a meta
    /// state ("the difference between times is already at noise level").
    pub split_delta: u64,
    /// No split when `min > split_percent × max / 100` ("the utilization is
    /// already sure to be greater than an acceptable percentage").
    pub split_percent: u32,
    /// Safety bound on construction restarts.
    pub max_restarts: u32,
}

impl Default for TimeSplitOptions {
    fn default() -> Self {
        TimeSplitOptions {
            split_delta: 4,
            split_percent: 75,
            max_restarts: 10_000,
        }
    }
}

/// Options controlling [`convert`].
#[derive(Debug, Clone)]
pub struct ConvertOptions {
    /// Base or compressed subset construction.
    pub mode: ConvertMode,
    /// Fold meta states that are strict subsets of another into the
    /// superset (the Figure 5 "2 meta states instead of 8" result).
    /// Defaults on for [`ConvertMode::Compressed`], off for Base.
    pub subsumption: bool,
    /// Enable §2.4 time splitting.
    pub time_split: Option<TimeSplitOptions>,
    /// Honour barrier-wait states per §2.6. When false, `wait` markers are
    /// ignored (useful for measuring what barriers buy).
    pub respect_barriers: bool,
    /// Explosion guard: conversion fails once more than this many meta
    /// states exist (§1.2 problem 1: up to S!/(S−N)! states are possible).
    pub max_meta_states: usize,
    /// Guard on the number of distinct successor sets enumerated for a
    /// single meta state (3ⁿ in base mode before deduplication).
    pub max_successor_sets: usize,
    /// Widest `Multi` terminator the base mode will enumerate subsets of.
    pub max_multi_arity: usize,
    /// Resident-memory budget in bytes for the arena's word stream, the
    /// interned sets' member words: its resident suffix, the block cache
    /// over its spilled prefix and its reload buffers stay within it, and
    /// past it cold words spill to a temp file. Nothing else is in it.
    /// Every meta state keeps at least 93 bytes resident whatever the
    /// budget — the arena's count and span (4 + 16), its hash-index slots
    /// (≥ 32), its latent set (32), its successor span (8) and worklist
    /// flag (1) — beside the 4 bytes of each stored successor edge and
    /// each queued id, the expansion owners' keys and the finished
    /// automaton's sets; that part is O(meta states) and capped by
    /// `max_meta_states` above.
    /// `None` = never spill. Defaults to the process-wide
    /// `MSC_MEMORY_BUDGET` (bytes, `k`/`m`/`g` suffixes), when set.
    pub memory_budget: Option<usize>,
    /// Cycle cost model used for time splitting.
    pub costs: CostModel,
}

impl ConvertOptions {
    /// Defaults for the base algorithm (§2.3).
    pub fn base() -> Self {
        ConvertOptions {
            mode: ConvertMode::Base,
            subsumption: false,
            time_split: None,
            respect_barriers: true,
            max_meta_states: 1 << 20,
            max_successor_sets: 1 << 16,
            max_multi_arity: 16,
            memory_budget: crate::spill::default_memory_budget(),
            costs: CostModel::default(),
        }
    }

    /// Defaults for compressed conversion (§2.5), with subsumption.
    pub fn compressed() -> Self {
        ConvertOptions {
            mode: ConvertMode::Compressed,
            subsumption: true,
            ..Self::base()
        }
    }
}

impl Default for ConvertOptions {
    fn default() -> Self {
        Self::base()
    }
}

/// Failures of [`convert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// The input graph is malformed.
    Graph(GraphError),
    /// The meta-state space exceeded [`ConvertOptions::max_meta_states`].
    TooManyMetaStates {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// A single meta state produced more candidate successor sets than
    /// [`ConvertOptions::max_successor_sets`].
    TooManySuccessorSets {
        /// The meta state whose successors exploded.
        meta: StateSet,
        /// The configured limit that was hit.
        limit: usize,
    },
    /// A `Multi` terminator is too wide to enumerate subsets of in base
    /// mode.
    MultiTooWide {
        /// The offending MIMD state.
        state: StateId,
        /// Its arity.
        arity: usize,
    },
    /// Time splitting kept restarting the construction past its bound.
    TimeSplitDiverged {
        /// Restarts performed before giving up.
        restarts: u32,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::Graph(e) => write!(f, "invalid MIMD graph: {e}"),
            ConvertError::TooManyMetaStates { limit } => {
                write!(f, "meta-state space exceeded the guard of {limit} states")
            }
            ConvertError::TooManySuccessorSets { meta, limit } => {
                write!(
                    f,
                    "meta state {meta} produced more than {limit} successor sets"
                )
            }
            ConvertError::MultiTooWide { state, arity } => {
                write!(
                    f,
                    "multiway branch at {state} has arity {arity}, too wide to enumerate"
                )
            }
            ConvertError::TimeSplitDiverged { restarts } => {
                write!(
                    f,
                    "time splitting did not converge after {restarts} restarts"
                )
            }
        }
    }
}

impl std::error::Error for ConvertError {}

impl From<GraphError> for ConvertError {
    fn from(e: GraphError) -> Self {
        ConvertError::Graph(e)
    }
}

/// Statistics about a conversion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvertStats {
    /// Construction restarts caused by time splitting.
    pub restarts: u32,
    /// MIMD states split by time splitting.
    pub splits: u32,
    /// Meta states folded away by subsumption.
    pub subsumed: u32,
    /// Candidate successor sets enumerated in total (before dedup across
    /// meta states) — a measure of the §2.3 combinatorial work.
    pub successor_sets_enumerated: u64,
}

/// Run meta-state conversion on `graph` (see module docs).
pub fn convert(graph: &MimdGraph, opts: &ConvertOptions) -> Result<MetaAutomaton, ConvertError> {
    convert_with_stats(graph, opts).map(|(a, _)| a)
}

/// [`convert`], also returning construction statistics:
/// [`convert_threads`] at one thread.
pub fn convert_with_stats(
    graph: &MimdGraph,
    opts: &ConvertOptions,
) -> Result<(MetaAutomaton, ConvertStats), ConvertError> {
    convert_threads(graph, opts, 1, || Ok(()))
}

/// The automaton every conversion returns, at any thread count:
/// [`convert_rounds`]' output in discovery order, without the meta states a
/// re-expansion after latent widening left unreachable, folded by
/// subsumption when `opts.subsumption` is set. `threads` and `before_round`
/// are [`convert_rounds`]' and change neither the automaton nor the
/// statistics.
pub fn convert_threads<E: From<ConvertError>>(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    threads: usize,
    before_round: impl FnMut() -> Result<(), E>,
) -> Result<(MetaAutomaton, ConvertStats), E> {
    let (mut automaton, mut stats) = convert_rounds(graph, opts, threads, before_round)?;
    automaton.prune_unreachable();
    if opts.subsumption {
        stats.subsumed += crate::subsume::subsume(&mut automaton);
    }
    Ok((automaton, stats))
}

/// Worklist entries popped per expansion thread in one round of
/// [`convert_rounds`]. Large enough that a round's one spawn-and-join is
/// amortised over many expansions, small enough that the look-ahead
/// results held between expanding and interning stay a sliver of the
/// resident set.
const ROUND_ENTRIES_PER_THREAD: usize = 64;

/// The subset-construction state every round reads and the interning step
/// alone writes: the set arena, the BFS worklist, and the per-meta-state
/// tables indexed by [`MetaId`]. Only [`Frontier::intern`] fills the
/// arena, so a meta state's [`SetId`] is its [`MetaId`].
///
/// A memory budget bounds the arena's word stream alone
/// ([`ConvertOptions::memory_budget`]). Everything else here stays
/// resident — at least 93 bytes a meta state, 4 a stored edge and 4 a
/// queued id — and is O(meta states), capped by `max_meta_states`.
struct Frontier {
    arena: SetArena,
    succs: SuccTable,
    /// Latent barrier states per meta state: barrier waits that may hold
    /// lingering processes while this meta state's visible members run.
    /// barrier_sync (§2.6) removes waits from the visible set; tracking
    /// them here lets the converter emit the barrier-release transition
    /// even when every visible member halts first (spawned workers
    /// finishing after the rest of the array reached a `wait`).
    latents: Vec<StateSet>,
    worklist: VecDeque<u32>,
    /// Membership flag per meta state: re-enqueue on latent widening in
    /// O(1) instead of scanning the whole worklist. Stays set from the
    /// push until the entry's turn in pop order, so a popped entry that
    /// still waits for its turn is not queued twice.
    in_worklist: Vec<bool>,
}

impl Frontier {
    fn new(memory_budget: Option<usize>) -> Self {
        Frontier {
            arena: SetArena::with_budget(memory_budget),
            succs: SuccTable::default(),
            latents: Vec::new(),
            worklist: VecDeque::new(),
            in_worklist: Vec::new(),
        }
    }

    /// Intern the set behind `set`, whose [`fx_hash`] is `hash`, with the
    /// latent waits it leaves behind.
    fn intern(&mut self, set: Window<'_>, hash: u64, latent: StateSet) -> MetaId {
        let known = self.arena.len();
        let m = MetaId(self.arena.intern_window(set, hash).0);
        if m.idx() < known {
            // Known meta state: widen its latent set if this path can
            // leave more waiters behind; its successors must then be
            // recomputed.
            if !latent.is_subset(&self.latents[m.idx()]) {
                self.latents[m.idx()] = self.latents[m.idx()].union(&latent);
                if !self.in_worklist[m.idx()] {
                    self.in_worklist[m.idx()] = true;
                    self.worklist.push_back(m.0);
                }
            }
            return m;
        }
        self.succs.push_empty();
        self.latents.push(latent);
        self.in_worklist.push(true);
        self.worklist.push_back(m.0);
        m
    }
}

/// What §2.3's successor list of a meta state is a function of: its
/// *running core* — its members minus the graph's non-barrier `Halt`
/// states, which choose nothing in the DP and which neither §2.6 nor
/// §3.2.4 reads — and its latent set.
#[derive(Default, PartialEq, Eq, Hash)]
struct Key {
    core: StateSet,
    latent: StateSet,
}

/// Each [`Key`] → the first meta state expanded with it, and its DP's
/// candidate count.
type Owners = FxHashMap<Key, (MetaId, u64)>;

/// The owner of `key` whose successor list still answers for it: one whose
/// latent set has not widened since its expansion. Re-interning that list
/// would only hit meta states whose latents already cover what it carries,
/// so another meta state with the same key takes the list as it is.
fn fresh_owner(owners: &Owners, key: &Key, latents: &[StateSet]) -> Option<(MetaId, u64)> {
    owners
        .get(key)
        .copied()
        .filter(|(owner, _)| latents[owner.idx()] == key.latent)
}

/// One popped worklist entry, with its key as of the pop.
struct Entry {
    meta: MetaId,
    members: StateSet,
    key: Key,
}

/// The successors of one meta state, as [`successor_sets`] hands them to
/// the interning step: the visible sets, each with its [`fx_hash`], and —
/// on the §2.6 barrier path only — each one's latent waits. A successor
/// with no entry in `latents` leaves nothing latent.
#[derive(Debug)]
struct Successors {
    visible: SetList,
    latents: Vec<StateSet>,
}

/// One meta state's successors and the candidate-set count behind them
/// (its [`ConvertStats::successor_sets_enumerated`] share).
type Expansion = Result<(Successors, u64), ConvertError>;

/// The one MIMD subset-construction loop, under [`convert_threads`].
/// Returns the automaton as discovered — not pruned, not folded.
///
/// It works in rounds. A round pops a run of entries off the FIFO worklist,
/// expands them on up to `threads` threads (the caller is one of them) —
/// an expansion reads only `(graph, members, latent, opts)` — and then
/// interns every result **in pop order on the calling thread**. An entry
/// whose latent set an earlier entry of the same round widened is expanded
/// again at its turn, so discovery order, numbering, successor lists and
/// statistics are those of one thread popping one entry at a time, at any
/// thread count and under any memory budget. One thread pops one entry per
/// round and spawns nothing; so does time splitting, whose restarts would
/// discard whatever was expanded ahead.
///
/// Meta states that differ only in halted members have one successor list
/// (§2.3's DP skips a member with no choice): an entry whose `Key` has a
/// fresh owner (`fresh_owner`) at its turn takes the owner's list and
/// candidate count, with no DP and no interning, and no round expands it
/// ahead — nor an entry whose key an earlier entry of the round holds.
///
/// `before_round` runs once per round and ends the conversion with its
/// error: the engine's deadline check. A panic on an expansion thread
/// resurfaces on the caller with its payload, after every thread of the
/// round has been joined.
pub fn convert_rounds<E: From<ConvertError>>(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    threads: usize,
    mut before_round: impl FnMut() -> Result<(), E>,
) -> Result<(MetaAutomaton, ConvertStats), E> {
    let _span = msc_obs::span("convert.run");
    graph.validate().map_err(ConvertError::from)?;
    let mut g = graph.clone();
    let mut stats = ConvertStats::default();
    let threads = threads.max(1);
    let round = if threads == 1 || opts.time_split.is_some() {
        1
    } else {
        threads * ROUND_ENTRIES_PER_THREAD
    };
    let mut batch: Vec<Entry> = Vec::with_capacity(round);
    let mut ahead: Vec<OnceLock<Expansion>> = Vec::with_capacity(round);

    'restart: loop {
        let mut f = Frontier::new(opts.memory_budget);
        let start_set = apply_barrier(&g, StateSet::singleton(g.start), opts);
        let start = f.intern(start_set.window(), fx_hash(&start_set), StateSet::empty());
        // One per thread, kept across rounds; the memo inside is valid for
        // one graph, i.e. until the next time-split restart. So are the
        // halted states and the owner table.
        let mut scratch: Vec<SuccScratch> = (0..threads).map(|_| SuccScratch::default()).collect();
        let halted: StateSet = g
            .ids()
            .filter(|&s| g.state(s).term == Terminator::Halt && !g.state(s).barrier)
            .collect();
        let mut owners = Owners::default();

        loop {
            before_round()?;
            batch.clear();
            while batch.len() < round {
                let Some(m) = f.worklist.pop_front().map(MetaId) else {
                    break;
                };
                let members = f.arena.get(SetId(m.0));
                let key = Key {
                    core: members.difference(&halted),
                    latent: f.latents[m.idx()].clone(),
                };
                batch.push(Entry {
                    meta: m,
                    members,
                    key,
                });
            }
            if batch.is_empty() {
                break;
            }
            expand_ahead(
                &g,
                opts,
                &batch,
                &owners,
                &f.latents,
                &mut scratch,
                &mut ahead,
            );

            let entries = batch.len();
            for (i, e) in batch.iter_mut().enumerate() {
                let m = e.meta;
                f.in_worklist[m.idx()] = false;
                msc_obs::value(
                    "convert.worklist_depth",
                    (f.worklist.len() + entries - 1 - i) as u64,
                );

                // §2.4: "It would be invoked on each meta state as it is
                // created"; any split restarts the construction.
                if let Some(ts) = &opts.time_split {
                    if time_split_meta(&mut g, &e.members, ts, &opts.costs, &mut stats.splits) {
                        stats.restarts += 1;
                        if stats.restarts > ts.max_restarts {
                            return Err(ConvertError::TimeSplitDiverged {
                                restarts: stats.restarts,
                            }
                            .into());
                        }
                        continue 'restart;
                    }
                }

                let widened = f.latents[m.idx()] != e.key.latent;
                if widened {
                    e.key.latent = f.latents[m.idx()].clone();
                }
                if let Some((owner, enumerated)) = fresh_owner(&owners, &e.key, &f.latents) {
                    if msc_obs::enabled() {
                        msc_obs::count("convert.expansion_reused", 1);
                    }
                    stats.successor_sets_enumerated += enumerated;
                    f.succs.share(m.idx(), owner.idx());
                    continue;
                }
                let expansion = match ahead[i].take() {
                    Some(x) if !widened => x,
                    stale => {
                        if stale.is_some() {
                            msc_obs::count("convert.stale_expansion", 1);
                        }
                        successor_sets(&g, &e.members, &e.key.latent, opts, &mut scratch[0])
                    }
                };
                let (targets, enumerated) = expansion?;
                stats.successor_sets_enumerated += enumerated;
                let from = f.succs.stored_edges();
                let mut latents = targets.latents.into_iter();
                for (t, hash) in targets.visible.iter() {
                    let to = f.intern(t, hash, latents.next().unwrap_or_default());
                    f.succs.push_edge(to);
                    if f.arena.len() > opts.max_meta_states {
                        return Err(ConvertError::TooManyMetaStates {
                            limit: opts.max_meta_states,
                        }
                        .into());
                    }
                }
                f.succs.end_list(m.idx(), from);
                // Distinct visible sets intern to distinct meta states.
                debug_assert!(
                    {
                        let mut ids = f.succs[m.idx()].to_vec();
                        ids.sort_unstable();
                        ids.windows(2).all(|w| w[0] != w[1])
                    },
                    "successor_sets returned a visible set twice"
                );
                owners.insert(std::mem::take(&mut e.key), (m, enumerated));
            }
        }

        let sets = (0..f.arena.len() as u32)
            .map(|s| f.arena.get(SetId(s)))
            .collect();
        f.succs.shrink_to_fit();
        let automaton = MetaAutomaton {
            graph: g,
            sets,
            start,
            succs: f.succs,
        };
        return Ok((automaton, stats));
    }
}

/// The parallel half of a round: fill `ahead[i]` with the expansion of
/// `batch[i]`, threads claiming entries from one cursor. Leaves every slot
/// empty — the caller expands at the entry's turn — when the round or the
/// thread count is one, and leaves empty the slot of an entry whose key has
/// a fresh owner or sits earlier in the round: its turn takes an owner's
/// list.
fn expand_ahead(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    batch: &[Entry],
    owners: &Owners,
    latents: &[StateSet],
    scratch: &mut [SuccScratch],
    ahead: &mut Vec<OnceLock<Expansion>>,
) {
    ahead.clear();
    ahead.resize_with(batch.len(), OnceLock::new);
    if scratch.len().min(batch.len()) == 1 {
        return;
    }
    let mut seen = FxHashSet::default();
    let todo: Vec<usize> = (0..batch.len())
        .filter(|&i| {
            let key = &batch[i].key;
            fresh_owner(owners, key, latents).is_none() && seen.insert(key)
        })
        .collect();
    let spawned = scratch.len().min(todo.len()).saturating_sub(1);
    if spawned == 0 {
        return;
    }
    let _span = msc_obs::span("convert.round");
    msc_obs::value("convert.round_entries", batch.len() as u64);
    // Relaxed: the cursor only hands out indices; the results are
    // published by their `OnceLock`s.
    let cursor = AtomicUsize::new(0);
    let ahead = &*ahead;
    let work = |scratch: &mut SuccScratch| loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = todo.get(k) else { break };
        let e = &batch[i];
        let x = successor_sets(graph, &e.members, &e.key.latent, opts, scratch);
        ahead[i].set(x).expect("the cursor hands out an index once");
    };
    let (mine, theirs) = scratch.split_first_mut().expect("at least one thread");
    // `scope` alone would replace a child's panic payload with a generic
    // message: join every handle and re-raise the first payload as it was.
    let panicked = std::thread::scope(|s| {
        let handles: Vec<_> = theirs[..spawned]
            .iter_mut()
            .map(|sc| s.spawn(move || work(sc)))
            .collect();
        work(mine);
        handles
            .into_iter()
            .fold(None, |first, h| first.or(h.join().err()))
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
}

/// §2.6 `barrier_sync`: if some but not all members of `set` are barrier
/// waits, remove the barrier waits; if *all* members are barrier waits the
/// set passes through unchanged (everyone reached the barrier).
pub fn apply_barrier(graph: &MimdGraph, set: StateSet, opts: &ConvertOptions) -> StateSet {
    if !opts.respect_barriers {
        return set;
    }
    barrier_sync(graph, set)
}

/// The paper's `barrier_sync` on a raw set.
pub fn barrier_sync(graph: &MimdGraph, set: StateSet) -> StateSet {
    let waits = set.filter(|s| graph.state(s).barrier);
    if waits.is_empty() || waits.len() == set.len() {
        set
    } else {
        set.difference(&waits)
    }
}

/// Reusable buffers for [`successor_sets`]: the partial-union DP lists and
/// two memos valid for one graph, i.e. one time-split restart — each
/// member's successor choices and the graph's barrier states. Each
/// expansion thread reuses its own across the whole worklist, which keeps
/// the hot loop free of per-meta allocations once the buffers are warm.
#[derive(Default)]
struct SuccScratch {
    /// The distinct partial unions after the members so far.
    acc: SetList,
    /// The step being built: `acc`'s sets, each unioned with each choice
    /// of the next member; its index is the step's dedup, which grows with
    /// the candidates a step keeps — the guard bounds those by
    /// `max_successor_sets` plus one member's choices — never with the
    /// unions it tries. After the last step, the barrier pass's visible
    /// sets.
    next: SetList,
    /// Memoized [`member_choices`] keyed by MIMD state id.
    choices: FxHashMap<u32, Vec<StateSet>>,
    /// The graph's barrier-wait states (§2.6), as one set.
    barriers: Option<StateSet>,
}

/// Enumerate the successor meta states of one meta state, per the paper's
/// `reach` routine (base or compressed variant), then push each through
/// `barrier_sync` (§2.6). Barrier states stripped by `barrier_sync` become
/// latent on the successor (plus anything inherited through `latent`), so
/// the barrier-release transition stays statically reachable.
fn successor_sets(
    graph: &MimdGraph,
    members: &StateSet,
    latent: &StateSet,
    opts: &ConvertOptions,
    scratch: &mut SuccScratch,
) -> Expansion {
    let SuccScratch {
        acc,
        next,
        choices: choices_memo,
        barriers,
    } = scratch;
    // DP over members: the set of achievable partial unions.
    acc.clear();
    acc.push(Window::EMPTY);
    let (mut memo_hits, mut memo_misses, mut candidates) = (0u64, 0u64, 0u64);
    for m in members.iter() {
        let choices: &Vec<StateSet> = match choices_memo.entry(m.0) {
            std::collections::hash_map::Entry::Occupied(e) => {
                memo_hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                memo_misses += 1;
                e.insert(member_choices(graph, m, opts)?)
            }
        };
        if choices.len() == 1 && choices[0].is_empty() {
            continue; // Halt member contributes nothing.
        }
        // A candidate is new when no kept one equals it, and `next` keeps
        // them in the order they came up: nothing here depends on a hash
        // value.
        next.clear();
        for (u, _) in acc.iter() {
            for c in choices {
                next.push_union(u, c.window());
            }
            candidates += choices.len() as u64;
            if next.len() > opts.max_successor_sets {
                return Err(ConvertError::TooManySuccessorSets {
                    meta: members.clone(),
                    limit: opts.max_successor_sets,
                });
            }
        }
        std::mem::swap(acc, next);
    }
    let enumerated = acc.len() as u64;

    // With no inherited latent wait and no barrier in play, §2.6 has
    // nothing to strip and nothing to merge: the DP's candidates, already
    // distinct, are the successors — minus the empty set (every member
    // halted and nothing lingers: a terminal meta state, §3.2.1).
    let barriers =
        barriers.get_or_insert_with(|| graph.ids().filter(|&s| graph.state(s).barrier).collect());
    let pass_through = latent.is_empty() && (!opts.respect_barriers || barriers.is_empty());
    if msc_obs::enabled() {
        msc_obs::count("convert.memo_hit", memo_hits);
        msc_obs::count("convert.memo_miss", memo_misses);
        msc_obs::count("convert.candidates", candidates);
        msc_obs::value("convert.fanout", enumerated);
        let pass = if pass_through {
            "convert.barrier_pass_skipped"
        } else {
            "convert.barrier_pass_run"
        };
        msc_obs::count(pass, 1);
    }
    if pass_through {
        let (visible, latents) = (acc.nonempty(), Vec::new());
        return Ok((Successors { visible, latents }, enumerated));
    }

    // Re-inject inherited latent waits, apply barrier filtering, dedupe by
    // visible set (merging latents), and drop the empty set.
    next.clear();
    let mut latents: Vec<StateSet> = Vec::with_capacity(acc.len());
    let mut had_barrier_filter = false;
    let mut push = |v: StateSet, l: StateSet| match next.push(v.window()) {
        Some(i) => latents[i] = latents[i].union(&l),
        None => latents.push(l),
    };
    for (t, _) in acc.iter() {
        let t_all = t.to_set().union(latent);
        if t_all.is_empty() {
            continue;
        }
        if !opts.respect_barriers {
            push(t_all, StateSet::empty());
            continue;
        }
        let waits = t_all.intersection(barriers);
        if waits.is_empty() || waits.len() == t_all.len() {
            // No barrier involvement, or everyone is at the barrier: the
            // all-barrier meta state is the release point (§2.6).
            push(t_all, StateSet::empty());
        } else {
            had_barrier_filter = true;
            push(t_all.difference(&waits), waits);
        }
    }

    // §3.2.4 for compressed mode: a compressed transition is unconditional,
    // but once *every* PE has reached the barrier the automaton must be able
    // to enter the all-barrier meta state. Base mode enumerates that choice
    // naturally; compressed mode must add it explicitly.
    if opts.mode == ConvertMode::Compressed && opts.respect_barriers && had_barrier_filter {
        // The all-barrier set reachable from here: barrier successors of
        // the members, barrier members, and inherited latent waits.
        let mut waits = latent.clone();
        for m in members.iter() {
            for s in graph.state(m).term.successors() {
                if graph.state(s).barrier {
                    waits.insert(s);
                }
            }
            if graph.state(m).barrier {
                waits.insert(m);
            }
        }
        if !waits.is_empty() {
            push(waits, StateSet::empty());
        }
    }
    // Nothing pushed above is ∅, so the copy keeps every set's latents.
    let visible = next.nonempty();
    debug_assert_eq!(visible.len(), latents.len());
    Ok((Successors { visible, latents }, enumerated))
}

/// The successor-choice sets of one member MIMD state.
fn member_choices(
    graph: &MimdGraph,
    m: StateId,
    opts: &ConvertOptions,
) -> Result<Vec<StateSet>, ConvertError> {
    let term = &graph.state(m).term;
    Ok(match term {
        Terminator::Halt => vec![StateSet::empty()],
        Terminator::Jump(b) => vec![StateSet::singleton(*b)],
        Terminator::Branch { t, f } => {
            if t == f {
                vec![StateSet::singleton(*t)]
            } else {
                match opts.mode {
                    ConvertMode::Base => vec![
                        StateSet::singleton(*t),
                        StateSet::singleton(*f),
                        StateSet::from_iter([*t, *f]),
                    ],
                    ConvertMode::Compressed => vec![StateSet::from_iter([*t, *f])],
                }
            }
        }
        Terminator::Multi(v) => {
            let uniq = StateSet::from_iter(v.iter().copied());
            match opts.mode {
                ConvertMode::Compressed => vec![uniq],
                ConvertMode::Base => {
                    let k = uniq.len();
                    if k > opts.max_multi_arity {
                        return Err(ConvertError::MultiTooWide { state: m, arity: k });
                    }
                    // All 2^k − 1 non-empty subsets (3 = 2²−1 reproduces the
                    // paper's per-branch bound).
                    let ids: Vec<StateId> = uniq.iter().collect();
                    let mut subsets = Vec::with_capacity((1usize << k) - 1);
                    for mask in 1u32..(1u32 << k) {
                        subsets.push(StateSet::from_iter(
                            ids.iter()
                                .enumerate()
                                .filter(|(i, _)| mask & (1 << i) != 0)
                                .map(|(_, s)| *s),
                        ));
                    }
                    subsets
                }
            }
        }
        // §3.2.5: "the semantics are that both paths must be taken".
        Terminator::Spawn { child, next } => vec![StateSet::from_iter([*child, *next])],
    })
}

/// §2.4 `time_split_state` applied to a meta state's members. Returns true
/// when at least one member was split (construction must restart).
fn time_split_meta(
    graph: &mut MimdGraph,
    members: &StateSet,
    ts: &TimeSplitOptions,
    costs: &CostModel,
    splits: &mut u32,
) -> bool {
    // "Ignore zero execution time components because you can't do anything
    // about them anyway."
    let times: Vec<(StateId, u64)> = members
        .iter()
        .map(|s| (s, graph.state_cost(s, costs)))
        .filter(|&(_, t)| t > 0)
        .collect();
    if times.len() < 2 {
        return false;
    }
    let min = times.iter().map(|&(_, t)| t).min().unwrap();
    let max = times.iter().map(|&(_, t)| t).max().unwrap();
    // "Is enough time wasted to be worth splitting?"
    if min + ts.split_delta > max {
        return false;
    }
    if min > (ts.split_percent as u64).saturating_mul(max) / 100 {
        return false;
    }
    let mut did = false;
    for (s, t) in times {
        if t > min && graph.split_state(s, min, costs).is_some() {
            *splits += 1;
            did = true;
        }
    }
    did
}

#[cfg(test)]
mod reference {
    //! The successor enumeration as it stood before the flat [`SetList`]
    //! and the word-parallel barrier pass: owned sets built by
    //! [`StateSet::union`], kept in a map keyed by the set itself (std
    //! hashing, `==` on a collision), `filter` + `graph.state()` per
    //! member. It shares no buffer, hash or index with the list. The
    //! differential proptest holds [`successor_sets`](super::successor_sets)
    //! to it.

    use super::*;
    use std::collections::HashMap;

    /// `(visible members, latent waits)` successor pairs and the
    /// candidate-set count behind them.
    pub type Pairs = Result<(Vec<(StateSet, StateSet)>, u64), ConvertError>;

    /// A memo of each member's successor choices, valid for one graph.
    #[derive(Default)]
    pub struct SuccScratch {
        choices: FxHashMap<u32, Vec<StateSet>>,
    }

    /// Keep `set` in `kept` unless an equal set is there: then return the
    /// index of that one.
    fn keep(
        kept: &mut Vec<StateSet>,
        seen: &mut HashMap<StateSet, usize>,
        set: StateSet,
    ) -> Option<usize> {
        if let Some(&i) = seen.get(&set) {
            return Some(i);
        }
        seen.insert(set.clone(), kept.len());
        kept.push(set);
        None
    }

    /// Enumerate the successor meta states of one meta state, per the
    /// paper's `reach` routine (base or compressed variant), then push each
    /// through `barrier_sync` (§2.6).
    pub fn successor_sets(
        graph: &MimdGraph,
        members: &StateSet,
        latent: &StateSet,
        opts: &ConvertOptions,
        scratch: &mut SuccScratch,
    ) -> Pairs {
        // DP over members: the set of achievable partial unions.
        let mut acc = vec![StateSet::empty()];
        for m in members.iter() {
            let choices = match scratch.choices.entry(m.0) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(member_choices(graph, m, opts)?)
                }
            };
            if choices.len() == 1 && choices[0].is_empty() {
                continue; // Halt member contributes nothing.
            }
            let (mut next, mut seen) = (Vec::new(), HashMap::new());
            for u in &acc {
                for c in choices.iter() {
                    keep(&mut next, &mut seen, u.union(c));
                }
                if next.len() > opts.max_successor_sets {
                    return Err(ConvertError::TooManySuccessorSets {
                        meta: members.clone(),
                        limit: opts.max_successor_sets,
                    });
                }
            }
            acc = next;
        }
        let enumerated = acc.len() as u64;

        // Re-inject inherited latent waits, apply barrier filtering, dedupe
        // by visible set (merging latents), and drop the empty set (every
        // member halted and nothing lingers — a terminal meta state,
        // §3.2.1).
        let (mut visible, mut seen) = (Vec::new(), HashMap::new());
        let mut latents: Vec<StateSet> = Vec::new();
        let mut had_barrier_filter = false;
        let mut push = |v: StateSet, l: StateSet| match keep(&mut visible, &mut seen, v) {
            Some(i) => latents[i] = latents[i].union(&l),
            None => latents.push(l),
        };
        for t in acc {
            let t_all = t.union(latent);
            if t_all.is_empty() {
                continue;
            }
            if !opts.respect_barriers {
                push(t_all, StateSet::empty());
                continue;
            }
            let waits = t_all.filter(|s| graph.state(s).barrier);
            if waits.is_empty() || waits.len() == t_all.len() {
                // No barrier involvement, or everyone is at the barrier:
                // the all-barrier meta state is the release point (§2.6).
                push(t_all, StateSet::empty());
            } else {
                had_barrier_filter = true;
                push(t_all.difference(&waits), waits);
            }
        }

        // §3.2.4 for compressed mode: once *every* PE has reached the
        // barrier the automaton must be able to enter the all-barrier meta
        // state.
        if opts.mode == ConvertMode::Compressed && opts.respect_barriers && had_barrier_filter {
            let mut waits = latent.clone();
            for m in members.iter() {
                for s in graph.state(m).term.successors() {
                    if graph.state(s).barrier {
                        waits.insert(s);
                    }
                }
                if graph.state(m).barrier {
                    waits.insert(m);
                }
            }
            if !waits.is_empty() {
                push(waits, StateSet::empty());
            }
        }
        Ok((visible.into_iter().zip(latents).collect(), enumerated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{MimdState, Op};

    /// Figure 1's MIMD graph for Listing 1, with paper state numbering
    /// 0 = A, 1 = B;C, 2 = D;E, 3 = F (the paper calls them 0, 2, 6, 9 —
    /// its prototype numbers states by instruction offsets; ids differ,
    /// structure is identical).
    fn listing1() -> MimdGraph {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("A"));
        let b = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("B;C"));
        let d = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("D;E"));
        let f = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("F"));
        g.state_mut(a).term = Terminator::Branch { t: b, f: d };
        g.state_mut(b).term = Terminator::Branch { t: b, f };
        g.state_mut(d).term = Terminator::Branch { t: d, f };
        g.start = a;
        g
    }

    fn set(v: &[u32]) -> StateSet {
        StateSet::from_iter(v.iter().map(|&x| StateId(x)))
    }

    /// An expansion as the reference returns it, once every set's hash is
    /// checked against [`fx_hash`].
    pub(super) fn pairs(x: Expansion) -> reference::Pairs {
        let (succs, enumerated) = x?;
        let mut latents = succs.latents.into_iter();
        let pairs = succs
            .visible
            .iter()
            .map(|(v, hash)| {
                let v = v.to_set();
                assert_eq!(hash, fx_hash(&v), "hash of {v}");
                (v, latents.next().unwrap_or_default())
            })
            .collect();
        assert!(latents.next().is_none(), "a latent set with no visible set");
        Ok((pairs, enumerated))
    }

    #[test]
    fn figure2_base_conversion_has_eight_meta_states() {
        let a = convert(&listing1(), &ConvertOptions::base()).unwrap();
        assert_eq!(a.len(), 8, "Figure 2: eight meta states\n{}", a.text());
        // The paper's sets, translated to our ids (0,1,2,3):
        for s in [
            set(&[0]),
            set(&[1]),
            set(&[2]),
            set(&[1, 2]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 2, 3]),
            set(&[3]),
        ] {
            assert!(a.find(&s).is_some(), "missing meta state {s}\n{}", a.text());
        }
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn figure2_transition_relation() {
        let a = convert(&listing1(), &ConvertOptions::base()).unwrap();
        let id = |v: &[u32]| a.find(&set(v)).unwrap();
        let succ_sets = |v: &[u32]| {
            let mut s: Vec<StateSet> = a
                .successors(id(v))
                .iter()
                .map(|m| a.members(*m).clone())
                .collect();
            s.sort();
            s
        };
        // From {0}: {1}, {2}, {1,2} (sorted lexicographically).
        assert_eq!(succ_sets(&[0]), vec![set(&[1]), set(&[1, 2]), set(&[2])]);
        // From {1}: {1}, {3}, {1,3}.
        assert_eq!(succ_sets(&[1]), vec![set(&[1]), set(&[1, 3]), set(&[3])]);
        // From {1,2}: five distinct targets.
        assert_eq!(
            succ_sets(&[1, 2]),
            vec![
                set(&[1, 2]),
                set(&[1, 2, 3]),
                set(&[1, 3]),
                set(&[2, 3]),
                set(&[3])
            ]
        );
        // {3} is terminal.
        assert!(a.successors(id(&[3])).is_empty());
    }

    #[test]
    fn figure5_compressed_conversion_has_two_meta_states() {
        let a = convert(&listing1(), &ConvertOptions::compressed()).unwrap();
        assert_eq!(a.len(), 2, "Figure 5: two meta states\n{}", a.text());
        assert!(a.find(&set(&[0])).is_some());
        let big = a.find(&set(&[1, 2, 3])).expect("the {B,D,F} superset");
        // {0} → {1,2,3} → {1,2,3}.
        assert_eq!(a.successors(a.start), &[big]);
        assert_eq!(a.successors(big), &[big]);
        assert!(a.is_deterministic());
    }

    #[test]
    fn compressed_without_subsumption_has_three() {
        let mut opts = ConvertOptions::compressed();
        opts.subsumption = false;
        let a = convert(&listing1(), &opts).unwrap();
        assert_eq!(a.len(), 3, "{{0}}, {{1,2}}, {{1,2,3}}\n{}", a.text());
    }

    /// Listing 3: Listing 1 plus a barrier before F.
    fn listing3() -> MimdGraph {
        let mut g = listing1();
        g.state_mut(StateId(3)).barrier = true;
        g
    }

    #[test]
    fn figure6_barrier_constrains_transitions() {
        let a = convert(&listing3(), &ConvertOptions::base()).unwrap();
        // {0},{1},{2},{1,2},{3}: five states; no {1,3} or {2,3} may exist.
        assert_eq!(a.len(), 5, "{}", a.text());
        assert!(
            a.find(&set(&[1, 3])).is_none(),
            "barrier must remove 3 from {{1,3}}"
        );
        assert!(a.find(&set(&[2, 3])).is_none());
        assert!(a.find(&set(&[1, 2, 3])).is_none());
        let all_barrier = a.find(&set(&[3])).unwrap();
        assert!(a.successors(all_barrier).is_empty());
        // {1} can reach {3} (everyone at the barrier) and itself.
        let m1 = a.find(&set(&[1])).unwrap();
        let succ: Vec<&StateSet> = a.successors(m1).iter().map(|m| a.members(*m)).collect();
        assert!(succ.contains(&&set(&[3])));
        assert!(succ.contains(&&set(&[1])));
    }

    #[test]
    fn barrier_with_compression_keeps_release_edge() {
        let mut opts = ConvertOptions::compressed();
        opts.subsumption = false;
        let a = convert(&listing3(), &opts).unwrap();
        // {0} → {1,2} → {1,2} ∪ release edge to {3}.
        let m12 = a.find(&set(&[1, 2])).expect("{1,2} exists");
        let succ: Vec<&StateSet> = a.successors(m12).iter().map(|m| a.members(*m)).collect();
        assert!(succ.contains(&&set(&[1, 2])), "{}", a.text());
        assert!(
            succ.contains(&&set(&[3])),
            "release edge missing: {}",
            a.text()
        );
    }

    #[test]
    fn barriers_ignored_when_disabled() {
        let mut opts = ConvertOptions::base();
        opts.respect_barriers = false;
        let a = convert(&listing3(), &opts).unwrap();
        assert_eq!(a.len(), 8, "same as Figure 2 when barriers are ignored");
    }

    #[test]
    fn straight_line_program_is_linear() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        let b = g.add(MimdState::new(vec![Op::Push(2)], Terminator::Halt));
        let c = g.add(MimdState::new(vec![Op::Push(3)], Terminator::Halt));
        g.state_mut(a).term = Terminator::Jump(b);
        g.state_mut(b).term = Terminator::Jump(c);
        g.start = a;
        let auto = convert(&g, &ConvertOptions::base()).unwrap();
        assert_eq!(auto.len(), 3);
        assert!(auto.is_deterministic());
    }

    #[test]
    fn spawn_takes_both_paths_in_base_mode() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        let child = g.add(MimdState::new(vec![Op::Push(2)], Terminator::Halt));
        let next = g.add(MimdState::new(vec![Op::Push(3)], Terminator::Halt));
        g.state_mut(a).term = Terminator::Spawn { child, next };
        g.start = a;
        let auto = convert(&g, &ConvertOptions::base()).unwrap();
        // {a} has exactly one successor: {child, next}.
        assert_eq!(auto.successors(auto.start).len(), 1);
        let s = auto.successors(auto.start)[0];
        assert_eq!(auto.members(s), &set(&[1, 2]));
    }

    #[test]
    fn multi_enumerates_all_nonempty_subsets() {
        let mut g = MimdGraph::new();
        let t1 = 1u32;
        let a = g.add(MimdState::new(vec![Op::Push(0)], Terminator::Halt));
        let b = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        let c = g.add(MimdState::new(vec![Op::Push(2)], Terminator::Halt));
        let d = g.add(MimdState::new(vec![Op::Push(3)], Terminator::Halt));
        g.state_mut(a).term = Terminator::Multi(vec![b, c, d]);
        g.start = a;
        let auto = convert(&g, &ConvertOptions::base()).unwrap();
        // 2³−1 = 7 successor sets from the start state.
        assert_eq!(auto.successors(auto.start).len(), 7);
        let _ = t1;
    }

    #[test]
    fn multi_too_wide_errors_in_base_mode() {
        let mut g = MimdGraph::new();
        let targets: Vec<StateId> = (0..20)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        let a = g.add(MimdState::new(
            vec![Op::Push(0)],
            Terminator::Multi(targets),
        ));
        g.start = a;
        let err = convert(&g, &ConvertOptions::base()).unwrap_err();
        assert!(matches!(err, ConvertError::MultiTooWide { arity: 20, .. }));
        // Compressed mode handles it fine.
        assert!(convert(&g, &ConvertOptions::compressed()).is_ok());
    }

    #[test]
    fn explosion_guard_fires() {
        // A chain of n branching states all reachable together explodes in
        // base mode; the guard must fail cleanly.
        let mut g = MimdGraph::new();
        let n = 12;
        let ids: Vec<StateId> = (0..n)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        for (i, &id) in ids.iter().enumerate() {
            let next = if i + 1 < ids.len() { ids[i + 1] } else { end };
            g.state_mut(id).term = Terminator::Branch { t: next, f: end };
        }
        g.start = ids[0];
        let mut opts = ConvertOptions::base();
        opts.max_meta_states = 10;
        let err = convert(&g, &opts).unwrap_err();
        assert_eq!(err, ConvertError::TooManyMetaStates { limit: 10 });
    }

    /// Two arity-16 `Multi` members: 65 535 choices each.
    fn two_wide_multis() -> (MimdGraph, StateSet) {
        let mut g = MimdGraph::new();
        let targets: Vec<StateId> = (0..32)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        let a = g.add(MimdState::new(
            vec![],
            Terminator::Multi(targets[..16].to_vec()),
        ));
        let b = g.add(MimdState::new(
            vec![],
            Terminator::Multi(targets[16..].to_vec()),
        ));
        g.start = a;
        (g, StateSet::from_iter([a, b]))
    }

    #[test]
    fn explosion_guard_fires_before_the_dedup_table_grows() {
        // The second member's step would try 65 535² unions; the check after
        // each partial union stops it at the second, as it always has, and
        // the dedup table has seen only what was kept until then.
        let (g, members) = two_wide_multis();
        let opts = ConvertOptions::base();
        let mut scratch = SuccScratch::default();
        let err = pairs(successor_sets(
            &g,
            &members,
            &StateSet::empty(),
            &opts,
            &mut scratch,
        ))
        .expect_err("65 535² candidate sets");
        let limit = opts.max_successor_sets;
        assert_eq!(
            err,
            ConvertError::TooManySuccessorSets {
                meta: members.clone(),
                limit
            }
        );
        let mut old = reference::SuccScratch::default();
        let old_err = reference::successor_sets(&g, &members, &StateSet::empty(), &opts, &mut old);
        assert_eq!(Err(err), old_err);
        assert_eq!(scratch.next.len(), 2 * 65_535, "stopped after the second");
        let slots = scratch.next.index_mut().slots();
        assert!(
            slots <= 2 * (limit + 65_535).next_power_of_two(),
            "{slots} slots"
        );
    }

    #[test]
    fn dedup_stays_exact_across_an_epoch_wrap() {
        // Every member step and every barrier pass clears one list's index
        // once, and every expansion clears both: start both three clears
        // short of the wrap and expand through it.
        let g = listing3();
        for opts in [ConvertOptions::base(), ConvertOptions::compressed()] {
            let mut scratch = SuccScratch::default();
            let mut old = reference::SuccScratch::default();
            scratch.acc.index_mut().set_epoch(u32::MAX - 2);
            scratch.next.index_mut().set_epoch(u32::MAX - 2);
            for members in [set(&[1, 2]), set(&[0]), set(&[1, 2, 3])] {
                for latent in [StateSet::empty(), set(&[3])] {
                    assert_eq!(
                        pairs(successor_sets(&g, &members, &latent, &opts, &mut scratch)),
                        reference::successor_sets(&g, &members, &latent, &opts, &mut old),
                        "{members} with latent {latent}"
                    );
                }
            }
            assert!(scratch.acc.index_mut().epoch() < 64, "the stamp wrapped");
            assert!(scratch.next.index_mut().epoch() < 64, "the stamp wrapped");
        }
    }

    #[test]
    fn spill_budget_conversion_is_bit_identical() {
        // Converted once in RAM and once under a budget tiny enough to
        // force the arena out of core, the automata must be identical,
        // byte for byte. Two inputs: a fan-out to six independent
        // self-loops (the 3ⁿ frontier shape, a few dozen ids queued at
        // most), and a start state whose `Multi` has 14 halting targets,
        // which queues all 16 383 of its successors at once.
        let mut fan_out = MimdGraph::new();
        let end = fan_out.add(MimdState::new(vec![], Terminator::Halt));
        let loops: Vec<StateId> = (0..6)
            .map(|i| fan_out.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        for &l in &loops {
            fan_out.state_mut(l).term = Terminator::Branch { t: l, f: end };
        }
        fan_out.start = fan_out.add(MimdState::new(vec![], Terminator::Multi(loops)));

        let mut wide = MimdGraph::new();
        let halts: Vec<StateId> = (0..14)
            .map(|i| wide.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        wide.start = wide.add(MimdState::new(vec![], Terminator::Multi(halts)));

        for (g, at_least) in [(fan_out, 50), (wide, 1 << 14)] {
            let mut opts = ConvertOptions::base();
            opts.memory_budget = None;
            let plain = convert(&g, &opts).unwrap();
            opts.memory_budget = Some(512);
            let spilled = convert(&g, &opts).unwrap();
            assert!(plain.len() >= at_least, "{} meta states", plain.len());
            assert_eq!(plain.sets, spilled.sets);
            assert_eq!(plain.succs, spilled.succs);
            assert_eq!(plain.start, spilled.start);
        }
    }

    #[test]
    fn time_split_balances_five_vs_hundred() {
        // §2.4's motivating example: a 5-cycle and a 100-cycle state merged
        // into one meta state. cost(Push)=1 per default model.
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(0)], Terminator::Halt));
        let short = g.add(MimdState::new(vec![Op::Push(1); 5], Terminator::Halt).labeled("α"));
        let long = g.add(MimdState::new(vec![Op::Push(2); 100], Terminator::Halt).labeled("β"));
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: short, f: long };
        g.state_mut(short).term = Terminator::Jump(end);
        g.state_mut(long).term = Terminator::Jump(end);
        g.start = a;

        let mut opts = ConvertOptions::compressed();
        opts.subsumption = false;
        opts.time_split = Some(TimeSplitOptions::default());
        let (auto, stats) = convert_with_stats(&g, &opts).unwrap();
        assert!(stats.splits > 0, "the 100-cycle state must be split");
        // Every meta state must now be balanced within split_delta.
        assert!(
            auto.max_imbalance(&opts.costs) <= 4,
            "imbalance {} > delta\n{}",
            auto.max_imbalance(&opts.costs),
            auto.text()
        );
    }

    #[test]
    fn time_split_leaves_balanced_states_alone() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(0)], Terminator::Halt));
        let x = g.add(MimdState::new(vec![Op::Push(1); 10], Terminator::Halt));
        let y = g.add(MimdState::new(vec![Op::Push(2); 10], Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: x, f: y };
        g.start = a;
        let mut opts = ConvertOptions::base();
        opts.time_split = Some(TimeSplitOptions::default());
        let (_, stats) = convert_with_stats(&g, &opts).unwrap();
        assert_eq!(stats.splits, 0);
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn stats_count_successor_enumeration() {
        let (_, stats) = convert_with_stats(&listing1(), &ConvertOptions::base()).unwrap();
        assert!(stats.successor_sets_enumerated >= 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use msc_ir::{MimdState, Op};
    use proptest::prelude::*;

    /// Random small MIMD graphs: every state gets a cheap block and a
    /// terminator drawn over valid targets, any state but the start may be
    /// a barrier wait, and 0 / 60 / 130 unreachable padding states sit
    /// between the first `split` real states and the rest — so member ids
    /// cross word boundaries, windows start past word 0, and a meta state
    /// holding a state from either side of 130 paddings spans three words,
    /// which is a boxed window. The start is the first real state.
    fn arb_graph() -> impl Strategy<Value = MimdGraph> {
        (
            2usize..8,
            prop::collection::vec((0u8..4, 0u32..64, 0u32..64, any::<bool>()), 2..8),
            prop_oneof![Just(0u32), Just(60), Just(130)],
            0usize..8,
        )
            .prop_map(|(n, seeds, pad, split)| {
                let n = n.min(seeds.len());
                let id = |i: usize| StateId(i as u32 + if i < split { 0 } else { pad });
                let mut g = MimdGraph::new();
                for (i, &(_, _, _, barrier)) in seeds.iter().take(n).enumerate() {
                    if i == split {
                        for _ in 0..pad {
                            g.add(MimdState::new(vec![], Terminator::Halt));
                        }
                    }
                    let mut st = MimdState::new(vec![Op::Push(i as i64)], Terminator::Halt);
                    // Never on the start state (an all-barrier start is
                    // legal but uninteresting).
                    st.barrier = barrier && i != 0;
                    assert_eq!(g.add(st), id(i));
                }
                for (i, &(kind, a, b, _)) in seeds.iter().take(n).enumerate() {
                    let t = id(a as usize % n);
                    let f = id(b as usize % n);
                    g.state_mut(id(i)).term = match kind % 4 {
                        0 => Terminator::Halt,
                        1 => Terminator::Jump(t),
                        2 => Terminator::Branch { t, f },
                        _ => Terminator::Multi(vec![t, f]),
                    };
                }
                g.start = id(0);
                g
            })
    }

    /// The real (non-padding) states of an [`arb_graph`], picked by mask.
    fn pick(g: &MimdGraph, mask: u8, only_barriers: bool) -> StateSet {
        g.ids()
            .filter(|&s| !g.state(s).ops.is_empty())
            .enumerate()
            .filter(|&(i, s)| mask >> i & 1 == 1 && (!only_barriers || g.state(s).barrier))
            .map(|(_, s)| s)
            .collect()
    }

    proptest! {
        /// Conversion of arbitrary graphs yields structurally valid
        /// automatons whose members are all real states, in both modes.
        #[test]
        fn convert_yields_valid_automaton(g in arb_graph()) {
            for opts in [ConvertOptions::base(), ConvertOptions::compressed()] {
                let mut opts = opts;
                opts.max_meta_states = 4096;
                match convert(&g, &opts) {
                    Ok(auto) => {
                        prop_assert_eq!(auto.validate(), Ok(()));
                        // Start meta state contains the MIMD start state
                        // (unless barrier_sync stripped it, which cannot
                        // happen: state 0 is never a barrier here).
                        prop_assert!(auto.members(auto.start).contains(g.start));
                    }
                    Err(ConvertError::TooManyMetaStates { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }

        /// The flat-list, word-parallel `successor_sets` returns what the
        /// enumeration it replaced returns — the same pairs in the same
        /// order and the same count, or the same error — for any members,
        /// any inherited latent waits drawn from the barrier states, both
        /// modes, barriers honoured or not, with the guards loose or tight
        /// and the scratch warm from the previous expansion.
        #[test]
        fn successor_sets_matches_the_replaced_enumeration(
            g in arb_graph(),
            picks in prop::collection::vec((any::<u8>(), any::<u8>()), 1..4),
            max_successor_sets in prop_oneof![Just(1usize), Just(4), Just(1 << 16)],
            max_multi_arity in prop_oneof![Just(1usize), Just(16)],
        ) {
            for mode in [ConvertMode::Base, ConvertMode::Compressed] {
                for respect_barriers in [true, false] {
                    let opts = ConvertOptions {
                        mode,
                        respect_barriers,
                        max_successor_sets,
                        max_multi_arity,
                        ..ConvertOptions::base()
                    };
                    let mut new = SuccScratch::default();
                    let mut old = reference::SuccScratch::default();
                    for &(members, latent) in &picks {
                        let members = pick(&g, members, false);
                        for latent in [StateSet::empty(), pick(&g, latent, true)] {
                            prop_assert_eq!(
                                super::tests::pairs(successor_sets(&g, &members, &latent, &opts, &mut new)),
                                reference::successor_sets(&g, &members, &latent, &opts, &mut old),
                                "{:?} {} latent {} barriers {}",
                                mode, members, latent, respect_barriers
                            );
                        }
                    }
                }
            }
        }

        /// Conversion is deterministic.
        #[test]
        fn convert_deterministic(g in arb_graph()) {
            let mut opts = ConvertOptions::base();
            opts.max_meta_states = 4096;
            let a = convert(&g, &opts);
            let b = convert(&g, &opts);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.sets, y.sets);
                    prop_assert_eq!(x.succs, y.succs);
                }
                (Err(_), Err(_)) => {}
                _ => return Err(TestCaseError::fail(String::from("nondeterministic outcome"))),
            }
        }

        /// Compression never has more meta states than base (when both
        /// fit under the guard), and its automaton is narrower than or
        /// equal to base in count but wider or equal in max width.
        #[test]
        fn compressed_never_larger(g in arb_graph()) {
            let mut bopts = ConvertOptions::base();
            bopts.max_meta_states = 4096;
            let mut copts = ConvertOptions::compressed();
            copts.max_meta_states = 4096;
            if let (Ok(base), Ok(comp)) = (convert(&g, &bopts), convert(&g, &copts)) {
                prop_assert!(
                    comp.len() <= base.len(),
                    "compressed {} > base {}", comp.len(), base.len()
                );
            }
        }

        /// Every meta state's members are simultaneously reachable in the
        /// base automaton: all members appear in some successor chain from
        /// the start (weak sanity: members must be graph-reachable states).
        #[test]
        fn members_are_reachable_states(g in arb_graph()) {
            let mut opts = ConvertOptions::base();
            opts.max_meta_states = 4096;
            if let Ok(auto) = convert(&g, &opts) {
                let reach = g.reachable();
                for set in &auto.sets {
                    for m in set.iter() {
                        prop_assert!(
                            reach[m.idx()],
                            "meta member {m} is not graph-reachable"
                        );
                    }
                }
            }
        }

        /// Spilling never changes the result: conversion under a tiny
        /// memory budget is bit-identical to the in-RAM conversion.
        #[test]
        fn spilled_conversion_bit_identical(g in arb_graph()) {
            let mut opts = ConvertOptions::base();
            opts.max_meta_states = 4096;
            opts.memory_budget = None;
            let mut sopts = opts.clone();
            sopts.memory_budget = Some(256);
            match (convert(&g, &opts), convert(&g, &sopts)) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.sets, y.sets);
                    prop_assert_eq!(x.succs, y.succs);
                    prop_assert_eq!(x.start, y.start);
                }
                (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
                _ => return Err(TestCaseError::fail(String::from("spill changed the outcome"))),
            }
        }

        /// Subsumption only ever removes states and preserves validity.
        #[test]
        fn subsumption_shrinks(g in arb_graph()) {
            let mut opts = ConvertOptions::compressed();
            opts.subsumption = false;
            opts.max_meta_states = 4096;
            if let Ok(auto) = convert(&g, &opts) {
                let before = auto.len();
                let mut folded = auto.clone();
                crate::subsume::subsume(&mut folded);
                prop_assert!(folded.len() <= before);
                prop_assert_eq!(folded.validate(), Ok(()));
            }
        }
    }
}
