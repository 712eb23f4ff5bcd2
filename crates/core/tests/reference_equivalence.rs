//! Bit-identity of the converter against the seed semantics.
//!
//! `StateSet` has changed encoding twice (sorted ids, then an inline small
//! set spilling to a word bitset, now one tight window of bit words) and
//! the converter/subsumption pipelines were rebuilt around it (scratch
//! buffers, hash-indexed dedup, inverted-index subsumption). The required
//! invariant is that none of that changed a single observable bit: the
//! automaton (member sets, successor lists, start id — i.e. the canonical
//! numbering produced by discovery order) and the `ConvertStats` must be
//! identical to what the original sorted-`Vec<u32>` implementation
//! produced.
//!
//! This test *re-implements* the original algorithm over plain sorted
//! vectors — set algebra, worklist, latent-barrier widening (§2.6), time
//! splitting (§2.4), subsumption (§2.5), unreachable pruning — and checks
//! equality on randomized MIMD graphs, including barrier and time-split
//! programs, in base and compressed modes. The graphs carry 0, 60, 130 or
//! 1 000 unreachable padding states ahead of the real ones, so the
//! converter's sets are compared with a window base of zero, across a
//! word boundary, and well past the first word, and 0 or 130 between two
//! runs of real states, so a set can span three words.

use msc_core::convert::{ConvertError, ConvertMode, ConvertOptions, TimeSplitOptions};
use msc_core::convert_with_stats;
use msc_ir::{CostModel, MimdGraph, MimdState, Op, StateId, Terminator};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

// ---------------------------------------------------------------------------
// Reference set algebra: sorted, deduplicated Vec<u32>, exactly as the seed
// StateSet stored it.
// ---------------------------------------------------------------------------

type VSet = Vec<u32>;

fn v_from(iter: impl IntoIterator<Item = u32>) -> VSet {
    let mut v: VSet = iter.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn v_union(a: &VSet, b: &VSet) -> VSet {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn v_difference(a: &VSet, b: &VSet) -> VSet {
    a.iter().copied().filter(|x| !b.contains(x)).collect()
}

fn v_insert(v: &mut VSet, x: u32) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

fn v_is_subset(a: &VSet, b: &VSet) -> bool {
    a.len() <= b.len() && a.iter().all(|x| b.contains(x))
}

fn v_is_strict_subset(a: &VSet, b: &VSet) -> bool {
    a.len() < b.len() && v_is_subset(a, b)
}

// ---------------------------------------------------------------------------
// Reference converter: a line-for-line transcription of the original
// worklist algorithm over VSet.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RefStats {
    restarts: u32,
    splits: u32,
    subsumed: u32,
    enumerated: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RefAutomaton {
    sets: Vec<VSet>,
    start: usize,
    succs: Vec<Vec<usize>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RefError {
    TooManyMetaStates,
    TooManySuccessorSets,
    MultiTooWide,
    TimeSplitDiverged,
}

fn ref_member_choices(
    graph: &MimdGraph,
    m: StateId,
    opts: &ConvertOptions,
) -> Result<Vec<VSet>, RefError> {
    let term = &graph.state(m).term;
    Ok(match term {
        Terminator::Halt => vec![vec![]],
        Terminator::Jump(b) => vec![vec![b.0]],
        Terminator::Branch { t, f } => {
            if t == f {
                vec![vec![t.0]]
            } else {
                match opts.mode {
                    ConvertMode::Base => vec![vec![t.0], vec![f.0], v_from([t.0, f.0])],
                    ConvertMode::Compressed => vec![v_from([t.0, f.0])],
                }
            }
        }
        Terminator::Multi(v) => {
            let uniq = v_from(v.iter().map(|s| s.0));
            match opts.mode {
                ConvertMode::Compressed => vec![uniq],
                ConvertMode::Base => {
                    let k = uniq.len();
                    if k > opts.max_multi_arity {
                        return Err(RefError::MultiTooWide);
                    }
                    let mut subsets = Vec::with_capacity((1usize << k) - 1);
                    for mask in 1u32..(1u32 << k) {
                        subsets.push(
                            uniq.iter()
                                .enumerate()
                                .filter(|(i, _)| mask & (1 << i) != 0)
                                .map(|(_, s)| *s)
                                .collect(),
                        );
                    }
                    subsets
                }
            }
        }
        Terminator::Spawn { child, next } => vec![v_from([child.0, next.0])],
    })
}

fn ref_barrier_sync(graph: &MimdGraph, set: VSet) -> VSet {
    let waits: VSet = set
        .iter()
        .copied()
        .filter(|&s| graph.state(StateId(s)).barrier)
        .collect();
    if waits.is_empty() || waits.len() == set.len() {
        set
    } else {
        v_difference(&set, &waits)
    }
}

#[allow(clippy::type_complexity)]
fn ref_successor_sets(
    graph: &MimdGraph,
    members: &VSet,
    latent: &VSet,
    opts: &ConvertOptions,
    stats: &mut RefStats,
) -> Result<Vec<(VSet, VSet)>, RefError> {
    let mut acc: Vec<VSet> = vec![vec![]];
    for &m in members {
        let choices = ref_member_choices(graph, StateId(m), opts)?;
        if choices.len() == 1 && choices[0].is_empty() {
            continue;
        }
        let mut next: Vec<VSet> = Vec::new();
        let mut seen: HashSet<VSet> = HashSet::new();
        for u in &acc {
            for c in &choices {
                let t = v_union(u, c);
                if seen.insert(t.clone()) {
                    next.push(t);
                }
            }
            if next.len() > opts.max_successor_sets {
                return Err(RefError::TooManySuccessorSets);
            }
        }
        acc = next;
    }
    stats.enumerated += acc.len() as u64;

    let mut out: Vec<(VSet, VSet)> = Vec::new();
    let mut had_barrier_filter = false;
    fn push(v: VSet, l: VSet, out: &mut Vec<(VSet, VSet)>) {
        if let Some(entry) = out.iter_mut().find(|(ev, _)| *ev == v) {
            entry.1 = v_union(&entry.1, &l);
        } else {
            out.push((v, l));
        }
    }
    for t in acc {
        let t_all = v_union(&t, latent);
        if t_all.is_empty() {
            continue;
        }
        if !opts.respect_barriers {
            push(t_all, vec![], &mut out);
            continue;
        }
        let waits: VSet = t_all
            .iter()
            .copied()
            .filter(|&s| graph.state(StateId(s)).barrier)
            .collect();
        if waits.is_empty() || waits.len() == t_all.len() {
            push(t_all, vec![], &mut out);
        } else {
            had_barrier_filter = true;
            push(v_difference(&t_all, &waits), waits, &mut out);
        }
    }

    if opts.mode == ConvertMode::Compressed && opts.respect_barriers && had_barrier_filter {
        let mut waits = latent.clone();
        for &m in members {
            for s in graph.state(StateId(m)).term.successors() {
                if graph.state(s).barrier {
                    v_insert(&mut waits, s.0);
                }
            }
            if graph.state(StateId(m)).barrier {
                v_insert(&mut waits, m);
            }
        }
        if !waits.is_empty() {
            push(waits, vec![], &mut out);
        }
    }
    Ok(out)
}

fn ref_time_split_meta(
    graph: &mut MimdGraph,
    members: &VSet,
    ts: &TimeSplitOptions,
    costs: &CostModel,
    splits: &mut u32,
) -> bool {
    let times: Vec<(StateId, u64)> = members
        .iter()
        .map(|&s| (StateId(s), graph.state_cost(StateId(s), costs)))
        .filter(|&(_, t)| t > 0)
        .collect();
    if times.len() < 2 {
        return false;
    }
    let min = times.iter().map(|&(_, t)| t).min().unwrap();
    let max = times.iter().map(|&(_, t)| t).max().unwrap();
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

fn ref_prune_unreachable(auto: &mut RefAutomaton) {
    let n = auto.sets.len();
    if n == 0 {
        return;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![auto.start];
    seen[auto.start] = true;
    while let Some(m) = stack.pop() {
        for &s in &auto.succs[m] {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    if seen.iter().all(|&b| b) {
        return;
    }
    let mut new_id = vec![None; n];
    let mut kept = Vec::new();
    for (i, &s) in seen.iter().enumerate() {
        if s {
            new_id[i] = Some(kept.len());
            kept.push(i);
        }
    }
    auto.sets = kept.iter().map(|&i| auto.sets[i].clone()).collect();
    auto.succs = kept
        .iter()
        .map(|&i| auto.succs[i].iter().map(|&s| new_id[s].unwrap()).collect())
        .collect();
    auto.start = new_id[auto.start].unwrap();
}

fn ref_subsume(graph: &MimdGraph, auto: &mut RefAutomaton) -> u32 {
    let n = auto.sets.len();
    if n == 0 {
        return 0;
    }
    let barrier_only: Vec<bool> = auto
        .sets
        .iter()
        .map(|s| !s.is_empty() && s.iter().all(|&m| graph.state(StateId(m)).barrier))
        .collect();
    let mut remap: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(auto.sets[i].len()));
    for &i in &order {
        if barrier_only[i] {
            continue;
        }
        let mut best: Option<usize> = None;
        for &j in &order {
            if j == i || barrier_only[j] {
                continue;
            }
            if v_is_strict_subset(&auto.sets[i], &auto.sets[j]) {
                let better = match best {
                    None => true,
                    Some(b) => {
                        (auto.sets[j].len(), std::cmp::Reverse(j))
                            > (auto.sets[b].len(), std::cmp::Reverse(b))
                    }
                };
                if better {
                    best = Some(j);
                }
            }
        }
        if let Some(j) = best {
            remap[i] = j;
        }
    }
    fn resolve(remap: &[usize], mut i: usize) -> usize {
        let mut hops = 0;
        while remap[i] != i {
            i = remap[i];
            hops += 1;
            if hops > remap.len() {
                break;
            }
        }
        i
    }
    let removed = (0..n).filter(|&i| resolve(&remap, i) != i).count() as u32;
    if removed == 0 {
        return 0;
    }
    let mut new_id = vec![None; n];
    let mut kept: Vec<usize> = Vec::new();
    for (i, slot) in new_id.iter_mut().enumerate() {
        if resolve(&remap, i) == i {
            *slot = Some(kept.len());
            kept.push(i);
        }
    }
    let map = |i: usize| new_id[resolve(&remap, i)].unwrap();
    let mut sets = Vec::with_capacity(kept.len());
    let mut succs: Vec<Vec<usize>> = Vec::with_capacity(kept.len());
    for &i in &kept {
        sets.push(auto.sets[i].clone());
        let mut out: Vec<usize> = Vec::new();
        for &s in &auto.succs[i] {
            let t = map(s);
            if !out.contains(&t) {
                out.push(t);
            }
        }
        succs.push(out);
    }
    auto.start = map(auto.start);
    auto.sets = sets;
    auto.succs = succs;
    ref_prune_unreachable(auto);
    removed
}

fn ref_convert(
    graph: &MimdGraph,
    opts: &ConvertOptions,
) -> Result<(RefAutomaton, RefStats), RefError> {
    let mut g = graph.clone();
    let mut stats = RefStats::default();
    let max_restarts = opts
        .time_split
        .as_ref()
        .map(|t| t.max_restarts)
        .unwrap_or(0);

    'restart: loop {
        let mut arena: Vec<VSet> = Vec::new();
        let mut lookup: HashMap<VSet, usize> = HashMap::new();
        let mut sets_in_order: Vec<usize> = Vec::new();
        let mut succs: Vec<Vec<usize>> = Vec::new();
        let mut latents: Vec<VSet> = Vec::new();
        let mut meta_of_set: Vec<Option<usize>> = Vec::new();
        let mut worklist: VecDeque<usize> = VecDeque::new();
        let mut in_worklist: Vec<bool> = Vec::new();

        macro_rules! intern {
            ($set:expr, $latent:expr) => {{
                let set: VSet = $set;
                let latent: VSet = $latent;
                let sid = *lookup.entry(set.clone()).or_insert_with(|| {
                    arena.push(set);
                    arena.len() - 1
                });
                if sid >= meta_of_set.len() {
                    meta_of_set.resize(sid + 1, None);
                }
                if let Some(m) = meta_of_set[sid] {
                    if !v_is_subset(&latent, &latents[m]) {
                        latents[m] = v_union(&latents[m], &latent);
                        if !in_worklist[m] {
                            in_worklist[m] = true;
                            worklist.push_back(m);
                        }
                    }
                    m
                } else {
                    let m = sets_in_order.len();
                    meta_of_set[sid] = Some(m);
                    sets_in_order.push(sid);
                    succs.push(Vec::new());
                    latents.push(latent);
                    in_worklist.push(true);
                    worklist.push_back(m);
                    m
                }
            }};
        }

        let start_seed = vec![g.start.0];
        let start_set = if opts.respect_barriers {
            ref_barrier_sync(&g, start_seed)
        } else {
            start_seed
        };
        let start = intern!(start_set, vec![]);

        while let Some(m) = worklist.pop_front() {
            in_worklist[m] = false;
            let members = arena[sets_in_order[m]].clone();
            let latent = latents[m].clone();

            if let Some(ts) = &opts.time_split {
                if ref_time_split_meta(&mut g, &members, ts, &opts.costs, &mut stats.splits) {
                    stats.restarts += 1;
                    if stats.restarts > max_restarts {
                        return Err(RefError::TimeSplitDiverged);
                    }
                    continue 'restart;
                }
            }

            let targets = ref_successor_sets(&g, &members, &latent, opts, &mut stats)?;
            let mut out: Vec<usize> = Vec::new();
            for (t, l) in targets {
                let id = intern!(t, l);
                if !out.contains(&id) {
                    out.push(id);
                }
                if sets_in_order.len() > opts.max_meta_states {
                    return Err(RefError::TooManyMetaStates);
                }
            }
            succs[m] = out;
        }

        let mut automaton = RefAutomaton {
            sets: sets_in_order
                .iter()
                .map(|&sid| arena[sid].clone())
                .collect(),
            start,
            succs,
        };
        if opts.subsumption {
            stats.subsumed += ref_subsume(&g, &mut automaton);
        }
        return Ok((automaton, stats));
    }
}

// ---------------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------------

fn assert_matches_reference(g: &MimdGraph, opts: &ConvertOptions) -> Result<(), TestCaseError> {
    let reference = ref_convert(g, opts);
    let converted = convert_with_stats(g, opts);
    match (reference, converted) {
        (Ok((ra, rs)), Ok((ha, hs))) => {
            let converted_sets: Vec<VSet> = ha.sets.iter().map(|s| s.to_vec()).collect();
            prop_assert_eq!(&converted_sets, &ra.sets, "member sets differ");
            let converted_succs: Vec<Vec<usize>> = ha
                .succs
                .iter()
                .map(|v| v.iter().map(|m| m.idx()).collect())
                .collect();
            prop_assert_eq!(&converted_succs, &ra.succs, "successor lists differ");
            prop_assert_eq!(ha.start.idx(), ra.start, "start differs");
            prop_assert_eq!(hs.restarts, rs.restarts, "restarts differ");
            prop_assert_eq!(hs.splits, rs.splits, "splits differ");
            prop_assert_eq!(hs.subsumed, rs.subsumed, "subsumed differ");
            prop_assert_eq!(
                hs.successor_sets_enumerated,
                rs.enumerated,
                "enumeration stats differ"
            );
        }
        (Err(re), Ok(_)) => {
            return Err(TestCaseError::fail(format!("only reference errs: {re:?}")))
        }
        (Ok(_), Err(he)) => {
            return Err(TestCaseError::fail(format!(
                "only the converter errs: {he}"
            )))
        }
        (Err(re), Err(he)) => {
            let same = matches!(
                (&re, &he),
                (
                    RefError::TooManyMetaStates,
                    ConvertError::TooManyMetaStates { .. }
                ) | (
                    RefError::TooManySuccessorSets,
                    ConvertError::TooManySuccessorSets { .. }
                ) | (RefError::MultiTooWide, ConvertError::MultiTooWide { .. })
                    | (
                        RefError::TimeSplitDiverged,
                        ConvertError::TimeSplitDiverged { .. }
                    )
            );
            prop_assert!(same, "error kinds differ: {:?} vs {}", re, he);
        }
    }
    Ok(())
}

/// Random small MIMD graphs with barriers and uneven state costs (so time
/// splitting actually fires): the same shape as the core proptests, plus a
/// per-state op count.
fn arb_graph() -> impl Strategy<Value = MimdGraph> {
    (
        2usize..8,
        prop::collection::vec(
            (0u8..4, 0u32..64, 0u32..64, any::<bool>(), 1usize..24),
            2..8,
        ),
        // Unreachable padding states ahead of the real ones, so member ids
        // — and with them every set's window — start past word 0: in word
        // 0, straddling words 0–1, in word 2, in word 15.
        prop_oneof![Just(0u32), Just(60), Just(130), Just(1000)],
        // And between the first `split` real states and the rest, so a
        // meta state holding a state from either side of 130 paddings
        // spans three words: a boxed window.
        prop_oneof![Just(0u32), Just(130)],
        0usize..8,
    )
        .prop_map(|(n, seeds, pad, gap, split)| {
            let n = n.min(seeds.len());
            let id = |i: usize| StateId(pad + i as u32 + if i < split { 0 } else { gap });
            let mut g = MimdGraph::new();
            for _ in 0..pad {
                g.add(MimdState::new(vec![], Terminator::Halt));
            }
            for (i, &(_, _, _, barrier, cost)) in seeds.iter().take(n).enumerate() {
                if i == split {
                    for _ in 0..gap {
                        g.add(MimdState::new(vec![], Terminator::Halt));
                    }
                }
                let mut st = MimdState::new(vec![Op::Push(i as i64); cost], Terminator::Halt);
                st.barrier = barrier && i != 0 && i % 3 == 0;
                assert_eq!(g.add(st), id(i));
            }
            for (i, &(kind, a, b, _, _)) in seeds.iter().take(n).enumerate() {
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

/// A meta state whose latent set widens after its expansion, followed by
/// one that shares its running core and holds its *old* latent set.
///
/// `{P}` is expanded first with nothing latent (successor `{W}`). `{Q}` and
/// `{P,Q}` then widen its latent set to `{B,W}` and it is expanded again
/// (successor `{B,W}`). Last, `{P,H}` is popped with nothing latent: its core
/// is `{P}`, as `{P}`'s is, but its successor is `{W}` — `{P}`'s list of
/// before the widening, which `{P}` no longer holds.
fn stale_owner_graph() -> MimdGraph {
    let mut g = MimdGraph::new();
    let state =
        |g: &mut MimdGraph, i: i64| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt));
    let [s, p, q, w, b, r, h] = [0, 1, 2, 3, 4, 5, 6].map(|i| state(&mut g, i));
    g.state_mut(s).term = Terminator::Branch { t: p, f: q };
    g.state_mut(p).term = Terminator::Jump(w);
    g.state_mut(q).term = Terminator::Spawn { child: b, next: p };
    g.state_mut(w).barrier = true;
    g.state_mut(b).barrier = true;
    g.state_mut(b).term = Terminator::Jump(r);
    g.state_mut(r).term = Terminator::Spawn { child: p, next: h };
    g.start = s;
    g
}

#[test]
fn a_widened_owner_does_not_answer_for_its_old_latent_set() {
    let g = stale_owner_graph();
    assert_matches_reference(&g, &ConvertOptions::base()).unwrap();
    let (a, _) = convert_with_stats(&g, &ConvertOptions::base()).unwrap();
    let id = |v: &[u32]| a.find(&v.iter().map(|&s| StateId(s)).collect()).unwrap();
    assert_eq!(a.successors(id(&[1])), &[id(&[3, 4])]);
    assert_eq!(a.successors(id(&[1, 6])), &[id(&[3])]);
}

/// A halted barrier wait is part of the running core: compressed mode's
/// §3.2.4 release edge collects the barrier members.
///
/// `{B,W}` (`W` a halted wait) is expanded first; `{B}` is reached later,
/// from `{X}`'s release edge, with the same (empty) latent set. Its own
/// release edge loops to `{B}`, where `{B,W}`'s goes to `{B,W}`.
fn halted_wait_graph() -> MimdGraph {
    let mut g = MimdGraph::new();
    let state =
        |g: &mut MimdGraph, i: i64| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt));
    let [s, a, c, w, b, x, z] = [0, 1, 2, 3, 4, 5, 6].map(|i| state(&mut g, i));
    g.state_mut(s).term = Terminator::Branch { t: a, f: c };
    g.state_mut(a).term = Terminator::Jump(b);
    g.state_mut(c).term = Terminator::Jump(w);
    g.state_mut(w).barrier = true;
    g.state_mut(b).barrier = true;
    g.state_mut(b).term = Terminator::Branch { t: x, f: b };
    g.state_mut(x).term = Terminator::Jump(z);
    g.state_mut(z).term = Terminator::Jump(b);
    g.start = s;
    g
}

#[test]
fn a_halted_barrier_wait_is_part_of_the_running_core() {
    let g = halted_wait_graph();
    let mut opts = ConvertOptions::compressed();
    opts.subsumption = false;
    assert_matches_reference(&g, &opts).unwrap();
    let (a, _) = convert_with_stats(&g, &opts).unwrap();
    let id = |v: &[u32]| a.find(&v.iter().map(|&s| StateId(s)).collect()).unwrap();
    assert_eq!(a.successors(id(&[3, 4])), &[id(&[5]), id(&[3, 4])]);
    assert_eq!(a.successors(id(&[4])), &[id(&[5]), id(&[4])]);
    assert_matches_reference(&g, &ConvertOptions::compressed()).unwrap();
}

fn bounded(mut opts: ConvertOptions) -> ConvertOptions {
    opts.max_meta_states = 4096;
    opts
}

proptest! {
    /// Base mode (§2.3), barriers respected.
    #[test]
    fn base_mode_matches_reference(g in arb_graph()) {
        assert_matches_reference(&g, &bounded(ConvertOptions::base()))?;
    }

    /// Base mode with barriers ignored.
    #[test]
    fn base_mode_no_barriers_matches_reference(g in arb_graph()) {
        let mut opts = bounded(ConvertOptions::base());
        opts.respect_barriers = false;
        assert_matches_reference(&g, &opts)?;
    }

    /// Compressed construction alone (§2.5, subsumption off).
    #[test]
    fn compressed_mode_matches_reference(g in arb_graph()) {
        let mut opts = bounded(ConvertOptions::compressed());
        opts.subsumption = false;
        assert_matches_reference(&g, &opts)?;
    }

    /// Compressed + subsumption fold — exercises the inverted-index
    /// superset search against the all-pairs reference.
    #[test]
    fn compressed_with_subsumption_matches_reference(g in arb_graph()) {
        assert_matches_reference(&g, &bounded(ConvertOptions::compressed()))?;
    }

    /// Time splitting (§2.4) in base mode: restarts, split counts, and the
    /// split-extended state space must all agree.
    #[test]
    fn time_split_base_matches_reference(g in arb_graph()) {
        let mut opts = bounded(ConvertOptions::base());
        opts.time_split = Some(TimeSplitOptions::default());
        assert_matches_reference(&g, &opts)?;
    }

    /// Time splitting + compression + subsumption all together.
    #[test]
    fn time_split_compressed_matches_reference(g in arb_graph()) {
        let mut opts = bounded(ConvertOptions::compressed());
        opts.time_split = Some(TimeSplitOptions::default());
        assert_matches_reference(&g, &opts)?;
    }
}
