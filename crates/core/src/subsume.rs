//! Subset subsumption for compressed automata (§2.5).
//!
//! "The case of both successors can always emulate either successor, since
//! it has the code for both." A meta state whose members are a strict
//! subset of another meta state's members can therefore be *folded into*
//! the superset: every arc into the subset is redirected to the superset,
//! and the subset is removed. On the paper's running example this is what
//! takes the compressed automaton from the three reachable sets
//! {0}, {2,6}, {2,6,9} down to Figure 5's **two** meta states.
//!
//! Barrier-only meta states are never folded: the all-barrier state is the
//! barrier *release* target (§3.2.4), and folding it into a superset that
//! contains non-barrier members would let PEs run past the barrier early.

use crate::automaton::{MetaAutomaton, MetaId};
use msc_ir::util::FxHashSet;
use msc_simd::setops;

/// Fold strict-subset meta states into supersets. Returns the number of
/// meta states removed. The automaton is rebuilt with dense ids; the start
/// state is remapped if it was folded.
///
/// The superset search uses an inverted index (MIMD state → metas whose
/// set contains it): any superset of meta `i` must appear on the
/// occurrence list of *every* member of `i`, so it suffices to scan the
/// shortest such list — the one of `i`'s rarest member — instead of all n
/// metas. The surviving candidates are checked in one batched
/// [`setops::subset_of_many`] call over an SoA snapshot of every set's bit
/// words, taking the pass from O(n² · width) pointer-chasing to roughly
/// O(n · rarest-occurrence · words) streamed through the SIMD kernels.
pub fn subsume(auto: &mut MetaAutomaton) -> u32 {
    let n = auto.sets.len();
    if n == 0 {
        return 0;
    }
    let barrier_only: Vec<bool> = auto
        .sets
        .iter()
        .map(|s| !s.is_empty() && s.iter().all(|m| auto.graph.state(m).barrier))
        .collect();

    // Occurrence lists over fold-eligible metas only (barrier-only metas
    // are neither folded nor folded into, so they stay out of the index).
    let max_state = auto
        .sets
        .iter()
        .flat_map(|s| s.iter())
        .map(|s| s.idx())
        .max()
        .map_or(0, |m| m + 1);
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); max_state];
    for (i, s) in auto.sets.iter().enumerate() {
        if barrier_only[i] {
            continue;
        }
        for m in s.iter() {
            containing[m.idx()].push(i as u32);
        }
    }

    // SoA snapshot of every fold-eligible set's bit words: one contiguous
    // arena the batched subset kernel streams through, instead of chasing
    // per-set allocations pair by pair.
    let mut arena: Vec<u64> = Vec::new();
    let mut spans: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut set_len: Vec<usize> = vec![0; n];
    for (i, s) in auto.sets.iter().enumerate() {
        set_len[i] = s.len();
        if barrier_only[i] {
            continue;
        }
        let off = arena.len() as u32;
        let nw = s.append_bit_words(&mut arena) as u32;
        spans[i] = (off, nw);
    }

    // For determinism, fold each subset into the *largest* superset
    // (ties broken by lowest id). The winner is a unique argmax over
    // (len, Reverse(id)), so the candidate scan order is irrelevant.
    let mut remap: Vec<MetaId> = (0..n as u32).map(MetaId).collect();
    let mut candidate_scans = 0u64;
    let mut cand_ids: Vec<u32> = Vec::new();
    let mut cand_spans: Vec<(u32, u32)> = Vec::new();
    let mut hits: Vec<u32> = Vec::new();

    for i in 0..n {
        if barrier_only[i] {
            continue;
        }
        cand_ids.clear();
        cand_spans.clear();
        hits.clear();
        // Strictness is a pure length check, so it prunes candidates
        // before the word scan: only longer sets can strictly contain `i`.
        let mut push_cand = |j: u32| {
            if set_len[j as usize] > set_len[i] {
                cand_ids.push(j);
                cand_spans.push(spans[j as usize]);
            }
        };
        let rarest = auto.sets[i]
            .iter()
            .min_by_key(|m| containing[m.idx()].len());
        match rarest {
            Some(m) => {
                candidate_scans += containing[m.idx()].len() as u64;
                for &j in &containing[m.idx()] {
                    push_cand(j);
                }
            }
            // The empty set is a strict subset of everything; fall back to
            // a full scan.
            None => {
                candidate_scans += n as u64;
                for j in 0..n as u32 {
                    if !barrier_only[j as usize] {
                        push_cand(j);
                    }
                }
            }
        }
        let (off, nw) = spans[i];
        let a = &arena[off as usize..(off + nw) as usize];
        setops::subset_of_many(a, &arena, &cand_spans, &mut hits);
        let best = hits
            .iter()
            .map(|&h| cand_ids[h as usize] as usize)
            .max_by_key(|&j| (set_len[j], std::cmp::Reverse(j)));
        if let Some(j) = best {
            remap[i] = MetaId(j as u32);
        }
    }

    // Resolve chains (a ⊂ b ⊂ c): follow remap until fixpoint.
    fn resolve(remap: &[MetaId], mut i: MetaId) -> MetaId {
        let mut hops = 0;
        while remap[i.idx()] != i {
            i = remap[i.idx()];
            hops += 1;
            debug_assert!(hops <= remap.len(), "remap cycle");
            if hops > remap.len() {
                break;
            }
        }
        i
    }

    msc_obs::count("subsume.candidate_scans", candidate_scans);

    let removed = (0..n)
        .filter(|&i| resolve(&remap, MetaId(i as u32)).idx() != i)
        .count() as u32;
    msc_obs::count("subsume.folded", removed as u64);
    if removed == 0 {
        return 0;
    }

    // Rebuild densely, keeping only surviving meta states (in original
    // order) reachable from the remapped start.
    let mut new_id = vec![None; n];
    let mut kept: Vec<usize> = Vec::new();
    for (i, slot) in new_id.iter_mut().enumerate() {
        if resolve(&remap, MetaId(i as u32)).idx() == i {
            *slot = Some(MetaId(kept.len() as u32));
            kept.push(i);
        }
    }
    let map = |i: MetaId| -> MetaId { new_id[resolve(&remap, i).idx()].unwrap() };

    let sets = kept.iter().map(|&i| auto.sets[i].clone()).collect();
    let mut seen: FxHashSet<MetaId> = FxHashSet::default();
    auto.succs = auto.succs.rebuild(&kept, |list, edges| {
        seen.clear();
        edges.extend(list.iter().map(|&s| map(s)).filter(|&t| seen.insert(t)));
    });
    auto.start = map(auto.start);
    auto.sets = sets;

    // Folding can strand meta states (only reachable through folded ones);
    // drop anything unreachable from start.
    auto.prune_unreachable();
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::SuccTable;
    use crate::stateset::StateSet;
    use msc_ir::{MimdGraph, MimdState, StateId, Terminator};

    fn graph(n: u32, barriers: &[u32]) -> MimdGraph {
        let mut g = MimdGraph::new();
        for i in 0..n {
            let id = g.add(MimdState::new(vec![], Terminator::Halt));
            if barriers.contains(&i) {
                g.state_mut(id).barrier = true;
            }
        }
        g.start = StateId(0);
        g
    }

    fn set(v: &[u32]) -> StateSet {
        StateSet::from_iter(v.iter().map(|&x| StateId(x)))
    }

    fn table(lists: &[&[u32]]) -> SuccTable {
        lists
            .iter()
            .map(|l| l.iter().map(|&t| MetaId(t)).collect())
            .collect()
    }

    #[test]
    fn folds_subset_into_superset() {
        let mut auto = MetaAutomaton {
            graph: graph(4, &[]),
            sets: vec![set(&[0]), set(&[1, 2]), set(&[1, 2, 3])],
            start: MetaId(0),
            succs: table(&[&[1], &[2], &[2]]),
        };
        let removed = subsume(&mut auto);
        assert_eq!(removed, 1);
        assert_eq!(auto.len(), 2);
        assert_eq!(auto.sets, vec![set(&[0]), set(&[1, 2, 3])]);
        assert_eq!(auto.succs, table(&[&[1], &[1]]));
        assert_eq!(auto.validate(), Ok(()));
    }

    #[test]
    fn resolves_chains() {
        let mut auto = MetaAutomaton {
            graph: graph(4, &[]),
            sets: vec![set(&[0]), set(&[1]), set(&[1, 2]), set(&[1, 2, 3])],
            start: MetaId(0),
            succs: table(&[&[1], &[2], &[3], &[]]),
        };
        let removed = subsume(&mut auto);
        assert_eq!(removed, 2);
        assert_eq!(auto.sets, vec![set(&[0]), set(&[1, 2, 3])]);
    }

    #[test]
    fn never_folds_barrier_only_states() {
        // {3} is a barrier state; {1,2,3} would subsume it but must not.
        let mut auto = MetaAutomaton {
            graph: graph(4, &[3]),
            sets: vec![set(&[0]), set(&[3]), set(&[1, 2, 3])],
            start: MetaId(0),
            succs: table(&[&[1, 2], &[], &[2]]),
        };
        let removed = subsume(&mut auto);
        assert_eq!(removed, 0);
        assert_eq!(auto.len(), 3);
    }

    #[test]
    fn remaps_folded_start() {
        let mut auto = MetaAutomaton {
            graph: graph(3, &[]),
            sets: vec![set(&[0]), set(&[0, 1])],
            start: MetaId(0),
            succs: table(&[&[1], &[]]),
        };
        subsume(&mut auto);
        assert_eq!(auto.len(), 1);
        assert_eq!(auto.start, MetaId(0));
        assert_eq!(auto.members(auto.start), &set(&[0, 1]));
    }

    #[test]
    fn prunes_stranded_states() {
        // 0:{5} → 1:{1}; 1 folds into 2:{1,2} whose only path is from 1;
        // 3:{9} only reachable from 1 — after folding, 3 unreachable? Build:
        // start {5} → {1}; {1} → {9}; {1,2} → nothing. Fold {1} ⊂ {1,2}:
        // start → {1,2}; {9} now unreachable and must be pruned.
        let mut auto = MetaAutomaton {
            graph: graph(10, &[]),
            sets: vec![set(&[5]), set(&[1]), set(&[1, 2]), set(&[9])],
            start: MetaId(0),
            succs: table(&[&[1], &[3], &[], &[]]),
        };
        subsume(&mut auto);
        assert_eq!(auto.len(), 2);
        assert!(auto.find(&set(&[9])).is_none());
        assert_eq!(auto.validate(), Ok(()));
    }

    #[test]
    fn no_op_when_no_subsets() {
        let mut auto = MetaAutomaton {
            graph: graph(4, &[]),
            sets: vec![set(&[0]), set(&[1, 2]), set(&[2, 3])],
            start: MetaId(0),
            succs: table(&[&[1, 2], &[], &[]]),
        };
        assert_eq!(subsume(&mut auto), 0);
        assert_eq!(auto.len(), 3);
    }

    #[test]
    fn folding_keeps_shared_spans_shared() {
        // {1,5} and {2,5} share one list {3}, {3,4}; {3} folds into
        // {3,4}, so the shared list becomes {3,4} alone, still stored once.
        let mut auto = MetaAutomaton {
            graph: graph(6, &[]),
            sets: vec![
                set(&[0]),
                set(&[1, 5]),
                set(&[2, 5]),
                set(&[3]),
                set(&[3, 4]),
            ],
            start: MetaId(0),
            succs: SuccTable::shared(&[&[1, 2], &[3, 4], &[], &[], &[]], &[(2, 1)]),
        };
        assert_eq!(auto.succs.stored_edges(), 4);
        assert_eq!(subsume(&mut auto), 1);
        assert_eq!(
            auto.sets,
            vec![set(&[0]), set(&[1, 5]), set(&[2, 5]), set(&[3, 4])]
        );
        assert_eq!(auto.succs, table(&[&[1, 2], &[3], &[3], &[]]));
        assert_eq!(
            auto.succs.stored_edges(),
            3,
            "{{1,5}} and {{2,5}} still share"
        );
    }
}
