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

/// Fold strict-subset meta states into supersets. Returns the number of
/// meta states removed. The automaton is rebuilt with dense ids; the start
/// state is remapped if it was folded.
///
/// The superset search uses an inverted index (MIMD state → metas whose
/// set contains it): any superset of meta `i` must appear on the
/// occurrence list of *every* member of `i`, so it suffices to scan the
/// shortest such list — the one of `i`'s rarest member — instead of all n
/// metas. Each surviving candidate is tested on the automaton's own sets
/// with [`StateSet::is_subset`](crate::StateSet::is_subset), which compares
/// the two tight windows where they overlap: the pass holds no copy of the
/// sets, only the index and O(n) tables, and costs roughly
/// O(n · rarest-occurrence · window words).
pub fn subsume(auto: &mut MetaAutomaton) -> u32 {
    let n = auto.sets.len();
    if n == 0 {
        return 0;
    }
    let remap = fold_targets(auto);

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

    let sets = kept
        .iter()
        .map(|&i| std::mem::take(&mut auto.sets[i]))
        .collect();
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

/// Each meta state's fold target: its largest strict superset (ties
/// broken by lowest id) among the fold-eligible meta states, or itself.
/// Chains are left to the caller.
fn fold_targets(auto: &MetaAutomaton) -> Vec<MetaId> {
    let sets = &auto.sets;
    let n = sets.len();
    let barrier_only: Vec<bool> = sets
        .iter()
        .map(|s| !s.is_empty() && s.iter().all(|m| auto.graph.state(m).barrier))
        .collect();

    // Occurrence lists over fold-eligible metas only (barrier-only metas
    // are neither folded nor folded into, so they stay out of the index).
    let max_state = sets
        .iter()
        .flat_map(|s| s.iter())
        .map(|s| s.idx())
        .max()
        .map_or(0, |m| m + 1);
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); max_state];
    let mut eligible: Vec<u32> = Vec::new();
    for (i, s) in sets.iter().enumerate() {
        if barrier_only[i] {
            continue;
        }
        eligible.push(i as u32);
        for m in s.iter() {
            containing[m.idx()].push(i as u32);
        }
    }

    // For determinism, fold each subset into the *largest* superset
    // (ties broken by lowest id). The winner is a unique argmax over
    // (len, Reverse(id)), so the candidate scan order is irrelevant.
    let mut remap: Vec<MetaId> = (0..n as u32).map(MetaId).collect();
    let mut candidate_scans = 0u64;
    for &i in &eligible {
        let a = &sets[i as usize];
        let (cands, scanned) = match a.iter().min_by_key(|m| containing[m.idx()].len()) {
            Some(m) => (&containing[m.idx()], containing[m.idx()].len()),
            // The empty set is a strict subset of everything; fall back to
            // a full scan.
            None => (&eligible, n),
        };
        candidate_scans += scanned as u64;
        // `is_strict_subset` compares lengths before any word: only
        // longer sets can strictly contain `i`.
        let best = cands
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| a.is_strict_subset(&sets[j]))
            .max_by_key(|&j| (sets[j].len(), std::cmp::Reverse(j)));
        if let Some(j) = best {
            remap[i as usize] = MetaId(j as u32);
        }
    }
    msc_obs::count("subsume.candidate_scans", candidate_scans);
    remap
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

    /// `n` pairs {3i, 3i+1} ⊂ {3i, 3i+1, 3i+2} chained by successor arcs.
    fn subset_chain(n: u32) -> MetaAutomaton {
        let sets: Vec<StateSet> = (0..n)
            .flat_map(|i| {
                [
                    set(&[3 * i, 3 * i + 1]),
                    set(&[3 * i, 3 * i + 1, 3 * i + 2]),
                ]
            })
            .collect();
        let last = sets.len() as u32 - 1;
        MetaAutomaton {
            graph: graph(3 * n, &[]),
            succs: (0..=last)
                .map(|i| (i < last).then_some(MetaId(i + 1)).into_iter().collect())
                .collect(),
            sets,
            start: MetaId(0),
        }
    }

    #[test]
    fn folds_a_chain_across_window_bases() {
        // Members 0..300: the sets sit in words 0 to 4, and some straddle
        // a word boundary ({63, 64}, {126, 127, 128}).
        let mut auto = subset_chain(100);
        assert_eq!(subsume(&mut auto), 100);
        assert_eq!(
            auto.sets,
            (0..100)
                .map(|i| set(&[3 * i, 3 * i + 1, 3 * i + 2]))
                .collect::<Vec<_>>()
        );
        assert_eq!(auto.start, MetaId(0));
        assert_eq!(auto.validate(), Ok(()));
        assert_eq!(subsume(&mut auto), 0);
    }

    #[test]
    fn folds_into_a_superset_whose_window_is_wider_on_both_sides() {
        // {70,130} spans words 1..=2; {5,70,130,200} spans words 0..=3.
        // {6,71,131}, the subset's members plus one, contains neither.
        let mut auto = MetaAutomaton {
            graph: graph(201, &[]),
            sets: vec![set(&[70, 130]), set(&[5, 70, 130, 200]), set(&[6, 71, 131])],
            start: MetaId(0),
            succs: table(&[&[1], &[0, 2], &[]]),
        };
        assert_eq!(subsume(&mut auto), 1);
        assert_eq!(auto.sets, vec![set(&[5, 70, 130, 200]), set(&[6, 71, 131])]);
        assert_eq!(auto.succs, table(&[&[0, 1], &[]]));
        assert_eq!(auto.validate(), Ok(()));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Twelve real states after `pad` unused ids, their second half
        /// `gap` ids further on: windows start past word 0, cross word
        /// boundaries and span up to four words. Each meta state's set is a
        /// mask over the twelve, so subsets are common.
        fn arb_automaton() -> impl Strategy<Value = MetaAutomaton> {
            let pad = prop_oneof![Just(0u32), Just(60), Just(130), Just(1_000)];
            let gap = prop_oneof![Just(0u32), Just(130)];
            let metas = prop::collection::vec(
                (0u32..1 << 12, prop::collection::vec(0u32..64, 0..4)),
                1..24,
            );
            (pad, gap, 0u32..1 << 12, metas).prop_map(|(pad, gap, barriers, metas)| {
                let id = |r: u32| pad + r + if r >= 6 { gap } else { 0 };
                let of_mask = |mask: u32| (0..12).filter(move |r| mask >> r & 1 == 1);
                let barrier_ids: Vec<u32> = of_mask(barriers).map(id).collect();
                let mut sets: Vec<StateSet> = Vec::new();
                let mut succs: Vec<Vec<u32>> = Vec::new();
                for (mask, targets) in metas {
                    let s = StateSet::from_iter(of_mask(mask).map(|r| StateId(id(r))));
                    if !sets.contains(&s) {
                        sets.push(s);
                        succs.push(targets);
                    }
                }
                let n = sets.len() as u32;
                let lists: Vec<Vec<u32>> = succs
                    .iter()
                    .map(|t| t.iter().map(|&j| j % n).collect())
                    .collect();
                let lists: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
                MetaAutomaton {
                    graph: graph(id(11) + 1, &barrier_ids),
                    sets,
                    start: MetaId(0),
                    succs: table(&lists),
                }
            })
        }

        /// The fold target by definition: every pair tested, member by
        /// member, so no window arithmetic is shared with `is_subset`.
        fn all_pairs(auto: &MetaAutomaton) -> Vec<MetaId> {
            let sets = &auto.sets;
            let eligible = |i: usize| {
                sets[i].is_empty() || !sets[i].iter().all(|m| auto.graph.state(m).barrier)
            };
            (0..sets.len())
                .map(|i| {
                    let best = (0..sets.len())
                        .filter(|&j| eligible(i) && eligible(j))
                        .filter(|&j| sets[i].len() < sets[j].len())
                        .filter(|&j| sets[i].iter().all(|m| sets[j].contains(m)))
                        .max_by_key(|&j| (sets[j].len(), std::cmp::Reverse(j)));
                    MetaId(best.unwrap_or(i) as u32)
                })
                .collect()
        }

        proptest! {
            /// The occurrence-list search picks the all-pairs target, and
            /// after one pass nothing is left to fold.
            #[test]
            fn one_pass_folds_everything_the_all_pairs_scan_would(auto in arb_automaton()) {
                prop_assert_eq!(fold_targets(&auto), all_pairs(&auto));
                let mut auto = auto;
                subsume(&mut auto);
                prop_assert_eq!(auto.validate(), Ok(()));
                prop_assert_eq!(subsume(&mut auto), 0);
            }
        }
    }
}
