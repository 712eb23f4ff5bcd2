//! Subset construction: ε-NFA → meta-automaton (a byte-class DFA).
//!
//! This is the paper's conversion applied to the regex domain: each DFA
//! state *is* a [`StateSet`] of NFA states that can coexist after reading
//! some prefix, interned in the same [`SetArena`] the MIMD converter uses.
//! Two deltas from the MIMD pipeline:
//!
//! * **Anchors are positional, not consuming.** `^` is only traversable
//!   in the closure that seeds an attempt at position 0, so the machine
//!   carries two start states (`start_bof` / `start_mid`). `$` is only
//!   traversable at total end of input, so a state accepts in one of three
//!   ways: never, only at the end of the whole input (Match becomes
//!   reachable once `$` fires), or anywhere (Match is in the set).
//! * **No subsumption.** Folding a subset state into a superset preserves
//!   MIMD emulation but not the recognized language — a superset can
//!   accept strings the subset rejects — so the DFA keeps every distinct
//!   set. A cap on distinct meta states bounds the blowup instead.
//!
//! One worklist loop (`build`) produces two tables over the same byte
//! classes. They differ only in the set re-seeded before each step:
//!
//! * the **anchored** table re-seeds nothing: `step(A, b) =
//!   closure(move(A, b))`, one attempt's threads running until they die.
//!   This is the automaton [`MetaDfa::len`] counts.
//! * the **search** table re-seeds `S = closure(start_mid)`: `step(A, b) =
//!   closure(move(A ∪ S, b))`, so a state is the set of threads still
//!   alive from *every* earlier start position — the paper's one
//!   transition per step for all live threads at once. `∅` is a real
//!   state there (*idle*: no earlier start is still alive). Accept flags
//!   are taken on `A`, never on `S`, so empty matches stay unreported.
//!
//! Both tables are laid out for the scan loop: state ids are premultiplied
//! row offsets, the class stride is padded to a power of two, and row 0 is
//! the empty set (dead / idle), so one step is `trans[state + class[b]]`
//! and "no thread left" is `state == 0`. After its sweep `build` sorts the
//! rows by how they accept — never, then only at the end, then anywhere —
//! and a table carries the two row offsets where the kinds change, so
//! "does this state accept" is one compare on the state id: the walk loads
//! nothing but the byte's class and the transition.

use crate::nfa::{Nfa, State};
use msc_core::{SetArena, SetId, StateSet};
use msc_ir::StateId;
use std::collections::HashMap;

/// Default cap on distinct meta states; beyond it the pattern is rejected
/// as too complex rather than letting subset construction run away.
/// [`compile_with_limit`] accepts any other cap.
pub const MAX_META_STATES: usize = 4096;

/// One transition table over premultiplied state ids.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    /// `trans[state + class]` is the successor's row offset. Rows are
    /// `1 << shift` entries wide (the class count rounded up to a power
    /// of two; no byte maps to the excess); row 0 is the empty set.
    pub(crate) trans: Vec<u32>,
    /// First row offset that accepts at the total end of input: Match is
    /// in the set or reachable from it through `$` assertions. Rows below
    /// it never accept.
    pub(crate) end_from: u32,
    /// First row offset that accepts anywhere: Match is in the set.
    /// `end_from <= mid_from`; either is `trans.len()` when no row
    /// qualifies.
    pub(crate) mid_from: u32,
}

impl Table {
    /// Does `state` accept here — anywhere, or, when `at_end`, at the
    /// total end of input?
    #[inline]
    pub(crate) fn accepts(&self, state: u32, at_end: bool) -> bool {
        state >= if at_end { self.end_from } else { self.mid_from }
    }
}

/// The compiled meta-automaton.
#[derive(Debug, Clone)]
pub struct MetaDfa {
    /// Byte → equivalence class (bytes no NFA edge distinguishes share a
    /// class, shrinking each transition row from 256 to the class count).
    pub(crate) classes: [u8; 256],
    /// log₂ of the padded row width shared by both tables.
    pub(crate) shift: u32,
    /// One attempt from one start position; row 0 is *dead*.
    pub(crate) anchored: Table,
    /// All start positions at once; row 0 is *idle*. Absent when it did
    /// not fit in what the anchored table left of the state cap — the
    /// scan then attempts every position instead of windowing.
    pub(crate) search: Option<Table>,
    /// Anchored start state for an attempt at position 0 (0 when dead).
    pub(crate) start_bof: u32,
    /// Anchored start state for an attempt anywhere else (0 when dead).
    pub(crate) start_mid: u32,
    /// Bytes on which `start_mid` survives: the only bytes that take the
    /// search table out of idle.
    pub(crate) can_start: [bool; 256],
}

impl MetaDfa {
    /// Number of meta states of the anchored automaton (the empty set is
    /// not counted).
    pub fn len(&self) -> usize {
        (self.anchored.trans.len() >> self.shift) - 1
    }

    /// True when the automaton has no states (both starts dead).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Subset construction hit [`MAX_META_STATES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooComplex {
    /// The cap that was hit.
    pub limit: usize,
}

/// ε-closure of `seeds`: expand `Split` unconditionally and `Start` only
/// when `at_start`; keep `Byte` / `Match` / `End` states as the set's
/// identity. (`End` members stay opaque here — they fire in
/// [`end_accepts`], never mid-input.)
fn closure(nfa: &Nfa, seeds: impl IntoIterator<Item = u32>, at_start: bool) -> StateSet {
    let mut seen = vec![false; nfa.states.len()];
    let mut stack: Vec<u32> = seeds.into_iter().collect();
    let mut members = Vec::new();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id as usize], true) {
            continue;
        }
        match nfa.states[id as usize] {
            State::Split { a, b } => {
                stack.push(a);
                stack.push(b);
            }
            State::Start { next } => {
                if at_start {
                    stack.push(next);
                }
            }
            State::Byte { .. } | State::End { .. } | State::Match => members.push(StateId(id)),
        }
    }
    StateSet::from_iter(members)
}

/// Does `set` accept at total end of input? True when Match is a member
/// or becomes reachable by firing `$` assertions (and the ε states behind
/// them). `^` is not traversable here: end-of-input coincides with
/// position 0 only on empty input, where any match would be empty and
/// empty matches are never reported.
fn end_accepts(nfa: &Nfa, set: &StateSet) -> bool {
    let mut seen = vec![false; nfa.states.len()];
    let mut stack: Vec<u32> = set
        .iter()
        .filter(|s| matches!(nfa.states[s.0 as usize], State::End { .. }))
        .map(|s| s.0)
        .collect();
    if set
        .iter()
        .any(|s| matches!(nfa.states[s.0 as usize], State::Match))
    {
        return true;
    }
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id as usize], true) {
            continue;
        }
        match nfa.states[id as usize] {
            State::Match => return true,
            State::End { next } => stack.push(next),
            State::Split { a, b } => {
                stack.push(a);
                stack.push(b);
            }
            State::Start { .. } | State::Byte { .. } => {}
        }
    }
    false
}

/// Partition bytes into equivalence classes: two bytes share a class iff
/// every `Byte` state of the NFA treats them identically. Returns the
/// class table and one representative byte per class (at most 256, so a
/// class id fits a `u8`).
fn byte_classes(nfa: &Nfa) -> ([u8; 256], Vec<u8>) {
    let byte_states: Vec<&crate::parser::ByteSet> = nfa
        .states
        .iter()
        .filter_map(|s| match s {
            State::Byte { set, .. } => Some(set),
            _ => None,
        })
        .collect();
    let words = byte_states.len().div_ceil(64).max(1);
    let mut classes = [0u8; 256];
    let mut reps: Vec<u8> = Vec::new();
    let mut sig_to_class: HashMap<Vec<u64>, u8> = HashMap::new();
    for b in 0..=255u8 {
        let mut sig = vec![0u64; words];
        for (i, set) in byte_states.iter().enumerate() {
            if set.contains(b) {
                sig[i / 64] |= 1u64 << (i % 64);
            }
        }
        let next = sig_to_class.len() as u8;
        let class = *sig_to_class.entry(sig).or_insert_with(|| {
            reps.push(b);
            next
        });
        classes[b as usize] = class;
    }
    (classes, reps)
}

/// The subset-construction worklist: intern `∅` as row 0 and `roots`
/// after it, then sweep the arena, interning each set's successor on
/// every class representative. `reseed` is united into a set before it
/// steps — `∅` builds the anchored table, `closure(start_mid)` the search
/// table. The rows are then sorted by how they accept (a stable sort, so
/// `∅` stays row 0 and the order is a function of the pattern alone).
/// Returns the table and the row offsets of `roots`, or `None` once more
/// than `limit` non-empty sets exist (or a row offset would not fit the
/// table's `u32` entries).
fn build(
    nfa: &Nfa,
    reps: &[u8],
    shift: u32,
    roots: Vec<StateSet>,
    reseed: &StateSet,
    limit: usize,
) -> Option<(Table, Vec<u32>)> {
    let mut arena = SetArena::new();
    arena.intern(StateSet::empty());
    let fits =
        |arena: &SetArena| arena.len() - 1 <= limit && arena.len() <= (u32::MAX >> shift) as usize;
    let row = |id: SetId| id.0 << shift;
    let roots: Vec<u32> = roots
        .into_iter()
        .map(|set| row(arena.intern(set)))
        .collect();
    if !fits(&arena) {
        return None;
    }

    // The arena grows as BFS discovers successors; meta state i is the
    // i-th interned set, so a plain index sweep visits every state once.
    // `kind[i]`: 0 never accepts, 1 only at the end of input, 2 anywhere.
    let mut trans: Vec<u32> = Vec::new();
    let mut kind: Vec<u8> = Vec::new();
    let mut i = 0usize;
    while i < arena.len() {
        let set = arena.get(SetId(i as u32));
        let anywhere = set
            .iter()
            .any(|s| matches!(nfa.states[s.0 as usize], State::Match));
        kind.push(if anywhere {
            2
        } else {
            u8::from(end_accepts(nfa, &set))
        });
        for &rep in reps {
            let seeds =
                set.iter()
                    .chain(reseed.iter())
                    .filter_map(|s| match nfa.states[s.0 as usize] {
                        State::Byte { ref set, next } if set.contains(rep) => Some(next),
                        _ => None,
                    });
            let succ = arena.intern(closure(nfa, seeds, false));
            if !fits(&arena) {
                return None;
            }
            trans.push(row(succ));
        }
        i += 1;
        trans.resize(i << shift, 0);
    }

    // Sort the rows by kind: `order[new] = old`, `moved[old]` is the new
    // row offset. `∅` holds no Match and no `$`, so it sorts first.
    let mut order: Vec<usize> = (0..kind.len()).collect();
    order.sort_by_key(|&old| kind[old]);
    let mut moved = vec![0u32; order.len()];
    for (new, &old) in order.iter().enumerate() {
        moved[old] = (new as u32) << shift;
    }
    let first_of = |k: u8| (order.partition_point(|&old| kind[old] < k) as u32) << shift;
    let table = Table {
        trans: order
            .iter()
            .flat_map(|&old| &trans[old << shift..(old + 1) << shift])
            .map(|&to| moved[(to >> shift) as usize])
            .collect(),
        end_from: first_of(1),
        mid_from: first_of(2),
    };
    let roots = roots
        .into_iter()
        .map(|r| moved[(r >> shift) as usize])
        .collect();
    Some((table, roots))
}

/// Run the subset construction with the default [`MAX_META_STATES`] cap.
pub fn compile(nfa: &Nfa) -> Result<MetaDfa, TooComplex> {
    compile_with_limit(nfa, MAX_META_STATES)
}

/// Run the subset construction, rejecting the pattern once the anchored
/// automaton has more than `limit` distinct meta states (a `limit` of 0 is
/// treated as 1). The search table gets what the anchored one left of
/// `limit` and is dropped, not an error, when that is too little — so
/// `limit` bounds the states of both tables together.
pub fn compile_with_limit(nfa: &Nfa, limit: usize) -> Result<MetaDfa, TooComplex> {
    let limit = limit.max(1);
    let (classes, reps) = byte_classes(nfa);
    let shift = reps.len().next_power_of_two().trailing_zeros();

    let bof = closure(nfa, [nfa.start], true);
    let mid = closure(nfa, [nfa.start], false);
    let roots = vec![bof, mid.clone()];
    let (anchored, starts) =
        build(nfa, &reps, shift, roots, &StateSet::empty(), limit).ok_or(TooComplex { limit })?;
    let (start_bof, start_mid) = (starts[0], starts[1]);

    let left = limit - ((anchored.trans.len() >> shift) - 1);
    let search = build(nfa, &reps, shift, Vec::new(), &mid, left).map(|(table, _)| table);

    let mut can_start = [false; 256];
    for (b, can) in can_start.iter_mut().enumerate() {
        *can = anchored.trans[start_mid as usize + classes[b] as usize] != 0;
    }
    Ok(MetaDfa {
        classes,
        shift,
        anchored,
        search,
        start_bof,
        start_mid,
        can_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::build as build_nfa;
    use crate::parser::parse;

    fn nfa(pat: &str) -> Nfa {
        build_nfa(&parse(pat).unwrap()).unwrap()
    }

    fn dfa(pat: &str) -> MetaDfa {
        compile(&nfa(pat)).unwrap()
    }

    /// Longest accepting run of `table` from `start` over `input`; None
    /// when no non-empty prefix accepts. Mirrors what the matcher does.
    fn longest(
        d: &MetaDfa,
        table: &Table,
        start: u32,
        input: &[u8],
        total_end: bool,
    ) -> Option<usize> {
        let mut state = start;
        let mut best = None;
        for (i, &b) in input.iter().enumerate() {
            state = table.trans[state as usize + d.classes[b as usize] as usize];
            if table.accepts(state, total_end && i + 1 == input.len()) {
                best = Some(i + 1);
            }
        }
        best
    }

    fn anchored(d: &MetaDfa, start: u32, input: &[u8], total_end: bool) -> Option<usize> {
        longest(d, &d.anchored, start, input, total_end)
    }

    /// [`ACCEPT_END`]-style bits of the table layout this one replaced:
    /// Match is in the set / Match is in the set or behind `$`.
    const ACCEPT_MID: u8 = 1;
    const ACCEPT_END: u8 = 2;

    /// `build` as it stood before rows were sorted: rows in discovery
    /// order and an accept byte per row, recomputed from the NFA. Returns
    /// (`trans`, accept bytes, root offsets).
    fn reference_build(
        nfa: &Nfa,
        reps: &[u8],
        shift: u32,
        roots: Vec<StateSet>,
        reseed: &StateSet,
    ) -> (Vec<u32>, Vec<u8>, Vec<u32>) {
        let mut arena = SetArena::new();
        arena.intern(StateSet::empty());
        let row = |id: SetId| id.0 << shift;
        let roots: Vec<u32> = roots
            .into_iter()
            .map(|set| row(arena.intern(set)))
            .collect();
        let (mut trans, mut accept) = (Vec::new(), Vec::new());
        let mut i = 0usize;
        while i < arena.len() {
            let set = arena.get(SetId(i as u32));
            let mut bits = 0;
            if set
                .iter()
                .any(|s| matches!(nfa.states[s.0 as usize], State::Match))
            {
                bits |= ACCEPT_MID;
            }
            if end_accepts(nfa, &set) {
                bits |= ACCEPT_END;
            }
            accept.push(bits);
            for &rep in reps {
                let seeds = set.iter().chain(reseed.iter()).filter_map(|s| {
                    match nfa.states[s.0 as usize] {
                        State::Byte { ref set, next } if set.contains(rep) => Some(next),
                        _ => None,
                    }
                });
                trans.push(row(arena.intern(closure(nfa, seeds, false))));
            }
            i += 1;
            trans.resize(i << shift, 0);
        }
        (trans, accept, roots)
    }

    /// Hold both tables of `pat` to the unsorted reference: the same
    /// automaton up to a renaming of rows (found by walking both from
    /// their roots), every row accepting exactly as its accept byte said,
    /// and the rows in threshold order.
    fn check_against_reference(pat: &str) {
        let nfa = nfa(pat);
        let Ok(d) = compile(&nfa) else {
            return;
        };
        let (_, reps) = byte_classes(&nfa);
        let stride = 1usize << d.shift;
        let bof = closure(&nfa, [nfa.start], true);
        let mid = closure(&nfa, [nfa.start], false);
        let none = StateSet::empty();
        let mut tables = vec![(
            &d.anchored,
            vec![bof, mid.clone()],
            vec![d.start_bof, d.start_mid],
            &none,
        )];
        if let Some(search) = &d.search {
            tables.push((search, Vec::new(), Vec::new(), &mid));
        }
        for (table, roots, starts, reseed) in tables {
            let (trans, accept, old_starts) = reference_build(&nfa, &reps, d.shift, roots, reseed);
            assert_eq!(table.trans.len(), trans.len(), "{pat:?}: same rows");
            assert!(table.end_from <= table.mid_from, "{pat:?}");
            assert!(table.mid_from as usize <= trans.len(), "{pat:?}");
            // renamed[old row] = new row offset; row 0 stays row 0.
            let mut renamed = vec![u32::MAX; accept.len()];
            renamed[0] = 0;
            let mut work = vec![0u32];
            for (&old, &new) in old_starts.iter().zip(&starts) {
                renamed[old as usize >> d.shift] = new;
                work.push(old);
            }
            let mut seen = vec![false; accept.len()];
            while let Some(old) = work.pop() {
                if std::mem::replace(&mut seen[old as usize >> d.shift], true) {
                    continue;
                }
                let new = renamed[old as usize >> d.shift];
                let bits = accept[old as usize >> d.shift];
                assert_eq!(
                    table.accepts(new, false),
                    bits & ACCEPT_MID != 0,
                    "{pat:?}: row {old} -> {new} anywhere"
                );
                assert_eq!(
                    table.accepts(new, true),
                    bits & (ACCEPT_MID | ACCEPT_END) != 0,
                    "{pat:?}: row {old} -> {new} at the end"
                );
                for class in 0..stride {
                    let (to_old, to_new) = (
                        trans[old as usize + class],
                        table.trans[new as usize + class],
                    );
                    assert_eq!(to_new as usize % stride, 0, "premultiplied row offsets");
                    let known = &mut renamed[to_old as usize >> d.shift];
                    if *known == u32::MAX {
                        *known = to_new;
                    }
                    assert_eq!(*known, to_new, "{pat:?}: one renaming");
                    work.push(to_old);
                }
            }
            // Every row is reachable, and no two share a new name.
            assert!(seen.iter().all(|&s| s), "{pat:?}");
            let mut names = renamed.clone();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), accept.len(), "{pat:?}: a bijection");
        }
    }

    #[test]
    fn sorted_rows_are_the_unsorted_automaton_renamed() {
        for pat in [
            "abc",
            "a|ab",
            "a+",
            "a*",
            "^ab",
            "ab$",
            "^a+$",
            "(^a|b)+$",
            "ab+c|b",
            "a.*x|b",
            "[a-c]+z",
            "(foo|bar|baz)[0-9]+",
            "a*b",
            "[a-c]+$",
            "(a|b)*$",
        ] {
            check_against_reference(pat);
        }
    }

    proptest::proptest! {
        #[test]
        fn sorted_rows_are_the_unsorted_automaton_renamed_for_any_pattern(
            pat in crate::testing::arb_pattern(),
        ) {
            check_against_reference(&pat);
        }
    }

    #[test]
    fn thresholds_partition_the_rows() {
        // `ab$|c`: one `$`-only row (after `ab`), one accept-anywhere row
        // (after `c`), the rest accept nothing.
        let d = dfa("ab$|c");
        let stride = 1u32 << d.shift;
        let t = &d.anchored;
        assert_eq!(t.mid_from as usize, t.trans.len() - stride as usize);
        assert_eq!(t.end_from, t.mid_from - stride);
        let after = |s: &[u8]| {
            s.iter().fold(d.start_mid, |state, &b| {
                t.trans[state as usize + d.classes[b as usize] as usize]
            })
        };
        assert_eq!(after(b"c"), t.mid_from);
        assert_eq!(after(b"ab"), t.end_from);
        assert!(after(b"a") < t.end_from && after(b"a") > 0);
        // No row accepts at all: both thresholds sit past the last row.
        let idle_only = dfa("^ab").search.unwrap();
        assert_eq!(idle_only.end_from as usize, idle_only.trans.len());
        assert_eq!(idle_only.mid_from as usize, idle_only.trans.len());
    }

    #[test]
    fn literal_run() {
        let d = dfa("abc");
        assert_eq!(anchored(&d, d.start_bof, b"abc", true), Some(3));
        assert_eq!(anchored(&d, d.start_mid, b"abcd", true), Some(3));
        assert_eq!(anchored(&d, d.start_mid, b"abd", true), None);
    }

    #[test]
    fn alternation_takes_longest() {
        let d = dfa("a|ab");
        assert_eq!(anchored(&d, d.start_mid, b"ab", true), Some(2));
        assert_eq!(anchored(&d, d.start_mid, b"ax", true), Some(1));
    }

    #[test]
    fn star_is_greedy_in_length() {
        let d = dfa("a+");
        assert_eq!(anchored(&d, d.start_mid, b"aaab", true), Some(3));
    }

    #[test]
    fn start_anchor_only_fires_at_bof() {
        let d = dfa("^ab");
        assert_eq!(anchored(&d, d.start_bof, b"ab", true), Some(2));
        assert_eq!(d.start_mid, 0, "^ab cannot start mid-input");
        // Nothing re-seeds, so the search table is the idle state alone.
        assert_eq!(d.search.as_ref().unwrap().trans.len(), 1 << d.shift);
        assert!(d.can_start.iter().all(|&c| !c));
    }

    #[test]
    fn end_anchor_needs_total_end() {
        let d = dfa("ab$");
        assert_eq!(anchored(&d, d.start_mid, b"ab", true), Some(2));
        assert_eq!(anchored(&d, d.start_mid, b"ab", false), None);
        assert_eq!(anchored(&d, d.start_mid, b"abc", true), None);
    }

    #[test]
    fn byte_classes_collapse() {
        let d = dfa("[a-c]x");
        // a, b, c share a class; x has its own; everything else is one
        // dead class.
        assert_eq!(d.classes[b'a' as usize], d.classes[b'b' as usize]);
        assert_ne!(d.classes[b'a' as usize], d.classes[b'x' as usize]);
        assert!(d.shift <= 2, "at most 4 classes, got shift {}", d.shift);
    }

    #[test]
    fn complexity_cap_trips() {
        // (a|b)(a|b)...(a|b) with many .* separators stays small, so use a
        // pattern with genuinely exponential subset blowup:
        // .*a.{k} has ~2^k distinct sets tracking the last k positions.
        let pat = format!(".*a{}", ".".repeat(16));
        assert!(matches!(
            compile(&nfa(&pat)),
            Err(TooComplex {
                limit: MAX_META_STATES
            })
        ));
    }

    #[test]
    fn limit_parameter_replaces_default_cap() {
        let nfa = nfa("abcde");
        assert!(matches!(
            compile_with_limit(&nfa, 2),
            Err(TooComplex { limit: 2 })
        ));
        assert!(compile_with_limit(&nfa, 64).is_ok());
        // A zero limit clamps to 1 instead of rejecting vacuously.
        assert!(matches!(
            compile_with_limit(&nfa, 0),
            Err(TooComplex { limit: 1 })
        ));
    }

    #[test]
    fn dot_star_is_one_live_state() {
        let d = dfa("a*");
        assert!(d.len() <= 3, "{}", d.len());
        assert_eq!(anchored(&d, d.start_mid, b"aa", true), Some(2));
        assert_eq!(
            anchored(&d, d.start_mid, b"b", true),
            None,
            "empty match dropped"
        );
    }

    #[test]
    fn dead_row_absorbs_and_rows_are_padded() {
        let d = dfa("ab|c");
        let stride = 1usize << d.shift;
        assert!(d.anchored.trans[..stride].iter().all(|&t| t == 0));
        assert_eq!(d.anchored.trans.len(), (d.len() + 1) * stride);
        assert!(!d.anchored.accepts(0, true));
        for &t in &d.anchored.trans {
            assert_eq!(t as usize % stride, 0, "premultiplied row offsets");
        }
    }

    #[test]
    fn search_table_tracks_every_earlier_start() {
        // From idle, "xab" leaves a thread started at 1 accepting at 3;
        // the anchored table from the same start dies on the x.
        let d = dfa("ab");
        let search = d.search.as_ref().expect("fits the default cap");
        assert_eq!(longest(&d, search, 0, b"xab", false), Some(3));
        assert_eq!(anchored(&d, d.start_mid, b"xab", false), None);
        // Idle is re-entered once every thread died, and only a start
        // byte leaves it.
        let step = |s: u32, b: u8| search.trans[s as usize + d.classes[b as usize] as usize];
        assert_eq!(step(step(0, b'a'), b'x'), 0);
        assert_ne!(step(0, b'a'), 0);
        assert!(d.can_start[b'a' as usize] && !d.can_start[b'b' as usize]);
        // Accept is taken on the carried set, never on the re-seed:
        // `a*` accepts the empty string, idle does not.
        assert!(!dfa("a*").search.unwrap().accepts(0, true));
    }

    #[test]
    fn search_table_takes_what_the_cap_leaves() {
        // The anchored automaton alone decides TooComplex and the state
        // count; a cap it fills exactly leaves the search table nothing.
        let nfa = nfa("ab+c|b");
        let full = compile(&nfa).unwrap();
        assert!(full.search.is_some());
        let bare = compile_with_limit(&nfa, full.len()).unwrap();
        assert!(bare.search.is_none());
        assert_eq!(bare.len(), full.len());
        assert_eq!(bare.anchored.trans, full.anchored.trans);
    }
}
