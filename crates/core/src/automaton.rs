//! The meta-state automaton produced by conversion.

use crate::stateset::StateSet;
use msc_ir::util::FxHashMap;
use msc_ir::{CostModel, MimdGraph};
use std::fmt::Write as _;

/// Identifier of a meta state within a [`MetaAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MetaId(pub u32);

impl MetaId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MetaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ms_{}", self.0)
    }
}

/// The successor lists of an automaton's meta states, indexed by meta
/// state: one array of edges and a `(start, len)` span into it per state,
/// so a list costs its edges and eight bytes, and meta states with one
/// list — those whose running core was expanded once (§2.3) — share one
/// span, stored once. The span layout is private: `==`, `Debug`,
/// [`iter`](Self::iter) and indexing read lists by content, exactly as a
/// `Vec<Vec<MetaId>>` of the same lists would, and only
/// [`stored_edges`](Self::stored_edges) shows what sharing saved.
#[derive(Clone, Default)]
pub struct SuccTable {
    edges: Vec<MetaId>,
    spans: Vec<(u32, u32)>,
}

/// An edge-array offset or length as a span field.
fn span_field(n: usize) -> u32 {
    u32::try_from(n).expect("successor table holds at most 2^32 edges")
}

impl SuccTable {
    /// Number of meta states.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the table has no meta states.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Every meta state's successor list, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[MetaId]> + '_ {
        self.spans
            .iter()
            .map(|&(start, len)| &self.edges[start as usize..(start + len) as usize])
    }

    /// Exchange the successor lists of meta states `i` and `j`.
    pub fn swap(&mut self, i: usize, j: usize) {
        self.spans.swap(i, j);
    }

    /// Edges held in memory: a list that shares its span with others
    /// counts once. (So does a list that a meta state expanded again no
    /// longer uses, until a pruning or folding pass rebuilds the table.)
    pub fn stored_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append a meta state with no successors.
    pub(crate) fn push_empty(&mut self) {
        self.spans.push((0, 0));
    }

    /// Append one edge to the list being built (see [`end_list`](Self::end_list)).
    pub(crate) fn push_edge(&mut self, to: MetaId) {
        self.edges.push(to);
    }

    /// Make the edges pushed since `from` (a [`stored_edges`](Self::stored_edges)
    /// reading) the list of meta state `i`.
    pub(crate) fn end_list(&mut self, i: usize, from: usize) {
        self.spans[i] = (span_field(from), span_field(self.edges.len() - from));
    }

    /// Give meta state `i` the list of `owner`, without copying it.
    pub(crate) fn share(&mut self, i: usize, owner: usize) {
        self.spans[i] = self.spans[owner];
    }

    /// Drop the edge array's spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.edges.shrink_to_fit();
    }

    /// The table of the meta states `keep` (indices into this one, in the
    /// new order), each list rewritten by `map`, which appends the new list
    /// for an old one. States that share a span here share one there: each
    /// stored list is rewritten once.
    pub(crate) fn rebuild(
        &self,
        keep: &[usize],
        mut map: impl FnMut(&[MetaId], &mut Vec<MetaId>),
    ) -> SuccTable {
        let mut out = SuccTable {
            edges: Vec::new(),
            spans: Vec::with_capacity(keep.len()),
        };
        let mut moved: FxHashMap<(u32, u32), (u32, u32)> = FxHashMap::default();
        for &i in keep {
            let old = self.spans[i];
            if old.1 == 0 {
                out.push_empty();
                continue;
            }
            let span = *moved.entry(old).or_insert_with(|| {
                let from = out.edges.len();
                map(&self[i], &mut out.edges);
                (span_field(from), span_field(out.edges.len() - from))
            });
            out.spans.push(span);
        }
        out.shrink_to_fit();
        out
    }
}

impl std::ops::Index<usize> for SuccTable {
    type Output = [MetaId];

    fn index(&self, i: usize) -> &[MetaId] {
        let (start, len) = self.spans[i];
        &self.edges[start as usize..(start + len) as usize]
    }
}

impl FromIterator<Vec<MetaId>> for SuccTable {
    fn from_iter<I: IntoIterator<Item = Vec<MetaId>>>(lists: I) -> Self {
        let mut table = SuccTable::default();
        for list in lists {
            let from = table.edges.len();
            table.edges.extend(list);
            table
                .spans
                .push((span_field(from), span_field(table.edges.len() - from)));
        }
        table
    }
}

/// Lists by content: shared and copied spans compare equal.
impl PartialEq for SuccTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for SuccTable {}

/// The lists as a `Vec<Vec<MetaId>>` prints them.
impl std::fmt::Debug for SuccTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A MIMD program converted into a single finite automaton over meta states
/// (§1.2: "Once a program has been converted into a single finite automaton
/// based on Meta States, only a single program counter is needed").
#[derive(Debug, Clone)]
pub struct MetaAutomaton {
    /// The MIMD state graph the automaton was built from. This is the
    /// *converted* graph: if time splitting (§2.4) fired, it contains the
    /// split states, so member ids in [`sets`](Self::sets) resolve here.
    pub graph: MimdGraph,
    /// Membership of each meta state.
    pub sets: Vec<StateSet>,
    /// The start meta state (the set of MIMD start states; for SPMD, a
    /// singleton).
    pub start: MetaId,
    /// Deduplicated successor lists, indexed by meta state. An empty list
    /// means the meta state is terminal (§3.2.1: "a return to the
    /// operating system").
    pub succs: SuccTable,
}

impl MetaAutomaton {
    /// Number of meta states.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when the automaton has no meta states.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Members of one meta state.
    pub fn members(&self, id: MetaId) -> &StateSet {
        &self.sets[id.idx()]
    }

    /// Successors of one meta state.
    pub fn successors(&self, id: MetaId) -> &[MetaId] {
        &self.succs[id.idx()]
    }

    /// Find the meta state with exactly these members.
    pub fn find(&self, set: &StateSet) -> Option<MetaId> {
        self.sets
            .iter()
            .position(|s| s == set)
            .map(|i| MetaId(i as u32))
    }

    /// Average meta-state width (member count). §2.5 trades state count
    /// against width: "the average meta-state is wider, which implies that
    /// the SIMD implementation will be less efficient."
    pub fn avg_width(&self) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        self.sets.iter().map(|s| s.len()).sum::<usize>() as f64 / self.sets.len() as f64
    }

    /// Widest meta state.
    pub fn max_width(&self) -> usize {
        self.sets.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// True when every meta state has at most one successor — the property
    /// compression (§2.5) buys: "meta-state transitions into compressed
    /// portions of the graph are unconditional; i.e., there is no need to
    /// use a globalor".
    pub fn is_deterministic(&self) -> bool {
        self.succs.iter().all(|s| s.len() <= 1)
    }

    /// The worst-case time imbalance inside a meta state: for each meta
    /// state, (max member cost − min member cost) over non-zero-cost
    /// members; returns the maximum over all meta states. Zero means
    /// perfectly balanced (what time splitting drives toward).
    pub fn max_imbalance(&self, costs: &CostModel) -> u64 {
        self.sets
            .iter()
            .map(|set| {
                let times: Vec<u64> = set
                    .iter()
                    .map(|s| self.graph.state_cost(s, costs))
                    .filter(|&t| t > 0)
                    .collect();
                match (times.iter().min(), times.iter().max()) {
                    (Some(&mn), Some(&mx)) => mx - mn,
                    _ => 0,
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Remove meta states not reachable from the start state, keeping the
    /// survivors in their original relative order with dense ids. Returns
    /// the number of states removed. A meta state re-expanded after its
    /// latent set widened can drop a successor the first expansion
    /// interned, and subsumption folds can strand states behind folded
    /// arcs; both are cleaned up here.
    pub fn prune_unreachable(&mut self) -> usize {
        let n = self.sets.len();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![self.start];
        seen[self.start.idx()] = true;
        while let Some(m) = stack.pop() {
            for &s in &self.succs[m.idx()] {
                if !seen[s.idx()] {
                    seen[s.idx()] = true;
                    stack.push(s);
                }
            }
        }
        if seen.iter().all(|&b| b) {
            return 0;
        }
        let mut new_id = vec![None; n];
        let mut kept = Vec::new();
        for i in 0..n {
            if seen[i] {
                new_id[i] = Some(MetaId(kept.len() as u32));
                kept.push(i);
            }
        }
        let sets = kept
            .iter()
            .map(|&i| std::mem::take(&mut self.sets[i]))
            .collect();
        let remap =
            |s: &MetaId| new_id[s.idx()].expect("successors of reachable states are reachable");
        self.succs = self
            .succs
            .rebuild(&kept, |list, edges| edges.extend(list.iter().map(remap)));
        self.start = new_id[self.start.idx()].expect("start is always reachable");
        self.sets = sets;
        n - kept.len()
    }

    /// Render the automaton as text, one meta state per line:
    ///
    /// ```text
    /// ms_0 {0} -> {2},{6},{2,6}   <- start
    /// ```
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (i, set) in self.sets.iter().enumerate() {
            let id = MetaId(i as u32);
            let _ = write!(out, "{id} {set} ->");
            if self.succs[i].is_empty() {
                let _ = write!(out, " end");
            } else {
                for (k, s) in self.succs[i].iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{}",
                        if k == 0 { " " } else { "," },
                        self.sets[s.idx()]
                    );
                }
            }
            if id == self.start {
                let _ = write!(out, "  <- start");
            }
            out.push('\n');
        }
        out
    }

    /// Render as Graphviz `dot`.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph meta {\n  rankdir=TB;\n  node [shape=ellipse];\n");
        for (i, set) in self.sets.iter().enumerate() {
            let pen = if MetaId(i as u32) == self.start {
                " penwidth=2"
            } else {
                ""
            };
            let _ = writeln!(out, "  {i} [label=\"{set}\"{pen}];");
        }
        for (i, succs) in self.succs.iter().enumerate() {
            for s in succs {
                let _ = writeln!(out, "  {i} -> {};", s.idx());
            }
        }
        out.push_str("}\n");
        out
    }

    /// Basic consistency checks: start in range, successors in range, all
    /// member ids resolve in the graph, member sets distinct.
    pub fn validate(&self) -> Result<(), String> {
        if self.start.idx() >= self.sets.len() {
            return Err(format!("start {} out of range", self.start));
        }
        if self.succs.len() != self.sets.len() {
            return Err("succs/sets length mismatch".into());
        }
        for (i, succs) in self.succs.iter().enumerate() {
            for s in succs {
                if s.idx() >= self.sets.len() {
                    return Err(format!("ms_{i} has out-of-range successor {s}"));
                }
            }
        }
        for set in &self.sets {
            for m in set.iter() {
                if m.idx() >= self.graph.len() {
                    return Err(format!("member {m} not in graph"));
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for set in &self.sets {
            if !seen.insert(set) {
                return Err(format!("duplicate meta state {set}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl SuccTable {
    /// `lists`, then state `i` given the span of state `owner` for each
    /// `(i, owner)` of `shared`, built as the converter builds a table.
    pub(crate) fn shared(lists: &[&[u32]], shared: &[(usize, usize)]) -> SuccTable {
        let mut t = SuccTable::default();
        for (i, list) in lists.iter().enumerate() {
            let from = t.stored_edges();
            t.push_empty();
            list.iter().for_each(|&s| t.push_edge(MetaId(s)));
            t.end_list(i, from);
        }
        for &(i, owner) in shared {
            t.share(i, owner);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{MimdState, StateId, Terminator};

    fn tiny() -> MetaAutomaton {
        let mut graph = MimdGraph::new();
        let a = graph.add(MimdState::new(vec![], Terminator::Halt));
        let b = graph.add(MimdState::new(vec![], Terminator::Halt));
        graph.state_mut(a).term = Terminator::Jump(b);
        graph.start = a;
        MetaAutomaton {
            graph,
            sets: vec![StateSet::singleton(a), StateSet::singleton(b)],
            start: MetaId(0),
            succs: table(&[&[1], &[]]),
        }
    }

    fn table(lists: &[&[u32]]) -> SuccTable {
        lists
            .iter()
            .map(|l| l.iter().map(|&t| MetaId(t)).collect())
            .collect()
    }

    #[test]
    fn validate_ok_and_text() {
        let a = tiny();
        assert_eq!(a.validate(), Ok(()));
        let t = a.text();
        assert!(t.contains("ms_0 {0} -> {1}  <- start"));
        assert!(t.contains("ms_1 {1} -> end"));
    }

    #[test]
    fn width_stats() {
        let a = tiny();
        assert_eq!(a.avg_width(), 1.0);
        assert_eq!(a.max_width(), 1);
        assert!(a.is_deterministic());
    }

    #[test]
    fn validate_catches_bad_successor() {
        let mut a = tiny();
        a.succs = table(&[&[1], &[9]]);
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_catches_duplicate_sets() {
        let mut a = tiny();
        a.sets[1] = a.sets[0].clone();
        assert!(a.validate().is_err());
    }

    #[test]
    fn find_by_members() {
        let a = tiny();
        assert_eq!(a.find(&StateSet::singleton(StateId(1))), Some(MetaId(1)));
        assert_eq!(a.find(&StateSet::from_iter([StateId(0), StateId(1)])), None);
    }

    #[test]
    fn prune_unreachable_drops_and_remaps() {
        let mut graph = MimdGraph::new();
        let a = graph.add(MimdState::new(vec![], Terminator::Halt));
        let b = graph.add(MimdState::new(vec![], Terminator::Halt));
        let c = graph.add(MimdState::new(vec![], Terminator::Halt));
        graph.start = a;
        let mut auto = MetaAutomaton {
            graph,
            sets: vec![
                StateSet::singleton(c), // unreachable
                StateSet::singleton(a), // start
                StateSet::singleton(b),
            ],
            start: MetaId(1),
            succs: table(&[&[2], &[2], &[]]),
        };
        assert_eq!(auto.prune_unreachable(), 1);
        assert_eq!(auto.len(), 2);
        assert_eq!(auto.start, MetaId(0));
        assert_eq!(
            auto.sets,
            vec![StateSet::singleton(a), StateSet::singleton(b)]
        );
        assert_eq!(auto.succs, table(&[&[1], &[]]));
        assert_eq!(auto.validate(), Ok(()));
        assert_eq!(auto.prune_unreachable(), 0, "idempotent on reachable-only");
    }

    #[test]
    fn tables_compare_by_content_not_by_span() {
        let copied = table(&[&[1, 2], &[2], &[1, 2], &[]]);
        let shared = SuccTable::shared(&[&[1, 2], &[2], &[], &[]], &[(2, 0)]);
        assert_eq!((copied.stored_edges(), shared.stored_edges()), (5, 3));
        assert_eq!(copied, shared);
        assert_eq!(shared, copied);
        assert_ne!(copied, table(&[&[1, 2], &[2], &[2, 1], &[]]));
        assert_ne!(copied, table(&[&[1, 2], &[2], &[1, 2]]));
        assert_ne!(copied, table(&[&[1, 2], &[2], &[1, 2], &[], &[]]));
        // Empty lists are equal wherever their span points.
        assert_eq!(SuccTable::shared(&[&[], &[3]], &[]), table(&[&[], &[3]]));
    }

    #[test]
    fn swap_exchanges_two_lists() {
        let mut t = SuccTable::shared(&[&[1], &[0, 2], &[]], &[(2, 0)]);
        t.swap(0, 1);
        assert_eq!(t, table(&[&[0, 2], &[1], &[1]]));
        assert_eq!(t.stored_edges(), 3);
        t.swap(1, 1);
        assert_eq!(t, table(&[&[0, 2], &[1], &[1]]));
    }

    #[test]
    fn debug_prints_what_nested_vecs_print() {
        let lists = vec![vec![MetaId(1), MetaId(2)], vec![], vec![MetaId(0)]];
        let t: SuccTable = lists.iter().cloned().collect();
        assert_eq!(format!("{t:?}"), format!("{lists:?}"));
        assert_eq!(format!("{t:#?}"), format!("{lists:#?}"));
        let shared = SuccTable::shared(&[&[1, 2], &[], &[]], &[(2, 0)]);
        let lists = vec![
            vec![MetaId(1), MetaId(2)],
            vec![],
            vec![MetaId(1), MetaId(2)],
        ];
        assert_eq!(format!("{shared:?}"), format!("{lists:?}"));
        assert_eq!(format!("{:?}", SuccTable::default()), "[]");
    }

    #[test]
    fn collect_round_trips() {
        let lists = vec![vec![MetaId(3)], vec![], vec![MetaId(0), MetaId(1)], vec![]];
        let t: SuccTable = lists.iter().cloned().collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.stored_edges(), 3);
        let back: Vec<Vec<MetaId>> = t.iter().map(<[MetaId]>::to_vec).collect();
        assert_eq!(back, lists);
        assert_eq!(&t[2], &[MetaId(0), MetaId(1)]);
        assert_eq!(back.into_iter().collect::<SuccTable>(), t);
    }

    #[test]
    fn prune_keeps_shared_spans_shared() {
        let mut graph = MimdGraph::new();
        for _ in 0..6 {
            graph.add(MimdState::new(vec![], Terminator::Halt));
        }
        graph.start = StateId(0);
        // 0 → 1, 2, 3; 1 and 3 share one list {4}, 2 holds a copy of it;
        // 5 is unreachable and has a list of its own.
        let mut auto = MetaAutomaton {
            graph,
            sets: (0..6).map(|s| StateSet::singleton(StateId(s))).collect(),
            start: MetaId(0),
            succs: SuccTable::shared(&[&[1, 2, 3], &[4], &[4], &[], &[], &[0, 1]], &[(3, 1)]),
        };
        assert_eq!(auto.succs.stored_edges(), 7);
        assert_eq!(auto.prune_unreachable(), 1);
        assert_eq!(auto.succs, table(&[&[1, 2, 3], &[4], &[4], &[4], &[]]));
        assert_eq!(auto.succs.stored_edges(), 5, "1 and 3 still share one list");
    }
}
