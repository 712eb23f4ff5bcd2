//! The MIMD state graph (§2.1).
//!
//! Each node — a *MIMD state* — is a maximal basic block with zero, one, or
//! two exit arcs (plus the k-ary multiway branch produced by inline-expanded
//! `return`s, §2.2, and the `spawn` pseudo-branch of §3.2.5). A state may be
//! flagged as a *barrier wait* (§2.6): entering it means the process has
//! reached a `wait` and may not proceed until every live process has.
//!
//! The graph also implements the normalization the paper applies before
//! conversion: *code straightening* and *removal of empty nodes*
//! ("Constructing the control-flow graph in the usual way, code
//! straightening and removal of empty nodes are applied to obtain the
//! simplest possible graph").

use crate::op::{CostModel, Op};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a MIMD state (a node in the [`MimdGraph`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StateId(pub u32);

impl StateId {
    /// The index as a usize, for vector indexing.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// How control leaves a MIMD state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// No exit arc: the process ends here ("A MIMD state with no exit arcs
    /// marks the end of that process"). On SIMD hardware the PE's `pc` is
    /// cleared and it returns to the idle pool (§3.2.5).
    Halt,
    /// One exit arc: unconditional sequencing.
    Jump(StateId),
    /// Two exit arcs: the block's last computed value is popped as the
    /// condition; nonzero goes to `t`, zero to `f` (the paper's
    /// `JumpF(f, t)` stack macro).
    Branch {
        /// Successor when the popped condition is TRUE (nonzero).
        t: StateId,
        /// Successor when the popped condition is FALSE (zero).
        f: StateId,
    },
    /// k-ary multiway branch: pops a selector word and jumps to
    /// `targets[selector]`. Produced by inline-expanded `return`
    /// statements (§2.2), whose target set is computed statically.
    Multi(Vec<StateId>),
    /// Restricted dynamic process creation (§3.2.5): "looks just like a
    /// conditional jump, except the semantics are that both paths must be
    /// taken". The executing process continues at `next`; a recruited idle
    /// PE starts at `child`.
    Spawn {
        /// Entry state of the newly created process.
        child: StateId,
        /// Continuation of the spawning process.
        next: StateId,
    },
}

impl Terminator {
    /// All exit arcs, in a stable order.
    pub fn successors(&self) -> Vec<StateId> {
        match self {
            Terminator::Halt => vec![],
            Terminator::Jump(s) => vec![*s],
            Terminator::Branch { t, f } => vec![*t, *f],
            Terminator::Multi(v) => v.clone(),
            Terminator::Spawn { child, next } => vec![*child, *next],
        }
    }

    /// Call `f` on every exit arc, in [`successors`](Self::successors)'s
    /// order, without collecting them.
    fn each_successor(&self, mut f: impl FnMut(StateId)) {
        match self {
            Terminator::Halt => {}
            Terminator::Jump(s) => f(*s),
            Terminator::Branch { t, f: fl } => {
                f(*t);
                f(*fl);
            }
            Terminator::Multi(v) => v.iter().for_each(|&s| f(s)),
            Terminator::Spawn { child, next } => {
                f(*child);
                f(*next);
            }
        }
    }

    /// Rewrite every successor through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(StateId) -> StateId) {
        match self {
            Terminator::Halt => {}
            Terminator::Jump(s) => *s = f(*s),
            Terminator::Branch { t, f: fl } => {
                *t = f(*t);
                *fl = f(*fl);
            }
            Terminator::Multi(v) => {
                for s in v.iter_mut() {
                    *s = f(*s);
                }
            }
            Terminator::Spawn { child, next } => {
                *child = f(*child);
                *next = f(*next);
            }
        }
    }

    /// Number of words this terminator pops from the operand stack.
    pub fn pops(&self) -> u32 {
        match self {
            Terminator::Halt | Terminator::Jump(_) | Terminator::Spawn { .. } => 0,
            Terminator::Branch { .. } | Terminator::Multi(_) => 1,
        }
    }
}

/// A MIMD state: one maximal basic block plus its exit behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MimdState {
    /// Straight-line stack code of the block.
    pub ops: Vec<Op>,
    /// Exit arcs.
    pub term: Terminator,
    /// True when entry to this state is a barrier synchronization point
    /// (§2.6): a process reaching it must wait until *all* live processes
    /// are in barrier states before any transition past it.
    pub barrier: bool,
    /// Human-readable label for rendering (e.g. `"B;C"` in Figure 1).
    pub label: String,
}

impl MimdState {
    /// A state with the given code and terminator, no barrier, empty label.
    pub fn new(ops: Vec<Op>, term: Terminator) -> Self {
        MimdState {
            ops,
            term,
            barrier: false,
            label: String::new(),
        }
    }

    /// Builder-style label attachment.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Builder-style barrier flag.
    pub fn with_barrier(mut self) -> Self {
        self.barrier = true;
        self
    }
}

/// Errors detected by [`MimdGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A terminator references a state id that does not exist.
    DanglingArc {
        /// State whose terminator is bad.
        from: StateId,
        /// The nonexistent target.
        to: StateId,
    },
    /// The designated start state does not exist.
    BadStart(StateId),
    /// A `Multi` terminator with no targets (a `return` with no possible
    /// return site).
    EmptyMulti(StateId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingArc { from, to } => {
                write!(f, "state {from} has an arc to nonexistent state {to}")
            }
            GraphError::BadStart(s) => write!(f, "start state {s} does not exist"),
            GraphError::EmptyMulti(s) => write!(f, "state {s} has an empty multiway branch"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The MIMD control-flow graph for an SPMD program.
///
/// Per the paper's SPMD restriction (§1.2), all processes begin execution in
/// the same [`start`](Self::start) state simultaneously; asynchrony arises
/// only from processors computing different branch conditions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MimdGraph {
    /// The states; a [`StateId`] indexes this vector.
    pub states: Vec<MimdState>,
    /// The MIMD start state all processes begin in.
    pub start: StateId,
}

impl MimdGraph {
    /// An empty graph with start pointing at the (future) state 0.
    pub fn new() -> Self {
        MimdGraph {
            states: Vec::new(),
            start: StateId(0),
        }
    }

    /// Append a state, returning its id.
    pub fn add(&mut self, state: MimdState) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(state);
        id
    }

    /// Borrow a state.
    pub fn state(&self, id: StateId) -> &MimdState {
        &self.states[id.idx()]
    }

    /// Mutably borrow a state.
    pub fn state_mut(&mut self, id: StateId) -> &mut MimdState {
        &mut self.states[id.idx()]
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the graph has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// All state ids.
    pub fn ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len() as u32).map(StateId)
    }

    /// Cycle cost of one state's block under `costs`.
    pub fn state_cost(&self, id: StateId, costs: &CostModel) -> u64 {
        costs.block_cost(&self.states[id.idx()].ops)
    }

    /// Check structural invariants.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.start.idx() >= self.states.len() {
            return Err(GraphError::BadStart(self.start));
        }
        for (i, st) in self.states.iter().enumerate() {
            let from = StateId(i as u32);
            if matches!(&st.term, Terminator::Multi(v) if v.is_empty()) {
                return Err(GraphError::EmptyMulti(from));
            }
            let mut dangling = None;
            st.term.each_successor(|s| {
                if s.idx() >= self.states.len() {
                    dangling.get_or_insert(s);
                }
            });
            if let Some(to) = dangling {
                return Err(GraphError::DanglingArc { from, to });
            }
        }
        Ok(())
    }

    /// Predecessor counts (how many arcs enter each state; the start state
    /// gets one extra virtual predecessor).
    pub fn pred_counts(&self) -> Vec<u32> {
        let mut preds = vec![0u32; self.states.len()];
        preds[self.start.idx()] += 1;
        for st in &self.states {
            st.term.each_successor(|s| preds[s.idx()] += 1);
        }
        preds
    }

    /// States reachable from the start state.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        if self.start.idx() < self.states.len() {
            seen[self.start.idx()] = true;
            queue.push_back(self.start);
        }
        while let Some(s) = queue.pop_front() {
            self.states[s.idx()].term.each_successor(|n| {
                if !seen[n.idx()] {
                    seen[n.idx()] = true;
                    queue.push_back(n);
                }
            });
        }
        seen
    }

    /// Code straightening (§2.1, \[CoS70\]): merge `a → b` chains where `a`
    /// ends in an unconditional jump to `b` and `b` has exactly one
    /// predecessor and is not a barrier or the start state. This maximizes
    /// basic-block size, which is the paper's initial state-space reduction.
    ///
    /// Returns the number of merges performed.
    pub fn straighten(&mut self) -> usize {
        let mut merges = 0;
        loop {
            let preds = self.pred_counts();
            let mut merged_this_round = false;
            for i in 0..self.states.len() {
                let a = StateId(i as u32);
                let b = match self.states[i].term {
                    Terminator::Jump(b) => b,
                    _ => continue,
                };
                if b == a || preds[b.idx()] != 1 || b == self.start || self.states[b.idx()].barrier
                {
                    continue;
                }
                // Merge b's code and terminator into a. b becomes dead; an
                // isolated halt keeps ids stable until compaction.
                let b_state = std::mem::replace(
                    &mut self.states[b.idx()],
                    MimdState::new(vec![], Terminator::Halt),
                );
                let a_state = &mut self.states[i];
                a_state.ops.extend(b_state.ops);
                a_state.term = b_state.term;
                if !b_state.label.is_empty() {
                    if a_state.label.is_empty() {
                        a_state.label = b_state.label;
                    } else {
                        a_state.label = format!("{};{}", a_state.label, b_state.label);
                    }
                }
                merges += 1;
                merged_this_round = true;
            }
            if !merged_this_round {
                break;
            }
        }
        if merges > 0 {
            self.compact();
        }
        merges
    }

    /// Remove empty nodes (§2.1): a state with no code, no barrier, and an
    /// unconditional jump is bypassed — every arc into it is redirected to
    /// its successor. Self-looping empty nodes are kept (they are genuine
    /// spin states). Returns the number of nodes removed.
    pub fn remove_empty(&mut self) -> usize {
        // Resolve chains of empty jumps with path compression.
        let n = self.states.len();
        let mut target: Vec<StateId> = (0..n as u32).map(StateId).collect();
        fn resolve(target: &mut [StateId], s: StateId, graph: &[MimdState]) -> StateId {
            let mut path = vec![];
            let mut cur = s;
            loop {
                if target[cur.idx()] != cur {
                    // Already resolved by an earlier walk.
                    cur = target[cur.idx()];
                    break;
                }
                let st = &graph[cur.idx()];
                let next = match st.term {
                    Terminator::Jump(nx) if st.ops.is_empty() && !st.barrier && nx != cur => nx,
                    _ => break,
                };
                path.push(cur);
                cur = next;
                if path.contains(&cur) {
                    // Cycle of empty nodes; keep as-is.
                    return s;
                }
            }
            for p in path {
                target[p.idx()] = cur;
            }
            cur
        }
        for i in 0..n {
            resolve(&mut target, StateId(i as u32), &self.states);
        }
        let removed = (0..n).filter(|&i| target[i] != StateId(i as u32)).count();
        if removed == 0 {
            return 0;
        }
        for st in &mut self.states {
            st.term.map_successors(|s| target[s.idx()]);
        }
        self.start = target[self.start.idx()];
        self.compact();
        removed
    }

    /// Drop unreachable states and renumber the rest densely. Terminators
    /// and the start state are rewritten to the new numbering.
    pub fn compact(&mut self) {
        let reach = self.reachable();
        let mut remap = vec![StateId(u32::MAX); reach.len()];
        let kept = reach.iter().enumerate().filter(|&(_, &keep)| keep);
        for (new, (old, _)) in kept.enumerate() {
            remap[old] = StateId(new as u32);
        }
        let mut keep = reach.iter();
        self.states
            .retain(|_| *keep.next().expect("one reachability flag per state"));
        for st in &mut self.states {
            st.term.map_successors(|s| remap[s.idx()]);
        }
        self.start = remap[self.start.idx()];
    }

    /// Normalize: straighten then remove empty nodes, repeating to a fixed
    /// point ("applied to obtain the simplest possible graph").
    pub fn normalize(&mut self) {
        loop {
            let a = self.straighten();
            let b = self.remove_empty();
            if a + b == 0 {
                break;
            }
        }
    }

    /// Split state `id` into a prefix of at most `budget` cycles and a
    /// suffix holding the remainder (Figures 3–4). The prefix keeps `id`
    /// (so arcs into the state are unchanged) and jumps unconditionally to
    /// the new suffix state, which inherits the original terminator and
    /// barrier-exit behaviour.
    ///
    /// The split point is the op boundary with cumulative cost closest to
    /// `budget` from below, but at least one op stays on each side; if the
    /// block has fewer than two ops, or the first op alone exceeds the
    /// budget and the paper's heuristic would leave an empty prefix, the
    /// split fails and `None` is returned.
    pub fn split_state(&mut self, id: StateId, budget: u64, costs: &CostModel) -> Option<StateId> {
        let ops = &self.states[id.idx()].ops;
        if ops.len() < 2 {
            return None;
        }
        // Find the last boundary with prefix cost <= budget (boundary k means
        // ops[..k] | ops[k..], 1 <= k <= len-1).
        let mut acc = 0u64;
        let mut best: Option<usize> = None;
        for (k, op) in ops.iter().enumerate() {
            acc += costs.op_cost(op) as u64;
            let boundary = k + 1;
            if boundary >= ops.len() {
                break;
            }
            if acc <= budget {
                best = Some(boundary);
            } else {
                break;
            }
        }
        let k = best?;
        let suffix_ops = self.states[id.idx()].ops.split_off(k);
        let orig_term = std::mem::replace(&mut self.states[id.idx()].term, Terminator::Halt);
        let label = self.states[id.idx()].label.clone();
        let suffix = self.add(MimdState {
            ops: suffix_ops,
            term: orig_term,
            barrier: false,
            label: if label.is_empty() {
                String::new()
            } else {
                format!("{label}'")
            },
        });
        self.states[id.idx()].term = Terminator::Jump(suffix);
        if !label.is_empty() {
            self.states[id.idx()].label = format!("{label}\u{2080}");
        }
        Some(suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Addr, BinOp};

    fn push_block(n: i64) -> Vec<Op> {
        vec![Op::Push(n), Op::St(Addr::poly(0))]
    }

    /// The Listing 1 state graph of Figure 1, hand-built:
    /// 0:A → {2:B;C, 6:D;E}; 2 → {2, 9:F}; 6 → {6, 9}; 9 → end.
    pub(crate) fn figure1() -> MimdGraph {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Ld(Addr::poly(0))], Terminator::Halt).labeled("A"));
        let b = g.add(MimdState::new(vec![Op::Ld(Addr::poly(0))], Terminator::Halt).labeled("B;C"));
        let d = g.add(MimdState::new(vec![Op::Ld(Addr::poly(0))], Terminator::Halt).labeled("D;E"));
        let f = g.add(MimdState::new(vec![], Terminator::Halt).labeled("F"));
        g.state_mut(a).term = Terminator::Branch { t: b, f: d };
        g.state_mut(b).term = Terminator::Branch { t: b, f };
        g.state_mut(d).term = Terminator::Branch { t: d, f };
        g.start = a;
        g
    }

    #[test]
    fn validate_accepts_figure1() {
        assert_eq!(figure1().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_dangling_arc() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![], Terminator::Jump(StateId(7))));
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingArc {
                from: a,
                to: StateId(7)
            })
        );
    }

    #[test]
    fn validate_rejects_bad_start() {
        let g = MimdGraph::new();
        assert_eq!(g.validate(), Err(GraphError::BadStart(StateId(0))));
    }

    #[test]
    fn validate_rejects_empty_multi() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![], Terminator::Multi(vec![])));
        assert_eq!(g.validate(), Err(GraphError::EmptyMulti(a)));
    }

    #[test]
    fn straighten_merges_linear_chain() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(push_block(1), Terminator::Halt).labeled("a"));
        let b = g.add(MimdState::new(push_block(2), Terminator::Halt).labeled("b"));
        let c = g.add(MimdState::new(push_block(3), Terminator::Halt).labeled("c"));
        g.state_mut(a).term = Terminator::Jump(b);
        g.state_mut(b).term = Terminator::Jump(c);
        g.start = a;
        let merges = g.straighten();
        assert_eq!(merges, 2);
        assert_eq!(g.len(), 1);
        assert_eq!(g.state(g.start).ops.len(), 6);
        assert_eq!(g.state(g.start).label, "a;b;c");
        assert_eq!(g.state(g.start).term, Terminator::Halt);
    }

    #[test]
    fn straighten_keeps_join_points() {
        // a → c, b → c: c has two preds, must not merge.
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(push_block(1), Terminator::Halt));
        let c = g.add(MimdState::new(push_block(3), Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: c, f: c };
        g.start = a;
        assert_eq!(g.straighten(), 0);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn straighten_respects_barriers() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(push_block(1), Terminator::Halt));
        let b = g.add(MimdState::new(push_block(2), Terminator::Halt).with_barrier());
        g.state_mut(a).term = Terminator::Jump(b);
        g.start = a;
        assert_eq!(
            g.straighten(),
            0,
            "barrier entry must stay a distinct state"
        );
    }

    #[test]
    fn remove_empty_bypasses_chain() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(push_block(1), Terminator::Halt));
        let e1 = g.add(MimdState::new(vec![], Terminator::Halt));
        let e2 = g.add(MimdState::new(vec![], Terminator::Halt));
        let d = g.add(MimdState::new(push_block(2), Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: e1, f: d };
        g.state_mut(e1).term = Terminator::Jump(e2);
        g.state_mut(e2).term = Terminator::Jump(d);
        g.start = a;
        let removed = g.remove_empty();
        assert_eq!(removed, 2);
        assert_eq!(g.len(), 2);
        match g.state(g.start).term {
            Terminator::Branch { t, f } => assert_eq!(t, f),
            ref t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn remove_empty_keeps_empty_self_loop() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![], Terminator::Halt));
        g.state_mut(a).term = Terminator::Jump(a);
        g.start = a;
        assert_eq!(g.remove_empty(), 0);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn compact_drops_unreachable() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(push_block(1), Terminator::Halt));
        let _dead = g.add(MimdState::new(push_block(2), Terminator::Halt));
        g.start = a;
        g.compact();
        assert_eq!(g.len(), 1);
        assert_eq!(g.start, StateId(0));
    }

    #[test]
    fn split_state_halves_cost() {
        let costs = CostModel::default();
        let mut g = MimdGraph::new();
        // 4 pushes + a store: cost 4*1 + 2 = 6; budget 2 ⇒ prefix = 2 pushes.
        let ops = vec![
            Op::Push(1),
            Op::Push(2),
            Op::Push(3),
            Op::Push(4),
            Op::St(Addr::poly(0)),
        ];
        let a = g.add(MimdState::new(ops, Terminator::Halt).labeled("β"));
        g.start = a;
        let suffix = g.split_state(a, 2, &costs).expect("splittable");
        assert_eq!(g.state(a).ops.len(), 2);
        assert_eq!(g.state(a).term, Terminator::Jump(suffix));
        assert_eq!(g.state(suffix).ops.len(), 3);
        assert_eq!(g.state(suffix).term, Terminator::Halt);
        assert_eq!(g.state_cost(a, &costs), 2);
        assert_eq!(g.state_cost(a, &costs) + g.state_cost(suffix, &costs), 6);
    }

    #[test]
    fn split_state_preserves_branch_terminator() {
        let costs = CostModel::default();
        let mut g = MimdGraph::new();
        let ops = vec![
            Op::Push(1),
            Op::Push(2),
            Op::Bin(BinOp::Add),
            Op::Ld(Addr::poly(0)),
        ];
        let a = g.add(MimdState::new(ops, Terminator::Halt));
        let b = g.add(MimdState::new(vec![], Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: a, f: b };
        g.start = a;
        let suffix = g.split_state(a, 2, &costs).unwrap();
        assert!(matches!(g.state(suffix).term, Terminator::Branch { .. }));
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn split_state_refuses_single_op() {
        let costs = CostModel::default();
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        g.start = a;
        assert_eq!(g.split_state(a, 100, &costs), None);
    }

    #[test]
    fn split_refuses_when_budget_below_first_op() {
        let costs = CostModel::default();
        let mut g = MimdGraph::new();
        // First op costs 16 (div); budget 2 cannot make a non-empty prefix.
        let a = g.add(MimdState::new(
            vec![Op::Bin(BinOp::Div), Op::Push(1)],
            Terminator::Halt,
        ));
        g.start = a;
        assert_eq!(g.split_state(a, 2, &costs), None);
    }

    #[test]
    fn normalize_is_idempotent() {
        let mut g = figure1();
        g.normalize();
        let snap = g.clone();
        g.normalize();
        assert_eq!(g, snap);
    }

    #[test]
    fn pred_counts_match_figure1() {
        let g = figure1();
        let p = g.pred_counts();
        // start(A): 1 virtual; B: A + self = 2; D: 2; F: from B and D = 2.
        assert_eq!(p, vec![1, 2, 2, 2]);
    }
}
