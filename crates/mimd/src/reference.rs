//! Reference MIMD execution: every processor has its own program counter
//! and walks the MIMD state graph directly, in lock-step cycle simulation.
//!
//! This is the *golden semantics* the meta-state-converted SIMD program
//! must reproduce (§1.2: the meta-state automaton "is a SIMD program that
//! preserves the relative timing properties of MIMD execution"), and the
//! idealized-MIMD timing baseline for the experiments.

use msc_ir::{CostModel, MimdGraph, Op, PePool, Space, StateId, Terminator};
use std::fmt;

/// Per-processor execution state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Proc {
    /// Executing op `op_idx` of `state`, with `remaining` cycles to go on
    /// it (0 remaining = about to apply its effect).
    Running {
        state: StateId,
        op_idx: usize,
        remaining: u32,
    },
    /// Reached a barrier-entry state; waiting for everyone (§2.6).
    AtBarrier { state: StateId },
    /// Process ended. The processor stays halted: the reference never
    /// returns one to the spawn pool.
    Halted,
    /// Never started, and not yet recruited by a `spawn`.
    Idle,
}

/// Run-time failures of the reference simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum MimdError {
    /// Operand stack underflow.
    StackUnderflow {
        /// The processor.
        proc: usize,
    },
    /// Return-site stack underflow.
    RetStackUnderflow {
        /// The processor.
        proc: usize,
    },
    /// Multiway-branch selector out of range.
    BadSelector {
        /// The processor.
        proc: usize,
        /// The selector.
        selector: i64,
    },
    /// No idle processor available for a `spawn`.
    SpawnOverflow {
        /// The spawning processor.
        proc: usize,
    },
    /// Cycle budget exceeded.
    Watchdog {
        /// The limit.
        max_cycles: u64,
    },
}

impl fmt::Display for MimdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MimdError::StackUnderflow { proc } => write!(f, "stack underflow on proc {proc}"),
            MimdError::RetStackUnderflow { proc } => {
                write!(f, "return stack underflow on proc {proc}")
            }
            MimdError::BadSelector { proc, selector } => {
                write!(f, "bad return selector {selector} on proc {proc}")
            }
            MimdError::SpawnOverflow { proc } => {
                write!(f, "no idle processor for spawn from proc {proc}")
            }
            MimdError::Watchdog { max_cycles } => {
                write!(f, "exceeded {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for MimdError {}

/// Metrics from a reference run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MimdMetrics {
    /// Wall-clock cycles until the last processor finished.
    pub cycles: u64,
    /// Σ over processors of cycles spent actually executing (not waiting
    /// at barriers, not idle, not halted).
    pub busy_cycles: u64,
    /// Σ over processors of cycles spent waiting at barriers.
    pub barrier_wait_cycles: u64,
}

impl MimdMetrics {
    /// Busy fraction of the processors that were ever started.
    pub fn utilization(&self, started: usize) -> f64 {
        if self.cycles == 0 || started == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / (self.cycles as f64 * started as f64)
    }
}

/// Configuration for a reference run.
#[derive(Debug, Clone)]
pub struct MimdConfig {
    /// Processor count.
    pub n_proc: usize,
    /// How many start in the graph's start state; the rest are idle.
    pub active_at_start: usize,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Cost model.
    pub costs: CostModel,
}

impl MimdConfig {
    /// All processors start live (SPMD).
    pub fn spmd(n_proc: usize) -> Self {
        MimdConfig {
            n_proc,
            active_at_start: n_proc,
            max_cycles: 100_000_000,
            costs: CostModel::default(),
        }
    }
}

/// The reference multi-processor machine.
#[derive(Debug, Clone)]
pub struct MimdReference {
    /// Processor count.
    pub n_proc: usize,
    /// Per-processor private memory.
    pub poly: Vec<Vec<i64>>,
    /// Shared memory (kept as one copy; `mono` stores update it).
    pub mono: Vec<i64>,
    stack: Vec<Vec<i64>>,
    ret_stack: Vec<Vec<i64>>,
    procs: Vec<Proc>,
    /// Metrics of the last run.
    pub metrics: MimdMetrics,
}

impl MimdReference {
    /// Build a machine sized for `graph`'s memory needs.
    pub fn new(poly_words: u32, mono_words: u32, config: &MimdConfig) -> Self {
        let n = config.n_proc;
        MimdReference {
            n_proc: n,
            poly: vec![vec![0; poly_words as usize]; n],
            mono: vec![0; mono_words as usize],
            stack: vec![Vec::new(); n],
            ret_stack: vec![Vec::new(); n],
            procs: vec![Proc::Idle; n],
            metrics: MimdMetrics::default(),
        }
    }

    /// Read processor `p`'s view of `addr`.
    pub fn poly_at(&self, p: usize, addr: msc_ir::Addr) -> i64 {
        match addr.space {
            Space::Poly => self.poly[p][addr.index as usize],
            Space::Mono => self.mono[addr.index as usize],
        }
    }

    /// Run `graph` to completion.
    ///
    /// Each cycle visits the running and waiting processors only, in
    /// ascending order — a halted or idle one does nothing — so they are
    /// kept as a list, from which a halted processor drops at the end of
    /// the cycle. The idle processors are always a suffix of the array (the
    /// pool past `active_at_start`, less the recruits taken from its bottom;
    /// a halted processor never rejoins it), so a recruit lies above every
    /// listed processor: it joins at the end of the list and still runs in
    /// the cycle it was spawned in, as a walk over every processor would
    /// have it.
    pub fn run(
        &mut self,
        graph: &MimdGraph,
        config: &MimdConfig,
    ) -> Result<MimdMetrics, MimdError> {
        let costs = &config.costs;
        for p in 0..config.active_at_start.min(self.n_proc) {
            self.procs[p] = self.enter_state(graph, graph.start);
        }
        let mut live: Vec<usize> = (0..self.n_proc)
            .filter(|&p| matches!(self.procs[p], Proc::Running { .. } | Proc::AtBarrier { .. }))
            .collect();
        let mut waiting = live
            .iter()
            .filter(|&&p| matches!(self.procs[p], Proc::AtBarrier { .. }))
            .count();
        let mut pool = PePool::new(self.n_proc, |p| self.procs[p] == Proc::Idle);
        loop {
            // Termination: nobody running or waiting.
            if live.is_empty() {
                return Ok(self.metrics);
            }
            if self.metrics.cycles > config.max_cycles {
                return Err(MimdError::Watchdog {
                    max_cycles: config.max_cycles,
                });
            }

            // Barrier release: every non-halted, non-idle processor waiting.
            if waiting == live.len() {
                for &p in &live {
                    if let Proc::AtBarrier { state } = self.procs[p] {
                        self.procs[p] = self.resume_barrier(graph, state);
                    }
                }
                waiting = 0;
                continue;
            }

            // One lock-step cycle.
            self.metrics.cycles += 1;
            waiting = 0;
            let mut halted = false;
            let mut i = 0;
            while i < live.len() {
                let p = live[i];
                match &mut self.procs[p] {
                    Proc::Idle | Proc::Halted => {}
                    Proc::AtBarrier { .. } => {
                        self.metrics.barrier_wait_cycles += 1;
                    }
                    Proc::Running { remaining, .. } => {
                        self.metrics.busy_cycles += 1;
                        if *remaining > 1 {
                            *remaining -= 1;
                        } else if let Some(q) = self.complete_op(graph, p, costs, &mut pool)? {
                            debug_assert!(live.last() < Some(&q));
                            live.push(q);
                        }
                    }
                }
                match self.procs[p] {
                    Proc::AtBarrier { .. } => waiting += 1,
                    Proc::Halted => halted = true,
                    _ => {}
                }
                i += 1;
            }
            if halted {
                live.retain(|&p| self.procs[p] != Proc::Halted);
            }
        }
    }

    /// Entering `state`: either start its first op, or (empty block) go
    /// straight to its terminator. Barrier-entry states park the process.
    fn enter_state(&mut self, graph: &MimdGraph, state: StateId) -> Proc {
        if graph.state(state).barrier {
            return Proc::AtBarrier { state };
        }
        self.resume_barrier(graph, state)
    }

    /// Start executing `state`'s body (used both on normal entry and on
    /// barrier release).
    fn resume_barrier(&mut self, _graph: &MimdGraph, state: StateId) -> Proc {
        Proc::Running {
            state,
            op_idx: 0,
            remaining: 0,
        }
    }

    /// The current op of processor `p` finished its cycles: apply its
    /// effect and advance (possibly through the terminator). A spawn
    /// returns the processor it recruited from `pool`, the lowest idle one;
    /// a halt returns nothing to it.
    fn complete_op(
        &mut self,
        graph: &MimdGraph,
        p: usize,
        costs: &CostModel,
        pool: &mut PePool,
    ) -> Result<Option<usize>, MimdError> {
        let Proc::Running {
            state,
            op_idx,
            remaining,
        } = self.procs[p]
        else {
            unreachable!()
        };
        let st = graph.state(state);
        if remaining == 0 {
            // Starting a new op (or the terminator): charge its time.
            if op_idx < st.ops.len() {
                let cost = costs.op_cost(&st.ops[op_idx]).max(1);
                if cost > 1 {
                    self.procs[p] = Proc::Running {
                        state,
                        op_idx,
                        remaining: cost - 1,
                    };
                    return Ok(None);
                }
            }
            // cost 1 (or terminator): fall through to apply now.
        }
        if op_idx < st.ops.len() {
            self.apply_op(&st.ops[op_idx], p)?;
            self.procs[p] = Proc::Running {
                state,
                op_idx: op_idx + 1,
                remaining: 0,
            };
            // If that was the last op, the terminator runs next cycle.
            return Ok(None);
        }
        // Terminator.
        match st.term {
            Terminator::Halt => {
                self.procs[p] = Proc::Halted;
                self.stack[p].clear();
                self.ret_stack[p].clear();
            }
            Terminator::Jump(next) => {
                self.procs[p] = self.enter_state(graph, next);
            }
            Terminator::Branch { t, f } => {
                let c = self.pop(p)?;
                self.procs[p] = self.enter_state(graph, if c != 0 { t } else { f });
            }
            Terminator::Multi(ref targets) => {
                let sel = self.pop(p)?;
                let t = *targets.get(sel as usize).ok_or(MimdError::BadSelector {
                    proc: p,
                    selector: sel,
                })?;
                self.procs[p] = self.enter_state(graph, t);
            }
            Terminator::Spawn { child, next } => {
                let idle = pool.recruit().ok_or(MimdError::SpawnOverflow { proc: p })?;
                self.poly[idle] = self.poly[p].clone();
                self.stack[idle].clear();
                self.ret_stack[idle].clear();
                self.procs[idle] = self.enter_state(graph, child);
                self.procs[p] = self.enter_state(graph, next);
                return Ok(Some(idle));
            }
        }
        Ok(None)
    }

    fn pop(&mut self, p: usize) -> Result<i64, MimdError> {
        self.stack[p]
            .pop()
            .ok_or(MimdError::StackUnderflow { proc: p })
    }

    fn apply_op(&mut self, op: &Op, p: usize) -> Result<(), MimdError> {
        match op {
            Op::Push(v) => self.stack[p].push(*v),
            Op::PushF(b) => self.stack[p].push(*b as i64),
            Op::Dup => {
                let v = *self.stack[p]
                    .last()
                    .ok_or(MimdError::StackUnderflow { proc: p })?;
                self.stack[p].push(v);
            }
            Op::Pop(n) => {
                for _ in 0..*n {
                    self.pop(p)?;
                }
            }
            Op::Ld(a) => {
                let v = match a.space {
                    Space::Poly => self.poly[p][a.index as usize],
                    Space::Mono => self.mono[a.index as usize],
                };
                self.stack[p].push(v);
            }
            Op::St(a) => {
                let v = self.pop(p)?;
                match a.space {
                    Space::Poly => self.poly[p][a.index as usize] = v,
                    Space::Mono => self.mono[a.index as usize] = v,
                }
            }
            Op::LdRemote(a) => {
                let idx = self.pop(p)?;
                let src = (idx.rem_euclid(self.n_proc as i64)) as usize;
                let v = self.poly[src][a.index as usize];
                self.stack[p].push(v);
            }
            Op::StRemote(a) => {
                let idx = self.pop(p)?;
                let v = self.pop(p)?;
                let dst = (idx.rem_euclid(self.n_proc as i64)) as usize;
                self.poly[dst][a.index as usize] = v;
            }
            Op::Bin(b) => {
                let rhs = self.pop(p)?;
                let lhs = self.pop(p)?;
                self.stack[p].push(b.apply(lhs, rhs));
            }
            Op::Un(u) => {
                let v = self.pop(p)?;
                self.stack[p].push(u.apply(v));
            }
            Op::PeId => self.stack[p].push(p as i64),
            Op::NProc => self.stack[p].push(self.n_proc as i64),
            Op::PushRet => {
                let v = self.pop(p)?;
                self.ret_stack[p].push(v);
            }
            Op::PopRet => {
                let v = self.ret_stack[p]
                    .pop()
                    .ok_or(MimdError::RetStackUnderflow { proc: p })?;
                self.stack[p].push(v);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{Addr, BinOp, MimdState, UnOp};
    use msc_lang::compile;

    /// The loop [`MimdReference::run`] replaced, kept as its oracle: every
    /// cycle visits every processor, a spawn scans for the lowest idle one.
    fn run_literal(
        m: &mut MimdReference,
        graph: &MimdGraph,
        config: &MimdConfig,
    ) -> Result<MimdMetrics, MimdError> {
        let costs = &config.costs;
        for p in 0..config.active_at_start.min(m.n_proc) {
            m.procs[p] = m.enter_state(graph, graph.start);
        }
        loop {
            let any_active = m
                .procs
                .iter()
                .any(|p| matches!(p, Proc::Running { .. } | Proc::AtBarrier { .. }));
            if !any_active {
                return Ok(m.metrics);
            }
            if m.metrics.cycles > config.max_cycles {
                return Err(MimdError::Watchdog {
                    max_cycles: config.max_cycles,
                });
            }
            let all_at_barrier = m
                .procs
                .iter()
                .filter(|p| matches!(p, Proc::Running { .. } | Proc::AtBarrier { .. }))
                .all(|p| matches!(p, Proc::AtBarrier { .. }));
            if all_at_barrier {
                for i in 0..m.n_proc {
                    if let Proc::AtBarrier { state } = m.procs[i] {
                        m.procs[i] = m.resume_barrier(graph, state);
                    }
                }
                continue;
            }
            m.metrics.cycles += 1;
            for p in 0..m.n_proc {
                match &mut m.procs[p] {
                    Proc::Idle | Proc::Halted => {}
                    Proc::AtBarrier { .. } => {
                        m.metrics.barrier_wait_cycles += 1;
                    }
                    Proc::Running { remaining, .. } => {
                        m.metrics.busy_cycles += 1;
                        if *remaining > 1 {
                            *remaining -= 1;
                        } else {
                            complete_literal(m, graph, p, costs)?;
                        }
                    }
                }
            }
        }
    }

    fn complete_literal(
        m: &mut MimdReference,
        graph: &MimdGraph,
        p: usize,
        costs: &CostModel,
    ) -> Result<(), MimdError> {
        let Proc::Running {
            state,
            op_idx,
            remaining,
        } = m.procs[p]
        else {
            unreachable!()
        };
        let st = graph.state(state);
        if remaining == 0 && op_idx < st.ops.len() {
            let cost = costs.op_cost(&st.ops[op_idx]).max(1);
            if cost > 1 {
                m.procs[p] = Proc::Running {
                    state,
                    op_idx,
                    remaining: cost - 1,
                };
                return Ok(());
            }
        }
        if op_idx < st.ops.len() {
            m.apply_op(&st.ops[op_idx].clone(), p)?;
            m.procs[p] = Proc::Running {
                state,
                op_idx: op_idx + 1,
                remaining: 0,
            };
            return Ok(());
        }
        match st.term.clone() {
            Terminator::Halt => {
                m.procs[p] = Proc::Halted;
                m.stack[p].clear();
                m.ret_stack[p].clear();
            }
            Terminator::Jump(next) => m.procs[p] = m.enter_state(graph, next),
            Terminator::Branch { t, f } => {
                let c = m.pop(p)?;
                m.procs[p] = m.enter_state(graph, if c != 0 { t } else { f });
            }
            Terminator::Multi(targets) => {
                let sel = m.pop(p)?;
                let t = *targets.get(sel as usize).ok_or(MimdError::BadSelector {
                    proc: p,
                    selector: sel,
                })?;
                m.procs[p] = m.enter_state(graph, t);
            }
            Terminator::Spawn { child, next } => {
                let idle = (0..m.n_proc)
                    .find(|&q| matches!(m.procs[q], Proc::Idle))
                    .ok_or(MimdError::SpawnOverflow { proc: p })?;
                m.poly[idle] = m.poly[p].clone();
                m.stack[idle].clear();
                m.ret_stack[idle].clear();
                m.procs[idle] = m.enter_state(graph, child);
                m.procs[p] = m.enter_state(graph, next);
            }
        }
        Ok(())
    }

    /// splitmix64, to draw a whole graph from one proptest seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn state(&mut self, states: u64) -> StateId {
            StateId(self.below(states) as u32)
        }

        /// Ops that push one value.
        fn expr(&mut self, out: &mut Vec<Op>, depth: u32) {
            let op = match self.below(if depth == 0 { 5 } else { 8 }) {
                0 => Op::PeId,
                1 => Op::Push(self.below(7) as i64 - 2),
                2 => Op::Ld(Addr::poly(self.below(3) as u32)),
                3 => Op::Ld(Addr::mono(self.below(2) as u32)),
                4 => Op::NProc,
                5 => {
                    self.expr(out, depth - 1);
                    Op::LdRemote(Addr::poly(self.below(3) as u32))
                }
                6 => {
                    self.expr(out, depth - 1);
                    Op::Un(UnOp::Neg)
                }
                _ => {
                    self.expr(out, depth - 1);
                    self.expr(out, depth - 1);
                    Op::Bin([BinOp::Add, BinOp::Mul, BinOp::Rem, BinOp::Lt][self.below(4) as usize])
                }
            };
            out.push(op);
        }

        /// Ops that leave the stacks as they found them or, one time in
        /// 16, one that may find them too short.
        fn statement(&mut self, out: &mut Vec<Op>) {
            let op = match self.below(16) {
                0 => Op::Bin(BinOp::Add),
                1..=5 => {
                    self.expr(out, 2);
                    Op::St(Addr::poly(self.below(3) as u32))
                }
                6..=9 => {
                    self.expr(out, 2);
                    Op::St(Addr::mono(self.below(2) as u32))
                }
                10..=12 => {
                    self.expr(out, 2);
                    self.expr(out, 1);
                    Op::StRemote(Addr::poly(self.below(3) as u32))
                }
                _ => {
                    self.expr(out, 1);
                    out.push(Op::PushRet);
                    out.push(Op::PopRet);
                    Op::Pop(1)
                }
            };
            out.push(op);
        }
    }

    /// Two to seven states of up to four statements, one in four a
    /// barrier, ending in any terminator (a selector one time in 16 past
    /// its targets).
    fn random_graph(seed: u64) -> MimdGraph {
        let mut g = Gen(seed);
        let states = 2 + g.below(6);
        let mut graph = MimdGraph::new();
        for _ in 0..states {
            let mut ops = Vec::new();
            for _ in 0..g.below(5) {
                g.statement(&mut ops);
            }
            let term = match g.below(8) {
                0 | 1 => {
                    g.expr(&mut ops, 2);
                    Terminator::Branch {
                        t: g.state(states),
                        f: g.state(states),
                    }
                }
                2 => Terminator::Jump(g.state(states)),
                3 => {
                    let n = 1 + g.below(3);
                    ops.extend([
                        Op::PeId,
                        Op::Push((n + (g.below(16) == 0) as u64) as i64),
                        Op::Bin(BinOp::Rem),
                    ]);
                    Terminator::Multi((0..n).map(|_| g.state(states)).collect())
                }
                4 | 5 => Terminator::Spawn {
                    child: g.state(states),
                    next: g.state(states),
                },
                _ => Terminator::Halt,
            };
            let state = MimdState::new(ops, term);
            graph.add(if g.below(4) == 0 {
                state.with_barrier()
            } else {
                state
            });
        }
        graph
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 512,
            ..proptest::test_runner::ProptestConfig::default()
        })]
        /// The live-list walk is the literal loop: the same result, and the
        /// same machine after it — metrics, memories, stacks, processors.
        #[test]
        fn live_walk_matches_the_literal_loop(
            seed in proptest::prelude::any::<u64>(),
            width in 0usize..5,
            active in proptest::prelude::any::<u64>(),
            max_cycles in 0u64..3000,
        ) {
            let graph = random_graph(seed);
            let n = [1, 7, 64, 65, 130][width];
            let config = MimdConfig {
                n_proc: n,
                active_at_start: (active % (n as u64 + 1)) as usize,
                max_cycles,
                costs: CostModel::default(),
            };
            let mut walk = MimdReference::new(3, 2, &config);
            let mut literal = walk.clone();
            let got = walk.run(&graph, &config);
            let want = run_literal(&mut literal, &graph, &config);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(format!("{walk:?}"), format!("{literal:?}"));
        }
    }

    fn run_src(src: &str, n: usize) -> (MimdReference, msc_lang::Program) {
        let p = compile(src).unwrap();
        let cfg = MimdConfig::spmd(n);
        let mut m = MimdReference::new(p.layout.poly_words, p.layout.mono_words, &cfg);
        m.run(&p.graph, &cfg).unwrap();
        (m, p)
    }

    #[test]
    fn straight_line_per_pe() {
        let (m, p) = run_src("main() { poly int x; x = pe_id() * 3 + 1; return(x); }", 5);
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..5 {
            assert_eq!(m.poly_at(pe, ret), pe as i64 * 3 + 1);
        }
    }

    #[test]
    fn divergent_branches() {
        let (m, p) = run_src(
            r#"
            main() {
                poly int x;
                if (pe_id() % 2) { x = 100; } else { x = 200; }
                return(x);
            }
            "#,
            4,
        );
        let ret = p.layout.main_ret.unwrap();
        assert_eq!(m.poly_at(0, ret), 200);
        assert_eq!(m.poly_at(1, ret), 100);
        assert_eq!(m.poly_at(2, ret), 200);
        assert_eq!(m.poly_at(3, ret), 100);
    }

    #[test]
    fn loops_with_different_trip_counts() {
        let (m, p) = run_src(
            r#"
            main() {
                poly int i, acc = 0;
                for (i = 0; i < pe_id(); i += 1) { acc += i; }
                return(acc);
            }
            "#,
            6,
        );
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..6i64 {
            let expect = (0..pe).sum::<i64>();
            assert_eq!(m.poly_at(pe as usize, ret), expect, "PE {pe}");
        }
    }

    #[test]
    fn barrier_synchronizes() {
        // Fast PEs must observe the mono value written by the slow PE
        // before the barrier.
        let (m, p) = run_src(
            r#"
            mono int shared;
            main() {
                poly int i, x = 0;
                if (pe_id() == 0) {
                    for (i = 0; i < 50; i += 1) { x += 1; }
                    shared = 777;
                }
                wait;
                return(shared);
            }
            "#,
            4,
        );
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..4 {
            assert_eq!(
                m.poly_at(pe, ret),
                777,
                "PE {pe} ran past the barrier early"
            );
        }
        assert!(
            m.metrics.barrier_wait_cycles > 0,
            "fast PEs must have waited"
        );
    }

    #[test]
    fn recursion_executes() {
        let (m, p) = run_src(
            r#"
            int fact(int n) {
                if (n <= 1) return 1;
                return n * fact(n - 1);
            }
            main() { poly int x; x = fact(pe_id() + 1); return(x); }
            "#,
            5,
        );
        let ret = p.layout.main_ret.unwrap();
        let facts = [1i64, 2, 6, 24, 120];
        for (pe, want) in facts.iter().enumerate() {
            assert_eq!(m.poly_at(pe, ret), *want, "fact({})", pe + 1);
        }
    }

    #[test]
    fn spawn_on_reference_machine() {
        let src = r#"
            void worker(int v) { poly int r; r = v * 2; }
            main() { spawn worker(21); }
        "#;
        let p = compile(src).unwrap();
        let cfg = MimdConfig {
            n_proc: 4,
            active_at_start: 2,
            ..MimdConfig::spmd(4)
        };
        let mut m = MimdReference::new(p.layout.poly_words, p.layout.mono_words, &cfg);
        m.run(&p.graph, &cfg).unwrap();
        let r = p.layout.var("r").unwrap().addr;
        let spawned_results: Vec<i64> = (0..4).map(|pe| m.poly_at(pe, r)).collect();
        assert_eq!(spawned_results.iter().filter(|&&v| v == 42).count(), 2);
    }

    #[test]
    fn watchdog_catches_nontermination() {
        let p = compile("main() { poly int x = 1; do { x = 1; } while (x); }").unwrap();
        let mut cfg = MimdConfig::spmd(2);
        cfg.max_cycles = 5_000;
        let mut m = MimdReference::new(p.layout.poly_words, p.layout.mono_words, &cfg);
        assert_eq!(
            m.run(&p.graph, &cfg),
            Err(MimdError::Watchdog { max_cycles: 5_000 })
        );
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let (m, _) = run_src(
            r#"
            main() {
                poly int i, x = 0;
                for (i = 0; i < pe_id() * 20 + 1; i += 1) { x += i; }
                wait;
                return(x);
            }
            "#,
            8,
        );
        let u = m.metrics.utilization(8);
        assert!(
            u > 0.0 && u < 1.0,
            "imbalanced loops + barrier ⇒ some waiting, got {u}"
        );
    }
}
