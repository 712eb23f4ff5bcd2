//! The MIMD-emulation-by-interpretation baseline of §1.1.
//!
//! "Perhaps the most obvious way to make SIMD hardware mimic MIMD
//! execution is to write a SIMD program that will interpretively execute a
//! MIMD instruction set":
//!
//! 1. each PE fetches an "instruction" into its IR and updates its PC;
//! 2. each PE decodes the instruction;
//! 3. for each instruction type present: disable non-matching PEs,
//!    simulate the instruction on the enabled PEs, re-enable;
//! 4. go to 1.
//!
//! The paper lists the three overheads this repository's experiments
//! measure (C1 in EXPERIMENTS.md):
//!
//! * instructions must be fetched and decoded every round;
//! * **each PE holds a copy of the entire MIMD program** — on a 16K-PE
//!   MP-1 with 16KB of PE memory this "severely restricts the size of MIMD
//!   programs" ([`InterpProgram::per_pe_program_words`] measures it);
//! * the interpreter loop itself costs cycles every round.
//!
//! The interpreter here is a faithful cost simulation of that algorithm:
//! the MIMD state graph is flattened to a linear instruction image
//! (replicated per PE for the memory metric), and each round charges
//! fetch+decode, one issue per *distinct instruction type present* (the
//! step-3 serialization), and the loop-back overhead.

use msc_ir::{CostModel, MimdGraph, Op, Terminator};
use msc_simd::{PeArray, RunError};
use std::fmt;

/// One interpreted MIMD instruction (the "instruction set" of §1.1's
/// emulated machine).
#[derive(Debug, Clone, PartialEq)]
pub enum InterpInstr {
    /// A straight-line stack op.
    Op(Op),
    /// Conditional branch to image addresses.
    JumpF {
        /// TRUE target address.
        t: usize,
        /// FALSE target address.
        f: usize,
    },
    /// Unconditional branch.
    Jump(usize),
    /// Process end.
    Halt,
    /// Multiway return branch (image addresses).
    RetMulti(Vec<usize>),
    /// Barrier wait.
    Wait,
    /// Dynamic process creation.
    Spawn {
        /// Child entry address.
        child: usize,
        /// Continuation address.
        next: usize,
    },
}

impl InterpInstr {
    /// Encoded size in memory words (opcode + operands), for the per-PE
    /// program-copy metric.
    pub fn encoded_words(&self) -> usize {
        match self {
            InterpInstr::Op(op) => match op {
                Op::Push(_) | Op::PushF(_) => 2,
                Op::Ld(_) | Op::St(_) | Op::LdRemote(_) | Op::StRemote(_) => 2,
                Op::Pop(_) => 2,
                _ => 1,
            },
            InterpInstr::JumpF { .. } | InterpInstr::Spawn { .. } => 3,
            InterpInstr::Jump(_) => 2,
            InterpInstr::Halt | InterpInstr::Wait => 1,
            InterpInstr::RetMulti(v) => 1 + v.len(),
        }
    }

    /// Dispatch key: the instruction *type* (step 3 serializes over these).
    /// Operands like immediates and addresses are per-PE data and do not
    /// split the type; distinct ALU operators do (they decode to different
    /// execution routines). Always below [`TYPE_KEYS`].
    fn type_key(&self) -> u32 {
        match self {
            InterpInstr::Op(op) => match op {
                Op::Push(_) => 0,
                Op::PushF(_) => 1,
                Op::Dup => 2,
                Op::Pop(_) => 3,
                Op::Ld(a) => 4 + (a.space as u32),
                Op::St(a) => 6 + (a.space as u32),
                Op::LdRemote(_) => 8,
                Op::StRemote(_) => 9,
                Op::Bin(b) => 10 + *b as u32,
                Op::Un(u) => 40 + *u as u32,
                Op::PeId => 50,
                Op::NProc => 51,
                Op::PushRet => 52,
                Op::PopRet => 53,
            },
            InterpInstr::JumpF { .. } => 60,
            InterpInstr::Jump(_) => 61,
            InterpInstr::Halt => 62,
            InterpInstr::RetMulti(_) => 63,
            InterpInstr::Wait => 64,
            InterpInstr::Spawn { .. } => 65,
        }
    }

    /// Execution cost of this instruction type's handler.
    fn cost(&self, costs: &CostModel) -> u32 {
        match self {
            InterpInstr::Op(op) => costs.op_cost(op),
            InterpInstr::JumpF { .. } | InterpInstr::Jump(_) => costs.int_simple,
            InterpInstr::Halt | InterpInstr::Wait => costs.stack,
            InterpInstr::RetMulti(_) => costs.control,
            InterpInstr::Spawn { .. } => costs.dispatch,
        }
    }
}

/// One more than the largest [`InterpInstr::type_key`].
const TYPE_KEYS: usize = 66;

/// The flattened MIMD program image.
#[derive(Debug, Clone)]
pub struct InterpProgram {
    /// The instruction image (replicated into every PE's memory).
    pub image: Vec<InterpInstr>,
    /// Image address each process starts at.
    pub entry: usize,
    /// Words of poly memory the program needs.
    pub poly_words: u32,
    /// Words of mono memory.
    pub mono_words: u32,
}

impl InterpProgram {
    /// Flatten a MIMD state graph into a linear image. Blocks are laid out
    /// in id order; every terminator becomes an explicit branch
    /// instruction (no fall-through), which is what a simple MIMD
    /// instruction set would require anyway.
    pub fn flatten(graph: &MimdGraph, poly_words: u32, mono_words: u32) -> Self {
        let mut addr_of_state = vec![0usize; graph.len()];
        let mut image = Vec::new();
        for id in graph.ids() {
            addr_of_state[id.idx()] = image.len();
            let st = graph.state(id);
            if st.barrier {
                image.push(InterpInstr::Wait);
            }
            for op in &st.ops {
                image.push(InterpInstr::Op(op.clone()));
            }
            // Terminator placeholder; patched below once all addresses are
            // known.
            image.push(InterpInstr::Halt);
        }
        // Patch terminators.
        let mut cursor = 0usize;
        for id in graph.ids() {
            let st = graph.state(id);
            let len = st.ops.len() + 1 + st.barrier as usize;
            let term_at = cursor + len - 1;
            image[term_at] = match &st.term {
                Terminator::Halt => InterpInstr::Halt,
                Terminator::Jump(b) => InterpInstr::Jump(addr_of_state[b.idx()]),
                Terminator::Branch { t, f } => InterpInstr::JumpF {
                    t: addr_of_state[t.idx()],
                    f: addr_of_state[f.idx()],
                },
                Terminator::Multi(v) => {
                    InterpInstr::RetMulti(v.iter().map(|s| addr_of_state[s.idx()]).collect())
                }
                Terminator::Spawn { child, next } => InterpInstr::Spawn {
                    child: addr_of_state[child.idx()],
                    next: addr_of_state[next.idx()],
                },
            };
            cursor += len;
        }
        InterpProgram {
            image,
            entry: addr_of_state[graph.start.idx()],
            poly_words,
            mono_words,
        }
    }

    /// Words of program memory **each PE** must hold (§1.1 problem 2).
    pub fn per_pe_program_words(&self) -> usize {
        self.image.iter().map(InterpInstr::encoded_words).sum()
    }
}

/// Interpreter run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterpMetrics {
    /// Total cycles.
    pub cycles: u64,
    /// Cycles in fetch+decode (§1.1 problem 1).
    pub fetch_decode_cycles: u64,
    /// Cycles executing instruction handlers (incl. the serialization over
    /// distinct types present).
    pub execute_cycles: u64,
    /// Cycles in interpreter loop overhead (§1.1 problem 3).
    pub loop_cycles: u64,
    /// Interpreter rounds (one fetch-decode-dispatch-execute iteration).
    pub rounds: u64,
    /// Σ distinct instruction types per round — the serialization factor.
    pub types_dispatched: u64,
}

/// Interpreter failure modes (shared with the SIMD machine's error type
/// where the conditions coincide).
pub type InterpError = RunError;

/// What a PE is doing; `pc` is meaningful while `Running` (the next
/// instruction) and `Waiting` (the address of the `Wait`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Waiting,
    Halted,
    Idle,
}

/// The interpreter machine: N PEs interpreting their own copy of the MIMD
/// program image under SIMD control.
#[derive(Debug, Clone)]
pub struct InterpMachine {
    /// PE count.
    pub n_pe: usize,
    /// Every PE's `poly` memory and stacks, and the `mono` replica.
    pes: PeArray,
    status: Vec<Status>,
    pc: Vec<usize>,
    /// Metrics of the last run.
    pub metrics: InterpMetrics,
}

impl InterpMachine {
    /// Build an interpreter machine: `active` PEs start at the program
    /// entry, the rest idle.
    pub fn new(program: &InterpProgram, n_pe: usize, active: usize) -> Self {
        let mut status = vec![Status::Idle; n_pe];
        for s in status.iter_mut().take(active) {
            *s = Status::Running;
        }
        InterpMachine {
            n_pe,
            pes: PeArray::new(n_pe, program.poly_words, program.mono_words),
            status,
            pc: vec![program.entry; n_pe],
            metrics: InterpMetrics::default(),
        }
    }

    /// Read a PE's view of an address.
    pub fn poly_at(&self, pe: usize, addr: msc_ir::Addr) -> i64 {
        self.pes.poly_at(pe, addr)
    }

    /// Run the interpreter loop to completion.
    pub fn run(
        &mut self,
        program: &InterpProgram,
        costs: &CostModel,
        max_cycles: u64,
    ) -> Result<InterpMetrics, InterpError> {
        let image = &program.image;
        // Step 2 gives the same answer every time a PE reaches an address:
        // decode the type key and the handler cost once per address.
        let decoded: Vec<(usize, u64)> = image
            .iter()
            .map(|i| (i.type_key() as usize, i.cost(costs) as u64))
            .collect();
        // Likewise an out-of-range operand is a property of the image; only
        // an image that has one pays for the test at every step.
        let suspect = image
            .iter()
            .any(|i| matches!(i, InterpInstr::Op(op) if self.pes.check_addr(op).is_some()));
        // The running PEs, ascending; `stale` when a barrier release or a
        // spawn has made PEs run that are not filed in it yet.
        let mut running: Vec<usize> = Vec::new();
        let mut stale = true;
        // Step 3's buckets: the PEs at each instruction type, ascending.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); TYPE_KEYS];
        // Idle PEs are only ever consumed, so the lowest one moves up.
        let mut next_idle = 0;
        loop {
            if self.metrics.cycles > max_cycles {
                return Err(RunError::Watchdog { max_cycles });
            }
            if stale {
                running.clear();
                running.extend((0..self.n_pe).filter(|&pe| self.status[pe] == Status::Running));
                stale = false;
            }
            if running.is_empty() {
                // Barrier release or true termination.
                for pe in 0..self.n_pe {
                    if self.status[pe] == Status::Waiting {
                        self.status[pe] = Status::Running;
                        self.pc[pe] += 1;
                        stale = true;
                    }
                }
                if !stale {
                    return Ok(self.metrics);
                }
                continue;
            }

            // Round: fetch + decode on all PEs simultaneously (one issue).
            self.metrics.rounds += 1;
            self.metrics.cycles += costs.interp_fetch_decode as u64;
            self.metrics.fetch_decode_cycles += costs.interp_fetch_decode as u64;

            // Step 3: serialize over the distinct instruction types present.
            let mut present = 0u128;
            for &pe in &running {
                let key = decoded[self.pc[pe]].0;
                buckets[key].push(pe);
                present |= 1 << key;
            }
            self.metrics.types_dispatched += present.count_ones() as u64;
            // Did a PE stop running (halt, wait) this round?
            let mut left = false;
            while present != 0 {
                let key = present.trailing_zeros() as usize;
                present &= present - 1;
                let group = std::mem::take(&mut buckets[key]);
                // One representative instruction gives the handler cost and
                // picks the handler; all PEs in the group execute it
                // simultaneously, each on its own operands.
                let first = self.pc[group[0]];
                self.metrics.cycles += decoded[first].1;
                self.metrics.execute_cycles += decoded[first].1;
                match &image[first] {
                    InterpInstr::Op(_) => {
                        for &pe in &group {
                            let InterpInstr::Op(op) = &image[self.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            if suspect {
                                if let Some(index) = self.pes.check_addr(op) {
                                    return Err(RunError::BadAddress { pe, index });
                                }
                            }
                            self.pes.apply(op, [pe])?;
                            self.pc[pe] += 1;
                        }
                    }
                    InterpInstr::Jump(_) => {
                        for &pe in &group {
                            let InterpInstr::Jump(t) = image[self.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            self.pc[pe] = t;
                        }
                    }
                    InterpInstr::JumpF { .. } => {
                        for &pe in &group {
                            let InterpInstr::JumpF { t, f } = image[self.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            let c = self.pes.pop(pe)?;
                            self.pc[pe] = if c != 0 { t } else { f };
                        }
                    }
                    InterpInstr::Halt => {
                        for &pe in &group {
                            self.status[pe] = Status::Halted;
                            self.pes.reset(pe);
                        }
                        left = true;
                    }
                    InterpInstr::Wait => {
                        for &pe in &group {
                            self.status[pe] = Status::Waiting;
                        }
                        left = true;
                    }
                    InterpInstr::RetMulti(_) => {
                        for &pe in &group {
                            let InterpInstr::RetMulti(targets) = &image[self.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            let sel = self.pes.pop(pe)?;
                            self.pc[pe] = *targets
                                .get(sel as usize)
                                .ok_or(RunError::BadSelector { pe, selector: sel })?;
                        }
                    }
                    InterpInstr::Spawn { .. } => {
                        for &pe in &group {
                            let InterpInstr::Spawn { child, next } = image[self.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            while next_idle < self.n_pe && self.status[next_idle] != Status::Idle {
                                next_idle += 1;
                            }
                            if next_idle == self.n_pe {
                                return Err(RunError::SpawnOverflow {
                                    block: msc_simd::BlockId(0),
                                    requested: 1,
                                    available: 0,
                                });
                            }
                            self.pes.copy_poly(pe, next_idle);
                            self.pes.reset(next_idle);
                            self.status[next_idle] = Status::Running;
                            self.pc[next_idle] = child;
                            self.pc[pe] = next;
                        }
                        stale = true;
                    }
                }
                buckets[key] = group;
                buckets[key].clear();
            }
            if left && !stale {
                running.retain(|&pe| self.status[pe] == Status::Running);
            }

            // Step 4: loop back.
            self.metrics.cycles += costs.interp_loop as u64;
            self.metrics.loop_cycles += costs.interp_loop as u64;
        }
    }
}

impl fmt::Display for InterpProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.image.iter().enumerate() {
            writeln!(f, "{i:4}: {instr:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_lang::compile;

    fn run_src(src: &str, n: usize) -> (InterpMachine, msc_lang::Program, InterpProgram) {
        let p = compile(src).unwrap();
        let ip = InterpProgram::flatten(&p.graph, p.layout.poly_words, p.layout.mono_words);
        let mut m = InterpMachine::new(&ip, n, n);
        m.run(&ip, &CostModel::default(), 100_000_000).unwrap();
        (m, p, ip)
    }

    #[test]
    fn interprets_straight_line() {
        let (m, p, _) = run_src("main() { poly int x; x = pe_id() + 100; return(x); }", 4);
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..4 {
            assert_eq!(m.poly_at(pe, ret), pe as i64 + 100);
        }
    }

    #[test]
    fn interprets_divergent_control_flow() {
        let (m, p, _) = run_src(
            r#"
            main() {
                poly int x, i;
                x = 0;
                for (i = 0; i < pe_id() + 1; i += 1) { x += 2; }
                return(x);
            }
            "#,
            4,
        );
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..4 {
            assert_eq!(m.poly_at(pe, ret), 2 * (pe as i64 + 1));
        }
    }

    #[test]
    fn serialization_counts_types() {
        let (m, _, _) = run_src(
            r#"
            main() {
                poly int x;
                if (pe_id() % 2) { x = 1 + 2; } else { x = 3 * 4; }
                return(x);
            }
            "#,
            4,
        );
        // Divergent paths force rounds where several instruction types are
        // present at once.
        assert!(m.metrics.types_dispatched > m.metrics.rounds);
    }

    #[test]
    fn per_pe_program_memory_grows_with_program() {
        let (_, _, small) = run_src("main() { poly int x = 1; return(x); }", 2);
        let (_, _, large) = run_src(
            r#"
            main() {
                poly int x = 1;
                x += 1; x += 2; x += 3; x += 4; x += 5;
                x += 6; x += 7; x += 8; x += 9; x += 10;
                return(x);
            }
            "#,
            2,
        );
        assert!(large.per_pe_program_words() > small.per_pe_program_words());
        assert!(
            small.per_pe_program_words() > 0,
            "§1.1: every PE holds the program"
        );
    }

    #[test]
    fn barrier_in_interpreter() {
        let (m, p, _) = run_src(
            r#"
            mono int shared;
            main() {
                poly int i, x = 0;
                if (pe_id() == 0) {
                    for (i = 0; i < 20; i += 1) { x += 1; }
                    shared = 55;
                }
                wait;
                return(shared);
            }
            "#,
            3,
        );
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..3 {
            assert_eq!(m.poly_at(pe, ret), 55);
        }
    }

    fn image(image: Vec<InterpInstr>, poly_words: u32) -> InterpProgram {
        InterpProgram {
            image,
            entry: 0,
            poly_words,
            mono_words: 0,
        }
    }

    #[test]
    fn out_of_range_address_is_a_run_error() {
        use msc_ir::Addr;
        // PE 0 halts at once; PE 1 is the first to reach the bad load.
        let ip = image(
            vec![
                InterpInstr::Op(Op::PeId),
                InterpInstr::JumpF { t: 2, f: 3 },
                InterpInstr::Op(Op::Ld(Addr::poly(5))),
                InterpInstr::Halt,
            ],
            1,
        );
        let mut m = InterpMachine::new(&ip, 3, 3);
        assert_eq!(
            m.run(&ip, &CostModel::default(), 1_000),
            Err(RunError::BadAddress { pe: 1, index: 5 })
        );
        // A bad instruction nobody reaches is not a fault.
        let mut m = InterpMachine::new(&ip, 1, 1);
        assert!(m.run(&ip, &CostModel::default(), 1_000).is_ok());
    }

    #[test]
    fn spawn_takes_idle_pes_in_ascending_order_and_never_a_halted_one() {
        use msc_ir::Addr;
        // Parents tag themselves 1 and spawn; children (entering at 3)
        // inherit the tag and add 1.
        let ip = image(
            vec![
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::St(Addr::poly(0))),
                InterpInstr::Spawn { child: 3, next: 7 },
                InterpInstr::Op(Op::Ld(Addr::poly(0))),
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::Bin(msc_ir::BinOp::Add)),
                InterpInstr::Op(Op::St(Addr::poly(0))),
                InterpInstr::Halt,
            ],
            1,
        );
        let costs = CostModel::default();
        let mut m = InterpMachine::new(&ip, 5, 2);
        m.run(&ip, &costs, 10_000).unwrap();
        let tags: Vec<i64> = (0..5).map(|pe| m.poly_at(pe, Addr::poly(0))).collect();
        assert_eq!(tags, vec![1, 1, 2, 2, 0]);
        // Three spawners, two idle PEs: the third finds none.
        let mut m = InterpMachine::new(&ip, 5, 3);
        assert_eq!(
            m.run(&ip, &costs, 10_000),
            Err(RunError::SpawnOverflow {
                block: msc_simd::BlockId(0),
                requested: 1,
                available: 0,
            })
        );
    }

    #[test]
    fn an_empty_array_terminates_at_once() {
        let ip = image(vec![InterpInstr::Halt], 0);
        let mut m = InterpMachine::new(&ip, 0, 0);
        let metrics = m.run(&ip, &CostModel::default(), 10).unwrap();
        assert_eq!(metrics, InterpMetrics::default());
    }

    #[test]
    fn fetch_decode_overhead_accrues_every_round() {
        let (m, _, _) = run_src("main() { poly int x = 1; return(x); }", 2);
        assert!(m.metrics.fetch_decode_cycles > 0);
        assert!(m.metrics.loop_cycles > 0);
        assert_eq!(
            m.metrics.cycles,
            m.metrics.fetch_decode_cycles + m.metrics.execute_cycles + m.metrics.loop_cycles
        );
    }
}
