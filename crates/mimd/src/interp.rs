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
//!
//! Step 3 is simulated as written. The running PEs persist across rounds
//! as *cohorts*: an image address and the ascending list of PEs at it, at
//! most one per address. A round groups the cohorts by instruction type and
//! walks the types in ascending order, issuing each cohort's instruction to
//! the whole cohort at once: [`PeArray::apply_at_depth`] when the cohort's
//! PEs share an operand depth, else [`PeArray::apply`]. An op moves its
//! cohort to the next address, a jump moves it whole, a branch splits it by
//! the value each PE pops, and cohorts that land on one address merge at
//! the end of the round. Everything observable is what stepping each PE on
//! its own, in ascending order, gives: the handler cost is the
//! lowest-numbered PE's, stores and spawns that span several cohorts run
//! in ascending PE order across them, and a group that faults reports its
//! lowest faulting PE.

use msc_ir::{CostModel, MimdGraph, Op, PePool, Terminator};
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

    /// Where a `JumpF` or `RetMulti` sends PE `pe`, which popped `v`.
    fn target(&self, pe: usize, v: i64) -> Result<usize, RunError> {
        match self {
            InterpInstr::JumpF { t, f } => Ok(if v != 0 { *t } else { *f }),
            InterpInstr::RetMulti(targets) => targets
                .get(v as usize)
                .copied()
                .ok_or(RunError::BadSelector { pe, selector: v }),
            _ => unreachable!("only a branch pops its target"),
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

/// What a PE is doing. `pc` holds a `Waiting` PE's `Wait` address, and a
/// `Running` PE's next instruction until [`InterpMachine::run`] files it
/// into a cohort, which then holds it instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Waiting,
    Halted,
    /// Never started, and not yet recruited by a `spawn`.
    Idle,
}

/// The running PEs at one image address, ascending.
#[derive(Debug)]
struct Cohort {
    pc: usize,
    pes: Vec<usize>,
}

/// No cohort at this address (see [`Cohorts::slot`]).
const NONE: usize = usize::MAX;

/// The running PEs of a run as cohorts.
#[derive(Debug)]
struct Cohorts {
    /// This round's cohorts, at most one per address.
    now: Vec<Cohort>,
    /// Next round's, built while this round executes: any number per
    /// address until [`settle`](Self::settle) merges them.
    next: Vec<Cohort>,
    /// Index in `now` of the cohort at each address while `now` is being
    /// built, else `NONE` everywhere.
    slot: Vec<usize>,
}

impl Cohorts {
    fn new(image_len: usize) -> Self {
        Cohorts {
            now: Vec::new(),
            next: Vec::new(),
            slot: vec![NONE; image_len],
        }
    }

    /// Take cohort `i` of `now` out, to move, split or retire it.
    fn take(&mut self, i: usize) -> Cohort {
        let c = &mut self.now[i];
        Cohort {
            pc: c.pc,
            pes: std::mem::take(&mut c.pes),
        }
    }

    /// Rebuild `now` from the PEs' own state, by one ascending scan.
    fn file(&mut self, status: &[Status], pc: &[usize]) {
        for pe in (0..status.len()).filter(|&pe| status[pe] == Status::Running) {
            let at = pc[pe];
            if self.slot[at] == NONE {
                self.slot[at] = self.now.len();
                self.now.push(Cohort {
                    pc: at,
                    pes: Vec::new(),
                });
            }
            let slot = self.slot[at];
            self.now[slot].pes.push(pe);
        }
        for c in &self.now {
            self.slot[c.pc] = NONE;
        }
    }

    /// File `pe` at `pc` among `next[from..]`, the successors one cohort
    /// has produced so far this round. A new successor's list is sized for
    /// `most`, the most PEs that can join it, so it never grows.
    fn route(&mut self, from: usize, pc: usize, pe: usize, most: usize) {
        if let Some(c) = self.next[from..].iter_mut().find(|c| c.pc == pc) {
            c.pes.push(pe);
        } else {
            let mut pes = Vec::with_capacity(most);
            pes.push(pe);
            self.next.push(Cohort { pc, pes });
        }
    }

    /// End of round: `next` becomes `now`, cohorts at one address merged.
    /// Every list in `now` has been taken by the round.
    fn settle(&mut self) {
        self.now.clear();
        let mut next = std::mem::take(&mut self.next);
        for c in next.drain(..) {
            match self.slot[c.pc] {
                NONE => {
                    self.slot[c.pc] = self.now.len();
                    self.now.push(c);
                }
                at => {
                    // Two ascending runs: the stable sort merges them.
                    self.now[at].pes.extend_from_slice(&c.pes);
                    self.now[at].pes.sort();
                }
            }
        }
        self.next = next;
        for c in &self.now {
            self.slot[c.pc] = NONE;
        }
    }
}

/// The PEs of the cohorts `group` as `(pe, pc)`, ascending across cohorts:
/// each cohort is an ascending run, which the stable sort merges.
fn in_pe_order(now: &[Cohort], group: &[usize], order: &mut Vec<(usize, usize)>) {
    order.clear();
    for &i in group {
        order.extend(now[i].pes.iter().map(|&pe| (pe, now[i].pc)));
    }
    order.sort();
}

/// Of two faults, the one a PE-by-PE ascending walk meets first.
fn first_fault(have: Option<RunError>, new: RunError) -> RunError {
    let pe = |e: &RunError| match *e {
        RunError::StackUnderflow { pe }
        | RunError::RetStackUnderflow { pe }
        | RunError::BadSelector { pe, .. }
        | RunError::BadAddress { pe, .. } => pe,
        _ => usize::MAX,
    };
    match have {
        Some(have) if pe(&have) < pe(&new) => have,
        _ => new,
    }
}

/// Issue `op` to `pes`, ascending: an out-of-range operand (only an image
/// that is `suspect` has one) faults on the first PE before any executes.
/// Several PEs at one operand depth take the lane path, the rest go PE by
/// PE.
fn issue(array: &mut PeArray, op: &Op, pes: &[usize], suspect: bool) -> Result<(), RunError> {
    if suspect {
        if let Some(index) = array.check_addr(op) {
            return Err(RunError::BadAddress { pe: pes[0], index });
        }
    }
    // The PE-ordered store groups issue one PE at a time: 327 477 of the
    // 339 655 issues of the `perf` corpus, 7.5 % of its PE-ops. `apply` on
    // `[pe]` is the straight-line body; sent through the depth check and
    // the write-back too, they made the interpreter a tenth slower.
    if let [pe] = *pes {
        return array.apply(op, [pe]);
    }
    if let Some(d) = array.common_depth(pes) {
        if let Some(d) = array.apply_at_depth(op, pes, d) {
            array.set_depth(pes, d);
            return Ok(());
        }
    }
    array.apply(op, pes.iter().copied())
}

/// Ops whose group runs in ascending PE order across its cohorts when it
/// spans several: a `mono` store (the last writer stays) and a remote store
/// (a conflict goes to the last writer) depend on the order, and a `poly`
/// store outlives a fault, so the PEs above the lowest faulting one must
/// not have stored. Every other op touches only its own PE's stacks, which
/// a fault leaves unobservable, so its cohorts may run one after another.
fn steps_in_pe_order(op: &Op) -> bool {
    matches!(op, Op::St(_) | Op::StRemote(_))
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
        let mut cohorts = Cohorts::new(image.len());
        cohorts.file(&self.status, &self.pc);
        // Step 3's groups: the cohorts at each instruction type.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); TYPE_KEYS];
        // A group's PEs in ascending order, as `(pe, pc)`.
        let mut order = Vec::new();
        // A halted PE never rejoins the pool.
        let mut pool = PePool::new(self.n_pe, |pe| self.status[pe] == Status::Idle);
        loop {
            if self.metrics.cycles > max_cycles {
                return Err(RunError::Watchdog { max_cycles });
            }
            if cohorts.now.is_empty() {
                // Barrier release or true termination.
                let mut released = false;
                for pe in 0..self.n_pe {
                    if self.status[pe] == Status::Waiting {
                        self.status[pe] = Status::Running;
                        self.pc[pe] += 1;
                        released = true;
                    }
                }
                if !released {
                    return Ok(self.metrics);
                }
                cohorts.file(&self.status, &self.pc);
                continue;
            }

            // Round: fetch + decode on all PEs simultaneously (one issue).
            self.metrics.rounds += 1;
            self.metrics.cycles += costs.interp_fetch_decode as u64;
            self.metrics.fetch_decode_cycles += costs.interp_fetch_decode as u64;

            // Step 3: serialize over the distinct instruction types present.
            let mut present = 0u128;
            for (i, c) in cohorts.now.iter().enumerate() {
                let key = decoded[c.pc].0;
                groups[key].push(i);
                present |= 1 << key;
            }
            self.metrics.types_dispatched += present.count_ones() as u64;
            while present != 0 {
                let key = present.trailing_zeros() as usize;
                present &= present - 1;
                let group = std::mem::take(&mut groups[key]);
                // The lowest-numbered PE's instruction gives the handler cost
                // and picks the handler; every PE of the group executes it
                // simultaneously, each on its own cohort's operands.
                let first = group
                    .iter()
                    .map(|&i| &cohorts.now[i])
                    .min_by_key(|c| c.pes[0])
                    .expect("a type present has a cohort")
                    .pc;
                self.metrics.cycles += decoded[first].1;
                self.metrics.execute_cycles += decoded[first].1;
                // A group's cohorts run independently; the fault reported is
                // the lowest PE's, which ascending order would have met first.
                let mut fault = None;
                match &image[first] {
                    InterpInstr::Op(op) => {
                        if group.len() > 1 && steps_in_pe_order(op) {
                            in_pe_order(&cohorts.now, &group, &mut order);
                            for &(pe, pc) in &order {
                                let InterpInstr::Op(op) = &image[pc] else {
                                    unreachable!("grouped by instruction type")
                                };
                                issue(&mut self.pes, op, &[pe], suspect)?;
                            }
                        } else {
                            for &i in &group {
                                let c = &cohorts.now[i];
                                let InterpInstr::Op(op) = &image[c.pc] else {
                                    unreachable!("grouped by instruction type")
                                };
                                if let Err(e) = issue(&mut self.pes, op, &c.pes, suspect) {
                                    fault = Some(first_fault(fault, e));
                                }
                            }
                        }
                        for &i in &group {
                            let c = cohorts.take(i);
                            cohorts.next.push(Cohort { pc: c.pc + 1, ..c });
                        }
                    }
                    InterpInstr::Jump(_) => {
                        for &i in &group {
                            let c = cohorts.take(i);
                            let InterpInstr::Jump(t) = image[c.pc] else {
                                unreachable!("grouped by instruction type")
                            };
                            cohorts.next.push(Cohort { pc: t, ..c });
                        }
                    }
                    InterpInstr::JumpF { .. } | InterpInstr::RetMulti(_) => {
                        // The cohort splits by the value each PE pops.
                        for &i in &group {
                            let c = cohorts.take(i);
                            let branch = &image[c.pc];
                            let from = cohorts.next.len();
                            let ran = c.pes.iter().try_for_each(|&pe| {
                                let to = branch.target(pe, self.pes.pop(pe)?)?;
                                cohorts.route(from, to, pe, c.pes.len());
                                Ok(())
                            });
                            if let Err(e) = ran {
                                fault = Some(first_fault(fault, e));
                            }
                        }
                    }
                    InterpInstr::Halt => {
                        for &i in &group {
                            let c = cohorts.take(i);
                            for &pe in &c.pes {
                                self.status[pe] = Status::Halted;
                                self.pes.reset(pe);
                            }
                        }
                    }
                    InterpInstr::Wait => {
                        for &i in &group {
                            let c = cohorts.take(i);
                            for &pe in &c.pes {
                                self.status[pe] = Status::Waiting;
                                self.pc[pe] = c.pc;
                            }
                        }
                    }
                    InterpInstr::Spawn { .. } => {
                        // Idle PEs go to the spawners in ascending PE order,
                        // across cohorts; the children, ascending too, form
                        // cohorts at their entries.
                        in_pe_order(&cohorts.now, &group, &mut order);
                        let from = cohorts.next.len();
                        for &(pe, pc) in &order {
                            let InterpInstr::Spawn { child, .. } = image[pc] else {
                                unreachable!("grouped by instruction type")
                            };
                            let Some(recruit) = pool.recruit() else {
                                return Err(RunError::SpawnOverflow {
                                    block: msc_simd::BlockId(0),
                                    requested: 1,
                                    available: 0,
                                });
                            };
                            self.pes.copy_poly(pe, recruit);
                            self.pes.reset(recruit);
                            self.status[recruit] = Status::Running;
                            cohorts.route(from, child, recruit, order.len());
                        }
                        for &i in &group {
                            let c = cohorts.take(i);
                            let InterpInstr::Spawn { next, .. } = image[c.pc] else {
                                unreachable!("grouped by instruction type")
                            };
                            cohorts.next.push(Cohort { pc: next, ..c });
                        }
                    }
                }
                if let Some(e) = fault {
                    return Err(e);
                }
                groups[key] = group;
                groups[key].clear();
            }
            cohorts.settle();

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

/// The interpreter loop as it stood before cohorts: every running PE is
/// filed into a type bucket each round and stepped on its own, in ascending
/// order. The differential oracle for [`InterpMachine::run`].
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn run(
        m: &mut InterpMachine,
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
            .any(|i| matches!(i, InterpInstr::Op(op) if m.pes.check_addr(op).is_some()));
        // The running PEs, ascending; `stale` when a barrier release or a
        // spawn has made PEs run that are not filed in it yet.
        let mut running: Vec<usize> = Vec::new();
        let mut stale = true;
        // Step 3's buckets: the PEs at each instruction type, ascending.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); TYPE_KEYS];
        // Idle PEs are only ever consumed, so the lowest one moves up.
        let mut next_idle = 0;
        loop {
            if m.metrics.cycles > max_cycles {
                return Err(RunError::Watchdog { max_cycles });
            }
            if stale {
                running.clear();
                running.extend((0..m.n_pe).filter(|&pe| m.status[pe] == Status::Running));
                stale = false;
            }
            if running.is_empty() {
                // Barrier release or true termination.
                for pe in 0..m.n_pe {
                    if m.status[pe] == Status::Waiting {
                        m.status[pe] = Status::Running;
                        m.pc[pe] += 1;
                        stale = true;
                    }
                }
                if !stale {
                    return Ok(m.metrics);
                }
                continue;
            }

            // Round: fetch + decode on all PEs simultaneously (one issue).
            m.metrics.rounds += 1;
            m.metrics.cycles += costs.interp_fetch_decode as u64;
            m.metrics.fetch_decode_cycles += costs.interp_fetch_decode as u64;

            // Step 3: serialize over the distinct instruction types present.
            let mut present = 0u128;
            for &pe in &running {
                let key = decoded[m.pc[pe]].0;
                buckets[key].push(pe);
                present |= 1 << key;
            }
            m.metrics.types_dispatched += present.count_ones() as u64;
            // Did a PE stop running (halt, wait) this round?
            let mut left = false;
            while present != 0 {
                let key = present.trailing_zeros() as usize;
                present &= present - 1;
                let group = std::mem::take(&mut buckets[key]);
                // One representative instruction gives the handler cost and
                // picks the handler; all PEs in the group execute it
                // simultaneously, each on its own operands.
                let first = m.pc[group[0]];
                m.metrics.cycles += decoded[first].1;
                m.metrics.execute_cycles += decoded[first].1;
                match &image[first] {
                    InterpInstr::Op(_) => {
                        for &pe in &group {
                            let InterpInstr::Op(op) = &image[m.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            if suspect {
                                if let Some(index) = m.pes.check_addr(op) {
                                    return Err(RunError::BadAddress { pe, index });
                                }
                            }
                            m.pes.apply(op, [pe])?;
                            m.pc[pe] += 1;
                        }
                    }
                    InterpInstr::Jump(_) => {
                        for &pe in &group {
                            let InterpInstr::Jump(t) = image[m.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            m.pc[pe] = t;
                        }
                    }
                    InterpInstr::JumpF { .. } => {
                        for &pe in &group {
                            let InterpInstr::JumpF { t, f } = image[m.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            let c = m.pes.pop(pe)?;
                            m.pc[pe] = if c != 0 { t } else { f };
                        }
                    }
                    InterpInstr::Halt => {
                        for &pe in &group {
                            m.status[pe] = Status::Halted;
                            m.pes.reset(pe);
                        }
                        left = true;
                    }
                    InterpInstr::Wait => {
                        for &pe in &group {
                            m.status[pe] = Status::Waiting;
                        }
                        left = true;
                    }
                    InterpInstr::RetMulti(_) => {
                        for &pe in &group {
                            let InterpInstr::RetMulti(targets) = &image[m.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            let sel = m.pes.pop(pe)?;
                            m.pc[pe] = *targets
                                .get(sel as usize)
                                .ok_or(RunError::BadSelector { pe, selector: sel })?;
                        }
                    }
                    InterpInstr::Spawn { .. } => {
                        for &pe in &group {
                            let InterpInstr::Spawn { child, next } = image[m.pc[pe]] else {
                                unreachable!("grouped by instruction type")
                            };
                            while next_idle < m.n_pe && m.status[next_idle] != Status::Idle {
                                next_idle += 1;
                            }
                            if next_idle == m.n_pe {
                                return Err(RunError::SpawnOverflow {
                                    block: msc_simd::BlockId(0),
                                    requested: 1,
                                    available: 0,
                                });
                            }
                            m.pes.copy_poly(pe, next_idle);
                            m.pes.reset(next_idle);
                            m.status[next_idle] = Status::Running;
                            m.pc[next_idle] = child;
                            m.pc[pe] = next;
                        }
                        stale = true;
                    }
                }
                buckets[key] = group;
                buckets[key].clear();
            }
            if left && !stale {
                running.retain(|&pe| m.status[pe] == Status::Running);
            }

            // Step 4: loop back.
            m.metrics.cycles += costs.interp_loop as u64;
            m.metrics.loop_cycles += costs.interp_loop as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{Addr, BinOp, UnOp};
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
        // Parents tag themselves 1 and spawn; children (entering at 3)
        // inherit the tag and add 1.
        let ip = image(
            vec![
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::St(Addr::poly(0))),
                InterpInstr::Spawn { child: 3, next: 7 },
                InterpInstr::Op(Op::Ld(Addr::poly(0))),
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::Bin(BinOp::Add)),
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

    /// Every poly word of every PE, then the mono words.
    fn memory(m: &InterpMachine, program: &InterpProgram) -> Vec<i64> {
        let poly = (0..m.n_pe)
            .flat_map(|pe| (0..program.poly_words).map(move |w| m.poly_at(pe, Addr::poly(w))));
        let mono = (0..program.mono_words)
            .filter(|_| m.n_pe > 0)
            .map(|w| m.poly_at(0, Addr::mono(w)));
        poly.chain(mono).collect()
    }

    /// Run `program` under the cohort loop and under `reference::run`;
    /// the result, the metrics and every memory word must agree, faulting
    /// or not.
    fn same_as_reference(
        program: &InterpProgram,
        n_pe: usize,
        active: usize,
        max_cycles: u64,
    ) -> (InterpMachine, Result<InterpMetrics, RunError>) {
        let costs = CostModel::default();
        let mut got = InterpMachine::new(program, n_pe, active);
        let mut want = got.clone();
        let result = got.run(program, &costs, max_cycles);
        let expected = reference::run(&mut want, program, &costs, max_cycles);
        let case = format!("{active} of {n_pe} PEs, max {max_cycles} cycles:\n{program}");
        assert_eq!(result, expected, "result, {case}");
        assert_eq!(got.metrics, want.metrics, "metrics, {case}");
        assert_eq!(
            memory(&got, program),
            memory(&want, program),
            "memory, {case}"
        );
        (got, result)
    }

    /// `PeId; Push(3); Bin(Rem); RetMulti` into three tails, one per
    /// `pe % 3`, laid out after it in order. Tails must not jump.
    fn three_way(tails: [Vec<InterpInstr>; 3]) -> Vec<InterpInstr> {
        let mut at = 4;
        let targets = tails
            .iter()
            .map(|t| {
                at += t.len();
                at - t.len()
            })
            .collect();
        let mut image = vec![
            InterpInstr::Op(Op::PeId),
            InterpInstr::Op(Op::Push(3)),
            InterpInstr::Op(Op::Bin(BinOp::Rem)),
            InterpInstr::RetMulti(targets),
        ];
        image.extend(tails.into_iter().flatten());
        image
    }

    /// `PeId; Push(v); Bin(Add)`, then `last`, then `Halt`.
    fn store_pe_plus(v: i64, last: Op) -> Vec<InterpInstr> {
        vec![
            InterpInstr::Op(Op::PeId),
            InterpInstr::Op(Op::Push(v)),
            InterpInstr::Op(Op::Bin(BinOp::Add)),
            InterpInstr::Op(last),
            InterpInstr::Halt,
        ]
    }

    #[test]
    fn a_mono_store_from_two_pcs_keeps_the_highest_pe() {
        // Residues 0 and 1 store to mono word 0 from two pcs, residue 2 to
        // word 1 from a third: one store group, not one instruction.
        let ip = InterpProgram {
            mono_words: 2,
            ..image(
                three_way([
                    store_pe_plus(100, Op::St(Addr::mono(0))),
                    store_pe_plus(200, Op::St(Addr::mono(0))),
                    store_pe_plus(300, Op::St(Addr::mono(1))),
                ]),
                0,
            )
        };
        for n in [7, 65] {
            let (m, result) = same_as_reference(&ip, n, n, 10_000);
            result.unwrap();
            let last = (0..n).filter(|pe| pe % 3 != 2).max().unwrap();
            let last_c = (0..n).filter(|pe| pe % 3 == 2).max().unwrap();
            assert_eq!(
                m.poly_at(0, Addr::mono(0)),
                (last + 100 * (1 + last % 3)) as i64
            );
            assert_eq!(m.poly_at(0, Addr::mono(1)), (last_c + 300) as i64);
        }
    }

    #[test]
    fn a_remote_store_conflict_across_cohorts_goes_to_the_highest_pe() {
        // Each PE stores `pe + v` into PE 0's word 0 (residues 0, 1) or
        // word 1 (residue 2).
        let remote = |v: i64, word: u32| {
            vec![
                InterpInstr::Op(Op::PeId),
                InterpInstr::Op(Op::Push(v)),
                InterpInstr::Op(Op::Bin(BinOp::Add)),
                InterpInstr::Op(Op::Push(0)),
                InterpInstr::Op(Op::StRemote(Addr::poly(word))),
                InterpInstr::Halt,
            ]
        };
        let ip = image(
            three_way([remote(100, 0), remote(200, 0), remote(300, 1)]),
            2,
        );
        for n in [7, 65] {
            let (m, result) = same_as_reference(&ip, n, n, 10_000);
            result.unwrap();
            let last = (0..n).filter(|pe| pe % 3 != 2).max().unwrap();
            let last_c = (0..n).filter(|pe| pe % 3 == 2).max().unwrap();
            assert_eq!(
                m.poly_at(0, Addr::poly(0)),
                (last + 100 * (1 + last % 3)) as i64
            );
            assert_eq!(m.poly_at(0, Addr::poly(1)), (last_c + 300) as i64);
        }
    }

    #[test]
    fn two_faulting_cohorts_report_the_lowest_pe_and_no_store_above_it() {
        // Residue 1 reaches its store with an empty stack: PE 1 faults.
        // PE 0 stores before it; PEs 2 and 3, in the other cohorts, must
        // not store after it.
        let ip = image(
            three_way([
                vec![
                    InterpInstr::Op(Op::Push(7)),
                    InterpInstr::Op(Op::St(Addr::poly(1))),
                    InterpInstr::Halt,
                ],
                vec![
                    InterpInstr::Jump(8),
                    InterpInstr::Op(Op::St(Addr::poly(1))),
                    InterpInstr::Halt,
                ],
                vec![
                    InterpInstr::Op(Op::Push(9)),
                    InterpInstr::Op(Op::St(Addr::poly(1))),
                    InterpInstr::Halt,
                ],
            ]),
            2,
        );
        assert_eq!(ip.image[7], InterpInstr::Jump(8));
        for n in [7, 65] {
            let (m, result) = same_as_reference(&ip, n, n, 10_000);
            assert_eq!(result, Err(RunError::StackUnderflow { pe: 1 }));
            assert_eq!(m.poly_at(0, Addr::poly(1)), 7);
            assert_eq!(m.poly_at(2, Addr::poly(1)), 0);
            assert_eq!(m.poly_at(3, Addr::poly(1)), 0);
        }
        // A group that writes no memory runs cohort by cohort: the odd PEs'
        // add underflows from PE 3, the even PEs' from PE 4.
        let ip = image(
            vec![
                InterpInstr::Op(Op::PeId),
                InterpInstr::Op(Op::Push(3)),
                InterpInstr::Op(Op::Bin(BinOp::Lt)),
                InterpInstr::JumpF { t: 4, f: 6 },
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Jump(7),
                InterpInstr::Jump(7),
                InterpInstr::Op(Op::PeId),
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::Bin(BinOp::And)),
                InterpInstr::JumpF { t: 13, f: 11 },
                InterpInstr::Op(Op::Dup),
                InterpInstr::Halt,
                InterpInstr::Op(Op::Dup),
                InterpInstr::Halt,
            ],
            0,
        );
        for n in [7, 65] {
            let (_, result) = same_as_reference(&ip, n, n, 10_000);
            assert_eq!(result, Err(RunError::StackUnderflow { pe: 3 }));
        }
    }

    #[test]
    fn spawn_from_two_cohorts_hands_out_idle_pes_in_pe_order() {
        // Even spawners' children enter at 10 and mark 1, odd ones' at 13
        // and mark 2; every child inherits its spawner's number in word 0.
        let ip = image(
            vec![
                InterpInstr::Op(Op::PeId),
                InterpInstr::Op(Op::St(Addr::poly(0))),
                InterpInstr::Op(Op::PeId),
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::Bin(BinOp::And)),
                InterpInstr::JumpF { t: 8, f: 6 },
                InterpInstr::Spawn { child: 10, next: 9 },
                InterpInstr::Halt,
                InterpInstr::Spawn { child: 13, next: 9 },
                InterpInstr::Halt,
                InterpInstr::Op(Op::Push(1)),
                InterpInstr::Op(Op::St(Addr::poly(1))),
                InterpInstr::Halt,
                InterpInstr::Op(Op::Push(2)),
                InterpInstr::Op(Op::St(Addr::poly(1))),
                InterpInstr::Halt,
            ],
            2,
        );
        let (m, result) = same_as_reference(&ip, 9, 4, 10_000);
        result.unwrap();
        let words = |w| {
            (0..9)
                .map(|pe| m.poly_at(pe, Addr::poly(w)))
                .collect::<Vec<_>>()
        };
        assert_eq!(words(0), vec![0, 1, 2, 3, 0, 1, 2, 3, 0]);
        assert_eq!(words(1), vec![0, 0, 0, 0, 1, 2, 1, 2, 0]);
        // Five spawners, four idle PEs: the fifth finds none.
        let (_, result) = same_as_reference(&ip, 9, 5, 10_000);
        assert!(matches!(result, Err(RunError::SpawnOverflow { .. })));
    }

    #[test]
    fn a_barrier_release_regroups_the_pes() {
        // Odd PEs reach their `Wait` two rounds after the even ones reach
        // theirs; released, the two cohorts jump to one address and merge,
        // ascending: the highest PE is the last to store to mono word 0.
        let ip = InterpProgram {
            mono_words: 1,
            ..image(
                vec![
                    InterpInstr::Op(Op::PeId),
                    InterpInstr::Op(Op::Push(1)),
                    InterpInstr::Op(Op::Bin(BinOp::And)),
                    InterpInstr::JumpF { t: 4, f: 8 },
                    InterpInstr::Op(Op::PeId),
                    InterpInstr::Op(Op::Pop(1)),
                    InterpInstr::Wait,
                    InterpInstr::Jump(10),
                    InterpInstr::Wait,
                    InterpInstr::Jump(10),
                    InterpInstr::Op(Op::PeId),
                    InterpInstr::Op(Op::Dup),
                    InterpInstr::Op(Op::St(Addr::poly(0))),
                    InterpInstr::Op(Op::St(Addr::mono(0))),
                    InterpInstr::Halt,
                ],
                1,
            )
        };
        for n in [7, 65] {
            let (m, result) = same_as_reference(&ip, n, n, 10_000);
            let metrics = result.unwrap();
            // Rounds: 4 to the split, 3 to the odd `Wait`, the jumps, and 5
            // after them; one type a round but in the first after the
            // split, where the even PEs wait and the odd ones do not.
            assert_eq!(metrics.rounds, 4 + 3 + 1 + 5);
            assert_eq!(metrics.types_dispatched, metrics.rounds + 1);
            for pe in 0..n {
                assert_eq!(m.poly_at(pe, Addr::poly(0)), pe as i64);
            }
            assert_eq!(m.poly_at(0, Addr::mono(0)), n as i64 - 1);
        }
    }

    /// splitmix64, to draw a whole image from one proptest seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A word of a `limit`-word memory; one in 64 lies past it.
        fn word(&mut self, limit: u64) -> u32 {
            match self.below(64) {
                0 => limit as u32,
                _ => self.below(limit) as u32,
            }
        }

        /// A branch target: mostly a later block, so that most runs end.
        fn target(&mut self, block: usize, blocks: usize) -> usize {
            if block + 1 < blocks && self.below(4) != 0 {
                block + 1 + self.below((blocks - block - 1) as u64) as usize
            } else {
                self.below(blocks as u64) as usize
            }
        }

        /// Ops that push one value.
        fn expr(&mut self, out: &mut Vec<InterpInstr>, depth: u32) {
            const BINS: [BinOp; 8] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Rem,
                BinOp::And,
                BinOp::Xor,
                BinOp::Lt,
                BinOp::Eq,
            ];
            let op = match self.below(if depth == 0 { 5 } else { 8 }) {
                0 => Op::PeId,
                1 => Op::Push(self.below(7) as i64 - 2),
                2 => Op::Ld(Addr::poly(self.word(3))),
                3 => Op::Ld(Addr::mono(self.word(2))),
                4 => Op::NProc,
                5 => {
                    self.expr(out, depth - 1);
                    Op::LdRemote(Addr::poly(self.word(3)))
                }
                6 => {
                    self.expr(out, depth - 1);
                    Op::Un([UnOp::Neg, UnOp::Not][self.below(2) as usize])
                }
                _ => {
                    self.expr(out, depth - 1);
                    self.expr(out, depth - 1);
                    Op::Bin(BINS[self.below(BINS.len() as u64) as usize])
                }
            };
            out.push(InterpInstr::Op(op));
        }

        /// Ops that leave the stacks as they found them, or, one time in
        /// 32, an op that may find them too short.
        fn statement(&mut self, out: &mut Vec<InterpInstr>) {
            let op = match self.below(32) {
                0 => Op::Bin(BinOp::Add),
                1 => Op::PopRet,
                2..=9 => {
                    self.expr(out, 2);
                    Op::St(Addr::poly(self.word(3)))
                }
                10..=15 => {
                    self.expr(out, 2);
                    Op::St(Addr::mono(self.word(2)))
                }
                16..=21 => {
                    self.expr(out, 2);
                    self.expr(out, 1);
                    Op::StRemote(Addr::poly(self.word(3)))
                }
                22..=25 => {
                    self.expr(out, 1);
                    out.push(InterpInstr::Op(Op::PushRet));
                    out.push(InterpInstr::Op(Op::PopRet));
                    Op::Pop(1)
                }
                _ => {
                    out.push(InterpInstr::Wait);
                    return;
                }
            };
            out.push(InterpInstr::Op(op));
        }

        /// A block's last instruction, with block numbers for addresses.
        fn terminator(&mut self, out: &mut Vec<InterpInstr>, block: usize, blocks: usize) {
            let instr = match self.below(7) {
                0 | 1 => {
                    self.expr(out, 2);
                    InterpInstr::JumpF {
                        t: self.target(block, blocks),
                        f: self.target(block, blocks),
                    }
                }
                2 => InterpInstr::Jump(self.target(block, blocks)),
                3 | 4 => {
                    // Selects by PE number; one time in 16 past the targets.
                    let n = 1 + self.below(3);
                    out.push(InterpInstr::Op(Op::PeId));
                    out.push(InterpInstr::Op(Op::Push(
                        (n + (self.below(16) == 0) as u64) as i64,
                    )));
                    out.push(InterpInstr::Op(Op::Bin(BinOp::Rem)));
                    InterpInstr::RetMulti((0..n).map(|_| self.target(block, blocks)).collect())
                }
                5 => InterpInstr::Spawn {
                    child: self.target(block, blocks),
                    next: self.target(block, blocks),
                },
                _ => InterpInstr::Halt,
            };
            out.push(instr);
        }
    }

    /// A random image from `seed`: two to seven blocks of up to four
    /// statements and a terminator, laid out in order from block 0.
    fn random_image(seed: u64) -> InterpProgram {
        let mut g = Gen(seed);
        let blocks = 2 + g.below(6) as usize;
        let body: Vec<Vec<InterpInstr>> = (0..blocks)
            .map(|block| {
                let mut out = Vec::new();
                for _ in 0..g.below(5) {
                    g.statement(&mut out);
                }
                g.terminator(&mut out, block, blocks);
                out
            })
            .collect();
        let mut at = 0;
        let addr: Vec<usize> = body
            .iter()
            .map(|b| {
                at += b.len();
                at - b.len()
            })
            .collect();
        let image = body
            .into_iter()
            .flatten()
            .map(|i| match i {
                InterpInstr::JumpF { t, f } => InterpInstr::JumpF {
                    t: addr[t],
                    f: addr[f],
                },
                InterpInstr::Jump(t) => InterpInstr::Jump(addr[t]),
                InterpInstr::RetMulti(v) => {
                    InterpInstr::RetMulti(v.iter().map(|&t| addr[t]).collect())
                }
                InterpInstr::Spawn { child, next } => InterpInstr::Spawn {
                    child: addr[child],
                    next: addr[next],
                },
                other => other,
            })
            .collect();
        InterpProgram {
            image,
            entry: 0,
            poly_words: 3,
            mono_words: 2,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 1024,
            ..proptest::test_runner::ProptestConfig::default()
        })]
        #[test]
        fn cohorts_match_the_reference(
            seed in proptest::prelude::any::<u64>(),
            width in 0usize..5,
            active in proptest::prelude::any::<u64>(),
            max_cycles in 0u64..3000,
        ) {
            let n_pe = [1, 7, 64, 65, 130][width];
            let active = (active % (n_pe as u64 + 1)) as usize;
            let _ = same_as_reference(&random_image(seed), n_pe, active, max_cycles);
        }
    }
}
