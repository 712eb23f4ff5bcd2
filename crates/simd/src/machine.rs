//! The SIMD machine: a cycle-accounting simulator of a MasPar-MP-1-class
//! array — one control unit, N processing elements with private memory and
//! operand stacks, an enable mask, a `globalor` reduction network, and a
//! router for parallel subscripting.
//!
//! This is the substrate substitution documented in DESIGN.md: the paper
//! ran on real MP-1 hardware; the claims it makes are about *relative*
//! cost structure (instruction issues, PE utilization, per-PE memory),
//! which this simulator accounts for exactly.
//!
//! Execution semantics: within a meta block, instruction guards test the
//! PE's `pc` *at block entry* while control instructions write a shadow
//! `next_pc`, committed at the dispatch. (The paper's generated MPL relies
//! on `BIT` disjointness for the same effect; the shadow register makes the
//! guarantee explicit.) The dispatch computes the `globalor` aggregate of
//! all live `pc` bits, applies the §3.2.4 barrier adjustment, and hashes
//! into the jump table.

use crate::lanes::PeArray;
use crate::program::{BlockId, Dispatch, SimdInstr, SimdProgram};
use msc_ir::{Addr, Op, PePool, StateId};
use std::fmt;

/// Run-time failures. All of these indicate either a malformed program
/// (compiler bug — the integration tests assert they never fire on
/// pipeline output) or resource exhaustion (`SpawnOverflow`, `Watchdog`).
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// `spawn` wanted more idle PEs than exist (§3.2.5's stated limit).
    SpawnOverflow {
        /// Meta block where the spawn ran.
        block: BlockId,
        /// PEs requested.
        requested: usize,
        /// Idle PEs available.
        available: usize,
    },
    /// The dispatch aggregate matched no successor key.
    UndefinedTransition {
        /// Meta block that dispatched.
        block: BlockId,
        /// The aggregate that missed.
        aggregate: u64,
    },
    /// A PE's `pc` held a state with no bit assignment at a dispatch.
    UnmappedState {
        /// Meta block that dispatched.
        block: BlockId,
        /// The unmapped state.
        state: StateId,
    },
    /// Operand-stack underflow on some PE.
    StackUnderflow {
        /// The PE.
        pe: usize,
    },
    /// Return-site stack underflow on some PE.
    RetStackUnderflow {
        /// The PE.
        pe: usize,
    },
    /// `RetMulti` selector out of range.
    BadSelector {
        /// The PE.
        pe: usize,
        /// The selector value.
        selector: i64,
    },
    /// Execution exceeded the cycle budget (non-termination guard).
    Watchdog {
        /// The configured limit.
        max_cycles: u64,
    },
    /// Memory access out of the program's declared bounds.
    BadAddress {
        /// The PE.
        pe: usize,
        /// Offending word index.
        index: i64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::SpawnOverflow {
                block,
                requested,
                available,
            } => write!(
                f,
                "spawn in {block} requested {requested} PEs but only {available} are idle"
            ),
            RunError::UndefinedTransition { block, aggregate } => {
                write!(f, "no transition from {block} for aggregate {aggregate:#b}")
            }
            RunError::UnmappedState { block, state } => {
                write!(
                    f,
                    "state {state} has no aggregate bit at {block}'s dispatch"
                )
            }
            RunError::StackUnderflow { pe } => write!(f, "operand stack underflow on PE {pe}"),
            RunError::RetStackUnderflow { pe } => write!(f, "return stack underflow on PE {pe}"),
            RunError::BadSelector { pe, selector } => {
                write!(f, "return selector {selector} out of range on PE {pe}")
            }
            RunError::Watchdog { max_cycles } => {
                write!(f, "execution exceeded {max_cycles} cycles")
            }
            RunError::BadAddress { pe, index } => {
                write!(f, "PE {pe} accessed out-of-range word {index}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processing elements.
    pub n_pe: usize,
    /// How many PEs start as live processes in the program's start state;
    /// the rest sit in the idle pool for `spawn` to recruit (§3.2.5:
    /// "processing elements that are not in use would be given a 'pc'
    /// value indicating that they are not in any meta state"). Defaults to
    /// all of them (pure SPMD).
    pub active_at_start: usize,
    /// Cycle budget before [`RunError::Watchdog`].
    pub max_cycles: u64,
    /// Record a [`TraceEvent`] stream (block entries and dispatches) in
    /// [`SimdMachine::trace`].
    pub trace: bool,
    /// Local-memory ports shared by the whole array. `0` means one port
    /// per PE (fully parallel — the historical model); `p > 0` serializes
    /// each memory-class issue over `⌈enabled/p⌉` port rounds.
    pub memory_ports: usize,
    /// Extra router cycles charged on every aggregate (`globalor` +
    /// hashed / barrier) dispatch, on top of the dispatch instruction cost.
    pub globalor_latency: u32,
}

impl MachineConfig {
    /// All `n_pe` PEs live from the start (SPMD).
    pub fn spmd(n_pe: usize) -> Self {
        MachineConfig {
            n_pe,
            active_at_start: n_pe,
            max_cycles: 100_000_000,
            trace: false,
            memory_ports: 0,
            globalor_latency: 0,
        }
    }

    /// `active` live PEs, the rest idle (for spawn workloads).
    pub fn with_pool(n_pe: usize, active: usize) -> Self {
        MachineConfig {
            n_pe,
            active_at_start: active.min(n_pe),
            max_cycles: 100_000_000,
            trace: false,
            memory_ports: 0,
            globalor_latency: 0,
        }
    }

    /// Builder-style trace enable.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One recorded execution event (when [`MachineConfig::trace`] is set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The control unit entered a meta block.
    EnterBlock {
        /// Which block.
        block: BlockId,
        /// Live (non-idle) PEs at entry.
        live: usize,
        /// Cycle counter at entry.
        at_cycle: u64,
    },
    /// A dispatch chose the next block.
    Dispatch {
        /// The block dispatching.
        from: BlockId,
        /// Chosen successor (`None` = execution ended).
        to: Option<BlockId>,
        /// Always 0: the run does not record the dispatch key, for
        /// hashed dispatches neither.
        aggregate: u64,
    },
}

/// Execution metrics, split so utilization is computable the way §2.4
/// discusses it (idle PE cycles inside meta-state bodies).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Total cycles: body + guard switches + dispatches.
    pub cycles: u64,
    /// Cycles spent issuing body instructions.
    pub body_cycles: u64,
    /// Cycles spent switching PE enable masks.
    pub guard_cycles: u64,
    /// Cycles spent in `globalor` + hashed dispatch.
    pub dispatch_cycles: u64,
    /// Instructions issued by the control unit.
    pub issues: u64,
    /// Meta-state transitions taken.
    pub dispatches: u64,
    /// Σ (enabled PEs × instruction cost) over all issues — the useful
    /// work actually performed.
    pub enabled_pe_cycles: u64,
    /// Σ (live PEs × instruction cost) over all issues — the work the
    /// array *could* have performed with live processes.
    pub live_pe_cycles: u64,
}

impl Metrics {
    /// PE utilization inside meta-state bodies: useful work / (live PEs ×
    /// body cycles). This is the quantity the §2.4 example bounds at 5%
    /// for an unsplit 5-vs-100-cycle meta state.
    pub fn utilization(&self) -> f64 {
        if self.live_pe_cycles == 0 {
            return 0.0;
        }
        self.enabled_pe_cycles as f64 / self.live_pe_cycles as f64
    }
}

/// What the issue loop knows of the enabled PEs' operand depths since the
/// last guard switch or control instruction.
#[derive(Debug, Clone, Copy)]
enum Depth {
    /// Not looked at: the array's per-PE depths are current.
    Unchecked,
    /// The enabled PEs sit at different depths. Every op moves each one's
    /// depth alike, so ops go PE by PE until the guard switches or a
    /// control instruction runs.
    Mixed,
    /// Every enabled PE sits at this depth, held here rather than in the
    /// array while ops go through the lane path.
    Shared(u32),
}

impl Depth {
    /// Give a held depth back to the array, before anything that reads the
    /// per-PE depths or changes the enabled PEs.
    fn write_back(&mut self, pes: &mut PeArray, enabled: &[usize]) {
        if let Depth::Shared(d) = *self {
            pes.set_depth(enabled, d);
        }
        *self = Depth::Unchecked;
    }
}

/// The SIMD machine state.
#[derive(Debug, Clone)]
pub struct SimdMachine {
    /// Number of PEs.
    pub n_pe: usize,
    /// Every PE's `poly` memory and stacks, and the `mono` replica.
    pes: PeArray,
    /// Per-PE current MIMD state; `None` = no process, never started or
    /// halted.
    pub pc: Vec<Option<StateId>>,
    /// Execution metrics.
    pub metrics: Metrics,
    /// Visit count per meta block (profiling aid for the experiments).
    pub visits: Vec<u64>,
    /// Recorded events, when tracing is enabled.
    pub trace: Vec<TraceEvent>,
    // Incremental bookkeeping (rebuilt from `pc` at the start of every
    // `run`, then maintained per changed PE at each commit — neither the
    // dispatch nor an instruction issue may rescan all N PEs):
    /// Count of live (non-idle) PEs; equals `pc.iter().flatten().count()`.
    live: usize,
    /// PEs per MIMD state, indexed by state id (grown on demand). A state
    /// is occupied iff its count is non-zero — this is what the `globalor`
    /// aggregate and the all-at-barrier check iterate instead of `pc`.
    occupancy: Vec<u32>,
    /// The enable register's source: one PE bitmask per MIMD state,
    /// `mask_words` words each, grown with `occupancy`. A guard's enabled
    /// PEs are the OR of its members' masks.
    masks: Vec<u64>,
    /// `n_pe.div_ceil(64)`.
    mask_words: usize,
    /// Shadow `pc` buffer, equal to `pc` between blocks; control
    /// instructions write it during a body, the commit folds it back.
    shadow_pc: Vec<Option<StateId>>,
    /// PEs whose shadow pc was written this block (may hold duplicates).
    dirty: Vec<usize>,
    /// The current guard's enabled PEs, ascending; rebuilt on a guard
    /// switch, reused by every instruction that keeps the guard.
    enabled: Vec<usize>,
    /// The PEs a `Spawn` may recruit: no `pc`, and not recruited earlier
    /// in this block. A PE whose `pc` the commit clears rejoins it.
    pool: PePool,
}

impl SimdMachine {
    /// Build a machine for `program` under `config`.
    pub fn new(program: &SimdProgram, config: &MachineConfig) -> Self {
        let n = config.n_pe;
        let mut pc = vec![None; n];
        for slot in pc.iter_mut().take(config.active_at_start) {
            *slot = Some(program.start_state);
        }
        let mut machine = SimdMachine {
            n_pe: n,
            pes: PeArray::new(n, program.poly_words, program.mono_words),
            pc,
            metrics: Metrics::default(),
            visits: vec![0; program.blocks.len()],
            trace: Vec::new(),
            live: 0,
            occupancy: Vec::new(),
            masks: Vec::new(),
            mask_words: n.div_ceil(64),
            shadow_pc: Vec::new(),
            dirty: Vec::new(),
            enabled: Vec::new(),
            pool: PePool::default(),
        };
        machine.rebuild_counters();
        machine
    }

    /// Rebuild the incremental bookkeeping from `pc`. `pc` is a public
    /// field, so `run` cannot assume it is unchanged since `new`.
    fn rebuild_counters(&mut self) {
        self.live = 0;
        self.occupancy.clear();
        self.masks.clear();
        for pe in 0..self.pc.len() {
            if let Some(s) = self.pc[pe] {
                self.enter(s, pe);
            }
        }
        self.shadow_pc.clone_from(&self.pc);
        self.dirty.clear();
        self.pool = PePool::new(self.n_pe, |pe| self.pc[pe].is_none());
    }

    /// PE `pe` becomes a live process in state `s`.
    fn enter(&mut self, s: StateId, pe: usize) {
        if s.idx() >= self.occupancy.len() {
            self.occupancy.resize(s.idx() + 1, 0);
            self.masks.resize((s.idx() + 1) * self.mask_words, 0);
        }
        self.occupancy[s.idx()] += 1;
        self.masks[s.idx() * self.mask_words + pe / 64] |= 1 << (pe % 64);
        self.live += 1;
    }

    /// PE `pe` leaves state `s`.
    fn leave(&mut self, s: StateId, pe: usize) {
        self.occupancy[s.idx()] -= 1;
        self.masks[s.idx() * self.mask_words + pe / 64] &= !(1 << (pe % 64));
        self.live -= 1;
    }

    /// Load the enable register: the PEs whose `pc` is in `guard`,
    /// ascending — the order that makes the highest-numbered enabled PE the
    /// last writer and the lowest-numbered the first to fault.
    fn enable(&self, guard: &[StateId], enabled: &mut Vec<usize>) {
        enabled.clear();
        for word in 0..self.mask_words {
            let mut bits = guard
                .iter()
                .filter_map(|s| self.masks.get(s.idx() * self.mask_words + word))
                .fold(0, |acc, m| acc | m);
            while bits != 0 {
                enabled.push(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Read PE `pe`'s poly word at `addr` (testing/inspection aid).
    pub fn poly_at(&self, pe: usize, addr: Addr) -> i64 {
        self.pes.poly_at(pe, addr)
    }

    /// Write PE `pe`'s poly word at `addr` (seeding inputs before `run`).
    pub fn set_poly(&mut self, pe: usize, addr: Addr, value: i64) {
        self.pes.set_poly(pe, addr, value);
    }

    /// Number of currently idle PEs.
    pub fn idle_count(&self) -> usize {
        self.pc.iter().filter(|p| p.is_none()).count()
    }

    /// Run `program` to completion (all PEs halted). Returns the metrics
    /// (also retained in `self.metrics`).
    pub fn run(
        &mut self,
        program: &SimdProgram,
        config: &MachineConfig,
    ) -> Result<Metrics, RunError> {
        let costs = &program.costs;
        let mut cur = program.start;
        self.rebuild_counters();
        // All PEs already idle? Nothing to run.
        if self.live == 0 {
            return Ok(self.metrics);
        }
        loop {
            if self.metrics.cycles > config.max_cycles {
                return Err(RunError::Watchdog {
                    max_cycles: config.max_cycles,
                });
            }
            let block = program.block(cur);
            self.visits[cur.idx()] += 1;

            // Maintained incrementally at each commit; constant during the
            // body since control writes land in the shadow buffer.
            let live = self.live;
            // Per-meta-state live-PE histogram: the sample index carries
            // the block id, so a JSONL trace can be sliced per block while
            // the registry aggregates the overall distribution.
            msc_obs::sample("simd.block_live", cur.idx() as u64, live as u64);
            if config.trace {
                self.trace.push(TraceEvent::EnterBlock {
                    block: cur,
                    live,
                    at_cycle: self.metrics.cycles,
                });
            }
            // Guards read `self.pc` (block-entry values) through the state
            // masks; control writes go to the shadow buffer. The buffers
            // are taken out of `self` so `exec` can hold them alongside
            // `&mut self`.
            let mut next_pc = std::mem::take(&mut self.shadow_pc);
            let mut dirty = std::mem::take(&mut self.dirty);
            let mut enabled = std::mem::take(&mut self.enabled);
            let mut last_guard: Option<&[StateId]> = None;
            let mut depth = Depth::Unchecked;

            for gi in &block.body {
                // `pc` is constant for the whole body, so the enabled PEs
                // change only when the guard does — the same event the
                // machine charges a guard switch for.
                let switched = last_guard != Some(gi.guard.as_slice());
                if switched {
                    depth.write_back(&mut self.pes, &enabled);
                    self.enable(&gi.guard, &mut enabled);
                    last_guard = Some(gi.guard.as_slice());
                }
                let mut cost = gi.instr.cost(costs) as u64;
                // A shared memory-port pool serializes the enabled PEs'
                // accesses over ⌈enabled/ports⌉ rounds (0 ports = one per
                // PE, the historical fully-parallel model).
                if config.memory_ports > 0 && gi.instr.is_memory() {
                    cost *= enabled.len().div_ceil(config.memory_ports).max(1) as u64;
                }
                // The control unit broadcasts every instruction whether or
                // not any PE is enabled — this is exactly the inefficiency
                // wide (compressed) meta states pay (§2.5).
                self.metrics.cycles += cost;
                self.metrics.body_cycles += cost;
                self.metrics.issues += 1;
                if switched {
                    self.metrics.cycles += costs.guard_switch as u64;
                    self.metrics.guard_cycles += costs.guard_switch as u64;
                }
                self.metrics.enabled_pe_cycles += enabled.len() as u64 * cost;
                self.metrics.live_pe_cycles += live as u64 * cost;
                match &gi.instr {
                    SimdInstr::Op(op) => self.issue(op, &enabled, &mut depth)?,
                    control => {
                        depth.write_back(&mut self.pes, &enabled);
                        self.exec(control, &enabled, &mut next_pc, &mut dirty, cur)?;
                    }
                }
            }
            depth.write_back(&mut self.pes, &enabled);

            // Commit the shadow pcs, updating the live count, the state
            // occupancy and the state masks only for PEs whose pc actually
            // changed.
            for &pe in &dirty {
                let (old, new) = (self.pc[pe], next_pc[pe]);
                if old == new {
                    continue; // duplicate dirty entry or no-op write
                }
                if let Some(s) = old {
                    self.leave(s, pe);
                }
                match new {
                    Some(s) => self.enter(s, pe),
                    // A halted PE goes back to the pool. The reference and
                    // the interpreter never release one: this call is the
                    // open spawn-after-halt defect, ROADMAP item 2(a).
                    None => self.pool.release(pe),
                }
                self.pc[pe] = new;
            }
            dirty.clear();
            // `pc == next_pc` again (every divergence was just committed),
            // so the buffer is ready for the next block.
            self.shadow_pc = next_pc;
            self.dirty = dirty;
            self.enabled = enabled;

            // Dispatch (§3.2): a single exit arc is a plain goto
            // (§3.2.2, one cheap cycle); multiway exits pay the
            // globalor + hashed-branch price (§3.2.3).
            let dcost = match &block.dispatch {
                Dispatch::End | Dispatch::Direct(_) => costs.stack as u64,
                // Aggregate dispatches additionally pay the profile's
                // router latency: globalor collection is a physical
                // reduction network, not a register read.
                Dispatch::DirectWithBarrier { .. } | Dispatch::Hashed { .. } => {
                    costs.dispatch as u64 + config.globalor_latency as u64
                }
            };
            self.metrics.cycles += dcost;
            self.metrics.dispatch_cycles += dcost;
            self.metrics.dispatches += 1;
            if msc_obs::enabled() {
                let occupied = self.occupancy.iter().filter(|&&c| c > 0).count();
                msc_obs::sample("simd.dispatch_occupancy", cur.idx() as u64, occupied as u64);
            }

            if self.live == 0 {
                if config.trace {
                    self.trace.push(TraceEvent::Dispatch {
                        from: cur,
                        to: None,
                        aggregate: 0,
                    });
                }
                return Ok(self.metrics); // every process ended
            }
            let prev = cur;
            cur = match &block.dispatch {
                Dispatch::End => {
                    // Terminal block, but some PE still live: that PE was
                    // spawned/looping into nowhere — treat as undefined.
                    return Err(RunError::UndefinedTransition {
                        block: cur,
                        aggregate: 0,
                    });
                }
                Dispatch::Direct(t) => *t,
                Dispatch::DirectWithBarrier { cont, barrier } => {
                    let members = &program.block(*barrier).members;
                    let all_at_barrier = self
                        .occupied_states()
                        .all(|s| members.binary_search(&s).is_ok());
                    if all_at_barrier {
                        *barrier
                    } else {
                        *cont
                    }
                }
                Dispatch::Hashed {
                    bit_of,
                    barrier_mask,
                    hash,
                    targets,
                } => {
                    // globalor of live pc bits — one lookup per occupied
                    // state, not per PE.
                    let mut aggregate = 0u64;
                    for s in self.occupied_states() {
                        let bit = bit_of
                            .iter()
                            .find(|(st, _)| *st == s)
                            .map(|(_, b)| *b)
                            .ok_or(RunError::UnmappedState {
                                block: cur,
                                state: s,
                            })?;
                        aggregate |= 1 << bit;
                    }
                    // §3.2.4: unless everyone is at the barrier, PEs that
                    // reached it are excluded from the transition key.
                    let key = if aggregate & !barrier_mask == 0 {
                        aggregate
                    } else {
                        aggregate & !barrier_mask
                    };
                    let idx = hash.lookup(key).ok_or(RunError::UndefinedTransition {
                        block: cur,
                        aggregate: key,
                    })?;
                    targets[idx as usize]
                }
            };
            if config.trace {
                self.trace.push(TraceEvent::Dispatch {
                    from: prev,
                    to: Some(cur),
                    aggregate: 0,
                });
            }
        }
    }

    /// States with at least one PE in them, ascending.
    fn occupied_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, _)| StateId(s as u32))
    }

    /// Issue `op` to the enabled PEs: at one shared depth through the lane
    /// path, which keeps the depth in `depth` instead of the array, else PE
    /// by PE.
    // Out of line on measurement: folded into `run`, the PE loops of
    // `PeArray::apply` compete with the issue loop's state for registers
    // and the benchmark's machine runs take about a tenth longer.
    #[inline(never)]
    fn issue(&mut self, op: &Op, enabled: &[usize], depth: &mut Depth) -> Result<(), RunError> {
        // A disabled instruction touches no memory and faults nowhere.
        let Some(&first) = enabled.first() else {
            return Ok(());
        };
        // One range check per issue, before either path.
        if let Some(index) = self.pes.check_addr(op) {
            depth.write_back(&mut self.pes, enabled);
            return Err(RunError::BadAddress { pe: first, index });
        }
        if let Depth::Unchecked = depth {
            *depth = self
                .pes
                .common_depth(enabled)
                .map_or(Depth::Mixed, Depth::Shared);
        }
        if let Depth::Shared(d) = *depth {
            if let Some(d) = self.pes.apply_at_depth(op, enabled, d) {
                *depth = Depth::Shared(d);
                return Ok(());
            }
            // A return-stack op, or a fault for `apply` to report.
            depth.write_back(&mut self.pes, enabled);
        }
        msc_obs::count("simd.depth_fallback", 1);
        self.pes.apply(op, enabled.iter().copied())
    }

    /// Execute a control instruction on the enabled PEs, whose depths are
    /// in the array. Out of line, as `issue` is.
    #[inline(never)]
    fn exec(
        &mut self,
        instr: &SimdInstr,
        enabled: &[usize],
        next_pc: &mut [Option<StateId>],
        dirty: &mut Vec<usize>,
        block: BlockId,
    ) -> Result<(), RunError> {
        match instr {
            SimdInstr::Op(_) => unreachable!("`run` sends ops to `issue`"),
            SimdInstr::JumpF { t, f } => {
                for &pe in enabled {
                    let c = self.pes.pop(pe)?;
                    next_pc[pe] = Some(if c != 0 { *t } else { *f });
                    dirty.push(pe);
                }
            }
            SimdInstr::SetPc(s) => {
                for &pe in enabled {
                    next_pc[pe] = Some(*s);
                    dirty.push(pe);
                }
            }
            SimdInstr::Halt => {
                for &pe in enabled {
                    next_pc[pe] = None;
                    dirty.push(pe);
                    self.pes.reset(pe);
                }
            }
            SimdInstr::RetMulti(targets) => {
                for &pe in enabled {
                    let sel = self.pes.pop(pe)?;
                    let t = targets
                        .get(sel as usize)
                        .ok_or(RunError::BadSelector { pe, selector: sel })?;
                    next_pc[pe] = Some(*t);
                    dirty.push(pe);
                }
            }
            SimdInstr::Spawn { child, next } => {
                // One idle PE per spawner, or none at all.
                let available = self.pool.idle();
                if available < enabled.len() {
                    return Err(RunError::SpawnOverflow {
                        block,
                        requested: enabled.len(),
                        available,
                    });
                }
                // The lowest idle PE goes to the lowest spawner.
                for &pe in enabled {
                    let recruit = self.pool.recruit().expect("checked above");
                    // The child starts with a copy of the parent's poly
                    // memory (parameters were stored there by the parent).
                    self.pes.copy_poly(pe, recruit);
                    self.pes.reset(recruit);
                    next_pc[recruit] = Some(*child);
                    next_pc[pe] = Some(*next);
                    dirty.push(recruit);
                    dirty.push(pe);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{GuardedInstr, MetaBlock};
    use msc_ir::{BinOp, CostModel, Op};

    /// A one-block program: every PE computes pe_id()*2 + 1 into poly[0],
    /// then halts.
    fn trivial_program() -> SimdProgram {
        let s0 = StateId(0);
        let body = vec![
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Op(Op::PeId),
            },
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Op(Op::Push(2)),
            },
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Op(Op::Bin(BinOp::Mul)),
            },
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Op(Op::Push(1)),
            },
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Op(Op::Bin(BinOp::Add)),
            },
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Op(Op::St(Addr::poly(0))),
            },
            GuardedInstr {
                guard: vec![s0].into(),
                instr: SimdInstr::Halt,
            },
        ];
        SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body,
                dispatch: Dispatch::End,
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 1,
            mono_words: 0,
            costs: CostModel::default(),
        }
    }

    #[test]
    fn trivial_program_computes_per_pe() {
        let p = trivial_program();
        p.validate().unwrap();
        let cfg = MachineConfig::spmd(8);
        let mut m = SimdMachine::new(&p, &cfg);
        let metrics = m.run(&p, &cfg).unwrap();
        for pe in 0..8 {
            assert_eq!(m.poly_at(pe, Addr::poly(0)), pe as i64 * 2 + 1);
        }
        assert_eq!(metrics.dispatches, 1);
        assert!(metrics.cycles > 0);
        assert!(
            (metrics.utilization() - 1.0).abs() < 1e-12,
            "all PEs always enabled"
        );
    }

    /// Block ms_0: each PE pushes (pe_id < 2), JumpF(f=s2, t=s1), then a
    /// hashed dispatch into ms_1_2 where {s1,s2} execute divergent guarded
    /// bodies (the hand-built *base*-conversion form).
    fn branching_program() -> SimdProgram {
        let (s0, s1, s2) = (StateId(0), StateId(1), StateId(2));
        let b0 = MetaBlock {
            members: vec![s0],
            name: "ms_0".into(),
            body: vec![
                GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::Op(Op::PeId),
                },
                GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::Op(Op::Push(2)),
                },
                GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::Op(Op::Bin(BinOp::Lt)),
                },
                GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::JumpF { t: s1, f: s2 },
                },
            ],
            dispatch: Dispatch::Hashed {
                bit_of: vec![(s1, 1), (s2, 2)],
                barrier_mask: 0,
                hash: msc_hash::find_hash(&[0b010, 0b100, 0b110]).unwrap(),
                targets: vec![BlockId(1), BlockId(1), BlockId(1)],
            },
        };
        let b1 = MetaBlock {
            members: vec![s1, s2],
            name: "ms_1_2".into(),
            body: vec![
                GuardedInstr {
                    guard: vec![s1].into(),
                    instr: SimdInstr::Op(Op::Push(111)),
                },
                GuardedInstr {
                    guard: vec![s2].into(),
                    instr: SimdInstr::Op(Op::Push(222)),
                },
                GuardedInstr {
                    guard: vec![s1, s2].into(),
                    instr: SimdInstr::Op(Op::St(Addr::poly(0))),
                },
                GuardedInstr {
                    guard: vec![s1, s2].into(),
                    instr: SimdInstr::Halt,
                },
            ],
            dispatch: Dispatch::End,
        };
        SimdProgram {
            blocks: vec![b0, b1],
            start: BlockId(0),
            start_state: s0,
            poly_words: 1,
            mono_words: 0,
            costs: CostModel::default(),
        }
    }

    #[test]
    fn two_block_branching_program() {
        let p = branching_program();
        p.validate().unwrap();
        let cfg = MachineConfig::spmd(4);
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        assert_eq!(m.poly_at(0, Addr::poly(0)), 111);
        assert_eq!(m.poly_at(1, Addr::poly(0)), 111);
        assert_eq!(m.poly_at(2, Addr::poly(0)), 222);
        assert_eq!(m.poly_at(3, Addr::poly(0)), 222);
        // Utilization < 1: the divergent pushes idle half the PEs each.
        assert!(m.metrics.utilization() < 1.0);
    }

    #[test]
    fn idle_pool_and_machine_setup() {
        let p = trivial_program();
        let cfg = MachineConfig::with_pool(8, 3);
        let m = SimdMachine::new(&p, &cfg);
        assert_eq!(m.idle_count(), 5);
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let s0 = StateId(0);
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body: vec![GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::SetPc(s0),
                }],
                dispatch: Dispatch::Direct(BlockId(0)),
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        let mut cfg = MachineConfig::spmd(2);
        cfg.max_cycles = 10_000;
        let mut m = SimdMachine::new(&p, &cfg);
        assert_eq!(
            m.run(&p, &cfg),
            Err(RunError::Watchdog { max_cycles: 10_000 })
        );
    }

    #[test]
    fn stack_underflow_detected() {
        let s0 = StateId(0);
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body: vec![GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::Op(Op::Pop(1)),
                }],
                dispatch: Dispatch::End,
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        let cfg = MachineConfig::spmd(1);
        let mut m = SimdMachine::new(&p, &cfg);
        assert_eq!(m.run(&p, &cfg), Err(RunError::StackUnderflow { pe: 0 }));
    }

    #[test]
    fn remote_ops_route_between_pes() {
        // Every PE stores pe_id into poly[0], then reads neighbour
        // (pe_id+1) mod N into poly[1].
        let s0 = StateId(0);
        let g = |instr| GuardedInstr {
            guard: vec![s0].into(),
            instr,
        };
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body: vec![
                    g(SimdInstr::Op(Op::PeId)),
                    g(SimdInstr::Op(Op::St(Addr::poly(0)))),
                    g(SimdInstr::Op(Op::PeId)),
                    g(SimdInstr::Op(Op::Push(1))),
                    g(SimdInstr::Op(Op::Bin(BinOp::Add))),
                    g(SimdInstr::Op(Op::LdRemote(Addr::poly(0)))),
                    g(SimdInstr::Op(Op::St(Addr::poly(1)))),
                    g(SimdInstr::Halt),
                ],
                dispatch: Dispatch::End,
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 2,
            mono_words: 0,
            costs: CostModel::default(),
        };
        let cfg = MachineConfig::spmd(4);
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        for pe in 0..4 {
            assert_eq!(m.poly_at(pe, Addr::poly(1)), ((pe + 1) % 4) as i64);
        }
    }

    #[test]
    fn spawn_recruits_idle_pes() {
        let (s0, s1) = (StateId(0), StateId(1));
        let p = SimdProgram {
            blocks: vec![
                MetaBlock {
                    members: vec![s0],
                    name: "ms_0".into(),
                    body: vec![
                        GuardedInstr {
                            guard: vec![s0].into(),
                            instr: SimdInstr::Op(Op::Push(42)),
                        },
                        GuardedInstr {
                            guard: vec![s0].into(),
                            instr: SimdInstr::Op(Op::St(Addr::poly(0))),
                        },
                        GuardedInstr {
                            guard: vec![s0].into(),
                            instr: SimdInstr::Spawn {
                                child: s1,
                                next: s1,
                            },
                        },
                    ],
                    dispatch: Dispatch::Direct(BlockId(1)),
                },
                MetaBlock {
                    members: vec![s1],
                    name: "ms_1".into(),
                    body: vec![
                        GuardedInstr {
                            guard: vec![s1].into(),
                            instr: SimdInstr::Op(Op::Push(7)),
                        },
                        GuardedInstr {
                            guard: vec![s1].into(),
                            instr: SimdInstr::Op(Op::St(Addr::poly(1))),
                        },
                        GuardedInstr {
                            guard: vec![s1].into(),
                            instr: SimdInstr::Halt,
                        },
                    ],
                    dispatch: Dispatch::End,
                },
            ],
            start: BlockId(0),
            start_state: s0,
            poly_words: 2,
            mono_words: 0,
            costs: CostModel::default(),
        };
        p.validate().unwrap();
        let cfg = MachineConfig::with_pool(4, 2);
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        // The two recruited PEs inherited poly[0]=42 and ran the child.
        let spawned: Vec<usize> = (2..4)
            .filter(|&pe| m.poly_at(pe, Addr::poly(1)) == 7)
            .collect();
        assert_eq!(spawned.len(), 2);
        for &pe in &spawned {
            assert_eq!(
                m.poly_at(pe, Addr::poly(0)),
                42,
                "child copies parent poly memory"
            );
        }
    }

    #[test]
    fn spawn_overflow_errors() {
        let (s0, s1) = (StateId(0), StateId(1));
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body: vec![GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::Spawn {
                        child: s1,
                        next: s1,
                    },
                }],
                dispatch: Dispatch::End,
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        let cfg = MachineConfig::spmd(2); // no idle PEs
        let mut m = SimdMachine::new(&p, &cfg);
        assert!(matches!(
            m.run(&p, &cfg),
            Err(RunError::SpawnOverflow { .. })
        ));
    }

    #[test]
    fn incremental_counters_match_rescan() {
        // After a run with divergence and halts, the incrementally
        // maintained live count, spawn pool and occupancy table must agree
        // with a from-scratch rescan of `pc`.
        let p = trivial_program();
        let cfg = MachineConfig::spmd(8);
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        assert_eq!(m.live, m.pc.iter().filter(|x| x.is_some()).count());
        assert_eq!(m.pool.idle(), m.idle_count());
        let mut occ = vec![0u32; m.occupancy.len()];
        for s in m.pc.iter().flatten() {
            occ[s.idx()] += 1;
        }
        assert_eq!(m.occupancy, occ);
        assert!(m.masks.iter().all(|&w| w == 0), "nobody is left enabled");
        // And the bookkeeping survives an external pc reset + rerun.
        for slot in m.pc.iter_mut() {
            *slot = Some(StateId(0));
        }
        m.run(&p, &cfg).unwrap();
        assert_eq!(m.live, 0);
        assert_eq!(m.pool.idle(), 8);
        assert!(m.occupancy.iter().all(|&c| c == 0));
    }

    #[test]
    fn state_masks_follow_pc_through_a_divergent_commit() {
        // Stop after the first block of the branching program: PEs 0–1 are
        // in s1, the rest in s2, and each state's mask says exactly that.
        let p = branching_program();
        let mut cfg = MachineConfig::spmd(70);
        cfg.max_cycles = 0;
        let mut m = SimdMachine::new(&p, &cfg);
        assert_eq!(m.run(&p, &cfg), Err(RunError::Watchdog { max_cycles: 0 }));
        assert_eq!(m.mask_words, 2);
        assert_eq!(m.masks[..2], [0, 0], "s0 was left by everyone");
        assert_eq!(m.masks[2..4], [0b11, 0]);
        assert_eq!(m.masks[4..6], [!0b11, (1 << 6) - 1]);
        let mut enabled = Vec::new();
        m.enable(&[StateId(1), StateId(2), StateId(9)], &mut enabled);
        assert_eq!(enabled, (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn mono_store_broadcasts() {
        let s0 = StateId(0);
        let g = |instr| GuardedInstr {
            guard: vec![s0].into(),
            instr,
        };
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body: vec![
                    g(SimdInstr::Op(Op::PeId)),
                    g(SimdInstr::Op(Op::St(Addr::mono(0)))),
                    g(SimdInstr::Op(Op::Ld(Addr::mono(0)))),
                    g(SimdInstr::Op(Op::St(Addr::poly(0)))),
                    g(SimdInstr::Halt),
                ],
                dispatch: Dispatch::End,
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 1,
            mono_words: 1,
            costs: CostModel::default(),
        };
        let cfg = MachineConfig::spmd(4);
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        // Last writer (PE 3) wins; all PEs then read the same replica.
        for pe in 0..4 {
            assert_eq!(m.poly_at(pe, Addr::poly(0)), 3);
        }
    }

    #[test]
    fn memory_ports_serialize_local_memory_access() {
        let p = trivial_program();
        let base_cfg = MachineConfig::spmd(8);
        let base = SimdMachine::new(&p, &base_cfg).run(&p, &base_cfg).unwrap();
        // 8 enabled PEs through 2 ports: the single St(poly) takes 4 port
        // rounds instead of 1, i.e. 3 extra mem_local charges.
        let mut cfg = MachineConfig::spmd(8);
        cfg.memory_ports = 2;
        let ported = SimdMachine::new(&p, &cfg).run(&p, &cfg).unwrap();
        let extra = 3 * CostModel::default().mem_local as u64;
        assert_eq!(ported.cycles, base.cycles + extra);
        assert_eq!(ported.body_cycles, base.body_cycles + extra);
        // One port per PE ≡ the historical fully-parallel model.
        cfg.memory_ports = 8;
        let wide = SimdMachine::new(&p, &cfg).run(&p, &cfg).unwrap();
        assert_eq!(wide.cycles, base.cycles);
    }

    #[test]
    fn globalor_latency_prices_aggregate_dispatches_only() {
        let p = branching_program();
        let base_cfg = MachineConfig::spmd(4);
        let base = SimdMachine::new(&p, &base_cfg).run(&p, &base_cfg).unwrap();
        let mut cfg = MachineConfig::spmd(4);
        cfg.globalor_latency = 24;
        let slow = SimdMachine::new(&p, &cfg).run(&p, &cfg).unwrap();
        // Exactly one hashed dispatch pays the router; the terminal End
        // dispatch is direct-priced and immune.
        assert_eq!(slow.cycles, base.cycles + 24);
        assert_eq!(slow.dispatch_cycles, base.dispatch_cycles + 24);

        let t = trivial_program();
        let direct = SimdMachine::new(&t, &cfg).run(&t, &cfg).unwrap();
        let direct_base = SimdMachine::new(&t, &base_cfg).run(&t, &base_cfg).unwrap();
        assert_eq!(
            direct.cycles, direct_base.cycles,
            "End dispatch is direct-priced"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::program::{Dispatch, GuardedInstr, MetaBlock, SimdProgram};
    use msc_ir::{CostModel, Op};

    #[test]
    fn trace_records_blocks_and_dispatches() {
        let s0 = StateId(0);
        let s1 = StateId(1);
        let p = SimdProgram {
            blocks: vec![
                MetaBlock {
                    members: vec![s0],
                    name: "ms_0".into(),
                    body: vec![
                        GuardedInstr {
                            guard: vec![s0].into(),
                            instr: SimdInstr::Op(Op::Push(1)),
                        },
                        GuardedInstr {
                            guard: vec![s0].into(),
                            instr: SimdInstr::Op(Op::Pop(1)),
                        },
                        GuardedInstr {
                            guard: vec![s0].into(),
                            instr: SimdInstr::SetPc(s1),
                        },
                    ],
                    dispatch: Dispatch::Direct(BlockId(1)),
                },
                MetaBlock {
                    members: vec![s1],
                    name: "ms_1".into(),
                    body: vec![GuardedInstr {
                        guard: vec![s1].into(),
                        instr: SimdInstr::Halt,
                    }],
                    dispatch: Dispatch::End,
                },
            ],
            start: BlockId(0),
            start_state: s0,
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        let cfg = MachineConfig::spmd(2).with_trace();
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        assert_eq!(
            m.trace,
            vec![
                TraceEvent::EnterBlock {
                    block: BlockId(0),
                    live: 2,
                    at_cycle: 0
                },
                TraceEvent::Dispatch {
                    from: BlockId(0),
                    to: Some(BlockId(1)),
                    aggregate: 0
                },
                TraceEvent::EnterBlock {
                    block: BlockId(1),
                    live: 2,
                    at_cycle: m
                        .trace
                        .iter()
                        .find_map(|e| match e {
                            TraceEvent::EnterBlock {
                                block: BlockId(1),
                                at_cycle,
                                ..
                            } => Some(*at_cycle),
                            _ => None,
                        })
                        .unwrap()
                },
                TraceEvent::Dispatch {
                    from: BlockId(1),
                    to: None,
                    aggregate: 0
                },
            ]
        );
    }

    #[test]
    fn trace_off_records_nothing() {
        let s0 = StateId(0);
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![s0],
                name: "ms_0".into(),
                body: vec![GuardedInstr {
                    guard: vec![s0].into(),
                    instr: SimdInstr::Halt,
                }],
                dispatch: Dispatch::End,
            }],
            start: BlockId(0),
            start_state: s0,
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        let cfg = MachineConfig::spmd(1);
        let mut m = SimdMachine::new(&p, &cfg);
        m.run(&p, &cfg).unwrap();
        assert!(m.trace.is_empty());
    }
}
