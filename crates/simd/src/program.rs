//! The executable SIMD program: a meta-state automaton encoded per §3 of
//! the paper.
//!
//! Each meta state becomes a [`MetaBlock`]: a sequence of *guarded*
//! instructions (the CSI-factored bodies of its member MIMD states, §3.1)
//! followed by a [`Dispatch`] — the multiway branch of §3.2 keyed by the
//! `globalor` aggregate of every PE's `pc` and encoded with a customized
//! hash function (\[Die92a\]).

use crate::lanes::bad_address;
use msc_hash::PerfectHash;
use msc_ir::{CostModel, Op, StateId};
use std::fmt;
use std::ops::Deref;

/// Index of a [`MetaBlock`] within a [`SimdProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mb{}", self.0)
    }
}

/// One SIMD instruction inside a meta block. `Op`s come from the member
/// MIMD states' code; the control instructions implement the members'
/// terminators by updating each enabled PE's (shadow) `pc`.
#[derive(Debug, Clone, PartialEq)]
pub enum SimdInstr {
    /// A straight-line stack op.
    Op(Op),
    /// The paper's `JumpF(f, t)`: pop the condition; `pc := t` if nonzero,
    /// else `pc := f`.
    JumpF {
        /// TRUE successor.
        t: StateId,
        /// FALSE successor.
        f: StateId,
    },
    /// Unconditional `pc := s` (member with a single exit arc).
    SetPc(StateId),
    /// Process end (paper's `Ret`/implicit halt): `pc := none`, the PE
    /// rejoins the free pool (§3.2.5).
    Halt,
    /// Inline-expanded function return (§2.2): pop the return-site selector
    /// from the per-PE return stack (already moved to the operand stack by
    /// `PopRet`) and set `pc := targets[selector]`.
    RetMulti(Vec<StateId>),
    /// Restricted dynamic process creation (§3.2.5): each enabled PE keeps
    /// `pc := next`; one currently-idle PE per spawner is recruited, given
    /// a copy of the spawner's `poly` memory, and set to `pc := child`.
    Spawn {
        /// Entry state of the created process.
        child: StateId,
        /// Continuation of the spawning process.
        next: StateId,
    },
}

impl SimdInstr {
    /// Cycle cost of issuing this instruction once.
    pub fn cost(&self, costs: &CostModel) -> u32 {
        match self {
            SimdInstr::Op(op) => costs.op_cost(op),
            SimdInstr::JumpF { .. } => costs.int_simple,
            SimdInstr::SetPc(_) | SimdInstr::Halt => costs.stack,
            SimdInstr::RetMulti(_) => costs.control,
            SimdInstr::Spawn { .. } => costs.dispatch,
        }
    }

    /// Does this instruction go through the PEs' local-memory ports?
    /// (Subject to [`MachineConfig::memory_ports`](crate::MachineConfig::memory_ports)
    /// contention.)
    pub fn is_memory(&self) -> bool {
        matches!(self, SimdInstr::Op(op) if op.class() == msc_ir::OpClass::Memory)
    }
}

/// Widest guard stored in place; a wider one is a boxed slice. Five
/// `StateId`s and a length take the 24 bytes of a `Vec` header.
const INLINE_GUARD: usize = 5;

/// The member states an instruction enables: up to five in place (no heap
/// allocation), a boxed slice past that. Which variant holds them is a
/// function of the length alone, and in-place slots past `n` stay
/// `StateId(0)`, so the derived equality is slice equality. Everything
/// outside this type sees a `[StateId]`: its `Debug` is the slice's.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Guard(Members);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Members {
    Inline { n: u8, buf: [StateId; INLINE_GUARD] },
    Heap(Box<[StateId]>),
}

impl Guard {
    /// The members as a slice.
    pub fn as_slice(&self) -> &[StateId] {
        self
    }
}

impl Deref for Guard {
    type Target = [StateId];

    fn deref(&self) -> &[StateId] {
        match &self.0 {
            Members::Inline { n, buf } => &buf[..*n as usize],
            Members::Heap(states) => states,
        }
    }
}

impl FromIterator<StateId> for Guard {
    fn from_iter<I: IntoIterator<Item = StateId>>(states: I) -> Guard {
        let mut states = states.into_iter();
        let mut buf = [StateId(0); INLINE_GUARD];
        for (n, slot) in buf.iter_mut().enumerate() {
            match states.next() {
                Some(s) => *slot = s,
                None => return Guard(Members::Inline { n: n as u8, buf }),
            }
        }
        let n = INLINE_GUARD as u8;
        match states.next() {
            None => Guard(Members::Inline { n, buf }),
            Some(s) => {
                let mut heap = buf.to_vec();
                heap.push(s);
                heap.extend(states);
                Guard(Members::Heap(heap.into_boxed_slice()))
            }
        }
    }
}

impl From<&[StateId]> for Guard {
    fn from(states: &[StateId]) -> Guard {
        states.iter().copied().collect()
    }
}

impl From<Vec<StateId>> for Guard {
    fn from(states: Vec<StateId>) -> Guard {
        match states.len() {
            0..=INLINE_GUARD => states.as_slice().into(),
            _ => Guard(Members::Heap(states.into_boxed_slice())),
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// An instruction with its PE enable guard: the set of MIMD states whose
/// PEs execute it (the `if (pc & (BIT(2)|BIT(6)))` headers of Listing 5).
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedInstr {
    /// Sorted member states whose PEs are enabled.
    pub guard: Guard,
    /// The instruction.
    pub instr: SimdInstr,
}

impl GuardedInstr {
    /// Is a PE whose current MIMD state is `pc` enabled?
    pub fn enables(&self, pc: StateId) -> bool {
        self.guard.binary_search(&pc).is_ok()
    }
}

/// How control moves to the next meta block (§3.2.1–§3.2.4).
#[derive(Debug, Clone, PartialEq)]
pub enum Dispatch {
    /// No exit arc: "the end of the program's execution … implicitly
    /// followed by a return to the operating system" (§3.2.1).
    End,
    /// Single exit arc: an unconditional `goto` (§3.2.2); "all entries to
    /// compressed meta states fall into this category".
    Direct(BlockId),
    /// Compressed transition constrained by a barrier (§3.2.4 applied to
    /// §2.5): unconditionally continue at `cont`, unless every live PE's
    /// `pc` is a barrier state, in which case enter `barrier`.
    DirectWithBarrier {
        /// The compressed continuation.
        cont: BlockId,
        /// The all-barrier meta state.
        barrier: BlockId,
    },
    /// General multiway branch (§3.2.3): the `globalor` of the PEs' `pc`
    /// bits keys a hashed jump table.
    Hashed {
        /// Bit assignment for the aggregate: `(state, bit)` pairs covering
        /// every `pc` value that can occur here. When the automaton has at
        /// most 64 MIMD states the bit *is* the state id, matching the
        /// paper's `BIT(s)` coding.
        bit_of: Vec<(StateId, u32)>,
        /// Bits of barrier-wait states: §3.2.4's rule subtracts these from
        /// the aggregate unless the aggregate is barrier-only.
        barrier_mask: u64,
        /// The customized perfect hash over the possible aggregates.
        hash: PerfectHash,
        /// Successor block for each hash key (parallel to `hash.keys`).
        targets: Vec<BlockId>,
    },
}

/// One meta state's code.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaBlock {
    /// Member MIMD states (sorted) — the meta state's identity.
    pub members: Vec<StateId>,
    /// Listing-5-style name, e.g. `ms_2_6`.
    pub name: String,
    /// Guarded, CSI-factored body.
    pub body: Vec<GuardedInstr>,
    /// Exit encoding.
    pub dispatch: Dispatch,
}

/// A complete executable SIMD program.
#[derive(Debug, Clone)]
pub struct SimdProgram {
    /// The meta blocks.
    pub blocks: Vec<MetaBlock>,
    /// Entry block.
    pub start: BlockId,
    /// The MIMD state every PE's `pc` starts in.
    pub start_state: StateId,
    /// Words of per-PE `poly` memory the program uses.
    pub poly_words: u32,
    /// Words of replicated `mono` memory.
    pub mono_words: u32,
    /// Cost model the program was compiled against.
    pub costs: CostModel,
}

impl SimdProgram {
    /// Borrow a block.
    pub fn block(&self, id: BlockId) -> &MetaBlock {
        &self.blocks[id.idx()]
    }

    /// Total instructions across all meta blocks — the control unit's
    /// program size. Note what is *absent*: per-PE program memory. §1.2:
    /// "Only the SIMD control unit needs to have a copy of the meta-state
    /// automaton; PEs merely hold data."
    pub fn control_unit_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.body.len()).sum()
    }

    /// Per-PE program memory in words: zero, by construction (contrast
    /// with the §1.1 interpreter, which replicates the whole program).
    pub fn per_pe_program_words(&self) -> usize {
        0
    }

    /// Structural checks: start in range, dispatch targets in range,
    /// every hashed dispatch's tables consistent, every guard a sorted,
    /// non-empty set of the block's members, every memory operand inside
    /// the declared `poly_words` / `mono_words`.
    pub fn validate(&self) -> Result<(), String> {
        if self.start.idx() >= self.blocks.len() {
            return Err(format!("start {} out of range", self.start));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let check = |t: BlockId| -> Result<(), String> {
                if t.idx() >= self.blocks.len() {
                    Err(format!("block {i} targets nonexistent {t}"))
                } else {
                    Ok(())
                }
            };
            match &b.dispatch {
                Dispatch::End => {}
                Dispatch::Direct(t) => check(*t)?,
                Dispatch::DirectWithBarrier { cont, barrier } => {
                    check(*cont)?;
                    check(*barrier)?;
                }
                Dispatch::Hashed {
                    hash,
                    targets,
                    bit_of,
                    ..
                } => {
                    if hash.keys.len() != targets.len() {
                        return Err(format!("block {i}: keys/targets length mismatch"));
                    }
                    for t in targets {
                        check(*t)?;
                    }
                    if bit_of.is_empty() {
                        return Err(format!("block {i}: hashed dispatch with empty bit map"));
                    }
                }
            }
            for gi in &b.body {
                if gi.guard.is_empty() {
                    return Err(format!("block {i} has an instruction with empty guard"));
                }
                if gi.guard.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("block {i} has an unsorted guard"));
                }
                // A guard names the block's own members: any other state
                // would enable PEs that are not in this meta state.
                if let Some(s) = gi.guard.iter().find(|s| !b.members.contains(s)) {
                    return Err(format!("block {i} guards non-member {s}"));
                }
                if let SimdInstr::Op(op) = &gi.instr {
                    if let Some(index) = bad_address(op, self.poly_words, self.mono_words) {
                        return Err(format!("block {i} addresses out-of-range word {index}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_enable_check() {
        let gi = GuardedInstr {
            guard: vec![StateId(1), StateId(3)].into(),
            instr: SimdInstr::Halt,
        };
        assert!(gi.enables(StateId(1)));
        assert!(gi.enables(StateId(3)));
        assert!(!gi.enables(StateId(2)));
    }

    /// In place or boxed, a guard is its slice: same `Debug`, same
    /// equality, whichever constructor built it; and it is no wider than
    /// the `Vec` it replaced.
    #[test]
    fn guards_are_their_slices_in_place_or_boxed() {
        assert_eq!(
            std::mem::size_of::<Guard>(),
            std::mem::size_of::<Vec<StateId>>()
        );
        for n in 0..=2 * INLINE_GUARD as u32 {
            let states: Vec<StateId> = (0..n).map(|i| StateId(3 * i + 1)).collect();
            let guard = Guard::from(states.as_slice());
            assert_eq!(guard.as_slice(), states.as_slice());
            assert_eq!(format!("{guard:?}"), format!("{states:?}"));
            assert_eq!(format!("{guard:#?}"), format!("{states:#?}"));
            assert_eq!(matches!(guard.0, Members::Heap(_)), n > 5);
            assert_eq!(Guard::from(states.clone()), guard);
            assert_eq!(states.iter().copied().collect::<Guard>(), guard);
        }
        let short: Guard = vec![StateId(1)].into();
        assert_ne!(short, vec![StateId(1), StateId(0)].into());
    }

    #[test]
    fn instr_costs_follow_model() {
        let c = CostModel::default();
        assert_eq!(SimdInstr::Op(Op::Push(1)).cost(&c), c.stack);
        assert_eq!(
            SimdInstr::JumpF {
                t: StateId(0),
                f: StateId(1)
            }
            .cost(&c),
            c.int_simple
        );
        assert_eq!(SimdInstr::RetMulti(vec![StateId(0)]).cost(&c), c.control);
    }

    #[test]
    fn validate_catches_bad_targets() {
        let p = SimdProgram {
            blocks: vec![MetaBlock {
                members: vec![StateId(0)],
                name: "ms_0".into(),
                body: vec![],
                dispatch: Dispatch::Direct(BlockId(5)),
            }],
            start: BlockId(0),
            start_state: StateId(0),
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn per_pe_program_memory_is_zero() {
        let p = SimdProgram {
            blocks: vec![],
            start: BlockId(0),
            start_state: StateId(0),
            poly_words: 0,
            mono_words: 0,
            costs: CostModel::default(),
        };
        assert_eq!(p.per_pe_program_words(), 0);
    }
}
