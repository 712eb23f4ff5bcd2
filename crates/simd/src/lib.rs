//! # msc-simd — the SIMD machine substrate
//!
//! A cycle-accounting simulator of a MasPar-MP-1-class SIMD array (the
//! paper's target hardware, \[Bla90\]): one control unit holding the
//! meta-state program, N processing elements with private `poly` memory and
//! operand stacks, replicated `mono` memory with broadcast stores, a router
//! for parallel subscripting, a `globalor` reduction network for aggregate
//! `pc` collection (§3.2.3), and an idle-PE pool for restricted dynamic
//! process creation (§3.2.5).
//!
//! * [`program`] — [`SimdProgram`]: the executable meta-state automaton
//!   (guarded instruction bodies + hashed multiway dispatches).
//! * [`machine`] — [`SimdMachine`]: the array itself, with the metrics
//!   ([`Metrics`]) the experiments report: cycles by category, issue
//!   counts, and PE utilization.
//! * [`lanes`] — [`PeArray`]: the PEs' memories and stacks in flat
//!   lane-major storage and the one implementation of the stack-op
//!   semantics, shared with the §1.1 interpreter in `msc-mimd`.
//! * [`setops`] — the scalar word-slice subset test the converter's
//!   hybrid bitsets run on.
//! * [`profile`] — [`MachineProfile`]: the whole cost structure as strict
//!   JSON config, so one binary evaluates many architectures (`mscc sweep`).

pub mod asm;
pub mod lanes;
pub mod machine;
pub mod profile;
pub mod program;
pub mod setops;

pub use asm::{parse as parse_asm, serialize as serialize_asm, AsmError};
pub use lanes::PeArray;
pub use machine::{MachineConfig, Metrics, RunError, SimdMachine, TraceEvent};
pub use profile::{MachineProfile, ProfileError};
pub use program::{BlockId, Dispatch, Guard, GuardedInstr, MetaBlock, SimdInstr, SimdProgram};
