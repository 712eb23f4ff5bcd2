//! # msc-ir — the MIMD intermediate representation
//!
//! This crate defines the program form that the rest of the Meta-State
//! Conversion (MSC) pipeline operates on, following §2.1 of Dietz,
//! *Meta-State Conversion* (Purdue TR-EE 93-6, 1993):
//!
//! > "the code for the MIMD processes is converted into a set of control
//! > flow graphs in which each node (MIMD state) represents a basic block.
//! > Each of these MIMD states has zero, one, or two exit arcs."
//!
//! The pieces:
//!
//! * [`op`] — the stack-machine instruction set executed inside a basic
//!   block, together with the [`op::CostModel`] that assigns every
//!   instruction a cycle cost (the timing base for §2.4's time splitting).
//! * [`graph`] — [`graph::MimdGraph`]: the MIMD state graph. Nodes are
//!   maximal basic blocks with an exit [`graph::Terminator`]; the graph
//!   also records barrier-wait states (§2.6) and spawn states (§3.2.5).
//!   Includes the normalization passes the paper applies before
//!   conversion: code straightening and empty-node removal.
//! * [`pool`] — [`pool::PePool`]: the idle PEs `spawn` recruits from
//!   (§3.2.5), shared by every executor.
//! * [`render`] — human-readable and Graphviz renderings of state graphs,
//!   used by the figure-regeneration binaries.
//! * [`util`] — a fast integer hasher (Fx-style) and interning helpers
//!   used throughout the pipeline.
//!
//! The IR is deliberately close to the MPL stack code in the paper's
//! Listing 5 (`Push`, `LdL`, `StL`, `JumpF`, …) so that generated SIMD
//! programs are recognizably the same shape as the prototype's output.

pub mod graph;
pub mod op;
pub mod opt;
pub mod pool;
pub mod render;
pub mod util;

pub use graph::{MimdGraph, MimdState, StateId, Terminator};
pub use op::{Addr, BinOp, CostModel, Op, OpClass, Space, UnOp};
pub use pool::PePool;
