//! # msc-core — Meta-State Conversion
//!
//! The paper's primary contribution (§2): converting a MIMD state graph
//! into a finite automaton over **meta states** — sets of MIMD states that
//! can coexist at one instant — so the whole MIMD program runs under a
//! single SIMD program counter.
//!
//! * [`stateset`] — meta states as interned windows of bit words.
//! * [`convert`](convert()) — the base (§2.3) and compressed (§2.5) subset
//!   constructions, with time splitting (§2.4) and barrier constraint
//!   propagation (§2.6).
//! * [`subsume`](subsume::subsume) — the superset-emulates-subset fold that
//!   yields Figure 5's two-state compressed automaton.
//! * [`MetaAutomaton`] — the result, with width/determinism/imbalance
//!   metrics used by the experiments.

pub mod automaton;
pub mod convert;
pub mod spill;
pub mod stateset;
pub mod subsume;

pub use automaton::{MetaAutomaton, MetaId, SuccTable};
pub use convert::{
    apply_barrier, barrier_sync, convert, convert_rounds, convert_threads, convert_with_stats,
    ConvertError, ConvertMode, ConvertOptions, ConvertStats, TimeSplitOptions,
};
pub use spill::{default_memory_budget, env_memory_budget, parse_bytes};
pub use stateset::{fx_hash, SetArena, SetId, StateSet};
