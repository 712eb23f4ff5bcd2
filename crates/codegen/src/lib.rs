//! # msc-codegen — SIMD coding of the meta-state automaton (§3)
//!
//! "Given a MIMD program that has been converted into a meta-state graph,
//! it is not trivial to find an efficient coding of the meta-state
//! automaton for a SIMD architecture."
//!
//! [`generate`] turns a [`MetaAutomaton`] into an executable
//! [`SimdProgram`]:
//!
//! * each meta state's member bodies become **threads** fed to common
//!   subexpression induction (§3.1, `msc-csi`), producing one guarded
//!   instruction stream in which work shared between members issues once;
//! * member terminators become guarded control instructions (`JumpF`,
//!   `SetPc`, `Halt`, `RetMulti`, `Spawn`), merged when identical;
//! * each multi-successor meta state gets a **hashed multiway dispatch**
//!   (§3.2.3, `msc-hash`) over the `globalor` aggregate of `pc` bits, with
//!   the §3.2.4 barrier adjustment; single-successor states dispatch
//!   directly (§3.2.2), and the compressed-with-barrier pattern becomes a
//!   two-way direct/barrier check;
//! * [`render_mpl`](render::render_mpl) prints the whole program in the
//!   MPL-like style of the paper's Listing 5.

pub mod render;

use msc_core::{MetaAutomaton, MetaId};
use msc_csi::{CsiError, CsiOptions, Inducer};
use msc_hash::{HashError, HashSearch, PerfectHash, SearchOptions};
use msc_ir::util::FxHashMap;
use msc_ir::{CostModel, StateId, Terminator};
use msc_simd::{BlockId, Dispatch, Guard, GuardedInstr, MetaBlock, SimdInstr, SimdProgram};
use std::fmt;

/// Options controlling code generation.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Run common subexpression induction on meta-state bodies (§3.1).
    /// When false, member threads are serialized — the no-CSI baseline the
    /// experiments compare against.
    pub csi: bool,
    /// Cycle cost model (drives CSI's schedule costing and is embedded in
    /// the program for the simulator).
    pub costs: CostModel,
    /// Perfect-hash search bounds for the multiway dispatches.
    pub hash_search: SearchOptions,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            csi: true,
            costs: CostModel::default(),
            hash_search: SearchOptions::default(),
        }
    }
}

/// Code-generation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// A dispatch needed aggregate bits for more than 64 distinct states.
    TooManyDispatchStates {
        /// The meta state.
        meta: MetaId,
        /// Distinct states needing bits.
        states: usize,
    },
    /// The perfect-hash search failed for a dispatch.
    Hash(HashError),
    /// CSI failed (more than 64 members in one meta state).
    Csi(CsiError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::TooManyDispatchStates { meta, states } => {
                write!(
                    f,
                    "dispatch at {meta} needs {states} aggregate bits (max 64)"
                )
            }
            GenError::Hash(e) => write!(f, "multiway branch encoding failed: {e}"),
            GenError::Csi(e) => write!(f, "common subexpression induction failed: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<HashError> for GenError {
    fn from(e: HashError) -> Self {
        GenError::Hash(e)
    }
}

impl From<CsiError> for GenError {
    fn from(e: CsiError) -> Self {
        GenError::Csi(e)
    }
}

/// Listing-5-style meta state name: `ms_2_6_9` for members {2,6,9}.
pub fn meta_name(members: &[StateId]) -> String {
    let mut s = String::from("ms");
    for m in members {
        s.push('_');
        s.push_str(&m.0.to_string());
    }
    s
}

/// How hard one [`generate_with_stats`] call worked: the counters of its CSI
/// scheduler and of its perfect-hash search, summed over the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// CSI problems posed (one per meta state when CSI is on).
    pub csi_problems: u64,
    /// … of which had a single non-empty thread, so nothing was searched.
    pub csi_single_thread: u64,
    /// Candidate schedules built, improved and priced.
    pub csi_candidates_tried: u64,
    /// Problems that skipped candidates because one met the lower bound.
    pub csi_lower_bound_exits: u64,
    /// Pairwise merges an earlier meta state of the program had made.
    pub csi_merges_reused: u64,
    /// Member threads interned, each once per program.
    pub csi_threads_interned: u64,
    /// Perfect-hash searches run (distinct dispatch key sets).
    pub hash_searches: u64,
    /// Hashed dispatches served from an earlier search of the same key set.
    pub hash_memo_hits: u64,
    /// Candidate hash expressions tested for injectivity.
    pub hash_candidates_tested: u64,
}

/// Generate an executable SIMD program from a converted automaton.
///
/// `poly_words`/`mono_words` give the memory image sizes (from the front
/// end's `msc_lang::Layout` when compiling MIMDC, or whatever the
/// caller allocated for hand-built graphs).
pub fn generate(
    auto: &MetaAutomaton,
    poly_words: u32,
    mono_words: u32,
    opts: &GenOptions,
) -> Result<SimdProgram, GenError> {
    generate_with_stats(auto, poly_words, mono_words, opts).map(|(program, _)| program)
}

/// [`generate`], also reporting how hard the CSI and hash searches worked.
pub fn generate_with_stats(
    auto: &MetaAutomaton,
    poly_words: u32,
    mono_words: u32,
    opts: &GenOptions,
) -> Result<(SimdProgram, GenStats), GenError> {
    let graph = &auto.graph;
    let mut blocks = Vec::with_capacity(auto.len());
    let csi_opts = CsiOptions {
        costs: opts.costs.clone(),
        ..Default::default()
    };
    let mut inducer = Inducer::default();
    let mut hashing = Hashing {
        barriers: graph.ids().filter(|&s| graph.state(s).barrier).collect(),
        ..Default::default()
    };

    for (mi, set) in auto.sets.iter().enumerate() {
        let meta = MetaId(mi as u32);
        let members: Vec<StateId> = set.iter().collect();

        // §3.1: the member bodies are the threads of a CSI problem.
        let thread = |m: StateId| graph.state(m).ops.as_slice();
        let mut body: Vec<GuardedInstr> = Vec::new();
        if opts.csi {
            let schedule = inducer.induce(&members, thread, &csi_opts)?;
            body.reserve(schedule.slots.len() + members.len());
            for slot in schedule.slots {
                // The guard: the members at the mask's set bits, lowest first.
                let guard = (0..members.len()).filter(|&t| slot.active >> t & 1 != 0);
                body.push(GuardedInstr {
                    guard: guard.map(|t| members[t]).collect(),
                    instr: SimdInstr::Op(slot.op),
                });
            }
        } else {
            for &m in &members {
                for op in thread(m) {
                    body.push(GuardedInstr {
                        guard: Guard::from(&[m][..]),
                        instr: SimdInstr::Op(op.clone()),
                    });
                }
            }
        }

        // Member terminators, merged when identical (e.g. several members
        // halting share one guarded Halt), in order of first member; the
        // members are sorted, so each guard is too.
        let term = |m: StateId| &graph.state(m).term;
        for (i, &m) in members.iter().enumerate() {
            if members[..i].iter().any(|&e| term(e) == term(m)) {
                continue;
            }
            let instr = match term(m) {
                Terminator::Halt => SimdInstr::Halt,
                Terminator::Jump(b) => SimdInstr::SetPc(*b),
                Terminator::Branch { t, f } => SimdInstr::JumpF { t: *t, f: *f },
                Terminator::Multi(v) => SimdInstr::RetMulti(v.clone()),
                Terminator::Spawn { child, next } => SimdInstr::Spawn {
                    child: *child,
                    next: *next,
                },
            };
            let guard = members[i..].iter().filter(|&&o| term(o) == term(m));
            body.push(GuardedInstr {
                guard: guard.copied().collect(),
                instr,
            });
        }

        let dispatch = build_dispatch(auto, meta, opts, &mut hashing)?;
        blocks.push(MetaBlock {
            name: meta_name(&members),
            members,
            body,
            dispatch,
        });
    }

    let program = SimdProgram {
        blocks,
        start: BlockId(auto.start.0),
        start_state: graph.start,
        poly_words,
        mono_words,
        costs: opts.costs.clone(),
    };
    debug_assert_eq!(program.validate(), Ok(()));
    let stats = GenStats {
        csi_problems: inducer.problems,
        csi_single_thread: inducer.single_thread,
        csi_candidates_tried: inducer.candidates_tried,
        csi_lower_bound_exits: inducer.lower_bound_exits,
        csi_merges_reused: inducer.merges_reused,
        csi_threads_interned: inducer.threads_interned,
        hash_searches: hashing.memo.len() as u64,
        hash_memo_hits: hashing.memo_hits,
        hash_candidates_tested: hashing.search.candidates_tested,
    };
    Ok((program, stats))
}

/// What the §3.2.3 encoder keeps for one program. The memo lives for one
/// [`generate_with_stats`] call: dispatch key sets repeat within a program
/// and the search is a pure function of the ordered key list, so a hit is
/// the table a fresh search would build.
#[derive(Default)]
struct Hashing {
    /// Every barrier state of the graph: possible at every dispatch.
    barriers: Vec<StateId>,
    search: HashSearch,
    memo: FxHashMap<Vec<u64>, PerfectHash>,
    memo_hits: u64,
}

/// Build the §3.2 exit encoding for one meta state.
fn build_dispatch(
    auto: &MetaAutomaton,
    meta: MetaId,
    opts: &GenOptions,
    hashing: &mut Hashing,
) -> Result<Dispatch, GenError> {
    let succs = auto.successors(meta);
    let graph = &auto.graph;
    match succs.len() {
        // §3.2.1: terminal.
        0 => Ok(Dispatch::End),
        // §3.2.2: unconditional goto ("all entries to compressed meta
        // states fall into this category").
        1 => Ok(Dispatch::Direct(BlockId(succs[0].0))),
        _ => {
            // Compressed-with-barrier special case (§3.2.4 applied to a
            // §2.5 transition): exactly one all-barrier successor, and the
            // other successor covers every possible non-barrier next state.
            if succs.len() == 2 {
                let is_barrier_set =
                    |m: MetaId| auto.members(m).iter().all(|s| graph.state(s).barrier);
                let (b, c) = (is_barrier_set(succs[0]), is_barrier_set(succs[1]));
                if b != c {
                    let (barrier, cont) = if b {
                        (succs[0], succs[1])
                    } else {
                        (succs[1], succs[0])
                    };
                    // All non-barrier successor states of members:
                    let mut covered = true;
                    for m in auto.members(meta).iter() {
                        for s in graph.state(m).term.successors() {
                            if !graph.state(s).barrier && !auto.members(cont).contains(s) {
                                covered = false;
                            }
                        }
                    }
                    if covered {
                        return Ok(Dispatch::DirectWithBarrier {
                            cont: BlockId(cont.0),
                            barrier: BlockId(barrier.0),
                        });
                    }
                }
            }

            // §3.2.3: hashed multiway branch over the globalor aggregate.
            // Possible pc values at this dispatch: every member's graph
            // successors, every successor meta's members, and any barrier
            // state (lingering waiters keep their pc).
            let mut possible: Vec<StateId> = hashing.barriers.clone();
            for m in auto.members(meta).iter() {
                possible.extend(graph.state(m).term.successors());
            }
            for &sm in succs {
                possible.extend(auto.members(sm).iter());
            }
            possible.sort_unstable();
            possible.dedup();
            if possible.len() > 64 {
                return Err(GenError::TooManyDispatchStates {
                    meta,
                    states: possible.len(),
                });
            }
            // When the whole graph fits in 64 states, use the paper's
            // BIT(state) coding so rendered output matches Listing 5;
            // otherwise a state's bit is its rank among the possible ones.
            let rank = |s: StateId| possible.binary_search(&s).expect("collected above") as u32;
            let small = graph.len() <= 64;
            let bit = |s: StateId| if small { s.0 } else { rank(s) };
            let bit_of: Vec<(StateId, u32)> = possible.iter().map(|&s| (s, bit(s))).collect();
            let barrier_mask: u64 = hashing
                .barriers
                .iter()
                .fold(0, |m, &s| m | (1u64 << bit(s)));
            let keys: Vec<u64> = succs
                .iter()
                .map(|&sm| {
                    auto.members(sm)
                        .iter()
                        .fold(0u64, |k, s| k | (1u64 << bit(s)))
                })
                .collect();
            let hash = match hashing.memo.get(&keys) {
                Some(found) => {
                    hashing.memo_hits += 1;
                    found.clone()
                }
                None => {
                    let found = hashing.search.find(&keys, opts.hash_search)?;
                    hashing.memo.insert(keys, found.clone());
                    found
                }
            };
            let targets: Vec<BlockId> = succs.iter().map(|&s| BlockId(s.0)).collect();
            Ok(Dispatch::Hashed {
                bit_of,
                barrier_mask,
                hash,
                targets,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::{convert, ConvertOptions, StateSet};
    use msc_ir::{MimdGraph, MimdState, Op};
    use msc_lang::compile;
    use msc_simd::{MachineConfig, SimdMachine};

    /// The paper's Listing 4.
    const LISTING4: &str = r#"
        main() {
            poly int x;
            if (x) { do { x = 1; } while (x); }
            else   { do { x = 2; } while (x); }
            return(x);
        }
    "#;

    fn build(src: &str, copts: &ConvertOptions, gopts: &GenOptions) -> SimdProgram {
        let p = compile(src).unwrap();
        let auto = convert(&p.graph, copts).unwrap();
        generate(&auto, p.layout.poly_words, p.layout.mono_words, gopts).unwrap()
    }

    #[test]
    fn listing4_base_program_has_eight_blocks() {
        let prog = build(LISTING4, &ConvertOptions::base(), &GenOptions::default());
        assert_eq!(prog.blocks.len(), 8, "Listing 5 has eight ms_ labels");
        prog.validate().unwrap();
        // Exactly one terminal block (the all-halt meta state).
        let ends = prog
            .blocks
            .iter()
            .filter(|b| matches!(b.dispatch, Dispatch::End))
            .count();
        assert_eq!(ends, 1);
    }

    #[test]
    fn listing4_executes_and_matches_semantics() {
        // x starts 0 on every PE: the else path runs, x=2, loop exits when
        // x... wait — `do { x = 2; } while (x)` loops forever on nonzero x!
        // The paper's Listing 4 is deliberately non-terminating for half
        // its paths; use a terminating variant driven by pe_id parity.
        let src = r#"
            main() {
                poly int x, n;
                x = pe_id() % 2;
                n = 0;
                if (x) { do { n += 1; x = x - 1; } while (x); }
                else   { do { n += 10; } while (x); }
                return(n);
            }
        "#;
        let prog = build(src, &ConvertOptions::base(), &GenOptions::default());
        let cfg = MachineConfig::spmd(6);
        let mut m = SimdMachine::new(&prog, &cfg);
        m.run(&prog, &cfg).unwrap();
        let p = compile(src).unwrap();
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..6 {
            let expect = if pe % 2 == 1 { 1 } else { 10 };
            assert_eq!(m.poly_at(pe, ret), expect, "PE {pe}");
        }
    }

    #[test]
    fn compressed_program_is_direct_dispatched() {
        let mut copts = ConvertOptions::compressed();
        copts.subsumption = true;
        let prog = build(LISTING4, &copts, &GenOptions::default());
        assert_eq!(prog.blocks.len(), 2, "Figure 5");
        for b in &prog.blocks {
            assert!(
                matches!(b.dispatch, Dispatch::Direct(_) | Dispatch::End),
                "compressed transitions are unconditional (§2.5): {:?}",
                b.dispatch
            );
        }
    }

    #[test]
    fn csi_shares_work_across_members() {
        let with = build(LISTING4, &ConvertOptions::base(), &GenOptions::default());
        let without = build(
            LISTING4,
            &ConvertOptions::base(),
            &GenOptions {
                csi: false,
                ..Default::default()
            },
        );
        let issues = |p: &SimdProgram| p.control_unit_instrs();
        assert!(
            issues(&with) < issues(&without),
            "CSI must shrink the program: {} vs {}",
            issues(&with),
            issues(&without)
        );
        // The wide meta state ms_2_6_9-equivalent must contain an op
        // guarded by more than one member.
        let shared = with
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .any(|gi| gi.guard.len() > 1 && matches!(gi.instr, SimdInstr::Op(_)));
        assert!(shared);
    }

    /// The effort counters repeat exactly, so they are pinned: a changed
    /// `hash_candidates_tested` means the search *order* changed, a changed
    /// `csi_candidates_tried` that the early exits moved, a changed
    /// `csi_merges_reused` that the merge memo kept or lost a prefix.
    #[test]
    fn gen_stats_are_exact_for_the_dispatch_heavy_example() {
        let src = include_str!("../../../examples/dispatch_heavy.mimdc");
        let p = compile(src).unwrap();
        let auto = convert(&p.graph, &ConvertOptions::base()).unwrap();
        let opts = GenOptions::default();
        let (prog, stats) =
            generate_with_stats(&auto, p.layout.poly_words, p.layout.mono_words, &opts).unwrap();
        let want = GenStats {
            csi_problems: 31,
            csi_single_thread: 9,
            csi_candidates_tried: 3 * (31 - 9),
            csi_lower_bound_exits: 0,
            csi_merges_reused: 28,
            csi_threads_interned: 8,
            hash_searches: 10,
            hash_memo_hits: 20,
            hash_candidates_tested: 1214,
        };
        assert_eq!(stats, want);

        // The memo neither loses nor double-counts a search: the total is
        // what fresh searches of the distinct key sets test, and those are
        // pinned to the pre-memo search by `msc-hash`'s differential tests.
        let mut distinct: Vec<&[u64]> = Vec::new();
        let mut hashed = 0;
        for b in &prog.blocks {
            if let Dispatch::Hashed { hash, .. } = &b.dispatch {
                hashed += 1;
                if !distinct.contains(&hash.keys.as_slice()) {
                    distinct.push(&hash.keys);
                }
            }
        }
        assert_eq!(stats.hash_searches, distinct.len() as u64);
        assert_eq!(stats.hash_searches + stats.hash_memo_hits, hashed);
        let mut fresh = HashSearch::default();
        for keys in distinct {
            fresh.find(keys, opts.hash_search).unwrap();
        }
        assert_eq!(stats.hash_candidates_tested, fresh.candidates_tested);
        assert_eq!(stats.csi_problems, prog.blocks.len() as u64);
    }

    /// A hand-built automaton: `graph`'s states grouped into `sets`, meta
    /// state 0 branching to every other one.
    fn fan_automaton(graph: MimdGraph, sets: Vec<Vec<u32>>) -> MetaAutomaton {
        let n = sets.len() as u32;
        let succs = (0..n)
            .map(|i| match i {
                0 => (1..n).map(MetaId).collect(),
                _ => vec![],
            })
            .collect();
        let set = |ids: Vec<u32>| StateSet::from_iter(ids.into_iter().map(StateId));
        MetaAutomaton {
            graph,
            sets: sets.into_iter().map(set).collect(),
            start: MetaId(0),
            succs,
        }
    }

    #[test]
    fn sixty_five_members_overflow_the_csi_guard_word_only_with_csi_on() {
        let mut graph = MimdGraph::new();
        for i in 0..65 {
            graph.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt));
        }
        let auto = fan_automaton(graph, vec![(0..65).collect()]);
        let with_csi = generate(&auto, 0, 0, &GenOptions::default());
        let too_many = GenError::Csi(CsiError::TooManyThreads(65));
        assert_eq!(with_csi.err(), Some(too_many));
        let serial = GenOptions {
            csi: false,
            ..Default::default()
        };
        let prog = generate(&auto, 0, 0, &serial).unwrap();
        assert_eq!(
            prog.blocks[0].body.len(),
            65 + 1,
            "65 pushes, one shared Halt"
        );
    }

    #[test]
    fn a_dispatch_may_need_sixty_four_aggregate_bits_but_not_sixty_five() {
        let fan = |halting: u32| {
            let mut graph = MimdGraph::new();
            let (t, f) = (StateId(1), StateId(2));
            graph.add(MimdState::new(vec![], Terminator::Branch { t, f }));
            for _ in 0..halting {
                graph.add(MimdState::new(vec![], Terminator::Halt));
            }
            let sets = vec![vec![0], (1..=32).collect(), (33..=halting).collect()];
            generate(&fan_automaton(graph, sets), 0, 0, &GenOptions::default())
        };
        let prog = fan(64).unwrap();
        let Dispatch::Hashed { bit_of, hash, .. } = &prog.blocks[0].dispatch else {
            panic!(
                "two successors dispatch by hash: {:?}",
                prog.blocks[0].dispatch
            );
        };
        assert_eq!(bit_of.len(), 64);
        assert_eq!(hash.keys, [u64::from(u32::MAX), u64::from(u32::MAX) << 32]);
        let too_many = GenError::TooManyDispatchStates {
            meta: MetaId(0),
            states: 65,
        };
        assert_eq!(fan(65).err(), Some(too_many));
    }

    #[test]
    fn meta_names_match_listing5_style() {
        assert_eq!(meta_name(&[StateId(0)]), "ms_0");
        assert_eq!(meta_name(&[StateId(2), StateId(6), StateId(9)]), "ms_2_6_9");
    }

    #[test]
    fn barrier_program_round_trips() {
        let src = r#"
            main() {
                poly int x, n;
                x = pe_id() % 3;
                n = 0;
                if (x) { do { n += 1; x -= 1; } while (x); }
                else   { n = 100; }
                wait;
                n += 1000;
                return(n);
            }
        "#;
        let prog = build(src, &ConvertOptions::base(), &GenOptions::default());
        let cfg = MachineConfig::spmd(9);
        let mut m = SimdMachine::new(&prog, &cfg);
        m.run(&prog, &cfg).unwrap();
        let p = compile(src).unwrap();
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..9 {
            let expect = match pe % 3 {
                0 => 1100,
                k => 1000 + k as i64,
            };
            assert_eq!(m.poly_at(pe, ret), expect, "PE {pe}");
        }
    }

    #[test]
    fn hashed_dispatch_uses_state_id_bits_for_small_graphs() {
        let prog = build(LISTING4, &ConvertOptions::base(), &GenOptions::default());
        for b in &prog.blocks {
            if let Dispatch::Hashed { bit_of, .. } = &b.dispatch {
                for (s, bit) in bit_of {
                    assert_eq!(s.0, *bit, "BIT(state) coding for ≤64 states");
                }
            }
        }
    }
}
