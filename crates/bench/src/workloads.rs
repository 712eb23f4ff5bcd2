//! Synthetic SPMD workload generators.
//!
//! The paper defers benchmarking on "real" programs to future work (§5),
//! so the experiments run on synthetic workloads whose parameters are
//! exactly the quantities the paper's claims are about: number of
//! simultaneously-live branching states (state explosion, §1.2/§2.5),
//! block cost imbalance (time splitting, §2.4), cross-thread code overlap
//! (CSI, §3.1), and dispatch arity (multiway branching, §3.2.3).
//!
//! Two kinds of generator: MIMDC source (exercises the whole pipeline) and
//! direct [`MimdGraph`] construction (isolates the converter from the
//! front end for the explosion measurements).

use msc_core::{MetaAutomaton, MetaId, StateSet};
use msc_ir::{Addr, MimdGraph, MimdState, Op, StateId, Terminator};
use std::fmt::Write as _;

/// MIMDC source: every PE classifies itself into one of `n_paths` work
/// kinds and runs a different loop. Drives divergence breadth.
pub fn branchy_source(n_paths: usize) -> String {
    assert!(n_paths >= 1);
    let mut body = String::new();
    let _ = writeln!(body, "        kind = pe_id() % {n_paths};");
    for k in 0..n_paths {
        let indent = "        ";
        if k + 1 < n_paths {
            let _ = writeln!(body, "{indent}if (kind == {k}) {{");
        } else {
            let _ = writeln!(body, "{indent}{{");
        }
        let _ = writeln!(
            body,
            "{indent}    for (i = 0; i < pe_id() % 4 + {trip}; i += 1) {{ acc += i * {mul}; }}",
            trip = k + 1,
            mul = k + 3
        );
        if k + 1 < n_paths {
            let _ = writeln!(body, "{indent}}} else");
        } else {
            let _ = writeln!(body, "{indent}}}");
        }
    }
    format!("main() {{\n    poly int kind, i, acc = 0;\n{body}    return(acc);\n}}\n")
}

/// MIMDC source: a two-way branch whose arms cost roughly `short_ops` and
/// `long_ops` single-cycle operations — the §2.4 time-splitting scenario
/// ("a block that takes 5 clock cycles … placed in the same meta-state as
/// one that takes 100").
pub fn imbalanced_source(short_ops: usize, long_ops: usize) -> String {
    let arm = |n: usize| {
        let mut s = String::new();
        for i in 0..n {
            let _ = write!(s, "acc = acc + {}; ", i % 7);
        }
        s
    };
    // One straggler PE takes the long arm — the §2.4 worst case, where the
    // whole array idles while one block runs (the "95% waiting" bound).
    format!(
        "main() {{\n    poly int acc = 0;\n    if (pe_id() == 0) {{ {long} }}\n    else {{ {short} }}\n    return(acc);\n}}\n",
        short = arm(short_ops),
        long = arm(long_ops),
    )
}

/// MIMDC source with `n_phases` barrier-separated phases of divergent
/// work (drives the §2.6 measurements).
pub fn barrier_phases_source(n_phases: usize) -> String {
    let mut body = String::new();
    for p in 0..n_phases {
        let _ = writeln!(
            body,
            "    for (i = 0; i < pe_id() % 3 + 1; i += 1) {{ acc += {}; }}\n    wait;",
            p + 1
        );
    }
    format!("main() {{\n    poly int i, acc = 0;\n{body}    return(acc);\n}}\n")
}

/// Direct graph: a chain of `n` two-exit states where both arcs stay live
/// simultaneously — the worst case for the base conversion's 3ⁿ successor
/// growth. Every state branches to (next, skip-to-end), so deep chains
/// make many states co-reachable.
pub fn branch_chain_graph(n: usize) -> MimdGraph {
    let mut g = MimdGraph::new();
    let end = g.add(MimdState::new(
        vec![Op::Push(0), Op::St(Addr::poly(0))],
        Terminator::Halt,
    ));
    let mut ids: Vec<StateId> = Vec::with_capacity(n);
    for i in 0..n {
        let id = g.add(MimdState::new(
            vec![
                Op::Ld(Addr::poly(0)),
                Op::Push(i as i64),
                Op::Bin(msc_ir::BinOp::Lt),
            ],
            Terminator::Halt,
        ));
        ids.push(id);
    }
    for (i, &id) in ids.iter().enumerate() {
        let next = if i + 1 < n { ids[i + 1] } else { end };
        g.state_mut(id).term = Terminator::Branch { t: next, f: end };
    }
    g.start = ids[0];
    g
}

/// Direct graph: `n` independent self-loops reached from a fan-out root —
/// models `n` concurrently-live loop states (what a `n_paths`-way branchy
/// program converges to). Width driver for the §2.5 measurements.
pub fn fan_out_loops_graph(n: usize) -> MimdGraph {
    let mut g = MimdGraph::new();
    let end = g.add(MimdState::new(vec![], Terminator::Halt));
    let loops: Vec<StateId> = (0..n)
        .map(|i| {
            g.add(MimdState::new(
                vec![
                    Op::Ld(Addr::poly(0)),
                    Op::Push(i as i64),
                    Op::Bin(msc_ir::BinOp::Gt),
                ],
                Terminator::Halt,
            ))
        })
        .collect();
    for &l in &loops {
        g.state_mut(l).term = Terminator::Branch { t: l, f: end };
    }
    // Binary fan-out tree from the root to the n loops.
    let mut frontier = loops.clone();
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for pair in frontier.chunks(2) {
            if pair.len() == 2 {
                let id = g.add(MimdState::new(
                    vec![Op::Ld(Addr::poly(0))],
                    Terminator::Branch {
                        t: pair[0],
                        f: pair[1],
                    },
                ));
                next.push(id);
            } else {
                next.push(pair[0]);
            }
        }
        frontier = next;
    }
    g.start = frontier[0];
    g
}

/// Thread op sequences with a controlled shared fraction, for the CSI
/// experiments: each of `n_threads` threads has `shared` ops common to all
/// (same opcode + operands) interleaved with `private` ops unique to it.
pub fn csi_threads(n_threads: usize, shared: usize, private: usize) -> Vec<Vec<Op>> {
    (0..n_threads)
        .map(|t| {
            let mut ops = Vec::with_capacity(shared + private);
            for i in 0..shared.max(private) {
                if i < shared {
                    ops.push(Op::Ld(Addr::poly(i as u32 % 8)));
                }
                if i < private {
                    ops.push(Op::Push((t * 1000 + i) as i64));
                    ops.push(Op::St(Addr::poly(8 + t as u32)));
                }
            }
            ops
        })
        .collect()
}

/// Key sets of `n` aggregates over a `bits`-wide pc space, as produced by
/// meta-state dispatches (each key = OR of 1–3 state bits). Deterministic.
pub fn aggregate_keys(n: usize, bits: u32) -> Vec<u64> {
    let mut keys = Vec::with_capacity(n);
    let mut x = 0x243f_6a88_85a3_08d3u64; // pi digits, fixed seed
    while keys.len() < n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (x >> 5) % bits as u64;
        let b = (x >> 23) % bits as u64;
        let c = (x >> 41) % bits as u64;
        let key = (1u64 << a) | (1 << b) | (1 << c);
        if !keys.contains(&key) {
            keys.push(key);
        }
        if keys.len() >= (1usize << bits.min(20)) {
            break;
        }
    }
    keys
}

/// The key set of the dispatch the converter most often produces: a meta
/// state of `k` loop heads, each branching to its own body `B_i` or to the
/// one exit `E` they share. A successor meta state is any set of targets
/// that places every member — all subsets of the bodies with `E`, or every
/// body without it — so the dispatch has `2^k + 1` cases (3, 5, 9, 17, 33,
/// 65 for `k` = 1..=6), each the OR of its states' `BIT(state)`, with the
/// closely spaced state ids a front end hands out.
pub fn dispatch_keys(k: usize) -> Vec<u64> {
    let exit = 1u64 << 2;
    let bodies = |subset: u64| {
        let chosen = (0..k).filter(|i| subset >> i & 1 != 0);
        chosen.fold(0u64, |key, i| key | 1 << (4 + 3 * i))
    };
    let mut keys: Vec<u64> = (0..1 << k).map(|subset| exit | bodies(subset)).collect();
    keys.push(bodies(u64::MAX));
    keys
}

/// Two sorted, distinct member lists of `n` state ids each, drawn from a
/// universe of `4n` ids with roughly 50% overlap — the set-algebra
/// benchmark workload (a quarter of the bits of an `n / 16`-word window:
/// dense enough to be a real bitset, sparse enough that word-level work
/// is not trivial).
/// Deterministic.
pub fn overlapping_members(n: usize) -> (Vec<u32>, Vec<u32>) {
    let universe = (4 * n.max(1)) as u32;
    let mut x = 0x13198a2e_03707344u64; // pi digits, fixed seed
    let mut draw = |out: &mut Vec<u32>| {
        while out.len() < n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % universe as u64) as u32;
            if let Err(i) = out.binary_search(&v) {
                out.insert(i, v);
            }
        }
    };
    let mut a = Vec::with_capacity(n);
    let mut b: Vec<u32> = Vec::with_capacity(n);
    draw(&mut a);
    // Seed b with half of a so the pair overlaps, then fill the rest.
    b.extend(a.iter().copied().step_by(2));
    draw(&mut b);
    (a, b)
}

/// A meta automaton of `n` subset/superset pairs ({3i, 3i+1} ⊂
/// {3i, 3i+1, 3i+2}) chained by successor arcs so every meta state stays
/// reachable — the subsumption-scaling workload. Each pair folds exactly
/// once, and each MIMD state occurs in at most two meta states, so an
/// occurrence-indexed subsumption pass does O(1) candidate work per meta
/// state while an all-pairs pass does O(n).
pub fn subset_chain_automaton(n: usize) -> MetaAutomaton {
    let mut graph = MimdGraph::new();
    for _ in 0..3 * n {
        graph.add(MimdState::new(vec![], Terminator::Halt));
    }
    graph.start = StateId(0);
    let mut sets = Vec::with_capacity(2 * n);
    for i in 0..n as u32 {
        sets.push(StateSet::from_iter([StateId(3 * i), StateId(3 * i + 1)]));
        sets.push(StateSet::from_iter([
            StateId(3 * i),
            StateId(3 * i + 1),
            StateId(3 * i + 2),
        ]));
    }
    let last = sets.len() - 1;
    let succs = (0..sets.len())
        .map(|i| {
            if i == last {
                vec![]
            } else {
                vec![MetaId(i as u32 + 1)]
            }
        })
        .collect();
    MetaAutomaton {
        graph,
        sets,
        start: MetaId(0),
        succs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::{convert, ConvertOptions};

    #[test]
    fn branchy_source_compiles_at_all_widths() {
        for n in 1..=6 {
            let src = branchy_source(n);
            let p = msc_lang::compile(&src).unwrap_or_else(|e| panic!("n={n}: {e}\n{src}"));
            assert!(p.graph.len() >= n);
        }
    }

    #[test]
    fn dispatch_keys_have_the_converter_shape() {
        for k in 1..=6 {
            let keys = dispatch_keys(k);
            let distinct: std::collections::HashSet<_> = keys.iter().collect();
            assert_eq!((keys.len(), distinct.len()), ((1 << k) + 1, (1 << k) + 1));
            msc_hash::find_hash(&keys).unwrap();
        }
        // ms_2 branching to {4}, {2} or both: Listing 5's three-way case.
        assert_eq!(dispatch_keys(1), [1 << 2, 1 << 2 | 1 << 4, 1 << 4]);
    }

    #[test]
    fn imbalanced_source_compiles_with_expected_costs() {
        let p = msc_lang::compile(&imbalanced_source(5, 100)).unwrap();
        let costs = msc_ir::CostModel::default();
        let mut block_costs: Vec<u64> = p
            .graph
            .ids()
            .map(|i| p.graph.state_cost(i, &costs))
            .collect();
        block_costs.sort_unstable();
        let max = *block_costs.last().unwrap();
        let mid = block_costs[block_costs.len() / 2];
        assert!(max > mid * 3, "long arm should dominate: {block_costs:?}");
    }

    #[test]
    fn barrier_phases_have_barriers() {
        let p = msc_lang::compile(&barrier_phases_source(3)).unwrap();
        let barriers = p.graph.ids().filter(|&i| p.graph.state(i).barrier).count();
        assert_eq!(barriers, 3);
    }

    #[test]
    fn branch_chain_graph_converts_and_grows() {
        let small = convert(&branch_chain_graph(3), &ConvertOptions::base()).unwrap();
        let large = convert(&branch_chain_graph(6), &ConvertOptions::base()).unwrap();
        assert!(large.len() > small.len());
    }

    #[test]
    fn fan_out_loops_width_grows() {
        let a = convert(&fan_out_loops_graph(2), &ConvertOptions::compressed()).unwrap();
        let b = convert(&fan_out_loops_graph(8), &ConvertOptions::compressed()).unwrap();
        assert!(b.max_width() > a.max_width());
    }

    #[test]
    fn csi_threads_shapes() {
        let t = csi_threads(4, 5, 3);
        assert_eq!(t.len(), 4);
        for seq in &t {
            assert_eq!(seq.len(), 5 + 2 * 3);
        }
    }

    #[test]
    fn overlapping_members_shape() {
        let (a, b) = overlapping_members(256);
        assert_eq!(a.len(), 256);
        assert_eq!(b.len(), 256);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        let shared = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
        assert!(shared >= 64, "workload should overlap, got {shared}");
        assert_eq!(overlapping_members(256), (a, b), "deterministic");
    }

    #[test]
    fn subset_chain_folds_once_per_pair() {
        let mut auto = subset_chain_automaton(16);
        assert_eq!(auto.validate(), Ok(()));
        let removed = msc_core::subsume::subsume(&mut auto);
        assert_eq!(removed, 16);
        assert_eq!(auto.len(), 16);
        assert_eq!(auto.validate(), Ok(()));
    }

    #[test]
    fn aggregate_keys_distinct() {
        let keys = aggregate_keys(100, 24);
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
        assert_eq!(keys.len(), 100);
    }
}
