//! Frontier-parallel meta-state conversion.
//!
//! The worklist, the pruning and the subsumption fold live in `msc-core`:
//! [`msc_core::convert_threads`] returns the same automaton and statistics
//! at any thread count and memory budget, and [`msc_core::convert()`] is it
//! at one thread. This module adds the thread-count default (`0` = all
//! cores); `compile_stages` adds the cooperative deadline.

use msc_core::{convert_threads, ConvertError, ConvertOptions, ConvertStats, MetaAutomaton};
use msc_ir::MimdGraph;

/// Convert `graph` with up to `threads` expansion threads; the result is
/// [`msc_core::convert_with_stats`]' bit for bit. `threads == 0` selects
/// the machine's available parallelism.
pub fn convert_parallel(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    threads: usize,
) -> Result<(MetaAutomaton, ConvertStats), ConvertError> {
    convert_threads(graph, opts, effective_threads(threads), || Ok(()))
}

pub(crate) fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::ConvertMode;
    use msc_ir::{MimdState, Terminator};
    use std::time::Instant;

    /// A chain of n conditional branches: 2^n reachable subsets in base
    /// mode — enough meta states for many multi-entry rounds.
    fn branch_chain(n: usize) -> MimdGraph {
        let mut g = MimdGraph::new();
        let halt = g.add(MimdState::new(vec![], Terminator::Halt));
        let mut next = halt;
        for _ in 0..n {
            let f = g.add(MimdState::new(vec![], Terminator::Halt));
            let s = g.add(MimdState::new(vec![], Terminator::Branch { t: next, f }));
            g.state_mut(f).term = Terminator::Jump(next);
            next = s;
        }
        g.start = next;
        g
    }

    fn barrier_diamond() -> MimdGraph {
        let mut g = MimdGraph::new();
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        let mut wait = MimdState::new(vec![], Terminator::Jump(end));
        wait.barrier = true;
        let w = g.add(wait);
        let a = g.add(MimdState::new(vec![], Terminator::Jump(w)));
        let b = g.add(MimdState::new(vec![], Terminator::Jump(w)));
        let start = g.add(MimdState::new(vec![], Terminator::Branch { t: a, f: b }));
        g.start = start;
        g
    }

    fn check_equal_across_threads(graph: &MimdGraph, opts: &ConvertOptions) {
        let (seq, _) = convert_parallel(graph, opts, 1).expect("sequential converts");
        seq.validate().expect("sequential output valid");
        for threads in [2, 4, 8] {
            let (par, _) = convert_parallel(graph, opts, threads).expect("parallel converts");
            assert_eq!(par.sets, seq.sets, "sets differ at {threads} threads");
            assert_eq!(par.succs, seq.succs, "succs differ at {threads} threads");
            assert_eq!(par.start, seq.start);
        }
    }

    #[test]
    fn parallel_matches_sequential_base_mode() {
        let mut opts = ConvertOptions::base();
        opts.costs = Default::default();
        check_equal_across_threads(&branch_chain(6), &opts);
    }

    #[test]
    fn parallel_matches_sequential_compressed_with_subsumption() {
        let opts = ConvertOptions {
            mode: ConvertMode::Compressed,
            ..ConvertOptions::compressed()
        };
        check_equal_across_threads(&branch_chain(6), &opts);
    }

    #[test]
    fn parallel_handles_barriers() {
        check_equal_across_threads(&barrier_diamond(), &ConvertOptions::base());
    }

    #[test]
    fn parallel_respects_meta_state_guard() {
        let opts = ConvertOptions {
            max_meta_states: 4,
            ..ConvertOptions::base()
        };
        let err = convert_parallel(&branch_chain(8), &opts, 4).unwrap_err();
        assert!(
            matches!(err, ConvertError::TooManyMetaStates { limit: 4 }),
            "{err:?}"
        );
    }

    #[test]
    fn deadline_in_the_past_times_out() {
        // `compile_stages`' deadline check runs before the first round at
        // every thread count and with time splitting on, so it wins over a
        // guard that the same conversion would trip.
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let timed_out = || crate::EngineError::TimedOut {
            job: "t".into(),
            timeout: Default::default(),
        };
        for (threads, time_split) in [(1, false), (4, false), (1, true), (4, true)] {
            let opts = ConvertOptions {
                max_meta_states: 4,
                time_split: time_split.then(Default::default),
                ..ConvertOptions::base()
            };
            let err = convert_threads(&branch_chain(10), &opts, threads, || {
                if Instant::now() > past {
                    Err(timed_out())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert!(
                matches!(err, crate::EngineError::TimedOut { .. }),
                "{threads} threads, time_split {time_split}: {err:?}"
            );
        }
    }
}
