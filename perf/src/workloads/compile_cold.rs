//! `compile_cold`: 64 seeded sources × {Base, Compressed} through
//! `Pipeline::build`, no cache and no sockets. `codegen`/`csi`/`hash` do
//! most of the work, `core::convert` about a tenth, `lang` a few percent.

use super::{reference_results, MODES};
use crate::gen::{corpus, Digest};
use crate::harness::{Ledger, Tracer, Workload};
use metastate::{Built, ConvertMode, Pipeline};
use msc_codegen::{generate, GenOptions};
use msc_core::{convert_with_stats, ConvertOptions};
use msc_csi::CsiOptions;
use msc_ir::Op;
use msc_simd::Dispatch;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const NAME: &str = "compile_cold";

/// PEs the oracle runs each built program on after the timer stops.
const PES: usize = 64;

pub struct CompileCold {
    sources: Vec<String>,
    /// Per source, the MIMD reference's per-PE results.
    expected: Vec<Vec<i64>>,
    /// Outputs of the last pass, in op order (`None` = the build failed).
    built: Vec<Option<Built>>,
}

/// Op `i` builds source `i / 2` in mode `MODES[i % 2]`.
fn op_list(sources: &[String]) -> impl Iterator<Item = (&str, ConvertMode)> {
    sources
        .iter()
        .flat_map(|s| MODES.iter().map(move |&m| (s.as_str(), m)))
}

fn convert_options(mode: ConvertMode) -> ConvertOptions {
    match mode {
        ConvertMode::Base => ConvertOptions::base(),
        ConvertMode::Compressed => ConvertOptions::compressed(),
    }
}

/// Run `built` on `n_pe` PEs: per-PE results and the machine's metrics.
fn execute(built: &Built, n_pe: usize) -> Option<(Vec<i64>, msc_simd::Metrics)> {
    let out = built.run(n_pe).ok()?;
    let ret = built.ret_addr()?;
    let values = (0..n_pe).map(|pe| out.machine.poly_at(pe, ret)).collect();
    Some((values, out.metrics))
}

impl Workload for CompileCold {
    const NAME: &'static str = NAME;

    fn setup(seed: u64) -> Self {
        let sources = corpus(seed);
        let expected = sources.iter().map(|s| reference_results(s, PES)).collect();
        let built = Vec::with_capacity(2 * sources.len());
        CompileCold {
            sources,
            expected,
            built,
        }
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.sources {
            d.field(s.as_bytes());
        }
        d.finish()
    }

    fn ops(&self) -> usize {
        2 * self.sources.len()
    }

    fn pass(&mut self, latencies: &mut Vec<u64>) -> Duration {
        self.built.clear();
        let start = Instant::now();
        for (src, mode) in op_list(&self.sources) {
            let t = Instant::now();
            let built = black_box(Pipeline::new(black_box(src)).mode(mode).build());
            latencies.push(t.elapsed().as_nanos() as u64);
            self.built.push(built.ok());
        }
        start.elapsed()
    }

    fn check(&mut self, doctor: bool) -> usize {
        let mut failed = 0;
        for (op, built) in self.built.iter().enumerate() {
            let got = built
                .as_ref()
                .and_then(|b| execute(b, PES))
                .map(|(mut v, _)| {
                    if doctor && op == 0 {
                        v[PES / 2] ^= 1;
                    }
                    v
                });
            if got.as_ref() != Some(&self.expected[op / 2]) {
                failed += 1;
            }
        }
        failed
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Duration {
        let gen_opts = GenOptions::default();
        let csi_opts = CsiOptions {
            costs: gen_opts.costs.clone(),
            ..Default::default()
        };
        let mut mirrored = Duration::ZERO;
        let mut count = Ledger::new();
        let mut add = |name: &'static str, n: usize| *count.entry(name).or_default() += n as f64;
        let mut staged = Vec::with_capacity(self.ops());

        for (op, (src, mode)) in op_list(&self.sources).enumerate() {
            let op = op as u32;
            let opts = convert_options(mode);
            let t = Instant::now();
            let stages = tr.span("compile_cold.op", op, |tr| {
                let ast = tr.leaf("lang.parse", op, || msc_lang::parse(src)).ok()?;
                let prog = tr
                    .leaf("lang.lower", op, || msc_lang::lower::lower(&ast))
                    .ok()?;
                let (auto, stats) = tr
                    .leaf("core.convert", op, || {
                        convert_with_stats(&prog.graph, &opts)
                    })
                    .ok()?;
                let simd = tr
                    .leaf("codegen.generate", op, || {
                        generate(
                            &auto,
                            prog.layout.poly_words,
                            prog.layout.mono_words,
                            &gen_opts,
                        )
                    })
                    .ok()?;
                Some((prog, auto, stats, simd))
            });
            mirrored += t.elapsed();

            // Replays from outside: what `parse` spends lexing, and what
            // `generate` spends in CSI and in the perfect-hash search.
            let tokens = tr.leaf("lang.lex", op, || msc_lang::lex(src));
            add("lang.tokens", tokens.map_or(0, |t| t.len()));
            let Some((prog, auto, stats, simd)) = stages else {
                staged.push(None);
                continue;
            };
            let threads: Vec<Vec<Vec<Op>>> = tr.leaf("harness.replay_inputs", op, || {
                auto.sets
                    .iter()
                    .map(|set| {
                        set.iter()
                            .map(|m| auto.graph.state(m).ops.clone())
                            .collect()
                    })
                    .collect()
            });
            let issues = tr.leaf("csi.induce", op, || {
                threads
                    .iter()
                    .map(|t| msc_csi::induce_with(t, &csi_opts).map_or(0, |s| s.issues()))
                    .sum::<usize>()
            });
            add("csi.issues", issues);
            add(
                "csi.serialized",
                threads.iter().flatten().map(Vec::len).sum::<usize>(),
            );
            let tables: Vec<&msc_hash::PerfectHash> = simd
                .blocks
                .iter()
                .filter_map(|b| match &b.dispatch {
                    Dispatch::Hashed { hash, .. } => Some(hash),
                    _ => None,
                })
                .collect();
            tr.leaf("hash.find", op, || {
                for h in &tables {
                    let _ = black_box(msc_hash::find_hash_with(&h.keys, gen_opts.hash_search));
                }
            });
            add("hash.tables", tables.len());
            add(
                "hash.keys",
                tables.iter().map(|h| h.keys.len()).sum::<usize>(),
            );
            add(
                "hash.slots",
                tables.iter().map(|h| h.table.len()).sum::<usize>(),
            );
            add("ir.mimd_states", prog.graph.len());
            add("meta_states", auto.len());
            add(
                "core.successor_sets",
                stats.successor_sets_enumerated as usize,
            );
            add("code_instrs", simd.control_unit_instrs());
            staged.push(Some(Built {
                compiled: prog,
                automaton: auto,
                stats,
                simd,
            }));
        }

        // The oracle's two sides, timed: generated code on the SIMD
        // machine, and the reference it is compared with.
        for (op, built) in staged.iter().enumerate() {
            let ran = tr.leaf("simd.machine.verify", op as u32, || {
                built.as_ref().and_then(|b| execute(b, PES))
            });
            add("sim_cycles", ran.map_or(0, |(_, m)| m.cycles as usize));
        }
        for (i, src) in self.sources.iter().enumerate() {
            let again = tr.leaf("mimd.reference.verify", 2 * i as u32, || {
                reference_results(src, PES)
            });
            assert_eq!(again, self.expected[i], "the reference is deterministic");
        }

        let lex = tr.total_ms("lang.lex");
        let (csi, hash) = (tr.total_ms("csi.induce"), tr.total_ms("hash.find"));
        let generate_ms = tr.total_ms("codegen.generate");
        ledger.insert("lang.lex_ms", lex);
        ledger.insert("lang.parse_ms", tr.total_ms("lang.parse") - lex);
        ledger.insert("lang.lower_ms", tr.total_ms("lang.lower"));
        ledger.insert("core.convert_ms", tr.total_ms("core.convert"));
        ledger.insert("codegen.generate_ms", generate_ms);
        ledger.insert("codegen.self_ms", generate_ms - csi - hash);
        ledger.insert("csi.induce_ms", csi);
        ledger.insert("hash.find_ms", hash);
        ledger.insert("simd.machine.verify_ms", tr.total_ms("simd.machine.verify"));
        ledger.insert(
            "mimd.reference.verify_ms",
            tr.total_ms("mimd.reference.verify"),
        );
        ledger.insert(
            "csi.issue_ratio",
            count["csi.issues"] / count["csi.serialized"],
        );
        ledger.insert("hash.load_factor", count["hash.keys"] / count["hash.slots"]);
        for name in [
            "lang.tokens",
            "ir.mimd_states",
            "meta_states",
            "core.successor_sets",
            "code_instrs",
            "sim_cycles",
            "hash.tables",
        ] {
            ledger.insert(name, count[name]);
        }
        mirrored
    }
}
