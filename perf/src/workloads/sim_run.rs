//! `sim_run`: the generated code's run time. Set-up builds the
//! `compile_cold` corpus once; the ops are 128 SIMD-machine runs and 64
//! runs of the §1.1 interpreter baseline, all at 1 024 PEs.
//! `simd::machine` and `mimd::interp` do the work; every compile layer is
//! in set-up only, so work moved into set-up shows in `setup_s`.

use super::{reference_results, MODES};
use crate::gen::{corpus, Digest};
use crate::harness::{Ledger, Tracer, Workload};
use metastate::{Built, Pipeline};
use msc_ir::CostModel;
use msc_mimd::interpret_on_simd;
use msc_simd::{MachineConfig, Metrics, SimdMachine};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const NAME: &str = "sim_run";

const PES: usize = 1024;

pub struct SimRun {
    sources: Vec<String>,
    /// `built[2 * i + m]`: source `i` in mode `MODES[m]`.
    built: Vec<Built>,
    expected: Vec<Vec<i64>>,
    costs: CostModel,
    /// Per-PE results of the last pass, in op order: the 128 machine runs,
    /// then the 64 interpreter runs.
    results: Vec<Option<Vec<i64>>>,
}

impl SimRun {
    fn machine_run(&self, b: &Built, config: &MachineConfig) -> Option<(Vec<i64>, Metrics)> {
        let mut machine = SimdMachine::new(black_box(&b.simd), config);
        let metrics = machine.run(&b.simd, config).ok()?;
        let ret = b.ret_addr()?;
        Some((
            (0..PES).map(|pe| machine.poly_at(pe, ret)).collect(),
            metrics,
        ))
    }

    fn interp_run(&self, b: &Built) -> Option<(Vec<i64>, u64)> {
        let layout = &b.compiled.layout;
        let (m, metrics) = interpret_on_simd(
            black_box(&b.compiled.graph),
            layout.poly_words,
            layout.mono_words,
            PES,
            &self.costs,
        )
        .ok()?;
        let ret = layout.main_ret?;
        Some((
            (0..PES).map(|pe| m.poly_at(pe, ret)).collect(),
            metrics.cycles,
        ))
    }
}

impl Workload for SimRun {
    const NAME: &'static str = NAME;

    fn setup(seed: u64) -> Self {
        let sources = corpus(seed);
        let built = sources
            .iter()
            .flat_map(|s| {
                MODES.iter().map(move |&m| {
                    Pipeline::new(s.as_str())
                        .mode(m)
                        .build()
                        .expect("benchmark sources build")
                })
            })
            .collect();
        let expected = sources.iter().map(|s| reference_results(s, PES)).collect();
        SimRun {
            results: Vec::with_capacity(3 * sources.len()),
            sources,
            built,
            expected,
            costs: CostModel::default(),
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
        3 * self.sources.len()
    }

    fn pass(&mut self, latencies: &mut Vec<u64>) -> Duration {
        let mut results = std::mem::take(&mut self.results);
        results.clear();
        let config = MachineConfig::spmd(PES);
        let start = Instant::now();
        for b in &self.built {
            let t = Instant::now();
            let out = self.machine_run(b, &config);
            latencies.push(t.elapsed().as_nanos() as u64);
            results.push(out.map(|(v, _)| v));
        }
        for b in self.built.iter().step_by(2) {
            let t = Instant::now();
            let out = self.interp_run(b);
            latencies.push(t.elapsed().as_nanos() as u64);
            results.push(out.map(|(v, _)| v));
        }
        self.results = results;
        start.elapsed()
    }

    fn check(&mut self, doctor: bool) -> usize {
        if doctor {
            if let Some(Some(v)) = self.results.first_mut() {
                v[PES - 1] ^= 1;
            }
        }
        let machine_runs = self.built.len();
        self.results
            .iter()
            .enumerate()
            .filter(|(op, got)| {
                let src = if *op < machine_runs {
                    op / 2
                } else {
                    op - machine_runs
                };
                got.as_ref() != Some(&self.expected[src])
            })
            .count()
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Duration {
        let config = MachineConfig::spmd(PES);
        let mut total = Metrics::default();
        let (mut base_cycles, mut interp_cycles) = (0u64, 0u64);
        let start = Instant::now();
        for (op, b) in self.built.iter().enumerate() {
            let run_name = if op % 2 == 0 {
                "simd.machine.run_base"
            } else {
                "simd.machine.run_compressed"
            };
            let metrics = tr.span("sim_run.op", op as u32, |tr| {
                let mut machine = tr.leaf("simd.machine.new", op as u32, || {
                    SimdMachine::new(&b.simd, &config)
                });
                tr.leaf(run_name, op as u32, || machine.run(&b.simd, &config).ok())
            });
            if let Some(m) = metrics {
                total.cycles += m.cycles;
                total.issues += m.issues;
                total.dispatches += m.dispatches;
                total.enabled_pe_cycles += m.enabled_pe_cycles;
                total.live_pe_cycles += m.live_pe_cycles;
                if op % 2 == 0 {
                    base_cycles += m.cycles;
                }
            }
        }
        for (i, b) in self.built.iter().step_by(2).enumerate() {
            let op = (self.built.len() + i) as u32;
            let ran = tr.leaf("mimd.interp.run", op, || self.interp_run(b));
            interp_cycles += ran.map_or(0, |(_, cycles)| cycles);
        }
        let mirrored = start.elapsed();
        // The ideal-MIMD side of the oracle, timed at the same width.
        for (i, src) in self.sources.iter().enumerate() {
            tr.leaf("mimd.reference.run", i as u32, || {
                black_box(reference_results(src, PES))
            });
        }

        let run_ms =
            tr.total_ms("simd.machine.run_base") + tr.total_ms("simd.machine.run_compressed");
        ledger.insert("simd.machine.new_ms", tr.total_ms("simd.machine.new"));
        ledger.insert(
            "simd.machine.run_base_ms",
            tr.total_ms("simd.machine.run_base"),
        );
        ledger.insert(
            "simd.machine.run_compressed_ms",
            tr.total_ms("simd.machine.run_compressed"),
        );
        ledger.insert(
            "simd.machine.mcycles_per_s",
            total.cycles as f64 / 1e3 / run_ms,
        );
        ledger.insert("simd.machine.issues", total.issues as f64);
        ledger.insert("simd.machine.dispatches", total.dispatches as f64);
        ledger.insert("simd.machine.utilization", total.utilization());
        ledger.insert("mimd.interp.run_ms", tr.total_ms("mimd.interp.run"));
        ledger.insert("mimd.interp.cycles", interp_cycles as f64);
        ledger.insert("mimd.reference.run_ms", tr.total_ms("mimd.reference.run"));
        ledger.insert("sim_cycles", total.cycles as f64);
        ledger.insert(
            "msc_vs_interp_speedup",
            interp_cycles as f64 / base_cycles as f64,
        );
        mirrored
    }
}
