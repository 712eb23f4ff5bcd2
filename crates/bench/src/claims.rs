//! The paper's numbers: claims C1–C10 and ablations A1–A4 (EXPERIMENTS.md),
//! then the machine-profile sweep S1 ([`sweep`]) — the body of
//! `BENCH_claims.json`.
//!
//! A claim is a [`table`]: an array of row objects, one per case, keyed
//! by column name, printed by one renderer as it is measured and pinned
//! whole by one `Exact` row of the gate table. Every value is counted by the
//! compiler or a simulator and none is timed, so the file is the same on
//! every machine and EXPERIMENTS.md quotes its tables from it.

use crate::workloads::*;
use crate::{measure_interp, measure_msc, sweep};
use metastate::{Built, ConvertMode, Pipeline, TimeSplitOptions};
use msc_core::{convert, convert_with_stats, ConvertOptions};
use msc_mimd::{InterpInstr, InterpProgram};
use msc_obs::json::Json;
use msc_simd::{MachineConfig, MachineProfile};

/// One claim's table, printed under `title` as it is measured: a
/// right-aligned column per name, fractions to three places. The file
/// holds it as an object per row, keyed by `columns`.
pub fn table<const N: usize>(
    title: &str,
    columns: [&str; N],
    rows: impl IntoIterator<Item = [Json; N]>,
) -> Json {
    let rows: Vec<[Json; N]> = rows.into_iter().collect();
    let cell = |v: &Json| match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() != 0.0 => format!("{n:.3}"),
        v => v.render(),
    };
    let header = columns.map(String::from);
    let lines: Vec<[String; N]> = std::iter::once(header)
        .chain(rows.iter().map(|row| row.each_ref().map(cell)))
        .collect();
    let mut widths = [0; N];
    for line in &lines {
        for (w, s) in widths.iter_mut().zip(line) {
            *w = (*w).max(s.chars().count());
        }
    }
    println!("== {title} ==");
    for line in &lines {
        let cells: Vec<String> = line
            .iter()
            .zip(widths)
            .map(|(s, w)| format!("{s:>w$}"))
            .collect();
        println!("{}", cells.join(" | "));
    }
    println!();
    let row = |values: [Json; N]| Json::obj(columns.into_iter().zip(values));
    Json::Arr(rows.into_iter().map(row).collect())
}

/// Measures one claim's [`table`].
type Claim = fn() -> Json;

/// Every claim: its member of the file, pinned by one `Exact` row of the
/// gate table, and its measurement.
pub(crate) const TABLES: [(&str, Claim); 16] = [
    ("c1", c1),
    ("c2", c2),
    ("c2_chain", c2_chain),
    ("c3", c3),
    ("c4", c4),
    ("c5", c5),
    ("c6", c6),
    ("c6_end_to_end", c6_end_to_end),
    ("c7", c7),
    ("c8", c8),
    ("c9", c9),
    ("c10", c10),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
    ("a4", a4),
];

/// The `BENCH_claims.json` body: every claim's table, then S1 under
/// `profiles`.
pub fn body(profiles: &[MachineProfile]) -> Json {
    let tables = TABLES
        .iter()
        .map(|&(key, measure)| (key.to_string(), measure()));
    let mut fields: Vec<(String, Json)> = tables.collect();
    let s1 = sweep::measure(profiles);
    fields.extend(s1.as_obj().unwrap_or_default().iter().cloned());
    Json::Obj(fields)
}

/// `claims -- claims`: [`body`] over the profiles `mscc sweep` runs by
/// default ([`msc_cli::load_profiles`]: `profiles/` when present, else
/// the bundled matrix). An unreadable or empty `profiles/` is an error.
pub fn measure() -> Result<Json, String> {
    let profiles = msc_cli::load_profiles(&[]).map_err(|e| e.0)?;
    Ok(body(&profiles))
}

fn build(pipe: Pipeline) -> Built {
    pipe.build().unwrap()
}

fn c1() -> Json {
    let rows = [2usize, 3, 4, 5].map(|paths| {
        let src = branchy_source(paths);
        let msc = measure_msc(&src, 16, ConvertMode::Base);
        let it = measure_interp(&src, 16);
        [
            paths.into(),
            msc.cycles.into(),
            it.cycles.into(),
            (it.cycles as f64 / msc.cycles as f64).into(),
            (msc.per_pe_program_words * 8).into(),
            (it.per_pe_program_words * 8).into(),
            (msc.values == it.values).into(),
        ]
    });
    let columns = [
        "paths",
        "msc_cycles",
        "interp_cycles",
        "speedup",
        "msc_bytes_per_pe",
        "interp_bytes_per_pe",
        "same_results",
    ];
    table("C1 (§1.1): branchy_source(paths), 16 PEs", columns, rows)
}

fn c2() -> Json {
    let rows = [2usize, 4, 6, 8, 10].map(|loops| {
        let g = fan_out_loops_graph(loops);
        let mut opts = ConvertOptions::base();
        opts.max_meta_states = 1 << 18;
        let (base, stats) = convert_with_stats(&g, &opts).unwrap();
        let comp = convert(&g, &ConvertOptions::compressed()).unwrap();
        [
            loops.into(),
            base.len().into(),
            comp.len().into(),
            stats.successor_sets_enumerated.into(),
        ]
    });
    let columns = ["loops", "base", "compressed", "successor_sets"];
    table("C2 (§1.2, §2.5): fan_out_loops(loops)", columns, rows)
}

/// Every FALSE arc dies at the exit: explosion needs co-reachable states.
fn c2_chain() -> Json {
    let rows = [4usize, 8, 12].map(|chain| {
        let g = branch_chain_graph(chain);
        let base = convert(&g, &ConvertOptions::base()).unwrap();
        let comp = convert(&g, &ConvertOptions::compressed()).unwrap();
        [chain.into(), base.len().into(), comp.len().into()]
    });
    let columns = ["chain", "base", "compressed"];
    table("C2 control: branch_chain_graph(chain)", columns, rows)
}

fn c3() -> Json {
    let rows = [5usize, 25, 50, 100, 200].map(|long_ops| {
        let plain = Pipeline::new(imbalanced_source(5, long_ops));
        let split = build(plain.clone().time_split(TimeSplitOptions::default()));
        let util = |built: &Built| built.run(16).unwrap().metrics.utilization();
        [
            long_ops.into(),
            util(&build(plain)).into(),
            util(&split).into(),
            u64::from(split.stats.splits).into(),
        ]
    });
    let columns = ["long_ops", "util_unsplit", "util_split", "splits"];
    table(
        "C3 (§2.4): imbalanced_source(5, long_ops), 16 PEs",
        columns,
        rows,
    )
}

fn c4() -> Json {
    let rows = [2usize, 3, 4, 5, 6].map(|paths| {
        let modes = [ConvertMode::Base, ConvertMode::Compressed];
        let [b, c] = modes.map(|mode| build(Pipeline::new(branchy_source(paths)).mode(mode)));
        let cycles = |built: &Built| built.run(16).unwrap().metrics.cycles;
        [
            paths.into(),
            b.automaton.len().into(),
            b.automaton.avg_width().into(),
            cycles(&b).into(),
            c.automaton.len().into(),
            c.automaton.avg_width().into(),
            cycles(&c).into(),
        ]
    });
    let columns = [
        "paths",
        "base_states",
        "base_width",
        "base_cycles",
        "comp_states",
        "comp_width",
        "comp_cycles",
    ];
    table("C4 (§2.5): branchy_source(paths), 16 PEs", columns, rows)
}

fn c5() -> Json {
    let rows = [1usize, 2, 3, 4].map(|phases| {
        let p = msc_lang::compile(&barrier_phases_source(phases)).unwrap();
        let with = convert(&p.graph, &ConvertOptions::base()).unwrap();
        let ignored = ConvertOptions {
            respect_barriers: false,
            ..ConvertOptions::base()
        };
        let without = convert(&p.graph, &ignored).unwrap();
        [
            phases.into(),
            with.len().into(),
            with.avg_width().into(),
            without.len().into(),
            without.avg_width().into(),
        ]
    });
    let columns = [
        "phases",
        "states",
        "width",
        "states_ignored",
        "width_ignored",
    ];
    table("C5 (§2.6): barrier_phases_source(phases)", columns, rows)
}

fn c6() -> Json {
    let shapes = [
        (2usize, 8usize, 2usize),
        (4, 8, 2),
        (8, 8, 2),
        (4, 2, 8),
        (4, 12, 0),
    ];
    let rows = shapes.map(|(threads, shared, private)| {
        let ops = csi_threads(threads, shared, private);
        let sched = msc_csi::induce(&ops).unwrap();
        sched.validate(&ops).unwrap();
        [
            threads.into(),
            shared.into(),
            private.into(),
            sched.naive_cost.into(),
            sched.cost.into(),
            sched.lower_bound.into(),
            (1.0 - sched.cost as f64 / sched.naive_cost as f64).into(),
        ]
    });
    let columns = [
        "threads",
        "shared",
        "private",
        "naive",
        "csi",
        "lower_bound",
        "saved",
    ];
    table(
        "C6 (§3.1): csi_threads(threads, shared, private)",
        columns,
        rows,
    )
}

fn c6_end_to_end() -> Json {
    let cycles = |csi: bool| {
        let gen = msc_codegen::GenOptions {
            csi,
            ..Default::default()
        };
        let pipe = Pipeline::new(branchy_source(4)).mode(ConvertMode::Compressed);
        build(pipe.gen_options(gen)).run(16).unwrap().metrics.cycles
    };
    let row = [4usize.into(), cycles(true).into(), cycles(false).into()];
    let columns = ["paths", "csi_cycles", "no_csi_cycles"];
    table("C6 end to end: compressed, 16 PEs", columns, [row])
}

/// The naive dense table has 2^pc_bits entries.
fn c7() -> Json {
    let shapes = [
        (3usize, 10u32),
        (5, 10),
        (8, 16),
        (16, 24),
        (32, 32),
        (64, 48),
    ];
    let rows = shapes.map(|(n, pc_bits)| {
        let keys = aggregate_keys(n, pc_bits);
        let ph = msc_hash::find_hash(&keys).unwrap();
        [
            keys.len().into(),
            u64::from(pc_bits).into(),
            ph.table.len().into(),
            u64::from(ph.expr.op_count()).into(),
            ph.load_factor().into(),
        ]
    });
    let columns = ["cases", "pc_bits", "table", "hash_ops", "load"];
    table("C7 (§3.2.3): aggregate_keys(cases, pc_bits)", columns, rows)
}

/// Each live PE spawns twice and the two worker generations overlap, so
/// the pool must hold twice the live PEs at once; with none idle the run
/// fails with `SpawnOverflow`.
fn c8() -> Json {
    let built = build(Pipeline::new(
        r#"
        void worker(int seed) {
            poly int r, i;
            r = 0;
            for (i = 0; i < seed; i += 1) { r += seed; }
        }
        main() {
            spawn worker(pe_id() + 3);
            spawn worker(pe_id() + 7);
        }
    "#,
    ));
    let r = built.compiled.layout.var("r").unwrap().addr;
    let rows = [(16usize, 4usize), (16, 5), (4, 4)].map(|(pes, live)| {
        let run = built.run_with(MachineConfig::with_pool(pes, live));
        let [done, idle, cycles, error] = match run {
            Ok(out) => {
                let done = (0..pes).filter(|&pe| out.machine.poly_at(pe, r) != 0);
                let idle = out.machine.idle_count();
                let cycles = out.metrics.cycles;
                [done.count().into(), idle.into(), cycles.into(), Json::Null]
            }
            Err(e) => [Json::Null, Json::Null, Json::Null, e.to_string().into()],
        };
        [pes.into(), live.into(), done, idle, cycles, error]
    });
    let columns = [
        "pes",
        "live",
        "workers_done",
        "idle_at_end",
        "cycles",
        "error",
    ];
    table(
        "C8 (§3.2.5): pes - live PEs idle at the start",
        columns,
        rows,
    )
}

/// The SIMD instruction set has no synchronization opcode: the barriers
/// shaped the automaton. The interpreter's image carries one `Wait` per
/// barrier.
fn c9() -> Json {
    let rows = [1usize, 2, 3].map(|phases| {
        let src = barrier_phases_source(phases);
        let p = msc_lang::compile(&src).unwrap();
        let image = InterpProgram::flatten(&p.graph, p.layout.poly_words, p.layout.mono_words);
        let waits = image
            .image
            .iter()
            .filter(|i| matches!(i, InterpInstr::Wait));
        [
            phases.into(),
            measure_msc(&src, 16, ConvertMode::Base).cycles.into(),
            measure_interp(&src, 16).cycles.into(),
            waits.count().into(),
        ]
    });
    let columns = ["phases", "msc_cycles", "interp_cycles", "interp_waits"];
    table(
        "C9 (§5): barrier_phases_source(phases), 16 PEs",
        columns,
        rows,
    )
}

/// Every compressed transition is an unconditional goto, so its cycles do
/// not depend on the dispatch cost.
fn c10() -> Json {
    let rows = [2u32, 8, 32, 128, 512].map(|dispatch| {
        let costs = msc_ir::CostModel {
            dispatch,
            ..Default::default()
        };
        let cycles = |mode| {
            let pipe = Pipeline::new(branchy_source(3))
                .mode(mode)
                .costs(costs.clone());
            build(pipe).run(16).unwrap().metrics.cycles
        };
        let (b, c) = (cycles(ConvertMode::Base), cycles(ConvertMode::Compressed));
        let winner = if b <= c { "base" } else { "compressed" };
        [
            u64::from(dispatch).into(),
            b.into(),
            c.into(),
            winner.into(),
        ]
    });
    let columns = ["dispatch", "base_cycles", "compressed_cycles", "winner"];
    table("C10: branchy_source(3), 16 PEs", columns, rows)
}

/// Without the fold, compression keeps one subset meta state per fan-out
/// level: Figure 5's two states need it.
fn a1() -> Json {
    let rows = [2usize, 4, 8, 12].map(|loops| {
        let g = fan_out_loops_graph(loops);
        let with = convert(&g, &ConvertOptions::compressed()).unwrap();
        let no_fold = ConvertOptions {
            subsumption: false,
            ..ConvertOptions::compressed()
        };
        let without = convert(&g, &no_fold).unwrap();
        [loops.into(), with.len().into(), without.len().into()]
    });
    let columns = ["loops", "with_fold", "without_fold"];
    table("A1: compressed fan_out_loops(loops)", columns, rows)
}

/// `plain` built as it is and with one IR pass, run on 8 PEs: per
/// variant the MIMD states, meta states, control-unit instructions,
/// cycles and every PE's result.
fn ablation(title: &str, plain: Pipeline, pass: &str, with: fn(Pipeline) -> Pipeline) -> Json {
    let rows = [("none", plain.clone()), (pass, with(plain))].map(|(ir, pipe)| {
        let built = build(pipe);
        let out = built.run(8).unwrap();
        let ret = built.ret_addr().unwrap();
        let results: Vec<Json> = (0..8)
            .map(|pe| out.machine.poly_at(pe, ret).into())
            .collect();
        [
            ir.into(),
            built.compiled.graph.len().into(),
            built.automaton.len().into(),
            built.simd.control_unit_instrs().into(),
            out.metrics.cycles.into(),
            results.into(),
        ]
    });
    let columns = [
        "pass",
        "mimd_states",
        "meta_states",
        "instrs",
        "cycles",
        "results",
    ];
    table(title, columns, rows)
}

/// Duplicated branch arms and the §4.2 while-normalization's duplicated
/// loop test merge; §2.2 inline copies do not (each call site's frame
/// addresses differ).
fn a2() -> Json {
    let src = r#"
        main() {
            poly int x, acc = 0;
            x = pe_id() % 4;
            /* identical bodies in two arms */
            if (x == 0) { acc += 5; acc *= 2; }
            else        { acc += 5; acc *= 2; }
            /* while after a join: pre-test block == in-loop test block */
            while (x > 0) { x -= 1; }
            while (acc > 11) { acc -= 1; }
            return(acc + x);
        }
    "#;
    let title = "A2: bisimulation minimization, 8 PEs";
    ablation(title, Pipeline::new(src), "minimize", Pipeline::minimize)
}

fn a3() -> Json {
    let src = r#"
        main() {
            poly int x;
            x = (2 * 3 + 4) * pe_id() + (10 - 2 * 5);
            if (x * 1 + 0 > 8) { x = x + 2 * 8; } else { x = x - 16 / 4; }
            return(x);
        }
    "#;
    let title = "A3: peephole optimization, 8 PEs";
    ablation(title, Pipeline::new(src), "optimize", Pipeline::optimize)
}

/// Listing 5 folds with shift / xor; `null` is a key set the fold-only
/// families cannot hash within a 2^16 table.
fn a4() -> Json {
    let rows = [(5usize, 10u32), (16, 24), (32, 32), (64, 48)].map(|(n, pc_bits)| {
        let keys = aggregate_keys(n, pc_bits);
        let fold_only = msc_hash::SearchOptions {
            max_table_bits: 16,
            allow_mul: false,
        };
        let fold = msc_hash::find_hash_with(&keys, fold_only).map(|p| p.table.len());
        let with_mul = msc_hash::find_hash(&keys).unwrap().table.len();
        let fold = fold.map_or(Json::Null, Json::from);
        [n.into(), u64::from(pc_bits).into(), fold, with_mul.into()]
    });
    let columns = ["cases", "pc_bits", "fold_only", "with_mul"];
    table("A4: aggregate_keys(cases, pc_bits)", columns, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, BENCHES};

    // Exact on any machine, so every tier-1 leg re-checks the paper's
    // numbers: in RAM, spilled (`MSC_MEMORY_BUDGET`) and scalar
    // (`MSC_NO_SIMD`). The bundled matrix is bit-equal to `profiles/`.
    #[test]
    fn the_committed_claims_are_what_the_code_measures() {
        let committed = msc_obs::json::parse(include_str!("../../../BENCH_claims.json")).unwrap();
        let claims = BENCHES.iter().find(|b| b.name == "claims").unwrap();
        let fresh = body(&MachineProfile::bundled());
        assert_eq!(
            check(&committed, &fresh, claims.gates),
            Vec::<String>::new()
        );
    }
}
