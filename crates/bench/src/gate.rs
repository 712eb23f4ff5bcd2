//! The regression gates over the three committed `BENCH_*.json` baselines.
//!
//! One row of [`BENCHES`] per bench: how to measure it and which of the
//! measured numbers are gated, by which [`Rule`]. A measurement is a
//! [`Json`] object shaped exactly like the committed file (the file is
//! the measurement plus `generated_by` and `env`), so one [`check`]
//! compares any bench against its baseline, [`msc_obs::json::parse`] is
//! the only reader, and [`regenerate`] / [`recheck`] the only writers.
//!
//! A gated metric that is absent — from the committed file (a key renamed
//! or deleted, at top level or in one table row) or
//! from the measurement — is a gate *failure* naming the path, never a
//! skipped row.
//!
//! No row judges a wall-clock number: that is `perf`'s job (alternated
//! pairs, a bound per metric). A row here is a count or an invariant
//! ([`Rule::Exact`], [`Rule::Approx`], [`Rule::True`], [`Rule::Zero`],
//! [`Rule::Nonzero`]: enforced wherever the gate runs), a ratio of two
//! timings taken inside one process, or a bench's one catastrophe floor.
//! The last two kinds ([`Rule::Within`], [`Rule::AtLeast`],
//! [`Rule::AtMost`]) still depend on the box, so they bite only on the
//! machine whose `env` the baseline carries and print report-only
//! anywhere else.

use crate::{claims, timed};
use msc_obs::json::{parse, Json};
use std::path::Path;

/// How a measured value is held against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Equal to the committed value (deterministic counts).
    Exact,
    /// At most this fraction below the committed value (`0.30` = 30%);
    /// running faster than the baseline is always fine.
    Within(f64),
    /// Within this absolute distance of the committed value.
    Approx(f64),
    /// At least the baseline's `targets.*` floor.
    AtLeast,
    /// At most the baseline's `targets.*` ceiling.
    AtMost,
    /// Invariant of the measurement alone: `true`.
    True,
    /// Invariant of the measurement alone: `0`.
    Zero,
    /// Invariant of the measurement alone: not `0`.
    Nonzero,
}

impl Rule {
    /// Derived from a timing, so only comparable on the machine that
    /// measured the baseline.
    fn is_timing(self) -> bool {
        matches!(self, Rule::Within(_) | Rule::AtLeast | Rule::AtMost)
    }
}

/// The `env` keys a timing row needs equal on both sides.
const SAME_MACHINE: [&str; 3] = ["nproc", "cpu", "simd_lanes"];

/// Why the timing rows of `baseline` cannot bite on the machine `measured`
/// was taken on: the first [`SAME_MACHINE`] key the two `env` blocks
/// differ on (a file without one differs on the first). `None` when they
/// are the same machine.
fn machine_differs(baseline: &Json, measured: &Json) -> Option<String> {
    let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::render);
    SAME_MACHINE.iter().find_map(|key| {
        let path = format!("env.{key}");
        let (b, m) = (lookup(baseline, &path), lookup(measured, &path));
        (b.is_none() || b != m)
            .then(|| format!("env.{key}: baseline {}, here {}", show(b), show(m)))
    })
}

/// One gated metric.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Path of the metric in the measurement (see [`lookup`]).
    pub path: &'static str,
    pub rule: Rule,
    /// Baseline path the rule compares against when it is not `path`
    /// itself: a `targets.*` key, or another committed field.
    pub against: Option<&'static str>,
    /// What a failure means, appended to the failure line.
    pub note: &'static str,
}

const fn gate(path: &'static str, rule: Rule, note: &'static str) -> Gate {
    Gate {
        path,
        rule,
        against: None,
        note,
    }
}

const fn gate_vs(
    path: &'static str,
    rule: Rule,
    against: &'static str,
    note: &'static str,
) -> Gate {
    Gate {
        against: Some(against),
        ..gate(path, rule, note)
    }
}

/// Resolve a dotted path: `targets.t1_mbps_min` walks objects, and
/// `profiles[name=wide-simd].cycles` / `c2[loops=10].base` pick the array
/// row whose `name` / `loops` member is that value.
pub fn lookup<'a>(root: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(root, |node, seg| {
        let Some((field, sel)) = seg.split_once('[') else {
            return node.get(seg);
        };
        let (key, want) = sel.strip_suffix(']')?.split_once('=')?;
        let rows = node.get(field)?.as_arr()?;
        rows.iter().find(|row| row_is(row, key, want))
    })
}

fn row_is(row: &Json, key: &str, want: &str) -> bool {
    match row.get(key) {
        Some(Json::Str(s)) => s == want,
        Some(Json::Num(n)) => want.parse() == Ok(*n),
        _ => false,
    }
}

impl Gate {
    /// The baseline path this gate reads; `None` for the invariants,
    /// which look at the measurement alone.
    pub fn baseline_path(&self) -> Option<&'static str> {
        match self.rule {
            Rule::True | Rule::Zero | Rule::Nonzero => None,
            _ => Some(self.against.unwrap_or(self.path)),
        }
    }

    /// Hold one measurement against one baseline, both as stamped files:
    /// `Ok` is the report line of a passing (or report-only) gate, `Err`
    /// the failure line. Both start with the metric path.
    pub fn eval(&self, baseline: &Json, measured: &Json) -> Result<String, String> {
        let fail = |why: String| format!("{}: {why}", self.path);
        let m = lookup(measured, self.path)
            .ok_or_else(|| fail("missing from the measurement".into()))?;
        let (b, source) = match self.baseline_path() {
            Some(p) => (
                lookup(baseline, p)
                    .ok_or_else(|| fail(format!("`{p}` missing from the committed baseline")))?,
                self.against.unwrap_or("committed"),
            ),
            None => (&Json::Null, ""),
        };
        let num = |v: &Json| {
            v.as_f64()
                .ok_or_else(|| fail(format!("{} is not a number", v.render())))
        };
        // A table that moved is shown at its first differing cell.
        let (m, b, at) = match self.rule {
            Rule::Exact => first_difference(m, b),
            _ => (m, b, String::new()),
        };
        let at = if at.is_empty() {
            at
        } else {
            format!(" at {at}")
        };
        let (ok, want) = match self.rule {
            Rule::Exact => (m == b, format!("== {}{at} ({source})", show(b))),
            Rule::Within(tol) => {
                let floor = num(b)? * (1.0 - tol);
                let pct = tol * 100.0;
                (
                    num(m)? >= floor,
                    format!(">= {floor:.2} ({source} {} less {pct:.0}%)", show(b)),
                )
            }
            Rule::Approx(eps) => (
                (num(m)? - num(b)?).abs() <= eps,
                format!("within {eps} of {} ({source})", show(b)),
            ),
            Rule::AtLeast => (num(m)? >= num(b)?, format!(">= {} ({source})", show(b))),
            Rule::AtMost => (num(m)? <= num(b)?, format!("<= {} ({source})", show(b))),
            Rule::True => (m == &Json::Bool(true), "true".into()),
            Rule::Zero => (num(m)? == 0.0, "0".into()),
            Rule::Nonzero => (num(m)? != 0.0, "nonzero".into()),
        };
        let line = format!("{}: {}, want {want}", self.path, show(m));
        let elsewhere = self
            .rule
            .is_timing()
            .then(|| machine_differs(baseline, measured))
            .flatten();
        if let Some(why) = elsewhere {
            Ok(format!("{line} — REPORT-ONLY, {why}"))
        } else if ok {
            Ok(line)
        } else {
            Err(fail(format!(
                "measured {}, want {want} — {}",
                show(m),
                self.note
            )))
        }
    }
}

/// A value for a report line: timings to three places, a table by its
/// length, the rest as is.
fn show(v: &Json) -> String {
    match v {
        Json::Num(n) if n.fract() != 0.0 => format!("{n:.3}"),
        Json::Arr(rows) => format!("{} rows", rows.len()),
        _ => v.render(),
    }
}

/// The first cell at which two tables differ: both values and the path
/// from the table to them (`[4].base`). Equal values, and values that are
/// not two tables of one shape, are their own answer, at an empty path.
fn first_difference<'a>(m: &'a Json, b: &'a Json) -> (&'a Json, &'a Json, String) {
    let child = match (m, b) {
        (Json::Arr(ms), Json::Arr(bs)) if ms.len() == bs.len() => {
            let mut cells = ms.iter().zip(bs).enumerate();
            let differs = cells.find(|(_, (x, y))| x != y);
            differs.map(|(i, (x, y))| (x, y, format!("[{i}]")))
        }
        (Json::Obj(ms), Json::Obj(_)) => ms.iter().find_map(|(k, x)| {
            let y = b.get(k)?;
            (x != y).then(|| (x, y, format!(".{k}")))
        }),
        _ => None,
    };
    match child {
        Some((x, y, at)) => {
            let (x, y, below) = first_difference(x, y);
            (x, y, at + &below)
        }
        None => (m, b, String::new()),
    }
}

/// Every gate `measured` fails against `baseline`, one line each — empty
/// means the bench passes.
pub fn check(baseline: &Json, measured: &Json, gates: &[Gate]) -> Vec<String> {
    gates
        .iter()
        .filter_map(|g| g.eval(baseline, measured).err())
        .collect()
}

/// One gated bench.
pub struct Bench {
    /// The `claims` argument; the baseline is `BENCH_<name>.json`.
    pub name: &'static str,
    /// One measurement pass, printing its table as it goes. The result
    /// is the body of the baseline file.
    pub measure: fn() -> Result<Json, String>,
    pub gates: &'static [Gate],
}

impl Bench {
    /// The committed baseline, relative to the repository root.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

const REGEX: &[Gate] = &[
    gate(
        "spans_agree",
        Rule::True,
        "sharded scan produced different spans than the sequential scan",
    ),
    gate(
        "dfa_vs_naive_speedup",
        Rule::Within(0.50),
        "compiled matching stopped beating the AST-walking reference",
    ),
    gate_vs(
        "t1_mbps",
        Rule::AtLeast,
        "targets.t1_mbps_min",
        "1-thread throughput below its floor",
    ),
    // On two vCPUs this floor needs both idle.
    gate_vs(
        "t2_vs_t1",
        Rule::AtLeast,
        "targets.t2_vs_t1_min",
        "the second scan thread stopped paying",
    ),
    gate_vs(
        "t8_vs_t1",
        Rule::AtLeast,
        "targets.t8_vs_t1_min",
        "sharded stitching overhead blew up",
    ),
];

const EXPLOSION: &[Gate] = &[
    gate(
        "spill_identical",
        Rule::True,
        "spilled conversion diverged from the in-RAM automaton",
    ),
    gate(
        "spill_bytes",
        Rule::Nonzero,
        "the budget spilled nothing: out-of-core path not exercised",
    ),
    gate(
        "meta_states",
        Rule::Exact,
        "conversion is deterministic: the converter or the workload changed",
    ),
    gate(
        "succ_edges_stored",
        Rule::Exact,
        "a meta state that takes another's successor list stores it again, or the converter \
         changed",
    ),
    gate(
        "spill_reloads",
        Rule::Exact,
        "reads from disk are deterministic: the block cache, the budget split or the converter \
         changed",
    ),
    gate(
        "in_ram_states_per_sec",
        Rule::Within(0.50),
        "in-RAM conversion throughput regressed",
    ),
    gate(
        "spilled_vs_in_ram",
        Rule::Within(0.50),
        "spilling costs more of the in-RAM conversion's speed than it did",
    ),
    gate_vs(
        "obs_disabled_overhead_pct",
        Rule::AtMost,
        "targets.obs_disabled_overhead_pct_max",
        "the disabled instrumentation costs the conversion more than it did",
    ),
];

// The compiler and the simulators count, they time nothing: every claim
// is a table pinned whole, and S1 keeps its per-profile rows. The
// speedups are ratios of exact integers.
const TABLE_NOTE: &str = "a paper number moved: the converter, codegen, a simulator or a \
                          workload changed (regenerate and update EXPERIMENTS.md)";
const CYCLES_NOTE: &str = "deterministic: any drift is a conversion or cost-model change";
const SPEEDUP_NOTE: &str = "speedup vs the interpreter baseline moved";
const SWEEP: [Gate; 14] = [
    gate("profiles", Rule::Exact, TABLE_NOTE),
    gate("time_split_by_profile", Rule::Exact, TABLE_NOTE),
    gate(
        "profiles[name=paper-default].cycles",
        Rule::Exact,
        CYCLES_NOTE,
    ),
    gate("profiles[name=wide-simd].cycles", Rule::Exact, CYCLES_NOTE),
    gate(
        "profiles[name=slow-globalor].cycles",
        Rule::Exact,
        CYCLES_NOTE,
    ),
    gate(
        "profiles[name=cheap-dispatch].cycles",
        Rule::Exact,
        CYCLES_NOTE,
    ),
    gate(
        "profiles[name=paper-default].speedup",
        Rule::Approx(0.01),
        SPEEDUP_NOTE,
    ),
    gate(
        "profiles[name=wide-simd].speedup",
        Rule::Approx(0.01),
        SPEEDUP_NOTE,
    ),
    gate(
        "profiles[name=slow-globalor].speedup",
        Rule::Approx(0.01),
        SPEEDUP_NOTE,
    ),
    gate(
        "profiles[name=cheap-dispatch].speedup",
        Rule::Approx(0.01),
        SPEEDUP_NOTE,
    ),
    gate(
        "hard_coded_cycles",
        Rule::Exact,
        "the default cost model itself moved",
    ),
    gate(
        "paper_default_is_hard_coded",
        Rule::True,
        "profile ≡ default bit-identity broken",
    ),
    gate(
        "cheap_dispatch_not_slower",
        Rule::True,
        "cheap-dispatch slower than paper-default on the dispatch-heavy workload",
    ),
    gate(
        "slow_globalor_not_faster",
        Rule::True,
        "slow-globalor faster than paper-default: router latency not charged",
    ),
];
/// One `Exact` row per [`claims::TABLES`] member, then S1's rows.
const CLAIMS: &[Gate] = &{
    let mut gates = [gate("", Rule::Exact, TABLE_NOTE); claims::TABLES.len() + SWEEP.len()];
    let tables = claims::TABLES.len();
    let mut i = 0;
    while i < gates.len() {
        gates[i] = if i < tables {
            gate(claims::TABLES[i].0, Rule::Exact, TABLE_NOTE)
        } else {
            SWEEP[i - tables]
        };
        i += 1;
    }
    gates
};

/// Every bench with a committed baseline, in `claims` order.
pub static BENCHES: [Bench; 3] = [
    Bench {
        name: "claims",
        measure: claims::measure,
        gates: CLAIMS,
    },
    Bench {
        name: "regex",
        measure: timed::measure_regex,
        gates: REGEX,
    },
    Bench {
        name: "explosion",
        measure: timed::measure_explosion,
        gates: EXPLOSION,
    },
];

/// The machine a file was measured on.
fn env() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu", Json::from(cpu)),
        ("simd_lanes", Json::from(msc_simd::setops::lanes().name())),
        ("reactor", Json::from(msc_serve::reactor_available())),
    ])
}

/// A measurement as a file: `body` between `generated_by` and the
/// [`env`] it was taken on.
fn stamped(generated_by: &str, body: &Json) -> Json {
    let fields = body.as_obj().unwrap_or_default().iter().cloned();
    Json::Obj(
        [("generated_by".to_string(), Json::from(generated_by))]
            .into_iter()
            .chain(fields)
            .chain([("env".to_string(), env())])
            .collect(),
    )
}

/// `body` as the committed baseline of `bench` — unless the measurement
/// breaks its own invariants or targets, which is a failed run, not a
/// baseline (against itself every committed-relative rule holds).
fn baseline_file(bench: &Bench, body: &Json) -> Result<Json, String> {
    let name = bench.name;
    let by = format!("cargo run --release -p msc-bench --bin claims -- {name}");
    let file = stamped(&by, body);
    let failures = check(&file, &file, bench.gates);
    if failures.is_empty() {
        Ok(file)
    } else {
        let path = bench.file();
        Err(format!("not writing {path}: {}", failures.join("; ")))
    }
}

/// `claims -- <name>`: measure and write the committed baseline.
pub fn regenerate(bench: &Bench) -> Result<(), String> {
    let (name, path) = (bench.name, bench.file());
    println!("== {name}: measuring the committed baseline {path} ==\n");
    let body = (bench.measure)().map_err(|e| format!("measurement failed: {e}"))?;
    let file = baseline_file(bench, &body)?;
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    println!("\nwrote {path}\n");
    Ok(())
}

/// `claims -- <name> --check`: re-measure and gate against the committed
/// baseline, leaving the numbers this machine saw next to (not over) it
/// in `bench-remeasured/` for CI to upload.
pub fn recheck(bench: &Bench) -> Result<(), String> {
    let (name, file) = (bench.name, bench.file());
    println!("== {name} --check: regression gate vs committed {file} ==\n");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let baseline = parse(&text).map_err(|e| format!("{file}: {e}"))?;
    let body = (bench.measure)().map_err(|e| format!("measurement failed: {e}"))?;
    let measured = stamped(&format!("claims -- {name} --check"), &body);
    if let Some(why) = machine_differs(&baseline, &measured) {
        println!("\nnot the machine {file} was measured on ({why}): timing rows report only");
    }

    // Best-effort: never fails the gate over an unwritable disk.
    let dir = Path::new("bench-remeasured");
    let snapshot = dir.join(&file);
    let rendered = measured.render() + "\n";
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&snapshot, rendered)) {
        Ok(()) => println!("\nre-measured snapshot: {}", snapshot.display()),
        Err(e) => eprintln!("note: could not write {}: {e}", snapshot.display()),
    }

    let mut failed = 0;
    for g in bench.gates {
        match g.eval(&baseline, &measured) {
            Ok(line) => println!("  {line}"),
            Err(line) => {
                eprintln!("REGRESSION: {line}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!("regression gate FAILED: {failed} regression(s)"));
    }
    println!(
        "\n{name} regression gate OK ({} gates)\n",
        bench.gates.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(bench: &Bench) -> Json {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), bench.file());
        parse(&std::fs::read_to_string(&path).expect(&path)).expect(&path)
    }

    fn bench(name: &str) -> &'static Bench {
        BENCHES.iter().find(|b| b.name == name).expect(name)
    }

    /// [`lookup`] for editing.
    fn lookup_mut<'a>(root: &'a mut Json, path: &str) -> Option<&'a mut Json> {
        path.split('.').try_fold(root, |node, seg| {
            let Json::Obj(fields) = node else {
                return None;
            };
            let (field, sel) = match seg.split_once('[') {
                Some((field, sel)) => (field, Some(sel)),
                None => (seg, None),
            };
            let child = &mut fields.iter_mut().find(|(k, _)| k == field)?.1;
            let Some(sel) = sel else {
                return Some(child);
            };
            let (key, want) = sel.strip_suffix(']')?.split_once('=')?;
            let Json::Arr(rows) = child else {
                return None;
            };
            rows.iter_mut().find(|row| row_is(row, key, want))
        })
    }

    /// Set (`Some`) or delete (`None`) the member at `path`.
    fn edit(root: &mut Json, path: &str, value: Option<Json>) {
        let (parent, key) = match path.rsplit_once('.') {
            Some((parent, key)) => (lookup_mut(root, parent).expect(path), key),
            None => (root, path),
        };
        let Json::Obj(fields) = parent else {
            panic!("{path}: parent is not an object");
        };
        fields.retain(|(k, _)| k != key);
        if let Some(v) = value {
            fields.push((key.to_string(), v));
        }
    }

    /// A committed file without its stamp: what its measurement returned.
    fn body_of(mut file: Json) -> Json {
        edit(&mut file, "generated_by", None);
        edit(&mut file, "env", None);
        file
    }

    fn num(root: &Json, path: &str) -> f64 {
        lookup(root, path).and_then(Json::as_f64).expect(path)
    }

    fn names(failures: &[String], g: &Gate) -> bool {
        failures
            .iter()
            .any(|f| f.starts_with(&format!("{}: ", g.path)))
    }

    /// `outer` is `inner`'s path or a table `inner` is a row or cell of.
    fn holds(outer: &str, inner: &str) -> bool {
        let rest = inner.strip_prefix(outer);
        rest.is_some_and(|r| r.is_empty() || r.starts_with(['.', '[']))
    }

    /// The gate a failure line is about shares its value with `g`: `g`
    /// itself, a table holding it, or a cell of it.
    fn about(failure: &str, g: &Gate, gates: &[Gate]) -> bool {
        gates.iter().any(|h| {
            (holds(h.path, g.path) || holds(g.path, h.path))
                && failure.starts_with(&format!("{}: ", h.path))
        })
    }

    /// Every copy of `v` with exactly one leaf changed.
    fn doctored_leaves(v: &Json) -> Vec<Json> {
        match v {
            Json::Arr(items) => (0..items.len())
                .flat_map(|i| {
                    doctored_leaves(&items[i]).into_iter().map(move |leaf| {
                        let mut copy = items.clone();
                        copy[i] = leaf;
                        Json::Arr(copy)
                    })
                })
                .collect(),
            Json::Obj(fields) => (0..fields.len())
                .flat_map(|i| {
                    doctored_leaves(&fields[i].1).into_iter().map(move |leaf| {
                        let mut copy = fields.clone();
                        copy[i].1 = leaf;
                        Json::Obj(copy)
                    })
                })
                .collect(),
            Json::Num(n) => vec![Json::Num(n + 1.0)],
            Json::Bool(b) => vec![Json::Bool(!b)],
            Json::Str(s) => vec![Json::Str(format!("{s}?"))],
            Json::Null => vec![Json::from(0u64)],
        }
    }

    #[test]
    fn every_committed_file_passes_its_own_gates_on_its_own_machine() {
        for bench in &BENCHES {
            let file = committed(bench);
            assert_eq!(
                check(&file, &file, bench.gates),
                Vec::<String>::new(),
                "{}",
                bench.file()
            );
            for key in ["nproc", "cpu", "simd_lanes", "reactor"] {
                let path = format!("env.{key}");
                assert!(lookup(&file, &path).is_some(), "{}: {path}", bench.file());
            }
            assert_eq!(machine_differs(&file, &file), None, "{}", bench.file());
            // A `targets` key is a floor or ceiling some row reads.
            let targets = lookup(&file, "targets").and_then(Json::as_obj);
            for (key, _) in targets.unwrap_or_default() {
                let path = format!("targets.{key}");
                assert!(
                    bench.gates.iter().any(|g| g.against == Some(path.as_str())),
                    "{}: no row reads {path}",
                    bench.file()
                );
            }
        }
        // The shape the gates lean on.
        let claims = committed(bench("claims"));
        assert_eq!(
            num(&claims, "profiles[name=paper-default].cycles"),
            num(&claims, "hard_coded_cycles"),
            "bit-identity anchor"
        );
    }

    #[test]
    fn timing_rows_bite_only_on_the_machine_that_measured_them() {
        let explosion = bench("explosion");
        let baseline = committed(explosion);
        // Two timing rows (a floor and a ceiling) and two unconditional
        // ones, all four broken.
        let mut bad = baseline.clone();
        edit(&mut bad, "in_ram_states_per_sec", Some(Json::from(1.0)));
        edit(&mut bad, "obs_disabled_overhead_pct", Some(Json::from(5.0)));
        edit(&mut bad, "meta_states", Some(Json::from(7u64)));
        edit(&mut bad, "spill_identical", Some(Json::Bool(false)));
        let timing = explosion
            .gates
            .iter()
            .find(|g| g.path == "in_ram_states_per_sec")
            .unwrap();
        let failed = |baseline: &Json, measured: &Json| -> Vec<String> {
            check(baseline, measured, explosion.gates)
                .iter()
                .map(|f| f.split(':').next().unwrap().to_string())
                .collect()
        };

        // Same machine: all four fail.
        assert_eq!(
            failed(&baseline, &bad),
            [
                "spill_identical",
                "meta_states",
                "in_ram_states_per_sec",
                "obs_disabled_overhead_pct"
            ]
        );
        // Measured on another core count: the timing rows report, naming
        // the key; the count and the invariant still fail.
        let mut elsewhere = bad.clone();
        edit(&mut elsewhere, "env.nproc", Some(Json::from(64u64)));
        assert_eq!(
            failed(&baseline, &elsewhere),
            ["spill_identical", "meta_states"]
        );
        let line = timing.eval(&baseline, &elsewhere).unwrap();
        assert!(
            line.contains("REPORT-ONLY") && line.contains("env.nproc"),
            "{line}"
        );
        // A baseline that does not say where it was measured: the same.
        let mut anonymous = baseline.clone();
        edit(&mut anonymous, "env", None);
        assert_eq!(failed(&anonymous, &bad), ["spill_identical", "meta_states"]);
        let line = timing.eval(&anonymous, &bad).unwrap();
        assert!(
            line.contains("REPORT-ONLY") && line.contains("baseline absent"),
            "{line}"
        );
        // `cpu` and `simd_lanes` count as the machine; `reactor` does not.
        for (key, differs) in [("cpu", true), ("simd_lanes", true), ("reactor", false)] {
            let mut m = bad.clone();
            edit(&mut m, &format!("env.{key}"), Some(Json::from("other")));
            assert_eq!(timing.eval(&baseline, &m).is_ok(), differs, "{key}");
        }
    }

    #[test]
    fn every_gate_bites_when_doctored() {
        for bench in &BENCHES {
            // What an honest re-run on the committed machine measures: the
            // committed file itself.
            let baseline = committed(bench);
            let honest = baseline.clone();
            for g in bench.gates {
                let m = lookup(&honest, g.path).unwrap();
                if let Some(p) = g.baseline_path() {
                    // (a) the committed value doctored past the rule; a
                    // table (and a count) at every leaf, one at a time
                    let doctored = match g.rule {
                        Rule::Within(_) => vec![Json::from(num(&baseline, p) * 4.0)],
                        Rule::AtLeast => vec![Json::from(m.as_f64().unwrap() * 2.0 + 1.0)],
                        Rule::AtMost => vec![Json::from(m.as_f64().unwrap() / 2.0 - 1.0)],
                        _ => doctored_leaves(lookup(&baseline, p).unwrap()),
                    };
                    for value in doctored {
                        let mut bad = baseline.clone();
                        edit(&mut bad, p, Some(value));
                        let failures = check(&bad, &honest, bench.gates);
                        assert!(names(&failures, g), "{p} doctored: {failures:?}");
                    }
                    // (b) the committed key deleted
                    let mut bad = baseline.clone();
                    edit(&mut bad, p, None);
                    let failures = check(&bad, &honest, bench.gates);
                    assert!(names(&failures, g), "{p} deleted: {failures:?}");
                    assert!(
                        failures
                            .iter()
                            .all(|f| f.contains("missing from the committed")
                                || about(f, g, bench.gates)),
                        "{failures:?}"
                    );
                }
                // (c) the measured value broken, then gone
                let broken = match g.rule {
                    Rule::True => vec![Json::Bool(false)],
                    Rule::Zero => vec![Json::from(3u64)],
                    Rule::Nonzero => vec![Json::from(0u64)],
                    Rule::Within(_) => vec![Json::from(m.as_f64().unwrap() * 0.1)],
                    Rule::AtLeast => {
                        vec![Json::from(
                            num(&baseline, g.baseline_path().unwrap()) / 2.0 - 1.0,
                        )]
                    }
                    Rule::AtMost => {
                        vec![Json::from(
                            num(&baseline, g.baseline_path().unwrap()) * 2.0 + 1.0,
                        )]
                    }
                    Rule::Exact | Rule::Approx(_) => doctored_leaves(m),
                };
                for value in broken.into_iter().map(Some).chain([None]) {
                    let mut bad = honest.clone();
                    edit(&mut bad, g.path, value.clone());
                    let failures = check(&baseline, &bad, bench.gates);
                    assert!(names(&failures, g), "{} {value:?}: {failures:?}", g.path);
                    assert!(
                        failures.iter().all(|f| about(f, g, bench.gates)),
                        "{} {value:?}: {failures:?}",
                        g.path
                    );
                }
            }
        }
    }

    #[test]
    fn a_row_that_loses_a_gated_key_fails_instead_of_vanishing() {
        // The parent's scraper dropped such rows from the baseline, and
        // `--check` then gated nothing and printed OK.
        let claims = bench("claims");
        let baseline = committed(claims);
        let mut bad = baseline.clone();
        edit(&mut bad, "profiles[name=slow-globalor].cycles", None);
        let failures = check(&bad, &baseline, claims.gates);
        let paths: Vec<&str> = failures
            .iter()
            .map(|f| f.split(": ").next().unwrap())
            .collect();
        assert_eq!(paths, ["profiles", "profiles[name=slow-globalor].cycles"]);
        assert!(
            failures[1].contains("missing from the committed"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_table_fails_at_its_first_differing_cell() {
        let claims = bench("claims");
        let baseline = committed(claims);
        let c2 = claims.gates.iter().find(|g| g.path == "c2").unwrap();
        let mut moved = baseline.clone();
        edit(&mut moved, "c2[loops=10].base", Some(Json::from(2184u64)));
        let line = c2.eval(&baseline, &moved).unwrap_err();
        let want = "c2: measured 2184, want == 2183 at [4].base (committed) — ";
        assert!(line.starts_with(want), "{line}");
        // A passing table reports its length, not its cells.
        let line = c2.eval(&baseline, &baseline).unwrap();
        assert_eq!(line, "c2: 5 rows, want == 5 rows (committed)");
    }

    #[test]
    fn written_files_carry_env_and_read_back_as_the_measurement() {
        let explosion = bench("explosion");
        let body = body_of(committed(explosion));
        let file = baseline_file(explosion, &body).unwrap();
        let back = parse(&(file.render() + "\n")).unwrap();
        assert_eq!(back, file);
        assert!(num(&back, "meta_states") > 0.0);
        for key in ["nproc", "cpu", "simd_lanes", "reactor"] {
            assert!(lookup(&back, &format!("env.{key}")).is_some(), "{key}");
        }
        // A body that breaks its own invariant is not a baseline.
        let mut bad = body.clone();
        edit(&mut bad, "spill_identical", Some(Json::Bool(false)));
        let refusal = baseline_file(explosion, &bad).unwrap_err();
        assert!(
            refusal.starts_with("not writing BENCH_explosion.json: spill_identical: "),
            "{refusal}"
        );
        // Nor is one over a ceiling it writes beside what it measured:
        // that row reads a target, not the measured value itself.
        let mut bad = body.clone();
        let ceiling = num(&body, "targets.obs_disabled_overhead_pct_max");
        edit(
            &mut bad,
            "obs_disabled_overhead_pct",
            Some(Json::from(ceiling + 1.0)),
        );
        let refusal = baseline_file(explosion, &bad).unwrap_err();
        assert!(
            refusal.starts_with("not writing BENCH_explosion.json: obs_disabled_overhead_pct: "),
            "{refusal}"
        );
    }
}
