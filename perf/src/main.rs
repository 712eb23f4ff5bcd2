//! `perf` — the seeded benchmark of record (see `BENCHMARK.json` and this
//! package's README).
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what the driver calls)
//! perf run [--seed N] [--seconds S] [--quick] --out FILE          every workload, each in its own child
//! perf compare A.json B.json                                      verdict per workload × end-to-end metric
//! perf selftest                                                   every oracle must fail a doctored output
//! ```
//!
//! Nothing outside this package changes for the benchmark: every layer
//! number is taken from outside, by timing calls into the layers' public
//! functions.

mod compare;
mod gen;
mod harness;
mod workloads;

use harness::{Outcome, RunArgs};
use msc_obs::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`, for `perf run` without `--seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

/// Threads and connections load generation may use: the cores there are.
/// Read once, before `serve_mixed` confines the process to one of them.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perf run [--seed N] [--seconds S] [--quick] --out FILE\n       \
         perf compare A.json B.json\n       perf selftest",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: {v:?}")))
            .transpose()
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    use workloads::*;
    Some(match name {
        compile_cold::NAME => harness::run::<compile_cold::CompileCold>(args),
        convert_explosion::NAME => harness::run::<convert_explosion::ConvertExplosion>(args),
        sim_run::NAME => harness::run::<sim_run::SimRun>(args),
        regex_scan::NAME => harness::run::<regex_scan::RegexScan>(args),
        serve_mixed::NAME => harness::run::<serve_mixed::ServeMixed>(args),
        _ => return None,
    })
}

/// One workload in this process: the driver's entry point.
fn one(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let args = RunArgs {
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        seconds: flags.parsed("--seconds")?.ok_or("--seconds is required")?,
        trace: match flags.value("--trace") {
            Some("0") | None => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        quick: flags.has("--quick"),
        doctor: flags.has("--doctor"),
        spans: flags.value("--spans").map(PathBuf::from),
    };
    if !(args.seconds >= 0.0 && args.seconds <= 170.0) {
        return Err(format!(
            "--seconds must be within 0..=170, got {}",
            args.seconds
        ));
    }
    let outcome = run_workload(name, &args).ok_or(format!("unknown workload {name:?}"))?;
    outcome.print_table();
    println!("detail {}", outcome.detail().render());
    println!("{}", outcome.contract_line());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-exec this binary for one workload, relaying its table and
/// returning the `detail` object it printed (and whether it exited 0).
fn child(name: &str, extra: &[String]) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(d) => detail = json::parse(d).ok(),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or(format!(
        "child for {name} printed no result ({})",
        out.status
    ))?;
    Ok((detail, out.status.success()))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine a result file was taken on (ROADMAP item 1's `env` block).
fn env_block(seed: u64, seconds: f64, quick: bool) -> Json {
    Json::obj(vec![
        ("nproc", Json::from(nproc())),
        ("load_threads_max", Json::from(nproc())),
        ("cpu", Json::from(cpu_model())),
        ("simd_lanes", Json::from(msc_simd::setops::lanes().name())),
        ("serve_reactor", Json::from(msc_serve::reactor_available())),
        ("rustc", Json::from(env!("PERF_RUSTC_VERSION"))),
        ("seed", Json::from(seed)),
        ("seconds_per_workload", Json::from(seconds)),
        ("quick", Json::from(quick)),
    ])
}

/// Every workload, untraced then traced, each run in its own child
/// process: peak RSS is per workload, and no `msc_obs` subscriber of one
/// workload (the daemon installs one) is ever live under another.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let quick = flags.has("--quick");
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out = PathBuf::from(flags.value("--out").ok_or("--out FILE is required")?);
    let env = env_block(seed, seconds, quick);
    println!("env {}", env.render());

    let mut all_ok = true;
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let mut modes = Vec::new();
        for (trace, mode) in [("0", "untraced"), ("1", "traced")] {
            let mut extra = vec![
                "--seed".to_string(),
                seed.to_string(),
                "--seconds".to_string(),
                seconds.to_string(),
                "--trace".to_string(),
                trace.to_string(),
            ];
            if quick {
                extra.push("--quick".to_string());
            }
            if trace == "1" {
                let spans = format!("{}.{name}.spans.jsonl", out.display());
                extra.extend(["--spans".to_string(), spans]);
            }
            let (detail, ok) = child(name, &extra)?;
            all_ok &= ok;
            modes.push((mode, detail));
        }
        let mut row = vec![("name", Json::from(name))];
        row.extend(modes);
        rows.push(Json::obj(row));
    }
    let file = Json::obj(vec![
        ("benchmark", Json::from("msc-perf")),
        ("env", env),
        ("workloads", Json::Arr(rows)),
    ]);
    std::fs::write(&out, file.render() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The doctored-output negative test: each workload, run quick with one
/// output corrupted, must count a failure and exit nonzero.
fn selftest() -> Result<ExitCode, String> {
    let mut all_caught = true;
    for name in WORKLOADS {
        let extra = [
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--quick",
            "--doctor",
        ]
        .map(String::from);
        let (detail, exited_ok) = child(name, &extra)?;
        let failed = detail.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let caught = failed > 0 && !exited_ok;
        println!(
            "selftest {name}: doctored output -> failed = {failed}, exit {} => {}",
            if exited_ok { "0" } else { "nonzero" },
            if caught { "caught" } else { "MISSED" }
        );
        all_caught &= caught;
    }
    Ok(if all_caught {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // `ConvertOptions::base()` reads a process-wide spill budget from the
    // environment; the benchmark sets budgets explicitly, per op.
    std::env::remove_var("MSC_MEMORY_BUDGET");
    assert!(nproc() >= 1, "load generation is sized by the core count");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(a) if a.starts_with("--") => one(&Flags(argv)),
        Some("run") => run_all(&Flags(argv[1..].to_vec())),
        Some("selftest") => selftest(),
        Some("compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}
