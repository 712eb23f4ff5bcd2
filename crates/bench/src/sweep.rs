//! Machine-profile sweep measurement: the library half of
//! `claims -- sweep` / `BENCH_sweep.json`.
//!
//! The sweep gate is different from the timing gates (setops, serve,
//! regex): the simulator *counts* cycles, it doesn't time anything, so
//! every number here is deterministic and the gate checks exact equality
//! plus the profile-ordering invariants the bundled matrix was designed
//! around — `cheap-dispatch` never slower than `paper-default` on the
//! dispatch-heavy workload, `slow-globalor` never faster, and
//! `paper-default` bit-identical to the untouched hard-coded path —
//! which [`measure`] reports as fields of the file body.

use metastate::{ConvertMode, Pipeline, TimeSplitOptions};
use msc_obs::json::Json;
use msc_simd::MachineProfile;

/// One measured profile (what a `BENCH_sweep.json` entry pins).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Profile name.
    pub name: String,
    /// PEs the profile ran on.
    pub pe_count: usize,
    /// Simulated MSC cycles.
    pub cycles: u64,
    /// PE utilization inside meta-state bodies.
    pub utilization: f64,
    /// The §1.1 interpreter baseline priced under the same profile.
    pub interp_cycles: u64,
    /// `interp_cycles / cycles`.
    pub speedup: f64,
}

/// The gate's workload: three-way divergent workers
/// ([`branchy_source(3)`](crate::workloads::branchy_source)) — every
/// meta-state transition is a hashed multiway dispatch, so dispatch-cost
/// knobs move the needle (the C10 regime). Committed verbatim as
/// `examples/dispatch_heavy.mimdc` for the CLI smoke run.
pub fn dispatch_heavy_source() -> String {
    crate::workloads::branchy_source(3)
}

/// Measure one workload under one profile: the profile's cost model is
/// threaded through conversion + codegen, the run uses its machine
/// config, and the interpreter baseline is priced under the same costs.
pub fn measure_profile(src: &str, profile: &MachineProfile) -> SweepRow {
    let built = Pipeline::new(src)
        .costs(profile.costs.clone())
        .build()
        .expect("sweep workload must compile");
    let out = built
        .run_with(profile.machine_config())
        .expect("sweep workload must run");
    let p = msc_lang::compile(src).expect("sweep workload must compile");
    let (_, im) = msc_mimd::interpret_on_simd(
        &p.graph,
        p.layout.poly_words,
        p.layout.mono_words,
        profile.pe_count,
        &profile.costs,
    )
    .expect("interpreter baseline must run");
    SweepRow {
        name: profile.name.clone(),
        pe_count: profile.pe_count,
        cycles: out.metrics.cycles,
        utilization: out.metrics.utilization(),
        interp_cycles: im.cycles,
        speedup: im.cycles as f64 / out.metrics.cycles as f64,
    }
}

/// Measure the workload under every profile.
pub fn measure_sweep(src: &str, profiles: &[MachineProfile]) -> Vec<SweepRow> {
    profiles.iter().map(|p| measure_profile(src, p)).collect()
}

/// Cycles for `src` down today's untouched hard-coded path — default
/// pipeline options, [`metastate::Built::run`] — the path every committed
/// BENCH_*.json number was measured under. The gate pins the
/// `paper-default` profile bit-identical to this.
pub fn hard_coded_cycles(src: &str, n_pe: usize) -> u64 {
    Pipeline::new(src)
        .build()
        .expect("workload must compile")
        .run(n_pe)
        .expect("workload must run")
        .metrics
        .cycles
}

/// The profile matrix the sweep gate runs: the committed `profiles/`
/// directory when present (so a doctored committed profile fails the
/// `--check` gate, not just tier-1), else the bundled matrix — tier-1
/// pins the two bit-equal either way.
pub fn committed_profiles() -> Vec<MachineProfile> {
    let dir = std::path::Path::new("profiles");
    if dir.is_dir() {
        match MachineProfile::load_dir(dir) {
            Ok(p) if !p.is_empty() => return p,
            Ok(_) => {}
            Err(e) => eprintln!("note: profiles/ unreadable ({e}); using bundled matrix"),
        }
    }
    MachineProfile::bundled()
}

/// The `BENCH_sweep.json` body: the dispatch-heavy workload under every
/// one of `profiles`, the hard-coded-path anchor, and the three
/// invariants as booleans (false when a profile they name is missing).
/// Also prints the §2.4 landscape: time splitting's utilization rescue,
/// per profile.
pub fn measure(profiles: &[MachineProfile]) -> Json {
    let src = dispatch_heavy_source();
    let rows = measure_sweep(&src, profiles);
    let hard = hard_coded_cycles(&src, 16);
    println!("dispatch-heavy workload (branchy_source(3), base mode):");
    println!("profile        | PEs | cycles | util% | interp | speedup");
    for r in &rows {
        println!(
            "{:14} | {:3} | {:6} | {:5.1} | {:6} | {:6.2}x",
            r.name,
            r.pe_count,
            r.cycles,
            r.utilization * 100.0,
            r.interp_cycles,
            r.speedup
        );
    }
    println!("hard-coded default path: {hard} cycles (paper-default must equal it)\n");

    println!("§2.4 per profile — imbalanced_source(5, 100), utilization without/with");
    println!("time splitting:");
    println!("profile        | util (no split) | util (split)");
    let src = crate::workloads::imbalanced_source(5, 100);
    for p in profiles {
        let run = |ts: bool| {
            let mut pipe = Pipeline::new(src.as_str())
                .mode(ConvertMode::Base)
                .costs(p.costs.clone());
            if ts {
                pipe = pipe.time_split(TimeSplitOptions::default());
            }
            let built = pipe.build().expect("sweep workload must compile");
            let out = built.run_with(p.machine_config());
            out.expect("sweep workload must run").metrics.utilization()
        };
        println!(
            "{:14} | {:14.1}% | {:11.1}%",
            p.name,
            run(false) * 100.0,
            run(true) * 100.0
        );
    }
    println!("\nshape check: cheap-dispatch ≤ paper-default ≤ slow-globalor on a");
    println!("dispatch-heavy workload; the default profile is bit-identical to the");
    println!("hard-coded model, so every other committed BENCH_*.json stays valid.");

    let cycles = |name: &str| rows.iter().find(|r| r.name == name).map(|r| r.cycles);
    let default = cycles("paper-default");
    let vs_default = |name: &str, ok: fn(u64, u64) -> bool| {
        Json::from(cycles(name).zip(default).is_some_and(|(c, d)| ok(c, d)))
    };
    Json::obj([
        (
            "workload",
            Json::from("branchy_source(3) == examples/dispatch_heavy.mimdc, base mode"),
        ),
        ("hard_coded_cycles", Json::from(hard)),
        (
            "profiles",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::from(r.name.as_str())),
                            ("pe_count", Json::from(r.pe_count)),
                            ("cycles", Json::from(r.cycles)),
                            ("utilization", Json::from(r.utilization)),
                            ("interp_cycles", Json::from(r.interp_cycles)),
                            ("speedup", Json::from(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "paper_default_is_hard_coded",
            Json::from(default == Some(hard)),
        ),
        (
            "cheap_dispatch_not_slower",
            vs_default("cheap-dispatch", |c, d| c <= d),
        ),
        (
            "slow_globalor_not_faster",
            vs_default("slow-globalor", |c, d| c >= d),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_example_is_the_gate_workload() {
        // `mscc sweep examples/dispatch_heavy.mimdc` (CI smoke) and
        // `claims -- sweep` (the gate) must measure the same program.
        assert_eq!(
            include_str!("../../../examples/dispatch_heavy.mimdc"),
            dispatch_heavy_source()
        );
    }

    #[test]
    fn paper_default_profile_is_bit_identical_to_hard_coded_path() {
        let src = dispatch_heavy_source();
        let row = measure_profile(&src, &MachineProfile::default());
        assert_eq!(row.cycles, hard_coded_cycles(&src, 16));
    }

    #[test]
    fn bundled_ordering_invariants_hold_on_dispatch_heavy() {
        let src = dispatch_heavy_source();
        let rows = measure_sweep(&src, &MachineProfile::bundled());
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let base = by_name("paper-default").cycles;
        assert!(by_name("cheap-dispatch").cycles <= base);
        assert!(by_name("slow-globalor").cycles >= base);
    }

    // The other half of the gate's negative test: not a doctored
    // *baseline* (see gate::tests) but a doctored *profile* — a bad
    // committed profile file must fail `claims -- sweep --check`, which
    // measures whatever `profiles/` contains.
    #[test]
    fn doctored_profile_fails_the_sweep_gate() {
        use crate::gate::{check, BENCHES};
        let sweep = BENCHES.iter().find(|b| b.name == "sweep").unwrap();
        let baseline =
            msc_obs::json::parse(include_str!("../../../BENCH_sweep.json")).expect("parses");
        let failures = check(&baseline, &measure(&MachineProfile::bundled()), sweep.gates);
        assert!(failures.is_empty(), "honest re-measurement: {failures:?}");

        // cheap-dispatch made expensive: the exact-cycle pin and the
        // ordering invariant must both flag it.
        let mut profiles = MachineProfile::bundled();
        profiles
            .iter_mut()
            .find(|p| p.name == "cheap-dispatch")
            .unwrap()
            .costs
            .dispatch = 500;
        let failures = check(&baseline, &measure(&profiles), sweep.gates);
        for path in [
            "profiles[name=cheap-dispatch].cycles: ",
            "cheap_dispatch_not_slower: ",
        ] {
            assert!(failures.iter().any(|f| f.starts_with(path)), "{failures:?}");
        }

        // paper-default nudged off the hard-coded model: the bit-identity
        // invariant must flag it.
        let mut profiles = MachineProfile::bundled();
        profiles
            .iter_mut()
            .find(|p| p.name == "paper-default")
            .unwrap()
            .costs
            .guard_switch += 1;
        let failures = check(&baseline, &measure(&profiles), sweep.gates);
        assert!(
            failures.iter().any(|f| f.contains("bit-identity")),
            "{failures:?}"
        );

        // A profile that drops out of the matrix fails every gate that
        // names it instead of un-gating it.
        let mut profiles = MachineProfile::bundled();
        profiles.retain(|p| p.name != "slow-globalor");
        let failures = check(&baseline, &measure(&profiles), sweep.gates);
        assert_eq!(failures.len(), 3, "{failures:?}");
    }
}
