//! Machine-profile sweep measurement: S1, the last part of
//! `claims -- claims` / `BENCH_claims.json`.
//!
//! The simulator *counts* cycles, it doesn't time anything, so every
//! number here is deterministic and the gate checks exact equality plus
//! the profile-ordering invariants the bundled matrix was designed
//! around — `cheap-dispatch` never slower than `paper-default` on the
//! dispatch-heavy workload, `slow-globalor` never faster, and
//! `paper-default` bit-identical to the untouched hard-coded path —
//! which [`measure`] reports as fields of the file body. The per-profile
//! rows are `mscc sweep`'s: [`msc_cli::sweep`] measures both.

use crate::claims::table;
use metastate::{Pipeline, TimeSplitOptions};
use msc_obs::json::Json;
use msc_simd::MachineProfile;

/// The gate's workload: three-way divergent workers
/// ([`branchy_source(3)`](crate::workloads::branchy_source)) — every
/// meta-state transition is a hashed multiway dispatch, so dispatch-cost
/// knobs move the needle (the C10 regime). Committed verbatim as
/// `examples/dispatch_heavy.mimdc` for the CLI smoke run.
pub fn dispatch_heavy_source() -> String {
    crate::workloads::branchy_source(3)
}

/// The workload under every profile, measured by `mscc sweep`'s own
/// [`msc_cli::sweep`] with its defaults (base mode, the whole engine
/// pool). A profile that fails to compile or run is a broken matrix, not
/// a row to leave out.
fn sweep_rows(src: &str, profiles: &[MachineProfile]) -> Vec<msc_cli::SweepRow> {
    let opts = msc_cli::CommonOpts {
        jobs: 0,
        ..msc_cli::CommonOpts::default()
    };
    let (rows, failures) = msc_cli::sweep("dispatch_heavy", src, profiles, &opts)
        .expect("sweep workload must compile");
    assert!(failures.is_empty(), "S1 sweep failed: {failures:?}");
    rows
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

/// S1's members of `BENCH_claims.json`: the dispatch-heavy workload under
/// every one of `profiles`, in name order (a directory's and the bundled
/// matrix's alike), the hard-coded-path anchor, §2.4's time-splitting
/// rescue per profile, and the three invariants as booleans (false when
/// a profile they name is missing).
pub fn measure(profiles: &[MachineProfile]) -> Json {
    let mut profiles = profiles.to_vec();
    profiles.sort_by(|a, b| a.name.cmp(&b.name));
    let src = dispatch_heavy_source();
    let rows = sweep_rows(&src, &profiles);
    let hard = hard_coded_cycles(&src, 16);
    let columns = [
        "name",
        "pe_count",
        "cycles",
        "utilization",
        "interp_cycles",
        "speedup",
    ];
    let landscape = table(
        "S1: examples/dispatch_heavy.mimdc per profile",
        columns,
        rows.iter().map(|r| {
            [
                r.name.as_str().into(),
                r.pe_count.into(),
                r.cycles.into(),
                r.utilization.into(),
                r.interp_cycles.into(),
                r.speedup.into(),
            ]
        }),
    );
    println!("hard-coded default path: {hard} cycles (paper-default must equal it)\n");

    let split_src = crate::workloads::imbalanced_source(5, 100);
    let time_split = table(
        "S1: imbalanced_source(5, 100) per profile",
        ["profile", "util_unsplit", "util_split"],
        profiles.iter().map(|p| {
            let util = |ts: Option<TimeSplitOptions>| {
                let mut pipe = Pipeline::new(split_src.as_str()).costs(p.costs.clone());
                if let Some(ts) = ts {
                    pipe = pipe.time_split(ts);
                }
                let built = pipe.build().expect("sweep workload must compile");
                let out = built.run_with(p.machine_config());
                out.expect("sweep workload must run").metrics.utilization()
            };
            let split = util(Some(TimeSplitOptions::default()));
            [p.name.as_str().into(), util(None).into(), split.into()]
        }),
    );

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
        ("profiles", landscape),
        ("time_split_by_profile", time_split),
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
        // `claims -- claims` (the gate) must measure the same program.
        assert_eq!(
            include_str!("../../../examples/dispatch_heavy.mimdc"),
            dispatch_heavy_source()
        );
    }

    #[test]
    fn paper_default_profile_is_bit_identical_to_hard_coded_path() {
        let src = dispatch_heavy_source();
        let rows = sweep_rows(&src, &[MachineProfile::default()]);
        assert_eq!(rows[0].cycles, hard_coded_cycles(&src, 16));
    }

    #[test]
    fn bundled_ordering_invariants_hold_on_dispatch_heavy() {
        let src = dispatch_heavy_source();
        let rows = sweep_rows(&src, &MachineProfile::bundled());
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let base = by_name("paper-default").cycles;
        assert!(by_name("cheap-dispatch").cycles <= base);
        assert!(by_name("slow-globalor").cycles >= base);
    }

    // The other half of the gate's negative test: not a doctored
    // *baseline* (see gate::tests) but a doctored *profile* — a bad
    // committed profile file must fail `claims -- claims --check`, which
    // measures whatever `profiles/` contains.
    #[test]
    fn doctored_profile_fails_the_claims_gate() {
        use crate::gate::{check, BENCHES};
        let claims = BENCHES.iter().find(|b| b.name == "claims").unwrap();
        let baseline =
            msc_obs::json::parse(include_str!("../../../BENCH_claims.json")).expect("parses");
        let failed = |profiles: &[MachineProfile]| {
            check(&baseline, &crate::claims::body(profiles), claims.gates)
        };
        let committed = MachineProfile::bundled;

        // cheap-dispatch made expensive: the exact-cycle pin and the
        // ordering invariant must both flag it.
        let mut profiles = committed();
        profiles
            .iter_mut()
            .find(|p| p.name == "cheap-dispatch")
            .unwrap()
            .costs
            .dispatch = 500;
        let failures = failed(&profiles);
        for path in [
            "profiles[name=cheap-dispatch].cycles: ",
            "cheap_dispatch_not_slower: ",
        ] {
            assert!(failures.iter().any(|f| f.starts_with(path)), "{failures:?}");
        }

        // paper-default nudged off the hard-coded model: the bit-identity
        // invariant must flag it.
        let mut profiles = committed();
        profiles
            .iter_mut()
            .find(|p| p.name == "paper-default")
            .unwrap()
            .costs
            .guard_switch += 1;
        let failures = failed(&profiles);
        assert!(
            failures.iter().any(|f| f.contains("bit-identity")),
            "{failures:?}"
        );

        // A profile that drops out of the matrix fails every gate that
        // names it, and both S1 tables, instead of un-gating them.
        let mut profiles = committed();
        profiles.retain(|p| p.name != "slow-globalor");
        let failures = failed(&profiles);
        let paths: Vec<&str> = failures
            .iter()
            .map(|f| f.split(": ").next().unwrap())
            .collect();
        assert_eq!(
            paths,
            [
                "profiles",
                "time_split_by_profile",
                "profiles[name=slow-globalor].cycles",
                "profiles[name=slow-globalor].speedup",
                "slow_globalor_not_faster",
            ]
        );
    }
}
