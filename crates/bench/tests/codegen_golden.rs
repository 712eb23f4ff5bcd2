//! Cross-commit golden for code generation. The fuzz bit-identity group
//! compares oracles *within* one commit, so it cannot see `codegen`, `csi`
//! or `hash` drifting between commits; this pins the generated program
//! itself — `{:?}` of the `SimdProgram` plus its MPL rendering — as a
//! SipHash-2-4-128 digest per (workload, mode). A digest may only change in
//! a PR that says its schedules or tables changed, and why.

use metastate::{ConvertMode, Pipeline};
use msc_bench::workloads::{barrier_phases_source, branchy_source, imbalanced_source};
use msc_ir::CostModel;
use msc_simd::SimdInstr;

/// (label, base digest, compressed digest), captured at commit 0243391
/// (PR 16), before PR 17 touched `hash`, `csi` or `codegen`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("branchy(2)", "8dd55c58febe938324c6ba23e9a2b967", "eeac4cc582d673e5ed257bffe1de9016"),
    ("branchy(3)", "6b1bac2dcc22fcd947421c9dd81fcda3", "c66931f50612138567aadc8736e4d270"),
    ("branchy(4)", "582730b053cc36767b5ace6dcf2fa8e0", "6a27d62c2fceb14dee26d398755bbb8a"),
    ("branchy(5)", "b3b9a2939d90a8a70d350b75f9aa0a91", "766d9bce3d9da6e5d9d0e468a5277e25"),
    ("branchy(6)", "114d12a0a2b57ff322a8f9dbfe352b89", "0b9289fca8a912283697ea32a9335daf"),
    ("imbalanced(5,40)", "7c3b0a81d60d694be13dcfb333d36859", "12b5a57b385fd5bdeba8326bc645c58f"),
    ("imbalanced(5,200)", "22f78e4aaafd807b8c40b7a9e04f2d95", "73926972cec28a968b9914089ecc56c5"),
    ("imbalanced(5,399)", "c90617a14b05b59cb487da1242ed416c", "80fd5d133f923a7b1f681e65b90b65c1"),
    ("barrier_phases(1)", "21b9bd872701677b80c054daf030b81f", "21b9bd872701677b80c054daf030b81f"),
    ("barrier_phases(2)", "4303f3fb1570deb91ceb38cf13328967", "1ae6a9d2b356d47ba8a404ab83cf047b"),
    ("barrier_phases(3)", "fa32424cae1ad0855fb9383911af8cdc", "defc8840805e0563acd06d224e39c593"),
    ("barrier_phases(4)", "c52feaf22b185cf34ae5558b72c1b2b9", "82540c5fc8c28878eca9725c9320ffa0"),
    ("barrier_phases(5)", "e3fe9eaf1ac0271dbc3a0728a5da48ae", "00fb91ecc44085df166ca577e09d515a"),
    ("dispatch_heavy.mimdc", "6b1bac2dcc22fcd947421c9dd81fcda3", "c66931f50612138567aadc8736e4d270"),
    // Rows below were captured at commit 06ce1f8, before CSI kept state
    // across the meta states of one program.
    // Guards of six to eight members, wider than a guard stores in place.
    ("branchy(7)", "a8850948d330bf08da4bff258438ae9e", "bf5ab10c58eacb667d7970fe06b97ab2"),
    // `RetMulti` and `Spawn` terminators in meta states of several members.
    ("recursion_and_spawn", "a9bda0b0509ff7dd055e82b97df67274", "a1eee105e964cd038d2a1a334be3233a"),
    // Free guard switches.
    ("dispatch_heavy.mimdc guard_switch=0", "a448fa9a303ab1be9c3f4c3b652dc541", "d37ee84dc1cb2c8c853601a41044d47a"),
    // Dear guard switches: serialization wins on 14 of the 22 base meta
    // states that pose a multi-thread CSI problem, and on 2 of the 4
    // compressed ones.
    ("dispatch_heavy.mimdc guard_switch=16", "048c8ed53288fd3dd0209ee27bf1ac63", "6e56a453788c5a1fab0abe24cd944308"),
];

/// A recursive function called from a branch, and a spawned process that
/// calls it too.
const RECURSION_AND_SPAWN: &str = r#"
    int fib(int n) {
        if (n < 2) return n;
        return fib(n - 1) + fib(n - 2);
    }

    void worker(int seed) {
        poly int r;
        r = fib(seed % 4 + 1);
    }

    main() {
        poly int x;
        x = pe_id();
        if (x % 2) { x = fib(x % 5 + 1); }
        else       { spawn worker(x + 3); x = x + 1; }
        return(x);
    }
"#;

/// (label, source, cost model) per row of [`GOLDEN`].
fn corpus() -> Vec<(String, String, CostModel)> {
    let mut v = Vec::new();
    for n in 2..=6 {
        v.push((format!("branchy({n})"), branchy_source(n)));
    }
    for long in [40, 200, 399] {
        v.push((format!("imbalanced(5,{long})"), imbalanced_source(5, long)));
    }
    for n in 1..=5 {
        v.push((format!("barrier_phases({n})"), barrier_phases_source(n)));
    }
    let example = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dispatch_heavy.mimdc"
    );
    let dispatch_heavy = std::fs::read_to_string(example).expect("the bundled example is readable");
    v.push(("dispatch_heavy.mimdc".to_string(), dispatch_heavy.clone()));
    v.push(("branchy(7)".to_string(), branchy_source(7)));
    v.push((
        "recursion_and_spawn".to_string(),
        RECURSION_AND_SPAWN.to_string(),
    ));
    let mut v: Vec<_> = v
        .into_iter()
        .map(|(label, src)| (label, src, CostModel::default()))
        .collect();
    for guard_switch in [0, 16] {
        v.push((
            format!("dispatch_heavy.mimdc guard_switch={guard_switch}"),
            dispatch_heavy.clone(),
            CostModel {
                guard_switch,
                ..CostModel::default()
            },
        ));
    }
    v
}

fn digest(src: &str, mode: ConvertMode, costs: &CostModel) -> String {
    let built = Pipeline::new(src)
        .mode(mode)
        .costs(costs.clone())
        .build()
        .expect("the corpus compiles");
    let debug = format!("{:?}", built.simd);
    msc_cache::content_key(
        "codegen-golden",
        &[debug.as_bytes(), built.mpl().as_bytes()],
    )
    .hex()
}

#[test]
fn generated_programs_match_the_committed_digests() {
    let actual: Vec<(String, String, String)> = corpus()
        .into_iter()
        .map(|(label, src, costs)| {
            let base = digest(&src, ConvertMode::Base, &costs);
            let compressed = digest(&src, ConvertMode::Compressed, &costs);
            (label, base, compressed)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, b, c)| format!("    (\"{l}\", \"{b}\", \"{c}\"),\n"))
        .collect();
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((l, b, c), g)| (l.as_str(), b.as_str(), c.as_str()) == *g);
    assert!(
        matches,
        "generated code drifted from GOLDEN; this commit produces:\n{table}"
    );
}

/// The rows added for their shapes have them: a digest pins bytes, not
/// which instructions the bytes hold.
#[test]
fn the_shape_rows_hold_the_shapes_they_are_there_for() {
    let build = |src: &str, mode| Pipeline::new(src).mode(mode).build().unwrap();
    let widest = |mode| {
        let built = build(&branchy_source(7), mode);
        let guards = built.simd.blocks.iter().flat_map(|b| &b.body);
        guards.map(|gi| gi.guard.len()).max().unwrap()
    };
    assert_eq!(widest(ConvertMode::Base), 8);
    assert!(widest(ConvertMode::Compressed) > 5);
    for mode in [ConvertMode::Base, ConvertMode::Compressed] {
        let built = build(RECURSION_AND_SPAWN, mode);
        // Each terminator is guarded inside a meta state of several members.
        let merged = |want: fn(&SimdInstr) -> bool| {
            let mut blocks = built.simd.blocks.iter().filter(|b| b.members.len() > 1);
            blocks.any(|b| b.body.iter().any(|gi| want(&gi.instr)))
        };
        assert!(merged(|i| matches!(i, SimdInstr::RetMulti(_))), "{mode:?}");
        assert!(merged(|i| matches!(i, SimdInstr::Spawn { .. })), "{mode:?}");
    }
}
