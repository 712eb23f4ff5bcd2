//! Cross-commit golden for code generation. The fuzz bit-identity group
//! compares oracles *within* one commit, so it cannot see `codegen`, `csi`
//! or `hash` drifting between commits; this pins the generated program
//! itself — `{:?}` of the `SimdProgram` plus its MPL rendering — as a
//! SipHash-2-4-128 digest per (workload, mode). A digest may only change in
//! a PR that says its schedules or tables changed, and why.

use metastate::{ConvertMode, Pipeline};
use msc_bench::workloads::{barrier_phases_source, branchy_source, imbalanced_source};

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
];

fn corpus() -> Vec<(String, String)> {
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
    v.push((
        "dispatch_heavy.mimdc".to_string(),
        std::fs::read_to_string(example).expect("the bundled example is readable"),
    ));
    v
}

fn digest(src: &str, mode: ConvertMode) -> String {
    let built = Pipeline::new(src)
        .mode(mode)
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
        .map(|(label, src)| {
            let base = digest(&src, ConvertMode::Base);
            let compressed = digest(&src, ConvertMode::Compressed);
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
