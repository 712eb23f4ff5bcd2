//! Cross-commit golden for the cache's artifact format. `codegen_golden`
//! pins the generated program; this pins the `mscache v1` text an
//! artifact is filed under on disk as: the bytes `Cacheable::encode`
//! gives a fresh compile's artifact (what the disk tier writes), as one
//! SipHash-2-4-128 digest per (workload, mode) over `codegen_golden`'s
//! corpus. Two lines are masked before digesting: `key` (checked against
//! `job_key` instead, since `MSC_MEMORY_BUDGET` is part of the key) and
//! `timings_ns` (wall clock). Each text must also decode: a cold engine
//! over a disk tier holding only that text serves the compile from disk,
//! and its artifact encodes to the same bytes again. A digest may only
//! change in a PR that says the format changed, and why: a disk cache
//! written by an older daemon then reads as misses.

use metastate::engine::{job_key, Engine, EngineOptions, Job, Provenance};
use msc_bench::workloads::{barrier_phases_source, branchy_source, imbalanced_source};
use msc_cache::Cacheable;
use msc_core::ConvertOptions;

/// (label, base digest, compressed digest), captured at commit c7ca156,
/// the last one whose engine wrapped `TieredCache` in its own type.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("branchy(2)", "613ed302e487e18095bbaa0e0463991a", "0e39feb51e7fd54b6ebaee5f8872a794"),
    ("branchy(3)", "4064ff17644575d1434aad8c0bd2a867", "a6cf14cc6b3f89bfe26c0aab10377f8b"),
    ("branchy(4)", "b2d8539b356ec7c5c092f606e33f0ac4", "ef82ecc0c5259f8650a01983d2e25c2b"),
    ("branchy(5)", "013eab281ec37871710f41e313851fb9", "00d62dde236a1c2e396740e3bea894d5"),
    ("branchy(6)", "cb96030a3aeface5c8c5502ff17d249c", "4005301195533bbb0f71552a16237bfe"),
    ("imbalanced(5,40)", "4040ed2d665322577b7dccbc1f48d159", "78eea1aec254d3bd68706a44fc7591f9"),
    ("imbalanced(5,200)", "e3d24c720e3c46b530cd9c61067e8620", "591d64f353dc1dbb09da8aa9c71c4d5b"),
    ("imbalanced(5,399)", "d2bf8edd7628b6c352fc32a6a6c7c1f1", "c20397db71d6f4c386f0bc8d04927314"),
    ("barrier_phases(1)", "28b9607dff49c197138718a45b83d67e", "cc71f00fd2767dd3b466d0eb89983ad7"),
    ("barrier_phases(2)", "44270f90e0642d75dc6907caf61df856", "897375b3d7756221e04f912a4a69cf92"),
    ("barrier_phases(3)", "d7085db5ff9490c44b3b62a7b49c0878", "240775b9495aa5893763d0cc8f8003f6"),
    ("barrier_phases(4)", "7c20dc13f410d0d2aea7b4241ecc8131", "f2d61d802e703d9f5a5c089069de2bf7"),
    ("barrier_phases(5)", "68901df7eb917f222f50ec978ac3252c", "51fb0249c56ff55aa89affccd517d6f0"),
    ("dispatch_heavy.mimdc", "4064ff17644575d1434aad8c0bd2a867", "a6cf14cc6b3f89bfe26c0aab10377f8b"),
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
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dispatch_heavy.mimdc");
    v.push((
        "dispatch_heavy.mimdc".to_string(),
        std::fs::read_to_string(example).expect("the bundled example is readable"),
    ));
    v
}

fn engine(cache_dir: Option<std::path::PathBuf>) -> Engine {
    Engine::new(EngineOptions {
        threads: 1,
        cache_dir,
        ..EngineOptions::default()
    })
}

/// Encode `job`'s artifact after a fresh compile, check that it reads
/// back from a disk tier, and digest it with the two volatile lines
/// masked.
fn digest(job: &Job, scratch: &std::path::Path) -> String {
    let key = job_key(job);
    let warm = engine(None);
    let compiled = warm.compile(job).expect("the corpus compiles");
    assert_eq!(compiled.provenance, Provenance::Fresh);
    let text = compiled.artifact.encode(key);

    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("scratch directory");
    std::fs::write(scratch.join(format!("{}.mscache", key.hex())), &text)
        .expect("writing the artifact file");
    let cold = engine(Some(scratch.to_path_buf()));
    let reloaded = cold.compile(job).expect("a disk hit");
    assert_eq!(reloaded.provenance, Provenance::Disk, "{}", job.name);
    assert_eq!(
        reloaded.artifact.encode(key),
        text,
        "{}: the decoded artifact encodes to the same bytes",
        job.name
    );
    let _ = std::fs::remove_dir_all(scratch);

    let mut masked = String::with_capacity(text.len());
    for line in text.lines() {
        if let Some(hex) = line.strip_prefix("key ") {
            assert_eq!(hex, key.hex(), "{}", job.name);
            masked.push_str("key <masked>");
        } else if line.starts_with("timings_ns ") {
            masked.push_str("timings_ns <masked>");
        } else {
            masked.push_str(line);
        }
        masked.push('\n');
    }
    msc_cache::content_key("artifact-golden", &[masked.as_bytes()]).hex()
}

#[test]
fn exported_artifacts_match_the_committed_digests() {
    let scratch = std::env::temp_dir().join(format!("msc-artifact-golden-{}", std::process::id()));
    let actual: Vec<(String, String, String)> = corpus()
        .into_iter()
        .map(|(label, src)| {
            let base = Job::new(label.clone(), src);
            let compressed = Job {
                convert: ConvertOptions::compressed(),
                ..base.clone()
            };
            let b = digest(&base, &scratch);
            let c = digest(&compressed, &scratch);
            (label, b, c)
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
        "the artifact format drifted from GOLDEN; this commit produces:\n{table}"
    );
}
