//! Cross-commit golden for the `mscc` surface: every row is one command
//! line driven through [`msc_cli::main_with_args`], digested as its
//! outcome (`Ok` / `Err`) plus the text it printed or failed with. The
//! rows cover every `--emit` kind in both modes on the bundled examples,
//! `run` with `--compare` and with a pool and `--trace`, a `batch` with a
//! broken file, `sweep` over the committed profiles, `match` on a file,
//! a clean `fuzz` run, the `--stats` block and malformed command lines.
//! Only command lines `USAGE` documents for their command appear, so a
//! row moves only when what the command prints for them does.
//!
//! Masked before digesting: the `timings:` line of `--stats` (wall
//! clock) and the scratch directory that holds the broken batch input.
//! Paths are relative to this crate's directory, where `cargo test` runs
//! the test.

use msc_cli::main_with_args;

/// A source that fails to compile: `y` is undeclared.
const BROKEN: &str = "main() { y = 1; }\n";

/// (command line, digest). `EX` stands for the bundled examples
/// directory, `TMP` for the scratch directory holding `broken.mimdc`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("build EX/dispatch_heavy.mimdc --emit automaton --mode base", "836bbfa4b1fdf3f5c90b91e6a7494152"),
    ("build EX/dispatch_heavy.mimdc --emit automaton --mode compressed", "f98f091e2daab83bda8992a6c0093eb9"),
    ("build EX/dispatch_heavy.mimdc --emit mpl --mode base", "f3487ff42c63b5abff0bc9fd16c8d0c3"),
    ("build EX/dispatch_heavy.mimdc --emit mpl --mode compressed", "11c4c1c65a0dc0a7d495e20fe0703747"),
    ("build EX/dispatch_heavy.mimdc --emit dot --mode base", "338279fed262d0a88f7d735b2861fe8c"),
    ("build EX/dispatch_heavy.mimdc --emit dot --mode compressed", "e5faaab645d1866df3098cd514e323f5"),
    ("build EX/dispatch_heavy.mimdc --emit graph --mode base", "0d31033f23596ca250913563c9c52a65"),
    ("build EX/dispatch_heavy.mimdc --emit graph --mode compressed", "0d31033f23596ca250913563c9c52a65"),
    ("build EX/dispatch_heavy.mimdc --emit asm --mode base", "934b2600ce092aaeb9c596f9839c0023"),
    ("build EX/dispatch_heavy.mimdc --emit asm --mode compressed", "4aae6bb2dffae9b31fb44a2a60956b71"),
    ("build EX/listing3.mimdc --emit automaton --mode base", "e2d572dc834d2898c746f3abe142488f"),
    ("build EX/listing3.mimdc --emit automaton --mode compressed", "8e335e59af19b3766497cc79c605be57"),
    ("build EX/listing3.mimdc --emit mpl --mode base", "72e4688e8a5eac87169cbef53fc51276"),
    ("build EX/listing3.mimdc --emit mpl --mode compressed", "7f0cba4fd1e97b0f65542d71ecdd77eb"),
    ("build EX/listing3.mimdc --emit dot --mode base", "050051f61909d22071ea4cd09a3227b4"),
    ("build EX/listing3.mimdc --emit dot --mode compressed", "8623098d1422d69a967f20a9c18eb8cc"),
    ("build EX/listing3.mimdc --emit graph --mode base", "8dd4a19870cdb3919a658a9236e275f0"),
    ("build EX/listing3.mimdc --emit graph --mode compressed", "8dd4a19870cdb3919a658a9236e275f0"),
    ("build EX/listing3.mimdc --emit asm --mode base", "877664819df121fe6857c282222dd60e"),
    ("build EX/listing3.mimdc --emit asm --mode compressed", "e36eb31b9770baddc63127f51acf4af1"),
    ("build EX/listing4.mimdc --emit automaton --mode base", "1d41ebbdd539e25bf98602c250ef6247"),
    ("build EX/listing4.mimdc --emit automaton --mode compressed", "27af7afe15bcb360d533dfc7cfac9f77"),
    ("build EX/listing4.mimdc --emit mpl --mode base", "4e9871c0dc47185d1a28a912954644c3"),
    ("build EX/listing4.mimdc --emit mpl --mode compressed", "5d0ef912cdae12ed8668224226ffcaa6"),
    ("build EX/listing4.mimdc --emit dot --mode base", "7bb2e4b8eea93c76cd17d93ceee40970"),
    ("build EX/listing4.mimdc --emit dot --mode compressed", "d187a1d7a9eded531a20976295f828e8"),
    ("build EX/listing4.mimdc --emit graph --mode base", "8565b6dfb20f23fdec4b93763569690f"),
    ("build EX/listing4.mimdc --emit graph --mode compressed", "8565b6dfb20f23fdec4b93763569690f"),
    ("build EX/listing4.mimdc --emit asm --mode base", "fa477ff084c1bc08d71ad7b5d29a061c"),
    ("build EX/listing4.mimdc --emit asm --mode compressed", "610eb7ec4002ebc0eb1aff1c97f1c943"),
    ("run EX/dispatch_heavy.mimdc --pes 5 --compare", "574dd35315775e925c53b50fd8a40626"),
    ("run EX/dispatch_heavy.mimdc --pes 6 --pool 3 --trace", "85ca15ad56d44e229a4c607645aea162"),
    ("batch EX/listing3.mimdc TMP/broken.mimdc EX/dispatch_heavy.mimdc --jobs 1", "27e87f355c89e6ce9a1b368844f6e8e9"),
    ("sweep EX/dispatch_heavy.mimdc --profiles ../../profiles", "7f83a93610de7ef7f9c8bd01ca41aa5d"),
    ("match pe_id|poly EX/dispatch_heavy.mimdc --threads 2", "0ec3a733855f12201d171bb793101ab2"),
    ("fuzz --seed 3 --cases 4 --oracles interp,base", "a684a4f127fac2e259221887ea947a64"),
    // Moved on purpose, these three: the `cache:` line no longer counts
    // peer hits.
    ("build EX/dispatch_heavy.mimdc --stats", "727e33fca5238427d1f54a8a6189f69f"),
    ("run EX/dispatch_heavy.mimdc --pes 4 --stats --mode compressed", "d5e1edf8341f838d8e979e804409ac25"),
    ("batch EX/listing4.mimdc EX/listing4.mimdc --jobs 1 --stats", "e7c0e0fe59cca3847d4c62a6b9cc8720"),
    ("build", "d592bde2d59c708fd04cf966dae9dc44"),
    ("batch", "d592bde2d59c708fd04cf966dae9dc44"),
    ("build EX/listing3.mimdc EX/listing4.mimdc", "c8a09dc55f1200500952d61d1274979e"),
    ("build EX/listing3.mimdc --emit nonsense", "0097f4665e7511cff0425eded737812d"),
    ("build EX/listing3.mimdc --mode warp", "9d0c2b3d91decd1666e5c96817ae06cb"),
    ("build EX/listing3.mimdc --jobs many", "67a72003090abc0a5458e3363b5d862e"),
    ("build EX/listing3.mimdc --max-meta-states 0", "125ca3a6c3528a90f9b32fc49fc51fb2"),
    ("build EX/listing3.mimdc --memory-budget banana", "618e3de6505d6a80bf2d563e4da386b4"),
    ("build EX/listing3.mimdc --cache", "3ab923f78672254767a6735aa5d87af7"),
    ("build EX/listing3.mimdc --trace-out", "5718b948afef38509db4bbf9a00d3d5f"),
    ("build EX/listing3.mimdc --profiles ../../profiles", "214b9440c73bbcbd73a777e3805bef13"),
    ("build TMP/broken.mimdc", "4f02551fac0d08ab54b34946bce66c8b"),
    ("run EX/listing3.mimdc --pes banana", "2d68feff5b50c7baf4ef331cb106c3a0"),
    ("run EX/listing3.mimdc --pool x", "aac9542b2717561d1d9e10c1d0da3b8b"),
    ("run TMP/missing.mimdc", "8e7fb384c3160718e931e4df7948bb64"),
    ("sweep EX/dispatch_heavy.mimdc --profiles", "00794288dbbe8956afcd285299bdedf7"),
    ("serve --metrics", "18cf06dc54703926374f126e526f5c66"),
    ("serve --trace-out t.jsonl", "380644d197b3781692580bc7cc34bb60"),
    ("serve --workers x", "058afe3b5be968da1445caa27ff6d380"),
    ("serve extra.mimdc", "7f63d35701a19644f6883c43489bad26"),
    ("fuzz --pes 0", "c3d7745f6a1c4c61e6d4ff62309f4d22"),
    // Moved on purpose: fuzz's numeric flags took the shared
    // ``bad <what> `<value>` `` message (was ``bad value `banana` for --seed``).
    ("fuzz --seed banana", "5385289f43a35df7e4d2973f8e7aa8bc"),
    ("fuzz --serve --metrics", "3c3cb630e01e8a2bb342b5e51dfe757b"),
    ("fuzz EX/listing3.mimdc", "41be8f447e3fa608856c470d32ee4909"),
    ("fuzz --cases 1 --oracles base,warp-drive", "e2109a6bd2d7985351cde12ff0907ba6"),
    ("match", "b27934c806e17b23f0266be14ad76996"),
    ("match a --threads zero", "ad5491043907d4bc7e27e37fd9f17bd4"),
    ("match a( EX/listing3.mimdc", "5a022d88ed656f8273901d5a8a60537c"),
];

/// Where the rows' `EX` and `TMP` point.
fn dirs() -> (String, std::path::PathBuf) {
    let tmp = std::env::temp_dir().join(format!("mscc-cli-golden-{}", std::process::id()));
    ("../../examples".to_string(), tmp)
}

/// Every command line the golden pins, in table order.
fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for file in ["dispatch_heavy", "listing3", "listing4"] {
        for emit in ["automaton", "mpl", "dot", "graph", "asm"] {
            for mode in ["base", "compressed"] {
                rows.push(format!("build EX/{file}.mimdc --emit {emit} --mode {mode}"));
            }
        }
    }
    for line in [
        "run EX/dispatch_heavy.mimdc --pes 5 --compare",
        "run EX/dispatch_heavy.mimdc --pes 6 --pool 3 --trace",
        "batch EX/listing3.mimdc TMP/broken.mimdc EX/dispatch_heavy.mimdc --jobs 1",
        "sweep EX/dispatch_heavy.mimdc --profiles ../../profiles",
        "match pe_id|poly EX/dispatch_heavy.mimdc --threads 2",
        "fuzz --seed 3 --cases 4 --oracles interp,base",
        // --stats: the timings line is masked.
        "build EX/dispatch_heavy.mimdc --stats",
        "run EX/dispatch_heavy.mimdc --pes 4 --stats --mode compressed",
        "batch EX/listing4.mimdc EX/listing4.mimdc --jobs 1 --stats",
        // Malformed command lines.
        "build",
        "batch",
        "build EX/listing3.mimdc EX/listing4.mimdc",
        "build EX/listing3.mimdc --emit nonsense",
        "build EX/listing3.mimdc --mode warp",
        "build EX/listing3.mimdc --jobs many",
        "build EX/listing3.mimdc --max-meta-states 0",
        "build EX/listing3.mimdc --memory-budget banana",
        "build EX/listing3.mimdc --cache",
        "build EX/listing3.mimdc --trace-out",
        "build EX/listing3.mimdc --profiles ../../profiles",
        "build TMP/broken.mimdc",
        "run EX/listing3.mimdc --pes banana",
        "run EX/listing3.mimdc --pool x",
        "run TMP/missing.mimdc",
        "sweep EX/dispatch_heavy.mimdc --profiles",
        "serve --metrics",
        "serve --trace-out t.jsonl",
        "serve --workers x",
        "serve extra.mimdc",
        "fuzz --pes 0",
        "fuzz --seed banana",
        "fuzz --serve --metrics",
        "fuzz EX/listing3.mimdc",
        "fuzz --cases 1 --oracles base,warp-drive",
        "match",
        "match a --threads zero",
        "match a( EX/listing3.mimdc",
    ] {
        rows.push(line.to_string());
    }
    rows
}

/// Run one row and digest what it printed.
fn digest(row: &str, ex: &str, tmp: &std::path::Path) -> (String, String) {
    let tmp_s = tmp.display().to_string();
    let args: Vec<String> = row
        .split_whitespace()
        .map(|a| a.replace("EX", ex).replace("TMP", &tmp_s))
        .collect();
    let (outcome, text) = match main_with_args(&args) {
        Ok(text) => ("Ok", text),
        Err(e) => ("Err", e.0),
    };
    let mut masked = format!("{outcome}\n");
    for line in text.replace(&tmp_s, "TMP").lines() {
        if line.starts_with("timings: ") {
            masked.push_str("timings: <masked>");
        } else {
            masked.push_str(line);
        }
        masked.push('\n');
    }
    let key = msc_cache::content_key("cli-golden", &[masked.as_bytes()]).hex();
    (key, masked)
}

#[test]
fn every_command_line_prints_what_it_printed() {
    let (ex, tmp) = dirs();
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    std::fs::write(tmp.join("broken.mimdc"), BROKEN).expect("writing the broken input");
    let actual: Vec<(String, String, String)> = rows()
        .into_iter()
        .map(|row| {
            let (key, text) = digest(&row, &ex, &tmp);
            (row, key, text)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&tmp);

    let table: String = actual
        .iter()
        .map(|(row, key, _)| format!("    (\"{row}\", \"{key}\"),\n"))
        .collect();
    let mut drift = String::new();
    for (i, (row, key, text)) in actual.iter().enumerate() {
        if GOLDEN.get(i) != Some(&(row.as_str(), key.as_str())) {
            drift.push_str(&format!("--- {row}\n{text}"));
        }
    }
    assert!(
        actual.len() == GOLDEN.len() && drift.is_empty(),
        "the CLI's output drifted from GOLDEN:\n{drift}\nthis commit produces:\n{table}"
    );
}
