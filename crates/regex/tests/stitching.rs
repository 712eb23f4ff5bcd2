//! Property tests for the parallel sharded scan.
//!
//! The load-bearing claim of the SFA-style matcher is *exactness*:
//! matching N shards with speculative parallel scans plus stitching must
//! equal matching the concatenated input sequentially — including
//! matches that span shard boundaries — at every thread count. The same
//! inputs are also checked against the independent naive engine, closing
//! the loop between all three implementations. Every pattern is compiled
//! twice: under the default cap, and under a cap its anchored automaton
//! fills exactly, which leaves the search table no room — so the windowed
//! scan and the attempt-every-position scan are held to the same answer.

use msc_regex::{parser, Regex};
use proptest::prelude::*;

/// Random syntactically valid pattern over a 3-letter alphabet, built
/// constructively so every generated case exercises the matcher (not the
/// parser's error paths). Anchors only at the ends, where they are valid.
fn arb_pattern() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just(".".to_string()),
        Just("[ab]".to_string()),
        Just("[^c]".to_string()),
        Just("ab".to_string()),
    ];
    let body = leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})+")),
            inner.prop_map(|a| format!("({a})?")),
        ]
    });
    (0u8..4, body)
        .prop_map(|(anchors, b)| {
            let head = if anchors & 1 != 0 { "^" } else { "" };
            let tail = if anchors & 2 != 0 { "$" } else { "" };
            format!("{head}{b}{tail}")
        })
        .boxed()
}

/// `pat` under the default cap and under the tightest cap it compiles
/// with (no search table), or `None` when it blows the default cap.
fn both_configurations(pat: &str) -> Option<[Regex; 2]> {
    let full = Regex::new(pat).ok()?;
    let bare = Regex::with_limit(pat, full.meta_states()).expect("the anchored table fits");
    Some([full, bare])
}

/// Cut `input` into shards at sorted positions derived from `cuts`.
fn shard<'a>(input: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (input.len() + 1)).collect();
    points.sort_unstable();
    points.dedup();
    let mut shards = Vec::new();
    let mut prev = 0;
    for p in points {
        shards.push(&input[prev..p]);
        prev = p;
    }
    shards.push(&input[prev..]);
    shards
}

proptest! {
    /// Sharded matching at every thread count equals sequential matching
    /// of the concatenation, which equals the naive reference engine.
    #[test]
    fn sharded_equals_concatenated_equals_naive(
        pat in arb_pattern(),
        input in prop::collection::vec(0u8..6, 0..40),
        cuts in prop::collection::vec(0usize..64, 0..13),
    ) {
        // Map the small byte range onto the pattern alphabet plus noise.
        let input: Vec<u8> = input
            .into_iter()
            .map(|b| b"abcxy\n"[b as usize])
            .collect();
        // A generated pattern can still blow the meta-state cap.
        let Some(configurations) = both_configurations(&pat) else {
            return Ok(());
        };
        let naive = configurations[0].naive_find_all(&input);
        let shards = shard(&input, &cuts);
        for (re, table) in configurations.iter().zip(["search table", "no search table"]) {
            let sequential = re.find_all(&input);
            prop_assert_eq!(
                &naive,
                &sequential.iter().map(|m| (m.start, m.end)).collect::<Vec<_>>(),
                "naive vs DFA with {} on pattern {:?}",
                table,
                &pat
            );
            for threads in [1, 2, 3, 5, 8] {
                prop_assert_eq!(
                    re.find_sharded(&shards, threads),
                    sequential.clone(),
                    "{} threads={} pattern={:?} cuts at {:?}",
                    table,
                    threads,
                    &pat,
                    shards.iter().map(|s| s.len()).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Deterministic regression cases for boundary-spanning matches, kept
/// alongside the property so a proptest seed change cannot lose them.
#[test]
fn boundary_spanning_regressions() {
    for (pat, text, cuts) in [
        ("ab", "xaby", vec![2]),         // match split 1|1
        ("a+b", "aaab", vec![1, 2, 3]),  // greedy run over three cuts
        ("a.*b", "a xx b", vec![3]),     // wildcard across the cut
        ("(ab|ba)+", "abbaab", vec![3]), // alternation re-sync
        ("ab$", "ab", vec![1]),          // end anchor on final shard
        ("^ab", "ab", vec![1]),          // start anchor on first shard
    ] {
        let shards = shard(text.as_bytes(), &cuts);
        for re in both_configurations(pat).unwrap() {
            for threads in [1, 2, 8] {
                assert_eq!(
                    re.find_sharded(&shards, threads),
                    re.find_all(text.as_bytes()),
                    "pattern {pat:?} text {text:?} cuts {cuts:?} threads {threads}"
                );
            }
        }
    }
}

/// The parser rejects what it should, end to end through `Regex::new`.
#[test]
fn public_error_surface() {
    for bad in ["a(", "[a", "a**", "*a", "\\"] {
        assert!(Regex::new(bad).is_err(), "{bad:?} must be rejected");
    }
    assert!(parser::parse("a|b|c").is_ok());
}
