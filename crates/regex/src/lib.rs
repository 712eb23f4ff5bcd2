//! # msc-regex — data-parallel regex matching over meta states
//!
//! A second front-end for the meta-state machinery: instead of a MIMD
//! program, the "program" is a regular expression, and the converted
//! automaton's states are interned [`msc_core::StateSet`]s of Thompson
//! NFA states — the same subset construction the paper applies to
//! processor states, here applied to pattern states (the Simultaneous
//! Finite Automata view of regex matching).
//!
//! Pipeline: [`parser`] (literals, classes, `.` `*` `+` `?` `|`,
//! grouping, `^` `$`) → [`nfa`] (Thompson construction) → [`meta`]
//! (subset construction into a byte-class DFA with positional anchor
//! handling: an anchored table for one attempt, and a search table whose
//! states carry the threads of every earlier start position) →
//! [`matcher`] (windowed forward passes over `&[u8]` slices: ranges of the
//! input scanned speculatively, four to a thread in lockstep and on as
//! many threads as asked, and stitched exactly — output is bit-identical
//! however the input is cut). [`naive`]
//! is an independent AST-walking reference engine used as the
//! differential-fuzzing oracle, and [`engine`] wraps compilation in the
//! same content-addressed cache + singleflight discipline as
//! `msc_engine`.
//!
//! Match semantics everywhere: non-overlapping leftmost-longest spans,
//! and empty matches are never reported.
//!
//! ```
//! use msc_regex::Regex;
//!
//! let re = Regex::new("ab+").unwrap();
//! let spans: Vec<(usize, usize)> = re
//!     .find_all(b"xabbyab")
//!     .into_iter()
//!     .map(|m| (m.start, m.end))
//!     .collect();
//! assert_eq!(spans, vec![(1, 4), (5, 7)]);
//! // Sharded: same input split in two, same spans, any thread count.
//! let sharded = re.find_sharded(&[b"xabb", b"yab"], 8);
//! assert_eq!(sharded, re.find_all(b"xabbyab"));
//! ```

pub mod engine;
pub mod input;
pub mod matcher;
pub mod meta;
pub mod naive;
pub mod nfa;
pub mod parser;

pub use engine::RegexEngine;
pub use input::ShardedInput;
pub use matcher::Match;
pub use meta::{MetaDfa, MAX_META_STATES};
pub use parser::{Ast, ByteSet, ParseError};

/// Why a pattern failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// Syntax error.
    Parse(ParseError),
    /// The pattern is syntactically fine but its automaton blew a size
    /// cap (NFA states or meta states).
    TooComplex {
        /// The cap that was hit.
        limit: usize,
    },
    /// This request coalesced onto a concurrent identical compile that
    /// failed or panicked; the message is the leader's rendered error.
    Shared(String),
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegexError::Parse(e) => write!(f, "regex parse error: {e}"),
            RegexError::TooComplex { limit } => {
                write!(f, "pattern too complex: automaton exceeds {limit} states")
            }
            RegexError::Shared(msg) => {
                write!(f, "coalesced onto a pattern compile that failed: {msg}")
            }
        }
    }
}

impl std::error::Error for RegexError {}

/// A compiled pattern: the meta-automaton plus the AST it came from
/// (kept for the naive reference engine).
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    ast: Ast,
    dfa: MetaDfa,
}

impl Regex {
    /// Parse and compile a pattern with the default [`MAX_META_STATES`]
    /// meta-state cap.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        Self::with_limit(pattern, MAX_META_STATES)
    }

    /// Parse and compile a pattern, rejecting it as too complex once the
    /// subset construction exceeds `limit` meta states (0 acts as 1). The
    /// search table is built from what the automaton left of `limit` and
    /// dropped when that is too little; matching is then slower, never
    /// different.
    pub fn with_limit(pattern: &str, limit: usize) -> Result<Regex, RegexError> {
        let ast = parser::parse(pattern).map_err(RegexError::Parse)?;
        let nfa = nfa::build(&ast).map_err(|e| RegexError::TooComplex { limit: e.limit })?;
        let dfa = meta::compile_with_limit(&nfa, limit)
            .map_err(|e| RegexError::TooComplex { limit: e.limit })?;
        Ok(Regex {
            pattern: pattern.to_string(),
            ast,
            dfa,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of meta states in the compiled automaton.
    pub fn meta_states(&self) -> usize {
        self.dfa.len()
    }

    /// The compiled automaton.
    pub fn dfa(&self) -> &MetaDfa {
        &self.dfa
    }

    /// All matches over one contiguous haystack.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let shards = [haystack];
        let input = ShardedInput::new(&shards);
        matcher::find_all(&self.dfa, &input)
    }

    /// All matches over the concatenation of `shards`, scanned with up
    /// to `threads` worker threads. Matches may span shard boundaries;
    /// spans are absolute offsets into the concatenation. Output is
    /// bit-identical to [`find_all`](Regex::find_all) of the
    /// concatenation for every `threads` value.
    pub fn find_sharded(&self, shards: &[&[u8]], threads: usize) -> Vec<Match> {
        let input = ShardedInput::new(shards);
        matcher::find_sharded(&self.dfa, &input, threads)
    }

    /// The naive reference engine's answer for the same haystack — an
    /// independent implementation used as differential-fuzzing oracle.
    pub fn naive_find_all(&self, haystack: &[u8]) -> Vec<(usize, usize)> {
        naive::find_all(&self.ast, haystack)
    }
}

/// What the unit tests of more than one module draw from.
#[cfg(test)]
pub(crate) mod testing {
    use proptest::prelude::*;

    /// Random syntactically valid pattern over a 3-letter alphabet, built
    /// constructively so every generated case exercises the automaton (not
    /// the parser's error paths). Anchors only at the ends, where they are
    /// valid. (`tests/stitching.rs` has the same generator: an integration
    /// test cannot see this module.)
    pub(crate) fn arb_pattern() -> BoxedStrategy<String> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_spans() {
        let re = Regex::new("(ab|ba)+").unwrap();
        let spans: Vec<(usize, usize)> = re
            .find_all(b"xababbay")
            .into_iter()
            .map(|m| (m.start, m.end))
            .collect();
        assert_eq!(spans, vec![(1, 7)]);
        assert_eq!(re.naive_find_all(b"xababbay"), spans);
    }

    #[test]
    fn errors_render() {
        let e = Regex::new("a(").unwrap_err();
        assert!(matches!(e, RegexError::Parse(_)));
        assert!(e.to_string().contains("parse error"));
        let e = Regex::new(&format!(".*a{}", ".".repeat(16))).unwrap_err();
        assert!(matches!(e, RegexError::TooComplex { .. }));
    }

    #[test]
    fn pattern_metadata() {
        let re = Regex::new("a+b").unwrap();
        assert_eq!(re.pattern(), "a+b");
        assert!(re.meta_states() >= 2);
    }

    #[test]
    fn limit_is_configurable() {
        // A pattern too complex for a tiny cap compiles fine under a
        // larger one; the error reports the cap that was actually used.
        let e = Regex::with_limit("abcde", 2).unwrap_err();
        assert!(matches!(e, RegexError::TooComplex { limit: 2 }));
        assert!(Regex::with_limit("abcde", 64).is_ok());
        // ~2¹³ meta states: over the 4096 default, under a raised cap.
        let big = format!(".*a{}", ".".repeat(12));
        assert!(Regex::new(&big).is_err());
        assert!(
            Regex::with_limit(&big, 1 << 14).is_ok(),
            "raised cap admits it"
        );
    }
}
