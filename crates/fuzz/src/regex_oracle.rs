//! Differential oracle for the regex front-end: the meta-automaton
//! matcher (sequential and sharded) versus the independent naive
//! backtracking reference in `msc_regex::naive`.
//!
//! The regex case for a fuzz case is *derived* from the rendered MIMDC
//! source: hashing the source seeds a private RNG that draws a pattern,
//! a haystack, and shard cut points. Replay therefore works unchanged —
//! regenerating the program from `(seed, index)` regenerates the same
//! regex case — and the source minimizer composes with the oracle (any
//! source whose derived case still diverges is a valid shrink). On a
//! mismatch the haystack is additionally shrunk here, byte-wise, so the
//! reported detail carries a minimal failing input alongside the pattern.

use crate::rng::Xoshiro256;
use msc_regex::{Regex, RegexError};

/// One derived regex case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexCase {
    /// The pattern under test.
    pub pattern: String,
    /// The haystack.
    pub input: Vec<u8>,
    /// Shard cut offsets (clamped into the input during sharding).
    pub cuts: Vec<usize>,
}

/// What checking one case concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexOutcome {
    /// Every engine agreed on every span.
    Clean,
    /// The pattern blew a complexity cap — legitimate bail-out.
    Skip(String),
    /// Engines disagreed (or a generated pattern failed to parse).
    Mismatch(String),
}

/// FNV-1a over the source text: a stable, dependency-free seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Haystack alphabet: small enough that patterns actually match, plus a
/// newline so `.`'s exclusion is exercised.
const ALPHABET: &[u8] = b"abcxy\n";

/// Longest derived haystack.
const LONG_INPUT_BYTES: u64 = 64 << 10;

fn gen_pattern(rng: &mut Xoshiro256, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(7) {
            0 => "a".into(),
            1 => "b".into(),
            2 => "c".into(),
            3 => ".".into(),
            4 => "[ab]".into(),
            5 => "[^c]".into(),
            _ => "ab".into(),
        };
    }
    match rng.below(8) {
        0 | 1 => {
            let a = gen_pattern(rng, depth - 1);
            let b = gen_pattern(rng, depth - 1);
            format!("{a}{b}")
        }
        2 => {
            let a = gen_pattern(rng, depth - 1);
            let b = gen_pattern(rng, depth - 1);
            format!("({a}|{b})")
        }
        3 => format!("({})*", gen_pattern(rng, depth - 1)),
        4 => format!("({})+", gen_pattern(rng, depth - 1)),
        5 => format!("({})?", gen_pattern(rng, depth - 1)),
        _ => gen_pattern(rng, depth - 1),
    }
}

/// Derive the regex case for one rendered fuzz program.
pub fn derive_case(source: &str) -> RegexCase {
    let mut rng = Xoshiro256::seeded(fnv1a(source) ^ 0x7265_6765_7821);
    let mut pattern = gen_pattern(&mut rng, 3);
    if rng.chance(150) {
        pattern = format!("^{pattern}");
    }
    if rng.chance(150) {
        pattern.push('$');
    }
    let len = rng.below(48) as usize;
    let mut input: Vec<u8> = (0..len).map(|_| *rng.pick(ALPHABET)).collect();
    let ncuts = rng.below(5) as usize;
    let mut cuts: Vec<usize> = (0..ncuts).map(|_| rng.below(64) as usize).collect();
    // One case in eight is long: past the length from which the
    // whole-buffer scan cuts its input into lockstep lanes, with cut
    // points anywhere in it. (Drawn last, so the short cases are the ones
    // this derivation always gave.)
    if rng.below(8) == 0 {
        let len = 1 + rng.below(LONG_INPUT_BYTES);
        input = (0..len).map(|_| *rng.pick(ALPHABET)).collect();
        cuts = (0..ncuts).map(|_| rng.below(len + 1) as usize).collect();
    }
    RegexCase {
        pattern,
        input,
        cuts,
    }
}

/// Split `input` at `cuts` (clamped, sorted, deduped) into shards.
fn shard<'a>(input: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (input.len() + 1)).collect();
    points.push(0);
    points.push(input.len());
    points.sort_unstable();
    points.dedup();
    let shards: Vec<&[u8]> = points.windows(2).map(|w| &input[w[0]..w[1]]).collect();
    if shards.is_empty() {
        // Empty input: one empty shard, not zero shards.
        vec![input]
    } else {
        shards
    }
}

/// One pattern compiled twice: under the default cap (windowed scan over
/// the search table) and under a cap its anchored automaton fills exactly,
/// which leaves the search table no room (attempt-every-position scan).
type Configurations = [(&'static str, Regex); 2];

fn compile(pattern: &str) -> Result<Configurations, RegexError> {
    let full = Regex::new(pattern)?;
    let bare = Regex::with_limit(pattern, full.meta_states())?;
    Ok([("search table", full), ("no search table", bare)])
}

/// Run every engine over one case; `None` means full agreement. The
/// naive reference is the golden semantics; in both configurations the
/// sequential DFA and the sharded DFA at 1, 2, 3 and 8 threads must all
/// reproduce it exactly.
fn diverges(configurations: &Configurations, input: &[u8], cuts: &[usize]) -> Option<String> {
    let naive = configurations[0].1.naive_find_all(input);
    let shards = shard(input, cuts);
    for (table, pattern) in configurations {
        let seq: Vec<(usize, usize)> = pattern
            .find_all(input)
            .into_iter()
            .map(|m| (m.start, m.end))
            .collect();
        if naive != seq {
            return Some(format!(
                "meta-automaton ({table}) disagrees with naive reference: \
                 naive {naive:?}, dfa {seq:?}"
            ));
        }
        for threads in [1usize, 2, 3, 8] {
            let sharded: Vec<(usize, usize)> = pattern
                .find_sharded(&shards, threads)
                .into_iter()
                .map(|m| (m.start, m.end))
                .collect();
            if sharded != seq {
                return Some(format!(
                    "sharded scan ({table}, {} shards, {threads} threads) disagrees with \
                     sequential: sequential {seq:?}, sharded {sharded:?}",
                    shards.len()
                ));
            }
        }
    }
    None
}

/// Byte-wise haystack shrinker: greedily drop chunks (halving the chunk
/// size down to single bytes) while the divergence persists. The pattern
/// and cut structure stay fixed; cuts re-clamp to the shrunk length.
fn minimize_input(re: &Configurations, input: &[u8], cuts: &[usize]) -> Vec<u8> {
    let mut best = input.to_vec();
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut at = 0usize;
        while at < best.len() {
            let end = (at + chunk).min(best.len());
            let mut candidate = best.clone();
            candidate.drain(at..end);
            if diverges(re, &candidate, cuts).is_some() {
                best = candidate;
                progressed = true;
                // Re-test the same offset: the next chunk slid into it.
            } else {
                at = end;
            }
        }
        if chunk == 1 && !progressed {
            return best;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Check the case derived from one rendered fuzz program.
pub fn run_derived(source: &str) -> RegexOutcome {
    check(&derive_case(source))
}

/// Check one explicit case.
pub fn check(case: &RegexCase) -> RegexOutcome {
    let re = match compile(&case.pattern) {
        Ok(re) => re,
        Err(RegexError::TooComplex { limit }) => {
            return RegexOutcome::Skip(format!(
                "pattern `{}` exceeds the {limit}-state bound",
                case.pattern
            ));
        }
        Err(e) => {
            // The generator only emits grammatical patterns, so a parse
            // failure is itself a finding.
            return RegexOutcome::Mismatch(format!(
                "generated pattern `{}` failed to compile: {e}",
                case.pattern
            ));
        }
    };
    match diverges(&re, &case.input, &case.cuts) {
        None => RegexOutcome::Clean,
        Some(_) => {
            let min = minimize_input(&re, &case.input, &case.cuts);
            let detail = diverges(&re, &min, &case.cuts)
                .unwrap_or_else(|| "divergence vanished under minimization".into());
            RegexOutcome::Mismatch(format!(
                "pattern `{}` on input {:?} (minimized from {} bytes): {detail}",
                case.pattern,
                String::from_utf8_lossy(&min),
                case.input.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure_in_the_source() {
        let a = derive_case("main() { return(1); }");
        let b = derive_case("main() { return(1); }");
        assert_eq!(a, b);
        let c = derive_case("main() { return(2); }");
        assert_ne!(a, c, "different sources draw different cases");
    }

    #[test]
    fn many_derived_cases_are_clean() {
        // The real check: hundreds of generated (pattern, input, cuts)
        // triples where naive, sequential-DFA and sharded-DFA all agree.
        for i in 0..300 {
            let source = format!("main() {{ return({i}); }}");
            let case = derive_case(&source);
            match check(&case) {
                RegexOutcome::Mismatch(d) => panic!("case {i} ({case:?}): {d}"),
                RegexOutcome::Clean | RegexOutcome::Skip(_) => {}
            }
        }
    }

    #[test]
    fn sharding_covers_boundary_cases() {
        let input = b"xaabxx";
        assert_eq!(shard(input, &[]).len(), 1);
        assert_eq!(shard(input, &[3, 3, 99]).len(), 3, "dup + clamped cuts");
        let shards = shard(input, &[2, 4]);
        let glued: Vec<u8> = shards.concat();
        assert_eq!(glued, input);
        assert_eq!(shard(b"", &[1, 2]).len(), 1, "empty input is one shard");
    }

    #[test]
    fn input_minimizer_shrinks_to_the_core() {
        // Drive the shrinker with a synthetic divergence: reuse the real
        // one by checking a pattern against a *wrong* expectation is not
        // possible without a bug, so instead verify the shrinker keeps a
        // property-preserving subset — here "still contains a match".
        let re = compile("ab+c").unwrap();
        let input = b"xxxxabbbcyyyyy".to_vec();
        // minimize_input preserves *divergence*; with no divergence it
        // must return the input unchanged (no chunk removal sticks).
        let kept = minimize_input(&re, &input, &[]);
        assert_eq!(kept, input, "clean input cannot shrink");
    }
}
