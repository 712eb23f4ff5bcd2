//! Set algebra over `u64` word slices, 64 members per word operation.
//!
//! [`subset_of`] is `a ⊆ b` over two word slices that start at the same
//! word. `msc_core::StateSet::is_subset` runs its windows through it, the
//! module's one product caller. Every benchmark set fits one word, so the
//! kernels are plain scalar loops with no lane dispatch.
//!
//! [`union_count`], [`subset_of_many`] and [`lanes`] are here only for
//! `perf`, which times the first two at 256 members and records the
//! third; ROADMAP item 12 deletes them with those `perf` keys.

/// The lane width of the kernels in this module: always the 64-bit word.
/// Kept only for `perf`'s `env.simd_lanes`; ROADMAP item 12 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// Plain 64-bit scalar loops.
    Scalar,
}

impl Lanes {
    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The lane width every kernel here runs at, a constant. No product code
/// calls it; ROADMAP item 12 deletes it with `perf`'s `env.simd_lanes`.
pub fn lanes() -> Lanes {
    Lanes::Scalar
}

/// Union into scratch: `out = long | short` (with `short` zero-extended to
/// `long.len()`), returning the population count of the result. `out` is
/// cleared and overwritten; no allocation happens once its capacity is
/// warm. Requires `short.len() <= long.len()`. No product code calls it;
/// ROADMAP item 12 deletes it with `perf`'s `simd.setops.union256_ns`.
pub fn union_count(long: &[u64], short: &[u64], out: &mut Vec<u64>) -> u32 {
    assert!(short.len() <= long.len(), "union_count: operands swapped");
    out.clear();
    out.extend_from_slice(long);
    for (o, &s) in out.iter_mut().zip(short) {
        *o |= s;
    }
    out.iter().map(|w| w.count_ones()).sum()
}

/// True when the set represented by `a` is a subset of `b`: every word of
/// `a` beyond `b`'s length must be zero and `a[i] & !b[i] == 0` elsewhere.
pub fn subset_of(a: &[u64], b: &[u64]) -> bool {
    let (inside, beyond) = a.split_at(a.len().min(b.len()));
    beyond.iter().all(|&w| w == 0) && inside.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// Batched subset test against a word arena: for each `(offset, nwords)`
/// span into `arena`, test `a ⊆ arena[span]` and push the span's *index*
/// into `hits` for every success. No product code calls it; ROADMAP item
/// 12 deletes it with `perf`'s `simd.setops.subset_many256_ns`.
pub fn subset_of_many(a: &[u64], arena: &[u64], spans: &[(u32, u32)], hits: &mut Vec<u32>) {
    for (i, &(off, nw)) in spans.iter().enumerate() {
        let cand = &arena[off as usize..off as usize + nw as usize];
        if subset_of(a, cand) {
            hits.push(i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_count_zero_extends_short() {
        let mut out = Vec::new();
        let n = union_count(&[1, 0, 8, 16], &[2, 4], &mut out);
        assert_eq!(out, vec![3, 4, 8, 16]);
        assert_eq!(n, 5);
    }

    #[test]
    fn subset_of_covers_length_cases() {
        assert!(subset_of(&[0b01], &[0b11]));
        assert!(!subset_of(&[0b10], &[0b01]));
        // Extra trailing zero words on the left are harmless…
        assert!(subset_of(&[0b01, 0, 0], &[0b11]));
        // …but a set bit past the right's length is not covered.
        assert!(!subset_of(&[0b01, 0, 4], &[0b11]));
        assert!(subset_of(&[], &[1, 2, 3]));
    }

    #[test]
    fn subset_of_many_reports_hit_indices() {
        // Arena: spans [0..2] = {bits of words 3,0}, [2..3] = {1}, [3..5].
        let arena = vec![3u64, 0, 1, 0xffff, 0xffff];
        let spans = vec![(0u32, 2u32), (2, 1), (3, 2)];
        let mut hits = Vec::new();
        subset_of_many(&[1], &arena, &spans, &mut hits);
        assert_eq!(hits, vec![0, 1, 2]);
        hits.clear();
        subset_of_many(&[2], &arena, &spans, &mut hits);
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn union_and_subset_agree_up_to_23_words() {
        for len in 0usize..24 {
            let a: Vec<u64> = (0..len).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
            let b: Vec<u64> = (0..len)
                .map(|i| (i as u64).wrapping_mul(0x51ed) ^ 7)
                .collect();
            let mut out = Vec::new();
            let n = union_count(&a, &b, &mut out);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
            assert_eq!(out, expect, "len {len}");
            let ones: u32 = expect.iter().map(|w| w.count_ones()).sum();
            assert_eq!(n, ones, "len {len}");
            assert!(subset_of(&a, &out), "len {len}");
            assert!(subset_of(&b, &out), "len {len}");
        }
    }
}
