//! Data-parallel set algebra over `u64` word slices.
//!
//! Set algebra over windows of bit words is word-parallel (64 members per
//! operation); this module widens the word to 128/256-bit lanes where sets
//! are wide enough for that to pay, behind a portable, std-only shim:
//! `std::arch` intrinsics selected *at runtime* (AVX2+POPCNT on x86_64,
//! NEON on aarch64) with the plain scalar loop as the universal
//! fallback. Callers never see the dispatch — every public kernel picks
//! the widest available path once (cached) and the scalar twin is exported
//! under [`scalar`] so tests can assert bit-identical results.
//!
//! Three kernels:
//!
//! * [`subset_of`] — `a ⊆ b` over two word slices that start at the same
//!   word (`msc_core::StateSet::is_subset` runs its windows through it);
//! * [`subset_of_many`] — one query set tested against many candidate
//!   spans laid out contiguously in a word arena (the SoA snapshot
//!   [`subsume`](../../msc_core/subsume/index.html) streams through);
//! * [`union_count`] — union into a caller-owned scratch vector with a
//!   fused popcount (no allocation, no separate counting pass). The
//!   converter's own unions are a few words and run inline in
//!   `msc_core::stateset`; this is the kernel `perf` times at 256
//!   members and up (`simd.setops.union256_ns`).
//!
//! Overriding the dispatch: set `MSC_NO_SIMD=1` to force the scalar path
//! (read once per process; used by CI to exercise the fallback).

use std::sync::OnceLock;

/// Which lane width the runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// Plain 64-bit scalar loops (universal fallback).
    Scalar,
    /// 256-bit AVX2 with hardware POPCNT (x86_64).
    Avx2,
    /// 128-bit NEON (aarch64).
    Neon,
}

impl Lanes {
    /// Short human-readable name (metrics, --stats output).
    pub fn name(self) -> &'static str {
        match self {
            Lanes::Scalar => "scalar",
            Lanes::Avx2 => "avx2",
            Lanes::Neon => "neon",
        }
    }
}

/// The lane width every kernel in this module dispatches to (detected once
/// per process; `MSC_NO_SIMD=1` forces [`Lanes::Scalar`]).
pub fn lanes() -> Lanes {
    static LANES: OnceLock<Lanes> = OnceLock::new();
    *LANES.get_or_init(|| {
        if std::env::var_os("MSC_NO_SIMD").is_some_and(|v| v != "0" && !v.is_empty()) {
            return Lanes::Scalar;
        }
        detect()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Lanes {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        Lanes::Avx2
    } else {
        Lanes::Scalar
    }
}

#[cfg(target_arch = "aarch64")]
fn detect() -> Lanes {
    if std::arch::is_aarch64_feature_detected!("neon") {
        Lanes::Neon
    } else {
        Lanes::Scalar
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> Lanes {
    Lanes::Scalar
}

/// Union into scratch: `out = long | short` (with `short` zero-extended to
/// `long.len()`), returning the population count of the result. `out` is
/// cleared and overwritten; no allocation happens once its capacity is
/// warm. Requires `short.len() <= long.len()`.
pub fn union_count(long: &[u64], short: &[u64], out: &mut Vec<u64>) -> u32 {
    assert!(short.len() <= long.len(), "union_count: operands swapped");
    out.clear();
    out.resize(long.len(), 0);
    match lanes() {
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2 => unsafe { x86::union_count(long, short, out) },
        #[cfg(target_arch = "aarch64")]
        Lanes::Neon => neon::union_count(long, short, out),
        _ => scalar::union_count(long, short, out),
    }
}

/// True when the set represented by `a` is a subset of `b`: every word of
/// `a` beyond `b`'s length must be zero and `a[i] & !b[i] == 0` elsewhere.
pub fn subset_of(a: &[u64], b: &[u64]) -> bool {
    if a.len() > b.len() && a[b.len()..].iter().any(|&w| w != 0) {
        return false;
    }
    let a = &a[..a.len().min(b.len())];
    match lanes() {
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2 => unsafe { x86::subset_of(a, b) },
        #[cfg(target_arch = "aarch64")]
        Lanes::Neon => neon::subset_of(a, b),
        _ => scalar::subset_of(a, b),
    }
}

/// Batched subset test against an SoA word arena: for each `(offset,
/// nwords)` span into `arena`, test `a ⊆ arena[span]` and push the span's
/// *index* into `hits` for every success. One dispatch for the whole
/// candidate list; the spans stream linearly through the arena.
pub fn subset_of_many(a: &[u64], arena: &[u64], spans: &[(u32, u32)], hits: &mut Vec<u32>) {
    for (i, &(off, nw)) in spans.iter().enumerate() {
        let cand = &arena[off as usize..off as usize + nw as usize];
        if subset_of(a, cand) {
            hits.push(i as u32);
        }
    }
}

/// The scalar twins of every kernel — the universal fallback, and the
/// reference the SIMD paths are property-tested against.
pub mod scalar {
    /// `out = long | short`, returning the popcount. `out` must already be
    /// `long.len()` long.
    pub fn union_count(long: &[u64], short: &[u64], out: &mut [u64]) -> u32 {
        let mut n = 0u32;
        for i in 0..short.len() {
            let w = long[i] | short[i];
            out[i] = w;
            n += w.count_ones();
        }
        for i in short.len()..long.len() {
            let w = long[i];
            out[i] = w;
            n += w.count_ones();
        }
        n
    }

    /// All of `a` covered by `b` (`a.len() <= b.len()` required).
    pub fn subset_of(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b.iter()).all(|(&x, &y)| x & !y == 0)
    }
}

/// 256-bit AVX2 paths. Every function is `unsafe` because it requires the
/// `avx2` and `popcnt` target features, which [`lanes`] verified at
/// runtime before dispatching here.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Safety: requires AVX2 + POPCNT; `out.len() == long.len()`,
    /// `short.len() <= long.len()`.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn union_count(long: &[u64], short: &[u64], out: &mut [u64]) -> u32 {
        let (nl, ns) = (long.len(), short.len());
        let (lp, sp, op) = (long.as_ptr(), short.as_ptr(), out.as_mut_ptr());
        let mut n = 0u32;
        let mut i = 0usize;
        while i + 4 <= ns {
            let l = _mm256_loadu_si256(lp.add(i) as *const __m256i);
            let s = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            let o = _mm256_or_si256(l, s);
            _mm256_storeu_si256(op.add(i) as *mut __m256i, o);
            n += (_mm256_extract_epi64::<0>(o) as u64).count_ones();
            n += (_mm256_extract_epi64::<1>(o) as u64).count_ones();
            n += (_mm256_extract_epi64::<2>(o) as u64).count_ones();
            n += (_mm256_extract_epi64::<3>(o) as u64).count_ones();
            i += 4;
        }
        while i < ns {
            let w = *lp.add(i) | *sp.add(i);
            *op.add(i) = w;
            n += w.count_ones();
            i += 1;
        }
        while i < nl {
            let w = *lp.add(i);
            *op.add(i) = w;
            n += w.count_ones();
            i += 1;
        }
        n
    }

    /// Safety: requires AVX2 + POPCNT; `a.len() <= b.len()`.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn subset_of(a: &[u64], b: &[u64]) -> bool {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            acc = _mm256_or_si256(acc, _mm256_andnot_si256(vb, va));
            i += 4;
        }
        if _mm256_testz_si256(acc, acc) == 0 {
            return false;
        }
        while i < n {
            if *ap.add(i) & !*bp.add(i) != 0 {
                return false;
            }
            i += 1;
        }
        true
    }
}

/// 128-bit NEON paths (aarch64; NEON is baseline there, but the dispatch
/// still verifies it so the module stays honest on exotic targets).
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    pub fn union_count(long: &[u64], short: &[u64], out: &mut [u64]) -> u32 {
        let (nl, ns) = (long.len(), short.len());
        let (lp, sp, op) = (long.as_ptr(), short.as_ptr(), out.as_mut_ptr());
        let mut n = 0u32;
        let mut i = 0usize;
        unsafe {
            while i + 2 <= ns {
                let o = vorrq_u64(vld1q_u64(lp.add(i)), vld1q_u64(sp.add(i)));
                vst1q_u64(op.add(i), o);
                n += vgetq_lane_u64::<0>(o).count_ones();
                n += vgetq_lane_u64::<1>(o).count_ones();
                i += 2;
            }
            while i < ns {
                let w = *lp.add(i) | *sp.add(i);
                *op.add(i) = w;
                n += w.count_ones();
                i += 1;
            }
            while i < nl {
                let w = *lp.add(i);
                *op.add(i) = w;
                n += w.count_ones();
                i += 1;
            }
        }
        n
    }

    pub fn subset_of(a: &[u64], b: &[u64]) -> bool {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut i = 0usize;
        unsafe {
            let mut acc = vdupq_n_u64(0);
            while i + 2 <= n {
                acc = vorrq_u64(acc, vbicq_u64(vld1q_u64(ap.add(i)), vld1q_u64(bp.add(i))));
                i += 2;
            }
            if vgetq_lane_u64::<0>(acc) | vgetq_lane_u64::<1>(acc) != 0 {
                return false;
            }
            while i < n {
                if *ap.add(i) & !*bp.add(i) != 0 {
                    return false;
                }
                i += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_cached_and_named() {
        let l = lanes();
        assert_eq!(l, lanes());
        assert!(!l.name().is_empty());
    }

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
    fn long_inputs_cross_all_lane_tails() {
        // 4-word AVX2 blocks, 2-word NEON blocks, plus every tail length.
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn words() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(any::<u64>(), 0..20)
    }

    proptest! {
        /// The dispatched kernels agree bit-for-bit with the scalar twins
        /// on random inputs — words, counts, and subset verdicts.
        #[test]
        fn simd_matches_scalar(a in words(), b in words()) {
            let (long, short) = if a.len() >= b.len() { (&a, &b) } else { (&b, &a) };
            let mut out = Vec::new();
            let n = union_count(long, short, &mut out);
            let mut sout = vec![0u64; long.len()];
            let sn = scalar::union_count(long, short, &mut sout);
            prop_assert_eq!(&out, &sout);
            prop_assert_eq!(n, sn);

            let trunc = a.len().min(b.len());
            let fast = subset_of(&a[..trunc], &b);
            let slow = scalar::subset_of(&a[..trunc], &b);
            prop_assert_eq!(fast, slow);
        }
    }
}
