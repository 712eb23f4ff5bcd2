//! The seed's set representation, kept as a measurement baseline: meta
//! states as sorted, deduplicated `Vec<u32>`, with two-pointer merge
//! algebra. The production [`msc_core::StateSet`] replaced this with a
//! window of bit words; these routines let the benchmarks and the `claims`
//! binary quantify what word-parallel algebra buys over merging ids.

/// Sorted-merge union.
pub fn vec_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    // `claims -- setops --check` gates the union kernel on its ratio to this
    // loop, and this loop's speed depends on where the linker puts it: 630 ns
    // at 256 members when the function starts on a 64-byte boundary, 500 ns
    // 48 bytes past one (PR 14 moved it there without touching either side
    // of the ratio, and the gate read 45x against its 48.5x floor). Pin the
    // loop head to a cache line so the denominator stops moving with the
    // size of unrelated code.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    unsafe {
        std::arch::asm!(".p2align 6", options(nomem, nostack, preserves_flags));
    }
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Two-pointer set difference `a ∖ b`.
pub fn vec_difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Two-pointer subset test.
pub fn vec_is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra_matches_definitions() {
        let a = [1u32, 3, 5, 7];
        let b = [3u32, 4, 5];
        assert_eq!(vec_union(&a, &b), vec![1, 3, 4, 5, 7]);
        assert_eq!(vec_difference(&a, &b), vec![1, 7]);
        assert!(vec_is_subset(&[3, 5], &a));
        assert!(!vec_is_subset(&[3, 4], &a));
        assert!(vec_is_subset(&[], &a));
    }
}
