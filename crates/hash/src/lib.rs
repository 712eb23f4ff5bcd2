//! # msc-hash — customized hash functions for multiway branch encoding
//!
//! §3.2.3 of the paper: "each possible 'pc' value is assigned a bit; thus,
//! a `globalor` of the 'pc' values from all processors determines the
//! aggregate", and the resulting aggregate keys an N-way branch. The
//! aggregate values are sparse bitmasks, so a naive jump table over them
//! would need 2^S entries. The companion report \[Die92a\] ("Coding Multiway
//! Branches Using Customized Hash Functions") instead searches for a tiny
//! *perfect* hash that maps exactly the case values that can occur onto a
//! dense range, so the compiler emits a jump table — visible in the paper's
//! Listing 5 as switches like
//!
//! ```c
//! switch (((-apc) >> 5) & 3) { ... }
//! switch ((((apc >> 6) ^ apc) & 15)) { ... }
//! ```
//!
//! [`find_hash`] reproduces that search over the hash families observed in
//! the generated code (shift-mask of `x` or `-x`, shift-xor-mask,
//! shift-add-mask, multiply-shift-mask): table widths from the smallest
//! power of two that holds the keys upward, and within a width the families
//! in increasing op-count order, each over its shifts. The first expression
//! in that order that is injective on the key set is returned, so the order
//! *is* the output: the smallest table, then the fewest ALU ops.
//! [`HashExpr::eval`] lets the SIMD simulator execute the dispatch;
//! [`HashExpr::render`] prints the C-like form for MPL-style output.

use std::fmt;

/// A candidate hash expression over a `u64` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashExpr {
    /// `((±x) >> shift) & mask` — the `((-apc) >> 5) & 3` family.
    ShiftMask {
        /// Negate (two's complement) before shifting.
        neg: bool,
        /// Right shift amount.
        shift: u32,
        /// Final mask (table size − 1).
        mask: u64,
    },
    /// `((x >> shift) ^ x) & mask` — the `((apc >> 6) ^ apc) & 15` family.
    XorFold {
        /// Right shift amount.
        shift: u32,
        /// Final mask.
        mask: u64,
    },
    /// `((x >> shift) + x) & mask`.
    AddFold {
        /// Right shift amount.
        shift: u32,
        /// Final mask.
        mask: u64,
    },
    /// `((x * mul) >> shift) & mask` — multiplicative hashing fallback.
    MulShift {
        /// Odd multiplier.
        mul: u64,
        /// Right shift amount.
        shift: u32,
        /// Final mask.
        mask: u64,
    },
}

impl HashExpr {
    /// Evaluate the hash on a key.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        match *self {
            HashExpr::ShiftMask { neg, shift, mask } => {
                let v = if neg { x.wrapping_neg() } else { x };
                (v >> shift) & mask
            }
            HashExpr::XorFold { shift, mask } => ((x >> shift) ^ x) & mask,
            HashExpr::AddFold { shift, mask } => ((x >> shift).wrapping_add(x)) & mask,
            HashExpr::MulShift { mul, shift, mask } => (x.wrapping_mul(mul) >> shift) & mask,
        }
    }

    /// Size of the jump table this hash indexes (mask + 1).
    pub fn table_size(&self) -> usize {
        let mask = match *self {
            HashExpr::ShiftMask { mask, .. }
            | HashExpr::XorFold { mask, .. }
            | HashExpr::AddFold { mask, .. }
            | HashExpr::MulShift { mask, .. } => mask,
        };
        mask as usize + 1
    }

    /// Number of ALU operations needed to evaluate the hash (the cost the
    /// search minimizes after table size).
    pub fn op_count(&self) -> u32 {
        match *self {
            HashExpr::ShiftMask { neg, shift, .. } => {
                1 + neg as u32 + (shift > 0) as u32 // mask + optional neg + optional shift
            }
            HashExpr::XorFold { shift, .. } | HashExpr::AddFold { shift, .. } => {
                2 + (shift > 0) as u32
            }
            HashExpr::MulShift { shift, .. } => 2 + (shift > 0) as u32,
        }
    }

    /// Render as a C-like expression over the variable name `var`
    /// (matching the style of the paper's Listing 5).
    pub fn render(&self, var: &str) -> String {
        match *self {
            HashExpr::ShiftMask { neg, shift, mask } => {
                let v = if neg {
                    format!("(-{var})")
                } else {
                    var.to_string()
                };
                if shift > 0 {
                    format!("(({v} >> {shift}) & {mask})")
                } else {
                    format!("({v} & {mask})")
                }
            }
            HashExpr::XorFold { shift, mask } => {
                format!("((({var} >> {shift}) ^ {var}) & {mask})")
            }
            HashExpr::AddFold { shift, mask } => {
                format!("((({var} >> {shift}) + {var}) & {mask})")
            }
            HashExpr::MulShift { mul, shift, mask } => {
                format!("((({var} * {mul}u) >> {shift}) & {mask})")
            }
        }
    }
}

impl fmt::Display for HashExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render("x"))
    }
}

/// A perfect hash for a specific key set: the expression plus the dense
/// dispatch table mapping hash values back to key indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfectHash {
    /// The hash expression.
    pub expr: HashExpr,
    /// `table[expr.eval(keys[i])] == Some(i)`; slots no key maps to are
    /// `None` (unreachable `switch` cases).
    pub table: Vec<Option<u32>>,
    /// The key set the hash was built for, in input order.
    pub keys: Vec<u64>,
}

impl PerfectHash {
    /// Look up which key index `key` maps to. Returns `None` for a value
    /// outside the construction set (dispatching on such a value is a
    /// program bug the simulator reports rather than mis-jumping on).
    pub fn lookup(&self, key: u64) -> Option<u32> {
        let h = self.expr.eval(key) as usize;
        let i = self.table.get(h).copied().flatten()?;
        // Guard against aliasing by values outside the key set.
        (self.keys[i as usize] == key).then_some(i)
    }

    /// Fraction of table slots actually used.
    pub fn load_factor(&self) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        self.table.iter().filter(|e| e.is_some()).count() as f64 / self.table.len() as f64
    }
}

/// Why no hash could be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashError {
    /// The key set was empty.
    NoKeys,
    /// Two identical keys were supplied.
    DuplicateKey(u64),
    /// No tried family/parameter combination was injective within
    /// [`SearchOptions::max_table_bits`].
    NotFound,
}

impl fmt::Display for HashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashError::NoKeys => write!(f, "cannot hash an empty key set"),
            HashError::DuplicateKey(k) => write!(f, "duplicate key {k:#x}"),
            HashError::NotFound => write!(f, "no perfect hash found within the search bounds"),
        }
    }
}

impl std::error::Error for HashError {}

/// Search parameters for [`find_hash_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Largest table considered, as a power of two (table ≤ 2^max_table_bits),
    /// itself capped at [`MAX_TABLE_BITS`].
    pub max_table_bits: u32,
    /// Allow the multiplicative family (more ops, but succeeds on
    /// adversarial key sets the folding families miss).
    pub allow_mul: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_table_bits: 16,
            allow_mul: true,
        }
    }
}

/// Fixed odd multipliers tried by the multiplicative family: the 64-bit
/// golden-ratio constant and a few splitmix64-style mixers. Deterministic
/// so generated code is reproducible.
const MULTIPLIERS: [u64; 6] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
    0x2545_f491_4f6c_dd1d,
];

/// Ceiling that [`SearchOptions::max_table_bits`] is clamped to: a 16 M-slot
/// jump table is already absurd for aggregates of at most 64 pc bits, and no
/// option value may shift by 64 or size the search's scratch at will.
pub const MAX_TABLE_BITS: u32 = 24;

/// Every candidate of one table width, lazily, in increasing op-count
/// order. This order *is* the output of the search: ShiftMask shifts 0..64,
/// the negated ShiftMask 0..64, XorFold 1..64, AddFold 1..64, then (if
/// allowed) each of [`MULTIPLIERS`] with shifts 63 down to 0.
fn candidates(mask: u64, allow_mul: bool) -> impl Iterator<Item = HashExpr> {
    let shift_mask = move |neg| (0..64).map(move |shift| HashExpr::ShiftMask { neg, shift, mask });
    let muls = &MULTIPLIERS[..if allow_mul { MULTIPLIERS.len() } else { 0 }];
    shift_mask(false)
        .chain(shift_mask(true))
        .chain((1..64).map(move |shift| HashExpr::XorFold { shift, mask }))
        .chain((1..64).map(move |shift| HashExpr::AddFold { shift, mask }))
        .chain(muls.iter().flat_map(move |&mul| {
            (0..64)
                .rev()
                .map(move |shift| HashExpr::MulShift { mul, shift, mask })
        }))
}

/// Find a minimal perfect hash for `keys` with default search options.
pub fn find_hash(keys: &[u64]) -> Result<PerfectHash, HashError> {
    find_hash_with(keys, SearchOptions::default())
}

/// Find a perfect hash for `keys`: smallest table size first, then fewest
/// ALU ops, mirroring \[Die92a\]'s goal of "mak\[ing\] the case values
/// contiguous so that the compiler will use a jump table".
pub fn find_hash_with(keys: &[u64], opts: SearchOptions) -> Result<PerfectHash, HashError> {
    HashSearch::default().find(keys, opts)
}

/// The perfect-hash search with its scratch and its effort counter. One
/// value can serve any number of searches (code generation keeps one per
/// program); [`find_hash_with`] is a search on a fresh one.
#[derive(Debug, Default)]
pub struct HashSearch {
    /// Candidate expressions tested for injectivity so far, over every
    /// [`find`](Self::find) on this value.
    pub candidates_tested: u64,
    /// Injectivity scratch for tables of more than 64 slots: a slot holds
    /// the epoch of the last candidate that hit it, so nothing is cleared
    /// between candidates.
    stamps: Vec<u32>,
    epoch: u32,
}

impl HashSearch {
    /// [`find_hash_with`], counting into [`candidates_tested`](Self::candidates_tested).
    pub fn find(&mut self, keys: &[u64], opts: SearchOptions) -> Result<PerfectHash, HashError> {
        if keys.is_empty() {
            return Err(HashError::NoKeys);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(HashError::DuplicateKey(w[0]));
        }
        let min_bits = usize::BITS - (keys.len() - 1).leading_zeros();
        for bits in min_bits..=opts.max_table_bits.min(MAX_TABLE_BITS) {
            let found = candidates((1u64 << bits) - 1, opts.allow_mul).find(|expr| {
                self.candidates_tested += 1;
                self.injective(keys, expr)
            });
            if let Some(expr) = found {
                // Only the winner's table is ever built.
                let mut table = vec![None; expr.table_size()];
                for (i, &k) in keys.iter().enumerate() {
                    table[expr.eval(k) as usize] = Some(i as u32);
                }
                let keys = keys.to_vec();
                return Ok(PerfectHash { expr, table, keys });
            }
        }
        Err(HashError::NotFound)
    }

    /// Does `expr` map `keys` to distinct slots? Rejects on the first
    /// collision and allocates nothing per candidate: a `u64` seen-mask up
    /// to 64 slots, the epoch-stamped array (one per table width) above.
    fn injective(&mut self, keys: &[u64], expr: &HashExpr) -> bool {
        let slots = expr.table_size();
        if slots <= 64 {
            let mut seen = 0u64;
            return keys.iter().all(|&k| {
                let bit = 1u64 << expr.eval(k);
                let fresh = seen & bit == 0;
                seen |= bit;
                fresh
            });
        }
        if self.stamps.len() != slots || self.epoch == u32::MAX {
            self.stamps = Vec::new(); // free the narrower array first
            self.stamps = vec![0; slots];
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        keys.iter().all(|&k| {
            let stamp = &mut self.stamps[expr.eval(k) as usize];
            std::mem::replace(stamp, epoch) != epoch
        })
    }
}

/// The search as it stood before the lazy walk: a materialised candidate
/// list per table width and a freshly allocated table per candidate. Kept
/// only as the oracle the shipped search is compared against.
#[cfg(test)]
mod reference {
    use super::*;

    /// The result, and how many candidates were tried to get it.
    pub fn find_hash_with(
        keys: &[u64],
        opts: SearchOptions,
    ) -> (Result<PerfectHash, HashError>, u64) {
        if keys.is_empty() {
            return (Err(HashError::NoKeys), 0);
        }
        {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                if w[0] == w[1] {
                    return (Err(HashError::DuplicateKey(w[0])), 0);
                }
            }
        }
        let min_bits = if keys.len() == 1 {
            0
        } else {
            usize::BITS - (keys.len() - 1).leading_zeros()
        };
        let mut tested = 0;
        for bits in min_bits..=opts.max_table_bits {
            let mask = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
            // Families in increasing op-count order.
            let mut candidates: Vec<HashExpr> = Vec::new();
            for shift in 0..64 {
                candidates.push(HashExpr::ShiftMask {
                    neg: false,
                    shift,
                    mask,
                });
            }
            for shift in 0..64 {
                candidates.push(HashExpr::ShiftMask {
                    neg: true,
                    shift,
                    mask,
                });
            }
            for shift in 1..64 {
                candidates.push(HashExpr::XorFold { shift, mask });
            }
            for shift in 1..64 {
                candidates.push(HashExpr::AddFold { shift, mask });
            }
            if opts.allow_mul {
                for &mul in &MULTIPLIERS {
                    for shift in (0..64).rev() {
                        candidates.push(HashExpr::MulShift { mul, shift, mask });
                    }
                }
            }
            for expr in candidates {
                tested += 1;
                if let Some(table) = try_build(keys, &expr) {
                    let found = PerfectHash {
                        expr,
                        table,
                        keys: keys.to_vec(),
                    };
                    return (Ok(found), tested);
                }
            }
        }
        (Err(HashError::NotFound), tested)
    }

    /// Attempt to build the dispatch table; `None` on any collision.
    fn try_build(keys: &[u64], expr: &HashExpr) -> Option<Vec<Option<u32>>> {
        let mut table = vec![None; expr.table_size()];
        for (i, &k) in keys.iter().enumerate() {
            let h = expr.eval(k) as usize;
            if table[h].is_some() {
                return None;
            }
            table[h] = Some(i as u32);
        }
        Some(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The aggregate-pc case values at the end of the paper's `ms_0`:
    /// BIT(2)|BIT(6), BIT(6), BIT(2).
    #[test]
    fn listing5_ms0_cases() {
        let keys = [(1u64 << 2) | (1 << 6), 1 << 6, 1 << 2];
        let ph = find_hash(&keys).unwrap();
        assert!(ph.table.len() <= 4, "minimal power-of-two table for 3 keys");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    /// The five-way dispatch at the end of `ms_2_6` / `ms_2_6_9`:
    /// {2,6}, {9}, {6,9}, {2,9}, {2,6,9} as bitmasks.
    #[test]
    fn listing5_five_way_dispatch() {
        let b = |s: &[u32]| s.iter().fold(0u64, |m, &x| m | (1 << x));
        let keys = [b(&[2, 6]), b(&[9]), b(&[6, 9]), b(&[2, 9]), b(&[2, 6, 9])];
        let ph = find_hash(&keys).unwrap();
        assert!(
            ph.table.len() <= 16,
            "paper's generated mask was 15 (table 16)"
        );
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    #[test]
    fn single_key_gets_trivial_hash() {
        let ph = find_hash(&[0xdead_beef]).unwrap();
        assert_eq!(ph.table.len(), 1);
        assert_eq!(ph.lookup(0xdead_beef), Some(0));
    }

    #[test]
    fn lookup_rejects_aliasing_foreign_keys() {
        let keys = [1u64 << 2, 1 << 6];
        let ph = find_hash(&keys).unwrap();
        // Some value that is not a key must not silently map to one.
        for foreign in [0u64, 3, (1 << 2) | (1 << 6), u64::MAX] {
            if !keys.contains(&foreign) {
                assert_eq!(ph.lookup(foreign), None, "foreign {foreign:#x} aliased");
            }
        }
    }

    #[test]
    fn empty_and_duplicate_keys_error() {
        assert_eq!(find_hash(&[]), Err(HashError::NoKeys));
        assert_eq!(find_hash(&[5, 5]), Err(HashError::DuplicateKey(5)));
    }

    #[test]
    fn dense_small_keys_hash_identity_like() {
        let keys: Vec<u64> = (0..8).collect();
        let ph = find_hash(&keys).unwrap();
        assert_eq!(ph.table.len(), 8);
        assert_eq!(
            ph.expr.op_count(),
            1,
            "identity-with-mask should win: {}",
            ph.expr
        );
    }

    #[test]
    fn sparse_bitmask_keys_always_succeed() {
        // Every aggregate of up to 3 bits from a 12-bit pc space.
        let mut keys = vec![];
        for a in 0..12u32 {
            for b in a..12 {
                for c in b..12 {
                    keys.push((1u64 << a) | (1 << b) | (1 << c));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let ph = find_hash(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    #[test]
    fn render_matches_listing5_style() {
        let e = HashExpr::ShiftMask {
            neg: true,
            shift: 5,
            mask: 3,
        };
        assert_eq!(e.render("apc"), "(((-apc) >> 5) & 3)");
        let e = HashExpr::XorFold { shift: 6, mask: 15 };
        assert_eq!(e.render("apc"), "(((apc >> 6) ^ apc) & 15)");
    }

    #[test]
    fn load_factor_counts_used_slots() {
        let keys = [1u64 << 2, 1 << 6, (1 << 2) | (1 << 6)];
        let ph = find_hash(&keys).unwrap();
        let used = ph.table.iter().filter(|e| e.is_some()).count();
        assert_eq!(used, 3);
        assert!((ph.load_factor() - 3.0 / ph.table.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn op_count_ordering() {
        assert!(
            HashExpr::ShiftMask {
                neg: false,
                shift: 0,
                mask: 7
            }
            .op_count()
                < HashExpr::XorFold { shift: 3, mask: 7 }.op_count()
        );
    }

    #[test]
    fn search_without_mul_family_still_works_on_bitmasks() {
        let keys = [1u64 << 3, 1 << 7, (1 << 3) | (1 << 7), 1 << 11];
        let ph = find_hash_with(
            &keys,
            SearchOptions {
                max_table_bits: 8,
                allow_mul: false,
            },
        )
        .unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    /// Candidates per table width without the multiplicative family.
    const FOLD_CANDIDATES: usize = 64 + 64 + 63 + 63;

    /// Eight keys that differ only at bits 2, 30 and 58: no 24-bit window,
    /// folded or not, sees more than two of the three positions, and the set
    /// low bit makes negation a plain complement — so without the
    /// multiplicative family the search must walk every width and give up.
    fn far_apart_keys() -> Vec<u64> {
        (0..8u64)
            .map(|v| 1 | (v & 1) << 2 | (v >> 1 & 1) << 30 | (v >> 2) << 58)
            .collect()
    }

    #[test]
    fn hostile_max_table_bits_is_clamped_not_trusted() {
        let keys = far_apart_keys();
        let mut search = HashSearch::default();
        let opts = SearchOptions {
            max_table_bits: u32::MAX,
            allow_mul: false,
        };
        assert_eq!(search.find(&keys, opts), Err(HashError::NotFound));
        let widths = (MAX_TABLE_BITS - 3 + 1) as u64;
        assert_eq!(search.candidates_tested, widths * FOLD_CANDIDATES as u64);
        // One stamp array of the final width served all of its candidates:
        // the epoch restarts at every allocation.
        assert_eq!(search.stamps.len(), 1 << MAX_TABLE_BITS);
        assert_eq!(search.epoch as usize, FOLD_CANDIDATES);

        let ph = find_hash_with(
            &keys,
            SearchOptions {
                allow_mul: true,
                ..opts
            },
        )
        .unwrap();
        assert!(matches!(ph.expr, HashExpr::MulShift { .. }), "{}", ph.expr);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
        // More keys than the largest table has slots for: no search at all.
        let many: Vec<u64> = (0..=64).collect();
        let tiny = SearchOptions {
            max_table_bits: 6,
            allow_mul: true,
        };
        assert_eq!(find_hash_with(&many, tiny), Err(HashError::NotFound));
    }

    #[test]
    fn candidate_walk_covers_each_family_once_in_op_count_order() {
        let all: Vec<HashExpr> = candidates(15, true).collect();
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!((all.len(), distinct.len()), (638, 638));
        assert_eq!(all[0].op_count(), 1, "identity-with-mask comes first");
        let folds: Vec<HashExpr> = candidates(15, false).collect();
        assert_eq!(folds.len(), FOLD_CANDIDATES);
        assert_eq!(folds[..], all[..FOLD_CANDIDATES]);
        let (mul, shift) = (MULTIPLIERS[0], 63);
        assert_eq!(
            all[FOLD_CANDIDATES],
            HashExpr::MulShift {
                mul,
                shift,
                mask: 15
            }
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any set of distinct keys gets a correct perfect hash: every key
        /// maps to its own index, and the table size is a power of two no
        /// smaller than the key count.
        #[test]
        fn perfect_on_arbitrary_distinct_keys(
            mut keys in prop::collection::hash_set(any::<u64>(), 1..48)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>())
        ) {
            keys.sort_unstable();
            let ph = find_hash(&keys).unwrap();
            prop_assert!(ph.table.len().is_power_of_two());
            prop_assert!(ph.table.len() >= keys.len());
            for (i, &k) in keys.iter().enumerate() {
                prop_assert_eq!(ph.lookup(k), Some(i as u32));
            }
        }

        /// Evaluation is deterministic and within the table bounds.
        #[test]
        fn eval_in_bounds(
            keys in prop::collection::hash_set(any::<u64>(), 2..32)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
            probe in any::<u64>(),
        ) {
            let ph = find_hash(&keys).unwrap();
            let h = ph.expr.eval(probe);
            prop_assert!((h as usize) < ph.table.len());
            prop_assert_eq!(ph.expr.eval(probe), h);
        }

        /// Sparse bitmask keys (the real meta-dispatch workload) always
        /// hash, even with the multiplicative family disabled growth room.
        #[test]
        fn bitmask_keys_hash(bit_sets in prop::collection::hash_set(
            prop::collection::vec(0u32..20, 1..4), 1..24)
        ) {
            let mut keys: Vec<u64> = bit_sets
                .into_iter()
                .map(|bits| bits.into_iter().fold(0u64, |m, b| m | (1 << b)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let ph = find_hash(&keys).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                prop_assert_eq!(ph.lookup(k), Some(i as u32));
            }
        }
    }

    /// The six option settings every differential case runs under.
    fn all_options() -> impl Iterator<Item = SearchOptions> {
        [4, 8, 16].into_iter().flat_map(|max_table_bits| {
            [true, false].map(|allow_mul| SearchOptions {
                max_table_bits,
                allow_mul,
            })
        })
    }

    /// New ≡ old: the same result (expression, table, keys — or the same
    /// error) after testing the same number of candidates, which pins the
    /// search *order*, not just its outcome.
    fn same_as_reference(keys: &[u64]) -> Result<(), TestCaseError> {
        for opts in all_options() {
            let mut search = HashSearch::default();
            let got = search.find(keys, opts);
            let (want, tested) = reference::find_hash_with(keys, opts);
            prop_assert_eq!(&got, &want, "{:?} on {:x?}", opts, keys);
            prop_assert_eq!(
                search.candidates_tested,
                tested,
                "{:?} on {:x?}",
                opts,
                keys
            );
        }
        Ok(())
    }

    fn aggregates(positions: u32) -> impl Strategy<Value = Vec<u64>> {
        prop::collection::hash_set(prop::collection::vec(0..positions, 1..5), 1..40).prop_map(
            |sets| {
                let keys: std::collections::BTreeSet<u64> = sets
                    .into_iter()
                    .map(|bits| bits.into_iter().fold(0u64, |m, b| m | (1 << b)))
                    .collect();
                keys.into_iter().collect()
            },
        )
    }

    proptest! {
        #[test]
        fn differential_arbitrary_keys(
            keys in prop::collection::hash_set(any::<u64>(), 1..96)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>())
        ) {
            same_as_reference(&keys)?;
        }

        #[test]
        fn differential_aggregates_over_20_positions(keys in aggregates(20)) {
            same_as_reference(&keys)?;
        }

        #[test]
        fn differential_aggregates_over_64_positions(keys in aggregates(64)) {
            same_as_reference(&keys)?;
        }
    }
}
