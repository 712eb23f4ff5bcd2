//! The PE array's data: every processing element's `poly` memory, operand
//! stack and return-site stack, plus the one replicated `mono` memory, in
//! flat lane-major storage — word `w` of PE `pe` is `poly[w·n + pe]`, stack
//! level `d` is `stack[d·n + pe]` — so an instruction issued to many PEs
//! walks one array instead of chasing a `Vec` per PE.
//!
//! The [`Op`] semantics have two implementations here, and none elsewhere
//! outside the MIMD reference (which stays separate on purpose: it is the
//! oracle). [`PeArray::apply`] steps PE by PE, each PE popping and pushing
//! its own stack; [`PeArray::apply_at_depth`] is the lane path for PEs that
//! share one operand depth, which reads and writes whole stack levels and
//! leaves the per-PE depths to the caller. The lane path declines what it
//! does not cover (the return-stack ops, and a depth below what the op
//! pops), and the caller then runs `apply`, which reports the fault.
//! [`SimdMachine`](crate::SimdMachine) issues each op to its enabled PEs in
//! ascending order; the §1.1 interpreter issues each cohort's op to the
//! cohort's PEs, the ascending list of PEs at one image address. Neither
//! order-dependent rule — a `mono` store keeps the last writer's value, a
//! remote store conflict goes to the last writer — needs more than that
//! ascending order (a store group that spans cohorts runs in ascending
//! order across them).

use crate::machine::RunError;
use msc_ir::{Addr, BinOp, Op, Space};

/// One stack per PE, depth-major: `depth` has one entry per PE, and level
/// `d` of PE `pe` is `words[d·n + pe]`. Grown a level (`n` words) at a
/// time, so no depth bound is configured anywhere.
#[derive(Debug, Clone)]
struct LaneStack {
    depth: Vec<u32>,
    words: Vec<i64>,
}

impl LaneStack {
    fn new(n: usize) -> Self {
        LaneStack {
            depth: vec![0; n],
            words: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, pe: usize, v: i64) {
        let n = self.depth.len();
        let at = self.depth[pe] as usize * n + pe;
        if at >= self.words.len() {
            // `depth[pe]` is at most the number of levels held, so one
            // more level always covers `at`.
            self.words.resize(self.words.len() + n, 0);
        }
        self.words[at] = v;
        self.depth[pe] += 1;
    }

    #[inline]
    fn pop(&mut self, pe: usize) -> Option<i64> {
        let d = self.depth[pe].checked_sub(1)?;
        self.depth[pe] = d;
        Some(self.words[d as usize * self.depth.len() + pe])
    }

    /// Level `d`, for PEs that sit above it.
    #[inline]
    fn level(&self, d: usize) -> &[i64] {
        let n = self.depth.len();
        &self.words[d * n..(d + 1) * n]
    }

    /// Level `d`, writable, for PEs that sit above it or at `d` to push
    /// there. PEs at `d` hold `d` levels, so growing one level, as
    /// [`push`](Self::push) does, covers it.
    #[inline]
    fn level_mut(&mut self, d: usize) -> &mut [i64] {
        let n = self.depth.len();
        if self.words.len() < (d + 1) * n {
            self.words.resize(self.words.len() + n, 0);
        }
        &mut self.words[d * n..(d + 1) * n]
    }

    /// Push `value(pe)` on each of `pes`, all at depth `d`.
    #[inline]
    fn push_each(&mut self, pes: &[usize], d: usize, value: impl Fn(usize) -> i64) {
        let out = self.level_mut(d);
        for &pe in pes {
            out[pe] = value(pe);
        }
    }

    /// Levels `d` and `d + 1`, writable, grown as [`level_mut`](Self::level_mut)
    /// grows level `d + 1`.
    #[inline]
    fn levels_mut(&mut self, d: usize) -> (&mut [i64], &mut [i64]) {
        let n = self.depth.len();
        self.level_mut(d + 1);
        self.words[d * n..(d + 2) * n].split_at_mut(n)
    }
}

/// The word index `op` addresses, if it lies outside a program's declared
/// memory. Remote accesses always address `poly` memory.
pub(crate) fn bad_address(op: &Op, poly_words: u32, mono_words: u32) -> Option<i64> {
    let (addr, limit) = match op {
        Op::Ld(a) | Op::St(a) => match a.space {
            Space::Poly => (a, poly_words),
            Space::Mono => (a, mono_words),
        },
        Op::LdRemote(a) | Op::StRemote(a) => (a, poly_words),
        _ => return None,
    };
    (addr.index >= limit).then_some(addr.index as i64)
}

/// PE indices wrap modulo `n` (the MP-1 router's toroidal addressing).
#[inline]
fn wrap_pe(idx: i64, n: usize) -> usize {
    idx.rem_euclid(n as i64) as usize
}

/// `lhs[pe] = b.apply(lhs[pe], rhs[pe])` for each of `pes`, with one loop
/// per operator: each loop's `apply` is on a constant and inlines to its
/// one arm, where a loop over `b.apply` would decide the operator per PE.
fn bin_lanes(b: BinOp, lhs: &mut [i64], rhs: &[i64], pes: &[usize]) {
    macro_rules! per_operator {
        ($($op:ident)*) => {
            match b {
                $(BinOp::$op => {
                    for &pe in pes {
                        lhs[pe] = BinOp::$op.apply(lhs[pe], rhs[pe]);
                    }
                })*
            }
        };
    }
    per_operator!(
        Add Sub Mul Div Rem And Or Xor Shl Shr Eq Ne Lt Le Gt Ge
        FAdd FSub FMul FDiv FLt FLe FGt FGe FEq FNe
    );
}

/// The data side of an `n`-PE array.
#[derive(Debug, Clone)]
pub struct PeArray {
    n: usize,
    poly_words: u32,
    poly: Vec<i64>,
    mono: Vec<i64>,
    stack: LaneStack,
    ret: LaneStack,
}

impl PeArray {
    /// `n` PEs with zeroed memories and empty stacks.
    pub fn new(n: usize, poly_words: u32, mono_words: u32) -> Self {
        PeArray {
            n,
            poly_words,
            poly: vec![0; n * poly_words as usize],
            mono: vec![0; mono_words as usize],
            stack: LaneStack::new(n),
            ret: LaneStack::new(n),
        }
    }

    /// Index of PE `pe`'s poly word `index`. With `pe < n` an out-of-range
    /// `index` lands past the end of `poly` and panics there; it can never
    /// alias another word's lane. A `pe ≥ n` could — it would read PE
    /// `pe − n`'s next word — which is why the public accessors assert it.
    #[inline]
    fn lane(&self, pe: usize, index: u32) -> usize {
        debug_assert!(pe < self.n);
        index as usize * self.n + pe
    }

    /// PE `pe`'s view of `addr` (every PE sees the one `mono` replica).
    pub fn poly_at(&self, pe: usize, addr: Addr) -> i64 {
        assert!(pe < self.n, "PE {pe} of a {}-PE array", self.n);
        match addr.space {
            Space::Poly => self.poly[self.lane(pe, addr.index)],
            Space::Mono => self.mono[addr.index as usize],
        }
    }

    /// Store `value` at `addr` as PE `pe` would.
    pub fn set_poly(&mut self, pe: usize, addr: Addr, value: i64) {
        assert!(pe < self.n, "PE {pe} of a {}-PE array", self.n);
        match addr.space {
            Space::Poly => {
                let at = self.lane(pe, addr.index);
                self.poly[at] = value;
            }
            Space::Mono => self.mono[addr.index as usize] = value,
        }
    }

    /// The word index `op` addresses, if it is out of this array's range.
    /// [`apply`](Self::apply) panics on such an op; a caller that cannot
    /// vouch for its program asks here first — once per issue, not per PE.
    pub fn check_addr(&self, op: &Op) -> Option<i64> {
        bad_address(op, self.poly_words, self.mono.len() as u32)
    }

    #[inline]
    fn push(&mut self, pe: usize, v: i64) {
        self.stack.push(pe, v);
    }

    /// Pop PE `pe`'s operand stack (a branch condition, a return selector).
    #[inline]
    pub fn pop(&mut self, pe: usize) -> Result<i64, RunError> {
        self.stack.pop(pe).ok_or(RunError::StackUnderflow { pe })
    }

    /// Empty both of PE `pe`'s stacks (process end, or recruitment).
    pub fn reset(&mut self, pe: usize) {
        self.stack.depth[pe] = 0;
        self.ret.depth[pe] = 0;
    }

    /// Give PE `to` a copy of PE `from`'s poly memory (§3.2.5: a spawned
    /// process finds its parameters where the parent stored them).
    pub fn copy_poly(&mut self, from: usize, to: usize) {
        for index in 0..self.poly_words {
            let v = self.poly[self.lane(from, index)];
            let at = self.lane(to, index);
            self.poly[at] = v;
        }
    }

    /// The operand depth every PE of `pes` sits at, if they share one.
    /// `None` for an empty list.
    pub fn common_depth(&self, pes: &[usize]) -> Option<u32> {
        let (&first, rest) = pes.split_first()?;
        let d = self.stack.depth[first];
        rest.iter()
            .all(|&pe| self.stack.depth[pe] == d)
            .then_some(d)
    }

    /// Set the operand depth of every PE of `pes` to `d`: the write-back
    /// after [`apply_at_depth`](Self::apply_at_depth), whose result is a
    /// depth the stack holds the levels for.
    pub fn set_depth(&mut self, pes: &[usize], d: u32) {
        debug_assert!(d as usize * self.n <= self.stack.words.len());
        for &pe in pes {
            self.stack.depth[pe] = d;
        }
    }

    /// Execute `op` on `pes` — ascending, and all at operand depth `d` —
    /// as [`apply`](Self::apply) would, a stack level at a time. The PEs'
    /// depths are neither read nor written: the result is their new depth,
    /// for the caller to keep or [`set_depth`](Self::set_depth). `None`,
    /// with nothing touched, for `PushRet` / `PopRet` and when `d` is below
    /// what `op` pops; `apply` then runs it and reports the fault. Levels
    /// grow as `apply` grows them, so both paths leave the same words.
    pub fn apply_at_depth(&mut self, op: &Op, pes: &[usize], d: u32) -> Option<u32> {
        let pops = match *op {
            Op::Push(_) | Op::PushF(_) | Op::Ld(_) | Op::PeId | Op::NProc => 0,
            Op::Dup | Op::St(_) | Op::LdRemote(_) | Op::Un(_) => 1,
            Op::StRemote(_) | Op::Bin(_) => 2,
            Op::Pop(k) => u32::from(k),
            Op::PushRet | Op::PopRet => return None,
        };
        // The lowest level the op reads, or the one it pushes to.
        let base = d.checked_sub(pops)? as usize;
        let n = self.n;
        let row = |index: u32| index as usize * n..(index as usize + 1) * n;
        let stack = &mut self.stack;
        match *op {
            Op::Push(v) => stack.push_each(pes, base, |_| v),
            Op::PushF(bits) => stack.push_each(pes, base, |_| bits as i64),
            Op::PeId => stack.push_each(pes, base, |pe| pe as i64),
            Op::NProc => stack.push_each(pes, base, |_| n as i64),
            Op::Ld(addr) => match addr.space {
                Space::Mono => {
                    let v = self.mono[addr.index as usize];
                    stack.push_each(pes, base, |_| v);
                }
                Space::Poly => {
                    let src = &self.poly[row(addr.index)];
                    stack.push_each(pes, base, |pe| src[pe]);
                }
            },
            Op::Dup => {
                let (src, out) = stack.levels_mut(base);
                for &pe in pes {
                    out[pe] = src[pe];
                }
            }
            Op::Pop(_) => {}
            Op::St(addr) => {
                let src = stack.level(base);
                match addr.space {
                    // Every PE writes the one replica in ascending order,
                    // so the highest-numbered one's value is what stays.
                    Space::Mono => {
                        if let Some(&last) = pes.last() {
                            self.mono[addr.index as usize] = src[last];
                        }
                    }
                    Space::Poly => {
                        let dst = &mut self.poly[row(addr.index)];
                        for &pe in pes {
                            dst[pe] = src[pe];
                        }
                    }
                }
            }
            Op::LdRemote(addr) => {
                let out = stack.level_mut(base);
                let src = &self.poly[row(addr.index)];
                for &pe in pes {
                    out[pe] = src[wrap_pe(out[pe], n)];
                }
            }
            // Ascending order: a conflict goes to the last writer.
            Op::StRemote(addr) => {
                let (values, targets) = stack.levels_mut(base);
                let dst = &mut self.poly[row(addr.index)];
                for &pe in pes {
                    dst[wrap_pe(targets[pe], n)] = values[pe];
                }
            }
            Op::Bin(b) => {
                let (lhs, rhs) = stack.levels_mut(base);
                bin_lanes(b, lhs, rhs, pes);
            }
            Op::Un(u) => {
                let out = stack.level_mut(base);
                for &pe in pes {
                    out[pe] = u.apply(out[pe]);
                }
            }
            Op::PushRet | Op::PopRet => unreachable!("declined above"),
        }
        Some(d.wrapping_add_signed(op.stack_delta()))
    }

    /// Execute `op` on each of `pes`, in order, stopping at the first PE
    /// that faults. The `match` sits outside the PE loops so that an issue
    /// to a thousand PEs decides what the op is once.
    #[inline]
    pub fn apply(&mut self, op: &Op, pes: impl IntoIterator<Item = usize>) -> Result<(), RunError> {
        match *op {
            Op::Push(v) => {
                for pe in pes {
                    self.push(pe, v);
                }
            }
            Op::PushF(bits) => {
                for pe in pes {
                    self.push(pe, bits as i64);
                }
            }
            Op::Dup => {
                for pe in pes {
                    let v = self.pop(pe)?;
                    self.push(pe, v);
                    self.push(pe, v);
                }
            }
            Op::Pop(n) => {
                for pe in pes {
                    for _ in 0..n {
                        self.pop(pe)?;
                    }
                }
            }
            Op::Ld(addr) => {
                for pe in pes {
                    let v = self.poly_at(pe, addr);
                    self.push(pe, v);
                }
            }
            // A `mono` store is a broadcast: every enabled PE writes the
            // one replica, and the last to be applied — the highest-numbered
            // — is the value that stays.
            Op::St(addr) => {
                for pe in pes {
                    let v = self.pop(pe)?;
                    self.set_poly(pe, addr, v);
                }
            }
            Op::LdRemote(addr) => {
                for pe in pes {
                    let idx = self.pop(pe)?;
                    let v = self.poly[self.lane(wrap_pe(idx, self.n), addr.index)];
                    self.push(pe, v);
                }
            }
            // Remote stores read only stacks, so applying them one PE at a
            // time is the simultaneous store with conflicts resolved to the
            // highest-numbered writer (the deterministic router policy).
            Op::StRemote(addr) => {
                for pe in pes {
                    let idx = self.pop(pe)?;
                    let v = self.pop(pe)?;
                    let at = self.lane(wrap_pe(idx, self.n), addr.index);
                    self.poly[at] = v;
                }
            }
            Op::Bin(b) => {
                for pe in pes {
                    let rhs = self.pop(pe)?;
                    let lhs = self.pop(pe)?;
                    self.push(pe, b.apply(lhs, rhs));
                }
            }
            Op::Un(u) => {
                for pe in pes {
                    let v = self.pop(pe)?;
                    self.push(pe, u.apply(v));
                }
            }
            Op::PeId => {
                for pe in pes {
                    self.push(pe, pe as i64);
                }
            }
            Op::NProc => {
                for pe in pes {
                    self.push(pe, self.n as i64);
                }
            }
            Op::PushRet => {
                for pe in pes {
                    let v = self.pop(pe)?;
                    self.ret.push(pe, v);
                }
            }
            Op::PopRet => {
                for pe in pes {
                    let v = self.ret.pop(pe);
                    self.push(pe, v.ok_or(RunError::RetStackUnderflow { pe })?);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::UnOp;

    /// splitmix64, to draw a whole case from one proptest seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A word that is as often a PE index, in or out of range, as not.
        fn word(&mut self, n: usize) -> i64 {
            match self.below(2) {
                0 => self.below(4 * n as u64 + 1) as i64 - 2 * n as i64,
                _ => self.below(u64::MAX) as i64,
            }
        }

        fn addr(&mut self) -> Addr {
            match self.below(2) {
                0 => Addr::poly(self.below(POLY as u64) as u32),
                _ => Addr::mono(self.below(MONO as u64) as u32),
            }
        }

        /// Any op, its address in range.
        fn op(&mut self, n: usize) -> Op {
            const BINS: [BinOp; 26] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
                BinOp::Shr,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::FAdd,
                BinOp::FSub,
                BinOp::FMul,
                BinOp::FDiv,
                BinOp::FLt,
                BinOp::FLe,
                BinOp::FGt,
                BinOp::FGe,
                BinOp::FEq,
                BinOp::FNe,
            ];
            const UNS: [UnOp; 6] = [
                UnOp::Neg,
                UnOp::Not,
                UnOp::BitNot,
                UnOp::FNeg,
                UnOp::IntToFloat,
                UnOp::FloatToInt,
            ];
            match self.below(15) {
                0 => Op::Push(self.word(n)),
                1 => Op::PushF(self.below(u64::MAX)),
                2 => Op::Dup,
                3 => Op::Pop(self.below(4) as u8),
                4 => Op::Ld(self.addr()),
                5 | 6 => Op::St(self.addr()),
                7 => Op::LdRemote(Addr::poly(self.below(POLY as u64) as u32)),
                8 => Op::StRemote(Addr::poly(self.below(POLY as u64) as u32)),
                9 => Op::Bin(BINS[self.below(BINS.len() as u64) as usize]),
                10 => Op::Un(UNS[self.below(UNS.len() as u64) as usize]),
                11 => Op::PeId,
                12 => Op::NProc,
                13 => Op::PushRet,
                _ => Op::PopRet,
            }
        }
    }

    const POLY: u32 = 3;
    const MONO: u32 = 2;

    /// An `n`-PE array with random memories and return stacks, every PE of
    /// `pes` at operand depth `d` and the others at random depths.
    fn array(g: &mut Gen, n: usize, pes: &[usize], d: u32) -> PeArray {
        let mut a = PeArray::new(n, POLY, MONO);
        for w in a.poly.iter_mut().chain(a.mono.iter_mut()) {
            *w = g.word(n);
        }
        for pe in 0..n {
            let depth = match pes.binary_search(&pe) {
                Ok(_) => d,
                Err(_) => g.below(5) as u32,
            };
            for _ in 0..depth {
                let v = g.word(n);
                a.stack.push(pe, v);
            }
            for _ in 0..g.below(3) {
                let v = g.word(n);
                a.ret.push(pe, v);
            }
        }
        a
    }

    /// The lane path, with the caller's fallback and write-back, as the
    /// machine and the interpreter run it.
    fn lane_issue(a: &mut PeArray, op: &Op, pes: &[usize]) -> Result<(), RunError> {
        let d = a.common_depth(pes).expect("the PEs share a depth");
        match a.apply_at_depth(op, pes, d) {
            Some(d) => {
                a.set_depth(pes, d);
                Ok(())
            }
            None => a.apply(op, pes.iter().copied()),
        }
    }

    #[test]
    fn common_depth_needs_one_depth_and_a_pe() {
        let mut a = PeArray::new(4, 0, 0);
        assert_eq!(a.common_depth(&[]), None);
        assert_eq!(a.common_depth(&[0, 3]), Some(0));
        a.stack.push(3, 9);
        assert_eq!(a.common_depth(&[0, 3]), None);
        assert_eq!(a.common_depth(&[3]), Some(1));
        a.set_depth(&[0, 3], 1);
        assert_eq!(a.common_depth(&[0, 1, 3]), None);
        assert_eq!(a.common_depth(&[0, 3]), Some(1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 2048,
            ..proptest::test_runner::ProptestConfig::default()
        })]
        /// A lane issue and its write-back leave what `apply` PE by PE
        /// leaves: the same result, memories, and every PE's stacks, depths
        /// and words alike — below the op's pops too, where the lane path
        /// declines and `apply` faults.
        #[test]
        fn lane_issue_matches_apply(
            seed in proptest::prelude::any::<u64>(),
            width in 0usize..5,
        ) {
            let mut g = Gen(seed);
            let n = [1, 7, 64, 65, 130][width];
            // Sparse, half or every PE.
            let density = [8, 2, 1][g.below(3) as usize];
            let mut pes: Vec<usize> = (0..n).filter(|_| g.below(density) == 0).collect();
            if pes.is_empty() {
                pes.push(g.below(n as u64) as usize);
            }
            let d = g.below(4) as u32;
            let op = g.op(n);
            let mut lanes = array(&mut g, n, &pes, d);
            let mut steps = lanes.clone();
            let got = lane_issue(&mut lanes, &op, &pes);
            let want = steps.apply(&op, pes.iter().copied());
            let case = format!("{op:?} at depth {d} on {pes:?}");
            proptest::prop_assert_eq!(&got, &want, "{}", case);
            proptest::prop_assert_eq!(&lanes.poly, &steps.poly, "{}", case);
            proptest::prop_assert_eq!(&lanes.mono, &steps.mono, "{}", case);
            for (l, s) in [(&lanes.stack, &steps.stack), (&lanes.ret, &steps.ret)] {
                proptest::prop_assert_eq!(&l.depth, &s.depth, "{}", case);
                proptest::prop_assert_eq!(&l.words, &s.words, "{}", case);
            }
        }
    }
}
