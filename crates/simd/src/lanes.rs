//! The PE array's data: every processing element's `poly` memory, operand
//! stack and return-site stack, plus the one replicated `mono` memory, in
//! flat lane-major storage — word `w` of PE `pe` is `poly[w·n + pe]`, stack
//! level `d` is `stack[d·n + pe]` — so an instruction issued to many PEs
//! walks one array instead of chasing a `Vec` per PE.
//!
//! [`PeArray::apply`] is the only implementation of the [`Op`] semantics
//! outside the MIMD reference (which stays separate on purpose: it is the
//! oracle). [`SimdMachine`](crate::SimdMachine) applies one op to its
//! enabled PEs in ascending order; the §1.1 interpreter applies each
//! cohort's op to the cohort's PEs, the ascending list of PEs at one image
//! address. Neither order-dependent rule — a `mono` store keeps the last
//! writer's value, a remote store conflict goes to the last writer — needs
//! more than that ascending order (a store group that spans cohorts runs
//! in ascending order across them).

use crate::machine::RunError;
use msc_ir::{Addr, Op, Space};

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

    /// PE indices wrap modulo N (the MP-1 router's toroidal addressing).
    #[inline]
    fn wrap_pe(&self, idx: i64) -> usize {
        idx.rem_euclid(self.n as i64) as usize
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
                    let v = self.poly[self.lane(self.wrap_pe(idx), addr.index)];
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
                    let at = self.lane(self.wrap_pe(idx), addr.index);
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
