//! Stack-machine operations executed inside a MIMD basic block, and the
//! cycle cost model that drives time splitting (§2.4) and all simulator
//! accounting.
//!
//! The instruction set mirrors the MPL stack macros visible in the paper's
//! Listing 5 (`Push`, `LdL`, `StL`, `Pop`, `JumpF`, `Ret`) extended with the
//! MIMDC language features of §4.1: `mono` (replicated/shared) versus `poly`
//! (private) storage and "parallel subscripting" — direct access to another
//! processor's `poly` values through the router.
//!
//! Values are 64-bit words. `float` values are stored as the raw bits of an
//! `f64` and reinterpreted by the floating-point operators; this keeps the
//! per-PE operand stack a single homogeneous `Vec<i64>` exactly like a real
//! word-addressed SIMD PE.

use std::fmt;

/// Which address space a memory reference touches (§4.1 of the paper).
///
/// `mono` variables are replicated in each processor's local memory: loads
/// are local and fast, stores broadcast to every copy. `poly` variables are
/// private per processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    /// Shared variable, replicated per PE; stores broadcast.
    Mono,
    /// Private per-PE variable.
    Poly,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Mono => write!(f, "mono"),
            Space::Poly => write!(f, "poly"),
        }
    }
}

/// A word address within one of the two address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// Address space the slot lives in.
    pub space: Space,
    /// Word index within the space.
    pub index: u32,
}

impl Addr {
    /// A `poly` (per-PE private) address.
    pub const fn poly(index: u32) -> Self {
        Addr {
            space: Space::Poly,
            index,
        }
    }

    /// A `mono` (replicated shared) address.
    pub const fn mono(index: u32) -> Self {
        Addr {
            space: Space::Mono,
            index,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.space {
            Space::Mono => write!(f, "m{}", self.index),
            Space::Poly => write!(f, "p{}", self.index),
        }
    }
}

/// Binary operators. Both integer and floating variants are provided so the
/// cost model can price them differently (the paper's §2.4 motivates time
/// splitting with "instruction sets in which even the execution time of
/// different types of instruction varies widely").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Floating add on f64 bit patterns.
    FAdd,
    FSub,
    FMul,
    FDiv,
    FLt,
    FLe,
    FGt,
    FGe,
    FEq,
    FNe,
}

impl BinOp {
    /// True when the operator consumes/produces floating-point bit patterns.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd
                | BinOp::FSub
                | BinOp::FMul
                | BinOp::FDiv
                | BinOp::FLt
                | BinOp::FLe
                | BinOp::FGt
                | BinOp::FGe
                | BinOp::FEq
                | BinOp::FNe
        )
    }

    /// Apply the operator to two words. Integer division by zero yields 0
    /// (the simulated machine traps to a benign value rather than aborting
    /// the whole SIMD array).
    ///
    /// Inlined, so a loop over one operator compiles to that operator's
    /// arm; the four float arithmetic operators stay in one out-of-line
    /// copy, `float_arith`.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        fn fb(x: i64) -> f64 {
            f64::from_bits(x as u64)
        }
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
            BinOp::Eq => (a == b) as i64,
            BinOp::Ne => (a != b) as i64,
            BinOp::Lt => (a < b) as i64,
            BinOp::Le => (a <= b) as i64,
            BinOp::Gt => (a > b) as i64,
            BinOp::Ge => (a >= b) as i64,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => self.float_arith(a, b),
            BinOp::FLt => (fb(a) < fb(b)) as i64,
            BinOp::FLe => (fb(a) <= fb(b)) as i64,
            BinOp::FGt => (fb(a) > fb(b)) as i64,
            BinOp::FGe => (fb(a) >= fb(b)) as i64,
            BinOp::FEq => (fb(a) == fb(b)) as i64,
            BinOp::FNe => (fb(a) != fb(b)) as i64,
        }
    }

    /// `FAdd`, `FSub`, `FMul` and `FDiv` on f64 bit patterns. Which NaN
    /// such an op returns is up to code generation (an operand may be
    /// commuted), so every caller shares this one compiled copy: the SIMD
    /// machine, the interpreter and the MIMD reference agree on NaN bits.
    #[inline(never)]
    fn float_arith(self, a: i64, b: i64) -> i64 {
        let (a, b) = (f64::from_bits(a as u64), f64::from_bits(b as u64));
        let r = match self {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            _ => unreachable!("{self} is not float arithmetic"),
        };
        r.to_bits() as i64
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::FAdd => "+.",
            BinOp::FSub => "-.",
            BinOp::FMul => "*.",
            BinOp::FDiv => "/.",
            BinOp::FLt => "<.",
            BinOp::FLe => "<=.",
            BinOp::FGt => ">.",
            BinOp::FGe => ">=.",
            BinOp::FEq => "==.",
            BinOp::FNe => "!=.",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Logical not (`!x`): 1 if zero, else 0.
    Not,
    /// Bitwise complement.
    BitNot,
    /// Floating negation on f64 bit patterns.
    FNeg,
    /// Convert integer word to f64 bit pattern.
    IntToFloat,
    /// Truncate f64 bit pattern to integer word.
    FloatToInt,
}

impl UnOp {
    /// Apply the operator to one word.
    pub fn apply(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => (a == 0) as i64,
            UnOp::BitNot => !a,
            UnOp::FNeg => (-f64::from_bits(a as u64)).to_bits() as i64,
            UnOp::IntToFloat => (a as f64).to_bits() as i64,
            UnOp::FloatToInt => f64::from_bits(a as u64) as i64,
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::BitNot => "bnot",
            UnOp::FNeg => "fneg",
            UnOp::IntToFloat => "i2f",
            UnOp::FloatToInt => "f2i",
        };
        write!(f, "{s}")
    }
}

/// One straight-line stack instruction inside a basic block.
///
/// Control transfer is *not* an [`Op`]: a block's exit behaviour lives in its
/// [`crate::graph::Terminator`], because the meta-state conversion reasons
/// about exit arcs, not about instructions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Push an immediate word.
    Push(i64),
    /// Push an f64 immediate (stored as bits).
    PushF(u64),
    /// Push a copy of the top of stack.
    Dup,
    /// Pop `n` words.
    Pop(u8),
    /// Push the value at `addr` (local copy for `mono`).
    Ld(Addr),
    /// Pop a value and store it at `addr`. For `mono` this is a broadcast
    /// store updating every PE's copy.
    St(Addr),
    /// Pop a PE index, push the `poly` value at `addr` on that PE
    /// (parallel subscript read, `x[[j]]`).
    LdRemote(Addr),
    /// Pop a PE index, pop a value, store into `addr` on that PE
    /// (parallel subscript write, `x[[i]] = v`).
    StRemote(Addr),
    /// Apply a binary operator to the top two words (`… a b → … (a op b)`).
    Bin(BinOp),
    /// Apply a unary operator to the top word.
    Un(UnOp),
    /// Push this processor's id (MIMDC built-in `pe_id()`).
    PeId,
    /// Push the number of processors (MIMDC built-in `nproc()`).
    NProc,
    /// Pop a return-site index and push it on the per-PE call stack
    /// (supports §2.2's inline-expanded function returns).
    PushRet,
    /// Pop the top of the per-PE call stack and push it on the operand
    /// stack; consumed by a `Terminator::Multi` return dispatch.
    PopRet,
}

impl Op {
    /// Net change this op makes to the operand stack depth.
    pub fn stack_delta(&self) -> i32 {
        match self {
            Op::Push(_) | Op::PushF(_) | Op::Dup | Op::PeId | Op::NProc | Op::PopRet => 1,
            Op::Pop(n) => -(*n as i32),
            Op::Ld(_) => 1,
            Op::St(_) => -1,
            Op::LdRemote(_) => 0,
            Op::StRemote(_) => -2,
            Op::Bin(_) => -1,
            Op::Un(_) => 0,
            Op::PushRet => -1,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Push(v) => write!(f, "Push({v})"),
            Op::PushF(b) => write!(f, "PushF({})", f64::from_bits(*b)),
            Op::Dup => write!(f, "Dup"),
            Op::Pop(n) => write!(f, "Pop({n})"),
            Op::Ld(a) => write!(f, "Ld({a})"),
            Op::St(a) => write!(f, "St({a})"),
            Op::LdRemote(a) => write!(f, "LdRemote({a})"),
            Op::StRemote(a) => write!(f, "StRemote({a})"),
            Op::Bin(b) => write!(f, "Bin({b})"),
            Op::Un(u) => write!(f, "Un({u})"),
            Op::PeId => write!(f, "PeId"),
            Op::NProc => write!(f, "NProc"),
            Op::PushRet => write!(f, "PushRet"),
            Op::PopRet => write!(f, "PopRet"),
        }
    }
}

/// Coarse operation classes. The simulator uses one: `Memory` ops contend
/// for the PEs' local-memory ports. CSI prices ops one by one and uses no
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Stack shuffling and immediates.
    Stack,
    /// Integer ALU.
    IntAlu,
    /// Floating-point unit.
    FloatAlu,
    /// Local memory traffic.
    Memory,
    /// Router / broadcast communication.
    Comm,
    /// Call-stack bookkeeping.
    Control,
}

impl Op {
    /// The operation class of this op.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Push(_) | Op::PushF(_) | Op::Dup | Op::Pop(_) | Op::PeId | Op::NProc => {
                OpClass::Stack
            }
            Op::Bin(b) if b.is_float() => OpClass::FloatAlu,
            Op::Bin(_) => OpClass::IntAlu,
            Op::Un(u) => match u {
                UnOp::FNeg | UnOp::IntToFloat | UnOp::FloatToInt => OpClass::FloatAlu,
                _ => OpClass::IntAlu,
            },
            Op::Ld(_) => OpClass::Memory,
            Op::St(a) if a.space == Space::Poly => OpClass::Memory,
            Op::St(_) => OpClass::Comm, // mono store broadcasts
            Op::LdRemote(_) | Op::StRemote(_) => OpClass::Comm,
            Op::PushRet | Op::PopRet => OpClass::Control,
        }
    }
}

/// Cycle costs for every instruction, the "execution time associated with
/// each MIMD state" that §2.4's time-splitting heuristic consumes.
///
/// The defaults model a MasPar-class machine: single-cycle stack ops, a
/// multi-cycle multiplier/divider, 2-cycle local memory, an expensive router
/// hop for parallel subscripts, and a broadcast for `mono` stores. All
/// fields are public so experiments can sweep them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Push/Pop/Dup/PeId/NProc.
    pub stack: u32,
    /// Integer add/sub/logical/compare.
    pub int_simple: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide/remainder.
    pub int_div: u32,
    /// Floating add/sub/compare.
    pub float_simple: u32,
    /// Floating multiply.
    pub float_mul: u32,
    /// Floating divide.
    pub float_div: u32,
    /// Local (poly, or mono read) memory access.
    pub mem_local: u32,
    /// Router hop for `LdRemote`/`StRemote`.
    pub comm_remote: u32,
    /// Broadcast for a `mono` store.
    pub comm_broadcast: u32,
    /// Call-stack push/pop.
    pub control: u32,
    /// Cost of one meta-state dispatch: `globalor` reduction + hashed
    /// multiway branch (§3.2.3).
    pub dispatch: u32,
    /// Cost of changing the PE enable mask between differently-guarded
    /// instruction groups inside a meta state (priced by the CSI scheduler).
    pub guard_switch: u32,
    /// Per-instruction fetch+decode overhead charged by the *interpreter*
    /// baseline of §1.1 (zero for meta-state code, which has no fetch).
    pub interp_fetch_decode: u32,
    /// Loop-back overhead per interpreter dispatch round (§1.1 problem 3).
    pub interp_loop: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stack: 1,
            int_simple: 1,
            int_mul: 4,
            int_div: 16,
            float_simple: 4,
            float_mul: 6,
            float_div: 24,
            mem_local: 2,
            comm_remote: 20,
            comm_broadcast: 10,
            control: 2,
            dispatch: 8,
            guard_switch: 1,
            interp_fetch_decode: 4,
            interp_loop: 2,
        }
    }
}

impl CostModel {
    /// Cycle cost of a single straight-line op.
    pub fn op_cost(&self, op: &Op) -> u32 {
        match op {
            Op::Push(_) | Op::PushF(_) | Op::Dup | Op::Pop(_) | Op::PeId | Op::NProc => self.stack,
            Op::Bin(b) => match b {
                BinOp::Mul => self.int_mul,
                BinOp::Div | BinOp::Rem => self.int_div,
                BinOp::FMul => self.float_mul,
                BinOp::FDiv => self.float_div,
                b if b.is_float() => self.float_simple,
                _ => self.int_simple,
            },
            Op::Un(u) => match u {
                UnOp::FNeg | UnOp::IntToFloat | UnOp::FloatToInt => self.float_simple,
                _ => self.int_simple,
            },
            Op::Ld(_) => self.mem_local,
            Op::St(a) => match a.space {
                Space::Poly => self.mem_local,
                Space::Mono => self.comm_broadcast,
            },
            Op::LdRemote(_) | Op::StRemote(_) => self.comm_remote,
            Op::PushRet | Op::PopRet => self.control,
        }
    }

    /// Total cycle cost of a straight-line op sequence.
    pub fn block_cost(&self, ops: &[Op]) -> u64 {
        ops.iter().map(|o| self.op_cost(o) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_integer_semantics() {
        assert_eq!(BinOp::Add.apply(2, 3), 5);
        assert_eq!(BinOp::Sub.apply(2, 3), -1);
        assert_eq!(BinOp::Mul.apply(-4, 3), -12);
        assert_eq!(BinOp::Div.apply(7, 2), 3);
        assert_eq!(BinOp::Div.apply(7, 0), 0, "div-by-zero traps to 0");
        assert_eq!(BinOp::Rem.apply(7, 0), 0, "rem-by-zero traps to 0");
        assert_eq!(BinOp::Lt.apply(1, 2), 1);
        assert_eq!(BinOp::Ge.apply(1, 2), 0);
        assert_eq!(BinOp::Shl.apply(1, 65), 2, "shift amounts wrap mod 64");
    }

    #[test]
    fn binop_float_roundtrip() {
        let a = 1.5f64.to_bits() as i64;
        let b = 2.25f64.to_bits() as i64;
        let sum = BinOp::FAdd.apply(a, b);
        assert_eq!(f64::from_bits(sum as u64), 3.75);
        assert_eq!(BinOp::FLt.apply(a, b), 1);
        assert_eq!(BinOp::FEq.apply(a, a), 1);
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Neg.apply(5), -5);
        assert_eq!(UnOp::Not.apply(0), 1);
        assert_eq!(UnOp::Not.apply(7), 0);
        assert_eq!(UnOp::BitNot.apply(0), -1);
        let f = UnOp::IntToFloat.apply(3);
        assert_eq!(f64::from_bits(f as u64), 3.0);
        assert_eq!(UnOp::FloatToInt.apply(f), 3);
    }

    #[test]
    fn stack_deltas_balance_simple_sequences() {
        // x = 1;  ≡  Push(1) St(p0) — net 0.
        let seq = [Op::Push(1), Op::St(Addr::poly(0))];
        let net: i32 = seq.iter().map(Op::stack_delta).sum();
        assert_eq!(net, 0);
        // cond eval leaves 1: Ld(p0) — net 1.
        assert_eq!(Op::Ld(Addr::poly(0)).stack_delta(), 1);
    }

    #[test]
    fn default_costs_are_ordered_sensibly() {
        let c = CostModel::default();
        assert!(c.int_mul > c.int_simple);
        assert!(c.int_div > c.int_mul);
        assert!(c.float_div > c.float_mul);
        assert!(c.comm_remote > c.mem_local);
        assert!(c.comm_broadcast > c.mem_local);
    }

    #[test]
    fn mono_store_costs_broadcast() {
        let c = CostModel::default();
        assert_eq!(c.op_cost(&Op::St(Addr::mono(0))), c.comm_broadcast);
        assert_eq!(c.op_cost(&Op::St(Addr::poly(0))), c.mem_local);
    }

    #[test]
    fn block_cost_sums() {
        let c = CostModel::default();
        let ops = vec![
            Op::Push(1),
            Op::Push(2),
            Op::Bin(BinOp::Mul),
            Op::St(Addr::poly(0)),
        ];
        assert_eq!(
            c.block_cost(&ops),
            (2 * c.stack + c.int_mul + c.mem_local) as u64
        );
    }

    #[test]
    fn op_classes() {
        assert_eq!(Op::Push(1).class(), OpClass::Stack);
        assert_eq!(Op::Bin(BinOp::Add).class(), OpClass::IntAlu);
        assert_eq!(Op::Bin(BinOp::FMul).class(), OpClass::FloatAlu);
        assert_eq!(Op::Ld(Addr::poly(0)).class(), OpClass::Memory);
        assert_eq!(Op::St(Addr::mono(0)).class(), OpClass::Comm);
        assert_eq!(Op::LdRemote(Addr::poly(0)).class(), OpClass::Comm);
        assert_eq!(Op::PushRet.class(), OpClass::Control);
    }
}
