//! A textual assembly format for compiled SIMD programs, with a parser —
//! so converted automatons can be saved, diffed, and reloaded into the
//! simulator without re-running the pipeline (`mscc build --emit asm`).
//!
//! ```text
//! .program start=mb0 start_state=s0 poly=3 mono=0
//! .block mb0 ms_0 members=s0
//!   [s0] Push 1
//!   [s0] St p0
//!   [s0] JumpF t=s1 f=s2
//! .dispatch hashed bits=s1:1,s2:2 barrier=0x0
//!   hash shiftmask neg=false shift=1 mask=3
//!   key 0x2 -> mb1
//!   key 0x4 -> mb2
//! .block mb1 ms_1 members=s1
//!   [s1] Halt
//! .dispatch end
//! ```
//!
//! The format is line-oriented: `.program` header, then `.block` /
//! `.dispatch` pairs in block order. Round-tripping is exact up to the
//! cost model (which is not part of the program text; the parser installs
//! the caller's model).

use crate::program::{BlockId, Dispatch, GuardedInstr, MetaBlock, SimdInstr, SimdProgram};
use msc_hash::{HashExpr, PerfectHash};
use msc_ir::{Addr, BinOp, CostModel, Op, Space, StateId, UnOp};
use std::fmt;
use std::fmt::Write as _;

/// Parse failures, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmError {
    /// Line the problem is on.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn addr_text(a: &Addr) -> String {
    match a.space {
        Space::Poly => format!("p{}", a.index),
        Space::Mono => format!("m{}", a.index),
    }
}

fn op_text(op: &Op) -> String {
    match op {
        Op::Push(v) => format!("Push {v}"),
        Op::PushF(b) => format!("PushF {b:#x}"),
        Op::Dup => "Dup".into(),
        Op::Pop(n) => format!("Pop {n}"),
        Op::Ld(a) => format!("Ld {}", addr_text(a)),
        Op::St(a) => format!("St {}", addr_text(a)),
        Op::LdRemote(a) => format!("LdRemote {}", addr_text(a)),
        Op::StRemote(a) => format!("StRemote {}", addr_text(a)),
        Op::Bin(b) => format!("Bin {b:?}"),
        Op::Un(u) => format!("Un {u:?}"),
        Op::PeId => "PeId".into(),
        Op::NProc => "NProc".into(),
        Op::PushRet => "PushRet".into(),
        Op::PopRet => "PopRet".into(),
    }
}

fn instr_text(i: &SimdInstr) -> String {
    match i {
        SimdInstr::Op(op) => op_text(op),
        SimdInstr::JumpF { t, f } => format!("JumpF t=s{} f=s{}", t.0, f.0),
        SimdInstr::SetPc(s) => format!("SetPc s{}", s.0),
        SimdInstr::Halt => "Halt".into(),
        SimdInstr::RetMulti(v) => {
            let ts: Vec<String> = v.iter().map(|s| format!("s{}", s.0)).collect();
            format!("RetMulti {}", ts.join(","))
        }
        SimdInstr::Spawn { child, next } => format!("Spawn child=s{} next=s{}", child.0, next.0),
    }
}

fn hash_text(e: &HashExpr) -> String {
    match *e {
        HashExpr::ShiftMask { neg, shift, mask } => {
            format!("shiftmask neg={neg} shift={shift} mask={mask:#x}")
        }
        HashExpr::XorFold { shift, mask } => format!("xorfold shift={shift} mask={mask:#x}"),
        HashExpr::AddFold { shift, mask } => format!("addfold shift={shift} mask={mask:#x}"),
        HashExpr::MulShift { mul, shift, mask } => {
            format!("mulshift mul={mul:#x} shift={shift} mask={mask:#x}")
        }
    }
}

/// Serialize a program to assembly text.
pub fn serialize(program: &SimdProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".program start=mb{} start_state=s{} poly={} mono={}",
        program.start.0, program.start_state.0, program.poly_words, program.mono_words
    );
    for (bi, block) in program.blocks.iter().enumerate() {
        let members: Vec<String> = block.members.iter().map(|s| format!("s{}", s.0)).collect();
        let _ = writeln!(
            out,
            ".block mb{} {} members={}",
            bi,
            block.name,
            members.join(",")
        );
        for gi in &block.body {
            let guard: Vec<String> = gi.guard.iter().map(|s| format!("s{}", s.0)).collect();
            let _ = writeln!(out, "  [{}] {}", guard.join(","), instr_text(&gi.instr));
        }
        match &block.dispatch {
            Dispatch::End => {
                let _ = writeln!(out, ".dispatch end");
            }
            Dispatch::Direct(t) => {
                let _ = writeln!(out, ".dispatch direct mb{}", t.0);
            }
            Dispatch::DirectWithBarrier { cont, barrier } => {
                let _ = writeln!(
                    out,
                    ".dispatch barrier cont=mb{} barrier=mb{}",
                    cont.0, barrier.0
                );
            }
            Dispatch::Hashed {
                bit_of,
                barrier_mask,
                hash,
                targets,
            } => {
                let bits: Vec<String> = bit_of
                    .iter()
                    .map(|(s, b)| format!("s{}:{b}", s.0))
                    .collect();
                let _ = writeln!(
                    out,
                    ".dispatch hashed bits={} barrier={barrier_mask:#x}",
                    bits.join(",")
                );
                let _ = writeln!(out, "  hash {}", hash_text(&hash.expr));
                for (key, target) in hash.keys.iter().zip(targets) {
                    let _ = writeln!(out, "  key {key:#x} -> mb{}", target.0);
                }
            }
        }
    }
    out
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn err(&self, line: usize, msg: impl Into<String>) -> AsmError {
        AsmError {
            line,
            msg: msg.into(),
        }
    }
}

fn kv<'b>(token: &'b str, key: &str, line: usize) -> Result<&'b str, AsmError> {
    token
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or(AsmError {
            line,
            msg: format!("expected `{key}=...`, found `{token}`"),
        })
}

fn parse_u64(s: &str, line: usize) -> Result<u64, AsmError> {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| AsmError {
        line,
        msg: format!("bad number `{s}`"),
    })
}

fn parse_state(s: &str, line: usize) -> Result<StateId, AsmError> {
    s.strip_prefix('s')
        .and_then(|r| r.parse().ok())
        .map(StateId)
        .ok_or(AsmError {
            line,
            msg: format!("bad state id `{s}`"),
        })
}

fn parse_block_id(s: &str, line: usize) -> Result<BlockId, AsmError> {
    s.strip_prefix("mb")
        .and_then(|r| r.parse().ok())
        .map(BlockId)
        .ok_or(AsmError {
            line,
            msg: format!("bad block id `{s}`"),
        })
}

fn parse_addr(s: &str, line: usize) -> Result<Addr, AsmError> {
    let (space, rest) = match s.split_at_checked(1) {
        Some(("p", r)) => (Space::Poly, r),
        Some(("m", r)) => (Space::Mono, r),
        _ => {
            return Err(AsmError {
                line,
                msg: format!("bad address `{s}`"),
            })
        }
    };
    rest.parse()
        .map(|index| Addr { space, index })
        .map_err(|_| AsmError {
            line,
            msg: format!("bad address `{s}`"),
        })
}

fn parse_binop(s: &str, line: usize) -> Result<BinOp, AsmError> {
    use BinOp::*;
    Ok(match s {
        "Add" => Add,
        "Sub" => Sub,
        "Mul" => Mul,
        "Div" => Div,
        "Rem" => Rem,
        "And" => And,
        "Or" => Or,
        "Xor" => Xor,
        "Shl" => Shl,
        "Shr" => Shr,
        "Eq" => Eq,
        "Ne" => Ne,
        "Lt" => Lt,
        "Le" => Le,
        "Gt" => Gt,
        "Ge" => Ge,
        "FAdd" => FAdd,
        "FSub" => FSub,
        "FMul" => FMul,
        "FDiv" => FDiv,
        "FLt" => FLt,
        "FLe" => FLe,
        "FGt" => FGt,
        "FGe" => FGe,
        "FEq" => FEq,
        "FNe" => FNe,
        other => {
            return Err(AsmError {
                line,
                msg: format!("bad binop `{other}`"),
            })
        }
    })
}

fn parse_unop(s: &str, line: usize) -> Result<UnOp, AsmError> {
    use UnOp::*;
    Ok(match s {
        "Neg" => Neg,
        "Not" => Not,
        "BitNot" => BitNot,
        "FNeg" => FNeg,
        "IntToFloat" => IntToFloat,
        "FloatToInt" => FloatToInt,
        other => {
            return Err(AsmError {
                line,
                msg: format!("bad unop `{other}`"),
            })
        }
    })
}

fn parse_instr(text: &str, line: usize) -> Result<SimdInstr, AsmError> {
    let mut parts = text.split_whitespace();
    let head = parts.next().ok_or(AsmError {
        line,
        msg: "empty instruction".into(),
    })?;
    let arg = parts.next();
    fn need<'b>(a: Option<&'b str>, head: &str, line: usize) -> Result<&'b str, AsmError> {
        a.ok_or(AsmError {
            line,
            msg: format!("`{head}` needs an operand"),
        })
    }
    Ok(match head {
        "Push" => SimdInstr::Op(Op::Push(need(arg, head, line)?.parse().map_err(|_| {
            AsmError {
                line,
                msg: "bad int".into(),
            }
        })?)),
        "PushF" => SimdInstr::Op(Op::PushF(parse_u64(need(arg, head, line)?, line)?)),
        "Dup" => SimdInstr::Op(Op::Dup),
        "Pop" => SimdInstr::Op(Op::Pop(need(arg, head, line)?.parse().map_err(|_| {
            AsmError {
                line,
                msg: "bad count".into(),
            }
        })?)),
        "Ld" => SimdInstr::Op(Op::Ld(parse_addr(need(arg, head, line)?, line)?)),
        "St" => SimdInstr::Op(Op::St(parse_addr(need(arg, head, line)?, line)?)),
        "LdRemote" => SimdInstr::Op(Op::LdRemote(parse_addr(need(arg, head, line)?, line)?)),
        "StRemote" => SimdInstr::Op(Op::StRemote(parse_addr(need(arg, head, line)?, line)?)),
        "Bin" => SimdInstr::Op(Op::Bin(parse_binop(need(arg, head, line)?, line)?)),
        "Un" => SimdInstr::Op(Op::Un(parse_unop(need(arg, head, line)?, line)?)),
        "PeId" => SimdInstr::Op(Op::PeId),
        "NProc" => SimdInstr::Op(Op::NProc),
        "PushRet" => SimdInstr::Op(Op::PushRet),
        "PopRet" => SimdInstr::Op(Op::PopRet),
        "Halt" => SimdInstr::Halt,
        "SetPc" => SimdInstr::SetPc(parse_state(need(arg, head, line)?, line)?),
        "JumpF" => {
            let t = parse_state(kv(need(arg, head, line)?, "t", line)?, line)?;
            let f = parse_state(kv(need(parts.next(), head, line)?, "f", line)?, line)?;
            SimdInstr::JumpF { t, f }
        }
        "RetMulti" => {
            let targets: Result<Vec<StateId>, AsmError> = need(arg, head, line)?
                .split(',')
                .map(|s| parse_state(s, line))
                .collect();
            SimdInstr::RetMulti(targets?)
        }
        "Spawn" => {
            let child = parse_state(kv(need(arg, head, line)?, "child", line)?, line)?;
            let next = parse_state(kv(need(parts.next(), head, line)?, "next", line)?, line)?;
            SimdInstr::Spawn { child, next }
        }
        other => {
            return Err(AsmError {
                line,
                msg: format!("unknown instruction `{other}`"),
            })
        }
    })
}

fn parse_hash_expr(text: &str, line: usize) -> Result<HashExpr, AsmError> {
    let mut parts = text.split_whitespace();
    let family = parts.next().ok_or(AsmError {
        line,
        msg: "empty hash expression".into(),
    })?;
    let mut field = |key: &str| -> Result<u64, AsmError> {
        let tok = parts.next().ok_or(AsmError {
            line,
            msg: format!("hash missing `{key}`"),
        })?;
        let v = kv(tok, key, line)?;
        if key == "neg" {
            Ok(match v {
                "true" => 1,
                "false" => 0,
                _ => {
                    return Err(AsmError {
                        line,
                        msg: format!("bad bool `{v}`"),
                    })
                }
            })
        } else {
            parse_u64(v, line)
        }
    };
    Ok(match family {
        "shiftmask" => {
            let neg = field("neg")? != 0;
            let shift = field("shift")? as u32;
            let mask = field("mask")?;
            HashExpr::ShiftMask { neg, shift, mask }
        }
        "xorfold" => {
            let shift = field("shift")? as u32;
            let mask = field("mask")?;
            HashExpr::XorFold { shift, mask }
        }
        "addfold" => {
            let shift = field("shift")? as u32;
            let mask = field("mask")?;
            HashExpr::AddFold { shift, mask }
        }
        "mulshift" => {
            let mul = field("mul")?;
            let shift = field("shift")? as u32;
            let mask = field("mask")?;
            HashExpr::MulShift { mul, shift, mask }
        }
        other => {
            return Err(AsmError {
                line,
                msg: format!("unknown hash family `{other}`"),
            })
        }
    })
}

/// Parse assembly text back into a program, installing `costs` as the
/// cost model.
pub fn parse(text: &str, costs: CostModel) -> Result<SimdProgram, AsmError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut p = Parser { lines, pos: 0 };

    // Header.
    let (hline, header) = p.next().ok_or(AsmError {
        line: 1,
        msg: "empty input".into(),
    })?;
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(".program") {
        return Err(p.err(hline, "expected `.program` header"));
    }
    let start = parse_block_id(kv(tokens.next().unwrap_or(""), "start", hline)?, hline)?;
    let start_state = parse_state(
        kv(tokens.next().unwrap_or(""), "start_state", hline)?,
        hline,
    )?;
    let poly_words = parse_u64(kv(tokens.next().unwrap_or(""), "poly", hline)?, hline)? as u32;
    let mono_words = parse_u64(kv(tokens.next().unwrap_or(""), "mono", hline)?, hline)? as u32;

    let mut blocks: Vec<MetaBlock> = Vec::new();
    while let Some((bline, bhead)) = p.next() {
        let mut tokens = bhead.split_whitespace();
        if tokens.next() != Some(".block") {
            return Err(p.err(bline, format!("expected `.block`, found `{bhead}`")));
        }
        let _id = tokens.next().ok_or(p.err(bline, "missing block id"))?;
        let name = tokens
            .next()
            .ok_or(p.err(bline, "missing block name"))?
            .to_string();
        let members_tok = kv(tokens.next().unwrap_or(""), "members", bline)?;
        let members: Result<Vec<StateId>, AsmError> = members_tok
            .split(',')
            .map(|s| parse_state(s, bline))
            .collect();
        let members = members?;

        // Body lines until `.dispatch`.
        let mut body: Vec<GuardedInstr> = Vec::new();
        loop {
            let (iline, l) = p
                .peek()
                .ok_or(p.err(bline, "block missing a `.dispatch`"))?;
            if l.starts_with(".dispatch") {
                break;
            }
            p.next();
            let rest = l
                .strip_prefix('[')
                .ok_or(p.err(iline, format!("expected `[guard] instr`, found `{l}`")))?;
            let (guard_text, instr_text) = rest
                .split_once(']')
                .ok_or(p.err(iline, "unterminated guard"))?;
            let guard: Result<Vec<StateId>, AsmError> = guard_text
                .split(',')
                .map(|s| parse_state(s.trim(), iline))
                .collect();
            let mut guard = guard?;
            guard.sort_unstable();
            body.push(GuardedInstr {
                guard: guard.into(),
                instr: parse_instr(instr_text.trim(), iline)?,
            });
        }

        // Dispatch.
        let (dline, dhead) = p.next().unwrap();
        let mut tokens = dhead.split_whitespace();
        tokens.next(); // .dispatch
        let kind = tokens.next().ok_or(p.err(dline, "missing dispatch kind"))?;
        let dispatch = match kind {
            "end" => Dispatch::End,
            "direct" => Dispatch::Direct(parse_block_id(
                tokens.next().ok_or(p.err(dline, "missing target"))?,
                dline,
            )?),
            "barrier" => {
                let cont = parse_block_id(kv(tokens.next().unwrap_or(""), "cont", dline)?, dline)?;
                let barrier =
                    parse_block_id(kv(tokens.next().unwrap_or(""), "barrier", dline)?, dline)?;
                Dispatch::DirectWithBarrier { cont, barrier }
            }
            "hashed" => {
                let bits_tok = kv(tokens.next().unwrap_or(""), "bits", dline)?;
                let mut bit_of = Vec::new();
                for pair in bits_tok.split(',') {
                    let (s, b) = pair
                        .split_once(':')
                        .ok_or(p.err(dline, format!("bad bit pair `{pair}`")))?;
                    bit_of.push((parse_state(s, dline)?, parse_u64(b, dline)? as u32));
                }
                let barrier_mask =
                    parse_u64(kv(tokens.next().unwrap_or(""), "barrier", dline)?, dline)?;
                // `hash ...` line.
                let (hl, hline_text) = p
                    .next()
                    .ok_or(p.err(dline, "hashed dispatch missing `hash` line"))?;
                let expr_text = hline_text
                    .strip_prefix("hash ")
                    .ok_or(p.err(hl, "expected `hash <family> ...`"))?;
                let expr = parse_hash_expr(expr_text, hl)?;
                // `key ... -> mb...` lines.
                let mut keys = Vec::new();
                let mut targets = Vec::new();
                while let Some((kl, l)) = p.peek() {
                    if !l.starts_with("key ") {
                        break;
                    }
                    p.next();
                    let rest = &l[4..];
                    let (k, t) = rest
                        .split_once("->")
                        .ok_or(p.err(kl, "expected `key K -> mbN`"))?;
                    keys.push(parse_u64(k.trim(), kl)?);
                    targets.push(parse_block_id(t.trim(), kl)?);
                }
                // Rebuild the dispatch table from the expression + keys.
                let mut table = vec![None; expr.table_size()];
                for (i, &k) in keys.iter().enumerate() {
                    let h = expr.eval(k) as usize;
                    if table
                        .get(h)
                        .map(|e: &Option<u32>| e.is_some())
                        .unwrap_or(true)
                    {
                        return Err(p.err(dline, format!("hash collision on key {k:#x}")));
                    }
                    table[h] = Some(i as u32);
                }
                Dispatch::Hashed {
                    bit_of,
                    barrier_mask,
                    hash: PerfectHash { expr, table, keys },
                    targets,
                }
            }
            other => return Err(p.err(dline, format!("unknown dispatch `{other}`"))),
        };
        blocks.push(MetaBlock {
            members,
            name,
            body,
            dispatch,
        });
    }

    let program = SimdProgram {
        blocks,
        start,
        start_state,
        poly_words,
        mono_words,
        costs,
    };
    program
        .validate()
        .map_err(|m| AsmError { line: 0, msg: m })?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("", CostModel::default()).is_err());
        assert!(parse("bogus", CostModel::default()).is_err());
        assert!(parse(
            ".program start=mb0 start_state=s0 poly=0 mono=0\n.block mb0 x members=s0\n  [s0] Frobnicate\n.dispatch end",
            CostModel::default()
        )
        .is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = ".program start=mb0 start_state=s0 poly=0 mono=0\n\
                    .block mb0 ms_0 members=s0\n\
                    \x20 [s0] Push nope\n\
                    .dispatch end";
        let err = parse(text, CostModel::default()).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
    }

    /// A guard naming a state outside its block's members would enable the
    /// PEs of another meta state: the text parses, the program does not.
    #[test]
    fn parse_rejects_a_guard_outside_the_block_members() {
        let text = |guard: &str| {
            format!(
                ".program start=mb0 start_state=s0 poly=0 mono=0\n\
                 .block mb0 ms_0_2 members=s0,s2\n\
                 \x20 [{guard}] Push 1\n\
                 \x20 [s0,s2] Halt\n\
                 .dispatch end"
            )
        };
        assert!(parse(&text("s0,s2"), CostModel::default()).is_ok());
        let err = parse(&text("s0,s1"), CostModel::default()).unwrap_err();
        assert!(err.msg.contains("non-member s1"), "{err}");
    }
}
