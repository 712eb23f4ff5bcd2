//! AST → MIMD state graph lowering.
//!
//! Implements the front half of the paper's prototype (§4.2):
//!
//! 1. a control-flow graph "constructed in a 'normalized' form that
//!    ensures, for example, that loops are all of the type that execute
//!    the body one or more times" — `while`/`for` are desugared to
//!    `if (c) do … while (c)`;
//! 2. function call handling by **inline expansion** (§2.2), including
//!    recursion: when a call to `g` is encountered while `g` is already
//!    being expanded, the call links back to the existing copy's entry and
//!    "`return` statements … are translated into multiway branches" over
//!    the statically-known set of return sites. A per-PE return-site stack
//!    (`PushRet`/`PopRet` + `Terminator::Multi`) selects the site at run
//!    time while keeping the control-flow graph call-free;
//! 3. `wait` becomes a barrier-entry state (§2.6), `spawn`/`halt` become
//!    `Terminator::Spawn` / `Terminator::Halt` (§3.2.5);
//! 4. the graph is straightened and empty nodes removed (§2.1).
//!
//! Divergences from C, documented: `&&`/`||` do not short-circuit (both
//! sides evaluate, then bitwise combine of normalized booleans — on a SIMD
//! machine both sides execute under masks anyway), and compound assignment
//! to a parallel subscript is rejected.
//!
//! Activation records: the paper's inline expansion gives each *call site*
//! one set of slots, not each activation, and leaves the data side of
//! recursion open. This lowering completes it with a caller-save
//! convention — a recursive link saves the re-entered copies' slots on the
//! per-PE operand stack and restores them at the return continuation — so
//! multi-call recursion (`fib(n-1) + fib(n-2)`) computes correctly.

use crate::ast::*;
use crate::parser::MAX_DEPTH;
use crate::token::Pos;
use msc_ir::util::{FxHashMap, FxHashSet};
use msc_ir::{Addr, BinOp, MimdGraph, MimdState, Op, Space, StateId, Terminator, UnOp};
use std::fmt;

/// Maximum nesting depth of inline expansion (defense against pathological
/// call chains; genuine recursion does not grow this). A copy is also
/// refused where the walk of statements and expressions is already deeper
/// than [`MAX_DEPTH`]: the parser bounds each body, but a copy is walked
/// from inside its call site, so a chain of copies would add their depths
/// up. The walk therefore never goes deeper than about twice `MAX_DEPTH`.
const MAX_INLINE_DEPTH: usize = 64;

/// A compile-time error with position.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Description.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LowerError {}

/// Where a variable ended up.
#[derive(Debug, Clone, PartialEq)]
pub struct VarRecord {
    /// Enclosing function, or `"<global>"`.
    pub func: String,
    /// Source name.
    pub name: String,
    /// Allocated address.
    pub addr: Addr,
    /// Value type.
    pub ty: Type,
    /// Storage class.
    pub storage: Storage,
}

/// Memory layout of a compiled program.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Words of per-PE `poly` memory used.
    pub poly_words: u32,
    /// Words of replicated `mono` memory used.
    pub mono_words: u32,
    /// Every variable with its allocation (inspection/testing aid).
    pub vars: Vec<VarRecord>,
    /// Where `main`'s return value is stored (poly), if `main` returns one.
    pub main_ret: Option<Addr>,
}

impl Layout {
    /// Find a variable record by source name (innermost `main`/global
    /// declarations win by first-declared order).
    pub fn var(&self, name: &str) -> Option<&VarRecord> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// A compiled MIMDC program: the normalized MIMD state graph plus layout.
#[derive(Debug, Clone)]
pub struct Program {
    /// The MIMD control-flow graph (§2.1), normalized.
    pub graph: MimdGraph,
    /// Memory layout.
    pub layout: Layout,
}

#[derive(Debug, Clone, Copy)]
struct VarInfo {
    addr: Addr,
    ty: Type,
    storage: Storage,
}

/// A binary operator's left operand: an expression, or the variable `x`
/// that `x op= e` reads, already looked up (at the assignment's position).
#[derive(Clone, Copy)]
enum Left<'e> {
    Expr(&'e Expr),
    Var(VarInfo, Pos),
}

impl Left<'_> {
    fn pos(self) -> Pos {
        match self {
            Left::Expr(e) => e.pos(),
            Left::Var(_, pos) => pos,
        }
    }
}

struct LoopCtx {
    cont: StateId,
    brk: StateId,
}

/// One copy of a function body, per §2.2: `main`, an inline call, or a
/// spawned process.
struct ActiveCopy {
    func: String,
    entry: StateId,
    ret_slot: Option<Addr>,
    ret_ty: Type,
    /// Return-site continuations discovered so far; index = the site id a
    /// caller pushes with `PushRet`.
    ret_targets: Vec<StateId>,
    /// Blocks ending in `return`, patched to `Multi(ret_targets)` (or a
    /// plain `Jump` when only one site exists) once the copy is complete.
    ret_blocks: Vec<StateId>,
    /// The copy was made without a return site (`main`, a spawned process
    /// that does not recurse): its `return` ends the process.
    halt_on_return: bool,
    /// Whether the copy needs the return-site stack (recursive function).
    recursive: bool,
    /// Parameter slot addresses, in declaration order.
    params: Vec<Addr>,
    /// Pre-allocated poly locals (recursive copies only); `declare`
    /// binds them in source order.
    prealloc: Vec<Addr>,
    /// Next unconsumed index into `prealloc`.
    prealloc_next: usize,
}

impl ActiveCopy {
    /// Every poly slot of a recursive copy (params + pre-allocated locals).
    /// Recursive re-entry clobbers these, so the caller saves them on the
    /// per-PE operand stack around the link and restores them at the
    /// return site (the activation-record side of §2.2, which the paper
    /// leaves open — documented in DESIGN.md).
    fn slots(&self) -> impl Iterator<Item = Addr> + '_ {
        let params = if self.recursive {
            &self.params[..]
        } else {
            &[]
        };
        params.iter().chain(&self.prealloc).copied()
    }
}

struct Lowerer<'a> {
    ast: &'a Ast,
    graph: MimdGraph,
    layout: Layout,
    scopes: Vec<FxHashMap<String, VarInfo>>,
    loops: Vec<LoopCtx>,
    active: Vec<ActiveCopy>,
    /// Reusable spawn-entry copies per function name.
    spawn_entries: FxHashMap<String, (StateId, Vec<Addr>)>,
    /// Functions that can reach themselves through the AST call graph.
    recursive_funcs: FxHashSet<String>,
    cur: StateId,
    cur_ops: Vec<Op>,
    sealed: bool,
    /// Statements and expressions open in the walk, across inline copies.
    depth: usize,
}

/// Lower a parsed AST to a [`Program`].
pub fn lower(ast: &Ast) -> Result<Program, LowerError> {
    let main = ast.func("main").ok_or(LowerError {
        msg: "program has no `main` function".into(),
        pos: Pos { line: 1, col: 1 },
    })?;

    let mut lw = Lowerer {
        ast,
        graph: MimdGraph::new(),
        layout: Layout::default(),
        scopes: vec![FxHashMap::default()],
        loops: Vec::new(),
        active: Vec::new(),
        spawn_entries: FxHashMap::default(),
        recursive_funcs: compute_recursive(ast),
        cur: StateId(0),
        cur_ops: Vec::new(),
        sealed: true,
        depth: 0,
    };

    // Prologue block: global initializers, then main's body inline.
    let entry = lw.new_block();
    lw.graph.start = entry;
    lw.start_block(entry);
    for g in &ast.globals {
        lw.declare(g)?;
    }

    // main is the outermost copy, in the prologue block; it has no return
    // site, so its returns halt the process.
    let ret_slot = (main.ret != Type::Void).then(|| lw.alloc(Space::Poly));
    lw.layout.main_ret = ret_slot;
    if let Some(a) = ret_slot {
        lw.layout.vars.push(VarRecord {
            func: "main".into(),
            name: "<return>".into(),
            addr: a,
            ty: main.ret,
            storage: Storage::Poly,
        });
    }
    if !main.params.is_empty() {
        return Err(LowerError {
            msg: "`main` takes no parameters".into(),
            pos: main.pos,
        });
    }
    if lw.recursive_funcs.contains("main") {
        return Err(LowerError {
            msg: "recursive `main` is not supported".into(),
            pos: main.pos,
        });
    }
    lw.lower_copy(main, vec![], ret_slot, None)?;

    let mut graph = lw.graph;
    graph.compact();
    graph.normalize();
    graph.validate().map_err(|e| LowerError {
        msg: format!("internal: lowered graph invalid: {e}"),
        pos: Pos { line: 0, col: 0 },
    })?;
    Ok(Program {
        graph,
        layout: lw.layout,
    })
}

/// Which functions can reach themselves through the call graph (direct or
/// mutual recursion). `spawn` edges do not count: a spawned process is a
/// new process, not a pending return.
fn compute_recursive(ast: &Ast) -> FxHashSet<String> {
    fn calls_in_stmt(s: &Stmt, out: &mut Vec<String>) {
        match s {
            Stmt::Decl(d) => {
                if let Some(e) = &d.init {
                    calls_in_expr(e, out);
                }
            }
            Stmt::Decls(ds) => {
                for d in ds {
                    if let Some(e) = &d.init {
                        calls_in_expr(e, out);
                    }
                }
            }
            Stmt::Expr(e) => calls_in_expr(e, out),
            Stmt::If { cond, then, els } => {
                calls_in_expr(cond, out);
                calls_in_stmt(then, out);
                if let Some(e) = els {
                    calls_in_stmt(e, out);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                calls_in_expr(cond, out);
                calls_in_stmt(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    calls_in_stmt(i, out);
                }
                if let Some(c) = cond {
                    calls_in_expr(c, out);
                }
                if let Some(s) = step {
                    calls_in_expr(s, out);
                }
                calls_in_stmt(body, out);
            }
            Stmt::Block(v) => v.iter().for_each(|s| calls_in_stmt(s, out)),
            Stmt::Return(Some(e), _) => calls_in_expr(e, out),
            Stmt::Spawn { args, .. } => args.iter().for_each(|e| calls_in_expr(e, out)),
            _ => {}
        }
    }
    fn calls_in_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Assign { value, target, .. } => {
                calls_in_expr(value, out);
                if let LValue::ParSub { index, .. } = target {
                    calls_in_expr(index, out);
                }
            }
            Expr::Bin { l, r, .. } => {
                calls_in_expr(l, out);
                calls_in_expr(r, out);
            }
            Expr::Un { e, .. } => calls_in_expr(e, out),
            Expr::Call { name, args, .. } => {
                out.push(name.clone());
                args.iter().for_each(|a| calls_in_expr(a, out));
            }
            Expr::ParSub { index, .. } => calls_in_expr(index, out),
            _ => {}
        }
    }
    let mut edges: FxHashMap<&str, Vec<String>> = FxHashMap::default();
    for f in &ast.funcs {
        let mut out = Vec::new();
        f.body.iter().for_each(|s| calls_in_stmt(s, &mut out));
        edges.insert(&f.name, out);
    }
    let mut result = FxHashSet::default();
    for f in &ast.funcs {
        // DFS from f's callees looking for f.
        let mut stack: Vec<&str> = edges[f.name.as_str()].iter().map(|s| s.as_str()).collect();
        let mut seen: Vec<&str> = Vec::new();
        while let Some(g) = stack.pop() {
            if g == f.name {
                result.insert(f.name.clone());
                break;
            }
            if seen.contains(&g) {
                continue;
            }
            seen.push(g);
            if let Some(next) = edges.get(g) {
                stack.extend(next.iter().map(|s| s.as_str()));
            }
        }
    }
    result
}

impl<'a> Lowerer<'a> {
    // ---- block plumbing ------------------------------------------------

    fn new_block(&mut self) -> StateId {
        self.graph.add(MimdState::new(vec![], Terminator::Halt))
    }

    fn start_block(&mut self, id: StateId) {
        debug_assert!(self.sealed, "starting a block while another is open");
        self.cur = id;
        self.cur_ops = Vec::new();
        self.sealed = false;
    }

    fn seal(&mut self, term: Terminator) {
        debug_assert!(!self.sealed, "sealing a sealed block");
        let st = self.graph.state_mut(self.cur);
        st.ops = std::mem::take(&mut self.cur_ops);
        st.term = term;
        self.sealed = true;
    }

    fn emit(&mut self, op: Op) {
        debug_assert!(!self.sealed, "emitting into a sealed block");
        self.cur_ops.push(op);
    }

    /// After a diverging statement (`halt`, `break`, `return`), any further
    /// code in the source block is unreachable; give it a fresh block that
    /// compaction will discard.
    fn start_unreachable(&mut self) {
        let b = self.new_block();
        self.start_block(b);
    }

    // ---- symbols -------------------------------------------------------

    fn alloc(&mut self, space: Space) -> Addr {
        match space {
            Space::Poly => {
                let a = Addr::poly(self.layout.poly_words);
                self.layout.poly_words += 1;
                a
            }
            Space::Mono => {
                let a = Addr::mono(self.layout.mono_words);
                self.layout.mono_words += 1;
                a
            }
        }
    }

    fn declare(&mut self, d: &VarDecl) -> Result<(), LowerError> {
        if d.ty == Type::Void {
            return Err(LowerError {
                msg: format!("variable `{}` cannot be void", d.name),
                pos: d.pos,
            });
        }
        let scope = self.scopes.last_mut().unwrap();
        if scope.contains_key(&d.name) {
            return Err(LowerError {
                msg: format!("`{}` already declared in this scope", d.name),
                pos: d.pos,
            });
        }
        let space = match d.storage {
            Storage::Mono => Space::Mono,
            Storage::Poly => Space::Poly,
        };
        // Recursive copies pre-allocate their poly locals (see
        // `ActiveCopy::prealloc`); bind the next one in source order.
        let prealloc = (space == Space::Poly)
            .then(|| {
                self.active.last_mut().and_then(|c| {
                    let a = c.prealloc.get(c.prealloc_next).copied();
                    if a.is_some() {
                        c.prealloc_next += 1;
                    }
                    a
                })
            })
            .flatten();
        let addr = prealloc.unwrap_or_else(|| self.alloc(space));
        self.scopes.last_mut().unwrap().insert(
            d.name.clone(),
            VarInfo {
                addr,
                ty: d.ty,
                storage: d.storage,
            },
        );
        self.layout.vars.push(VarRecord {
            func: self.cur_func_name().into(),
            name: d.name.clone(),
            addr,
            ty: d.ty,
            storage: d.storage,
        });
        if let Some(init) = &d.init {
            let t = self.expr(init, true)?;
            self.coerce(t, d.ty, init.pos())?;
            self.emit(Op::St(addr));
        }
        Ok(())
    }

    fn lookup(&self, name: &str, pos: Pos) -> Result<VarInfo, LowerError> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(*v);
            }
        }
        Err(LowerError {
            msg: format!("undeclared variable `{name}`"),
            pos,
        })
    }

    // ---- types ---------------------------------------------------------

    /// Infer the type of an expression without emitting code.
    fn infer(&self, e: &Expr) -> Result<Type, LowerError> {
        Ok(match e {
            Expr::Int(..) | Expr::PeId(_) | Expr::NProc(_) => Type::Int,
            Expr::Float(..) => Type::Float,
            Expr::Var(name, pos) => self.lookup(name, *pos)?.ty,
            Expr::ParSub { name, pos, .. } => self.lookup(name, *pos)?.ty,
            Expr::Assign { target, .. } => match target {
                LValue::Var(name) => self.lookup(name, e.pos())?.ty,
                LValue::ParSub { name, .. } => self.lookup(name, e.pos())?.ty,
            },
            Expr::Un { op, e: inner, .. } => match op {
                AstUnOp::Not => Type::Int,
                AstUnOp::BitNot => Type::Int,
                AstUnOp::Neg => self.infer(inner)?,
            },
            Expr::Bin { op, l, r, .. } => match op {
                AstBinOp::Eq
                | AstBinOp::Ne
                | AstBinOp::Lt
                | AstBinOp::Le
                | AstBinOp::Gt
                | AstBinOp::Ge
                | AstBinOp::LogAnd
                | AstBinOp::LogOr => Type::Int,
                AstBinOp::BitAnd
                | AstBinOp::BitOr
                | AstBinOp::BitXor
                | AstBinOp::Shl
                | AstBinOp::Shr
                | AstBinOp::Rem => Type::Int,
                AstBinOp::Add | AstBinOp::Sub | AstBinOp::Mul | AstBinOp::Div => {
                    if self.infer(l)? == Type::Float || self.infer(r)? == Type::Float {
                        Type::Float
                    } else {
                        Type::Int
                    }
                }
            },
            Expr::Call { name, pos, .. } => {
                self.ast
                    .func(name)
                    .ok_or_else(|| LowerError {
                        msg: format!("unknown function `{name}`"),
                        pos: *pos,
                    })?
                    .ret
            }
        })
    }

    /// Emit a conversion of the stack top from `from` to `to`.
    fn coerce(&mut self, from: Type, to: Type, pos: Pos) -> Result<(), LowerError> {
        match (from, to) {
            (a, b) if a == b => Ok(()),
            (Type::Int, Type::Float) => {
                self.emit(Op::Un(UnOp::IntToFloat));
                Ok(())
            }
            (Type::Float, Type::Int) => {
                self.emit(Op::Un(UnOp::FloatToInt));
                Ok(())
            }
            (Type::Void, _) | (_, Type::Void) => Err(LowerError {
                msg: "void value used".into(),
                pos,
            }),
            _ => unreachable!(),
        }
    }

    /// Normalize the stack top of type `t` to an integer truth value.
    fn truthify(&mut self, t: Type, pos: Pos) -> Result<(), LowerError> {
        match t {
            Type::Int => Ok(()),
            Type::Float => {
                self.emit(Op::PushF(0f64.to_bits()));
                self.emit(Op::Bin(BinOp::FNe));
                Ok(())
            }
            Type::Void => Err(LowerError {
                msg: "void value used as condition".into(),
                pos,
            }),
        }
    }

    // ---- statements ----------------------------------------------------

    fn cur_func_name(&self) -> &str {
        self.active.last().map_or("<global>", |c| c.func.as_str())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        self.depth += 1;
        let lowered = self.lower_stmt(s);
        self.depth -= 1;
        lowered
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Decl(d) => self.declare(d),
            Stmt::Decls(ds) => {
                for d in ds {
                    self.declare(d)?;
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e, false)?;
                Ok(())
            }
            Stmt::Empty => Ok(()),
            Stmt::Block(v) => {
                self.scopes.push(FxHashMap::default());
                for s in v {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let t = self.expr(cond, true)?;
                self.truthify(t, cond.pos())?;
                let then_b = self.new_block();
                let join = self.new_block();
                let else_b = if els.is_some() {
                    self.new_block()
                } else {
                    join
                };
                self.seal(Terminator::Branch {
                    t: then_b,
                    f: else_b,
                });
                self.start_block(then_b);
                self.stmt(then)?;
                if !self.sealed {
                    self.seal(Terminator::Jump(join));
                }
                if let Some(els) = els {
                    self.start_block(else_b);
                    self.stmt(els)?;
                    if !self.sealed {
                        self.seal(Terminator::Jump(join));
                    }
                }
                self.start_block(join);
                Ok(())
            }
            // §4.2 normalization: while → if + do-while.
            Stmt::While { cond, body } => {
                let desugared = Stmt::If {
                    cond: cond.clone(),
                    then: Box::new(Stmt::DoWhile {
                        body: body.clone(),
                        cond: cond.clone(),
                    }),
                    els: None,
                };
                self.stmt(&desugared)
            }
            Stmt::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let exit = self.new_block();
                self.seal(Terminator::Jump(body_b));
                self.start_block(body_b);
                self.loops.push(LoopCtx {
                    cont: cond_b,
                    brk: exit,
                });
                self.scopes.push(FxHashMap::default());
                self.stmt(body)?;
                self.scopes.pop();
                self.loops.pop();
                if !self.sealed {
                    self.seal(Terminator::Jump(cond_b));
                }
                self.start_block(cond_b);
                let t = self.expr(cond, true)?;
                self.truthify(t, cond.pos())?;
                self.seal(Terminator::Branch { t: body_b, f: exit });
                self.start_block(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(FxHashMap::default());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let body_b = self.new_block();
                let step_b = self.new_block();
                let cond_b = self.new_block();
                let exit = self.new_block();
                // §4.2 one-or-more normalization: test once before entry.
                if let Some(c) = cond {
                    let t = self.expr(c, true)?;
                    self.truthify(t, c.pos())?;
                    self.seal(Terminator::Branch { t: body_b, f: exit });
                } else {
                    self.seal(Terminator::Jump(body_b));
                }
                self.start_block(body_b);
                self.loops.push(LoopCtx {
                    cont: step_b,
                    brk: exit,
                });
                self.stmt(body)?;
                self.loops.pop();
                if !self.sealed {
                    self.seal(Terminator::Jump(step_b));
                }
                self.start_block(step_b);
                if let Some(st) = step {
                    self.expr(st, false)?;
                }
                self.seal(Terminator::Jump(cond_b));
                self.start_block(cond_b);
                if let Some(c) = cond {
                    let t = self.expr(c, true)?;
                    self.truthify(t, c.pos())?;
                    self.seal(Terminator::Branch { t: body_b, f: exit });
                } else {
                    self.seal(Terminator::Jump(body_b));
                }
                self.start_block(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Break(pos) => {
                let Some(ctx) = self.loops.last() else {
                    return Err(LowerError {
                        msg: "`break` outside loop".into(),
                        pos: *pos,
                    });
                };
                let brk = ctx.brk;
                self.seal(Terminator::Jump(brk));
                self.start_unreachable();
                Ok(())
            }
            Stmt::Continue(pos) => {
                let Some(ctx) = self.loops.last() else {
                    return Err(LowerError {
                        msg: "`continue` outside loop".into(),
                        pos: *pos,
                    });
                };
                let cont = ctx.cont;
                self.seal(Terminator::Jump(cont));
                self.start_unreachable();
                Ok(())
            }
            Stmt::Wait(_) => {
                // Barrier: entry to the next state is the synchronization
                // point (§2.6).
                let b = self.new_block();
                self.graph.state_mut(b).barrier = true;
                self.seal(Terminator::Jump(b));
                self.start_block(b);
                Ok(())
            }
            Stmt::Halt(_) => {
                self.seal(Terminator::Halt);
                self.start_unreachable();
                Ok(())
            }
            Stmt::Return(e, pos) => self.lower_return(e.as_ref(), *pos),
            Stmt::Spawn { name, args, pos } => self.lower_spawn(name, args, *pos),
        }
    }

    fn lower_return(&mut self, e: Option<&Expr>, pos: Pos) -> Result<(), LowerError> {
        let copy = self.active.last().ok_or(LowerError {
            msg: "`return` outside of a function".into(),
            pos,
        })?;
        let (ret_slot, ret_ty, halt, recursive) = (
            copy.ret_slot,
            copy.ret_ty,
            copy.halt_on_return,
            copy.recursive,
        );
        match (e, ret_ty) {
            (Some(_), Type::Void) => {
                return Err(LowerError {
                    msg: "returning a value from a void function".into(),
                    pos,
                })
            }
            (Some(expr), _) => {
                let t = self.expr(expr, true)?;
                self.coerce(t, ret_ty, pos)?;
                self.emit(Op::St(ret_slot.expect("non-void has a slot")));
            }
            (None, _) => {}
        }
        if !halt {
            if recursive {
                // Pop the return-site id; the multiway branch targets are
                // patched in when the copy completes (§2.2).
                self.emit(Op::PopRet);
            }
            let cur = self.cur;
            self.active.last_mut().unwrap().ret_blocks.push(cur);
        }
        // A halt, or a placeholder that `lower_copy` patches.
        self.seal(Terminator::Halt);
        self.start_unreachable();
        Ok(())
    }

    fn lower_spawn(&mut self, name: &str, args: &[Expr], pos: Pos) -> Result<(), LowerError> {
        let func = self.callee(name, args, pos)?;
        // Get (or build) the reusable spawn copy of this function.
        let (entry, params) = match self.spawn_entries.get(name) {
            Some(e) => e.clone(),
            None => self.spawn_copy(func, pos)?,
        };
        // The parent evaluates the arguments into the child's parameter
        // slots (in the parent's own poly memory); the recruited PE copies
        // the parent's locals on spawn, so the values transfer (§3.2.5).
        self.pass_args(func, args, &params)?;
        let cont = self.new_block();
        self.seal(Terminator::Spawn {
            child: entry,
            next: cont,
        });
        self.start_block(cont);
        Ok(())
    }

    /// Lower a function body as a spawned-process copy, entered by a
    /// recruited PE. Its returns end the process, unless it recurses: then
    /// its returns are multiway branches whose site 0 is an explicit halt
    /// block, and the recruit itself pushes site 0 since no caller did.
    fn spawn_copy(&mut self, func: &Func, pos: Pos) -> Result<(StateId, Vec<Addr>), LowerError> {
        self.check_depth(pos)?;
        let entry = self.new_block();
        let params: Vec<Addr> = func
            .params
            .iter()
            .map(|_| self.alloc(Space::Poly))
            .collect();
        // Register before lowering the body so recursive spawns reuse it.
        self.spawn_entries
            .insert(func.name.clone(), (entry, params.clone()));
        let ret_slot = (func.ret != Type::Void).then(|| self.alloc(Space::Poly));
        let recursive = self.recursive_funcs.contains(&func.name);
        let halt_site = recursive.then(|| self.new_block());
        let saved = self.suspend_block();
        self.start_block(entry);
        if recursive {
            self.emit(Op::Push(0));
            self.emit(Op::PushRet);
        }
        self.lower_copy(func, params.clone(), ret_slot, halt_site)?;
        self.resume_block(saved);
        Ok((entry, params))
    }

    /// Save the in-progress block so a nested body can be lowered.
    fn suspend_block(&mut self) -> (StateId, Vec<Op>, bool) {
        let saved = (self.cur, std::mem::take(&mut self.cur_ops), self.sealed);
        self.sealed = true;
        saved
    }

    fn resume_block(&mut self, saved: (StateId, Vec<Op>, bool)) {
        self.cur = saved.0;
        self.cur_ops = saved.1;
        self.sealed = saved.2;
    }

    // ---- expressions ---------------------------------------------------

    /// Lower an expression; leaves one value on the stack iff `need`.
    /// Returns the value's type (`Void` possible only when `!need` or for
    /// void calls, which error when `need`).
    fn expr(&mut self, e: &Expr, need: bool) -> Result<Type, LowerError> {
        self.depth += 1;
        let lowered = self.lower_expr(e, need);
        self.depth -= 1;
        lowered
    }

    fn lower_expr(&mut self, e: &Expr, need: bool) -> Result<Type, LowerError> {
        match e {
            Expr::Int(v, _) => {
                if need {
                    self.emit(Op::Push(*v));
                }
                Ok(Type::Int)
            }
            Expr::Float(v, _) => {
                if need {
                    self.emit(Op::PushF(v.to_bits()));
                }
                Ok(Type::Float)
            }
            Expr::PeId(_) => {
                if need {
                    self.emit(Op::PeId);
                }
                Ok(Type::Int)
            }
            Expr::NProc(_) => {
                if need {
                    self.emit(Op::NProc);
                }
                Ok(Type::Int)
            }
            Expr::Var(name, pos) => {
                let v = self.lookup(name, *pos)?;
                if need {
                    self.emit(Op::Ld(v.addr));
                }
                Ok(v.ty)
            }
            Expr::ParSub { name, index, pos } => {
                let v = self.lookup(name, *pos)?;
                if v.storage != Storage::Poly {
                    return Err(LowerError {
                        msg: format!("parallel subscript on `mono` variable `{name}`"),
                        pos: *pos,
                    });
                }
                let it = self.expr(index, true)?;
                self.coerce(it, Type::Int, index.pos())?;
                self.emit(Op::LdRemote(v.addr));
                if !need {
                    self.emit(Op::Pop(1));
                }
                Ok(v.ty)
            }
            Expr::Un { op, e: inner, pos } => {
                let t = self.expr(inner, true)?;
                let rt = match op {
                    AstUnOp::Neg => {
                        match t {
                            Type::Int => self.emit(Op::Un(UnOp::Neg)),
                            Type::Float => self.emit(Op::Un(UnOp::FNeg)),
                            Type::Void => {
                                return Err(LowerError {
                                    msg: "void operand".into(),
                                    pos: *pos,
                                })
                            }
                        }
                        t
                    }
                    AstUnOp::Not => {
                        match t {
                            Type::Int => self.emit(Op::Un(UnOp::Not)),
                            Type::Float => {
                                self.emit(Op::PushF(0f64.to_bits()));
                                self.emit(Op::Bin(BinOp::FEq));
                            }
                            Type::Void => {
                                return Err(LowerError {
                                    msg: "void operand".into(),
                                    pos: *pos,
                                })
                            }
                        }
                        Type::Int
                    }
                    AstUnOp::BitNot => {
                        if t != Type::Int {
                            return Err(LowerError {
                                msg: "`~` requires an int operand".into(),
                                pos: *pos,
                            });
                        }
                        self.emit(Op::Un(UnOp::BitNot));
                        Type::Int
                    }
                };
                if !need {
                    self.emit(Op::Pop(1));
                }
                Ok(rt)
            }
            Expr::Bin { op, l, r, pos } => {
                let rt = self.lower_bin(*op, Left::Expr(l), r, *pos)?;
                if !need {
                    self.emit(Op::Pop(1));
                }
                Ok(rt)
            }
            Expr::Assign {
                target,
                op,
                value,
                pos,
            } => self.lower_assign(target, *op, value, *pos, need),
            Expr::Call { name, args, pos } => self.lower_call(name, args, *pos, need),
        }
    }

    /// Push a binary operator's left operand.
    fn left(&mut self, l: Left<'_>) -> Result<Type, LowerError> {
        match l {
            Left::Expr(e) => self.expr(e, true),
            Left::Var(v, _) => {
                self.emit(Op::Ld(v.addr));
                Ok(v.ty)
            }
        }
    }

    fn lower_bin(
        &mut self,
        op: AstBinOp,
        l: Left<'_>,
        r: &Expr,
        pos: Pos,
    ) -> Result<Type, LowerError> {
        use AstBinOp::*;
        match op {
            LogAnd | LogOr => {
                // Non-short-circuit (documented): normalize to 0/1, combine.
                let tl = self.left(l)?;
                self.truthify(tl, l.pos())?;
                self.emit(Op::Push(0));
                self.emit(Op::Bin(BinOp::Ne));
                let tr = self.expr(r, true)?;
                self.truthify(tr, r.pos())?;
                self.emit(Op::Push(0));
                self.emit(Op::Bin(BinOp::Ne));
                self.emit(Op::Bin(if op == LogAnd { BinOp::And } else { BinOp::Or }));
                Ok(Type::Int)
            }
            BitAnd | BitOr | BitXor | Shl | Shr | Rem => {
                let tl = self.left(l)?;
                if tl != Type::Int {
                    return Err(LowerError {
                        msg: format!("operator `{op:?}` requires int operands"),
                        pos,
                    });
                }
                let tr = self.expr(r, true)?;
                if tr != Type::Int {
                    return Err(LowerError {
                        msg: format!("operator `{op:?}` requires int operands"),
                        pos,
                    });
                }
                let b = match op {
                    BitAnd => BinOp::And,
                    BitOr => BinOp::Or,
                    BitXor => BinOp::Xor,
                    Shl => BinOp::Shl,
                    Shr => BinOp::Shr,
                    Rem => BinOp::Rem,
                    _ => unreachable!(),
                };
                self.emit(Op::Bin(b));
                Ok(Type::Int)
            }
            Add | Sub | Mul | Div | Eq | Ne | Lt | Le | Gt | Ge => {
                let tl = match l {
                    Left::Expr(e) => self.infer(e)?,
                    Left::Var(v, _) => v.ty,
                };
                let tr = self.infer(r)?;
                let unified = if tl == Type::Float || tr == Type::Float {
                    Type::Float
                } else {
                    Type::Int
                };
                let got_l = self.left(l)?;
                debug_assert_eq!(got_l, tl);
                self.coerce(tl, unified, l.pos())?;
                let got_r = self.expr(r, true)?;
                debug_assert_eq!(got_r, tr);
                self.coerce(tr, unified, r.pos())?;
                let (ib, fb) = match op {
                    Add => (BinOp::Add, BinOp::FAdd),
                    Sub => (BinOp::Sub, BinOp::FSub),
                    Mul => (BinOp::Mul, BinOp::FMul),
                    Div => (BinOp::Div, BinOp::FDiv),
                    Eq => (BinOp::Eq, BinOp::FEq),
                    Ne => (BinOp::Ne, BinOp::FNe),
                    Lt => (BinOp::Lt, BinOp::FLt),
                    Le => (BinOp::Le, BinOp::FLe),
                    Gt => (BinOp::Gt, BinOp::FGt),
                    Ge => (BinOp::Ge, BinOp::FGe),
                    _ => unreachable!(),
                };
                self.emit(Op::Bin(if unified == Type::Float { fb } else { ib }));
                Ok(match op {
                    Add | Sub | Mul | Div => unified,
                    _ => Type::Int,
                })
            }
        }
    }

    fn lower_assign(
        &mut self,
        target: &LValue,
        op: Option<AstBinOp>,
        value: &Expr,
        pos: Pos,
        need: bool,
    ) -> Result<Type, LowerError> {
        match target {
            LValue::Var(name) => {
                let v = self.lookup(name, pos)?;
                let t = match op {
                    // x op= e  ≡  x = x op e (with the usual promotions).
                    Some(op) => self.lower_bin(op, Left::Var(v, pos), value, pos)?,
                    None => self.expr(value, true)?,
                };
                self.coerce(t, v.ty, pos)?;
                if need {
                    self.emit(Op::Dup);
                }
                self.emit(Op::St(v.addr));
                Ok(v.ty)
            }
            LValue::ParSub { name, index } => {
                if op.is_some() {
                    return Err(LowerError {
                        msg: "compound assignment to a parallel subscript is not supported".into(),
                        pos,
                    });
                }
                let v = self.lookup(name, pos)?;
                if v.storage != Storage::Poly {
                    return Err(LowerError {
                        msg: format!("parallel subscript on `mono` variable `{name}`"),
                        pos,
                    });
                }
                let t = self.expr(value, true)?;
                self.coerce(t, v.ty, pos)?;
                if need {
                    self.emit(Op::Dup);
                }
                let it = self.expr(index, true)?;
                self.coerce(it, Type::Int, index.pos())?;
                self.emit(Op::StRemote(v.addr));
                Ok(v.ty)
            }
        }
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
        need: bool,
    ) -> Result<Type, LowerError> {
        let func = self.callee(name, args, pos)?;
        if need && func.ret == Type::Void {
            return Err(LowerError {
                msg: format!("void function `{name}` used as a value"),
                pos,
            });
        }

        // §2.2: a call to a function already being expanded links back to
        // the existing copy (recursion), registering this continuation as
        // one more return target of its multiway branch. Re-entering the
        // copy clobbers the slots of every copy on the chain from it down
        // to here, so those are caller-saved on the per-PE operand stack
        // and restored at the continuation.
        if let Some(ci) = self.active.iter().rposition(|c| c.func == name) {
            let copy = &self.active[ci];
            debug_assert!(copy.recursive, "linking into a non-recursive copy");
            let (entry, params, ret_slot) = (copy.entry, copy.params.clone(), copy.ret_slot);
            let save: Vec<Addr> = self.active[ci..]
                .iter()
                .flat_map(ActiveCopy::slots)
                .collect();
            for a in &save {
                self.emit(Op::Ld(*a));
            }
            self.pass_args(func, args, &params)?;
            let cont = self.new_block();
            let site = {
                let copy = &mut self.active[ci];
                copy.ret_targets.push(cont);
                (copy.ret_targets.len() - 1) as i64
            };
            self.emit(Op::Push(site));
            self.emit(Op::PushRet);
            self.seal(Terminator::Jump(entry));
            self.start_block(cont);
            for a in save.iter().rev() {
                self.emit(Op::St(*a));
            }
            if need {
                self.emit(Op::Ld(ret_slot.expect("non-void")));
            }
            return Ok(func.ret);
        }

        // Fresh inline copy for this call site.
        self.check_depth(pos)?;
        let params: Vec<Addr> = func
            .params
            .iter()
            .map(|_| self.alloc(Space::Poly))
            .collect();
        let ret_slot = (func.ret != Type::Void).then(|| self.alloc(Space::Poly));
        for (arg, ((pty, _), addr)) in args.iter().zip(func.params.iter().zip(&params)) {
            let t = self.expr(arg, true)?;
            self.coerce(t, *pty, arg.pos())?;
            self.emit(Op::St(*addr));
        }
        let entry = self.new_block();
        let cont = self.new_block();
        if self.recursive_funcs.contains(name) {
            // Initial activation returns to site 0.
            self.emit(Op::Push(0));
            self.emit(Op::PushRet);
        }
        self.seal(Terminator::Jump(entry));
        self.start_block(entry);
        self.lower_copy(func, params, ret_slot, Some(cont))?;
        self.start_block(cont);
        if need {
            self.emit(Op::Ld(ret_slot.expect("non-void checked above")));
        }
        Ok(func.ret)
    }

    // ---- §2.2 copies ---------------------------------------------------

    /// The function a call or spawn names, checked against its arguments.
    fn callee(&self, name: &str, args: &[Expr], pos: Pos) -> Result<&'a Func, LowerError> {
        let func = self.ast.func(name).ok_or_else(|| LowerError {
            msg: format!("unknown function `{name}`"),
            pos,
        })?;
        if args.len() != func.params.len() {
            return Err(LowerError {
                msg: format!(
                    "`{name}` expects {} argument(s), got {}",
                    func.params.len(),
                    args.len()
                ),
                pos,
            });
        }
        Ok(func)
    }

    /// Refuse one more copy past the inline and walk depth bounds.
    fn check_depth(&self, pos: Pos) -> Result<(), LowerError> {
        if self.active.len() >= MAX_INLINE_DEPTH || self.depth > MAX_DEPTH {
            return Err(LowerError {
                msg: "inline expansion too deep".into(),
                pos,
            });
        }
        Ok(())
    }

    /// Evaluate every argument before storing any into `params` (a store
    /// could clobber a slot a later argument reads); stored in reverse so
    /// evaluation order stays left-to-right.
    fn pass_args(&mut self, func: &Func, args: &[Expr], params: &[Addr]) -> Result<(), LowerError> {
        for (arg, (pty, _)) in args.iter().zip(&func.params) {
            let t = self.expr(arg, true)?;
            self.coerce(t, *pty, arg.pos())?;
        }
        for addr in params.iter().rev() {
            self.emit(Op::St(*addr));
        }
        Ok(())
    }

    /// Instantiate `func`'s body as one §2.2 copy, starting in the block
    /// the caller has open, with its parameters in `params` and its return
    /// value in `ret_slot`. `ret_site` is the continuation of its first
    /// return site; a copy without one ends the process at `return`. What
    /// fixes state ids and slot addresses stays with the caller: which
    /// blocks and slots it allocates when, where it evaluates the
    /// arguments, and where a recursive copy's first `Push(0); PushRet`
    /// goes.
    fn lower_copy(
        &mut self,
        func: &Func,
        params: Vec<Addr>,
        ret_slot: Option<Addr>,
        ret_site: Option<StateId>,
    ) -> Result<(), LowerError> {
        let recursive = self.recursive_funcs.contains(&func.name);
        let mut scope = FxHashMap::default();
        for (&(ty, ref name), &addr) in func.params.iter().zip(&params) {
            let storage = Storage::Poly;
            scope.insert(name.clone(), VarInfo { addr, ty, storage });
            self.layout.vars.push(VarRecord {
                func: func.name.clone(),
                name: name.clone(),
                addr,
                ty,
                storage,
            });
        }
        self.scopes.push(scope);
        let prealloc = if recursive {
            (0..count_poly_decls(&func.body))
                .map(|_| self.alloc(Space::Poly))
                .collect()
        } else {
            vec![]
        };
        self.active.push(ActiveCopy {
            func: func.name.clone(),
            entry: self.cur,
            ret_slot,
            ret_ty: func.ret,
            ret_targets: ret_site.into_iter().collect(),
            ret_blocks: vec![],
            halt_on_return: ret_site.is_none(),
            recursive,
            params,
            prealloc,
            prealloc_next: 0,
        });
        for s in &func.body {
            self.stmt(s)?;
        }
        if !self.sealed {
            // The implicit return; `compact` drops the unreachable block it
            // opens.
            self.lower_return(None, func.pos)?;
            self.seal(Terminator::Halt);
        }
        let copy = self.active.pop().unwrap();
        self.scopes.pop();
        // Patch the return blocks now that every return site is known
        // (§2.2: "we can replace the return statements with the appropriate
        // multiway branch").
        for b in &copy.ret_blocks {
            self.graph.state_mut(*b).term = if copy.recursive {
                Terminator::Multi(copy.ret_targets.clone())
            } else {
                Terminator::Jump(copy.ret_targets[0])
            };
        }
        Ok(())
    }
}

/// Number of `poly` declarations a function body makes, in the order the
/// lowering will encounter them — used to pre-allocate a recursive copy's
/// local slots so recursive links can caller-save them all.
fn count_poly_decls(stmts: &[Stmt]) -> usize {
    fn one(s: &Stmt) -> usize {
        match s {
            Stmt::Decl(d) => (d.storage == Storage::Poly) as usize,
            Stmt::Decls(ds) => ds.iter().filter(|d| d.storage == Storage::Poly).count(),
            Stmt::Block(v) => v.iter().map(one).sum(),
            Stmt::If { then, els, .. } => one(then) + els.as_ref().map(|e| one(e)).unwrap_or(0),
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => one(body),
            Stmt::For { init, body, .. } => init.as_ref().map(|i| one(i)).unwrap_or(0) + one(body),
            _ => 0,
        }
    }
    stmts.iter().map(one).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> Program {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn compile_err(src: &str) -> LowerError {
        lower(&parse(src).unwrap()).unwrap_err()
    }

    /// Listing 4 must lower to Figure 1's shape: 4 states, branch/loop/loop/end.
    #[test]
    fn listing4_graph_shape() {
        let p = compile(
            r#"
            main() {
                poly int x;
                if (x) { do { x = 1; } while (x); }
                else   { do { x = 2; } while (x); }
                return(x);
            }
            "#,
        );
        let g = &p.graph;
        assert_eq!(
            g.len(),
            4,
            "Figure 1 has 4 states:\n{}",
            msc_ir::render::text(g, &Default::default())
        );
        // Start state branches to the two loop states.
        let (t, f) = match g.state(g.start).term {
            Terminator::Branch { t, f } => (t, f),
            ref x => panic!("start should branch, got {x:?}"),
        };
        assert_ne!(t, f);
        // Each loop state branches to itself and the final state.
        for loop_state in [t, f] {
            match g.state(loop_state).term {
                Terminator::Branch { t: lt, f: lf } => {
                    assert_eq!(lt, loop_state, "do-while loops back on TRUE");
                    assert_eq!(g.state(lf).term, Terminator::Halt, "FALSE exits to F");
                }
                ref x => panic!("loop state has {x:?}"),
            }
        }
    }

    #[test]
    fn missing_main_rejected() {
        let e = lower(&parse("int f() { return 1; }").unwrap()).unwrap_err();
        assert!(e.msg.contains("main"));
    }

    #[test]
    fn undeclared_variable_rejected() {
        let e = compile_err("main() { x = 1; }");
        assert!(e.msg.contains("undeclared"), "{e}");
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let e = compile_err("main() { poly int x; poly int x; }");
        assert!(e.msg.contains("already declared"), "{e}");
    }

    #[test]
    fn scope_shadowing_allowed() {
        compile("main() { poly int x = 1; { poly int x = 2; x = 3; } x = 4; }");
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = compile_err("main() { break; }");
        assert!(e.msg.contains("break"), "{e}");
    }

    #[test]
    fn mono_parsub_rejected() {
        let e = compile_err("main() { mono int m; poly int x; x = m[[0]]; }");
        assert!(e.msg.contains("mono"), "{e}");
    }

    #[test]
    fn compound_parsub_rejected() {
        let e = compile_err("main() { poly int x; x[[0]] += 1; }");
        assert!(e.msg.contains("compound"), "{e}");
    }

    #[test]
    fn void_as_value_rejected() {
        let e = compile_err("void f() { } main() { poly int x; x = f(); }");
        assert!(e.msg.contains("void"), "{e}");
    }

    #[test]
    fn arg_count_checked() {
        let e = compile_err("int f(int a) { return a; } main() { f(); }");
        assert!(e.msg.contains("argument"), "{e}");
    }

    #[test]
    fn wait_creates_barrier_state() {
        let p = compile("main() { poly int x; x = 1; wait; x = 2; }");
        let barriers: Vec<_> = p
            .graph
            .ids()
            .filter(|&i| p.graph.state(i).barrier)
            .collect();
        assert_eq!(barriers.len(), 1);
        // Code after the wait lives in the barrier state.
        assert!(!p.graph.state(barriers[0]).ops.is_empty());
    }

    #[test]
    fn non_recursive_call_inlines_flat() {
        let p = compile(
            r#"
            int add1(int a) { return a + 1; }
            main() { poly int x; x = add1(41); return(x); }
            "#,
        );
        // Inline expansion means no Multi terminators anywhere.
        for id in p.graph.ids() {
            assert!(!matches!(p.graph.state(id).term, Terminator::Multi(_)));
        }
        // And after straightening the whole thing is one straight line.
        assert_eq!(
            p.graph.len(),
            1,
            "{}",
            msc_ir::render::text(&p.graph, &Default::default())
        );
    }

    #[test]
    fn two_call_sites_get_two_copies() {
        let p = compile(
            r#"
            int sq(int a) { return a * a; }
            main() { poly int x; x = sq(2) + sq(3); return(x); }
            "#,
        );
        // Two distinct parameter slots for `a` were allocated.
        let a_slots: Vec<_> = p.layout.vars.iter().filter(|v| v.name == "a").collect();
        assert_eq!(a_slots.len(), 2);
        assert_ne!(a_slots[0].addr, a_slots[1].addr);
    }

    #[test]
    fn recursive_function_gets_multiway_returns() {
        let p = compile(
            r#"
            int fact(int n) {
                if (n <= 1) return 1;
                return n * fact(n - 1);
            }
            main() { poly int x; x = fact(5); return(x); }
            "#,
        );
        let multis: Vec<_> = p
            .graph
            .ids()
            .filter_map(|i| match &p.graph.state(i).term {
                Terminator::Multi(v) => Some(v.len()),
                _ => None,
            })
            .collect();
        assert!(
            !multis.is_empty(),
            "recursive returns must be multiway branches"
        );
        // fact has two return sites: the external call and the internal
        // recursive one.
        assert!(multis.iter().all(|&n| n == 2), "{multis:?}");
        // The call stack ops are present.
        let has_pushret = p
            .graph
            .ids()
            .any(|i| p.graph.state(i).ops.contains(&Op::PushRet));
        let has_popret = p
            .graph
            .ids()
            .any(|i| p.graph.state(i).ops.contains(&Op::PopRet));
        assert!(has_pushret && has_popret);
    }

    #[test]
    fn mutually_recursive_functions_lower() {
        let p = compile(
            r#"
            int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
            int is_odd(int n)  { if (n == 0) return 0; return is_even(n - 1); }
            main() { poly int x; x = is_even(pe_id()); return(x); }
            "#,
        );
        assert!(p.graph.len() > 2);
        p.graph.validate().unwrap();
    }

    #[test]
    fn spawn_creates_spawn_terminator() {
        let p = compile(
            r#"
            void worker(int n) { poly int y; y = n * 2; }
            main() { spawn worker(7); }
            "#,
        );
        let spawns: Vec<_> = p
            .graph
            .ids()
            .filter(|&i| matches!(p.graph.state(i).term, Terminator::Spawn { .. }))
            .collect();
        assert_eq!(spawns.len(), 1);
    }

    #[test]
    fn repeated_spawn_reuses_copy() {
        let p = compile(
            r#"
            void worker(int n) { poly int y; y = n; }
            main() { spawn worker(1); spawn worker(2); }
            "#,
        );
        let children: Vec<StateId> = p
            .graph
            .ids()
            .filter_map(|i| match p.graph.state(i).term {
                Terminator::Spawn { child, .. } => Some(child),
                _ => None,
            })
            .collect();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0], children[1], "same spawn copy shared");
    }

    #[test]
    fn while_normalized_to_one_or_more_form() {
        // while (c) must test before entry: start block branches.
        let p = compile("main() { poly int i = 0; while (i < 3) { i += 1; } return(i); }");
        match p.graph.state(p.graph.start).term {
            Terminator::Branch { .. } => {}
            ref t => panic!("start should pre-test the loop, got {t:?}"),
        }
    }

    #[test]
    fn for_loop_with_continue_and_break() {
        let p = compile(
            r#"
            main() {
                poly int i, acc = 0;
                for (i = 0; i < 10; i += 1) {
                    if (i == 2) continue;
                    if (i == 5) break;
                    acc += i;
                }
                return(acc);
            }
            "#,
        );
        p.graph.validate().unwrap();
    }

    #[test]
    fn float_promotion_inserts_conversion() {
        let p = compile("main() { poly float f; f = 1 + 2.5; return(f); }");
        let all_ops: Vec<Op> = p
            .graph
            .ids()
            .flat_map(|i| p.graph.state(i).ops.clone())
            .collect();
        assert!(all_ops.contains(&Op::Bin(BinOp::FAdd)), "{all_ops:?}");
        assert!(all_ops.contains(&Op::Un(UnOp::IntToFloat)), "{all_ops:?}");
    }

    #[test]
    fn mono_store_targets_mono_space() {
        let p = compile("mono int total; main() { total = 5; }");
        let rec = p.layout.var("total").unwrap();
        assert_eq!(rec.addr.space, Space::Mono);
        let all_ops: Vec<Op> = p
            .graph
            .ids()
            .flat_map(|i| p.graph.state(i).ops.clone())
            .collect();
        assert!(all_ops.contains(&Op::St(rec.addr)));
    }

    #[test]
    fn parsub_lowering_uses_router_ops() {
        let p = compile("main() { poly int x, y; x[[pe_id() + 1]] = y[[0]]; }");
        let all_ops: Vec<Op> = p
            .graph
            .ids()
            .flat_map(|i| p.graph.state(i).ops.clone())
            .collect();
        assert!(all_ops.iter().any(|o| matches!(o, Op::LdRemote(_))));
        assert!(all_ops.iter().any(|o| matches!(o, Op::StRemote(_))));
    }

    #[test]
    fn layout_tracks_sizes() {
        let p = compile("mono int a; main() { poly int b; poly float c; }");
        assert_eq!(p.layout.mono_words, 1);
        // b, c, and main's return slot.
        assert_eq!(p.layout.poly_words, 3);
    }

    #[test]
    fn inline_chains_stop_at_the_nesting_bound() {
        // Each function calls the next from inside ten blocks: a chain of
        // 40 copies, within `MAX_INLINE_DEPTH`, would nest 400 deep.
        let mut src = String::new();
        for i in 0..40 {
            let (open, close) = ("{".repeat(10), "}".repeat(10));
            src += &format!(
                "int f{i}(int a) {{ {open} return f{}(a); {close} }}\n",
                i + 1
            );
        }
        src += "int f40(int a) { return a; }\nmain() { poly int x; x = f0(1); }";
        // Unoptimised builds spend kilobytes of stack a level of the walk.
        let e = std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(move || compile_err(&src))
            .expect("spawn the lowering thread")
            .join()
            .expect("the lowering thread returns");
        assert_eq!(e.msg, "inline expansion too deep");
    }

    #[test]
    fn halt_statement_halts() {
        let p = compile("main() { poly int x = 1; halt; }");
        // Only one reachable state ending in Halt.
        assert_eq!(p.graph.len(), 1);
        assert_eq!(p.graph.state(p.graph.start).term, Terminator::Halt);
    }
}
