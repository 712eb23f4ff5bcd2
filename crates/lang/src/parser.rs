//! Operator-precedence parser for MIMDC.
//!
//! Grammar (C subset of §4.1 plus the paper's parallel extensions):
//!
//! ```text
//! unit      := (var-decl | func)*
//! func      := type? ident '(' params? ')' block        // 'main()' K&R style allowed
//! var-decl  := storage? type ident ('=' expr)? (',' ident ('=' expr)?)* ';'
//! stmt      := var-decl | 'if' '(' expr ')' stmt ('else' stmt)?
//!            | 'while' '(' expr ')' stmt | 'do' stmt 'while' '(' expr ')' ';'
//!            | 'for' '(' (var-decl | expr? ';') expr? ';' expr? ')' stmt
//!            | block | 'return' expr? ';' | 'break' ';' | 'continue' ';'
//!            | 'wait' ';' | 'spawn' ident '(' args? ')' ';' | 'halt' ';'
//!            | expr ';' | ';'
//! expr      := lvalue ('='|'+='|…) expr | binary
//! binary    := unary (binop unary)*     // C precedence (see `binop`), left-assoc
//! unary     := ('-'|'!'|'~') unary | primary
//! primary   := INT | FLOAT | ident | ident '(' args? ')' | ident '[[' expr ']]'
//!            | 'pe_id' '(' ')' | 'nproc' '(' ')' | '(' expr ')'
//! ```
//!
//! Neither half recurses. An expression is one loop over a stack of
//! constructs still waiting for an operand (an operator, a parenthesis, a
//! call's arguments, a subscript, an assignment's value), folding binary
//! operators by the precedence table in `binop`; a statement is one loop
//! over a stack of statements waiting for the statement they hold. Each
//! token is taken out of the lexer's vector as it is consumed, so names
//! move into the AST without a copy.

use crate::ast::*;
use crate::token::{lex, LexError, Pos, Tok, Token};
use std::fmt;

/// How deeply a program may nest. A function's statements are at level 1;
/// a statement inside another, an operand inside an operator, call,
/// subscript or assignment, and a parenthesised expression are each one
/// level deeper than what holds them, and a statement's own expressions
/// start at its level. The parser fails with a [`ParseError`] at the first
/// construct past this level, so every recursive walk of an [`Ast`] (the
/// lowering, type inference, `Drop`) is at most this deep.
pub const MAX_DEPTH: usize = 256;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            pos: e.pos,
        }
    }
}

/// Parse a MIMDC translation unit.
pub fn parse(src: &str) -> Result<Ast, ParseError> {
    let mut p = Parser {
        tokens: lex(src)?,
        i: 0,
        open: Vec::new(),
        outer: Vec::new(),
    };
    p.unit()
}

fn too_deep(pos: Pos) -> ParseError {
    ParseError {
        msg: format!("nesting deeper than {MAX_DEPTH} levels"),
        pos,
    }
}

/// A binary operator token's AST operator and precedence (higher binds
/// tighter): C's levels from `||` up to `*`.
fn binop(t: &Tok) -> Option<(AstBinOp, u8)> {
    Some(match t {
        Tok::OrOr => (AstBinOp::LogOr, 1),
        Tok::AndAnd => (AstBinOp::LogAnd, 2),
        Tok::Pipe => (AstBinOp::BitOr, 3),
        Tok::Caret => (AstBinOp::BitXor, 4),
        Tok::Amp => (AstBinOp::BitAnd, 5),
        Tok::EqEq => (AstBinOp::Eq, 6),
        Tok::NotEq => (AstBinOp::Ne, 6),
        Tok::Lt => (AstBinOp::Lt, 7),
        Tok::Le => (AstBinOp::Le, 7),
        Tok::Gt => (AstBinOp::Gt, 7),
        Tok::Ge => (AstBinOp::Ge, 7),
        Tok::Shl => (AstBinOp::Shl, 8),
        Tok::Shr => (AstBinOp::Shr, 8),
        Tok::Plus => (AstBinOp::Add, 9),
        Tok::Minus => (AstBinOp::Sub, 9),
        Tok::Star => (AstBinOp::Mul, 10),
        Tok::Slash => (AstBinOp::Div, 10),
        Tok::Percent => (AstBinOp::Rem, 10),
        _ => return None,
    })
}

/// A prefix operator token's AST operator.
fn unop(t: &Tok) -> Option<AstUnOp> {
    Some(match t {
        Tok::Minus => AstUnOp::Neg,
        Tok::Bang => AstUnOp::Not,
        Tok::Tilde => AstUnOp::BitNot,
        _ => return None,
    })
}

/// An assignment operator token's compound operator (`None` for `=`).
fn assign_op(t: &Tok) -> Option<Option<AstBinOp>> {
    Some(match t {
        Tok::Assign => None,
        Tok::PlusAssign => Some(AstBinOp::Add),
        Tok::MinusAssign => Some(AstBinOp::Sub),
        Tok::StarAssign => Some(AstBinOp::Mul),
        Tok::SlashAssign => Some(AstBinOp::Div),
        Tok::PercentAssign => Some(AstBinOp::Rem),
        _ => return None,
    })
}

/// A construct inside an expression still waiting for an operand. Each one
/// on the stack puts the operand one level deeper. The `start` fields are
/// where the operand's own expression begins: an assignment found in it
/// takes that position.
enum Open {
    /// `-`, `!` or `~`, waiting for its operand.
    Un { op: AstUnOp, pos: Pos },
    /// `lhs op`, waiting for the right operand; `height` is `lhs`'s.
    Bin {
        lhs: Expr,
        height: usize,
        op: AstBinOp,
        prec: u8,
        pos: Pos,
    },
    /// `(`, waiting for the expression inside.
    Paren { start: Pos },
    /// `name(args,`, waiting for the next argument; `height` is the
    /// tallest argument's so far.
    Call {
        name: String,
        args: Vec<Expr>,
        height: usize,
        pos: Pos,
        start: Pos,
    },
    /// `name[[`, waiting for the index.
    Index { name: String, pos: Pos, start: Pos },
    /// `target op=`, waiting for the value; `height` is the target's.
    Assign {
        target: LValue,
        op: Option<AstBinOp>,
        height: usize,
        pos: Pos,
        start: Pos,
    },
}

/// A statement still waiting for the statement it holds.
enum Outer {
    /// `if (cond)`, waiting for the branch.
    If(Expr),
    /// `if (cond) then else`, waiting for the else branch.
    Else(Expr, Box<Stmt>),
    /// `while (cond)`, waiting for the body.
    While(Expr),
    /// `do`, waiting for the body.
    Do,
    /// `for (init; cond; step)`, waiting for the body.
    For(Option<Box<Stmt>>, Option<Expr>, Option<Expr>),
    /// `{` and the statements so far.
    Block(Vec<Stmt>),
}

struct Parser {
    /// The lexer's output; a consumed token is left as `Eof`.
    tokens: Vec<Token>,
    i: usize,
    /// The expression being parsed: what waits for the current operand.
    open: Vec<Open>,
    /// The statement being parsed: what waits for the current statement.
    outer: Vec<Outer>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.i].pos
    }

    /// Take the current token and advance; the final `Eof` is never
    /// passed.
    fn bump(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.tokens[self.i].tok, Tok::Eof);
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError {
            msg,
            pos: self.pos(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        if let Tok::Ident(s) = &mut self.tokens[self.i].tok {
            let s = std::mem::take(s);
            self.bump();
            return Ok(s);
        }
        Err(self.err(format!("expected identifier, found `{}`", self.peek())))
    }

    /// The type a leading `int`, `float` or `void` names, consumed.
    fn type_kw(&mut self) -> Option<Type> {
        let ty = match self.peek() {
            Tok::KwInt => Type::Int,
            Tok::KwFloat => Type::Float,
            Tok::KwVoid => Type::Void,
            _ => return None,
        };
        self.bump();
        Some(ty)
    }

    // ---- declarations -------------------------------------------------

    fn unit(&mut self) -> Result<Ast, ParseError> {
        let mut ast = Ast::default();
        while *self.peek() != Tok::Eof {
            if self.is_func_start() {
                ast.funcs.push(self.func()?);
            } else if self.is_decl_start() {
                ast.globals.extend(self.var_decl(1)?);
            } else {
                return Err(self.err(format!(
                    "expected declaration or function, found `{}`",
                    self.peek()
                )));
            }
        }
        Ok(ast)
    }

    fn is_decl_start(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwMono | Tok::KwPoly | Tok::KwInt | Tok::KwFloat
        )
    }

    /// A function starts with `type? ident (` where the `(` distinguishes
    /// it from a variable declaration. K&R-style `main() { … }` has no
    /// leading type.
    fn is_func_start(&self) -> bool {
        let mut j = self.i;
        // Optional storage is not allowed on functions; skip type keywords.
        if matches!(self.tokens[j].tok, Tok::KwInt | Tok::KwFloat | Tok::KwVoid) {
            j += 1;
        }
        matches!(self.tokens[j].tok, Tok::Ident(_))
            && j + 1 < self.tokens.len()
            && self.tokens[j + 1].tok == Tok::LParen
    }

    fn func(&mut self) -> Result<Func, ParseError> {
        let pos = self.pos();
        let ret = self.type_kw().unwrap_or(Type::Int); // K&R default
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                // `poly` is implied and tolerated on parameters.
                self.eat(&Tok::KwPoly);
                let ty = match self.peek() {
                    Tok::KwVoid => Type::Int, // left for `ident` to reject
                    _ => self.type_kw().unwrap_or(Type::Int),
                };
                let pname = self.ident()?;
                params.push((ty, pname));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unterminated function body".into()));
            }
            body.push(self.stmt()?);
        }
        Ok(Func {
            ret,
            name,
            params,
            body,
            pos,
        })
    }

    /// `storage? type name (= init)? (, name (= init)?)* ;`, its
    /// initializers at level `depth`.
    fn var_decl(&mut self, depth: usize) -> Result<Vec<VarDecl>, ParseError> {
        let pos = self.pos();
        let storage = if self.eat(&Tok::KwMono) {
            Storage::Mono
        } else {
            self.eat(&Tok::KwPoly);
            Storage::Poly
        };
        let ty = match self.bump() {
            Tok::KwInt => Type::Int,
            Tok::KwFloat => Type::Float,
            other => return Err(self.err(format!("expected `int` or `float`, found `{other}`"))),
        };
        let mut decls = Vec::new();
        loop {
            let name = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.expr(depth)?)
            } else {
                None
            };
            decls.push(VarDecl {
                storage,
                ty,
                name,
                init,
                pos,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(decls)
    }

    // ---- statements ---------------------------------------------------

    /// One statement of a function body, with every statement inside it.
    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        'head: loop {
            let depth = self.outer.len() + 1;
            let pos = self.pos();
            if depth > MAX_DEPTH {
                return Err(too_deep(pos));
            }
            let mut done = match self.peek() {
                Tok::KwMono | Tok::KwPoly | Tok::KwInt | Tok::KwFloat => {
                    let mut decls = self.var_decl(depth)?;
                    if decls.len() == 1 {
                        Stmt::Decl(decls.pop().expect("one declarator"))
                    } else {
                        Stmt::Decls(decls)
                    }
                }
                Tok::KwIf => {
                    self.bump();
                    let cond = self.paren_expr(depth)?;
                    self.outer.push(Outer::If(cond));
                    continue 'head;
                }
                Tok::KwWhile => {
                    self.bump();
                    let cond = self.paren_expr(depth)?;
                    self.outer.push(Outer::While(cond));
                    continue 'head;
                }
                Tok::KwDo => {
                    self.bump();
                    self.outer.push(Outer::Do);
                    continue 'head;
                }
                Tok::KwFor => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let init = if self.eat(&Tok::Semi) {
                        None
                    } else if self.is_decl_start() {
                        let decls = self.var_decl(depth)?; // consumes ';'
                        Some(Box::new(Stmt::Decls(decls)))
                    } else {
                        let e = self.expr(depth)?;
                        self.expect(&Tok::Semi)?;
                        Some(Box::new(Stmt::Expr(e)))
                    };
                    let cond = self.expr_unless(&Tok::Semi, depth)?;
                    self.expect(&Tok::Semi)?;
                    let step = self.expr_unless(&Tok::RParen, depth)?;
                    self.expect(&Tok::RParen)?;
                    self.outer.push(Outer::For(init, cond, step));
                    continue 'head;
                }
                Tok::LBrace => {
                    self.bump();
                    match self.block_rest(Vec::new())? {
                        Some(block) => block,
                        None => continue 'head,
                    }
                }
                Tok::KwReturn => {
                    self.bump();
                    let e = self.expr_unless(&Tok::Semi, depth)?;
                    self.expect(&Tok::Semi)?;
                    Stmt::Return(e, pos)
                }
                Tok::KwBreak => self.keyword_stmt(Stmt::Break(pos))?,
                Tok::KwContinue => self.keyword_stmt(Stmt::Continue(pos))?,
                Tok::KwWait => self.keyword_stmt(Stmt::Wait(pos))?,
                Tok::KwHalt => self.keyword_stmt(Stmt::Halt(pos))?,
                Tok::KwSpawn => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(&Tok::LParen)?;
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr(depth)?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    self.expect(&Tok::Semi)?;
                    Stmt::Spawn { name, args, pos }
                }
                Tok::Semi => {
                    self.bump();
                    Stmt::Empty
                }
                _ => {
                    let e = self.expr(depth)?;
                    self.expect(&Tok::Semi)?;
                    Stmt::Expr(e)
                }
            };
            // `done` is complete: hand it to the statements waiting for it.
            loop {
                done = match self.outer.pop() {
                    None => return Ok(done),
                    Some(Outer::If(cond)) => {
                        let then = Box::new(done);
                        if self.eat(&Tok::KwElse) {
                            self.outer.push(Outer::Else(cond, then));
                            continue 'head;
                        }
                        Stmt::If {
                            cond,
                            then,
                            els: None,
                        }
                    }
                    Some(Outer::Else(cond, then)) => Stmt::If {
                        cond,
                        then,
                        els: Some(Box::new(done)),
                    },
                    Some(Outer::While(cond)) => Stmt::While {
                        cond,
                        body: Box::new(done),
                    },
                    Some(Outer::Do) => {
                        self.expect(&Tok::KwWhile)?;
                        let cond = self.paren_expr(self.outer.len() + 1)?;
                        self.expect(&Tok::Semi)?;
                        Stmt::DoWhile {
                            body: Box::new(done),
                            cond,
                        }
                    }
                    Some(Outer::For(init, cond, step)) => Stmt::For {
                        init,
                        cond,
                        step,
                        body: Box::new(done),
                    },
                    Some(Outer::Block(mut stmts)) => {
                        stmts.push(done);
                        match self.block_rest(stmts)? {
                            Some(block) => block,
                            None => continue 'head,
                        }
                    }
                };
            }
        }
    }

    /// After a block's `{` and `stmts`: the block, if its `}` is next;
    /// otherwise `None`, with the block waiting for its next statement.
    fn block_rest(&mut self, stmts: Vec<Stmt>) -> Result<Option<Stmt>, ParseError> {
        if self.eat(&Tok::RBrace) {
            return Ok(Some(Stmt::Block(stmts)));
        }
        if *self.peek() == Tok::Eof {
            return Err(self.err("unterminated block".into()));
        }
        self.outer.push(Outer::Block(stmts));
        Ok(None)
    }

    /// `keyword ;`, the keyword being current.
    fn keyword_stmt(&mut self, s: Stmt) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&Tok::Semi)?;
        Ok(s)
    }

    /// `( expr )`.
    fn paren_expr(&mut self, depth: usize) -> Result<Expr, ParseError> {
        self.expect(&Tok::LParen)?;
        let e = self.expr(depth)?;
        self.expect(&Tok::RParen)?;
        Ok(e)
    }

    /// An expression, or none when `end` is next.
    fn expr_unless(&mut self, end: &Tok, depth: usize) -> Result<Option<Expr>, ParseError> {
        if self.peek() == end {
            Ok(None)
        } else {
            self.expr(depth).map(Some)
        }
    }

    // ---- expressions --------------------------------------------------

    /// One expression whose root is at level `depth`.
    fn expr(&mut self, depth: usize) -> Result<Expr, ParseError> {
        let start = self.pos();
        'operand: loop {
            // An operand: prefix operators, then a primary.
            let pos = self.pos();
            if depth + self.open.len() > MAX_DEPTH {
                return Err(too_deep(pos));
            }
            if let Some(op) = unop(self.peek()) {
                self.bump();
                self.open.push(Open::Un { op, pos });
                continue 'operand;
            }
            let (mut e, mut height) = match self.bump() {
                Tok::Int(v) => (Expr::Int(v, pos), 1),
                Tok::Float(v) => (Expr::Float(v, pos), 1),
                Tok::LParen => {
                    let start = self.pos();
                    self.open.push(Open::Paren { start });
                    continue 'operand;
                }
                Tok::Ident(name) => {
                    if self.eat(&Tok::LParen) {
                        if self.eat(&Tok::RParen) {
                            (call(name, Vec::new(), pos), 1)
                        } else {
                            let start = self.pos();
                            self.open.push(Open::Call {
                                name,
                                args: Vec::new(),
                                height: 0,
                                pos,
                                start,
                            });
                            continue 'operand;
                        }
                    } else if self.eat(&Tok::LLBracket) {
                        let start = self.pos();
                        self.open.push(Open::Index { name, pos, start });
                        continue 'operand;
                    } else {
                        (Expr::Var(name, pos), 1)
                    }
                }
                other => {
                    return Err(ParseError {
                        msg: format!("expected expression, found `{other}`"),
                        pos,
                    })
                }
            };
            // A complete operand: fold it into what waits for it.
            loop {
                let is_un = |o: &mut Open| matches!(o, Open::Un { .. });
                while let Some(Open::Un { op, pos }) = self.open.pop_if(is_un) {
                    e = Expr::Un {
                        op,
                        e: Box::new(e),
                        pos,
                    };
                    height += 1;
                }
                if let Some((op, prec)) = binop(self.peek()) {
                    (e, height) = self.fold(depth, prec, e, height)?;
                    let pos = self.pos();
                    self.bump();
                    self.open.push(Open::Bin {
                        lhs: e,
                        height,
                        op,
                        prec,
                        pos,
                    });
                    continue 'operand;
                }
                (e, height) = self.fold(depth, 0, e, height)?;
                if let Some(op) = assign_op(self.peek()) {
                    let target = match e {
                        Expr::Var(name, _) => LValue::Var(name),
                        Expr::ParSub { name, index, .. } => LValue::ParSub { name, index },
                        other => {
                            return Err(ParseError {
                                msg: "left side of assignment is not assignable".into(),
                                pos: other.pos(),
                            })
                        }
                    };
                    let pos = match self.open.last() {
                        None => start,
                        Some(
                            Open::Paren { start }
                            | Open::Call { start, .. }
                            | Open::Index { start, .. }
                            | Open::Assign { start, .. },
                        ) => *start,
                        Some(Open::Un { .. } | Open::Bin { .. }) => unreachable!("folded"),
                    };
                    self.bump();
                    let start = self.pos();
                    self.open.push(Open::Assign {
                        target,
                        op,
                        height,
                        pos,
                        start,
                    });
                    continue 'operand;
                }
                (e, height) = match self.open.pop() {
                    None => return Ok(e),
                    Some(Open::Assign {
                        target,
                        op,
                        height: target_height,
                        pos,
                        ..
                    }) => {
                        let value = Box::new(e);
                        let e = Expr::Assign {
                            target,
                            op,
                            value,
                            pos,
                        };
                        // A subscripted target keeps its index one level
                        // down.
                        (e, target_height.max(height + 1))
                    }
                    Some(Open::Paren { .. }) => {
                        self.expect(&Tok::RParen)?;
                        (e, height)
                    }
                    Some(Open::Index { name, pos, .. }) => {
                        self.expect(&Tok::RRBracket)?;
                        let index = Box::new(e);
                        (Expr::ParSub { name, index, pos }, height + 1)
                    }
                    Some(Open::Call {
                        name,
                        mut args,
                        height: tallest,
                        pos,
                        ..
                    }) => {
                        args.push(e);
                        let tallest = tallest.max(height);
                        if self.eat(&Tok::Comma) {
                            let start = self.pos();
                            self.open.push(Open::Call {
                                name,
                                args,
                                height: tallest,
                                pos,
                                start,
                            });
                            continue 'operand;
                        }
                        self.expect(&Tok::RParen)?;
                        (call(name, args, pos), tallest + 1)
                    }
                    Some(Open::Un { .. } | Open::Bin { .. }) => unreachable!("folded"),
                };
            }
        }
    }

    /// Fold the binary operators waiting on top of the stack that bind at
    /// least as tightly as `prec` into `e`, left to right; `height` is the
    /// levels `e` spans, one for a leaf, and comes back updated. Each fold
    /// puts the operands folded so far one level deeper without recursing,
    /// so it checks the height against the bound.
    fn fold(
        &mut self,
        depth: usize,
        prec: u8,
        mut e: Expr,
        mut height: usize,
    ) -> Result<(Expr, usize), ParseError> {
        let binds = |o: &mut Open| matches!(o, Open::Bin { prec: p, .. } if *p >= prec);
        while let Some(Open::Bin {
            lhs,
            height: lhs_height,
            op,
            pos,
            ..
        }) = self.open.pop_if(binds)
        {
            height = lhs_height.max(height) + 1;
            if depth + self.open.len() + height - 1 > MAX_DEPTH {
                return Err(too_deep(pos));
            }
            e = Expr::Bin {
                op,
                l: Box::new(lhs),
                r: Box::new(e),
                pos,
            };
        }
        Ok((e, height))
    }
}

/// A call, or the built-in it names.
fn call(name: String, args: Vec<Expr>, pos: Pos) -> Expr {
    match name.as_str() {
        "pe_id" if args.is_empty() => Expr::PeId(pos),
        "nproc" if args.is_empty() => Expr::NProc(pos),
        _ => Expr::Call { name, args, pos },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing4_parses() {
        let ast = parse(
            r#"
            main() {
                poly int x;
                if (x) { do { x = 1; } while (x); }
                else { do { x = 2; } while (x); }
                return(x);
            }
            "#,
        )
        .unwrap();
        assert_eq!(ast.funcs.len(), 1);
        let main = ast.func("main").unwrap();
        assert_eq!(main.ret, Type::Int);
        assert_eq!(main.body.len(), 3);
        assert!(matches!(main.body[0], Stmt::Decl(_)));
        assert!(matches!(main.body[1], Stmt::If { .. }));
        assert!(matches!(main.body[2], Stmt::Return(Some(_), _)));
    }

    #[test]
    fn precedence() {
        let ast = parse("main() { poly int x; x = 1 + 2 * 3; }").unwrap();
        let body = &ast.func("main").unwrap().body;
        let Stmt::Expr(Expr::Assign { value, .. }) = &body[1] else {
            panic!("expected assignment")
        };
        let Expr::Bin {
            op: AstBinOp::Add,
            r,
            ..
        } = value.as_ref()
        else {
            panic!("expected + at top: {value:?}")
        };
        assert!(matches!(
            r.as_ref(),
            Expr::Bin {
                op: AstBinOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parallel_subscript_read_and_write() {
        let ast = parse("main() { poly int x, y; x[[3]] = y[[x + 1]]; }").unwrap();
        let body = &ast.func("main").unwrap().body;
        let Stmt::Expr(Expr::Assign {
            target: LValue::ParSub { name, .. },
            value,
            ..
        }) = body.last().unwrap()
        else {
            panic!("expected parsub assignment: {body:?}")
        };
        assert_eq!(name, "x");
        assert!(matches!(value.as_ref(), Expr::ParSub { .. }));
    }

    #[test]
    fn globals_and_functions() {
        let ast = parse(
            r#"
            mono int total;
            poly float w = 1.5;
            int helper(int a, float b) { return a; }
            main() { helper(1, 2.0); }
            "#,
        )
        .unwrap();
        assert_eq!(ast.globals.len(), 2);
        assert_eq!(ast.globals[0].storage, Storage::Mono);
        assert!(matches!(ast.globals[1].init, Some(Expr::Float(v, _)) if v == 1.5));
        assert_eq!(ast.funcs.len(), 2);
        assert_eq!(ast.func("helper").unwrap().params.len(), 2);
    }

    #[test]
    fn control_flow_statements() {
        let ast = parse(
            r#"
            main() {
                poly int i;
                for (i = 0; i < 10; i += 1) {
                    if (i == 5) continue;
                    if (i > 8) break;
                }
                while (i) { i = i - 1; }
                wait;
                halt;
            }
            "#,
        )
        .unwrap();
        let body = &ast.func("main").unwrap().body;
        assert!(matches!(body[1], Stmt::For { .. }));
        assert!(matches!(body[2], Stmt::While { .. }));
        assert!(matches!(body[3], Stmt::Wait(_)));
        assert!(matches!(body[4], Stmt::Halt(_)));
    }

    #[test]
    fn spawn_statement() {
        let ast = parse(
            r#"
            void worker(int n) { halt; }
            main() { spawn worker(7); }
            "#,
        )
        .unwrap();
        let body = &ast.func("main").unwrap().body;
        let Stmt::Spawn { name, args, .. } = &body[0] else {
            panic!("expected spawn")
        };
        assert_eq!(name, "worker");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn builtins() {
        let ast = parse("main() { poly int x; x = pe_id() + nproc(); }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = &ast.func("main").unwrap().body[1] else {
            panic!()
        };
        let Expr::Bin { l, r, .. } = value.as_ref() else {
            panic!()
        };
        assert!(matches!(l.as_ref(), Expr::PeId(_)));
        assert!(matches!(r.as_ref(), Expr::NProc(_)));
    }

    #[test]
    fn error_on_bad_assignment_target() {
        let e = parse("main() { 1 = 2; }").unwrap_err();
        assert!(e.msg.contains("not assignable"), "{e}");
    }

    #[test]
    fn error_reports_position() {
        let e = parse("main() {\n  poly int x\n}").unwrap_err();
        assert_eq!(e.pos.line, 3, "{e}");
    }

    #[test]
    fn logical_operators_parse() {
        let ast = parse("main() { poly int a, b, c; c = a && b || !a; }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = ast.func("main").unwrap().body.last().unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            value.as_ref(),
            Expr::Bin {
                op: AstBinOp::LogOr,
                ..
            }
        ));
    }

    #[test]
    fn multi_declarator_statement() {
        let ast = parse("main() { poly int a = 1, b = 2; }").unwrap();
        let Stmt::Decls(decls) = &ast.func("main").unwrap().body[0] else {
            panic!()
        };
        assert_eq!(decls.len(), 2);
    }

    #[test]
    fn compound_assignment_targets() {
        let ast = parse("main() { poly int x; x += 3; }").unwrap();
        let Stmt::Expr(Expr::Assign { op, .. }) = &ast.func("main").unwrap().body[1] else {
            panic!()
        };
        assert_eq!(*op, Some(AstBinOp::Add));
    }

    #[test]
    fn dangling_else_binds_inner() {
        let ast = parse("main(){ poly int a; if (a) if (a) a = 1; else a = 2; }").unwrap();
        let Stmt::If { then, els, .. } = &ast.func("main").unwrap().body[1] else {
            panic!()
        };
        assert!(els.is_none());
        let Stmt::If { els: inner_els, .. } = then.as_ref() else {
            panic!()
        };
        assert!(inner_els.is_some());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn empty_function_body() {
        let ast = parse("main() { }").unwrap();
        assert!(ast.func("main").unwrap().body.is_empty());
    }

    #[test]
    fn empty_statements_allowed() {
        let ast = parse("main() { ;; poly int x; ; x = 1; ; }").unwrap();
        assert!(ast.func("main").unwrap().body.len() >= 4);
    }

    #[test]
    fn void_function_with_explicit_return() {
        let ast = parse("void f() { return; } main() { f(); }").unwrap();
        let f = ast.func("f").unwrap();
        assert_eq!(f.ret, Type::Void);
        assert!(matches!(f.body[0], Stmt::Return(None, _)));
    }

    #[test]
    fn for_with_all_clauses_empty() {
        let ast = parse("main() { poly int x; for (;;) { break; } }").unwrap();
        let Stmt::For {
            init, cond, step, ..
        } = &ast.func("main").unwrap().body[1]
        else {
            panic!()
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn nested_parallel_subscripts() {
        // x[[ y[[0]] ]] — the index itself is a remote read.
        let ast = parse("main() { poly int x, y, z; z = x[[y[[0]]]]; }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = ast.func("main").unwrap().body.last().unwrap()
        else {
            panic!()
        };
        let Expr::ParSub { index, .. } = value.as_ref() else {
            panic!("{value:?}")
        };
        assert!(matches!(index.as_ref(), Expr::ParSub { .. }));
    }

    #[test]
    fn deeply_nested_parens() {
        let src = format!(
            "main() {{ poly int x; x = {}1{}; }}",
            "(".repeat(40),
            ")".repeat(40)
        );
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn unbalanced_parens_error() {
        assert!(parse("main() { poly int x; x = ((1); }").is_err());
    }

    #[test]
    fn keywords_cannot_be_identifiers() {
        assert!(parse("main() { poly int while; }").is_err());
        assert!(parse("main() { poly int if; }").is_err());
    }

    #[test]
    fn chained_comparisons_parse_left_assoc() {
        // a < b < c parses as (a < b) < c in C.
        let ast = parse("main() { poly int a, b, c, x; x = a < b < c; }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = ast.func("main").unwrap().body.last().unwrap()
        else {
            panic!()
        };
        let Expr::Bin {
            op: AstBinOp::Lt,
            l,
            ..
        } = value.as_ref()
        else {
            panic!()
        };
        assert!(matches!(
            l.as_ref(),
            Expr::Bin {
                op: AstBinOp::Lt,
                ..
            }
        ));
    }

    #[test]
    fn unary_chains() {
        let ast = parse("main() { poly int x; x = - - ! ~ x; }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = ast.func("main").unwrap().body.last().unwrap()
        else {
            panic!()
        };
        // -( -( !( ~x ) ) )
        let Expr::Un {
            op: AstUnOp::Neg,
            e,
            ..
        } = value.as_ref()
        else {
            panic!()
        };
        let Expr::Un {
            op: AstUnOp::Neg,
            e,
            ..
        } = e.as_ref()
        else {
            panic!()
        };
        let Expr::Un {
            op: AstUnOp::Not,
            e,
            ..
        } = e.as_ref()
        else {
            panic!()
        };
        assert!(matches!(
            e.as_ref(),
            Expr::Un {
                op: AstUnOp::BitNot,
                ..
            }
        ));
    }

    #[test]
    fn function_before_and_after_main() {
        let ast =
            parse("int a() { return 1; } main() { a(); b(); } int b() { return 2; }").unwrap();
        assert_eq!(ast.funcs.len(), 3);
    }

    #[test]
    fn eof_inside_expression_errors_cleanly() {
        assert!(parse("main() { poly int x; x = 1 +").is_err());
        assert!(parse("main() { poly int x; x = ").is_err());
    }
}

/// The recursive-descent parser this module replaced, one function per
/// precedence level and every token cloned: the oracle the differential
/// tests hold `parse` to below `MAX_DEPTH`.
#[cfg(test)]
mod reference {
    use super::ParseError;
    use crate::ast::*;
    use crate::token::{lex, Pos, Tok, Token};

    /// Parse a MIMDC translation unit.
    pub fn parse(src: &str) -> Result<Ast, ParseError> {
        let tokens = lex(src)?;
        let mut p = Parser { tokens, i: 0 };
        p.unit()
    }

    struct Parser {
        tokens: Vec<Token>,
        i: usize,
    }

    impl Parser {
        fn peek(&self) -> &Tok {
            &self.tokens[self.i].tok
        }

        fn peek2(&self) -> &Tok {
            &self.tokens[(self.i + 1).min(self.tokens.len() - 1)].tok
        }

        fn pos(&self) -> Pos {
            self.tokens[self.i].pos
        }

        fn bump(&mut self) -> Tok {
            let t = self.tokens[self.i].tok.clone();
            if self.i + 1 < self.tokens.len() {
                self.i += 1;
            }
            t
        }

        fn eat(&mut self, t: &Tok) -> bool {
            if self.peek() == t {
                self.bump();
                true
            } else {
                false
            }
        }

        fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
            if self.eat(t) {
                Ok(())
            } else {
                Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
            }
        }

        fn err(&self, msg: String) -> ParseError {
            ParseError {
                msg,
                pos: self.pos(),
            }
        }

        fn ident(&mut self) -> Result<String, ParseError> {
            match self.peek().clone() {
                Tok::Ident(s) => {
                    self.bump();
                    Ok(s)
                }
                other => Err(self.err(format!("expected identifier, found `{other}`"))),
            }
        }

        // ---- declarations -------------------------------------------------

        fn unit(&mut self) -> Result<Ast, ParseError> {
            let mut ast = Ast::default();
            while *self.peek() != Tok::Eof {
                if self.is_func_start() {
                    ast.funcs.push(self.func()?);
                } else if self.is_decl_start() {
                    ast.globals.extend(self.var_decl()?);
                } else {
                    return Err(self.err(format!(
                        "expected declaration or function, found `{}`",
                        self.peek()
                    )));
                }
            }
            Ok(ast)
        }

        fn is_decl_start(&self) -> bool {
            matches!(
                self.peek(),
                Tok::KwMono | Tok::KwPoly | Tok::KwInt | Tok::KwFloat
            )
        }

        /// A function starts with `type? ident (` where the `(` distinguishes
        /// it from a variable declaration. K&R-style `main() { … }` has no
        /// leading type.
        fn is_func_start(&self) -> bool {
            let mut j = self.i;
            // Optional storage is not allowed on functions; skip type keywords.
            if matches!(self.tokens[j].tok, Tok::KwInt | Tok::KwFloat | Tok::KwVoid) {
                j += 1;
            }
            matches!(self.tokens[j].tok, Tok::Ident(_))
                && j + 1 < self.tokens.len()
                && self.tokens[j + 1].tok == Tok::LParen
        }

        fn type_kw(&mut self) -> Result<Type, ParseError> {
            match self.bump() {
                Tok::KwInt => Ok(Type::Int),
                Tok::KwFloat => Ok(Type::Float),
                Tok::KwVoid => Ok(Type::Void),
                other => Err(self.err(format!("expected type, found `{other}`"))),
            }
        }

        fn func(&mut self) -> Result<Func, ParseError> {
            let pos = self.pos();
            let ret = if matches!(self.peek(), Tok::KwInt | Tok::KwFloat | Tok::KwVoid) {
                self.type_kw()?
            } else {
                Type::Int // K&R default
            };
            let name = self.ident()?;
            self.expect(&Tok::LParen)?;
            let mut params = Vec::new();
            if !self.eat(&Tok::RParen) {
                loop {
                    // `poly` is implied and tolerated on parameters.
                    self.eat(&Tok::KwPoly);
                    let ty = if matches!(self.peek(), Tok::KwInt | Tok::KwFloat) {
                        self.type_kw()?
                    } else {
                        Type::Int
                    };
                    let pname = self.ident()?;
                    params.push((ty, pname));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            self.expect(&Tok::LBrace)?;
            let mut body = Vec::new();
            while !self.eat(&Tok::RBrace) {
                if *self.peek() == Tok::Eof {
                    return Err(self.err("unterminated function body".into()));
                }
                body.push(self.stmt()?);
            }
            Ok(Func {
                ret,
                name,
                params,
                body,
                pos,
            })
        }

        /// `storage? type name (= init)? (, name (= init)?)* ;`
        fn var_decl(&mut self) -> Result<Vec<VarDecl>, ParseError> {
            let pos = self.pos();
            let storage = if self.eat(&Tok::KwMono) {
                Storage::Mono
            } else {
                self.eat(&Tok::KwPoly);
                Storage::Poly
            };
            let ty = match self.bump() {
                Tok::KwInt => Type::Int,
                Tok::KwFloat => Type::Float,
                other => {
                    return Err(self.err(format!("expected `int` or `float`, found `{other}`")))
                }
            };
            let mut decls = Vec::new();
            loop {
                let name = self.ident()?;
                let init = if self.eat(&Tok::Assign) {
                    Some(self.assignment()?)
                } else {
                    None
                };
                decls.push(VarDecl {
                    storage,
                    ty,
                    name,
                    init,
                    pos,
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::Semi)?;
            Ok(decls)
        }

        // ---- statements ---------------------------------------------------

        fn stmt(&mut self) -> Result<Stmt, ParseError> {
            let pos = self.pos();
            match self.peek().clone() {
                Tok::KwMono | Tok::KwPoly | Tok::KwInt | Tok::KwFloat => {
                    let decls = self.var_decl()?;
                    if decls.len() == 1 {
                        Ok(Stmt::Decl(decls.into_iter().next().unwrap()))
                    } else {
                        Ok(Stmt::Decls(decls))
                    }
                }
                Tok::KwIf => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let cond = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    let then = Box::new(self.stmt()?);
                    let els = if self.eat(&Tok::KwElse) {
                        Some(Box::new(self.stmt()?))
                    } else {
                        None
                    };
                    Ok(Stmt::If { cond, then, els })
                }
                Tok::KwWhile => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let cond = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    let body = Box::new(self.stmt()?);
                    Ok(Stmt::While { cond, body })
                }
                Tok::KwDo => {
                    self.bump();
                    let body = Box::new(self.stmt()?);
                    self.expect(&Tok::KwWhile)?;
                    self.expect(&Tok::LParen)?;
                    let cond = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::DoWhile { body, cond })
                }
                Tok::KwFor => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let init = if self.eat(&Tok::Semi) {
                        None
                    } else if self.is_decl_start() {
                        let decls = self.var_decl()?; // consumes ';'
                        Some(Box::new(Stmt::Decls(decls)))
                    } else {
                        let e = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Some(Box::new(Stmt::Expr(e)))
                    };
                    let cond = if *self.peek() == Tok::Semi {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&Tok::Semi)?;
                    let step = if *self.peek() == Tok::RParen {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&Tok::RParen)?;
                    let body = Box::new(self.stmt()?);
                    Ok(Stmt::For {
                        init,
                        cond,
                        step,
                        body,
                    })
                }
                Tok::LBrace => {
                    self.bump();
                    let mut stmts = Vec::new();
                    while !self.eat(&Tok::RBrace) {
                        if *self.peek() == Tok::Eof {
                            return Err(self.err("unterminated block".into()));
                        }
                        stmts.push(self.stmt()?);
                    }
                    Ok(Stmt::Block(stmts))
                }
                Tok::KwReturn => {
                    self.bump();
                    let e = if *self.peek() == Tok::Semi {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Return(e, pos))
                }
                Tok::KwBreak => {
                    self.bump();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Break(pos))
                }
                Tok::KwContinue => {
                    self.bump();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Continue(pos))
                }
                Tok::KwWait => {
                    self.bump();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Wait(pos))
                }
                Tok::KwHalt => {
                    self.bump();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Halt(pos))
                }
                Tok::KwSpawn => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(&Tok::LParen)?;
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Spawn { name, args, pos })
                }
                Tok::Semi => {
                    self.bump();
                    Ok(Stmt::Empty)
                }
                _ => {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Expr(e))
                }
            }
        }

        // ---- expressions --------------------------------------------------

        fn expr(&mut self) -> Result<Expr, ParseError> {
            self.assignment()
        }

        fn assignment(&mut self) -> Result<Expr, ParseError> {
            let pos = self.pos();
            let lhs = self.logor()?;
            let op = match self.peek() {
                Tok::Assign => None,
                Tok::PlusAssign => Some(AstBinOp::Add),
                Tok::MinusAssign => Some(AstBinOp::Sub),
                Tok::StarAssign => Some(AstBinOp::Mul),
                Tok::SlashAssign => Some(AstBinOp::Div),
                Tok::PercentAssign => Some(AstBinOp::Rem),
                _ => return Ok(lhs),
            };
            let target = match lhs {
                Expr::Var(name, _) => LValue::Var(name),
                Expr::ParSub { name, index, .. } => LValue::ParSub { name, index },
                other => {
                    return Err(ParseError {
                        msg: "left side of assignment is not assignable".into(),
                        pos: other.pos(),
                    })
                }
            };
            self.bump(); // the assignment operator
            let value = Box::new(self.assignment()?);
            Ok(Expr::Assign {
                target,
                op,
                value,
                pos,
            })
        }

        fn binary_level(
            &mut self,
            ops: &[(Tok, AstBinOp)],
            next: fn(&mut Self) -> Result<Expr, ParseError>,
        ) -> Result<Expr, ParseError> {
            let mut lhs = next(self)?;
            'outer: loop {
                for (tok, op) in ops {
                    if self.peek() == tok {
                        let pos = self.pos();
                        self.bump();
                        let rhs = next(self)?;
                        lhs = Expr::Bin {
                            op: *op,
                            l: Box::new(lhs),
                            r: Box::new(rhs),
                            pos,
                        };
                        continue 'outer;
                    }
                }
                return Ok(lhs);
            }
        }

        fn logor(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(&[(Tok::OrOr, AstBinOp::LogOr)], Self::logand)
        }

        fn logand(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(&[(Tok::AndAnd, AstBinOp::LogAnd)], Self::bitor)
        }

        fn bitor(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(&[(Tok::Pipe, AstBinOp::BitOr)], Self::bitxor)
        }

        fn bitxor(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(&[(Tok::Caret, AstBinOp::BitXor)], Self::bitand)
        }

        fn bitand(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(&[(Tok::Amp, AstBinOp::BitAnd)], Self::equality)
        }

        fn equality(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(
                &[(Tok::EqEq, AstBinOp::Eq), (Tok::NotEq, AstBinOp::Ne)],
                Self::relational,
            )
        }

        fn relational(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(
                &[
                    (Tok::Lt, AstBinOp::Lt),
                    (Tok::Le, AstBinOp::Le),
                    (Tok::Gt, AstBinOp::Gt),
                    (Tok::Ge, AstBinOp::Ge),
                ],
                Self::shift,
            )
        }

        fn shift(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(
                &[(Tok::Shl, AstBinOp::Shl), (Tok::Shr, AstBinOp::Shr)],
                Self::additive,
            )
        }

        fn additive(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(
                &[(Tok::Plus, AstBinOp::Add), (Tok::Minus, AstBinOp::Sub)],
                Self::multiplicative,
            )
        }

        fn multiplicative(&mut self) -> Result<Expr, ParseError> {
            self.binary_level(
                &[
                    (Tok::Star, AstBinOp::Mul),
                    (Tok::Slash, AstBinOp::Div),
                    (Tok::Percent, AstBinOp::Rem),
                ],
                Self::unary,
            )
        }

        fn unary(&mut self) -> Result<Expr, ParseError> {
            let pos = self.pos();
            let op = match self.peek() {
                Tok::Minus => Some(AstUnOp::Neg),
                Tok::Bang => Some(AstUnOp::Not),
                Tok::Tilde => Some(AstUnOp::BitNot),
                _ => None,
            };
            if let Some(op) = op {
                self.bump();
                let e = Box::new(self.unary()?);
                return Ok(Expr::Un { op, e, pos });
            }
            self.primary()
        }

        fn primary(&mut self) -> Result<Expr, ParseError> {
            let pos = self.pos();
            match self.peek().clone() {
                Tok::Int(v) => {
                    self.bump();
                    Ok(Expr::Int(v, pos))
                }
                Tok::Float(v) => {
                    self.bump();
                    Ok(Expr::Float(v, pos))
                }
                Tok::LParen => {
                    self.bump();
                    let e = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Ok(e)
                }
                Tok::Ident(name) => {
                    if *self.peek2() == Tok::LParen {
                        self.bump();
                        self.bump();
                        let mut args = Vec::new();
                        if !self.eat(&Tok::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat(&Tok::Comma) {
                                    break;
                                }
                            }
                            self.expect(&Tok::RParen)?;
                        }
                        return Ok(match name.as_str() {
                            "pe_id" if args.is_empty() => Expr::PeId(pos),
                            "nproc" if args.is_empty() => Expr::NProc(pos),
                            _ => Expr::Call { name, args, pos },
                        });
                    }
                    if *self.peek2() == Tok::LLBracket {
                        self.bump();
                        self.bump();
                        let index = Box::new(self.expr()?);
                        self.expect(&Tok::RRBracket)?;
                        return Ok(Expr::ParSub { name, index, pos });
                    }
                    self.bump();
                    Ok(Expr::Var(name, pos))
                }
                other => Err(self.err(format!("expected expression, found `{other}`"))),
            }
        }
    }
}

#[cfg(test)]
mod against_reference {
    use super::*;
    use proptest::prelude::*;

    /// One lexeme of every token kind, plus a few names and literals.
    const LEXEMES: &[&str] = &[
        "main", "x", "y", "f", "pe_id", "nproc", "0", "7", "2.5", "int", "float", "void", "mono",
        "poly", "if", "else", "while", "do", "for", "return", "break", "continue", "wait", "spawn",
        "halt", "(", ")", "{", "}", "[[", "]]", ";", ",", "=", "+=", "-=", "*=", "/=", "%=", "+",
        "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "!", "&", "|", "^", "~",
        "<<", ">>",
    ];

    /// Where a token soup starts, so that soups reach statement and
    /// expression parsing as often as the top level.
    const PREFIXES: &[&str] = &["", "main() { ", "main() { poly int x; x = "];

    const BINOPS: &[&str] = &[
        "||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=", "<<", ">>", "+", "-", "*",
        "/", "%",
    ];

    fn expr() -> BoxedStrategy<String> {
        let leaf = prop_oneof![
            Just("x".to_string()),
            Just("y".to_string()),
            Just("pe_id()".to_string()),
            Just("nproc()".to_string()),
            Just("1.5".to_string()),
            (0i64..100).prop_map(|v| v.to_string()),
        ];
        leaf.prop_recursive(6, 64, 3, |inner| {
            let link = (0..BINOPS.len(), inner.clone());
            prop_oneof![
                // Unparenthesised chains, to mix precedences.
                (inner.clone(), prop::collection::vec(link, 1..5)).prop_map(|(a, rest)| {
                    rest.iter()
                        .fold(a, |acc, (op, b)| format!("{acc} {} {b}", BINOPS[*op]))
                }),
                (0..3usize, inner.clone())
                    .prop_map(|(op, a)| format!("{}{a}", ["-", "!", "~"][op])),
                inner.clone().prop_map(|a| format!("({a})")),
                (0..3usize, prop::collection::vec(inner.clone(), 0..3)).prop_map(|(f, args)| {
                    format!("{}({})", ["f", "pe_id", "nproc"][f], args.join(", "))
                }),
                inner.clone().prop_map(|a| format!("x[[{a}]]")),
                (0..6usize, inner).prop_map(|(op, a)| {
                    format!("x {} {a}", ["=", "+=", "-=", "*=", "/=", "%="][op])
                }),
            ]
        })
    }

    fn stmt() -> BoxedStrategy<String> {
        let e = expr();
        let leaf = prop_oneof![
            e.clone().prop_map(|a| format!("{a};")),
            e.clone().prop_map(|a| format!("return {a};")),
            e.clone().prop_map(|a| format!("poly int z = {a}, w;")),
            e.clone().prop_map(|a| format!("spawn f({a});")),
            Just("break;".to_string()),
            Just("continue;".to_string()),
            Just("wait;".to_string()),
            Just("halt;".to_string()),
            Just(";".to_string()),
        ];
        leaf.prop_recursive(4, 32, 2, move |inner| {
            prop_oneof![
                (e.clone(), inner.clone()).prop_map(|(c, s)| format!("if ({c}) {s}")),
                (e.clone(), inner.clone(), inner.clone())
                    .prop_map(|(c, s, t)| format!("if ({c}) {s} else {t}")),
                (e.clone(), inner.clone()).prop_map(|(c, s)| format!("while ({c}) {s}")),
                (inner.clone(), e.clone()).prop_map(|(s, c)| format!("do {s} while ({c});")),
                (e.clone(), e.clone(), inner.clone())
                    .prop_map(|(c, st, s)| format!("for (poly int i = 0; {c}; {st}) {s}")),
                (inner.clone(), inner).prop_map(|(s, t)| format!("{{ {s} {t} }}")),
            ]
        })
    }

    fn agree(src: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(parse(src), reference::parse(src), "on {:?}", src);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        #[test]
        fn token_soups_match_the_reference(
            prefix in 0..PREFIXES.len(),
            soup in prop::collection::vec(0..LEXEMES.len(), 0..120),
        ) {
            let words: Vec<&str> = soup.iter().map(|&i| LEXEMES[i]).collect();
            agree(&format!("{}{}", PREFIXES[prefix], words.join(" ")))?;
        }

        #[test]
        fn grammar_shaped_sources_match_the_reference(
            body in prop::collection::vec(stmt(), 1..4),
            edit in 0..5usize,
            at in any::<usize>(),
            lexeme in 0..LEXEMES.len(),
        ) {
            let mut src = format!(
                "int f(int a, float b) {{ return a; }} main() {{ poly int x, y; {} }}",
                body.join(" ")
            );
            // Some cases stay well formed; the rest lose a byte, gain a
            // token or end early (anywhere, or just after a `;`, `{` or `}`),
            // to reach the errors a near miss makes.
            let ends: Vec<usize> = src.match_indices([';', '{', '}']).map(|(i, _)| i + 1).collect();
            let cut = ends[at % ends.len()];
            let at = at % (src.len() + 1);
            match edit {
                1 if at < src.len() => {
                    src.remove(at);
                }
                2 => src.insert_str(at, &format!(" {} ", LEXEMES[lexeme])),
                3 => src.truncate(at),
                4 => src.truncate(cut),
                _ => {}
            }
            agree(&src)?;
        }
    }
}

#[cfg(test)]
mod hostile {
    use super::*;

    /// The five ways to nest without bound, each repeated to fill 1 MiB:
    /// parentheses, unary minus, a left-deep `+` chain, blocks and an
    /// `else if` chain.
    fn shapes() -> Vec<(&'static str, String)> {
        [
            ("parens", "x = ", "(", "1", ")", ";"),
            ("negations", "x = ", "- ", "1", "", ";"),
            ("sum", "x = 1", " + 1", "", "", ";"),
            ("blocks", "", "{", "", "}", ""),
            ("else-if", "", "if (x) x = 1; else ", "x = 2;", "", ""),
        ]
        .into_iter()
        .map(|(name, pre, open, mid, close, post)| {
            let n = (1 << 20) / (open.len() + close.len());
            let (open, close) = (open.repeat(n), close.repeat(n));
            let src = format!("main() {{ poly int x; {pre}{open}{mid}{close}{post} }}");
            (name, src)
        })
        .collect()
    }

    #[test]
    fn a_mebibyte_of_nesting_is_a_clean_error_on_a_small_stack() {
        for (name, src) in shapes() {
            // 256 KiB holds the bound many times over but not a recursion
            // that follows the input.
            let parsed = std::thread::Builder::new()
                .stack_size(256 << 10)
                .spawn(move || parse(&src).map(drop))
                .expect("spawn the parser thread")
                .join()
                .expect("the parser thread returns");
            let e = parsed.expect_err(name);
            assert_eq!(e.msg, "nesting deeper than 256 levels", "{name}");
        }
    }

    #[test]
    fn nesting_up_to_the_bound_parses() {
        let levels = MAX_DEPTH - 2; // `main`'s statement and `x = ` take two
        let src = format!(
            "main() {{ poly int x; x = {}1{}; }}",
            "(".repeat(levels),
            ")".repeat(levels)
        );
        assert!(parse(&src).is_ok());
        let src = format!(
            "main() {{ poly int x; x = {}1{}; }}",
            "(".repeat(levels + 1),
            ")".repeat(levels + 1)
        );
        assert_eq!(
            parse(&src).unwrap_err().msg,
            "nesting deeper than 256 levels"
        );
    }
}
