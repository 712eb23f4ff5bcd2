//! # msc-lang — the MIMDC front end
//!
//! §4.1 of the paper: "The language accepted by the meta-state converter is
//! a parallel dialect of C called MIMDC. It supports most of the basic C
//! constructs. Data values can be either `int` or `float`, and variables
//! can be declared as `mono` (shared) or `poly` (private)."
//!
//! This crate provides the lexer ([`token`]), operator-precedence parser
//! ([`parser`]), AST ([`ast`]), and the lowering to the MIMD state graph
//! ([`lower`]), which implements the paper's §2.2 function-call handling by
//! inline expansion (recursion included: `return`s become multiway
//! branches over statically-computed return sites) and the §4.2 loop
//! normalization to execute-one-or-more form.
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! let program = msc_lang::compile(r#"
//!     main() {
//!         poly int x;
//!         x = pe_id() * 2;
//!         return(x);
//!     }
//! "#).unwrap();
//! assert!(program.graph.len() >= 1);
//! ```
//!
//! ## Nesting bound
//!
//! Source arrives from the network (`mscc serve`), so how deeply it may
//! nest is bounded: [`parser::MAX_DEPTH`], 256 levels of statements,
//! operands and parentheses. The parser does not recurse, and past the
//! bound it returns a [`ParseError`] naming the limit. The lowering, type
//! inference and the AST's `Drop` do recurse, at most that deep per
//! function body, and the lowering inlines a call only while its own walk
//! is within the bound, so a chain of inlined bodies cannot add up.
//!
//! ## MIMDC language summary
//!
//! * Types: `int`, `float` (f64); `void` for function returns.
//! * Storage: `poly` (default, per-PE private) and `mono` (replicated;
//!   stores broadcast to every PE's copy).
//! * Parallel subscripting: `x[[j]]` reads/writes `poly x` on PE `j`
//!   through the router. Compound assignment to a subscript is rejected.
//! * Built-ins: `pe_id()`, `nproc()`.
//! * `wait;` — barrier synchronization of all threads (§2.6).
//! * `spawn f(args);` — restricted dynamic process creation (§3.2.5).
//! * `halt;` — end this process. The SIMD machine returns the PE to the
//!   free pool; the MIMD reference and the interpreter do not (DESIGN.md
//!   §8 "Spawn").
//! * Control flow: `if`/`else`, `while`, `do`/`while`, `for`, `break`,
//!   `continue`, `return`. Logical `&&`/`||` evaluate both sides (no
//!   short-circuit — on SIMD hardware both sides run under masks anyway).

pub mod ast;
pub mod lower;
pub mod parser;
pub mod token;

pub use ast::{Ast, Func, Stmt, Type};
pub use lower::{Layout, LowerError, Program, VarRecord};
pub use parser::{parse, ParseError};
pub use token::{lex, LexError};

use std::fmt;

/// Any front-end failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexing or parsing failed.
    Parse(ParseError),
    /// Semantic analysis or lowering failed.
    Lower(LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// Compile MIMDC source to a normalized MIMD state graph + layout.
pub fn compile(src: &str) -> Result<Program, CompileError> {
    let ast = parse(src)?;
    Ok(lower::lower(&ast)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let p = compile("main() { poly int x = 3; return(x); }").unwrap();
        assert_eq!(p.graph.len(), 1);
        assert!(p.layout.main_ret.is_some());
    }

    #[test]
    fn compile_reports_parse_errors() {
        assert!(matches!(compile("main() {"), Err(CompileError::Parse(_))));
    }

    #[test]
    fn compile_reports_lower_errors() {
        assert!(matches!(
            compile("main() { y = 1; }"),
            Err(CompileError::Lower(_))
        ));
    }
}
