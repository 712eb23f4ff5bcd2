//! Lexer for MIMDC, the parallel C dialect of §4.1: "It supports most of
//! the basic C constructs. Data values can be either `int` or `float`, and
//! variables can be declared as `mono` (shared) or `poly` (private)."
//!
//! Extensions beyond plain C tokens: the parallel-subscript brackets
//! `[[` / `]]`, and the keywords `mono`, `poly`, `wait`, `spawn`, `halt`,
//! `pe_id`, `nproc`.

use std::fmt;

/// A source position (1-based line and column) for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Identifier.
    Ident(String),
    // Keywords.
    /// `int`
    KwInt,
    /// `float`
    KwFloat,
    /// `void`
    KwVoid,
    /// `mono`
    KwMono,
    /// `poly`
    KwPoly,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `do`
    KwDo,
    /// `for`
    KwFor,
    /// `return`
    KwReturn,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `wait`
    KwWait,
    /// `spawn`
    KwSpawn,
    /// `halt`
    KwHalt,
    // Punctuation / operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[[`
    LLBracket,
    /// `]]`
    RRBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `/=`
    SlashAssign,
    /// `%=`
    PercentAssign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::KwInt => write!(f, "int"),
            Tok::KwFloat => write!(f, "float"),
            Tok::KwVoid => write!(f, "void"),
            Tok::KwMono => write!(f, "mono"),
            Tok::KwPoly => write!(f, "poly"),
            Tok::KwIf => write!(f, "if"),
            Tok::KwElse => write!(f, "else"),
            Tok::KwWhile => write!(f, "while"),
            Tok::KwDo => write!(f, "do"),
            Tok::KwFor => write!(f, "for"),
            Tok::KwReturn => write!(f, "return"),
            Tok::KwBreak => write!(f, "break"),
            Tok::KwContinue => write!(f, "continue"),
            Tok::KwWait => write!(f, "wait"),
            Tok::KwSpawn => write!(f, "spawn"),
            Tok::KwHalt => write!(f, "halt"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LLBracket => write!(f, "[["),
            Tok::RRBracket => write!(f, "]]"),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::Assign => write!(f, "="),
            Tok::PlusAssign => write!(f, "+="),
            Tok::MinusAssign => write!(f, "-="),
            Tok::StarAssign => write!(f, "*="),
            Tok::SlashAssign => write!(f, "/="),
            Tok::PercentAssign => write!(f, "%="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::EqEq => write!(f, "=="),
            Tok::NotEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Bang => write!(f, "!"),
            Tok::Amp => write!(f, "&"),
            Tok::Pipe => write!(f, "|"),
            Tok::Caret => write!(f, "^"),
            Tok::Tilde => write!(f, "~"),
            Tok::Shl => write!(f, "<<"),
            Tok::Shr => write!(f, ">>"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Description.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenize MIMDC source. Supports `//` line and `/* */` block comments.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    // MIMDC runs 2.5–3 bytes a token, so this is the one allocation.
    let mut out = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! pos {
        () => {
            Pos { line, col }
        };
    }
    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            bump!();
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                let start = pos!();
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            msg: "unterminated block comment".into(),
                            pos: start,
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
                continue;
            }
        }
        let start = pos!();
        // Numbers.
        if c.is_ascii_digit() || (c == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let begin = i;
            let mut is_float = false;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                bump!();
            }
            if i < bytes.len() && bytes[i] == b'.' {
                is_float = true;
                bump!();
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                let save = (i, line, col);
                is_float = true;
                bump!();
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    bump!();
                }
                if i < bytes.len() && bytes[i].is_ascii_digit() {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                } else {
                    // Not an exponent after all (e.g. `2e` in `x = 2e;` is
                    // an error in C too, but be graceful: back off).
                    (i, line, col) = save;
                    is_float = bytes[begin..i].contains(&b'.');
                }
            }
            let text = std::str::from_utf8(&bytes[begin..i]).unwrap();
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|e| LexError {
                    msg: format!("bad float literal {text:?}: {e}"),
                    pos: start,
                })?)
            } else {
                Tok::Int(text.parse().map_err(|e| LexError {
                    msg: format!("bad int literal {text:?}: {e}"),
                    pos: start,
                })?)
            };
            out.push(Token { tok, pos: start });
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let begin = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                bump!();
            }
            let text = std::str::from_utf8(&bytes[begin..i]).unwrap();
            let tok = match text {
                "int" => Tok::KwInt,
                "float" => Tok::KwFloat,
                "void" => Tok::KwVoid,
                "mono" => Tok::KwMono,
                "poly" => Tok::KwPoly,
                "if" => Tok::KwIf,
                "else" => Tok::KwElse,
                "while" => Tok::KwWhile,
                "do" => Tok::KwDo,
                "for" => Tok::KwFor,
                "return" => Tok::KwReturn,
                "break" => Tok::KwBreak,
                "continue" => Tok::KwContinue,
                "wait" => Tok::KwWait,
                "spawn" => Tok::KwSpawn,
                "halt" => Tok::KwHalt,
                _ => Tok::Ident(text.to_string()),
            };
            out.push(Token { tok, pos: start });
            continue;
        }
        // Operators / punctuation (longest match first).
        let two = if i + 1 < bytes.len() {
            &bytes[i..i + 2]
        } else {
            &bytes[i..i + 1]
        };
        let (tok, len) = match two {
            b"[[" => (Tok::LLBracket, 2),
            b"]]" => (Tok::RRBracket, 2),
            b"==" => (Tok::EqEq, 2),
            b"!=" => (Tok::NotEq, 2),
            b"<=" => (Tok::Le, 2),
            b">=" => (Tok::Ge, 2),
            b"&&" => (Tok::AndAnd, 2),
            b"||" => (Tok::OrOr, 2),
            b"<<" => (Tok::Shl, 2),
            b">>" => (Tok::Shr, 2),
            b"+=" => (Tok::PlusAssign, 2),
            b"-=" => (Tok::MinusAssign, 2),
            b"*=" => (Tok::StarAssign, 2),
            b"/=" => (Tok::SlashAssign, 2),
            b"%=" => (Tok::PercentAssign, 2),
            _ => {
                let t = match c {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b';' => Tok::Semi,
                    b',' => Tok::Comma,
                    b'=' => Tok::Assign,
                    b'+' => Tok::Plus,
                    b'-' => Tok::Minus,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    b'<' => Tok::Lt,
                    b'>' => Tok::Gt,
                    b'!' => Tok::Bang,
                    b'&' => Tok::Amp,
                    b'|' => Tok::Pipe,
                    b'^' => Tok::Caret,
                    b'~' => Tok::Tilde,
                    b'[' | b']' => {
                        return Err(LexError {
                            msg: format!(
                                "single '{}' — MIMDC only has parallel subscripting '[[ ]]'",
                                c as char
                            ),
                            pos: start,
                        })
                    }
                    other => {
                        return Err(LexError {
                            msg: format!("unexpected character {:?}", other as char),
                            pos: start,
                        })
                    }
                };
                (t, 1)
            }
        };
        for _ in 0..len {
            bump!();
        }
        out.push(Token { tok, pos: start });
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: pos!(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("mono int x poly float wait"),
            vec![
                Tok::KwMono,
                Tok::KwInt,
                Tok::Ident("x".into()),
                Tok::KwPoly,
                Tok::KwFloat,
                Tok::KwWait,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("1.5"), vec![Tok::Float(1.5), Tok::Eof]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
        assert_eq!(toks("2.5e-1"), vec![Tok::Float(0.25), Tok::Eof]);
        assert_eq!(toks(".5"), vec![Tok::Float(0.5), Tok::Eof]);
    }

    #[test]
    fn parallel_subscript_brackets() {
        assert_eq!(
            toks("x[[j]]"),
            vec![
                Tok::Ident("x".into()),
                Tok::LLBracket,
                Tok::Ident("j".into()),
                Tok::RRBracket,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn single_bracket_rejected() {
        assert!(lex("x[3]").is_err());
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            toks("a <= b << c < d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Ident("b".into()),
                Tok::Shl,
                Tok::Ident("c".into()),
                Tok::Lt,
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("x += 1"),
            vec![
                Tok::Ident("x".into()),
                Tok::PlusAssign,
                Tok::Int(1),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // comment\n b /* multi\nline */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn positions_tracked() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn listing4_lexes() {
        let src = r#"
            main() {
                poly int x;
                if (x) { do { x = 1; } while (x); }
                else { do { x = 2; } while (x); }
                return(x);
            }
        "#;
        let ts = lex(src).unwrap();
        assert!(ts.len() > 30);
        assert_eq!(ts.last().unwrap().tok, Tok::Eof);
    }
}
