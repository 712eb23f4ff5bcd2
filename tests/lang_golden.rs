//! Cross-commit golden for the MIMDC front end. `codegen_golden` pins what
//! the back end makes of a program; this pins the front end itself: `{:?}`
//! of the parsed `Ast` and of the lowered `Program` (state graph and
//! layout), one SipHash-2-4-128 digest each per source, over
//! `codegen_golden`'s corpus plus the MIMDC embedded in `examples/`. It
//! also pins the exact position and message of malformed inputs that
//! reach every error site of the lexer and the parser, except two that no
//! input reaches: a digit run always parses as an `f64`, and the parser
//! asks for a type only when one is next; and the same for every error
//! site of the lowering that a parsed source can reach. A digest or
//! message may only change in a PR that says the front end's output
//! changed, and why.

use msc_bench::workloads::{barrier_phases_source, branchy_source, imbalanced_source};

/// (label, `Ast` digest, `Program` digest), captured at commit 806003c,
/// the last one with the recursive-descent expression parser; the two
/// `listing*.mimdc` rows were added when those files were, at 1101d3b's
/// front end; the five `copy:` rows, the §2.2 copy shapes the rest of the
/// corpus lacks, were added at caeab06's front end.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("branchy(2)", "df03a54b7b1dc283bf5d2672e97db24b", "c82dc71d2e066eaabb87a587e84a6862"),
    ("branchy(3)", "2890615a2203689834f2c4c257321f26", "f0f5217436ce8f92233c97e25c9ffb23"),
    ("branchy(4)", "a62c596332593f1fd68c64ce6b5984a9", "4763a264baf40550ea0b41ca77bcfe31"),
    ("branchy(5)", "9ef3da0841b99ab9ccfbdd0ec63feae3", "c8580afdb40b2dd993447534cf0b53c1"),
    ("branchy(6)", "b787b6a59cf489e95edb4313f4f126c0", "e98eb5fb252f2025d0c45a211cfff363"),
    ("imbalanced(5,40)", "84dd773aa58f89ea8bc89dc04a781294", "01c6ccf327f8fbb8fcaaafe8c91f6c72"),
    ("imbalanced(5,200)", "9bec5231ab3f94c11d209edfc7686c07", "a00752ae4a6e3199432b61bcc45367e7"),
    ("imbalanced(5,399)", "76e3afa0af6ab0099f28dcd90595cfdd", "a3f7d3ba3fe24b12c5ab075029e4f531"),
    ("barrier_phases(1)", "aa5ef5f4f431064aa43efb1af1283c3f", "4921bfb7b41d76c8a13bd780efcb65d9"),
    ("barrier_phases(2)", "8eb8afe013a11a898221a160ecd9e9c4", "bc6f9e36d930fa1583163af170e6882e"),
    ("barrier_phases(3)", "ed109a3dd75fc2d635cf59943a91aeb0", "03d55a397bcbb5e8b9742248f397728a"),
    ("barrier_phases(4)", "053463ea7194e70852802afa5fb7f5c7", "dbf88b16e276ab380a09b88a51596945"),
    ("barrier_phases(5)", "8b801cb9eb8da1d9f4d6cfa255f0bcb5", "9a5feea872f099544d91f8f560f86666"),
    ("barrier_pipeline.rs", "c0b1b69515b915ed128701863c7383fb", "2c0060de5be0e6375af4dd5a01431336"),
    ("branchy_workers.rs", "46ca4564a90d0c031fd4d10629898c13", "3888502d9829bce07170f9229461b2c1"),
    ("dispatch_heavy.mimdc", "2890615a2203689834f2c4c257321f26", "f0f5217436ce8f92233c97e25c9ffb23"),
    ("listing3.mimdc", "f587b7e0f535b6a306249533cfa44a88", "9896621ff97f6fa4008c2e04919b6f25"),
    ("listing4.mimdc", "81206a529f5346cd0266730414b41950", "14dd3b8b113a89879c34350ecc278ca1"),
    ("quickstart.rs", "06da9ae7ccea4da7296bc49af5eb1707", "a1ab38ba31b4229c6f95da7c49655485"),
    ("recursive_calls.rs", "6b66a3e90a9e1a4946b3f3395db92e97", "44a950ba6a0dd4570ee28e3c86813ea0"),
    ("reduction.rs", "7d559bf46f7899d77acdeed8b3f96dd5", "dbcbe6c65e7d72e5798da1c93bb72a9f"),
    ("spawn_tree.rs", "70a7baeadbf4501d9f1edda04a0cf1e1", "3635e7aa3b3c6db98a3c74e2a9bdac6a"),
    ("copy:spawn-recursive", "f94d18f3756e281b51dac5ffef0cae01", "5b6aece45139c7e97f85be074a9fe00a"),
    ("copy:spawn-calls-recursive-and-itself", "8120bae360720787f49442e8b5add695", "579935cef187e33bf86124669f95c4ca"),
    ("copy:mutual-recursion", "398b320dd9aac38f6df5e5f0590d4f66", "1445f3d4389e50f2e891cfbc965461cf"),
    ("copy:called-and-spawned", "9ce11b46d4e0e3dd61491530fad9d864", "515601fc1e262962ed3e07d6960fa663"),
    ("copy:recursive-called-and-spawned", "33a4e36b1d23adfeb98ad615239afe38", "82670e4328044899d7cd4758fce5c1b4"),
];

/// Sources of the §2.2 copy shapes: `main`, inline calls and spawned
/// processes, each recursive or not.
const COPY_SHAPES: &[(&str, &str)] = &[
    (
        "copy:spawn-recursive",
        "int rec(int n) { if (n <= 0) return 0; return rec(n - 1) + 1; }
         main() { poly int x; x = pe_id(); spawn rec(3); return(x); }",
    ),
    (
        "copy:spawn-calls-recursive-and-itself",
        "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
         void worker(int d) { poly int wr; wr = fact(d); if (d > 1) spawn worker(d - 1); }
         main() { poly int x; x = pe_id(); spawn worker(3); return(x); }",
    ),
    (
        "copy:mutual-recursion",
        "int even(int n) { if (n == 0) return 1; return odd(n - 1); }
         int odd(int n) { if (n == 0) return 0; return even(n - 1); }
         main() { poly int x; x = even(pe_id()); return(x); }",
    ),
    (
        "copy:called-and-spawned",
        "int sq(int a) { poly int t; t = a * a; return t; }
         main() { poly int x; x = sq(pe_id()); spawn sq(x); return(x); }",
    ),
    (
        "copy:recursive-called-and-spawned",
        "int rec(int n) { poly int k; k = n; if (n <= 0) return 0; return rec(n - 1) + k; }
         main() { poly int x; x = rec(pe_id()); spawn rec(x); return(x); }",
    ),
];

/// (source, `line:col message` of its `ParseError`), captured with
/// `GOLDEN`.
#[rustfmt::skip]
const MALFORMED: &[(&str, &str)] = &[
    ("main() { /* never closed", "1:10 unterminated block comment"),
    ("main() { poly int x; x = 99999999999999999999; }", "1:26 bad int literal \"99999999999999999999\": number too large to fit in target type"),
    ("main() { poly int x; x[3] = 1; }", "1:23 single '[' — MIMDC only has parallel subscripting '[[ ]]'"),
    ("main() { poly int x; x = 1 ]; }", "1:28 single ']' — MIMDC only has parallel subscripting '[[ ]]'"),
    ("main() { poly int x; x = 1 @ 2; }", "1:28 unexpected character '@'"),
    ("main() {\n  poly int x;\n  x = \"s\";\n}", "3:7 unexpected character '\"'"),
    ("main() { é }", "1:10 unexpected character 'Ã'"),
    ("main() { poly int x; x = 1e; }", "1:27 expected `;`, found `e`"),
    ("x = 1;", "1:1 expected declaration or function, found `x`"),
    ("int (", "1:5 expected identifier, found `(`"),
    ("main(int) { }", "1:9 expected identifier, found `)`"),
    ("main(int a { }", "1:12 expected `)`, found `{`"),
    ("main() return;", "1:8 expected `{`, found `return`"),
    ("main() { poly int x;", "1:21 unterminated function body"),
    ("mono x;", "1:7 expected `int` or `float`, found `x`"),
    ("poly void v;", "1:11 expected `int` or `float`, found `void`"),
    ("main() { poly int x = 1 }", "1:25 expected `;`, found `}`"),
    ("main() { poly int x, 3; }", "1:22 expected identifier, found `3`"),
    ("main() { poly int while; }", "1:19 expected identifier, found `while`"),
    ("main() { if x) {} }", "1:13 expected `(`, found `x`"),
    ("main() { poly int x; if (x {} }", "1:28 expected `)`, found `{`"),
    ("main() { poly int x; while (x; }", "1:30 expected `)`, found `;`"),
    ("main() { poly int x; do { } until (x); }", "1:29 expected `while`, found `until`"),
    ("main() { poly int x; do x = 1; while (x) }", "1:42 expected `;`, found `}`"),
    ("main() { poly int i; for (i = 0, i < 3; ) ; }", "1:32 expected `;`, found `,`"),
    ("main() { poly int i; for (;i < 3) ; }", "1:33 expected `;`, found `)`"),
    ("main() { poly int i; for (;;i += 1 ; }", "1:36 expected `)`, found `;`"),
    ("main() { { poly int x; ", "1:24 unterminated block"),
    ("main() { return 1 }", "1:19 expected `;`, found `}`"),
    ("main() { while (1) { break } }", "1:28 expected `;`, found `}`"),
    ("main() { while (1) { continue } }", "1:31 expected `;`, found `}`"),
    ("main() { wait }", "1:15 expected `;`, found `}`"),
    ("main() { halt }", "1:15 expected `;`, found `}`"),
    ("main() { spawn (1); }", "1:16 expected identifier, found `(`"),
    ("void w() {} main() { spawn w; }", "1:29 expected `(`, found `;`"),
    ("void w(int a) {} main() { spawn w(1; }", "1:36 expected `)`, found `;`"),
    ("void w() {} main() { spawn w() }", "1:32 expected `;`, found `}`"),
    ("main() {\n  poly int x\n}", "3:1 expected `;`, found `}`"),
    ("main() { 1 = 2; }", "1:10 left side of assignment is not assignable"),
    ("main() { poly int x; (x + 1) += 2; }", "1:25 left side of assignment is not assignable"),
    ("main() { poly int x; x = ; }", "1:26 expected expression, found `;`"),
    ("main() { poly int x; x = 1 +", "1:29 expected expression, found `<eof>`"),
    ("int f(int a) { return a; } main() { f(1; }", "1:40 expected `)`, found `;`"),
    ("main() { poly int x; x = x[[0; }", "1:30 expected `]]`, found `;`"),
    ("main() { poly int x; x = (1 + 2; }", "1:32 expected `)`, found `;`"),
    ("main() { poly int x; x = 1 }", "1:28 expected `;`, found `}`"),
];

/// (source, `line:col message` of its `LowerError`), one row for every
/// error site of `msc_lang::lower` that a parsed source reaches, captured
/// at caeab06. A `<…>` source is generated by `lowering_source`. Seven
/// sites are unreachable from source: `internal: lowered graph invalid`;
/// `variable … cannot be void` (the parser admits no void variable);
/// `` `return` outside of a function `` (main's copy encloses every
/// statement); and `void value used`, `void value used as condition` and
/// both `void operand`s (a void call used as a value fails first, with
/// `void function … used as a value`).
#[rustfmt::skip]
const LOWER_ERRORS: &[(&str, &str)] = &[
    ("int f() { return 1; }", "1:1 program has no `main` function"),
    ("main(int a) { }", "1:1 `main` takes no parameters"),
    ("main() { poly int x; x = 1; main(); }", "1:1 recursive `main` is not supported"),
    ("main() { poly int x; poly int x; }", "1:22 `x` already declared in this scope"),
    ("main() { x = 1; }", "1:10 undeclared variable `x`"),
    ("main() { poly int x; x = g() + 1; }", "1:26 unknown function `g`"),
    ("main() { poly int x; x = 1; break; }", "1:29 `break` outside loop"),
    ("main() { while (1) { } continue; }", "1:24 `continue` outside loop"),
    ("void f() { return 1; } main() { f(); }", "1:12 returning a value from a void function"),
    ("main() { spawn g(); }", "1:10 unknown function `g`"),
    ("void w(int a) { } main() { spawn w(); }", "1:28 `w` expects 1 argument(s), got 0"),
    ("<64 copies, then a spawn>", "65:18 inline expansion too deep"),
    ("main() { mono int m; poly int x; x = m[[0]]; }", "1:38 parallel subscript on `mono` variable `m`"),
    ("main() { poly int x; x = ~1.5; }", "1:26 `~` requires an int operand"),
    ("main() { poly int x; x = 1.5 % 2; }", "1:30 operator `Rem` requires int operands"),
    ("main() { poly int x; x = 1 % 2.5; }", "1:28 operator `Rem` requires int operands"),
    ("main() { poly int x; x[[0]] += 1; }", "1:22 compound assignment to a parallel subscript is not supported"),
    ("main() { mono int m; m[[0]] = 1; }", "1:22 parallel subscript on `mono` variable `m`"),
    ("main() { g(); }", "1:10 unknown function `g`"),
    ("int f(int a) { return a; } main() { f(); }", "1:37 `f` expects 1 argument(s), got 0"),
    ("void f() { } main() { poly int x; x = f(); }", "1:39 void function `f` used as a value"),
    ("<64 copies, then a call>", "65:22 inline expansion too deep"),
];

/// The source a `LOWER_ERRORS` row names: itself, or for a `<…>` label
/// `main` and 63 nested inline copies (`MAX_INLINE_DEPTH` is 64), the
/// innermost of which calls or spawns one more.
fn lowering_source(row: &str) -> String {
    let chain = |last: &str| {
        let mut src = String::from("void w() { }\nint g(int a) { return a; }\n");
        for i in 0..62 {
            src += &format!("int f{i}(int a) {{ return f{}(a); }}\n", i + 1);
        }
        src + &format!("int f62(int a) {{ {last} return a; }}\n")
            + "main() { poly int x; x = f0(1); return(x); }"
    };
    match row {
        "<64 copies, then a call>" => chain("a = g(a);"),
        "<64 copies, then a spawn>" => chain("spawn w();"),
        src => src.to_string(),
    }
}

/// Every source file under `examples/`: a `.mimdc` file whole, a Rust
/// example's one raw-string MIMDC literal.
fn examples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("the examples directory is readable")
        .map(|e| {
            e.expect("a directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
            let src = if name.ends_with(".rs") {
                let start = text.find("r#\"").expect("one raw-string MIMDC source") + 3;
                let len = text[start..].find("\"#").expect("a closed raw string");
                text[start..start + len].to_string()
            } else {
                text
            };
            (name, src)
        })
        .collect()
}

fn corpus() -> Vec<(String, String)> {
    let mut v = Vec::new();
    for n in 2..=6 {
        v.push((format!("branchy({n})"), branchy_source(n)));
    }
    for long in [40, 200, 399] {
        v.push((format!("imbalanced(5,{long})"), imbalanced_source(5, long)));
    }
    for n in 1..=5 {
        v.push((format!("barrier_phases({n})"), barrier_phases_source(n)));
    }
    v.extend(examples());
    v.extend(
        COPY_SHAPES
            .iter()
            .map(|&(l, s)| (l.to_string(), s.to_string())),
    );
    v
}

fn digest(domain: &str, debug: &str) -> String {
    msc_cache::content_key(domain, &[debug.as_bytes()]).hex()
}

#[test]
fn front_end_output_matches_the_committed_digests() {
    let actual: Vec<(String, String, String)> = corpus()
        .into_iter()
        .map(|(label, src)| {
            let ast = msc_lang::parse(&src).expect("the corpus parses");
            let program = msc_lang::lower::lower(&ast).expect("the corpus lowers");
            let a = digest("lang-golden-ast", &format!("{ast:?}"));
            let p = digest("lang-golden-program", &format!("{program:?}"));
            (label, a, p)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, a, p)| format!("    ({l:?}, \"{a}\", \"{p}\"),\n"))
        .collect();
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((l, a, p), g)| (l.as_str(), a.as_str(), p.as_str()) == *g);
    assert!(
        matches,
        "front-end output drifted from GOLDEN; this commit produces:\n{table}"
    );
}

#[test]
fn malformed_inputs_fail_at_the_committed_positions() {
    let actual: Vec<(&str, String)> = MALFORMED
        .iter()
        .map(|&(src, _)| {
            let e = msc_lang::parse(src).expect_err("a malformed input");
            (src, format!("{} {}", e.pos, e.msg))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(src, got)| format!("    ({src:?}, {got:?}),\n"))
        .collect();
    let matches = actual
        .iter()
        .zip(MALFORMED)
        .all(|((_, got), (_, want))| got == want);
    assert!(
        matches,
        "parse errors drifted from MALFORMED; this commit produces:\n{table}"
    );
}

#[test]
fn lowering_errors_fail_at_the_committed_positions() {
    let actual: Vec<(&str, String)> = LOWER_ERRORS
        .iter()
        .map(|&(row, _)| {
            let src = lowering_source(row);
            // Unoptimised builds spend kilobytes of stack a level of the walk.
            let e = std::thread::Builder::new()
                .stack_size(16 << 20)
                .spawn(move || {
                    let ast = msc_lang::parse(&src).expect("the row parses");
                    msc_lang::lower::lower(&ast).expect_err("the row fails to lower")
                })
                .expect("spawn the lowering thread")
                .join()
                .expect("the lowering thread returns");
            (row, format!("{} {}", e.pos, e.msg))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(row, got)| format!("    ({row:?}, {got:?}),\n"))
        .collect();
    let matches = actual
        .iter()
        .zip(LOWER_ERRORS)
        .all(|((_, got), (_, want))| got == want);
    assert!(
        matches,
        "lowering errors drifted from LOWER_ERRORS; this commit produces:\n{table}"
    );
}
