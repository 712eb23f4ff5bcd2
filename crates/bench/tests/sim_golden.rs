//! Cross-commit golden for the three executors. `codegen_golden` pins the
//! generated program; this pins what running it *observes* — `{:?}` of the
//! run result, `Metrics`, the per-block `visits`, the `with_trace()` event
//! stream and every PE's return word — and the same for the §1.1
//! interpreter (`InterpMetrics` + results) and for `MimdReference`
//! (`MimdMetrics` + results), as one SipHash-2-4-128 digest per (workload,
//! column) folded over the PE counts in `WIDTHS` (1, a ragged 7, and both
//! sides of the 64-PE mask-word boundary, then the benchmark's 1 024). A
//! digest may only change in a PR that says the machine's accounting or
//! semantics changed, and why.

use metastate::{Built, ConvertMode, Pipeline};
use msc_bench::workloads::{barrier_phases_source, branchy_source, imbalanced_source};
use msc_ir::{Addr, CostModel};
use msc_mimd::{InterpInstr, InterpMachine, InterpProgram, MimdConfig, MimdReference};
use msc_simd::{
    BlockId, Dispatch, GuardedInstr, MachineConfig, MetaBlock, SimdInstr, SimdMachine, SimdProgram,
};
use std::fmt::Write as _;

const WIDTHS: [usize; 5] = [1, 7, 64, 65, 1024];

/// (label, base machine, compressed machine, interpreter, reference). The
/// first three columns captured at commit 7a4373b (PR 19), before PR 20
/// touched either simulator; the reference column, the `spawn:after-halt`
/// row and the `(8, 4)` pool (which moved the other spawn rows' first
/// three digests) on fa626da, before the executors shared one spawn pool.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, &str, &str)] = &[
    ("branchy(2)", "9b3f154cf9134d2402dd1ce5bd0a5b66", "e7a1ac57d68e38b0d33b86df356de6e8", "7e4a61e1a07bdee6263de72545e846fd", "8a915c37a809d34cbd5bf623cbb83377"),
    ("branchy(3)", "5a8c8880953f8baec493bc36e2fb73d4", "ba5edd65f925fa7f36719405fb15c6fb", "2d8c8c147824557bdf9fabdcb15747b9", "a689b676862dd41c39b06051e9ba92e7"),
    ("branchy(4)", "fd0176a44bcd408310db89023195c7a1", "e30b4e53a19575bc5bc5b4e1f292a8fe", "3141f87a35e79d825993e20b85003f3c", "f790e61f3b3f1f988716e7f9d21915e9"),
    ("branchy(5)", "3d52b7b629898c7b09aefef087ccbf3c", "3e9b2c7ae08079b33c72b3ed265c0b49", "d7b50a096cc58781886a59ac17a7c2ae", "6548b39bdbb708ce7e2b67f172a77f68"),
    ("branchy(6)", "da4a2eb9a7e96a65eabde9ccd76308b0", "075aab9a48ed51100599066b62dcbca2", "ea01b19acb515d364e7fa9ea3f22972a", "742978d918b3babc70897e7f4fe96521"),
    ("imbalanced(5,40)", "962c9d44f747e5e0fcc44f1cd40a996b", "8aa4f0f4d965992a390fa0ea1d669ab1", "33b1bcce65bc19e61f4e0855d3e662a0", "aef42cdd407af09e5642e68dcc901c4f"),
    ("imbalanced(5,200)", "090f1198d582e8fadf893371841b0623", "daa1b55bcb0766444275033206d504d0", "d51e731c1319dc8682fe8dc9bf0f63e1", "3d4456f5e5d7cc829be5f6debd645b40"),
    ("imbalanced(5,399)", "030d3b261ca3f42739611e889d19bc6b", "3512518c92faa1c860a6a8ed65ef1159", "b037ca801f14103562470fce107a6d81", "e7e37a332c8243f6fdc24f9353135bb6"),
    ("barrier_phases(1)", "e5702d8e62030d78fee99538a0b1f7fd", "e5702d8e62030d78fee99538a0b1f7fd", "5537c45a4d6a44ce6ce784e00b49740a", "44e2b3b53986348a66a95e8be21c7e78"),
    ("barrier_phases(2)", "9779db97cc51c408e48fbc46a4b6763d", "d68d9add209938be1d8d9610f027513c", "b2e1a69c39523436bcf229bb60ef646d", "1a16ca2a405b9f3dc88044cc7213233f"),
    ("barrier_phases(3)", "36b8197a3f5ed43abfc44be22c52baae", "992a164b627f4b345267c4e98cb9d6ba", "7593a03b3d590ca424f1732c14dc6c10", "309d2c68d6d8ea9bc22e0218c8c799b9"),
    ("barrier_phases(4)", "8cb0515f5209effbc69efef48bf75007", "945c12bc4bf35b346921c1e01c54bb79", "83c081c32b6cbf676c7bb857f995e50a", "79510e99a4c8b6015619cc83352f35ec"),
    ("barrier_phases(5)", "e256784a4bf773842a88ea40fc7ff83d", "4a6e28964cecefef3d543bbdbe0a494d", "26ea46fbca92df6f7492b14b3c9e6f1a", "79f584db06c78091a4204e4d826cb742"),
    ("dispatch_heavy.mimdc", "5a8c8880953f8baec493bc36e2fb73d4", "ba5edd65f925fa7f36719405fb15c6fb", "2d8c8c147824557bdf9fabdcb15747b9", "a689b676862dd41c39b06051e9ba92e7"),
    ("spawn:workers", "55c70c1ff77355472207437f7c302142", "55c70c1ff77355472207437f7c302142", "9e576373bda3c0e394570af7f2ebb078", "f5409639ab3364b2f210965c3e533b16"),
    ("spawn:recycle", "f9048eec558b019b8c8775dd0f9696e5", "8a210accc410ae843ab83f60a19725be", "487bc30b13a36ab7305825cae7c342e4", "0f0bf41d02e66f168a89cbb068e6eb6a"),
    ("spawn:inherit", "fdaaf172ea5aad9a07b5249c7e5b3ba6", "fdaaf172ea5aad9a07b5249c7e5b3ba6", "9e31f7d25656438325fb65eaf0b2d8fe", "12156ebd37d0d08fccc4c3be071f99e2"),
    ("spawn:after-halt", "46e08cb3ea00b3fb410ecdd81537ee4e", "d6bbeba04eed1c55d787ca01e6049f99", "dcb047a934894bb358ff9af72ca7e205", "fed2dd9961619cff054b527a9c078687"),
];

/// The `tests/spawn_and_pool.rs` programs and the DESIGN.md §8 program
/// that spawns after some process has halted: (label, source, variable
/// whose per-PE word is the result, or `None` for `main`'s return word).
const SPAWN: &[(&str, &str, Option<&str>)] = &[
    (
        "spawn:workers",
        "void worker(int seed) { poly int r; r = seed * seed + 1; }
         main() { spawn worker(pe_id() + 2); }",
        Some("r"),
    ),
    (
        "spawn:recycle",
        "void quick(int v) { poly int r; r = v; }
         main() {
             poly int me = pe_id();
             if (me == 0) { spawn quick(10); }
             wait;
             if (me == 1) { spawn quick(20); }
         }",
        Some("r"),
    ),
    (
        "spawn:inherit",
        "void worker(int unused) { poly int out, inherited; out = inherited + 5; }
         main() { poly int inherited_src; spawn worker(0); }",
        Some("out"),
    ),
    (
        "spawn:after-halt",
        "void w(int n) { poly int wr; wr = n + 100; }
         main() {
             poly int x;
             x = pe_id();
             while (x > 0) { x = x - 1; }
             spawn w(pe_id());
             return(pe_id() + 1);
         }",
        None,
    ),
];

/// `(n_pe, active)` pools for the spawn programs: the tests' own, both
/// sides of a mask-word boundary, a wide pool, two that overflow, and the
/// after-halt program's own.
const POOLS: [(usize, usize); 9] = [
    (8, 3),
    (3, 2),
    (4, 1),
    (4, 4),
    (64, 20),
    (65, 33),
    (1024, 500),
    (1024, 600),
    (8, 4),
];

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
    let example = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dispatch_heavy.mimdc"
    );
    v.push((
        "dispatch_heavy.mimdc".to_string(),
        std::fs::read_to_string(example).expect("the bundled example is readable"),
    ));
    v
}

fn build(src: &str, mode: ConvertMode) -> Built {
    Pipeline::new(src)
        .mode(mode)
        .build()
        .expect("the corpus compiles")
}

/// Everything one machine run lets a caller see, as text.
fn machine_run(out: &mut String, built: &Built, config: &MachineConfig, word: Addr) {
    let config = config.clone().with_trace();
    let mut machine = SimdMachine::new(&built.simd, &config);
    let result = machine.run(&built.simd, &config);
    let words: Vec<i64> = (0..config.n_pe)
        .map(|pe| machine.poly_at(pe, word))
        .collect();
    let _ = writeln!(
        out,
        "{}/{}: {result:?} {:?} {:?} {:?} {words:?}",
        config.n_pe, config.active_at_start, machine.metrics, machine.visits, machine.trace
    );
}

/// The same for one interpreter run.
fn interp_run(out: &mut String, built: &Built, n_pe: usize, active: usize, word: Addr) {
    let layout = &built.compiled.layout;
    let program =
        InterpProgram::flatten(&built.compiled.graph, layout.poly_words, layout.mono_words);
    let mut machine = InterpMachine::new(&program, n_pe, active);
    let result = machine.run(&program, &CostModel::default(), 100_000_000);
    let words: Vec<i64> = (0..n_pe).map(|pe| machine.poly_at(pe, word)).collect();
    let _ = writeln!(
        out,
        "{n_pe}/{active}: {result:?} {:?} {words:?}",
        machine.metrics
    );
}

/// The same for one `MimdReference` run of the compiled graph.
fn reference_run(out: &mut String, built: &Built, n_pe: usize, active: usize, word: Addr) {
    let program = &built.compiled;
    let config = MimdConfig {
        active_at_start: active,
        ..MimdConfig::spmd(n_pe)
    };
    let mut machine = MimdReference::new(
        program.layout.poly_words,
        program.layout.mono_words,
        &config,
    );
    let result = machine.run(&program.graph, &config);
    let words: Vec<i64> = (0..n_pe).map(|pe| machine.poly_at(pe, word)).collect();
    let _ = writeln!(
        out,
        "{n_pe}/{active}: {result:?} {:?} {words:?}",
        machine.metrics
    );
}

fn digest(text: &str) -> String {
    msc_cache::content_key("sim-golden", &[text.as_bytes()]).hex()
}

/// One GOLDEN row: the four digests of `src` over `pools`.
fn row(src: &str, pools: &[(usize, usize)], word: impl Fn(&Built) -> Addr) -> [String; 4] {
    let base = build(src, ConvertMode::Base);
    let compressed = build(src, ConvertMode::Compressed);
    let mut text = [String::new(), String::new(), String::new(), String::new()];
    for &(n_pe, active) in pools {
        let config = MachineConfig::with_pool(n_pe, active);
        machine_run(&mut text[0], &base, &config, word(&base));
        machine_run(&mut text[1], &compressed, &config, word(&compressed));
        interp_run(&mut text[2], &base, n_pe, active, word(&base));
        reference_run(&mut text[3], &base, n_pe, active, word(&base));
    }
    text.map(|t| digest(&t))
}

/// Interpreter runs that fault, as (label, digest over `FAULT_WIDTHS`):
/// `{:?}` of the result and `InterpMetrics`, then every poly word of
/// every PE. The first three captured on the code of commit 6898ae5, where
/// the interpreter stepped every PE on its own; `fault:shared_underflow`
/// on 6d5ca85, before ops went to PEs at one operand depth a stack level
/// at a time.
#[rustfmt::skip]
const FAULT_GOLDEN: &[(&str, &str)] = &[
    ("fault:stack_underflow", "40318ad20cf733e5f589894b5b9fbc19"),
    ("fault:bad_selector", "dae90e81f6b9fb12d78026fe7400eb65"),
    ("fault:bad_address", "461860951c3b1682d3e7935c9f165cf6"),
    ("fault:shared_underflow", "407a29c3ac12b49fd54a666b7d1c5438"),
];

/// Machine runs of hand-built programs whose ops the one-depth lane path
/// declines — return-stack ops, and an underflow at a depth every enabled
/// PE shares — as (label, digest over `FAULT_WIDTHS` of what
/// `machine_run` records, every poly word instead of one). Captured on
/// 6d5ca85, where every op went PE by PE.
#[rustfmt::skip]
const MACHINE_FAULT_GOLDEN: &[(&str, &str)] = &[
    ("machine:shared_underflow", "9e4ac71c85e51bbd6893a05665c28673"),
];

const FAULT_WIDTHS: [usize; 3] = [7, 65, 1024];

/// Hand-built images in which two pcs of one instruction type fault in the
/// same round, and the lowest faulting PE is not the lowest PE of the type.
fn fault_images() -> Vec<(&'static str, InterpProgram)> {
    use msc_ir::{BinOp, Op, UnOp};
    use InterpInstr::{Halt, Jump, JumpF, RetMulti};
    let op = InterpInstr::Op;
    let image = |image, poly_words| InterpProgram {
        image,
        entry: 0,
        poly_words,
        mono_words: 0,
    };
    let stack_underflow = vec![
        op(Op::PeId),
        op(Op::Push(10)),
        op(Op::Bin(BinOp::Mul)),
        op(Op::St(Addr::poly(0))),
        op(Op::PeId),
        op(Op::Push(3)),
        op(Op::Bin(BinOp::Lt)),
        JumpF { t: 8, f: 11 },
        // PEs below 3 bring two operands to the add ...
        op(Op::Push(100)),
        op(Op::Push(101)),
        Jump(14),
        // ... the rest one, in as many rounds.
        op(Op::Push(200)),
        op(Op::Un(UnOp::Neg)),
        Jump(14),
        op(Op::PeId),
        op(Op::Push(1)),
        op(Op::Bin(BinOp::And)),
        JumpF { t: 21, f: 18 },
        // Even PEs: the first to underflow is 4.
        op(Op::Bin(BinOp::Add)),
        op(Op::St(Addr::poly(1))),
        Halt,
        // Odd PEs: the first to underflow is 3.
        op(Op::Bin(BinOp::Add)),
        op(Op::St(Addr::poly(1))),
        Halt,
    ];
    let bad_selector = vec![
        op(Op::PeId),
        op(Op::St(Addr::poly(0))),
        op(Op::PeId),
        op(Op::Push(1)),
        op(Op::Bin(BinOp::And)),
        JumpF { t: 9, f: 6 },
        // Even PEs select by PE number among five: 6 is the first out.
        op(Op::PeId),
        RetMulti(vec![12; 5]),
        Halt,
        // Odd PEs among two: 3 is the first out.
        op(Op::PeId),
        RetMulti(vec![12; 2]),
        Halt,
        op(Op::Push(1)),
        op(Op::St(Addr::poly(1))),
        Halt,
    ];
    let bad_address = vec![
        op(Op::PeId),
        op(Op::St(Addr::poly(0))),
        op(Op::PeId),
        op(Op::Push(3)),
        op(Op::Bin(BinOp::And)),
        RetMulti(vec![6, 9, 6, 12]),
        // PEs 0 and 2 mod 4 load in range ...
        op(Op::Ld(Addr::poly(0))),
        op(Op::St(Addr::poly(1))),
        Halt,
        // ... 1 mod 4 and 3 mod 4 load past the two poly words.
        op(Op::Ld(Addr::poly(9))),
        op(Op::St(Addr::poly(1))),
        Halt,
        op(Op::Ld(Addr::poly(7))),
        op(Op::St(Addr::poly(1))),
        Halt,
    ];
    // Every PE adds its parity to its number through the return stack;
    // then PEs from 3 up pop an empty stack, all at depth 0.
    let shared_underflow = vec![
        op(Op::PeId),
        op(Op::Push(1)),
        op(Op::Bin(BinOp::And)),
        op(Op::PushRet),
        op(Op::PeId),
        op(Op::PopRet),
        op(Op::Bin(BinOp::Add)),
        op(Op::St(Addr::poly(0))),
        op(Op::PeId),
        op(Op::Push(3)),
        op(Op::Bin(BinOp::Lt)),
        JumpF { t: 12, f: 15 },
        op(Op::Push(5)),
        op(Op::St(Addr::poly(1))),
        Halt,
        op(Op::Pop(1)),
        Halt,
    ];
    vec![
        ("fault:stack_underflow", image(stack_underflow, 2)),
        ("fault:bad_selector", image(bad_selector, 2)),
        ("fault:bad_address", image(bad_address, 2)),
        ("fault:shared_underflow", image(shared_underflow, 2)),
    ]
}

/// `fault:shared_underflow` as a two-block SIMD program: block 0 runs the
/// return-stack part on every PE and splits them at 3, block 1 stores on
/// the PEs below and pops an empty stack on the rest.
fn machine_fault_programs() -> Vec<(&'static str, SimdProgram)> {
    use msc_ir::{BinOp, Op, StateId};
    let (s0, low, high) = (StateId(0), StateId(1), StateId(2));
    let on = |guard: &[StateId], instr| GuardedInstr {
        guard: guard.into(),
        instr,
    };
    let op = |guard: &[StateId], op| on(guard, SimdInstr::Op(op));
    let split = MetaBlock {
        members: vec![s0],
        name: "ms_0".into(),
        body: vec![
            op(&[s0], Op::PeId),
            op(&[s0], Op::Push(1)),
            op(&[s0], Op::Bin(BinOp::And)),
            op(&[s0], Op::PushRet),
            op(&[s0], Op::PeId),
            op(&[s0], Op::PopRet),
            op(&[s0], Op::Bin(BinOp::Add)),
            op(&[s0], Op::St(Addr::poly(0))),
            op(&[s0], Op::PeId),
            op(&[s0], Op::Push(3)),
            op(&[s0], Op::Bin(BinOp::Lt)),
            on(&[s0], SimdInstr::JumpF { t: low, f: high }),
        ],
        dispatch: Dispatch::Direct(BlockId(1)),
    };
    let tail = MetaBlock {
        members: vec![low, high],
        name: "ms_1_2".into(),
        body: vec![
            op(&[low], Op::Push(5)),
            op(&[low], Op::St(Addr::poly(1))),
            op(&[high], Op::Pop(1)),
            on(&[low, high], SimdInstr::Halt),
        ],
        dispatch: Dispatch::End,
    };
    let program = SimdProgram {
        blocks: vec![split, tail],
        start: BlockId(0),
        start_state: s0,
        poly_words: 2,
        mono_words: 0,
        costs: CostModel::default(),
    };
    vec![("machine:shared_underflow", program)]
}

#[test]
fn machine_faults_match_the_committed_digests() {
    let mut table = String::new();
    let mut matches = true;
    let programs = machine_fault_programs();
    for ((label, program), (want_label, want)) in programs.into_iter().zip(MACHINE_FAULT_GOLDEN) {
        let mut text = String::new();
        for n_pe in FAULT_WIDTHS {
            let config = MachineConfig::spmd(n_pe).with_trace();
            let mut machine = SimdMachine::new(&program, &config);
            let result = machine.run(&program, &config);
            let words: Vec<i64> = (0..n_pe)
                .flat_map(|pe| (0..program.poly_words).map(move |w| (pe, w)))
                .map(|(pe, w)| machine.poly_at(pe, Addr::poly(w)))
                .collect();
            let _ = writeln!(
                text,
                "{n_pe}: {result:?} {:?} {:?} {:?} {words:?}",
                machine.metrics, machine.visits, machine.trace
            );
        }
        let got = digest(&text);
        matches &= label == *want_label && got == *want;
        let _ = writeln!(table, "    (\"{label}\", \"{got}\"),");
    }
    assert!(
        matches,
        "machine faults drifted from MACHINE_FAULT_GOLDEN; this commit produces:\n{table}"
    );
}

#[test]
fn interpreter_faults_match_the_committed_digests() {
    let mut table = String::new();
    let mut matches = true;
    for ((label, program), (want_label, want)) in fault_images().into_iter().zip(FAULT_GOLDEN) {
        let mut text = String::new();
        for n_pe in FAULT_WIDTHS {
            let mut machine = InterpMachine::new(&program, n_pe, n_pe);
            let result = machine.run(&program, &CostModel::default(), 1_000_000);
            let words: Vec<i64> = (0..n_pe)
                .flat_map(|pe| (0..program.poly_words).map(move |w| (pe, w)))
                .map(|(pe, w)| machine.poly_at(pe, Addr::poly(w)))
                .collect();
            let _ = writeln!(text, "{n_pe}: {result:?} {:?} {words:?}", machine.metrics);
        }
        let got = digest(&text);
        matches &= label == *want_label && got == *want;
        let _ = writeln!(table, "    (\"{label}\", \"{got}\"),");
    }
    assert!(
        matches,
        "interpreter faults drifted from FAULT_GOLDEN; this commit produces:\n{table}"
    );
}

#[test]
fn simulator_runs_match_the_committed_digests() {
    let spmd = WIDTHS.map(|n| (n, n));
    let mut actual: Vec<(String, [String; 4])> = corpus()
        .into_iter()
        .map(|(label, src)| {
            let digests = row(&src, &spmd, |b| b.ret_addr().expect("main returns a value"));
            (label, digests)
        })
        .collect();
    for &(label, src, var) in SPAWN {
        let digests = row(src, &POOLS, |b| match var {
            Some(var) => {
                b.compiled
                    .layout
                    .var(var)
                    .expect("the variable exists")
                    .addr
            }
            None => b.ret_addr().expect("main returns a value"),
        });
        actual.push((label.to_string(), digests));
    }
    let table: String = actual
        .iter()
        .map(|(l, [b, c, i, r])| format!("    (\"{l}\", \"{b}\", \"{c}\", \"{i}\", \"{r}\"),\n"))
        .collect();
    let matches = actual.len() == GOLDEN.len()
        && actual.iter().zip(GOLDEN).all(|((l, [b, c, i, r]), g)| {
            (l.as_str(), b.as_str(), c.as_str(), i.as_str(), r.as_str()) == *g
        });
    assert!(
        matches,
        "simulator output drifted from GOLDEN; this commit produces:\n{table}"
    );
}
