//! Edge and error paths of the SIMD machine on hand-built programs: PE
//! counts on both sides of the enable mask's 64-PE word boundary, the
//! order-dependent rules (last writer, first faulter, recruit assignment)
//! and the faults a compiled program never raises.

use msc_ir::{Addr, BinOp, CostModel, Op, StateId, UnOp};
use msc_simd::{
    BlockId, Dispatch, GuardedInstr, MachineConfig, MetaBlock, PeArray, RunError, SimdInstr,
    SimdMachine, SimdProgram,
};

const S0: StateId = StateId(0);
const ODD: StateId = StateId(1);
const EVEN: StateId = StateId(2);

fn on(guard: &[StateId], instr: SimdInstr) -> GuardedInstr {
    GuardedInstr {
        guard: guard.into(),
        instr,
    }
}

fn op(guard: &[StateId], op: Op) -> GuardedInstr {
    on(guard, SimdInstr::Op(op))
}

fn program(blocks: Vec<MetaBlock>, poly_words: u32, mono_words: u32) -> SimdProgram {
    SimdProgram {
        blocks,
        start: BlockId(0),
        start_state: S0,
        poly_words,
        mono_words,
        costs: CostModel::default(),
    }
}

/// One meta state, one MIMD state: every PE runs `body`, then halts.
fn straight_line(body: Vec<Op>, poly_words: u32, mono_words: u32) -> SimdProgram {
    let mut body: Vec<GuardedInstr> = body.into_iter().map(|o| op(&[S0], o)).collect();
    body.push(on(&[S0], SimdInstr::Halt));
    let block = MetaBlock {
        members: vec![S0],
        name: "ms_0".into(),
        body,
        dispatch: Dispatch::End,
    };
    program(vec![block], poly_words, mono_words)
}

/// Block 0 sends odd PEs to `ODD` and even PEs to `EVEN`, so the two
/// states' enable masks interleave bit by bit; block 1 runs `body` under
/// its guards and halts everyone.
fn by_parity(body: Vec<GuardedInstr>, poly_words: u32, mono_words: u32) -> SimdProgram {
    let split = MetaBlock {
        members: vec![S0],
        name: "ms_0".into(),
        body: vec![
            op(&[S0], Op::PeId),
            op(&[S0], Op::Push(2)),
            op(&[S0], Op::Bin(BinOp::Rem)),
            on(&[S0], SimdInstr::JumpF { t: ODD, f: EVEN }),
        ],
        dispatch: Dispatch::Hashed {
            bit_of: vec![(ODD, 1), (EVEN, 2)],
            barrier_mask: 0,
            hash: msc_hash::find_hash(&[0b010, 0b100, 0b110]).unwrap(),
            targets: vec![BlockId(1), BlockId(1), BlockId(1)],
        },
    };
    let mut body = body;
    body.push(on(&[ODD, EVEN], SimdInstr::Halt));
    let work = MetaBlock {
        members: vec![ODD, EVEN],
        name: "ms_1_2".into(),
        body,
        dispatch: Dispatch::End,
    };
    program(vec![split, work], poly_words, mono_words)
}

fn run(p: &SimdProgram, config: &MachineConfig) -> (SimdMachine, Result<(), RunError>) {
    p.validate().unwrap();
    let mut m = SimdMachine::new(p, config);
    let result = m.run(p, config).map(|_| ());
    (m, result)
}

#[test]
fn every_width_around_a_mask_word_runs_every_pe() {
    // Odd PEs store 111, even PEs 222, then all add their id.
    let p = by_parity(
        vec![
            op(&[ODD], Op::Push(111)),
            op(&[EVEN], Op::Push(222)),
            op(&[ODD, EVEN], Op::PeId),
            op(&[ODD, EVEN], Op::Bin(BinOp::Add)),
            op(&[ODD, EVEN], Op::St(Addr::poly(0))),
        ],
        1,
        0,
    );
    for n in [1usize, 2, 63, 64, 65, 128, 129] {
        let (m, result) = run(&p, &MachineConfig::spmd(n));
        assert_eq!(result, Ok(()), "n = {n}");
        for pe in 0..n {
            let tag = if pe % 2 == 1 { 111 } else { 222 };
            assert_eq!(m.poly_at(pe, Addr::poly(0)), tag + pe as i64, "n = {n}");
        }
        // Two of block 1's six issues enable half the array each.
        assert!(m.metrics.utilization() < 1.0);
        assert_eq!(m.metrics.issues, 10);
        assert_eq!(m.idle_count(), n);
    }
}

#[test]
fn an_empty_array_runs_nothing() {
    let p = straight_line(vec![Op::PeId, Op::St(Addr::poly(0))], 1, 0);
    let (m, result) = run(&p, &MachineConfig::spmd(0));
    assert_eq!(result, Ok(()));
    assert_eq!(m.metrics, Default::default());
    assert_eq!(m.visits, vec![0]);
}

#[test]
fn mono_store_keeps_the_highest_enabled_pe() {
    // Only even PEs store; at 65 PEs the winner (64) sits alone in the
    // second mask word.
    let p = by_parity(
        vec![
            op(&[EVEN], Op::PeId),
            op(&[EVEN], Op::St(Addr::mono(0))),
            op(&[ODD, EVEN], Op::Ld(Addr::mono(0))),
            op(&[ODD, EVEN], Op::St(Addr::poly(0))),
        ],
        1,
        1,
    );
    for (n, winner) in [(2usize, 0), (63, 62), (64, 62), (65, 64)] {
        let (m, result) = run(&p, &MachineConfig::spmd(n));
        assert_eq!(result, Ok(()));
        for pe in 0..n {
            assert_eq!(m.poly_at(pe, Addr::poly(0)), winner, "n = {n}");
        }
    }
}

#[test]
fn remote_store_conflict_goes_to_the_highest_writer() {
    // Every PE writes its id into PE 3's word 1 (value below index).
    let p = straight_line(
        vec![Op::PeId, Op::Push(3), Op::StRemote(Addr::poly(1))],
        2,
        0,
    );
    for n in [4usize, 65] {
        let (m, result) = run(&p, &MachineConfig::spmd(n));
        assert_eq!(result, Ok(()));
        assert_eq!(m.poly_at(3, Addr::poly(1)), n as i64 - 1);
        assert_eq!(m.poly_at(2, Addr::poly(1)), 0);
    }
}

#[test]
fn faults_name_the_lowest_enabled_pe_that_faults() {
    let n = 65;
    // Odd PEs push, everyone pops: PE 0 is the first without a word.
    let p = by_parity(
        vec![op(&[ODD], Op::Push(1)), op(&[ODD, EVEN], Op::Pop(1))],
        0,
        0,
    );
    let (_, result) = run(&p, &MachineConfig::spmd(n));
    assert_eq!(result, Err(RunError::StackUnderflow { pe: 0 }));
    // Even PEs push: now PE 1 is.
    let p = by_parity(
        vec![
            op(&[EVEN], Op::Push(1)),
            op(&[ODD, EVEN], Op::Un(UnOp::Neg)),
        ],
        0,
        0,
    );
    let (_, result) = run(&p, &MachineConfig::spmd(n));
    assert_eq!(result, Err(RunError::StackUnderflow { pe: 1 }));
    // Only odd PEs ever saved a return site.
    let p = by_parity(
        vec![
            op(&[ODD], Op::Push(7)),
            op(&[ODD], Op::PushRet),
            op(&[ODD, EVEN], Op::PopRet),
        ],
        0,
        0,
    );
    let (_, result) = run(&p, &MachineConfig::spmd(n));
    assert_eq!(result, Err(RunError::RetStackUnderflow { pe: 0 }));
    // Selector = pe id against two targets: PE 2 is the first out of range.
    let mut p = straight_line(vec![Op::PeId], 0, 0);
    p.blocks[0].body[1] = on(&[S0], SimdInstr::RetMulti(vec![ODD, EVEN]));
    let (_, result) = run(&p, &MachineConfig::spmd(n));
    assert_eq!(result, Err(RunError::BadSelector { pe: 2, selector: 2 }));
    // A negative selector is out of range too, not a wrapped index.
    let mut p = straight_line(vec![Op::Push(-1)], 0, 0);
    p.blocks[0].body[1] = on(&[S0], SimdInstr::RetMulti(vec![ODD, EVEN]));
    let (_, result) = run(&p, &MachineConfig::spmd(n));
    assert_eq!(
        result,
        Err(RunError::BadSelector {
            pe: 0,
            selector: -1
        })
    );
}

#[test]
fn out_of_range_address_is_a_run_error_not_a_panic() {
    let cases = [
        (vec![Op::Ld(Addr::poly(2))], 2),
        (vec![Op::Push(1), Op::St(Addr::poly(9))], 9),
        (vec![Op::Ld(Addr::mono(1))], 1),
        (vec![Op::Push(1), Op::St(Addr::mono(4))], 4),
        (vec![Op::Push(0), Op::LdRemote(Addr::poly(2))], 2),
        (
            vec![Op::Push(1), Op::Push(0), Op::StRemote(Addr::poly(3))],
            3,
        ),
    ];
    for (body, index) in cases {
        // In range by one word, out of range in `p`.
        let p = straight_line(body, 2, 1);
        assert!(
            p.validate().unwrap_err().contains("out-of-range"),
            "validate rejects word {index}"
        );
        // A program that skipped validation (hand-built, or loaded from a
        // peer that did) gets the declared run error.
        let config = MachineConfig::with_pool(8, 6);
        let mut m = SimdMachine::new(&p, &config);
        m.pc[0] = None; // PE 1 is the first enabled PE
        assert_eq!(
            m.run(&p, &config),
            Err(RunError::BadAddress { pe: 1, index }),
        );
    }
    // The last word in range is fine.
    let p = straight_line(vec![Op::Ld(Addr::poly(1)), Op::Ld(Addr::mono(0))], 2, 1);
    assert_eq!(run(&p, &MachineConfig::spmd(8)).1, Ok(()));
    // An instruction no PE is enabled for touches nothing and faults nowhere.
    let mut p = by_parity(vec![op(&[ODD], Op::Ld(Addr::poly(7)))], 1, 0);
    p.blocks[1].body.insert(1, op(&[ODD], Op::Pop(1)));
    let config = MachineConfig::spmd(1); // PE 0 only: nobody is ODD
    let mut m = SimdMachine::new(&p, &config);
    assert!(m.run(&p, &config).is_ok());
}

#[test]
#[should_panic(expected = "PE 4 of a 4-PE array")]
fn a_pe_past_the_array_never_aliases_the_next_words_lane() {
    // Lane-major, word 0 of "PE 4" would be word 1 of PE 0.
    let mut pes = PeArray::new(4, 2, 0);
    pes.set_poly(0, Addr::poly(1), 99);
    let _ = pes.poly_at(4, Addr::poly(0));
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn an_unchecked_word_past_the_array_never_aliases_another_lane() {
    // Word 2 of a 2-word array lies past the end for every PE, PE 0
    // included; it must not wrap or land in a neighbour's word.
    let mut pes = PeArray::new(4, 2, 0);
    assert_eq!(pes.check_addr(&Op::Ld(Addr::poly(2))), Some(2));
    let _ = pes.apply(&Op::Ld(Addr::poly(2)), [0]);
}

#[test]
fn pc_edited_between_new_and_run_is_honoured() {
    let p = straight_line(
        vec![
            Op::PeId,
            Op::Push(10),
            Op::Bin(BinOp::Add),
            Op::St(Addr::poly(0)),
        ],
        1,
        0,
    );
    let config = MachineConfig::spmd(66);
    let mut m = SimdMachine::new(&p, &config);
    // Retire three PEs by hand, one of them in the second mask word.
    for pe in [0, 63, 65] {
        m.pc[pe] = None;
    }
    let metrics = m.run(&p, &config).unwrap();
    for pe in 0..66 {
        let expect = if [0, 63, 65].contains(&pe) {
            0
        } else {
            pe as i64 + 10
        };
        assert_eq!(m.poly_at(pe, Addr::poly(0)), expect);
    }
    // 63 live PEs, all enabled on every issue.
    assert_eq!(metrics.enabled_pe_cycles, metrics.live_pe_cycles);
    assert_eq!(
        metrics.live_pe_cycles,
        63 * metrics.body_cycles,
        "live count follows the edited pc"
    );
}

/// One live PE doubles the population ten times: level += 1, spawn, and
/// both parent and child go round again until level 10.
fn spawn_tree() -> SimdProgram {
    let (grow, child, parent, done) = (S0, StateId(1), StateId(2), StateId(3));
    let both = [child, parent];
    let b0 = MetaBlock {
        members: vec![grow],
        name: "ms_0".into(),
        body: vec![
            op(&[grow], Op::Ld(Addr::poly(0))),
            op(&[grow], Op::Push(1)),
            op(&[grow], Op::Bin(BinOp::Add)),
            op(&[grow], Op::St(Addr::poly(0))),
            // The child inherits poly memory: word 1 tells it who spawned it.
            op(&[grow], Op::PeId),
            op(&[grow], Op::St(Addr::poly(1))),
            on(
                &[grow],
                SimdInstr::Spawn {
                    child,
                    next: parent,
                },
            ),
        ],
        dispatch: Dispatch::Direct(BlockId(1)),
    };
    let b1 = MetaBlock {
        members: both.to_vec(),
        name: "ms_1_2".into(),
        body: vec![
            op(&[child], Op::Ld(Addr::poly(1))),
            op(&[child], Op::St(Addr::poly(2))),
            op(&both, Op::Ld(Addr::poly(0))),
            op(&both, Op::Push(10)),
            op(&both, Op::Bin(BinOp::Lt)),
            on(&both, SimdInstr::JumpF { t: grow, f: done }),
        ],
        dispatch: Dispatch::Hashed {
            bit_of: vec![(grow, 0), (done, 3)],
            barrier_mask: 0,
            hash: msc_hash::find_hash(&[0b0001, 0b1000]).unwrap(),
            targets: vec![BlockId(0), BlockId(2)],
        },
    };
    let b2 = MetaBlock {
        members: vec![done],
        name: "ms_3".into(),
        body: vec![on(&[done], SimdInstr::Halt)],
        dispatch: Dispatch::End,
    };
    program(vec![b0, b1, b2], 3, 0)
}

#[test]
fn spawn_tree_fills_a_thousand_idle_pes_in_ascending_order() {
    let p = spawn_tree();
    let (m, result) = run(&p, &MachineConfig::with_pool(1024, 1));
    assert_eq!(result, Ok(()));
    assert_eq!(m.visits, vec![10, 10, 1]);
    for pe in 0..1024usize {
        assert_eq!(m.poly_at(pe, Addr::poly(0)), 10);
        // In the round that doubled 2^r PEs, spawner `s` recruited PE
        // 2^r + s: the lowest idle PE goes to the lowest spawner.
        let spawner = if pe == 0 { 0 } else { pe - (1 << pe.ilog2()) };
        assert_eq!(m.poly_at(pe, Addr::poly(2)), spawner as i64, "PE {pe}");
    }
}

#[test]
fn spawn_tree_overflow_counts_the_pool_exactly() {
    // 1 000 PEs: the tenth doubling wants 512 recruits and finds 488.
    let p = spawn_tree();
    let (m, result) = run(&p, &MachineConfig::with_pool(1000, 1));
    assert_eq!(
        result,
        Err(RunError::SpawnOverflow {
            block: BlockId(0),
            requested: 512,
            available: 488,
        })
    );
    // The failed instruction recruited nobody.
    assert_eq!(m.idle_count(), 488);
}

#[test]
fn two_spawns_in_one_block_do_not_recruit_a_pe_twice() {
    // Both instructions run before the commit, so the second must skip the
    // PEs the first one took although their `pc` is still idle.
    let (a, b) = (StateId(1), StateId(2));
    let spawn = |child| on(&[S0], SimdInstr::Spawn { child, next: a });
    let tag = |guard: StateId, v| {
        [
            op(&[guard], Op::Push(v)),
            op(&[guard], Op::St(Addr::poly(0))),
        ]
    };
    let b0 = MetaBlock {
        members: vec![S0],
        name: "ms_0".into(),
        body: vec![spawn(a), spawn(b)],
        dispatch: Dispatch::Direct(BlockId(1)),
    };
    let mut body = Vec::new();
    body.extend(tag(a, 1));
    body.extend(tag(b, 2));
    body.push(on(&[a, b], SimdInstr::Halt));
    let b1 = MetaBlock {
        members: vec![a, b],
        name: "ms_1_2".into(),
        body,
        dispatch: Dispatch::End,
    };
    let p = program(vec![b0, b1], 1, 0);
    let (m, result) = run(&p, &MachineConfig::with_pool(6, 2));
    assert_eq!(result, Ok(()));
    let tags: Vec<i64> = (0..6).map(|pe| m.poly_at(pe, Addr::poly(0))).collect();
    assert_eq!(tags, vec![1, 1, 1, 1, 2, 2]);
    // One PE short for the second spawn: 2 requested, 1 left.
    let (_, result) = run(&p, &MachineConfig::with_pool(5, 2));
    assert_eq!(
        result,
        Err(RunError::SpawnOverflow {
            block: BlockId(0),
            requested: 2,
            available: 1,
        })
    );
}
