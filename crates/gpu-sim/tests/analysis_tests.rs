//! Integration tests for `gpu_sim::analysis`: analyzer vs `Program`
//! built-ins, and opcode-table consistency (`mnemonic` × `uses_int32_pipe`
//! over the full instruction list — the drift guard for new opcodes).

use gpu_sim::analysis::{self, Cfg, StaticMetrics};
use gpu_sim::isa::{CmpOp, Instr, LogicOp, ProgramBuilder, Src};

/// One witness value per opcode of the micro-ISA. A new `Instr` variant
/// must be added here (the exhaustive checks below are driven off it), and
/// the `#[deny(unreachable_patterns)]` match in `pipe_table` keeps the
/// function honest.
fn all_opcodes() -> Vec<Instr> {
    vec![
        Instr::Imad {
            dst: 0,
            a: Src::Reg(1),
            b: Src::Reg(2),
            c: Src::Imm(0),
            hi: false,
            set_cc: false,
            use_cc: false,
        },
        Instr::Iadd3 {
            dst: 0,
            a: Src::Reg(1),
            b: Src::Reg(2),
            c: Src::Imm(0),
            set_cc: false,
            use_cc: false,
        },
        Instr::Shf {
            dst: 0,
            a: Src::Reg(1),
            b: Src::Imm(0),
            sh: Src::Imm(1),
            right: false,
        },
        Instr::Lop3 {
            dst: 0,
            a: Src::Reg(1),
            b: Src::Reg(2),
            op: LogicOp::And,
        },
        Instr::Mov {
            dst: 0,
            src: Src::Imm(7),
        },
        Instr::Setp {
            pred: 0,
            a: Src::Reg(1),
            b: Src::Imm(0),
            cmp: CmpOp::Eq,
        },
        Instr::Sel {
            dst: 0,
            a: Src::Reg(1),
            b: Src::Reg(2),
            pred: 0,
        },
        Instr::Bra {
            target: 0,
            pred: None,
        },
        Instr::Ldg {
            dst: 0,
            addr: 1,
            offset: 0,
        },
        Instr::Stg {
            src: 0,
            addr: 1,
            offset: 0,
        },
        Instr::Exit,
    ]
}

/// The expected `(mnemonic, int32-pipe)` table, written out independently
/// of the `Instr` methods so the two implementations cross-check.
fn pipe_table(i: &Instr) -> (&'static str, bool) {
    #[deny(unreachable_patterns)]
    match i {
        Instr::Imad { .. } => ("IMAD", true),
        Instr::Iadd3 { .. } => ("IADD3", true),
        Instr::Shf { .. } => ("SHF", true),
        Instr::Lop3 { .. } => ("LOP3", true),
        Instr::Mov { .. } => ("MOV", true),
        Instr::Setp { .. } => ("ISETP", true),
        Instr::Sel { .. } => ("SEL", true),
        Instr::Bra { .. } => ("BRA", false),
        Instr::Ldg { .. } => ("LDG", false),
        Instr::Stg { .. } => ("STG", false),
        Instr::Exit => ("EXIT", false),
    }
}

#[test]
fn mnemonic_and_pipe_agree_across_the_full_opcode_list() {
    let ops = all_opcodes();
    // Every opcode appears exactly once.
    let mut seen: Vec<&'static str> = ops.iter().map(Instr::mnemonic).collect();
    seen.sort_unstable();
    let n_before = seen.len();
    seen.dedup();
    assert_eq!(seen.len(), n_before, "duplicate opcode in witness list");
    assert_eq!(seen.len(), 11, "opcode list out of date");

    for i in &ops {
        let (mnemonic, int32) = pipe_table(i);
        assert_eq!(i.mnemonic(), mnemonic);
        assert_eq!(
            i.uses_int32_pipe(),
            int32,
            "{mnemonic}: mnemonic table and pipe table disagree"
        );
    }
}

#[test]
fn analyzer_mix_matches_program_static_mix() {
    let mut b = ProgramBuilder::new();
    b.ldg(0, 9, 0);
    b.imad(
        1,
        Src::Reg(0),
        Src::Reg(0),
        Src::Imm(0),
        false,
        false,
        false,
    );
    b.iadd3(2, Src::Reg(1), Src::Imm(3), Src::Imm(0), false, false);
    b.imad(
        3,
        Src::Reg(2),
        Src::Reg(1),
        Src::Imm(0),
        false,
        false,
        false,
    );
    b.stg(3, 9, 1);
    b.exit();
    let p = b.build();
    let m = StaticMetrics::compute(&p);
    assert_eq!(m.mix, p.static_mix());
    let total: u64 = m.mix.iter().map(|(_, c)| *c).sum();
    assert_eq!(total as usize, m.instructions);
    // INT32 share counted two ways.
    let int32_from_mix: u64 = m
        .mix
        .iter()
        .filter(|(k, _)| !matches!(*k, "BRA" | "LDG" | "STG" | "EXIT"))
        .map(|(_, c)| *c)
        .sum();
    assert_eq!(int32_from_mix as usize, m.int32_instructions);
}

#[test]
fn analysis_handles_loops() {
    // A counted loop: the backward branch must not confuse liveness or
    // reaching defs (the accumulator is live around the cycle).
    let mut b = ProgramBuilder::new();
    b.mov(0, Src::Imm(0)); // acc
    b.mov(1, Src::Imm(0)); // i
    let top = b.label();
    b.place(top);
    b.iadd3(0, Src::Reg(0), Src::Reg(1), Src::Imm(0), false, false);
    b.iadd3(1, Src::Reg(1), Src::Imm(1), Src::Imm(0), false, false);
    b.setp(0, Src::Reg(1), Src::Imm(10), CmpOp::Lt);
    b.bra(top, Some((0, true)));
    b.stg(0, 2, 0);
    b.exit();
    let p = b.build();
    assert!(analysis::lint(&p, &[2]).is_empty());
    let cfg = Cfg::build(&p);
    // blocks: [movs..], [loop body], [store, exit]
    assert_eq!(cfg.blocks.len(), 3);
    assert!(cfg.reachable.iter().all(|&r| r));
    // acc, i, and the store address are simultaneously live in the loop.
    assert_eq!(StaticMetrics::compute(&p).max_live_regs, 3);
}
