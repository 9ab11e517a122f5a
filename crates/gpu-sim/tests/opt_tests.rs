//! Unit tests for the verified optimizer on small synthetic programs:
//! each pass must fire where designed (constant folding, redundant-load
//! CSE, dead-store elimination, DCE, register compaction), and the
//! translation validator must accept exactly the equivalence-preserving
//! rewrites — handcrafted wrong programs are rejected with a typed
//! error, renamings are accepted under the matching [`RegMap`].

use gpu_sim::analysis::{
    optimize_with_config, validate, MemContracts, OptOptions, Optimized, RegMap,
};
use gpu_sim::isa::{Instr, Program, Src};
use gpu_sim::machine::SmspConfig;

const PTR: u16 = 0;

fn mov(dst: u16, src: Src) -> Instr {
    Instr::Mov { dst, src }
}

fn iadd3(dst: u16, a: Src, b: Src, c: Src) -> Instr {
    Instr::Iadd3 {
        dst,
        a,
        b,
        c,
        set_cc: false,
        use_cc: false,
    }
}

fn imad(dst: u16, a: Src, b: Src, c: Src) -> Instr {
    Instr::Imad {
        dst,
        a,
        b,
        c,
        hi: false,
        set_cc: false,
        use_cc: false,
    }
}

fn ldg(dst: u16, offset: u32) -> Instr {
    ldg_via(dst, PTR, offset)
}

fn stg(src: u16, offset: u32) -> Instr {
    stg_via(src, PTR, offset)
}

fn ldg_via(dst: u16, addr: u16, offset: u32) -> Instr {
    Instr::Ldg { dst, addr, offset }
}

fn stg_via(src: u16, addr: u16, offset: u32) -> Instr {
    Instr::Stg { src, addr, offset }
}

fn r(reg: u16) -> Src {
    Src::Reg(reg)
}

fn imm(k: u32) -> Src {
    Src::Imm(k)
}

/// `PTR` addresses a lane-private 8-word region.
fn opts() -> OptOptions {
    let mut contracts = MemContracts::default();
    contracts.declare(PTR, 8, 8);
    OptOptions {
        inputs: vec![PTR],
        contracts,
        warps: 1,
        ..OptOptions::default()
    }
}

fn optimize(instrs: Vec<Instr>) -> Optimized {
    optimize_under(instrs, opts())
}

fn optimize_under(instrs: Vec<Instr>, opts: OptOptions) -> Optimized {
    let program = Program::from_instrs(instrs);
    optimize_with_config(&program, &SmspConfig::default(), &opts)
        .expect("synthetic program must optimize")
}

/// Options for pointers `r1` and `r2` on two disjoint stride-1 regions,
/// with `extra` entry registers as further inputs.
fn stride1_opts(extra: &[u16]) -> OptOptions {
    let mut contracts = MemContracts::default();
    contracts.declare(1, 1, 32);
    contracts.declare(2, 1, 32);
    OptOptions {
        inputs: [&[1, 2], extra].concat(),
        contracts,
        warps: 1,
        ..OptOptions::default()
    }
}

fn count(program: &Program, pred: impl Fn(&Instr) -> bool) -> usize {
    (0..program.len())
        .filter(|&pc| pred(&program.fetch(pc)))
        .count()
}

fn loads(program: &Program) -> usize {
    count(program, |i| matches!(i, Instr::Ldg { .. }))
}

fn stores(program: &Program) -> usize {
    count(program, |i| matches!(i, Instr::Stg { .. }))
}

#[test]
fn simplify_folds_constant_chain() {
    // r1 = 7; r2 = r1 + 1 — the add folds to `MOV r2, 8` and the
    // producer move dies.
    let out = optimize(vec![
        mov(1, imm(7)),
        iadd3(2, r(1), imm(1), imm(0)),
        stg(2, 0),
        Instr::Exit,
    ]);
    assert!(out.report.simplified >= 1, "no fold: {:?}", out.report);
    assert!(out.report.dead_removed >= 1, "no DCE: {:?}", out.report);
    assert_eq!(out.report.instructions_after, 3, "MOV + STG + EXIT");
}

#[test]
fn simplify_runs_until_no_carry_write_is_stripped() {
    // W: r1 = 0xffffffff + 1 sets the carry to a known 1; X reads it into
    // r2 = 0 + 0 + 0 + 1 and writes a carry nobody reads. Round 1 strips
    // X's dead carry write; only then can round 2 turn X into `MOV r2, 1`,
    // which drops X's carry read and frees W's carry write; round 3 turns
    // W into `MOV r1, 0` and strips nothing. Every rewrite is counted
    // once, and a further round would find no work.
    let w = Instr::Iadd3 {
        dst: 1,
        a: imm(u32::MAX),
        b: imm(1),
        c: imm(0),
        set_cc: true,
        use_cc: false,
    };
    let x = Instr::Iadd3 {
        dst: 2,
        a: imm(0),
        b: imm(0),
        c: imm(0),
        set_cc: true,
        use_cc: true,
    };
    let out = optimize(vec![w, x, stg(1, 0), stg(2, 1), Instr::Exit]);
    assert_eq!(out.report.simplified, 4, "{:?}", out.report);
    let consts: Vec<Instr> = (0..2).map(|pc| out.program.fetch(pc)).collect();
    assert!(consts.contains(&mov(1, imm(0))), "{consts:?}");
    assert!(consts.contains(&mov(2, imm(1))), "{consts:?}");
    let again = optimize_under(
        (0..out.program.len())
            .map(|pc| out.program.fetch(pc))
            .collect(),
        opts(),
    );
    assert_eq!(again.report.simplified, 0, "{:?}", again.report);
}

#[test]
fn cse_forwards_redundant_load() {
    let out = optimize(vec![
        ldg(1, 0),
        ldg(2, 0),
        iadd3(3, r(1), r(2), imm(0)),
        stg(3, 1),
        Instr::Exit,
    ]);
    assert!(
        out.report.loads_eliminated >= 1,
        "redundant load survived: {:?}",
        out.report
    );
}

#[test]
fn dse_removes_superseded_store() {
    let out = optimize(vec![
        mov(1, imm(1)),
        mov(2, imm(2)),
        stg(1, 0),
        stg(2, 0),
        Instr::Exit,
    ]);
    assert!(
        out.report.stores_eliminated >= 1,
        "superseded store survived: {:?}",
        out.report
    );
    assert_eq!(
        out.certificate.stores_matched() + out.certificate.stores_elided(),
        2,
        "both original stores must be accounted for in the certificate"
    );
    assert_eq!(stores(&out.program), 1, "EXIT observes the last store");
}

#[test]
fn dse_drops_first_store_and_exit_keeps_last_live() {
    // Two stores of input registers to [r1+0]: the first is dead, the
    // second is observed by EXIT and survives.
    let out = optimize_under(
        vec![stg_via(10, 1, 0), stg_via(11, 1, 0), Instr::Exit],
        stride1_opts(&[10, 11]),
    );
    assert_eq!(out.report.stores_eliminated, 1, "{:?}", out.report);
    assert_eq!(stores(&out.program), 1);
    assert_eq!(out.pc_map[0], None, "the superseded store must go");
    let last = out.pc_map[1].expect("the store EXIT observes must stay");
    assert!(matches!(out.program.fetch(last), Instr::Stg { .. }));
}

#[test]
fn cse_forwards_reload_past_disjoint_store() {
    // r1 and r2 are disjoint regions: the store through r2 cannot touch
    // [r1+0], so the reload is the first load's value.
    let out = optimize_under(
        vec![
            ldg_via(10, 1, 0),
            stg_via(10, 2, 0),
            ldg_via(11, 1, 0),
            stg_via(11, 2, 32),
            Instr::Exit,
        ],
        stride1_opts(&[]),
    );
    assert_eq!(out.report.loads_eliminated, 1, "{:?}", out.report);
    assert_eq!(loads(&out.program), 1);
}

#[test]
fn cse_forwards_reload_of_a_just_stored_register() {
    // The store writes r10 back to the cell r10 came from, so the reload
    // is r10 whatever the store did: forwarding replaces it.
    let out = optimize_under(
        vec![
            ldg_via(10, 1, 0),
            stg_via(10, 1, 0),
            ldg_via(11, 1, 0),
            stg_via(11, 1, 1),
            Instr::Exit,
        ],
        stride1_opts(&[]),
    );
    assert_eq!(out.report.loads_eliminated, 1, "{:?}", out.report);
    assert_eq!(loads(&out.program), 1);
}

#[test]
fn cse_keeps_reload_past_data_dependent_store() {
    // The store's address is a loaded value: no alias proof exists, so
    // the reload must read memory again.
    let out = optimize_under(
        vec![
            ldg_via(10, 1, 0),
            ldg_via(12, 1, 32),
            stg_via(10, 12, 0),
            ldg_via(11, 1, 0),
            stg_via(11, 2, 0),
            Instr::Exit,
        ],
        stride1_opts(&[]),
    );
    assert_eq!(out.report.loads_eliminated, 0, "{:?}", out.report);
    assert_eq!(loads(&out.program), 3);
}

#[test]
fn dse_keeps_store_a_later_load_may_observe() {
    // The load between the two stores to [r1+0] reads the first one.
    let out = optimize_under(
        vec![
            stg_via(10, 1, 0),
            ldg_via(12, 1, 0),
            stg_via(12, 2, 0),
            stg_via(11, 1, 0),
            Instr::Exit,
        ],
        stride1_opts(&[10, 11]),
    );
    assert_eq!(out.report.stores_eliminated, 0, "{:?}", out.report);
    assert_eq!(stores(&out.program), 3);
}

#[test]
fn dse_keeps_store_read_by_a_forwarded_load() {
    // The load reads the first store, and forwarding turns it into a
    // `MOV`. Deadness is judged on the input program, where the load
    // still observes the cell, so all three stores stay.
    let out = optimize(vec![
        mov(1, imm(1)),
        mov(2, imm(2)),
        stg(1, 0),
        ldg(3, 0),
        stg(2, 0),
        stg(3, 1),
        Instr::Exit,
    ]);
    assert_eq!(out.report.stores_eliminated, 0, "{:?}", out.report);
    assert_eq!(stores(&out.program), 3);
    assert_eq!(loads(&out.program), 0, "the load must be forwarded");
}

#[test]
fn regalloc_compacts_register_universe() {
    let out = optimize(vec![
        ldg(10, 0),
        imad(20, r(10), r(10), imm(0)),
        stg(20, 1),
        Instr::Exit,
    ]);
    assert_eq!(out.report.max_reg_before, 20);
    assert!(
        out.report.max_reg_after < 20,
        "registers not compacted: {:?}",
        out.report
    );
}

#[test]
fn scheduling_never_worsens_prediction() {
    // Two independent load->multiply->store chains; the scheduler may
    // interleave them, and must never predict more cycles than the
    // source order.
    let out = optimize(vec![
        ldg(1, 0),
        imad(2, r(1), r(1), imm(0)),
        stg(2, 2),
        ldg(3, 1),
        imad(4, r(3), r(3), imm(0)),
        stg(4, 3),
        Instr::Exit,
    ]);
    let before = out.report.before.as_ref().expect("prediction").cycles;
    let after = out.report.after.as_ref().expect("prediction").cycles;
    assert!(after <= before, "schedule regressed: {before} -> {after}");
}

#[test]
fn validator_accepts_renamed_registers() {
    let orig = Program::from_instrs(vec![mov(1, imm(9)), stg(1, 0), Instr::Exit]);
    let renamed = Program::from_instrs(vec![mov(5, imm(9)), stg(5, 0), Instr::Exit]);
    let map = RegMap::new(vec![0, 5]);
    let cert = validate(&orig, &renamed, &map, &opts().contracts, 32)
        .expect("renaming is equivalence-preserving");
    assert_eq!(cert.stores_matched(), 1);
}

#[test]
fn validator_rejects_wrong_store_value() {
    let orig = Program::from_instrs(vec![mov(1, imm(1)), stg(1, 0), Instr::Exit]);
    let bad = Program::from_instrs(vec![mov(1, imm(2)), stg(1, 0), Instr::Exit]);
    let verdict = validate(&orig, &bad, &RegMap::identity(8), &opts().contracts, 32);
    assert!(verdict.is_err(), "wrong store value accepted");
}

#[test]
fn validator_rejects_reordered_dependent_pair() {
    let orig = Program::from_instrs(vec![
        mov(1, imm(3)),
        iadd3(2, r(1), imm(1), imm(0)),
        stg(2, 0),
        Instr::Exit,
    ]);
    let bad = Program::from_instrs(vec![
        iadd3(2, r(1), imm(1), imm(0)),
        mov(1, imm(3)),
        stg(2, 0),
        Instr::Exit,
    ]);
    let verdict = validate(&orig, &bad, &RegMap::identity(8), &opts().contracts, 32);
    assert!(verdict.is_err(), "use-before-def reorder accepted");
}

#[test]
fn validator_rejects_dropped_store() {
    let orig = Program::from_instrs(vec![mov(1, imm(1)), stg(1, 0), Instr::Exit]);
    let bad = Program::from_instrs(vec![mov(1, imm(1)), mov(1, r(1)), Instr::Exit]);
    let verdict = validate(&orig, &bad, &RegMap::identity(8), &opts().contracts, 32);
    assert!(verdict.is_err(), "dropped store accepted");
}
