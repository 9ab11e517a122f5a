//! Dataflow lints over micro-ISA programs.
//!
//! The lints are the static gate every generated kernel must pass: a broken
//! carry chain, an uninitialized register read, or an out-of-range branch in
//! a `ProgramBuilder` kernel would otherwise only surface (if ever) as a
//! wrong limb somewhere deep in a functional test. Each diagnostic names the
//! offending pc and resource so the generator bug is one grep away.

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{instr_defs, instr_uses, Liveness, ReachingDefs, Resource};
use crate::isa::{Instr, Program, Reg};

/// How actionable a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Performance or provability finding: the program is correct but
    /// wastes work (dead results, uncoalesced traffic), or an analysis
    /// could not finish a proof. Generators may ship these — the verified
    /// optimizer (`analysis::opt`) removes dead work, redundant loads and
    /// dead stores with an equivalence certificate.
    Warning,
    /// Correctness finding: some execution can read garbage, trap in the
    /// simulator, or run off the end of the program. Never acceptable in
    /// a shipped kernel.
    Error,
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The category of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A register read that a path reaches without any prior write.
    UninitRegRead,
    /// A predicate read (`SEL`/guarded `BRA`) with no reaching `SETP`.
    UninitPredRead,
    /// A `use_cc` consumer with no reaching `set_cc` producer — a dangling
    /// carry chain.
    DanglingCarry,
    /// A pure instruction whose every result (register, carry, predicate)
    /// is dead on all paths.
    DeadWrite,
    /// A branch whose target lies past the end of the program.
    BranchOutOfRange,
    /// Code no path from the entry can reach.
    Unreachable,
    /// A path that runs off the end of the program without `EXIT`.
    MissingExit,
    /// A `LDG` whose loaded value is never read on any path to exit — dead
    /// memory traffic (loads are excluded from [`LintKind::DeadWrite`]
    /// because they touch memory; a dead *destination* is its own finding).
    DeadLoad,
    /// A guarded branch whose predicate is statically known to disagree
    /// with the branch polarity — the branch can never be taken.
    NeverTakenBranch,
    /// An `IADD3.CC` whose 64-bit sum may exceed the one-bit carry the
    /// machine models (the simulator asserts on it). Reported by the range
    /// analysis ([`crate::analysis::ranges`]).
    PossibleOverflow,
    /// A value-bound proof obligation the range analysis could not
    /// discharge (e.g. a Montgomery output provably `< 2p`).
    RangeUnprovable,
    /// A global access whose warp-level pattern needs more than the
    /// minimum number of 32B sectors (strided or unprovably scattered).
    /// Reported by the memory analysis ([`crate::analysis::memory`]).
    UncoalescedAccess,
}

impl LintKind {
    /// The severity class of this lint: executions that can go wrong are
    /// [`Severity::Error`]; wasted-but-correct work and undischarged
    /// proofs are [`Severity::Warning`].
    pub fn severity(self) -> Severity {
        match self {
            LintKind::UninitRegRead
            | LintKind::UninitPredRead
            | LintKind::DanglingCarry
            | LintKind::BranchOutOfRange
            | LintKind::MissingExit
            | LintKind::PossibleOverflow => Severity::Error,
            LintKind::DeadWrite
            | LintKind::Unreachable
            | LintKind::DeadLoad
            | LintKind::NeverTakenBranch
            | LintKind::RangeUnprovable
            | LintKind::UncoalescedAccess => Severity::Warning,
        }
    }
}

impl core::fmt::Display for LintKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            LintKind::UninitRegRead => "uninitialized register read",
            LintKind::UninitPredRead => "uninitialized predicate read",
            LintKind::DanglingCarry => "dangling carry",
            LintKind::DeadWrite => "dead write",
            LintKind::BranchOutOfRange => "branch out of range",
            LintKind::Unreachable => "unreachable code",
            LintKind::MissingExit => "missing exit",
            LintKind::DeadLoad => "dead load",
            LintKind::NeverTakenBranch => "never-taken branch",
            LintKind::PossibleOverflow => "possible carry overflow",
            LintKind::RangeUnprovable => "range bound unprovable",
            LintKind::UncoalescedAccess => "uncoalesced access",
        };
        f.write_str(s)
    }
}

/// One lint finding, anchored at an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What went wrong.
    pub kind: LintKind,
    /// The instruction the finding is anchored at.
    pub pc: usize,
    /// Human-readable detail naming the register/predicate involved.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic anchored at `pc`. Every analysis that reports
    /// through the lint vocabulary ([`lint`], the memory analysis, the
    /// range analysis) constructs its findings here, so the rendered
    /// `pc N: kind: detail` shape stays identical across them.
    pub fn new(kind: LintKind, pc: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            pc,
            message: message.into(),
        }
    }

    /// The severity class of the finding (see [`LintKind::severity`]).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pc {}: {}: {}", self.pc, self.kind, self.message)
    }
}

/// Runs the full lint suite. `inputs` are the registers the launch
/// environment initializes before the first instruction (kernel
/// parameters); reads of those are not uninitialized.
pub fn lint(program: &Program, inputs: &[Reg]) -> Vec<Diagnostic> {
    let cfg = Cfg::build(program);
    let mut diags = lint_structural_with_cfg(program, &cfg);
    if program.is_empty() {
        diags.push(Diagnostic::new(
            LintKind::MissingExit,
            0,
            "empty program has no EXIT",
        ));
        return diags;
    }
    unreachable_code(&cfg, &mut diags);
    uninit_reads(program, &cfg, inputs, &mut diags);
    dead_writes(program, &cfg, &mut diags);
    never_taken_branches(program, &cfg, &mut diags);
    diags.sort_by_key(|d| d.pc);
    diags
}

/// The cheap structural checks safe to run on *any* program at build time:
/// out-of-range branch targets and reachable paths that fall off the end of
/// the program. (Unreachable-code, dead-write, and uninitialized-read lints
/// are deliberately excluded — they need the kernel's input-register
/// contract or are legitimate in handwritten test programs.)
pub fn lint_structural(program: &Program) -> Vec<Diagnostic> {
    let cfg = Cfg::build(program);
    lint_structural_with_cfg(program, &cfg)
}

fn lint_structural_with_cfg(program: &Program, cfg: &Cfg) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let len = program.len();
    for pc in 0..len {
        if let Instr::Bra { target, .. } = program.fetch(pc) {
            if target >= len {
                diags.push(Diagnostic::new(
                    LintKind::BranchOutOfRange,
                    pc,
                    format!("branch target {target} past end of program (len {len})"),
                ));
            }
        }
    }
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if cfg.reachable[b] && blk.falls_off_end {
            diags.push(Diagnostic::new(
                LintKind::MissingExit,
                blk.terminator_pc(),
                "control can run past the last instruction without EXIT",
            ));
        }
    }
    diags
}

fn unreachable_code(cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            diags.push(Diagnostic::new(
                LintKind::Unreachable,
                blk.start,
                format!(
                    "instructions {}..{} are unreachable from the entry",
                    blk.start, blk.end
                ),
            ));
        }
    }
}

fn uninit_reads(program: &Program, cfg: &Cfg, inputs: &[Reg], diags: &mut Vec<Diagnostic>) {
    let rd = ReachingDefs::compute(program, cfg);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        // Walk the block forward, tracking which entry (uninitialized)
        // defs are still reaching.
        let mut reach = rd.reach_in[b].clone();
        for pc in blk.start..blk.end {
            let inst = program.fetch(pc);
            instr_uses(&inst, |r| {
                if !reach.contains(rd.entry_def(r)) {
                    return;
                }
                match r {
                    Resource::Reg(x) => {
                        if !inputs.contains(&x) {
                            diags.push(Diagnostic::new(
                                LintKind::UninitRegRead,
                                pc,
                                format!("r{x} may be read before any write"),
                            ));
                        }
                    }
                    Resource::Pred(p) => diags.push(Diagnostic::new(
                        LintKind::UninitPredRead,
                        pc,
                        format!("p{p} may be read before any SETP"),
                    )),
                    Resource::Carry => diags.push(Diagnostic::new(
                        LintKind::DanglingCarry,
                        pc,
                        "use_cc with no reaching set_cc",
                    )),
                }
            });
            instr_defs(&inst, |r| reach.remove(rd.entry_def(r)));
        }
    }
}

/// Whether removing the instruction can change observable state beyond its
/// register/carry/predicate results (memory traffic, control flow).
fn is_pure(inst: &Instr) -> bool {
    !matches!(
        inst,
        Instr::Bra { .. } | Instr::Ldg { .. } | Instr::Stg { .. } | Instr::Exit
    )
}

fn dead_writes(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let live = Liveness::compute(program, cfg);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut out = live.live_out[b].clone();
        // Collect per-pc verdicts backward, then report in order.
        let mut found: Vec<Diagnostic> = Vec::new();
        for pc in (blk.start..blk.end).rev() {
            let inst = program.fetch(pc);
            if is_pure(&inst) {
                let mut defines_any = false;
                let mut any_live = false;
                instr_defs(&inst, |r| {
                    defines_any = true;
                    any_live |= out.contains(live.map.index(r));
                });
                if defines_any && !any_live {
                    let mut dsts = Vec::new();
                    instr_defs(&inst, |r| dsts.push(r.to_string()));
                    found.push(Diagnostic::new(
                        LintKind::DeadWrite,
                        pc,
                        format!(
                            "{} writes {} but no path reads any result",
                            inst.mnemonic(),
                            dsts.join(", ")
                        ),
                    ));
                }
            } else if let Instr::Ldg { dst, .. } = inst {
                // Loads touch memory, so they are never DeadWrite; a loaded
                // value nobody reads is still wasted traffic.
                if !out.contains(live.map.index(Resource::Reg(dst))) {
                    found.push(Diagnostic::new(
                        LintKind::DeadLoad,
                        pc,
                        format!("LDG loads into r{dst} but no path reads it"),
                    ));
                }
            }
            instr_defs(&inst, |r| out.remove(live.map.index(r)));
            instr_uses(&inst, |r| out.insert(live.map.index(r)));
        }
        found.reverse();
        diags.extend(found);
    }
}

/// Flags guarded branches whose predicate is statically known to disagree
/// with the branch polarity. Block-local constant propagation of `SETP`
/// results over immediate operands is enough to catch the generator bug
/// this lint is for (a comparison wired to constants by mistake).
fn never_taken_branches(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    use crate::isa::Src;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut known: [Option<bool>; 4] = [None; 4];
        for pc in blk.start..blk.end {
            match program.fetch(pc) {
                Instr::Setp { pred, a, b, cmp } => {
                    known[pred as usize] = match (a, b) {
                        (Src::Imm(x), Src::Imm(y)) => Some(cmp.eval(x, y)),
                        _ => None,
                    };
                }
                Instr::Bra {
                    pred: Some((p, pol)),
                    ..
                } => {
                    if let Some(v) = known[p as usize] {
                        if v != pol {
                            diags.push(Diagnostic::new(
                                LintKind::NeverTakenBranch,
                                pc,
                                format!("branch guarded by p{p}={pol} but p{p} is always {v}"),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CmpOp, ProgramBuilder, Src};

    fn clean(p: &Program, inputs: &[Reg]) -> Vec<Diagnostic> {
        lint(p, inputs)
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let mut b = ProgramBuilder::new();
        b.ldg(0, 10, 0);
        b.iadd3(1, Src::Reg(0), Src::Imm(1), Src::Imm(0), false, false);
        b.stg(1, 10, 1);
        b.exit();
        assert!(clean(&b.build(), &[10]).is_empty());
    }

    #[test]
    fn dangling_carry_names_the_pc() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(1));
        // use_cc at pc 1 with no set_cc anywhere.
        b.iadd3(1, Src::Reg(0), Src::Imm(2), Src::Imm(0), false, true);
        b.stg(1, 2, 0);
        b.exit();
        let diags = clean(&b.build(), &[2]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::DanglingCarry);
        assert_eq!(diags[0].pc, 1);
    }

    #[test]
    fn uninitialized_register_read_is_flagged_with_register() {
        let mut b = ProgramBuilder::new();
        b.iadd3(0, Src::Reg(5), Src::Imm(1), Src::Imm(0), false, false);
        b.stg(0, 1, 0);
        b.exit();
        let diags = clean(&b.build(), &[1]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::UninitRegRead);
        assert_eq!(diags[0].pc, 0);
        assert!(diags[0].message.contains("r5"));
    }

    #[test]
    fn uninitialized_predicate_read_is_flagged() {
        let mut b = ProgramBuilder::new();
        b.sel(0, Src::Imm(1), Src::Imm(2), 3); // p3 never set
        b.stg(0, 1, 0);
        b.exit();
        let diags = clean(&b.build(), &[1]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::UninitPredRead);
        assert!(diags[0].message.contains("p3"));
    }

    #[test]
    fn partial_path_initialization_is_still_flagged() {
        // r1 is written only when the branch is not taken.
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.setp(0, Src::Reg(9), Src::Imm(1), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        b.mov(1, Src::Imm(5));
        b.place(skip);
        b.stg(1, 9, 0);
        b.exit();
        let diags = clean(&b.build(), &[9]);
        assert!(diags
            .iter()
            .any(|d| d.kind == LintKind::UninitRegRead && d.pc == 3));
    }

    #[test]
    fn dead_write_is_flagged_but_live_carry_is_not() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(7)); // live (read below)
        b.mov(1, Src::Imm(9)); // dead: r1 never read
                               // dst r2 dead, but set_cc feeds the next instruction: NOT dead.
        b.iadd3(2, Src::Reg(0), Src::Imm(1), Src::Imm(0), true, false);
        b.iadd3(3, Src::Reg(0), Src::Imm(0), Src::Imm(0), false, true);
        b.stg(3, 4, 0);
        b.exit();
        let diags = clean(&b.build(), &[4]);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::DeadWrite)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].pc, 1);
        assert!(dead[0].message.contains("r1"));
    }

    #[test]
    fn out_of_range_branch_is_structural() {
        // Hand-assemble a bad target via an unplaced-label bypass: build a
        // valid program then check the structural pass on a raw branch.
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bra(l, None);
        b.place(l);
        b.exit();
        let p = b.build();
        assert!(lint_structural(&p).is_empty());
    }

    #[test]
    fn missing_exit_is_reported_on_the_falling_block() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(1));
        b.mov(1, Src::Imm(2));
        let p = b.try_build().expect("no labels");
        let diags = lint_structural(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::MissingExit);
        assert_eq!(diags[0].pc, 1);
    }

    #[test]
    fn dead_load_is_flagged_across_blocks() {
        // The loaded r0 is overwritten on every path before any read.
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.ldg(0, 10, 0); // dead: both paths below clobber r0
        b.setp(0, Src::Reg(10), Src::Imm(4), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        b.mov(0, Src::Imm(1));
        b.place(skip);
        b.mov(0, Src::Imm(2));
        b.stg(0, 10, 1);
        b.exit();
        let diags = clean(&b.build(), &[10]);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::DeadLoad)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].pc, 0);
        assert!(dead[0].message.contains("r0"));
    }

    #[test]
    fn live_load_is_not_flagged() {
        let mut b = ProgramBuilder::new();
        b.ldg(0, 10, 0);
        b.stg(0, 10, 1);
        b.exit();
        assert!(clean(&b.build(), &[10]).is_empty());
    }

    #[test]
    fn never_taken_branch_is_flagged() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.setp(1, Src::Imm(3), Src::Imm(3), CmpOp::Ne); // always false
        b.bra(skip, Some((1, true))); // can never be taken
        b.mov(0, Src::Imm(1));
        b.place(skip);
        b.stg(0, 10, 0);
        b.exit();
        let diags = clean(&b.build(), &[0, 10]);
        let nt: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::NeverTakenBranch)
            .collect();
        assert_eq!(nt.len(), 1);
        assert_eq!(nt[0].pc, 1);
    }

    #[test]
    fn data_dependent_branch_is_not_never_taken() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.setp(0, Src::Reg(9), Src::Imm(1), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        b.mov(1, Src::Imm(5));
        b.place(skip);
        b.exit();
        let diags = clean(&b.build(), &[9]);
        assert!(diags.iter().all(|d| d.kind != LintKind::NeverTakenBranch));
    }

    #[test]
    fn unreachable_code_is_reported_in_full_lint_only() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.bra(end, None);
        b.mov(0, Src::Imm(1));
        b.place(end);
        b.exit();
        let p = b.build();
        assert!(lint_structural(&p).is_empty());
        let diags = lint(&p, &[]);
        assert!(diags.iter().any(|d| d.kind == LintKind::Unreachable));
    }
}
