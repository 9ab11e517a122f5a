//! A SASS-like micro-ISA.
//!
//! The finite-field kernels of `gpu-kernels` are expressed in this small
//! instruction set, whose opcodes mirror the SASS instructions the paper's
//! Nsight profiles surface: `IMAD` (integer multiply-add, the 70.8% of
//! `FF_mul`'s mix), `IADD3` (the carry-chain workhorse of `FF_add`), `SHF`
//! (the funnel shift dominating `FF_dbl`), plus predicate/select/branch and
//! global-memory operations. Multi-word arithmetic uses a per-thread carry
//! flag exactly like PTX `add.cc`/`madc` chains.

use core::fmt;

/// A virtual 32-bit register index.
pub type Reg = u16;

/// A predicate register index (4 per thread).
pub type Pred = u8;

/// An operand: register or 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(u32),
}

/// Comparison operators for `SETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned greater-or-equal.
    Ge,
}

/// Bitwise operations for `LOP3` (restricted to the common two-input forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
}

// The concrete ALU: what one lane computes. Every consumer that evaluates
// the micro-ISA on known values — the simulator per lane, the schedule
// predictor's constant folder, the translation validator's all-constant
// fold, the never-taken-branch lint — calls these, so "bit-for-bit like the
// simulator" is true by construction. (The interval, affine and symbolic
// domains of `analysis` are abstractions of these, not copies.)

impl CmpOp {
    /// The `ISETP` result for operands `a`, `b` (unsigned comparison).
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl LogicOp {
    /// The `LOP3` result for operands `a`, `b`.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            LogicOp::And => a & b,
            LogicOp::Or => a | b,
            LogicOp::Xor => a ^ b,
        }
    }
}

/// `IMAD`: the low (or, with `hi`, high) 32 bits of `a·b`, plus `c` and the
/// carry-in. Returns the 32-bit result and the carry-out (bit 32 of the
/// sum; the sum never reaches bit 33).
pub fn imad(a: u32, b: u32, c: u32, carry_in: bool, hi: bool) -> (u32, bool) {
    let prod = u64::from(a) * u64::from(b);
    let part = if hi { prod >> 32 } else { prod & 0xffff_ffff };
    let sum = part + u64::from(c) + u64::from(carry_in);
    (sum as u32, sum >> 32 != 0)
}

/// `IADD3`: `a + b + c` plus the carry-in. Returns the 32-bit result and
/// the carry-out *count* — three full words and a carry reach 2, more than
/// the one carry bit the machine models (the simulator asserts on it;
/// static consumers keep bit 0).
pub fn iadd3(a: u32, b: u32, c: u32, carry_in: bool) -> (u32, u32) {
    let sum = u64::from(a) + u64::from(b) + u64::from(c) + u64::from(carry_in);
    (sum as u32, (sum >> 32) as u32)
}

/// `SHF`: funnel shift of `a` by `sh & 31`, shifting in the bits of
/// `funnel` — left: `(a << s) | (funnel >> (32 - s))`, right:
/// `(a >> s) | (funnel << (32 - s))`; a shift of 0 returns `a`.
pub fn shf(a: u32, funnel: u32, sh: u32, right: bool) -> u32 {
    let s = sh & 31;
    if s == 0 {
        a
    } else if right {
        (a >> s) | (funnel << (32 - s))
    } else {
        (a << s) | (funnel >> (32 - s))
    }
}

/// One instruction of the micro-ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst = lo/hi 32 bits of (a·b) + c (+ carry)`; optionally writes the
    /// carry flag. The SASS `IMAD` family.
    Imad {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Src,
        /// Multiplier.
        b: Src,
        /// Addend.
        c: Src,
        /// Take the high 32 bits of the product instead of the low.
        hi: bool,
        /// Write the carry-out flag (`.CC`).
        set_cc: bool,
        /// Add the incoming carry flag (`.X`).
        use_cc: bool,
    },
    /// `dst = a + b + c (+ carry)` — the SASS `IADD3`.
    Iadd3 {
        /// Destination register.
        dst: Reg,
        /// First addend.
        a: Src,
        /// Second addend.
        b: Src,
        /// Third addend.
        c: Src,
        /// Write the carry-out flag.
        set_cc: bool,
        /// Add the incoming carry flag.
        use_cc: bool,
    },
    /// Funnel shift (`SHF`): shifts the 64-bit pair formed with `b` —
    /// left: `dst = (a << sh) | (b >> (32 - sh))`;
    /// right: `dst = (a >> sh) | (b << (32 - sh))`.
    /// Pass `b = Src::Imm(0)` for a plain logical shift.
    Shf {
        /// Destination register.
        dst: Reg,
        /// Value to shift.
        a: Src,
        /// Funnel companion supplying the shifted-in bits.
        b: Src,
        /// Shift amount.
        sh: Src,
        /// Shift right instead of left.
        right: bool,
    },
    /// Bitwise logic (`LOP3`).
    Lop3 {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Operation.
        op: LogicOp,
    },
    /// Register move / immediate load.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Src,
    },
    /// Predicate set from comparison (`ISETP`).
    Setp {
        /// Destination predicate.
        pred: Pred,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Comparison.
        cmp: CmpOp,
    },
    /// Select (`SEL`): `dst = pred ? a : b`.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Value when the predicate holds.
        a: Src,
        /// Value otherwise.
        b: Src,
        /// Guarding predicate.
        pred: Pred,
    },
    /// Conditional/unconditional branch. Divergence is supported for
    /// *forward* branches (skip-style); backward branches must be uniform.
    Bra {
        /// Target instruction index.
        target: usize,
        /// `(predicate, polarity)` guard; `None` = always taken.
        pred: Option<(Pred, bool)>,
    },
    /// 32-bit load from global memory: `dst = mem[addr_reg + offset]`
    /// (word-addressed).
    Ldg {
        /// Destination register.
        dst: Reg,
        /// Register holding the word address.
        addr: Reg,
        /// Constant word offset.
        offset: u32,
    },
    /// 32-bit store to global memory.
    Stg {
        /// Register holding the value.
        src: Reg,
        /// Register holding the word address.
        addr: Reg,
        /// Constant word offset.
        offset: u32,
    },
    /// Thread (warp) exit.
    Exit,
}

impl Instr {
    /// The SASS mnemonic this instruction models, for instruction-mix
    /// reporting (Table VI's "Dominant SASS Instruction").
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Imad { .. } => "IMAD",
            Instr::Iadd3 { .. } => "IADD3",
            Instr::Shf { .. } => "SHF",
            Instr::Lop3 { .. } => "LOP3",
            Instr::Mov { .. } => "MOV",
            Instr::Setp { .. } => "ISETP",
            Instr::Sel { .. } => "SEL",
            Instr::Bra { .. } => "BRA",
            Instr::Ldg { .. } => "LDG",
            Instr::Stg { .. } => "STG",
            Instr::Exit => "EXIT",
        }
    }

    /// Whether this dispatches to the INT32 pipe (vs branch/memory).
    pub fn uses_int32_pipe(&self) -> bool {
        matches!(
            self,
            Instr::Imad { .. }
                | Instr::Iadd3 { .. }
                | Instr::Shf { .. }
                | Instr::Lop3 { .. }
                | Instr::Mov { .. }
                | Instr::Setp { .. }
                | Instr::Sel { .. }
        )
    }

    /// Whether this dispatches to the LSU.
    pub(crate) fn uses_lsu(&self) -> bool {
        matches!(self, Instr::Ldg { .. } | Instr::Stg { .. })
    }

    /// Integer operations per active thread, the roofline numerator
    /// (§IV-C1): `IMAD` counts 2 (multiply and add), every other INT32-pipe
    /// instruction 1, branches and memory accesses 0.
    pub(crate) fn int_ops(&self) -> u64 {
        match self {
            Instr::Imad { .. } => 2,
            _ => u64::from(self.uses_int32_pipe()),
        }
    }
}

/// A program with a label-patching builder.
///
/// # Examples
///
/// ```
/// use gpu_sim::isa::{ProgramBuilder, Src};
/// let mut b = ProgramBuilder::new();
/// b.mov(0, Src::Imm(5));
/// b.iadd3(1, Src::Reg(0), Src::Imm(7), Src::Imm(0), false, false);
/// b.exit();
/// let p = b.build();
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Wraps an already-built instruction sequence — the optimizer's (and
    /// the validator negative suite's) way back into [`Program`] after
    /// transforming the instruction list of an existing (already
    /// label-resolved) program. Branch targets must be in range; callers
    /// are expected to re-lint the result.
    pub fn from_instrs(instrs: Vec<Instr>) -> Program {
        Program { instrs }
    }

    /// The instruction at `pc`.
    pub fn fetch(&self, pc: usize) -> Instr {
        self.instrs[pc]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Static instruction-mix histogram as `(mnemonic, count)` pairs.
    pub fn static_mix(&self) -> Vec<(&'static str, u64)> {
        let mut mix: Vec<(&'static str, u64)> = Vec::new();
        for i in &self.instrs {
            let m = i.mnemonic();
            match mix.iter_mut().find(|(k, _)| *k == m) {
                Some((_, c)) => *c += 1,
                None => mix.push((m, 1)),
            }
        }
        mix
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}: {instr:?}")?;
        }
        Ok(())
    }
}

/// An unresolved forward-branch label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// A structural error caught by [`ProgramBuilder::try_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch references a label that was never [`ProgramBuilder::place`]d.
    UnplacedLabel {
        /// The branch instruction's index.
        pc: usize,
        /// The label id.
        label: usize,
    },
    /// A branch target lies at or past the end of the program.
    TargetOutOfRange {
        /// The branch instruction's index.
        pc: usize,
        /// The resolved target.
        target: usize,
        /// Program length.
        len: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnplacedLabel { pc, label } => {
                write!(f, "branch at pc {pc} to unplaced label {label}")
            }
            BuildError::TargetOutOfRange { pc, target, len } => {
                write!(
                    f,
                    "branch at pc {pc} targets {target}, past end of program (len {len})"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental [`Program`] constructor.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    /// `(instruction index, label id)` patches.
    pending: Vec<(usize, usize)>,
    /// Resolved label positions.
    labels: Vec<Option<usize>>,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a label to be placed later with [`ProgramBuilder::place`].
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Places a label at the current position.
    pub fn place(&mut self, l: Label) {
        self.labels[l.0] = Some(self.instrs.len());
    }

    /// The pc the next emitted instruction will occupy. Kernel generators
    /// use this to record per-pc metadata (e.g. static branch hints) as
    /// they emit.
    pub fn next_pc(&self) -> usize {
        self.instrs.len()
    }

    /// Emits `IMAD` (see [`Instr::Imad`]).
    #[allow(clippy::too_many_arguments)]
    pub fn imad(&mut self, dst: Reg, a: Src, b: Src, c: Src, hi: bool, set_cc: bool, use_cc: bool) {
        self.instrs.push(Instr::Imad {
            dst,
            a,
            b,
            c,
            hi,
            set_cc,
            use_cc,
        });
    }

    /// Emits `IADD3`.
    pub fn iadd3(&mut self, dst: Reg, a: Src, b: Src, c: Src, set_cc: bool, use_cc: bool) {
        self.instrs.push(Instr::Iadd3 {
            dst,
            a,
            b,
            c,
            set_cc,
            use_cc,
        });
    }

    /// Emits `SHF` (funnel shift; pass `b = Src::Imm(0)` for plain shift).
    pub fn shf(&mut self, dst: Reg, a: Src, b: Src, sh: Src, right: bool) {
        self.instrs.push(Instr::Shf {
            dst,
            a,
            b,
            sh,
            right,
        });
    }

    /// Emits `LOP3`.
    pub fn lop3(&mut self, dst: Reg, a: Src, b: Src, op: LogicOp) {
        self.instrs.push(Instr::Lop3 { dst, a, b, op });
    }

    /// Emits `MOV`.
    pub fn mov(&mut self, dst: Reg, src: Src) {
        self.instrs.push(Instr::Mov { dst, src });
    }

    /// Emits `ISETP`.
    pub fn setp(&mut self, pred: Pred, a: Src, b: Src, cmp: CmpOp) {
        self.instrs.push(Instr::Setp { pred, a, b, cmp });
    }

    /// Emits `SEL`.
    pub fn sel(&mut self, dst: Reg, a: Src, b: Src, pred: Pred) {
        self.instrs.push(Instr::Sel { dst, a, b, pred });
    }

    /// Emits a branch to `label` (guarded by `pred` if given).
    pub fn bra(&mut self, label: Label, pred: Option<(Pred, bool)>) {
        self.pending.push((self.instrs.len(), label.0));
        self.instrs.push(Instr::Bra { target: 0, pred });
    }

    /// Emits `LDG`.
    pub fn ldg(&mut self, dst: Reg, addr: Reg, offset: u32) {
        self.instrs.push(Instr::Ldg { dst, addr, offset });
    }

    /// Emits `STG`.
    pub fn stg(&mut self, src: Reg, addr: Reg, offset: u32) {
        self.instrs.push(Instr::Stg { src, addr, offset });
    }

    /// Emits `EXIT`.
    pub fn exit(&mut self) {
        self.instrs.push(Instr::Exit);
    }

    /// Resolves all labels and returns the program, or an error naming the
    /// offending branch if a label was never placed or resolved past the
    /// end of the program.
    pub fn try_build(mut self) -> Result<Program, BuildError> {
        let len = self.instrs.len();
        for (idx, label) in self.pending {
            let target = self.labels[label].ok_or(BuildError::UnplacedLabel { pc: idx, label })?;
            if target >= len {
                return Err(BuildError::TargetOutOfRange {
                    pc: idx,
                    target,
                    len,
                });
            }
            if let Instr::Bra { target: t, .. } = &mut self.instrs[idx] {
                *t = target;
            }
        }
        Ok(Program {
            instrs: self.instrs,
        })
    }

    /// Resolves all labels and returns the program. In debug builds the
    /// program must additionally pass the structural lints (out-of-range
    /// branches, reachable paths with no `EXIT`) — generated kernels are
    /// checked the moment they are built, not when they first run.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never placed or resolves out of
    /// range, and (debug builds only) if a structural lint fires.
    pub fn build(self) -> Program {
        let program = self.try_build().unwrap_or_else(|e| panic!("{e}"));
        #[cfg(debug_assertions)]
        {
            let diags = crate::analysis::lint_structural(&program);
            assert!(
                diags.is_empty(),
                "ProgramBuilder::build produced a structurally broken program:\n{}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_patch_forward_branches() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.setp(0, Src::Reg(0), Src::Imm(10), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        b.mov(1, Src::Imm(99));
        b.place(skip);
        b.exit();
        let p = b.build();
        assert_eq!(p.len(), 4);
        match p.fetch(1) {
            Instr::Bra { target, .. } => assert_eq!(target, 3),
            other => panic!("expected Bra, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bra(l, None);
        let _ = b.build();
    }

    #[test]
    fn try_build_reports_unplaced_label_with_pc() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(1));
        let l = b.label();
        b.bra(l, None);
        match b.try_build() {
            Err(BuildError::UnplacedLabel { pc, label }) => {
                assert_eq!(pc, 1);
                assert_eq!(label, 0);
            }
            other => panic!("expected UnplacedLabel, got {other:?}"),
        }
    }

    #[test]
    fn try_build_rejects_target_past_the_end() {
        // A label placed after the last instruction resolves to len, which
        // no fetch can satisfy.
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bra(l, None);
        b.exit();
        b.place(l);
        match b.try_build() {
            Err(BuildError::TargetOutOfRange { pc, target, len }) => {
                assert_eq!(pc, 0);
                assert_eq!(target, 2);
                assert_eq!(len, 2);
            }
            other => panic!("expected TargetOutOfRange, got {other:?}"),
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "missing exit")]
    fn build_rejects_programs_that_fall_off_the_end() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(1));
        let _ = b.build();
    }

    #[test]
    fn mnemonics_and_pipes() {
        let i = Instr::Imad {
            dst: 0,
            a: Src::Reg(1),
            b: Src::Reg(2),
            c: Src::Imm(0),
            hi: false,
            set_cc: false,
            use_cc: false,
        };
        assert_eq!(i.mnemonic(), "IMAD");
        assert!(i.uses_int32_pipe());
        let b = Instr::Bra {
            target: 0,
            pred: None,
        };
        assert!(!b.uses_int32_pipe());
        let l = Instr::Ldg {
            dst: 0,
            addr: 1,
            offset: 0,
        };
        assert!(!l.uses_int32_pipe());
        assert_eq!(l.mnemonic(), "LDG");
    }

    #[test]
    fn imad_halves_carry_in_and_carry_out() {
        let (a, b) = (0xdead_beefu32, 0xcafe_f00du32);
        let wide = u64::from(a) * u64::from(b);
        assert_eq!(imad(a, b, 0, false, false), (wide as u32, false));
        assert_eq!(imad(a, b, 0, false, true), ((wide >> 32) as u32, false));
        // Carry-out exactly at 2^32: lo(1·MAX) + 1 wraps to 0 with carry,
        // and the carry-in alone is enough to tip it.
        assert_eq!(imad(1, u32::MAX, 1, false, false), (0, true));
        assert_eq!(imad(1, u32::MAX, 0, true, false), (0, true));
        assert_eq!(imad(1, u32::MAX, 0, false, false), (u32::MAX, false));
        // The largest sum: lo = MAX, + MAX + 1 = 2^33 - 1 -> still one bit.
        assert_eq!(imad(1, u32::MAX, u32::MAX, true, false), (u32::MAX, true));
        // hi(MAX·MAX) = MAX - 1; a zero factor passes the addend through.
        assert_eq!(imad(u32::MAX, u32::MAX, 1, true, true), (0, true));
        assert_eq!(imad(0, 77, 5, true, true), (6, false));
    }

    #[test]
    fn iadd3_reports_the_multi_bit_carry() {
        assert_eq!(iadd3(1, 2, 3, true), (7, 0));
        assert_eq!(iadd3(u32::MAX, 1, 0, false), (0, 1));
        assert_eq!(iadd3(u32::MAX, 0, 0, true), (0, 1));
        // 3·(2^32 - 1) + 1 = 0x2_ffff_fffe: a two in the carry position.
        assert_eq!(iadd3(u32::MAX, u32::MAX, u32::MAX, true), (0xffff_fffe, 2));
    }

    #[test]
    fn shf_funnels_and_wraps_the_amount() {
        let (a, f) = (0x8000_0001u32, 0xf000_000fu32);
        for right in [false, true] {
            assert_eq!(shf(a, f, 0, right), a);
            assert_eq!(shf(a, f, 32, right), a, "amount is taken mod 32");
            assert_eq!(shf(a, f, 33, right), shf(a, f, 1, right));
        }
        assert_eq!(shf(a, f, 1, false), 0x0000_0003);
        assert_eq!(shf(a, f, 1, true), 0xc000_0000);
        assert_eq!(shf(a, f, 31, false), 0xf800_0007);
        assert_eq!(shf(a, f, 31, true), 0xe000_001f);
        // A zero funnel is a plain logical shift.
        assert_eq!(shf(a, 0, 4, false), a << 4);
        assert_eq!(shf(a, 0, 4, true), a >> 4);
    }

    #[test]
    fn logic_and_compare_ops() {
        assert_eq!(LogicOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(LogicOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(LogicOp::Xor.eval(0b1100, 0b1010), 0b0110);
        // Unsigned: 0x8000_0000 is large, not negative.
        assert!(CmpOp::Lt.eval(1, 0x8000_0000) && !CmpOp::Lt.eval(0x8000_0000, 1));
        assert!(CmpOp::Ge.eval(5, 5) && !CmpOp::Ge.eval(4, 5));
        assert!(CmpOp::Eq.eval(9, 9) && CmpOp::Ne.eval(9, 8));
    }

    #[test]
    fn static_mix_counts() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(1));
        b.imad(
            1,
            Src::Reg(0),
            Src::Reg(0),
            Src::Imm(0),
            false,
            false,
            false,
        );
        b.imad(
            2,
            Src::Reg(1),
            Src::Reg(0),
            Src::Imm(0),
            false,
            false,
            false,
        );
        b.exit();
        let mix = b.build().static_mix();
        assert!(mix.contains(&("IMAD", 2)));
        assert!(mix.contains(&("MOV", 1)));
    }
}
