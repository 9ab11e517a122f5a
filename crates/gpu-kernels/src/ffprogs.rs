//! The finite-field emitter family in the micro-ISA, and the §IV-B
//! microbenchmark kernels built from it.
//!
//! [`FfEmitter`] is the one place that knows how a field operation is
//! spelled in instructions. Its four emitters take `(out, x, y)` register
//! *banks* (one bank = a field element's limbs) and mirror the SASS the
//! paper profiles:
//!
//! * [`add`](FfEmitter::add) / [`sub`](FfEmitter::sub) — `IADD3` carry
//!   chains plus the *sequential limb-by-limb comparison* against the
//!   modulus whose data-dependent branches cause the 52–56% branch
//!   efficiencies of Table VI;
//! * [`dbl`](FfEmitter::dbl) — `SHF` funnel-shift chains;
//! * [`mul`](FfEmitter::mul) — 32-bit CIOS Montgomery multiplication built
//!   from `mad{c}.lo/hi` chains (`IMAD`-dominated, §IV-B2), its `< 2p`
//!   proof obligation, and the compare-and-reduce.
//!
//! [`ff_kernel`] wraps one of them in a microbenchmark: load the operands
//! from global memory once, run the operation `iters` times in a uniform
//! loop (feeding the result back as an input, as latency-measurement
//! microbenchmarks do), and store the result. The curve kernels of
//! [`crate::curveprogs`] are straight-line compositions of the same
//! emitters, so a kernel's instruction count is the sum of the bodies the
//! microbenchmarks measure (Table V × §IV-B).
//!
//! # Aliasing contract
//!
//! Every emitter consumes limb `j` of `x` and `y` before it writes limb `j`
//! of `out`, and never reads a lower limb of an operand after writing a
//! higher limb of `out`, so `out` may alias either operand (and the
//! operands each other). `mul` accumulates in the scratch bank and copies
//! out last; `dbl` copies `x` to `out` first when they differ. No scratch
//! register carries a value from one emitted operation to the next.

use crate::catalog::{Kernel, Layout, Region};
use crate::field32::Field32;
use gpu_sim::analysis::addr::MemContracts;
use gpu_sim::analysis::ranges::{Interval, RangeAssumptions, ValueBound};
use gpu_sim::analysis::schedule::{BranchHint, ScheduleHints};
use gpu_sim::isa::{CmpOp, LogicOp, Program, ProgramBuilder, Reg, Src};

/// Words between consecutive limbs of one thread's operand in the
/// warp-interleaved layout: limb `j` of lane `t` lives at
/// `region_base + j·32 + t`, so each limb access is a fully-coalesced
/// 4-sector warp transaction (the memory analyzer proves this statically).
/// The earlier AoS layout (`thread·n + j`) made every FF limb access
/// stride-`n` — the `UncoalescedAccess` finding this layout fixes.
pub const LIMB_STRIDE_WORDS: u32 = 32;

/// Static-analysis facts a generator records about the kernel it emits:
/// branch hints for the schedule predictor, input-range assumptions and
/// proof obligations for the range analysis. The generator is the one
/// place that knows which branches are uniform in practice and which
/// register bank holds a Montgomery output, so it says so here instead of
/// the analyses guessing.
#[derive(Debug, Clone, Default)]
pub struct KernelFacts {
    /// Outcomes of data-dependent forward branches.
    pub hints: ScheduleHints,
    /// Intervals of values arriving at kernel entry / from memory.
    pub assumptions: RangeAssumptions,
    /// Value bounds the range analysis must prove.
    pub obligations: Vec<ValueBound>,
    /// Declared address contracts (per-lane stride and base alignment of
    /// each pointer parameter) for the memory analyzer.
    pub contracts: MemContracts,
}

impl KernelFacts {
    /// Empty facts.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `2p` as little-endian limbs (fits in `n` limbs for every supported
/// spare-bit modulus: the top limb stays below `2^31`).
pub fn double_modulus(field: &Field32) -> Vec<u32> {
    let n = field.num_limbs();
    assert!(
        field.modulus[n - 1] < 1 << 31,
        "2p must fit in {n} limbs for the <2p bound to be expressible"
    );
    let mut out = Vec::with_capacity(n);
    let mut carry = 0u64;
    for &limb in &field.modulus {
        let d = (u64::from(limb) << 1) | carry;
        out.push(d as u32);
        carry = d >> 32;
    }
    assert_eq!(carry, 0);
    out
}

/// Declares canonical (`< p`) operand limbs loaded through `addr` at word
/// offsets `base + j·stride` (`stride` = [`LIMB_STRIDE_WORDS`] for the
/// warp-interleaved FF kernels, 1 for the AoS curve kernels): every limb
/// is unconstrained except the top one, which cannot exceed the modulus's
/// top limb.
pub(crate) fn assume_canonical_loads(
    assumptions: &mut RangeAssumptions,
    field: &Field32,
    addr: Reg,
    base: u32,
    stride: u32,
) {
    let n = field.num_limbs();
    let top = field.modulus[n - 1];
    for j in 0..n {
        let iv = if j == n - 1 {
            Interval::new(0, top)
        } else {
            Interval::full()
        };
        assumptions.assume_load(addr, base + j as u32 * stride, iv);
    }
}

/// The registers the emitters borrow while an operation is in flight.
#[derive(Debug, Clone, Copy)]
pub struct Scratch {
    /// CIOS accumulator `t` occupies `t..t+n+2`.
    pub t: Reg,
    /// Borrow-chain comparison bank `cmp..cmp+n`.
    pub cmp: Reg,
    /// Montgomery factor `m`.
    pub m: Reg,
    /// `ge` result of a comparison (1 ⇔ value ≥ p).
    pub ge: Reg,
    /// Temporary (a complemented limb, a discarded low word).
    pub s0: Reg,
    /// Temporary (the captured final carry of a subtraction).
    pub s1: Reg,
}

/// Fixed register map of the [`ff_kernel`] microbenchmarks.
pub mod regs {
    use super::Scratch;

    /// First operand `a` occupies registers `A0..A0+n`.
    pub const A0: u16 = 0;
    /// Second operand `b` occupies `B0..B0+n`.
    pub const B0: u16 = 32;
    /// Word address of `a` in global memory.
    pub const ADDR_A: u16 = 100;
    /// Word address of `b`.
    pub const ADDR_B: u16 = 101;
    /// Word address of the output.
    pub const ADDR_OUT: u16 = 102;
    /// Loop counter.
    pub const LOOP: u16 = 103;
    /// The emitters' scratch registers.
    pub const SCRATCH: Scratch = Scratch {
        t: 64,
        cmp: 128,
        m: 96,
        ge: 105,
        s0: 106,
        s1: 107,
    };
}

fn r(x: Reg) -> Src {
    Src::Reg(x)
}
fn imm(x: u32) -> Src {
    Src::Imm(x)
}

/// The five profiled field operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfOp {
    /// Modular addition.
    Add,
    /// Modular subtraction.
    Sub,
    /// Modular doubling.
    Dbl,
    /// Montgomery multiplication.
    Mul,
    /// Montgomery squaring.
    Sqr,
}

impl FfOp {
    /// All five operations, Table IV order.
    pub fn all() -> [FfOp; 5] {
        [FfOp::Add, FfOp::Sub, FfOp::Dbl, FfOp::Mul, FfOp::Sqr]
    }

    /// Paper-style name.
    pub fn name(&self) -> &'static str {
        match self {
            FfOp::Add => "FF_add",
            FfOp::Sub => "FF_sub",
            FfOp::Dbl => "FF_dbl",
            FfOp::Mul => "FF_mul",
            FfOp::Sqr => "FF_sqr",
        }
    }
}

/// A program under construction together with the [`KernelFacts`] its
/// field operations record. Kernels emit their own loads, stores and
/// control flow through [`b`](Self::b); everything that computes goes
/// through the four emitters (see the module docs for their aliasing
/// contract).
#[derive(Debug)]
pub struct FfEmitter<'f> {
    /// The instruction stream so far.
    pub b: ProgramBuilder,
    /// The facts recorded so far.
    pub facts: KernelFacts,
    field: &'f Field32,
    s: Scratch,
}

impl<'f> FfEmitter<'f> {
    /// An empty program over `field`, borrowing `scratch` for temporaries.
    pub fn new(field: &'f Field32, scratch: Scratch) -> Self {
        FfEmitter {
            b: ProgramBuilder::new(),
            facts: KernelFacts::new(),
            field,
            s: scratch,
        }
    }

    fn n(&self) -> u16 {
        self.field.num_limbs() as u16
    }

    /// Finishes the program.
    pub fn finish(self) -> (Program, KernelFacts) {
        (self.b.build(), self.facts)
    }

    /// Loads a canonical (`< p`) element into `bank` from word offsets
    /// `base + j·stride` past `addr`, and records the assumption.
    pub fn load(&mut self, bank: Reg, addr: Reg, base: u32, stride: u32) {
        for j in 0..self.n() {
            self.b.ldg(bank + j, addr, base + u32::from(j) * stride);
        }
        assume_canonical_loads(&mut self.facts.assumptions, self.field, addr, base, stride);
    }

    /// Stores `bank` to word offsets `base + j·stride` past `addr`.
    pub fn store(&mut self, bank: Reg, addr: Reg, base: u32, stride: u32) {
        for j in 0..self.n() {
            self.b.stg(bank + j, addr, base + u32::from(j) * stride);
        }
    }

    /// `out = x + y mod p`: an `IADD3` carry chain (no overflow past the
    /// top limb for spare-bit moduli) and the conditional reduction.
    pub fn add(&mut self, out: Reg, x: Reg, y: Reg) {
        self.b.iadd3(out, r(x), r(y), imm(0), true, false);
        for j in 1..self.n() {
            self.b
                .iadd3(out + j, r(x + j), r(y + j), imm(0), true, true);
        }
        self.reduce(out);
    }

    /// The paper's §IV-B1 conditional reduction: the limbs of the result are
    /// compared against the modulus (a full borrow chain, since every limb
    /// must be inspected), and threads whose value ended up `>= p` take a
    /// data-dependent branch to write back the subtracted value. With random
    /// inputs roughly half of each warp needs the reduction, so this branch is
    /// almost always divergent — the mechanism behind `FF_add`'s ~52% branch
    /// efficiency and the 2.4× cycle blow-up (72 → 244) the paper reports.
    fn reduce(&mut self, v: Reg) {
        let (n, s, p) = (self.n(), self.s, &self.field.modulus);
        let b = &mut self.b;
        // s = v - p with a borrow chain into the scratch bank.
        b.iadd3(s.cmp, r(v), imm(!p[0]), imm(1), true, false);
        for j in 1..n {
            b.iadd3(s.cmp + j, r(v + j), imm(!p[j as usize]), imm(0), true, true);
        }
        // ge = final carry (1 ⇔ v >= p).
        b.iadd3(s.ge, imm(0), imm(0), imm(0), false, true);
        let done = b.label();
        b.setp(0, r(s.ge), imm(0), CmpOp::Eq);
        b.bra(done, Some((0, true))); // divergent whenever the warp disagrees
        for j in 0..n {
            b.mov(v + j, r(s.cmp + j));
        }
        b.place(done);
    }

    /// `out = x - y mod p`; on borrow, add `p` back (one data-dependent
    /// branch).
    pub fn sub(&mut self, out: Reg, x: Reg, y: Reg) {
        let (n, s, p) = (self.n(), self.s, &self.field.modulus);
        let b = &mut self.b;
        // x + ~y + 1 with carry chain; final carry == 0 means borrow.
        for j in 0..n {
            b.lop3(s.s0, r(y + j), imm(u32::MAX), LogicOp::Xor);
            b.iadd3(
                out + j,
                r(x + j),
                r(s.s0),
                imm(u32::from(j == 0)),
                true,
                j > 0,
            );
        }
        // Capture the final carry.
        b.iadd3(s.s1, imm(0), imm(0), imm(0), false, true);
        let done = b.label();
        b.setp(0, r(s.s1), imm(1), CmpOp::Eq);
        b.bra(done, Some((0, true))); // no borrow -> done
        for j in 0..n {
            b.iadd3(out + j, r(out + j), imm(p[j as usize]), imm(0), true, j > 0);
        }
        b.place(done);
    }

    /// `out = 2x mod p` (§IV-B1): doubling by `SHF` funnel shifts. The
    /// reduction is decided *before* the shift using `2a ≥ p ⇔ a ≥ ⌈p/2⌉`
    /// and the identity `2a − p = 2(a − ⌈p/2⌉) + 1` (p odd): a top-limb
    /// comparison settles almost every thread, a rare uniform branch
    /// handles top-limb ties, and a data-dependent branch guards the
    /// subtraction — then one funnel shift per limb doubles the (possibly
    /// pre-reduced) value.
    pub fn dbl(&mut self, out: Reg, x: Reg) {
        let (n, s, h) = (self.n(), self.s, &self.field.half_ceil);
        let b = &mut self.b;
        // The pre-reduction is a guarded in-place subtraction.
        if out != x {
            for j in 0..n {
                b.mov(out + j, r(x + j));
            }
        }
        let top = (n - 1) as usize;
        // Quick decision from the top limb: ge = (a_top > h_top).
        b.setp(1, r(out + n - 1), imm(h[top] + 1), CmpOp::Ge);
        b.sel(s.ge, imm(1), imm(0), 1);
        // Tie on the top limb (rare): full borrow-chain comparison vs ⌈p/2⌉.
        let no_tie = b.label();
        b.setp(2, r(out + n - 1), imm(h[top]), CmpOp::Eq);
        // A tie happens for one top-limb value in ~2^32, so in practice every
        // lane skips the full comparison and the branch is uniformly taken.
        self.facts.hints.set(b.next_pc(), BranchHint::Taken);
        b.bra(no_tie, Some((2, false)));
        for j in 0..n {
            let one = imm(u32::from(j == 0));
            b.iadd3(s.cmp + j, r(out + j), imm(!h[j as usize]), one, true, j > 0);
        }
        b.iadd3(s.ge, imm(0), imm(0), imm(0), false, true);
        b.place(no_tie);
        // Threads with 2a >= p subtract ⌈p/2⌉ up front (data-dependent branch).
        let no_reduce = b.label();
        b.setp(0, r(s.ge), imm(0), CmpOp::Eq);
        b.bra(no_reduce, Some((0, true)));
        for j in 0..n {
            let one = imm(u32::from(j == 0));
            b.iadd3(out + j, r(out + j), imm(!h[j as usize]), one, true, j > 0);
        }
        b.place(no_reduce);
        // Double with funnel shifts; the low bit becomes `ge` (2(a−h)+1).
        for i in (1..n).rev() {
            b.shf(out + i, r(out + i), r(out + i - 1), imm(1), false);
        }
        b.shf(out, r(out), imm(0), imm(1), false);
        b.lop3(out, r(out), r(s.ge), LogicOp::Or);
    }

    /// `out = x·y·R⁻¹ mod p`: the CIOS product into the scratch
    /// accumulator, the conditional reduction, and the copy out.
    ///
    /// `obligation` names a `< 2p` proof obligation to record on the
    /// accumulator, anchored *before* the conditional subtraction (whose
    /// borrow-chain wrap-around would saturate the intervals). The claim
    /// is a *per-application* contract: `gpu_sim::analysis::ranges` can
    /// discharge it exactly when both operands are canonical (`< p`) —
    /// straight from canonical loads, not from an earlier `mod p` output,
    /// which the interval domain only bounds by a `< 2p` per-limb box — so
    /// callers opt in per multiply. Induction (canonical in ⇒ canonical
    /// out) extends it to every other application.
    pub fn mul(&mut self, out: Reg, x: Reg, y: Reg, obligation: Option<&str>) {
        self.cios(x, y);
        let (n, t) = (self.n(), self.s.t);
        if let Some(what) = obligation {
            self.facts.obligations.push(ValueBound {
                pc: self.b.next_pc(),
                regs: (0..n).map(|j| t + j).collect(),
                bound: double_modulus(self.field),
                what: format!("{what} CIOS output < 2p ({})", self.field.name),
            });
        }
        self.reduce(t);
        for j in 0..n {
            self.b.mov(out + j, r(t + j));
        }
    }

    /// 32-bit CIOS Montgomery multiplication `t = x·y·R⁻¹ mod⁺ p` (the
    /// result may need one conditional subtraction).
    ///
    /// The structure is the classic `mad.lo.cc`/`madc.hi.cc` dual-chain per
    /// row, which is why IMAD dominates the mix (§IV-B2).
    fn cios(&mut self, x: Reg, y: Reg) {
        let (n, s, p) = (self.n(), self.s, &self.field.modulus);
        let b = &mut self.b;
        let t = s.t;
        let t_n = t + n;
        let t_n1 = t + n + 1;
        // Zero the accumulator.
        for j in 0..=n + 1 {
            b.mov(t + j, imm(0));
        }
        for i in 0..n {
            let x_i = r(x + i);
            // Every row emits the same t[n]/t[n+1] overflow-word schema, final
            // row included. In the final row those words are never read again
            // (spare-bit moduli keep the result in n limbs), but proving that
            // — and removing the bookkeeping with an equivalence certificate —
            // is the optimizer's job (`analysis::opt`), not the generator's.
            // Low-product pass: t[j] += lo(x_i·y_j), chained carries.
            for j in 0..n {
                b.imad(t + j, x_i, r(y + j), r(t + j), false, true, j > 0);
            }
            b.iadd3(t_n, r(t_n), imm(0), imm(0), true, true);
            b.iadd3(t_n1, r(t_n1), imm(0), imm(0), false, true);
            // High-product pass: t[j+1] += hi(x_i·y_j).
            for j in 0..n {
                b.imad(t + j + 1, x_i, r(y + j), r(t + j + 1), true, true, j > 0);
            }
            b.iadd3(t_n1, r(t_n1), imm(0), imm(0), false, true);

            // Montgomery reduction row: m = t[0]·inv32 mod 2^32.
            b.imad(
                s.m,
                r(t),
                imm(self.field.inv32),
                imm(0),
                false,
                false,
                false,
            );
            // Low pass of m·p, shifting t down one word.
            b.imad(s.s0, r(s.m), imm(p[0]), r(t), false, true, false);
            for j in 1..n {
                b.imad(
                    t + j - 1,
                    r(s.m),
                    imm(p[j as usize]),
                    r(t + j),
                    false,
                    true,
                    true,
                );
            }
            b.iadd3(t_n - 1, r(t_n), imm(0), imm(0), true, true);
            b.iadd3(t_n, r(t_n1), imm(0), imm(0), false, true);
            // Re-zero t[n+1] for the next row.
            b.mov(t_n1, imm(0));
            // High pass of m·p (indices already shifted down).
            for j in 0..n {
                b.imad(
                    t + j,
                    r(s.m),
                    imm(p[j as usize]),
                    r(t + j),
                    true,
                    true,
                    j > 0,
                );
            }
            b.iadd3(t_n, r(t_n), imm(0), imm(0), false, true);
        }
    }
}

/// Generates the microbenchmark kernel for an operation: `iters`
/// applications of one emitter on the [`regs`] map, operands and result in
/// the warp-interleaved layout (limb `j` at `addr + j·32`, so every limb
/// access is one coalesced 4-sector transaction).
///
/// The `FF_dbl` tie branch is hinted uniformly taken, operand loads are
/// assumed canonical, and the multiply carries its `< 2p` obligation on
/// the single-trip program only — the back edge feeds the
/// reduced-but-not-provably-canonical result back into `a`.
pub fn ff_kernel(field: &Field32, op: FfOp, iters: u32) -> Kernel {
    let (a, b) = (regs::A0, regs::B0);
    let mut e = FfEmitter::new(field, regs::SCRATCH);
    let mut regions = vec![Region::input(regs::ADDR_A, 1)];
    e.load(a, regs::ADDR_A, 0, LIMB_STRIDE_WORDS);
    // `Dbl`/`Sqr` never read `b`.
    if matches!(op, FfOp::Add | FfOp::Sub | FfOp::Mul) {
        regions.push(Region::input(regs::ADDR_B, 1));
        e.load(b, regs::ADDR_B, 0, LIMB_STRIDE_WORDS);
    }
    regions.push(Region::output(regs::ADDR_OUT, 1));
    for region in &regions {
        e.facts
            .contracts
            .declare(region.pointer, 1, LIMB_STRIDE_WORDS);
    }
    e.b.mov(regs::LOOP, imm(0));

    // Uniform benchmark loop; the result feeds back into `a`.
    let loop_top = e.b.label();
    e.b.place(loop_top);
    let once = (iters == 1).then_some(op.name());
    match op {
        FfOp::Add => e.add(a, a, b),
        FfOp::Sub => e.sub(a, a, b),
        FfOp::Dbl => e.dbl(a, a),
        FfOp::Mul => e.mul(a, a, b, once),
        FfOp::Sqr => e.mul(a, a, a, once),
    }
    e.b.iadd3(regs::LOOP, r(regs::LOOP), imm(1), imm(0), false, false);
    e.b.setp(3, r(regs::LOOP), imm(iters), CmpOp::Lt);
    e.b.bra(loop_top, Some((3, true)));

    e.store(a, regs::ADDR_OUT, 0, LIMB_STRIDE_WORDS);
    e.b.exit();
    let (program, facts) = e.finish();
    Kernel {
        name: op.name(),
        field: field.clone(),
        program,
        facts,
        regions,
        layout: Layout::Interleaved,
    }
}

/// The program of [`ff_kernel`].
pub fn ff_program(field: &Field32, op: FfOp, iters: u32) -> Program {
    ff_kernel(field, op, iters).program
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkp_ff::{Fq381Config, Fr381Config};

    #[test]
    fn programs_build_for_all_ops() {
        let f = Field32::of::<Fr381Config, 4>();
        for op in FfOp::all() {
            let p = ff_program(&f, op, 4);
            assert!(!p.is_empty(), "{op:?}");
        }
    }

    #[test]
    fn mul_is_imad_dominated() {
        let f = Field32::of::<Fq381Config, 6>();
        let p = ff_program(&f, FfOp::Mul, 1);
        let mix = p.static_mix();
        let count = |m: &str| mix.iter().find(|(k, _)| *k == m).map_or(0, |(_, c)| *c);
        let imad = count("IMAD");
        let total: u64 = mix.iter().map(|(_, c)| *c).sum();
        assert!(
            imad as f64 / total as f64 > 0.6,
            "IMAD fraction {imad}/{total}"
        );
    }

    #[test]
    fn dbl_uses_shf_not_imad() {
        // The shift chain is one SHF per limb; IMAD never appears. (The
        // guarded reduction contributes IADD3s, so the *dynamic* dominant
        // instruction depends on how often warps reduce — see the
        // Table VI experiment.)
        let f = Field32::of::<Fq381Config, 6>();
        let p = ff_program(&f, FfOp::Dbl, 1);
        let mix = p.static_mix();
        let count = |m: &str| mix.iter().find(|(k, _)| *k == m).map_or(0, |(_, c)| *c);
        assert_eq!(count("IMAD"), 0);
        assert_eq!(count("SHF"), 12);
    }

    #[test]
    fn cios_obligation_proves_for_mul_and_sqr() {
        // The `< 2p` contract is per application: at iters = 1 the loop
        // back edge is pruned (exact loop-exit predicate) and the
        // canonical-input assumptions reach the CIOS body, where the
        // chain certificate closes the bound. Full four-field coverage
        // lives in the range_soundness integration test.
        let f = Field32::of::<Fr381Config, 4>();
        for op in [FfOp::Mul, FfOp::Sqr] {
            let k = ff_kernel(&f, op, 1);
            let ra = k.ranges();
            assert!(ra.diagnostics.is_empty(), "{op:?}: {:?}", ra.diagnostics);
            assert_eq!(ra.proved.len(), 1, "{op:?}: {:?}", ra.proved);
        }
    }

    #[test]
    fn multi_iteration_kernels_are_overflow_free() {
        // Overflow-freedom (every IADD3.CC carry fits one bit) holds for
        // any iteration count — only the < 2p obligation needs the
        // single-application form.
        let f = Field32::of::<Fr381Config, 4>();
        for op in FfOp::all() {
            let k = ff_kernel(&f, op, 4);
            assert!(k.facts.obligations.is_empty(), "{op:?}");
            let ra = k.ranges();
            assert!(ra.is_clean(), "{op:?}: {:?}", ra.diagnostics);
        }
    }

    #[test]
    fn double_modulus_is_twice_p() {
        let f = Field32::of::<Fq381Config, 6>();
        let two_p = double_modulus(&f);
        assert_eq!(two_p.len(), f.num_limbs());
        // 2p mod 2^32 agrees limb 0, and the top limb doubled without
        // spilling past n limbs (spare-bit modulus).
        assert_eq!(two_p[0], f.modulus[0].wrapping_mul(2));
        assert!(two_p[f.num_limbs() - 1] >= f.modulus[f.num_limbs() - 1]);
    }

    #[test]
    fn add_is_iadd3_dominated() {
        let f = Field32::of::<Fq381Config, 6>();
        let p = ff_program(&f, FfOp::Add, 1);
        let mix = p.static_mix();
        let count = |m: &str| mix.iter().find(|(k, _)| *k == m).map_or(0, |(_, c)| *c);
        assert!(count("IADD3") > count("IMAD"));
        assert!(count("IADD3") >= count("SHF"));
    }
}
