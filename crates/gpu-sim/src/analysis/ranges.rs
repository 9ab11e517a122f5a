//! Value-range abstract interpretation over 32-bit limbs, carry flags, and
//! predicates.
//!
//! The CIOS Montgomery kernels lean on two invariants the simulator can
//! only check dynamically: every `IADD3.CC` carry fits in one bit (the
//! machine asserts on multi-bit carries), and the accumulator leaving the
//! multiplication is `< 2p`, which is what makes the single conditional
//! subtraction a complete reduction. This pass turns both into static
//! theorems: it propagates unsigned intervals through every instruction,
//! runs a widening fixpoint over the CFG, and then
//!
//! 1. flags any `IADD3.CC` whose 64-bit sum may exceed `2^33 - 1`
//!    ([`crate::analysis::lints::LintKind::PossibleOverflow`]),
//! 2. discharges caller-supplied [`ValueBound`] obligations — "the bigint
//!    formed by these limb registers is `< bound` at this pc" — emitting
//!    [`crate::analysis::lints::LintKind::RangeUnprovable`] on failure, and
//! 3. records the inferred interval of every stored value
//!    ([`StoreBound`]), which the property tests check dynamic executions
//!    against (soundness).
//!
//! Obligations are discharged in two tiers. The interval tier compares
//! per-limb upper bounds lexicographically — enough for simple bounds,
//! but provably too weak for the CIOS `< 2p` claim: intervals forget the
//! correlation between limbs, and a value whose top limb sits at `(2p)`'s
//! top limb with full-range lower limbs lies inside the interval box but
//! at or above `2p`. Obligations the intervals cannot close fall through
//! to [`super::chainproof`], which re-executes the straight-line slice
//! with exact polynomial algebra over the block-entry intervals and
//! certifies the bound the way the textbook proof does — over the
//! integers, with the carry/high-half cancellations telescoping exactly.
//!
//! The fixpoint prunes conditional edges whose predicate interval is
//! exact; a single-application kernel (`iters = 1`) therefore keeps its
//! canonical-input assumptions at the loop head, which is what the `< 2p`
//! contract needs. With live loop feedback the reduced result re-enters
//! the multiplier at full range and the single-subtraction contract is
//! genuinely not provable from the feedback intervals alone — callers
//! prove the per-application contract and induct outside the analysis.

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::ResourceMap;
use crate::analysis::lints::{Diagnostic, LintKind};
use crate::isa::{CmpOp, Instr, LogicOp, Program, Reg, Src};

/// An inclusive unsigned interval `[lo, hi]` over `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u32,
    /// Largest possible value.
    pub hi: u32,
}

impl Interval {
    /// The full range `[0, u32::MAX]`.
    pub fn full() -> Self {
        Self {
            lo: 0,
            hi: u32::MAX,
        }
    }

    /// A single value.
    pub fn exact(v: u32) -> Self {
        Self { lo: v, hi: v }
    }

    /// `[lo, hi]`, asserting `lo <= hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: u32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Smallest interval containing both.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Whether the interval is a single value.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        format!("{{\"lo\":{},\"hi\":{}}}", self.lo, self.hi)
    }
}

impl core::fmt::Display for Interval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_exact() {
            write!(f, "{:#x}", self.lo)
        } else if *self == Interval::full() {
            f.write_str("⊤")
        } else {
            write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
        }
    }
}

/// The input contract of a kernel: intervals for values arriving from
/// global memory.
///
/// Loads are keyed by `(address register, offset)` — the generated kernels
/// address each operand bank through a dedicated pointer register, so the
/// pair identifies the operand limb regardless of the runtime pointer
/// value. Anything without an assumption is `⊤` (sound).
#[derive(Debug, Clone, Default)]
pub struct RangeAssumptions {
    loads: Vec<(Reg, u32, Interval)>,
}

impl RangeAssumptions {
    /// No assumptions: every input is `⊤`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the interval of the value loaded by any `LDG` addressed by
    /// `addr` at word `offset`.
    pub fn assume_load(&mut self, addr: Reg, offset: u32, iv: Interval) {
        self.loads.push((addr, offset, iv));
    }

    pub(crate) fn load_interval(&self, addr: Reg, offset: u32) -> Interval {
        self.loads
            .iter()
            .rev()
            .find(|(r, o, _)| *r == addr && *o == offset)
            .map_or_else(Interval::full, |(_, _, iv)| *iv)
    }
}

/// A proof obligation: at the program point *before* executing `pc`, the
/// little-endian bigint formed by `regs` is strictly below the
/// little-endian `bound`.
#[derive(Debug, Clone)]
pub struct ValueBound {
    /// Program point (state observed before this instruction executes).
    pub pc: usize,
    /// Little-endian limb registers of the value.
    pub regs: Vec<Reg>,
    /// Little-endian bound limbs; the claim is `value < bound`.
    pub bound: Vec<u32>,
    /// Human-readable description used in reports and diagnostics.
    pub what: String,
}

/// The inferred interval of one stored value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreBound {
    /// The `STG`'s index.
    pub pc: usize,
    /// The address register of the store.
    pub addr: Reg,
    /// The word offset of the store.
    pub offset: u32,
    /// The source register holding the stored value.
    pub src: Reg,
    /// Every value the store can write lies in this interval.
    pub value: Interval,
}

impl StoreBound {
    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pc\":{},\"addr\":{},\"offset\":{},\"src\":{},\"value\":{}}}",
            self.pc,
            self.addr,
            self.offset,
            self.src,
            self.value.to_json()
        )
    }
}

/// The result of the range analysis over one program.
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    /// Inferred intervals at every reachable `STG`, in program order.
    pub store_bounds: Vec<StoreBound>,
    /// `PossibleOverflow` and `RangeUnprovable` findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Descriptions of the [`ValueBound`] obligations that were discharged.
    pub proved: Vec<String>,
}

impl RangeAnalysis {
    /// Whether every obligation was discharged and no overflow is possible.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        let stores: Vec<String> = self.store_bounds.iter().map(StoreBound::to_json).collect();
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| format!("\"{}\"", d.to_string().replace('"', "'")))
            .collect();
        let proved: Vec<String> = self.proved.iter().map(|p| format!("\"{p}\"")).collect();
        format!(
            "{{\"store_bounds\":[{}],\"diagnostics\":[{}],\"proved\":[{}]}}",
            stores.join(","),
            diags.join(","),
            proved.join(",")
        )
    }
}

/// Per-point abstract state: one interval per register, plus the carry
/// flag and the four predicates as `[0, 1]` sub-intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: Vec<Interval>,
    cc: Interval,
    preds: [Interval; 4],
}

impl AbsState {
    fn entry(num_regs: usize) -> Self {
        Self {
            regs: vec![Interval::full(); num_regs],
            cc: Interval::new(0, 1),
            preds: [Interval::new(0, 1); 4],
        }
    }

    fn src(&self, s: &Src) -> Interval {
        match s {
            Src::Imm(v) => Interval::exact(*v),
            Src::Reg(r) => self.regs[*r as usize],
        }
    }

    fn join_from(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        let j = self.cc.join(&other.cc);
        changed |= j != self.cc;
        self.cc = j;
        for (a, b) in self.preds.iter_mut().zip(&other.preds) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        changed
    }

    /// Jumps growing bounds to the nearest threshold so loop-carried
    /// intervals converge without erasing structural constants.
    fn widen_from(&mut self, previous: &AbsState, thresholds: &[u32]) {
        let widen = |old: Interval, new: Interval| -> Interval {
            let lo = if new.lo < old.lo {
                // Largest threshold at or below the new lower bound.
                thresholds
                    .iter()
                    .rev()
                    .find(|&&t| t <= new.lo)
                    .copied()
                    .unwrap_or(0)
            } else {
                new.lo
            };
            let hi = if new.hi > old.hi {
                // Smallest threshold at or above the new upper bound.
                thresholds
                    .iter()
                    .find(|&&t| t >= new.hi)
                    .copied()
                    .unwrap_or(u32::MAX)
            } else {
                new.hi
            };
            Interval::new(lo, hi)
        };
        for (a, p) in self.regs.iter_mut().zip(&previous.regs) {
            *a = widen(*p, *a);
        }
        self.cc = widen(previous.cc, self.cc);
        for (a, p) in self.preds.iter_mut().zip(&previous.preds) {
            *a = widen(*p, *a);
        }
    }
}

/// A 64-bit interval for intermediate sums/products.
#[derive(Debug, Clone, Copy)]
struct Interval64 {
    lo: u64,
    hi: u64,
}

impl Interval64 {
    fn of(iv: Interval) -> Self {
        Self {
            lo: u64::from(iv.lo),
            hi: u64::from(iv.hi),
        }
    }

    /// The low 32 bits, with wrap-around handling: if the interval spans a
    /// 2^32 boundary the low word can be anything.
    fn low32(&self) -> Interval {
        if self.lo >> 32 == self.hi >> 32 {
            Interval::new(self.lo as u32, self.hi as u32)
        } else {
            Interval::full()
        }
    }

    /// The bits above 32 (the carry-out magnitude).
    fn high(&self) -> Interval64 {
        Interval64 {
            lo: self.lo >> 32,
            hi: self.hi >> 32,
        }
    }
}

/// Events observed while transferring one instruction.
enum Effect {
    None,
    /// `IADD3.CC` whose sum can exceed a one-bit carry (`hi` is the sum's
    /// largest possible carry-out magnitude).
    Overflow {
        hi: u64,
    },
}

/// Applies the abstract transfer function of `inst` to `st`.
fn transfer(st: &mut AbsState, inst: &Instr, assumptions: &RangeAssumptions) -> Effect {
    let mut effect = Effect::None;
    match *inst {
        Instr::Imad {
            dst,
            a,
            b,
            c,
            hi,
            set_cc,
            use_cc,
        } => {
            let (a, b, c) = (st.src(&a), st.src(&b), st.src(&c));
            let prod = Interval64 {
                lo: u64::from(a.lo) * u64::from(b.lo),
                hi: u64::from(a.hi) * u64::from(b.hi),
            };
            let part = if hi {
                prod.high()
            } else {
                Interval64::of(prod.low32())
            };
            let cin = if use_cc { st.cc } else { Interval::exact(0) };
            let sum = Interval64 {
                lo: part.lo + u64::from(c.lo) + u64::from(cin.lo),
                hi: part.hi + u64::from(c.hi) + u64::from(cin.hi),
            };
            st.regs[dst as usize] = sum.low32();
            if set_cc {
                // part + c + cin <= (2^32-1) + (2^32-1) + 1: the carry-out
                // of an IMAD can never exceed one bit.
                let carry = sum.high();
                st.cc = Interval::new(carry.lo.min(1) as u32, carry.hi.min(1) as u32);
            }
        }
        Instr::Iadd3 {
            dst,
            a,
            b,
            c,
            set_cc,
            use_cc,
        } => {
            let (a, b, c) = (st.src(&a), st.src(&b), st.src(&c));
            let cin = if use_cc { st.cc } else { Interval::exact(0) };
            let sum = Interval64 {
                lo: u64::from(a.lo) + u64::from(b.lo) + u64::from(c.lo) + u64::from(cin.lo),
                hi: u64::from(a.hi) + u64::from(b.hi) + u64::from(c.hi) + u64::from(cin.hi),
            };
            st.regs[dst as usize] = sum.low32();
            if set_cc {
                let carry = sum.high();
                if carry.hi > 1 {
                    effect = Effect::Overflow { hi: carry.hi };
                }
                st.cc = Interval::new(carry.lo.min(1) as u32, carry.hi.min(1) as u32);
            }
        }
        Instr::Shf {
            dst,
            a,
            b,
            sh,
            right,
        } => {
            let (v, f, s) = (st.src(&a), st.src(&b), st.src(&sh));
            st.regs[dst as usize] = shf_interval(v, f, s, right);
        }
        Instr::Lop3 { dst, a, b, op } => {
            let (a, b) = (st.src(&a), st.src(&b));
            st.regs[dst as usize] = match op {
                LogicOp::And => Interval::new(0, a.hi.min(b.hi)),
                LogicOp::Or => Interval::new(a.lo.max(b.lo), bitlen_bound(a.hi, b.hi)),
                LogicOp::Xor => Interval::new(0, bitlen_bound(a.hi, b.hi)),
            };
        }
        Instr::Mov { dst, src } => {
            st.regs[dst as usize] = st.src(&src);
        }
        Instr::Setp { pred, a, b, cmp } => {
            let (a, b) = (st.src(&a), st.src(&b));
            st.preds[pred as usize] = compare_interval(a, b, cmp);
        }
        Instr::Sel { dst, a, b, pred } => {
            let (a, b) = (st.src(&a), st.src(&b));
            st.regs[dst as usize] = match st.preds[pred as usize] {
                Interval { lo: 1, .. } => a,
                Interval { hi: 0, .. } => b,
                _ => a.join(&b),
            };
        }
        Instr::Ldg { dst, addr, offset } => {
            st.regs[dst as usize] = assumptions.load_interval(addr, offset);
        }
        Instr::Stg { .. } | Instr::Bra { .. } | Instr::Exit => {}
    }
    effect
}

/// Interval of a funnel shift: exact when everything is constant, shift of
/// a plain value when the funnel source is zero, `⊤` otherwise.
fn shf_interval(v: Interval, f: Interval, s: Interval, right: bool) -> Interval {
    if !s.is_exact() {
        return Interval::full();
    }
    let s = s.lo & 31;
    if s == 0 {
        return v;
    }
    if v.is_exact() && f.is_exact() {
        let (v, f) = (v.lo, f.lo);
        return Interval::exact(if right {
            (v >> s) | (f << (32 - s))
        } else {
            (v << s) | (f >> (32 - s))
        });
    }
    if f == Interval::exact(0) {
        if right {
            return Interval::new(v.lo >> s, v.hi >> s);
        }
        if v.hi < (1u32 << (32 - s)) {
            return Interval::new(v.lo << s, v.hi << s);
        }
    }
    Interval::full()
}

/// `2^max(bitlen(a), bitlen(b)) - 1`: a sound upper bound for `|` and `^`.
fn bitlen_bound(a: u32, b: u32) -> u32 {
    let m = a.max(b);
    if m == 0 {
        return 0;
    }
    let bits = 32 - m.leading_zeros();
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// The `[0,1]` interval of a comparison between two intervals.
fn compare_interval(a: Interval, b: Interval, cmp: CmpOp) -> Interval {
    let (def_true, def_false) = match cmp {
        CmpOp::Lt => (a.hi < b.lo, a.lo >= b.hi),
        CmpOp::Ge => (a.lo >= b.hi, a.hi < b.lo),
        CmpOp::Eq => (
            a.is_exact() && b.is_exact() && a.lo == b.lo,
            a.hi < b.lo || b.hi < a.lo,
        ),
        CmpOp::Ne => (
            a.hi < b.lo || b.hi < a.lo,
            a.is_exact() && b.is_exact() && a.lo == b.lo,
        ),
    };
    if def_true {
        Interval::exact(1)
    } else if def_false {
        Interval::exact(0)
    } else {
        Interval::new(0, 1)
    }
}

/// Joins for each block before widening kicks in.
const WIDEN_AFTER: usize = 8;

/// Runs the range analysis: widening fixpoint over the CFG, then a
/// reporting pass collecting overflow findings, store bounds, and the
/// verdict on each [`ValueBound`] obligation.
pub fn analyze_ranges(
    program: &Program,
    assumptions: &RangeAssumptions,
    obligations: &[ValueBound],
) -> RangeAnalysis {
    let cfg = Cfg::build(program);
    let mut result = RangeAnalysis {
        store_bounds: Vec::new(),
        diagnostics: Vec::new(),
        proved: Vec::new(),
    };
    if program.is_empty() || cfg.blocks.is_empty() {
        for ob in obligations {
            result.diagnostics.push(Diagnostic::new(
                LintKind::RangeUnprovable,
                ob.pc,
                format!("{}: program is empty", ob.what),
            ));
        }
        return result;
    }

    let num_regs = ResourceMap::of(program).num_regs();
    let thresholds = widening_thresholds(program);

    // Fixpoint over block-entry states.
    let n = cfg.blocks.len();
    let mut entry_state: Vec<Option<AbsState>> = vec![None; n];
    entry_state[0] = Some(AbsState::entry(num_regs));
    let mut join_count = vec![0usize; n];
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let Some(state) = entry_state[b].clone() else {
            continue;
        };
        let mut st = state;
        for pc in cfg.blocks[b].start..cfg.blocks[b].end {
            transfer(&mut st, &program.fetch(pc), assumptions);
        }
        for &s in &feasible_succs(program, &cfg, b, &st) {
            let changed = match &mut entry_state[s] {
                Some(existing) => {
                    let before = existing.clone();
                    let changed = existing.join_from(&st);
                    if changed {
                        join_count[s] += 1;
                        if join_count[s] > WIDEN_AFTER {
                            existing.widen_from(&before, &thresholds);
                        }
                    }
                    changed
                }
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
            };
            if changed && !work.contains(&s) {
                work.push(s);
            }
        }
    }

    // Reporting pass over the converged states.
    let mut pending: Vec<&ValueBound> = obligations.iter().collect();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(state) = &entry_state[b] else {
            continue;
        };
        let mut st = state.clone();
        for pc in blk.start..blk.end {
            pending.retain(|ob| {
                if ob.pc != pc {
                    return true;
                }
                check_obligation(program, blk.start, state, &st, ob, assumptions, &mut result);
                false
            });
            let inst = program.fetch(pc);
            if let Instr::Stg { src, addr, offset } = inst {
                result.store_bounds.push(StoreBound {
                    pc,
                    addr,
                    offset,
                    src,
                    value: st.regs[src as usize],
                });
            }
            if let Effect::Overflow { hi } = transfer(&mut st, &inst, assumptions) {
                result.diagnostics.push(Diagnostic::new(
                    LintKind::PossibleOverflow,
                    pc,
                    format!("IADD3.CC sum can carry out up to {hi} (machine supports 1 bit)"),
                ));
            }
        }
    }
    for ob in pending {
        result.diagnostics.push(Diagnostic::new(
            LintKind::RangeUnprovable,
            ob.pc,
            format!("{}: pc {} is unreachable", ob.what, ob.pc),
        ));
    }
    result.diagnostics.sort_by_key(|d| d.pc);
    result
}

/// Successor blocks actually feasible given the abstract state at the end
/// of block `b`: a conditional branch whose predicate interval is exact
/// transfers control to exactly one side. This is what keeps a
/// single-iteration kernel's loop back edge from polluting the loop-head
/// state with post-loop values.
fn feasible_succs(program: &Program, cfg: &Cfg, b: usize, st: &AbsState) -> Vec<usize> {
    let blk = &cfg.blocks[b];
    if let Instr::Bra {
        target,
        pred: Some((p, pol)),
    } = program.fetch(blk.terminator_pc())
    {
        let pv = st.preds[p as usize];
        if pv.is_exact() {
            let taken = (pv.lo == 1) == pol;
            let keep_start = if taken { target } else { blk.end };
            return blk
                .succs
                .iter()
                .copied()
                .filter(|&s| cfg.blocks[s].start == keep_start)
                .collect();
        }
    }
    blk.succs.clone()
}

/// Checks one obligation: first the interval tier (lexicographic compare
/// of per-limb upper bounds), then — if the intervals are too weak — the
/// bigint chain certificate over the block's straight-line slice.
fn check_obligation(
    program: &Program,
    block_start: usize,
    entry: &AbsState,
    st: &AbsState,
    ob: &ValueBound,
    assumptions: &RangeAssumptions,
    result: &mut RangeAnalysis,
) {
    assert_eq!(
        ob.regs.len(),
        ob.bound.len(),
        "obligation limb/bound length mismatch"
    );
    let Some(lex_fail) = lex_compare_failure(st, ob) else {
        result.proved.push(ob.what.clone());
        return;
    };
    match crate::analysis::chainproof::prove_chain(
        program,
        block_start,
        &entry.regs,
        entry.cc,
        assumptions,
        ob,
    ) {
        Ok(_) => result.proved.push(ob.what.clone()),
        Err(chain_fail) => result.diagnostics.push(Diagnostic::new(
            LintKind::RangeUnprovable,
            ob.pc,
            format!("{}: {lex_fail}; chain certificate: {chain_fail}", ob.what),
        )),
    }
}

/// The interval tier: compares little-endian limb vectors from the most
/// significant end. `None` means proved; `Some` carries the reason it
/// failed.
fn lex_compare_failure(st: &AbsState, ob: &ValueBound) -> Option<String> {
    for (&r, &b) in ob.regs.iter().zip(&ob.bound).rev() {
        let hi = st.regs[r as usize].hi;
        if hi < b {
            return None;
        }
        if hi > b {
            return Some(format!("limb r{r} may reach {hi:#x}, bound limb is {b:#x}"));
        }
    }
    // Equal to the bound limb-for-limb: `value < bound` is not provable.
    Some("interval upper bound equals the limit exactly".to_string())
}

/// Widening thresholds: every immediate in the program, plus 0/1/`MAX`.
/// Loop bounds and modulus limbs all appear as immediates, so widened
/// intervals land on the constants the proofs care about.
fn widening_thresholds(program: &Program) -> Vec<u32> {
    let mut t = vec![0u32, 1];
    let mut see = |s: &Src| {
        if let Src::Imm(v) = s {
            t.push(*v);
            // The post-widening re-transfer typically adds small deltas
            // (a +1 loop increment, a carry); include v+1 so the next
            // widening lands instead of jumping to MAX.
            t.push(v.saturating_add(1));
        }
    };
    for pc in 0..program.len() {
        match program.fetch(pc) {
            Instr::Imad { a, b, c, .. } | Instr::Iadd3 { a, b, c, .. } => {
                see(&a);
                see(&b);
                see(&c);
            }
            Instr::Shf { a, b, sh, .. } => {
                see(&a);
                see(&b);
                see(&sh);
            }
            Instr::Lop3 { a, b, .. } | Instr::Setp { a, b, .. } => {
                see(&a);
                see(&b);
            }
            Instr::Sel { a, b, .. } => {
                see(&a);
                see(&b);
            }
            Instr::Mov { src, .. } => see(&src),
            _ => {}
        }
    }
    t.push(u32::MAX);
    t.sort_unstable();
    t.dedup();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;

    fn r(x: u16) -> Src {
        Src::Reg(x)
    }
    fn imm(x: u32) -> Src {
        Src::Imm(x)
    }

    #[test]
    fn straight_line_constant_propagation_is_exact() {
        let mut b = ProgramBuilder::new();
        b.mov(0, imm(10));
        b.iadd3(1, r(0), imm(5), imm(0), false, false);
        b.imad(2, r(1), imm(3), imm(1), false, false, false);
        b.stg(2, 9, 0);
        b.exit();
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[]);
        assert!(res.is_clean());
        assert_eq!(res.store_bounds.len(), 1);
        assert_eq!(res.store_bounds[0].value, Interval::exact(46));
    }

    #[test]
    fn load_assumptions_key_by_addr_and_offset() {
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0); // assumed [0, 7]
        b.ldg(1, 9, 1); // no assumption: ⊤
        b.iadd3(2, r(0), imm(1), imm(0), false, false);
        b.stg(2, 9, 2);
        b.stg(1, 9, 3);
        b.exit();
        let mut a = RangeAssumptions::new();
        a.assume_load(9, 0, Interval::new(0, 7));
        let res = analyze_ranges(&b.build(), &a, &[]);
        assert_eq!(res.store_bounds[0].value, Interval::new(1, 8));
        assert_eq!(res.store_bounds[1].value, Interval::full());
    }

    #[test]
    fn possible_overflow_fires_on_three_full_operands() {
        // a + b + c with all three unknown can carry out 2 bits.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.ldg(1, 9, 1);
        b.ldg(2, 9, 2);
        b.iadd3(3, r(0), r(1), r(2), true, false);
        b.iadd3(4, imm(0), imm(0), imm(0), false, true);
        b.stg(3, 9, 3);
        b.stg(4, 9, 4);
        b.exit();
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[]);
        assert_eq!(res.diagnostics.len(), 1);
        assert_eq!(res.diagnostics[0].kind, LintKind::PossibleOverflow);
        assert_eq!(res.diagnostics[0].pc, 3);
    }

    #[test]
    fn two_operand_carry_chain_is_clean() {
        // The canonical add chain: two register operands + carry-in.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.ldg(1, 9, 1);
        b.iadd3(2, r(0), r(1), imm(0), true, false);
        b.iadd3(3, r(0), r(1), imm(0), false, true);
        b.stg(2, 9, 2);
        b.stg(3, 9, 3);
        b.exit();
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[]);
        assert!(res.is_clean(), "{:?}", res.diagnostics);
    }

    #[test]
    fn constant_loop_converges_with_widening() {
        // for (i = 0; i < 100; i++) { acc += 2 }
        let mut b = ProgramBuilder::new();
        b.mov(0, imm(0));
        b.mov(1, imm(0));
        let top = b.label();
        b.place(top);
        b.iadd3(1, r(1), imm(2), imm(0), false, false);
        b.iadd3(0, r(0), imm(1), imm(0), false, false);
        b.setp(0, r(0), imm(100), CmpOp::Lt);
        b.bra(top, Some((0, true)));
        b.stg(1, 9, 0);
        b.exit();
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[]);
        assert!(res.is_clean());
        // The accumulator interval is sound (contains the real value 200).
        assert!(res.store_bounds[0].value.contains(200));
    }

    #[test]
    fn obligation_discharged_on_bounded_value() {
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0); // [0, 5]
        b.ldg(1, 9, 1); // [0, 3]
        b.iadd3(2, r(0), r(1), imm(0), false, false);
        let at = 3;
        b.stg(2, 9, 2);
        b.exit();
        let mut a = RangeAssumptions::new();
        a.assume_load(9, 0, Interval::new(0, 5));
        a.assume_load(9, 1, Interval::new(0, 3));
        let p = b.build();
        let ob = ValueBound {
            pc: at,
            regs: vec![2],
            bound: vec![9],
            what: "sum < 9".to_string(),
        };
        let res = analyze_ranges(&p, &a, &[ob]);
        assert!(res.is_clean(), "{:?}", res.diagnostics);
        assert_eq!(res.proved, vec!["sum < 9".to_string()]);

        // Tightening the bound below the inferred max makes it unprovable.
        let ob = ValueBound {
            pc: at,
            regs: vec![2],
            bound: vec![8],
            what: "sum < 8".to_string(),
        };
        let res = analyze_ranges(&p, &a, &[ob]);
        assert_eq!(res.diagnostics.len(), 1);
        assert_eq!(res.diagnostics[0].kind, LintKind::RangeUnprovable);
    }

    #[test]
    fn multi_limb_obligation_compares_from_the_top() {
        // Two limbs: value ⊤ in the low limb, [0, 2] in the high limb.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.ldg(1, 9, 1);
        b.stg(0, 9, 2);
        b.stg(1, 9, 3);
        b.exit();
        let mut a = RangeAssumptions::new();
        a.assume_load(9, 1, Interval::new(0, 2));
        let ob = ValueBound {
            pc: 2,
            regs: vec![0, 1],
            bound: vec![0, 4], // 4·2^32 > 2·2^32 + (2^32-1)
            what: "two-limb bound".to_string(),
        };
        let res = analyze_ranges(&b.build(), &a, &[ob]);
        assert!(res.is_clean(), "{:?}", res.diagnostics);
    }

    #[test]
    fn select_on_known_predicate_picks_one_side() {
        let mut b = ProgramBuilder::new();
        b.mov(0, imm(7));
        b.setp(2, r(0), imm(5), CmpOp::Ge); // always true
        b.sel(1, imm(100), imm(200), 2);
        b.stg(1, 9, 0);
        b.exit();
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[]);
        assert_eq!(res.store_bounds[0].value, Interval::exact(100));
    }

    #[test]
    fn diamond_join_hulls_both_paths() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.ldg(0, 9, 0);
        b.mov(1, imm(10));
        b.setp(0, r(0), imm(50), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        b.mov(1, imm(30));
        b.place(skip);
        b.stg(1, 9, 1);
        b.exit();
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[]);
        assert_eq!(res.store_bounds[0].value, Interval::new(10, 30));
    }

    #[test]
    fn unreachable_obligation_is_unprovable() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.bra(end, None);
        b.mov(0, imm(1)); // unreachable
        b.place(end);
        b.exit();
        let ob = ValueBound {
            pc: 1,
            regs: vec![0],
            bound: vec![10],
            what: "dead code".to_string(),
        };
        let res = analyze_ranges(&b.build(), &RangeAssumptions::new(), &[ob]);
        assert_eq!(res.diagnostics.len(), 1);
        assert_eq!(res.diagnostics[0].kind, LintKind::RangeUnprovable);
        assert!(res.diagnostics[0].message.contains("unreachable"));
    }
}
