//! Bigint-level chain certificates for [`ValueBound`] obligations.
//!
//! Per-limb [interval analysis](super::ranges) cannot prove the CIOS
//! Montgomery bound `t < 2p`: intervals forget the correlation between
//! limbs, and a value whose top limb sits at `(2p)`'s top limb while the
//! lower limbs run full-range lies inside the interval box but at or above
//! `2p`. The textbook proof works over the integers —
//! `t = (a·b + Σᵢ mᵢ·p·2^{32i}) / 2^{32n} < a·b/2^{32n} + p < 2p` — and
//! this module mechanizes exactly that argument from the instruction
//! stream, with no trusted algebra step:
//!
//! * the straight-line slice from the obligation's block entry to the
//!   obligation pc is executed symbolically, each register holding an
//!   exact sparse polynomial over fresh symbols;
//! * block-entry registers and the carry flag become symbols bounded by
//!   their converged intervals;
//! * a product's `lo`/`hi` halves split against a *memoized* fresh symbol
//!   `h` (`lo = a·b − 2^32·h`, `hi = h`), so the low pass's `−2^32·h`
//!   cancels the high pass's `+2^32·h` exactly when the weighted limb sum
//!   is formed — the same telescoping the pen-and-paper proof uses;
//! * carry chains split sums the same way (`dst = s − 2^32·k`, `cc = k`),
//!   telescoping across limbs;
//! * a wrapped value whose overflow is *discarded* (the
//!   `m = t₀·inv32 mod 2^32` idiom: a low-half product with no carry
//!   capture) is opacified into a fresh `[0, 2^32−1]` symbol — exactness
//!   is useless once the high half is dropped, and the textbook bound
//!   only needs `m < 2^32`.
//!
//! The certificate is the positive part of `Σⱼ 2^{32j}·poly(regⱼ)`
//! evaluated at each symbol's upper bound: an exact [`UBig`] computation
//! compared against the obligation bound. Symbols are nonnegative, so
//! dropping leftover negative monomials is sound.

use crate::analysis::ranges::{Interval, RangeAssumptions, ValueBound};
use crate::isa::{Instr, Program, Src};
use std::collections::BTreeMap;
use zkp_bigint::{SInt, UBig};

const MASK32: u64 = 0xffff_ffff;

/// A monomial: sorted fresh-symbol ids, with multiplicity for powers.
type Monomial = Vec<u32>;

/// An exact sparse polynomial over fresh symbols with [`SInt`]
/// coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Poly {
    terms: BTreeMap<Monomial, SInt>,
}

impl Poly {
    fn zero() -> Self {
        Self::default()
    }

    fn constant(c: SInt) -> Self {
        let mut p = Self::zero();
        if !c.is_zero() {
            p.terms.insert(Vec::new(), c);
        }
        p
    }

    fn symbol(id: u32) -> Self {
        let mut p = Self::zero();
        p.terms.insert(vec![id], SInt::from(1));
        p
    }

    fn accumulate(&mut self, m: Monomial, c: SInt) {
        if c.is_zero() {
            return;
        }
        let entry = self.terms.entry(m);
        match entry {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(c);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let s = o.get().add(&c);
                if s.is_zero() {
                    o.remove();
                } else {
                    *o.get_mut() = s;
                }
            }
        }
    }

    fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            out.accumulate(m.clone(), c.clone());
        }
        out
    }

    fn sub(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            out.accumulate(m.clone(), c.negated());
        }
        out
    }

    fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let mut m = ma.clone();
                m.extend_from_slice(mb);
                m.sort_unstable();
                out.accumulate(m, ca.mul(cb));
            }
        }
        out
    }

    fn scaled(&self, c: &SInt) -> Poly {
        let mut out = Poly::zero();
        for (m, k) in &self.terms {
            out.accumulate(m.clone(), k.mul(c));
        }
        out
    }

    /// `self · 2^32`.
    fn shl32(&self) -> Poly {
        self.scaled(&SInt::from_ubig(UBig::one().shl(32)))
    }

    fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Largest value the polynomial can take over the symbol box:
    /// positive terms at each symbol's upper bound, negative terms at the
    /// lower bound. Sound for any assignment inside the box.
    fn upper_bound(&self, bounds: &[(u32, u32)]) -> SInt {
        let mut total = SInt::zero();
        for (m, c) in &self.terms {
            let mut v = c.clone();
            for &id in m {
                let (lo, hi) = bounds[id as usize];
                let at = if c.neg { lo } else { hi };
                v = v.mul(&SInt::from(u64::from(at)));
            }
            total = total.add(&v);
        }
        total
    }
}

/// A register value during symbolic execution: its exact polynomial and a
/// clamped concrete upper bound (register values are 32-bit, so `2^32−1`
/// always applies).
#[derive(Debug, Clone)]
struct Val {
    poly: Poly,
    hi: u64,
}

impl Val {
    fn constant(v: u32) -> Self {
        Self {
            poly: Poly::constant(SInt::from(u64::from(v))),
            hi: u64::from(v),
        }
    }
}

/// Abort threshold: certificates past this size indicate a kernel shape
/// this prover was never meant for.
const MAX_TERMS: usize = 50_000;

struct SymExec<'a> {
    assumptions: &'a RangeAssumptions,
    entry_regs: &'a [Interval],
    entry_cc: Interval,
    regs: Vec<Option<Val>>,
    cc: Option<Val>,
    sym_bounds: Vec<(u32, u32)>,
    /// Product-polynomial → high-half symbol, so both halves of the same
    /// product share one symbol and cancel in weighted sums.
    split_memo: Vec<(Poly, u32)>,
}

impl<'a> SymExec<'a> {
    fn new(
        num_regs: usize,
        entry_regs: &'a [Interval],
        entry_cc: Interval,
        assumptions: &'a RangeAssumptions,
    ) -> Self {
        Self {
            assumptions,
            entry_regs,
            entry_cc,
            regs: vec![None; num_regs],
            cc: None,
            sym_bounds: Vec::new(),
            split_memo: Vec::new(),
        }
    }

    fn fresh(&mut self, lo: u32, hi: u32) -> Val {
        let id = self.sym_bounds.len() as u32;
        self.sym_bounds.push((lo, hi));
        Val {
            poly: Poly::symbol(id),
            hi: u64::from(hi),
        }
    }

    fn of_interval(&mut self, iv: Interval) -> Val {
        if iv.is_exact() {
            Val::constant(iv.lo)
        } else {
            self.fresh(iv.lo, iv.hi)
        }
    }

    fn reg(&mut self, r: usize) -> Val {
        if self.regs[r].is_none() {
            let iv = self
                .entry_regs
                .get(r)
                .copied()
                .unwrap_or_else(Interval::full);
            let v = self.of_interval(iv);
            self.regs[r] = Some(v);
        }
        self.regs[r].clone().expect("just initialized")
    }

    fn src(&mut self, s: &Src) -> Val {
        match s {
            Src::Imm(v) => Val::constant(*v),
            Src::Reg(r) => self.reg(*r as usize),
        }
    }

    fn carry(&mut self) -> Val {
        if self.cc.is_none() {
            let v = self.of_interval(self.entry_cc);
            self.cc = Some(v);
        }
        self.cc.clone().expect("just initialized")
    }

    fn set_reg(&mut self, r: usize, v: Val) {
        self.regs[r] = Some(Val {
            poly: v.poly,
            hi: v.hi.min(MASK32),
        });
    }

    /// Splits a product into low/high halves against a memoized symbol.
    fn split_mul(&mut self, prod: Poly, prod_hi: u128) -> (Val, Val) {
        if prod_hi >> 32 == 0 {
            return (
                Val {
                    poly: prod,
                    hi: prod_hi as u64,
                },
                Val::constant(0),
            );
        }
        let h_hi = (prod_hi >> 32) as u32;
        let h = match self.split_memo.iter().find(|(p, _)| *p == prod) {
            Some((_, id)) => *id,
            None => {
                let id = self.sym_bounds.len() as u32;
                self.sym_bounds.push((0, h_hi));
                self.split_memo.push((prod.clone(), id));
                id
            }
        };
        let lo = prod.sub(&Poly::symbol(h).shl32());
        (
            Val {
                poly: lo,
                hi: (prod_hi as u64).min(MASK32),
            },
            Val {
                poly: Poly::symbol(h),
                hi: u64::from(h_hi),
            },
        )
    }

    /// Splits a sum into `(dst, carry-out)`. Fails when the carry can
    /// exceed one bit (the machine asserts there too).
    fn split_sum(&mut self, sum: Poly, sum_hi: u128) -> Result<(Val, Val), ()> {
        if sum_hi >> 32 == 0 {
            return Ok((
                Val {
                    poly: sum,
                    hi: sum_hi as u64,
                },
                Val::constant(0),
            ));
        }
        if sum_hi >> 33 != 0 {
            return Err(());
        }
        let k = self.fresh(0, 1);
        let dst = sum.sub(&k.poly.shl32());
        Ok((
            Val {
                poly: dst,
                hi: (sum_hi as u64).min(MASK32),
            },
            k,
        ))
    }

    fn exec(&mut self, inst: &Instr) -> Result<(), String> {
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
                let (va, vb, vc) = (self.src(&a), self.src(&b), self.src(&c));
                let prod = va.poly.mul(&vb.poly);
                if prod.num_terms() > MAX_TERMS {
                    return Err("certificate polynomial too large".into());
                }
                let prod_hi = u128::from(va.hi) * u128::from(vb.hi);
                let was_split = prod_hi >> 32 != 0;
                let (lo, hi_half) = self.split_mul(prod, prod_hi);
                let part = if hi { hi_half } else { lo };
                let cin = if use_cc {
                    self.carry()
                } else {
                    Val::constant(0)
                };
                let sum = part.poly.add(&vc.poly).add(&cin.poly);
                let sum_hi = u128::from(part.hi) + u128::from(vc.hi) + u128::from(cin.hi);
                match self.split_sum(sum, sum_hi) {
                    Ok((d, cout)) => {
                        // A low half whose overflow is never captured (no
                        // set_cc) is a deliberate mod-2^32 wrap — the
                        // `m = t₀·inv32` idiom. Its polynomial carries a
                        // dangling `−2^32·h` that can only hurt the
                        // bound; an opaque `[0, 2^32−1]` symbol is what
                        // the textbook argument uses anyway.
                        let d = if !set_cc && !hi && was_split {
                            self.fresh(0, d.hi.min(MASK32) as u32)
                        } else {
                            d
                        };
                        self.set_reg(dst as usize, d);
                        if set_cc {
                            self.cc = Some(cout);
                        }
                    }
                    Err(()) if set_cc => {
                        return Err(format!("IMAD.CC at r{dst} may carry out more than one bit"));
                    }
                    Err(()) => {
                        let cap = (sum_hi.min(u128::from(MASK32))) as u32;
                        let v = self.fresh(0, cap);
                        self.set_reg(dst as usize, v);
                    }
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
                let (va, vb, vc) = (self.src(&a), self.src(&b), self.src(&c));
                let cin = if use_cc {
                    self.carry()
                } else {
                    Val::constant(0)
                };
                let sum = va.poly.add(&vb.poly).add(&vc.poly).add(&cin.poly);
                let sum_hi =
                    u128::from(va.hi) + u128::from(vb.hi) + u128::from(vc.hi) + u128::from(cin.hi);
                match self.split_sum(sum, sum_hi) {
                    Ok((d, cout)) => {
                        self.set_reg(dst as usize, d);
                        if set_cc {
                            self.cc = Some(cout);
                        }
                    }
                    Err(()) if set_cc => {
                        return Err(format!(
                            "IADD3.CC at r{dst} may carry out more than one bit"
                        ));
                    }
                    Err(()) => {
                        let v = self.fresh(0, u32::MAX);
                        self.set_reg(dst as usize, v);
                    }
                }
            }
            Instr::Mov { dst, src } => {
                let v = self.src(&src);
                self.set_reg(dst as usize, v);
            }
            Instr::Ldg { dst, addr, offset } => {
                let iv = self.assumptions.load_interval(addr, offset);
                let v = self.of_interval(iv);
                self.set_reg(dst as usize, v);
            }
            Instr::Shf { dst, .. } | Instr::Lop3 { dst, .. } | Instr::Sel { dst, .. } => {
                // Sound havoc: these never occur inside a CIOS slice.
                let v = self.fresh(0, u32::MAX);
                self.set_reg(dst as usize, v);
            }
            Instr::Setp { .. } | Instr::Stg { .. } => {}
            Instr::Bra { .. } | Instr::Exit => {
                return Err("control transfer inside a chain slice".into());
            }
        }
        Ok(())
    }
}

/// Packs little-endian 32-bit limbs into a [`UBig`].
fn ubig_from_limbs32(limbs: &[u32]) -> UBig {
    let mut v = UBig::zero();
    for &l in limbs.iter().rev() {
        v = v.shl(32).add(&UBig::from(u64::from(l)));
    }
    v
}

/// Attempts to certify `ob` by symbolically executing the straight-line
/// slice `start..ob.pc` from the block-entry intervals. Returns the
/// certified upper bound on success.
pub fn prove_chain(
    program: &Program,
    start: usize,
    entry_regs: &[Interval],
    entry_cc: Interval,
    assumptions: &RangeAssumptions,
    ob: &ValueBound,
) -> Result<UBig, String> {
    let num_regs = entry_regs
        .len()
        .max(ob.regs.iter().map(|&r| r as usize + 1).max().unwrap_or(0));
    let mut exec = SymExec::new(num_regs, entry_regs, entry_cc, assumptions);
    for pc in start..ob.pc {
        exec.exec(&program.fetch(pc))
            .map_err(|e| format!("{e} (pc {pc})"))?;
    }
    // The weighted limb sum Σⱼ 2^{32j}·poly(regⱼ): the carry/high-half
    // cancellations telescope exactly in the polynomial algebra.
    let mut value = Poly::zero();
    let mut weight = SInt::from(1);
    let shift = SInt::from_ubig(UBig::one().shl(32));
    for &r in &ob.regs {
        let v = exec.reg(r as usize);
        value = value.add(&v.poly.scaled(&weight));
        weight = weight.mul(&shift);
    }
    let ub = value.upper_bound(&exec.sym_bounds);
    let bound = ubig_from_limbs32(&ob.bound);
    if ub.neg || ub.abs < bound {
        Ok(if ub.neg { UBig::zero() } else { ub.abs })
    } else {
        Err(format!(
            "certified upper bound needs {} bits, the limit has {} bits",
            ub.abs.num_bits(),
            bound.num_bits()
        ))
    }
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

    fn full_entry(n: usize) -> Vec<Interval> {
        vec![Interval::full(); n]
    }

    #[test]
    fn widening_mul_is_certified_exactly() {
        // d_lo/d_hi = a·b via lo/hi IMAD halves over full-range 32-bit
        // operands: both halves split against the same memoized symbol,
        // so the weighted sum telescopes back to exactly a·b ≤ (2^32−1)².
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.ldg(1, 9, 1);
        b.imad(2, r(0), r(1), imm(0), false, true, false);
        b.imad(3, r(0), r(1), imm(0), true, false, true);
        let at = 4;
        b.stg(2, 9, 2);
        b.stg(3, 9, 3);
        b.exit();
        let p = b.build();
        let ob = ValueBound {
            pc: at,
            regs: vec![2, 3],
            bound: vec![0, 0, 1], // 2^64
            what: "widening product".into(),
        };
        let entry = full_entry(4);
        let ub = prove_chain(
            &p,
            0,
            &entry,
            Interval::new(0, 1),
            &RangeAssumptions::new(),
            &ob,
        )
        .expect("certificate must close");
        // (2^32−1)² exactly: no slack lost to the split.
        let max = UBig::from(u64::from(u32::MAX));
        assert_eq!(ub, max.mul(&max));
    }

    #[test]
    fn carry_chain_telescopes() {
        // Two-limb add: (a1:a0) + (b1:b0) with a carry chain is certified
        // below 2^64 + ... — the intermediate carry symbol cancels.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.ldg(1, 9, 1);
        b.ldg(2, 9, 2);
        b.ldg(3, 9, 3);
        b.iadd3(4, r(0), r(2), imm(0), true, false);
        b.iadd3(5, r(1), r(3), imm(0), false, true);
        let at = 6;
        b.stg(4, 9, 4);
        b.stg(5, 9, 5);
        b.exit();
        let p = b.build();
        let a = RangeAssumptions::new();
        let ob = ValueBound {
            pc: at,
            regs: vec![4, 5],
            bound: vec![0, 0, 1], // 2^64: true sum < 2^65 but the top
            // limb's own carry-out is dropped from the two-limb window,
            // so the window value wraps below 2^64... the certificate
            // must NOT prove this (the final carry is discarded without
            // set_cc capture, leaving a dangling −2^32·k at the top).
            what: "two-limb window".into(),
        };
        let entry = full_entry(6);
        // Dropping the final carry means the dangling −2^64·k keeps the
        // positive part at ~2^65 > 2^64: correctly unprovable.
        assert!(prove_chain(&p, 0, &entry, Interval::new(0, 1), &a, &ob).is_err());

        // With a third limb capturing the carry the sum is exact.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.ldg(1, 9, 1);
        b.ldg(2, 9, 2);
        b.ldg(3, 9, 3);
        b.iadd3(4, r(0), r(2), imm(0), true, false);
        b.iadd3(5, r(1), r(3), imm(0), true, true);
        b.iadd3(6, imm(0), imm(0), imm(0), false, true);
        let at = 7;
        b.stg(4, 9, 4);
        b.exit();
        let p = b.build();
        let ob = ValueBound {
            pc: at,
            regs: vec![4, 5, 6],
            bound: vec![0, 0, 2], // 2·2^64 > max sum = 2·(2^64−1)
            what: "three-limb capture".into(),
        };
        let entry = full_entry(7);
        prove_chain(&p, 0, &entry, Interval::new(0, 1), &a, &ob).expect("captured chain certifies");
    }

    #[test]
    fn discarded_wrap_is_opacified() {
        // m = lo(x · 0xdeadbeef) with no carry capture: m must still be
        // bounded by 2^32 (opaque symbol), not by the raw product poly.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.imad(1, r(0), imm(0xdead_beef), imm(0), false, false, false);
        let at = 2;
        b.stg(1, 9, 1);
        b.exit();
        let p = b.build();
        let ob = ValueBound {
            pc: at,
            regs: vec![1],
            bound: vec![0, 1], // one limb + next limb: < 2^32... the
            what: "wrapped product".into(),
        };
        // bound vector is [0,1] => 2^32; regs len 1 vs bound len 2 is
        // allowed here (prove_chain does not require equal lengths).
        let entry = full_entry(2);
        let ub = prove_chain(
            &p,
            0,
            &entry,
            Interval::new(0, 1),
            &RangeAssumptions::new(),
            &ob,
        )
        .expect("opacified value stays below 2^32");
        assert!(ub < UBig::one().shl(32));
    }
}
