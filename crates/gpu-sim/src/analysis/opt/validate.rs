//! Translation validation by per-block symbolic bisimulation.
//!
//! The validator proves `original ≡ optimized` without trusting any pass:
//! both programs are symbolically executed block by block over a shared
//! hash-consed term arena, and every *observable* of each block — the
//! ordered store sequence (address term, word offset, value term), the
//! terminator (class, target block, branch-condition term), and the value
//! of every live-out resource — must match structurally. Register
//! renaming is handled by seeding the optimized block's entry environment
//! through the renaming map π: optimized register `π(r)` starts as the
//! symbol "original `r` at block entry" when `r` is live-in, and as a
//! unique [`Term::Opaque`] value otherwise, so any read of a stale or
//! ambiguous register can never equal anything on the original side.
//!
//! The equivalence argument is an induction over the (index-aligned)
//! block correspondence: if both machines enter corresponding blocks with
//! equal values in the live-in resources (modulo π) and equal memory,
//! then matching block observables imply they leave with equal live-out
//! values, equal memory, and transfer to corresponding blocks.
//!
//! Design choices, and their soundness consequences:
//!
//! * **Structural equality only.** The validator never folds constants or
//!   applies algebraic identities; `a + b` and `b + a` are distinct. This
//!   is sound (it can only *reject* correct programs, never accept wrong
//!   ones) and is precisely what makes the negative-mutation suite pass:
//!   a swapped operand pair changes the term and is rejected.
//! * **Memory as a term chain.** Loads that cannot be resolved by store
//!   forwarding become `LoadMem(chain, addr, offset)` terms over an
//!   explicit memory-state chain, so two loads only compare equal when
//!   the store *prefixes* they observe are themselves structurally equal.
//!   Provably-disjoint stores (decided by the affine alias oracle from
//!   `addr.rs`) are skipped during forwarding, which is what makes
//!   load/store reordering across disjoint accesses term-invariant.
//! * **Dead-store elision.** An original store may be missing from the
//!   optimized block only when a later store in the same block overwrites
//!   the exact same cell (structurally equal address term and offset) and
//!   every load in between is provably disjoint from that cell.
//! * **Loads are non-faulting.** Like the simulator (and the abstract
//!   machine of `ranges.rs`), a load has no side effect, so dead loads
//!   may be deleted. Stores are always observable events.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;

use crate::analysis::addr::{alias, AffineVal, Alias, Loc, MemContracts};
use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{instr_defs, Liveness, Resource};
use crate::isa::{iadd3, imad, shf, CmpOp, Instr, LogicOp, Pred, Program, Reg, Src};

use super::RegMap;

/// Index into the shared term arena.
pub(super) type TermId = u32;

/// Operator tags for [`Term::Op`]. Carry-producing instructions get a
/// dedicated carry-out operator so the carry flag is a deterministic
/// function of the same arguments as the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum OpKind {
    /// Low 32 bits of `a·b + c + cin` (args `[a, b, c, cin]`).
    ImadLo,
    /// High 32 bits of `a·b + c + cin`.
    ImadHi,
    /// Carry-out of the low-half IMAD addition.
    ImadLoCarry,
    /// Carry-out of the high-half IMAD addition.
    ImadHiCarry,
    /// `a + b + c + cin` (args `[a, b, c, cin]`).
    Add3,
    /// Carry-out of the three-input add.
    Add3Carry,
    /// Left funnel shift (args `[a, b, sh]`).
    ShfL,
    /// Right funnel shift (args `[a, b, sh]`).
    ShfR,
    /// Bitwise AND / OR / XOR (args `[a, b]`).
    Logic(LogicOp),
    /// Unsigned predicate comparison (args `[a, b]`).
    Cmp(CmpOp),
    /// Select (args `[pred, a, b]`).
    Sel,
    /// The memory state at block entry (no args).
    MemInit,
    /// A store applied to a memory state (args `[mem, addr, offset, value]`).
    Store,
    /// A load from a memory state (args `[mem, addr, offset]`).
    LoadMem,
}

/// The argument ids of a [`Term::Op`], stored inline: every operator
/// takes at most four arguments, so interning a term never allocates.
/// Unused slots stay 0, which keeps the derived equality structural.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Args {
    ids: [TermId; 4],
    len: u8,
}

impl<const N: usize> From<[TermId; N]> for Args {
    fn from(args: [TermId; N]) -> Self {
        let mut ids = [0; 4];
        ids[..N].copy_from_slice(&args);
        Self { ids, len: N as u8 }
    }
}

impl Deref for Args {
    type Target = [TermId];

    fn deref(&self) -> &[TermId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl Hash for Args {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.len);
        for &id in self.iter() {
            state.write_u32(id);
        }
    }
}

/// A multiplicative word hasher (the Fx rotate-xor-multiply step) for the
/// maps keyed by term ids, registers and interned terms. Those keys are
/// small integers, where SipHash's flooding resistance buys nothing; no
/// such map is ever iterated, so the hash cannot reach any output.
#[derive(Default)]
pub(super) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`WordHasher`].
pub(super) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A node of the symbolic value language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Term {
    /// The value the *original* program's resource holds at block entry.
    Sym(Resource),
    /// A unique value structurally equal to nothing, not even another
    /// `Opaque` — the entry value of an optimized-side register with no
    /// unambiguous original counterpart.
    Opaque(u32),
    /// A 32-bit constant.
    Const(u32),
    /// An operator applied to argument terms.
    Op(OpKind, Args),
}

/// Hash-consed term arena: structurally equal terms share one id, so
/// equality checks are integer comparisons.
#[derive(Debug, Default)]
pub(super) struct Terms {
    nodes: Vec<Term>,
    /// `bounds[id]` is a sound upper bound on the 32-bit value of term
    /// `id` over every concrete execution (carries and predicates are
    /// 0/1; unknowns are `u32::MAX`). Carry-out folding consults it: a
    /// sum whose operand bounds total below `2^32` provably never
    /// carries — this is the interval argument that proves the CIOS
    /// overflow-word bookkeeping dead.
    bounds: Vec<u64>,
    index: WordMap<Term, TermId>,
    next_opaque: u32,
}

/// Largest 32-bit value, as the bound arithmetic's saturation point.
const WORD_MAX: u64 = u32::MAX as u64;

impl Terms {
    /// An empty arena.
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning the canonical id. Terms are first run
    /// through [`Terms::fold`], so semantically equal values that differ
    /// only by evaluable constants or known-zero carries share one id.
    pub(super) fn intern(&mut self, t: Term) -> TermId {
        if let Some(id) = self.fold(&t) {
            return id;
        }
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let id = self.nodes.len() as TermId;
        let bound = self.compute_bound(&t);
        self.nodes.push(t);
        self.bounds.push(bound);
        self.index.insert(t, id);
        id
    }

    /// A sound upper bound on the concrete value of `t` (whose argument
    /// ids, if any, are already interned). Monotone in every argument:
    /// products bound by the product of bounds, sums by the saturating
    /// sum (a sum that may exceed `2^32 - 1` wraps, so it saturates to
    /// `WORD_MAX` rather than keeping the raw total), carries and
    /// predicates by 1.
    fn compute_bound(&self, t: &Term) -> u64 {
        // A bounded sum: exact if it provably fits in 32 bits, else the
        // conservative word maximum (the value wraps mod 2^32).
        let word_sum = |parts: &[u64]| -> u64 {
            let s: u64 = parts.iter().sum();
            if s <= WORD_MAX {
                s
            } else {
                WORD_MAX
            }
        };
        match t {
            Term::Const(c) => u64::from(*c),
            // The carry flag and predicate registers are 0/1-valued by
            // the machine's semantics, even at block entry.
            Term::Sym(Resource::Carry | Resource::Pred(_)) => 1,
            Term::Sym(Resource::Reg(_)) | Term::Opaque(_) => WORD_MAX,
            Term::Op(kind, args) => {
                let b = |i: usize| self.bounds[args[i] as usize];
                match kind {
                    // Carry-outs and comparisons are single bits.
                    OpKind::ImadLoCarry
                    | OpKind::ImadHiCarry
                    | OpKind::Add3Carry
                    | OpKind::Cmp(_) => 1,
                    OpKind::ImadLo | OpKind::ImadHi => {
                        let prod = b(0) * b(1);
                        // lo(a·b) wraps unless the full product fits;
                        // hi(a·b) = ⌊a·b/2^32⌋ is monotone in a·b.
                        let part = if matches!(kind, OpKind::ImadHi) {
                            prod >> 32
                        } else if prod <= WORD_MAX {
                            prod
                        } else {
                            WORD_MAX
                        };
                        word_sum(&[part, b(2), b(3)])
                    }
                    OpKind::Add3 => word_sum(&[b(0), b(1), b(2), b(3)]),
                    // x & y ≤ min(x, y); x | y and x ^ y ≤ x + y.
                    OpKind::Logic(LogicOp::And) => b(0).min(b(1)),
                    OpKind::Logic(LogicOp::Or | LogicOp::Xor) => word_sum(&[b(0), b(1)]),
                    OpKind::Sel => b(1).max(b(2)),
                    OpKind::ShfL
                    | OpKind::ShfR
                    | OpKind::MemInit
                    | OpKind::Store
                    | OpKind::LoadMem => WORD_MAX,
                }
            }
        }
    }

    /// The carry-out of a sum whose addend *bounds* (product part plus
    /// addend plus carry-in) total at most `WORD_MAX` is provably zero:
    /// no concrete execution can overflow 32 bits.
    fn never_carries(&self, parts: &[u64]) -> bool {
        parts.iter().sum::<u64>() <= WORD_MAX
    }

    /// Sound semantic normalization: all-constant operators evaluate
    /// through the simulator's own ALU ([`crate::isa`]), carry-outs whose
    /// addend constants sum to zero are provably 0 (a single 32-bit
    /// summand cannot overflow alone), `a+0+0+0` is `a`, funnel shifts
    /// by 0 are the pass-through operand, and a constant-predicate
    /// select is the chosen arm. Because both sides of the bisimulation
    /// intern through the same rules, this *refines* structural
    /// equality without ever equating semantically distinct values —
    /// the simplify pass may rewrite exactly what these rules prove.
    fn fold(&mut self, t: &Term) -> Option<TermId> {
        let Term::Op(kind, args) = t else { return None };
        let cv = |id: TermId| match self.nodes[id as usize] {
            Term::Const(c) => Some(c),
            _ => None,
        };
        // Constant values of the argument slots; slots past the arity
        // read as `None` and are never consulted.
        let mut k = [None; 4];
        for (slot, &a) in k.iter_mut().zip(args.iter()) {
            *slot = cv(a);
        }
        // Carry-in slots hold either `Const(0)` (no `use_cc`) or a
        // carry term, which is 0/1-valued by construction; a constant
        // carry-in above 1 never arises, but guard evaluation on it.
        let cin_ok = |c: Option<u32>| c.is_none_or(|v| v <= 1);
        let folded = match kind {
            OpKind::ImadLo | OpKind::ImadHi | OpKind::ImadLoCarry | OpKind::ImadHiCarry => {
                let hi = matches!(kind, OpKind::ImadHi | OpKind::ImadHiCarry);
                let carry = matches!(kind, OpKind::ImadLoCarry | OpKind::ImadHiCarry);
                if let (Some(a), Some(b), Some(c), Some(cin)) = (k[0], k[1], k[2], k[3]) {
                    if !cin_ok(Some(cin)) {
                        return None;
                    }
                    let (v, carry_out) = imad(a, b, c, cin == 1, hi);
                    Term::Const(if carry { u32::from(carry_out) } else { v })
                } else if (k[0] == Some(0) || k[1] == Some(0)) && k[3] == Some(0) {
                    // A zero factor kills the product; with no carry-in
                    // the result is the addend and the carry-out is 0.
                    if carry {
                        Term::Const(0)
                    } else {
                        return Some(args[2]);
                    }
                } else if carry {
                    // Interval rule: if the bounds of the product part,
                    // addend, and carry-in sum below 2^32, no concrete
                    // execution overflows.
                    let b = |i: usize| self.bounds[args[i] as usize];
                    let prod = b(0) * b(1);
                    let part = if hi { prod >> 32 } else { prod.min(WORD_MAX) };
                    if self.never_carries(&[part, b(2), b(3)]) {
                        Term::Const(0)
                    } else {
                        return None;
                    }
                } else {
                    return None;
                }
            }
            OpKind::Add3 | OpKind::Add3Carry => {
                if !cin_ok(k[3]) {
                    return None;
                }
                let syms = k.iter().filter(|v| v.is_none()).count();
                match (*kind, k) {
                    (_, [Some(a), Some(b), Some(c), Some(cin)]) => {
                        let (v, carry_out) = iadd3(a, b, c, cin == 1);
                        Term::Const(if matches!(kind, OpKind::Add3Carry) {
                            carry_out & 1
                        } else {
                            v
                        })
                    }
                    (OpKind::Add3, _) if syms == 1 && k.iter().flatten().all(|&c| c == 0) => {
                        return k.iter().position(Option::is_none).map(|i| args[i])
                    }
                    // Interval rule: addend bounds summing below 2^32
                    // prove the carry-out is zero on every execution —
                    // this is what retires the CIOS overflow word, whose
                    // running value is a sum of prior 0/1 carries.
                    (OpKind::Add3Carry, _)
                        if self.never_carries(&[
                            self.bounds[args[0] as usize],
                            self.bounds[args[1] as usize],
                            self.bounds[args[2] as usize],
                            self.bounds[args[3] as usize],
                        ]) =>
                    {
                        Term::Const(0)
                    }
                    _ => return None,
                }
            }
            OpKind::ShfL | OpKind::ShfR => match k[2] {
                Some(s) if s & 31 == 0 => return Some(args[0]),
                Some(s) => {
                    let (Some(v), Some(f)) = (k[0], k[1]) else {
                        return None;
                    };
                    Term::Const(shf(v, f, s, matches!(kind, OpKind::ShfR)))
                }
                None => return None,
            },
            OpKind::Logic(op) => match (k[0], k[1]) {
                (Some(a), Some(b)) => Term::Const(op.eval(a, b)),
                _ => return None,
            },
            OpKind::Cmp(cmp) => match (k[0], k[1]) {
                (Some(a), Some(b)) => Term::Const(u32::from(cmp.eval(a, b))),
                _ => return None,
            },
            OpKind::Sel => match k[0] {
                Some(p) => return Some(args[if p & 1 == 1 { 1 } else { 2 }]),
                None => return None,
            },
            OpKind::MemInit | OpKind::Store | OpKind::LoadMem => return None,
        };
        Some(self.intern(folded))
    }

    /// Interns the constant `c`.
    pub(super) fn konst(&mut self, c: u32) -> TermId {
        self.intern(Term::Const(c))
    }

    /// A fresh opaque term, distinct from every other term ever made.
    pub(super) fn opaque(&mut self) -> TermId {
        let n = self.next_opaque;
        self.next_opaque += 1;
        self.intern(Term::Opaque(n))
    }

    /// The node behind an id.
    pub(super) fn get(&self, id: TermId) -> &Term {
        &self.nodes[id as usize]
    }
}

/// How an environment resolves a register read with no recorded binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnvDefault {
    /// Bind to `Sym(resource)` — the original side, where every entry
    /// value is by definition "whatever the original machine holds".
    Symbolic,
    /// Bind to a fresh `Opaque` — the optimized side, where an unseeded
    /// register holds a value with no proven original counterpart.
    Opaque,
}

/// Marks a register slot of [`Env`] with no binding yet.
const UNBOUND: TermId = TermId::MAX;

/// A symbolic machine state: register file, predicates, carry.
#[derive(Debug, Clone)]
pub(super) struct Env {
    /// `regs[r]`: the term register `r` holds, or [`UNBOUND`].
    regs: Vec<TermId>,
    preds: [TermId; 4],
    cc: TermId,
    default: EnvDefault,
}

impl Env {
    /// The original side's entry environment: every resource reads as its
    /// own entry symbol.
    pub(super) fn symbolic(terms: &mut Terms) -> Env {
        Env {
            regs: Vec::new(),
            preds: core::array::from_fn(|p| terms.intern(Term::Sym(Resource::Pred(p as Pred)))),
            cc: terms.intern(Term::Sym(Resource::Carry)),
            default: EnvDefault::Symbolic,
        }
    }

    /// The optimized side's entry environment for one block: `π(r)` is
    /// seeded with `Sym(r)` for each unambiguous live-in register `r`,
    /// and live-in predicates/carry with their own symbols; everything
    /// else defaults to fresh opaques on first read.
    pub(super) fn renamed(terms: &mut Terms, live_in: &[Resource], map: &RegMap) -> Env {
        let mut claimed: WordMap<Reg, u32> = WordMap::default();
        for r in live_in {
            if let Resource::Reg(r) = r {
                *claimed.entry(map.get(*r)).or_insert(0) += 1;
            }
        }
        let mut env = Env {
            regs: Vec::new(),
            preds: [0; 4],
            cc: 0,
            default: EnvDefault::Opaque,
        };
        for r in live_in {
            if let Resource::Reg(r) = r {
                let q = map.get(*r);
                if claimed.get(&q) == Some(&1) {
                    let t = terms.intern(Term::Sym(Resource::Reg(*r)));
                    env.set(q, t);
                }
            }
        }
        for (p, slot) in env.preds.iter_mut().enumerate() {
            *slot = if live_in.contains(&Resource::Pred(p as Pred)) {
                terms.intern(Term::Sym(Resource::Pred(p as Pred)))
            } else {
                terms.opaque()
            };
        }
        env.cc = if live_in.contains(&Resource::Carry) {
            terms.intern(Term::Sym(Resource::Carry))
        } else {
            terms.opaque()
        };
        env
    }

    /// Binds register `r` to term `t`.
    fn set(&mut self, r: Reg, t: TermId) {
        let r = usize::from(r);
        if r >= self.regs.len() {
            self.regs.resize(r + 1, UNBOUND);
        }
        self.regs[r] = t;
    }

    /// The term a register read yields (binding a default on first read).
    pub(super) fn reg(&mut self, terms: &mut Terms, r: Reg) -> TermId {
        match self.regs.get(usize::from(r)) {
            Some(&t) if t != UNBOUND => return t,
            _ => {}
        }
        let t = match self.default {
            EnvDefault::Symbolic => terms.intern(Term::Sym(Resource::Reg(r))),
            EnvDefault::Opaque => terms.opaque(),
        };
        self.set(r, t);
        t
    }

    /// The term a predicate read yields.
    pub(super) fn pred(&self, p: Pred) -> TermId {
        self.preds[p as usize]
    }

    /// The carry-flag term.
    pub(super) fn carry(&self) -> TermId {
        self.cc
    }

    fn src(&mut self, terms: &mut Terms, s: Src) -> TermId {
        match s {
            Src::Reg(r) => self.reg(terms, r),
            Src::Imm(i) => terms.konst(i),
        }
    }
}

/// The alias oracle the symbolic engine consults: declared region strides
/// for contract registers that are *never redefined* by the original
/// program (so their block-entry symbol provably still holds the region
/// base), plus the warp geometry.
#[derive(Debug, Clone)]
pub(super) struct MemOracle {
    strides: WordMap<Reg, i64>,
    warp_size: u32,
}

impl MemOracle {
    /// Builds the oracle for `program` under `contracts`. A contract
    /// register that the program writes anywhere loses its region
    /// meaning (its entry symbol in later blocks may not be the base).
    pub(super) fn new(program: &Program, contracts: &MemContracts, warp_size: u32) -> Self {
        let mut redefined: Vec<Reg> = Vec::new();
        for pc in 0..program.len() {
            instr_defs(&program.fetch(pc), |r| {
                if let Resource::Reg(x) = r {
                    redefined.push(x);
                }
            });
        }
        let mut strides = WordMap::default();
        for c in contracts.all() {
            if !redefined.contains(&c.reg) {
                strides.insert(c.reg, i64::from(c.lane_stride_words));
            }
        }
        Self { strides, warp_size }
    }

    /// Whether two accesses are provably disjoint across all lane pairs.
    pub(super) fn provably_distinct(&self, a: Option<Loc>, b: Option<Loc>) -> bool {
        matches!((a, b), (Some(x), Some(y)) if alias(x, y, self.warp_size) == Alias::No)
    }
}

/// Reduces a term to the affine-in-the-lane domain of `addr.rs`,
/// mirroring the transfer functions of `analyze_addresses` so the
/// optimizer and the address analysis agree on which accesses are
/// provable.
fn affine_of(
    terms: &Terms,
    oracle: &MemOracle,
    memo: &mut WordMap<TermId, AffineVal>,
    id: TermId,
) -> AffineVal {
    if let Some(&v) = memo.get(&id) {
        return v;
    }
    let v = match terms.get(id) {
        Term::Const(c) => AffineVal::constant(i64::from(*c)),
        Term::Sym(Resource::Reg(r)) => match oracle.strides.get(r) {
            Some(&stride) => AffineVal::Affine {
                base: Some(*r),
                lane_coeff: stride,
                offset: 0,
            },
            None => AffineVal::Unknown,
        },
        Term::Sym(_) | Term::Opaque(_) => AffineVal::Unknown,
        Term::Op(kind, args) => {
            let args = *args;
            match kind {
                OpKind::Add3 if matches!(terms.get(args[3]), Term::Const(0)) => {
                    let a = affine_of(terms, oracle, memo, args[0]);
                    let b = affine_of(terms, oracle, memo, args[1]);
                    let c = affine_of(terms, oracle, memo, args[2]);
                    affine_add(affine_add(a, b), c)
                }
                OpKind::ImadLo if matches!(terms.get(args[3]), Term::Const(0)) => {
                    let a = affine_of(terms, oracle, memo, args[0]);
                    let b = affine_of(terms, oracle, memo, args[1]);
                    let c = affine_of(terms, oracle, memo, args[2]);
                    let scaled = match (affine_const(a), affine_const(b)) {
                        (Some(k), _) => affine_scale(b, k),
                        (_, Some(k)) => affine_scale(a, k),
                        _ => AffineVal::Unknown,
                    };
                    affine_add(scaled, c)
                }
                _ => AffineVal::Unknown,
            }
        }
    };
    memo.insert(id, v);
    v
}

fn affine_const(v: AffineVal) -> Option<i64> {
    match v {
        AffineVal::Affine {
            base: None,
            lane_coeff: 0,
            offset,
        } => Some(offset),
        _ => None,
    }
}

fn affine_add(a: AffineVal, b: AffineVal) -> AffineVal {
    match (a, b) {
        (
            AffineVal::Affine {
                base: b1,
                lane_coeff: k1,
                offset: c1,
            },
            AffineVal::Affine {
                base: b2,
                lane_coeff: k2,
                offset: c2,
            },
        ) => {
            let base = match (b1, b2) {
                (None, x) | (x, None) => x,
                (Some(_), Some(_)) => return AffineVal::Unknown,
            };
            AffineVal::Affine {
                base,
                lane_coeff: k1 + k2,
                offset: c1.wrapping_add(c2),
            }
        }
        _ => AffineVal::Unknown,
    }
}

fn affine_scale(a: AffineVal, m: i64) -> AffineVal {
    match a {
        AffineVal::Affine {
            base: None,
            lane_coeff,
            offset,
        } => AffineVal::Affine {
            base: None,
            lane_coeff: lane_coeff * m,
            offset: offset.wrapping_mul(m),
        },
        _ => AffineVal::Unknown,
    }
}

/// One store event observed while executing a block.
#[derive(Debug, Clone, Copy)]
pub(super) struct StoreEvent {
    /// Event index in the block's combined load/store order.
    pub event: usize,
    /// pc of the `STG`.
    pub pc: usize,
    /// Address-register term.
    pub addr: TermId,
    /// Constant word offset of the instruction.
    pub offset: u32,
    /// Stored value term.
    pub value: TermId,
    /// Affine location, when the address term is provable.
    pub loc: Option<Loc>,
}

/// One load event observed while executing a block.
#[derive(Debug, Clone, Copy)]
pub(super) struct LoadEvent {
    /// Event index in the block's combined load/store order.
    pub event: usize,
    /// pc of the `LDG`.
    pub pc: usize,
    /// Affine location, when provable.
    pub loc: Option<Loc>,
    /// The value term the load produced (forwarded or a `LoadMem`).
    pub value: TermId,
}

/// Symbolic execution of one basic block: steps instructions, maintains
/// the environment, the memory-state chain, and the load/store event
/// lists. Shared by the validator, the CSE/DSE passes, and the list
/// scheduler so every transform reasons with exactly the semantics the
/// validator will later check.
#[derive(Debug)]
pub(super) struct BlockSym {
    /// The evolving machine state.
    pub env: Env,
    /// Stores in execution order.
    pub stores: Vec<StoreEvent>,
    /// Loads in execution order.
    pub loads: Vec<LoadEvent>,
    /// Memory-chain term after each store (`chain[i]` = after store `i`).
    chain: Vec<TermId>,
    mem0: TermId,
    events: usize,
    affine_memo: WordMap<TermId, AffineVal>,
}

impl BlockSym {
    /// Starts a block execution from `env`.
    pub(super) fn new(terms: &mut Terms, env: Env) -> Self {
        let mem0 = terms.intern(Term::Op(OpKind::MemInit, Args::default()));
        Self {
            env,
            stores: Vec::new(),
            loads: Vec::new(),
            chain: Vec::new(),
            mem0,
            events: 0,
            affine_memo: WordMap::default(),
        }
    }

    fn loc_of(
        &mut self,
        terms: &Terms,
        oracle: &MemOracle,
        addr: TermId,
        offset: u32,
    ) -> Option<Loc> {
        let v = affine_of(terms, oracle, &mut self.affine_memo, addr);
        Loc::of(v, offset)
    }

    /// Executes one instruction. `BRA`/`EXIT` are no-ops here (the
    /// terminator is classified separately by the validator).
    pub(super) fn step(&mut self, terms: &mut Terms, oracle: &MemOracle, pc: usize, inst: &Instr) {
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
                let ta = self.env.src(terms, a);
                let tb = self.env.src(terms, b);
                let tc = self.env.src(terms, c);
                let cin = if use_cc { self.env.cc } else { terms.konst(0) };
                let args = [ta, tb, tc, cin].into();
                let kind = if hi { OpKind::ImadHi } else { OpKind::ImadLo };
                let t = terms.intern(Term::Op(kind, args));
                self.env.set(dst, t);
                if set_cc {
                    let ck = if hi {
                        OpKind::ImadHiCarry
                    } else {
                        OpKind::ImadLoCarry
                    };
                    self.env.cc = terms.intern(Term::Op(ck, args));
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
                let ta = self.env.src(terms, a);
                let tb = self.env.src(terms, b);
                let tc = self.env.src(terms, c);
                let cin = if use_cc { self.env.cc } else { terms.konst(0) };
                let args = [ta, tb, tc, cin].into();
                let t = terms.intern(Term::Op(OpKind::Add3, args));
                self.env.set(dst, t);
                if set_cc {
                    self.env.cc = terms.intern(Term::Op(OpKind::Add3Carry, args));
                }
            }
            Instr::Shf {
                dst,
                a,
                b,
                sh,
                right,
            } => {
                let ta = self.env.src(terms, a);
                let tb = self.env.src(terms, b);
                let tsh = self.env.src(terms, sh);
                let kind = if right { OpKind::ShfR } else { OpKind::ShfL };
                let t = terms.intern(Term::Op(kind, [ta, tb, tsh].into()));
                self.env.set(dst, t);
            }
            Instr::Lop3 { dst, a, b, op } => {
                let ta = self.env.src(terms, a);
                let tb = self.env.src(terms, b);
                let t = terms.intern(Term::Op(OpKind::Logic(op), [ta, tb].into()));
                self.env.set(dst, t);
            }
            Instr::Mov { dst, src } => {
                let t = self.env.src(terms, src);
                self.env.set(dst, t);
            }
            Instr::Setp { pred, a, b, cmp } => {
                let ta = self.env.src(terms, a);
                let tb = self.env.src(terms, b);
                let t = terms.intern(Term::Op(OpKind::Cmp(cmp), [ta, tb].into()));
                self.env.preds[pred as usize] = t;
            }
            Instr::Sel { dst, a, b, pred } => {
                let tp = self.env.pred(pred);
                let ta = self.env.src(terms, a);
                let tb = self.env.src(terms, b);
                let t = terms.intern(Term::Op(OpKind::Sel, [tp, ta, tb].into()));
                self.env.set(dst, t);
            }
            Instr::Ldg { dst, addr, offset } => {
                let ta = self.env.reg(terms, addr);
                let loc = self.loc_of(terms, oracle, ta, offset);
                let value = self.resolve_load(terms, oracle, ta, offset, loc);
                self.env.set(dst, value);
                self.loads.push(LoadEvent {
                    event: self.events,
                    pc,
                    loc,
                    value,
                });
                self.events += 1;
            }
            Instr::Stg { src, addr, offset } => {
                let value = self.env.reg(terms, src);
                let ta = self.env.reg(terms, addr);
                let loc = self.loc_of(terms, oracle, ta, offset);
                let prev = self.chain.last().copied().unwrap_or(self.mem0);
                let off = terms.konst(offset);
                let next = terms.intern(Term::Op(OpKind::Store, [prev, ta, off, value].into()));
                self.chain.push(next);
                self.stores.push(StoreEvent {
                    event: self.events,
                    pc,
                    addr: ta,
                    offset,
                    value,
                    loc,
                });
                self.events += 1;
            }
            Instr::Bra { .. } | Instr::Exit => {}
        }
    }

    /// The memory-chain terms after each store, in store order (for the
    /// DSE pass's chain-safety check).
    pub(super) fn chain(&self) -> &[TermId] {
        &self.chain
    }

    /// Resolves a load against the block's store list: forward from the
    /// youngest store to the structurally same cell, skipping stores the
    /// oracle proves disjoint; otherwise read the memory chain truncated
    /// at the blocking store.
    fn resolve_load(
        &mut self,
        terms: &mut Terms,
        oracle: &MemOracle,
        addr: TermId,
        offset: u32,
        loc: Option<Loc>,
    ) -> TermId {
        for (i, s) in self.stores.iter().enumerate().rev() {
            if s.addr == addr && s.offset == offset {
                return s.value;
            }
            if oracle.provably_distinct(loc, s.loc) {
                continue;
            }
            let mem = self.chain[i];
            let off = terms.konst(offset);
            return terms.intern(Term::Op(OpKind::LoadMem, [mem, addr, off].into()));
        }
        let off = terms.konst(offset);
        terms.intern(Term::Op(OpKind::LoadMem, [self.mem0, addr, off].into()))
    }
}

/// Live-in resources of block `b` (live-out minus defs plus upward-
/// exposed uses, computed by walking the block backward).
pub(super) fn block_live_in(
    live: &Liveness,
    cfg: &Cfg,
    program: &Program,
    b: usize,
) -> Vec<Resource> {
    let blk = &cfg.blocks[b];
    let mut set = live.live_out[b].clone();
    for pc in (blk.start..blk.end).rev() {
        let inst = program.fetch(pc);
        crate::analysis::dataflow::instr_defs(&inst, |r| set.remove(live.map.index(r)));
        crate::analysis::dataflow::instr_uses(&inst, |r| set.insert(live.map.index(r)));
    }
    (0..live.map.len())
        .filter(|&i| set.contains(i))
        .map(|i| live.map.resource(i))
        .collect()
}

/// Why the validator rejected an optimized program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// One of the programs has no instructions.
    EmptyProgram,
    /// The programs have different numbers of basic blocks.
    BlockCountMismatch {
        /// Block count of the original.
        original: usize,
        /// Block count of the optimized program.
        optimized: usize,
    },
    /// A block is reachable in one program but not the other.
    ReachabilityMismatch {
        /// The first differing block index.
        block: usize,
    },
    /// Corresponding terminators differ in class, target block, polarity,
    /// or branch-condition term.
    TerminatorMismatch {
        /// The offending block.
        block: usize,
    },
    /// An original store has no matching optimized store and is not
    /// provably dead within the block.
    StoreMismatch {
        /// The offending block.
        block: usize,
        /// Index of the store in the original block's store order.
        store: usize,
    },
    /// The optimized block performs stores the original never did.
    ExtraStores {
        /// The offending block.
        block: usize,
        /// Number of unmatched optimized stores.
        extra: usize,
    },
    /// A live-out resource's symbolic value differs between programs.
    LiveOutMismatch {
        /// The offending block.
        block: usize,
        /// The original-program resource whose value differs.
        resource: Resource,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::EmptyProgram => write!(f, "cannot validate an empty program"),
            ValidateError::BlockCountMismatch {
                original,
                optimized,
            } => write!(
                f,
                "block count mismatch: original has {original}, optimized has {optimized}"
            ),
            ValidateError::ReachabilityMismatch { block } => {
                write!(f, "block {block}: reachability differs between programs")
            }
            ValidateError::TerminatorMismatch { block } => {
                write!(f, "block {block}: terminators are not equivalent")
            }
            ValidateError::StoreMismatch { block, store } => write!(
                f,
                "block {block}: original store #{store} is unmatched and not provably dead"
            ),
            ValidateError::ExtraStores { block, extra } => {
                write!(
                    f,
                    "block {block}: optimized program performs {extra} extra store(s)"
                )
            }
            ValidateError::LiveOutMismatch { block, resource } => {
                write!(f, "block {block}: live-out value of {resource} differs")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// The per-block record of a successful validation.
#[derive(Debug, Clone)]
pub struct BlockCheck {
    /// Block index (shared between the programs).
    pub block: usize,
    /// Whether the block was semantically checked (unreachable blocks
    /// are structurally matched but not executed).
    pub checked: bool,
    /// Stores matched one-to-one between the programs.
    pub stores_matched: usize,
    /// Original stores proven dead and elided by the optimized program.
    pub stores_elided: usize,
    /// Live-out resources whose values were proven equal.
    pub live_out_checked: usize,
    /// Terminator class (`"exit"`, `"jump"`, `"cond"`, `"fall"`).
    pub terminator: &'static str,
}

/// A machine-checked equivalence certificate: one [`BlockCheck`] per
/// basic block. Produced only when every observable matched.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Per-block check records, in block order.
    pub blocks: Vec<BlockCheck>,
}

impl Certificate {
    /// Total stores matched across all blocks.
    pub fn stores_matched(&self) -> usize {
        self.blocks.iter().map(|b| b.stores_matched).sum()
    }

    /// Total original stores proven dead.
    pub fn stores_elided(&self) -> usize {
        self.blocks.iter().map(|b| b.stores_elided).sum()
    }

    /// Total live-out equalities proven.
    pub fn live_out_checked(&self) -> usize {
        self.blocks.iter().map(|b| b.live_out_checked).sum()
    }

    /// JSON rendering of the certificate.
    pub fn to_json(&self) -> String {
        let blocks: Vec<String> = self
            .blocks
            .iter()
            .map(|b| {
                format!(
                    "{{\"block\":{},\"checked\":{},\"stores_matched\":{},\"stores_elided\":{},\"live_out_checked\":{},\"terminator\":\"{}\"}}",
                    b.block, b.checked, b.stores_matched, b.stores_elided, b.live_out_checked, b.terminator
                )
            })
            .collect();
        format!(
            "{{\"blocks\":[{}],\"stores_matched\":{},\"stores_elided\":{},\"live_out_checked\":{}}}",
            blocks.join(","),
            self.stores_matched(),
            self.stores_elided(),
            self.live_out_checked()
        )
    }
}

/// Terminator classification used for block correspondence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermClass {
    Exit,
    Jump {
        target: usize,
    },
    Cond {
        target: usize,
        pred_term: TermId,
        polarity: bool,
    },
    Fall,
}

fn classify_terminator(program: &Program, cfg: &Cfg, block: usize, env: &Env) -> Option<TermClass> {
    let blk = &cfg.blocks[block];
    match program.fetch(blk.terminator_pc()) {
        Instr::Exit => Some(TermClass::Exit),
        Instr::Bra { target, pred } => {
            if target >= program.len() {
                return None;
            }
            let tb = cfg.block_of[target];
            match pred {
                None => Some(TermClass::Jump { target: tb }),
                Some((p, polarity)) => Some(TermClass::Cond {
                    target: tb,
                    pred_term: env.pred(p),
                    polarity,
                }),
            }
        }
        _ => Some(TermClass::Fall),
    }
}

fn terminator_label(t: TermClass) -> &'static str {
    match t {
        TermClass::Exit => "exit",
        TermClass::Jump { .. } => "jump",
        TermClass::Cond { .. } => "cond",
        TermClass::Fall => "fall",
    }
}

/// Matches the original block's store sequence against the optimized
/// one. Stores must correspond in order and structurally; an original
/// store may be elided only when provably dead within the block.
fn match_stores(
    block: usize,
    orig: &BlockSym,
    opt: &BlockSym,
    oracle: &MemOracle,
) -> Result<(usize, usize), ValidateError> {
    let mut matched = 0usize;
    let mut elided = 0usize;
    let mut j = 0usize;
    for (i, s) in orig.stores.iter().enumerate() {
        let exact = opt
            .stores
            .get(j)
            .is_some_and(|q| q.addr == s.addr && q.offset == s.offset && q.value == s.value);
        if exact {
            j += 1;
            matched += 1;
            continue;
        }
        if store_is_dead(orig, i, oracle) {
            elided += 1;
            continue;
        }
        return Err(ValidateError::StoreMismatch { block, store: i });
    }
    if j < opt.stores.len() {
        return Err(ValidateError::ExtraStores {
            block,
            extra: opt.stores.len() - j,
        });
    }
    Ok((matched, elided))
}

/// Whether original store `i` is dead within its block: a later store
/// overwrites the structurally same cell, and every load in between is
/// provably disjoint from that cell.
pub(super) fn store_is_dead(orig: &BlockSym, i: usize, oracle: &MemOracle) -> bool {
    let s = &orig.stores[i];
    let Some(k) = orig
        .stores
        .iter()
        .skip(i + 1)
        .find(|t| t.addr == s.addr && t.offset == s.offset)
    else {
        return false;
    };
    orig.loads
        .iter()
        .filter(|l| l.event > s.event && l.event < k.event)
        .all(|l| oracle.provably_distinct(l.loc, s.loc))
}

/// Validates that `optimized` is observationally equivalent to
/// `original` under the register renaming `reg_map`, returning the
/// per-block [`Certificate`] on success.
///
/// `contracts` declares the address regions (as for `analyze_memory`);
/// `warp_size` fixes the lane geometry the alias oracle enumerates.
pub fn validate(
    original: &Program,
    optimized: &Program,
    reg_map: &RegMap,
    contracts: &MemContracts,
    warp_size: u32,
) -> Result<Certificate, ValidateError> {
    if original.is_empty() || optimized.is_empty() {
        return Err(ValidateError::EmptyProgram);
    }
    let cfg_o = Cfg::build(original);
    let cfg_q = Cfg::build(optimized);
    if cfg_o.blocks.len() != cfg_q.blocks.len() {
        return Err(ValidateError::BlockCountMismatch {
            original: cfg_o.blocks.len(),
            optimized: cfg_q.blocks.len(),
        });
    }
    for b in 0..cfg_o.blocks.len() {
        if cfg_o.reachable[b] != cfg_q.reachable[b] {
            return Err(ValidateError::ReachabilityMismatch { block: b });
        }
        if cfg_o.blocks[b].falls_off_end != cfg_q.blocks[b].falls_off_end {
            return Err(ValidateError::TerminatorMismatch { block: b });
        }
    }
    let live = Liveness::compute(original, &cfg_o);
    let oracle = MemOracle::new(original, contracts, warp_size);

    let mut checks = Vec::with_capacity(cfg_o.blocks.len());
    for b in 0..cfg_o.blocks.len() {
        if !cfg_o.reachable[b] {
            checks.push(BlockCheck {
                block: b,
                checked: false,
                stores_matched: 0,
                stores_elided: 0,
                live_out_checked: 0,
                terminator: "unreachable",
            });
            continue;
        }
        let mut terms = Terms::new();
        let live_in = block_live_in(&live, &cfg_o, original, b);

        // Execute the original block with a fully symbolic entry state.
        let sym_env = Env::symbolic(&mut terms);
        let mut orig = BlockSym::new(&mut terms, sym_env);
        let ob = &cfg_o.blocks[b];
        for pc in ob.start..ob.end {
            orig.step(&mut terms, &oracle, pc, &original.fetch(pc));
        }

        // Execute the optimized block with the renamed entry state.
        let entry = Env::renamed(&mut terms, &live_in, reg_map);
        let mut opt = BlockSym::new(&mut terms, entry);
        let qb = &cfg_q.blocks[b];
        for pc in qb.start..qb.end {
            opt.step(&mut terms, &oracle, pc, &optimized.fetch(pc));
        }

        // Terminators: same class, same target block, same condition.
        let to = classify_terminator(original, &cfg_o, b, &orig.env);
        let tq = classify_terminator(optimized, &cfg_q, b, &opt.env);
        let (to, tq) = match (to, tq) {
            (Some(x), Some(y)) => (x, y),
            _ => return Err(ValidateError::TerminatorMismatch { block: b }),
        };
        if to != tq {
            return Err(ValidateError::TerminatorMismatch { block: b });
        }

        // Stores: ordered match with dead-store elision.
        let (stores_matched, stores_elided) = match_stores(b, &orig, &opt, &oracle)?;

        // Live-out values, modulo the register renaming.
        let mut live_out_checked = 0usize;
        for i in 0..live.map.len() {
            if !live.live_out[b].contains(i) {
                continue;
            }
            let r = live.map.resource(i);
            let (t_orig, t_opt) = match r {
                Resource::Reg(x) => (
                    orig.env.reg(&mut terms, x),
                    opt.env.reg(&mut terms, reg_map.get(x)),
                ),
                Resource::Pred(p) => (orig.env.pred(p), opt.env.pred(p)),
                Resource::Carry => (orig.env.carry(), opt.env.carry()),
            };
            if t_orig != t_opt {
                return Err(ValidateError::LiveOutMismatch {
                    block: b,
                    resource: r,
                });
            }
            live_out_checked += 1;
        }

        checks.push(BlockCheck {
            block: b,
            checked: true,
            stores_matched,
            stores_elided,
            live_out_checked,
            terminator: terminator_label(to),
        });
    }
    Ok(Certificate { blocks: checks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::schedule::ConstState;
    use crate::isa::ProgramBuilder;
    use crate::machine::{Machine, SmspConfig, WarpInit};
    use proptest::prelude::*;

    /// Working registers of the random programs; `ADDR` stays zero.
    const REGS: u16 = 8;
    const ADDR: u16 = REGS + 2;

    /// Decodes 64 random bits into one ALU instruction over `r0..REGS`.
    fn decode(bits: u64, b: &mut ProgramBuilder) {
        const EDGES: [u32; 4] = [0, 1, u32::MAX, 0x8000_0000];
        let field = |shift: u32, width: u32| (bits >> shift) as u32 & ((1 << width) - 1);
        let reg = |shift: u32| field(shift, 3) as u16;
        let src = |shift: u32| match field(shift, 5) {
            k @ 0..=3 => Src::Imm(EDGES[k as usize]),
            4..=7 => Src::Imm((bits >> 32) as u32),
            k => Src::Reg((k & 7) as u16),
        };
        let flag = |shift: u32| field(shift, 1) == 1;
        let (dst, a, bb, c) = (reg(4), src(7), src(12), src(17));
        match field(0, 4) {
            0..=3 => b.imad(dst, a, bb, c, flag(22), flag(23), flag(24)),
            // With a carry-out the third addend is 0: three full words
            // overflow the one carry bit and the simulator asserts.
            4..=6 if flag(23) => b.iadd3(dst, a, bb, Src::Imm(0), true, flag(24)),
            4..=6 => b.iadd3(dst, a, bb, c, false, flag(24)),
            7..=8 => b.shf(dst, a, bb, c, flag(22)),
            9..=10 => {
                let op = [LogicOp::And, LogicOp::Or, LogicOp::Xor][field(22, 2) as usize % 3];
                b.lop3(dst, a, bb, op);
            }
            11 => b.mov(dst, a),
            12..=13 => {
                let cmp = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][field(22, 2) as usize];
                b.setp(field(25, 2) as u8, a, bb, cmp);
            }
            _ => b.sel(dst, a, bb, field(25, 2) as u8),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The three consumers of the `isa` ALU agree: on a straight-line
        /// program over constant-initialised registers, the simulator's
        /// lane-0 values, the schedule predictor's constant state and the
        /// validator's folded terms are the same numbers.
        #[test]
        fn simulator_constant_folder_and_validator_agree(
            init in prop::collection::vec(any::<u32>(), REGS as usize),
            body in prop::collection::vec(any::<u64>(), 1..48),
        ) {
            let mut b = ProgramBuilder::new();
            // The validator's block entry is symbolic, so the program
            // itself pins every register and flag to a constant first.
            for (r, v) in init.iter().enumerate() {
                b.mov(r as u16, Src::Imm(*v));
            }
            for p in 0..4 {
                b.setp(p, Src::Imm(0), Src::Imm(0), CmpOp::Ne);
            }
            b.iadd3(REGS, Src::Imm(0), Src::Imm(0), Src::Imm(0), true, false);
            for bits in &body {
                decode(*bits, &mut b);
            }
            // Make the flags observable as registers, then store it all.
            b.iadd3(REGS, Src::Imm(0), Src::Imm(0), Src::Imm(0), false, true);
            b.sel(REGS + 1, Src::Imm(1), Src::Imm(0), 0);
            b.mov(ADDR, Src::Imm(0));
            for r in 0..ADDR {
                b.stg(r, ADDR, u32::from(r));
            }
            b.exit();
            let program = b.build();

            let mut machine = Machine::new(SmspConfig::default(), ADDR as usize);
            machine.run(&program, &[WarpInit::default()]);

            let mut folded = ConstState::new(&program);
            let mut terms = Terms::new();
            let oracle = MemOracle::new(&program, &MemContracts::default(), 32);
            let entry = Env::symbolic(&mut terms);
            let mut sym = BlockSym::new(&mut terms, entry);
            for pc in 0..program.len() {
                let inst = program.fetch(pc);
                folded.step(&inst);
                sym.step(&mut terms, &oracle, pc, &inst);
            }

            for r in 0..ADDR {
                let simulated = machine.global_mem[r as usize];
                prop_assert_eq!(folded.regs[r as usize], Some(simulated), "r{}", r);
                let term = sym.env.reg(&mut terms, r);
                prop_assert_eq!(terms.get(term), &Term::Const(simulated), "r{}", r);
            }
        }
    }
}
