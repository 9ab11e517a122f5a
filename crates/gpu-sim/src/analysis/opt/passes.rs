//! The analysis-driven transform passes: block-local constant
//! propagation, redundant-load elimination (CSE), dead-store
//! elimination, and dead-code elimination.
//!
//! Every pass reasons with the *same* symbolic engine the translation
//! validator uses ([`super::validate::BlockSym`]), so a pass only makes
//! a change the validator can later verify: constant propagation folds
//! exactly the operands whose symbolic value is a `Const` term, CSE
//! replaces exactly the loads whose value term is already held in a
//! register, and DSE deletes exactly the stores the validator's
//! dead-store rule elides — with one extra *chain-safety* condition that
//! keeps later unresolvable loads' memory-chain terms intact.

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{instr_defs, instr_uses, map_srcs, Liveness, Resource};
use crate::isa::{Instr, Program, Reg, Src};

use super::validate::{
    store_is_dead, BlockSym, Env, MemOracle, OpKind, Term, TermId, Terms, WordMap,
};

/// The register an instruction writes, when it writes exactly one.
fn def_reg(inst: &Instr) -> Option<Reg> {
    match inst {
        Instr::Imad { dst, .. }
        | Instr::Iadd3 { dst, .. }
        | Instr::Shf { dst, .. }
        | Instr::Lop3 { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Sel { dst, .. }
        | Instr::Ldg { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Whether an instruction writes the carry flag.
fn sets_cc(inst: &Instr) -> bool {
    matches!(
        inst,
        Instr::Imad { set_cc: true, .. } | Instr::Iadd3 { set_cc: true, .. }
    )
}

/// Whether an instruction reads the carry flag.
fn uses_cc(inst: &Instr) -> bool {
    matches!(
        inst,
        Instr::Imad { use_cc: true, .. } | Instr::Iadd3 { use_cc: true, .. }
    )
}

/// The instruction with its carry-in read dropped.
fn with_use_cc_false(mut inst: Instr) -> Instr {
    if let Instr::Imad { use_cc, .. } | Instr::Iadd3 { use_cc, .. } = &mut inst {
        *use_cc = false;
    }
    inst
}

/// The instruction with its carry-out write dropped.
fn with_set_cc_false(mut inst: Instr) -> Instr {
    if let Instr::Imad { set_cc, .. } | Instr::Iadd3 { set_cc, .. } = &mut inst {
        *set_cc = false;
    }
    inst
}

/// Symbolic simplification to a fixpoint: per reachable block, run the
/// validator's own term engine over the instructions and
///
/// * fold every operand whose symbolic value is a `Const` into an
///   immediate (this turns the CIOS accumulator zero-`MOV`s into dead
///   code: `IMAD t, a, b, r(t)` with `t` known 0 becomes
///   `IMAD t, a, b, 0`, leaving the zeroing `MOV` unread);
/// * drop `use_cc` reads when the carry flag is provably 0 at that
///   point (the term arena's carry rules prove, e.g., that a fully
///   folded low-product row of CIOS never carries) — the carry-in slot
///   of the term is `Const(0)` either way, so the rewrite is invisible
///   to the validator;
/// * rewrite an instruction whose result term is a constant (and which
///   writes no carry) to `MOV dst, imm` — row 0 of CIOS collapses its
///   overflow-word bookkeeping this way;
/// * strip `set_cc` writes that are dead (overwritten before any read,
///   per-block with a liveness fallback at the block boundary), which
///   dissolves false carry-flag serialization and frees the list
///   scheduler to overlap provably carry-independent chains.
///
/// Returns the rewritten program and the number of rewrites applied.
pub(super) fn simplify(program: &Program, oracle: &MemOracle) -> (Program, usize) {
    let mut p = program.clone();
    let mut total = 0usize;
    loop {
        let (folded, n1) = fold_round(&p, oracle);
        let (stripped, n2) = strip_dead_set_cc(&folded);
        total += n1 + n2;
        p = stripped;
        // A fold round leaves every term and carry-in slot as it found
        // them, so it rewrites nothing on its own output; only a carry
        // write stripped since it ran (which may unblock a const-to-`MOV`
        // rewrite) can give the next round work.
        if n2 == 0 {
            break;
        }
    }
    (p, total)
}

/// One forward simplification round (operand folding, carry-read
/// dropping, const-to-`MOV` rewriting). Every rewrite is justified by
/// the term the engine assigns under the arena's normalization rules,
/// so the validator reproduces it exactly.
fn fold_round(program: &Program, oracle: &MemOracle) -> (Program, usize) {
    let cfg = Cfg::build(program);
    let mut out: Vec<Instr> = (0..program.len()).map(|pc| program.fetch(pc)).collect();
    let mut changed = 0usize;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut terms = Terms::new();
        let env = Env::symbolic(&mut terms);
        let mut sym = BlockSym::new(&mut terms, env);
        let zero = terms.konst(0);
        // `pc` doubles as the oracle's program counter, so the index
        // form is clearer than an enumerate over a sub-slice.
        #[allow(clippy::needless_range_loop)]
        for pc in blk.start..blk.end {
            let mut inst = map_srcs(out[pc], |s| match s {
                Src::Reg(r) => {
                    let t = sym.env.reg(&mut terms, r);
                    match *terms.get(t) {
                        Term::Const(k) => {
                            changed += 1;
                            Src::Imm(k)
                        }
                        _ => s,
                    }
                }
                imm => imm,
            });
            if uses_cc(&inst) && sym.env.carry() == zero {
                inst = with_use_cc_false(inst);
                changed += 1;
            }
            sym.step(&mut terms, oracle, pc, &inst);
            // A constant result with no carry write is just a MOV. (The
            // environment effect is identical, so stepping before the
            // rewrite is sound; a load's event record stays, which only
            // makes later DSE more conservative.)
            if !sets_cc(&inst)
                && !matches!(
                    inst,
                    Instr::Mov {
                        src: Src::Imm(_),
                        ..
                    }
                )
            {
                if let Some(dst) = def_reg(&inst) {
                    let t = sym.env.reg(&mut terms, dst);
                    if let Term::Const(k) = *terms.get(t) {
                        inst = Instr::Mov {
                            dst,
                            src: Src::Imm(k),
                        };
                        changed += 1;
                    }
                }
            }
            out[pc] = inst;
        }
    }
    (Program::from_instrs(out), changed)
}

/// Strips `set_cc` from instructions whose carry write is dead: a later
/// instruction in the block redefines the flag before any read, or the
/// block ends with the carry not live-out. The carry value at every
/// *observed* point (reads, block exit when live) is untouched, so the
/// bisimulation still closes.
fn strip_dead_set_cc(program: &Program) -> (Program, usize) {
    let cfg = Cfg::build(program);
    let live = Liveness::compute(program, &cfg);
    let mut out: Vec<Instr> = (0..program.len()).map(|pc| program.fetch(pc)).collect();
    let mut changed = 0usize;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut cc_live = live.live_out[b].contains(live.map.index(Resource::Carry));
        for pc in (blk.start..blk.end).rev() {
            let inst = out[pc];
            if sets_cc(&inst) {
                if !cc_live {
                    out[pc] = with_set_cc_false(inst);
                    changed += 1;
                }
                cc_live = false;
            }
            if uses_cc(&out[pc]) {
                cc_live = true;
            }
        }
    }
    (Program::from_instrs(out), changed)
}

/// Redundant-load elimination: a load whose symbolic value term is
/// already held in a register — either because the same cell was loaded
/// before with no intervening may-alias store, or because the value was
/// just stored from a register (store-to-load forwarding) — becomes a
/// `MOV` from that register.
///
/// Returns the rewritten program and the number of loads replaced.
pub(super) fn cse(program: &Program, oracle: &MemOracle) -> (Program, usize) {
    let cfg = Cfg::build(program);
    let mut out: Vec<Instr> = (0..program.len()).map(|pc| program.fetch(pc)).collect();
    let mut replaced = 0usize;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut terms = Terms::new();
        let env = Env::symbolic(&mut terms);
        let mut sym = BlockSym::new(&mut terms, env);
        // holder[t] = a register currently holding term t (validity is
        // re-checked against the environment at lookup time).
        let mut holder: WordMap<TermId, Reg> = WordMap::default();
        // `pc` doubles as the oracle's program counter, so the index
        // form is clearer than an enumerate over a sub-slice.
        #[allow(clippy::needless_range_loop)]
        for pc in blk.start..blk.end {
            let inst = out[pc];
            let was_load = matches!(inst, Instr::Ldg { .. });
            sym.step(&mut terms, oracle, pc, &inst);
            let Some(dst) = def_reg(&inst) else { continue };
            let t = sym.env.reg(&mut terms, dst);
            let prior = holder
                .get(&t)
                .copied()
                .filter(|&h| h != dst && sym.env.reg(&mut terms, h) == t);
            match prior {
                Some(h) => {
                    if was_load {
                        out[pc] = Instr::Mov {
                            dst,
                            src: Src::Reg(h),
                        };
                        replaced += 1;
                    }
                }
                None => {
                    holder.insert(t, dst);
                }
            }
        }
    }
    (Program::from_instrs(out), replaced)
}

/// Dead-store elimination: deletes a store when a later store in the
/// same block overwrites the structurally same cell, every load in
/// between is provably disjoint from it (the validator's elision rule),
/// *and* no later load in the block reads a memory-chain state that
/// contains the store (chain safety — deleting it would perturb that
/// load's term and the validator would reject). The validator judges
/// deadness on the input program, so this pass runs on it before any
/// pass rewrites a load.
///
/// Returns the rewritten program, the pc remapping (`map[old] = new`,
/// `None` for deleted), and the number of stores deleted.
pub(super) fn dse(program: &Program, oracle: &MemOracle) -> (Program, Vec<Option<usize>>, usize) {
    let cfg = Cfg::build(program);
    let mut deleted = vec![false; program.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut terms = Terms::new();
        let env = Env::symbolic(&mut terms);
        let mut sym = BlockSym::new(&mut terms, env);
        for pc in blk.start..blk.end {
            let inst = program.fetch(pc);
            sym.step(&mut terms, oracle, pc, &inst);
        }
        let chain = sym.chain().to_vec();
        for i in 0..sym.stores.len() {
            if !store_is_dead(&sym, i, oracle) {
                continue;
            }
            let s = sym.stores[i];
            // Chain safety: a later unresolvable load whose memory-chain
            // term includes this store pins it in place.
            let pinned = sym.loads.iter().any(|l| {
                l.event > s.event
                    && match terms.get(l.value) {
                        Term::Op(OpKind::LoadMem, args) => chain[i..].contains(&args[0]),
                        _ => false,
                    }
            });
            if !pinned {
                deleted[s.pc] = true;
            }
        }
    }
    keep_one_per_block(&cfg, &mut deleted);
    let n = deleted.iter().filter(|&&d| d).count();
    let (p, map) = delete_marked(program, &deleted);
    (p, map, n)
}

/// Dead-code elimination to a fixpoint: deletes side-effect-free
/// instructions (everything but `STG`, `BRA`, `EXIT`) whose every
/// defined resource — register, predicate, or carry — is dead at that
/// point, recomputing liveness after each round so chains of movs die
/// together.
///
/// Returns the rewritten program, the composed pc remapping, and the
/// number of instructions deleted.
pub(super) fn dce(program: &Program) -> (Program, Vec<Option<usize>>, usize) {
    let mut p = program.clone();
    let mut total_map: Vec<Option<usize>> = (0..program.len()).map(Some).collect();
    let mut removed = 0usize;
    loop {
        let cfg = Cfg::build(&p);
        let live = Liveness::compute(&p, &cfg);
        let mut deleted = vec![false; p.len()];
        for (b, blk) in cfg.blocks.iter().enumerate() {
            if !cfg.reachable[b] {
                continue;
            }
            let mut set = live.live_out[b].clone();
            for pc in (blk.start..blk.end).rev() {
                let inst = p.fetch(pc);
                let removable =
                    !matches!(inst, Instr::Stg { .. } | Instr::Bra { .. } | Instr::Exit);
                let mut any_live = false;
                instr_defs(&inst, |r| {
                    if set.contains(live.map.index(r)) {
                        any_live = true;
                    }
                });
                if removable && !any_live {
                    // Dead: its uses do not propagate upward.
                    deleted[pc] = true;
                    continue;
                }
                instr_defs(&inst, |r| set.remove(live.map.index(r)));
                instr_uses(&inst, |r| set.insert(live.map.index(r)));
            }
        }
        keep_one_per_block(&cfg, &mut deleted);
        let round = deleted.iter().filter(|&&d| d).count();
        if round == 0 {
            break;
        }
        removed += round;
        let (next, map) = delete_marked(&p, &deleted);
        for slot in total_map.iter_mut() {
            *slot = slot.and_then(|old| map[old]);
        }
        p = next;
    }
    (p, total_map, removed)
}

/// Unmarks the last marked instruction of any block that would otherwise
/// lose *all* its instructions — block counts (and hence the validator's
/// index-aligned block correspondence) survive every deletion pass.
fn keep_one_per_block(cfg: &Cfg, deleted: &mut [bool]) {
    for blk in &cfg.blocks {
        if (blk.start..blk.end).all(|pc| deleted[pc]) {
            deleted[blk.end - 1] = false;
        }
    }
}

/// Deletes marked instructions, remapping every branch target to the
/// first surviving instruction at or after it (prefix-sum rule).
/// Returns the new program and `map[old_pc] = Some(new_pc)` for
/// survivors.
pub(super) fn delete_marked(program: &Program, deleted: &[bool]) -> (Program, Vec<Option<usize>>) {
    let len = program.len();
    // prefix[pc] = number of survivors strictly before pc.
    let mut prefix = vec![0usize; len + 1];
    for pc in 0..len {
        prefix[pc + 1] = prefix[pc] + usize::from(!deleted[pc]);
    }
    let mut map = vec![None; len];
    let mut out = Vec::with_capacity(prefix[len]);
    for pc in 0..len {
        if deleted[pc] {
            continue;
        }
        map[pc] = Some(prefix[pc]);
        let inst = match program.fetch(pc) {
            Instr::Bra { target, pred } => Instr::Bra {
                target: prefix[target],
                pred,
            },
            other => other,
        };
        out.push(inst);
    }
    (Program::from_instrs(out), map)
}
