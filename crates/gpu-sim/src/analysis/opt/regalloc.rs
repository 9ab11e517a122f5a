//! Register reallocation by live-range interference coloring.
//!
//! Builds the interference graph from the liveness analysis (a defined
//! register interferes with everything live across its definition) and
//! greedily recolors non-pinned registers in order of first appearance,
//! always taking the lowest non-conflicting index. Pinned registers —
//! kernel inputs, declared address-contract registers, everything live
//! at program entry, and any register referenced from unreachable code —
//! keep their indices, so the kernel ABI (launch-parameter and
//! address-region registers) survives renaming.
//!
//! Renaming cannot reduce the *number* of simultaneously live values
//! (that is a property of the dataflow, not the naming), but it packs
//! interior temporaries toward the low end of the register file, which
//! shrinks the referenced-index footprint a `num_regs`-sized allocation
//! would otherwise pay for.

use crate::analysis::addr::MemContracts;
use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{
    instr_defs, instr_uses, map_srcs, Liveness, Resource, ResourceMap,
};
use crate::isa::{Instr, Program, Reg, Src};

use super::RegMap;

/// Recolors `program`'s registers. `inputs` and `contracts` pin the ABI
/// registers. Returns the renamed program and the applied map π.
pub(super) fn reallocate(
    program: &Program,
    inputs: &[Reg],
    contracts: &MemContracts,
) -> (Program, RegMap) {
    let cfg = Cfg::build(program);
    let live = Liveness::compute(program, &cfg);
    let map = ResourceMap::of(program);
    let nr = map.num_regs();
    if nr == 0 {
        return (program.clone(), RegMap::identity(0));
    }

    // Pinned registers keep their indices.
    let mut pinned = vec![false; nr];
    for &r in inputs {
        if (r as usize) < nr {
            pinned[r as usize] = true;
        }
    }
    for c in contracts.all() {
        if (c.reg as usize) < nr {
            pinned[c.reg as usize] = true;
        }
    }
    for r in live.entry_live(&cfg, program) {
        if let Resource::Reg(x) = r {
            pinned[x as usize] = true;
        }
    }
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if cfg.reachable[b] {
            continue;
        }
        for pc in blk.start..blk.end {
            let inst = program.fetch(pc);
            let mut pin = |r: Resource| {
                if let Resource::Reg(x) = r {
                    pinned[x as usize] = true;
                }
            };
            instr_uses(&inst, &mut pin);
            instr_defs(&inst, &mut pin);
        }
    }

    // Interference: at each definition point, the defined register
    // conflicts with every other register live just after it.
    let mut interferes = vec![false; nr * nr];
    let mark = |interferes: &mut Vec<bool>, a: usize, b: usize| {
        if a != b {
            interferes[a * nr + b] = true;
            interferes[b * nr + a] = true;
        }
    };
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut set = live.live_out[b].clone();
        for pc in (blk.start..blk.end).rev() {
            let inst = program.fetch(pc);
            instr_defs(&inst, |r| {
                if let Resource::Reg(d) = r {
                    // Registers occupy the map's indices `0..nr`.
                    for other in set.ones_below(nr) {
                        mark(&mut interferes, d as usize, other);
                    }
                }
            });
            instr_defs(&inst, |r| set.remove(map.index(r)));
            instr_uses(&inst, |r| set.insert(map.index(r)));
        }
    }

    // Greedy coloring in order of first appearance, lowest free index
    // first. Pinned registers are pre-colored with themselves.
    let mut color: Vec<Option<Reg>> = vec![None; nr];
    for (r, slot) in color.iter_mut().enumerate() {
        if pinned[r] {
            *slot = Some(r as Reg);
        }
    }
    let mut appearance: Vec<usize> = Vec::new();
    let mut seen = vec![false; nr];
    for pc in 0..program.len() {
        let inst = program.fetch(pc);
        let mut note = |r: Resource| {
            if let Resource::Reg(x) = r {
                if !seen[x as usize] {
                    seen[x as usize] = true;
                    appearance.push(x as usize);
                }
            }
        };
        instr_uses(&inst, &mut note);
        instr_defs(&inst, &mut note);
    }
    for &r in &appearance {
        if color[r].is_some() {
            continue;
        }
        let mut taken = vec![false; nr];
        for other in 0..nr {
            if interferes[r * nr + other] {
                if let Some(c) = color[other] {
                    taken[c as usize] = true;
                }
            }
        }
        let c = (0..nr).find(|&c| !taken[c]).unwrap_or(r) as Reg;
        color[r] = Some(c);
    }

    let reg_map = RegMap::new(
        (0..nr)
            .map(|r| color[r].unwrap_or(r as Reg))
            .collect::<Vec<Reg>>(),
    );

    let out: Vec<Instr> = (0..program.len())
        .map(|pc| rename_instr(program.fetch(pc), &reg_map))
        .collect();
    (Program::from_instrs(out), reg_map)
}

/// Applies a register map to every register reference of an instruction.
fn rename_instr(inst: Instr, m: &RegMap) -> Instr {
    let mut inst = map_srcs(inst, |x| match x {
        Src::Reg(r) => Src::Reg(m.get(r)),
        imm => imm,
    });
    match &mut inst {
        Instr::Imad { dst, .. }
        | Instr::Iadd3 { dst, .. }
        | Instr::Shf { dst, .. }
        | Instr::Lop3 { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Sel { dst, .. } => *dst = m.get(*dst),
        Instr::Ldg { dst: x, addr, .. } | Instr::Stg { src: x, addr, .. } => {
            *x = m.get(*x);
            *addr = m.get(*addr);
        }
        Instr::Setp { .. } | Instr::Bra { .. } | Instr::Exit => {}
    }
    inst
}
