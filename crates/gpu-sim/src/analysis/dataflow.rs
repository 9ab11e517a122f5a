//! Dataflow analyses over the micro-ISA: backward liveness and forward
//! reaching definitions, on three resource classes — 32-bit registers, the
//! per-thread carry flag, and the four predicate registers.
//!
//! The analyses are path-insensitive and SIMT-agnostic: a definition
//! inside a divergent region is treated as a definition on that path,
//! which matches how the carry/predicate chains of the FF kernels are
//! actually structured (every `use_cc` is preceded by a `set_cc` in the
//! same straight-line chain).

use crate::analysis::cfg::Cfg;
use crate::isa::{Instr, Pred, Program, Reg, Src};

/// A dataflow resource: a 32-bit register, a predicate register, or the
/// carry flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// A 32-bit register.
    Reg(Reg),
    /// A predicate register.
    Pred(Pred),
    /// The carry flag (`CC`).
    Carry,
}

impl core::fmt::Display for Resource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Resource::Reg(r) => write!(f, "r{r}"),
            Resource::Pred(p) => write!(f, "p{p}"),
            Resource::Carry => write!(f, "CC"),
        }
    }
}

/// `inst` with every [`Src`] operand rewritten through `f`, in operand
/// order — the one table of operand positions. The registers an
/// instruction names directly (`dst`, the `LDG`/`STG` value and address)
/// are not `Src`s and stay.
pub(crate) fn map_srcs(mut inst: Instr, mut f: impl FnMut(Src) -> Src) -> Instr {
    let operands = match &mut inst {
        Instr::Imad { a, b, c, .. } | Instr::Iadd3 { a, b, c, .. } => [Some(a), Some(b), Some(c)],
        Instr::Shf { a, b, sh, .. } => [Some(a), Some(b), Some(sh)],
        Instr::Lop3 { a, b, .. } | Instr::Setp { a, b, .. } | Instr::Sel { a, b, .. } => {
            [Some(a), Some(b), None]
        }
        Instr::Mov { src, .. } => [Some(src), None, None],
        Instr::Bra { .. } | Instr::Ldg { .. } | Instr::Stg { .. } | Instr::Exit => {
            [None, None, None]
        }
    };
    for s in operands.into_iter().flatten() {
        *s = f(*s);
    }
    inst
}

/// Calls `f` for every resource the instruction reads: its [`Src`]
/// operands in order, then the carry flag, predicate or directly named
/// registers.
pub fn instr_uses(inst: &Instr, mut f: impl FnMut(Resource)) {
    map_srcs(*inst, |s| {
        if let Src::Reg(r) = s {
            f(Resource::Reg(r));
        }
        s
    });
    match *inst {
        Instr::Imad { use_cc: true, .. } | Instr::Iadd3 { use_cc: true, .. } => f(Resource::Carry),
        Instr::Sel { pred, .. }
        | Instr::Bra {
            pred: Some((pred, _)),
            ..
        } => f(Resource::Pred(pred)),
        Instr::Ldg { addr, .. } => f(Resource::Reg(addr)),
        Instr::Stg { src, addr, .. } => {
            f(Resource::Reg(src));
            f(Resource::Reg(addr));
        }
        _ => {}
    }
}

/// Calls `f` for every resource the instruction writes.
pub fn instr_defs(inst: &Instr, mut f: impl FnMut(Resource)) {
    match inst {
        Instr::Imad { dst, set_cc, .. } | Instr::Iadd3 { dst, set_cc, .. } => {
            f(Resource::Reg(*dst));
            if *set_cc {
                f(Resource::Carry);
            }
        }
        Instr::Shf { dst, .. }
        | Instr::Lop3 { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Sel { dst, .. }
        | Instr::Ldg { dst, .. } => f(Resource::Reg(*dst)),
        Instr::Setp { pred, .. } => f(Resource::Pred(*pred)),
        Instr::Bra { .. } | Instr::Stg { .. } | Instr::Exit => {}
    }
}

/// The highest register index any instruction of `program` reads or
/// writes (`None` for a program that names no register).
pub(crate) fn max_reg(program: &Program) -> Option<Reg> {
    let mut max = None;
    for pc in 0..program.len() {
        let inst = program.fetch(pc);
        let mut see = |r: Resource| {
            if let Resource::Reg(x) = r {
                max = max.max(Some(x));
            }
        };
        instr_uses(&inst, &mut see);
        instr_defs(&inst, &mut see);
    }
    max
}

/// A fixed-size bit set used by the dataflow lattices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// `self |= other`; returns whether `self` changed.
    pub(crate) fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let before = *w;
            *w |= o;
            changed |= *w != before;
        }
        changed
    }

    /// `self &= !other`.
    pub(crate) fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// How many members are below `n`.
    pub(crate) fn count_below(&self, n: usize) -> u32 {
        let (full, rest) = (n / 64, n % 64);
        let whole: u32 = self.words[..full].iter().map(|w| w.count_ones()).sum();
        let part = match self.words.get(full) {
            Some(w) if rest > 0 => (w & ((1u64 << rest) - 1)).count_ones(),
            _ => 0,
        };
        whole + part
    }

    /// The members below `n`, in ascending order.
    pub(crate) fn ones_below(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(k, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest.wrapping_sub(1);
                    (bit < 64).then_some(64 * k + bit)
                })
            })
            .take_while(move |&i| i < n)
    }
}

/// Dense indexing of the resources a program touches: registers first,
/// then the four predicates, then the carry flag.
#[derive(Debug, Clone)]
pub struct ResourceMap {
    num_regs: usize,
}

impl ResourceMap {
    /// Builds the map for a program (register universe = highest register
    /// index referenced, plus one).
    pub fn of(program: &Program) -> Self {
        Self {
            num_regs: max_reg(program).map_or(0, |m| m as usize + 1),
        }
    }

    /// Number of distinct resource slots (registers + 4 predicates + CC).
    pub fn len(&self) -> usize {
        self.num_regs + 4 + 1
    }

    /// Whether the program references no resources at all.
    pub fn is_empty(&self) -> bool {
        self.num_regs == 0
    }

    /// The register universe size (highest referenced index + 1).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Dense index of a resource.
    pub fn index(&self, r: Resource) -> usize {
        match r {
            Resource::Reg(x) => x as usize,
            Resource::Pred(p) => self.num_regs + p as usize,
            Resource::Carry => self.num_regs + 4,
        }
    }

    /// Inverse of [`ResourceMap::index`].
    pub fn resource(&self, idx: usize) -> Resource {
        if idx < self.num_regs {
            Resource::Reg(idx as Reg)
        } else if idx < self.num_regs + 4 {
            Resource::Pred((idx - self.num_regs) as Pred)
        } else {
            Resource::Carry
        }
    }
}

/// Backward may-liveness: a resource is live at a point if some path from
/// that point reads it before writing it.
#[derive(Debug, Clone)]
pub struct Liveness {
    pub(crate) live_out: Vec<BitSet>,
    pub(crate) map: ResourceMap,
}

impl Liveness {
    /// Computes per-block live-out sets.
    pub fn compute(program: &Program, cfg: &Cfg) -> Self {
        let map = ResourceMap::of(program);
        let n = cfg.blocks.len();
        let bits = map.len();
        // Upward-exposed uses and defs per block.
        let mut ue_use = vec![BitSet::new(bits); n];
        let mut defs = vec![BitSet::new(bits); n];
        for (b, blk) in cfg.blocks.iter().enumerate() {
            for pc in blk.start..blk.end {
                let inst = program.fetch(pc);
                instr_uses(&inst, |r| {
                    let i = map.index(r);
                    if !defs[b].contains(i) {
                        ue_use[b].insert(i);
                    }
                });
                instr_defs(&inst, |r| defs[b].insert(map.index(r)));
            }
        }

        let mut live_in = vec![BitSet::new(bits); n];
        let mut live_out = vec![BitSet::new(bits); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let mut out = BitSet::new(bits);
                for &s in &cfg.blocks[b].succs {
                    out.union_with(&live_in[s]);
                }
                let mut inn = out.clone();
                inn.subtract(&defs[b]);
                inn.union_with(&ue_use[b]);
                if out != live_out[b] || inn != live_in[b] {
                    changed = true;
                    live_out[b] = out;
                    live_in[b] = inn;
                }
            }
        }
        Self { live_out, map }
    }

    /// Live resources at the entry of the program (block 0 live-in): the
    /// registers a kernel expects as launch parameters show up here.
    pub fn entry_live(&self, cfg: &Cfg, program: &Program) -> Vec<Resource> {
        let mut out = Vec::new();
        if cfg.blocks.is_empty() {
            return out;
        }
        let bits = self.map.len();
        let mut live = self.live_out[0].clone();
        // Walk block 0 backward to its entry point.
        for pc in (cfg.blocks[0].start..cfg.blocks[0].end).rev() {
            let inst = program.fetch(pc);
            instr_defs(&inst, |r| live.remove(self.map.index(r)));
            instr_uses(&inst, |r| live.insert(self.map.index(r)));
        }
        for i in 0..bits {
            if live.contains(i) {
                out.push(self.map.resource(i));
            }
        }
        out
    }

    /// The maximum number of simultaneously live 32-bit *registers* at any
    /// program point in reachable code — the inferred register pressure
    /// (§IV-C4's registers-per-thread, computed instead of hand-typed).
    pub fn max_live_registers(&self, cfg: &Cfg, program: &Program) -> u32 {
        let mut max = 0u32;
        for (b, blk) in cfg.blocks.iter().enumerate() {
            if !cfg.reachable[b] {
                continue;
            }
            let mut live = self.live_out[b].clone();
            max = max.max(live.count_below(self.map.num_regs));
            for pc in (blk.start..blk.end).rev() {
                let inst = program.fetch(pc);
                instr_defs(&inst, |r| live.remove(self.map.index(r)));
                instr_uses(&inst, |r| live.insert(self.map.index(r)));
                max = max.max(live.count_below(self.map.num_regs));
            }
        }
        max
    }
}

/// Forward reaching definitions: which definition sites (plus a synthetic
/// "uninitialized at entry" definition per resource) can reach each use.
#[derive(Debug)]
pub struct ReachingDefs {
    /// `(pc, resource)` of every real definition, in program order.
    pub defs: Vec<(usize, Resource)>,
    pub(crate) map: ResourceMap,
    /// Reaching set at each block entry.
    pub(crate) reach_in: Vec<BitSet>,
    /// `defs_of[resource index]` = ids of every real def of that resource.
    pub defs_of: Vec<Vec<usize>>,
}

impl ReachingDefs {
    /// Id of the synthetic entry ("uninitialized") definition of `r`.
    pub fn entry_def(&self, r: Resource) -> usize {
        self.defs.len() + self.map.index(r)
    }

    /// Computes reaching definitions for a program.
    pub fn compute(program: &Program, cfg: &Cfg) -> Self {
        let map = ResourceMap::of(program);
        let mut defs: Vec<(usize, Resource)> = Vec::new();
        for pc in 0..program.len() {
            instr_defs(&program.fetch(pc), |r| defs.push((pc, r)));
        }
        let bits = defs.len() + map.len();
        let mut defs_of = vec![Vec::new(); map.len()];
        for (id, (_, r)) in defs.iter().enumerate() {
            defs_of[map.index(*r)].push(id);
        }

        let n = cfg.blocks.len();
        // gen: downward-exposed defs; kill: every other def (incl. the
        // entry def) of any resource the block writes.
        let mut gen = vec![BitSet::new(bits); n];
        let mut kill = vec![BitSet::new(bits); n];
        let mut def_cursor = 0usize;
        for (b, blk) in cfg.blocks.iter().enumerate() {
            let mut last_def: Vec<Option<usize>> = vec![None; map.len()];
            for pc in blk.start..blk.end {
                instr_defs(&program.fetch(pc), |r| {
                    let id = def_cursor;
                    def_cursor += 1;
                    last_def[map.index(r)] = Some(id);
                });
            }
            for (ri, last) in last_def.iter().enumerate() {
                if let Some(id) = last {
                    gen[b].insert(*id);
                    for &other in &defs_of[ri] {
                        if other != *id {
                            kill[b].insert(other);
                        }
                    }
                    kill[b].insert(defs.len() + ri); // entry def killed
                }
            }
        }

        let mut reach_in = vec![BitSet::new(bits); n];
        let mut reach_out = vec![BitSet::new(bits); n];
        if n > 0 {
            let preds = cfg.predecessors();
            // The entry sees the synthetic uninitialized defs.
            let mut entry = BitSet::new(bits);
            for ri in 0..map.len() {
                entry.insert(defs.len() + ri);
            }
            let mut changed = true;
            while changed {
                changed = false;
                for b in 0..n {
                    let mut inn = BitSet::new(bits);
                    if b == 0 {
                        inn.union_with(&entry);
                    }
                    for &p in &preds[b] {
                        inn.union_with(&reach_out[p]);
                    }
                    let mut out = inn.clone();
                    out.subtract(&kill[b]);
                    out.union_with(&gen[b]);
                    if inn != reach_in[b] || out != reach_out[b] {
                        changed = true;
                        reach_in[b] = inn;
                        reach_out[b] = out;
                    }
                }
            }
        }

        Self {
            defs,
            map,
            reach_in,
            defs_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CmpOp, ProgramBuilder, Src};

    #[test]
    fn uses_and_defs_cover_carry_and_predicates() {
        let i = Instr::Iadd3 {
            dst: 1,
            a: Src::Reg(2),
            b: Src::Imm(0),
            c: Src::Imm(0),
            set_cc: true,
            use_cc: true,
        };
        let mut uses = Vec::new();
        instr_uses(&i, |r| uses.push(r));
        assert!(uses.contains(&Resource::Reg(2)));
        assert!(uses.contains(&Resource::Carry));
        let mut defs = Vec::new();
        instr_defs(&i, |r| defs.push(r));
        assert!(defs.contains(&Resource::Reg(1)));
        assert!(defs.contains(&Resource::Carry));
    }

    #[test]
    fn bitset_prefix_queries_match_membership() {
        let mut set = BitSet::new(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 150, 199] {
            set.insert(i);
        }
        for n in 0..=200 {
            let members: Vec<usize> = (0..n).filter(|&i| set.contains(i)).collect();
            assert_eq!(set.ones_below(n).collect::<Vec<_>>(), members, "n={n}");
            assert_eq!(set.count_below(n) as usize, members.len(), "n={n}");
        }
    }

    #[test]
    fn entry_live_reveals_kernel_parameters() {
        // Reads r7 (a parameter) before ever writing it.
        let mut b = ProgramBuilder::new();
        b.ldg(0, 7, 0);
        b.stg(0, 7, 1);
        b.exit();
        let p = b.build();
        let cfg = Cfg::build(&p);
        let live = Liveness::compute(&p, &cfg);
        let entry = live.entry_live(&cfg, &p);
        assert!(entry.contains(&Resource::Reg(7)));
        assert!(!entry.contains(&Resource::Reg(0)));
    }

    #[test]
    fn max_live_counts_simultaneous_registers() {
        // r0..r3 all live at once before the adds consume them.
        let mut b = ProgramBuilder::new();
        for r in 0..4 {
            b.mov(r, Src::Imm(u32::from(r)));
        }
        b.iadd3(4, Src::Reg(0), Src::Reg(1), Src::Imm(0), false, false);
        b.iadd3(5, Src::Reg(2), Src::Reg(3), Src::Reg(4), false, false);
        b.stg(5, 6, 0);
        b.exit();
        let p = b.build();
        let cfg = Cfg::build(&p);
        let live = Liveness::compute(&p, &cfg);
        // Peak: r0..r3 + r6 (store address, live-in from entry) = 5.
        assert_eq!(live.max_live_registers(&cfg, &p), 5);
    }

    #[test]
    fn reaching_defs_tracks_entry_definitions() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.setp(0, Src::Reg(9), Src::Imm(1), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        b.mov(1, Src::Imm(5)); // defines r1 on one path only
        b.place(skip);
        b.stg(1, 9, 0); // r1 maybe-uninitialized here
        b.exit();
        let p = b.build();
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        let store_block = cfg.block_of[4];
        assert!(rd.reach_in[store_block].contains(rd.entry_def(Resource::Reg(1))));
    }
}
