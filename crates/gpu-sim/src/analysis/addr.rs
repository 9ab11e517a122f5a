//! Symbolic warp addressing: an affine abstract domain over lane ids.
//!
//! Every register is tracked as an affine expression
//! `base + lane_coeff · lane + offset`, where `base` is a *declared
//! address contract* symbol (an entry register the kernel generator
//! promises holds `region_base + lane_stride_words · lane` with a known
//! base alignment). The domain is deliberately tiny — a flat lattice whose
//! join of unequal affines is `Unknown` — because generated kernels keep
//! their address arithmetic trivially affine: addresses come straight from
//! entry registers plus instruction immediates, while loop counters and
//! field data (which do go `Unknown`) never feed an address.
//!
//! From a proven affine form, per-warp 32-byte-sector transaction counts
//! are *exact*: the lane addresses are enumerable modulo the declared base
//! alignment, so the set of distinct sectors a warp access touches is a
//! closed-form function of `(lane_coeff, offset)` — the same rule
//! [`crate::machine`] applies to concrete addresses at issue time.

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::ResourceMap;
use crate::isa::{Instr, Program, Reg, Src};
use crate::machine::SECTOR_WORDS;

/// A declared access contract for one entry address register:
/// `reg[lane] = base + lane_stride_words · lane` with
/// `base ≡ 0 (mod align_words)`. Distinct contract registers are promised
/// to address pairwise disjoint regions (the generator allocates them from
/// non-overlapping banks), which is what makes cross-register alias
/// questions decidable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrContract {
    /// The entry register carrying the per-lane address.
    pub reg: Reg,
    /// Words between consecutive lanes' addresses.
    pub lane_stride_words: u32,
    /// Guaranteed alignment of the lane-0 address, in words. Must be a
    /// multiple of the 8-word sector so sector counts stay exact.
    pub align_words: u32,
}

/// The declared address contracts of one kernel.
#[derive(Debug, Clone, Default)]
pub struct MemContracts {
    contracts: Vec<AddrContract>,
}

impl MemContracts {
    /// No contracts: every declared input register is an opaque address.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `reg[lane] = base + lane_stride_words · lane` with `base`
    /// a multiple of `align_words` words.
    ///
    /// # Panics
    ///
    /// Panics unless `align_words` is a positive multiple of the 8-word
    /// sector — coarser alignment carries no extra information for sector
    /// counting, finer would make counts inexact.
    pub fn declare(&mut self, reg: Reg, lane_stride_words: u32, align_words: u32) {
        assert!(
            align_words > 0 && u64::from(align_words) % SECTOR_WORDS == 0,
            "contract alignment must be a positive multiple of {SECTOR_WORDS} words"
        );
        self.contracts.retain(|c| c.reg != reg);
        self.contracts.push(AddrContract {
            reg,
            lane_stride_words,
            align_words,
        });
    }

    /// The contract declared for `reg`, if any.
    pub fn get(&self, reg: Reg) -> Option<&AddrContract> {
        self.contracts.iter().find(|c| c.reg == reg)
    }

    /// All declared contracts.
    pub fn all(&self) -> &[AddrContract] {
        &self.contracts
    }
}

/// One abstract register value: affine in the lane id, or unknown.
///
/// `base = None` means the expression is fully concrete (no contract
/// symbol): the machine zero-initializes registers, so a never-written
/// register is exactly the constant 0 — matching simulator semantics for
/// harness programs that load through an uninitialized register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffineVal {
    /// `base(reg) + lane_coeff · lane + offset`.
    Affine {
        /// Contract symbol the expression is anchored to, if any.
        base: Option<Reg>,
        /// Words between consecutive lanes.
        lane_coeff: i64,
        /// Constant word offset.
        offset: i64,
    },
    /// Not provably affine in the lane id.
    Unknown,
}

impl AffineVal {
    /// The constant `c` (no base, no lane dependence).
    pub fn constant(c: i64) -> Self {
        AffineVal::Affine {
            base: None,
            lane_coeff: 0,
            offset: c,
        }
    }

    fn join(a: AffineVal, b: AffineVal) -> AffineVal {
        if a == b {
            a
        } else {
            AffineVal::Unknown
        }
    }

    fn add(a: AffineVal, b: AffineVal) -> AffineVal {
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
                // At most one contract symbol may survive an addition —
                // the sum of two region bases is not itself a region.
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

    fn mul_const(a: AffineVal, m: i64) -> AffineVal {
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
            // Scaling a contract symbol leaves the region; a scaled base
            // is no longer the declared affine address.
            _ => AffineVal::Unknown,
        }
    }
}

/// The affine address analysis: the abstract value of the *address
/// register* at every reachable `LDG`/`STG`, in program order.
#[derive(Debug, Clone, Default)]
pub struct AddrAnalysis {
    /// `(pc, address-register value)` per reachable global access.
    pub accesses: Vec<(usize, AffineVal)>,
}

impl AddrAnalysis {
    /// The abstract address value at `pc`, if the access is reachable.
    pub fn at(&self, pc: usize) -> Option<AffineVal> {
        self.accesses
            .iter()
            .find(|(p, _)| *p == pc)
            .map(|(_, v)| *v)
    }
}

fn src_val(regs: &[AffineVal], s: &Src) -> AffineVal {
    match s {
        Src::Imm(v) => AffineVal::constant(i64::from(*v)),
        Src::Reg(r) => regs[*r as usize],
    }
}

fn transfer(regs: &mut [AffineVal], inst: &Instr) {
    match *inst {
        Instr::Mov { dst, ref src, .. } => regs[dst as usize] = src_val(regs, src),
        Instr::Iadd3 {
            dst,
            ref a,
            ref b,
            ref c,
            use_cc,
            ..
        } => {
            regs[dst as usize] = if use_cc {
                AffineVal::Unknown
            } else {
                AffineVal::add(
                    AffineVal::add(src_val(regs, a), src_val(regs, b)),
                    src_val(regs, c),
                )
            };
        }
        Instr::Imad {
            dst,
            ref a,
            ref b,
            ref c,
            hi,
            use_cc,
            ..
        } => {
            regs[dst as usize] = if hi || use_cc {
                AffineVal::Unknown
            } else {
                let (av, bv) = (src_val(regs, a), src_val(regs, b));
                let prod = match (av, bv) {
                    (
                        AffineVal::Affine {
                            base: None,
                            lane_coeff: 0,
                            offset: m,
                        },
                        x,
                    ) => AffineVal::mul_const(x, m),
                    (
                        x,
                        AffineVal::Affine {
                            base: None,
                            lane_coeff: 0,
                            offset: m,
                        },
                    ) => AffineVal::mul_const(x, m),
                    _ => AffineVal::Unknown,
                };
                AffineVal::add(prod, src_val(regs, c))
            };
        }
        Instr::Shf { dst, .. }
        | Instr::Lop3 { dst, .. }
        | Instr::Sel { dst, .. }
        | Instr::Ldg { dst, .. } => regs[dst as usize] = AffineVal::Unknown,
        Instr::Setp { .. } | Instr::Stg { .. } | Instr::Bra { .. } | Instr::Exit => {}
    }
}

/// Runs the affine fixpoint over the CFG.
///
/// Entry state: contract registers carry their declared affine form; other
/// *declared input* registers are `Unknown` (the harness chooses their
/// values); everything else is the constant 0 the machine zero-initializes
/// registers to.
pub fn analyze_addresses(
    program: &Program,
    cfg: &Cfg,
    contracts: &MemContracts,
    inputs: &[Reg],
) -> AddrAnalysis {
    let n = ResourceMap::of(program).num_regs();
    let mut entry = vec![AffineVal::constant(0); n];
    for &r in inputs {
        if (r as usize) < n {
            entry[r as usize] = AffineVal::Unknown;
        }
    }
    for c in contracts.all() {
        if (c.reg as usize) < n {
            entry[c.reg as usize] = AffineVal::Affine {
                base: Some(c.reg),
                lane_coeff: i64::from(c.lane_stride_words),
                offset: 0,
            };
        }
    }

    let nb = cfg.blocks.len();
    let mut states: Vec<Option<Vec<AffineVal>>> = vec![None; nb];
    if nb > 0 {
        states[0] = Some(entry);
    }
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let Some(state) = states[b].clone() else {
            continue;
        };
        let mut st = state;
        for pc in cfg.blocks[b].start..cfg.blocks[b].end {
            transfer(&mut st, &program.fetch(pc));
        }
        for &s in &cfg.blocks[b].succs {
            let changed = match &mut states[s] {
                Some(existing) => {
                    let mut changed = false;
                    for (e, v) in existing.iter_mut().zip(&st) {
                        let joined = AffineVal::join(*e, *v);
                        if joined != *e {
                            *e = joined;
                            changed = true;
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

    let mut result = AddrAnalysis::default();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(state) = &states[b] else {
            continue;
        };
        let mut st = state.clone();
        for pc in blk.start..blk.end {
            if let Instr::Ldg { addr, .. } | Instr::Stg { addr, .. } = program.fetch(pc) {
                result.accesses.push((pc, st[addr as usize]));
            }
            transfer(&mut st, &program.fetch(pc));
        }
    }
    result.accesses.sort_by_key(|(pc, _)| *pc);
    result
}

/// Exact per-warp sector count of an access whose address register holds
/// `val` and whose instruction carries word offset `instr_offset`, for a
/// `warp_size`-lane warp. `None` if the address is not provably affine.
///
/// The declared base is a multiple of the sector size, so dropping it
/// shifts every lane's sector index uniformly and the *count* of distinct
/// sectors over `lane ∈ [0, warp_size)` is computed exactly by
/// enumeration.
pub fn affine_sectors(val: AffineVal, instr_offset: u32, warp_size: u32) -> Option<u32> {
    match val {
        AffineVal::Unknown => None,
        AffineVal::Affine {
            lane_coeff, offset, ..
        } => {
            let c = offset + i64::from(instr_offset);
            let mut sectors: Vec<i64> = (0..i64::from(warp_size))
                .map(|t| (lane_coeff * t + c).div_euclid(SECTOR_WORDS as i64))
                .collect();
            sectors.sort_unstable();
            sectors.dedup();
            Some(sectors.len() as u32)
        }
    }
}

/// Warp-level access-pattern classification (the lint taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Every lane reads the same address (one sector).
    Broadcast,
    /// Lane stride of exactly one word — consecutive, fully coalesced.
    Coalesced,
    /// A provable constant lane stride of `k ≠ 0, 1` words.
    Strided(i64),
    /// Not provably affine: scattered as far as the analyzer can tell.
    Unprovable,
}

impl AccessPattern {
    /// Classifies a proven (or unproven) affine address.
    pub fn of(val: AffineVal) -> Self {
        match val {
            AffineVal::Unknown => AccessPattern::Unprovable,
            AffineVal::Affine { lane_coeff: 0, .. } => AccessPattern::Broadcast,
            AffineVal::Affine { lane_coeff: 1, .. } => AccessPattern::Coalesced,
            AffineVal::Affine { lane_coeff, .. } => AccessPattern::Strided(lane_coeff),
        }
    }

    /// Short report label.
    pub fn label(&self) -> String {
        match self {
            AccessPattern::Broadcast => "broadcast".into(),
            AccessPattern::Coalesced => "coalesced".into(),
            AccessPattern::Strided(k) => format!("strided({k})"),
            AccessPattern::Unprovable => "unprovable".into(),
        }
    }
}

/// One global-memory location as the alias analysis sees it: the address
/// register's affine form with the instruction offset folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    pub base: Option<Reg>,
    pub lane_coeff: i64,
    pub offset: i64,
}

impl Loc {
    /// Folds an access into a location, `None` when unprovable.
    pub(crate) fn of(val: AffineVal, instr_offset: u32) -> Option<Loc> {
        match val {
            AffineVal::Unknown => None,
            AffineVal::Affine {
                base,
                lane_coeff,
                offset,
            } => Some(Loc {
                base,
                lane_coeff,
                offset: offset + i64::from(instr_offset),
            }),
        }
    }
}

/// Three-valued alias verdict between two warp accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alias {
    /// Same address in every lane.
    Must,
    /// Provably disjoint across all lane pairs.
    No,
    /// Possible (partial) overlap.
    May,
}

/// Decides aliasing between two provable locations. Different declared
/// bases are disjoint by contract; same-base pairs are decided exactly by
/// enumerating both 32-lane address sets.
pub(crate) fn alias(a: Loc, b: Loc, warp_size: u32) -> Alias {
    if a == b {
        return Alias::Must;
    }
    match (a.base, b.base) {
        (Some(x), Some(y)) if x != y => Alias::No,
        (Some(x), Some(y)) if x == y => enumerate_alias(a, b, warp_size),
        (None, None) => enumerate_alias(a, b, warp_size),
        // A concrete constant address vs. a symbolic region: the region's
        // base is unknown at analysis time, so overlap is undecidable.
        _ => Alias::May,
    }
}

fn enumerate_alias(a: Loc, b: Loc, warp_size: u32) -> Alias {
    let addrs = |l: Loc| -> Vec<i64> {
        (0..i64::from(warp_size))
            .map(|t| l.lane_coeff * t + l.offset)
            .collect()
    };
    let (sa, sb) = (addrs(a), addrs(b));
    if sa == sb {
        return Alias::Must;
    }
    let mut sorted = sb.clone();
    sorted.sort_unstable();
    if sa.iter().any(|x| sorted.binary_search(x).is_ok()) {
        Alias::May
    } else {
        Alias::No
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;

    fn imm(x: u32) -> Src {
        Src::Imm(x)
    }

    #[test]
    fn entry_contract_propagates_through_adds() {
        // r1 = contract(stride 1); r2 = r1 + 64; load via r2.
        let mut b = ProgramBuilder::new();
        b.iadd3(2, Src::Reg(1), imm(64), imm(0), false, false);
        b.ldg(3, 2, 4);
        b.exit();
        let p = b.build();
        let cfg = Cfg::build(&p);
        let mut contracts = MemContracts::new();
        contracts.declare(1, 1, 32);
        let aa = analyze_addresses(&p, &cfg, &contracts, &[1]);
        let v = aa.at(1).expect("reachable");
        assert_eq!(
            v,
            AffineVal::Affine {
                base: Some(1),
                lane_coeff: 1,
                offset: 64
            }
        );
        assert_eq!(AccessPattern::of(v), AccessPattern::Coalesced);
        // Net word offset 68 ≡ 4 (mod 8): the warp straddles 5 sectors.
        assert_eq!(affine_sectors(v, 4, 32), Some(5));
        assert_eq!(affine_sectors(v, 0, 32), Some(4));
    }

    #[test]
    fn sector_counts_match_the_machine_rule() {
        let aff = |k: i64, c: i64| AffineVal::Affine {
            base: None,
            lane_coeff: k,
            offset: c,
        };
        assert_eq!(affine_sectors(aff(0, 5), 0, 32), Some(1)); // broadcast
        assert_eq!(affine_sectors(aff(1, 0), 0, 32), Some(4)); // coalesced
        assert_eq!(affine_sectors(aff(1, 4), 0, 32), Some(5)); // misaligned
        assert_eq!(affine_sectors(aff(2, 0), 0, 32), Some(8)); // stride 2
        assert_eq!(affine_sectors(aff(8, 0), 0, 32), Some(32)); // sector/lane
        assert_eq!(affine_sectors(aff(24, 3), 0, 32), Some(32)); // XYZZ AoS
        assert_eq!(affine_sectors(AffineVal::Unknown, 0, 32), None);
    }

    #[test]
    fn loaded_values_and_scaled_bases_go_unknown() {
        let mut b = ProgramBuilder::new();
        b.ldg(2, 1, 0); // r2 = data
        b.ldg(3, 2, 0); // gather through loaded value
        b.imad(4, Src::Reg(1), imm(2), imm(0), false, false, false);
        b.ldg(5, 4, 0); // scaled contract base
        b.exit();
        let p = b.build();
        let cfg = Cfg::build(&p);
        let mut contracts = MemContracts::new();
        contracts.declare(1, 1, 32);
        let aa = analyze_addresses(&p, &cfg, &contracts, &[1]);
        assert_eq!(aa.at(1), Some(AffineVal::Unknown));
        assert_eq!(aa.at(3), Some(AffineVal::Unknown));
    }

    #[test]
    fn alias_rules() {
        let loc = |base: Option<Reg>, k: i64, c: i64| Loc {
            base,
            lane_coeff: k,
            offset: c,
        };
        // Same base, same shape, same offset: must.
        assert_eq!(
            alias(loc(Some(1), 1, 32), loc(Some(1), 1, 32), 32),
            Alias::Must
        );
        // Same base, stride 32, offsets one limb apart: disjoint.
        assert_eq!(
            alias(loc(Some(1), 1, 0), loc(Some(1), 1, 32), 32),
            Alias::No
        );
        // Same base, strided lanes interleave with a shifted copy: overlap.
        assert_eq!(
            alias(loc(Some(1), 2, 0), loc(Some(1), 2, 2), 32),
            Alias::May
        );
        // Different declared bases: disjoint by contract.
        assert_eq!(alias(loc(Some(1), 1, 0), loc(Some(2), 1, 0), 32), Alias::No);
        // Constant vs. symbolic region: undecidable.
        assert_eq!(alias(loc(None, 0, 7), loc(Some(1), 1, 0), 32), Alias::May);
    }
}
