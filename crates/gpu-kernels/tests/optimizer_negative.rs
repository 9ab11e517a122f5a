//! The validator negative suite (ISSUE 8, satellite 3).
//!
//! The translation validator is only worth trusting if it *rejects*
//! wrong programs, so this suite applies randomized single-instruction
//! mutations — swapped operands, dropped stores, wrong immediates,
//! reordered dependent pairs — to every shipped zoo kernel and asserts
//! that `validate` refuses every mutant. Mutation sites are restricted
//! to instructions whose effect is observable (stores, loads, compare
//! chains, live arithmetic), because accepting a mutation of provably
//! dead code is correct validator behavior, not a soundness hole.
//!
//! The proptest half checks the other satellite-3 property: list
//! scheduling is deterministic (same input → byte-identical output,
//! run to run and across modeled warp counts) and output-invariant
//! (the simulator produces bit-identical results for original and
//! optimized kernels across random input seeds and thread counts).

use gpu_kernels::catalog::{catalog, launch, random_operands};
use gpu_kernels::ffprogs::{ff_kernel, FfOp};
use gpu_kernels::field32::Field32;
use gpu_kernels::optimized::{optimize_kernel, OPT_WARPS};
use gpu_sim::analysis::dataflow::{instr_defs, instr_uses};
use gpu_sim::analysis::{validate, RegMap, Resource};
use gpu_sim::isa::{Instr, Program, Src};
use gpu_sim::machine::SmspConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkp_ff::Fr381Config;

/// Mutants tried per kernel per mutation class (when enough sites exist).
const PICKS_PER_CLASS: usize = 4;

/// Pcs that are the target of some branch — a reorder across one of
/// these would move an instruction between basic blocks, which is a
/// structural change rather than the single-block bug class we model.
fn branch_targets(instrs: &[Instr]) -> Vec<usize> {
    instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Bra { target, .. } => Some(*target),
            _ => None,
        })
        .collect()
}

/// Swaps a pair of operands in a way that changes the instruction's
/// meaning: the multiplier/addend of an IMAD, the funnel pair of an
/// SHF, the arms of a SEL, the sides of an asymmetric SETP, or the
/// value/address registers of an STG.
fn swap_operands(i: &Instr) -> Option<Instr> {
    match *i {
        Instr::Imad {
            dst,
            a,
            b,
            c,
            hi,
            set_cc,
            use_cc,
        } if b != c => Some(Instr::Imad {
            dst,
            a,
            b: c,
            c: b,
            hi,
            set_cc,
            use_cc,
        }),
        Instr::Shf {
            dst,
            a,
            b,
            sh,
            right,
        } if a != b => Some(Instr::Shf {
            dst,
            a: b,
            b: a,
            sh,
            right,
        }),
        Instr::Sel { dst, a, b, pred } if a != b => Some(Instr::Sel {
            dst,
            a: b,
            b: a,
            pred,
        }),
        Instr::Setp { pred, a, b, cmp }
            if a != b && matches!(cmp, gpu_sim::isa::CmpOp::Lt | gpu_sim::isa::CmpOp::Ge) =>
        {
            Some(Instr::Setp {
                pred,
                a: b,
                b: a,
                cmp,
            })
        }
        Instr::Stg { src, addr, offset } if src != addr => Some(Instr::Stg {
            src: addr,
            addr: src,
            offset,
        }),
        _ => None,
    }
}

/// Models a dropped store without shifting branch targets: the STG is
/// replaced in place by a same-length no-op (`MOV r, r`).
fn drop_store(i: &Instr) -> Option<Instr> {
    match *i {
        Instr::Stg { src, .. } => Some(Instr::Mov {
            dst: src,
            src: Src::Reg(src),
        }),
        _ => None,
    }
}

/// Perturbs an immediate whose value is always observable: a load or
/// store word offset, or the immediate side of a compare feeding a
/// branch or select.
fn wrong_immediate(i: &Instr) -> Option<Instr> {
    match *i {
        Instr::Ldg { dst, addr, offset } => Some(Instr::Ldg {
            dst,
            addr,
            offset: offset.wrapping_add(1),
        }),
        Instr::Stg { src, addr, offset } => Some(Instr::Stg {
            src,
            addr,
            offset: offset.wrapping_add(1),
        }),
        Instr::Setp {
            pred,
            a,
            b: Src::Imm(k),
            cmp,
        } => Some(Instr::Setp {
            pred,
            a,
            b: Src::Imm(k.wrapping_add(1)),
            cmp,
        }),
        _ => None,
    }
}

/// Whether `pc` writes a resource that `pc + 1` reads (a true
/// dependence), so swapping the pair changes the second instruction's
/// input values.
fn dependent_pair(instrs: &[Instr], pc: usize) -> bool {
    let mut defs: Vec<Resource> = Vec::new();
    instr_defs(&instrs[pc], |r| defs.push(r));
    let mut dependent = false;
    instr_uses(&instrs[pc + 1], |r| dependent |= defs.contains(&r));
    dependent
}

/// All mutants of one class over the program, as `(pc, mutated list)`.
fn mutants_of(
    instrs: &[Instr],
    class: &str,
    mutate: impl Fn(&Instr) -> Option<Instr>,
) -> Vec<(usize, String, Vec<Instr>)> {
    instrs
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| {
            let m = mutate(i)?;
            let mut out = instrs.to_vec();
            out[pc] = m;
            Some((pc, class.to_owned(), out))
        })
        .collect()
}

/// Reordered-dependent-pair mutants: adjacent straight-line pairs with
/// a true dependence, swapped.
fn reorder_mutants(instrs: &[Instr]) -> Vec<(usize, String, Vec<Instr>)> {
    let targets = branch_targets(instrs);
    (0..instrs.len().saturating_sub(1))
        .filter(|&pc| {
            !matches!(instrs[pc], Instr::Bra { .. } | Instr::Exit)
                && !matches!(instrs[pc + 1], Instr::Bra { .. } | Instr::Exit)
                && !targets.contains(&(pc + 1))
                && instrs[pc] != instrs[pc + 1]
                && dependent_pair(instrs, pc)
        })
        .map(|pc| {
            let mut out = instrs.to_vec();
            out.swap(pc, pc + 1);
            (pc, "reordered dependent pair".to_owned(), out)
        })
        .collect()
}

#[test]
fn randomized_mutations_are_rejected_on_every_kernel() {
    let mut rejected = 0usize;
    let zoo = catalog();
    for (idx, kernel) in zoo.iter().enumerate() {
        let (name, program, facts) = (kernel.name, &kernel.program, &kernel.facts);
        let instrs = instr_seq(program);
        let n_regs = program.len(); // generous register universe bound
        let identity = RegMap::identity(n_regs);

        let mut all: Vec<(usize, String, Vec<Instr>)> = Vec::new();
        all.extend(mutants_of(&instrs, "swapped operands", swap_operands));
        all.extend(mutants_of(&instrs, "dropped store", drop_store));
        all.extend(mutants_of(&instrs, "wrong immediate", wrong_immediate));
        all.extend(reorder_mutants(&instrs));
        assert!(
            !all.is_empty(),
            "{name}: no mutation sites found — the suite covers nothing"
        );

        // Seeded per kernel so failures reproduce; sample per class.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ idx as u64);
        for class in [
            "swapped operands",
            "dropped store",
            "wrong immediate",
            "reordered dependent pair",
        ] {
            let mut sites: Vec<&(usize, String, Vec<Instr>)> =
                all.iter().filter(|(_, c, _)| c == class).collect();
            // Seeded Fisher-Yates over the prefix we sample.
            for i in 0..sites.len().min(PICKS_PER_CLASS) {
                let j = rng.gen_range(i..sites.len());
                sites.swap(i, j);
            }
            for (pc, _, mutated) in sites.into_iter().take(PICKS_PER_CLASS) {
                let mutant = Program::from_instrs(mutated.clone());
                let verdict = validate(program, &mutant, &identity, &facts.contracts, 32);
                assert!(
                    verdict.is_err(),
                    "{name}: {class} at pc {pc} was ACCEPTED — validator soundness hole"
                );
                rejected += 1;
            }
        }
    }
    // Every kernel has stores and loads; the suite must have exercised
    // a meaningful number of mutants, not vacuously passed.
    assert!(
        rejected >= zoo.len() * 2 * PICKS_PER_CLASS,
        "only {rejected} mutants tried"
    );
}

/// The unmutated program must still validate against itself — the
/// suite's rejections come from the mutations, not from a validator
/// that rejects everything.
#[test]
fn identity_roundtrip_still_validates() {
    for k in catalog() {
        let copy = Program::from_instrs(instr_seq(&k.program));
        let identity = RegMap::identity(k.program.len());
        validate(&k.program, &copy, &identity, &k.facts.contracts, 32)
            .unwrap_or_else(|e| panic!("{}: identity copy rejected: {e}", k.name));
    }
}

fn fr() -> Field32 {
    Field32::of::<Fr381Config, 4>()
}

fn optimize_ff(op: FfOp, warps: u32) -> gpu_sim::analysis::Optimized {
    let config = SmspConfig::default();
    let mut k =
        optimize_kernel(ff_kernel(&fr(), op, 1), &config).expect("shipped kernel must optimize");
    // `optimize_kernel` models OPT_WARPS; re-run at the requested count
    // only matters for predictions, which determinism must ignore.
    if warps != OPT_WARPS {
        let kernel = &k.kernel;
        let opts = gpu_sim::analysis::OptOptions {
            inputs: kernel.entry_regs(),
            contracts: kernel.facts.contracts.clone(),
            hints: kernel.facts.hints.clone(),
            timings: kernel.memory(&config).mem_timings(),
            warps,
        };
        k.optimized = gpu_sim::analysis::optimize_with_config(&kernel.program, &config, &opts)
            .expect("re-optimize");
    }
    k.optimized
}

fn instr_seq(p: &Program) -> Vec<Instr> {
    (0..p.len()).map(|pc| p.fetch(pc)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// List scheduling (and the whole pipeline around it) is a pure
    /// function of the program and cost model: repeated runs and
    /// different modeled warp counts produce byte-identical code.
    #[test]
    fn scheduling_is_deterministic_and_warp_invariant(warps in 1u32..=8) {
        let base = optimize_ff(FfOp::Mul, OPT_WARPS);
        let again = optimize_ff(FfOp::Mul, OPT_WARPS);
        prop_assert_eq!(instr_seq(&base.program), instr_seq(&again.program));
        let other = optimize_ff(FfOp::Mul, warps);
        prop_assert_eq!(instr_seq(&base.program), instr_seq(&other.program));
    }

    /// Bit-identical simulator outputs, original vs optimized, across
    /// random input seeds and resident-warp counts.
    #[test]
    fn optimized_outputs_bit_identical(seed in 0u64..1 << 32, warps in 1usize..=4) {
        let kernel = ff_kernel(&fr(), FfOp::Mul, 1);
        let optimized = optimize_ff(FfOp::Mul, OPT_WARPS);
        let config = SmspConfig::default();
        let operands = random_operands(&kernel, warps, seed);
        let before = launch(&kernel, &kernel.program, &config, warps, &operands);
        let after = launch(&kernel, &optimized.program, &config, warps, &operands);
        prop_assert_eq!(before.regions, after.regions);
    }
}
