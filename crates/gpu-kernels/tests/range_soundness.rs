//! Soundness of the value-range analysis (`gpu_sim::analysis::ranges`):
//!
//! 1. **Dynamic containment** (property test): every limb a randomized
//!    execution of every FF kernel stores lies inside the statically
//!    inferred [`StoreBound`] interval, on all four supported fields.
//! 2. **The `< 2p` Montgomery contract**: the analyzer proves the CIOS
//!    accumulator stays below `2p` before the final conditional reduction
//!    in the programs of *both* generators — the `ffprogs` microbenchmarks
//!    and the `curveprogs` kernels, which compose the same
//!    `FfEmitter::mul` — for every supported field.
//! 3. **The gate actually fires**: a deliberately broken kernel (a carry
//!    chain whose `IADD3.CC` can produce a two-bit carry) raises
//!    `PossibleOverflow`.
//!
//! The `< 2p` obligations are *per-application* contracts, proved at
//! `iters = 1` where the loop back edge is statically infeasible and the
//! canonical-load assumptions reach the multiply; induction over
//! iterations (canonical in ⇒ canonical out) extends them to any count.
//! Overflow-freedom needs no such restriction and is checked at
//! `iters = 4` too.

use gpu_kernels::catalog::kernels_over;
use gpu_kernels::ffprogs::{ff_kernel, regs, LIMB_STRIDE_WORDS};
use gpu_kernels::microbench::{run_ff_op, FfInputs};
use gpu_kernels::{FfOp, Field32};
use gpu_sim::analysis::{analyze_ranges, LintKind};
use gpu_sim::isa::{ProgramBuilder, Src};
use gpu_sim::machine::SmspConfig;
use proptest::prelude::*;
use zkp_ff::Fr381Config;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized executions never escape the inferred store intervals.
    #[test]
    fn ff_outputs_stay_inside_inferred_intervals(seed in 0u64..1 << 48, iters in 1u32..3) {
        let config = SmspConfig::default();
        for field in &Field32::supported() {
            let fname = field.name;
            for op in FfOp::all() {
                let ra = ff_kernel(field, op, iters).ranges();
                prop_assert!(ra.is_clean(), "{op:?} {fname}: {:?}", ra.diagnostics);

                let inputs = FfInputs::random(field, 1, seed);
                let report = run_ff_op(field, op, &config, &inputs, 1, iters);
                // The kernel's stores all go through ADDR_OUT at word
                // offset j·LIMB_STRIDE_WORDS (warp-interleaved layout);
                // the static interval for that store must contain every
                // limb any thread actually wrote.
                for sb in &ra.store_bounds {
                    prop_assert_eq!(sb.addr, regs::ADDR_OUT);
                    for out in &report.outputs {
                        let limb = out[(sb.offset / LIMB_STRIDE_WORDS) as usize];
                        prop_assert!(
                            sb.value.contains(limb),
                            "{:?} {}: stored limb {} = {:#x} outside [{:#x}, {:#x}]",
                            op, fname, sb.offset, limb, sb.value.lo, sb.value.hi
                        );
                    }
                }
            }
        }
    }
}

/// Both generators' `< 2p` obligations prove on all four fields: one per
/// canonical-input multiply — `FF_mul`, `FF_sqr`, the butterfly's `ω·b`,
/// and the XYZZ madd's `U2` and `S2`.
#[test]
fn cios_output_bound_proves_for_both_generators_on_all_fields() {
    for field in &Field32::supported() {
        let fname = field.name;
        let mut obligations = Vec::new();
        for kernel in kernels_over(field, field) {
            let ra = kernel.ranges();
            assert!(
                ra.diagnostics.is_empty(),
                "{} {fname}: {:?}",
                kernel.name,
                ra.diagnostics
            );
            assert_eq!(
                ra.proved.len(),
                kernel.facts.obligations.len(),
                "{} {fname}",
                kernel.name
            );
            obligations.push((kernel.name, ra.proved.len()));
        }
        obligations.retain(|(_, proved)| *proved > 0);
        assert_eq!(
            obligations,
            [
                ("FF_mul", 1),
                ("FF_sqr", 1),
                ("XYZZ madd", 2),
                ("NTT butterfly", 1)
            ],
            "{fname}"
        );
    }
}

/// A deliberately broken kernel — an `IADD3.CC` adding three full-range
/// registers, whose carry-out needs two bits — must raise
/// `PossibleOverflow`.
#[test]
fn broken_carry_chain_triggers_possible_overflow() {
    let mut b = ProgramBuilder::new();
    b.ldg(0, 10, 0);
    b.ldg(1, 10, 1);
    b.ldg(2, 10, 2);
    // r3 = r0 + r1 + r2 can reach 3·(2^32 - 1): the carry-out exceeds
    // one bit, which the downstream `.CC` consumer cannot represent.
    b.iadd3(3, Src::Reg(0), Src::Reg(1), Src::Reg(2), true, false);
    b.iadd3(4, Src::Imm(0), Src::Imm(0), Src::Imm(0), false, true);
    b.stg(3, 10, 3);
    b.stg(4, 10, 4);
    b.exit();
    let program = b.build();

    let ra = analyze_ranges(&program, &gpu_sim::analysis::RangeAssumptions::new(), &[]);
    assert!(
        ra.diagnostics
            .iter()
            .any(|d| d.kind == LintKind::PossibleOverflow),
        "expected PossibleOverflow, got {:?}",
        ra.diagnostics
    );
}

/// A too-strong obligation — claiming the untouched sum of two canonical
/// loads is `< p` when it can reach `2p - 2` — must surface as
/// `RangeUnprovable` rather than silently "prove".
#[test]
fn false_obligation_is_reported_unprovable() {
    let field = Field32::of::<Fr381Config, 4>();
    let mut kernel = ff_kernel(&field, FfOp::Mul, 1);
    // Tighten the real `< 2p` obligation into a false `< p` one.
    let obligations = &mut kernel.facts.obligations;
    assert_eq!(obligations.len(), 1);
    obligations[0].bound = field.modulus.clone();
    obligations[0].what = format!("FALSE claim: CIOS output < p ({})", field.name);
    let ra = kernel.ranges();
    assert!(
        ra.diagnostics
            .iter()
            .any(|d| d.kind == LintKind::RangeUnprovable),
        "expected RangeUnprovable, got {:?}",
        ra.diagnostics
    );
    assert!(ra.proved.is_empty());
}
