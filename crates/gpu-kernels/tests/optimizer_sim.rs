//! Simulator confirmation of the verified optimizer: for every shipped
//! kernel, the optimized program must leave bit-identical memory to the
//! original on the cycle-level simulator — the FF ops across all four
//! fields (Fr381, Fq381, Fr377, Fq377) and both curve kernels, launched
//! from the same recipe on the same random canonical operands. The
//! translation validator's certificate claims observational equivalence;
//! this suite checks that claim against the machine the rest of the repo
//! measures with.

use gpu_kernels::catalog::{launch, random_operands, Kernel};
use gpu_kernels::curveprogs::{butterfly_kernel, xyzz_madd_kernel};
use gpu_kernels::ffprogs::{ff_kernel, FfOp};
use gpu_kernels::optimized::optimize_kernel;
use gpu_kernels::Field32;
use gpu_sim::machine::SmspConfig;
use zkp_ff::{Fq377Config, Fq381Config, Fr377Config, Fr381Config};

/// Identical operands through the original and the optimized program must
/// leave identical regions behind.
fn bit_identical(kernel: Kernel, warps: usize, seed: u64) {
    let config = SmspConfig::default();
    let tag = format!("{} {}", kernel.field.name, kernel.name);
    let optimized = optimize_kernel(kernel.clone(), &config)
        .unwrap_or_else(|e| panic!("{tag}: optimizer rejected shipped kernel: {e}"))
        .optimized
        .program;
    let operands = random_operands(&kernel, warps, seed);
    let before = launch(&kernel, &kernel.program, &config, warps, &operands);
    let after = launch(&kernel, &optimized, &config, warps, &operands);
    assert_eq!(
        before.regions, after.regions,
        "{tag}: optimized kernel diverged from original"
    );
    // An output-only region is seeded with zeros.
    let wrote = before.regions.iter().zip(&operands).any(|(end, seeded)| {
        if seeded.is_empty() {
            end.iter().flatten().any(|word| *word != 0)
        } else {
            end != seeded
        }
    });
    assert!(wrote, "{tag}: kernel wrote nothing");
}

fn ff_bit_identical(field: &Field32, seed: u64) {
    for op in FfOp::all() {
        bit_identical(ff_kernel(field, op, 1), 2, seed);
    }
}

#[test]
fn ff_ops_bit_identical_fr381() {
    ff_bit_identical(&Field32::of::<Fr381Config, 4>(), 1);
}

#[test]
fn ff_ops_bit_identical_fq381() {
    ff_bit_identical(&Field32::of::<Fq381Config, 6>(), 2);
}

#[test]
fn ff_ops_bit_identical_fr377() {
    ff_bit_identical(&Field32::of::<Fr377Config, 4>(), 3);
}

#[test]
fn ff_ops_bit_identical_fq377() {
    ff_bit_identical(&Field32::of::<Fq377Config, 6>(), 4);
}

#[test]
fn xyzz_madd_bit_identical() {
    bit_identical(xyzz_madd_kernel(&Field32::of::<Fq381Config, 6>()), 1, 13);
}

#[test]
fn butterfly_bit_identical() {
    bit_identical(butterfly_kernel(&Field32::of::<Fr381Config, 4>()), 1, 11);
}
