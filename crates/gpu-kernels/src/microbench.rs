//! The finite-field microbenchmarks (§IV-B/C): run the generated kernels
//! on the SMSP simulator with per-thread random operands, and extract the
//! paper's per-op latencies (Table IV), microarchitecture metrics
//! (Table VI), and warp-stall profiles (Fig. 10).

use crate::catalog::{launch, random_canonical};
use crate::ffprogs::{ff_kernel, regs, FfOp};
use crate::field32::Field32;
use gpu_sim::machine::{SimResult, SmspConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The report of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct FfOpReport {
    /// Which operation ran.
    pub op: FfOp,
    /// Field name.
    pub field: &'static str,
    /// Warps resident on the SMSP.
    pub warps: u32,
    /// Iterations of the op per thread.
    pub iters: u32,
    /// Raw simulation counters.
    pub sim: SimResult,
    /// Cycles per single field operation (Table IV's "latency").
    pub cycles_per_op: f64,
    /// Final operand values per thread (32-bit limbs), for validation.
    pub outputs: Vec<Vec<u32>>,
}

/// Per-thread input operands: `a` and `b`, 32-bit limbs each.
#[derive(Debug, Clone)]
pub struct FfInputs {
    /// First operands, one per thread per warp (`warps × 32` entries).
    pub a: Vec<Vec<u32>>,
    /// Second operands (same shape).
    pub b: Vec<Vec<u32>>,
}

impl FfInputs {
    /// Uniformly random canonical values below the modulus.
    pub fn random(field: &Field32, warps: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = warps * 32;
        FfInputs {
            a: (0..n).map(|_| random_canonical(field, &mut rng)).collect(),
            b: (0..n).map(|_| random_canonical(field, &mut rng)).collect(),
        }
    }
}

/// Runs one FF-op microbenchmark: [`ff_kernel`] through [`launch`], with
/// `inputs.a` and `inputs.b` behind the kernel's `a` and `b` pointers
/// (`b` is ignored by the one-operand ops).
///
/// # Panics
///
/// Panics if `inputs` does not provide `warps × 32` operand pairs.
pub fn run_ff_op(
    field: &Field32,
    op: FfOp,
    config: &SmspConfig,
    inputs: &FfInputs,
    warps: usize,
    iters: u32,
) -> FfOpReport {
    assert_eq!(inputs.b.len(), warps * 32, "need one `b` per thread");
    let kernel = ff_kernel(field, op, iters);
    let operands: Vec<&[Vec<u32>]> = kernel
        .regions
        .iter()
        .map(|region| match region.pointer {
            regs::ADDR_A => &inputs.a[..],
            regs::ADDR_B => &inputs.b[..],
            _ => &[],
        })
        .collect();
    let mut run = launch(&kernel, &kernel.program, config, warps, &operands);

    // Each warp performs `iters` ops; warps overlap, so per-op latency is
    // wall cycles divided by per-warp iterations.
    let cycles_per_op = run.sim.cycles as f64 / f64::from(iters);
    FfOpReport {
        op,
        field: field.name,
        warps: warps as u32,
        iters,
        sim: run.sim,
        cycles_per_op,
        outputs: run.regions.pop().expect("the output region comes last"),
    }
}

/// Convenience: random inputs + default config, the §IV-B methodology
/// (2 warps per SMSP, "representative of MSM configurations").
pub fn bench_ff_op(field: &Field32, op: FfOp, warps: usize, iters: u32, seed: u64) -> FfOpReport {
    let inputs = FfInputs::random(field, warps, seed);
    run_ff_op(field, op, &SmspConfig::default(), &inputs, warps, iters)
}
