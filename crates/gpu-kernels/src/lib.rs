//! GPU kernels for ZKP finite-field operations, expressed in the
//! `gpu-sim` micro-ISA, plus analytical models of the five GPU libraries
//! the paper evaluates.
//!
//! The kernels here are *functionally executed* by the simulator on real
//! data and cross-validated against the 64-bit host fields of `zkp-ff` —
//! the same algorithm at the two limb widths the paper contrasts (§II).

#![forbid(unsafe_code)]

pub mod calibration;
pub mod catalog;
pub mod curveprogs;
pub mod ffprogs;
pub mod field32;
pub mod libraries;
pub mod microbench;
pub mod optimized;

pub use catalog::{catalog, launch, Kernel};
pub use ffprogs::{ff_program, FfOp};
pub use field32::{join_limbs, split_limbs, Field32};
pub use libraries::{
    kernel_costs, msm_estimate, ntt_estimate, KernelCosts, LibraryId, PhaseEstimate,
};
pub use microbench::{bench_ff_op, run_ff_op, FfInputs, FfOpReport};
pub use optimized::{optimize_kernel, optimized_zoo, OptimizedKernel, OPT_WARPS};
