//! The optimized kernel zoo: every [`catalog`] kernel run through the
//! verified optimizer ([`gpu_sim::analysis::optimize`]), with the
//! translation-validation certificate attached.
//!
//! This is the kernel-layer face of the optimizer: it feeds each kernel's
//! program, ABI (input registers, address contracts) and
//! schedule-prediction facts to the optimization pipeline for a chosen
//! device, and returns the validated result — so the optimizer gate and
//! the zkprophet report cover exactly the kernels the rest of the repo
//! measures.

use crate::catalog::{catalog, Kernel};
use crate::ffprogs::KernelFacts;
use gpu_sim::analysis::{self, OptError, OptOptions, Optimized};
use gpu_sim::isa::{Program, Reg};
use gpu_sim::machine::SmspConfig;
use gpu_sim::DeviceSpec;

/// §IV-B: two resident warps per SMSP, "representative of MSM
/// configurations" — the occupancy every optimizer prediction models.
pub const OPT_WARPS: u32 = 2;

/// One zoo kernel, before and after the verified optimizer.
#[derive(Debug, Clone)]
pub struct OptimizedKernel {
    /// The kernel as generated.
    pub kernel: Kernel,
    /// The validated optimization result.
    pub optimized: Optimized,
}

/// Runs the verified optimizer on one kernel: derives the LSU wavefront
/// timings from the memory analyzer (the same cost model `analyze` uses
/// for its predictions), then optimizes at [`OPT_WARPS`] resident warps.
///
/// # Errors
///
/// Returns [`OptError::Rejected`] if the translation validator refuses
/// the transformed program (a pass bug), or [`OptError::EmptyProgram`]
/// for an empty input.
pub fn optimize_kernel(kernel: Kernel, config: &SmspConfig) -> Result<OptimizedKernel, OptError> {
    let opts = OptOptions {
        inputs: kernel.entry_regs(),
        contracts: kernel.facts.contracts.clone(),
        hints: kernel.facts.hints.clone(),
        timings: kernel.memory(config).mem_timings(),
        warps: OPT_WARPS,
    };
    let optimized = analysis::optimize_with_config(&kernel.program, config, &opts)?;
    Ok(OptimizedKernel { kernel, optimized })
}

/// Optimizes the full kernel zoo for `device`. Panics only if a shipped
/// kernel fails validation — which the optimizer gate treats as a build
/// break, because it means a transform pass silently miscompiled.
pub fn optimized_zoo(device: &DeviceSpec) -> Vec<OptimizedKernel> {
    let config = SmspConfig::from(device);
    catalog()
        .into_iter()
        .map(|kernel| {
            let name = kernel.name;
            optimize_kernel(kernel, &config)
                .unwrap_or_else(|e| panic!("optimizer rejected shipped kernel {name}: {e}"))
        })
        .collect()
}

/// The raw zoo as `(name, field, program, inputs, facts)` tuples: a view
/// of [`catalog`] for callers that predate the [`Kernel`] record.
pub fn zoo_entries() -> Vec<(String, &'static str, Program, Vec<Reg>, KernelFacts)> {
    catalog()
        .into_iter()
        .map(|k| {
            let inputs = k.entry_regs();
            (k.name.to_owned(), k.field.name, k.program, inputs, k.facts)
        })
        .collect()
}
