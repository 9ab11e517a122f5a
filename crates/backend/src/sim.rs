//! The simulated GPU: a price list applied to a recorded trace.
//!
//! A simulated-GPU run is a [`TracingBackend`](crate::TracingBackend) run
//! over the CPU kernels — so proofs stay real and bit-identical — whose
//! [`ExecTrace`](crate::ExecTrace) is priced afterwards.
//! [`GpuCostModel::charge`] is a pure function of an op's kind and size,
//! charging modeled seconds against a target device:
//!
//! * G1 MSMs and NTTs use the calibrated per-library analytical models in
//!   `gpu_kernels::libraries` (`msm_estimate` / `ntt_estimate`), which
//!   fold in the `gpu-sim` [`DeviceSpec`] throughput and PCIe transfer
//!   model.
//! * The G2 MSM is charged as host-CPU work spread over the paper host's
//!   cores and flagged *overlapped*: deployments run it concurrently with
//!   the GPU phases (§II-A), so it hides behind them unless it dominates.
//! * Coset scalings and witness-map evaluation are charged as
//!   memory-bandwidth-bound device passes (the stacks the paper studies
//!   keep vectors resident, so these are streaming kernels).
//!
//! [`ExecTrace::summarize`](crate::ExecTrace::summarize) charges each record
//! at its recorded size for the per-stage breakdown; report code re-charges
//! the same records at *other* problem scales — that is how the
//! trace-derived Amdahl table in `zkprophet` extrapolates one real proof to
//! the paper's 2^15–2^26 range.

use crate::trace::ModeledCost;
use crate::{OpClass, OpKind};
use gpu_kernels::calibration::{
    cpu_msm_seconds, cpu_ntt_seconds, CPU_ADD_CYCLES, CPU_CLOCK_HZ, CPU_HOST_THREADS,
    CPU_MUL_CYCLES, G2_COST_FACTOR,
};
use gpu_kernels::libraries::{best_library, LAUNCH_OVERHEAD_S, SCALAR_BYTES};
use gpu_kernels::{msm_estimate, ntt_estimate, LibraryId};
use gpu_sim::DeviceSpec;

/// `⌈log₂ n⌉`, floored at 1 so degenerate sizes stay in model range.
pub fn log2_ceil(n: u64) -> u32 {
    n.next_power_of_two().trailing_zeros().max(1)
}

/// Charges modeled device seconds for prover ops.
#[derive(Debug, Clone)]
pub struct GpuCostModel {
    /// The target device.
    pub device: DeviceSpec,
    /// MSM library model; `None` picks the fastest at each scale
    /// (the paper's plug-and-play best choice).
    pub msm_lib: Option<LibraryId>,
    /// NTT library model; falls back to the per-scale best when the
    /// library has no NTT at the scale (yrrid/ymc never do; cuZK's fails
    /// past 2^23).
    pub ntt_lib: Option<LibraryId>,
}

impl GpuCostModel {
    /// A model pinned to one library for both phases.
    pub fn for_library(device: DeviceSpec, lib: LibraryId) -> Self {
        Self {
            device,
            msm_lib: Some(lib),
            ntt_lib: Some(lib),
        }
    }

    /// A model that picks the fastest library per phase and scale.
    pub fn best_of_breed(device: DeviceSpec) -> Self {
        Self {
            device,
            msm_lib: None,
            ntt_lib: None,
        }
    }

    /// Modeled cost of one op at `size` elements.
    pub fn charge(&self, kind: OpKind, size: u64) -> ModeledCost {
        let log_n = log2_ceil(size);
        match kind.class() {
            OpClass::G1Msm => {
                let (seconds, lib) = self.msm_seconds(log_n);
                ModeledCost {
                    seconds,
                    lib: Some(lib),
                    overlapped: false,
                }
            }
            // The G2 MSM stays on the host: ~3× G1 cost per op on the CPU
            // baseline, spread across the host's hardware threads, hidden behind the
            // GPU phases (§II-A).
            OpClass::G2Msm => ModeledCost {
                seconds: G2_COST_FACTOR * cpu_msm_seconds(log_n) / CPU_HOST_THREADS,
                lib: Some(LibraryId::Arkworks),
                overlapped: true,
            },
            OpClass::Ntt => {
                let (seconds, lib) = self.ntt_seconds(log_n);
                ModeledCost {
                    seconds,
                    lib: Some(lib),
                    overlapped: false,
                }
            }
            OpClass::Residual => {
                // Streaming device passes: one read + one write per
                // element per vector touched.
                let vectors = match kind {
                    OpKind::CosetMul => 1,
                    // Witness eval reads the constraint rows and writes
                    // the three evaluation vectors.
                    _ => 3,
                };
                let bytes = size * SCALAR_BYTES * 2 * vectors;
                ModeledCost {
                    seconds: bytes as f64 / (self.device.mem_bandwidth_gbs * 1e9)
                        + LAUNCH_OVERHEAD_S,
                    lib: None,
                    overlapped: false,
                }
            }
        }
    }

    /// G1 MSM seconds at `2^log_n`, with the library that produced them.
    pub fn msm_seconds(&self, log_n: u32) -> (f64, LibraryId) {
        if let Some(lib) = self.msm_lib {
            if let Some(est) = msm_estimate(lib, &self.device, log_n) {
                return (est.seconds(), lib);
            }
        }
        let (lib, est) = best_library(|lib| msm_estimate(lib, &self.device, log_n));
        (est.seconds(), lib)
    }

    /// NTT seconds at `2^log_n`, with the library that produced them.
    pub fn ntt_seconds(&self, log_n: u32) -> (f64, LibraryId) {
        if let Some(lib) = self.ntt_lib {
            if let Some(est) = ntt_estimate(lib, &self.device, log_n) {
                return (est.seconds(), lib);
            }
        }
        let (lib, est) = best_library(|lib| ntt_estimate(lib, &self.device, log_n));
        (est.seconds(), lib)
    }
}

/// Single-threaded calibrated-CPU seconds for one op — the baseline the
/// trace-derived speedup column divides by. Uses the same Table IV derived
/// costs as `cpu_msm_seconds`/`cpu_ntt_seconds`.
pub fn cpu_op_seconds(kind: OpKind, size: u64) -> f64 {
    let log_n = log2_ceil(size);
    // 4-limb scalar-field multiply: the 6-limb Table IV cost is quadratic
    // in limb count, so it roughly halves.
    let fr_mul = CPU_MUL_CYCLES / 2.0;
    match kind.class() {
        OpClass::G1Msm => cpu_msm_seconds(log_n),
        OpClass::G2Msm => G2_COST_FACTOR * cpu_msm_seconds(log_n),
        OpClass::Ntt => cpu_ntt_seconds(log_n),
        OpClass::Residual => {
            let per_elem = match kind {
                // Power step, application, and the folded n⁻¹ scaling.
                OpKind::CosetMul => 3.0 * fr_mul,
                // ~3 sparse row evaluations of a couple of terms each.
                _ => 3.0 * (fr_mul + CPU_ADD_CYCLES),
            };
            size as f64 * per_elem / CPU_CLOCK_HZ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::G1Msm;
    use gpu_sim::device;

    fn a40() -> DeviceSpec {
        device::by_name("a40").expect("a40 in catalog")
    }

    #[test]
    fn ntt_charge_falls_back_when_library_has_no_model() {
        // ymc has no NTT; the model must fall back to the best library
        // rather than charging nothing.
        let model = GpuCostModel::for_library(a40(), LibraryId::Ymc);
        let (seconds, lib) = model.ntt_seconds(20);
        assert!(seconds > 0.0);
        assert_ne!(lib, LibraryId::Ymc);
        // cuZK's NTT fails past 2^23 — fallback applies there too.
        let cuzk = GpuCostModel::for_library(a40(), LibraryId::Cuzk);
        let (_, lib_26) = cuzk.ntt_seconds(26);
        assert_ne!(lib_26, LibraryId::Cuzk);
        let (_, lib_20) = cuzk.ntt_seconds(20);
        assert_eq!(lib_20, LibraryId::Cuzk);
    }

    #[test]
    fn g2_charge_is_overlapped_and_msm_is_not() {
        let model = GpuCostModel::for_library(a40(), LibraryId::Sppark);
        let g2 = model.charge(OpKind::MsmG2, 1 << 16);
        assert!(g2.overlapped);
        let g1 = model.charge(OpKind::MsmG1(G1Msm::A), 1 << 16);
        assert!(!g1.overlapped);
        assert!(g1.seconds > 0.0 && g2.seconds > 0.0);
    }

    #[test]
    fn best_of_breed_is_no_slower_than_any_pinned_library() {
        let best = GpuCostModel::best_of_breed(a40());
        for log_n in [15, 20, 26] {
            let (b, _) = best.msm_seconds(log_n);
            for lib in LibraryId::gpu_libraries() {
                let pinned = GpuCostModel::for_library(a40(), lib);
                let (p, _) = pinned.msm_seconds(log_n);
                assert!(b <= p + 1e-12, "best {b} > {} at 2^{log_n}", lib.name());
            }
        }
    }

    #[test]
    fn cpu_baseline_dwarfs_modeled_gpu_time_at_scale() {
        let model = GpuCostModel::best_of_breed(a40());
        let kind = OpKind::MsmG1(G1Msm::A);
        let cpu = cpu_op_seconds(kind, 1 << 22);
        let gpu = model.charge(kind, 1 << 22).seconds;
        assert!(cpu / gpu > 50.0, "speedup {} too small", cpu / gpu);
    }
}
