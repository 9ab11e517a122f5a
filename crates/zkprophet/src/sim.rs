//! The simulated GPU: one price list for prover ops.
//!
//! A simulated-GPU run is a `TracingBackend` run over the CPU kernels — so
//! proofs stay real and bit-identical — whose `ExecTrace` is priced
//! afterwards. [`GpuCostModel::charge`] is a pure function of an op's kind
//! and size, charging modeled seconds against a target device:
//!
//! * G1 MSMs and NTTs use the calibrated per-library analytical models in
//!   `gpu_kernels::libraries` (`msm_estimate` / `ntt_estimate`), which
//!   fold in the `gpu-sim` [`DeviceSpec`] throughput and PCIe transfer
//!   model.
//! * The G2 MSM is charged as host-CPU work spread over the paper host's
//!   hardware threads; [`crate::prover_model::price`] hides it behind the
//!   GPU phases (§II-A) unless it dominates.
//! * Coset scalings and witness-map evaluation are charged as
//!   memory-bandwidth-bound device passes (the stacks the paper studies
//!   keep vectors resident, so these are streaming kernels).
//!
//! [`cpu_op_seconds`] is the same list for the single-threaded CPU
//! baseline, and [`BackendSpec`] parses the `--backend` flag that selects
//! a simulated device.

use gpu_kernels::calibration::{
    cpu_msm_seconds, cpu_ntt_seconds, CPU_ADD_CYCLES, CPU_CLOCK_HZ, CPU_MUL_CYCLES,
};
use gpu_kernels::libraries::{best_library, LAUNCH_OVERHEAD_S, SCALAR_BYTES};
use gpu_kernels::{msm_estimate, ntt_estimate, LibraryId, PhaseEstimate};
use gpu_sim::DeviceSpec;
use zkp_backend::{CpuBackend, ExecBackend, OpClass, OpKind, TracingBackend};
use zkp_curves::Bls12Config;

/// A G2 point operation costs ~3× its G1 counterpart (Fq2 arithmetic).
pub const G2_COST_FACTOR: f64 = 3.0;

/// Hardware threads of the paper's host (dual-socket EPYC 7742: 128
/// cores, SMT-2). The CPU *baseline* is single-threaded like the arkworks
/// prover it calibrates, but the G2 MSM that deployments overlap with GPU
/// work gets the whole host, so its hidden cost divides by this.
pub const CPU_HOST_THREADS: f64 = 256.0;

/// `⌈log₂ n⌉`, floored at 1 so degenerate sizes stay in model range.
fn log2_ceil(n: u64) -> u32 {
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

    /// Modeled seconds of one op at `size` elements.
    pub fn charge(&self, kind: OpKind, size: u64) -> f64 {
        let log_n = log2_ceil(size);
        match kind.class() {
            OpClass::G1Msm => self.msm(log_n).1.seconds(),
            // The G2 MSM stays on the host: ~3× G1 cost per op on the CPU
            // baseline, spread across the host's hardware threads.
            OpClass::G2Msm => G2_COST_FACTOR * cpu_msm_seconds(log_n) / CPU_HOST_THREADS,
            OpClass::Ntt => self.ntt(log_n).1.seconds(),
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
                bytes as f64 / (self.device.mem_bandwidth_gbs * 1e9) + LAUNCH_OVERHEAD_S
            }
        }
    }

    /// The G1 MSM library and its estimate at `2^log_n`: the pinned
    /// library, or the fastest when none is pinned.
    pub fn msm(&self, log_n: u32) -> (LibraryId, PhaseEstimate) {
        pinned_or_best(self.msm_lib, |lib| msm_estimate(lib, &self.device, log_n))
    }

    /// The NTT library and its estimate at `2^log_n`: the pinned library
    /// when it has an NTT at the scale, else the fastest.
    pub fn ntt(&self, log_n: u32) -> (LibraryId, PhaseEstimate) {
        pinned_or_best(self.ntt_lib, |lib| ntt_estimate(lib, &self.device, log_n))
    }
}

/// `lib`'s estimate, or the fastest GPU library's when `lib` is `None` or
/// does not implement the phase at the scale.
fn pinned_or_best(
    lib: Option<LibraryId>,
    estimate: impl Fn(LibraryId) -> Option<PhaseEstimate>,
) -> (LibraryId, PhaseEstimate) {
    lib.and_then(|lib| estimate(lib).map(|est| (lib, est)))
        .unwrap_or_else(|| best_library(estimate))
}

/// Single-threaded calibrated-CPU seconds for one op — the baseline the
/// speedup columns divide by. Uses the same Table IV derived costs as
/// `cpu_msm_seconds`/`cpu_ntt_seconds`.
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

/// A parsed backend selection, e.g. from a `--backend` CLI flag.
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// The plain CPU backend.
    Cpu,
    /// The CPU backend wrapped in a [`TracingBackend`].
    Traced,
    /// A simulated GPU: the traced CPU backend, whose trace the caller
    /// prices with this model.
    Sim(GpuCostModel),
}

impl BackendSpec {
    /// Parses `cpu`, `tracing`/`traced`, or `sim:<device>[:<lib>]`: the
    /// device is matched by name fragment against the `gpu-sim` catalog
    /// (e.g. `a40`), and the library must be one of
    /// [`LibraryId::gpu_libraries`] (default `sppark`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let lower = spec.to_ascii_lowercase();
        match lower.as_str() {
            "cpu" => return Ok(BackendSpec::Cpu),
            "tracing" | "traced" => return Ok(BackendSpec::Traced),
            _ => {}
        }
        let Some(rest) = lower.strip_prefix("sim:") else {
            return Err(format!(
                "unknown backend '{spec}' (expected cpu, tracing, or sim:<device>[:<lib>])"
            ));
        };
        let (device_name, lib_name) = rest.split_once(':').unwrap_or((rest, "sppark"));
        if device_name.is_empty() {
            return Err(format!("missing device in backend spec '{spec}'"));
        }
        let device = gpu_sim::device::by_name(device_name)
            .ok_or_else(|| format!("unknown device '{device_name}' in backend spec '{spec}'"))?;
        let lib = LibraryId::by_name(lib_name)
            .filter(|lib| LibraryId::gpu_libraries().contains(lib))
            .ok_or_else(|| format!("unknown GPU library '{lib_name}' in backend spec '{spec}'"))?;
        Ok(BackendSpec::Sim(GpuCostModel::for_library(device, lib)))
    }

    /// Builds the backend on the global thread pool: `tracing` and `sim:`
    /// specs both run the traced CPU backend.
    pub fn build<C: Bls12Config>(&self) -> Box<dyn ExecBackend<C>> {
        match self {
            BackendSpec::Cpu => Box::new(CpuBackend::global()),
            BackendSpec::Traced | BackendSpec::Sim(_) => {
                Box::new(TracingBackend::new(CpuBackend::global()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover_model::price;
    use gpu_sim::device;
    use zkp_backend::G1Msm;

    fn a40() -> DeviceSpec {
        device::by_name("a40").expect("a40 in catalog")
    }

    #[test]
    fn ntt_charge_falls_back_when_library_has_no_model() {
        // ymc has no NTT; the model must fall back to the best library
        // rather than charging nothing.
        let model = GpuCostModel::for_library(a40(), LibraryId::Ymc);
        let (lib, est) = model.ntt(20);
        assert!(est.seconds() > 0.0);
        assert_ne!(lib, LibraryId::Ymc);
        // cuZK's NTT fails past 2^23 — fallback applies there too.
        let cuzk = GpuCostModel::for_library(a40(), LibraryId::Cuzk);
        assert_ne!(cuzk.ntt(26).0, LibraryId::Cuzk);
        assert_eq!(cuzk.ntt(20).0, LibraryId::Cuzk);
    }

    #[test]
    fn g2_charge_is_overlapped_and_msm_is_not() {
        // Both are charged; `price` hides the G2 MSM and keeps the G1 MSM
        // on the critical path.
        let model = GpuCostModel::for_library(a40(), LibraryId::Sppark);
        let (g1, g2) = (OpKind::MsmG1(G1Msm::A), OpKind::MsmG2);
        let b = price([(g1, 1 << 16), (g2, 1 << 16)], |k, s| model.charge(k, s));
        assert_eq!(b.g2_hidden_s, model.charge(g2, 1 << 16));
        assert_eq!(b.msm_s, model.charge(g1, 1 << 16));
        assert!(b.msm_s > 0.0 && b.g2_hidden_s > 0.0);
    }

    #[test]
    fn best_of_breed_is_no_slower_than_any_pinned_library() {
        let best = GpuCostModel::best_of_breed(a40());
        for log_n in [15, 20, 26] {
            let b = best.msm(log_n).1.seconds();
            for lib in LibraryId::gpu_libraries() {
                let p = GpuCostModel::for_library(a40(), lib).msm(log_n).1.seconds();
                assert!(
                    b <= p + 1e-12,
                    "best {b} > {p} of {} at 2^{log_n}",
                    lib.name()
                );
            }
        }
    }

    #[test]
    fn cpu_baseline_dwarfs_modeled_gpu_time_at_scale() {
        let model = GpuCostModel::best_of_breed(a40());
        let kind = OpKind::MsmG1(G1Msm::A);
        let cpu = cpu_op_seconds(kind, 1 << 22);
        let gpu = model.charge(kind, 1 << 22);
        assert!(cpu / gpu > 50.0, "speedup {} too small", cpu / gpu);
    }

    #[test]
    fn spec_parses_the_three_families() {
        assert!(matches!(BackendSpec::parse("cpu"), Ok(BackendSpec::Cpu)));
        assert!(matches!(
            BackendSpec::parse("tracing"),
            Ok(BackendSpec::Traced)
        ));
        match BackendSpec::parse("sim:a40:ymc") {
            Ok(BackendSpec::Sim(model)) => {
                assert!(model.device.name.contains("A40"));
                assert_eq!(model.msm_lib, Some(LibraryId::Ymc));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Library defaults to sppark.
        match BackendSpec::parse("sim:l40") {
            Ok(BackendSpec::Sim(model)) => assert_eq!(model.msm_lib, Some(LibraryId::Sppark)),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(BackendSpec::parse("gpu").is_err());
        assert!(BackendSpec::parse("sim:nosuchdevice").is_err());
        assert!(BackendSpec::parse("sim:a40:nosuchlib").is_err());
        // An empty device fragment would match the catalog's first entry.
        assert!(BackendSpec::parse("sim:").is_err());
        assert!(BackendSpec::parse("sim::ymc").is_err());
    }

    #[test]
    fn spec_rejects_a_library_without_a_gpu_model() {
        // arkworks has no GPU MSM model: pricing under its name would
        // charge the best GPU library's MSM behind an `arkworks` header.
        let err = BackendSpec::parse("sim:a40:arkworks").expect_err("arkworks is CPU-only");
        assert!(err.contains("arkworks"), "{err}");
        for lib in LibraryId::gpu_libraries() {
            let spec = format!("sim:a40:{}", lib.name());
            assert!(BackendSpec::parse(&spec).is_ok(), "{spec}");
        }
    }
}
