//! Pluggable execution backends for the Groth16 prover.
//!
//! The prover in `zkp-groth16` is a *stage graph* — witness-map
//! evaluation, the 7-transform quotient pipeline, four G1 MSMs and one G2
//! MSM — and every heavy operation in it is issued through the
//! [`ExecBackend`] trait defined here. Three implementations ship:
//!
//! * [`CpuBackend`] — dispatches to the real `zkp-msm`/`zkp-ntt` kernels
//!   on a `zkp-runtime` thread pool. Bit-identical to the pre-backend
//!   prover at any thread count.
//! * [`TracingBackend`] — a decorator that forwards to an inner backend
//!   and records an [`ExecTrace`] (op kind, size, wall time) for
//!   per-stage breakdowns.
//! * [`FaultInjectingBackend`] — a decorator that fails, panics or delays
//!   ops per a seeded [`FaultPlan`].
//!
//! A simulated GPU is not a backend: it is a [`GpuCostModel`] that prices
//! a recorded trace ([`ExecTrace::summarize`]) with the calibrated
//! `gpu-kernels` library models and the `gpu-sim` device/transfer model,
//! so one real proof yields a modeled end-to-end GPU latency (the paper's
//! runtime-breakdown tables, derived from an actual execution trace).
//!
//! Dispatch is object-safe: the trait is generic over the curve
//! configuration at the *trait* level, so `&dyn ExecBackend<C>` works and
//! [`BackendSpec::build`] can hand back a boxed backend chosen at runtime
//! from a spec string like `tracing` or `sim:a40:sppark`.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod fault;
pub mod sim;
pub mod trace;

use gpu_sim::DeviceSpec;
use std::time::Instant;
use zkp_curves::{Bls12Config, G1Curve, G2Curve, Jacobian};
use zkp_ff::PrimeField;
use zkp_msm::{MsmPlan, MsmScratch};
use zkp_ntt::{Domain, QuotientOps, TwiddleTable};
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

pub use cpu::CpuBackend;
pub use fault::{FaultInjectingBackend, FaultKind, FaultPlan, FaultStage, InjectedFaults};
pub use gpu_kernels::LibraryId;
pub use sim::{cpu_op_seconds, GpuCostModel};
pub use trace::{
    ExecTrace, G1Msm, ModeledCost, OpClass, OpKind, OpRecord, StageRow, TraceSummary,
    TracingBackend,
};

/// The three QAP witness maps `(⟨A,z⟩, ⟨B,z⟩, ⟨C,z⟩)` over the domain.
pub type WitnessMaps<F> = (Vec<F>, Vec<F>, Vec<F>);

/// Why a fallible backend operation did not complete.
///
/// This is the typed error every [`ExecBackend`] op returns; it propagates
/// up through `ProverSession::try_prove_in_on` to the proof service's
/// retry loop instead of unwinding the worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The operation failed — an injected fault in tests/experiments, or
    /// a real device error in a hardware backend.
    OpFailed {
        /// The op that failed (e.g. `"msm_g1"`, `"ntt_forward"`).
        op: &'static str,
        /// The backend-local op index (dispatch order).
        index: u64,
        /// Backend-specific failure description.
        reason: String,
    },
    /// A prove deadline passed between task-graph stages; the remaining
    /// work was abandoned instead of finishing a proof nobody can use.
    DeadlineExceeded {
        /// The stage at whose boundary the deadline check fired.
        stage: &'static str,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::OpFailed { op, index, reason } => {
                write!(f, "backend op {op} #{index} failed: {reason}")
            }
            BackendError::DeadlineExceeded { stage } => {
                write!(f, "prove deadline exceeded at stage {stage}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Returns [`BackendError::DeadlineExceeded`] if `deadline` has passed.
///
/// The prover calls this between task-graph stages so a job whose
/// deadline expired mid-prove is abandoned at the next stage boundary.
/// `None` disables the check (always `Ok`).
pub fn check_deadline(deadline: Option<Instant>, stage: &'static str) -> Result<(), BackendError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(BackendError::DeadlineExceeded { stage }),
        _ => Ok(()),
    }
}

/// The heavy-operation interface the prover dispatches through: two
/// identity methods, one reporting hook, and six ops.
///
/// Bases reach a backend only as an [`MsmPlan`]: the per-key plan built
/// over the proving key's points (endomorphism images and window
/// precompute cached across proofs), or the zero-budget plan a one-shot
/// proof builds. The plan fixes the schedule, so every backend runs the
/// same MSM and [`MsmPlan::algorithm`] names it.
///
/// Every op is fallible and threads caller-owned buffers, and none has a
/// default body — a decorator has to forward each one, so it cannot drop
/// the error channel or the scratch by omission.
///
/// Implementations must be schedule-deterministic: for a fixed input the
/// returned values are bit-identical at any pool thread count (the work
/// decomposition of every kernel is a pure function of problem shape).
pub trait ExecBackend<C: Bls12Config>: Sync {
    /// Backend name for traces and reports (e.g. `"cpu"`,
    /// `"traced:cpu"`).
    fn name(&self) -> String;

    /// The pool the prover's stage graph forks on. Backend ops run on the
    /// same pool so nesting stays deadlock-free.
    fn pool(&self) -> &ThreadPool;

    /// Drains and returns the trace recorded since the last call. Backends
    /// that do not record return an empty trace.
    fn take_trace(&self) -> ExecTrace {
        ExecTrace::empty(self.name(), self.pool().num_threads())
    }

    /// Evaluates the QAP witness maps over the (padded) domain into `a`,
    /// `b`, `c` (cleared and refilled; capacity reused). Must agree with
    /// [`witness_maps_into`].
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend cannot complete the evaluation.
    fn witness_eval(
        &self,
        cs: &ConstraintSystem<C::Fr>,
        domain_size: u64,
        a: &mut Vec<C::Fr>,
        b: &mut Vec<C::Fr>,
        c: &mut Vec<C::Fr>,
    ) -> Result<(), BackendError>;

    /// Forward NTT over the table's domain, in place.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the transform fails.
    fn ntt_forward(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError>;

    /// Inverse NTT *without* the `n⁻¹` scaling — the pipeline folds that
    /// into the following [`coset_mul`](Self::coset_mul).
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the transform fails.
    fn ntt_inverse(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError>;

    /// `values[i] *= gⁱ · scale` — the coset shift fused with the INTT's
    /// `n⁻¹` scaling.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the scaling fails.
    fn coset_mul(&self, values: &mut [C::Fr], g: C::Fr, scale: C::Fr) -> Result<(), BackendError>;

    /// One of the prover's four G1 MSMs: `plan`'s run over `scalars`.
    /// A warmed `scratch` (one prior MSM of the same shape) makes the CPU
    /// kernels allocation-free.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend cannot complete the MSM.
    fn msm_g1(
        &self,
        which: G1Msm,
        plan: &MsmPlan<G1Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G1Curve<C>>,
    ) -> Result<Jacobian<G1Curve<C>>, BackendError>;

    /// The G2 MSM (the one the paper notes runs on the CPU, §II-A):
    /// `plan`'s run over `scalars`.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend cannot complete the MSM.
    fn msm_g2(
        &self,
        plan: &MsmPlan<G2Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G2Curve<C>>,
    ) -> Result<Jacobian<G2Curve<C>>, BackendError>;
}

/// Delegation so decorators and the prover can hold backends by reference.
impl<C: Bls12Config, B: ExecBackend<C> + ?Sized> ExecBackend<C> for &B {
    fn name(&self) -> String {
        (**self).name()
    }
    fn pool(&self) -> &ThreadPool {
        (**self).pool()
    }
    fn take_trace(&self) -> ExecTrace {
        (**self).take_trace()
    }
    fn witness_eval(
        &self,
        cs: &ConstraintSystem<C::Fr>,
        domain_size: u64,
        a: &mut Vec<C::Fr>,
        b: &mut Vec<C::Fr>,
        c: &mut Vec<C::Fr>,
    ) -> Result<(), BackendError> {
        (**self).witness_eval(cs, domain_size, a, b, c)
    }
    fn ntt_forward(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError> {
        (**self).ntt_forward(table, values)
    }
    fn ntt_inverse(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError> {
        (**self).ntt_inverse(table, values)
    }
    fn coset_mul(&self, values: &mut [C::Fr], g: C::Fr, scale: C::Fr) -> Result<(), BackendError> {
        (**self).coset_mul(values, g, scale)
    }
    fn msm_g1(
        &self,
        which: G1Msm,
        plan: &MsmPlan<G1Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G1Curve<C>>,
    ) -> Result<Jacobian<G1Curve<C>>, BackendError> {
        (**self).msm_g1(which, plan, scalars, scratch)
    }
    fn msm_g2(
        &self,
        plan: &MsmPlan<G2Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G2Curve<C>>,
    ) -> Result<Jacobian<G2Curve<C>>, BackendError> {
        (**self).msm_g2(plan, scalars, scratch)
    }
}

/// The prover-side QAP witness maps: `(⟨A_j,z⟩, ⟨B_j,z⟩, ⟨C_j,z⟩)` per
/// domain row, zero-padded to `domain_size`, with the input-consistency
/// rows appended (libsnark/arkworks construction). Allocating form of
/// [`witness_maps_into`].
///
/// # Panics
///
/// Panics if `domain_size` cannot hold the constraint and consistency rows.
pub fn witness_maps<F: PrimeField>(cs: &ConstraintSystem<F>, domain_size: u64) -> WitnessMaps<F> {
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    witness_maps_into(cs, domain_size, &mut a, &mut b, &mut c);
    (a, b, c)
}

/// The QAP witness maps into caller-owned buffers: clears and refills
/// `a`, `b`, `c` (reusing their capacity). This is the reference every
/// backend's `witness_eval` must agree with, and the allocation-free form
/// the session hot path uses.
///
/// # Panics
///
/// Panics if `domain_size` cannot hold the constraint and consistency rows.
pub fn witness_maps_into<F: PrimeField>(
    cs: &ConstraintSystem<F>,
    domain_size: u64,
    a: &mut Vec<F>,
    b: &mut Vec<F>,
    c: &mut Vec<F>,
) {
    let n = domain_size as usize;
    assert!(
        n > cs.num_constraints() + cs.num_public(),
        "domain too small for the constraint system"
    );
    for v in [&mut *a, &mut *b, &mut *c] {
        v.clear();
        v.resize(n, F::zero());
    }
    for (row, constraint) in cs.constraints.iter().enumerate() {
        a[row] = constraint.a.evaluate(&cs.assignment);
        b[row] = constraint.b.evaluate(&cs.assignment);
        c[row] = constraint.c.evaluate(&cs.assignment);
    }
    // Input-consistency rows: A = variable j, for j = 0..=num_public
    // (z[0] = 1, then the public inputs).
    a[cs.num_constraints()] = F::one();
    for (j, x) in cs.assignment.public.iter().enumerate() {
        a[cs.num_constraints() + 1 + j] = *x;
    }
}

/// [`QuotientOps`] through an [`ExecBackend`]: the transforms and coset
/// scalings are backend ops, and every stage boundary checks `deadline`.
struct BackendOps<'a, C: Bls12Config, B: ?Sized> {
    backend: &'a B,
    table: &'a TwiddleTable<C::Fr>,
    deadline: Option<Instant>,
}

impl<C: Bls12Config, B: ExecBackend<C> + ?Sized> QuotientOps<C::Fr> for BackendOps<'_, C, B> {
    type Error = BackendError;

    fn pool(&self) -> &ThreadPool {
        self.backend.pool()
    }
    fn ntt_forward(&self, values: &mut [C::Fr]) -> Result<(), BackendError> {
        self.backend.ntt_forward(self.table, values)
    }
    fn ntt_inverse(&self, values: &mut [C::Fr]) -> Result<(), BackendError> {
        self.backend.ntt_inverse(self.table, values)
    }
    fn coset_mul(&self, values: &mut [C::Fr], g: C::Fr, scale: C::Fr) -> Result<(), BackendError> {
        self.backend.coset_mul(values, g, scale)
    }
    fn checkpoint(&self, stage: &'static str) -> Result<(), BackendError> {
        check_deadline(self.deadline, stage)
    }
}

/// The 7-transform quotient pipeline `h = (a·b − c)/Z`, fully in place:
/// [`zkp_ntt::quotient_schedule`] with every transform and coset scaling
/// issued through `backend`. Consumes the evaluation vectors and leaves
/// the coefficients of `h` in `a` (`b`, `c` clobbered as scratch),
/// allocating nothing. It is the schedule `zkp_ntt::quotient_poly_in`
/// runs, so on the CPU backend the two are the same computation.
///
/// `deadline` is checked before every transform group so an expired job
/// is abandoned at the next stage boundary instead of finishing dead
/// work; `None` disables the check.
///
/// Returns the number of NTT-shaped transforms performed (7).
///
/// # Errors
///
/// The first [`BackendError`] any transform reports (chains are checked
/// in a/b/c order), or [`BackendError::DeadlineExceeded`] from a stage
/// boundary.
///
/// # Panics
///
/// Panics if the evaluation slices or the table disagree with the domain.
pub fn quotient_pipeline_in<C: Bls12Config, B: ExecBackend<C> + ?Sized>(
    domain: &Domain<C::Fr>,
    table: &TwiddleTable<C::Fr>,
    a: &mut [C::Fr],
    b: &mut [C::Fr],
    c: &mut [C::Fr],
    backend: &B,
    deadline: Option<Instant>,
) -> Result<u32, BackendError> {
    let ops = BackendOps {
        backend,
        table,
        deadline,
    };
    zkp_ntt::quotient_schedule(domain, &ops, a, b, c)
}

/// Parses a library name as the paper spells it (`"sppark"`, `"ymc"`, …).
pub fn library_by_name(name: &str) -> Option<LibraryId> {
    let all = [
        LibraryId::Arkworks,
        LibraryId::Bellperson,
        LibraryId::Sppark,
        LibraryId::Cuzk,
        LibraryId::Yrrid,
        LibraryId::Ymc,
    ];
    all.into_iter()
        .find(|lib| lib.name().eq_ignore_ascii_case(name))
}

/// A parsed backend selection, e.g. from a `--backend` CLI flag.
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// The plain CPU backend.
    Cpu,
    /// The CPU backend wrapped in a [`TracingBackend`].
    Traced,
    /// A simulated GPU: the traced CPU backend, whose trace the caller
    /// prices with `GpuCostModel::for_library(device, msm_lib)`.
    Sim {
        /// Target device.
        device: DeviceSpec,
        /// Library whose MSM model charges the G1 MSMs. NTTs use the same
        /// library when it has an NTT at the scale, else the best model.
        msm_lib: LibraryId,
    },
}

impl BackendSpec {
    /// Parses `cpu`, `tracing`/`traced`, or `sim:<device>:<lib>` (library
    /// optional, default `sppark`; device matched by name fragment against
    /// the `gpu-sim` catalog, e.g. `a40`).
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
        let (device_name, lib_name) = match rest.split_once(':') {
            Some((d, l)) => (d, l),
            None => (rest, "sppark"),
        };
        if device_name.is_empty() {
            return Err(format!("missing device in backend spec '{spec}'"));
        }
        let device = gpu_sim::device::by_name(device_name)
            .ok_or_else(|| format!("unknown device '{device_name}' in backend spec '{spec}'"))?;
        let msm_lib = library_by_name(lib_name)
            .ok_or_else(|| format!("unknown library '{lib_name}' in backend spec '{spec}'"))?;
        Ok(BackendSpec::Sim { device, msm_lib })
    }

    /// Builds the backend on the global thread pool: `tracing` and `sim:`
    /// specs both run the traced CPU backend.
    pub fn build<C: Bls12Config>(&self) -> Box<dyn ExecBackend<C>> {
        match self {
            BackendSpec::Cpu => Box::new(CpuBackend::global()),
            BackendSpec::Traced | BackendSpec::Sim { .. } => {
                Box::new(TracingBackend::new(CpuBackend::global()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkp_ff::{Field, Fr381};
    use zkp_r1cs::circuits::mimc;

    #[test]
    fn witness_maps_match_row_evaluations() {
        let cs = mimc(Fr381::from_u64(3), 4);
        assert!(cs.is_satisfied());
        let rows = cs.num_constraints() + cs.num_public() + 1;
        let n = rows.next_power_of_two() as u64;
        let (a, b, c) = witness_maps(&cs, n);
        assert_eq!(a.len(), n as usize);
        // Each constraint row satisfies a·b = c.
        for row in 0..cs.num_constraints() {
            assert_eq!(a[row] * b[row], c[row]);
        }
        // Consistency rows carry the public inputs; padding is zero.
        assert!(a[cs.num_constraints()].is_one());
        assert!(a[rows..].iter().all(|x| x.is_zero()));
    }

    #[test]
    fn spec_parses_the_three_families() {
        assert!(matches!(BackendSpec::parse("cpu"), Ok(BackendSpec::Cpu)));
        assert!(matches!(
            BackendSpec::parse("tracing"),
            Ok(BackendSpec::Traced)
        ));
        match BackendSpec::parse("sim:a40:ymc") {
            Ok(BackendSpec::Sim { device, msm_lib }) => {
                assert!(device.name.contains("A40"));
                assert_eq!(msm_lib, LibraryId::Ymc);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Library defaults to sppark.
        match BackendSpec::parse("sim:l40") {
            Ok(BackendSpec::Sim { msm_lib, .. }) => assert_eq!(msm_lib, LibraryId::Sppark),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(BackendSpec::parse("gpu").is_err());
        assert!(BackendSpec::parse("sim:nosuchdevice").is_err());
        assert!(BackendSpec::parse("sim:a40:nosuchlib").is_err());
        // An empty device fragment would match the catalog's first entry.
        assert!(BackendSpec::parse("sim:").is_err());
        assert!(BackendSpec::parse("sim::ymc").is_err());
    }
}
