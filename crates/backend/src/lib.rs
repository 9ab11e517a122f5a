//! Pluggable execution backends for the Groth16 prover.
//!
//! The prover in `zkp-groth16` is a *stage graph* — witness-map
//! evaluation, the 7-transform quotient pipeline, two G1 MSMs and one G2
//! MSM — and every heavy operation in it runs through [`dispatch`]: the
//! prover hands each kernel, as an [`Op`], to the one hook of the
//! [`ExecBackend`] trait defined here, [`ExecBackend::run_op`]. Three
//! implementations ship:
//!
//! * [`CpuBackend`] — runs the kernel on its `zkp-runtime` thread pool.
//! * [`TracingBackend`] — a decorator that times the inner backend's
//!   `run_op` and records an [`ExecTrace`] (op kind, size, wall time) for
//!   per-stage breakdowns.
//! * [`FaultInjectingBackend`] — a decorator that fails, panics or delays
//!   ops per a seeded [`FaultPlan`].
//! * [`DeadlineBackend`] — a decorator that stops a proof whose deadline
//!   has passed, checked before and after every op.
//!
//! A simulated GPU is not a backend: `zkprophet` prices a recorded trace
//! ([`ExecTrace::summarize`] takes the per-record price from its caller),
//! so this crate records and groups ops and models nothing.
//!
//! Dispatch is object-safe: the trait is generic over the curve
//! configuration at the *trait* level, so `&dyn ExecBackend<C>` works and
//! a boxed backend can be chosen at runtime.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod deadline;
pub mod fault;
pub mod trace;

use zkp_curves::Bls12Config;
use zkp_ff::PrimeField;
use zkp_ntt::{Domain, QuotientStep, TwiddleTable};
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

pub use cpu::CpuBackend;
pub use deadline::DeadlineBackend;
pub use fault::{FaultInjectingBackend, FaultKind, FaultPlan, InjectedFaults};
pub use trace::{
    ExecTrace, G1Msm, OpClass, OpKind, OpRecord, StageRow, TraceSummary, TracingBackend,
};

/// Why a fallible backend operation did not complete.
///
/// This is the typed error every [`ExecBackend::run_op`] returns; it propagates
/// up through `ProverSession::try_prove_in_on` to the proof service's
/// retry loop instead of unwinding the worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The operation failed — an injected fault in tests/experiments, or
    /// a real device error in a hardware backend.
    OpFailed {
        /// The op that failed ([`OpKind::name`], e.g. `"ntt_forward"`).
        op: &'static str,
        /// The backend-local op index (dispatch order); `u64::MAX` when
        /// the backend skipped the kernel without numbering the op.
        index: u64,
        /// Backend-specific failure description.
        reason: String,
    },
    /// A prove deadline passed at an op boundary; the remaining work was
    /// abandoned instead of finishing a proof nobody can use.
    DeadlineExceeded {
        /// The op at whose start or end the deadline check fired
        /// ([`OpKind::name`]).
        op: &'static str,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::OpFailed { op, index, reason } => {
                write!(f, "backend op {op} #{index} failed: {reason}")
            }
            BackendError::DeadlineExceeded { op } => {
                write!(f, "prove deadline exceeded at op {op}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// One op as a backend hook sees it: what runs and at what size. The
/// kernel is not part of it — a hook decides only whether, when and
/// between what the kernel runs, never what it computes.
pub struct Op<'a> {
    /// What runs.
    pub kind: OpKind,
    /// Problem size in elements (MSM length, transform size or domain
    /// size).
    pub size: u64,
    /// For MSMs, the plan's
    /// [`MsmPlan::algorithm`](zkp_msm::MsmPlan::algorithm) tag. Lazy: a
    /// run that records nothing never formats it, so it costs no
    /// allocation.
    pub tag: Option<&'a dyn Fn() -> String>,
}

/// The boundary the prover dispatches its heavy ops through: two identity
/// methods, one reporting hook, and one op hook.
///
/// The prover owns every kernel and calls each one once, through
/// [`dispatch`]; a backend only wraps it. [`run_op`](Self::run_op) sees
/// the [`Op`] and a kernel it may run (or refuse to run, with an `Err`),
/// so a backend can time, record, fail, delay or panic an op but never
/// compute a different value, and never sees — so cannot drop — the
/// op's buffers. The equivalence contract holds by construction.
pub trait ExecBackend<C: Bls12Config>: Sync {
    /// Backend name for traces and reports (e.g. `"cpu"`,
    /// `"traced:cpu"`).
    fn name(&self) -> String;

    /// The pool the prover's stage graph forks on. Kernels run on the
    /// same pool so nesting stays deadlock-free.
    fn pool(&self) -> &ThreadPool;

    /// Drains and returns the trace recorded since the last call. Backends
    /// that do not record return an empty trace.
    fn take_trace(&self) -> ExecTrace {
        ExecTrace::empty(self.name(), self.pool().num_threads())
    }

    /// Runs one op: calls `kernel` once and returns `Ok`, or returns the
    /// `Err` that stops the op. Decorators wrap their inner backend's
    /// `run_op`.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend cannot complete the op.
    fn run_op(&self, op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError>;
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
    fn run_op(&self, op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError> {
        (**self).run_op(op, kernel)
    }
}

/// Runs `kernel` as `op` through `backend`'s [`ExecBackend::run_op`] and
/// returns its value: the one place a prover kernel runs.
///
/// # Errors
///
/// The hook's error, or [`BackendError::OpFailed`] if the hook returned
/// `Ok` without running the kernel.
pub fn dispatch<C: Bls12Config, B: ExecBackend<C> + ?Sized, T>(
    backend: &B,
    op: &Op<'_>,
    kernel: impl FnOnce() -> T,
) -> Result<T, BackendError> {
    let (mut kernel, mut out) = (Some(kernel), None);
    backend.run_op(op, &mut || {
        if let Some(kernel) = kernel.take() {
            out = Some(kernel());
        }
    })?;
    out.ok_or_else(|| BackendError::OpFailed {
        op: op.kind.name(),
        index: u64::MAX,
        reason: "the backend returned Ok without running the kernel".into(),
    })
}

/// The prover-side QAP witness maps `(⟨A_j,z⟩, ⟨B_j,z⟩, ⟨C_j,z⟩)` per
/// domain row, zero-padded to `domain_size`, with the input-consistency
/// rows appended (libsnark/arkworks construction), into caller-owned
/// buffers: clears and refills `a`, `b`, `c` (reusing their capacity).
/// The witness-eval kernel the prover dispatches, allocation-free once the
/// buffers are warm.
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

/// The 7-transform quotient pipeline `h = (a·b − c)/Z`, fully in place:
/// [`zkp_ntt::quotient_schedule`] on the backend's pool with each of its
/// 11 steps [`dispatch`]ed as the matching [`OpKind`]. Consumes the
/// evaluation vectors and leaves the coefficients of `h` in `a` (`b`, `c`
/// clobbered as scratch), allocating nothing. It is the schedule
/// `zkp_ntt::quotient_poly_in` runs, so on the CPU backend the two are the
/// same computation.
///
/// Returns the number of NTT-shaped transforms performed (7).
///
/// # Errors
///
/// The first [`BackendError`] any transform reports (chains are checked
/// in a/b/c order).
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
) -> Result<u32, BackendError> {
    let run = |step, len: usize, transform: &mut dyn FnMut()| {
        let kind = match step {
            QuotientStep::NttInverse => OpKind::NttInverse,
            QuotientStep::CosetMul => OpKind::CosetMul,
            QuotientStep::NttForward => OpKind::NttForward,
        };
        let op = Op {
            kind,
            size: len as u64,
            tag: None,
        };
        dispatch(backend, &op, transform)
    };
    zkp_ntt::quotient_schedule(domain, table, backend.pool(), a, b, c, run)
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
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        witness_maps_into(&cs, n, &mut a, &mut b, &mut c);
        assert_eq!(a.len(), n as usize);
        // Each constraint row satisfies a·b = c.
        for row in 0..cs.num_constraints() {
            assert_eq!(a[row] * b[row], c[row]);
        }
        // Consistency rows carry the public inputs; padding is zero.
        assert!(a[cs.num_constraints()].is_one());
        assert!(a[rows..].iter().all(|x| x.is_zero()));
    }
}
