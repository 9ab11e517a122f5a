//! Prove deadlines as an op hook.
//!
//! [`DeadlineBackend`] wraps any [`ExecBackend`] and stops a proof whose
//! deadline has passed at the next op boundary: before an op's kernel, so
//! no dead work starts, and after it, so a proof whose last op overran is
//! not reported as finished in time. The prover itself takes no deadline.

use crate::{BackendError, ExecBackend, ExecTrace, Op};
use std::time::Instant;
use zkp_curves::Bls12Config;
use zkp_runtime::ThreadPool;

/// An [`ExecBackend`] decorator that fails every op with
/// [`BackendError::DeadlineExceeded`] once its deadline has passed. With
/// no deadline it passes every op straight through.
pub struct DeadlineBackend<B> {
    inner: B,
    deadline: Option<Instant>,
}

impl<B> DeadlineBackend<B> {
    /// Wraps `inner`; `None` never expires.
    pub fn new(inner: B, deadline: Option<Instant>) -> Self {
        Self { inner, deadline }
    }

    /// `Err` naming `op` if the deadline has passed.
    fn check(&self, op: &Op<'_>) -> Result<(), BackendError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                Err(BackendError::DeadlineExceeded { op: op.kind.name() })
            }
            _ => Ok(()),
        }
    }
}

impl<C: Bls12Config, B: ExecBackend<C>> ExecBackend<C> for DeadlineBackend<B> {
    fn name(&self) -> String {
        format!("deadline({})", self.inner.name())
    }

    fn pool(&self) -> &ThreadPool {
        self.inner.pool()
    }

    fn take_trace(&self) -> ExecTrace {
        self.inner.take_trace()
    }

    fn run_op(&self, op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError> {
        self.check(op)?;
        self.inner.run_op(op, kernel)?;
        self.check(op)
    }
}
