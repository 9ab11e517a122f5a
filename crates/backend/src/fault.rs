//! Deterministic fault injection for the execution backends.
//!
//! [`FaultInjectingBackend`] wraps any [`ExecBackend`] and, driven by a
//! seeded [`FaultPlan`], injects per-op errors, panics, and artificial
//! latency — the adversary the proof service's retry/backoff, panic
//! isolation, and shed-load machinery is tested against. Decisions are a
//! pure function of `(plan seed, op index)`: replaying the same plan over
//! the same single-threaded op sequence injects the same faults (with
//! concurrent provers, op indices interleave but every op still gets
//! exactly one decision).
//!
//! Injected **errors** surface as [`BackendError::OpFailed`] from the op.
//! Injected **panics** panic inside the op — that is their job; the
//! `zkp-runtime` pool forwards them to the submitting call — and
//! **delays** sleep before delegating.

use crate::{BackendError, ExecBackend, ExecTrace, Op, OpKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use zkp_curves::Bls12Config;
use zkp_runtime::ThreadPool;

/// SplitMix64 — the workspace's standalone deterministic hash, used for
/// fault decisions and (by the service) backoff jitter.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the op with `Err(BackendError::OpFailed)`.
    Error,
    /// Panic inside the op (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep before running the op (hung-op / deadline-storm model).
    Delay(Duration),
}

/// A seeded, deterministic fault schedule.
///
/// Rate-based faults are decided per op from `splitmix64(seed ^ f(index))`
/// — a panic band, then an error band. Exact faults ([`fail_at`](Self::fail_at)
/// and friends) override the rates at their op index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    error_rate: f64,
    panic_rate: f64,
    exact: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// A plan with the given decision seed and no faults configured.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A plan that never injects anything.
    pub fn none() -> Self {
        Self::default()
    }

    /// Replaces the decision seed (e.g. to vary faults per worker).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-op probability of an injected error.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Per-op probability of an injected panic.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Forces an error at op `index`.
    pub fn fail_at(mut self, index: u64) -> Self {
        self.exact.push((index, FaultKind::Error));
        self
    }

    /// Forces a panic at op `index`.
    pub fn panic_at(mut self, index: u64) -> Self {
        self.exact.push((index, FaultKind::Panic));
        self
    }

    /// Forces a `delay`-long sleep at op `index`.
    pub fn delay_at(mut self, index: u64, delay: Duration) -> Self {
        self.exact.push((index, FaultKind::Delay(delay)));
        self
    }

    /// The fault (if any) for op `index`. Deterministic: a pure function
    /// of the plan and the index.
    pub fn decide(&self, index: u64) -> Option<FaultKind> {
        if let Some((_, kind)) = self.exact.iter().find(|(i, _)| *i == index) {
            return Some(*kind);
        }
        let u = unit_f64(splitmix64(
            self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ));
        if u < self.panic_rate {
            Some(FaultKind::Panic)
        } else if u < self.panic_rate + self.error_rate {
            Some(FaultKind::Error)
        } else {
            None
        }
    }
}

/// Counters of what a [`FaultInjectingBackend`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Ops failed with [`BackendError::OpFailed`].
    pub errors: u64,
    /// Ops that panicked.
    pub panics: u64,
    /// Ops delayed before running.
    pub delays: u64,
}

/// An [`ExecBackend`] decorator that injects faults per a [`FaultPlan`].
///
/// Every op consumes one index from an internal counter and asks the plan
/// for a decision before the inner backend's `run_op`.
/// Values that *are* produced are always the inner backend's values — a
/// fault either prevents the op or delays it, it never corrupts data, so
/// proofs that survive injection must still be byte-correct.
pub struct FaultInjectingBackend<B> {
    inner: B,
    plan: FaultPlan,
    ops: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    delays: AtomicU64,
}

impl<B> FaultInjectingBackend<B> {
    /// Wraps `inner`, injecting per `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            ops: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// Total ops dispatched through this wrapper so far.
    pub fn ops_dispatched(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// What has been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }

    /// Claims the next op index and applies the plan's decision for it:
    /// `Err` for an injected error, a panic for an injected panic, a
    /// sleep (then `Ok`) for a delay.
    fn gate(&self, kind: OpKind) -> Result<(), BackendError> {
        let index = self.ops.fetch_add(1, Ordering::Relaxed);
        let op = kind.name();
        match self.plan.decide(index) {
            None => Ok(()),
            Some(FaultKind::Error) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(BackendError::OpFailed {
                    op,
                    index,
                    reason: "injected fault".into(),
                })
            }
            Some(FaultKind::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected panic: {op} op #{index}");
            }
            Some(FaultKind::Delay(d)) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
                Ok(())
            }
        }
    }
}

impl<C: Bls12Config, B: ExecBackend<C>> ExecBackend<C> for FaultInjectingBackend<B> {
    fn name(&self) -> String {
        format!("fault({})", self.inner.name())
    }

    fn pool(&self) -> &ThreadPool {
        self.inner.pool()
    }

    fn take_trace(&self) -> ExecTrace {
        self.inner.take_trace()
    }

    fn run_op(&self, op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError> {
        self.gate(op.kind)?;
        self.inner.run_op(op, kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(7).with_error_rate(0.3).with_panic_rate(0.1);
        let a: Vec<_> = (0..256).map(|i| plan.decide(i)).collect();
        let b: Vec<_> = (0..256).map(|i| plan.decide(i)).collect();
        assert_eq!(a, b, "same plan, same indices, same decisions");
        let injected = a.iter().filter(|d| d.is_some()).count();
        assert!(
            injected > 256 / 10 && injected < 256,
            "rate 0.4 should inject some but not all ({injected}/256)"
        );
        let other = FaultPlan::new(8).with_error_rate(0.3).with_panic_rate(0.1);
        let c: Vec<_> = (0..256).map(|i| other.decide(i)).collect();
        assert_ne!(a, c, "a different seed reshuffles the schedule");
    }

    #[test]
    fn exact_faults_override_rates() {
        let plan = FaultPlan::new(1)
            .with_error_rate(1.0)
            .fail_at(3)
            .panic_at(5)
            .delay_at(9, Duration::from_millis(2));
        // Every op fails by rate — except where an exact entry fires.
        assert_eq!(plan.decide(3), Some(FaultKind::Error));
        assert_eq!(plan.decide(5), Some(FaultKind::Panic));
        assert_eq!(
            plan.decide(9),
            Some(FaultKind::Delay(Duration::from_millis(2)))
        );
        assert_eq!(plan.decide(4), Some(FaultKind::Error));
        assert_eq!(FaultPlan::new(1).fail_at(3).decide(4), None);
    }

    #[test]
    fn unit_f64_is_in_range() {
        for i in 0..64 {
            let u = unit_f64(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
