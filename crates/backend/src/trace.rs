//! Execution traces: what a prover run actually did, op by op.
//!
//! An [`ExecBackend`] may record the ops that run through it as
//! [`OpRecord`]s. A completed run yields an
//! [`ExecTrace`], and [`ExecTrace::summarize`] folds it into the
//! per-stage breakdown the reports print — the paper's Fig. 5 runtime
//! decomposition derived from a real execution. [`TracingBackend`] is the
//! decorator that records around any inner backend. Records hold only
//! what was measured; the caller of `summarize` decides what a record
//! costs (its wall time, or a simulated GPU's price for it).

use crate::{BackendError, ExecBackend, Op};
use std::sync::Mutex;
use std::time::Instant;
use zkp_curves::Bls12Config;
use zkp_runtime::ThreadPool;

/// Which G1 MSM an op record belongs to.
///
/// The prover dispatches two: `A` and `H`, the one MSM behind the proof's
/// C. `B1` and `L` name MSMs of the libraries' prover that are no longer
/// dispatched, because their bases join `H`'s; they stay only because the
/// benchmark harness's adapter names them, until the harness moves its
/// per-stage rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum G1Msm {
    /// The A-query MSM over the full `z` vector.
    A,
    /// The B₁-query MSM (G1 twin of B, needed for C). Not dispatched.
    B1,
    /// The L-query MSM over the private witness suffix. Not dispatched.
    L,
    /// C's one MSM: the H query over the quotient coefficients, joined by
    /// the L and B₁ queries.
    H,
}

/// Coarse class of an operation, for phase-level aggregation (the axis the
/// paper's runtime-breakdown figures use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// G1 multi-scalar multiplication.
    G1Msm,
    /// The G2 MSM (runs on the host CPU in the deployments the paper
    /// studies, overlapped with GPU work).
    G2Msm,
    /// An NTT-shaped transform of the `h` pipeline.
    Ntt,
    /// Everything else: witness-map evaluation, coset scalings — the
    /// residual that bounds speedup once MSM is accelerated (Amdahl).
    Residual,
}

/// One heavy operation dispatched through a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Evaluation of the QAP witness maps `⟨A_j,z⟩, ⟨B_j,z⟩, ⟨C_j,z⟩`.
    WitnessEval,
    /// Forward NTT over the domain.
    NttForward,
    /// Inverse NTT (without the `n⁻¹` scaling, which rides the coset op).
    NttInverse,
    /// `v[i] *= gⁱ · scale` — coset shift fused with the INTT scaling.
    CosetMul,
    /// A G1 MSM.
    MsmG1(G1Msm),
    /// The G2 MSM.
    MsmG2,
}

impl OpKind {
    /// The op's name in errors and fault reports (e.g. `"ntt_forward"`).
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::WitnessEval => "witness_eval",
            OpKind::NttForward => "ntt_forward",
            OpKind::NttInverse => "ntt_inverse",
            OpKind::CosetMul => "coset_mul",
            OpKind::MsmG1(_) => "msm_g1",
            OpKind::MsmG2 => "msm_g2",
        }
    }

    /// Human-readable stage label used in report tables.
    pub fn stage(&self) -> &'static str {
        match self {
            OpKind::WitnessEval => "witness/QAP eval",
            OpKind::NttForward => "NTT forward",
            OpKind::NttInverse => "NTT inverse",
            OpKind::CosetMul => "coset scaling",
            OpKind::MsmG1(G1Msm::A) => "G1 MSM (A)",
            OpKind::MsmG1(G1Msm::B1) => "G1 MSM (B1)",
            OpKind::MsmG1(G1Msm::L) => "G1 MSM (L)",
            OpKind::MsmG1(G1Msm::H) => "G1 MSM (H)",
            OpKind::MsmG2 => "G2 MSM (B2)",
        }
    }

    /// Phase-level class for Fig. 5-style aggregation.
    pub fn class(&self) -> OpClass {
        match self {
            OpKind::MsmG1(_) => OpClass::G1Msm,
            OpKind::MsmG2 => OpClass::G2Msm,
            OpKind::NttForward | OpKind::NttInverse => OpClass::Ntt,
            OpKind::WitnessEval | OpKind::CosetMul => OpClass::Residual,
        }
    }
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// What ran.
    pub kind: OpKind,
    /// Problem size in elements (MSM length or transform size).
    pub size: u64,
    /// Measured wall seconds of the actual CPU execution.
    pub wall_s: f64,
    /// The op's [`Op::tag`] — for MSMs the plan's algorithm (e.g.
    /// `"glv+signed+precomp(w=…,copies=1)"`); `None` for non-MSM ops.
    pub algo: Option<String>,
}

/// A full recorded run.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// Backend name the trace came from.
    pub backend: String,
    /// Thread count of the pool that executed the run.
    pub threads: usize,
    /// Per-op records, in completion order (parallel stages interleave).
    pub records: Vec<OpRecord>,
}

impl ExecTrace {
    /// An empty trace for backends that do not record.
    pub fn empty(backend: String, threads: usize) -> Self {
        Self {
            backend,
            threads,
            records: Vec::new(),
        }
    }

    /// Folds the records into per-stage rows, each record costing
    /// `price(record)` seconds.
    pub fn summarize(&self, price: impl Fn(&OpRecord) -> f64) -> TraceSummary {
        let mut rows: Vec<StageRow> = Vec::new();
        for rec in &self.records {
            let stage = rec.kind.stage();
            let row = match rows.iter_mut().find(|r| r.stage == stage) {
                Some(r) => r,
                None => {
                    rows.push(StageRow {
                        stage,
                        class: rec.kind.class(),
                        calls: 0,
                        elements: 0,
                        seconds: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += 1;
            row.elements += rec.size;
            row.seconds += price(rec);
        }
        TraceSummary {
            backend: self.backend.clone(),
            threads: self.threads,
            rows,
        }
    }
}

/// Aggregated per-stage numbers for one run.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage label ([`OpKind::stage`]).
    pub stage: &'static str,
    /// Phase class for coarse aggregation.
    pub class: OpClass,
    /// Ops folded into this row.
    pub calls: u32,
    /// Total elements processed.
    pub elements: u64,
    /// Summed price of the row's records (for measured wall time: CPU
    /// work, not elapsed time — parallel stages overlap).
    pub seconds: f64,
}

/// Per-stage breakdown of one recorded run.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Backend name.
    pub backend: String,
    /// Pool thread count.
    pub threads: usize,
    /// One row per distinct stage, in first-seen order.
    pub rows: Vec<StageRow>,
}

impl TraceSummary {
    /// Summed price of every record.
    pub fn total_s(&self) -> f64 {
        self.rows.iter().map(|r| r.seconds).sum()
    }
}

/// Runs every op through an inner backend and appends an [`OpRecord`]
/// (kind, size, measured wall seconds, tag) for each op that completes.
pub struct TracingBackend<B> {
    inner: B,
    records: Mutex<Vec<OpRecord>>,
}

impl<B> TracingBackend<B> {
    /// Wraps `inner` with a fresh, empty trace.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            records: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<C: Bls12Config, B: ExecBackend<C>> ExecBackend<C> for TracingBackend<B> {
    fn name(&self) -> String {
        format!("traced:{}", self.inner.name())
    }

    fn pool(&self) -> &ThreadPool {
        self.inner.pool()
    }

    fn take_trace(&self) -> ExecTrace {
        let records = std::mem::take(&mut *self.records.lock().expect("trace lock poisoned"));
        ExecTrace {
            backend: ExecBackend::<C>::name(self),
            threads: self.inner.pool().num_threads(),
            records,
        }
    }

    /// Times the inner backend's `run_op`. A failed op leaves no record:
    /// the trace describes work that was done.
    fn run_op(&self, op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError> {
        let start = Instant::now();
        self.inner.run_op(op, kernel)?;
        let wall_s = start.elapsed().as_secs_f64();
        let record = OpRecord {
            kind: op.kind,
            size: op.size,
            wall_s,
            algo: op.tag.map(|tag| tag()),
        };
        self.records
            .lock()
            .expect("trace lock poisoned")
            .push(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_groups_by_stage() {
        let rec = |kind, size, wall_s| OpRecord {
            kind,
            size,
            wall_s,
            algo: None,
        };
        let trace = ExecTrace {
            backend: "test".into(),
            threads: 1,
            records: vec![
                rec(OpKind::NttForward, 8, 1.0),
                rec(OpKind::NttForward, 8, 2.0),
                rec(OpKind::MsmG1(G1Msm::A), 4, 0.5),
            ],
        };
        let summary = trace.summarize(|r| r.wall_s);
        assert_eq!(summary.rows.len(), 2);
        let ntt = &summary.rows[0];
        assert_eq!(ntt.calls, 2);
        assert_eq!(ntt.elements, 16);
        assert!((ntt.seconds - 3.0).abs() < 1e-12);
        assert!((summary.total_s() - 3.5).abs() < 1e-12);
        // The caller's price, not the wall time, fills the rows.
        let by_size = trace.summarize(|r| r.size as f64);
        assert_eq!(by_size.rows[0].seconds, 16.0);
        assert_eq!(by_size.total_s(), 20.0);
    }
}
