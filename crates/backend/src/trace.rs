//! Execution traces: what a prover run actually did, op by op.
//!
//! Every [`ExecBackend`] implementation may record the heavy operations
//! it dispatches as [`OpRecord`]s. A completed run yields an
//! [`ExecTrace`], and [`ExecTrace::summarize`] folds it into the
//! per-stage breakdown the reports print — the paper's Fig. 5 runtime
//! decomposition derived from a real execution rather than a closed-form
//! op count. [`TracingBackend`] is the decorator that records around any
//! inner backend; the simulated-GPU backend records through the same
//! recorder and attaches modeled costs.

use crate::{BackendError, ExecBackend};
use gpu_kernels::LibraryId;
use std::sync::Mutex;
use std::time::Instant;
use zkp_curves::{Bls12Config, G1Curve, G2Curve, Jacobian};
use zkp_msm::{MsmPlan, MsmScratch};
use zkp_ntt::TwiddleTable;
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

/// Which of the prover's four G1 MSMs an op record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum G1Msm {
    /// The A-query MSM over the full `z` vector.
    A,
    /// The B₁-query MSM (G1 twin of B, needed for C).
    B1,
    /// The L-query MSM over the private witness suffix.
    L,
    /// The H-query MSM over the quotient coefficients.
    H,
}

impl G1Msm {
    /// Index into `ProverStats::g1_msm_sizes` order (A, B₁, L, H).
    pub fn index(self) -> usize {
        match self {
            G1Msm::A => 0,
            G1Msm::B1 => 1,
            G1Msm::L => 2,
            G1Msm::H => 3,
        }
    }
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
    /// One of the four G1 MSMs.
    MsmG1(G1Msm),
    /// The G2 MSM.
    MsmG2,
}

impl OpKind {
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

/// Modeled cost attached to an op by a simulating backend.
#[derive(Debug, Clone, Copy)]
pub struct ModeledCost {
    /// Modeled wall seconds on the target device.
    pub seconds: f64,
    /// The library model that produced the estimate, when one applies.
    pub lib: Option<LibraryId>,
    /// `true` if the op runs off the GPU critical path (the CPU-side G2
    /// MSM, §II-A) and is therefore hidden rather than added.
    pub overlapped: bool,
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
    /// Modeled device cost, if the backend charges one.
    pub modeled: Option<ModeledCost>,
    /// The plan's [`MsmPlan::algorithm`] tag for MSM ops (e.g.
    /// `"glv+signed+xyzz+precomp(w=…,copies=1)"`); `None` for non-MSM ops
    /// and backends that do not annotate.
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

    /// Folds the records into per-stage rows.
    pub fn summarize(&self) -> TraceSummary {
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
                        wall_s: 0.0,
                        modeled_s: 0.0,
                        overlapped: rec.modeled.is_some_and(|m| m.overlapped),
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += 1;
            row.elements += rec.size;
            row.wall_s += rec.wall_s;
            if let Some(m) = rec.modeled {
                row.modeled_s += m.seconds;
            }
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
    /// Summed measured CPU wall seconds (CPU work, not elapsed time —
    /// parallel stages overlap).
    pub wall_s: f64,
    /// Summed modeled device seconds (zero unless a simulating backend ran).
    pub modeled_s: f64,
    /// Whether this stage is hidden from the device critical path.
    pub overlapped: bool,
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
    /// Total measured CPU work seconds.
    pub fn wall_total_s(&self) -> f64 {
        self.rows.iter().map(|r| r.wall_s).sum()
    }

    /// Modeled end-to-end device seconds: the sum of critical-path stages.
    /// Overlapped stages (the CPU-side G2 MSM) contribute only if they
    /// exceed the device work they hide behind.
    pub fn modeled_end_to_end_s(&self) -> f64 {
        let on_path: f64 = self
            .rows
            .iter()
            .filter(|r| !r.overlapped)
            .map(|r| r.modeled_s)
            .sum();
        let hidden: f64 = self
            .rows
            .iter()
            .filter(|r| r.overlapped)
            .map(|r| r.modeled_s)
            .sum();
        on_path.max(hidden)
    }

    /// Summed modeled seconds for one phase class (critical-path stages
    /// only).
    pub fn modeled_class_s(&self, class: OpClass) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.class == class && !r.overlapped)
            .map(|r| r.modeled_s)
            .sum()
    }
}

/// The op log behind the recording backends: times an op and, when it
/// completes, appends its [`OpRecord`].
pub(crate) struct Recorder {
    records: Mutex<Vec<OpRecord>>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Self {
            records: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` under a wall clock. A failed op leaves no record: the
    /// trace describes work that was done.
    pub(crate) fn time<T>(
        &self,
        kind: OpKind,
        size: u64,
        modeled: Option<ModeledCost>,
        algo: Option<String>,
        f: impl FnOnce() -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let start = Instant::now();
        let out = f()?;
        let wall_s = start.elapsed().as_secs_f64();
        self.records
            .lock()
            .expect("trace lock poisoned")
            .push(OpRecord {
                kind,
                size,
                wall_s,
                modeled,
                algo,
            });
        Ok(out)
    }

    /// Drains the log into a trace labelled with the backend and pool width.
    pub(crate) fn take(&self, backend: String, threads: usize) -> ExecTrace {
        let records = std::mem::take(&mut *self.records.lock().expect("trace lock poisoned"));
        ExecTrace {
            backend,
            threads,
            records,
        }
    }
}

/// Forwards every op to an inner backend and appends an [`OpRecord`]
/// (kind, size, measured wall seconds) for each op that completes.
///
/// Wrap a backend that does not record itself: the simulated-GPU backend
/// keeps its own trace, and stacking two recorders would double-count.
pub struct TracingBackend<B> {
    inner: B,
    rec: Recorder,
}

impl<B> TracingBackend<B> {
    /// Wraps `inner` with a fresh, empty trace.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            rec: Recorder::new(),
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
        self.rec.take(
            ExecBackend::<C>::name(self),
            self.inner.pool().num_threads(),
        )
    }

    fn witness_eval(
        &self,
        cs: &ConstraintSystem<C::Fr>,
        domain_size: u64,
        a: &mut Vec<C::Fr>,
        b: &mut Vec<C::Fr>,
        c: &mut Vec<C::Fr>,
    ) -> Result<(), BackendError> {
        self.rec
            .time(OpKind::WitnessEval, domain_size, None, None, || {
                self.inner.witness_eval(cs, domain_size, a, b, c)
            })
    }

    fn ntt_forward(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError> {
        let size = values.len() as u64;
        self.rec.time(OpKind::NttForward, size, None, None, || {
            self.inner.ntt_forward(table, values)
        })
    }

    fn ntt_inverse(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError> {
        let size = values.len() as u64;
        self.rec.time(OpKind::NttInverse, size, None, None, || {
            self.inner.ntt_inverse(table, values)
        })
    }

    fn coset_mul(&self, values: &mut [C::Fr], g: C::Fr, scale: C::Fr) -> Result<(), BackendError> {
        let size = values.len() as u64;
        self.rec.time(OpKind::CosetMul, size, None, None, || {
            self.inner.coset_mul(values, g, scale)
        })
    }

    fn msm_g1(
        &self,
        which: G1Msm,
        plan: &MsmPlan<G1Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G1Curve<C>>,
    ) -> Result<Jacobian<G1Curve<C>>, BackendError> {
        let (size, algo) = (scalars.len() as u64, Some(plan.algorithm()));
        self.rec.time(OpKind::MsmG1(which), size, None, algo, || {
            self.inner.msm_g1(which, plan, scalars, scratch)
        })
    }

    fn msm_g2(
        &self,
        plan: &MsmPlan<G2Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G2Curve<C>>,
    ) -> Result<Jacobian<G2Curve<C>>, BackendError> {
        let (size, algo) = (scalars.len() as u64, Some(plan.algorithm()));
        self.rec.time(OpKind::MsmG2, size, None, algo, || {
            self.inner.msm_g2(plan, scalars, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_groups_by_stage() {
        let trace = ExecTrace {
            backend: "test".into(),
            threads: 1,
            records: vec![
                OpRecord {
                    kind: OpKind::NttForward,
                    size: 8,
                    wall_s: 1.0,
                    modeled: None,
                    algo: None,
                },
                OpRecord {
                    kind: OpKind::NttForward,
                    size: 8,
                    wall_s: 2.0,
                    modeled: None,
                    algo: None,
                },
                OpRecord {
                    kind: OpKind::MsmG1(G1Msm::A),
                    size: 4,
                    wall_s: 0.5,
                    modeled: None,
                    algo: None,
                },
            ],
        };
        let summary = trace.summarize();
        assert_eq!(summary.rows.len(), 2);
        let ntt = &summary.rows[0];
        assert_eq!(ntt.calls, 2);
        assert_eq!(ntt.elements, 16);
        assert!((ntt.wall_s - 3.0).abs() < 1e-12);
        assert!((summary.wall_total_s() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn overlapped_stages_are_hidden_unless_dominant() {
        let mk = |kind, modeled: ModeledCost| OpRecord {
            kind,
            size: 16,
            wall_s: 0.0,
            modeled: Some(modeled),
            algo: None,
        };
        let trace = ExecTrace {
            backend: "sim".into(),
            threads: 1,
            records: vec![
                mk(
                    OpKind::MsmG1(G1Msm::A),
                    ModeledCost {
                        seconds: 2.0,
                        lib: None,
                        overlapped: false,
                    },
                ),
                mk(
                    OpKind::MsmG2,
                    ModeledCost {
                        seconds: 1.0,
                        lib: None,
                        overlapped: true,
                    },
                ),
            ],
        };
        assert!((trace.summarize().modeled_end_to_end_s() - 2.0).abs() < 1e-12);
    }
}
