//! Trace-derived end-to-end prover breakdown.
//!
//! Unlike the closed-form composition in [`crate::prover_model`] — which
//! *assumes* the Fig. 3 op counts — this module runs a **real proof**
//! through the tracing execution backend and derives the breakdown from
//! the recorded trace: every MSM, transform, coset scaling, and witness
//! evaluation the prover actually dispatched, priced per op by a
//! [`GpuCostModel`] of the simulated device.
//!
//! Two artifacts come out:
//!
//! 1. A per-stage table of the traced proof (calls, sizes, measured CPU
//!    wall time, modeled device time).
//! 2. An Amdahl table across the paper's 2^15–2^26 scales: the traced op
//!    *multiset* is rescaled to each target size and re-charged with the
//!    per-scale best library models, so the MSM-dominant → NTT-bottleneck
//!    shape (Fig. 5, §IV) falls out of an actual execution trace rather
//!    than a hard-coded phase list.

use crate::report::{f, secs, Table};
use gpu_kernels::LibraryId;
use gpu_sim::device::DeviceSpec;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_backend::{
    cpu_op_seconds, CpuBackend, ExecBackend, ExecTrace, GpuCostModel, OpClass, TracingBackend,
};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove_with_backend, setup, verify};
use zkp_r1cs::circuits::mimc;

/// MiMC rounds for the report's traced proof: 2·1023 constraints plus the
/// consistency rows land on a 2^11 NTT domain — big enough to exercise
/// every stage, small enough to prove for real inside a report run.
pub const TRACE_ROUNDS: usize = 1023;

/// The scales the Amdahl table extrapolates the trace to (paper range).
pub const AMDAHL_SCALES: core::ops::RangeInclusive<u32> = 15..=26;

/// One real proof, traced on the CPU backend.
#[derive(Debug, Clone)]
pub struct TracedProof {
    /// The op-level execution trace.
    pub trace: ExecTrace,
    /// The simulated device that prices the breakdown; `None` leaves its
    /// modeled columns zero.
    pub model: Option<GpuCostModel>,
    /// Whether the proof verified (it must).
    pub verified: bool,
    /// Measured wall seconds of the CPU execution of `prove`.
    pub measured_prove_s: f64,
}

/// Proves a fixed MiMC instance of `rounds` rounds and returns the
/// recorded trace, priced on `device` with `msm_lib`'s MSM model.
pub fn traced_proof_with_rounds(
    device: &DeviceSpec,
    msm_lib: LibraryId,
    rounds: usize,
) -> TracedProof {
    let cs = mimc(Fr381::from_u64(11), rounds);
    let mut rng = StdRng::seed_from_u64(42);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let backend = TracingBackend::new(CpuBackend::global());
    let start = Instant::now();
    let (proof, _) = prove_with_backend(&pk, &cs, &mut rng, &backend);
    let measured_prove_s = start.elapsed().as_secs_f64();
    let trace = ExecBackend::<Bls12381>::take_trace(&backend);
    let verified = verify(&pk.vk, &proof, &cs.assignment.public);
    TracedProof {
        trace,
        model: Some(GpuCostModel::for_library(device.clone(), msm_lib)),
        verified,
        measured_prove_s,
    }
}

/// [`traced_proof_with_rounds`] at the report's [`TRACE_ROUNDS`].
pub fn traced_proof(device: &DeviceSpec, msm_lib: LibraryId) -> TracedProof {
    traced_proof_with_rounds(device, msm_lib, TRACE_ROUNDS)
}

/// Renders the per-stage breakdown of a traced proof.
pub fn render_trace_breakdown(tp: &TracedProof) -> String {
    let summary = tp.trace.summarize(tp.model.as_ref());
    let priced = tp.model.as_ref().map_or(String::new(), |m| {
        let lib = m.msm_lib.map_or("best", |lib| lib.name());
        format!(" priced as sim:{}:{lib}", m.device.name)
    });
    let mut t = Table::new(
        &format!(
            "E2E trace: per-stage breakdown of one real proof on {}{priced} \
             ({} threads, proved in {}, verified: {})",
            summary.backend,
            summary.threads,
            secs(tp.measured_prove_s),
            tp.verified,
        ),
        &[
            "Stage", "Calls", "Elems", "CPU wall", "Modeled", "Share %", "Hidden",
        ],
    );
    let e2e = summary.modeled_end_to_end_s();
    for row in &summary.rows {
        let share = if row.overlapped || e2e == 0.0 {
            0.0
        } else {
            100.0 * row.modeled_s / e2e
        };
        t.row(vec![
            row.stage.into(),
            row.calls.to_string(),
            row.elements.to_string(),
            secs(row.wall_s),
            secs(row.modeled_s),
            f(share),
            if row.overlapped { "yes" } else { "" }.into(),
        ]);
    }
    t.row(vec![
        "end-to-end".into(),
        String::new(),
        String::new(),
        secs(summary.wall_total_s()),
        secs(e2e),
        "100".into(),
        String::new(),
    ]);
    t.render()
}

/// One row of the trace-derived Amdahl table.
#[derive(Debug, Clone)]
pub struct AmdahlRow {
    /// Target scale exponent.
    pub log_n: u32,
    /// Modeled G1 MSM seconds (best library per scale).
    pub msm_s: f64,
    /// Modeled NTT seconds (best library per scale).
    pub ntt_s: f64,
    /// Modeled residual seconds (witness eval + coset scalings).
    pub residual_s: f64,
    /// Host-side G2 seconds, overlapped with the GPU phases.
    pub g2_hidden_s: f64,
    /// Calibrated single-thread CPU baseline for the same op multiset.
    pub cpu_s: f64,
}

impl AmdahlRow {
    /// Modeled end-to-end seconds: critical path, with the overlapped G2
    /// contributing only if it dominates.
    pub fn total_s(&self) -> f64 {
        (self.msm_s + self.ntt_s + self.residual_s).max(self.g2_hidden_s)
    }

    /// End-to-end speedup over the CPU baseline.
    pub fn speedup(&self) -> f64 {
        self.cpu_s / self.total_s()
    }

    /// MSM share of the critical path.
    pub fn msm_fraction(&self) -> f64 {
        self.msm_s / (self.msm_s + self.ntt_s + self.residual_s)
    }

    /// NTT share of the critical path (the Fig. 5 y-axis).
    pub fn ntt_fraction(&self) -> f64 {
        self.ntt_s / (self.msm_s + self.ntt_s + self.residual_s)
    }
}

/// Rescales the traced op multiset to each target scale and re-charges it
/// with the per-scale best library models — the plug-and-play composition
/// of §V, driven by what the prover actually executed.
pub fn amdahl_table(
    device: &DeviceSpec,
    trace: &ExecTrace,
    scales: impl IntoIterator<Item = u32>,
) -> Vec<AmdahlRow> {
    // The traced domain anchors the rescaling: every op size scales by
    // target_domain / traced_domain, preserving the multiset's shape
    // (MSMs slightly under the domain, transforms exactly on it).
    let traced_domain = trace
        .records
        .iter()
        .filter(|r| r.kind.class() == OpClass::Ntt)
        .map(|r| r.size)
        .max()
        .expect("trace contains NTT records");
    let model = GpuCostModel::best_of_breed(device.clone());
    scales
        .into_iter()
        .map(|log_n| {
            let target = 1u64 << log_n;
            let mut row = AmdahlRow {
                log_n,
                msm_s: 0.0,
                ntt_s: 0.0,
                residual_s: 0.0,
                g2_hidden_s: 0.0,
                cpu_s: 0.0,
            };
            for rec in &trace.records {
                let scaled = (rec.size * target / traced_domain).max(1);
                let charge = model.charge(rec.kind, scaled);
                match rec.kind.class() {
                    OpClass::G1Msm => row.msm_s += charge.seconds,
                    OpClass::Ntt => row.ntt_s += charge.seconds,
                    OpClass::Residual => row.residual_s += charge.seconds,
                    OpClass::G2Msm => row.g2_hidden_s += charge.seconds,
                }
                row.cpu_s += cpu_op_seconds(rec.kind, scaled);
            }
            row
        })
        .collect()
}

/// Renders the Amdahl table.
pub fn render_amdahl(device: &DeviceSpec, rows: &[AmdahlRow]) -> String {
    let mut t = Table::new(
        &format!(
            "E2E trace: Amdahl extrapolation of the traced op multiset on {} \
             (MSM-dominant at small scales; NTT becomes the bottleneck once \
             MSM is GPU-accelerated)",
            device.name
        ),
        &[
            "Scale",
            "MSM",
            "NTT",
            "Residual",
            "G2 (hidden)",
            "Total",
            "CPU",
            "Speedup",
            "MSM %",
            "NTT %",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("2^{}", r.log_n),
            secs(r.msm_s),
            secs(r.ntt_s),
            secs(r.residual_s),
            secs(r.g2_hidden_s),
            secs(r.total_s()),
            secs(r.cpu_s),
            format!("{:.0}x", r.speedup()),
            f(100.0 * r.msm_fraction()),
            f(100.0 * r.ntt_fraction()),
        ]);
    }
    t.render()
}

/// The full trace-derived section for [`super::full_report`]: runs one
/// real proof on the simulated device and derives both tables from it.
pub fn render_e2e_section(device: &DeviceSpec) -> String {
    let tp = traced_proof(device, LibraryId::Sppark);
    let rows = amdahl_table(device, &tp.trace, AMDAHL_SCALES);
    let mut out = render_trace_breakdown(&tp);
    out += "\n";
    out += &render_amdahl(device, &rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a40;

    fn small_trace() -> TracedProof {
        // 255 rounds → 2^9 domain: cheap enough for a unit test, same
        // stage graph as the report's 2^11 run.
        traced_proof_with_rounds(&a40(), LibraryId::Sppark, 255)
    }

    #[test]
    fn traced_proof_verifies_and_records_the_pipeline() {
        let tp = small_trace();
        assert!(tp.verified);
        let ntts = tp
            .trace
            .records
            .iter()
            .filter(|r| r.kind.class() == OpClass::Ntt)
            .count();
        assert_eq!(ntts, 7, "the Fig. 3 pipeline has 7 transforms");
        let summary = tp.trace.summarize(tp.model.as_ref());
        assert!(summary.rows.iter().all(|r| r.modeled_s > 0.0));
    }

    #[test]
    fn amdahl_shape_matches_the_paper_narrative() {
        // The acceptance shape: MSM dominates at 2^15; by 2^26 NTT is the
        // bottleneck of the accelerated prover (Fig. 5: up to ~91%).
        let tp = small_trace();
        let rows = amdahl_table(&a40(), &tp.trace, AMDAHL_SCALES);
        let small = rows.first().expect("non-empty");
        let large = rows.last().expect("non-empty");
        assert!(
            small.msm_fraction() > small.ntt_fraction(),
            "MSM must dominate at 2^15: msm={} ntt={}",
            small.msm_fraction(),
            small.ntt_fraction()
        );
        assert!(
            large.ntt_fraction() > 0.5 && large.ntt_fraction() > large.msm_fraction(),
            "NTT must be the bottleneck at 2^26: ntt={}",
            large.ntt_fraction()
        );
        assert!(large.ntt_fraction() > small.ntt_fraction());
    }

    #[test]
    fn speedup_lands_in_the_paper_range() {
        // Fig. 1: end-to-end GPU speedups in the hundreds at scale.
        let tp = small_trace();
        let rows = amdahl_table(&a40(), &tp.trace, AMDAHL_SCALES);
        let peak = rows.iter().map(AmdahlRow::speedup).fold(0.0f64, f64::max);
        assert!((50.0..1000.0).contains(&peak), "peak speedup {peak}");
        // Speedup grows from small to large scales (the GPU amortizes).
        assert!(rows.last().unwrap().speedup() > rows.first().unwrap().speedup());
    }

    #[test]
    fn g2_stays_hidden_behind_the_gpu_phases() {
        let tp = small_trace();
        let rows = amdahl_table(&a40(), &tp.trace, AMDAHL_SCALES);
        for r in &rows {
            assert!(
                r.g2_hidden_s < r.msm_s + r.ntt_s + r.residual_s,
                "G2 must hide behind GPU work at 2^{}",
                r.log_n
            );
        }
    }
}
