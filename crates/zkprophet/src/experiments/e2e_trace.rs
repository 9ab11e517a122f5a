//! Trace-derived end-to-end prover breakdown.
//!
//! This module runs a **real proof** through the tracing execution backend
//! and prices the recorded trace — every MSM, transform, coset scaling,
//! and witness evaluation the prover actually dispatched — per op with a
//! [`GpuCostModel`] of the simulated device, through the same
//! [`price`] sum that composes Figs. 1 and 5.
//!
//! Two artifacts come out:
//!
//! 1. A per-stage table of the traced proof (calls, sizes, measured CPU
//!    wall time, modeled device time).
//! 2. An Amdahl table across the paper's 2^15–2^26 scales: [`gpu_prover`]
//!    and [`cpu_prover_seconds`] of the op list the trace pins
//!    (`prover_model`'s tests hold [`crate::canonical_ops`] to it), so the
//!    MSM-dominant → NTT-bottleneck shape (Fig. 5, §IV) reads the numbers
//!    Figs. 1 and 5 print, 2^k constraints on a 2^(k+1) domain.

use crate::prover_model::{cpu_prover_seconds, gpu_prover, price};
use crate::report::{f, secs, Table};
use crate::sim::GpuCostModel;
use gpu_kernels::LibraryId;
use gpu_sim::device::DeviceSpec;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_backend::{CpuBackend, ExecBackend, ExecTrace, OpClass, TracingBackend};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove_with_backend, setup, verify};
use zkp_r1cs::circuits::mimc;

/// MiMC rounds for the report's traced proof: 2·1023 constraints plus the
/// consistency rows land on a 2^11 NTT domain — big enough to exercise
/// every stage, small enough to prove for real inside a report run.
pub const TRACE_ROUNDS: usize = 1023;

/// The scales of the Amdahl table (paper range).
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
    let charge = |kind, size| tp.model.as_ref().map_or(0.0, |m| m.charge(kind, size));
    let wall = tp.trace.summarize(|r| r.wall_s);
    let modeled = tp.trace.summarize(|r| charge(r.kind, r.size));
    let records = tp.trace.records.iter().map(|r| (r.kind, r.size));
    let e2e = price(records, charge).critical_path_s();
    let priced = tp.model.as_ref().map_or(String::new(), |m| {
        let lib = m.msm_lib.map_or("best", |lib| lib.name());
        format!(" priced as sim:{}:{lib}", m.device.name)
    });
    let mut t = Table::new(
        &format!(
            "E2E trace: per-stage breakdown of one real proof on {}{priced} \
             ({} threads, proved in {}, verified: {})",
            wall.backend,
            wall.threads,
            secs(tp.measured_prove_s),
            tp.verified,
        ),
        &[
            "Stage", "Calls", "Elems", "CPU wall", "Modeled", "Share %", "Hidden",
        ],
    );
    for (w, m) in wall.rows.iter().zip(&modeled.rows) {
        // The class `price` keeps off the critical path.
        let hidden = m.class == OpClass::G2Msm;
        let share = if hidden || e2e == 0.0 {
            0.0
        } else {
            100.0 * m.seconds / e2e
        };
        t.row(vec![
            w.stage.into(),
            w.calls.to_string(),
            w.elements.to_string(),
            secs(w.seconds),
            secs(m.seconds),
            f(share),
            if hidden { "yes" } else { "" }.into(),
        ]);
    }
    t.row(vec![
        "end-to-end".into(),
        String::new(),
        String::new(),
        secs(wall.total_s()),
        secs(e2e),
        "100".into(),
        String::new(),
    ]);
    t.render()
}

/// Renders the Amdahl table: the GPU prover against the CPU prover at
/// every [`AMDAHL_SCALES`] scale.
pub fn render_amdahl(device: &DeviceSpec) -> String {
    let mut t = Table::new(
        &format!(
            "E2E: Amdahl table of the prover's op list on {} at 2^k constraints \
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
    for log_n in AMDAHL_SCALES {
        let r = gpu_prover(device, log_n);
        let cpu_s = cpu_prover_seconds(log_n);
        t.row(vec![
            format!("2^{log_n}"),
            secs(r.msm_s),
            secs(r.ntt_s),
            secs(r.residual_s),
            secs(r.g2_hidden_s),
            secs(r.critical_path_s()),
            secs(cpu_s),
            format!("{:.0}x", cpu_s / r.critical_path_s()),
            f(100.0 * r.msm_fraction()),
            f(100.0 * r.ntt_fraction()),
        ]);
    }
    t.render()
}

/// The full trace-derived section for [`super::full_report`]: runs one
/// real proof on the simulated device and renders both tables.
pub fn render_e2e_section(device: &DeviceSpec) -> String {
    let tp = traced_proof(device, LibraryId::Sppark);
    let mut out = render_trace_breakdown(&tp);
    out += "\n";
    out += &render_amdahl(device);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProverBreakdown;
    use gpu_sim::device::a40;

    fn small_trace() -> TracedProof {
        // 255 rounds → 2^9 domain: cheap enough for a unit test, same
        // stage graph as the report's 2^11 run.
        traced_proof_with_rounds(&a40(), LibraryId::Sppark, 255)
    }

    /// The Amdahl table's rows: the GPU breakdown and the CPU seconds.
    fn amdahl_rows() -> Vec<(ProverBreakdown, f64)> {
        AMDAHL_SCALES
            .map(|lg| (gpu_prover(&a40(), lg), cpu_prover_seconds(lg)))
            .collect()
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
        // Every record is charged, every stage row is priced, and `price`
        // hides exactly the G2 MSM.
        let model = tp.model.as_ref().expect("priced on the a40");
        let charge = |kind, size| model.charge(kind, size);
        assert!(tp
            .trace
            .records
            .iter()
            .all(|r| charge(r.kind, r.size) > 0.0));
        let modeled = tp.trace.summarize(|r| charge(r.kind, r.size));
        assert!(modeled.rows.iter().all(|r| r.seconds > 0.0));
        let hidden: Vec<_> = tp
            .trace
            .records
            .iter()
            .filter(|r| price([(r.kind, r.size)], charge).g2_hidden_s > 0.0)
            .map(|r| r.kind.stage())
            .collect();
        assert_eq!(hidden, ["G2 MSM (B2)"]);
        let records = tp.trace.records.iter().map(|r| (r.kind, r.size));
        assert!(price(records, charge).critical_path_s() > 0.0);
        assert!(tp.trace.summarize(|r| r.wall_s).total_s() > 0.0);
    }

    #[test]
    fn amdahl_shape_matches_the_paper_narrative() {
        // The acceptance shape: MSM dominates at 2^15; by 2^26 NTT is the
        // bottleneck of the accelerated prover (Fig. 5: up to ~91%).
        let rows = amdahl_rows();
        let (small, _) = rows.first().expect("non-empty");
        let (large, _) = rows.last().expect("non-empty");
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
        let speedups: Vec<f64> = amdahl_rows()
            .iter()
            .map(|(gpu, cpu_s)| cpu_s / gpu.critical_path_s())
            .collect();
        let peak = speedups.iter().copied().fold(0.0f64, f64::max);
        assert!((50.0..1000.0).contains(&peak), "peak speedup {peak}");
        // Speedup grows from small to large scales (the GPU amortizes).
        assert!(speedups.last().unwrap() > speedups.first().unwrap());
    }

    #[test]
    fn g2_stays_hidden_behind_the_gpu_phases() {
        for (lg, (r, _)) in AMDAHL_SCALES.zip(amdahl_rows()) {
            assert!(
                r.g2_hidden_s < r.msm_s + r.ntt_s + r.residual_s,
                "G2 must hide behind GPU work at 2^{lg}"
            );
        }
    }
}
