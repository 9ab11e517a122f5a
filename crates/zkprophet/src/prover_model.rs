//! End-to-end Groth16 *Prover* composition on the GPU (Fig. 3 → Fig. 5).
//!
//! A proof at scale `n = 2^log_n` runs three G1 MSMs of size ~n (the A, B,
//! and C/L queries), one H-query MSM folded into the C cost, seven
//! NTT-shaped transforms on the quotient domain of size 2n, and a G2 MSM
//! that "is performed in parallel on CPU" (§II-A) and therefore hidden
//! from the GPU critical path.

use gpu_kernels::libraries::{
    best_library, cpu_msm_seconds, cpu_ntt_seconds, msm_estimate, ntt_estimate, LibraryId,
    PhaseEstimate,
};
use gpu_sim::device::DeviceSpec;

// Pipeline-shape constants live in `gpu_kernels::calibration`, shared with
// the `zkp-backend` cost models so the closed-form composition and the
// trace-charging backend can never drift; re-exported here for callers.
pub use gpu_kernels::calibration::{G1_MSMS, G2_COST_FACTOR, NTTS};

/// The per-phase timing of one GPU proof.
#[derive(Debug, Clone)]
pub struct ProverBreakdown {
    /// Scale exponent.
    pub log_n: u32,
    /// Total MSM seconds (G1, on GPU).
    pub msm_s: f64,
    /// Total NTT seconds (on GPU, quotient domain `2n`).
    pub ntt_s: f64,
    /// Library chosen for MSM.
    pub msm_lib: LibraryId,
    /// Library chosen for NTT.
    pub ntt_lib: LibraryId,
    /// The underlying per-call MSM estimate.
    pub msm_est: PhaseEstimate,
    /// The underlying per-transform NTT estimate.
    pub ntt_est: PhaseEstimate,
}

impl ProverBreakdown {
    /// GPU wall seconds.
    pub fn total_s(&self) -> f64 {
        self.msm_s + self.ntt_s
    }

    /// NTT share of the proof time (the Fig. 5 y-axis).
    pub fn ntt_fraction(&self) -> f64 {
        self.ntt_s / self.total_s()
    }
}

/// The fastest MSM library and estimate at a scale.
pub fn best_msm(device: &DeviceSpec, log_n: u32) -> (LibraryId, PhaseEstimate) {
    best_library(|lib| msm_estimate(lib, device, log_n))
}

/// The fastest NTT library and estimate at a scale.
pub fn best_ntt(device: &DeviceSpec, log_n: u32) -> (LibraryId, PhaseEstimate) {
    best_library(|lib| ntt_estimate(lib, device, log_n))
}

/// Composes the optimized GPU prover at a scale (best kernel per phase —
/// exactly the plug-and-play composition §V argues for).
pub fn gpu_prover(device: &DeviceSpec, log_n: u32) -> ProverBreakdown {
    let (msm_lib, msm_est) = best_msm(device, log_n);
    let (ntt_lib, ntt_est) = best_ntt(device, log_n + 1); // quotient domain 2n
    ProverBreakdown {
        log_n,
        msm_s: f64::from(G1_MSMS) * msm_est.seconds(),
        ntt_s: f64::from(NTTS) * ntt_est.seconds(),
        msm_lib,
        ntt_lib,
        msm_est,
        ntt_est,
    }
}

/// The CPU (arkworks) prover baseline: G1 + G2 MSMs and the NTT pipeline.
pub fn cpu_prover_seconds(log_n: u32) -> f64 {
    f64::from(G1_MSMS) * cpu_msm_seconds(log_n)
        + G2_COST_FACTOR * cpu_msm_seconds(log_n)
        + f64::from(NTTS) * cpu_ntt_seconds(log_n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a40;

    #[test]
    fn ntt_dominates_at_large_scale() {
        // Fig. 5's headline: NTT ~50% at modest sizes, up to ~91% large.
        let d = a40();
        let small = gpu_prover(&d, 16);
        let large = gpu_prover(&d, 26);
        assert!(large.ntt_fraction() > 0.7, "{}", large.ntt_fraction());
        assert!(large.ntt_fraction() > small.ntt_fraction());
    }

    #[test]
    fn best_libraries_change_with_scale() {
        let d = a40();
        assert_eq!(best_msm(&d, 15).0, LibraryId::Sppark);
        assert_eq!(best_msm(&d, 26).0, LibraryId::Ymc);
        assert_eq!(best_ntt(&d, 16).0, LibraryId::Bellperson);
        assert_eq!(best_ntt(&d, 20).0, LibraryId::Cuzk);
        assert_eq!(best_ntt(&d, 24).0, LibraryId::Bellperson);
    }

    #[test]
    fn cpu_prover_scales_superlinearly() {
        // Window sizes grow with scale, so the PADD count grows slightly
        // sublinearly in n; still strongly superlinear in wall time.
        assert!(cpu_prover_seconds(20) > 18.0 * cpu_prover_seconds(15));
    }

    #[test]
    fn speedup_peaks_in_the_hundreds() {
        // Fig. 1: end-to-end GPU speedup "up to ~200x".
        let d = a40();
        let peak = (15..=26)
            .map(|lg| cpu_prover_seconds(lg) / gpu_prover(&d, lg).total_s())
            .fold(0.0f64, f64::max);
        assert!((100.0..500.0).contains(&peak), "peak {peak}");
    }
}
