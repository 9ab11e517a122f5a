//! End-to-end Groth16 *Prover* composition (Fig. 3 → Figs. 1 and 5).
//!
//! A proof is the op list the prover records ([`canonical_ops`]), and its
//! cost is one sum over that list ([`price`]) through a per-op charge:
//! [`GpuCostModel::charge`] for the modeled GPU, [`cpu_op_seconds`] for
//! the CPU baseline. The G2 MSM "is performed in parallel on CPU" (§II-A),
//! so the sum hides it behind the GPU phases unless it dominates.

use crate::sim::{cpu_op_seconds, GpuCostModel};
use gpu_sim::device::DeviceSpec;
use zkp_backend::{G1Msm, OpClass, OpKind};

/// The per-class timing of one proof.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProverBreakdown {
    /// G1 MSM seconds (A, B₁, L and H).
    pub msm_s: f64,
    /// NTT seconds (the seven transforms).
    pub ntt_s: f64,
    /// Residual seconds: witness-map evaluation and coset scalings.
    pub residual_s: f64,
    /// G2 MSM seconds, off the critical path.
    pub g2_hidden_s: f64,
}

impl ProverBreakdown {
    fn on_path_s(&self) -> f64 {
        self.msm_s + self.ntt_s + self.residual_s
    }

    /// Wall seconds: the on-path classes, or the hidden G2 MSM when it
    /// dominates them.
    pub fn critical_path_s(&self) -> f64 {
        self.on_path_s().max(self.g2_hidden_s)
    }

    /// Every op's seconds, hidden or not: the list run one op at a time.
    pub fn serial_s(&self) -> f64 {
        self.on_path_s() + self.g2_hidden_s
    }

    /// MSM share of the critical path.
    pub fn msm_fraction(&self) -> f64 {
        self.msm_s / self.on_path_s()
    }

    /// NTT share of the critical path (the Fig. 5 y-axis).
    pub fn ntt_fraction(&self) -> f64 {
        self.ntt_s / self.on_path_s()
    }
}

/// The `(kind, size)` list one proof dispatches, for a `domain`-row QAP
/// over `vars` variables of which `private` are private: the witness
/// eval, the 7-transform quotient pipeline with its 4 coset scalings, and
/// the five MSMs.
pub fn canonical_ops(domain: u64, vars: u64, private: u64) -> Vec<(OpKind, u64)> {
    let mut ops = vec![(OpKind::WitnessEval, domain)];
    ops.extend([(OpKind::NttInverse, domain); 4]);
    ops.extend([(OpKind::NttForward, domain); 3]);
    ops.extend([(OpKind::CosetMul, domain); 4]);
    ops.extend([
        (OpKind::MsmG1(G1Msm::A), vars),
        (OpKind::MsmG1(G1Msm::B1), vars),
        (OpKind::MsmG2, vars),
        (OpKind::MsmG1(G1Msm::L), private),
        (OpKind::MsmG1(G1Msm::H), domain - 1),
    ]);
    ops
}

/// Sums `charge` over `ops` per class: the one composition of a proof's
/// cost.
pub fn price(
    ops: impl IntoIterator<Item = (OpKind, u64)>,
    charge: impl Fn(OpKind, u64) -> f64,
) -> ProverBreakdown {
    let mut b = ProverBreakdown::default();
    for (kind, size) in ops {
        *match kind.class() {
            OpClass::G1Msm => &mut b.msm_s,
            OpClass::Ntt => &mut b.ntt_s,
            OpClass::Residual => &mut b.residual_s,
            OpClass::G2Msm => &mut b.g2_hidden_s,
        } += charge(kind, size);
    }
    b
}

/// The proof at `2^log_n` constraints: a full-width witness of `2^log_n`
/// variables on a `2^(log_n+1)` domain.
fn proof_at(log_n: u32) -> Vec<(OpKind, u64)> {
    let n = 1u64 << log_n;
    canonical_ops(2 * n, n, n)
}

/// The optimized GPU prover at `2^log_n` constraints (best kernel per
/// phase and scale — the plug-and-play composition §V argues for).
pub fn gpu_prover(device: &DeviceSpec, log_n: u32) -> ProverBreakdown {
    let model = GpuCostModel::best_of_breed(device.clone());
    price(proof_at(log_n), |kind, size| model.charge(kind, size))
}

/// The single-threaded CPU (arkworks) prover at `2^log_n` constraints.
pub fn cpu_prover_seconds(log_n: u32) -> f64 {
    price(proof_at(log_n), cpu_op_seconds).serial_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_kernels::LibraryId;
    use gpu_sim::device::a40;
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_backend::{CpuBackend, ExecBackend, TracingBackend};
    use zkp_curves::bls12_381::Bls12381;
    use zkp_ff::{Field, Fr381};
    use zkp_groth16::{prove_with_backend, setup};
    use zkp_r1cs::circuits::mimc;
    use zkp_runtime::ThreadPool;

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
        let d = GpuCostModel::best_of_breed(a40());
        assert_eq!(d.msm(15).0, LibraryId::Sppark);
        assert_eq!(d.msm(26).0, LibraryId::Ymc);
        assert_eq!(d.ntt(16).0, LibraryId::Bellperson);
        assert_eq!(d.ntt(20).0, LibraryId::Cuzk);
        assert_eq!(d.ntt(24).0, LibraryId::Bellperson);
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
            .map(|lg| cpu_prover_seconds(lg) / gpu_prover(&d, lg).critical_path_s())
            .fold(0.0f64, f64::max);
        assert!((100.0..500.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn overlapped_stages_are_hidden_unless_dominant() {
        let model = GpuCostModel::for_library(a40(), LibraryId::Sppark);
        let charge = |kind, size| model.charge(kind, size);
        let g1 = OpKind::MsmG1(G1Msm::A);
        // A 2^9 G2 MSM hides behind two 2^9 G1 MSMs; a 2^26 one dominates.
        for (g2_size, dominant) in [(1 << 9, false), (1 << 26, true)] {
            let b = price(
                [(g1, 1 << 9), (g1, 1 << 9), (OpKind::MsmG2, g2_size)],
                charge,
            );
            assert_eq!(b.msm_s, 2.0 * charge(g1, 1 << 9));
            assert_eq!(b.g2_hidden_s, charge(OpKind::MsmG2, g2_size));
            assert_eq!(b.g2_hidden_s > b.msm_s, dominant);
            assert_eq!(b.critical_path_s(), b.msm_s.max(b.g2_hidden_s));
        }
    }

    #[test]
    fn canonical_ops_are_the_ops_the_prover_records() {
        // The multiset of recorded (kind, size) pairs must be the priced
        // list exactly: an op gained, lost or resized fails here.
        let cs = mimc(Fr381::from_u64(5), 63);
        let pk = setup::<Bls12381, _>(&cs, &mut StdRng::seed_from_u64(1));
        let sorted = |mut ops: Vec<(OpKind, u64)>| {
            ops.sort_by_key(|&(kind, size)| (kind.stage(), size));
            ops
        };
        for threads in [1, 2] {
            let pool = ThreadPool::with_threads(threads);
            let backend = TracingBackend::new(CpuBackend::on(&pool));
            let (_, stats) = prove_with_backend(&pk, &cs, &mut StdRng::seed_from_u64(2), &backend);
            let recorded = ExecBackend::<Bls12381>::take_trace(&backend).records;
            let recorded = recorded.iter().map(|r| (r.kind, r.size)).collect();
            let [vars, _, private, _] = stats.g1_msm_sizes;
            assert_eq!(
                sorted(recorded),
                sorted(canonical_ops(stats.domain_size, vars, private)),
                "{threads} threads"
            );
        }
    }
}
