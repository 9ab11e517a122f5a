//! The one file that names repository APIs.
//!
//! Every other file of the benchmark reaches the repository through this
//! module, so the list of names that must keep compiling until a `benchmark`
//! change moves this file is exactly what is below (and is written out in
//! `API_SURFACE.json` beside the manifest). Everything is pinned to BLS12-381.

pub use gpu_kernels::optimized::zoo_entries;
use gpu_kernels::split_limbs;
pub use gpu_kernels::{
    optimized_zoo, run_ff_op, FfInputs, FfOp, FfOpReport, Field32, OptimizedKernel,
};
pub use gpu_sim::device::v100;
pub use gpu_sim::SmspConfig;
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
pub use zkp_backend::cpu::default_msm_config;
pub use zkp_backend::{CpuBackend, G1Msm, OpKind, TracingBackend};
use zkp_backend::{ExecBackend, ExecTrace};
pub use zkp_curves::bls12_381::pairing;
use zkp_curves::bls12_381::Bls12381;
use zkp_curves::{batch_to_affine, Jacobian};
pub use zkp_curves::{Affine, SwCurve, Xyzz};
use zkp_ff::counter::{with_counting, Counted};
use zkp_ff::OpCounts;
pub use zkp_ff::{batch_inverse, Field, Fp, FpConfig, Fq381Config, Fr381Config, PrimeField};
use zkp_groth16::ProofService;
pub use zkp_groth16::{setup, verify, verify_batch};
pub use zkp_msm::{msm_parallel_with_config_in, MsmConfig, MsmPlan, MsmScratch, MsmStats};
pub use zkp_ntt::{
    distribute_powers_parallel, ntt_parallel_on, quotient_poly, quotient_poly_in, Domain,
    TwiddleTable,
};
pub use zkp_r1cs::circuits::mimc;
pub use zkp_r1cs::{LinearCombination, Variable};
pub use zkp_runtime::{CountingAlloc, ThreadPool};

/// The scalar field every circuit and transform runs over.
pub type Fr = zkp_ff::Fr381;
/// The base field of G1.
pub type Fq = zkp_ff::Fq381;
/// The G1 group.
pub type G1 = zkp_curves::bls12_381::G1;
/// The G2 group.
pub type G2 = zkp_curves::bls12_381::G2;
/// A constraint system over [`Fr`].
pub type ConstraintSystem = zkp_r1cs::ConstraintSystem<Fr>;
/// A Groth16 proof.
pub type Proof = zkp_groth16::Proof<Bls12381>;
/// A Groth16 verifying key.
pub type VerifyingKey = zkp_groth16::VerifyingKey<Bls12381>;
/// A reusable proving session.
pub type ProverSession = zkp_groth16::ProverSession<Bls12381>;
/// The multi-proof service.
pub type Service = ProofService<Bls12381>;

/// Sets the size of the process-wide pool; effective only before its first use.
pub fn set_global_pool_threads(threads: usize) {
    std::env::set_var("ZKP_THREADS", threads.to_string());
}

/// Threads of the process-wide pool (builds it on first use).
pub fn global_pool_threads() -> usize {
    zkp_runtime::global().num_threads()
}

/// Drains the stage records a [`TracingBackend`] collected since the last call.
pub fn take_trace(backend: &TracingBackend<CpuBackend<'_>>) -> ExecTrace {
    ExecBackend::<Bls12381>::take_trace(backend)
}

/// `n` distinct affine points `G, 2G, 3G, …`: MSM bases that cost one mixed
/// addition each to make, unlike `n` scalar multiplications.
pub fn consecutive_multiples<Cu: SwCurve>(n: usize) -> Vec<Affine<Cu>> {
    let g = Cu::generator();
    let mut acc = Jacobian::from(g);
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(acc);
        acc = acc.add_affine(&g);
    }
    batch_to_affine(&points)
}

macro_rules! counted_curve {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $label:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
        pub struct $name;

        impl SwCurve for $name {
            type Base = Counted<<$inner as SwCurve>::Base>;
            type Scalar = Fr;

            fn b() -> Self::Base {
                Counted(<$inner>::b())
            }

            fn generator() -> Affine<Self> {
                let g = <$inner>::generator();
                Affine {
                    x: Counted(g.x),
                    y: Counted(g.y),
                    infinity: false,
                }
            }

            const NAME: &'static str = $label;
        }
    };
}

counted_curve!(
    /// G1 over op-counting coordinates: the production formulas, counted in
    /// base-field operations.
    CountedG1,
    G1,
    "G1(counted)"
);
counted_curve!(
    /// G2 over op-counting coordinates: the production formulas, counted in
    /// `Fq2` operations.
    CountedG2,
    G2,
    "G2(counted)"
);

/// Field operations of one XYZZ mixed addition on `Cu` (a counted curve).
pub fn count_madd<Cu: SwCurve>() -> OpCounts {
    let g = Cu::generator();
    let q = Jacobian::from(g).double().to_affine();
    let acc = Xyzz::from(g).double().double();
    let (_, counts) = with_counting(|| std::hint::black_box(acc.add_affine(&q)));
    counts
}

/// 32-bit Montgomery limbs of a host field element, as the simulated kernels
/// take and return them.
pub fn gpu_limbs<C: FpConfig<N>, const N: usize>(x: &Fp<C, N>) -> Vec<u32> {
    split_limbs(x.montgomery_repr().limbs())
}
