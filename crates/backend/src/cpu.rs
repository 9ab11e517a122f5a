//! The reference CPU backend: real `zkp-msm`/`zkp-ntt` kernels on a
//! `zkp-runtime` pool, bit-identical to the pre-backend prover.

use crate::{witness_maps_into, BackendError, Bases, ExecBackend, G1Msm};
use zkp_curves::{Bls12Config, G1Curve, G2Curve, Jacobian, SwCurve};
use zkp_msm::{msm_parallel_with_config_in, MsmConfig, MsmScratch};
use zkp_ntt::{ntt_parallel_on, scale_by_powers, TwiddleTable};
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

/// Executes every op with the real CPU kernels.
#[derive(Clone, Copy)]
pub struct CpuBackend<'p> {
    pool: &'p ThreadPool,
    msm_cfg: MsmConfig,
}

/// The fastest measured CPU configuration: GLV-decomposed, signed-digit
/// XYZZ buckets. [`CpuBackend::with_msm_config`] selects another; proofs
/// match byte for byte either way.
pub fn default_msm_config() -> MsmConfig {
    MsmConfig::glv_style()
}

impl<'p> CpuBackend<'p> {
    /// A backend on an explicit pool.
    pub fn on(pool: &'p ThreadPool) -> Self {
        Self {
            pool,
            msm_cfg: default_msm_config(),
        }
    }

    /// A backend on the process-global pool (`ZKP_THREADS` sized).
    pub fn global() -> CpuBackend<'static> {
        CpuBackend::on(zkp_runtime::global())
    }

    /// Overrides the MSM configuration (window size, signed digits, …).
    pub fn with_msm_config(mut self, cfg: MsmConfig) -> Self {
        self.msm_cfg = cfg;
        self
    }

    /// One MSM in either group: the plan's run, or a one-shot under the
    /// backend's configuration.
    fn msm<Cu: SwCurve>(
        &self,
        bases: Bases<'_, Cu>,
        scalars: &[Cu::Scalar],
        scratch: &mut MsmScratch<Cu>,
    ) -> Jacobian<Cu> {
        match bases {
            Bases::Affine(points) => {
                msm_parallel_with_config_in(points, scalars, &self.msm_cfg, self.pool, scratch)
            }
            Bases::Planned(plan) => plan.execute_in(scalars, self.pool, scratch),
        }
        .point
    }
}

impl<C: Bls12Config> ExecBackend<C> for CpuBackend<'_> {
    fn name(&self) -> String {
        "cpu".into()
    }

    fn pool(&self) -> &ThreadPool {
        self.pool
    }

    fn msm_algorithm(&self) -> String {
        self.msm_cfg.describe()
    }

    fn witness_eval(
        &self,
        cs: &ConstraintSystem<C::Fr>,
        domain_size: u64,
        a: &mut Vec<C::Fr>,
        b: &mut Vec<C::Fr>,
        c: &mut Vec<C::Fr>,
    ) -> Result<(), BackendError> {
        witness_maps_into(cs, domain_size, a, b, c);
        Ok(())
    }

    fn ntt_forward(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError> {
        ntt_parallel_on(values, table, false, self.pool);
        Ok(())
    }

    fn ntt_inverse(
        &self,
        table: &TwiddleTable<C::Fr>,
        values: &mut [C::Fr],
    ) -> Result<(), BackendError> {
        ntt_parallel_on(values, table, true, self.pool);
        Ok(())
    }

    fn coset_mul(&self, values: &mut [C::Fr], g: C::Fr, scale: C::Fr) -> Result<(), BackendError> {
        scale_by_powers(self.pool, values, g, scale);
        Ok(())
    }

    fn msm_g1(
        &self,
        _which: G1Msm,
        bases: Bases<'_, G1Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G1Curve<C>>,
    ) -> Result<Jacobian<G1Curve<C>>, BackendError> {
        Ok(self.msm(bases, scalars, scratch))
    }

    fn msm_g2(
        &self,
        bases: Bases<'_, G2Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G2Curve<C>>,
    ) -> Result<Jacobian<G2Curve<C>>, BackendError> {
        Ok(self.msm(bases, scalars, scratch))
    }
}
