//! The reference CPU backend: real `zkp-msm`/`zkp-ntt` kernels on a
//! `zkp-runtime` pool, bit-identical to the pre-backend prover.

use crate::{witness_maps_into, BackendError, ExecBackend, G1Msm};
use zkp_curves::{Bls12Config, G1Curve, G2Curve, Jacobian};
use zkp_msm::{MsmConfig, MsmPlan, MsmScratch};
use zkp_ntt::{ntt_parallel_on, scale_by_powers, TwiddleTable};
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

/// Executes every op with the real CPU kernels.
#[derive(Clone, Copy)]
pub struct CpuBackend<'p> {
    pool: &'p ThreadPool,
}

/// The fastest measured CPU configuration: endomorphism-split,
/// signed-digit XYZZ buckets. Every prover plan is built under it.
pub fn default_msm_config() -> MsmConfig {
    MsmConfig::glv_style()
}

impl<'p> CpuBackend<'p> {
    /// A backend on an explicit pool.
    pub fn on(pool: &'p ThreadPool) -> Self {
        Self { pool }
    }

    /// A backend on the process-global pool (`ZKP_THREADS` sized).
    pub fn global() -> CpuBackend<'static> {
        CpuBackend::on(zkp_runtime::global())
    }
}

impl<C: Bls12Config> ExecBackend<C> for CpuBackend<'_> {
    fn name(&self) -> String {
        "cpu".into()
    }

    fn pool(&self) -> &ThreadPool {
        self.pool
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
        plan: &MsmPlan<G1Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G1Curve<C>>,
    ) -> Result<Jacobian<G1Curve<C>>, BackendError> {
        Ok(plan.execute_in(scalars, self.pool, scratch).point)
    }

    fn msm_g2(
        &self,
        plan: &MsmPlan<G2Curve<C>>,
        scalars: &[C::Fr],
        scratch: &mut MsmScratch<G2Curve<C>>,
    ) -> Result<Jacobian<G2Curve<C>>, BackendError> {
        Ok(plan.execute_in(scalars, self.pool, scratch).point)
    }
}
