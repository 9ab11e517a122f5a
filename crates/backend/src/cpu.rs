//! The reference CPU backend: every op's kernel, run as it is on a
//! `zkp-runtime` pool.

use crate::{BackendError, ExecBackend, Op};
use zkp_curves::Bls12Config;
use zkp_msm::MsmConfig;
use zkp_runtime::ThreadPool;

/// Runs every op's kernel on its pool; never fails, records nothing.
#[derive(Clone, Copy)]
pub struct CpuBackend<'p> {
    pool: &'p ThreadPool,
}

/// The fastest measured CPU configuration: endomorphism split and signed
/// digits. Every prover plan is built under it.
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

    fn run_op(&self, _op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError> {
        kernel();
        Ok(())
    }
}
