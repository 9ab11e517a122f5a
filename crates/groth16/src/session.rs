//! Proving sessions: key, plan, and workspace bundled for repeated proofs.
//!
//! A [`ProverSession`] owns everything whose lifetime exceeds one proof —
//! the proving key, the per-key [`ProverPlan`] MSM precompute, the NTT
//! domain and twiddle table — plus a private `ProverWorkspace` of
//! scratch buffers. [`ProverSession::prove_in`] runs the same task graph
//! as the one-shot [`prove_with_backend`](crate::prove_with_backend) but
//! over the cached plans and the session's workspace: after the first
//! (cold) proof sizes the buffers, steady-state proofs perform no heap
//! allocation on the hot path and the proof bytes stay identical to the
//! one-shot prover's.

use crate::protocol::{prove_core, Proof, ProverPlan, ProverStats, ProvingKey, VerifyingKey};
use crate::workspace::ProverWorkspace;
use rand::Rng;
use std::sync::Arc;
use zkp_backend::{BackendError, CpuBackend, ExecBackend};
use zkp_curves::Bls12Config;
use zkp_ntt::{Domain, TwiddleTable};

/// The proof-lifetime-exceeding state a session shares with its forks:
/// proving key, MSM plans, NTT domain and twiddles. Immutable after
/// construction, so service workers share one copy behind an [`Arc`].
pub(crate) struct SessionShared<C: Bls12Config> {
    pub(crate) pk: ProvingKey<C>,
    pub(crate) plan: ProverPlan<C>,
    pub(crate) domain: Domain<C::Fr>,
    pub(crate) table: TwiddleTable<C::Fr>,
}

/// A reusable proving session for one proving key.
///
/// Construction pays every per-key cost once — the endomorphism images and
/// the window precompute of the five [`MsmPlan`](zkp_msm::MsmPlan)s, the
/// twiddle table — and the embedded workspace amortizes the
/// per-proof buffers. Sessions are `Send`; to prove concurrently, create
/// one per worker with [`ProverSession::fork`] (the shared key and plans
/// are reference-counted, only the scratch is duplicated).
pub struct ProverSession<C: Bls12Config> {
    shared: Arc<SessionShared<C>>,
    ws: ProverWorkspace<C>,
}

impl<C: Bls12Config> ProverSession<C> {
    /// Builds a session, consuming the proving key. Plans are built with
    /// the default (fastest) MSM configuration on the global pool.
    pub fn new(pk: ProvingKey<C>) -> Self {
        let plan = ProverPlan::build_with(&pk, None, zkp_runtime::global());
        // setup() emits one h-query base per domain element except the
        // last, so the key pins the domain size.
        let domain = Domain::new((pk.h_query.len() + 1) as u64)
            .expect("proving key domain within the field two-adicity");
        let table = TwiddleTable::new(&domain);
        Self {
            shared: Arc::new(SessionShared {
                pk,
                plan,
                domain,
                table,
            }),
            ws: ProverWorkspace::new(),
        }
    }

    /// A new session sharing this one's key, plans, and twiddles, with a
    /// fresh (empty) workspace. This is how a
    /// [`ProofService`](crate::ProofService) worker gets its own scratch
    /// without duplicating the per-key precompute.
    pub fn fork(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            ws: ProverWorkspace::new(),
        }
    }

    /// The proving key.
    pub fn pk(&self) -> &ProvingKey<C> {
        &self.shared.pk
    }

    /// The verification key.
    pub fn vk(&self) -> &VerifyingKey<C> {
        &self.shared.pk.vk
    }

    /// The cached per-key MSM plans.
    pub fn plan(&self) -> &ProverPlan<C> {
        &self.shared.plan
    }

    /// The NTT domain size every proof in this session runs over.
    pub fn domain_size(&self) -> u64 {
        self.shared.domain.size()
    }

    /// Bytes currently held by the workspace's field-element buffers.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.held_bytes()
    }

    /// Proves on the global pool's CPU backend, reusing the workspace.
    /// Steady-state calls (same circuit shape as the previous call)
    /// perform no heap allocation on the hot path.
    ///
    /// # Panics
    ///
    /// Panics if the system's shape disagrees with the proving key or the
    /// assignment does not satisfy the constraints (debug builds).
    pub fn prove_in<R: Rng + ?Sized>(
        &mut self,
        cs: &zkp_r1cs::ConstraintSystem<C::Fr>,
        rng: &mut R,
    ) -> (Proof<C>, ProverStats) {
        self.prove_in_on(cs, rng, &CpuBackend::global())
    }

    /// [`prove_in`](Self::prove_in) through an explicit execution
    /// backend. Proof bytes are identical to
    /// [`prove_with_backend`](crate::prove_with_backend) for the same
    /// `rng` stream, at any thread count, under any backend.
    ///
    /// # Panics
    ///
    /// Panics if the system's shape disagrees with the proving key, if the
    /// assignment does not satisfy the constraints (debug builds), or if a
    /// backend op reports a [`BackendError`].
    pub fn prove_in_on<R: Rng + ?Sized, B: ExecBackend<C> + ?Sized>(
        &mut self,
        cs: &zkp_r1cs::ConstraintSystem<C::Fr>,
        rng: &mut R,
        backend: &B,
    ) -> (Proof<C>, ProverStats) {
        match self.try_prove_in_on(cs, rng, backend) {
            Ok(out) => out,
            Err(e) => panic!("infallible prove failed: {e}"),
        }
    }

    /// [`prove_in_on`](Self::prove_in_on) with an error channel: a
    /// backend op's `Err` — an op failure, or a deadline a
    /// [`DeadlineBackend`](zkp_backend::DeadlineBackend) enforces — stops
    /// the proof and is returned instead of unwinding. Same op sequence,
    /// same proof bytes, no allocation on the warm success path.
    ///
    /// After an `Err` the session remains usable — every workspace buffer
    /// is cleared or refilled at the start of the next call — so callers
    /// can retry on the same session (re-seeding the RNG per attempt to
    /// keep proofs reproducible).
    ///
    /// # Errors
    ///
    /// The [`BackendError`] a backend op reports. On concurrent arm
    /// failures the first error in task-graph order (H, A, B1, B2, L) is
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if the system's shape disagrees with the proving key or the
    /// assignment does not satisfy the constraints (debug builds).
    pub fn try_prove_in_on<R: Rng + ?Sized, B: ExecBackend<C> + ?Sized>(
        &mut self,
        cs: &zkp_r1cs::ConstraintSystem<C::Fr>,
        rng: &mut R,
        backend: &B,
    ) -> Result<(Proof<C>, ProverStats), BackendError> {
        let shared = &*self.shared;
        prove_core(
            &shared.pk,
            &shared.plan,
            &shared.domain,
            &shared.table,
            &mut self.ws,
            cs,
            rng,
            backend,
        )
    }
}
