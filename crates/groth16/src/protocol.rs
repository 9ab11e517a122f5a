//! The Groth16 protocol: setup, prove, verify (Fig. 3 of the paper).

use crate::qap::Qap;
use crate::workspace::ProverWorkspace;
use core::fmt;
use rand::Rng;
use zkp_backend::cpu::default_msm_config;
use zkp_backend::{
    dispatch, quotient_pipeline_in, witness_maps_into, BackendError, CpuBackend, ExecBackend,
    G1Msm, Op, OpKind,
};
use zkp_curves::tower::Fq12;
use zkp_curves::{
    multi_pairing, pairing, Affine, Bls12Config, G1Curve, G2Curve, Jacobian, SwCurve, Xyzz,
};
use zkp_ff::Field;
use zkp_msm::{msm_parallel_with_config_in, FixedBase, MsmPlan, MsmScratch};
use zkp_ntt::{Domain, TwiddleTable};
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

/// The proving key `𝒫` — "consists of large integers (e.g., 377-bit)"
/// elliptic-curve points (paper §II); its length tracks the constraint
/// count.
pub struct ProvingKey<C: Bls12Config> {
    /// `α·G1`.
    pub alpha_g1: Affine<G1Curve<C>>,
    /// `β·G1`.
    pub beta_g1: Affine<G1Curve<C>>,
    /// `β·G2`.
    pub beta_g2: Affine<G2Curve<C>>,
    /// `δ·G1`.
    pub delta_g1: Affine<G1Curve<C>>,
    /// `δ·G2`.
    pub delta_g2: Affine<G2Curve<C>>,
    /// `uᵢ(τ)·G1` for every variable (the A-query MSM bases).
    pub a_query: Vec<Affine<G1Curve<C>>>,
    /// `vᵢ(τ)·G1`.
    pub b_g1_query: Vec<Affine<G1Curve<C>>>,
    /// `vᵢ(τ)·G2` (the G2 MSM the paper notes runs on CPU, §II-A).
    pub b_g2_query: Vec<Affine<G2Curve<C>>>,
    /// `(β·uᵢ(τ) + α·vᵢ(τ) + wᵢ(τ))/δ ·G1` for private variables.
    pub l_query: Vec<Affine<G1Curve<C>>>,
    /// `τⁱ·Z(τ)/δ ·G1` for the h-polynomial MSM.
    pub h_query: Vec<Affine<G1Curve<C>>>,
    /// The verification key.
    pub vk: VerifyingKey<C>,
}

/// The verification key.
pub struct VerifyingKey<C: Bls12Config> {
    /// `α·G1`.
    pub alpha_g1: Affine<G1Curve<C>>,
    /// `β·G2`.
    pub beta_g2: Affine<G2Curve<C>>,
    /// `γ·G2`.
    pub gamma_g2: Affine<G2Curve<C>>,
    /// `δ·G2`.
    pub delta_g2: Affine<G2Curve<C>>,
    /// `(β·uᵢ + α·vᵢ + wᵢ)/γ ·G1` for the constant and public variables.
    pub gamma_abc_g1: Vec<Affine<G1Curve<C>>>,
    /// Cached `e(α·G1, β·G2)` so verification needs three Miller loops.
    pub alpha_beta_gt: Fq12<C>,
}

/// A Groth16 proof: "less than 200 bytes" on the wire (paper §II) — two G1
/// points and one G2 point.
#[derive(Clone, PartialEq, Eq)]
pub struct Proof<C: Bls12Config> {
    /// The `A` component.
    pub a: Affine<G1Curve<C>>,
    /// The `B` component (in G2).
    pub b: Affine<G2Curve<C>>,
    /// The `C` component.
    pub c: Affine<G1Curve<C>>,
}

impl<C: Bls12Config> fmt::Debug for Proof<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proof({}: A, B, C)", C::NAME)
    }
}

/// Work counters from one proof generation, consumed by the GPU models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProverStats {
    /// Size of each G1 MSM that ran: the A query, then C's one MSM over
    /// `l_query ‖ h_query ‖ b_g1_query`.
    pub g1_msm_sizes: [u64; 2],
    /// Size of the G2 MSM.
    pub g2_msm_size: u64,
    /// NTT-shaped transforms executed (7 in the Fig. 3 pipeline).
    pub ntt_count: u32,
    /// Domain size the NTTs ran over.
    pub domain_size: u64,
}

/// Generates a proving/verifying key pair for the circuit shape.
///
/// # Panics
///
/// Panics if the constraint system is too large for the field's two-adicity.
pub fn setup<C: Bls12Config, R: Rng + ?Sized>(
    cs: &ConstraintSystem<C::Fr>,
    rng: &mut R,
) -> ProvingKey<C> {
    let qap = Qap::for_system(cs);
    // Toxic waste.
    let (tau, alpha, beta, gamma, delta) = loop {
        let tau = C::Fr::random(rng);
        if !qap.domain.eval_vanishing(&tau).is_zero() {
            break (
                tau,
                C::Fr::random(rng),
                C::Fr::random(rng),
                C::Fr::random(rng),
                C::Fr::random(rng),
            );
        }
    };
    let gamma_inv = gamma.inverse().expect("gamma != 0 w.h.p.");
    let delta_inv = delta.inverse().expect("delta != 0 w.h.p.");

    let (u, v, w) = qap.evaluate_at(cs, &tau);
    let num_public = cs.num_public();

    let g1_table = FixedBase::new(G1Curve::<C>::generator(), 8);
    let g2_table = FixedBase::new(G2Curve::<C>::generator(), 8);

    let a_query = g1_table.batch_mul(&u);
    let b_g1_query = g1_table.batch_mul(&v);
    let b_g2_query = g2_table.batch_mul(&v);

    // abc_i = β·uᵢ + α·vᵢ + wᵢ
    let abc: Vec<C::Fr> = u
        .iter()
        .zip(&v)
        .zip(&w)
        .map(|((ui, vi), wi)| beta * *ui + alpha * *vi + *wi)
        .collect();
    let gamma_abc_scalars: Vec<C::Fr> = abc[..=num_public].iter().map(|x| *x * gamma_inv).collect();
    let l_scalars: Vec<C::Fr> = abc[num_public + 1..]
        .iter()
        .map(|x| *x * delta_inv)
        .collect();
    let gamma_abc_g1 = g1_table.batch_mul(&gamma_abc_scalars);
    let l_query = g1_table.batch_mul(&l_scalars);

    // h_query[i] = τⁱ·Z(τ)/δ — degree of h is at most n-2.
    let z_tau = qap.domain.eval_vanishing(&tau);
    let mut h_scalars = Vec::with_capacity(qap.domain.size() as usize - 1);
    let mut tau_pow = z_tau * delta_inv;
    for _ in 0..qap.domain.size() - 1 {
        h_scalars.push(tau_pow);
        tau_pow *= tau;
    }
    let h_query = g1_table.batch_mul(&h_scalars);

    let alpha_g1 = g1_table.mul(&alpha).to_affine();
    let beta_g1 = g1_table.mul(&beta).to_affine();
    let beta_g2 = g2_table.mul(&beta).to_affine();
    let delta_g1 = g1_table.mul(&delta).to_affine();
    let delta_g2 = g2_table.mul(&delta).to_affine();
    let gamma_g2 = g2_table.mul(&gamma).to_affine();

    let vk = VerifyingKey {
        alpha_g1,
        beta_g2,
        gamma_g2,
        delta_g2,
        gamma_abc_g1,
        alpha_beta_gt: pairing(&alpha_g1, &beta_g2),
    };

    ProvingKey {
        alpha_g1,
        beta_g1,
        beta_g2,
        delta_g1,
        delta_g2,
        a_query,
        b_g1_query,
        b_g2_query,
        l_query,
        h_query,
        vk,
    }
}

/// Cached per-proving-key MSM plans for the prover's three MSMs.
///
/// The MSM bases are fixed for the life of a proving key; only the
/// scalars change per witness. C needs only a sum, so its three queries —
/// `l_query`, `h_query` and `b_g1_query` — share one plan, one bucket
/// reduction per window and one table (Groth16's prover equations, §3 of
/// eprint 2016/260). Building a `ProverPlan` pays the endomorphism images
/// of the finite bases and the Fig. 12 window precompute once, after
/// which every proof of a [`ProverSession`](crate::ProverSession) reuses
/// the tables. The one-shot [`prove_with_backend`] builds the zero-budget
/// plan per call. Proof bytes are identical under any budget: the plan
/// changes the *schedule*, never the group element.
pub struct ProverPlan<C: Bls12Config> {
    /// Plan over `pk.a_query ‖ δ₁ ‖ O`, scalars `z ‖ r ‖ s`: A's MSM
    /// carries its blinding term `r·δ₁`.
    pub a: MsmPlan<G1Curve<C>>,
    /// Plan over `pk.l_query ‖ pk.h_query ‖ pk.b_g1_query`.
    pub c: MsmPlan<G1Curve<C>>,
    /// Plan over `pk.b_g2_query ‖ O ‖ δ₂`, scalars `z ‖ r ‖ s`: B₂'s MSM
    /// carries its blinding term `s·δ₂`. Each copy is `[P…, ψ(P)…, ψ²(P)…,
    /// ψ³(P)…]` over the finite bases; under `ψ` a sub-scalar has 64 bits,
    /// so even the deepest fold doubles each base about 64 times in all.
    pub b2: MsmPlan<G2Curve<C>>,
}

impl<C: Bls12Config> ProverPlan<C> {
    /// Builds the three plans under [`default_msm_config`] and an optional
    /// total memory budget in bytes (`Some(0)` is the one-shot single
    /// copy). The budget is split across the plans proportionally to
    /// their queries' base counts — the Fig. 12 memory/window trade-off
    /// applied key-wide. The A and B₂ plans take the scalars `z ‖ r ‖ s`:
    /// each carries one blinding base, the other slot a base at infinity,
    /// which has no rows.
    pub fn build_with(pk: &ProvingKey<C>, budget_bytes: Option<u64>, pool: &ThreadPool) -> Self {
        let config = default_msm_config();
        let c_bases = [&pk.l_query[..], &pk.h_query, &pk.b_g1_query].concat();
        let a_bases = [&pk.a_query[..], &[pk.delta_g1, Affine::identity()]].concat();
        let b2_bases = [&pk.b_g2_query[..], &[Affine::identity(), pk.delta_g2]].concat();
        let total = (pk.a_query.len() + c_bases.len() + pk.b_g2_query.len()).max(1) as u128;
        // In u128: `b · n` overflows u64 for budgets near `u64::MAX`, and
        // the share is at most `b`, so it narrows back losslessly.
        let share = |n: usize| budget_bytes.map(|b| (u128::from(b) * n as u128 / total) as u64);
        Self {
            a: MsmPlan::build(&a_bases, &config, share(pk.a_query.len()), pool),
            c: MsmPlan::build(&c_bases, &config, share(c_bases.len()), pool),
            b2: MsmPlan::build(&b2_bases, &config, share(pk.b_g2_query.len()), pool),
        }
    }

    /// Total bytes held by the three expanded point tables.
    pub fn storage_bytes(&self) -> u64 {
        self.a.storage_bytes() + self.c.storage_bytes() + self.b2.storage_bytes()
    }

    /// Algorithm tags of all three plans, in task-graph order:
    /// `C: …; A: …; B2: …`.
    pub fn algorithm(&self) -> String {
        format!(
            "C: {}; A: {}; B2: {}",
            self.c.algorithm(),
            self.a.algorithm(),
            self.b2.algorithm(),
        )
    }
}

/// Generates a proof for the satisfied constraint system (Fig. 3's *Prover*:
/// 7 NTT-shaped transforms for `h`, then the G1/G2 MSMs) on the global
/// pool's [`CpuBackend`].
///
/// # Panics
///
/// Panics if the system's shape disagrees with the proving key or the
/// assignment does not satisfy the constraints (checked in debug builds).
pub fn prove<C: Bls12Config, R: Rng + ?Sized>(
    pk: &ProvingKey<C>,
    cs: &ConstraintSystem<C::Fr>,
    rng: &mut R,
) -> (Proof<C>, ProverStats) {
    prove_with_backend(pk, cs, rng, &CpuBackend::global())
}

/// Generates one proof with every heavy operation dispatched through an
/// execution backend (see `zkp-backend`): the one-shot form of
/// [`ProverSession::prove_in_on`](crate::ProverSession::prove_in_on) over
/// the key's zero-budget [`ProverPlan`], a fresh twiddle table and
/// throwaway scratch. Proof bytes are identical to the session's for the
/// same `rng` stream, at any thread count, under any backend.
/// Drain a recording backend with [`ExecBackend::take_trace`] afterwards.
///
/// # Panics
///
/// Panics if the system's shape disagrees with the proving key, if the
/// assignment does not satisfy the constraints (checked in debug builds),
/// or if a backend op reports a [`BackendError`] — use
/// [`ProverSession::try_prove_in_on`](crate::ProverSession::try_prove_in_on)
/// to handle those.
pub fn prove_with_backend<C: Bls12Config, R: Rng + ?Sized, B: ExecBackend<C> + ?Sized>(
    pk: &ProvingKey<C>,
    cs: &ConstraintSystem<C::Fr>,
    rng: &mut R,
    backend: &B,
) -> (Proof<C>, ProverStats) {
    let plan = ProverPlan::build_with(pk, Some(0), backend.pool());
    let domain = Qap::for_system(cs).domain;
    let table = TwiddleTable::new(&domain);
    let mut ws = ProverWorkspace::new();
    prove_core(pk, &plan, &domain, &table, &mut ws, cs, rng, backend)
        .unwrap_or_else(|e| panic!("prove failed: {e}"))
}

/// The prover: the one task graph behind every proving entry point.
///
/// The 7-transform NTT pipeline — and C's one G1 MSM, which consumes its
/// output — executes concurrently with the A MSM, the sum of B₁'s bases
/// under binary witness entries, and the B₂ MSM; each MSM fans out
/// internally and runs over its `plan`. Every buffer is borrowed from
/// `ws`, so with a warmed workspace and a prebuilt `plan` the success
/// path allocates nothing. The proof is identical at any thread count
/// *and under any backend* given the same `rng` stream, because the
/// blinding factors are drawn before the graph is spawned, every kernel
/// is schedule-deterministic, and every kernel is the prover's,
/// [`dispatch`]ed once through the backend's hook.
///
/// After an `Err` the workspace remains usable: every buffer is cleared
/// or refilled at the start of the next call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prove_core<C: Bls12Config, R: Rng + ?Sized, B: ExecBackend<C> + ?Sized>(
    pk: &ProvingKey<C>,
    plan: &ProverPlan<C>,
    domain: &Domain<C::Fr>,
    table: &TwiddleTable<C::Fr>,
    ws: &mut ProverWorkspace<C>,
    cs: &ConstraintSystem<C::Fr>,
    rng: &mut R,
    backend: &B,
) -> Result<(Proof<C>, ProverStats), BackendError> {
    debug_assert!(cs.is_satisfied(), "witness does not satisfy the circuit");
    assert_eq!(
        cs.num_variables(),
        pk.a_query.len(),
        "constraint system shape does not match the proving key"
    );
    let num_rows = cs.num_constraints() + cs.num_public() + 1;
    assert_eq!(
        num_rows.next_power_of_two() as u64,
        domain.size(),
        "constraint system domain does not match the proving key's"
    );

    // Blinding factors come out of the RNG before any parallel work so the
    // transcript does not depend on scheduling.
    let r = C::Fr::random(rng);
    let s = C::Fr::random(rng);

    // Flat z = (1, public…, private…) ‖ r ‖ s, refilled in place: the A and
    // B₂ plans take r and s as the scalars of their blinding bases.
    ws.z.clear();
    ws.z.push(C::Fr::one());
    ws.z.extend_from_slice(&cs.assignment.public);
    ws.z.extend_from_slice(&cs.assignment.private);
    ws.z.extend([r, s]);

    let witness_eval = Op {
        kind: OpKind::WitnessEval,
        size: domain.size(),
        tag: None,
    };
    dispatch(backend, &witness_eval, || {
        witness_maps_into(
            cs,
            domain.size(),
            &mut ws.a_evals,
            &mut ws.b_evals,
            &mut ws.c_evals,
        )
    })?;
    let pool = backend.pool();

    let ProverWorkspace {
        z,
        c_scalars,
        a_evals,
        b_evals,
        c_evals,
        g1: [sa, sc],
        g2,
    } = ws;
    let zrs: &[C::Fr] = z;
    let z = &zrs[..zrs.len() - 2];
    let priv_z = &z[1 + cs.num_public()..];
    assert_eq!(
        priv_z.len(),
        pk.l_query.len(),
        "private witness length does not match the proving key"
    );
    let one = C::Fr::one();

    // C = Σ_priv zᵢ·Lᵢ + Σ hᵢ·Hᵢ + s·A + r·B₁ − r·s·δ, where B₁ is B's G1
    // twin β + Σ zᵢ·B₁ᵢ + s·δ: its s·δ cancels the −r·s·δ, so
    // C = MSM(L ‖ H ‖ B₁; z_priv ‖ h ‖ r·z⁺) + r·(β + Σ_{zᵢ=1} B₁ᵢ) + s·A,
    // where z⁺ᵢ = zᵢ except that a 1 becomes 0: a binary entry costs one
    // mixed addition in the sum rather than a full-width scalar `r` in
    // the MSM.
    //
    // --- Task graph. ---
    // ntt(h pipeline) ──► C-MSM ─┐
    // A-MSM ─────────────────────┤
    // β + Σ_{zᵢ=1} B₁ᵢ ──────────┼──► assemble A, B, C
    // B₂-MSM (G2) ───────────────┘
    // Each MSM arm returns a `Result`; they are resolved in fixed
    // task-graph order (C, A, B2) below so the reported error is
    // deterministic even when several arms fail in the same attempt.
    let (rc, (ra, (b1_ones, rb2))) = pool.join(
        || -> Result<_, BackendError> {
            // NTT phase: h = (a·b - c)/Z (7 transforms, Fig. 3), which the
            // pipeline leaves in `a_evals`.
            let ntt_count =
                quotient_pipeline_in(domain, table, a_evals, b_evals, c_evals, backend)?;
            c_scalars.clear();
            // Exact on the first proof, a no-op once warm.
            c_scalars.reserve(plan.c.len());
            c_scalars.extend_from_slice(priv_z);
            c_scalars.extend_from_slice(&a_evals[..pk.h_query.len()]);
            c_scalars.extend(
                z.iter()
                    .map(|&zi| if zi == one { C::Fr::zero() } else { r * zi }),
            );
            let c_acc = msm_op(backend, OpKind::MsmG1(G1Msm::H), &plan.c, c_scalars, 0, sc)?;
            Ok((c_acc, ntt_count))
        },
        || {
            pool.join(
                || msm_op(backend, OpKind::MsmG1(G1Msm::A), &plan.a, zrs, 2, sa),
                || {
                    pool.join(
                        || {
                            z.iter()
                                .zip(&pk.b_g1_query)
                                .filter(|(&zi, _)| zi == one)
                                .fold(Xyzz::from(pk.beta_g1), |acc, (_, p)| acc.add_affine(p))
                        },
                        || msm_op(backend, OpKind::MsmG2, &plan.b2, zrs, 2, g2),
                    )
                },
            )
        },
    );
    let (c_msm, ntt_count) = rc?;
    let a_msm = ra?;
    let b2_msm = rb2?;

    // A = α + Σ zᵢ·uᵢ(τ) + r·δ  (r·δ rides A's plan)
    let a = a_msm.add_affine(&pk.alpha_g1).to_affine();

    // B = β + Σ zᵢ·vᵢ(τ) + s·δ  (G2; s·δ rides B₂'s plan)
    let b_g2_acc = b2_msm.add_affine(&pk.beta_g2);

    // C = MSM_C + r·(β + Σ_{zᵢ=1} B₁ᵢ) + s·A: a 2-point MSM through the
    // same engine on the C arm's (warm) scratch. Split on the
    // endomorphism, it doubles through half the 255 bits a double-and-add
    // walks. It is not a backend op.
    let config = default_msm_config();
    let blinding = [a, b1_ones.to_affine()];
    let c_acc =
        c_msm.add(&msm_parallel_with_config_in(&blinding, &[s, r], &config, pool, sc).point);

    // Individual affine conversions: a batched normalization would need a
    // temporary vector on the allocation-free path.
    let proof = Proof {
        a,
        b: b_g2_acc.to_affine(),
        c: c_acc.to_affine(),
    };
    let stats = ProverStats {
        g1_msm_sizes: [z.len() as u64, c_scalars.len() as u64],
        g2_msm_size: z.len() as u64,
        ntt_count,
        domain_size: domain.size(),
    };
    Ok((proof, stats))
}

/// One MSM dispatched as a `kind` op: `plan`'s run over `scalars` on the
/// backend's pool, tagged with the plan's algorithm. The op's size counts
/// the witness scalars, not the `blinding` ones trailing them.
fn msm_op<C: Bls12Config, B: ExecBackend<C> + ?Sized, Cu: SwCurve>(
    backend: &B,
    kind: OpKind,
    plan: &MsmPlan<Cu>,
    scalars: &[Cu::Scalar],
    blinding: usize,
    scratch: &mut MsmScratch<Cu>,
) -> Result<Jacobian<Cu>, BackendError> {
    let tag = || plan.algorithm();
    let op = Op {
        kind,
        size: (scalars.len() - blinding) as u64,
        tag: Some(&tag),
    };
    dispatch(backend, &op, || {
        plan.execute_in(scalars, backend.pool(), scratch).point
    })
}

/// Verifies a proof against public inputs:
/// `e(A,B) = e(α,β)·e(Σxᵢ·ICᵢ, γ)·e(C, δ)`.
pub fn verify<C: Bls12Config>(
    vk: &VerifyingKey<C>,
    proof: &Proof<C>,
    public_inputs: &[C::Fr],
) -> bool {
    if public_inputs.len() + 1 != vk.gamma_abc_g1.len() {
        return false;
    }
    // IC = abc₀ + Σ xᵢ·abcᵢ₊₁
    let mut ic = Jacobian::from(vk.gamma_abc_g1[0]);
    for (x, base) in public_inputs.iter().zip(&vk.gamma_abc_g1[1..]) {
        ic = ic.add(&Jacobian::from(*base).mul_scalar(x));
    }
    let ic = ic.to_affine();

    // e(A,B)·e(-IC,γ)·e(-C,δ) must equal e(α,β).
    let combined = multi_pairing::<C>(&[
        (proof.a, proof.b),
        (ic.neg(), vk.gamma_g2),
        (proof.c.neg(), vk.delta_g2),
    ]);
    combined == vk.alpha_beta_gt
}
