//! Cross-backend equivalence and the pre-refactor regression digest.
//!
//! The prover is required to be *bit-identical* across execution backends
//! and thread counts: the CPU backend must reproduce the pre-backend
//! prover exactly (pinned below as a committed proof digest), and the
//! tracing backend — which runs the same kernels and only observes — must
//! match it byte for byte. A simulated GPU is a traced run priced
//! afterwards, so it proves nothing of its own.

use gpu_kernels::LibraryId;
use rand::{rngs::StdRng, SeedableRng};
use zkp_backend::cpu::default_msm_config;
use zkp_backend::{CpuBackend, DeadlineBackend, ExecBackend, OpKind, TracingBackend};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{
    prove_with_backend, setup, verify, ProverPlan, ProverSession, ProverStats, ProvingKey,
};
use zkp_msm::msm_with_config;
use zkp_r1cs::circuits::mimc;
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;
use zkprophet::{price, GpuCostModel};

/// Hex of `Proof::to_bytes()` for the fixture below, captured from the
/// prover *before* the backend refactor (same circuit, same seeds). The
/// CPU backend must keep reproducing it forever.
const REFERENCE_PROOF_HEX: &str = "17e391075ff338b69c009356a120f05578dd156190059e4bca10f4a35840c2\
     ed3e519d737a546b3ef0398ed6c57508f24b84c094caa8d2b5263d762039329e5c831d18096669ce9a68e752697b\
     f5c92d02d3268d0be40bb064fb9f56efbabd4b124e0178f0092c58ac5f6686a35cf49ac87fdecf44c7728401e3b7\
     714c212119f7df7822added96815473bc7a30710934464db3cf0a91b7f5231830379f066a29214cac2a2e485c0e0\
     d1b1231988e1b0d07234c9ac0e9d4f161349341214dfe5";

fn reference_proof_hex() -> String {
    REFERENCE_PROOF_HEX
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect()
}

fn digest_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixture: mimc(5, 32 rounds), setup seed 7, prover seed 9.
fn fixture() -> (ConstraintSystem<Fr381>, ProvingKey<Bls12381>) {
    let cs = mimc(Fr381::from_u64(5), 32);
    let mut rng = StdRng::seed_from_u64(7);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    (cs, pk)
}

fn prove_with<B: ExecBackend<Bls12381> + ?Sized>(
    pk: &ProvingKey<Bls12381>,
    cs: &ConstraintSystem<Fr381>,
    backend: &B,
) -> (String, ProverStats) {
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, stats) = prove_with_backend(pk, cs, &mut rng, backend);
    (digest_hex(&proof.to_bytes()), stats)
}

#[test]
fn cpu_backend_reproduces_the_committed_digest() {
    let (cs, pk) = fixture();
    let (digest, stats) = prove_with(&pk, &cs, &CpuBackend::global());
    assert_eq!(digest, reference_proof_hex());
    assert_eq!(
        stats,
        ProverStats {
            g1_msm_sizes: [66, 66, 64, 127],
            g2_msm_size: 66,
            ntt_count: 7,
            domain_size: 128,
        }
    );
}

/// The service proves every job through a `DeadlineBackend`; without a
/// deadline it must be a pass-through: same bytes, same stats.
#[test]
fn deadline_backend_without_a_deadline_reproduces_the_committed_digest() {
    let (cs, pk) = fixture();
    let (digest, stats) = prove_with(&pk, &cs, &DeadlineBackend::new(CpuBackend::global(), None));
    assert_eq!(digest, reference_proof_hex());
    assert_eq!(stats, prove_with(&pk, &cs, &CpuBackend::global()).1);
}

#[test]
fn all_backends_agree_at_every_thread_count() {
    let (cs, pk) = fixture();
    let reference = reference_proof_hex();
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::with_threads(threads);
        let cpu = CpuBackend::on(&pool);
        let traced = TracingBackend::new(CpuBackend::on(&pool));
        let (d_cpu, s_cpu) = prove_with(&pk, &cs, &cpu);
        let (d_traced, s_traced) = prove_with(&pk, &cs, &traced);
        assert_eq!(d_cpu, reference, "cpu diverged at {threads} threads");
        assert_eq!(d_traced, reference, "tracing diverged at {threads} threads");
        assert_eq!(s_cpu, s_traced);
    }
}

#[test]
fn glv_and_planned_provers_reproduce_the_digest_at_every_thread_count() {
    // The one-shot prover's zero-budget GLV plans and the session's
    // precompute plans change the *schedule*, never the group elements —
    // the proof bytes must match the pre-refactor digest at every thread
    // count. (Plain-vs-GLV equality is pinned in zkp-msm's suites.)
    let (cs, pk) = fixture();
    let reference = reference_proof_hex();
    let mut planned = ProverSession::new(pk);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::with_threads(threads);
        let glv = CpuBackend::on(&pool);
        let (d_glv, s_glv) = prove_with(planned.pk(), &cs, &glv);
        assert_eq!(d_glv, reference, "glv diverged at {threads} threads");

        let mut rng = StdRng::seed_from_u64(9);
        let (proof, s_planned) = planned.prove_in_on(&cs, &mut rng, &glv);
        assert_eq!(
            digest_hex(&proof.to_bytes()),
            reference,
            "planned prover diverged at {threads} threads"
        );
        assert_eq!(s_planned, s_glv);
    }
}

#[test]
fn session_prover_reproduces_the_digest_cold_and_warm() {
    // The workspace-borrowing session path must keep producing the
    // committed pre-refactor bytes — cold (first call sizes the
    // buffers), warm (buffers reused), at every thread count, and under
    // the tracing decorator.
    let (cs, pk) = fixture();
    let reference = reference_proof_hex();
    let mut session = ProverSession::new(pk);
    assert_eq!(session.domain_size(), 128);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::with_threads(threads);
        let cpu = CpuBackend::on(&pool);
        for round in 0..2 {
            let mut rng = StdRng::seed_from_u64(9);
            let (proof, stats) = session.prove_in_on(&cs, &mut rng, &cpu);
            assert_eq!(
                digest_hex(&proof.to_bytes()),
                reference,
                "session diverged at {threads} threads, round {round}"
            );
            assert_eq!(
                stats,
                ProverStats {
                    g1_msm_sizes: [66, 66, 64, 127],
                    g2_msm_size: 66,
                    ntt_count: 7,
                    domain_size: 128,
                }
            );
        }
    }
    // A fork shares the key and plans but proves independently.
    let mut fork = session.fork();
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, _) = fork.prove_in(&cs, &mut rng);
    assert_eq!(digest_hex(&proof.to_bytes()), reference);
    // Traced session runs record the planned stage graph.
    let traced = TracingBackend::new(CpuBackend::global());
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, _) = session.prove_in_on(&cs, &mut rng, &traced);
    assert_eq!(digest_hex(&proof.to_bytes()), reference);
    let trace = ExecBackend::<Bls12381>::take_trace(&traced);
    assert_eq!(trace.records.len(), 1 + 7 + 4 + 4 + 1);
}

#[test]
fn traced_planned_run_labels_msms_with_the_plan_algorithm() {
    let (cs, pk) = fixture();
    let mut session = ProverSession::new(pk);
    assert!(session.plan().algorithm().contains("precomp"));
    assert!(session.plan().storage_bytes() > 0);
    let backend = TracingBackend::new(CpuBackend::global());
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, _) = session.prove_in_on(&cs, &mut rng, &backend);
    assert_eq!(digest_hex(&proof.to_bytes()), reference_proof_hex());
    let trace = ExecBackend::<Bls12381>::take_trace(&backend);
    let g1_algos: Vec<_> = trace
        .records
        .iter()
        .filter(|r| matches!(r.kind, OpKind::MsmG1(_)))
        .map(|r| r.algo.clone())
        .collect();
    assert_eq!(g1_algos.len(), 4);
    assert!(
        g1_algos.iter().all(|a| a
            .as_deref()
            .is_some_and(|s| s.starts_with("glv+") && s.contains("precomp"))),
        "planned MSMs must carry the plan's algorithm tag: {g1_algos:?}"
    );

    // The G2 MSM runs the session's B2 plan — folded like the G1 plans,
    // onto nine ψ copies at this size — and its tag is true: the plan
    // really splits 4 ways, over the finite bases, in every copy.
    let g2 = trace.records.iter().find(|r| r.kind == OpKind::MsmG2);
    let g2_algo = g2.and_then(|r| r.algo.as_deref()).expect("tagged G2 MSM");
    let b2 = &session.plan().b2;
    assert_eq!(g2_algo, b2.algorithm());
    assert!(
        g2_algo.starts_with("psi+") && g2_algo.ends_with("copies=9)"),
        "{g2_algo}"
    );
    assert!(session.plan().algorithm().contains(g2_algo));
    let query = &session.pk().b_g2_query;
    let finite = query.iter().filter(|p| !p.is_identity()).count();
    assert!(finite < query.len(), "MiMC leaves some B bases at infinity");
    assert_eq!(b2.stored_points(), 9 * 4 * finite);
    let scalars: Vec<Fr381> = (1..=query.len() as u64).map(Fr381::from_u64).collect();
    let stats = b2.execute(&scalars, &ThreadPool::with_threads(1)).stats;
    assert_eq!(stats.glv_decompositions, finite as u64);
    assert_eq!(stats.endomorphism_muls, 0, "the plan holds the ψ images");
    let one_shot = msm_with_config(query, &scalars, &default_msm_config()).stats;
    assert_eq!(one_shot.glv_decompositions, finite as u64);
    assert_eq!(one_shot.endomorphism_muls, 3 * 2 * finite as u64);
}

#[test]
fn unbounded_budget_share_does_not_overflow() {
    // Each query's share of a key-wide budget is `b · n / total`: at
    // `u64::MAX` the product needs 128 bits, and every plan — B2 included —
    // must fold as deep as under `None`.
    let (_, pk) = fixture();
    let pool = ThreadPool::with_threads(1);
    let max = ProverPlan::build_with(&pk, Some(u64::MAX), &pool);
    let unbounded = ProverPlan::build_with(&pk, None, &pool);
    assert_eq!(max.storage_bytes(), unbounded.storage_bytes());
    assert_eq!(max.algorithm(), unbounded.algorithm());
    assert!(max.b2.algorithm().ends_with("copies=9)"));
}

#[test]
fn traced_run_records_the_whole_stage_graph() {
    let (cs, pk) = fixture();
    let backend = TracingBackend::new(CpuBackend::global());
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, stats) = prove_with_backend(&pk, &cs, &mut rng, &backend);
    let trace = ExecBackend::<Bls12381>::take_trace(&backend);
    assert!(verify(&pk.vk, &proof, &cs.assignment.public));

    assert_eq!(trace.records.len(), 1 + 7 + 4 + 4 + 1); // witness, NTTs, cosets, G1 MSMs, G2
    let summary = trace.summarize(|r| r.wall_s);
    let count = |stage: &str| {
        summary
            .rows
            .iter()
            .find(|r| r.stage == stage)
            .map_or(0, |r| r.calls)
    };
    assert_eq!(count("witness/QAP eval"), 1);
    assert_eq!(count("NTT inverse") + count("NTT forward"), 7);
    assert_eq!(count("coset scaling"), 4);
    assert_eq!(count("G2 MSM (B2)"), 1);
    for msm in ["G1 MSM (A)", "G1 MSM (B1)", "G1 MSM (L)", "G1 MSM (H)"] {
        assert_eq!(count(msm), 1, "{msm}");
    }
    // Recorded MSM sizes match the work counters.
    let size_of = |stage: &str| {
        trace
            .records
            .iter()
            .find(|r| r.kind.stage() == stage)
            .expect("stage recorded")
            .size
    };
    assert_eq!(size_of("G1 MSM (A)"), stats.g1_msm_sizes[0]);
    assert_eq!(size_of("G1 MSM (H)"), stats.g1_msm_sizes[3]);
    assert_eq!(size_of("NTT inverse"), stats.domain_size);

    // The one-shot prover runs the key's zero-budget plans, and every MSM
    // record names the single-copy plan that ran: φ-split on G1, ψ on G2.
    let msms: Vec<_> = trace
        .records
        .iter()
        .filter(|r| matches!(r.kind, OpKind::MsmG1(_) | OpKind::MsmG2))
        .collect();
    assert_eq!(msms.len(), 5);
    for r in msms {
        let algo = r.algo.as_deref().expect("tagged MSM");
        let split = match r.kind {
            OpKind::MsmG2 => "psi+",
            _ => "glv+",
        };
        assert!(
            algo.starts_with(split) && algo.ends_with("copies=1)"),
            "{}: {algo}",
            r.kind.stage()
        );
    }

    // The trace drained; a second take is empty.
    assert!(ExecBackend::<Bls12381>::take_trace(&backend)
        .records
        .is_empty());
}

#[test]
fn sim_backend_charges_every_op_and_verifies() {
    // A simulated-GPU run is a one-shot traced proof priced afterwards.
    let (cs, pk) = fixture();
    let device = gpu_sim::device::by_name("a40").expect("a40 in catalog");
    let model = GpuCostModel::for_library(device, LibraryId::Sppark);
    let charge = |kind, size| model.charge(kind, size);
    let backend = TracingBackend::new(CpuBackend::global());
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, _) = prove_with_backend(&pk, &cs, &mut rng, &backend);
    let trace = ExecBackend::<Bls12381>::take_trace(&backend);
    assert!(verify(&pk.vk, &proof, &cs.assignment.public));
    assert!(!trace.records.is_empty());
    assert!(trace.records.iter().all(|r| charge(r.kind, r.size) > 0.0));
    let summary = trace.summarize(|r| charge(r.kind, r.size));
    assert!(summary.rows.iter().all(|r| r.seconds > 0.0));
    let hidden: Vec<_> = trace
        .records
        .iter()
        .filter(|r| price([(r.kind, r.size)], charge).g2_hidden_s > 0.0)
        .map(|r| r.kind.stage())
        .collect();
    assert_eq!(hidden, ["G2 MSM (B2)"]);
    let records = trace.records.iter().map(|r| (r.kind, r.size));
    assert!(price(records, charge).critical_path_s() > 0.0);
    assert!(trace.summarize(|r| r.wall_s).total_s() > 0.0);
}
