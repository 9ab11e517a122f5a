//! The zero-allocation gate for the session hot path.
//!
//! With a counting global allocator installed and a 1-thread pool (every
//! prover task runs inline on the test thread, so the thread-local
//! counter sees all of them), a *warm* `ProverSession::prove_in_on` must
//! perform **zero** heap allocations — every buffer comes from the
//! workspace — while the one-shot `prove_with_backend` allocates per proof.
//! The ≥90% reduction required by the roadmap is therefore checked in its
//! strongest form.

use rand::{rngs::StdRng, SeedableRng};
use zkp_backend::CpuBackend;
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove_with_backend, setup, verify, ProverSession};
use zkp_r1cs::circuits::mimc;
use zkp_runtime::{CountingAlloc, ThreadPool};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_session_prove_allocates_nothing() {
    let cs = mimc(Fr381::from_u64(5), 32);
    let mut rng = StdRng::seed_from_u64(7);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let pool = ThreadPool::with_threads(1);
    let backend = CpuBackend::on(&pool);
    let mut session = ProverSession::new(pk);

    // Baseline: the one-shot prover's allocation count on the same pool.
    let mut rng = StdRng::seed_from_u64(9);
    CountingAlloc::reset();
    let (baseline_proof, _) = prove_with_backend(session.pk(), &cs, &mut rng, &backend);
    let baseline_allocs = CountingAlloc::allocations();
    assert!(
        baseline_allocs >= 10,
        "expected the one-shot prover to allocate per proof, saw {baseline_allocs}"
    );

    // Cold session proof: sizes the workspace (allocations expected).
    let mut rng = StdRng::seed_from_u64(9);
    let (cold_proof, _) = session.prove_in_on(&cs, &mut rng, &backend);
    assert_eq!(
        cold_proof.to_bytes(),
        baseline_proof.to_bytes(),
        "session prover diverged from prove_with_backend"
    );

    // Warm steady state: the hot path must not touch the heap at all.
    for round in 0..3 {
        let mut rng = StdRng::seed_from_u64(9);
        CountingAlloc::reset();
        let (warm_proof, stats) = session.prove_in_on(&cs, &mut rng, &backend);
        let warm_allocs = CountingAlloc::allocations();
        let warm_bytes = CountingAlloc::bytes();
        assert_eq!(
            warm_allocs, 0,
            "warm prove_in round {round} allocated {warm_allocs} times ({warm_bytes} bytes)"
        );
        // Zero trivially satisfies the ≥90%-reduction acceptance bar, but
        // state the roadmap inequality explicitly.
        assert!(warm_allocs * 10 <= baseline_allocs);
        assert_eq!(warm_proof.to_bytes(), baseline_proof.to_bytes());
        assert_eq!(stats.domain_size, 128);
    }
    assert!(verify(session.vk(), &cold_proof, &cs.assignment.public));
    assert!(session.workspace_bytes() > 0);
}
