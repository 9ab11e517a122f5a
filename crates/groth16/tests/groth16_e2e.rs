//! End-to-end Groth16: setup → prove → verify on both curves, plus
//! soundness spot-checks (tampered proofs and wrong inputs must fail).

use rand::{rngs::StdRng, SeedableRng};
use zkp_backend::CpuBackend;
use zkp_curves::bls12_377::Bls12377;
use zkp_curves::bls12_381::Bls12381;
use zkp_curves::{Bls12Config, Jacobian};
use zkp_ff::{Field, Fr377, Fr381};
use zkp_groth16::{prove, prove_with_backend, setup, verify};
use zkp_r1cs::circuits::{mimc, range_proof, squaring_chain};
use zkp_r1cs::ConstraintSystem;

fn round_trip<C: Bls12Config>(cs: &ConstraintSystem<C::Fr>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pk = setup::<C, _>(cs, &mut rng);
    let (proof, stats) = prove(&pk, cs, &mut rng);
    assert!(
        verify(&pk.vk, &proof, &cs.assignment.public),
        "{}: valid proof rejected",
        C::NAME
    );
    assert_eq!(stats.ntt_count, 7, "Fig. 3 pipeline is 7 transforms");
    assert!(stats.domain_size >= cs.num_constraints() as u64);

    // Wrong public input fails.
    let mut wrong = cs.assignment.public.clone();
    wrong[0] += C::Fr::one();
    assert!(
        !verify(&pk.vk, &proof, &wrong),
        "{}: proof accepted for wrong input",
        C::NAME
    );
}

#[test]
fn squaring_chain_bls12_381() {
    round_trip::<Bls12381>(&squaring_chain(Fr381::from_u64(3), 16), 1);
}

#[test]
fn squaring_chain_bls12_377() {
    round_trip::<Bls12377>(&squaring_chain(Fr377::from_u64(5), 16), 2);
}

#[test]
fn mimc_circuit_bls12_381() {
    round_trip::<Bls12381>(&mimc(Fr381::from_u64(777), 12), 3);
}

#[test]
fn mimc_circuit_bls12_377() {
    round_trip::<Bls12377>(&mimc(Fr377::from_u64(778), 12), 4);
}

#[test]
fn range_proof_circuit() {
    round_trip::<Bls12381>(&range_proof::<Fr381>(54_321, 16), 5);
}

#[test]
fn tampered_proof_components_fail() {
    let mut rng = StdRng::seed_from_u64(6);
    let cs = mimc(Fr381::from_u64(11), 6);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let (proof, _) = prove(&pk, &cs, &mut rng);
    assert!(verify(&pk.vk, &proof, &cs.assignment.public));

    // Nudge A.
    let mut bad = proof.clone();
    bad.a = Jacobian::from(bad.a).double().to_affine();
    assert!(!verify(&pk.vk, &bad, &cs.assignment.public));

    // Nudge C.
    let mut bad = proof.clone();
    bad.c = Jacobian::from(bad.c).double().to_affine();
    assert!(!verify(&pk.vk, &bad, &cs.assignment.public));

    // Swap B for the generator.
    let mut bad = proof.clone();
    bad.b = zkp_curves::SwCurve::generator();
    assert!(!verify(&pk.vk, &bad, &cs.assignment.public));
}

#[test]
fn proof_for_other_witness_still_verifies() {
    // Zero-knowledge sanity: two different witnesses for the same public
    // statement both verify (proof reveals nothing about which).
    let mut rng = StdRng::seed_from_u64(7);
    // x and -x square to the same chain output.
    let x = Fr381::from_u64(9);
    let cs1 = squaring_chain(x, 8);
    let cs2 = squaring_chain(-x, 8);
    assert_eq!(cs1.assignment.public, cs2.assignment.public);
    let pk = setup::<Bls12381, _>(&cs1, &mut rng);
    let (p1, _) = prove(&pk, &cs1, &mut rng);
    let (p2, _) = prove(&pk, &cs2, &mut rng);
    assert!(verify(&pk.vk, &p1, &cs1.assignment.public));
    assert!(verify(&pk.vk, &p2, &cs2.assignment.public));
    assert_ne!(p1, p2, "randomized proofs should differ");
}

#[test]
fn proof_is_randomized() {
    let mut rng = StdRng::seed_from_u64(8);
    let cs = squaring_chain(Fr381::from_u64(2), 4);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let (p1, _) = prove(&pk, &cs, &mut rng);
    let (p2, _) = prove(&pk, &cs, &mut rng);
    assert_ne!(p1, p2);
    assert!(verify(&pk.vk, &p1, &cs.assignment.public));
    assert!(verify(&pk.vk, &p2, &cs.assignment.public));
}

#[test]
fn wrong_arity_inputs_rejected() {
    let mut rng = StdRng::seed_from_u64(9);
    let cs = squaring_chain(Fr381::from_u64(2), 4);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let (proof, _) = prove(&pk, &cs, &mut rng);
    assert!(!verify(&pk.vk, &proof, &[]));
    assert!(!verify(&pk.vk, &proof, &[Fr381::one(), Fr381::one()]));
}

#[test]
fn msm_sizes_scale_with_circuit() {
    let mut rng = StdRng::seed_from_u64(10);
    let cs = mimc(Fr381::from_u64(5), 20); // 40 constraints
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let (_, stats) = prove(&pk, &cs, &mut rng);
    let nvars = cs.num_variables() as u64;
    assert_eq!(stats.g1_msm_sizes[0], nvars);
    assert_eq!(stats.g2_msm_size, nvars);
    // C's one MSM covers the private witness (L), the domain minus one
    // (H) and every variable (B₁).
    let c_size = cs.num_private() as u64 + (stats.domain_size - 1) + nvars;
    assert_eq!(stats.g1_msm_sizes[1], c_size);
}

#[test]
fn proof_is_deterministic_across_thread_counts() {
    // The prover's blinding draws happen before the task graph and every
    // parallel kernel is schedule-invariant, so the same RNG seed must
    // yield the same proof — and the same stats — at any pool width.
    let cs = mimc(Fr381::from_u64(42), 24);
    let mut rng = StdRng::seed_from_u64(11);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let mut reference = None;
    for threads in [1usize, 2, 3, 8] {
        let pool = zkp_runtime::ThreadPool::with_threads(threads);
        let mut prove_rng = StdRng::seed_from_u64(12);
        let (proof, stats) = prove_with_backend(&pk, &cs, &mut prove_rng, &CpuBackend::on(&pool));
        assert!(verify(&pk.vk, &proof, &cs.assignment.public));
        match &reference {
            None => reference = Some((proof, stats)),
            Some((p, s)) => {
                assert_eq!(*p, proof, "proof diverged at {threads} threads");
                assert_eq!(*s, stats, "stats diverged at {threads} threads");
            }
        }
    }
}
