//! C against a five-MSM oracle.
//!
//! The prover builds C through one MSM over `l_query ‖ h_query ‖
//! b_g1_query`, with B₁'s scalars `r·zᵢ` except where `zᵢ = 1`: those
//! bases join β in a plain sum. The oracle here is the textbook prover
//! (Groth, eprint 2016/260, §3) written out with separate L, H and B₁ sums
//! by `msm_serial`, `h` from the public witness maps and `quotient_poly`,
//! and `r, s` replayed from the same seeded RNG. On small random R1CS over
//! every witness mix — all binary, all dense, mixed, an all-zero private
//! witness, all ones — and with some B₁ bases at infinity, the proof bytes
//! must be equal at 1, 2 and 8 threads, one-shot and through a session,
//! and every proof must verify.

use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use zkp_backend::{witness_maps_into, CpuBackend};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove_with_backend, setup, verify, Proof, ProverSession, ProvingKey, Qap};
use zkp_msm::msm_serial;
use zkp_ntt::quotient_poly;
use zkp_r1cs::{ConstraintSystem, LinearCombination, Variable};
use zkp_runtime::ThreadPool;

/// How the witness values are drawn.
#[derive(Debug, Clone, Copy)]
enum Mix {
    Binary,
    Dense,
    Mixed,
    ZeroPrivate,
    Ones,
}

const MIXES: [Mix; 5] = [
    Mix::Binary,
    Mix::Dense,
    Mix::Mixed,
    Mix::ZeroPrivate,
    Mix::Ones,
];

fn value(mix: Mix, private: bool, rng: &mut StdRng) -> Fr381 {
    match mix {
        Mix::Binary => Fr381::from_u64(rng.next_u64() & 1),
        Mix::Dense => Fr381::random(rng),
        Mix::Mixed => match rng.next_u64() % 3 {
            0 => Fr381::zero(),
            1 => Fr381::one(),
            _ => Fr381::random(rng),
        },
        Mix::ZeroPrivate if private => Fr381::zero(),
        Mix::ZeroPrivate => Fr381::random(rng),
        Mix::Ones => Fr381::one(),
    }
}

fn coeff(rng: &mut StdRng) -> Fr381 {
    if rng.next_u64() & 1 == 0 {
        Fr381::from_u64(rng.next_u64() % 4)
    } else {
        Fr381::random(rng)
    }
}

/// A random satisfied R1CS: each constraint's A and B combinations are
/// random, and C's takes a constant term that makes the row hold. The last
/// private variable never enters a B combination, so its B₁ base is at
/// infinity; others may miss B too.
fn random_r1cs(seed: u64, mix: Mix) -> ConstraintSystem<Fr381> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cs = ConstraintSystem::new();
    let mut vars = vec![Variable::One];
    for _ in 0..1 + rng.next_u64() % 3 {
        vars.push(cs.alloc_public(value(mix, false, &mut rng)));
    }
    for _ in 0..1 + rng.next_u64() % 8 {
        vars.push(cs.alloc_private(value(mix, true, &mut rng)));
    }
    let in_b: Vec<bool> = (0..vars.len())
        .map(|i| i + 1 < vars.len() && rng.next_u64() % 4 != 0)
        .collect();
    let lc = |rng: &mut StdRng, pick: &dyn Fn(usize) -> bool| {
        let mut lc = LinearCombination::zero();
        for (i, v) in vars.iter().enumerate() {
            if pick(i) && rng.next_u64() & 1 == 0 {
                lc = lc.add_term(*v, coeff(rng));
            }
        }
        lc
    };
    for _ in 0..1 + rng.next_u64() % 12 {
        let a = lc(&mut rng, &|_| true);
        let b = lc(&mut rng, &|i| in_b[i]);
        let c = lc(&mut rng, &|i| i > 0);
        let target = a.evaluate(&cs.assignment) * b.evaluate(&cs.assignment);
        let k = target - c.evaluate(&cs.assignment);
        cs.enforce(a, b, c.add_term(Variable::One, k));
    }
    assert!(cs.is_satisfied());
    cs
}

/// The textbook prover: five separate sums, `r` and `s` drawn first from
/// a generator seeded with `seed`.
fn five_msm_proof(
    pk: &ProvingKey<Bls12381>,
    cs: &ConstraintSystem<Fr381>,
    seed: u64,
) -> Proof<Bls12381> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (r, s) = (Fr381::random(&mut rng), Fr381::random(&mut rng));
    let z = [
        &[Fr381::one()][..],
        &cs.assignment.public,
        &cs.assignment.private,
    ]
    .concat();
    let domain = Qap::for_system(cs).domain;
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    witness_maps_into(cs, domain.size(), &mut a, &mut b, &mut c);
    let (h, _) = quotient_poly(&domain, &a, &b, &c);

    let a = msm_serial(&pk.a_query, &z)
        .add_affine(&pk.alpha_g1)
        .add(&pk.delta_g1.mul_scalar(&r))
        .to_affine();
    let b = msm_serial(&pk.b_g2_query, &z)
        .add_affine(&pk.beta_g2)
        .add(&pk.delta_g2.mul_scalar(&s))
        .to_affine();
    let b1 = msm_serial(&pk.b_g1_query, &z)
        .add_affine(&pk.beta_g1)
        .add(&pk.delta_g1.mul_scalar(&s));
    let c = msm_serial(&pk.l_query, &z[1 + cs.num_public()..])
        .add(&msm_serial(&pk.h_query, &h[..pk.h_query.len()]))
        .add(&a.mul_scalar(&s))
        .add(&b1.mul_scalar(&r))
        .add(&pk.delta_g1.mul_scalar(&(r * s)).neg())
        .to_affine();
    Proof { a, b, c }
}

fn check(seed: u64) {
    for mix in MIXES {
        let cs = random_r1cs(seed, mix);
        let pk = setup::<Bls12381, _>(&cs, &mut StdRng::seed_from_u64(seed ^ 1));
        assert!(
            pk.b_g1_query.iter().any(|p| p.is_identity()),
            "{mix:?}: some B₁ base is at infinity"
        );
        let expected = five_msm_proof(&pk, &cs, seed).to_bytes();
        let one_shot: Vec<_> = [1, 2, 8]
            .map(|threads| {
                let pool = ThreadPool::with_threads(threads);
                let backend = CpuBackend::on(&pool);
                let mut rng = StdRng::seed_from_u64(seed);
                (threads, prove_with_backend(&pk, &cs, &mut rng, &backend).0)
            })
            .into();
        let mut session = ProverSession::new(pk);
        for (threads, proof) in one_shot {
            assert_eq!(proof.to_bytes(), expected, "{mix:?}, {threads} threads");
            let pool = ThreadPool::with_threads(threads);
            let mut rng = StdRng::seed_from_u64(seed);
            let (warm, _) = session.prove_in_on(&cs, &mut rng, &CpuBackend::on(&pool));
            assert_eq!(
                warm.to_bytes(),
                expected,
                "{mix:?}, session, {threads} threads"
            );
        }
        let proof = Proof::from_bytes(&expected).expect("canonical bytes");
        assert!(
            verify(session.vk(), &proof, &cs.assignment.public),
            "{mix:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn c_matches_the_five_msm_prover(seed in any::<u64>()) {
        check(seed);
    }
}
