//! Batched proof verification.
//!
//! Rollup operators verify many proofs at once (the paper's §I adoption
//! story). The standard batching trick combines the `k` pairing checks
//! `e(Aᵢ,Bᵢ) = e(α,β)·e(ICᵢ,γ)·e(Cᵢ,δ)` with random weights `rᵢ` into one
//! product, so the γ and δ pairings and the final exponentiation are paid
//! once: `k + 2` Miller loops and one final exponentiation instead of `3k`
//! Miller loops and `k` final exponentiations.

use crate::protocol::{Proof, VerifyingKey};
use rand::Rng;
use zkp_bigint::Uint;
use zkp_curves::tower::Fq12;
use zkp_curves::{miller_loop, Affine, Bls12Config, G1Curve, Jacobian};
use zkp_ff::{pow_uint, Field, PrimeField};

/// Verifies `k` (proof, public inputs) pairs with one combined check.
///
/// Uses 126-bit random weights drawn from `rng`; a single invalid proof
/// makes the batch fail except with probability ~2⁻¹²⁶. An empty batch
/// verifies trivially.
pub fn verify_batch<C: Bls12Config, R: Rng + ?Sized>(
    vk: &VerifyingKey<C>,
    batch: &[(Proof<C>, Vec<C::Fr>)],
    rng: &mut R,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    // Random weights r_i (first weight fixed to 1 — standard and safe).
    let weights: Vec<C::Fr> = (0..batch.len())
        .map(|i| {
            if i == 0 {
                C::Fr::one()
            } else {
                let mut limbs = Uint::<4>::ZERO;
                limbs.0[0] = rng.gen();
                limbs.0[1] = rng.gen::<u64>() >> 2; // ~126 bits
                C::Fr::from_le_limbs(limbs.limbs()).unwrap_or_else(C::Fr::one)
            }
        })
        .collect();

    let mut sum_r = C::Fr::zero();
    let mut ic_acc: Jacobian<G1Curve<C>> = Jacobian::identity();
    let mut c_acc: Jacobian<G1Curve<C>> = Jacobian::identity();
    let mut f = Fq12::<C>::one();

    for ((proof, inputs), r) in batch.iter().zip(&weights) {
        if inputs.len() + 1 != vk.gamma_abc_g1.len() {
            return false;
        }
        sum_r += *r;
        // IC_i = abc₀ + Σ xⱼ·abcⱼ₊₁, weighted by r_i.
        let mut ic = Jacobian::from(vk.gamma_abc_g1[0]);
        for (x, base) in inputs.iter().zip(&vk.gamma_abc_g1[1..]) {
            ic = ic.add(&Jacobian::from(*base).mul_scalar(x));
        }
        ic_acc = ic_acc.add(&ic.mul_scalar(r));
        c_acc = c_acc.add(&Jacobian::from(proof.c).mul_scalar(r));
        // One Miller loop per proof: e(r_i·A_i, B_i).
        let a_r = Jacobian::from(proof.a).mul_scalar(r).to_affine();
        f *= miller_loop(&a_r, &proof.b);
    }

    // Two combined Miller loops for the γ and δ terms.
    let ic_affine: Affine<G1Curve<C>> = ic_acc.to_affine();
    let c_affine: Affine<G1Curve<C>> = c_acc.to_affine();
    f *= miller_loop(&ic_affine.neg(), &vk.gamma_g2);
    f *= miller_loop(&c_affine.neg(), &vk.delta_g2);

    // One shared final exponentiation; compare against e(α,β)^Σr.
    let lhs = zkp_curves::final_exponentiation(&f);
    let rhs = pow_uint(
        &vk.alpha_beta_gt,
        &Uint::<4>({
            let limbs = sum_r.to_uint();
            let mut a = [0u64; 4];
            a.copy_from_slice(&limbs[..4]);
            a
        }),
    );
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{prove, setup, verify};
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_curves::bls12_381::Bls12381;
    use zkp_ff::Fr381;
    use zkp_r1cs::circuits::squaring_chain;

    #[allow(clippy::type_complexity)]
    fn make_batch(
        k: usize,
        seed: u64,
    ) -> (
        crate::ProvingKey<Bls12381>,
        Vec<(Proof<Bls12381>, Vec<Fr381>)>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cs = squaring_chain(Fr381::from_u64(3), 6);
        let pk = setup::<Bls12381, _>(&cs, &mut rng);
        let mut batch = Vec::new();
        for i in 0..k {
            let cs_i = squaring_chain(Fr381::from_u64(3 + i as u64), 6);
            let (proof, _) = prove(&pk, &cs_i, &mut rng);
            assert!(verify(&pk.vk, &proof, &cs_i.assignment.public));
            batch.push((proof, cs_i.assignment.public.clone()));
        }
        (pk, batch)
    }

    #[test]
    fn honest_batches_verify() {
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, batch) = make_batch(4, 2);
        assert!(verify_batch(&pk.vk, &batch, &mut rng));
        assert!(verify_batch(&pk.vk, &batch[..1], &mut rng));
        assert!(verify_batch::<Bls12381, _>(&pk.vk, &[], &mut rng));
    }

    #[test]
    fn one_bad_proof_fails_the_batch() {
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, batch) = make_batch(3, 4);
        // Corrupt one proof's C component, at every position.
        for bad in 0..batch.len() {
            let mut batch = batch.clone();
            batch[bad].0.c = Jacobian::from(batch[bad].0.c).double().to_affine();
            assert!(
                !verify_batch(&pk.vk, &batch, &mut rng),
                "bad proof at {bad}"
            );
        }
    }

    #[test]
    fn wrong_inputs_fail_the_batch() {
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, mut batch) = make_batch(2, 6);
        batch[0].1[0] += Fr381::one();
        assert!(!verify_batch(&pk.vk, &batch, &mut rng));
        // Arity mismatch is rejected outright.
        let (pk2, mut batch2) = make_batch(1, 7);
        batch2[0].1.push(Fr381::one());
        assert!(!verify_batch(&pk2.vk, &batch2, &mut rng));
    }
}
