//! The `ψ` subgroup test (`g2_in_subgroup`: `ψ(P) = [x]·P`, Scott 2021)
//! held to the order test it replaced, `[r]·P = O`, on both curves: random
//! subgroup points pass both, and random twist points whose cofactor was
//! never cleared get the same verdict from both.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::derive::sqrt_in_field;
use zkp_curves::{g2_in_subgroup, Affine, Bls12Config, G2Curve, Jacobian, SwCurve};
use zkp_ff::Field;

fn order_test<C: Bls12Config>(p: &Affine<G2Curve<C>>) -> bool {
    Jacobian::from(*p).mul_ubig(&C::derived().r).is_identity()
}

/// A point on the twist at a random `x`, cofactor not cleared.
fn raw_twist_point<C: Bls12Config>(seed: u64) -> Affine<G2Curve<C>> {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let x = <G2Curve<C> as SwCurve>::Base::random(&mut rng);
        let rhs = x.square() * x + G2Curve::<C>::b();
        if let Some(y) = sqrt_in_field(&rhs, &C::derived().fq2_units) {
            return Affine::new(x, y).expect("y² = x³ + b by construction");
        }
    }
}

fn check<C: Bls12Config>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = C::Fr::random(&mut rng);
    let member = Jacobian::from(G2Curve::<C>::generator())
        .mul_scalar(&k)
        .to_affine();
    prop_assert!(order_test::<C>(&member));
    prop_assert!(g2_in_subgroup::<C>(&member));

    let raw = raw_twist_point::<C>(seed);
    prop_assert_eq!(g2_in_subgroup::<C>(&raw), order_test::<C>(&raw));
    // The cofactor is huge, so an uncleared point is essentially never in
    // the subgroup; its negation and the identity agree too.
    prop_assert!(!g2_in_subgroup::<C>(&raw));
    prop_assert_eq!(g2_in_subgroup::<C>(&raw.neg()), order_test::<C>(&raw.neg()));
    prop_assert!(g2_in_subgroup::<C>(&Affine::identity()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn psi_test_matches_the_order_test_bls12_381(seed in any::<u64>()) {
        check::<zkp_curves::bls12_381::Bls12381>(seed);
    }

    #[test]
    fn psi_test_matches_the_order_test_bls12_377(seed in any::<u64>()) {
        check::<zkp_curves::bls12_377::Bls12377>(seed);
    }
}
