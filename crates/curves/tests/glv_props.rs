//! GLV endomorphism properties on G1 and G2 of both BLS12 curves, over
//! random points of the r-order subgroup: `φ(P) = λ·P`, the decomposition
//! identity `k = k1 + λ·k2 (mod r)` realized on points, and the half-width
//! subscalar bound.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::{bls12_377, bls12_381, Jacobian, SwCurve};
use zkp_ff::{Field, PrimeField};

fn random_scalar<Cu: SwCurve>(seed: u64) -> Cu::Scalar {
    let mut rng = StdRng::seed_from_u64(seed);
    Cu::Scalar::random(&mut rng)
}

fn random_point<Cu: SwCurve>(seed: u64) -> Jacobian<Cu> {
    Jacobian::from(Cu::generator()).mul_scalar(&random_scalar::<Cu>(seed))
}

macro_rules! glv_tests {
    ($mod_name:ident, $Cu:ty) => {
        mod $mod_name {
            use super::*;
            type Cu = $Cu;

            #[test]
            fn params_are_nontrivial_cube_roots() {
                let glv = Cu::glv().expect("BLS12 G1 and G2 have a GLV endomorphism");
                let beta = glv.beta;
                assert!(!beta.is_one());
                assert!((beta * beta * beta).is_one());
                let lambda = glv.lambda;
                assert!(!lambda.is_one());
                assert!((lambda * lambda * lambda).is_one());
                assert!(glv.sub_bits <= <Cu as SwCurve>::Scalar::modulus_bits().div_ceil(2) + 1);
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(10))]

                #[test]
                fn endomorphism_is_lambda_mul(s in any::<u64>()) {
                    let glv = Cu::glv().expect("glv params");
                    let p = random_point::<Cu>(s).to_affine();
                    let phi_p = glv.endomorphism(&p);
                    prop_assert!(phi_p.is_on_curve());
                    prop_assert_eq!(
                        Jacobian::from(phi_p),
                        Jacobian::from(p).mul_scalar(&glv.lambda)
                    );
                }

                #[test]
                fn decomposition_recombines_on_points(s in any::<u64>(), t in any::<u64>()) {
                    let glv = Cu::glv().expect("glv params");
                    let k = random_scalar::<Cu>(s);
                    let p = random_point::<Cu>(t).to_affine();
                    let (k1, k2) = glv.decompose(&k);
                    // Half-width bound from the issue: ≤ ⌈bits(r)/2⌉ + 1.
                    let half = <Cu as SwCurve>::Scalar::modulus_bits().div_ceil(2) + 1;
                    prop_assert!(k1.bits() <= half.min(glv.sub_bits));
                    prop_assert!(k2.bits() <= half.min(glv.sub_bits));
                    // k·P = k1·P + k2·φ(P), with signs applied to the points.
                    let signed = |sub: zkp_ff::GlvScalar, base: &Jacobian<Cu>| {
                        let m = base.mul_limbs(&sub.limbs());
                        if sub.neg { m.neg() } else { m }
                    };
                    let lhs = Jacobian::from(p).mul_scalar(&k);
                    let rhs = signed(k1, &Jacobian::from(p))
                        .add(&signed(k2, &Jacobian::from(glv.endomorphism(&p))));
                    prop_assert_eq!(lhs, rhs);
                }
            }
        }
    };
}

glv_tests!(bls381_g1, bls12_381::G1);
glv_tests!(bls377_g1, bls12_377::G1);
glv_tests!(bls381_g2, bls12_381::G2);
glv_tests!(bls377_g2, bls12_377::G2);
