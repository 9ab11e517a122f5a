//! Endomorphism properties on G1 (`φ`, 2-way GLV split) and G2 (`ψ`,
//! 4-way split) of both BLS12 curves, over random points of the r-order
//! subgroup: `map(P) = e·P` for the eigenvalue `e`, the split identity
//! `k = Σ kᵢ·eⁱ (mod r)` realized on points, and the subscalar bound.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::{bls12_377, bls12_381, Endomorphism, Jacobian, SwCurve};
use zkp_ff::{Field, GlvScalar, PrimeField};

fn random_scalar<Cu: SwCurve>(seed: u64) -> Cu::Scalar {
    let mut rng = StdRng::seed_from_u64(seed);
    Cu::Scalar::random(&mut rng)
}

fn random_point<Cu: SwCurve>(seed: u64) -> Jacobian<Cu> {
    Jacobian::from(Cu::generator()).mul_scalar(&random_scalar::<Cu>(seed))
}

fn endo<Cu: SwCurve>() -> &'static Endomorphism<Cu> {
    Cu::endomorphism().expect("BLS12 G1 and G2 have an endomorphism")
}

/// `φ`: a non-trivial cube root of unity acting as a map of order 3.
fn check_phi_params<Cu: SwCurve>() {
    let phi = endo::<Cu>();
    assert_eq!((phi.name, phi.rows()), ("glv", 2));
    let lambda = phi.eigenvalue;
    assert!(!lambda.is_one());
    assert!((lambda * lambda * lambda).is_one());
    let g = Cu::generator();
    assert_ne!(phi.map(&g), g);
    assert_eq!(phi.map(&phi.map(&phi.map(&g))), g);
    assert!(phi.sub_bits <= Cu::Scalar::modulus_bits().div_ceil(2) + 1);
}

/// `ψ`: its eigenvalue `|x|` is a root of `e⁴ − e² + 1` (the cyclotomic
/// polynomial `r` is), and so is the map on the generator.
fn check_psi_params<Cu: SwCurve>() {
    let psi = endo::<Cu>();
    assert_eq!((psi.name, psi.rows(), psi.sub_bits), ("psi", 4, 64));
    let e2 = psi.eigenvalue.square();
    assert!((e2.square() - e2 + Cu::Scalar::one()).is_zero());
    let g = Cu::generator();
    let psi2 = psi.map(&psi.map(&g));
    let psi4 = psi.map(&psi.map(&psi2));
    let sum = Jacobian::from(psi4)
        .add(&Jacobian::from(psi2).neg())
        .add_affine(&g);
    assert!(sum.is_identity());
}

macro_rules! endo_tests {
    ($mod_name:ident, $Cu:ty, $params_test:ident, $check:ident) => {
        mod $mod_name {
            use super::*;
            type Cu = $Cu;

            #[test]
            fn $params_test() {
                $check::<Cu>();
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(10))]

                #[test]
                fn endomorphism_is_lambda_mul(s in any::<u64>()) {
                    let endo = endo::<Cu>();
                    let p = random_point::<Cu>(s).to_affine();
                    let mapped = endo.map(&p);
                    prop_assert!(mapped.is_on_curve());
                    prop_assert_eq!(
                        Jacobian::from(mapped),
                        Jacobian::from(p).mul_scalar(&endo.eigenvalue)
                    );
                }

                #[test]
                fn decomposition_recombines_on_points(s in any::<u64>(), t in any::<u64>()) {
                    let endo = endo::<Cu>();
                    let k = random_scalar::<Cu>(s);
                    let p = random_point::<Cu>(t).to_affine();
                    let mut subs = [GlvScalar::default(); 4];
                    let subs = &mut subs[..endo.rows()];
                    endo.split(&k, subs);
                    // k·P = Σ kᵢ·mapⁱ(P), with signs applied to the points.
                    let mut image = p;
                    let mut rhs = Jacobian::identity();
                    for sub in subs.iter() {
                        prop_assert!(sub.bits() <= endo.sub_bits);
                        let m = Jacobian::from(image).mul_limbs(&sub.limbs());
                        rhs = rhs.add(&if sub.neg { m.neg() } else { m });
                        image = endo.map(&image);
                    }
                    prop_assert_eq!(Jacobian::from(p).mul_scalar(&k), rhs);
                }
            }
        }
    };
}

endo_tests!(
    bls381_g1,
    bls12_381::G1,
    params_are_nontrivial_cube_roots,
    check_phi_params
);
endo_tests!(
    bls377_g1,
    bls12_377::G1,
    params_are_nontrivial_cube_roots,
    check_phi_params
);
endo_tests!(
    bls381_g2,
    bls12_381::G2,
    psi_is_a_root_of_the_cyclotomic_polynomial,
    check_psi_params
);
endo_tests!(
    bls377_g2,
    bls12_377::G2,
    psi_is_a_root_of_the_cyclotomic_polynomial,
    check_psi_params
);
