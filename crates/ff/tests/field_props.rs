//! Property-based tests of the field axioms and the derived structure,
//! run over all four concrete fields.

use proptest::prelude::*;
use zkp_ff::{batch_inverse, Field, Fq377, Fq381, Fr377, Fr381, PrimeField};

fn arb_field<F: Field>() -> impl Strategy<Value = F> {
    any::<u64>().prop_map(|seed| {
        use rand::{rngs::StdRng, SeedableRng};
        F::random(&mut StdRng::seed_from_u64(seed))
    })
}

macro_rules! field_axioms {
    ($mod_name:ident, $F:ty) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #[test]
                fn add_commutative(a in arb_field::<$F>(), b in arb_field::<$F>()) {
                    prop_assert_eq!(a + b, b + a);
                }

                #[test]
                fn mul_commutative(a in arb_field::<$F>(), b in arb_field::<$F>()) {
                    prop_assert_eq!(a * b, b * a);
                }

                #[test]
                fn add_associative(
                    a in arb_field::<$F>(),
                    b in arb_field::<$F>(),
                    c in arb_field::<$F>()
                ) {
                    prop_assert_eq!((a + b) + c, a + (b + c));
                }

                #[test]
                fn mul_associative(
                    a in arb_field::<$F>(),
                    b in arb_field::<$F>(),
                    c in arb_field::<$F>()
                ) {
                    prop_assert_eq!((a * b) * c, a * (b * c));
                }

                #[test]
                fn distributive(
                    a in arb_field::<$F>(),
                    b in arb_field::<$F>(),
                    c in arb_field::<$F>()
                ) {
                    prop_assert_eq!(a * (b + c), a * b + a * c);
                }

                #[test]
                fn sub_is_add_neg(a in arb_field::<$F>(), b in arb_field::<$F>()) {
                    prop_assert_eq!(a - b, a + (-b));
                    prop_assert!((a - a).is_zero());
                }

                #[test]
                fn double_and_square_consistent(a in arb_field::<$F>()) {
                    prop_assert_eq!(a.double(), a + a);
                    prop_assert_eq!(a.square(), a * a);
                }

                #[test]
                fn inverse_is_inverse(a in arb_field::<$F>()) {
                    prop_assume!(!a.is_zero());
                    let inv = a.inverse().expect("non-zero");
                    prop_assert_eq!(a * inv, <$F>::one());
                    // Cross-check divsteps inversion against Fermat's little theorem.
                    let mut exp = <$F>::modulus_limbs();
                    exp[0] -= 2; // p - 2 (p is odd, limb 0 >= 2 for our fields)
                    prop_assert_eq!(inv, a.pow(&exp));
                }

                #[test]
                fn pow_adds_exponents(a in arb_field::<$F>(), e1 in 0u64..1000, e2 in 0u64..1000) {
                    prop_assert_eq!(a.pow(&[e1]) * a.pow(&[e2]), a.pow(&[e1 + e2]));
                }

                #[test]
                fn canonical_round_trip(a in arb_field::<$F>()) {
                    let limbs = a.to_uint();
                    prop_assert_eq!(<$F>::from_le_limbs(&limbs), Some(a));
                }

                #[test]
                fn sqrt_of_square_squares_back(a in arb_field::<$F>()) {
                    let sq = a.square();
                    prop_assert_eq!(sq.legendre() != -1, true);
                    let root = sq.sqrt().expect("square has a root");
                    prop_assert!(root == a || root == -a);
                }

                #[test]
                fn legendre_is_multiplicative(a in arb_field::<$F>(), b in arb_field::<$F>()) {
                    prop_assert_eq!((a * b).legendre(), a.legendre() * b.legendre());
                }

                #[test]
                fn batch_inverse_matches_single(mut v in prop::collection::vec(arb_field::<$F>(), 1..12)) {
                    let expect: Vec<_> = v
                        .iter()
                        .map(|x| x.inverse().unwrap_or_else(<$F>::zero))
                        .collect();
                    batch_inverse(&mut v);
                    prop_assert_eq!(v, expect);
                }
            }
        }
    };
}

field_axioms!(fr381, Fr381);
field_axioms!(fq381, Fq381);
field_axioms!(fr377, Fr377);
field_axioms!(fq377, Fq377);

#[test]
fn roots_of_unity_multiplicative_structure() {
    fn check<F: PrimeField>() {
        for log_n in [1u32, 4, 10] {
            let n = 1u64 << log_n;
            let w = F::root_of_unity(n).expect("within two-adicity");
            assert!(w.pow(&[n]).is_one(), "{}: w^n != 1", F::NAME);
            assert!(!w.pow(&[n / 2]).is_one(), "{}: w not primitive", F::NAME);
            // The square of the 2n-th root is the n-th root.
            let w2n = F::root_of_unity(2 * n).expect("within two-adicity");
            assert_eq!(w2n.square(), w);
        }
        assert!(F::root_of_unity(3).is_none(), "non-power-of-two rejected");
        assert!(
            F::root_of_unity(1u64 << 63).is_none(),
            "beyond two-adicity rejected"
        );
    }
    check::<Fr381>();
    check::<Fr377>();
}
