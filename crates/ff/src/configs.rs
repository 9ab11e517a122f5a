//! Concrete field instantiations for the curves studied in the paper.
//!
//! The implementations evaluated by ZKProphet "support BLS12-377 and
//! BLS12-381 elliptic curves and associated finite fields" (§II). Each curve
//! contributes two prime fields:
//!
//! * `Fr` — the scalar field (NTT inputs and MSM scalars live here),
//! * `Fq` — the base field (elliptic-curve point coordinates live here).
//!
//! Only the modulus and a small multiplicative generator are transcribed
//! from the literature. The Montgomery constants are evaluated (and the
//! modulus checked) by the compiler; the two-adic roots and non-residues are
//! computed and sanity-checked at first use.

use crate::fp::{Fp, FpConfig};
use crate::params::FieldParams;
use std::sync::OnceLock;

macro_rules! field_config {
    ($(#[$doc:meta])* $config:ident, $alias:ident, $limbs:literal, $name:literal, $modulus:literal, $generator:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
        pub struct $config;

        impl FpConfig<$limbs> for $config {
            const MODULUS_HEX: &'static str = $modulus;
            const GENERATOR: u64 = $generator;
            const NAME: &'static str = $name;

            fn params() -> &'static FieldParams<$limbs> {
                static PARAMS: OnceLock<FieldParams<$limbs>> = OnceLock::new();
                PARAMS.get_or_init(|| FieldParams::derive(&Self::MODULUS, Self::GENERATOR))
            }
        }

        $(#[$doc])*
        pub type $alias = Fp<$config, $limbs>;
    };
}

field_config!(
    /// The BLS12-381 scalar field (255-bit, two-adicity 32).
    Fr381Config,
    Fr381,
    4,
    "BLS12-381 Fr",
    "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001",
    7
);

field_config!(
    /// The BLS12-381 base field (381-bit). Coordinates of G1 points.
    Fq381Config,
    Fq381,
    6,
    "BLS12-381 Fq",
    "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
    2
);

field_config!(
    /// The BLS12-377 scalar field (253-bit, two-adicity 47).
    Fr377Config,
    Fr377,
    4,
    "BLS12-377 Fr",
    "12ab655e9a2ca55660b44d1e5c37b00159aa76fed00000010a11800000000001",
    22
);

field_config!(
    /// The BLS12-377 base field (377-bit). Coordinates of G1 points.
    Fq377Config,
    Fq377,
    6,
    "BLS12-377 Fq",
    "1ae3a4617c510eac63b05c06ca1493b1a22d9f300f5138f1ef3622fba094800170b5d44300000008508c00000000001",
    15
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Field, PrimeField};

    #[test]
    fn bls12_381_fr_structure() {
        assert_eq!(Fr381::modulus_bits(), 255);
        assert_eq!(Fr381::two_adicity(), 32);
        let root = Fr381::two_adic_root_of_unity();
        // ω^(2^32) = 1 and ω^(2^31) = -1.
        let mut w = root;
        for _ in 0..31 {
            w = w.square();
        }
        assert_eq!(w, -Fr381::one());
        assert!(w.square().is_one());
    }

    #[test]
    fn bls12_377_fr_structure() {
        assert_eq!(Fr377::modulus_bits(), 253);
        // BLS12-377 Fr famously has two-adicity 47 (its domain sizes
        // reach 2^47, far beyond the 2^26 the paper sweeps).
        assert_eq!(Fr377::two_adicity(), 47);
        let mut w = Fr377::two_adic_root_of_unity();
        for _ in 0..46 {
            w = w.square();
        }
        assert_eq!(w, -Fr377::one());
    }

    #[test]
    fn base_field_bits() {
        assert_eq!(Fq381::modulus_bits(), 381);
        assert_eq!(Fq377::modulus_bits(), 377);
        // Fq377 has high two-adicity too (46); Fq381 only 1.
        assert_eq!(Fq381::two_adicity(), 1);
    }

    /// Checks the BLS12 family identities `r = x⁴ - x² + 1` and
    /// `p = (x-1)²·r/3 + x` against the transcribed moduli, so a single
    /// mistyped hex digit in any modulus fails loudly.
    fn check_bls_family(x_abs: &str, x_negative: bool, r_hex: &str, p_hex: &str) {
        use zkp_bigint::UBig;
        let x = UBig::from_hex(x_abs);
        let x2 = x.mul(&x);
        let x4 = x2.mul(&x2);
        let r = x4.sub(&x2).add(&UBig::one());
        assert_eq!(r, UBig::from_hex(r_hex), "r != x^4 - x^2 + 1");
        let x_minus_1_sq = if x_negative {
            let t = x.add(&UBig::one());
            t.mul(&t)
        } else {
            let t = x.sub(&UBig::one());
            t.mul(&t)
        };
        let base = x_minus_1_sq
            .mul(&r)
            .checked_exact_div(&UBig::from(3u64))
            .expect("(x-1)^2 * r divisible by 3");
        let p = if x_negative {
            base.sub(&x)
        } else {
            base.add(&x)
        };
        assert_eq!(p, UBig::from_hex(p_hex), "p != (x-1)^2 r / 3 + x");
    }

    #[test]
    fn bls12_381_family_identities() {
        check_bls_family(
            "d201000000010000",
            true,
            Fr381Config::MODULUS_HEX,
            Fq381Config::MODULUS_HEX,
        );
    }

    #[test]
    fn bls12_377_family_identities() {
        check_bls_family(
            "8508c00000000001",
            false,
            Fr377Config::MODULUS_HEX,
            Fq377Config::MODULUS_HEX,
        );
    }

    #[test]
    fn fq377_matches_known_r_constant() {
        // R = 2^384 mod p for BLS12-377 (cross-checked against arkworks).
        assert_eq!(
            zkp_bigint::UBig::from(Fq377Config::R),
            zkp_bigint::UBig::one()
                .shl(384)
                .div_rem(&zkp_bigint::UBig::from_hex(Fq377Config::MODULUS_HEX))
                .1
        );
    }
}
