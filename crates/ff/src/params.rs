//! Derivation of Montgomery parameters and two-adic structure from a modulus.
//!
//! Everything here is computed from the modulus alone (plus a chosen small
//! multiplicative generator), so the field configurations in
//! [`crate::configs`] contain no opaque derived constants. The four numbers
//! every field operation reads — `p`, `-p⁻¹ mod 2⁶⁴`, `R`, `R²` — and the
//! `R³` of inversion are `const fn`s the compiler evaluates into
//! [`FpConfig`](crate::FpConfig)'s associated constants; the two-adic structure, which only set-up code asks for, is
//! derived once at first use into a [`FieldParams`].

use zkp_bigint::arith::portable::sbb;
use zkp_bigint::{UBig, Uint};

/// Parses a modulus and checks what the arithmetic in [`crate::Fp`] relies
/// on for soundness: it is odd (Montgomery reduction), larger than one, and
/// leaves the top bit of its `N` limbs clear, so that sums of two residues and
/// the running total of the "no-carry" CIOS stay below `2p < 2^(64N)`.
///
/// # Panics
///
/// Panics on a violation; evaluated in a `const`, that is a build error.
pub(crate) const fn modulus_from_hex<const N: usize>(hex: &str) -> Uint<N> {
    let p = Uint::<N>::from_hex(hex);
    assert!(
        p.0[0] & 1 == 1 && p.num_bits() > 1,
        "modulus must be odd and greater than one"
    );
    assert!(
        p.num_bits() < Uint::<N>::BITS,
        "modulus must leave a spare bit in its top limb"
    );
    p
}

/// `-p⁻¹ mod 2⁶⁴` from the low limb of an odd `p`, by Newton iteration:
/// `p₀` inverts itself modulo 8, and every step doubles the precision.
pub(crate) const fn mont_inv(p0: u64) -> u64 {
    let mut inv = p0;
    let mut step = 0;
    while step < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        step += 1;
    }
    inv.wrapping_neg()
}

/// `2^k mod p` by `k` modular doublings (shift, subtract `p` if it fits);
/// `R` is `k = 64N` and `R²` is `k = 128N`. Needs the spare bit.
pub(crate) const fn pow2_mod<const N: usize>(p: &Uint<N>, k: u32) -> Uint<N> {
    let mut x = Uint::<N>::ONE.0;
    let mut step = 0;
    while step < k {
        let (twice, _) = Uint(x).shl1();
        let mut reduced = [0u64; N];
        let mut borrow = 0;
        let mut i = 0;
        while i < N {
            (reduced[i], borrow) = sbb(twice.0[i], p.0[i], borrow);
            i += 1;
        }
        x = if borrow == 0 { reduced } else { twice.0 };
        step += 1;
    }
    Uint(x)
}

/// The two-adic structure of a prime field over `N` 64-bit limbs — what
/// roots of unity, Legendre symbols and square roots are computed from.
#[derive(Debug, Clone)]
pub struct FieldParams<const N: usize> {
    /// Largest `s` with `2^s | p - 1`.
    pub two_adicity: u32,
    /// `(p - 1) / 2^s`, the odd part of the group order.
    pub trace: UBig,
    /// A primitive `2^s`-th root of unity, canonical form.
    pub two_adic_root: Uint<N>,
    /// The configured small multiplicative generator (canonical form).
    pub generator: u64,
    /// `(p - 1) / 2`, for Euler-criterion Legendre checks.
    pub half_order: Uint<N>,
    /// A small quadratic non-residue found by search (canonical form).
    pub qnr: u64,
}

impl<const N: usize> FieldParams<N> {
    /// Derives the structure of `F_p*` from a modulus (as checked by
    /// [`FpConfig::MODULUS`](crate::FpConfig::MODULUS)) and a small
    /// multiplicative generator.
    ///
    /// # Panics
    ///
    /// Panics if `generator` is not a generator-like element (it must be a
    /// quadratic non-residue so the derived two-adic root has full order).
    pub fn derive(modulus: &Uint<N>, generator: u64) -> Self {
        let p_big = UBig::from(*modulus);

        // Two-adic structure of p - 1.
        let p_minus_1 = p_big.sub(&UBig::one());
        let mut two_adicity = 0;
        let mut trace = p_minus_1.clone();
        while trace.is_even() {
            trace = trace.shr(1);
            two_adicity += 1;
        }

        // The generator must be a non-residue for g^trace to have order 2^s.
        let half = p_minus_1.shr(1);
        let g = UBig::from(generator);
        assert!(
            g.modpow(&half, &p_big) == p_minus_1,
            "configured generator {generator} is a quadratic residue mod p"
        );
        let two_adic_root_big = g.modpow(&trace, &p_big);

        // Smallest quadratic non-residue, for Tonelli–Shanks restarts.
        let qnr = (2u64..)
            .find(|&c| UBig::from(c).modpow(&half, &p_big) == p_minus_1)
            .expect("every prime field has a small non-residue");

        FieldParams {
            two_adicity,
            trace,
            two_adic_root: two_adic_root_big.to_uint().expect("root < p fits"),
            generator,
            half_order: half.to_uint().expect("(p-1)/2 fits"),
            qnr,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::configs::{Fq377Config, Fq381Config, Fr377Config, Fr381Config};
    use crate::fp::{Fp, FpConfig};
    use std::sync::OnceLock;

    const BLS12_381_R: &str = "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001";

    /// Goldilocks, `2^64 - 2^32 + 1`, in four limbs: a modulus that fills one
    /// limb of its representation and leaves the other three zero.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
    pub(crate) struct Goldilocks4;
    impl FpConfig<4> for Goldilocks4 {
        const MODULUS_HEX: &'static str = "ffffffff00000001";
        const GENERATOR: u64 = 7;
        const NAME: &'static str = "Goldilocks (4 limbs)";
        fn params() -> &'static FieldParams<4> {
            static P: OnceLock<FieldParams<4>> = OnceLock::new();
            P.get_or_init(|| FieldParams::derive(&Self::MODULUS, Self::GENERATOR))
        }
    }

    /// `(inv, R, R²)` the way they were derived before they became `const`s:
    /// a 63-step inverse and two arbitrary-precision divisions.
    pub(crate) fn ubig_montgomery_constants<const N: usize>(
        p: &Uint<N>,
    ) -> (u64, Uint<N>, Uint<N>) {
        let p_big = UBig::from(*p);
        let mut inv = 1u64;
        for _ in 0..63 {
            inv = inv.wrapping_mul(inv).wrapping_mul(p.0[0]);
        }
        let r = UBig::one().shl(64 * N as u32).div_rem(&p_big).1;
        let r2 = r.mul(&r).div_rem(&p_big).1;
        (
            inv.wrapping_neg(),
            r.to_uint().expect("R < p fits"),
            r2.to_uint().expect("R² < p fits"),
        )
    }

    #[test]
    fn const_montgomery_constants_match_the_ubig_derivation() {
        fn check<C: FpConfig<N>, const N: usize>() {
            assert_eq!(UBig::from(C::MODULUS), UBig::from_hex(C::MODULUS_HEX));
            assert_eq!(
                (C::INV, C::R, C::R2),
                ubig_montgomery_constants(&C::MODULUS),
                "{}",
                C::NAME
            );
        }
        check::<Fr381Config, 4>();
        check::<Fq381Config, 6>();
        check::<Fr377Config, 4>();
        check::<Fq377Config, 6>();
        check::<Goldilocks4, 4>();
    }

    #[test]
    fn derives_known_bls12_381_fr_constants() {
        let p: FieldParams<4> = FieldParams::derive(&Fr381Config::MODULUS, 7);
        // INV is the well-known 0xfffffffeffffffff for BLS12-381 Fr.
        assert_eq!(Fr381Config::INV, 0xffff_fffe_ffff_ffff);
        assert_eq!(p.two_adicity, 32);
        assert_eq!(Fr381Config::MODULUS.num_bits(), 255);
        // R = 2^256 mod r (known constant from arkworks/blst).
        assert_eq!(
            Fr381Config::R,
            Uint::from_hex("1824b159acc5056f998c4fefecbc4ff55884b7fa0003480200000001fffffffe")
        );
        // inv * p ≡ -1 mod 2^64
        assert_eq!(
            Fr381Config::INV.wrapping_mul(Fr381Config::MODULUS.0[0]),
            u64::MAX
        );
    }

    #[test]
    fn two_adic_root_has_exact_order() {
        let p: FieldParams<4> = FieldParams::derive(&Uint::from_hex(BLS12_381_R), 7);
        let p_big = UBig::from_hex(BLS12_381_R);
        let root = UBig::from(p.two_adic_root);
        // root^(2^31) = -1, root^(2^32) = 1.
        let half_pow = root.modpow(&UBig::one().shl(31), &p_big);
        assert_eq!(half_pow, p_big.sub(&UBig::one()));
        assert!(root.modpow(&UBig::one().shl(32), &p_big).is_one());
    }

    #[test]
    #[should_panic(expected = "quadratic residue")]
    fn rejects_residue_generator() {
        // 4 = 2² is always a residue.
        let _: FieldParams<4> = FieldParams::derive(&Uint::from_hex(BLS12_381_R), 4);
    }

    #[test]
    #[should_panic(expected = "spare bit")]
    fn rejects_a_modulus_without_a_spare_bit() {
        // At run time a panic; in `FpConfig::MODULUS` the same call is a
        // build error (the `compile_fail` example on `FpConfig`).
        let _ = modulus_from_hex::<1>("ffffffff00000001");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_an_even_modulus() {
        let _ = modulus_from_hex::<1>("fffffffe");
    }

    #[test]
    fn small_prime_smoke() {
        // p = 2^64 - 2^32 + 1 (Goldilocks) in 2 limbs: two-adicity 32.
        let modulus = modulus_from_hex::<2>("ffffffff00000001");
        assert_eq!(modulus.num_bits(), 64);
        assert_eq!(FieldParams::derive(&modulus, 7).two_adicity, 32);
    }

    #[test]
    fn small_prime_field_ops_reduce_and_sample() {
        // Regression: from_u64 must reduce mod p and random must mask the
        // limbs above the modulus width, even for sub-64-bit moduli.
        use crate::traits::Field;

        type G = Fp<Goldilocks4, 4>;
        // u64::MAX = p + (2^32 - 2) -> reduces to 2^32 - 2.
        assert_eq!(G::from_u64(u64::MAX), G::from_u64(0xffff_fffe));
        // Step so rejection sampling terminates even when the first draw
        // lands at or above p.
        let mut rng = rand::rngs::mock::StepRng::new(u64::MAX, 0x9e37_79b9_7f4a_7c15);
        let r = G::random(&mut rng);
        assert_eq!(r * G::one(), r);
    }
}
