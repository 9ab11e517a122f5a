//! The field abstractions shared by every layer of the stack.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;
use zkp_bigint::Uint;

/// An element of a finite field.
///
/// Implemented by the prime fields in this crate ([`Fp`](crate::Fp)) and by
/// the extension towers in `zkp-curves` (Fq2/Fq6/Fq12), as well as by the
/// op-counting instrumentation wrapper [`Counted`](crate::counter::Counted).
///
/// # Examples
///
/// ```
/// use zkp_ff::{Field, Fr381};
/// let a = Fr381::from_u64(5);
/// assert_eq!(a.double(), a + a);
/// assert_eq!(a.square(), a * a);
/// assert_eq!(a * a.inverse().expect("non-zero"), Fr381::one());
/// ```
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + Eq
    + PartialEq
    + Hash
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Whether this element is the additive identity.
    fn is_zero(&self) -> bool;

    /// Whether this element is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// `2 * self` — the paper's `FF_dbl` (§IV-B1), implemented by limb
    /// shifting rather than addition where the representation allows.
    fn double(&self) -> Self;

    /// `self * self` — the paper's `FF_sqr`.
    fn square(&self) -> Self;

    /// The multiplicative inverse, or `None` for zero — the paper's
    /// `FF_inv` (§IV-B3), ~100x slower than `FF_mul`.
    fn inverse(&self) -> Option<Self>;

    /// Embeds a small integer into the field.
    fn from_u64(v: u64) -> Self;

    /// A uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// `a·b − c·d`, the shape of every XYZZ `Y3`. The default is exactly
    /// that expression, so [`Counted`](crate::counter::Counted) tallies it as
    /// 2 `FF_mul` and 1 `FF_sub`; [`Fp`](crate::Fp) and the `zkp-curves`
    /// `Fq2` override it to reduce the difference of the two unreduced
    /// products once instead of each product on its own.
    #[inline]
    fn mul_sub_mul(a: Self, b: Self, c: Self, d: Self) -> Self {
        a * b - c * d
    }

    /// Exponentiation by a little-endian limb-encoded exponent.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut acc = Self::one();
        let mut started = false;
        for i in (0..64 * exp.len()).rev() {
            if started {
                acc = acc.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                acc *= *self;
                started = true;
            }
        }
        acc
    }
}

/// A prime-order field `F_p` with the structure the ZKP kernels rely on:
/// a fixed limb representation and a (large) power-of-two root of unity.
pub trait PrimeField: Field + Ord {
    /// Number of 64-bit limbs in the representation.
    const NUM_LIMBS: usize;

    /// Human-readable field name (e.g. `"BLS12-381 Fr"`).
    const NAME: &'static str;

    /// An unreduced double-width value below `p·R`
    /// ([`Wide`](crate::Wide) for [`Fp`](crate::Fp)): the product of two
    /// Montgomery forms before its reduction, so sums of products can be
    /// formed first and reduced once.
    type Wide: Copy + Debug + Eq;

    /// `self · rhs` as the schoolbook `N²` product of the two Montgomery
    /// forms, not reduced. [`Self::redc`] of it is `self * rhs`.
    fn mul_wide(&self, rhs: &Self) -> Self::Wide;

    /// The Montgomery reduction `wide · R⁻¹ mod p`, as a canonical element.
    fn redc(wide: Self::Wide) -> Self;

    /// `a + b mod p·R`, which is `a + b` once reduced.
    fn wide_add(a: Self::Wide, b: Self::Wide) -> Self::Wide;

    /// `a − b mod p·R`, which is `a − b` once reduced.
    fn wide_sub(a: Self::Wide, b: Self::Wide) -> Self::Wide;

    /// The three products of a Karatsuba multiplication of `a0 + a1·X` by
    /// `b0 + b1·X`, unreduced: `[a0·b0, a1·b1, a0·b1 + a1·b0]`, the last one
    /// as `(a0 + a1)(b0 + b1) − a0·b0 − a1·b1` over sums that are *not*
    /// reduced. Those sums are below `2p`, so their product is below `4p²`,
    /// a [`Self::Wide`] only where `4p < R`; a field with fewer than two
    /// spare bits does not build the call:
    ///
    /// ```
    /// use zkp_ff::{Field, PrimeField, Fq381};
    /// let (a, b) = (Fq381::from_u64(3), Fq381::from_u64(5));
    /// let [t0, t1, cross] = Fq381::karatsuba_wide([a, b], [b, a]);
    /// assert_eq!(Fq381::redc(t0), a * b);
    /// assert_eq!(Fq381::redc(t1), b * a);
    /// assert_eq!(Fq381::redc(cross), a * a + b * b);
    /// ```
    ///
    /// ```compile_fail
    /// use zkp_ff::{Field, PrimeField, Fr381};
    /// // BLS12-381 Fr is 255 bits in four limbs: 4p > R.
    /// let a = Fr381::from_u64(3);
    /// let _ = Fr381::karatsuba_wide([a, a], [a, a]);
    /// ```
    fn karatsuba_wide(a: [Self; 2], b: [Self; 2]) -> [Self::Wide; 3];

    /// The canonical (non-Montgomery) integer representative in `[0, p)`.
    fn to_uint(&self) -> Vec<u64>;

    /// Writes the canonical representative into `out` (little-endian limbs,
    /// zero-padded) without allocating. `out` must hold at least
    /// [`Self::NUM_LIMBS`] limbs; extra limbs are zeroed.
    ///
    /// The default delegates to [`Self::to_uint`]; implementations on the
    /// hot path should override it to stay allocation-free.
    fn write_uint(&self, out: &mut [u64]) {
        let limbs = self.to_uint();
        assert!(out.len() >= limbs.len(), "write_uint: output too short");
        out[..limbs.len()].copy_from_slice(&limbs);
        out[limbs.len()..].fill(0);
    }

    /// Builds an element from a canonical little-endian limb value.
    ///
    /// Returns `None` if the value is not reduced (`>= p`).
    fn from_le_limbs(limbs: &[u64]) -> Option<Self>;

    /// The field modulus `p`, little-endian limbs.
    fn modulus_limbs() -> Vec<u64>;

    /// Number of significant bits of the modulus (e.g. 255 for BLS12-381 Fr).
    fn modulus_bits() -> u32;

    /// Largest `s` such that `2^s` divides `p - 1`.
    fn two_adicity() -> u32;

    /// A primitive `2^two_adicity()`-th root of unity.
    fn two_adic_root_of_unity() -> Self;

    /// A primitive `n`-th root of unity for power-of-two `n`, if `n` divides
    /// `2^two_adicity()`.
    fn root_of_unity(n: u64) -> Option<Self> {
        if !n.is_power_of_two() {
            return None;
        }
        let log_n = n.trailing_zeros();
        if log_n > Self::two_adicity() {
            return None;
        }
        let mut root = Self::two_adic_root_of_unity();
        for _ in log_n..Self::two_adicity() {
            root = root.square();
        }
        Some(root)
    }

    /// A fixed small multiplicative generator used for coset shifts.
    fn multiplicative_generator() -> Self;

    /// Legendre symbol: `1` for quadratic residues, `-1` for non-residues,
    /// `0` for zero.
    fn legendre(&self) -> i8;

    /// A square root of `self`, if one exists (Tonelli–Shanks).
    fn sqrt(&self) -> Option<Self>;
}

/// Convenience: converts a fixed-width [`Uint`] exponent into the slice shape
/// [`Field::pow`] expects.
pub fn pow_uint<F: Field, const N: usize>(base: &F, exp: &Uint<N>) -> F {
    base.pow(exp.limbs())
}
