//! The Fq2 → Fq6 → Fq12 extension tower used by BLS12 pairings.
//!
//! The paper's G2 points (the `B` component of a Groth16 proof, computed by
//! the G2 MSM that "is performed in parallel on CPU", §II-A) have
//! coordinates in Fq2; the pairing target group lives in Fq12. The tower is
//!
//! * `Fq2  = Fq[u]  / (u² - β)` — β a quadratic non-residue in Fq,
//! * `Fq6  = Fq2[v] / (v³ - ξ)` — ξ a cubic non-residue in Fq2,
//! * `Fq12 = Fq6[w] / (w² - v)`.
//!
//! All arithmetic is generic over a [`TowerConfig`]; the two instantiations
//! live in [`crate::bls12_381`] and [`crate::bls12_377`].
//!
//! `Fq2` multiplication is Karatsuba over the base field's unreduced
//! products ([`PrimeField::karatsuba_wide`]): the `u⁰` coefficient
//! `a0b0 + β·a1b1` is formed modulo `p·R` by
//! [`TowerConfig::wide_add_mul_by_fq2_nonresidue`] and each coefficient is
//! reduced once. `Fq6` multiplication is Karatsuba over `Fq2` (six products,
//! not nine), and `Fq12` is built on it.

use core::fmt;
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;
use zkp_ff::{Field, PrimeField};

/// Static selection of the tower's base field and non-residues.
pub trait TowerConfig:
    'static + Copy + Clone + fmt::Debug + Send + Sync + Eq + PartialEq + Hash + Default
{
    /// The base prime field Fq.
    type Fq: PrimeField;

    /// β with `u² = β` defining Fq2 (must be a quadratic non-residue).
    fn fq2_nonresidue() -> Self::Fq;

    /// ξ ∈ Fq2 with `v³ = ξ` defining Fq6 (must be a cubic non-residue).
    fn fq6_nonresidue() -> Fq2<Self>;

    /// `β · x`. Every tower operation on reduced values multiplies by β
    /// through this hook, so a curve whose β is a small constant overrides it
    /// with the few additions that is (β = −1 is a negation) instead of
    /// paying a field multiplication.
    #[inline]
    fn mul_by_fq2_nonresidue(x: Self::Fq) -> Self::Fq {
        Self::fq2_nonresidue() * x
    }

    /// `t0 + β·t1` over unreduced products, modulo `p·R` — the `u⁰`
    /// coefficient of an [`Fq2`] product before its one reduction, in
    /// [`PrimeField::wide_add`] / [`PrimeField::wide_sub`] steps (β = −1 is
    /// one `wide_sub`). Required: a full multiplication by β has no wide
    /// form, so there is no default to fall back on.
    fn wide_add_mul_by_fq2_nonresidue(t0: WideFq<Self>, t1: WideFq<Self>) -> WideFq<Self>;

    /// `ξ · x`, the same hook one level up: for ξ = 1 + u or ξ = u it is
    /// additions and one [`Self::mul_by_fq2_nonresidue`], not an Fq2
    /// multiplication.
    #[inline]
    fn mul_by_fq6_nonresidue(x: Fq2<Self>) -> Fq2<Self> {
        Self::fq6_nonresidue() * x
    }
}

/// An unreduced product of two base-field elements of the tower `C`.
pub type WideFq<C> = <<C as TowerConfig>::Fq as PrimeField>::Wide;

macro_rules! forward_field_ops {
    ($ty:ident) => {
        impl<C: TowerConfig> AddAssign for $ty<C> {
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
        impl<C: TowerConfig> SubAssign for $ty<C> {
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }
        impl<C: TowerConfig> MulAssign for $ty<C> {
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }
        impl<C: TowerConfig> Sum for $ty<C> {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::zero(), |a, b| a + b)
            }
        }
        impl<C: TowerConfig> Product for $ty<C> {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::one(), |a, b| a * b)
            }
        }
        impl<C: TowerConfig> Default for $ty<C> {
            fn default() -> Self {
                Self::zero()
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Fq2
// ---------------------------------------------------------------------------

/// An element `c0 + c1·u` of the quadratic extension Fq2.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq2<C: TowerConfig> {
    /// Constant coefficient.
    pub c0: C::Fq,
    /// Coefficient of `u`.
    pub c1: C::Fq,
}

impl<C: TowerConfig> Fq2<C> {
    /// Builds from coefficients.
    pub fn new(c0: C::Fq, c1: C::Fq) -> Self {
        Self { c0, c1 }
    }

    /// Embeds a base-field element.
    pub fn from_base(c0: C::Fq) -> Self {
        Self::new(c0, C::Fq::zero())
    }

    /// The conjugate `c0 - c1·u`, which is also the Frobenius map `x ↦ xᵖ`.
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// Multiplies by a base-field scalar.
    pub fn scale(&self, k: C::Fq) -> Self {
        Self::new(self.c0 * k, self.c1 * k)
    }

    /// The field norm `c0² - β·c1²` (an element of Fq).
    pub fn norm(&self) -> C::Fq {
        self.c0.square() - C::mul_by_fq2_nonresidue(self.c1.square())
    }
}

impl<C: TowerConfig> Field for Fq2<C> {
    fn zero() -> Self {
        Self::new(C::Fq::zero(), C::Fq::zero())
    }
    fn one() -> Self {
        Self::new(C::Fq::one(), C::Fq::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double())
    }
    fn square(&self) -> Self {
        // Complex squaring, two multiplications: with v = c0·c1,
        // c0² + β c1² = (c0 + c1)(c0 + β c1) − v − β v, and the u
        // coefficient is 2v. Both products stay fused: the u coefficient
        // reads v reduced, so a wide form would save no reduction.
        let v = self.c0 * self.c1;
        let c0 = (self.c0 + self.c1) * (self.c0 + C::mul_by_fq2_nonresidue(self.c1))
            - v
            - C::mul_by_fq2_nonresidue(v);
        Self::new(c0, v.double())
    }
    /// `a·b − c·d` as two unreduced Karatsubas subtracted coefficient by
    /// coefficient, then two reductions where two multiplications take four.
    #[inline]
    fn mul_sub_mul(a: Self, b: Self, c: Self, d: Self) -> Self {
        let [ab0, ab1, ab_cross] = C::Fq::karatsuba_wide([a.c0, a.c1], [b.c0, b.c1]);
        let [cd0, cd1, cd_cross] = C::Fq::karatsuba_wide([c.c0, c.c1], [d.c0, d.c1]);
        let c0 =
            C::wide_add_mul_by_fq2_nonresidue(C::Fq::wide_sub(ab0, cd0), C::Fq::wide_sub(ab1, cd1));
        Self::new(
            C::Fq::redc(c0),
            C::Fq::redc(C::Fq::wide_sub(ab_cross, cd_cross)),
        )
    }
    fn inverse(&self) -> Option<Self> {
        // 1/(c0 + c1 u) = (c0 - c1 u) / (c0² - β c1²)
        let n = self.norm();
        n.inverse()
            .map(|ninv| Self::new(self.c0 * ninv, -(self.c1 * ninv)))
    }
    fn from_u64(v: u64) -> Self {
        Self::from_base(C::Fq::from_u64(v))
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(C::Fq::random(rng), C::Fq::random(rng))
    }
}

impl<C: TowerConfig> Add for Fq2<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl<C: TowerConfig> Sub for Fq2<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl<C: TowerConfig> Mul for Fq2<C> {
    type Output = Self;
    /// Karatsuba, `(a0 + a1 u)(b0 + b1 u) = a0b0 + β a1b1 + (a0b1 + a1b0) u`
    /// with the cross term as `(a0 + a1)(b0 + b1) − a0b0 − a1b1`: three
    /// unreduced products and two reductions, 5N² multiply-accumulates
    /// (180 on Fq381) where three fused base-field multiplications are 6N².
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let [a0b0, a1b1, cross] = C::Fq::karatsuba_wide([self.c0, self.c1], [rhs.c0, rhs.c1]);
        Self::new(
            C::Fq::redc(C::wide_add_mul_by_fq2_nonresidue(a0b0, a1b1)),
            C::Fq::redc(cross),
        )
    }
}
impl<C: TowerConfig> Neg for Fq2<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
forward_field_ops!(Fq2);

impl<C: TowerConfig> fmt::Debug for Fq2<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fq2({:?} + {:?}*u)", self.c0, self.c1)
    }
}
impl<C: TowerConfig> fmt::Display for Fq2<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + {}*u)", self.c0, self.c1)
    }
}

// ---------------------------------------------------------------------------
// Fq6
// ---------------------------------------------------------------------------

/// An element `c0 + c1·v + c2·v²` of the cubic extension Fq6 over Fq2.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq6<C: TowerConfig> {
    /// Constant coefficient.
    pub c0: Fq2<C>,
    /// Coefficient of `v`.
    pub c1: Fq2<C>,
    /// Coefficient of `v²`.
    pub c2: Fq2<C>,
}

impl<C: TowerConfig> Fq6<C> {
    /// Builds from coefficients.
    pub fn new(c0: Fq2<C>, c1: Fq2<C>, c2: Fq2<C>) -> Self {
        Self { c0, c1, c2 }
    }

    /// Embeds an Fq2 element.
    pub fn from_fq2(c0: Fq2<C>) -> Self {
        Self::new(c0, Fq2::zero(), Fq2::zero())
    }

    /// Multiplies by `v` (cyclic shift with a ξ twist).
    pub fn mul_by_v(&self) -> Self {
        Self::new(C::mul_by_fq6_nonresidue(self.c2), self.c0, self.c1)
    }
}

impl<C: TowerConfig> Field for Fq6<C> {
    fn zero() -> Self {
        Self::new(Fq2::zero(), Fq2::zero(), Fq2::zero())
    }
    fn one() -> Self {
        Self::new(Fq2::one(), Fq2::zero(), Fq2::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }
    fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double(), self.c2.double())
    }
    fn square(&self) -> Self {
        *self * *self
    }
    fn inverse(&self) -> Option<Self> {
        // Standard cubic-extension inversion.
        let xi = C::mul_by_fq6_nonresidue;
        let t0 = self.c0.square() - xi(self.c1 * self.c2);
        let t1 = xi(self.c2.square()) - self.c0 * self.c1;
        let t2 = self.c1.square() - self.c0 * self.c2;
        let denom = self.c0 * t0 + xi(self.c2 * t1 + self.c1 * t2);
        denom.inverse().map(|d| Self::new(t0 * d, t1 * d, t2 * d))
    }
    fn from_u64(v: u64) -> Self {
        Self::from_fq2(Fq2::from_u64(v))
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fq2::random(rng), Fq2::random(rng), Fq2::random(rng))
    }
}

impl<C: TowerConfig> Add for Fq6<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1, self.c2 + rhs.c2)
    }
}
impl<C: TowerConfig> Sub for Fq6<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1, self.c2 - rhs.c2)
    }
}
impl<C: TowerConfig> Mul for Fq6<C> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba, six Fq2 multiplications: each cross sum
        // a_i b_j + a_j b_i is (a_i + a_j)(b_i + b_j) − a_i b_i − a_j b_j.
        let xi = C::mul_by_fq6_nonresidue;
        let (a, b) = (self, rhs);
        let v0 = a.c0 * b.c0;
        let v1 = a.c1 * b.c1;
        let v2 = a.c2 * b.c2;
        Self::new(
            v0 + xi((a.c1 + a.c2) * (b.c1 + b.c2) - v1 - v2),
            (a.c0 + a.c1) * (b.c0 + b.c1) - v0 - v1 + xi(v2),
            (a.c0 + a.c2) * (b.c0 + b.c2) - v0 - v2 + v1,
        )
    }
}
impl<C: TowerConfig> Neg for Fq6<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1, -self.c2)
    }
}
forward_field_ops!(Fq6);

impl<C: TowerConfig> fmt::Debug for Fq6<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fq6({:?}, {:?}, {:?})", self.c0, self.c1, self.c2)
    }
}
impl<C: TowerConfig> fmt::Display for Fq6<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + {}*v + {}*v^2)", self.c0, self.c1, self.c2)
    }
}

// ---------------------------------------------------------------------------
// Fq12
// ---------------------------------------------------------------------------

/// An element `c0 + c1·w` of the quadratic extension Fq12 over Fq6 — the
/// pairing target group's ambient field.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq12<C: TowerConfig> {
    /// Constant coefficient.
    pub c0: Fq6<C>,
    /// Coefficient of `w`.
    pub c1: Fq6<C>,
}

impl<C: TowerConfig> Fq12<C> {
    /// Builds from coefficients.
    pub fn new(c0: Fq6<C>, c1: Fq6<C>) -> Self {
        Self { c0, c1 }
    }

    /// Embeds an Fq2 element.
    pub fn from_fq2(c: Fq2<C>) -> Self {
        Self::new(Fq6::from_fq2(c), Fq6::zero())
    }

    /// Embeds a base-field element.
    pub fn from_base(c: C::Fq) -> Self {
        Self::from_fq2(Fq2::from_base(c))
    }

    /// The conjugate `c0 - c1·w`, equal to the Frobenius power `x ↦ x^(q⁶)`
    /// (used for the "easy part" of the final exponentiation).
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// The image of `w` itself, i.e. the element `0 + 1·w`.
    pub fn w() -> Self {
        Self::new(Fq6::zero(), Fq6::one())
    }

    /// The image of `v = w²`.
    pub fn v() -> Self {
        Self::new(Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero()), Fq6::zero())
    }

    /// Exponentiation by an arbitrary-precision exponent.
    pub fn pow_ubig(&self, e: &zkp_bigint::UBig) -> Self {
        self.pow(e.limbs())
    }
}

impl<C: TowerConfig> Field for Fq12<C> {
    fn zero() -> Self {
        Self::new(Fq6::zero(), Fq6::zero())
    }
    fn one() -> Self {
        Self::new(Fq6::one(), Fq6::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double())
    }
    fn square(&self) -> Self {
        // (c0 + c1 w)² = c0² + v c1² + 2 c0 c1 w
        let t = self.c0 * self.c1;
        Self::new(self.c0.square() + (self.c1.square()).mul_by_v(), t.double())
    }
    fn inverse(&self) -> Option<Self> {
        // 1/(c0 + c1 w) = (c0 - c1 w) / (c0² - v c1²)
        let n = self.c0.square() - (self.c1.square()).mul_by_v();
        n.inverse()
            .map(|ninv| Self::new(self.c0 * ninv, -(self.c1 * ninv)))
    }
    fn from_u64(v: u64) -> Self {
        Self::from_base(C::Fq::from_u64(v))
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fq6::random(rng), Fq6::random(rng))
    }
}

impl<C: TowerConfig> Add for Fq12<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl<C: TowerConfig> Sub for Fq12<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl<C: TowerConfig> Mul for Fq12<C> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let a0b0 = self.c0 * rhs.c0;
        let a1b1 = self.c1 * rhs.c1;
        let cross = self.c0 * rhs.c1 + self.c1 * rhs.c0;
        Self::new(a0b0 + a1b1.mul_by_v(), cross)
    }
}
impl<C: TowerConfig> Neg for Fq12<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
forward_field_ops!(Fq12);

impl<C: TowerConfig> fmt::Debug for Fq12<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fq12({:?} + ({:?})*w)", self.c0, self.c1)
    }
}
impl<C: TowerConfig> fmt::Display for Fq12<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + ({})*w)", self.c0, self.c1)
    }
}
