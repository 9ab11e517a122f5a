//! The generic BLS12 pairing engine.
//!
//! Parameterized by a [`Bls12Config`], this module defines the G1 and G2
//! curve markers, lazily derives cofactors/generators/final-exponentiation
//! exponents, and implements the ate pairing. The Miller loop here runs in
//! affine coordinates over Fq12 after untwisting — deliberately the most
//! transparent (and checkable) formulation rather than the fastest; the
//! *performance* of pairing components is not part of the paper's study
//! (Groth16 verification is "constant time, < 1 ms" and out of scope).

use crate::derive::{bls_orders, derive_psi, find_subgroup_generator, select_twist_order};
use crate::endo::{derive_glv, Endomorphism};
use crate::sw::{Affine, Jacobian, SwCurve};
use crate::tower::{Fq12, Fq2, TowerConfig};
use core::fmt;
use core::marker::PhantomData;
use zkp_bigint::UBig;
use zkp_ff::{Field, PrimeField};

/// Static description of a BLS12 curve family member.
pub trait Bls12Config: TowerConfig {
    /// The scalar field of the r-order subgroups.
    type Fr: PrimeField;

    /// Absolute value of the BLS parameter `x`.
    const X: u64;
    /// Sign of the BLS parameter.
    const X_IS_NEGATIVE: bool;
    /// Whether the sextic twist is a D-twist (`y² = x³ + b/ξ`) rather than
    /// an M-twist (`y² = x³ + b·ξ`).
    const TWIST_IS_D: bool;
    /// Curve name, e.g. `"BLS12-381"`.
    const NAME: &'static str;

    /// The G1 coefficient `b`.
    fn g1_b() -> Self::Fq;

    /// Lazily-derived constants (orders, cofactors, generators, exponents).
    fn derived() -> &'static Derived<Self>;
}

/// Constants derived once per curve by [`Derived::compute`].
pub struct Derived<C: Bls12Config> {
    /// `#E(Fq)`.
    pub n1: UBig,
    /// G1 cofactor.
    pub h1: UBig,
    /// Order of the selected sextic twist over Fq2.
    pub n2: UBig,
    /// G2 cofactor.
    pub h2: UBig,
    /// Subgroup order `r`.
    pub r: UBig,
    /// Derived G1 generator.
    pub g1: Affine<G1Curve<C>>,
    /// Derived G2 generator.
    pub g2: Affine<G2Curve<C>>,
    /// `q²`, for the easy part of the final exponentiation.
    pub q_squared: UBig,
    /// `(q⁴ - q² + 1) / r` — the hard part of the final exponentiation.
    pub hard_exponent: UBig,
    /// `q² - 1`, the Fq2 unit-group order.
    pub fq2_units: UBig,
    /// G1's GLV endomorphism `φ(x,y) = (β·x, y)`, eigenvalue `λ = X² - 1`,
    /// derived and cross-checked against `φ(G) = λ·G`; splits 2 ways.
    pub phi: Endomorphism<G1Curve<C>>,
    /// G2's `σψ` (untwist, Frobenius, twist; `σ` the sign of `x`),
    /// eigenvalue `|x|`, picked by `ψ(G₂) = [x]·G₂`; splits 4 ways.
    pub psi: Endomorphism<G2Curve<C>>,
}

impl<C: Bls12Config> Derived<C> {
    /// Computes all derived constants. Intended to be called once from the
    /// config's `OnceLock` initializer.
    ///
    /// # Panics
    ///
    /// Panics if the configured parameters are mutually inconsistent (every
    /// identity is cross-checked).
    pub fn compute() -> Self {
        let q = UBig::from_limbs(&C::Fq::modulus_limbs());
        let r = UBig::from_limbs(&C::Fr::modulus_limbs());
        let orders = bls_orders(C::X, C::X_IS_NEGATIVE, &q, &r);
        let (n2, h2) = select_twist_order::<G2Curve<C>>(&orders, &r);

        let g1 = find_subgroup_generator::<G1Curve<C>>(&q.sub(&UBig::one()), &orders.h1);
        let g2 = find_subgroup_generator::<G2Curve<C>>(&orders.fq2_units, &h2);

        // Subgroup orders check out.
        assert!(
            Jacobian::from(g1).mul_ubig(&r).is_identity(),
            "G1 generator does not have order r"
        );
        assert!(
            Jacobian::from(g2).mul_ubig(&r).is_identity(),
            "G2 generator does not have order r"
        );

        let q2 = q.mul(&q);
        let q4 = q2.mul(&q2);
        let hard = q4
            .sub(&q2)
            .add(&UBig::one())
            .checked_exact_div(&r)
            .expect("r divides q⁴ - q² + 1 (12th cyclotomic polynomial)");

        // Endomorphisms (the generators are passed explicitly: we are
        // *inside* the lazy initializer, so `generator()` would re-enter it).
        let phi = derive_glv::<G1Curve<C>>(C::X, &q.sub(&UBig::one()), &g1);
        let psi = derive_psi::<C>(&q, &r, &g2);

        Derived {
            n1: orders.n1,
            h1: orders.h1,
            n2,
            h2,
            r,
            g1,
            g2,
            q_squared: q2,
            hard_exponent: hard,
            fq2_units: orders.fq2_units,
            phi,
            psi,
        }
    }
}

/// Marker type: the G1 curve (`y² = x³ + b` over Fq) of a BLS12 config.
pub struct G1Curve<C: Bls12Config>(PhantomData<C>);

/// Marker type: the G2 curve (the sextic twist over Fq2) of a BLS12 config.
pub struct G2Curve<C: Bls12Config>(PhantomData<C>);

macro_rules! marker_impls {
    ($ty:ident) => {
        impl<C: Bls12Config> Clone for $ty<C> {
            fn clone(&self) -> Self {
                *self
            }
        }
        impl<C: Bls12Config> Copy for $ty<C> {}
        impl<C: Bls12Config> fmt::Debug for $ty<C> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", <Self as SwCurve>::NAME)
            }
        }
        impl<C: Bls12Config> PartialEq for $ty<C> {
            fn eq(&self, _: &Self) -> bool {
                true
            }
        }
        impl<C: Bls12Config> Eq for $ty<C> {}
        impl<C: Bls12Config> core::hash::Hash for $ty<C> {
            fn hash<H: core::hash::Hasher>(&self, _: &mut H) {}
        }
        impl<C: Bls12Config> Default for $ty<C> {
            fn default() -> Self {
                Self(PhantomData)
            }
        }
    };
}

marker_impls!(G1Curve);
marker_impls!(G2Curve);

impl<C: Bls12Config> SwCurve for G1Curve<C> {
    type Base = C::Fq;
    type Scalar = C::Fr;

    fn b() -> C::Fq {
        C::g1_b()
    }

    fn generator() -> Affine<Self> {
        C::derived().g1
    }

    fn endomorphism() -> Option<&'static Endomorphism<Self>> {
        Some(&C::derived().phi)
    }

    const NAME: &'static str = "G1";
}

impl<C: Bls12Config> SwCurve for G2Curve<C> {
    type Base = Fq2<C>;
    type Scalar = C::Fr;

    fn b() -> Fq2<C> {
        let b = Fq2::from_base(C::g1_b());
        let xi = C::fq6_nonresidue();
        if C::TWIST_IS_D {
            b * xi.inverse().expect("ξ is non-zero")
        } else {
            b * xi
        }
    }

    fn generator() -> Affine<Self> {
        C::derived().g2
    }

    fn endomorphism() -> Option<&'static Endomorphism<Self>> {
        Some(&C::derived().psi)
    }

    const NAME: &'static str = "G2";
}

/// Checks that a G1 point lies in the r-order subgroup.
pub fn g1_in_subgroup<C: Bls12Config>(p: &Affine<G1Curve<C>>) -> bool {
    Jacobian::from(*p).mul_ubig(&C::derived().r).is_identity()
}

/// Checks that a G2 point lies in the r-order subgroup: `ψ(P) = [x]·P`
/// (Scott 2021) — a 64-bit multiplication where `[r]·P = O` is a 255-bit
/// one. The stored map is `σψ`, so the check reads `σψ(P) = [|x|]·P`.
/// `g2_subgroup_props.rs` holds it to the `[r]·P = O` test on subgroup
/// points and on twist points whose cofactor was not cleared.
pub fn g2_in_subgroup<C: Bls12Config>(p: &Affine<G2Curve<C>>) -> bool {
    Jacobian::from(C::derived().psi.map(p)) == Jacobian::from(*p).mul_limbs(&[C::X])
}

/// An untwisted G2 point: affine coordinates in Fq12 on `E: y² = x³ + b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TwistedPoint<C: Bls12Config> {
    x: Fq12<C>,
    y: Fq12<C>,
}

/// Maps a point on the sextic twist `E'(Fq2)` to `E(Fq12)`.
///
/// D-twist (`y² = x³ + b/ξ`): `(x, y) ↦ (x·v, y·v·w)`.
/// M-twist (`y² = x³ + b·ξ`): `(x, y) ↦ (x/v, y/(v·w))`.
fn untwist<C: Bls12Config>(q: &Affine<G2Curve<C>>) -> TwistedPoint<C> {
    let x = Fq12::from_fq2(q.x);
    let y = Fq12::from_fq2(q.y);
    let v = Fq12::<C>::v();
    let w = Fq12::<C>::w();
    if C::TWIST_IS_D {
        TwistedPoint {
            x: x * v,
            y: y * v * w,
        }
    } else {
        let v_inv = v.inverse().expect("v is a unit");
        let vw_inv = (v * w).inverse().expect("vw is a unit");
        TwistedPoint {
            x: x * v_inv,
            y: y * vw_inv,
        }
    }
}

/// The Miller function accumulator: evaluates the line through `t` with
/// slope `lambda` at the G1 point embedded as `(xp, yp)`.
fn line_eval<C: Bls12Config>(
    t: &TwistedPoint<C>,
    lambda: Fq12<C>,
    xp: Fq12<C>,
    yp: Fq12<C>,
) -> Fq12<C> {
    yp - t.y - lambda * (xp - t.x)
}

/// Computes the Miller loop `f_{|x|,Q}(P)` of the ate pairing.
///
/// Returns `Fq12::one()` if either input is the identity (so that the
/// pairing of identities is the unit, as Groth16 verification expects).
pub fn miller_loop<C: Bls12Config>(p: &Affine<G1Curve<C>>, q: &Affine<G2Curve<C>>) -> Fq12<C> {
    if p.is_identity() || q.is_identity() {
        return Fq12::one();
    }
    let xp = Fq12::from_base(p.x);
    let yp = Fq12::from_base(p.y);
    let q12 = untwist(q);

    let mut f = Fq12::<C>::one();
    let mut t = q12;
    let m = C::X;
    let bits = 64 - m.leading_zeros();
    for i in (0..bits - 1).rev() {
        // Doubling step: slope of the tangent at T.
        let xx = t.x.square();
        let num = xx.double() + xx;
        let den = t.y.double();
        let lambda = num * den.inverse().expect("2y != 0 on odd-order points");
        f = f.square() * line_eval(&t, lambda, xp, yp);
        let x3 = lambda.square() - t.x.double();
        let y3 = lambda * (t.x - x3) - t.y;
        t = TwistedPoint { x: x3, y: y3 };

        if (m >> i) & 1 == 1 {
            // Addition step: chord through T and Q.
            let lambda = (q12.y - t.y)
                * (q12.x - t.x)
                    .inverse()
                    .expect("T != ±Q inside the Miller loop");
            f *= line_eval(&t, lambda, xp, yp);
            let x3 = lambda.square() - t.x - q12.x;
            let y3 = lambda * (t.x - x3) - t.y;
            t = TwistedPoint { x: x3, y: y3 };
        }
    }
    if C::X_IS_NEGATIVE {
        // f_{-m} = 1 / f_m (up to final exponentiation: conjugate).
        f = f.conjugate();
    }
    f
}

/// The final exponentiation `f ↦ f^((q¹²-1)/r)`, split into the cheap
/// "easy part" (Frobenius/conjugation based) and the generic hard part.
pub fn final_exponentiation<C: Bls12Config>(f: &Fq12<C>) -> Fq12<C> {
    let d = C::derived();
    // Easy part 1: f^(q⁶ - 1) = conj(f) · f⁻¹.
    let f1 = f.conjugate() * f.inverse().expect("Miller output is a unit");
    // Easy part 2: raise to q² + 1.
    let f2 = f1.pow_ubig(&d.q_squared) * f1;
    // Hard part: raise to (q⁴ - q² + 1)/r.
    f2.pow_ubig(&d.hard_exponent)
}

/// The full ate pairing `e: G1 × G2 → μ_r ⊂ Fq12`.
///
/// # Examples
///
/// ```
/// use zkp_curves::bls12_381::{pairing, Bls12381, G1, G2};
/// use zkp_curves::SwCurve;
/// use zkp_ff::Field;
/// let e = pairing(&G1::generator(), &G2::generator());
/// assert!(!e.is_one());
/// ```
pub fn pairing<C: Bls12Config>(p: &Affine<G1Curve<C>>, q: &Affine<G2Curve<C>>) -> Fq12<C> {
    final_exponentiation(&miller_loop(p, q))
}

/// A G1/G2 point pair, as consumed by [`multi_pairing`].
pub type PairingInput<C> = (Affine<G1Curve<C>>, Affine<G2Curve<C>>);

/// Product of pairings `Π e(pᵢ, qᵢ)` with a single shared final
/// exponentiation — the shape of the Groth16 verification equation.
pub fn multi_pairing<C: Bls12Config>(pairs: &[PairingInput<C>]) -> Fq12<C> {
    let mut f = Fq12::one();
    for (p, q) in pairs {
        f *= miller_loop(p, q);
    }
    final_exponentiation(&f)
}
