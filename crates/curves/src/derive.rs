//! First-principles derivation of curve constants.
//!
//! Rather than transcribing cofactors, twist orders, and subgroup generators
//! from other codebases (where a silent typo would be undetectable), this
//! module *derives* them from the curve's defining data — the BLS parameter
//! `x`, the field moduli, and the curve coefficient — using:
//!
//! * the BLS12 trace of Frobenius `t = x + 1`,
//! * the complex-multiplication identity `4q = t² + 3f²` (CM discriminant
//!   −3) and its base-change `4q² = t₂² + 3(t·f)²`,
//! * the two candidate sextic-twist orders `q² + 1 - (±3f₂ + t₂)/2`,
//!   disambiguated by exponentiating sample points,
//! * cofactor clearing to manufacture subgroup generators,
//! * untwist → Frobenius → twist for G2's endomorphism `ψ`
//!   ([`derive_psi`]), its direction picked by `ψ(G₂) = [x]·G₂`.
//!
//! Every derived value is cross-checked (`#E(Fq) = h₁·r`, `r·G = O`, …) so a
//! wrong constant cannot propagate.

use crate::bls12::{Bls12Config, G2Curve};
use crate::endo::{scalar_from, Action, Endomorphism, Split};
use crate::sw::{Affine, Jacobian, SwCurve};
use crate::tower::Fq2;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkp_bigint::{SInt, UBig};
use zkp_ff::Field;

/// Generic Tonelli–Shanks square root in any finite field of known order.
///
/// `order` is `|F| - 1` (e.g. `q² - 1` for Fq2). Returns `None` for
/// non-residues. Uses a seeded RNG to find a non-residue, so results are
/// deterministic.
pub fn sqrt_in_field<F: Field>(a: &F, order: &UBig) -> Option<F> {
    if a.is_zero() {
        return Some(*a);
    }
    let half = order.shr(1);
    if !a.pow(half.limbs()).is_one() {
        return None; // Euler criterion: non-residue
    }
    // order = 2^s * t with t odd
    let mut s = 0u32;
    let mut t = order.clone();
    while t.is_even() {
        t = t.shr(1);
        s += 1;
    }
    // Find a non-residue deterministically.
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    let z = loop {
        let cand = F::random(&mut rng);
        if !cand.is_zero() && !cand.pow(half.limbs()).is_one() {
            break cand;
        }
    };
    let mut m = s;
    let mut c = z.pow(t.limbs());
    let mut u = a.pow(t.limbs());
    let mut x = a.pow(t.add(&UBig::one()).shr(1).limbs());
    while !u.is_one() {
        // least i with u^(2^i) = 1
        let mut i = 0;
        let mut probe = u;
        while !probe.is_one() {
            probe = probe.square();
            i += 1;
            if i == m {
                return None;
            }
        }
        let mut b = c;
        for _ in 0..(m - i - 1) {
            b = b.square();
        }
        m = i;
        c = b.square();
        u *= c;
        x *= b;
    }
    debug_assert_eq!(x.square(), *a);
    Some(x)
}

/// Finds a deterministic point on `y² = x³ + b` over a field of known order
/// by scanning small `x` values, then clears `cofactor`.
///
/// Returns an affine point of order dividing `order / cofactor`.
///
/// # Panics
///
/// Panics if no point is found within a generous scan budget, or if the
/// cleared point is the identity (cofactor inconsistent with the curve).
pub fn find_subgroup_generator<Cu: SwCurve>(
    field_order_minus_1: &UBig,
    cofactor: &UBig,
) -> Affine<Cu> {
    for c in 1u64..10_000 {
        let x = Cu::Base::from_u64(c);
        let rhs = x.square() * x + Cu::b();
        if let Some(y) = sqrt_in_field(&rhs, field_order_minus_1) {
            let p = Affine::<Cu> {
                x,
                y,
                infinity: false,
            };
            debug_assert!(p.is_on_curve());
            let g = Jacobian::from(p).mul_ubig(cofactor);
            if !g.is_identity() {
                return g.to_affine();
            }
        }
    }
    panic!("no generator found for {} within scan budget", Cu::NAME);
}

/// The numeric group orders of a BLS12 curve and its sextic twist.
#[derive(Debug, Clone)]
pub struct BlsOrders {
    /// `#E(Fq) = q + 1 - t`.
    pub n1: UBig,
    /// G1 cofactor `n1 / r` (equals `(x−1)²/3`).
    pub h1: UBig,
    /// The two candidate sextic-twist orders over Fq2.
    pub twist_candidates: [UBig; 2],
    /// `q² - 1` (unit-group order of Fq2, for square roots).
    pub fq2_units: UBig,
}

/// Computes G1/twist orders for a BLS12 curve with parameter `±x`.
///
/// # Panics
///
/// Panics if the supplied `q`, `r`, `x` are inconsistent with the BLS12
/// family identities — which would mean a transcription error upstream.
pub fn bls_orders(x_abs: u64, x_is_negative: bool, q: &UBig, r: &UBig) -> BlsOrders {
    let x = SInt::new(UBig::from(x_abs), x_is_negative);
    let one = SInt::from_ubig(UBig::one());
    let qs = SInt::from_ubig(q.clone());

    // Trace of Frobenius: t = x + 1.
    let t = x.add(&one);
    // #E(Fq) = q + 1 - t
    let n1 = qs.add(&one).sub(&t).into_ubig();
    let h1 = n1
        .checked_exact_div(r)
        .expect("r must divide #E(Fq) for a BLS curve");
    // Cross-check the closed form h1 = (x - 1)^2 / 3.
    let xm1 = x.sub(&one);
    let h1_closed = xm1
        .mul(&xm1)
        .into_ubig()
        .checked_exact_div(&UBig::from(3u64))
        .expect("(x-1)^2 divisible by 3");
    assert_eq!(h1, h1_closed, "cofactor identities disagree");

    // CM equation: 4q = t² + 3f².
    let four_q = q.shl(2);
    let t_sq = t.mul(&t).into_ubig();
    let f_sq = four_q
        .sub(&t_sq)
        .checked_exact_div(&UBig::from(3u64))
        .expect("4q - t² divisible by 3 (CM discriminant -3)");
    let f = f_sq.isqrt();
    assert_eq!(f.mul(&f), f_sq, "4q - t² = 3f² must be a perfect square");
    let f = SInt::from_ubig(f);

    // Base change to Fq2: t₂ = t² - 2q, f₂ = t·f.
    let two_q = SInt::from_ubig(q.shl(1));
    let t2 = t.mul(&t).sub(&two_q);
    let f2 = t.mul(&f);
    let q2 = SInt::from_ubig(q.mul(q));

    // Sextic twists: n = q² + 1 - (3f₂ + t₂)/2 and q² + 1 - (t₂ - 3f₂)/2.
    let three_f2 = f2.mul(&SInt::from_ubig(UBig::from(3u64)));
    let cand_a = q2
        .add(&one)
        .sub(&three_f2.add(&t2).half_exact())
        .into_ubig();
    let cand_b = q2
        .add(&one)
        .sub(&t2.sub(&three_f2).half_exact())
        .into_ubig();

    let fq2_units = q.mul(q).sub(&UBig::one());
    BlsOrders {
        n1,
        h1,
        twist_candidates: [cand_a, cand_b],
        fq2_units,
    }
}

/// Picks the twist order under which a sample point vanishes, returning
/// `(order, cofactor = order / r)`.
///
/// # Panics
///
/// Panics if neither candidate annihilates the sample (wrong twist
/// coefficient) or if `r` does not divide the selected order.
pub fn select_twist_order<Cu: SwCurve>(orders: &BlsOrders, r: &UBig) -> (UBig, UBig) {
    // A deterministic sample point on the twist.
    let sample: Affine<Cu> = {
        let mut found = None;
        for c in 1u64..10_000 {
            let x = Cu::Base::from_u64(c);
            let rhs = x.square() * x + Cu::b();
            if let Some(y) = sqrt_in_field(&rhs, &orders.fq2_units) {
                found = Some(Affine::<Cu> {
                    x,
                    y,
                    infinity: false,
                });
                break;
            }
        }
        found.expect("twist curve has small-x points")
    };
    let p = Jacobian::from(sample);
    for cand in &orders.twist_candidates {
        if let Some(h2) = cand.checked_exact_div(r) {
            if p.mul_ubig(cand).is_identity() {
                return (cand.clone(), h2);
            }
        }
    }
    panic!(
        "no r-divisible sextic-twist order annihilates a sample point on {} \
         (is the twist direction configured correctly?)",
        Cu::NAME
    );
}

/// Derives a *primitive* cube root of unity in a field of known unit-group
/// order by exponentiating random elements to `(|F| - 1)/3`.
///
/// The result `ω` satisfies `ω³ = 1, ω ≠ 1`; the other primitive root is
/// `ω²`. Which of the two corresponds to a specific endomorphism (e.g. the
/// GLV `φ(x,y) = (β·x, y)` acting as `λ`) must be disambiguated by the
/// caller against that endomorphism's defining equation — see
/// [`crate::endo::derive_glv`].
///
/// # Panics
///
/// Panics if `3` does not divide the unit-group order (no cube roots of
/// unity besides 1 exist in that case).
pub fn find_cube_root_of_unity<F: Field>(units: &UBig) -> F {
    let third = units
        .checked_exact_div(&UBig::from(3u64))
        .expect("unit-group order must be divisible by 3 for cube roots of unity");
    let mut rng = StdRng::seed_from_u64(0xc0b3_0075);
    loop {
        let cand = F::random(&mut rng);
        if cand.is_zero() {
            continue;
        }
        let omega = cand.pow(third.limbs());
        if !omega.is_one() {
            debug_assert!(omega.pow(&[3]).is_one());
            return omega;
        }
    }
}

/// Deterministic search for a quadratic non-residue in an arbitrary field,
/// used when instantiating Tonelli–Shanks in extensions.
pub fn find_nonresidue<F: Field>(order: &UBig) -> F {
    let half = order.shr(1);
    let mut rng = StdRng::seed_from_u64(0xbad_5eed);
    loop {
        let cand = F::random(&mut rng);
        if !cand.is_zero() && !cand.pow(half.limbs()).is_one() {
            return cand;
        }
    }
}

/// Trial check that `n` is the order of the point `p` times some factor:
/// `n·P = O`.
pub fn annihilates<Cu: SwCurve>(p: &Affine<Cu>, n: &UBig) -> bool {
    Jacobian::from(*p).mul_ubig(n).is_identity()
}

/// Derives `ψ`, the untwist–Frobenius–twist endomorphism of a BLS12 G2,
/// and returns it as `σψ` (`σ` the sign of `x`), whose eigenvalue on the
/// r-order subgroup is `|x|` and whose split is the base-`|x|` digits of a
/// scalar (see [`crate::endo`]).
///
/// Untwisting multiplies `x` by `v^{±1}` and `y` by `(v·w)^{±1}` (the sign
/// of the exponent is the twist's direction), the Frobenius of `E(Fq12)`
/// raises both coordinates to the `q`, and twisting back divides again, so
/// `ψ(x, y) = (x̄·v^{±(q−1)}, ȳ·(v·w)^{±(q−1)})` with `x̄` the conjugate in
/// Fq2 — and since `w⁶ = v³ = ξ`, `v^{q−1} = ξ^{(q−1)/3}` and
/// `(v·w)^{q−1} = ξ^{(q−1)/2}`, both in Fq2. Of the two directions, the
/// one with `ψ(G₂) = [x]·G₂` on the generator is kept (`ψ` acts as `q`, and
/// `q ≡ x (mod r)` because `r` divides `#E(Fq) = q − x`). `g2` is passed
/// explicitly for the same reason as in [`crate::endo::derive_glv`].
///
/// # Panics
///
/// Panics if neither direction satisfies `ψ(G₂) = [x]·G₂`, if `|x|` is not
/// a root of `e⁴ − e² + 1` mod `r`, or if `r` needs more than four
/// base-`|x|` digits — each a sign of inconsistent curve parameters.
pub fn derive_psi<C: Bls12Config>(
    q: &UBig,
    r: &UBig,
    g2: &Affine<G2Curve<C>>,
) -> Endomorphism<G2Curve<C>> {
    let q_minus_1 = q.sub(&UBig::one());
    let third = q_minus_1
        .checked_exact_div(&UBig::from(3u64))
        .expect("q ≡ 1 mod 3 on a BLS12 curve");
    let xi = C::fq6_nonresidue();
    let (cx, cy) = (xi.pow(third.limbs()), xi.pow(q_minus_1.shr(1).limbs()));
    let unit = |c: Fq2<C>| c.inverse().expect("ξ is a unit");

    let x_abs_g = Jacobian::from(*g2).mul_limbs(&[C::X]);
    let x_g = if C::X_IS_NEGATIVE {
        x_abs_g.neg()
    } else {
        x_abs_g
    };
    let (cx, cy) = [(cx, cy), (unit(cx), unit(cy))]
        .into_iter()
        .find(|(cx, cy)| {
            let psi_g = Affine::<G2Curve<C>> {
                x: g2.x.conjugate() * *cx,
                y: g2.y.conjugate() * *cy,
                infinity: false,
            };
            Jacobian::from(psi_g) == x_g
        })
        .unwrap_or_else(|| panic!("{}: no twist direction gives ψ(G₂) = [x]·G₂", C::NAME));
    // σψ(x, y) = (x, σ·y) ∘ ψ.
    let cy = if C::X_IS_NEGATIVE { -cy } else { cy };

    let base = UBig::from(C::X);
    let eigenvalue: C::Fr = scalar_from::<G2Curve<C>>(&base);
    let e2 = eigenvalue.square();
    assert!(
        (e2.square() - e2 + C::Fr::one()).is_zero(),
        "{}: |x| is not a root of e⁴ − e² + 1 mod r",
        C::NAME
    );
    // Digits below |x|: as many as it takes for |x|^rows to exceed r.
    let (mut rows, mut span) = (0, UBig::one());
    while span <= *r {
        span = span.mul(&base);
        rows += 1;
    }
    Endomorphism::new(
        "psi",
        eigenvalue,
        64 - (C::X - 1).leading_zeros(),
        rows,
        Action::Frobenius {
            cx,
            cy,
            frobenius: Fq2::conjugate,
        },
        Split::Radix(C::X),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sint_arithmetic() {
        let a = SInt::new(UBig::from(10u64), false);
        let b = SInt::new(UBig::from(25u64), false);
        let d = a.sub(&b); // -15
        assert!(d.neg);
        assert_eq!(d.abs, UBig::from(15u64));
        let s = d.add(&b); // 10
        assert!(!s.neg);
        assert_eq!(s.abs, UBig::from(10u64));
        let m = d.mul(&d); // 225
        assert!(!m.neg);
        assert_eq!(m.abs, UBig::from(225u64));
        let e = SInt::new(UBig::from(30u64), true);
        let h = e.half_exact();
        assert!(h.neg);
        assert_eq!(h.abs, UBig::from(15u64));
    }

    #[test]
    #[should_panic(expected = "odd value")]
    fn half_exact_rejects_odd() {
        let _ = SInt::new(UBig::from(15u64), false).half_exact();
    }

    #[test]
    fn sint_zero_is_positive() {
        let a = SInt::new(UBig::from(5u64), true);
        let z = a.sub(&a);
        assert!(!z.neg);
        assert!(z.abs.is_zero());
    }
}
