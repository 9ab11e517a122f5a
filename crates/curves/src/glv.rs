//! The GLV endomorphism for BLS12 G1 and G2 (§IV-D of the paper's MSM
//! study).
//!
//! BLS12 curves have `j`-invariant 0 (`y² = x³ + b`), and so do their
//! sextic twists (`y² = x³ + b·ξ^±1` over Fq2), so the coordinate field's
//! cube roots of unity act on the curve: `φ(x, y) = (β·x, y)` is a group
//! endomorphism whenever `β³ = 1`. (On G2, `β` is one of Fq's two primitive
//! roots embedded in Fq2: `q ≡ 1 mod 3` already puts all three in Fq.) On
//! the r-order subgroup `φ` acts as multiplication by a scalar `λ` with
//! `λ² + λ + 1 ≡ 0 (mod r)` — for the BLS12 family concretely
//! `λ = X² - 1`, since `r = X⁴ - X² + 1` gives `(X²-1)² + (X²-1) + 1 = r`.
//!
//! Combined with the lattice decomposition in [`zkp_ff::glv`], this turns a
//! (point, full-width scalar) pair into two (point, half-width scalar) pairs
//! at the cost of one `FF_mul` per point — halving the number of Pippenger
//! window passes in an MSM.
//!
//! Following the repo's derivation-first convention, nothing here is
//! transcribed: `β` is derived as a cube root of unity in the coordinate
//! field and disambiguated (against `β²`) by checking `φ(G) = λ·G` on the
//! actual generator of *that* group — G1 and G2 share `λ` and the lattice,
//! not necessarily `β` — and every identity is cross-checked at
//! construction.

use crate::derive::find_cube_root_of_unity;
use crate::sw::{Affine, Jacobian, SwCurve};
use zkp_bigint::UBig;
use zkp_ff::glv::{GlvPrecomp, GlvScalar};
use zkp_ff::{Field, PrimeField};

/// Derived GLV parameters for a curve: the endomorphism coefficient, its
/// scalar eigenvalue, and the decomposition lattice data.
#[derive(Debug, Clone)]
pub struct GlvParams<Cu: SwCurve> {
    /// Cube root of unity in the base field; `φ(x, y) = (β·x, y)`.
    pub beta: Cu::Base,
    /// Eigenvalue of `φ` on the r-order subgroup: `φ(P) = λ·P`.
    pub lambda: Cu::Scalar,
    /// `X²` (the squared BLS parameter), defining the lattice basis
    /// `v1 = (X²-1, -1)`, `v2 = (1, X²)`.
    pub x2: UBig,
    /// The subgroup order `r`.
    pub r: UBig,
    /// Upper bound on the bit length of a decomposed subscalar magnitude
    /// (`≤ ⌈bits(r)/2⌉ + 1`).
    pub sub_bits: u32,
    /// Barrett tables for the per-scalar hot path (see
    /// [`zkp_ff::glv::GlvPrecomp`]).
    precomp: GlvPrecomp,
}

impl<Cu: SwCurve> GlvParams<Cu> {
    /// Applies the endomorphism: `φ(x, y) = (β·x, y)`. One `FF_mul`.
    pub fn endomorphism(&self, p: &Affine<Cu>) -> Affine<Cu> {
        Affine {
            x: p.x * self.beta,
            y: p.y,
            infinity: p.infinity,
        }
    }

    /// Decomposes a scalar as `k = k1 + λ·k2 (mod r)` with half-width
    /// signed subscalars (exact Babai rounding via the precomputed
    /// Barrett reciprocal; see [`zkp_ff::glv`]).
    pub fn decompose(&self, k: &Cu::Scalar) -> (GlvScalar, GlvScalar) {
        // Stack buffer on the per-scalar hot path; the Barrett reciprocal
        // only handles ≤4-limb scalar fields anyway.
        if Cu::Scalar::NUM_LIMBS <= 4 {
            let mut limbs = [0u64; 4];
            k.write_uint(&mut limbs);
            self.precomp.decompose(&limbs[..Cu::Scalar::NUM_LIMBS])
        } else {
            self.precomp.decompose(&k.to_uint())
        }
    }
}

/// Derives the GLV parameters for a BLS12 G1 or G2 curve from first
/// principles.
///
/// `x_abs` is the absolute value of the BLS parameter (its sign is
/// irrelevant — only `X²` enters), `base_units` is the coordinate field's
/// unit-group order (`q - 1`, or `q² - 1` on G2), and `g` is the
/// subgroup generator (passed explicitly so this can run *inside* the
/// curve's lazy-derivation initializer without re-entering it).
///
/// # Panics
///
/// Panics if the scalar field is not of the BLS12 form `r = X⁴ - X² + 1`,
/// if `λ` fails `λ² + λ + 1 ≡ 0`, or if neither cube-root candidate for `β`
/// satisfies `φ(G) = λ·G` — any of which would mean inconsistent curve
/// parameters upstream.
pub fn derive_glv<Cu: SwCurve>(x_abs: u64, base_units: &UBig, g: &Affine<Cu>) -> GlvParams<Cu> {
    let x2 = UBig::from(x_abs).mul(&UBig::from(x_abs));
    let r = UBig::from_limbs(&Cu::Scalar::modulus_limbs());
    assert_eq!(
        x2.mul(&x2).sub(&x2).add(&UBig::one()),
        r,
        "{}: scalar field is not the BLS12 cyclotomic form r = X⁴ - X² + 1",
        Cu::NAME
    );

    // λ = X² - 1 < r, so it embeds directly.
    let lambda_big = x2.sub(&UBig::one());
    let mut limbs = lambda_big.limbs().to_vec();
    limbs.resize(Cu::Scalar::NUM_LIMBS, 0);
    let lambda = Cu::Scalar::from_le_limbs(&limbs).expect("λ = X² - 1 < r");
    assert!(
        (lambda * lambda + lambda + Cu::Scalar::one()).is_zero(),
        "λ is not a primitive cube root of unity mod r"
    );

    // β is one of the two primitive cube roots of unity; pick the one
    // whose induced map on the curve is multiplication by λ (the other
    // corresponds to λ² = -λ - 1).
    let omega: Cu::Base = find_cube_root_of_unity(base_units);
    let lambda_g = Jacobian::from(*g).mul_scalar(&lambda);
    let beta = [omega, omega.square()]
        .into_iter()
        .find(|beta| {
            let phi_g = Affine {
                x: g.x * *beta,
                y: g.y,
                infinity: false,
            };
            Jacobian::from(phi_g) == lambda_g
        })
        .unwrap_or_else(|| panic!("{}: neither cube root of unity matches λ·G", Cu::NAME));

    // |k1| ≤ X²/2 and |k2| ≤ (X²+1)/2, so (X²+1)/2 bounds both magnitudes.
    let sub_bits = x2.add(&UBig::one()).shr(1).num_bits();
    assert!(sub_bits <= Cu::Scalar::modulus_bits().div_ceil(2) + 1);

    let precomp = GlvPrecomp::new(&x2, &r);
    GlvParams {
        beta,
        lambda,
        x2,
        r,
        sub_bits,
        precomp,
    }
}
