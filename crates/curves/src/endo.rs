//! The endomorphisms an MSM splits its scalars on (§IV-D of the paper's MSM
//! study): GLV's `φ` on BLS12 G1 and GLS's `ψ` on G2.
//!
//! An endomorphism that acts on the r-order subgroup as multiplication by a
//! scalar `e` (its *eigenvalue*) turns one (point, full-width scalar) pair
//! into `D` (point, short scalar) pairs: write `k = Σ kᵢ·eⁱ (mod r)` with
//! short `kᵢ`, then `k·P = Σ kᵢ·mapⁱ(P)`. The images `mapⁱ(P)` cost a few
//! coordinate-field multiplications each, and the bucket engine runs over
//! `D·n` rows with `1/D` of the windows — the first-order MSM lever of
//! §IV-D and SZKP.
//!
//! * **`φ` on G1, `D = 2`.** BLS12 curves have `j = 0` (`y² = x³ + b`), so a
//!   cube root of unity `β` of the coordinate field acts as
//!   `φ(x, y) = (β·x, y)` with eigenvalue `λ = X² − 1`, a root of
//!   `λ² + λ + 1` (`r = X⁴ − X² + 1` gives `(X²−1)² + (X²−1) + 1 = r`).
//!   `k = k1 + λ·k2` comes from Babai rounding on the GLV lattice
//!   ([`zkp_ff::glv`]), with ~128-bit signed halves.
//! * **`ψ` on G2, `D = 4`.** The untwist–Frobenius–twist map has
//!   eigenvalue `q ≡ x (mod r)` — the BLS parameter itself — and needs no
//!   lattice: `r = x⁴ − x² + 1 < |x|⁴`, so the base-`|x|` digits of a
//!   canonical scalar already are a 4-way split, `k = Σ dᵢ·|x|ⁱ` with every
//!   `dᵢ < |x| < 2⁶⁴`. The map stored here is `σψ` (`σ` the sign of `x`), so
//!   its eigenvalue is `|x|` and every digit is non-negative.
//!
//! Following the repo's derivation-first convention, nothing here is
//! transcribed: `β` ([`derive_glv`]) and `ψ`'s constants
//! ([`derive_psi`](crate::derive::derive_psi)) are derived and picked by
//! checking `map(G) = e·G` on the generator of *that* group, and every
//! identity is cross-checked at construction.

use crate::derive::find_cube_root_of_unity;
use crate::sw::{Affine, Jacobian, SwCurve};
use zkp_bigint::UBig;
use zkp_ff::glv::{GlvPrecomp, GlvScalar};
use zkp_ff::{Field, PrimeField};

/// Most rows per base any endomorphism splits a scalar into (`ψ`'s four).
const MAX_ROWS: usize = 4;

/// Scalar limbs the split reads on the stack: the Barrett tables and the
/// radix division both take at most four (every BLS12 `Fr`).
const SPLIT_LIMBS: usize = 4;

/// A derived endomorphism with its eigenvalue and scalar split.
#[derive(Debug, Clone)]
pub struct Endomorphism<Cu: SwCurve> {
    /// Short name for algorithm tags: `"glv"` (`φ`) or `"psi"` (`ψ`).
    pub name: &'static str,
    /// Eigenvalue on the r-order subgroup: `map(P) = eigenvalue·P`.
    pub eigenvalue: Cu::Scalar,
    /// Upper bound on the bit length of a subscalar magnitude.
    pub sub_bits: u32,
    /// Subscalars per scalar, i.e. table rows per base (`D`).
    rows: usize,
    action: Action<Cu::Base>,
    split: Split,
}

/// How the map acts on affine coordinates.
#[derive(Debug, Clone)]
pub(crate) enum Action<F> {
    /// `φ(x, y) = (β·x, y)`: one coordinate-field multiplication.
    Scale { beta: F },
    /// `(x, y) ↦ (cx·x̄, cy·ȳ)`: the coordinate field's `q`-power
    /// Frobenius, then the twist's constants — two multiplications.
    Frobenius {
        cx: F,
        cy: F,
        frobenius: fn(&F) -> F,
    },
}

/// How a scalar splits into `rows` subscalars.
#[derive(Debug, Clone)]
pub(crate) enum Split {
    /// `k = k1 + λ·k2` by exact Babai rounding (Barrett tables).
    Lattice(GlvPrecomp),
    /// `k = Σ dᵢ·bⁱ`, the base-`b` digits (`b` = the eigenvalue).
    Radix(u64),
}

impl<Cu: SwCurve> Endomorphism<Cu> {
    /// Assembles an endomorphism from derived parts.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_ROWS`] rows or a scalar field wider than
    /// the split reads.
    pub(crate) fn new(
        name: &'static str,
        eigenvalue: Cu::Scalar,
        sub_bits: u32,
        rows: usize,
        action: Action<Cu::Base>,
        split: Split,
    ) -> Self {
        assert!((2..=MAX_ROWS).contains(&rows), "{}: {rows} rows", Cu::NAME);
        assert!(Cu::Scalar::NUM_LIMBS <= SPLIT_LIMBS, "scalar too wide");
        Self {
            name,
            eigenvalue,
            sub_bits,
            rows,
            action,
            split,
        }
    }

    /// Subscalars per scalar, i.e. table rows per base: 2 for `φ`, 4 for
    /// `ψ`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Coordinate-field multiplications per [`map`](Self::map): one under
    /// `φ`, two under `ψ`.
    pub fn map_muls(&self) -> u64 {
        match self.action {
            Action::Scale { .. } => 1,
            Action::Frobenius { .. } => 2,
        }
    }

    /// Applies the map once: `map(P) = eigenvalue·P` on the subgroup.
    pub fn map(&self, p: &Affine<Cu>) -> Affine<Cu> {
        let (x, y) = match &self.action {
            Action::Scale { beta } => (p.x * *beta, p.y),
            Action::Frobenius { cx, cy, frobenius } => {
                (frobenius(&p.x) * *cx, frobenius(&p.y) * *cy)
            }
        };
        Affine {
            x,
            y,
            infinity: p.infinity,
        }
    }

    /// Splits `k` into [`rows`](Self::rows) subscalars with
    /// `k ≡ Σ out[i]·eigenvalueⁱ (mod r)`, each at most
    /// [`sub_bits`](Self::sub_bits) wide. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the row count.
    pub fn split(&self, k: &Cu::Scalar, out: &mut [GlvScalar]) {
        assert_eq!(out.len(), self.rows, "one slot per row");
        let mut limbs = [0u64; SPLIT_LIMBS];
        k.write_uint(&mut limbs);
        match &self.split {
            Split::Lattice(precomp) => {
                let (k1, k2) = precomp.decompose(&limbs);
                out.copy_from_slice(&[k1, k2]);
            }
            Split::Radix(base) => {
                for slot in out.iter_mut() {
                    *slot = GlvScalar {
                        neg: false,
                        mag: u128::from(div_rem_u64(&mut limbs, *base)),
                    };
                }
                // The derivation checked `baseʳᵒʷˢ > r`.
                debug_assert!(limbs.iter().all(|&l| l == 0));
            }
        }
    }
}

/// `limbs /= d` in place; returns the remainder.
fn div_rem_u64(limbs: &mut [u64], d: u64) -> u64 {
    let mut rem = 0u64;
    for limb in limbs.iter_mut().rev() {
        let cur = (u128::from(rem) << 64) | u128::from(*limb);
        let q = cur / u128::from(d);
        *limb = q as u64;
        rem = (cur - q * u128::from(d)) as u64;
    }
    rem
}

/// Derives the GLV endomorphism `φ` of a BLS12 G1 curve from first
/// principles.
///
/// `x_abs` is the absolute value of the BLS parameter (its sign is
/// irrelevant — only `X²` enters), `base_units` is the coordinate field's
/// unit-group order (`q − 1`), and `g` is the subgroup generator (passed
/// explicitly so this can run *inside* the curve's lazy-derivation
/// initializer without re-entering it).
///
/// # Panics
///
/// Panics if the scalar field is not of the BLS12 form `r = X⁴ - X² + 1`,
/// if `λ` fails `λ² + λ + 1 ≡ 0`, or if neither cube-root candidate for `β`
/// satisfies `φ(G) = λ·G` — any of which would mean inconsistent curve
/// parameters upstream.
pub fn derive_glv<Cu: SwCurve>(x_abs: u64, base_units: &UBig, g: &Affine<Cu>) -> Endomorphism<Cu> {
    let x2 = UBig::from(x_abs).mul(&UBig::from(x_abs));
    let r = UBig::from_limbs(&Cu::Scalar::modulus_limbs());
    assert_eq!(
        x2.mul(&x2).sub(&x2).add(&UBig::one()),
        r,
        "{}: scalar field is not the BLS12 cyclotomic form r = X⁴ - X² + 1",
        Cu::NAME
    );

    // λ = X² - 1 < r, so it embeds directly.
    let lambda = scalar_from::<Cu>(&x2.sub(&UBig::one()));
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

    Endomorphism::new(
        "glv",
        lambda,
        sub_bits,
        2,
        Action::Scale { beta },
        Split::Lattice(GlvPrecomp::new(&x2, &r)),
    )
}

/// Embeds an integer below the scalar modulus.
pub(crate) fn scalar_from<Cu: SwCurve>(v: &UBig) -> Cu::Scalar {
    let mut limbs = v.limbs().to_vec();
    limbs.resize(Cu::Scalar::NUM_LIMBS, 0);
    Cu::Scalar::from_le_limbs(&limbs).expect("value below the scalar modulus")
}
