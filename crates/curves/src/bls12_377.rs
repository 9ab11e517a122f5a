//! The BLS12-377 instantiation — the curve of the ZPrize MSM competition
//! the paper's `yrrid`/`ymc` libraries target (§III-A).
//!
//! Parameters: `x = 0x8508c00000000001` (positive), `b = 1`, tower
//! non-residues β = −5 (`u² = −5`) and ξ = `u`, D-type sextic twist
//! (`y² = x³ + 1/u`). Cofactors and generators are derived at first use.

use crate::bls12::{Bls12Config, Derived, G1Curve, G2Curve};
use crate::sw::Affine;
use crate::tower::TowerConfig;
use std::sync::OnceLock;
use zkp_ff::{Field, Fq377, Fr377, PrimeField, Wide};

/// Marker type selecting the BLS12-377 curve family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Bls12377;

impl TowerConfig for Bls12377 {
    type Fq = Fq377;

    fn fq2_nonresidue() -> Fq377 {
        -Fq377::from_u64(5)
    }

    fn fq6_nonresidue() -> crate::tower::Fq2<Self> {
        // ξ = u
        crate::tower::Fq2::new(Fq377::zero(), Fq377::one())
    }

    #[inline]
    fn mul_by_fq2_nonresidue(x: Fq377) -> Fq377 {
        // −5x = −(4x + x)
        -(x.double().double() + x)
    }

    #[inline]
    fn wide_add_mul_by_fq2_nonresidue(t0: Wide<6>, t1: Wide<6>) -> Wide<6> {
        // t0 − 5·t1 = t0 − (4·t1 + t1)
        let t1_x2 = Fq377::wide_add(t1, t1);
        let t1_x4 = Fq377::wide_add(t1_x2, t1_x2);
        Fq377::wide_sub(t0, Fq377::wide_add(t1_x4, t1))
    }

    fn mul_by_fq6_nonresidue(x: Fq2) -> Fq2 {
        // (a + b u) u = β b + a u
        Fq2::new(Self::mul_by_fq2_nonresidue(x.c1), x.c0)
    }
}

impl Bls12Config for Bls12377 {
    type Fr = Fr377;

    const X: u64 = 0x8508_c000_0000_0001;
    const X_IS_NEGATIVE: bool = false;
    const TWIST_IS_D: bool = true; // D-twist: b' = 1/u
    const NAME: &'static str = "BLS12-377";

    fn g1_b() -> Fq377 {
        Fq377::one()
    }

    fn derived() -> &'static Derived<Self> {
        static DERIVED: OnceLock<Derived<Bls12377>> = OnceLock::new();
        DERIVED.get_or_init(Derived::compute)
    }
}

/// The BLS12-377 G1 curve.
pub type G1 = G1Curve<Bls12377>;
/// The BLS12-377 G2 curve (sextic twist over Fq2).
pub type G2 = G2Curve<Bls12377>;
/// BLS12-377 G1 affine points.
pub type G1Affine = Affine<G1>;
/// BLS12-377 G2 affine points.
pub type G2Affine = Affine<G2>;
/// The quadratic extension Fq2 over the BLS12-377 base field.
pub type Fq2 = crate::tower::Fq2<Bls12377>;
/// The pairing target field Fq12.
pub type Fq12 = crate::tower::Fq12<Bls12377>;

/// The BLS12-377 ate pairing.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fq12 {
    crate::bls12::pairing::<Bls12377>(p, q)
}
