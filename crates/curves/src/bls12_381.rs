//! The BLS12-381 instantiation.
//!
//! Parameters: `x = -0xd201000000010000`, `b = 4`, tower non-residues
//! β = −1 (`u² = −1`) and ξ = `u + 1`, M-type sextic twist
//! (`y² = x³ + 4(u+1)`). These are the universally published constants; the
//! derived quantities (cofactors, generators, exponents) are computed and
//! cross-checked at first use, and the integration tests verify the *known*
//! standard generators lie on our curves and in our subgroups.

use crate::bls12::{Bls12Config, Derived, G1Curve, G2Curve};
use crate::sw::Affine;
use crate::tower::TowerConfig;
use std::sync::OnceLock;
use zkp_ff::{Field, Fq381, Fr381, PrimeField, Wide};

/// Marker type selecting the BLS12-381 curve family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Bls12381;

impl TowerConfig for Bls12381 {
    type Fq = Fq381;

    fn fq2_nonresidue() -> Fq381 {
        -Fq381::one()
    }

    fn fq6_nonresidue() -> crate::tower::Fq2<Self> {
        // ξ = 1 + u
        crate::tower::Fq2::new(Fq381::one(), Fq381::one())
    }

    #[inline]
    fn mul_by_fq2_nonresidue(x: Fq381) -> Fq381 {
        -x
    }

    #[inline]
    fn wide_add_mul_by_fq2_nonresidue(t0: Wide<6>, t1: Wide<6>) -> Wide<6> {
        Fq381::wide_sub(t0, t1)
    }

    fn mul_by_fq6_nonresidue(x: Fq2) -> Fq2 {
        // (a + b u)(1 + u) = (a − b) + (a + b) u
        Fq2::new(x.c0 - x.c1, x.c0 + x.c1)
    }
}

impl Bls12Config for Bls12381 {
    type Fr = Fr381;

    const X: u64 = 0xd201_0000_0001_0000;
    const X_IS_NEGATIVE: bool = true;
    const TWIST_IS_D: bool = false; // M-twist: b' = 4(u + 1)
    const NAME: &'static str = "BLS12-381";

    fn g1_b() -> Fq381 {
        Fq381::from_u64(4)
    }

    fn derived() -> &'static Derived<Self> {
        static DERIVED: OnceLock<Derived<Bls12381>> = OnceLock::new();
        DERIVED.get_or_init(Derived::compute)
    }
}

/// The BLS12-381 G1 curve.
pub type G1 = G1Curve<Bls12381>;
/// The BLS12-381 G2 curve (sextic twist over Fq2).
pub type G2 = G2Curve<Bls12381>;
/// BLS12-381 G1 affine points.
pub type G1Affine = Affine<G1>;
/// BLS12-381 G2 affine points.
pub type G2Affine = Affine<G2>;
/// The quadratic extension Fq2 over the BLS12-381 base field.
pub type Fq2 = crate::tower::Fq2<Bls12381>;
/// The pairing target field Fq12.
pub type Fq12 = crate::tower::Fq12<Bls12381>;

/// The BLS12-381 ate pairing.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fq12 {
    crate::bls12::pairing::<Bls12381>(p, q)
}

/// The standard (zkcrypto/IETF) G1 generator, used by tests to pin our
/// derived group structure to the published curve.
pub fn standard_g1_generator() -> G1Affine {
    Affine {
        x: Fq381::from_hex(
            "17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb",
        ),
        y: Fq381::from_hex(
            "08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1",
        ),
        infinity: false,
    }
}

/// The standard G2 generator (see [`standard_g1_generator`]).
pub fn standard_g2_generator() -> G2Affine {
    Affine {
        x: Fq2::new(
            Fq381::from_hex(
                "024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8",
            ),
            Fq381::from_hex(
                "13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e",
            ),
        ),
        y: Fq2::new(
            Fq381::from_hex(
                "0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801",
            ),
            Fq381::from_hex(
                "0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be",
            ),
        ),
        infinity: false,
    }
}
