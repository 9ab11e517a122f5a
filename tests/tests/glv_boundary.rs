//! GLV decomposition at the Babai rounding boundary (ROADMAP 7b).
//!
//! `glv_props.rs` holds *random* scalars to `GlvParams::sub_bits` — the
//! bound `Layout::new` sizes the signed-digit matrix with — but the
//! subscalars are largest exactly where a rounding flips: `c1 =
//! round(k·X²/r)` steps from `j` to `j + 1` at `k = ⌈(2j+1)·r / (2·X²)⌉`,
//! and `c2 = round(k/r)` steps at `⌊r/2⌋ + 1`. These fixed vectors sit on
//! and beside those steps, on both curves — and on G1 and G2 of each, which
//! share `λ` and the lattice but not `β`, the point set or the engine's
//! coordinate field.

use rand::{rngs::StdRng, SeedableRng};
use zkp_bigint::UBig;
use zkp_curves::{bls12_377, bls12_381, Affine, Jacobian, SwCurve};
use zkp_ff::{decompose_glv, Field, PrimeField};
use zkp_msm::{msm_serial, msm_with_config, MsmConfig};

/// `(label, k)` for every boundary scalar of the curve's lattice.
fn boundary_scalars<Cu: SwCurve>() -> Vec<(String, UBig)> {
    let glv = Cu::glv().expect("BLS12 G1 and G2 have a GLV endomorphism");
    let (x2, r, one) = (&glv.x2, &glv.r, UBig::one());
    let mut out = Vec::new();
    let mut around = |label: &str, k: UBig| {
        out.push((format!("{label} - 1"), k.sub(&one)));
        out.push((format!("{label} + 1"), k.add(&one)));
        out.push((label.to_owned(), k));
    };
    // Where c1 flips from j to j + 1.
    let two_x2 = x2.shl(1);
    for (name, j) in [
        ("0", UBig::zero()),
        ("1", one.clone()),
        ("X²/2", x2.shr(1)),
        ("X²-1", x2.sub(&one)),
    ] {
        let odd = j.shl(1).add(&one);
        let ceil = odd.mul(r).add(&two_x2).sub(&one).div_rem(&two_x2).0;
        around(&format!("c1 flip at j = {name}"), ceil);
    }
    // The eigenvalue itself, where c2 flips, and the largest scalar.
    around("λ", x2.sub(&one));
    out.push(("⌊r/2⌋".to_owned(), r.shr(1)));
    out.push(("⌊r/2⌋ + 1".to_owned(), r.shr(1).add(&one)));
    out.push(("r - 1".to_owned(), r.sub(&one)));
    out
}

fn check_curve<Cu: SwCurve>() {
    let glv = Cu::glv().expect("BLS12 G1 and G2 have a GLV endomorphism");
    let vectors = boundary_scalars::<Cu>();
    let mut scalars = Vec::new();
    for (label, k) in &vectors {
        assert!(k < &glv.r, "{label} is not canonical");
        let mut limbs = k.limbs().to_vec();
        limbs.resize(Cu::Scalar::NUM_LIMBS, 0);
        let k = Cu::Scalar::from_le_limbs(&limbs).expect("canonical");

        let (k1, k2) = glv.decompose(&k);
        // The Barrett fast path rounds exactly like the long division.
        assert_eq!(
            (k1, k2),
            decompose_glv(&k.to_uint(), &glv.x2, &glv.r),
            "{label}"
        );
        let recombined = k1.to_field::<Cu::Scalar>() + glv.lambda * k2.to_field::<Cu::Scalar>();
        assert_eq!(recombined, k, "{label}: k1 + λ·k2 != k");
        assert!(
            k1.bits() <= glv.sub_bits,
            "{label}: |k1| {} bits",
            k1.bits()
        );
        assert!(
            k2.bits() <= glv.sub_bits,
            "{label}: |k2| {} bits",
            k2.bits()
        );
        scalars.push(k);
    }

    // The signed GLV bucket engine recodes every maximal subscalar without
    // dropping a carry, at the default and at awkward window sizes.
    let mut rng = StdRng::seed_from_u64(0x61f);
    let g = Jacobian::from(Cu::generator());
    let points: Vec<Affine<Cu>> = scalars
        .iter()
        .map(|_| g.mul_scalar(&Cu::Scalar::random(&mut rng)).to_affine())
        .collect();
    let expect = msm_serial(&points, &scalars);
    for window_bits in [None, Some(1), Some(3), Some(7), Some(13), Some(16)] {
        let config = MsmConfig {
            window_bits,
            ..MsmConfig::glv_style()
        };
        assert_eq!(
            msm_with_config(&points, &scalars, &config).point,
            expect,
            "window_bits {window_bits:?}"
        );
    }
}

#[test]
fn glv_decomposition_holds_at_the_rounding_boundaries_bls12_381() {
    check_curve::<bls12_381::G1>();
}

#[test]
fn glv_decomposition_holds_at_the_rounding_boundaries_bls12_377() {
    check_curve::<bls12_377::G1>();
}

#[test]
fn glv_g2_msm_holds_at_the_rounding_boundaries_bls12_381() {
    check_curve::<bls12_381::G2>();
}

#[test]
fn glv_g2_msm_holds_at_the_rounding_boundaries_bls12_377() {
    check_curve::<bls12_377::G2>();
}
