//! The endomorphism splits at their boundaries (ROADMAP 7b).
//!
//! `glv_props.rs` holds *random* scalars to `Endomorphism::sub_bits` — the
//! bound `Layout::new` sizes the signed-digit matrix with — but the
//! subscalars are largest exactly where a rounding or a digit flips.
//!
//! * G1's GLV split (`φ`, Babai rounding): `c1 = round(k·X²/r)` steps from
//!   `j` to `j + 1` at `k = ⌈(2j+1)·r / (2·X²)⌉`, and `c2 = round(k/r)`
//!   steps at `⌊r/2⌋ + 1`. These fixed vectors sit on and beside those
//!   steps, on both curves.
//! * G2's split (`ψ`, base-`|x|` digits): the powers of `|x|` and their
//!   neighbours, where a digit wraps from `|x| − 1` to 0, and `r − 1`,
//!   whose top digit is the largest any canonical scalar has.

use rand::{rngs::StdRng, SeedableRng};
use zkp_bigint::UBig;
use zkp_curves::{bls12_377, bls12_381, Affine, Endomorphism, Jacobian, SwCurve};
use zkp_ff::{decompose_glv, Field, GlvScalar, PrimeField};
use zkp_msm::{msm_serial, msm_with_config, MsmConfig, MsmPlan};
use zkp_runtime::ThreadPool;

fn endo<Cu: SwCurve>() -> &'static Endomorphism<Cu> {
    Cu::endomorphism().expect("BLS12 G1 and G2 have an endomorphism")
}

fn modulus<Cu: SwCurve>() -> UBig {
    UBig::from_limbs(&Cu::Scalar::modulus_limbs())
}

fn to_scalar<Cu: SwCurve>(label: &str, k: &UBig) -> Cu::Scalar {
    assert!(k < &modulus::<Cu>(), "{label} is not canonical");
    let mut limbs = k.limbs().to_vec();
    limbs.resize(Cu::Scalar::NUM_LIMBS, 0);
    Cu::Scalar::from_le_limbs(&limbs).expect("canonical")
}

/// `(label, k)` for every boundary scalar of G1's lattice.
fn lattice_boundary_scalars<Cu: SwCurve>() -> Vec<(String, UBig)> {
    let (r, one) = (modulus::<Cu>(), UBig::one());
    // λ = X² − 1 as an integer below r.
    let x2 = UBig::from_limbs(&endo::<Cu>().eigenvalue.to_uint()).add(&one);
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
        let ceil = odd.mul(&r).add(&two_x2).sub(&one).div_rem(&two_x2).0;
        around(&format!("c1 flip at j = {name}"), ceil);
    }
    // The eigenvalue itself, where c2 flips, and the largest scalar.
    around("λ", x2.sub(&one));
    out.push(("⌊r/2⌋".to_owned(), r.shr(1)));
    out.push(("⌊r/2⌋ + 1".to_owned(), r.shr(1).add(&one)));
    out.push(("r - 1".to_owned(), r.sub(&one)));
    out
}

/// `(label, k)` for every boundary scalar of G2's base-`|x|` digits.
fn digit_boundary_scalars<Cu: SwCurve>() -> Vec<(String, UBig)> {
    let (r, one) = (modulus::<Cu>(), UBig::one());
    let x = UBig::from_limbs(&endo::<Cu>().eigenvalue.to_uint());
    let (x2, x3) = (x.mul(&x), x.mul(&x).mul(&x));
    vec![
        ("0".to_owned(), UBig::zero()),
        ("1".to_owned(), one.clone()),
        ("|x| - 1".to_owned(), x.sub(&one)),
        ("|x|".to_owned(), x.clone()),
        ("|x| + 1".to_owned(), x.add(&one)),
        ("|x|²".to_owned(), x2.clone()),
        ("|x|² - 1".to_owned(), x2.sub(&one)),
        ("|x|³ - 1".to_owned(), x3.sub(&one)),
        ("|x|³".to_owned(), x3.clone()),
        ("|x|³ + 1".to_owned(), x3.add(&one)),
        ("r - 1".to_owned(), r.sub(&one)),
    ]
}

/// Splits `k`, checks `Σ kᵢ·eⁱ ≡ k` and every `|kᵢ|` against `sub_bits`.
fn checked_split<Cu: SwCurve>(label: &str, k: &Cu::Scalar) -> Vec<GlvScalar> {
    let endo = endo::<Cu>();
    let mut subs = vec![GlvScalar::default(); endo.rows()];
    endo.split(k, &mut subs);
    let mut power = Cu::Scalar::one();
    let mut recombined = Cu::Scalar::zero();
    for sub in &subs {
        assert!(sub.bits() <= endo.sub_bits, "{label}: {} bits", sub.bits());
        recombined += sub.to_field::<Cu::Scalar>() * power;
        power *= endo.eigenvalue;
    }
    assert_eq!(recombined, *k, "{label}: Σ kᵢ·eⁱ != k");
    subs
}

/// Random subgroup points paired with `scalars`, and the signed bucket
/// engine over them — one-shot, and planned when `planned` — at the given
/// window sizes, against the double-and-add reference.
fn assert_msm_matches_serial<Cu: SwCurve>(
    scalars: &[Cu::Scalar],
    windows: &[Option<u32>],
    planned: bool,
) {
    let mut rng = StdRng::seed_from_u64(0x61f);
    let g = Jacobian::from(Cu::generator());
    let points: Vec<Affine<Cu>> = scalars
        .iter()
        .map(|_| g.mul_scalar(&Cu::Scalar::random(&mut rng)).to_affine())
        .collect();
    let expect = msm_serial(&points, scalars);
    let pool = ThreadPool::with_threads(2);
    for &window_bits in windows {
        let config = MsmConfig {
            window_bits,
            ..MsmConfig::glv_style()
        };
        let what = format!("{} window_bits {window_bits:?}", Cu::NAME);
        assert_eq!(
            msm_with_config(&points, scalars, &config).point,
            expect,
            "{what}"
        );
        if planned {
            let plan = MsmPlan::build(&points, &config, Some(0), &pool);
            assert_eq!(plan.execute(scalars, &pool).point, expect, "{what} planned");
        }
    }
}

fn check_lattice<Cu: SwCurve>() {
    let (r, x2) = (
        modulus::<Cu>(),
        UBig::from_limbs(&endo::<Cu>().eigenvalue.to_uint()).add(&UBig::one()),
    );
    let mut scalars = Vec::new();
    for (label, k) in &lattice_boundary_scalars::<Cu>() {
        let k = to_scalar::<Cu>(label, k);
        let subs = checked_split::<Cu>(label, &k);
        // The Barrett fast path rounds exactly like the long division.
        assert_eq!(
            (subs[0], subs[1]),
            decompose_glv(&k.to_uint(), &x2, &r),
            "{label}"
        );
        scalars.push(k);
    }
    // The signed GLV bucket engine recodes every maximal subscalar without
    // dropping a carry, at the default and at awkward window sizes.
    let windows = [None, Some(1), Some(3), Some(7), Some(13), Some(16)];
    assert_msm_matches_serial::<Cu>(&scalars, &windows, false);
}

fn check_digits<Cu: SwCurve>() {
    let endo = endo::<Cu>();
    assert_eq!(endo.rows(), 4);
    let x = endo.eigenvalue.to_uint()[0];
    let mut scalars = Vec::new();
    for (label, k) in &digit_boundary_scalars::<Cu>() {
        let k = to_scalar::<Cu>(label, k);
        let subs = checked_split::<Cu>(label, &k);
        // Digits: non-negative, below |x| < 2⁶⁴.
        assert!(
            subs.iter().all(|d| !d.neg && d.mag < u128::from(x)),
            "{label}: {subs:?}"
        );
        scalars.push(k);
    }
    // ψ⁴ − ψ² + 1 = 0 on random subgroup points (the eigenvalue's
    // polynomial, realized by the map).
    let mut rng = StdRng::seed_from_u64(0x95);
    for _ in 0..4 {
        let p = Jacobian::from(Cu::generator())
            .mul_scalar(&Cu::Scalar::random(&mut rng))
            .to_affine();
        let psi2 = endo.map(&endo.map(&p));
        let psi4 = endo.map(&endo.map(&psi2));
        let sum = Jacobian::from(psi4)
            .add(&Jacobian::from(psi2).neg())
            .add_affine(&p);
        assert!(sum.is_identity(), "ψ⁴ − ψ² + 1 ≠ 0 on {p:?}");
    }
    // The 4-way planned and one-shot engines at four window sizes.
    let windows = [None, Some(2), Some(7), Some(13)];
    assert_msm_matches_serial::<Cu>(&scalars, &windows, true);
}

#[test]
fn glv_decomposition_holds_at_the_rounding_boundaries_bls12_381() {
    check_lattice::<bls12_381::G1>();
}

#[test]
fn glv_decomposition_holds_at_the_rounding_boundaries_bls12_377() {
    check_lattice::<bls12_377::G1>();
}

#[test]
fn psi_split_holds_at_the_digit_boundaries_bls12_381() {
    check_digits::<bls12_381::G2>();
}

#[test]
fn psi_split_holds_at_the_digit_boundaries_bls12_377() {
    check_digits::<bls12_377::G2>();
}
