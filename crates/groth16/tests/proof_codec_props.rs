//! Property tests for the proof wire format: arbitrary valid proofs
//! roundtrip byte-identically, every class of invalid point encoding is
//! rejected with the right [`DecodePointError`], and a real proof with
//! one bit flipped never verifies.

use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use std::sync::OnceLock;
use zkp_curves::bls12_381::Bls12381;
use zkp_curves::codec::DecodePointError;
use zkp_curves::{G1Curve, G2Curve, Jacobian, SwCurve};
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove, setup, verify, Proof, VerifyingKey, PROOF_BYTES};
use zkp_r1cs::circuits::squaring_chain;

const G1_BYTES: usize = 48;
const G2_BYTES: usize = 96;
const FLAG_INFINITY: u8 = 0x80;
const FLAG_Y_ODD: u8 = 0x40;

type Fr = <G1Curve<Bls12381> as SwCurve>::Scalar;

/// A structurally valid proof from random subgroup elements — proofs are
/// just (G1, G2, G1) triples on the wire, so this covers the codec without
/// paying for a trusted setup per case.
fn proof_from_seed(seed: u64) -> Proof<Bls12381> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g1 = Jacobian::from(G1Curve::<Bls12381>::generator());
    let g2 = Jacobian::from(G2Curve::<Bls12381>::generator());
    Proof {
        a: g1.mul_scalar(&Fr::random(&mut rng)).to_affine(),
        b: g2.mul_scalar(&Fr::random(&mut rng)).to_affine(),
        c: g1.mul_scalar(&Fr::random(&mut rng)).to_affine(),
    }
}

/// A real proof of a small circuit, its bytes, its verifying key and its
/// public inputs, built once for the binary.
fn real_proof() -> &'static ([u8; PROOF_BYTES], VerifyingKey<Bls12381>, Vec<Fr381>) {
    static REAL: OnceLock<([u8; PROOF_BYTES], VerifyingKey<Bls12381>, Vec<Fr381>)> =
        OnceLock::new();
    REAL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(29);
        let cs = squaring_chain(Fr381::from_u64(3), 6);
        let pk = setup::<Bls12381, _>(&cs, &mut rng);
        let (proof, _) = prove(&pk, &cs, &mut rng);
        assert!(verify(&pk.vk, &proof, &cs.assignment.public));
        (proof.to_bytes(), pk.vk, cs.assignment.public.clone())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_single_bit_flip_is_rejected_or_fails_verification(bit in 0..PROOF_BYTES * 8) {
        let (bytes, vk, public) = real_proof();
        let mut flipped = *bytes;
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(proof) = Proof::<Bls12381>::from_bytes(&flipped) {
            prop_assert!(!verify(vk, &proof, public), "bit {} flipped still verifies", bit);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn roundtrip_is_byte_identical(seed in any::<u64>()) {
        let proof = proof_from_seed(seed);
        let bytes = proof.to_bytes();
        prop_assert_eq!(bytes.len(), PROOF_BYTES);
        let restored = Proof::<Bls12381>::from_bytes(&bytes).expect("valid encoding");
        prop_assert_eq!(&restored, &proof);
        // Re-encoding is canonical.
        prop_assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn infinity_flag_with_payload_is_malformed(seed in any::<u64>(), component in 0usize..3) {
        let mut bytes = proof_from_seed(seed).to_bytes();
        // Set the infinity flag on a component whose payload is non-zero.
        let offset = [0, G1_BYTES, G1_BYTES + G2_BYTES][component];
        bytes[offset] |= FLAG_INFINITY;
        prop_assert_eq!(
            Proof::<Bls12381>::from_bytes(&bytes).unwrap_err(),
            DecodePointError::MalformedInfinity
        );
    }

    #[test]
    fn non_canonical_x_is_rejected(seed in any::<u64>()) {
        let mut bytes = proof_from_seed(seed).to_bytes();
        // Saturate A's x-payload: 2^382 - ish, far above the 381-bit p.
        for b in bytes[..G1_BYTES].iter_mut() {
            *b = 0xff;
        }
        bytes[0] &= !(FLAG_INFINITY | FLAG_Y_ODD);
        prop_assert_eq!(
            Proof::<Bls12381>::from_bytes(&bytes).unwrap_err(),
            DecodePointError::NonCanonicalX
        );
    }

    #[test]
    fn decoding_random_bytes_never_yields_a_non_canonical_point(seed in any::<u64>()) {
        // Fuzz the decoder: most byte strings fail; any accepted must
        // re-encode to exactly the input (decode is injective on its
        // accepted set, so malleability is impossible).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = [0u8; PROOF_BYTES];
        for b in bytes.iter_mut() {
            *b = (rng.next_u64() & 0xff) as u8;
        }
        if let Ok(p) = Proof::<Bls12381>::from_bytes(&bytes) {
            prop_assert_eq!(p.to_bytes(), bytes);
        }
    }
}

#[test]
fn small_x_values_hit_both_curve_and_subgroup_rejections() {
    // Sweep small x-coordinates for A: about half have no curve point
    // (NotOnCurve), and nearly every curve point found lies outside the
    // r-order subgroup, since only 1/h of E(Fq) survives the cofactor
    // (NotInSubgroup). Both rejection paths must be observed.
    let template = proof_from_seed(3).to_bytes();
    let mut saw_not_on_curve = false;
    let mut saw_not_in_subgroup = false;
    for x in 1u8..=60 {
        let mut bytes = template;
        for b in bytes[..G1_BYTES].iter_mut() {
            *b = 0;
        }
        bytes[G1_BYTES - 1] = x;
        match Proof::<Bls12381>::from_bytes(&bytes) {
            Err(DecodePointError::NotOnCurve) => saw_not_on_curve = true,
            Err(DecodePointError::NotInSubgroup) => saw_not_in_subgroup = true,
            Err(e) => panic!("unexpected rejection for x={x}: {e:?}"),
            Ok(_) => panic!("small-x torsion point accepted for x={x}"),
        }
    }
    assert!(saw_not_on_curve, "no x in 1..=60 missed the curve");
    assert!(saw_not_in_subgroup, "no x in 1..=60 hit the subgroup check");
}

#[test]
fn encoded_infinity_roundtrips() {
    // All-infinity proofs are representable on the wire (flag byte only).
    let proof = Proof::<Bls12381> {
        a: zkp_curves::Affine::identity(),
        b: zkp_curves::Affine::identity(),
        c: zkp_curves::Affine::identity(),
    };
    let bytes = proof.to_bytes();
    assert_eq!(bytes[0], FLAG_INFINITY);
    assert_eq!(bytes[G1_BYTES], FLAG_INFINITY);
    let restored = Proof::<Bls12381>::from_bytes(&bytes).expect("infinity decodes");
    assert_eq!(restored, proof);
}
