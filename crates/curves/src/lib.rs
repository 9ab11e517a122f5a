//! Elliptic-curve groups and pairings for the ZKProphet reproduction.
//!
//! The proving key of a Groth16 proof consists of elliptic-curve points
//! whose coordinates are large finite-field integers (paper §II); this crate
//! provides everything above the field layer:
//!
//! * [`sw`] — short-Weierstrass arithmetic in the paper's three coordinate
//!   systems (Table V): [`Affine`], [`Jacobian`], and [`Xyzz`].
//! * [`tower`] — the Fq2/Fq6/Fq12 extension tower.
//! * [`bls12`] — the generic BLS12 engine: subgroup derivation, G1/G2, and
//!   the ate pairing used by Groth16 verification.
//! * [`bls12_381`] / [`bls12_377`] — the two curves the paper's libraries
//!   support.
//!
//! # Examples
//!
//! ```
//! use zkp_curves::bls12_381::{pairing, G1, G2};
//! use zkp_curves::{Jacobian, SwCurve};
//! use zkp_ff::{Field, Fr381};
//!
//! // Bilinearity: e(aP, Q) = e(P, aQ).
//! let a = Fr381::from_u64(11);
//! let pa = Jacobian::from(G1::generator()).mul_scalar(&a).to_affine();
//! let qa = Jacobian::from(G2::generator()).mul_scalar(&a).to_affine();
//! assert_eq!(
//!     pairing(&pa, &G2::generator()),
//!     pairing(&G1::generator(), &qa),
//! );
//! ```

#![forbid(unsafe_code)]

pub mod bls12;
pub mod bls12_377;
pub mod bls12_381;
pub mod codec;
pub mod derive;
pub mod endo;
pub mod sw;
pub mod tower;

pub use bls12::{
    final_exponentiation, g1_in_subgroup, g2_in_subgroup, miller_loop, multi_pairing, pairing,
    Bls12Config, Derived, G1Curve, G2Curve,
};
pub use codec::{
    compress_g1, compress_g2, decompress_g1, decompress_g2, DecodePointError, G1_BYTES, G2_BYTES,
};
pub use endo::Endomorphism;
pub use sw::{batch_to_affine, Affine, Jacobian, SwCurve, Xyzz};
pub use tower::{Fq12, Fq2, Fq6, TowerConfig};
