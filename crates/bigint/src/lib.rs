//! Multi-precision integer arithmetic for the ZKProphet reproduction.
//!
//! The finite fields behind Zero-Knowledge Proofs use integers far wider than
//! machine words ("limbs" in the paper's terminology — §II). This crate
//! provides the two integer representations everything else builds on:
//!
//! * [`Uint<N>`] — fixed-width little-endian limb vectors. These are the raw
//!   backing store of field elements: `Uint<4>` for ~255-bit scalar fields and
//!   `Uint<6>` for ~381-bit base fields (64-bit limbs; the GPU-side kernels in
//!   `gpu-kernels` use 32-bit limbs, mirroring the paper's CPU/GPU asymmetry).
//! * [`UBig`] — arbitrary-precision integers used to *derive* curve constants
//!   (cofactors, twist orders, final-exponentiation exponents) from first
//!   principles so that no unverifiable magic numbers ship in the curves.
//! * [`SInt`] — a sign plus a [`UBig`] magnitude, for the signed steps of
//!   those derivations and for exact polynomial certificates.
//!
//! # Examples
//!
//! ```
//! use zkp_bigint::{UBig, Uint};
//!
//! // The BLS12-381 scalar field modulus.
//! let r = Uint::<4>::from_hex(
//!     "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001",
//! );
//! assert_eq!(r.num_bits(), 255);
//!
//! // r - 1 has two-adicity 32: divisible by 2^32 but not 2^33.
//! let r_minus_1 = UBig::from(r).sub(&UBig::one());
//! assert!(r_minus_1.is_multiple_of(&UBig::one().shl(32)));
//! assert!(!r_minus_1.is_multiple_of(&UBig::one().shl(33)));
//! ```

#![forbid(unsafe_code)]

pub mod arith;
mod sint;
mod ubig;
mod uint;

pub use sint::SInt;
pub use ubig::UBig;
pub use uint::Uint;
