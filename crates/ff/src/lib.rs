//! Finite-field arithmetic for the ZKProphet reproduction.
//!
//! Zero-Knowledge Proof kernels (MSM and NTT) operate on elements of large
//! prime fields — integers modulo a 253–381-bit prime, represented as limb
//! vectors (paper §II). This crate provides:
//!
//! * [`Field`] / [`PrimeField`] — the trait surface used by the NTT, MSM,
//!   curve, and Groth16 crates.
//! * [`Fp`] — Montgomery-form arithmetic over 64-bit limbs (the CPU-native
//!   representation the paper contrasts with the GPU's 32-bit pipeline), and
//!   [`Wide`], its unreduced double-width products, so a sum of products is
//!   reduced once.
//! * Concrete fields [`Fr381`], [`Fq381`], [`Fr377`], [`Fq377`] for the two
//!   curves the studied libraries support.
//! * [`batch_inverse`] — the Montgomery inversion trick of §IV-D1b, and
//!   [`batch_inverse_in`], the same over caller scratch.
//! * [`glv`] — GLV lattice decomposition of scalars into half-width signed
//!   subscalars, the endomorphism lever behind fast MSM libraries (§IV-D).
//! * [`counter`] — op-counting instrumentation behind the paper's
//!   finite-field-layer breakdowns (Fig. 8, Table V).
//!
//! # Quickstart
//!
//! ```
//! use zkp_ff::{Field, PrimeField, Fr381};
//!
//! let a = Fr381::from_u64(42);
//! let b = a.inverse().expect("42 is invertible");
//! assert_eq!(a * b, Fr381::one());
//!
//! // NTT domains exist up to 2^32 in this field:
//! let omega = Fr381::root_of_unity(1 << 10).expect("two-adicity 32");
//! assert!(omega.pow(&[1 << 10]).is_one());
//! ```

#![forbid(unsafe_code)]

mod batch;
mod configs;
pub mod counter;
mod fp;
pub mod glv;
mod params;
mod safegcd;
mod traits;

pub use batch::{batch_inverse, batch_inverse_counted, batch_inverse_in};
pub use configs::{Fq377, Fq377Config, Fq381, Fq381Config, Fr377, Fr377Config, Fr381, Fr381Config};
pub use counter::{Counted, OpCounts};
pub use fp::{Fp, FpConfig, Wide};
pub use glv::{decompose_glv, GlvScalar};
pub use params::FieldParams;
pub use traits::{pow_uint, Field, PrimeField};
