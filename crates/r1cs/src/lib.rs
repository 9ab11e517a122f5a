//! Rank-1 Constraint Systems and benchmark circuits.
//!
//! The "application and its public and private inputs are encoded into a
//! set of polynomials" (paper §II) starting from an R1CS: this crate is the
//! front half of that encoding. It provides the constraint-system builder
//! consumed by `zkp-groth16` and the parameterized circuits the experiment
//! sweeps use to hit any target constraint count.
//!
//! # Examples
//!
//! ```
//! use zkp_r1cs::{circuits, ConstraintSystem, LinearCombination};
//! use zkp_ff::{Field, Fr381};
//!
//! // Prove knowledge of x with x^(2^10) = y.
//! let cs = circuits::squaring_chain(Fr381::from_u64(3), 10);
//! assert_eq!(cs.num_constraints(), 10);
//! assert!(cs.is_satisfied());
//! ```

#![forbid(unsafe_code)]

pub mod circuits;
mod cs;

pub use cs::{Assignment, Constraint, ConstraintSystem, LinearCombination, Variable};
