//! The Groth16 zk-SNARK (paper §II, Fig. 3), built on the workspace's
//! finite fields, curves, MSM, and NTT crates.
//!
//! Groth16 proofs "are less than 200 bytes and can be verified in less than
//! 1 ms" — proof *generation* is the expensive part this repository
//! characterizes: 7 NTT-shaped transforms to compute `h = (a·b - c)/Z`,
//! followed by three large G1 MSMs and one G2 MSM.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use zkp_curves::bls12_381::Bls12381;
//! use zkp_ff::{Field, Fr381};
//! use zkp_groth16::{prove, setup, verify};
//! use zkp_r1cs::circuits::squaring_chain;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Prove knowledge of x with x^(2^8) = y, without revealing x.
//! let cs = squaring_chain(Fr381::from_u64(3), 8);
//! let pk = setup::<Bls12381, _>(&cs, &mut rng);
//! let (proof, _stats) = prove(&pk, &cs, &mut rng);
//! assert!(verify(&pk.vk, &proof, &cs.assignment.public));
//! ```

#![forbid(unsafe_code)]

mod batch;
mod protocol;
mod qap;
mod serialize;
mod service;
mod session;
mod workspace;

pub use batch::verify_batch;
pub use protocol::{
    prove, prove_with_backend, setup, verify, Proof, ProverPlan, ProverStats, ProvingKey,
    VerifyingKey,
};
pub use qap::Qap;
pub use serialize::PROOF_BYTES;
pub use service::{
    BackendFactory, CompletedProof, JobError, ProofService, ProofTicket, RetryPolicy,
    ServiceConfig, ServiceStats, SubmitError,
};
pub use session::ProverSession;
