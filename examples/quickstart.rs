//! Quickstart: prove and verify a Groth16 statement end to end on the
//! pure-Rust stack (BLS12-381), then show where the prover's time goes.
//!
//! ```sh
//! cargo run --release -p zkp-examples --bin quickstart
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove, setup, verify};
use zkp_r1cs::circuits::mimc;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // The statement: "I know x such that MiMC(x) = y", with y public.
    let secret = Fr381::from_u64(123_456_789);
    let rounds = 64;
    let cs = mimc(secret, rounds);
    println!(
        "circuit: MiMC with {rounds} rounds -> {} constraints, {} variables",
        cs.num_constraints(),
        cs.num_variables()
    );

    let t = Instant::now();
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    println!("trusted setup: {:?}", t.elapsed());

    let t = Instant::now();
    let (proof, stats) = prove(&pk, &cs, &mut rng);
    println!(
        "prove: {:?}  ({} NTT-shaped transforms over a 2^{} domain, \
         G1 MSMs (A; C over L ‖ H ‖ B₁) of sizes {:?}, one G2 MSM of size {})",
        t.elapsed(),
        stats.ntt_count,
        stats.domain_size.trailing_zeros(),
        stats.g1_msm_sizes,
        stats.g2_msm_size,
    );

    let t = Instant::now();
    let ok = verify(&pk.vk, &proof, &cs.assignment.public);
    println!(
        "verify: {:?} -> {}",
        t.elapsed(),
        if ok { "ACCEPT" } else { "REJECT" }
    );
    assert!(ok, "honest proof must verify");

    // And the soundness side: a wrong public input is rejected.
    let wrong = vec![cs.assignment.public[0] + Fr381::one()];
    assert!(!verify(&pk.vk, &proof, &wrong));
    println!("tampered public input -> REJECT (as it should)");
}
