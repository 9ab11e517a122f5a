//! A miniature zk-rollup: one Groth16 proof attests to a whole batch of
//! token transfers — the blockchain-scaling application the paper's
//! introduction motivates ("anonymized cryptocurrencies and blockchain
//! scaling").
//!
//! The circuit keeps two account balances private. For every transfer it
//! enforces (1) the moved amount is a 32-bit value, (2) the sender keeps a
//! non-negative balance (again by 32-bit decomposition), and (3) the
//! balances update consistently. Only MiMC-style commitments to the
//! initial and final balances are public: the chain sees state roots, never
//! amounts.
//!
//! ```sh
//! cargo run --release -p zkp-examples --bin zkrollup [num_transfers]
//! ```

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove, setup, verify, PROOF_BYTES};
use zkp_r1cs::{ConstraintSystem, LinearCombination, Variable};

/// In-circuit MiMC-style commitment: three rounds of `x ← (x + cᵢ)³`
/// starting from `x + salt`. Returns the output variable.
fn commit(cs: &mut ConstraintSystem<Fr381>, x: Variable, salt: u64) -> Variable {
    let mut cur_lc = LinearCombination::from_var(x).add_term(Variable::One, Fr381::from_u64(salt));
    let mut cur_val = cs.assignment.value(x) + Fr381::from_u64(salt);
    for round in 0..3u64 {
        let c = Fr381::from_u64(0x5bd1_e995u64.wrapping_mul(round + 1));
        let t_lc = cur_lc.clone().add_term(Variable::One, c);
        let t_val = cur_val + c;
        let sq_val = t_val.square();
        let sq = cs.alloc_private(sq_val);
        cs.enforce(t_lc.clone(), t_lc.clone(), LinearCombination::from_var(sq));
        let cube_val = sq_val * t_val;
        let cube = cs.alloc_private(cube_val);
        cs.enforce(
            LinearCombination::from_var(sq),
            t_lc,
            LinearCombination::from_var(cube),
        );
        cur_lc = LinearCombination::from_var(cube);
        cur_val = cube_val;
    }
    // Bind the running value to a named variable.
    let out = cs.alloc_private(cur_val);
    cs.enforce(
        cur_lc,
        LinearCombination::from_var(Variable::One),
        LinearCombination::from_var(out),
    );
    out
}

/// Constrains `v` (a variable holding `value`) to 32 bits.
fn range_check_32(cs: &mut ConstraintSystem<Fr381>, v: Variable, value: u64) {
    let mut recompose = LinearCombination::zero();
    let mut weight = Fr381::one();
    for i in 0..32 {
        let bit = (value >> i) & 1;
        let b = cs.alloc_private(Fr381::from_u64(bit));
        cs.enforce(
            LinearCombination::from_var(b),
            LinearCombination::from_var(b).add_term(Variable::One, -Fr381::one()),
            LinearCombination::zero(),
        );
        recompose = recompose.add_term(b, weight);
        weight = weight.double();
    }
    cs.enforce(
        recompose,
        LinearCombination::from_var(Variable::One),
        LinearCombination::from_var(v),
    );
}

fn main() {
    let transfers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let mut rng = StdRng::seed_from_u64(2024);

    // The operator's private ledger: two accounts and a transfer batch.
    let mut alice: u64 = 5_000_000;
    let mut bob: u64 = 1_000_000;
    let amounts: Vec<u64> = (0..transfers).map(|_| rng.gen_range(1..10_000)).collect();

    let mut cs = ConstraintSystem::<Fr381>::new();
    // Private balance variables, committed publicly before and after.
    let alice_var = cs.alloc_private(Fr381::from_u64(alice));
    let bob_var = cs.alloc_private(Fr381::from_u64(bob));
    let c0 = commit(&mut cs, alice_var, 1);
    let c1 = commit(&mut cs, bob_var, 2);

    let mut a_var = alice_var;
    let mut b_var = bob_var;
    for (i, &amt) in amounts.iter().enumerate() {
        // Alternate transfer direction each step.
        let a_to_b = i % 2 == 0;
        let (from, from_bal, to, to_bal) = if a_to_b {
            (&mut a_var, &mut alice, &mut b_var, &mut bob)
        } else {
            (&mut b_var, &mut bob, &mut a_var, &mut alice)
        };
        // amount is a 32-bit value.
        let amt_var = cs.alloc_private(Fr381::from_u64(amt));
        range_check_32(&mut cs, amt_var, amt);
        // Sender's remaining balance is a 32-bit value (no overdraft).
        let new_from = *from_bal - amt; // u64 arithmetic panics on overdraft
        let new_from_var = cs.alloc_private(Fr381::from_u64(new_from));
        cs.enforce(
            LinearCombination::from_var(new_from_var).add_term(amt_var, Fr381::one()),
            LinearCombination::from_var(Variable::One),
            LinearCombination::from_var(*from),
        );
        range_check_32(&mut cs, new_from_var, new_from);
        // Receiver gains the amount.
        let new_to = *to_bal + amt;
        let new_to_var = cs.alloc_private(Fr381::from_u64(new_to));
        cs.enforce(
            LinearCombination::from_var(*to).add_term(amt_var, Fr381::one()),
            LinearCombination::from_var(Variable::One),
            LinearCombination::from_var(new_to_var),
        );
        *from = new_from_var;
        *to = new_to_var;
        *from_bal = new_from;
        *to_bal = new_to;
    }

    let c2 = commit(&mut cs, a_var, 3);
    let c3 = commit(&mut cs, b_var, 4);
    // Publish the four commitments (state roots) as public inputs.
    for commitment in [c0, c1, c2, c3] {
        let value = cs.assignment.value(commitment);
        let public = cs.alloc_public(value);
        cs.enforce(
            LinearCombination::from_var(commitment),
            LinearCombination::from_var(Variable::One),
            LinearCombination::from_var(public),
        );
    }
    assert!(cs.is_satisfied(), "rollup circuit must be satisfied");
    println!(
        "rollup batch: {transfers} transfers -> {} constraints, {} private variables, 4 public state roots",
        cs.num_constraints(),
        cs.num_private(),
    );

    let t = Instant::now();
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    println!("setup:  {:?}", t.elapsed());
    let t = Instant::now();
    let (proof, stats) = prove(&pk, &cs, &mut rng);
    println!(
        "prove:  {:?}  (domain 2^{}, G1 MSM sizes (A, C) {:?})",
        t.elapsed(),
        stats.domain_size.trailing_zeros(),
        stats.g1_msm_sizes
    );
    let t = Instant::now();
    let ok = verify(&pk.vk, &proof, &cs.assignment.public);
    println!(
        "verify: {:?} -> {}",
        t.elapsed(),
        if ok { "ACCEPT" } else { "REJECT" }
    );
    assert!(ok);
    println!(
        "proof wire size: {} bytes (paper SII: \"less than 200 bytes\")",
        PROOF_BYTES
    );
    println!("final balances (private!): alice={alice} bob={bob}");
}
