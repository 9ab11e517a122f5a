//! `FixedBase::mul` is the inner loop of key generation (one call per
//! query element, ~6k per key at 1k constraints): it must read its digits
//! from a stack buffer, not from a `Vec` per call.

use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::bls12_381::{G1, G2};
use zkp_curves::{Jacobian, SwCurve};
use zkp_ff::{Field, Fr381};
use zkp_msm::FixedBase;
use zkp_runtime::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn fixed_base_mul_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(5);
    let scalars: Vec<Fr381> = (0..16).map(|_| Fr381::random(&mut rng)).collect();
    let g1 = FixedBase::new(G1::generator(), 8);
    let g2 = FixedBase::new(G2::generator(), 5);
    let mut got = Vec::with_capacity(2 * scalars.len());

    CountingAlloc::reset();
    for k in &scalars {
        got.push((g1.mul(k), g2.mul(k)));
    }
    let allocs = CountingAlloc::allocations();
    assert_eq!(allocs, 0, "FixedBase::mul allocated {allocs} times");

    for (k, (p1, p2)) in scalars.iter().zip(&got) {
        assert_eq!(*p1, Jacobian::from(G1::generator()).mul_scalar(k));
        assert_eq!(*p2, Jacobian::from(G2::generator()).mul_scalar(k));
    }
}
