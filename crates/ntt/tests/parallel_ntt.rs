//! The production family (tabled, pooled) against the reference family
//! (on-the-fly, serial): outputs must be bit-identical at every pool
//! width, down to the degenerate sizes.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkp_ff::{Field, Fr381};
use zkp_ntt::{
    coset_intt, coset_ntt, coset_scale_on, distribute_powers, distribute_powers_parallel, intt,
    ntt, ntt_parallel_on, ntt_radix2_in_place, quotient_poly, quotient_poly_in, slow_dft,
    DensePoly, Domain, TwiddleTable,
};
use zkp_runtime::ThreadPool;

fn random_vec(n: usize, seed: u64) -> Vec<Fr381> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Fr381::random(&mut rng)).collect()
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The expectation: the on-the-fly `ntt`, or `intt` (with its `n⁻¹`)
/// followed by the shift onto the coset, `values[i] *= gⁱ`.
fn reference(domain: &Domain<Fr381>, values: &mut [Fr381], invert: bool) {
    if invert {
        intt(domain, values);
        distribute_powers(values, domain.coset_gen());
    } else {
        ntt(domain, values);
    }
}

/// The transform as the prover composes it: the tabled network, and for
/// the inverse the `n⁻¹` and the coset shift through the tabled scaling
/// pass.
fn production(domain: &Domain<Fr381>, values: &mut [Fr381], invert: bool, pool: &ThreadPool) {
    let table = TwiddleTable::new(domain);
    ntt_parallel_on(values, &table, invert, pool);
    if invert {
        coset_scale_on(values, &table, false, pool);
    }
}

/// The tabled network alone at every pool width: forward against the
/// reference network by `ω`, inverse against it by `ω⁻¹`, with no scaling
/// pass in between.
fn assert_matches_reference(domain: &Domain<Fr381>, input: &[Fr381], what: &str) {
    for invert in [false, true] {
        let omega = if invert {
            domain.omega_inv()
        } else {
            domain.omega()
        };
        let mut expect = input.to_vec();
        ntt_radix2_in_place(&mut expect, omega);
        let table = TwiddleTable::new(domain);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::with_threads(threads);
            let mut got = input.to_vec();
            ntt_parallel_on(&mut got, &table, invert, &pool);
            assert_eq!(
                got,
                expect,
                "{what}: n={} invert={invert} diverged at {threads} threads",
                input.len()
            );
        }
    }
}

/// Every log-size 0..=12 (and 14): 0–3 are the head-pass boundaries (no
/// stage, one butterfly, one quadruple, the first tabled stage), ≥ 10 the
/// pooled shapes and ≥ 12 the lane-parallel one.
#[test]
fn parallel_ntt_is_bit_identical() {
    for log_n in (0u32..=12).chain([14]) {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        assert_matches_reference(&domain, &random_vec(n, u64::from(log_n)), "random");
    }
}

/// Inputs that sit on the field's reduction boundary or single out one
/// index: all `p − 1` (every sum wraps), all zero (every difference is
/// `0 − 0`), and a unit impulse at index 0, 1 and `n − 1` — the inverse
/// transform's index negation fixes the first and swaps the other two.
#[test]
fn adversarial_inputs_match_the_reference() {
    for log_n in [0u32, 1, 2, 3, 5, 10, 12] {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        assert_matches_reference(&domain, &vec![-Fr381::one(); n], "all p-1");
        assert_matches_reference(&domain, &vec![Fr381::zero(); n], "all zero");
        for at in [0, 1, n - 1] {
            let mut impulse = vec![Fr381::zero(); n];
            impulse[at % n] = Fr381::one();
            assert_matches_reference(&domain, &impulse, "impulse");
        }
    }
}

#[test]
fn parallel_distribute_powers_is_bit_identical() {
    // Large enough to split into several chunks (4 096 elements at least).
    let n = 1 << 14;
    let g = Fr381::from_u64(7);
    let input = random_vec(n, 99);
    let mut expect = input.clone();
    distribute_powers(&mut expect, g);
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::with_threads(threads);
        let mut got = input.clone();
        distribute_powers_parallel(&pool, &mut got, g);
        assert_eq!(got, expect, "diverged at {threads} threads");
    }
}

/// The two tabled coset scalings against the serial power chain times a
/// constant: forward `n⁻¹·gⁱ` is `distribute_powers(g)` by `n⁻¹`, and the
/// reversed read `n⁻¹·g^(n−i)` is `distribute_powers(g⁻¹)` by `n⁻¹·gⁿ` —
/// at `i = 0` the table's entry past the domain. 2^13 splits into two
/// chunks, so the second reads the table from a non-zero offset.
#[test]
fn tabled_coset_scalings_match_distribute_powers() {
    for log_n in [0u32, 1, 2, 11, 13] {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let table = TwiddleTable::new(&domain);
        let input = random_vec(n, 70 + u64::from(log_n));
        let (g, n_inv) = (domain.coset_gen(), domain.size_inv());
        let scaled = |g: Fr381, k: Fr381| {
            let mut v = input.clone();
            distribute_powers(&mut v, g);
            v.iter().map(|x| *x * k).collect::<Vec<_>>()
        };
        let forward = scaled(g, n_inv);
        let reversed = scaled(domain.coset_gen_inv(), n_inv * g.pow(&[n as u64]));
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::with_threads(threads);
            for (invert, expect) in [(false, &forward), (true, &reversed)] {
                let mut got = input.clone();
                coset_scale_on(&mut got, &table, invert, &pool);
                assert_eq!(
                    &got, expect,
                    "n={n} invert={invert} diverged at {threads} threads"
                );
            }
        }
    }
}

/// Satisfied inputs (`c = a·b` on the domain) from 2^4 up, and an
/// unconstrained `c` at sizes 1 and 2, where the final scaling's reversed
/// table read is all boundary.
#[test]
fn pooled_quotient_poly_is_bit_identical() {
    for log_n in [0u32, 1, 4, 11, 13] {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let table = TwiddleTable::new(&domain);
        let a = random_vec(n, 100 + u64::from(log_n));
        let b = random_vec(n, 200 + u64::from(log_n));
        let c: Vec<Fr381> = if n <= 2 {
            random_vec(n, 300 + u64::from(log_n))
        } else {
            a.iter().zip(&b).map(|(x, y)| *x * *y).collect()
        };
        let (expect, expect_transforms) = quotient_poly(&domain, &a, &b, &c);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::with_threads(threads);
            let (mut got, mut b_scratch, mut c_scratch) = (a.clone(), b.clone(), c.clone());
            let transforms = quotient_poly_in(
                &domain,
                &table,
                &mut got,
                &mut b_scratch,
                &mut c_scratch,
                &pool,
            );
            assert_eq!(transforms, expect_transforms);
            assert_eq!(got, expect, "n=2^{log_n} diverged at {threads} threads");
        }
    }
}

/// ROADMAP 7b, NTT half: sizes 1, 2, 4 and 8 through both families.
#[test]
fn degenerate_sizes_agree_with_the_dft() {
    let pools = [ThreadPool::with_threads(1), ThreadPool::with_threads(3)];
    for n in [1usize, 2, 4, 8] {
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let input = random_vec(n, 40 + n as u64);
        let expect = slow_dft(&domain, &input);

        let mut evals = input.clone();
        ntt(&domain, &mut evals);
        assert_eq!(evals, expect, "reference ntt, n={n}");
        intt(&domain, &mut evals);
        assert_eq!(evals, input, "reference round trip, n={n}");
        coset_ntt(&domain, &mut evals);
        coset_intt(&domain, &mut evals);
        assert_eq!(evals, input, "coset round trip, n={n}");

        for pool in &pools {
            let threads = pool.num_threads();
            let mut evals = input.clone();
            production(&domain, &mut evals, false, pool);
            assert_eq!(evals, expect, "tabled ntt, n={n} threads={threads}");
            production(&domain, &mut evals, true, pool);
            let mut shifted = input.clone();
            distribute_powers(&mut shifted, domain.coset_gen());
            assert_eq!(evals, shifted, "tabled round trip, n={n} threads={threads}");
        }

        // Unconstrained c: the two families must agree on any input, not
        // only where a·b − c vanishes on the domain.
        let (a, b, c) = (input.clone(), random_vec(n, 50), random_vec(n, 60));
        let (expect, _) = quotient_poly(&domain, &a, &b, &c);
        let table = TwiddleTable::new(&domain);
        for pool in &pools {
            let (mut h, mut b, mut c) = (a.clone(), b.clone(), c.clone());
            quotient_poly_in(&domain, &table, &mut h, &mut b, &mut c, pool);
            assert_eq!(h, expect, "quotient, n={n}");
        }
    }

    // A product of two constants runs on the size-1 domain.
    let (x, y) = (Fr381::from_u64(6), Fr381::from_u64(7));
    let product = DensePoly::from_coeffs(vec![x]).mul_via_ntt(&DensePoly::from_coeffs(vec![y]));
    assert_eq!(product.coeffs, vec![x * y]);
}

#[test]
#[should_panic(expected = "power of two")]
fn empty_input_is_rejected() {
    ntt_radix2_in_place::<Fr381>(&mut [], Fr381::one());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_ntt_matches_serial_random(
        seed in 0u64..1u64 << 48,
        log_n in 2u32..13,
        threads_idx in 0usize..THREAD_COUNTS.len(),
        invert in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let input = random_vec(n, seed);
        let mut expect = input.clone();
        reference(&domain, &mut expect, invert);
        let pool = ThreadPool::with_threads(THREAD_COUNTS[threads_idx]);
        let mut got = input.clone();
        production(&domain, &mut got, invert, &pool);
        prop_assert_eq!(got, expect);
    }
}
