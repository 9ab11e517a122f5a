//! Thread-count invariance tests for the parallel NTT path and the
//! pooled quotient pipeline: parallel outputs must be bit-identical to
//! the serial transforms at every pool width.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkp_ff::{Field, Fr381};
use zkp_ntt::{
    distribute_powers, distribute_powers_parallel, ntt_parallel_on, ntt_with_table, quotient_poly,
    quotient_poly_in, Domain, TwiddleTable,
};
use zkp_runtime::ThreadPool;

fn random_vec(n: usize, seed: u64) -> Vec<Fr381> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Fr381::random(&mut rng)).collect()
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn parallel_ntt_is_bit_identical() {
    // Sizes straddling the serial-fallback threshold (2^10) and both
    // stage regimes (block-parallel early stages, lane-parallel late
    // stages), forward and inverse.
    for log_n in [6u32, 10, 12, 14] {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let table = TwiddleTable::new(&domain);
        let input = random_vec(n, u64::from(log_n));
        for invert in [false, true] {
            let mut expect = input.clone();
            ntt_with_table(&mut expect, &table, invert);
            for threads in THREAD_COUNTS {
                let pool = ThreadPool::with_threads(threads);
                let mut got = input.clone();
                ntt_parallel_on(&mut got, &table, invert, &pool);
                assert_eq!(
                    got, expect,
                    "n=2^{log_n} invert={invert} diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn parallel_distribute_powers_is_bit_identical() {
    // Large enough to split into several chunks (MIN_CHUNK = 4096).
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

#[test]
fn pooled_quotient_poly_is_bit_identical() {
    for log_n in [4u32, 11, 13] {
        let n = 1usize << log_n;
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let table = TwiddleTable::new(&domain);
        let a = random_vec(n, 100 + u64::from(log_n));
        let b = random_vec(n, 200 + u64::from(log_n));
        let c: Vec<Fr381> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
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
        let table = TwiddleTable::new(&domain);
        let input = random_vec(n, seed);
        let mut expect = input.clone();
        ntt_with_table(&mut expect, &table, invert);
        let pool = ThreadPool::with_threads(THREAD_COUNTS[threads_idx]);
        let mut got = input.clone();
        ntt_parallel_on(&mut got, &table, invert, &pool);
        prop_assert_eq!(got, expect);
    }
}
