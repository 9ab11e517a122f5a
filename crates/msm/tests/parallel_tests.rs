//! Thread-count invariance and work accounting tests for the parallel
//! Pippenger engine (the window picker is held to its cost model in
//! `plan_tests.rs`).
//!
//! The engine's chunk grid is a pure function of problem shape, so every
//! output here — the Jacobian coordinates *and* the stats — must be
//! bit-identical no matter how many worker threads execute the schedule.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::{bls12_381, Affine, Jacobian, SwCurve};
use zkp_ff::{Field, Fr381};
use zkp_msm::{
    msm_parallel_with_config, msm_serial, msm_with_config, num_windows, BucketRepr, MsmConfig,
};
use zkp_runtime::ThreadPool;

type G1 = bls12_381::G1;

fn random_inputs<Cu: SwCurve>(n: usize, seed: u64) -> (Vec<Affine<Cu>>, Vec<Cu::Scalar>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Jacobian::from(Cu::generator());
    let points = (0..n)
        .map(|_| g.mul_scalar(&Cu::Scalar::random(&mut rng)).to_affine())
        .collect();
    let scalars = (0..n).map(|_| Cu::Scalar::random(&mut rng)).collect();
    (points, scalars)
}

fn assert_bit_identical<Cu: SwCurve>(a: &Jacobian<Cu>, b: &Jacobian<Cu>) {
    // Projective `==` would accept any representative of the same point;
    // the determinism contract is stronger — identical coordinates.
    assert_eq!(a.x, b.x, "X coordinate diverged");
    assert_eq!(a.y, b.y, "Y coordinate diverged");
    assert_eq!(a.z, b.z, "Z coordinate diverged");
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn parallel_is_bit_identical_across_thread_counts() {
    let (points, scalars) = random_inputs::<G1>(600, 21);
    for config in [
        MsmConfig::default(),
        MsmConfig {
            window_bits: Some(4),
            signed_digits: true,
            bucket_repr: BucketRepr::Jacobian,
            ..MsmConfig::default()
        },
        MsmConfig {
            window_bits: Some(6),
            signed_digits: false,
            bucket_repr: BucketRepr::Xyzz,
            ..MsmConfig::default()
        },
        MsmConfig::glv_style(),
        MsmConfig {
            bucket_repr: BucketRepr::BatchAffine,
            ..MsmConfig::glv_style()
        },
    ] {
        let serial = msm_with_config(&points, &scalars, &config);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::with_threads(threads);
            let parallel = msm_parallel_with_config(&points, &scalars, &config, &pool);
            assert_bit_identical(&parallel.point, &serial.point);
            assert_eq!(
                parallel.stats, serial.stats,
                "stats diverged at {threads} threads for {config:?}"
            );
        }
    }
}

#[test]
fn window_reduction_work_does_not_scale_with_threads() {
    // The seed engine repeated the full window reduction (including the
    // `s` doublings per window) in every chunk, so its doubling count grew
    // with parallelism. The rewrite merges partial buckets first: the
    // reduction runs once per window regardless of the thread count.
    let (points, scalars) = random_inputs::<G1>(512, 22);
    let config = MsmConfig {
        window_bits: Some(5),
        signed_digits: true,
        bucket_repr: BucketRepr::Xyzz,
        ..MsmConfig::default()
    };
    let w = u64::from(num_windows::<Fr381>(5, true));
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::with_threads(threads);
        let out = msm_parallel_with_config(&points, &scalars, &config, &pool);
        assert_eq!(out.stats.window_pdbls, 5 * w, "at {threads} threads");
        assert_eq!(out.stats.window_padds, w, "at {threads} threads");
        assert_eq!(
            out.stats.reduction_padds,
            2 * (1 << 4) * w,
            "at {threads} threads"
        );
    }
}

#[test]
fn parallel_edge_cases_match_serial() {
    let pool = ThreadPool::with_threads(8);
    let config = MsmConfig::default();

    // Empty input.
    let out = msm_parallel_with_config::<G1>(&[], &[], &config, &pool);
    assert!(out.point.is_identity());

    // Single pair.
    let (points, scalars) = random_inputs::<G1>(1, 23);
    let out = msm_parallel_with_config(&points, &scalars, &config, &pool);
    assert_eq!(out.point, points[0].mul_scalar(&scalars[0]));

    // All-zero scalars.
    let (points, _) = random_inputs::<G1>(40, 24);
    let zeros = vec![Fr381::zero(); 40];
    let out = msm_parallel_with_config(&points, &zeros, &config, &pool);
    assert!(out.point.is_identity());
    assert_eq!(out.stats.accumulation_padds, 0);

    // Scalar r - 1 == -1: exercises the signed-digit carry chain end to end.
    let neg_one = -Fr381::one();
    for signed in [false, true] {
        let config = MsmConfig {
            signed_digits: signed,
            ..MsmConfig::default()
        };
        let out = msm_parallel_with_config(&points[..1], &[neg_one], &config, &pool);
        assert_eq!(
            out.point,
            Jacobian::from(points[0]).neg(),
            "signed={signed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_matches_serial_everywhere(
        seed in 0u64..1u64 << 48,
        n in 0usize..160,
        threads_idx in 0usize..THREAD_COUNTS.len(),
        window_bits in 3u32..9,
        signed in any::<bool>(),
        xyzz in any::<bool>(),
        endomorphism in any::<bool>(),
    ) {
        let (points, scalars) = random_inputs::<G1>(n, seed);
        let config = MsmConfig {
            window_bits: Some(window_bits),
            signed_digits: signed,
            bucket_repr: if xyzz { BucketRepr::Xyzz } else { BucketRepr::Jacobian },
            endomorphism,
        };
        let expect = msm_serial(&points, &scalars);
        let serial = msm_with_config(&points, &scalars, &config);
        prop_assert_eq!(serial.point, expect);

        let pool = ThreadPool::with_threads(THREAD_COUNTS[threads_idx]);
        let parallel = msm_parallel_with_config(&points, &scalars, &config, &pool);
        prop_assert_eq!(parallel.point, expect);
        assert_bit_identical(&parallel.point, &serial.point);
        prop_assert_eq!(parallel.stats, serial.stats);

        // Batch-affine buckets share the recoder but not the accumulator;
        // cross-check them against the same ground truth. Every non-zero
        // digit is one bucket update in either representation.
        let affine = msm_with_config(
            &points,
            &scalars,
            &MsmConfig { bucket_repr: BucketRepr::BatchAffine, ..config },
        );
        prop_assert_eq!(affine.point, expect);
        prop_assert_eq!(affine.stats.accumulation_padds, serial.stats.accumulation_padds);
    }
}
