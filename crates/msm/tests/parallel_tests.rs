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
use zkp_ff::{Field, Fr381, GlvScalar, PrimeField};
use zkp_msm::{
    msm_parallel_with_config, msm_serial, msm_with_config, num_windows, MsmConfig, MsmPlan,
    MsmStats,
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
            ..MsmConfig::default()
        },
        MsmConfig {
            window_bits: Some(6),
            signed_digits: false,
            ..MsmConfig::default()
        },
        MsmConfig::glv_style(),
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

/// Non-zero digits of a little-endian magnitude in base `2^s`, read bit by
/// bit (the engine reads words): a signed digit above `2^(s-1)` borrows from
/// the next window and is zero only when a carry filled it to exactly `2^s`.
fn nonzero_digits(limbs: &[u64], s: u32, signed: bool) -> u64 {
    let bit = |i: u32| {
        limbs
            .get((i / 64) as usize)
            .map_or(0, |w| (w >> (i % 64)) & 1)
    };
    let (mut carry, mut count) = (0u64, 0u64);
    for lo in (0..64 * limbs.len() as u32 + s).step_by(s as usize) {
        let d = (0..s).fold(carry, |d, b| d + (bit(lo + b) << b));
        carry = u64::from(signed && d > 1 << (s - 1));
        count += u64::from(d != 0 && d != 1 << s);
    }
    count
}

/// FNV-1a over the canonical limbs of `(x, y, z)`: equal fingerprints here
/// mean equal Jacobian coordinates, not merely the same point.
fn fingerprint(p: &Jacobian<G1>) -> u64 {
    [p.x, p.y, p.z]
        .iter()
        .flat_map(|c| c.to_uint())
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn chunked_shape_reproduces_the_recorded_coordinates() {
    // 400 bases, every fourth at infinity, at s = 4. Tables hold the 300
    // finite bases only, so a window runs 8 chunks signed (600 GLV rows,
    // 8 buckets), 2 unsigned (300 rows, 15 buckets), 8 once a plan folds
    // the rows onto copies (4 unsigned, 3 signed). Signed runs also take
    // the GLV split, so both recoder inputs (scalars, negated subscalars)
    // are covered. At 8 buckets even a full batch cannot repay its
    // inversion, so the signed tasks take their additions by XYZZ mixed
    // additions and invert nothing; a batch of 15 saves 60 `FF_mul`, more
    // than the 41 an inversion costs, so the unsigned tasks batch. The
    // signed fingerprints were recorded when the batch-affine task became
    // the only bucket store, the unsigned ones when inversion got cheap
    // enough for 15 buckets to batch: affine buckets enter the XYZZ
    // sum-of-sums as other coordinates of the same points (earlier ones,
    // of the Jacobian and XYZZ arenas, are in git history).
    const N: usize = 400;
    const FINITE: usize = 300;
    const S: u32 = 4;
    let (mut points, scalars) = random_inputs::<G1>(N, 25);
    for p in points.iter_mut().step_by(4) {
        *p = Affine::identity();
    }
    // (signed, planned, accumulation_padds, windows, batch_inversions,
    // fingerprint)
    let recorded = [
        (false, false, 17973, 64, 847, 0xc05b12e8b0800b9f),
        (false, true, 17973, 16, 847, 0x2e89dc0127fb6f88),
        (true, false, 17954, 32, 0, 0xfc9a1fd6acceb6d7),
        (true, true, 17954, 11, 0, 0x5460dfdb0dd30717),
    ];
    let phi = G1::endomorphism().expect("BLS12-381 G1 has φ");
    let expect = msm_serial(&points, &scalars);
    for (signed, planned, accumulation_padds, windows, batch_inversions, xyz) in recorded {
        let config = MsmConfig {
            window_bits: Some(S),
            signed_digits: signed,
            endomorphism: signed,
        };
        // Every non-zero digit of a finite base is one bucket update,
        // however the digits fold onto copies; bases at infinity have no
        // rows.
        let counted: u64 = scalars
            .iter()
            .zip(&points)
            .filter(|(_, p)| !p.is_identity())
            .map(|(k, _)| {
                if signed {
                    let mut subs = [GlvScalar::default(); 2];
                    phi.split(k, &mut subs);
                    subs.iter()
                        .map(|sub| nonzero_digits(&sub.limbs(), S, true))
                        .sum()
                } else {
                    nonzero_digits(&k.to_uint(), S, false)
                }
            })
            .sum();
        assert_eq!(counted, accumulation_padds, "{config:?}");

        let buckets_per_window = if signed { 8 } else { 15 };
        let glv_rows = if signed { 2 } else { 1 };
        let stats = MsmStats {
            accumulation_padds,
            reduction_padds: 2 * buckets_per_window * u64::from(windows),
            window_padds: u64::from(windows),
            window_pdbls: u64::from(S * windows),
            windows,
            buckets_per_window,
            glv_decompositions: if signed { FINITE as u64 } else { 0 },
            endomorphism_muls: if signed && !planned { FINITE as u64 } else { 0 },
            batch_inversions,
            reduction_inversions: 0,
        };
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::with_threads(threads);
            let out = if planned {
                let table_bytes = 4 * glv_rows * FINITE * core::mem::size_of::<Affine<G1>>();
                let plan = MsmPlan::build(&points, &config, Some(table_bytes as u64), &pool);
                // 255 bits (64 windows) unsigned, 127-bit GLV halves plus
                // the carry bit (32) signed.
                let full_windows: u32 = if signed { 32 } else { 64 };
                let copies = full_windows.div_ceil(windows) as usize;
                assert_eq!(plan.stored_points(), copies * glv_rows * FINITE);
                assert_eq!(plan.len(), points.len(), "the caller's base set");
                plan.execute(&scalars, &pool)
            } else {
                msm_parallel_with_config(&points, &scalars, &config, &pool)
            };
            assert_eq!(out.stats, stats, "{config:?} planned={planned}");
            assert_eq!(out.point, expect, "{config:?} planned={planned}");
            assert_eq!(
                fingerprint(&out.point),
                xyz,
                "(x, y, z) moved at {threads} threads: {config:?} planned={planned}"
            );
        }
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
        endomorphism in any::<bool>(),
    ) {
        let (points, scalars) = random_inputs::<G1>(n, seed);
        let config = MsmConfig {
            window_bits: Some(window_bits),
            signed_digits: signed,
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
    }
}
